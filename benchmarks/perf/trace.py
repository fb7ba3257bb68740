"""Spans around the layers' public entry points, recorded from outside.

The program has no span stream yet (ROADMAP item 1), so the benchmark
takes its per-layer numbers by *rebinding* the entry points it is told
about: a class method is replaced on its class, and a module-level
function is replaced in every ``repro.*`` (and harness) module whose
namespace holds it (``from x import f`` copies the binding, so patching
``x.f`` alone would miss the callers).  :meth:`Tracer.restore` puts every binding back.

Spans stay in memory while the workload runs and are written out
afterwards (:meth:`Tracer.write_chrome_trace`).  A layer's *self time* is
its spans' time minus the part their child spans cover, so the layers'
self times add up to the root spans by construction.  Time spent in
helpers nobody wrapped (``ProcessorGrid.rank``, ``Machine.charge``, ...)
stays with the enclosing span's layer — the stated limit of measuring
from outside.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

#: a span is ``(target index, start, end, parent span id)``; roots have parent -1
Span = tuple[int, float, float, int]

#: a target entered more often than this per pass keeps its call count but
#: records no further spans (the wrapper itself would dominate its time)
SPAN_LIMIT = 100_000


@dataclass(frozen=True, slots=True)
class Target:
    """One entry point to wrap: ``module`` attribute path ``qualname``."""

    layer: str
    module: str
    qualname: str
    #: groups targets for the layer-specific metrics ("route", "execute", ...)
    label: str = ""
    #: known-hot entry points: count calls, record no spans
    count_only: bool = False


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per-span self time: duration minus the duration of direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def outermost(spans: Sequence[Span]) -> list[bool]:
    """True for spans with no ancestor of the same target (recursion-safe
    inclusive time sums only these)."""
    flags = []
    for target, _, _, parent in spans:
        while parent >= 0 and spans[parent][0] != target:
            parent = spans[parent][3]
        flags.append(parent < 0)
    return flags


#: packages whose module namespaces are searched for copies of a wrapped
#: function: the program, and this harness (workloads.py imports by name too)
PATCHED_PACKAGES = ("repro", "perf")


def _patched_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and name.partition(".")[0] in PATCHED_PACKAGES
    ]


class Tracer:
    """In-memory span recorder over a list of :class:`Target` s."""

    def __init__(self, workload: str, targets: Iterable[Target]) -> None:
        self.workload = workload
        self.targets = list(targets)
        self.counts = [0] * len(self.targets)
        self.spans: list[Span] = []
        #: target indices that crossed SPAN_LIMIT and stopped recording spans
        self.truncated: set[int] = set()
        #: ``qualname -> hook(args, result)`` run after the wrapped call returns
        self.on_return: dict[str, Callable[[tuple, object], None]] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn: Callable, index: int) -> Callable:
        counts, spans, stack, clock = self.counts, self.spans, self._stack, time.perf_counter
        target = self.targets[index]
        hook = self.on_return.get(target.qualname)

        if target.count_only:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[index] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[index] += 1
            if counts[index] > SPAN_LIMIT:
                self.truncated.add(index)
                return fn(*args, **kwargs)
            sid, parent = len(spans), stack[-1]
            spans.append((index, 0.0, 0.0, parent))  # reserves the id; children point at it
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, start, end, parent)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target to its wrapper (idempotent per tracer)."""
        if self._patches:
            return
        functions: dict[int, tuple[object, object]] = {}
        for index, target in enumerate(self.targets):
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapper: object = type(raw)(self._wrap(raw.__func__, index))
                else:
                    wrapper = self._wrap(raw, index)
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, raw))
            else:
                original = getattr(module, attr)
                functions[id(original)] = (original, self._wrap(original, index))
        for module in _patched_modules():
            for attr, value in list(vars(module).items()):
                pair = functions.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self._patches.append((module, attr, value))
        # the wrapper is kept alongside so its id cannot be reused while we hold it
        self._wrappers = {id(w): (w, original) for original, w in functions.values()}

    def restore(self) -> None:
        """Put every binding back, including ones copied after :meth:`install`."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for module in _patched_modules():
            for attr, value in list(vars(module).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None:
                    setattr(module, attr, pair[1])
        self._wrappers = {}

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading ------------------------------------------------------------

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def by_target(self) -> list[dict]:
        """Per target: calls, recursion-safe inclusive seconds, self seconds."""
        rows = [
            {
                "layer": t.layer,
                "name": t.qualname,
                "label": t.label,
                "calls": self.counts[i],
                "inclusive_s": 0.0,
                "self_s": 0.0,
                "spans_dropped": t.count_only or i in self.truncated,
            }
            for i, t in enumerate(self.targets)
        ]
        own = self_times(self.spans)
        for (index, start, end, _), self_s, outer in zip(self.spans, own, outermost(self.spans)):
            rows[index]["self_s"] += self_s
            if outer:
                rows[index]["inclusive_s"] += end - start
        return rows

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans in Chrome-trace ("Trace Event") format."""
        origin = min((start for _, start, _, _ in self.spans), default=0.0)
        events = [
            {
                "name": self.targets[index].qualname,
                "cat": self.targets[index].layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": sid, "parent": parent, "workload": self.workload},
            }
            for sid, (index, start, end, parent) in enumerate(self.spans)
        ]
        counts = {t.qualname: self.counts[i] for i, t in enumerate(self.targets) if self.counts[i]}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "workload": self.workload, "counts": counts})
        )
