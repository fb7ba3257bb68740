"""The replint rule catalogue: six invariants of the cost model, as AST checks.

Every rule proves (a conservative approximation of) a property the
reproduction's exactness depends on:

* ``no-global-gather`` — hot paths never assemble a global frame; the
  modeled ``alpha*S + beta*W`` critical path is only exact if all data
  movement goes through charged routing plans.
* ``charge-soundness`` — every ``RoutingPlan.apply`` / ``set_local``
  mutation in the dist/machine layers is reachable only from functions
  that pair it with a ``charge``/``charge_pointwise``; an uncharged copy
  is a silently wrong critical path.
* ``slots-required`` — dataclasses on the serve hot path (``sched``,
  ``api``, ``dist``) must declare ``slots=True``: attribute-dict churn is
  measurable at 10^4-request scale and silent attribute typos break the
  pricing-key contracts.
* ``rng-discipline`` — all randomness flows through
  ``np.random.default_rng(seed)`` with an explicit seed; the golden
  schedules and parity suites are only reproducible if nothing touches
  the legacy global generator.
* ``int32-accumulation`` — integer reductions in routing-adjacent code
  need an explicit ``dtype``; the int32 word-count overflow class is
  guarded dynamically at plan construction, and this keeps new reduction
  sites from reintroducing it.
* ``backend-discipline`` — wall time is the backend's capability
  (``Backend.timer``): outside ``repro.backend``/``repro.machine`` no
  library code, in any layer, reads the host clock.  The scheduler, dist
  and api layers run in *virtual* time (the alpha-beta-gamma clock the
  paper's model defines), where a ``time.time()``/``time.monotonic()``
  read couples schedules to the host and breaks replay determinism.  The
  online daemon — the bridge from live arrivals to the simulated machine
  — and the selfcheck stopwatch are allowlisted in :data:`ALLOW`.

Rules are project-level: each receives the full :class:`~repro.lint.engine.Project`
so cross-file checks (the charge-soundness call-graph walk) and per-file
checks share one shape.  The module scope each rule patrols is a constant
beside it (prefix-matched: ``"repro.sched"`` covers the whole package), and
the per-rule exceptions are :data:`ALLOW`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.lint.engine import Finding, Project, SourceFile, module_matches

GLOBAL_GATHERS = ("to_global", "from_global", "gather_frame")
MUTATORS = ("apply", "set_local")
CHARGES = ("charge", "charge_pointwise", "charge_local")
INT_REDUCTIONS = ("sum", "prod", "cumsum", "cumprod")
RNG_SAFE_IMPORTS = ("default_rng", "Generator", "SeedSequence", "BitGenerator")
WALLCLOCK_FNS = (
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "clock_gettime",
    "clock_gettime_ns",
)


@dataclass(slots=True, frozen=True)
class Rule:
    id: str
    summary: str
    check: Callable[[Project], list[Finding]]


def _call_name(node: ast.AST) -> str | None:
    """The simple name a call resolves to: ``f(...)`` and ``x.y.f(...)``
    both yield ``"f"``; anything else (subscripts, lambdas) yields None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _qualnames(tree: ast.Module) -> dict[ast.AST, str]:
    """Map every node to its enclosing def/class qualname ('' at module level)."""
    out: dict[ast.AST, str] = {}

    def visit(node: ast.AST, stack: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack = stack + (node.name,)
        out[node] = ".".join(stack)
        for child in ast.iter_child_nodes(node):
            visit(child, stack)

    visit(tree, ())
    return out


def _context(src: SourceFile, qual: str) -> str:
    return f"{src.module}:{qual}" if qual else src.module


def _finding(rule: str, src: SourceFile, node: ast.AST, message: str, qual: str) -> Finding:
    return Finding(
        rule=rule,
        path=src.display_path(),
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
        context=_context(src, qual),
    )


# ---------------------------------------------------------------------------
# no-global-gather


#: modules where global gathers are banned
HOT_PATH_MODULES = (
    "repro.dist.routing",
    "repro.mm.mm3d",
    "repro.trsm.iterative",
    "repro.sched",
)


def check_no_global_gather(project: Project) -> list[Finding]:
    out: list[Finding] = []
    for src in project.in_modules(HOT_PATH_MODULES):
        quals = _qualnames(src.tree)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node.func)
            if name in GLOBAL_GATHERS:
                out.append(
                    _finding(
                        "no-global-gather",
                        src,
                        node,
                        f"hot-path module calls `{name}` (assembles a global "
                        "frame outside the charged routing plans)",
                        quals[node],
                    )
                )
    return out


# ---------------------------------------------------------------------------
# charge-soundness


#: modules whose call graph must pair mutations with charges
CHARGE_MODULES = ("repro.dist", "repro.machine", "repro.backend")


@dataclass(slots=True)
class _FuncRecord:
    key: str
    simple: str
    src: SourceFile
    qual: str
    has_charge: bool = False
    mutations: list[tuple[ast.Call, str]] = field(default_factory=list)
    calls: set[str] = field(default_factory=set)


def _charge_records(project: Project) -> dict[str, _FuncRecord]:
    records: dict[str, _FuncRecord] = {}
    for src in project.in_modules(CHARGE_MODULES):
        quals = _qualnames(src.tree)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = quals[node]
            key = f"{src.module}:{qual}" if qual else f"{src.module}:<module>"
            rec = records.get(key)
            if rec is None:
                simple = qual.rsplit(".", 1)[-1] if qual else "<module>"
                rec = records[key] = _FuncRecord(key=key, simple=simple, src=src, qual=qual)
            name = _call_name(node.func)
            if name is None:
                continue
            rec.calls.add(name)
            if name in CHARGES:
                rec.has_charge = True
            if name in MUTATORS:
                rec.mutations.append((node, name))
    return records


def check_charge_soundness(project: Project) -> list[Finding]:
    """Greatest-fixpoint coverage over a name-based call graph.

    A function is *covered* when it charges itself, or when it has at
    least one caller (other than itself) and every caller is covered.  A
    mutation (`.apply`/`.set_local` call) inside an uncovered function is
    movement the cost counters never see.
    """
    records = _charge_records(project)
    callers: dict[str, list[str]] = {k: [] for k in records}
    for key, rec in records.items():
        for other_key, other in records.items():
            if rec.simple != "<module>" and rec.simple in other.calls:
                callers[key].append(other_key)

    covered = {k: True for k in records}
    changed = True
    while changed:
        changed = False
        for key, rec in records.items():
            if rec.has_charge or not covered[key]:
                continue
            others = [c for c in callers[key] if c != key]
            ok = bool(others) and all(covered[c] for c in others)
            if not ok:
                covered[key] = False
                changed = True

    out: list[Finding] = []
    for key, rec in records.items():
        if covered[key]:
            continue
        for node, name in rec.mutations:
            where = rec.qual or "module level"
            out.append(
                _finding(
                    "charge-soundness",
                    rec.src,
                    node,
                    f"`{name}` in `{where}` is not reachable from any "
                    "charge/charge_pointwise pairing",
                    rec.qual,
                )
            )
    return out


# ---------------------------------------------------------------------------
# slots-required


#: modules whose dataclasses must declare slots=True
SLOTS_MODULES = ("repro.sched", "repro.api", "repro.dist", "repro.backend")


def _dataclass_decorator(cls: ast.ClassDef) -> ast.expr | None:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if _call_name(target) == "dataclass":
            return dec
    return None


def check_slots_required(project: Project) -> list[Finding]:
    out: list[Finding] = []
    for src in project.in_modules(SLOTS_MODULES):
        quals = _qualnames(src.tree)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            dec = _dataclass_decorator(node)
            if dec is None:
                continue
            has_slots = isinstance(dec, ast.Call) and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in dec.keywords
            )
            if not has_slots:
                out.append(
                    _finding(
                        "slots-required",
                        src,
                        node,
                        f"dataclass `{node.name}` must declare slots=True "
                        "(hot-path layers pay for attribute dicts at serve scale)",
                        quals[node],
                    )
                )
    return out


# ---------------------------------------------------------------------------
# rng-discipline


def _np_random_attr(func: ast.AST) -> str | None:
    """``np.random.<fn>`` / ``numpy.random.<fn>`` -> ``<fn>``, else None."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if (
        isinstance(value, ast.Attribute)
        and value.attr == "random"
        and isinstance(value.value, ast.Name)
        and value.value.id in ("np", "numpy")
    ):
        return func.attr
    return None


def _has_explicit_seed(node: ast.Call) -> bool:
    if node.args:
        return True
    return any(kw.arg == "seed" for kw in node.keywords)


def check_rng_discipline(project: Project) -> list[Finding]:
    out: list[Finding] = []
    for src in project.files:
        quals = _qualnames(src.tree)
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                bad = [a.name for a in node.names if a.name not in RNG_SAFE_IMPORTS]
                if bad:
                    out.append(
                        _finding(
                            "rng-discipline",
                            src,
                            node,
                            f"legacy numpy.random import(s) {', '.join(bad)}: "
                            "use np.random.default_rng(seed)",
                            quals[node],
                        )
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            fn = _np_random_attr(node.func)
            if fn is None and _call_name(node.func) == "default_rng":
                fn = "default_rng"
            if fn is None:
                continue
            if fn == "default_rng":
                if not _has_explicit_seed(node):
                    out.append(
                        _finding(
                            "rng-discipline",
                            src,
                            node,
                            "default_rng() without an explicit seed: golden "
                            "schedules and parity suites must be reproducible",
                            quals[node],
                        )
                    )
            else:
                out.append(
                    _finding(
                        "rng-discipline",
                        src,
                        node,
                        f"legacy global-state RNG call `np.random.{fn}`: use "
                        "np.random.default_rng(seed)",
                        quals[node],
                    )
                )
    return out


# ---------------------------------------------------------------------------
# int32-accumulation


#: routing-adjacent modules checked for implicit-dtype reductions
INT32_MODULES = ("repro.dist", "repro.machine", "repro.backend")


def check_int32_accumulation(project: Project) -> list[Finding]:
    out: list[Finding] = []
    for src in project.in_modules(INT32_MODULES):
        quals = _qualnames(src.tree)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in INT_REDUCTIONS):
                continue
            # math.prod/math.fsum are exact Python arithmetic, not numpy
            if isinstance(func.value, ast.Name) and func.value.id == "math":
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            out.append(
                _finding(
                    "int32-accumulation",
                    src,
                    node,
                    f"reduction `{func.attr}` without an explicit dtype in "
                    "routing-adjacent code: word counts overflow int32 "
                    "(pass dtype=np.int64)",
                    quals[node],
                )
            )
    return out


# ---------------------------------------------------------------------------
# backend-discipline


def _clock_reads(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    """Every host-clock read in ``tree`` as ``(node, description)`` — what
    ``backend-discipline`` flags.

    ``time.<fn>`` attribute access (calls *and* bare references —
    ``clock=time.monotonic`` smuggles the wall clock just as well) and
    ``from time import <fn>`` for the reading functions; ``time.sleep``
    and the struct/formatting helpers are not clock reads and pass.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            bad = [a.name for a in node.names if a.name in WALLCLOCK_FNS]
            if bad:
                yield node, f"wall-clock import(s) {', '.join(bad)} from `time`"
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in WALLCLOCK_FNS
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
        ):
            yield node, f"wall-clock read `time.{node.attr}`"


#: modules backend-discipline never patrols: the backend package (it owns
#: the real clock) and the machine layer (the simulated clock it reads)
BACKEND_EXEMPT = ("repro.backend", "repro.machine")


def check_backend_discipline(project: Project) -> list[Finding]:
    """Wall time is read through :mod:`repro.backend`, nowhere else.

    Every :func:`_clock_reads` hit over the *whole* ``repro`` tree: wall
    time is the backend's capability (``Backend.timer``), not ambient
    authority, and the virtual-time layers schedule on the modeled clock
    only (inject a clock if one is genuinely needed).
    """
    out: list[Finding] = []
    for src in project.in_modules(("repro",)):
        if module_matches(src.module, BACKEND_EXEMPT):
            continue
        quals = _qualnames(src.tree)
        for node, what in _clock_reads(src.tree):
            out.append(
                _finding(
                    "backend-discipline",
                    src,
                    node,
                    f"{what} outside repro.backend: wall time is the "
                    "backend's capability (Backend.timer)",
                    quals[node],
                )
            )
    return out


# ---------------------------------------------------------------------------
# registry

RULES: dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            "no-global-gather",
            "hot paths must not assemble global frames (to_global/from_global/gather_frame)",
            check_no_global_gather,
        ),
        Rule(
            "charge-soundness",
            "every plan.apply/set_local mutation must be reachable from a charge pairing",
            check_charge_soundness,
        ),
        Rule(
            "slots-required",
            "dataclasses in sched/api/dist must declare slots=True",
            check_slots_required,
        ),
        Rule(
            "rng-discipline",
            "randomness only via np.random.default_rng with an explicit seed",
            check_rng_discipline,
        ),
        Rule(
            "int32-accumulation",
            "integer reductions in routing-adjacent code need an explicit dtype",
            check_int32_accumulation,
        ),
        Rule(
            "backend-discipline",
            "time.* reads only inside repro.backend/repro.machine",
            check_backend_discipline,
        ),
    )
}


# ---------------------------------------------------------------------------
# allowlist

#: rule id -> ``module`` / ``module:qualname`` entries whose findings are
#: expected (a qualname entry also covers everything nested inside it)
ALLOW: dict[str, tuple[str, ...]] = {
    # it_inv_trsm_global is the *global-frame* convenience entry point: its
    # whole contract is "hand me numpy arrays, I do the distribution"; the
    # movement is charged by the stage_matrix call inside.
    "no-global-gather": ("repro.trsm.iterative:it_inv_trsm_global",),
    "backend-discipline": (
        # the daemon is the one place wall-clock time is the point: it
        # bridges live arrivals onto the simulated machine (injectable
        # clock for tests).
        "repro.api.online.daemon",
        # _check times the acceptance battery itself (host wall time, not a
        # backend measurement, so Backend.timer would be the wrong clock).
        "repro.analysis.selfcheck:_check",
    ),
}


def allowed(finding: Finding) -> bool:
    """Whether an :data:`ALLOW` entry for ``finding.rule`` covers its context."""
    module, _, qual = finding.context.partition(":")
    for entry in ALLOW.get(finding.rule, ()):
        emod, _, equal = entry.partition(":")
        if not equal:
            if module_matches(module, (entry,)):
                return True
        elif module == emod and (qual == equal or qual.startswith(equal + ".")):
            return True
    return False
