"""The simulated machine: virtual ranks, clocks, charging, phases.

A :class:`Machine` is the root object of every simulation.  It owns the
per-rank clocks/counters and provides:

* ``grid(shape)`` — allocate a fresh :class:`ProcessorGrid` over new ranks
  (most programs allocate exactly one grid over all ranks);
* ``charge(group, cost, label=...)`` — synchronize the group, then add the
  cost to every member.  All collectives go through this.  ``label`` names
  the charge at its call site; the machine keeps no per-charge log (every
  routed transition is logged, labelled, by ``backend.measurements()``);
* ``charge_local(rank_costs)`` — per-rank compute charges without sync;
* ``phase(name)`` — context manager labelling subsequent charges, used by the
  per-phase cost benches (inversion / solve / update in Section VII);
* ``region(name)`` — like ``phase`` but *cumulative across nesting*: a charge
  inside nested regions is attributed to every active region.  The Cluster
  front-end wraps each scheduled request in a region so per-request costs
  can be read back even though the algorithms open their own inner phases;
* ``grid_pool()`` — all remaining ranks as a subgrid-allocator pool (the
  ``repro.sched`` quadrant pool the Cluster schedules solves onto);
* ``time()``, ``critical_path()``, ``group_time(ranks)`` — simulated results.

The machine never looks at the numpy payloads; data movement is done by the
collectives in :mod:`repro.machine.collectives`, which call back into
``charge`` with the Section II-C1 cost formulas.
"""

from __future__ import annotations

import contextlib
import math
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.machine.cost import Cost, CostParams
from repro.machine.counters import CounterSet
from repro.machine.memory import MemoryTracker
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import GridError, require

if TYPE_CHECKING:
    from repro.backend.base import Backend


class Machine:
    """A simulated distributed-memory machine with ``n_ranks`` processors."""

    def __init__(
        self,
        n_ranks: int,
        params: CostParams | None = None,
        backend: "Backend | None" = None,
    ):
        require(n_ranks >= 1, GridError, f"need >= 1 rank, got {n_ranks}")
        self.n_ranks = int(n_ranks)
        self.params = params or CostParams()
        self.counters = CounterSet(self.n_ranks)
        #: per-rank memory high-water accounting (see machine/memory.py)
        self.memory = MemoryTracker(self.n_ranks)
        self._phase_stack: list[str] = []
        #: per-phase, per-rank (S, W, F) accumulators; the reported phase
        #: cost is the componentwise max over ranks (see phase_cost)
        self._phase_acc: dict[str, np.ndarray] = {}
        self._region_stack: list[str] = []
        #: per-region accumulators (same shape as phases, but cumulative
        #: across nesting: a charge counts toward every active region)
        self._region_acc: dict[str, np.ndarray] = {}
        self._next_rank = 0
        if backend is None:
            from repro.backend.sim import SimBackend

            backend = SimBackend()
        #: the execution backend data movement routes through (see
        #: repro.backend), bound here, once, in both directions
        self.backend: "Backend" = backend
        backend.machine = self

    # -- grid allocation ------------------------------------------------------

    def grid(self, *shape: int) -> ProcessorGrid:
        """Allocate a grid over fresh consecutive ranks.

        Raises :class:`GridError` when the machine has too few unused ranks.
        """
        n = math.prod(shape)
        require(
            self._next_rank + n <= self.n_ranks,
            GridError,
            f"machine has {self.n_ranks - self._next_rank} unallocated ranks; "
            f"grid of shape {shape} needs {n}",
        )
        g = ProcessorGrid.build(shape, start=self._next_rank)
        self._next_rank += n
        return g

    def grid_pool(self, *shape: int):
        """All remaining ranks as a :class:`repro.sched.SubgridAllocator` pool.

        With no ``shape`` the pool root is the near-square 2D grid over every
        unallocated rank (the Cluster's quadrant pool); an explicit shape
        allocates that grid instead.  Power-of-two subgrids are then handed
        out with ``allocate``/``release`` (split/coalesce semantics).
        """
        from repro.sched.allocator import SubgridAllocator

        if not shape:
            remaining = self.n_ranks - self._next_rank
            require(remaining >= 1, GridError, "machine has no unallocated ranks to pool")
            b = int(np.log2(remaining)) if remaining > 1 else 0
            require(
                2**b == remaining,
                GridError,
                f"grid_pool needs a power-of-two rank count, got {remaining}",
            )
            shape = (2 ** ((b + 1) // 2), 2 ** (b // 2))
        return SubgridAllocator(self.grid(*shape))

    # -- charging ---------------------------------------------------------------

    def charge(
        self,
        group: Sequence[int],
        cost: Cost,
        label: str = "",
        sync: bool = True,
    ) -> None:
        """Synchronize ``group`` (unless ``sync=False``) and charge each member."""
        ranks = np.asarray(list(group), dtype=np.int64)
        if ranks.size == 0:
            return
        if sync:
            self.counters.sync(ranks)
        seconds = cost.time(self.params)
        self.counters.charge(ranks, cost, seconds)
        self._phase_add(ranks, cost)

    def charge_local(self, rank_costs: dict[int, Cost], label: str = "") -> None:
        """Charge per-rank compute costs (no synchronization).

        Used for local flops where different ranks may do different amounts
        of work (e.g. triangular blocks).
        """
        for rank, cost in rank_costs.items():
            ranks = np.asarray([rank], dtype=np.int64)
            self.counters.charge(ranks, cost, cost.time(self.params))
            self._phase_add(ranks, cost)

    def advance_group(self, group: Sequence[int], t: float) -> None:
        """Advance the group's clocks to at least simulated time ``t``.

        No cost is charged — this models an external release time (the
        Cluster uses it so a request's charges cannot start before the
        request arrives).  Ranks already past ``t`` are untouched.
        """
        idx = np.asarray(list(group), dtype=np.int64)
        if idx.size:
            self.counters.clock[idx] = np.maximum(
                self.counters.clock[idx], float(t)
            )

    # -- phases -------------------------------------------------------------------

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Label all charges issued inside the ``with`` block.

        Phases may nest; charges are attributed to the innermost phase.
        Phases may also be re-entered (e.g. once per iteration); costs
        accumulate across entries.
        """
        self._phase_stack.append(name)
        try:
            yield
        finally:
            self._phase_stack.pop()

    def current_phase(self) -> str:
        return self._phase_stack[-1] if self._phase_stack else ""

    @contextlib.contextmanager
    def region(self, name: str) -> Iterator[None]:
        """Attribute charges to ``name`` *cumulatively* across nesting.

        Unlike :meth:`phase` (innermost wins), a charge inside nested
        regions counts toward every active region, and regions compose
        freely with phases.  The Cluster front-end opens one region per
        scheduled request, so a request's total (S, W, F) is recoverable
        even though the solver opens its own inversion/solve/update phases
        inside it.
        """
        self._region_stack.append(name)
        try:
            yield
        finally:
            self._region_stack.pop()

    def phase_cost(self, name: str, ranks: Sequence[int] | None = None) -> Cost:
        """Componentwise max over ranks of this phase's per-rank totals.

        Concurrent charges to disjoint groups therefore do not inflate the
        phase cost — this is the within-phase critical-path proxy the E6
        bench compares against the Section VII formulas.  ``ranks``
        restricts the max to a subset (per-subgrid accounting: the same
        phase name may be active on several disjoint subgrids at once).
        """
        return self._acc_cost(self._phase_acc.get(name), ranks)

    def region_cost(self, name: str, ranks: Sequence[int] | None = None) -> Cost:
        """Componentwise max over ``ranks`` of a region's per-rank totals."""
        return self._acc_cost(self._region_acc.get(name), ranks)

    def phase_names(self) -> list[str]:
        return list(self._phase_acc.keys())

    def _acc_cost(
        self, acc: np.ndarray | None, ranks: Sequence[int] | None
    ) -> Cost:
        if acc is None:
            return Cost.zero()
        if ranks is not None:
            idx = np.asarray(list(ranks), dtype=np.int64)
            if idx.size == 0:
                return Cost.zero()
            acc = acc[:, idx]
        return Cost(float(acc[0].max()), float(acc[1].max()), float(acc[2].max()))

    def _phase_add(self, ranks: np.ndarray, cost: Cost) -> None:
        phase = self.current_phase()
        if phase:
            self._bump(self._phase_acc, phase, ranks, cost)
        for name in set(self._region_stack):
            self._bump(self._region_acc, name, ranks, cost)

    def _bump(
        self, table: dict[str, np.ndarray], name: str, ranks: np.ndarray, cost: Cost
    ) -> None:
        acc = table.get(name)
        if acc is None:
            acc = np.zeros((3, self.n_ranks))
            table[name] = acc
        acc[0, ranks] += cost.S
        acc[1, ranks] += cost.W
        acc[2, ranks] += cost.F

    # -- results -------------------------------------------------------------------

    def time(self) -> float:
        """Simulated critical-path execution time in seconds."""
        return self.counters.critical_path()[0]

    def group_time(self, ranks: Sequence[int]) -> float:
        """Max simulated clock over a rank subset (a subgrid's finish time)."""
        idx = np.asarray(list(ranks), dtype=np.int64)
        if idx.size == 0:
            return 0.0
        return float(self.counters.clock[idx].max())

    def critical_path(self) -> Cost:
        """(S, W, F) along the critical path (counters of the slowest rank)."""
        return self.counters.critical_path()[1]

    def max_counters(self) -> Cost:
        """Componentwise per-rank maxima of (S, W, F)."""
        return self.counters.max_counters()

    def total_volume(self) -> Cost:
        """Sum of all charges over all ranks (communication volume view)."""
        return self.counters.total

    def reset(self) -> None:
        """Zero all clocks, counters, memory and phase attributions."""
        self.counters = CounterSet(self.n_ranks)
        self.memory.reset()
        self._phase_acc.clear()
        self._region_acc.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Machine(n_ranks={self.n_ranks}, params={self.params.name!r})"
