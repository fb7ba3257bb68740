"""Golden reference: the per-rank charging loops, pinned verbatim.

When :class:`repro.machine.Machine` learned to charge a group in one
vector step (one ``(4, p)`` clock/S/W/F ledger, one scatter per table per
charge), the original per-rank implementations moved here unchanged:
``CounterSet.charge``/``sync`` and its ``total`` update, and
``Machine.charge``/``charge_local``/``advance_group``/``_phase_add``/
``_bump``.  ``tests/test_machine_reference.py`` drives both with the same
random sequences and asserts bitwise-equal clocks, counters, totals and
per-rank phase/region tables.

An oracle *beside* the fast path, like ``tests/routing_reference.py``:
nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Sequence

import numpy as np

from repro.machine.cost import Cost, CostParams


class ReferenceCounterSet:
    """The pre-ledger ``CounterSet``: four separate per-rank arrays."""

    def __init__(self, n_ranks: int):
        self.n_ranks = n_ranks
        self.clock = np.zeros(n_ranks)
        self.S = np.zeros(n_ranks)
        self.W = np.zeros(n_ranks)
        self.F = np.zeros(n_ranks)
        # Totals over all ranks (volume accounting, not critical path).
        self.total = Cost.zero()

    def charge(self, ranks: np.ndarray, cost: Cost, seconds: float) -> None:
        """Add ``cost`` to each rank in ``ranks`` and advance their clocks."""
        self.S[ranks] += cost.S
        self.W[ranks] += cost.W
        self.F[ranks] += cost.F
        self.clock[ranks] += seconds
        self.total = self.total + cost * len(ranks)

    def sync(self, ranks: np.ndarray) -> None:
        """Advance every rank in the group to the group's max clock."""
        if len(ranks) <= 1:
            return
        clocks = self.clock[ranks]
        imax = int(np.argmax(clocks))
        tmax = clocks[imax]
        rmax = ranks[imax]
        self.clock[ranks] = tmax
        self.S[ranks] = self.S[rmax]
        self.W[ranks] = self.W[rmax]
        self.F[ranks] = self.F[rmax]


class ReferenceMachine:
    """The pre-ledger charging path of ``Machine`` (no grids, no backend)."""

    def __init__(self, n_ranks: int, params: CostParams):
        self.n_ranks = n_ranks
        self.params = params
        self.counters = ReferenceCounterSet(n_ranks)
        self._phase_stack: list[str] = []
        self._phase_acc: dict[str, np.ndarray] = {}
        self._region_stack: list[str] = []
        self._region_acc: dict[str, np.ndarray] = {}

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
        """Charge per-rank compute costs (no synchronization)."""
        for rank, cost in rank_costs.items():
            ranks = np.asarray([rank], dtype=np.int64)
            self.counters.charge(ranks, cost, cost.time(self.params))
            self._phase_add(ranks, cost)

    def advance_group(self, group: Sequence[int], t: float) -> None:
        """Advance the group's clocks to at least simulated time ``t``."""
        idx = np.asarray(list(group), dtype=np.int64)
        if idx.size:
            self.counters.clock[idx] = np.maximum(
                self.counters.clock[idx], float(t)
            )

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        self._phase_stack.append(name)
        try:
            yield
        finally:
            self._phase_stack.pop()

    @contextlib.contextmanager
    def region(self, name: str) -> Iterator[None]:
        self._region_stack.append(name)
        try:
            yield
        finally:
            self._region_stack.pop()

    def current_phase(self) -> str:
        return self._phase_stack[-1] if self._phase_stack else ""

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
