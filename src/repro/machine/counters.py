"""Per-rank cost counters.

The :class:`CounterSet` holds, for every virtual rank, the *path* counters
(S, W, F) accumulated along that rank's execution path.  At a group
synchronization the counters of the slowest participant propagate to the
whole group, so at the end of a run the counters of the rank with the
maximal clock are the costs *along the critical path* — the quantity the
paper's tables report.
"""

from __future__ import annotations

import numpy as np

from repro.machine.cost import Cost


class CounterSet:
    """Vectorized per-rank clocks and (S, W, F) path counters."""

    def __init__(self, n_ranks: int):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
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
        """Advance every rank in the group to the group's max clock.

        The path counters of the slowest rank propagate to the whole group so
        that the eventual max-clock rank carries critical-path counters.
        """
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

    def critical_path(self) -> tuple[float, Cost]:
        """(max clock, path cost of the max-clock rank)."""
        imax = int(np.argmax(self.clock))
        return float(self.clock[imax]), Cost(
            float(self.S[imax]), float(self.W[imax]), float(self.F[imax])
        )

    def max_counters(self) -> Cost:
        """Componentwise maxima over ranks (upper bound on any path)."""
        return Cost(float(self.S.max()), float(self.W.max()), float(self.F.max()))
