"""Per-rank cost counters.

The :class:`CounterSet` is one ``(4, p)`` ledger: for every virtual rank a
column holding its clock and the *path* counters (S, W, F) accumulated
along that rank's execution path.  A charge is one scatter of a ``(4, m)``
(seconds, S, W, F) block into the ledger.  A group synchronization copies
the slowest participant's column to the whole group, so at the end of a
run the counters of the rank with the maximal clock are the costs *along
the critical path* — the quantity the paper's tables report.
"""

from __future__ import annotations

import numpy as np

from repro.machine.cost import Cost


class CounterSet:
    """One ledger of per-rank clocks and (S, W, F) path counters."""

    def __init__(self, n_ranks: int):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = n_ranks
        #: rows (clock, S, W, F), one column per rank; the named rows are views
        self.ledger = np.zeros((4, n_ranks))
        self.clock, self.S, self.W, self.F = self.ledger
        # Totals over all ranks (volume accounting, not critical path).
        self.total = Cost.zero()

    def charge(self, ranks: np.ndarray, block: np.ndarray) -> None:
        """Add column ``j`` of the ``(4, m)`` (seconds, S, W, F) ``block`` to
        rank ``ranks[j]``; a ``(4, 1)`` block is added to every rank."""
        self.ledger[:, ranks] += block
        # plain float adds in rank order: a (4, 1) column counts len(ranks) times
        reps = len(ranks) // block.shape[1]
        S, W, F = self.total.S, self.total.W, self.total.F
        for _, s, w, f in block.T.tolist():
            S, W, F = S + s * reps, W + w * reps, F + f * reps
        self.total = Cost(S, W, F)

    def sync(self, ranks: np.ndarray) -> None:
        """Copy the group's slowest rank's column to every rank in the group.

        Clocks advance to the group's max, and the path counters of the
        slowest rank propagate so that the eventual max-clock rank carries
        critical-path counters.
        """
        if len(ranks) <= 1:
            return
        rmax = ranks[int(np.argmax(self.clock[ranks]))]
        self.ledger[:, ranks] = self.ledger[:, rmax, None]

    def critical_path(self) -> tuple[float, Cost]:
        """(max clock, path cost of the max-clock rank)."""
        t, S, W, F = self.ledger[:, int(np.argmax(self.clock))].tolist()
        return t, Cost(S, W, F)
