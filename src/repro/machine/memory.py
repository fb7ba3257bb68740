"""Per-rank memory high-water tracking.

The paper analyses its algorithms in the unbounded-memory regime
("we do not place constraints on the local memory size", Section II-A).
The 3D algorithms buy their bandwidth savings with **replication** — e.g.
MM's line 2 leaves each processor holding an ``n/p1 x n/p1`` block of ``L``
(``p2``-fold replication of the input) — so a real deployment needs to know
the per-rank footprint.  This tracker quantifies it.

One accounting style: ``observe`` declares an instantaneous working set.
Distributed-matrix blocks observe their words on construction, and
algorithms call it at their peak-usage points, e.g. right after assembling
replicated operands.  ``peak_words()`` reports the largest per-rank high
water.
"""

from __future__ import annotations

import numpy as np


class MemoryTracker:
    """Per-rank observed working-set peaks."""

    def __init__(self, n_ranks: int):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = n_ranks
        self.peak = np.zeros(n_ranks)

    def observe(self, rank: int, words: float) -> None:
        """Record a transient working set of ``words`` on ``rank``."""
        if words < 0:
            raise ValueError("cannot observe a negative working set")
        self.peak[rank] = max(self.peak[rank], words)

    def observe_group(self, ranks, words: float) -> None:
        for r in ranks:
            self.observe(int(r), words)

    def peak_words(self) -> float:
        """Largest per-rank high water (words)."""
        return float(self.peak.max())

    def reset(self) -> None:
        self.peak[:] = 0.0
