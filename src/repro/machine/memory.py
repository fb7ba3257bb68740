"""Per-rank memory high-water tracking.

The paper analyses its algorithms in the unbounded-memory regime
("we do not place constraints on the local memory size", Section II-A).
The 3D algorithms buy their bandwidth savings with **replication** — e.g.
MM's line 2 leaves each processor holding an ``n/p1 x n/p1`` block of ``L``
(``p2``-fold replication of the input) — so a real deployment needs to know
the per-rank footprint.  This tracker quantifies it.

Two accounting styles are supported:

* ``alloc``/``free`` — explicit lifetime tracking for long-lived buffers
  (no caller in ``src/`` today);
* ``observe`` — declaring an instantaneous working set: distributed-matrix
  blocks observe their words on construction, and algorithms call it at
  their peak-usage points, e.g. right after assembling replicated
  operands.

``peak_words()`` reports the largest per-rank high water across both.
"""

from __future__ import annotations

import numpy as np


class MemoryTracker:
    """Per-rank words currently allocated plus observed working-set peaks."""

    def __init__(self, n_ranks: int):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = n_ranks
        self.current = np.zeros(n_ranks)
        self.peak = np.zeros(n_ranks)

    def alloc(self, rank: int, words: float) -> None:
        """Register ``words`` of long-lived storage on ``rank``."""
        if words < 0:
            raise ValueError("cannot allocate a negative amount")
        self.current[rank] += words
        np.maximum(self.peak, self.current, out=self.peak)

    def free(self, rank: int, words: float) -> None:
        """Release previously allocated storage (floored at zero)."""
        if words < 0:
            raise ValueError("cannot free a negative amount")
        self.current[rank] = max(self.current[rank] - words, 0.0)

    def observe(self, rank: int, words: float) -> None:
        """Record a transient working set of ``words`` on top of the
        currently allocated storage (does not change ``current``)."""
        if words < 0:
            raise ValueError("cannot observe a negative working set")
        self.peak[rank] = max(self.peak[rank], self.current[rank] + words)

    def observe_group(self, ranks, words: float) -> None:
        for r in ranks:
            self.observe(int(r), words)

    def peak_words(self) -> float:
        """Largest per-rank high water (words)."""
        return float(self.peak.max())

    def reset(self) -> None:
        self.current[:] = 0.0
        self.peak[:] = 0.0
