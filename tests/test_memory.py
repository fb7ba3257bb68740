"""Memory high-water tracking (the replication cost of going 3D)."""

import numpy as np
import pytest

from repro.dist import CyclicLayout, DistMatrix
from repro.machine import CostParams, Machine
from repro.machine.memory import MemoryTracker
from repro.mm import mm3d
from repro.util.randmat import random_dense

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")


class TestTracker:
    def test_observe_transient(self):
        """Working sets are transient: the peak is their max, not their sum."""
        t = MemoryTracker(1)
        t.observe(0, 40)
        t.observe(0, 100)
        t.observe(0, 60)
        assert t.peak_words() == 100  # peak is sticky

    def test_observe_group(self):
        t = MemoryTracker(4)
        t.observe_group([1, 3], 25)
        assert list(t.peak) == [0, 25, 0, 25]

    def test_negative_rejected(self):
        t = MemoryTracker(1)
        with pytest.raises(ValueError):
            t.observe(0, -1)

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            MemoryTracker(0)


class TestIntegration:
    def test_distmatrix_observes_blocks(self):
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        DistMatrix.from_global(
            machine, grid, CyclicLayout(2, 2), np.zeros((8, 8))
        )
        assert machine.memory.peak_words() == 16  # 8*8/4 per rank

    def _mm_peak(self, p1, sq, n=32, k=32):
        sp = p1 * sq
        machine = Machine(sp * sp, params=UNIT)
        grid = machine.grid(sp, sp)
        lay = CyclicLayout(sp, sp)
        A = random_dense(n, n, seed=0)
        X = random_dense(n, k, seed=1)
        dA = DistMatrix.from_global(machine, grid, lay, A)
        dX = DistMatrix.from_global(machine, grid, lay, X)
        mm3d(dA, dX, p1)
        return machine.memory.peak_words()

    def test_3d_split_uses_more_memory_than_2d(self):
        """The communication-memory tradeoff: on the same 16 processors,
        the replicated (p2 = 16) schedule needs a far larger per-rank
        working set than the 2D (p2 = 1) schedule."""
        peak_2d = self._mm_peak(p1=4, sq=1, k=8)
        peak_3d = self._mm_peak(p1=1, sq=4, k=8)
        assert peak_3d > 4 * peak_2d

    def test_replication_factor_matches_theory(self):
        """A' on the p2 fiber holds n^2/p1^2 words: p2-fold input replication."""
        n = 32
        peak = self._mm_peak(p1=2, sq=2, n=n, k=n)
        # A' block alone is (n/p1)^2 = 256 words on every rank
        assert peak >= (n / 2) ** 2
