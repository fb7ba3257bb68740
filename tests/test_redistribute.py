"""Redistribution, submatrix extraction/embedding, distributed transpose."""

import numpy as np
import pytest

from repro.dist import (
    BlockedLayout,
    CyclicLayout,
    DistMatrix,
    change_layout,
    redistribute,
    transpose_matrix,
)
from repro.dist.redistribute import embed_submatrix, extract_submatrix
from repro.machine import CostParams, Machine
from repro.machine.validate import GridError

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")


def dist(machine, grid, A, layout_cls=CyclicLayout):
    return DistMatrix.from_global(machine, grid, layout_cls(*grid.shape), A)


class TestRedistribute:
    def test_grid_to_grid_preserves_data(self):
        m = Machine(8, params=UNIT)
        g1 = m.grid(2, 2)
        g2 = m.grid(2, 2)
        A = np.arange(36.0).reshape(6, 6)
        D = dist(m, g1, A)
        D2 = redistribute(D, g2, CyclicLayout(2, 2))
        assert np.array_equal(D2.to_global(), A)
        assert set(D2.blocks) == set(g2.ranks())

    def test_identity_transition_free(self):
        m = Machine(4, params=UNIT)
        g = m.grid(2, 2)
        D = dist(m, g, np.ones((4, 4)))
        D2 = redistribute(D, g, D.layout)
        assert m.time() == 0.0
        assert D2 is D

    def test_charges_exact_routing(self):
        m = Machine(8, params=UNIT)
        g1 = m.grid(2, 2)
        g2 = m.grid(2, 2)
        D = dist(m, g1, np.ones((4, 4)))
        redistribute(D, g2, CyclicLayout(2, 2))
        cp = m.critical_path()
        # same layout on a disjoint grid: every rank ships its whole block
        # to exactly one partner — one message of 4 words, not the
        # all-to-all bound the old implementation charged
        assert cp.S == 1
        assert cp.W == 4

    def test_layout_change_on_same_grid(self):
        m = Machine(4, params=UNIT)
        g = m.grid(2, 2)
        A = np.arange(16.0).reshape(4, 4)
        D = dist(m, g, A)
        D2 = change_layout(D, BlockedLayout(2, 2))
        assert np.array_equal(D2.to_global(), A)
        assert D2.layout == BlockedLayout(2, 2)


class TestTranspose:
    def test_square_grid_transpose(self):
        m = Machine(4, params=UNIT)
        g = m.grid(2, 2)
        A = np.arange(20.0).reshape(4, 5)
        D = dist(m, g, A)
        DT = transpose_matrix(D)
        assert np.array_equal(DT.to_global(), A.T)
        # pairwise exchange: one message per off-diagonal pair
        assert m.critical_path().S == 1

    def test_nonsquare_grid_transpose_falls_back(self):
        m = Machine(8, params=UNIT)
        g = m.grid(2, 4)
        A = np.arange(24.0).reshape(4, 6)
        D = dist(m, g, A)
        DT = transpose_matrix(D)
        assert np.array_equal(DT.to_global(), A.T)
        assert m.critical_path().S > 1  # all-to-all bound


class TestExtractSubmatrix:
    def test_aligned_extraction_is_free(self):
        m = Machine(4, params=UNIT)
        g = m.grid(2, 2)
        A = np.arange(64.0).reshape(8, 8)
        D = dist(m, g, A)
        sub = extract_submatrix(D, 0, 4, 0, 6)
        assert m.time() == 0.0
        assert np.array_equal(sub.to_global(), A[:4, :6])

    def test_misaligned_extraction_charged(self):
        m = Machine(4, params=UNIT)
        g = m.grid(2, 2)
        A = np.arange(64.0).reshape(8, 8)
        D = dist(m, g, A)
        sub = extract_submatrix(D, 3, 8, 0, 8)
        assert m.critical_path().S > 0
        assert np.array_equal(sub.to_global(), A[3:8, :])

    def test_extraction_is_standard_cyclic(self):
        m = Machine(4, params=UNIT)
        g = m.grid(2, 2)
        A = np.arange(64.0).reshape(8, 8)
        D = dist(m, g, A)
        sub = extract_submatrix(D, 4, 8, 4, 8)
        blk = sub.local((1, 0))
        assert np.array_equal(blk, A[4:8, 4:8][1::2, 0::2])


class TestEmbedSubmatrix:
    def test_aligned_embed_free(self):
        m = Machine(4, params=UNIT)
        g = m.grid(2, 2)
        target = dist(m, g, np.zeros((8, 8)))
        sub = dist(m, g, np.ones((4, 8)))
        embed_submatrix(target, sub, 0, 0)
        assert m.time() == 0.0
        G = target.to_global()
        assert np.all(G[:4] == 1) and np.all(G[4:] == 0)

    def test_misaligned_embed_charged(self):
        m = Machine(4, params=UNIT)
        g = m.grid(2, 2)
        target = dist(m, g, np.zeros((8, 8)))
        sub = dist(m, g, np.ones((3, 8)))
        embed_submatrix(target, sub, 5, 0)
        assert m.critical_path().S > 0
        G = target.to_global()
        assert np.all(G[5:] == 1) and np.all(G[:5] == 0)

    def test_grid_mismatch_rejected(self):
        m = Machine(8, params=UNIT)
        g1 = m.grid(2, 2)
        g2 = m.grid(2, 2)
        target = dist(m, g1, np.zeros((4, 4)))
        sub = dist(m, g2, np.ones((2, 4)))
        with pytest.raises(GridError):
            embed_submatrix(target, sub, 0, 0)

    def test_extract_then_embed_roundtrip(self):
        m = Machine(4, params=UNIT)
        g = m.grid(2, 2)
        A = np.arange(49.0).reshape(7, 7)
        D = dist(m, g, A)
        sub = extract_submatrix(D, 2, 6, 1, 5)
        target = dist(m, g, np.zeros((7, 7)))
        embed_submatrix(target, sub, 2, 1)
        G = target.to_global()
        assert np.array_equal(G[2:6, 1:5], A[2:6, 1:5])
        G[2:6, 1:5] = 0
        assert np.all(G == 0)
