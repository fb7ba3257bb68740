"""Matrix multiplication: correctness on all grid splits, cost vs model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import CyclicLayout, DistMatrix
from repro.machine import CostParams, Machine
from repro.machine.validate import GridError, ParameterError, ShapeError
from repro.mm import mm1d, mm3d
from repro.mm.cost_model import (
    mm1d_cost,
    mm3d_cost,
    mm3d_cost_lines,
    mm3d_leading_order,
    mm_bandwidth_lower_bound,
)
from repro.mm.dispatch import MMRegime, choose_mm_split, classify_mm, valid_mm_splits
from repro.util.randmat import random_dense

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")


def run_mm3d(m_, n_, k_, p1, sq, scale=1.0, seed=0):
    sp = p1 * sq
    machine = Machine(sp * sp, params=UNIT)
    grid = machine.grid(sp, sp)
    layout = CyclicLayout(sp, sp)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m_, n_))
    X = rng.standard_normal((n_, k_))
    dA = DistMatrix.from_global(machine, grid, layout, A)
    dX = DistMatrix.from_global(machine, grid, layout, X)
    dB = mm3d(dA, dX, p1, scale=scale)
    return machine, A, X, dB


class TestMM3DCorrectness:
    @pytest.mark.parametrize(
        "m_,n_,k_,p1,sq",
        [
            (8, 8, 8, 1, 1),  # single processor
            (8, 8, 4, 2, 1),  # 2D split
            (8, 8, 4, 1, 2),  # pure replication split
            (16, 16, 8, 2, 2),  # true 3D split
            (12, 10, 7, 2, 2),  # ragged, rectangular A
            (9, 7, 5, 4, 1),  # sizes smaller than grid side
            (5, 3, 2, 2, 2),  # tiny with empty local blocks
        ],
    )
    def test_matches_numpy(self, m_, n_, k_, p1, sq):
        machine, A, X, dB = run_mm3d(m_, n_, k_, p1, sq)
        assert np.allclose(dB.to_global(), A @ X)

    def test_scale_folded_into_product(self):
        machine, A, X, dB = run_mm3d(8, 8, 4, 2, 1, scale=-2.0)
        assert np.allclose(dB.to_global(), -2.0 * (A @ X))

    def test_result_layout_matches_x(self):
        machine, A, X, dB = run_mm3d(8, 8, 4, 2, 2)
        assert dB.layout == CyclicLayout(4, 4)
        assert dB.shape == (8, 4)

    def test_requires_same_grid(self):
        machine = Machine(8, params=UNIT)
        g1 = machine.grid(2, 2)
        g2 = machine.grid(2, 2)
        dA = DistMatrix.from_global(machine, g1, CyclicLayout(2, 2), np.ones((4, 4)))
        dX = DistMatrix.from_global(machine, g2, CyclicLayout(2, 2), np.ones((4, 2)))
        with pytest.raises(GridError):
            mm3d(dA, dX, 2)

    def test_requires_square_grid(self):
        machine = Machine(8, params=UNIT)
        g = machine.grid(2, 4)
        dA = DistMatrix.from_global(machine, g, CyclicLayout(2, 4), np.ones((4, 4)))
        dX = DistMatrix.from_global(machine, g, CyclicLayout(2, 4), np.ones((4, 2)))
        with pytest.raises(GridError):
            mm3d(dA, dX, 2)

    def test_inner_dimension_mismatch(self):
        machine = Machine(4, params=UNIT)
        g = machine.grid(2, 2)
        dA = DistMatrix.from_global(machine, g, CyclicLayout(2, 2), np.ones((4, 4)))
        dX = DistMatrix.from_global(machine, g, CyclicLayout(2, 2), np.ones((3, 2)))
        with pytest.raises(ShapeError):
            mm3d(dA, dX, 2)

    def test_invalid_p1(self):
        machine = Machine(4, params=UNIT)
        g = machine.grid(2, 2)
        dA = DistMatrix.from_global(machine, g, CyclicLayout(2, 2), np.ones((4, 4)))
        dX = DistMatrix.from_global(machine, g, CyclicLayout(2, 2), np.ones((4, 2)))
        with pytest.raises(ParameterError):
            mm3d(dA, dX, 3)

    @settings(max_examples=25, deadline=None)
    @given(
        m_=st.integers(1, 14),
        n_=st.integers(1, 14),
        k_=st.integers(1, 14),
        split=st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]),
    )
    def test_property_random_shapes(self, m_, n_, k_, split):
        p1, sq = split
        machine, A, X, dB = run_mm3d(m_, n_, k_, p1, sq, seed=m_ * 100 + n_ * 10 + k_)
        assert np.allclose(dB.to_global(), A @ X)


class TestMM3DCost:
    def test_measured_matches_model_exactly_divisible(self):
        # Divisible sizes: the per-line model should match the simulation
        # exactly (same formulas, same integer block sizes).
        for (n_, k_, p1, sq) in [(16, 8, 2, 2), (8, 8, 2, 1), (16, 16, 1, 2)]:
            machine, A, X, dB = run_mm3d(n_, n_, k_, p1, sq)
            model = mm3d_cost(n_, k_, p1, sq * sq)
            cp = machine.critical_path()
            assert cp.S == pytest.approx(model.S), (n_, k_, p1, sq)
            assert cp.W == pytest.approx(model.W), (n_, k_, p1, sq)
            assert cp.F == pytest.approx(model.F), (n_, k_, p1, sq)

    def test_line_table_sums_to_total(self):
        lines = mm3d_cost_lines(32, 16, 2, 4)
        total = mm3d_cost(32, 16, 2, 4)
        assert total.W == pytest.approx(sum(c.W for c in lines.values()))
        assert total.S == pytest.approx(sum(c.S for c in lines.values()))

    def test_leading_order_dominated_by_exact(self):
        lead = mm3d_leading_order(256, 128, 4, 4)
        assert lead.F == pytest.approx(256 * 256 * 128 / 64)

    def test_flops_dominated_by_local_multiply(self):
        for p1, p2 in [(1, 16), (2, 4), (4, 1)]:
            lines = mm3d_cost_lines(64, 32, p1, p2)
            assert lines["line6"].F == pytest.approx(64 * 64 * 32 / 16)
            total = mm3d_cost(64, 32, p1, p2)
            # line-7 reduction flops are a lower-order additive term
            assert total.F <= 1.15 * lines["line6"].F


class TestMM1D:
    def test_matches_numpy(self):
        machine = Machine(4, params=UNIT)
        g = machine.grid(1, 4)
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 6))
        X = rng.standard_normal((6, 20))
        dA = DistMatrix.from_global(machine, g, CyclicLayout(1, 4), A)
        dX = DistMatrix.from_global(machine, g, CyclicLayout(1, 4), X)
        dB = mm1d(dA, dX, scale=3.0)
        assert np.allclose(dB.to_global(), 3.0 * A @ X)

    def test_cost_is_allgather_plus_local(self):
        machine = Machine(4, params=UNIT)
        g = machine.grid(1, 4)
        A = random_dense(8, 8, seed=0)
        X = random_dense(8, 40, seed=1)
        dA = DistMatrix.from_global(machine, g, CyclicLayout(1, 4), A)
        dX = DistMatrix.from_global(machine, g, CyclicLayout(1, 4), X)
        mm1d(dA, dX)
        cp = machine.critical_path()
        model = mm1d_cost(8, 40, 4)
        assert cp.S == model.S
        assert cp.W == model.W
        assert cp.F == pytest.approx(model.F)

    def test_requires_row_vector_grid(self):
        machine = Machine(4, params=UNIT)
        g = machine.grid(2, 2)
        dA = DistMatrix.from_global(machine, g, CyclicLayout(2, 2), np.ones((4, 4)))
        dX = DistMatrix.from_global(machine, g, CyclicLayout(2, 2), np.ones((4, 2)))
        with pytest.raises(GridError):
            mm1d(dA, dX)


class TestDispatch:
    def test_classify_three_cases(self):
        assert classify_mm(1000, 10, 64) is MMRegime.TWO_LARGE
        assert classify_mm(10, 1000, 4) is MMRegime.ONE_LARGE
        assert classify_mm(100, 100, 64) is MMRegime.THREE_LARGE

    def test_classify_boundaries(self):
        # n exactly k*sqrt(p) is the 3D (middle) case
        assert classify_mm(80, 10, 64) is MMRegime.THREE_LARGE

    def test_valid_splits_cover_sqrt_p(self):
        splits = valid_mm_splits(64)
        assert (8, 1) in splits and (4, 4) in splits and (1, 64) in splits
        for p1, p2 in splits:
            assert p1 * p1 * p2 == 64
            assert math.isqrt(p2) ** 2 == p2

    def test_valid_splits_rejects_nonsquare_p(self):
        with pytest.raises(ParameterError):
            valid_mm_splits(32)

    def test_choose_split_one_large_dimension_prefers_1d(self):
        p1, p2 = choose_mm_split(16, 16 * 4096, 64)
        assert p1 == 1 and p2 == 64

    def test_choose_split_two_large_dimensions_prefers_2d(self):
        p1, p2 = choose_mm_split(4096, 4, 64)
        assert p2 == 1 and p1 == 8

    def test_choose_split_is_model_minimizer(self):
        params = CostParams()
        p1, p2 = choose_mm_split(512, 128, 64, params=params)
        best = min(
            mm3d_cost(512, 128, a, b).time(params) for a, b in valid_mm_splits(64)
        )
        assert mm3d_cost(512, 128, p1, p2).time(params) == pytest.approx(best)

    def test_bandwidth_lower_bound_cases(self):
        assert mm_bandwidth_lower_bound(1000, 10, 4) == pytest.approx(
            1000 * 10 / 2.0
        )
        assert mm_bandwidth_lower_bound(10, 1000, 64) == pytest.approx(100.0)
        mid = mm_bandwidth_lower_bound(100, 100, 64)
        assert mid == pytest.approx((100 * 100 * 100 / 64) ** (2 / 3))


class TestNoGlobalAssemblyOnHotPath:
    """The MM hot path must route blocks directly (no to_global scratch)."""

    @pytest.mark.parametrize("p1,sq", [(2, 1), (2, 2), (1, 2)])
    def test_mm3d_never_assembles_a_global_matrix(self, monkeypatch, p1, sq):
        sp = p1 * sq
        machine = Machine(sp * sp, params=UNIT)
        grid = machine.grid(sp, sp)
        layout = CyclicLayout(sp, sp)
        rng = np.random.default_rng(3)
        A = rng.standard_normal((24, 20))
        X = rng.standard_normal((20, 12))
        dA = DistMatrix.from_global(machine, grid, layout, A)
        dX = DistMatrix.from_global(machine, grid, layout, X)

        to_global_calls = []
        orig_to_global = DistMatrix.to_global

        def spy_to_global(self):
            to_global_calls.append(self.shape)
            return orig_to_global(self)

        from_global_calls = []
        orig_from_global = DistMatrix.from_global.__func__

        def spy_from_global(cls, machine_, grid_, layout_, arr):
            from_global_calls.append(np.asarray(arr).shape)
            return orig_from_global(cls, machine_, grid_, layout_, arr)

        monkeypatch.setattr(DistMatrix, "to_global", spy_to_global)
        monkeypatch.setattr(
            DistMatrix, "from_global", classmethod(spy_from_global)
        )
        dB = mm3d(dA, dX, p1)
        assert to_global_calls == [], "mm3d assembled a global matrix"
        assert from_global_calls == [], "mm3d distributed through a scratch"
        monkeypatch.undo()
        assert np.allclose(dB.to_global(), A @ X, atol=1e-10)
