"""Rec-TRSM (Section IV): correctness in all regimes + cost behaviour."""

import hashlib

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CostParams, Machine
from repro.machine.validate import GridError, ShapeError
from repro.trsm import rec_trsm, rec_trsm_global
from repro.trsm.recursive import choose_recursive_grid, default_recursive_n0
from repro.dist import CyclicLayout, DistMatrix
from repro.util.checking import relative_residual
from repro.util.randmat import random_dense, random_lower_triangular

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")


def solve(p, grid_shape, n, k, n0=None, seed=0):
    machine = Machine(p, params=UNIT)
    grid = machine.grid(*grid_shape)
    L = random_lower_triangular(n, seed=seed)
    B = random_dense(n, k, seed=seed + 1)
    X = rec_trsm_global(machine, L, B, grid=grid, n0=n0)
    return machine, L, B, X


class TestCorrectness:
    @pytest.mark.parametrize(
        "p,grid_shape,n,k",
        [
            (1, (1, 1), 16, 4),  # sequential fallback
            (4, (2, 2), 32, 8),  # square grid, recursion
            (16, (4, 4), 64, 16),  # deeper recursion
            (16, (2, 8), 16, 256),  # column partitioning (k >> n)
            (4, (1, 4), 8, 64),  # 1D grid
            (16, (4, 4), 61, 13),  # ragged sizes
            (4, (2, 2), 7, 3),  # tiny
        ],
    )
    def test_residual_small(self, p, grid_shape, n, k):
        machine, L, B, X = solve(p, grid_shape, n, k)
        assert relative_residual(L, X.to_global(), B) < 1e-13

    def test_result_layout_matches_b(self):
        machine, L, B, X = solve(4, (2, 2), 16, 8)
        assert X.shape == (16, 8)
        assert X.layout == CyclicLayout(2, 2)

    @pytest.mark.parametrize("n0", [1, 4, 16, 64])
    def test_cutoff_invariant(self, n0):
        machine, L, B, X = solve(4, (2, 2), 32, 8, n0=n0)
        assert relative_residual(L, X.to_global(), B) < 1e-13

    def test_matches_scipy_exactly_enough(self):
        machine, L, B, X = solve(4, (2, 2), 24, 6)
        ref = sla.solve_triangular(L, B, lower=True)
        assert np.allclose(X.to_global(), ref, atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(2, 40),
        k=st.integers(1, 20),
        shape=st.sampled_from([(1, 1), (2, 2), (1, 4), (2, 4)]),
    )
    def test_property_regimes(self, n, k, shape):
        p = shape[0] * shape[1]
        machine, L, B, X = solve(p, shape, n, k, seed=n * 100 + k)
        assert relative_residual(L, X.to_global(), B) < 1e-12


class TestValidation:
    def test_grid_mismatch(self):
        machine = Machine(8, params=UNIT)
        g1 = machine.grid(2, 2)
        g2 = machine.grid(2, 2)
        L = DistMatrix.from_global(
            machine, g1, CyclicLayout(2, 2), random_lower_triangular(8, seed=0)
        )
        B = DistMatrix.from_global(
            machine, g2, CyclicLayout(2, 2), random_dense(8, 4, seed=1)
        )
        with pytest.raises(GridError):
            rec_trsm(L, B)

    def test_row_count_mismatch(self):
        machine = Machine(4, params=UNIT)
        g = machine.grid(2, 2)
        L = DistMatrix.from_global(
            machine, g, CyclicLayout(2, 2), random_lower_triangular(8, seed=0)
        )
        B = DistMatrix.from_global(
            machine, g, CyclicLayout(2, 2), random_dense(6, 4, seed=1)
        )
        with pytest.raises(ShapeError):
            rec_trsm(L, B)

    def test_rejects_non_triangular(self):
        machine = Machine(4, params=UNIT)
        with pytest.raises(ShapeError):
            rec_trsm_global(
                machine, np.ones((8, 8)), random_dense(8, 2, seed=0)
            )

    def test_rejects_pr_not_dividing_pc(self):
        machine = Machine(6, params=UNIT)
        grid = machine.grid(2, 3)
        with pytest.raises(GridError):
            rec_trsm_global(
                machine,
                random_lower_triangular(8, seed=0),
                random_dense(8, 4, seed=1),
                grid=grid,
            )


class TestGridChoice:
    def test_square_for_square_problem(self):
        pr, pc = choose_recursive_grid(128, 128, 64)
        assert pr == pc == 8

    def test_rectangular_when_k_dominates(self):
        pr, pc = choose_recursive_grid(16, 16 * 1024, 64)
        assert pc > pr
        assert pr * pc == 64
        assert pc % pr == 0

    def test_wide_grid_when_n_dominates(self):
        pr, pc = choose_recursive_grid(4096, 16, 64)
        assert pr == pc == 8  # never wider than square in rows

    @pytest.mark.parametrize("p", [2, 8, 32, 128])
    @pytest.mark.parametrize("n,k", [(64, 8), (64, 64), (32, 256)])
    def test_odd_power_of_two_never_taller_than_wide(self, n, k, p):
        """sqrt(p) is irrational for p = 2, 8, 32, 128: the pc >= sqrt(p)
        floor must round up, or pr > pc and rec_trsm rejects the grid."""
        from repro import trsm

        pr, pc = choose_recursive_grid(n, k, p)
        assert pr * pc == p
        assert pc >= pr and pc % pr == 0
        L = random_lower_triangular(n, seed=p)
        B = random_dense(n, k, seed=p + 1)
        assert trsm(L, B, p=p, algorithm="recursive").residual < 1e-10

    def test_default_n0_2d_regime(self):
        n0 = default_recursive_n0(4096, 4, 64)
        assert 1 <= n0 <= 4096

    def test_default_n0_single_proc(self):
        assert default_recursive_n0(64, 8, 1) == 64


class TestCostBehaviour:
    def test_latency_grows_with_recursion_depth(self):
        """S ~ (n/n0) log p: halving n0 roughly doubles message count."""
        _, _, _, _ = solve(4, (2, 2), 64, 16, n0=32)
        m1, *_ = solve(4, (2, 2), 64, 16, n0=32)
        m2, *_ = solve(4, (2, 2), 64, 16, n0=8)
        assert m2.critical_path().S > 1.5 * m1.critical_path().S

    def test_column_partitioning_subproblems_concurrent(self):
        """With q independent column groups, time must not scale with q."""
        m_one, *_ = solve(4, (2, 2), 16, 64)
        m_many, *_ = solve(16, (2, 8), 16, 256)
        # 4x the processors, 4x the RHS columns: concurrent subgrids keep
        # the critical path in the same ballpark rather than 4x larger.
        assert m_many.time() < 3.0 * m_one.time()

    def test_flops_scale_down_with_p(self):
        m1, *_ = solve(1, (1, 1), 32, 32)
        m4, *_ = solve(4, (2, 2), 32, 32)
        f1 = m1.critical_path().F
        f4 = m4.critical_path().F
        assert f4 < f1  # parallel run does less work per processor

    @pytest.mark.parametrize(
        "n,k,p,golden",
        [
            (
                128, 32, 64,
                ("0x1.bcc0000000000p+10", "0x1.c200000000000p+12",
                 "0x1.f800000000000p+12", "0x1.d458e9427cbbbp-10",
                 "58a166ae8ba1b56f"),
            ),
            (
                64, 16, 16,
                ("0x1.2b80000000000p+9", "0x1.3800000000000p+11",
                 "0x1.7800000000000p+11", "0x1.3b6f9ce4e0666p-11",
                 "b380ac2692567126"),
            ),
            (
                64, 16, 256,
                ("0x1.23e0000000000p+11", "0x1.4d80000000000p+11",
                 "0x1.0800000000000p+11", "0x1.326aaa509d930p-9",
                 "5e368811517a28fd"),
            ),
        ],
    )
    def test_measured_cost_golden(self, n, k, p, golden):
        """Rec-TRSM's measured (S, W, F), clock and solution, pinned bitwise
        on the Section IV grid with the default machine constants."""
        machine = Machine(p, params=CostParams())
        L = random_lower_triangular(n, seed=0)
        B = random_dense(n, k, seed=1)
        X = rec_trsm_global(machine, L, B).to_global()
        c = machine.critical_path()
        digest = hashlib.sha256(X.tobytes()).hexdigest()[:16]
        assert (c.S.hex(), c.W.hex(), c.F.hex(), machine.time().hex(), digest) == golden
