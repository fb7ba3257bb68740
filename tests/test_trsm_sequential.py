"""Sequential TRSM kernels and the Heath-Romine baseline."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference
from repro.machine import CostParams, Machine
from repro.machine.validate import ShapeError
from repro.trsm import forward_substitution, heath_romine_trsv, trsm_lower_sequential
from repro.util.randmat import (
    ill_conditioned_lower_triangular,
    random_dense,
    random_lower_triangular,
)

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")


class TestForwardSubstitution:
    @pytest.mark.parametrize("n,k", [(1, 1), (5, 1), (10, 3), (33, 8)])
    def test_matches_scipy(self, n, k):
        L = random_lower_triangular(n, seed=n)
        B = random_dense(n, k, seed=k)
        X = forward_substitution(L, B)
        assert np.allclose(X, sla.solve_triangular(L, B, lower=True))

    def test_vector_rhs_keeps_shape(self):
        L = random_lower_triangular(8, seed=0)
        b = random_dense(8, 1, seed=1)[:, 0]
        x = forward_substitution(L, b)
        assert x.shape == (8,)
        assert np.allclose(L @ x, b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            forward_substitution(np.eye(4), np.ones((3, 2)))

    def test_nonsquare_l(self):
        with pytest.raises(ShapeError):
            forward_substitution(np.ones((3, 4)), np.ones(3))


class TestBlockedTrsm:
    @pytest.mark.parametrize("block", [1, 2, 7, 64, 1000])
    def test_block_size_invariant(self, block):
        # the kernel's block size is fixed (BLOCK = 64); the pinned blocked
        # solve at any block size agrees with it within rounding
        L = random_lower_triangular(150, seed=0)
        B = random_dense(150, 5, seed=1)
        X = trsm_lower_sequential(L, B)
        assert np.allclose(X, kernel_reference.trsm_lower_sequential(L, B, block=block))
        assert np.allclose(X, sla.solve_triangular(L, B, lower=True))

    def test_vector_rhs(self):
        L = random_lower_triangular(12, seed=0)
        b = random_dense(12, 1, seed=1)[:, 0]
        x = trsm_lower_sequential(L, b)
        assert x.shape == (12,)

    def test_rejects_upper_triangular(self):
        with pytest.raises(ShapeError):
            trsm_lower_sequential(np.triu(np.ones((4, 4))), np.ones((4, 1)))

    def test_rejects_singular(self):
        L = np.tril(np.ones((4, 4)))
        L[1, 1] = 0.0
        with pytest.raises(ShapeError):
            trsm_lower_sequential(L, np.ones((4, 1)))

    def test_check_false_skips_validation(self):
        # check=False lets callers pass pre-validated operands cheaply
        L = random_lower_triangular(8, seed=0)
        B = random_dense(8, 2, seed=1)
        X = trsm_lower_sequential(L, B, check=False)
        assert np.allclose(L @ X, B)

    def test_backward_stable_on_ill_conditioned(self):
        L = ill_conditioned_lower_triangular(40, condition_target=1e10, seed=0)
        B = random_dense(40, 3, seed=1)
        X = trsm_lower_sequential(L, B)
        from repro.util.checking import relative_residual

        assert relative_residual(L, X, B) < 1e-13

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 200), k=st.integers(1, 6))
    def test_solution_property(self, n, k):
        # n up to 200 reaches the fourth BLOCK-row block
        L = random_lower_triangular(n, seed=n * 31 + k)
        B = random_dense(n, k, seed=k)
        X = trsm_lower_sequential(L, B)
        assert np.allclose(L @ X, B, atol=1e-10)

    @pytest.mark.parametrize("operand", ["L", "B"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite(self, operand, value):
        L = random_lower_triangular(4, seed=0)
        B = random_dense(4, 2, seed=1)
        {"L": L, "B": B}[operand][2, 0] = value
        with pytest.raises(ShapeError, match="non-finite"):
            trsm_lower_sequential(L, B)


class TestHeathRomine:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_matches_scipy(self, p):
        machine = Machine(p, params=UNIT)
        L = random_lower_triangular(20, seed=0)
        b = random_dense(20, 1, seed=1)[:, 0]
        x = heath_romine_trsv(machine, L, b)
        assert np.allclose(x, sla.solve_triangular(L, b, lower=True))

    def test_latency_is_theta_n(self):
        """The single-RHS schedule is inherently serial: S ~ n."""
        for n in (16, 32, 64):
            machine = Machine(4, params=UNIT)
            L = random_lower_triangular(n, seed=n)
            b = random_dense(n, 1, seed=1)[:, 0]
            heath_romine_trsv(machine, L, b)
            S = machine.critical_path().S
            assert n - 1 <= S <= 2 * n

    def test_single_processor_no_messages(self):
        machine = Machine(1, params=UNIT)
        L = random_lower_triangular(10, seed=0)
        b = random_dense(10, 1, seed=1)[:, 0]
        heath_romine_trsv(machine, L, b)
        assert machine.critical_path().S == 0

    def test_rejects_bad_shapes(self):
        machine = Machine(2, params=UNIT)
        with pytest.raises(ShapeError):
            heath_romine_trsv(machine, np.eye(4), np.ones(3))

    def test_rejects_non_triangular(self):
        machine = Machine(2, params=UNIT)
        with pytest.raises(ShapeError):
            heath_romine_trsv(machine, np.ones((4, 4)), np.ones(4))

    def test_flops_balanced_across_ranks(self):
        machine = Machine(4, params=UNIT)
        L = random_lower_triangular(64, seed=0)
        b = random_dense(64, 1, seed=1)[:, 0]
        heath_romine_trsv(machine, L, b)
        # update flops are dealt cyclically: no rank does more than ~2x share
        F = machine.counters.F
        assert F.max() <= 3.0 * max(F.min(), 1.0) + 64
