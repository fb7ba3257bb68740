"""Triangular inversion: sequential kernel + parallel RecTriInv."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import CyclicLayout, DistMatrix
from repro.inversion import (
    NU,
    invert_lower_triangular,
    rec_tri_inv,
    rec_tri_inv_cost,
    rec_tri_inv_recurrence,
)
from repro.inversion.cost_model import optimal_inversion_grid, rec_tri_inv_base_cost
from repro.inversion.rec_tri_inv import rec_tri_inv_global
from repro.machine import CostParams, Machine
from repro.machine.validate import GridError, ShapeError
from repro.util.checking import backward_error
from repro.util.randmat import (
    ill_conditioned_lower_triangular,
    random_lower_triangular,
)

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")


class TestSequentialInversion:
    @pytest.mark.parametrize("n", [1, 2, 7, 32, 33, 100])
    def test_matches_numpy_inverse(self, n):
        L = random_lower_triangular(n, seed=n)
        X = invert_lower_triangular(L)
        assert np.allclose(X, np.linalg.inv(L), atol=1e-10)

    def test_result_is_lower_triangular(self):
        L = random_lower_triangular(20, seed=0)
        X = invert_lower_triangular(L)
        assert np.allclose(np.triu(X, 1), 0)

    def test_rejects_non_triangular(self):
        with pytest.raises(ShapeError):
            invert_lower_triangular(np.ones((4, 4)))

    def test_rejects_singular(self):
        L = np.tril(np.ones((4, 4)))
        L[2, 2] = 0.0
        with pytest.raises(ShapeError):
            invert_lower_triangular(L)

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            invert_lower_triangular(np.zeros((3, 4)))

    def test_numerically_stable_on_ill_conditioned(self):
        # Triangular inversion is stable (Du Croz & Higham): the residual
        # ||L Linv - I|| / (||L|| ||Linv||) stays O(eps) even at cond 1e8.
        L = ill_conditioned_lower_triangular(60, condition_target=1e8, seed=0)
        X = invert_lower_triangular(L)
        assert backward_error(L, X) < 1e-12

    @pytest.mark.parametrize("where", [(2, 0), (1, 1)])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, where, value):
        L = random_lower_triangular(4, seed=0)
        L[where] = value
        with pytest.raises(ShapeError, match="non-finite"):
            invert_lower_triangular(L)

    def test_check_false_skips_validation(self):
        L = random_lower_triangular(4, seed=0)
        L[2, 0] = np.inf
        with np.errstate(invalid="ignore"):
            assert np.isinf(invert_lower_triangular(L, check=False)).any()

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 30))
    def test_inverse_property(self, n):
        L = random_lower_triangular(n, seed=n * 7 + 1)
        X = invert_lower_triangular(L)
        assert backward_error(L, X) < 1e-12


class TestRecTriInv:
    @pytest.mark.parametrize(
        "sp,n",
        [(1, 8), (2, 16), (2, 13), (4, 32), (4, 29), (4, 64)],
    )
    def test_correct_inverse(self, sp, n):
        machine = Machine(sp * sp, params=UNIT)
        grid = machine.grid(sp, sp)
        L = random_lower_triangular(n, seed=n)
        inv = rec_tri_inv_global(machine, grid, L, base_n=4)
        assert backward_error(L, inv.to_global()) < 1e-12

    def test_result_distribution_matches_input(self):
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        L = random_lower_triangular(16, seed=0)
        D = DistMatrix.from_global(machine, grid, CyclicLayout(2, 2), L)
        inv = rec_tri_inv(D, base_n=4)
        assert inv.grid == grid and inv.shape == (16, 16)

    def test_rejects_non_square_grid(self):
        machine = Machine(8, params=UNIT)
        grid = machine.grid(2, 4)
        L = random_lower_triangular(16, seed=0)
        D = DistMatrix.from_global(machine, grid, CyclicLayout(2, 4), L)
        with pytest.raises(GridError):
            rec_tri_inv(D)

    def test_rejects_upper_triangular_input(self):
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        with pytest.raises(ShapeError):
            rec_tri_inv_global(machine, grid, np.triu(np.ones((8, 8))) + np.eye(8))

    def test_single_rank_base_case_no_comm(self):
        machine = Machine(1, params=UNIT)
        grid = machine.grid(1, 1)
        L = random_lower_triangular(16, seed=3)
        inv = rec_tri_inv_global(machine, grid, L)
        assert backward_error(L, inv.to_global()) < 1e-13
        cp = machine.critical_path()
        assert cp.S == 0 and cp.W == 0 and cp.F > 0

    def test_children_run_concurrently(self):
        """The two half-inversions must overlap in simulated time.

        A serialized schedule would pay twice the child latency; with
        concurrency the critical path carries only one child's cost plus
        the shared full-grid multiplications.
        """
        machine = Machine(16, params=CostParams(alpha=1.0, beta=0.0, gamma=0.0))
        grid = machine.grid(4, 4)
        L = random_lower_triangular(32, seed=4)
        rec_tri_inv_global(machine, grid, L, base_n=4)
        total_S = machine.total_volume().S / 16
        # critical path strictly below the per-rank average x ranks bound
        assert machine.critical_path().S < 2.2 * total_S

    def test_synchronization_grows_polylog(self):
        """S should grow ~ log^2 p, far below any p^(2/3) polynomial."""
        Ss = []
        ps = [4, 16, 64]
        for p in ps:
            sp = int(p**0.5)
            machine = Machine(p, params=UNIT)
            grid = machine.grid(sp, sp)
            L = random_lower_triangular(64, seed=5)
            rec_tri_inv_global(machine, grid, L, base_n=4)
            Ss.append(machine.critical_path().S)
        # polylog growth: quadrupling p should much less than quadruple S
        assert Ss[1] / Ss[0] < 4.0
        assert Ss[2] / Ss[1] < 4.0
        import math

        for p, s in zip(ps, Ss):
            assert s <= 35.0 * (math.log2(p) ** 2)


class TestInversionCostModel:
    def test_nu_constant(self):
        assert NU == pytest.approx(2 ** (1 / 3) / (2 ** (1 / 3) - 1))

    def test_closed_form_components(self):
        c = rec_tri_inv_cost(64, 2, 4)
        p = 16
        assert c.W == pytest.approx(NU * (64**2 / (8 * 4) + 64**2 / (2 * 2 * 4)))
        assert c.F == pytest.approx(NU * 64**3 / (8 * p))

    def test_single_processor_no_comm(self):
        c = rec_tri_inv_cost(64, 1, 1)
        assert c.S == 0 and c.W == 0

    def test_base_cost(self):
        c = rec_tri_inv_base_cost(8, 1, 4)
        assert c.W == 2 * 64 and c.F == 512

    def test_recurrence_flops_close_to_closed_form(self):
        n, p = 256, 16
        rec = rec_tri_inv_recurrence(n, p)
        closed = rec_tri_inv_cost(n, 2, 4)
        assert rec.F == pytest.approx(closed.F, rel=1.5)

    def test_recurrence_single_proc_is_sequential(self):
        c = rec_tri_inv_recurrence(32, 1)
        assert c.S == 0 and c.W == 0
        assert c.F == pytest.approx(32**3 / 6)

    def test_optimal_grid_ratio(self):
        r1, r2 = optimal_inversion_grid(p=256, n0=64, n=256)
        assert r2 == pytest.approx(4 * r1)
        assert r1**2 * r2 == pytest.approx(256 * 64 / 256)
