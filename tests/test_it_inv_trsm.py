"""It-Inv-TRSM (Section VI): correctness, phases, grid sweep, baselines."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Cost, CostParams, Machine
from repro.machine.validate import GridError, ParameterError, ShapeError
from repro.trsm import it_inv_trsm, it_inv_trsm_global
from repro.trsm.diagonal_inverter import diagonal_inverter, inversion_subgrid_side
from repro.dist import BlockedLayout, CyclicLayout, DistMatrix
from repro.dist.layout import RowCyclicColBlockedLayout
from repro.util.checking import relative_residual
from repro.util.randmat import random_dense, random_lower_triangular

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")


def solve(p1, p2, n, k, n0, seed=0, base_n=4):
    machine = Machine(p1 * p1 * p2, params=UNIT)
    L = random_lower_triangular(n, seed=seed)
    B = random_dense(n, k, seed=seed + 1)
    X = it_inv_trsm_global(machine, L, B, p1=p1, p2=p2, n0=n0, base_n=base_n)
    return machine, L, B, X


class TestDiagonalInverter:
    def test_inverts_blocks_only(self):
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        L = random_lower_triangular(16, seed=0)
        D = DistMatrix.from_global(machine, grid, CyclicLayout(2, 2), L)
        inv = diagonal_inverter(D, n0=4)
        G = inv.to_global()
        for b in range(4):
            lo, hi = 4 * b, 4 * (b + 1)
            assert np.allclose(
                G[lo:hi, lo:hi] @ L[lo:hi, lo:hi], np.eye(4), atol=1e-10
            )
        # off-diagonal blocks untouched (zero)
        assert np.allclose(np.tril(G, -4 - 1)[8:, :4], 0)

    def test_full_inversion_when_n0_equals_n(self):
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        L = random_lower_triangular(8, seed=1)
        D = DistMatrix.from_global(machine, grid, CyclicLayout(2, 2), L)
        inv = diagonal_inverter(D, n0=8)
        assert np.allclose(inv.to_global() @ L, np.eye(8), atol=1e-10)

    def test_n0_must_divide(self):
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        D = DistMatrix.from_global(
            machine, grid, CyclicLayout(2, 2), random_lower_triangular(10, seed=0)
        )
        with pytest.raises(ParameterError):
            diagonal_inverter(D, n0=3)

    def test_subgrid_side_formula(self):
        assert inversion_subgrid_side(p=64, n=64, n0=16) == 4  # q=16 -> 4x4
        assert inversion_subgrid_side(p=64, n=64, n0=8) == 2  # q=8  -> 2x2
        assert inversion_subgrid_side(p=4, n=64, n0=4) == 1  # q<4  -> 1x1

    def test_blocks_concurrent_when_enough_processors(self):
        """nb blocks on nb disjoint subgrids: time ~ one block, not nb."""
        machine1 = Machine(16, params=UNIT)
        g1 = machine1.grid(4, 4)
        L = random_lower_triangular(32, seed=2)
        D1 = DistMatrix.from_global(machine1, g1, CyclicLayout(4, 4), L)
        diagonal_inverter(D1, n0=8, base_n=4)  # 4 blocks, 4 ranks each
        t_many = machine1.time()

        machine2 = Machine(16, params=UNIT)
        g2 = machine2.grid(4, 4)
        D2 = DistMatrix.from_global(machine2, g2, CyclicLayout(4, 4), L)
        diagonal_inverter(D2, n0=32, base_n=4)  # 1 block of 4x the size
        t_one = machine2.time()
        # many small concurrent inversions beat one big one in time
        assert t_many < t_one


class TestIterativeSolver:
    @pytest.mark.parametrize(
        "p1,p2,n,k,n0",
        [
            (1, 1, 16, 4, 4),  # single rank
            (2, 1, 32, 8, 8),  # 2D grid
            (1, 4, 16, 64, 16),  # 1D grid (n0 = n, pure inversion)
            (2, 2, 32, 16, 8),  # 3D grid
            (2, 4, 48, 24, 12),  # 3D, more RHS slabs
            (4, 1, 64, 16, 16),  # wide 2D
            (2, 2, 36, 10, 6),  # k not divisible by p2
        ],
    )
    def test_residual_small(self, p1, p2, n, k, n0):
        machine, L, B, X = solve(p1, p2, n, k, n0)
        assert relative_residual(L, X.to_global(), B) < 1e-12

    def test_matches_scipy(self):
        machine, L, B, X = solve(2, 2, 32, 8, 8)
        ref = sla.solve_triangular(L, B, lower=True)
        assert np.allclose(X.to_global(), ref, atol=1e-9)

    def test_output_layout_matches_b_plane(self):
        machine, L, B, X = solve(2, 2, 32, 16, 8)
        assert X.shape == (32, 16)
        assert X.grid.shape == (2, 2)  # the (x, z) plane

    @pytest.mark.parametrize("n0", [4, 8, 16, 32])
    def test_block_size_invariant(self, n0):
        machine, L, B, X = solve(2, 2, 32, 16, n0)
        assert relative_residual(L, X.to_global(), B) < 1e-12

    def test_phases_are_recorded(self):
        machine, L, B, X = solve(2, 2, 32, 16, 8)
        names = set(machine.phase_names())
        assert {"inversion", "setup", "solve", "update"} <= names

    def test_no_update_phase_for_single_block(self):
        machine, L, B, X = solve(2, 1, 16, 8, 16)  # nb = 1
        assert machine.phase_cost("update").F == 0

    def test_n0_must_divide_n(self):
        machine = Machine(4, params=UNIT)
        with pytest.raises(ParameterError):
            it_inv_trsm_global(
                machine,
                random_lower_triangular(10, seed=0),
                random_dense(10, 2, seed=1),
                p1=2,
                p2=1,
                n0=3,
            )

    def test_rejects_non_triangular(self):
        machine = Machine(4, params=UNIT)
        with pytest.raises(ShapeError):
            it_inv_trsm_global(
                machine,
                np.ones((8, 8)),
                random_dense(8, 2, seed=0),
                p1=2,
                p2=1,
                n0=4,
            )

    def test_rejects_singular(self):
        machine = Machine(4, params=UNIT)
        L = np.tril(np.ones((8, 8)))
        L[3, 3] = 0.0
        with pytest.raises(ShapeError):
            it_inv_trsm_global(
                machine, L, random_dense(8, 2, seed=0), p1=2, p2=1, n0=4
            )

    @settings(max_examples=12, deadline=None)
    @given(
        cfg=st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]),
        nb=st.integers(1, 4),
        n0=st.sampled_from([2, 4, 8]),
        k=st.integers(1, 12),
    )
    def test_property_grids_and_blocks(self, cfg, nb, n0, k):
        p1, p2 = cfg
        n = nb * n0
        machine, L, B, X = solve(p1, p2, n, k, n0, seed=n * 10 + k)
        assert relative_residual(L, X.to_global(), B) < 1e-11


class TestRequireClause:
    """Section VI-B's Require clause is checked, not assumed: a misplaced
    operand used to be read through a global scratch view and come back as
    a correct solve with a *plausible* wrong critical path."""

    def operands(self, L_plane=0, L_layout=None):
        machine = Machine(8, params=UNIT)
        grid3d = machine.grid(2, 2, 2)
        Lg = random_lower_triangular(32, seed=0)
        Bg = random_dense(32, 8, seed=1)
        L = DistMatrix.from_global(
            machine, grid3d.plane(2, L_plane), L_layout or CyclicLayout(2, 2), Lg
        )
        B = DistMatrix.from_global(
            machine, grid3d.plane(1, 0), RowCyclicColBlockedLayout(2, 2), Bg
        )
        return machine, grid3d, L, B

    def test_correct_placement_cost_is_pinned(self):
        machine, grid3d, L, B = self.operands()
        X = it_inv_trsm(machine, grid3d, L, B, n0=8, base_n=4)
        assert relative_residual(L.to_global(), X.to_global(), B.to_global()) < 1e-12
        assert machine.critical_path() == Cost(S=52.0, W=1312.0, F=1093.3333333333333)

    def test_L_off_the_front_plane_is_refused(self):
        machine, grid3d, L, B = self.operands(L_plane=1)
        with pytest.raises(GridError):
            it_inv_trsm(machine, grid3d, L, B, n0=8, base_n=4)
        assert machine.time() == 0.0  # refused before anything was charged

    def test_blocked_L_under_row_cyclic_B_is_refused(self):
        machine, grid3d, L, B = self.operands(L_layout=BlockedLayout(2, 2))
        with pytest.raises(ShapeError):
            it_inv_trsm(machine, grid3d, L, B, n0=8, base_n=4)

    def test_Ltilde_laid_out_unlike_L_is_refused(self):
        machine, grid3d, L, B = self.operands()
        Ltilde = DistMatrix.zeros(machine, L.grid, BlockedLayout(2, 2), L.shape)
        with pytest.raises(ShapeError):
            it_inv_trsm(machine, grid3d, L, B, n0=8, base_n=4, Ltilde=Ltilde)


class TestLatencyBehaviour:
    def test_solve_latency_linear_in_block_count(self):
        m1, *_ = solve(2, 1, 64, 8, 32)  # 2 blocks
        m2, *_ = solve(2, 1, 64, 8, 8)  # 8 blocks
        s1 = m1.phase_cost("solve").S + m1.phase_cost("update").S
        s2 = m2.phase_cost("solve").S + m2.phase_cost("update").S
        assert s2 > 2.5 * s1

    def test_inversion_latency_much_less_than_recursive_trsm(self):
        """The headline: inversion-based solve needs far fewer messages
        than the recursion when many small blocks would otherwise be
        solved sequentially."""
        from repro.trsm import rec_trsm_global

        n, k, p = 64, 8, 16
        m_it, L, B, _ = solve(4, 1, n, k, 16)
        m_rec = Machine(p, params=UNIT)
        rec_trsm_global(m_rec, L, B, grid=m_rec.grid(4, 4), n0=4)
        assert m_it.critical_path().S < m_rec.critical_path().S
