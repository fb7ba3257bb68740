"""The paper's physical row block size ``b`` for B's layout (Section VI-B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.layout import RowCyclicColBlockedLayout
from repro.machine import CostParams, Machine
from repro.machine.validate import ShapeError
from repro.trsm import it_inv_trsm_global
from repro.util.checking import relative_residual
from repro.util.randmat import random_dense, random_lower_triangular

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")


class TestLayout:
    def test_b1_is_cyclic(self):
        lay = RowCyclicColBlockedLayout(2, 2, b=1)
        assert np.array_equal(lay.row_indices(1, 8), [1, 3, 5, 7])

    def test_b2_blocks(self):
        lay = RowCyclicColBlockedLayout(2, 2, b=2)
        assert np.array_equal(lay.row_indices(0, 8), [0, 1, 4, 5])
        assert np.array_equal(lay.row_indices(1, 8), [2, 3, 6, 7])

    def test_rows_partition(self):
        lay = RowCyclicColBlockedLayout(3, 1, b=4)
        rows = np.concatenate([lay.row_indices(x, 25) for x in range(3)])
        assert sorted(rows.tolist()) == list(range(25))

    def test_invalid_block(self):
        with pytest.raises(ShapeError):
            RowCyclicColBlockedLayout(2, 2, b=0)

    def test_equality_includes_block(self):
        assert RowCyclicColBlockedLayout(2, 2, 1) != RowCyclicColBlockedLayout(2, 2, 2)


class TestSolver:
    @pytest.mark.parametrize("b", [1, 2, 4, 8])
    def test_solution_invariant_under_block_size(self, b):
        machine = Machine(8, params=UNIT)
        L = random_lower_triangular(32, seed=0)
        B = random_dense(32, 12, seed=1)
        X = it_inv_trsm_global(
            machine, L, B, p1=2, p2=2, n0=8, row_block=b, base_n=4
        )
        assert relative_residual(L, X.to_global(), B) < 1e-12

    def test_output_layout_carries_block_size(self):
        machine = Machine(4, params=UNIT)
        L = random_lower_triangular(16, seed=2)
        B = random_dense(16, 8, seed=3)
        X = it_inv_trsm_global(machine, L, B, p1=2, p2=1, n0=8, row_block=2)
        assert X.layout.rows.block == 2
        assert np.allclose(X.to_global() @ np.eye(8), X.to_global())

    def test_communication_volume_insensitive_to_block_size(self):
        """The block size changes data placement, not the cost structure."""
        times = []
        for b in (1, 4):
            machine = Machine(8, params=UNIT)
            L = random_lower_triangular(32, seed=4)
            B = random_dense(32, 8, seed=5)
            it_inv_trsm_global(machine, L, B, p1=2, p2=2, n0=8, row_block=b, base_n=4)
            times.append(machine.critical_path().W)
        assert times[0] == pytest.approx(times[1], rel=0.25)

    @settings(max_examples=10, deadline=None)
    @given(
        b=st.integers(1, 6),
        nb=st.integers(1, 4),
        k=st.integers(1, 10),
    )
    def test_property_any_block_size(self, b, nb, k):
        n = 8 * nb
        machine = Machine(4, params=UNIT)
        L = random_lower_triangular(n, seed=n + b)
        B = random_dense(n, k, seed=k)
        X = it_inv_trsm_global(
            machine, L, B, p1=2, p2=1, n0=8, row_block=b, base_n=4
        )
        assert relative_residual(L, X.to_global(), B) < 1e-11
