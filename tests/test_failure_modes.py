"""Failure injection: every invalid input path raises a typed error.

A downstream user should never see a silent mis-partitioning or a numpy
broadcasting accident; they should see GridError / ShapeError /
ParameterError with an actionable message.
"""

import numpy as np
import pytest

from repro import (
    CyclicLayout,
    DistMatrix,
    GridError,
    Machine,
    ParameterError,
    ShapeError,
    trsm,
)
from repro.dist.layout import BlockCyclicLayout
from repro.inversion import invert_lower_triangular, rec_tri_inv
from repro.machine.validate import ReproError
from repro.trsm import it_inv_trsm_global, rec_trsm_global
from repro.util.randmat import random_dense, random_lower_triangular


class TestValidationHelpers:
    def test_error_hierarchy(self):
        assert issubclass(GridError, ReproError)
        assert issubclass(ShapeError, ReproError)
        assert issubclass(ParameterError, ReproError)


class TestSingularAndMalformedOperands:
    def test_zero_diagonal_rejected_everywhere(self):
        L = np.tril(np.ones((8, 8)))
        L[4, 4] = 0.0
        B = random_dense(8, 2, seed=0)
        with pytest.raises(ShapeError, match="singular"):
            trsm(L, B, p=4)
        with pytest.raises(ShapeError, match="singular"):
            invert_lower_triangular(L)

    def test_upper_junk_rejected(self):
        L = random_lower_triangular(8, seed=0)
        L[0, 5] = 1.0
        with pytest.raises(ShapeError, match="lower triangular"):
            trsm(L, random_dense(8, 2, seed=1), p=4)

    def test_nan_inputs_do_not_pass_silently(self):
        L = random_lower_triangular(8, seed=0)
        B = random_dense(8, 2, seed=1)
        B[3, 1] = np.nan
        # refused at the call, naming the entry, before any rank solves
        with pytest.raises(ShapeError, match=r"B has a non-finite entry at index \(3, 1\)"):
            trsm(L, B, p=4)

    def test_empty_matrix_rejected(self):
        with pytest.raises((ShapeError, ValueError, IndexError)):
            trsm(np.zeros((0, 0)), np.zeros((0, 1)), p=1)


class TestGridExhaustion:
    def test_machine_rank_exhaustion(self):
        m = Machine(4)
        m.grid(2, 2)
        with pytest.raises(GridError, match="unallocated"):
            m.grid(1, 1)

    def test_solver_p_validation(self):
        with pytest.raises(ParameterError, match="power of two"):
            trsm(
                random_lower_triangular(8, seed=0),
                random_dense(8, 2, seed=1),
                p=6,
            )

    def test_iterative_grid_shape_validation(self):
        m = Machine(8)
        grid3d = m.grid(2, 2, 2)
        from repro.trsm.iterative import it_inv_trsm

        L = DistMatrix.from_global(
            m, grid3d.plane(2, 0), CyclicLayout(2, 2), random_lower_triangular(8, seed=0)
        )
        # wrong: grid is fine, but pass a non-3D grid
        with pytest.raises(GridError):
            it_inv_trsm(m, grid3d.plane(2, 0), L, L, n0=4)  # type: ignore[arg-type]


class TestLayoutMisuse:
    def test_block_cyclic_zero_block(self):
        with pytest.raises(ShapeError):
            BlockCyclicLayout(2, 2, br=0)

    def test_distmatrix_wrong_block_write(self):
        m = Machine(4)
        g = m.grid(2, 2)
        D = DistMatrix.zeros(m, g, CyclicLayout(2, 2), (8, 8))
        with pytest.raises(ShapeError):
            D.set_local((0, 0), np.zeros((5, 5)))

    def test_rec_tri_inv_vector_grid(self):
        m = Machine(4)
        g = m.grid(1, 4)
        D = DistMatrix.from_global(
            m, g, CyclicLayout(1, 4), random_lower_triangular(8, seed=0)
        )
        with pytest.raises(GridError, match="square"):
            rec_tri_inv(D)


class TestParameterMisuse:
    def test_n0_not_dividing(self):
        m = Machine(4)
        with pytest.raises(ParameterError, match="divide"):
            it_inv_trsm_global(
                m,
                random_lower_triangular(10, seed=0),
                random_dense(10, 2, seed=1),
                p1=2,
                p2=1,
                n0=4,
            )

    def test_rec_trsm_bad_grid_ratio(self):
        m = Machine(12)
        g = m.grid(3, 4)
        with pytest.raises(GridError):
            rec_trsm_global(
                m,
                random_lower_triangular(8, seed=0),
                random_dense(8, 2, seed=1),
                grid=g,
            )

    def test_b_rows_mismatch(self):
        with pytest.raises((ShapeError, ValueError)):
            trsm(
                random_lower_triangular(8, seed=0),
                random_dense(9, 2, seed=1),
                p=4,
            )
