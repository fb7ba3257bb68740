"""Error metrics and flop conventions."""

import numpy as np
import pytest

from repro.util.checking import (
    backward_error,
    flops_tri_inv_seq,
    forward_error,
    relative_residual,
)
from repro.util.randmat import random_dense, random_lower_triangular


class TestResidual:
    def test_exact_solution_zero(self):
        L = random_lower_triangular(10, seed=0)
        X = random_dense(10, 3, seed=1)
        B = L @ X
        assert relative_residual(L, X, B) < 1e-15

    def test_wrong_solution_large(self):
        L = random_lower_triangular(10, seed=0)
        X = random_dense(10, 3, seed=1)
        assert relative_residual(L, X + 1.0, L @ X) > 1e-3

    def test_zero_everything(self):
        z = np.zeros((3, 3))
        assert relative_residual(z, z, z) == 0.0


class TestForwardBackward:
    def test_forward_error_zero_for_identical(self):
        X = random_dense(5, 5, seed=0)
        assert forward_error(X, X) == 0.0

    def test_forward_error_relative_to_reference(self):
        X = np.eye(3)
        assert forward_error(2 * X, X) == pytest.approx(1.0)
        assert forward_error(3 * X, X) == pytest.approx(2.0)

    def test_forward_error_zero_reference(self):
        assert forward_error(np.ones((2, 2)), np.zeros((2, 2))) == 2.0

    def test_backward_error_of_true_inverse(self):
        L = random_lower_triangular(12, seed=0)
        assert backward_error(L, np.linalg.inv(L)) < 1e-14


class TestFlopConventions:
    def test_tri_inv(self):
        assert flops_tri_inv_seq(6) == 36.0
