"""Top-level trsm() API."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro import trsm
from repro.machine.cost import CostParams
from repro.machine.validate import ParameterError, ShapeError
from repro.util.randmat import random_dense, random_lower_triangular


class TestAuto:
    def test_solves_and_verifies(self):
        L = random_lower_triangular(64, seed=0)
        B = random_dense(64, 16, seed=1)
        res = trsm(L, B, p=16)
        assert res.algorithm == "iterative"
        assert res.residual is not None and res.residual < 1e-12
        assert np.allclose(res.X, sla.solve_triangular(L, B, lower=True), atol=1e-9)

    def test_single_processor_uses_recursive(self):
        L = random_lower_triangular(16, seed=0)
        B = random_dense(16, 4, seed=1)
        res = trsm(L, B, p=1)
        assert res.algorithm == "recursive"
        assert res.residual < 1e-13

    def test_vector_rhs(self):
        L = random_lower_triangular(32, seed=0)
        b = random_dense(32, 1, seed=1)[:, 0]
        res = trsm(L, b, p=4)
        assert res.X.shape == (32,)
        assert np.allclose(L @ res.X, b, atol=1e-10)

    def test_measured_and_time_populated(self):
        L = random_lower_triangular(32, seed=0)
        B = random_dense(32, 8, seed=1)
        res = trsm(L, B, p=4)
        assert res.time > 0
        assert res.measured.S > 0 and res.measured.W > 0 and res.measured.F > 0
        assert res.modeled.F > 0

    def test_phase_costs_exposed(self):
        L = random_lower_triangular(32, seed=0)
        B = random_dense(32, 8, seed=1)
        res = trsm(L, B, p=4, n0=8)
        phases = res.phase_costs()
        assert "inversion" in phases and "solve" in phases


class TestExplicitChoices:
    def test_recursive_explicit(self):
        L = random_lower_triangular(32, seed=0)
        B = random_dense(32, 8, seed=1)
        res = trsm(L, B, p=4, algorithm="recursive")
        assert res.algorithm == "recursive"
        assert res.residual < 1e-13
        assert res.choice is None

    def test_search_tuning(self):
        L = random_lower_triangular(32, seed=0)
        B = random_dense(32, 8, seed=1)
        res = trsm(L, B, p=4, tune="search")
        assert res.choice is not None
        assert res.residual < 1e-12

    def test_n0_override(self):
        L = random_lower_triangular(32, seed=0)
        B = random_dense(32, 8, seed=1)
        res = trsm(L, B, p=4, n0=4)
        assert res.choice.n0 == 4
        assert res.residual < 1e-12

    def test_custom_params_change_time_not_solution(self):
        L = random_lower_triangular(32, seed=0)
        B = random_dense(32, 8, seed=1)
        r1 = trsm(L, B, p=4, params=CostParams(alpha=1e-3))
        r2 = trsm(L, B, p=4, params=CostParams(alpha=1e-9))
        assert np.allclose(r1.X, r2.X)
        assert r1.time > r2.time

    def test_verify_false_skips_residual(self):
        L = random_lower_triangular(16, seed=0)
        B = random_dense(16, 4, seed=1)
        res = trsm(L, B, p=4, verify=False)
        assert res.residual is None


class TestValidation:
    def test_bad_p(self):
        with pytest.raises(ParameterError):
            trsm(random_lower_triangular(8, seed=0), random_dense(8, 2, seed=1), p=3)

    def test_bad_algorithm(self):
        with pytest.raises(ParameterError):
            trsm(
                random_lower_triangular(8, seed=0),
                random_dense(8, 2, seed=1),
                p=4,
                algorithm="quantum",
            )

    def test_bad_tune_mode(self):
        with pytest.raises(ParameterError):
            trsm(
                random_lower_triangular(8, seed=0),
                random_dense(8, 2, seed=1),
                p=4,
                tune="vibes",
            )

    def test_bad_n0(self):
        with pytest.raises(ParameterError):
            trsm(
                random_lower_triangular(8, seed=0),
                random_dense(8, 2, seed=1),
                p=4,
                n0=3,
            )

    def test_b_rows_must_match_l(self):
        """Regression: an 8 x 4 ``B`` against a 16 x 16 ``L`` was reshaped
        to 16 x 2 and solved as a different problem."""
        with pytest.raises(ShapeError, match=r"\(8, 4\)"):
            trsm(random_lower_triangular(16, seed=0), random_dense(8, 4, seed=1), p=4)


class TestCrossAlgorithmAgreement:
    @pytest.mark.parametrize("n,k,p", [(32, 8, 4), (48, 12, 16), (24, 48, 4)])
    def test_both_algorithms_same_solution(self, n, k, p):
        L = random_lower_triangular(n, seed=n)
        B = random_dense(n, k, seed=k)
        r_it = trsm(L, B, p=p, algorithm="iterative")
        r_rec = trsm(L, B, p=p, algorithm="recursive")
        assert np.allclose(r_it.X, r_rec.X, atol=1e-9)
