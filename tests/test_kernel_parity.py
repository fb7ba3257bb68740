"""The one local triangular kernel against the pinned old kernels.

``invert_lower_triangular`` is one blocked solve against the identity; the
oracle (``tests/kernel_reference.py``) is the Borodin–Munro recursion over
a double-loop base that it replaced.  Inputs cross the old recursion's
base (32) and the solve's ``BLOCK`` (64), on well- and ill-conditioned
``L`` in C, Fortran and strided memory.  The two are different algorithms,
so values agree within rounding: a backward-error bound on the new result
and a condition-scaled forward-error bound against the oracle.  The upper
triangle must be exactly ``+0.0``, bytewise.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from repro.inversion.sequential import (
    BLOCK,
    invert_lower_triangular,
    trsm_lower_sequential,
)
from repro.util.checking import backward_error, forward_error
from repro.util.randmat import (
    ill_conditioned_lower_triangular,
    random_dense,
    random_lower_triangular,
)

#: the textbook bounds are ``n * EPS`` (times cond for the forward error);
#: the measured worst case over 400 draws of this strategy is 1e-3 of either
EPS = np.finfo(np.float64).eps


def lower(n: int, cond_exp: int, seed: int) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0))
    if cond_exp == 0 or n < 2:
        return random_lower_triangular(n, seed=seed)
    return ill_conditioned_lower_triangular(n, condition_target=10.0**cond_exp, seed=seed)


def in_memory(A: np.ndarray, order: str) -> np.ndarray:
    """``A`` itself, a Fortran-ordered copy, or a strided view of a larger array."""
    if order == "F":
        return np.asfortranarray(A)
    if order == "strided":
        big = np.full((2 * A.shape[0] + 1, 3 * A.shape[1]), np.nan)
        big[1::2, ::3] = A
        return big[1::2, ::3]
    return A


operands = st.tuples(
    st.integers(0, 200),
    st.integers(0, 10),
    st.integers(0, 2**16),
    st.sampled_from(["C", "F", "strided"]),
)


@settings(max_examples=60, deadline=None)
@given(operands)
def test_inverse_matches_recursive_oracle(case):
    n, cond_exp, seed, order = case
    L = lower(n, cond_exp, seed)
    X = invert_lower_triangular(in_memory(L, order))
    assert X.dtype == np.float64 and X.shape == (n, n)
    upper = X[np.triu_indices(n, 1)]
    assert upper.tobytes() == bytes(upper.nbytes), "upper triangle must be +0.0"
    assert backward_error(L, X) <= max(n, 1) * EPS
    X_ref = ref.invert_lower_triangular(L, base_size=32)
    kappa = np.linalg.norm(L, 1) * np.linalg.norm(X_ref, 1) if n else 1.0
    assert forward_error(X, X_ref) <= max(n, 1) * EPS * kappa


@settings(max_examples=40, deadline=None)
@given(operands, st.integers(1, 24))
def test_solve_is_the_pinned_blocked_solve(case, k):
    n, cond_exp, seed, order = case
    L = lower(n, cond_exp, seed)
    B = random_dense(n, k, seed=seed + 1)
    L, B = in_memory(L, order), in_memory(B, order)
    X = trsm_lower_sequential(L, B)
    # same algorithm at the same block size: the same rounding, byte for byte
    assert X.tobytes() == ref.trsm_lower_sequential(L, B, block=BLOCK).tobytes()

