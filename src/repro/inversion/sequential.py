"""Sequential lower-triangular kernels: one blocked solve, and inversion as
that solve against the identity.

``forward_substitution`` is the textbook row-by-row algorithm;
``trsm_lower_sequential`` is its blocked BLAS-3 formulation (solve a
``BLOCK``-row diagonal block, update the trailing rows with one GEMM) — the
local kernel of the parallel algorithms' base cases.  Both cost
``n^2 k / 2`` multiply-adds.

``invert_lower_triangular`` is the same kernel with ``B = I``: the paper
treats inversion and TRSM as one kernel family (Section I; It-Inv-TRSM
only chooses how much of ``L`` to invert).  What is *charged* and what is
*executed* differ on purpose.  The simulator charges an inversion
``flops_tri_inv_seq(n) = n^3/6`` multiply-adds, the paper's convention
(the recursive blocked scheme of Borodin & Munro, the paper's reference
[23], which skips the zeros of ``I`` and of the inverse).  The host runs one
blocked solve against the dense identity: more arithmetic, but a handful of
numpy calls instead of a Python loop per entry.  Charges come from the
formula, so no simulated cost depends on which one runs.
"""

from __future__ import annotations

import numpy as np

from repro.dist.triangular import (
    require_finite,
    require_lower_triangular,
    require_nonsingular_triangular,
    require_square,
)
from repro.machine.validate import ShapeError, require

#: rows per diagonal block of ``trsm_lower_sequential``
BLOCK = 64


def _require_solvable(L: np.ndarray) -> None:
    """``L`` is finite, lower triangular and has a nonzero diagonal."""
    require_finite(L, "L")
    require_lower_triangular(L, "L")
    require_nonsingular_triangular(L, "L")


def forward_substitution(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``L X = B`` row by row (unblocked reference).

    ``B`` may be a vector or a matrix; the result matches its shape.
    """
    L = np.asarray(L, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    n = require_square(L, "L")
    vector = B.ndim == 1
    if vector:
        B = B[:, None]
    require(
        B.shape[0] == n,
        ShapeError,
        f"B has {B.shape[0]} rows, L is {n} x {n}",
    )
    X = np.zeros_like(B)
    for i in range(n):
        X[i, :] = (B[i, :] - L[i, :i] @ X[:i, :]) / L[i, i]
    return X[:, 0] if vector else X


def trsm_lower_sequential(L: np.ndarray, B: np.ndarray, check: bool = True) -> np.ndarray:
    """Blocked sequential TRSM: ``X = inv(L) @ B``.

    Processes ``BLOCK`` rows at a time: an unblocked solve on the diagonal
    block, then one GEMM update of the remaining rows.  Numerically this is
    the standard backward-stable substitution algorithm.  With
    ``check=True`` a non-finite ``L`` or ``B``, a non-triangular ``L`` or a
    zero diagonal is refused first.
    """
    L = np.asarray(L, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    n = require_square(L, "L")
    if check:
        _require_solvable(L)
        require_finite(B, "B")
    vector = B.ndim == 1
    if vector:
        B = B[:, None]
    require(
        B.shape[0] == n,
        ShapeError,
        f"B has {B.shape[0]} rows, L is {n} x {n}",
    )
    X = B.copy()
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        X[lo:hi, :] = forward_substitution(L[lo:hi, lo:hi], X[lo:hi, :])
        if hi < n:
            X[hi:, :] -= L[hi:, lo:hi] @ X[lo:hi, :]
    return X[:, 0] if vector else X


def invert_lower_triangular(L: np.ndarray, check: bool = True) -> np.ndarray:
    """Invert a lower-triangular matrix: ``trsm_lower_sequential(L, I)``.

    With ``check=True`` the input's finiteness, triangularity and
    nonsingularity are validated first.  The result is lower triangular
    with an exact ``+0.0`` upper part (the solve alone can leave ``-0.0``
    there).
    """
    L = np.asarray(L, dtype=np.float64)
    n = require_square(L, "L")
    if check:
        _require_solvable(L)
    return np.tril(trsm_lower_sequential(L, np.eye(n), check=False))
