"""Golden reference: the two local triangular kernels, pinned verbatim.

When inversion became one blocked solve against the identity
(``repro.inversion.sequential.invert_lower_triangular`` is
``np.tril(trsm_lower_sequential(L, I))``) and the solve's block size became
the module constant ``BLOCK``, the original kernels moved here unchanged:
the Borodin–Munro recursion ``_invert_recursive`` over the double-loop base
``_invert_base`` (with its ``base_size`` knob), and the row/blocked solve
``forward_substitution``/``trsm_lower_sequential`` (with its ``block``
knob).  ``tests/test_kernel_parity.py`` drives the old and new kernels
with the same hypothesis inputs and asserts values within rounding.

An oracle *beside* the fast path, like ``tests/layout_reference.py``:
nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.dist.triangular import (
    require_lower_triangular,
    require_nonsingular_triangular,
    require_square,
)
from repro.machine.validate import ShapeError, require


def _invert_base(L: np.ndarray) -> np.ndarray:
    """Unblocked inversion by forward substitution on the identity."""
    n = L.shape[0]
    X = np.zeros_like(L)
    for j in range(n):
        # Solve L x = e_j; x has zeros above j.
        X[j, j] = 1.0 / L[j, j]
        for i in range(j + 1, n):
            X[i, j] = -(L[i, j:i] @ X[j:i, j]) / L[i, i]
    return X


def invert_lower_triangular(
    L: np.ndarray, base_size: int = 32, check: bool = True
) -> np.ndarray:
    """Invert a lower-triangular matrix by the recursive blocked scheme.

    ``base_size`` controls when recursion falls back to unblocked forward
    substitution.  With ``check=True`` the input's triangularity and
    nonsingularity are validated first.
    """
    L = np.asarray(L, dtype=np.float64)
    n = require_square(L, "L")
    if check:
        require_lower_triangular(L, "L")
        require_nonsingular_triangular(L, "L")
    return _invert_recursive(L, max(int(base_size), 1))


def _invert_recursive(L: np.ndarray, base_size: int) -> np.ndarray:
    n = L.shape[0]
    if n <= base_size:
        return _invert_base(L)
    h = n // 2
    inv11 = _invert_recursive(L[:h, :h], base_size)
    inv22 = _invert_recursive(L[h:, h:], base_size)
    X = np.zeros_like(L)
    X[:h, :h] = inv11
    X[h:, h:] = inv22
    X[h:, :h] = -inv22 @ (L[h:, :h] @ inv11)
    return X


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


def trsm_lower_sequential(
    L: np.ndarray,
    B: np.ndarray,
    block: int = 64,
    check: bool = True,
) -> np.ndarray:
    """Blocked sequential TRSM: ``X = inv(L) @ B``.

    Processes ``block`` rows at a time: an unblocked solve on the diagonal
    block, then one GEMM update of the remaining rows.  Numerically this is
    the standard backward-stable substitution algorithm.
    """
    L = np.asarray(L, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    n = require_square(L, "L")
    if check:
        require_lower_triangular(L, "L")
        require_nonsingular_triangular(L, "L")
    vector = B.ndim == 1
    if vector:
        B = B[:, None]
    require(
        B.shape[0] == n,
        ShapeError,
        f"B has {B.shape[0]} rows, L is {n} x {n}",
    )
    block = max(int(block), 1)
    X = B.copy()
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        X[lo:hi, :] = forward_substitution(L[lo:hi, lo:hi], X[lo:hi, :])
        if hi < n:
            X[hi:, :] -= L[hi:, lo:hi] @ X[lo:hi, :]
    return X[:, 0] if vector else X
