"""Triangular-structure helpers shared by every solver and factorization.

Validation (``require_*``) raises :class:`~repro.machine.validate.ShapeError`
with actionable messages; ``triangle_words`` is the exact storage count
the cost models charge for a triangular operand (the paper stores
triangles, not padded squares).

``require_square`` is deliberately duck-typed: it accepts anything with a
2-tuple ``.shape`` — a numpy array or a
:class:`~repro.dist.distmatrix.DistMatrix` — so algorithm entry points
validate distributed and global operands with the same call.
``require_lower_triangular`` and ``require_nonsingular_triangular`` take
either too: on a ``DistMatrix`` every rank checks the entries of its own
block against their global indices, so the precondition costs no
``to_global()`` assembly.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.dist.distmatrix import DistMatrix
from repro.machine.validate import ShapeError, require


def require_square(A: object, name: str = "matrix") -> int:
    """Validate that ``A`` (ndarray or DistMatrix) is square; return ``n``."""
    shape = getattr(A, "shape", None)
    require(
        shape is not None and len(shape) == 2,
        ShapeError,
        f"{name} must be a 2D matrix, got shape {shape!r}",
    )
    require(
        shape[0] == shape[1],
        ShapeError,
        f"{name} must be square, got shape {tuple(shape)}",
    )
    return int(shape[0])


def is_lower_triangular(A: np.ndarray, tol: float = 0.0) -> bool:
    """True iff every strictly-upper entry of ``A`` is ``<= tol`` in magnitude."""
    A = np.asarray(A)
    if A.shape[0] <= 1 or A.shape[1] <= 1:
        return True
    upper = A[np.triu_indices_from(A, k=1)]
    return bool(upper.size == 0 or np.max(np.abs(upper)) <= tol)


def _owned_blocks(A: DistMatrix) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(block, global rows, global columns)`` for each rank of ``A``."""
    m, n = A.shape
    ranks = A.grid.rank_array
    for x, y in A.grid.coords():
        block = A.blocks[int(ranks[x, y])]
        yield block, A.layout.row_indices(x, m), A.layout.col_indices(y, n)


def require_lower_triangular(
    A: np.ndarray | DistMatrix, name: str = "matrix", tol: float = 0.0
) -> None:
    """Raise :class:`ShapeError` unless ``A`` is lower triangular.

    On a ``DistMatrix`` each owned block is checked in place: its entries
    whose global row is above their global column must be ``<= tol``.
    """
    if isinstance(A, DistMatrix):
        ok = all(
            float(np.abs(block[rows[:, None] < cols]).max(initial=0.0)) <= tol
            for block, rows, cols in _owned_blocks(A)
        )
    else:
        ok = is_lower_triangular(A, tol=tol)
    require(
        ok,
        ShapeError,
        f"{name} must be lower triangular (strict upper part exceeds tol={tol})",
    )


def require_nonsingular_triangular(A: np.ndarray | DistMatrix, name: str = "matrix") -> None:
    """Raise :class:`ShapeError` if any diagonal entry of ``A`` is zero.

    A triangular matrix is singular exactly when its diagonal has a zero;
    this is the cheap a-priori check every solve performs before starting
    to move data.  On a ``DistMatrix`` each rank inspects the global
    diagonal entries its own block holds; the error names the first
    (global) singular index either way.
    """
    if isinstance(A, DistMatrix):
        singular: list[int] = []
        for block, rows, cols in _owned_blocks(A):
            diag, ri, ci = np.intersect1d(rows, cols, assume_unique=True, return_indices=True)
            singular.extend(diag[~(np.abs(block[ri, ci]) > 0.0)].tolist())
        first = min(singular, default=None)
    else:
        d = np.abs(np.diag(np.asarray(A)))
        first = None if bool(np.all(d > 0.0)) else int(np.argmin(d))
    require(
        first is None,
        ShapeError,
        f"{name} is singular: zero on the diagonal at index {first}",
    )


def triangle_words(n: int) -> int:
    """Words in an ``n x n`` triangle including the diagonal: ``n(n+1)/2``."""
    require(n >= 0, ShapeError, f"triangle_words needs n >= 0, got {n}")
    return n * (n + 1) // 2
