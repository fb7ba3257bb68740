"""Error metrics and flop-count conventions.

Flop convention (PAPER.md, "Deviations from the printed paper"): following the paper, one
"flop" is one fused multiply-add, so a dense ``(n x n) @ (n x k)`` product
costs ``n^2 k`` flops (the paper's ``F_MM``), a triangular-times-dense product
costs half that, and triangular inversion of an ``n x n`` block costs
``n^3 / 8`` flops per the paper's ``F_Inv`` (to leading order per processor
group; the sequential total is ``n^3/6`` multiply-adds — the paper's
constants are what our analytic models reproduce).
"""

from __future__ import annotations

import numpy as np


def relative_residual(L: np.ndarray, X: np.ndarray, B: np.ndarray) -> float:
    """Normwise relative backward residual ``||L X - B|| / (||L|| ||X|| + ||B||)``.

    Frobenius norms throughout.  For a backward-stable TRSM this is O(eps).
    """
    num = float(np.linalg.norm(L @ X - B))
    den = float(np.linalg.norm(L) * np.linalg.norm(X) + np.linalg.norm(B))
    if den == 0.0:
        return 0.0
    return num / den


def forward_error(X: np.ndarray, X_ref: np.ndarray) -> float:
    """Relative forward error ``||X - X_ref|| / ||X_ref||`` (Frobenius)."""
    den = float(np.linalg.norm(X_ref))
    if den == 0.0:
        return float(np.linalg.norm(X))
    return float(np.linalg.norm(X - X_ref)) / den


def backward_error(L: np.ndarray, Linv: np.ndarray) -> float:
    """Inversion residual ``||L Linv - I|| / ||L|| / ||Linv||`` (Frobenius)."""
    n = L.shape[0]
    num = float(np.linalg.norm(L @ Linv - np.eye(n)))
    den = float(np.linalg.norm(L) * np.linalg.norm(Linv))
    if den == 0.0:
        return num
    return num / den


# ---------------------------------------------------------------------------
# Flop-count helpers (multiply-add convention, matching the paper's F terms)
# ---------------------------------------------------------------------------


def flops_tri_inv_seq(n: int) -> float:
    """Multiply-add count of sequential triangular inversion: n^3 / 6."""
    return float(n) ** 3 / 6.0
