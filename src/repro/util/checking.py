"""Error metrics and flop-count conventions.

Flop convention (PAPER.md, "Deviations from the printed paper"): following the paper, one
"flop" is one fused multiply-add, so a dense ``(n x n) @ (n x k)`` product
costs ``n^2 k`` flops (the paper's ``F_MM``), a triangular-times-dense product
costs half that, and triangular inversion of an ``n x n`` block costs
``n^3 / 8`` flops per the paper's ``F_Inv`` (to leading order per processor
group; the sequential total is ``n^3/6`` multiply-adds — the paper's
constants are what our analytic models reproduce).  The request doors'
field checks live here too.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.machine.validate import ParameterError


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


# -- request-field checks (Cluster.submit, StreamRequest) ---------------------


def _is_real(value: object) -> bool:
    """A real number (numpy's included), never a bool: ``True`` is not 1 s."""
    return type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def require_whole(value: object, name: str, least: int) -> int:
    """``value`` as an ``int``: integral (``64.0`` and numpy ints are), not a
    bool, at least ``least``.  The passing path formats no message."""
    if not (
        type(value) is int
        or (isinstance(value, numbers.Integral) and not isinstance(value, bool))
        or (_is_real(value) and math.isfinite(value) and float(value).is_integer())
    ):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def require_times(arrival: object, deadline: object) -> None:
    """A clock holds only a finite ``arrival`` >= 0 (NaN never compares); a
    ``deadline`` is ``None`` (best effort) or a number that is not NaN."""
    if not (_is_real(arrival) and math.isfinite(arrival) and arrival >= 0):
        raise ParameterError(f"arrival must be a finite number of seconds >= 0, got {arrival!r}")
    if not (deadline is None or (_is_real(deadline) and not math.isnan(deadline))):
        raise ParameterError(
            f"deadline must be a number of seconds (not NaN) or None, got {deadline!r}"
        )
