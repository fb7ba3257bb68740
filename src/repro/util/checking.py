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


# -- the request schema: one rule per field, every door runs them ------------


def _finite(value: object) -> float | None:
    """A real ``value`` (numpy's included) as a finite ``float``, or ``None``
    for a bool (``True`` is not 1 s), a string, NaN, ±inf or an integer
    past the float range."""
    if type(value) is not float and (
        not isinstance(value, numbers.Real) or isinstance(value, bool)
    ):
        return None
    try:
        seconds = float(value)
    except OverflowError:
        return None
    return seconds if math.isfinite(seconds) else None


def require_whole(value: object, name: str, least: int | None = None) -> int:
    """``value`` as an ``int``: integral (``64.0`` and numpy ints are), not a
    bool, at least ``least`` (any sign when ``None``).  The passing path
    formats no message."""
    if not (
        type(value) is int
        or (isinstance(value, numbers.Integral) and not isinstance(value, bool))
        or (_finite(value) is not None and float(value).is_integer())
    ):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def require_seconds(value: object, name: str, least: float | None = 0.0) -> float:
    """``value`` as a finite ``float`` of seconds, at least ``least`` (any
    sign when ``None``)."""
    seconds = _finite(value)
    if seconds is None or (least is not None and seconds < least):
        bound = "" if least is None else f" >= {least:g}"
        raise ParameterError(f"{name} must be a finite number of seconds{bound}, got {value!r}")
    return seconds


def _tenant(value: object, name: str) -> str:
    if not isinstance(value, str):
        raise ParameterError(f"{name} must be a str, got {value!r}")
    return value


def _sizes(value: object, name: str) -> tuple[int, ...] | None:
    if not (value is None or (isinstance(value, tuple) and value)):
        raise ParameterError(f"{name} must be None or a non-empty tuple, got {value!r}")
    return None if value is None else tuple(require_whole(s, name, 1) for s in value)


#: The request schema: the problem shape (an ``n x n`` ``L``, an ``n x k``
#: ``B``) and the serving fields, one rule each, returning the stored value.
FIELD_RULES = {
    "n": lambda v, name: require_whole(v, name, 1),
    "k": lambda v, name: require_whole(v, name, 1),
    "seed": lambda v, name: require_whole(v, name, 0),
    "priority": require_whole,
    "arrival": require_seconds,
    "deadline": lambda v, name: None if v is None else require_seconds(v, name, None),
    "tenant": _tenant,
    "sizes": _sizes,
}


def check_fields(obj: object, names: tuple[str, ...]) -> None:
    """Run each named field's rule on ``obj`` and store what it returns
    (frozen dataclasses too); the first bad field raises."""
    for name in names:
        object.__setattr__(obj, name, FIELD_RULES[name](getattr(obj, name), name))
