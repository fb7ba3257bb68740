"""Closed-form optimal parameters per regime (Section VIII tables).

========  =====================  ==========================  ================================
regime    grid ``(p1, p2)``      block size ``n0``           inversion subgrid ``r1, r2``
========  =====================  ==========================  ================================
1D        ``(1, p)``             ``n``                       ``r1 = r2 = p^{1/3}``
2D        ``(sqrt(p), 1)``       ``(n k^3 sqrt(p))^{1/4}``   ``(k/n)^{1/4} p^{3/8}``
3D        ``((pn/4k)^{1/3},      ``min(sqrt(nk), n)``        ``(min(p sqrt(nk)/n, p))^{1/3}``
          (4k sqrt(p)/n)^{2/3})``
========  =====================  ==========================  ================================

The closed forms are real-valued; :func:`tuned_parameters` snaps them onto
realizable values: ``p1`` a power of two with ``p1^2 | p`` and ``p2 = p/p1^2``,
and ``n0`` a divisor of ``n`` (geometric rounding).  ``r1, r2`` are reported
as the paper's targets — the simulator derives its own valid inversion
subgrids from them (see ``diagonal_inverter``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.machine.validate import ParameterError, require
from repro.tuning.regimes import TrsmRegime, classify_trsm
from repro.util.mathutil import is_power_of_two


@dataclass(frozen=True)
class TuningChoice:
    """A complete parameter set for It-Inv-TRSM."""

    regime: TrsmRegime
    p1: int
    p2: int
    n0: int
    r1: float
    r2: float

    @property
    def p(self) -> int:
        return self.p1 * self.p1 * self.p2


def _snap_p1(p: int, target: float) -> int:
    """Largest-fidelity power-of-two ``p1`` with ``p1^2 | p`` near ``target``."""
    candidates = []
    p1 = 1
    while p1 * p1 <= p:
        if p % (p1 * p1) == 0:
            candidates.append(p1)
        p1 *= 2
    require(bool(candidates), ParameterError, f"no valid p1 for p={p}")
    return min(candidates, key=lambda c: abs(math.log(c / max(target, 1e-12))))


def _snap_n0(n: int, target: float) -> int:
    """Divisor of ``n`` closest (geometrically) to ``target``."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return min(divisors, key=lambda d: abs(math.log(d / max(target, 1e-12))))


def tuned_parameters(n: int, k: int, p: int) -> TuningChoice:
    """The Section VIII closed-form parameters for ``p`` ranks, snapped to
    valid values."""
    require(n >= 1 and k >= 1 and p >= 1, ParameterError, "n, k, p must be >= 1")
    require(
        is_power_of_two(p),
        ParameterError,
        f"p must be a power of two for grid snapping, got {p}",
    )
    regime = classify_trsm(n, k, p)
    n_f, k_f, p_f = float(n), float(k), float(p)

    if regime is TrsmRegime.ONE_LARGE:
        p1, n0 = 1, n
        r = p_f ** (1.0 / 3.0)
        r1 = r2 = r
    elif regime is TrsmRegime.TWO_LARGE:
        p1 = _snap_p1(p, math.sqrt(p_f))
        n0 = _snap_n0(n, (n_f * k_f**3 * math.sqrt(p_f)) ** 0.25)
        r1 = r2 = (k_f / n_f) ** 0.25 * p_f ** 0.375
    else:
        p1 = _snap_p1(p, (p_f * n_f / (4.0 * k_f)) ** (1.0 / 3.0))
        n0 = _snap_n0(n, min(math.sqrt(n_f * k_f), n_f))
        r1 = r2 = min(p_f * math.sqrt(n_f * k_f) / n_f, p_f) ** (1.0 / 3.0)

    p2 = p // (p1 * p1)
    return TuningChoice(
        regime=regime,
        p1=p1,
        p2=p2,
        n0=n0,
        r1=max(r1, 1.0),
        r2=max(r2, 1.0),
    )
