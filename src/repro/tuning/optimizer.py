"""Exhaustive discrete parameter search for It-Inv-TRSM.

The paper gives *asymptotically* optimal parameters and notes "there is a
trade off between the constant factors on the bandwidth and latency costs.
The exact choice is therefore machine dependent and should be determined
experimentally."  This module is that experiment done a priori: enumerate
every realizable ``(p1, p2, n0)`` and pick the one minimizing the modeled
execution time under the machine's actual ``alpha, beta, gamma``.

Used by the solver when ``algorithm="auto"`` with ``tune="search"`` and by
the E7 bench to validate that the closed forms land within a small factor
of the discrete optimum.
"""

from __future__ import annotations

from repro.machine.cost import CostParams
from repro.machine.validate import ParameterError, require
from repro.tuning.parameters import TuningChoice
from repro.tuning.regimes import classify_trsm
from repro.util.mathutil import is_power_of_two


def _valid_p1s(p: int) -> list[int]:
    out = []
    p1 = 1
    while p1 * p1 <= p:
        if p % (p1 * p1) == 0:
            out.append(p1)
        p1 *= 2
    return out


def _candidate_n0s(n: int, max_candidates: int = 64) -> list[int]:
    """Divisors of ``n`` (all of them if few, geometrically thinned if many)."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    if len(divisors) <= max_candidates:
        return divisors
    step = len(divisors) / max_candidates
    return sorted({divisors[int(i * step)] for i in range(max_candidates)} | {n})


def optimize_parameters(
    n: int,
    k: int,
    p: int,
    params: CostParams | None = None,
) -> TuningChoice:
    """Best ``(p1, p2, n0)`` under the modeled total time.

    ``r1, r2`` are set to the paper's optimum for the winning ``n0``.
    """
    from repro.inversion.cost_model import optimal_inversion_grid
    from repro.trsm.cost_model import iterative_cost

    require(n >= 1 and k >= 1 and p >= 1, ParameterError, "n, k, p must be >= 1")
    require(is_power_of_two(p), ParameterError, f"p must be a power of two, got {p}")
    params = params or CostParams()

    best: tuple[float, TuningChoice] | None = None
    regime = classify_trsm(n, k, p)
    for p1 in _valid_p1s(p):
        p2 = p // (p1 * p1)
        for n0 in _candidate_n0s(n):
            t = iterative_cost(n, k, n0, p1, p2).time(params)
            if best is None or t < best[0]:
                r1, r2 = optimal_inversion_grid(p, n0, n)
                best = (
                    t,
                    TuningChoice(
                        regime=regime,
                        p1=p1,
                        p2=p2,
                        n0=n0,
                        r1=max(r1, 1.0),
                        r2=max(r2, 1.0),
                    ),
                )
    assert best is not None
    return best[1]
