"""Closed-form TRSM cost models: Sections IV-A, VII, VIII and IX.

Two families:

* ``recursive_*`` — the Section IV-A costs of ``Rec-TRSM`` (the paper's
  "standard" baseline) in the three regimes;
* ``iterative_*`` — the Section VII per-part costs (inversion / solve /
  update) of ``It-Inv-TRSM`` plus the Section VIII tuned totals.

``conclusion_row`` assembles the Section IX comparison table entries, and
``latency_improvement`` evaluates the headline ``Theta((n/k)^{1/6} p^{2/3})``
ratio.

Deviations from the printed text (both listed in PAPER.md, "Deviations
from the printed paper"):

* the paper's printed ``W_Upd`` bcast term ``4(n n0 - n)/p1^2`` is a typo
  for the summed panel broadcasts ``sum_i 4 (n - i n0) n0 / p1^2 ~=
  2 n^2 / p1^2``; we implement the sum;
* the paper's printed ``T_IT2D`` flop term ``gamma n^2 k / sqrt(p)`` is a
  typo for ``n^2 k / p`` (the conclusion table and ``F_Upd + F_Solve``
  agree on ``n^2 k / p``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.machine.cost import Cost
from repro.inversion.cost_model import NU
from repro.util.mathutil import unit_step


def _log2(x: float) -> float:
    return math.log2(x) if x > 1 else 0.0


# ---------------------------------------------------------------------------
# Section IV-A: recursive TRSM (the "standard" baseline)
# ---------------------------------------------------------------------------


def recursive_cost_1d(n: int, k: int, p: int) -> Cost:
    """``T_RT1D = O(alpha log p + beta n^2 + gamma n^2 k/p)`` (``n < k/p``)."""
    n_f, k_f = float(n), float(k)
    return Cost(S=_log2(p), W=n_f * n_f * unit_step(p), F=n_f * n_f * k_f / p)


def recursive_cost_2d(n: int, k: int, p: int) -> Cost:
    """Standard-method 2D cost (``n > k sqrt(p)``).

    We use the Section IX conclusion-table entry
    ``S = sqrt(p) log p, W = nk log p / sqrt(p), F = n^2 k / p``.
    (Section IV-A's recurrence gives the slightly tighter ``S = O(sqrt(p))``;
    the paper's own table keeps the log factor and it is the table we
    reproduce — see EXPERIMENTS.md E1.)
    """
    n_f, k_f, p_f = float(n), float(k), float(p)
    sp = math.sqrt(p_f)
    return Cost(
        S=sp * max(_log2(p), 1.0),
        W=n_f * k_f * max(_log2(p), 1.0) / sp,
        F=n_f * n_f * k_f / p_f,
    )


def recursive_cost_3d(n: int, k: int, p: int) -> Cost:
    """``T_RT3D = O(alpha (np/k)^{2/3} log p + beta (n^2k/p)^{2/3}
    + gamma n^2k/p)`` (``k/p <= n <= k sqrt(p)``)."""
    n_f, k_f, p_f = float(n), float(k), float(p)
    return Cost(
        S=(n_f * p_f / k_f) ** (2.0 / 3.0) * max(_log2(p), 1.0),
        W=(n_f * n_f * k_f / p_f) ** (2.0 / 3.0),
        F=n_f * n_f * k_f / p_f,
    )


def recursive_cost(n: int, k: int, p: int) -> Cost:
    """Regime-dispatched Section IV-A cost (see
    :func:`repro.tuning.regimes.classify_trsm` for the boundaries)."""
    from repro.tuning.regimes import TrsmRegime, classify_trsm

    regime = classify_trsm(n, k, p)
    if regime is TrsmRegime.ONE_LARGE:
        return recursive_cost_1d(n, k, p)
    if regime is TrsmRegime.TWO_LARGE:
        return recursive_cost_2d(n, k, p)
    return recursive_cost_3d(n, k, p)


# ---------------------------------------------------------------------------
# Section VII: It-Inv-TRSM per-part costs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IterativeParts:
    """The three Section VII components plus their total."""

    inversion: Cost
    solve: Cost
    update: Cost

    @property
    def total(self) -> Cost:
        return self.inversion + self.solve + self.update


def inversion_part(n: int, n0: int, p1: int, p2: int, r1: float, r2: float) -> Cost:
    """Section VII-A: inverting the ``n/n0`` diagonal blocks.

    ``W_Inv = nu (n0^2/(8 r1^2) + n0^2/(2 r1 r2))``;
    ``F_Inv = n n0^2 / (8 p1^2 p2)``; ``S_Inv = O(log^2 p)``.
    """
    p = p1 * p1 * p2
    n0_f = float(n0)
    lg = _log2(p)
    r1 = max(r1, 1.0)
    r2 = max(r2, 1.0)
    return Cost(
        S=2.0 * lg * lg,
        W=NU * (n0_f**2 / (8.0 * r1**2) + n0_f**2 / (2.0 * r1 * r2)) * unit_step(p),
        F=float(n) * n0_f**2 / (8.0 * p1**2 * p2),
    )


def solve_part(n: int, k: int, n0: int, p1: int, p2: int) -> Cost:
    """Section VII-B: ``n/n0`` multiplications with the inverted blocks.

    ``W_Solve = (n/n0) [ (n0^2/p1^2) 1_{p2} + 4 (n0 k/(p1 p2)) 1_{p1} ]``;
    ``F_Solve = (n/n0) n0^2 k / (p1^2 p2)``; ``S_Solve = (n/n0) log p``.

    The latency term carries ``1_{p1}`` (with ``p1 = 1`` the per-iteration
    allreduce degenerates) plus one ``2 log p2`` round for the
    diagonal-block replication along the ``z`` fibers.
    """
    p = p1 * p1 * p2
    nb = n / n0
    n0_f, k_f = float(n0), float(k)
    return Cost(
        S=nb * max(_log2(p), 1.0 * unit_step(p)) * unit_step(p1)
        + 2.0 * _log2(p2) * unit_step(p2),
        W=nb
        * (
            (n0_f**2 / p1**2) * unit_step(p2)
            + 4.0 * (n0_f * k_f / (p1 * p2)) * unit_step(p1)
        ),
        F=nb * n0_f**2 * k_f / (p1**2 * p2),
    )


def update_part(n: int, k: int, n0: int, p1: int, p2: int) -> Cost:
    """Section VII-C: the deferred trailing updates.

    ``W_Upd = sum_i [ 4 (n - i n0) n0/p1^2 1_{p2} + 4 n0 k/(p1 p2) 1_{p1} ]``
    (panel broadcasts + the two allreductions);
    ``F_Upd = (n - n0)/n0 * k n n0/(p1^2 p2)``;
    ``S_Upd = ((n - n0)/n0) log p``.
    """
    p = p1 * p1 * p2
    nb = n // n0
    n_f, k_f, n0_f = float(n), float(k), float(n0)
    if nb <= 1:
        return Cost.zero()
    bcast_w = sum(4.0 * (n_f - i * n0_f) * n0_f / p1**2 for i in range(1, nb))
    reduce_w = (nb - 1) * 4.0 * n0_f * k_f / (p1 * p2)
    return Cost(
        S=(nb - 1) * max(_log2(p), 1.0 * unit_step(p)),
        W=bcast_w * unit_step(p2) + reduce_w * unit_step(p1),
        F=(n_f - n0_f) / n0_f * (k_f * n_f * n0_f / (p1**2 * p2)),
    )


def iterative_parts(
    n: int,
    k: int,
    n0: int,
    p1: int,
    p2: int,
) -> IterativeParts:
    """All three Section VII parts, the inversion on the paper's optimal
    inversion subgrid (Section VII-A)."""
    from repro.inversion.cost_model import optimal_inversion_grid

    r1, r2 = optimal_inversion_grid(p1 * p1 * p2, n0, n)
    return IterativeParts(
        inversion=inversion_part(n, n0, p1, p2, r1, r2),
        solve=solve_part(n, k, n0, p1, p2),
        update=update_part(n, k, n0, p1, p2),
    )


def iterative_cost(n: int, k: int, n0: int, p1: int, p2: int) -> Cost:
    """Total modeled It-Inv-TRSM cost for explicit parameters."""
    return iterative_parts(n, k, n0, p1, p2).total


# ---------------------------------------------------------------------------
# Section VIII tuned totals / Section IX conclusion table
# ---------------------------------------------------------------------------


def iterative_cost_1d(n: int, k: int, p: int) -> Cost:
    """``T_IT1D = O(alpha (log^2 p + log p) + beta n^2 + gamma n^2k/p)``."""
    n_f, k_f = float(n), float(k)
    lg = _log2(p)
    return Cost(S=lg * lg + lg, W=n_f * n_f * unit_step(p), F=n_f * n_f * k_f / p)


def iterative_cost_2d(n: int, k: int, p: int) -> Cost:
    """``T_IT2D = O(alpha (log^2 p + (n/k)^{3/4} p^{-1/8} log p)
    + beta nk/sqrt(p) + gamma n^2k/p)``."""
    n_f, k_f, p_f = float(n), float(k), float(p)
    lg = _log2(p)
    return Cost(
        S=lg * lg + (n_f / k_f) ** 0.75 * p_f ** (-0.125) * max(lg, 1.0),
        W=n_f * k_f / math.sqrt(p_f),
        F=n_f * n_f * k_f / p_f,
    )


def iterative_cost_3d(n: int, k: int, p: int) -> Cost:
    """``T_IT3D = O(alpha (log^2 p + max(sqrt(n/k),1) log p)
    + beta (n^2k/p)^{2/3} + gamma 2 n^2k/p)``."""
    n_f, k_f, p_f = float(n), float(k), float(p)
    lg = _log2(p)
    return Cost(
        S=lg * lg + max(math.sqrt(n_f / k_f), 1.0) * max(lg, 1.0),
        W=(n_f * n_f * k_f / p_f) ** (2.0 / 3.0),
        F=2.0 * n_f * n_f * k_f / p_f,
    )


def iterative_cost_tuned(n: int, k: int, p: int) -> Cost:
    """Regime-dispatched Section VIII tuned total."""
    from repro.tuning.regimes import TrsmRegime, classify_trsm

    regime = classify_trsm(n, k, p)
    if regime is TrsmRegime.ONE_LARGE:
        return iterative_cost_1d(n, k, p)
    if regime is TrsmRegime.TWO_LARGE:
        return iterative_cost_2d(n, k, p)
    return iterative_cost_3d(n, k, p)


def conclusion_row(n: int, k: int, p: int) -> dict[str, Cost]:
    """One row pair of the Section IX table: standard vs new method."""
    return {
        "standard": recursive_cost(n, k, p),
        "new": iterative_cost_tuned(n, k, p),
    }


def latency_improvement(n: int, k: int, p: int) -> float:
    """``S_standard / S_new`` — the paper's headline is
    ``Theta((n/k)^{1/6} p^{2/3})`` in the 3D regime."""
    row = conclusion_row(n, k, p)
    if row["new"].S == 0:
        return float("inf")
    return row["standard"].S / row["new"].S
