"""Analytic cost model for the Section III matrix-multiplication algorithm.

``mm3d_cost_lines`` reproduces the paper's line-by-line table; ``mm3d_cost``
sums it.  These are the *model* counterparts of the measured costs the
simulator produces when running :func:`repro.mm.mm3d.mm3d`; the cost-table
bench (E3) checks the two against each other.

Line-by-line table (paper Section III-A), with ``sqrt(p) = p1*sqrt(p2)``:

======  =======================================================
line    cost
======  =======================================================
2       ``alpha*log(p2) + beta*(n^2/p1^2)*1_{p2}``
3       ``O(alpha*log(p) + beta*n*k*log(p)/p)``
4       ``alpha + beta*n*k/p``
5       ``alpha*log(p1) + beta*(n*k/(p1*p2))*1_{p1}``
6       ``gamma*n^2*k/p``
7       ``alpha*log(p1) + (beta+gamma)*(n*k/(p1*p2))*1_{p1}``
8       ``alpha*log(p) + beta*(n*k/p)*log(p)``
======  =======================================================
"""

from __future__ import annotations

import math

from repro.machine.cost import Cost
from repro.util.mathutil import unit_step


def _log2(x: float) -> float:
    return math.log2(x) if x > 1 else 0.0


def mm3d_cost_lines(n: int, k: int, p1: int, p2: int, m: int | None = None) -> dict[str, Cost]:
    """Per-line cost of MM multiplying ``(m x n) @ (n x k)`` (default m=n).

    Keys are the paper's line numbers ("line2" ... "line8").
    """
    if m is None:
        m = n
    p = p1 * p1 * p2
    nw = float(m) * float(n)  # words of the left operand
    xw = float(n) * float(k)  # words of the right operand / result
    return {
        # allgather of L'[x1,y1] (m/p1 x n/p1 words) over the p2-fiber
        "line2": Cost(S=_log2(p2), W=(nw / p1**2) * unit_step(p2), F=0.0),
        # rectangular-grid transpose of X: bounded by an all-to-all over
        # sqrt(p) (Bruck: (n/2) log p words for n words per rank);
        # degenerates to the identity when p2 == 1 (x2 == 0 always)
        "line3": Cost(
            S=_log2(p) * unit_step(p2),
            W=(xw / (2.0 * p)) * _log2(p) * unit_step(p2),
            F=0.0,
        ),
        # square-grid transpose: a single pairwise block exchange
        "line4": Cost(S=1.0 if p > 1 else 0.0, W=(xw / p) * unit_step(p), F=0.0),
        # allgather of X'''[y1,z] (n/p1 x k/p2 words) over the p1-fiber
        "line5": Cost(S=_log2(p1), W=(xw / (p1 * p2)) * unit_step(p1), F=0.0),
        # local multiply (m/p1 x n/p1) @ (n/p1 x k/p2)
        "line6": Cost(S=0.0, W=0.0, F=float(m) * float(n) * float(k) / p),
        # scatter-reduce of the partial products over the p1-fiber
        "line7": Cost(
            S=_log2(p1),
            W=(xw * m / n / (p1 * p2)) * unit_step(p1),
            F=(xw * m / n / (p1 * p2)) * unit_step(p1),
        ),
        # transpose back to the 2D cyclic layout of B: all-to-all bound
        "line8": Cost(
            S=_log2(p), W=(xw * m / n / (2.0 * p)) * _log2(p), F=0.0
        ),
    }


def mm3d_cost(n: int, k: int, p1: int, p2: int, m: int | None = None) -> Cost:
    """Total modeled cost of one MM call (sum of the per-line table)."""
    total = Cost.zero()
    for c in mm3d_cost_lines(n, k, p1, p2, m=m).values():
        total = total + c
    return total


def mm3d_leading_order(n: int, k: int, p1: int, p2: int) -> Cost:
    """The paper's leading-order T_MM: ``beta*(n^2/p1^2*1_{p2} + 2nk/(p1 p2))
    + gamma*n^2 k/p``, with the ``O(alpha log p + beta nk log p/p)`` terms
    included in S and W."""
    p = p1 * p1 * p2
    lg = _log2(p)
    return Cost(
        S=2 * lg,
        W=(float(n) * n / p1**2) * unit_step(p2)
        + 2.0 * n * k / (p1 * p2)
        + (float(n) * k / p) * lg,
        F=float(n) * n * k / p,
    )


def mm1d_cost(n: int, k: int, p: int) -> Cost:
    """One-large-dimension MM: allgather L (n^2 words), local multiply.

    Matches the paper's ``T_RT1D = O(alpha log p + beta n^2 + gamma n^2 k/p)``.
    """
    return Cost(
        S=_log2(p),
        W=float(n) * n * unit_step(p),
        F=float(n) * n * k / p,
    )


def mm_bandwidth_lower_bound(n: int, k: int, p: int) -> float:
    """The Section II-C2 bandwidth W_MM(n, k, p) (three-case formula).

    * two large dimensions (``n > k*sqrt(p)``): ``n*k/sqrt(p)``
    * three large dimensions (``k/p <= n <= k*sqrt(p)``): ``(n^2 k/p)^{2/3}``
    * one large dimension (``n < k/p``): ``n^2``
    """
    n_f, k_f, p_f = float(n), float(k), float(p)
    if n_f > k_f * math.sqrt(p_f):
        return n_f * k_f / math.sqrt(p_f)
    if n_f < k_f / p_f:
        return n_f * n_f
    return (n_f * n_f * k_f / p_f) ** (2.0 / 3.0)
