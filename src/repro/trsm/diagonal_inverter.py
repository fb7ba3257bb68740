"""Diagonal-Inverter (Section VI-A): selective inversion of diagonal blocks.

Splits the ``n x n`` triangular matrix into ``n/n0`` diagonal blocks of size
``n0`` and inverts each on its **own subgrid of processors**, all blocks in
parallel.  The subgrids partition the whole machine: with ``p`` processors
and ``n/n0`` blocks each subgrid has ``q = p*n0/n`` processors (the paper's
``r1 x r1 x r2`` with ``r1^2 r2 = q``; we use the largest square
``s_b x s_b <= q`` that :func:`repro.inversion.rec_tri_inv` accepts, see
PAPER.md, "Deviations from the printed paper").

Data movement matches the paper's lines 6/9/16/17: the block pieces move
from the owning 2D plane to the inversion subgrid and back.  Each direction
is a **fused transition** (extract + redistribute down, redistribute + embed
back) charged at the exact per-pair routing cost — never of leading order
next to the inversion itself, and the embed back into the plane is charged
whenever the ``(lo, lo)`` offset moves words between ranks (the old scratch
assembly moved them silently for free).
"""

from __future__ import annotations

import math

import numpy as np

from repro.dist.distmatrix import DistMatrix
from repro.dist.layout import CyclicLayout
from repro.dist.redistribute import route_embed, route_submatrix
from repro.dist.triangular import require_square
from repro.inversion.rec_tri_inv import rec_tri_inv
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import ParameterError, require
from repro.util.mathutil import prev_power_of_two


def inversion_subgrid_side(p: int, n: int, n0: int) -> int:
    """Side of the square inversion subgrid for each diagonal block.

    ``q = p*n0/n`` processors are available per block; we use the largest
    power-of-two square that fits, ``s_b = prev_pow2(floor(sqrt(q)))``.
    """
    nb = n // n0
    q = max(p // nb, 1)
    return prev_power_of_two(max(math.isqrt(q), 1))


def diagonal_inverter(
    L: DistMatrix,
    n0: int,
    pool: list[int] | None = None,
    base_n: int = 8,
) -> DistMatrix:
    """Invert the ``n/n0`` diagonal blocks of ``L``; zero elsewhere.

    ``L`` is cyclically distributed on a 2D grid (in the iterative solver:
    the ``z = 0`` plane of the 3D grid).  ``pool`` lists the machine ranks
    available for the concurrent inversions (default: the grid's own
    ranks); the pool is chopped into one square subgrid per block.  Returns
    the block-diagonal matrix ``inv(diag blocks)`` distributed like ``L``.
    """
    machine = L.machine
    n = require_square(L, "L")
    require(
        n0 >= 1 and n % n0 == 0,
        ParameterError,
        f"n0={n0} must divide n={n}",
    )
    nb = n // n0
    if pool is None:
        pool = L.grid.ranks()
    p_pool = len(pool)
    side = inversion_subgrid_side(p_pool, n, n0)
    chunk = max(p_pool // nb, 1)

    result = DistMatrix.zeros(machine, L.grid, L.layout, (n, n))
    for b in range(nb):
        lo, hi = b * n0, (b + 1) * n0
        # Never short of side^2 ranks: with nb <= p the last block starts at
        # (nb-1)*chunk and side^2 <= chunk, so it ends by nb*chunk <= p; with
        # nb > p, chunk = side = 1 and the start wraps one rank at a time.
        ranks = pool[(b * chunk) % p_pool :][: side * side]
        subgrid = ProcessorGrid(
            np.asarray(ranks, dtype=np.int64).reshape(side, side)
        )
        sub_layout = CyclicLayout(side, side)
        # Lines 6 + 9: plane -> subgrid, extract + redistribute fused into
        # one exact charge.
        block_sub = route_submatrix(
            L, lo, hi, lo, hi, subgrid, sub_layout, label="diaginv.to_subgrid"
        )
        inv_sub = rec_tri_inv(block_sub, base_n=base_n)
        # Lines 16 + 17: subgrid -> plane, redistribute + embed fused; the
        # (lo, lo) offset is charged exactly when it moves words.
        route_embed(inv_sub, result, lo, lo, label="diaginv.from_subgrid")

    return result
