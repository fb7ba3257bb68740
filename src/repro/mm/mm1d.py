"""One-large-dimension matrix multiplication (``n < k/p``).

When the right-hand side is much wider than the square operand, the optimal
layout is one-dimensional (paper Section II-C2, third case): each processor
owns a cyclic set of columns of ``X``; the ``n x n`` operand is allgathered
once (``W = n^2``), after which every column block is computed locally.
This is the MM regime the recursive TRSM's 1D case reduces to, with cost
``O(alpha log p + beta n^2 + gamma n^2 k / p)``.
"""

from __future__ import annotations

import numpy as np

from repro.dist.distmatrix import DistMatrix
from repro.machine.collectives import allgather_blocks
from repro.machine.validate import GridError, ShapeError, require


def mm1d(A: DistMatrix, X: DistMatrix, scale: float = 1.0) -> DistMatrix:
    """``B = scale * A @ X`` on a ``1 x p`` processor grid.

    ``A`` (``m x n``) and ``X`` (``n x k``) must be column-distributed on the
    same ``1 x p`` grid; ``B`` comes back distributed like ``X``.
    """
    machine = A.machine
    grid = A.grid
    require(
        grid == X.grid, GridError, "mm1d requires A and X on the same grid"
    )
    require(
        grid.shape[0] == 1,
        GridError,
        f"mm1d requires a 1 x p grid, got {grid.shape}",
    )
    require(
        A.shape[1] == X.shape[0],
        ShapeError,
        f"inner dimensions disagree: A is {A.shape}, X is {X.shape}",
    )
    p = grid.shape[1]
    group = grid.ranks()  # the 1 x p grid's ranks, y ascending

    # Allgather the column blocks of A; every rank reassembles the full A.
    contribs = {r: A.blocks[r] for r in group}
    got = allgather_blocks(machine, group, contribs, label="mm1d.allgather")
    m, n = A.shape
    A_full = np.zeros((m, n))
    for y in range(p):
        cols = A.layout.col_indices(y, n)
        A_full[:, cols] = got[group[0]][group[y]]

    # Local multiply on each rank's column block of X.
    out_blocks: dict[int, np.ndarray] = {}
    flops: dict[int, object] = {}
    from repro.machine.cost import Cost

    for r in group:
        xb = X.blocks[r]
        out_blocks[r] = scale * (A_full @ xb)
        flops[r] = Cost(0.0, 0.0, float(m) * n * xb.shape[1])
    machine.charge_local(flops, label="mm1d.local")  # type: ignore[arg-type]

    return DistMatrix(machine, grid, X.layout, (m, X.shape[1]), out_blocks)
