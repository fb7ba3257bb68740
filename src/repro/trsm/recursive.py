"""Rec-TRSM: the paper's recursive baseline algorithm (Section IV).

Solves ``L X = B`` for ``L`` lower triangular (``n x n``) and ``B`` dense
(``n x k``), both cyclically distributed on a ``pr x pc`` grid with
``pc = q * pr``:

1. **column partitioning** (``q > 1``, i.e. more columns than rows in the
   grid, chosen when ``k > n``): replicate ``L`` onto each of the ``q``
   square ``pr x pr`` subgrids with one allgather along the ``z`` fibers
   (``Tpart-cols = O(beta n^2/pr^2 + alpha log p)``), then solve the ``q``
   independent column subproblems concurrently.  The column sets land on
   each subgrid in exactly the cyclic layout, so no data moves for ``B``;
2. **base case** (``n <= n0`` or a single processor): allgather ``L``
   (``W = n^2``), all-to-all ``B`` within each grid column so every
   processor owns full columns, solve locally with the blocked sequential
   kernel, all-to-all back.  That is what is *charged*, per grid column;
   what is *executed* is one solve of ``B``'s stacked columns (the ranks'
   column sets are disjoint), each rank getting a copy of its slice;
3. **recursive case** (square grid): solve ``L11 X1 = B1``, update
   ``B2' = B2 - L21 @ X1`` with the Section III MM (a-priori optimal
   split), solve ``L22 X2 = B2'``.

The ``n0`` recursion cutoff follows Section IV-A (see
:func:`default_recursive_n0`); the update MM dominates the cost exactly as
in the paper's recurrences.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dist.distmatrix import DistMatrix
from repro.dist.layout import CyclicLayout, Layout
from repro.dist.redistribute import embed_submatrix, extract_submatrix
from repro.dist.triangular import (
    require_lower_triangular,
    require_nonsingular_triangular,
    require_square,
)
from repro.inversion.sequential import trsm_lower_sequential
from repro.machine import collective_models
from repro.machine.collectives import allgather_blocks
from repro.machine.cost import Cost
from repro.machine.machine import Machine
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import GridError, ShapeError, require
from repro.mm.dispatch import choose_mm_split
from repro.mm.mm3d import mm3d
from repro.util.mathutil import next_power_of_two, prev_power_of_two


def default_recursive_n0(n: int, k: int, p: int) -> int:
    """The Section IV-A recursion cutoffs.

    * 2D regime (``n > k sqrt(p)``): ``n0 = max(sqrt(p), n log p / sqrt(p))``
    * otherwise: ``n0 = n^{1/3} (k/p)^{2/3}``, clamped to ``[1, n]``.
    """
    if p <= 1:
        return max(n, 1)
    sp = math.sqrt(p)
    lg = math.log2(p) if p > 1 else 1.0
    if n > k * sp:
        n0 = max(sp, n * lg / sp)
    else:
        n0 = n ** (1.0 / 3.0) * (k / p) ** (2.0 / 3.0)
    return int(min(max(n0, 1.0), n))


def rec_trsm(
    L: DistMatrix,
    B: DistMatrix,
    n0: int | None = None,
    _depth: int = 0,
) -> DistMatrix:
    """Solve ``L X = B``; result distributed exactly like ``B``."""
    n = require_square(L, "L")
    require(
        B.shape[0] == n,
        ShapeError,
        f"B has {B.shape[0]} rows, L is {n} x {n}",
    )
    require(L.grid == B.grid, GridError, "L and B must share a grid")
    if _depth == 0:
        require_lower_triangular(L, "L")
        require_nonsingular_triangular(L, "L")

    pr, pc = L.grid.shape
    k = B.shape[1]
    if n0 is None:
        n0 = default_recursive_n0(n, k, L.grid.size)

    if pc > pr:
        return _partition_columns(L, B, n0)
    require(
        pr == pc,
        GridError,
        f"rec_trsm requires pc >= pr with pr | pc, got grid {L.grid.shape}",
    )
    if n <= n0 or L.grid.size == 1:
        return _base_case(L, B)
    return _recurse(L, B, n0, _depth)


# ---------------------------------------------------------------------------
# case 1: column partitioning onto q square subgrids
# ---------------------------------------------------------------------------


def _partition_columns(L: DistMatrix, B: DistMatrix, n0: int) -> DistMatrix:
    machine = L.machine
    grid = L.grid
    pr, pc = grid.shape
    require(
        pc % pr == 0,
        GridError,
        f"column partitioning requires pr | pc, got {grid.shape}",
    )
    q = pc // pr
    n = L.shape[0]
    k = B.shape[1]
    sub_layout = CyclicLayout(pr, pr)

    # Replicate L onto each subgrid: allgather over the z fibers.
    rank = grid.rank_array.tolist()
    Lz_blocks: dict[int, np.ndarray] = {}
    for x in range(pr):
        for y in range(pr):
            group = [rank[x][y + pr * z] for z in range(q)]
            contribs = {r: L.blocks[r] for r in group}
            got = allgather_blocks(machine, group, contribs, label="rectrsm.partcols")
            target = np.zeros((len(L.layout.row_indices(x, n)), len(range(y, n, pr))))
            for z in range(q):
                # global col c = (y + pr*z) + pc*t sits at slot (c - y)/pr
                # = z + q*t within the cols-congruent-to-y-mod-pr list.
                target[:, z::q] = got[group[0]][group[z]]
            for r in group:
                Lz_blocks[r] = target

    # Each subgrid keeps its own columns of B (already in cyclic sub-layout).
    X = DistMatrix.zeros(machine, grid, B.layout, B.shape)
    for z in range(q):
        subgrid = grid.subgrid(slice(None), slice(pr * z, pr * (z + 1)))
        kz = sum(
            len(np.arange(y + pr * z, k, pc)) for y in range(pr)
        )
        Lz = DistMatrix(
            machine,
            subgrid,
            sub_layout,
            (n, n),
            {r: Lz_blocks[r] for r in subgrid.ranks()},
        )
        Bz = DistMatrix(
            machine,
            subgrid,
            sub_layout,
            (n, kz),
            {r: B.blocks[r] for r in subgrid.ranks()},
        )
        Xz = rec_trsm(Lz, Bz, n0=n0, _depth=1)
        for r in subgrid.ranks():
            X.blocks[r] = Xz.blocks[r]
    return X


# ---------------------------------------------------------------------------
# case 2: base case — one stacked local solve, charged per grid column
# ---------------------------------------------------------------------------


def _base_case(L: DistMatrix, B: DistMatrix) -> DistMatrix:
    """Charged per grid column in the paper's order: an all-to-all handing
    ``x'`` the ``w_x'`` columns it solves (``gcols[x'::pr]``), ``n^2 w_x'/2``
    flops per rank, an all-to-all back.  Executed: ``B``'s columns stacked
    once, one solve (the column sets are disjoint), a private copy per rank."""
    machine = L.machine
    grid = L.grid
    pr, pc = grid.shape
    n = L.shape[0]

    # Allgather L onto every rank.
    group = grid.ranks()
    contribs = {r: L.blocks[r] for r in group}
    allgather_blocks(machine, group, contribs, label="rectrsm.base_gatherL")
    L_full = L.to_global()
    # every rank holds the full base-case triangle
    machine.memory.observe_group(group, float(L_full.size))

    keys = _block_keys(grid, B.layout, B.shape)
    B_full = np.empty(B.shape)
    for r, key in keys.items():
        B_full[key] = B.blocks[r]
    X_full = trsm_lower_sequential(L_full, B_full, check=False)

    rank = grid.rank_array.tolist()
    for y in range(pc):
        col_group = [rank[x][y] for x in range(pr)]
        ky = B.blocks[col_group[0]].shape[1]  # columns of this grid column
        w = [len(range(xp, ky, pr)) for xp in range(pr)]  # columns x' solves
        fwd = max(B.blocks[r].size for r in col_group)
        machine.charge(col_group, collective_models.alltoall(pr, fwd), label="rectrsm.base_fwd")
        flops = {r: Cost(0.0, 0.0, float(n) * n * wx / 2.0) for r, wx in zip(col_group, w)}
        machine.charge_local(flops, label="rectrsm.base_solve")
        machine.charge(
            col_group, collective_models.alltoall(pr, n * w[0]), label="rectrsm.base_bwd"
        )

    blocks = {r: X_full[key].copy() for r, key in keys.items()}
    return DistMatrix(machine, grid, B.layout, B.shape, blocks)


def _block_keys(grid: ProcessorGrid, layout: Layout, shape: tuple[int, int]) -> dict[int, tuple]:
    """Each rank's block of a global ``shape`` as an index: a basic strided
    slice on an axis with a stride, else the axis's cached index array
    (crossed by ``np.ix_`` when neither axis has a stride)."""
    axes = []
    for a, size in zip(layout, shape):
        index = a.maps(size)[0]
        if a.stride:
            index = [slice(i[0], i[-1] + 1, a.stride) if len(i) else slice(0) for i in index]
        axes.append(index)
    cross = not (layout.rows.stride or layout.cols.stride)
    keys = (np.ix_(r, c) if cross else (r, c) for r in axes[0] for c in axes[1])
    return dict(zip(grid.ranks(), keys))


# ---------------------------------------------------------------------------
# case 3: recursion on L (square grid)
# ---------------------------------------------------------------------------


def _recurse(L: DistMatrix, B: DistMatrix, n0: int, depth: int) -> DistMatrix:
    machine = L.machine
    n = L.shape[0]
    k = B.shape[1]
    p = L.grid.size
    h = n // 2

    L11 = extract_submatrix(L, 0, h, 0, h, label="rectrsm.extract")
    B1 = extract_submatrix(B, 0, h, 0, k, label="rectrsm.extract")
    X1 = rec_trsm(L11, B1, n0=n0, _depth=depth + 1)

    L21 = extract_submatrix(L, h, n, 0, h, label="rectrsm.extract")
    B2 = extract_submatrix(B, h, n, 0, k, label="rectrsm.extract")
    p1, _ = choose_mm_split(h, k, p, params=machine.params, m=n - h)
    update = mm3d(L21, X1, p1)  # L21 @ X1, distributed like X1/B2
    for r in B2.grid.ranks():
        B2.blocks[r] = B2.blocks[r] - update.blocks[r]

    L22 = extract_submatrix(L, h, n, h, n, label="rectrsm.extract")
    X2 = rec_trsm(L22, B2, n0=n0, _depth=depth + 1)

    X = DistMatrix.zeros(machine, L.grid, B.layout, B.shape)
    embed_submatrix(X, X1, 0, 0, label="rectrsm.embed")
    embed_submatrix(X, X2, h, 0, label="rectrsm.embed")
    return X


# ---------------------------------------------------------------------------
# top-level convenience
# ---------------------------------------------------------------------------


def choose_recursive_grid(n: int, k: int, p: int) -> tuple[int, int]:
    """Section IV grid choice: ``pc = max(sqrt(p), min(p, sqrt(p k / n)))``
    and ``pr = p / pc``, snapped to powers of two with ``pr | pc``."""
    require(p >= 1, GridError, "p must be >= 1")
    sp = math.sqrt(p)
    pc_target = max(sp, min(float(p), math.sqrt(p * k / n)))
    pc = prev_power_of_two(max(int(pc_target), 1))
    # snap: pc must divide p and be >= sqrt(p) — the floor rounds *up*, so
    # an odd power of two (p = 8) gets 2 x 4, never the pr > pc that
    # rec_trsm rejects
    while p % pc != 0 and pc > 1:
        pc //= 2
    pc = max(pc, next_power_of_two(math.ceil(sp)))
    while p % pc != 0:
        pc *= 2
    pr = p // pc
    return pr, pc


def rec_trsm_global(
    machine: Machine,
    L_global: np.ndarray,
    B_global: np.ndarray,
    grid: ProcessorGrid | None = None,
    n0: int | None = None,
) -> DistMatrix:
    """Distribute, choose a grid per Section IV if none given, and solve."""
    n = L_global.shape[0]
    k = B_global.shape[1] if B_global.ndim == 2 else 1
    if grid is None:
        pr, pc = choose_recursive_grid(n, k, machine.n_ranks)
        grid = machine.grid(pr, pc)
    layout = CyclicLayout(*grid.shape)
    L = DistMatrix.from_global(machine, grid, layout, L_global)
    B = DistMatrix.from_global(
        machine, grid, layout, B_global.reshape(n, -1)
    )
    return rec_trsm(L, B, n0=n0)
