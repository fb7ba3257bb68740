"""Golden reference: Rec-TRSM's rank-by-rank base case, pinned verbatim.

When the base case became one stacked local solve (``B``'s full columns
assembled once from the blocks, one ``trsm_lower_sequential`` call, and the
per-grid-column all-to-alls charged from the block shapes), the original
``_base_case`` of :mod:`repro.trsm.recursive` moved here unchanged: it
builds the all-to-alls from per-rank lists of views and makes one
sequential solve per rank.  ``tests/test_rec_trsm_parity.py`` runs
``rec_trsm`` with each base case on the same hypothesis inputs and asserts
byte-identical ledgers and values within rounding.

An oracle *beside* the fast path, like ``tests/layout_reference.py``:
nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.dist.distmatrix import DistMatrix
from repro.machine.collectives import allgather_blocks, alltoall
from repro.machine.cost import Cost
from repro.inversion.sequential import trsm_lower_sequential


def reference_base_case(L: DistMatrix, B: DistMatrix) -> DistMatrix:
    machine = L.machine
    grid = L.grid
    pr, pc = grid.shape
    n = L.shape[0]
    k = B.shape[1]

    # Allgather L onto every rank.
    group = grid.ranks()
    contribs = {r: L.blocks[r] for r in group}
    allgather_blocks(machine, group, contribs, label="rectrsm.base_gatherL")
    L_full = L.to_global()
    # every rank holds the full base-case triangle
    machine.memory.observe_group(group, float(L_full.size))

    X = DistMatrix.zeros(machine, grid, B.layout, B.shape)
    rank = grid.rank_array.tolist()
    row_idx = [B.layout.row_indices(x, n) for x in range(pr)]
    for y in range(pc):
        col_group = [rank[x][y] for x in range(pr)]
        gcols = B.layout.col_indices(y, k)  # global columns of this grid column
        # All-to-all: rank (x, y) sends the sub-columns destined for each x'.
        blocks = {r: [B.blocks[r][:, xp::pr] for xp in range(pr)] for r in col_group}
        received = alltoall(machine, col_group, blocks, label="rectrsm.base_fwd")
        solved: dict[int, np.ndarray] = {}
        for xp, dest in enumerate(col_group):
            sub_gcols = gcols[xp::pr]
            cols_full = np.zeros((n, len(sub_gcols)))
            for rows, part in zip(row_idx, received[dest]):
                cols_full[rows, :] = part
            xsol = trsm_lower_sequential(L_full, cols_full, check=False)
            machine.charge(
                [dest],
                Cost(S=0.0, W=0.0, F=float(n) * n * len(sub_gcols) / 2.0),
                label="rectrsm.base_solve",
                sync=False,
            )
            solved[dest] = xsol
        # All-to-all back to the cyclic layout.
        back = {r: [solved[r][rows, :] for rows in row_idx] for r in col_group}
        returned = alltoall(machine, col_group, back, label="rectrsm.base_bwd")
        for dest in col_group:
            mine = np.zeros_like(B.blocks[dest])
            for xp in range(pr):
                mine[:, xp::pr] = returned[dest][xp]
            X.blocks[dest] = mine
    return X
