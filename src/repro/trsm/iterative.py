"""It-Inv-TRSM (Section VI-B): the paper's main contribution.

Solves ``L X = B`` on a ``p1 x p1 x p2`` processor grid by first inverting
the ``n/n0`` diagonal blocks of ``L`` (Diagonal-Inverter, each block on its
own subgrid, all concurrent), then running ``n/n0`` iterations in which the
latency-bound small triangular solves of the classical algorithm are
replaced by **matrix multiplications with the pre-inverted blocks**:

* *solve* (lines 4-5): ``X(Si) = inv(L(Si,Si)) @ B(Si)`` — a local product
  with the owned pieces, summed with one allreduce over the ``x`` fibers;
* *update* (lines 6-9): broadcast the panel ``L(Ti+1, Si)`` along the ``z``
  fibers, accumulate ``L(Ti+1,Si) @ X(Si)`` into per-``y`` partial buffers,
  and reduce **only the next block row** ``S_{i+1}`` over the ``y`` fibers
  (deferring the rest is what keeps every word reduced exactly once).

Distribution conventions (the Require clause :func:`it_inv_trsm` checks;
which index belongs to which class is :mod:`repro.dist.layout`'s business
— the kernel only slices blocks a rank owns):

* ``L`` lives on the ``z = 0`` plane, ``L`` pieces at ``(x, y, 0)`` hold
  the rows of class ``x`` and the columns of class ``y`` (``= x``,
  ``= y (mod p1)`` in the paper's element-cyclic case);
* ``B`` enters on the ``y = 0`` plane at ``(x, 0, z)`` holding the rows of
  class ``x`` and the ``z``-th contiguous column slab (``k/p2``
  columns), and is replicated across ``y`` in a setup broadcast (the
  paper's line-2 broadcast, extended to all of ``B``; see PAPER.md,
  "Deviations from the printed paper");
* the inverted diagonal pieces are replicated along ``z`` and transposed
  across ``(x, y)`` once in setup, which carries the ``n0^2/p1^2 * 1_{p2}``
  per-iteration term of the paper's ``W_Solve`` as a one-off charge of the
  same total size.

``X`` returns on the ``y = 0`` plane distributed exactly like ``B``.
Phase attribution (``machine.phase``): "inversion", "solve", "update",
"setup" — the E6 bench compares each against the Section VII formulas.
"""

from __future__ import annotations

import numpy as np

from repro.dist.distmatrix import DistMatrix
from repro.dist.layout import BlockCyclicLayout, RowCyclicColBlockedLayout
from repro.dist.triangular import (
    require_lower_triangular,
    require_nonsingular_triangular,
    require_square,
)
from repro.machine import collective_models
from repro.machine.collectives import allreduce, bcast, sendrecv
from repro.machine.cost import Cost
from repro.machine.machine import Machine
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import GridError, ParameterError, ShapeError, require
from repro.trsm.diagonal_inverter import diagonal_inverter


def it_inv_trsm(
    machine: Machine,
    grid3d: ProcessorGrid,
    L: DistMatrix,
    B: DistMatrix,
    n0: int,
    base_n: int = 8,
    Ltilde: DistMatrix | None = None,
) -> DistMatrix:
    """Solve ``L X = B`` with selective diagonal-block inversion.

    The Require clause (Section VI-B) is checked, not assumed: ``grid3d``
    is ``p1 x p1 x p2``; ``L`` lives on its ``z = 0`` plane and ``B`` on
    its ``y = 0`` plane; ``L``'s row map, ``L``'s column map and ``B``'s
    row map are one and the same :class:`~repro.dist.layout.AxisMap` (the
    paper's case is ``b``-block-cyclic over ``p1``, but any partition of
    the rows into ``p1`` classes is valid as long as the three coincide).
    ``n0`` must divide ``n``.  Returns ``X`` distributed like ``B``.

    ``Ltilde`` may supply pre-inverted diagonal blocks from a previous
    solve against the same ``L`` (see :class:`~repro.trsm.prepared.
    PreparedTrsm`), skipping the inversion phase entirely — the paper's
    Section II-C3 amortization across repeated solves.  It must be
    distributed like ``L``.
    """
    require(grid3d.ndim == 3, GridError, f"need a 3D grid, got {grid3d.shape}")
    p1, p1b, p2 = grid3d.shape
    require(
        p1 == p1b,
        GridError,
        f"grid must be p1 x p1 x p2, got {grid3d.shape}",
    )
    n = require_square(L, "L")
    require(B.shape[0] == n, ShapeError, "B row count must match L")
    require(n % n0 == 0 and n0 >= 1, ParameterError, f"n0={n0} must divide n={n}")
    nb = n // n0
    require(L.grid == grid3d.plane(2, 0), GridError, "L must live on the z = 0 plane of the grid")
    require(B.grid == grid3d.plane(1, 0), GridError, "B must live on the y = 0 plane of the grid")
    require(
        L.layout.rows == L.layout.cols == B.layout.rows,
        ShapeError,
        f"L's row and column classes must both be B's row classes, "
        f"got L in {L.layout!r} and B in {B.layout!r}",
    )
    require(
        Ltilde is None or (Ltilde.grid, Ltilde.layout, Ltilde.shape) == (L.grid, L.layout, L.shape),
        ShapeError,
        "Ltilde must be distributed like L",
    )
    require_lower_triangular(L, "L")
    require_nonsingular_triangular(L, "L")

    # ---------------- phase: inversion (Diagonal-Inverter) -------------------
    if Ltilde is None:
        with machine.phase("inversion"):
            Ltilde = diagonal_inverter(L, n0, pool=grid3d.ranks(), base_n=base_n)

    rank = grid3d.rank_array.tolist()  # rank[x][y][z], plain ints

    # Every operand read below is a slice of a block the reading rank
    # holds: blk[c][i] is the interval of class c's local rows (equally,
    # local columns of L) inside block row S_i, tail[c][i] the local rows
    # of T_{i+1}, i.e. everything below S_i.
    blk = [
        [B.layout.local_rows_in(c, n, i * n0, (i + 1) * n0) for i in range(nb)]
        for c in range(p1)
    ]
    tail = [[slice(s.stop, None) for s in blk[c]] for c in range(p1)]

    # ---------------- phase: setup (replications) ----------------------------
    # B: broadcast each (x, z) block along its y fiber.  The running panel
    # B(rows = x, slab z) is identical along that fiber from here on (every
    # update subtracts one allreduced array from it), so it is held once
    # per (x, z) — the convention bcast/allreduce themselves follow.
    Bpanel: dict[tuple[int, int], np.ndarray] = {}
    with machine.phase("setup"):
        for x in range(p1):
            for z in range(p2):
                fiber = grid3d.fiber(1, (x, 0, z))
                root = rank[x][0][z]
                got = bcast(machine, fiber, root, B.blocks[root], label="itinv.setup_bcastB")
                Bpanel[(x, z)] = got[root].copy()

    # Diagonal-inverse pieces: replicate along z, then transpose (x, y).
    # After this, (x, y, z) holds piece_T[b] = Dinv_b[rows = y, cols = x],
    # the piece rank (y, x, 0) owns.  The paper charges this replication
    # inside the per-iteration solve MMs (the n0^2/p1^2 * 1_{p2} term of
    # W_Solve); we realize the same total volume once up front, attributed
    # to the "solve" phase accordingly.
    piecesT: dict[tuple[int, int], list[np.ndarray]] = {}
    for x in range(p1):
        for y in range(p1):
            owned = Ltilde.blocks[rank[y][x][0]]
            piecesT[(x, y)] = [owned[blk[y][b], blk[x][b]] for b in range(nb)]
    with machine.phase("solve"):
        for x in range(p1):
            for y in range(p1):
                if p2 > 1:
                    fiber = grid3d.fiber(2, (x, y, 0))
                    words = sum(pc.size for pc in piecesT[(x, y)])
                    machine.charge(
                        fiber,
                        collective_models.bcast(p2, float(words)),
                        label="itinv.solve_bcastD",
                    )
                if x != y:
                    for z in range(p2):
                        a = rank[x][y][z]
                        bb = rank[y][x][z]
                        if a < bb:
                            w = float(sum(pc.size for pc in piecesT[(x, y)]))
                            machine.charge(
                                [a, bb],
                                Cost(S=1.0, W=w, F=0.0),
                                label="itinv.solve_transposeD",
                            )

    # Working set per rank: the replicated B copy, the update accumulator,
    # the X pieces and the transposed diagonal-inverse pieces.  Acc holds
    # the per-rank accumulators for the deferred updates (the paper's B_y).
    Acc: dict[int, np.ndarray] = {}
    for x in range(p1):
        for y in range(p1):
            piece_words = float(sum(pc.size for pc in piecesT[(x, y)]))
            for z in range(p2):
                r = rank[x][y][z]
                machine.memory.observe(r, 3.0 * Bpanel[(x, z)].size + piece_words)
                Acc[r] = np.zeros_like(Bpanel[(x, z)])
    # X output panels: the y fiber's allreduce leaves X(rows = y, slab z)
    # on every (x, y, z), so it is held once per (y, z).
    Xpanel = {yz: np.zeros_like(panel) for yz, panel in Bpanel.items()}

    for i in range(nb):
        # ---------------- phase: solve (lines 4-5) ---------------------------
        with machine.phase("solve"):
            partials: dict[int, np.ndarray] = {}
            flops: dict[int, Cost] = {}
            for x in range(p1):
                for y in range(p1):
                    piece = piecesT[(x, y)][i]  # Dinv_i[rows=y, cols=x]
                    for z in range(p2):
                        r = rank[x][y][z]
                        bpart = Bpanel[(x, z)][blk[x][i]]
                        partials[r] = piece @ bpart
                        flops[r] = Cost(
                            0.0, 0.0, float(piece.shape[0]) * piece.shape[1] * bpart.shape[1]
                        )
            machine.charge_local(flops, label="itinv.solve_local")
            for y in range(p1):
                for z in range(p2):
                    fiber = grid3d.fiber(0, (0, y, z))
                    contribs = {r: partials[r] for r in fiber}
                    summed = allreduce(machine, fiber, contribs, label="itinv.solve_allreduce")
                    Xpanel[(y, z)][blk[y][i]] = summed[fiber[0]]

        if i + 1 >= nb:
            break

        # ---------------- phase: update (lines 6-9) ---------------------------
        with machine.phase("update"):
            upd_flops: dict[int, Cost] = {}
            for x in range(p1):
                for y in range(p1):
                    # L(T_{i+1} rows of x, S_i columns of y), read in place
                    panel = L.blocks[rank[x][y][0]][tail[x][i], blk[y][i]]
                    if p2 > 1:
                        fiber = grid3d.fiber(2, (x, y, 0))
                        machine.charge(
                            fiber,
                            collective_models.bcast(p2, float(panel.size)),
                            label="itinv.update_bcast_panel",
                        )
                    for z in range(p2):
                        r = rank[x][y][z]
                        xs = Xpanel[(y, z)][blk[y][i]]
                        Acc[r][tail[x][i]] += panel @ xs
                        upd_flops[r] = Cost(
                            0.0,
                            0.0,
                            float(panel.shape[0]) * panel.shape[1] * xs.shape[1],
                        )
            machine.charge_local(upd_flops, label="itinv.update_local")
            for x in range(p1):
                for z in range(p2):
                    fiber = grid3d.fiber(1, (x, 0, z))
                    contribs = {r: Acc[r][blk[x][i + 1]] for r in fiber}
                    summed = allreduce(machine, fiber, contribs, label="itinv.update_allreduce")
                    Bpanel[(x, z)][blk[x][i + 1]] -= summed[fiber[0]]

    # ---------------- final transpose back to the B layout --------------------
    with machine.phase("setup"):
        for z in range(p2):
            for x in range(p1):
                for y in range(x, p1):
                    a = rank[x][y][z]
                    bb = rank[y][x][z]
                    if a != bb:
                        sendrecv(
                            machine,
                            a,
                            bb,
                            Xpanel[(y, z)],
                            Xpanel[(x, z)],
                            label="itinv.final_transpose",
                        )

    # After the exchange, rank (x, 0, z) holds the panel produced at
    # (0, x, z), i.e. X(row class x, column slab z) — exactly B's layout
    # on B's grid, whatever row partition it prescribed.
    b_rank = B.grid.rank_array.tolist()
    blocks = {b_rank[x][z]: panel for (x, z), panel in Xpanel.items()}
    return DistMatrix(machine, B.grid, B.layout, B.shape, blocks)


def it_inv_trsm_global(
    machine: Machine,
    L_global: np.ndarray,
    B_global: np.ndarray,
    p1: int,
    p2: int,
    n0: int,
    base_n: int = 8,
    row_block: int = 1,
    grid3d: ProcessorGrid | None = None,
) -> DistMatrix:
    """Distribute ``L``/``B`` per the paper's conventions and solve.

    ``row_block`` is the paper's physical row block size ``b`` for ``B``;
    ``L`` is distributed with the matching block-cyclic partition so the
    two operands' row/column classes align.  ``grid3d`` supplies an
    externally owned ``p1 x p1 x p2`` grid (e.g. a Cluster subgrid lease)
    instead of allocating fresh ranks from the machine.
    """
    n = L_global.shape[0]
    B2 = np.asarray(B_global, dtype=np.float64).reshape(n, -1)
    if grid3d is None:
        grid3d = machine.grid(p1, p1, p2)
    require(
        grid3d.shape == (p1, p1, p2),
        GridError,
        f"grid3d has shape {grid3d.shape}, parameters say ({p1}, {p1}, {p2})",
    )
    L = DistMatrix.from_global(
        machine,
        grid3d.plane(2, 0),
        BlockCyclicLayout(p1, p1, br=row_block, bc=row_block),
        np.asarray(L_global, dtype=np.float64),
    )
    B = DistMatrix.from_global(
        machine, grid3d.plane(1, 0), RowCyclicColBlockedLayout(p1, p2, b=row_block), B2
    )
    return it_inv_trsm(machine, grid3d, L, B, n0=n0, base_n=base_n)
