"""The paper's MM algorithm (Section III): 3D matrix multiplication that
starts and ends on a 2D cyclic distribution.

``B = mm3d(A, X, p1)`` computes ``B = scale * A @ X`` for an ``m x n``
matrix ``A`` and an ``n x k`` matrix ``X``, both distributed cyclically on
the same ``sqrt(p) x sqrt(p)`` grid with ``sqrt(p) = p1 * sqrt(p2)``.
``p2 = (sqrt(p)/p1)^2`` is implied by ``p1``.  The result ``B`` is
distributed exactly like ``X`` (the algorithm's Ensure clause).

Communication schedule (line numbers match the paper's pseudo-code):

* **line 2** — allgather ``A'[x1,y1] = A[x1::p1, y1::p1]`` over each
  ``(x2, y2)`` fiber of ``p2`` processors (real ``allgather_blocks`` +
  strided-slice reassembly with stride ``sqrt(p2)``);
* **lines 3-4** — transposes that move ``X`` from the 2D cyclic layout to
  the ``(y1, z)`` slab layout.  Line 3 is a ``p1 x sqrt(p2)``-grid
  transpose (all-to-all bound, vanishes when ``p2 == 1``); line 4 a
  square-grid pairwise exchange;
* **line 5** — allgather ``X'''[y1,z] = X[y1::p1, cols_z]`` over each
  ``x1`` fiber of ``p1`` processors (charged; the gathered pieces
  re-interleave into exactly the slab line 4 left, used as is);
* **line 6** — local multiply ``A'[x1,y1] @ X'''[y1,z]``;
* **line 7** — scatter-reduce of the partial products over the ``y1``
  fibers (charged as a reduce-scatter; the split row runs together are
  the summed slab, which line 8 scatters as is);
* **line 8** — transpose ``B`` back to the 2D cyclic layout (all-to-all
  bound).

The ``z`` index enumerates ``p2`` contiguous column slabs of ``X``
(``z = x2 + sqrt(p2)*y2``).  Lines 3, 4 and 8 charge the paper's exact
costs while the slab pieces are routed directly between the owning blocks
(:func:`repro.dist.routing.gather_frame` on the way in,
:func:`~repro.dist.routing.scatter_frame` on the way out — no
``to_global()``/``from_global`` scratch assembly anywhere on the hot
path); line 2 uses the real collective.
"""

from __future__ import annotations

import numpy as np

from repro.dist.distmatrix import DistMatrix
from repro.dist.layout import CyclicLayout
from repro.dist.routing import End, gather_frame, scatter_frame, zero_blocks
from repro.machine import collective_models
from repro.machine.collectives import allgather_blocks
from repro.machine.cost import Cost
from repro.machine.validate import GridError, ParameterError, ShapeError, require
from repro.util.mathutil import split_indices


def _validate(A: DistMatrix, X: DistMatrix, p1: int) -> tuple[int, int, int]:
    """Check grids/layouts; return (sp, sq, p) with sp = p1*sq."""
    require(
        A.grid == X.grid,
        GridError,
        "mm3d requires A and X on the same processor grid",
    )
    sp_r, sp_c = A.grid.shape
    require(sp_r == sp_c, GridError, f"mm3d requires a square grid, got {A.grid.shape}")
    sp = sp_r
    require(
        p1 >= 1 and sp % p1 == 0,
        ParameterError,
        f"p1={p1} must divide the grid side {sp}",
    )
    require(
        A.shape[1] == X.shape[0],
        ShapeError,
        f"inner dimensions disagree: A is {A.shape}, X is {X.shape}",
    )
    for M, name in ((A, "A"), (X, "X")):
        require(
            M.layout == CyclicLayout(sp, sp),
            ShapeError,
            f"mm3d requires {name} in a cyclic layout, got {M.layout!r}",
        )
    sq = sp // p1
    return sp, sq, sp * sp


def mm3d(A: DistMatrix, X: DistMatrix, p1: int, scale: float = 1.0) -> DistMatrix:
    """``B = scale * A @ X`` with the Section III communication schedule.

    ``scale`` is folded into the local multiply (BLAS ``alpha``), so the
    negated products of the triangular inversion are free.
    """
    machine = A.machine
    grid = A.grid
    sp, sq, p = _validate(A, X, p1)
    p2 = sq * sq
    m, n = A.shape
    _, k = X.shape

    # Section III line 1: Pi4D(x1, x2, y1, y2) = Pi2D(x1 + p1*x2, y1 + p1*y2)
    ranks4d = grid.split_axis(0, p1).split_axis(2, p1).rank_array

    def r4(x1: int, x2: int, y1: int, y2: int) -> int:
        return int(ranks4d[x1, x2, y1, y2])

    # ---- line 2: allgather A'[x1,y1] over the (x2,y2) fibers ----------------
    A_rows = [np.arange(x1, m, p1) for x1 in range(p1)]
    A_cols = [np.arange(y1, n, p1) for y1 in range(p1)]
    Ap: dict[tuple[int, int], np.ndarray] = {}
    for x1 in range(p1):
        for y1 in range(p1):
            group = [r4(x1, x2, y1, y2) for x2 in range(sq) for y2 in range(sq)]
            contribs = {r: A.blocks[r] for r in group}
            got = allgather_blocks(machine, group, contribs, label="mm3d.line2")
            blocks = got[group[0]]
            Aq = np.zeros((len(A_rows[x1]), len(A_cols[y1])))
            for x2 in range(sq):
                for y2 in range(sq):
                    # global row g = (x1 + p1*x2) + sp*t sits at A' row
                    # (g - x1)/p1 = x2 + sq*t; likewise for columns.
                    Aq[x2::sq, y2::sq] = blocks[r4(x1, x2, y1, y2)]
            Ap[(x1, y1)] = Aq
            # p2-fold replication of A: the working-set cost of going 3D
            machine.memory.observe_group(group, float(Aq.size))

    # ---- lines 3-4: move X toward the (y1, z) slab layout -------------------
    all_ranks = grid.ranks()
    xw = float(n) * float(k)
    if p2 > 1 and p > 1:
        # rectangular-grid transpose: all-to-all bound, nk/p words per rank
        machine.charge(
            all_ranks, collective_models.alltoall(p, xw / p), label="mm3d.line3"
        )
    if p > 1:
        machine.charge(
            all_ranks, Cost(S=1.0, W=xw / p, F=0.0), label="mm3d.line4"
        )

    # ---- line 5: allgather X'''[y1,z] over the x1 fibers ---------------------
    col_slabs = split_indices(k, p2)
    X_rows = [np.arange(y1, n, p1) for y1 in range(p1)]
    X3: dict[tuple[int, int], np.ndarray] = {}
    for y1 in range(p1):
        for z in range(p2):
            x2, y2 = z % sq, z // sq
            lo, hi = col_slabs[z]
            # Route the slab pieces straight out of the owning blocks; the
            # movement itself is charged by lines 3/4 above.
            # replint: disable=no-global-gather -- frame is assembled from already-routed blocks; the movement was charged by the line-3/4 transposes
            slab = gather_frame(
                End(X.grid, X.layout, X.shape, rows=X_rows[y1], cols=np.arange(lo, hi)),
                X.blocks,
            )
            group = [r4(x1, x2, y1, y2) for x1 in range(p1)]
            # After the line-3/4 transposes, the x1-th member holds the
            # column-interleaved piece slab[:, x1::p1]; gathering the p1
            # pieces re-interleaves exactly ``slab``.
            machine.charge(group, collective_models.allgather(p1, slab.size), label="mm3d.line5")
            X3[(y1, z)] = slab
            machine.memory.observe_group(group, float(slab.size))

    # ---- line 6: local multiply ------------------------------------------------
    Bpart: dict[int, np.ndarray] = {}
    flops: dict[int, Cost] = {}
    for x1 in range(p1):
        for x2 in range(sq):
            for y1 in range(p1):
                for y2 in range(sq):
                    z = x2 + sq * y2
                    r = r4(x1, x2, y1, y2)
                    left = Ap[(x1, y1)]
                    right = X3[(y1, z)]
                    Bpart[r] = scale * (left @ right)
                    flops[r] = Cost(
                        0.0, 0.0, float(left.shape[0]) * left.shape[1] * right.shape[1]
                    )
    machine.charge_local(flops, label="mm3d.line6")

    # ---- line 7: scatter-reduce over the y1 fibers ------------------------------
    # and line 8: transpose B back to the 2D cyclic layout.  Each reduced
    # (x1, z) slab is scattered straight into the destination cyclic blocks
    # (scatter_frame, the routing counterpart of the line-5 gather) — no
    # global ``Bg`` scratch and no ``to_global``/``from_global`` assembly
    # anywhere on the MM hot path.
    out_blocks = zero_blocks(grid, X.layout, (m, k))
    for x1 in range(p1):
        for x2 in range(sq):
            for y2 in range(sq):
                z = x2 + sq * y2
                group = [r4(x1, x2, y1, y2) for y1 in range(p1)]
                # The y1-th member keeps the next contiguous run of the
                # summed A' rows, so together the runs are the summed slab.
                frame = Bpart[group[0]]
                for r in group[1:]:
                    frame = frame + Bpart[r]
                rs = collective_models.reduce_scatter(p1, frame.size)
                machine.charge(group, rs, label="mm3d.line7")
                lo, hi = col_slabs[z]
                if frame.size:
                    scatter_frame(
                        End(grid, X.layout, (m, k), rows=A_rows[x1], cols=np.arange(lo, hi)),
                        frame,
                        out_blocks,
                    )
    if p > 1:
        mk = float(m) * float(k)
        machine.charge(
            all_ranks, collective_models.alltoall(p, mk / p), label="mm3d.line8"
        )

    return DistMatrix(machine, grid, X.layout, (m, k), out_blocks)
