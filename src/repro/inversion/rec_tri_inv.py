"""RecTriInv: parallel recursive triangular inversion (Section V).

The recursion

    inv(L) = [[ inv(L11),                0       ],
              [-inv(L22) L21 inv(L11), inv(L22)  ]]

runs the two half-sized inversions **concurrently on disjoint halves of the
processor grid** (this independence is what makes the synchronization cost
logarithmic rather than polynomial in ``p``), then combines them with two
3D matrix multiplications on the full grid.

Schedule per level, matching the paper's recurrence
``T(n, p) = T_redistr + 2*T_MM(n/2, n/2, p) + T(n/2, p/2)``:

1. route ``L11`` to grid half ``Pi1`` and ``L22`` to ``Pi2``.  Each move
   is a **fused transition** (extract + redistribute composed into one
   map, the paper's three-step cyclic/blocked/cyclic transition as one)
   charged at the exact per-pair routing cost;
2. recurse on both halves *concurrently* (the simulator's per-group clocks
   overlap them automatically);
3. route both inverses back to the full grid (exact routing again);
4. ``T = -MM(inv(L22), L21)`` and ``inv(L21) = MM(T, inv(L11))`` on the
   full grid, with a-priori optimal MM splits;
5. assemble the three pieces into the output through charged embeds —
   when ``h`` is not a multiple of the grid side the offset blocks
   genuinely change ranks, and the routing plan charges exactly those
   words (the old scratch-copy assembly moved them silently for free).

The base case (grid exhausted or ``n <= base_n``) allgathers the remaining
block and inverts it **redundantly** on every rank of the subgrid, exactly
as the paper's 1D base case does.

The paper's idealized split shrinks each grid dimension by ``2^{1/3}``;
integer grids cannot do that, so each child recurses on a **square quarter**
of the grid (the full-grid multiplications of every level need a square
grid).  The two children occupy disjoint quadrants and run concurrently, so
the critical-path recurrence is ``T(n, p) = T_redistr + 2*T_MM(n/2, n/2, p)
+ T(n/2, p/4)`` — same ``O(log^2 p)`` synchronization and convergent
geometric bandwidth series as the paper's halving recurrence (the per-level
bandwidth ratio becomes ``2^{-2/3}`` instead of ``2^{-4/9}``).
"""

from __future__ import annotations

from repro.dist.distmatrix import DistMatrix
from repro.dist.layout import CyclicLayout
from repro.dist.redistribute import (
    embed_submatrix,
    extract_submatrix,
    redistribute,
    route_submatrix,
)
from repro.dist.triangular import (
    require_lower_triangular,
    require_nonsingular_triangular,
    require_square,
)
from repro.inversion.sequential import invert_lower_triangular
from repro.machine.collectives import allgather_blocks
from repro.machine.cost import Cost
from repro.machine.machine import Machine
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import GridError, require
from repro.mm.dispatch import choose_mm_split
from repro.mm.mm3d import mm3d
from repro.util.checking import flops_tri_inv_seq


def rec_tri_inv(
    L: DistMatrix,
    base_n: int = 8,
    _depth: int = 0,
) -> DistMatrix:
    """Invert a lower-triangular distributed matrix.

    ``L`` must be cyclically distributed on a 2D grid.  Returns ``inv(L)``
    distributed exactly like ``L``.  ``base_n`` is the matrix size below
    which the remaining subgrid inverts redundantly.
    """
    machine = L.machine
    n = require_square(L, "L")
    if _depth == 0:
        require_lower_triangular(L, "L")
        require_nonsingular_triangular(L, "L")

    grid = L.grid
    require(
        grid.ndim == 2 and grid.shape[0] == grid.shape[1],
        GridError,
        f"rec_tri_inv requires a square 2D grid, got {grid.shape}",
    )
    p = grid.size
    sp = grid.shape[0]
    if sp < 2 or n <= max(base_n, 1) or n < 2:
        return _base_case(L)

    h = n // 2

    # -- split the grid: two disjoint square quadrants for the children -------
    top, bottom = grid.halves(0)
    grid1 = top.halves(1)[0]  # top-left quadrant
    grid2 = bottom.halves(1)[1]  # bottom-right quadrant

    # -- fused extract + redistribute: one exact charge per child chain -------
    lay1 = CyclicLayout(*grid1.shape)
    lay2 = CyclicLayout(*grid2.shape)
    L11h = route_submatrix(L, 0, h, 0, h, grid1, lay1, label="rectriinv.route_down")
    L22h = route_submatrix(L, h, n, h, n, grid2, lay2, label="rectriinv.route_down")
    L21 = extract_submatrix(L, h, n, 0, h, label="rectriinv.extract21")

    # -- concurrent recursive inversions (disjoint rank groups) ---------------
    inv11h = rec_tri_inv(L11h, base_n=base_n, _depth=_depth + 1)
    inv22h = rec_tri_inv(L22h, base_n=base_n, _depth=_depth + 1)

    # -- back to the full grid, then two full-grid multiplications ------------
    layf = CyclicLayout(*grid.shape)
    inv11 = redistribute(inv11h, grid, layf, label="rectriinv.route_back")
    inv22 = redistribute(inv22h, grid, layf, label="rectriinv.route_back")

    p1, _p2 = choose_mm_split(h, h, p, params=machine.params)
    T = mm3d(inv22, L21, p1, scale=-1.0)  # -inv(L22) @ L21
    inv21 = mm3d(T, inv11, p1)  # (-inv(L22) L21) @ inv(L11)

    # -- assemble through charged embeds: the (h, h)/(h, 0) offsets move ------
    # words between ranks whenever h % sp != 0, and the plan charges them
    out = DistMatrix.zeros(machine, grid, L.layout, (n, n))
    embed_submatrix(out, inv11, 0, 0, label="rectriinv.embed")
    embed_submatrix(out, inv22, h, h, label="rectriinv.embed")
    embed_submatrix(out, inv21, h, 0, label="rectriinv.embed")
    return out


def _base_case(L: DistMatrix) -> DistMatrix:
    """Allgather the block and invert redundantly on every subgrid rank."""
    machine = L.machine
    grid = L.grid
    n = L.shape[0]
    group = grid.ranks()
    contribs = {r: L.blocks[r] for r in group}
    allgather_blocks(machine, group, contribs, label="rectriinv.base_gather")
    full = L.to_global()  # every rank now holds the assembled block
    inv = invert_lower_triangular(full, check=False)
    machine.charge(
        group,
        Cost(S=0.0, W=0.0, F=flops_tri_inv_seq(n)),
        label="rectriinv.base_invert",
        sync=False,
    )
    return DistMatrix.from_global(machine, grid, L.layout, inv)


def rec_tri_inv_global(
    machine: Machine,
    grid: ProcessorGrid,
    L_global: np.ndarray,
    base_n: int = 8,
) -> DistMatrix:
    """Convenience wrapper: distribute ``L_global`` cyclically, then invert."""
    layout = CyclicLayout(*grid.shape)
    L = DistMatrix.from_global(machine, grid, layout, L_global)
    return rec_tri_inv(L, base_n=base_n)
