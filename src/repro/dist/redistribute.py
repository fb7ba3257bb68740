"""Charged data movement between grids, layouts and submatrices.

Where :meth:`DistMatrix.from_global` is free (initial placement), every
function here models a *transition* of live distributed data.  Since PR 2
every transition is charged at its **exact routing cost**: the per-(sender,
receiver) message plan derived in :mod:`repro.dist.routing` from the two
sides' index maps.  Identity and aligned transitions therefore cost zero by
construction — there is no special-case branch — and blocks are routed
directly between ranks instead of being assembled through a
``to_global()`` scratch copy.

* :func:`redistribute` — move a matrix to another grid and/or layout;
* :func:`change_layout` — same-grid layout change (a redistribution);
* :func:`transpose_matrix` — distributed transpose.  On a square grid
  this is the paper's pairwise block exchange (``S = 1``); a rectangular
  grid takes the exact general route;
* :func:`extract_submatrix` / :func:`embed_submatrix` — the recursion
  primitives.  Aligned windows are free (every word stays on its rank);
  misaligned windows charge exactly the words that cross ranks;
* :func:`route_submatrix` / :func:`route_embed` — **fused** chains.  The
  recursion call sites used to pay extract + redistribute (and
  redistribute-back + embed) as separate charges; every intermediate end
  of such a chain is a bijection of the frame, so the chain *is* the plan
  from its first end to its last — one map, one charge, the paper's
  three-step cyclic/blocked/cyclic transition as one.

Every transition goes through :func:`_route`, the one place a plan is
charged and handed to the backend: no words move without a charge by
construction.  Every function takes a ``label`` so traces and phase
benches can attribute the movement (e.g. ``rectriinv.route_down``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.dist.distmatrix import DistMatrix
from repro.dist.layout import Layout
from repro.dist.routing import End, RoutingPlan, routing_plan
from repro.machine.collectives import sendrecv
from repro.machine.validate import GridError, ShapeError, require

if TYPE_CHECKING:
    from repro.machine.machine import Machine
    from repro.machine.topology import ProcessorGrid


def _route(
    machine: "Machine",
    plan: RoutingPlan,
    blocks: dict[int, np.ndarray],
    label: str,
    out: dict[int, np.ndarray] | None = None,
    pointwise: bool = False,
) -> dict[int, np.ndarray]:
    """The dist -> backend door: charge ``plan``, then execute it.

    The group charge synchronizes the union of both grids (a transition
    inside one algorithm); ``pointwise`` charges each rank its own traffic
    with no barrier (operand staging beside running solves).  A free plan
    charges nothing either way.
    """
    if pointwise:
        plan.charge_pointwise(machine, label=label)
    else:
        plan.charge(machine, label)
    return machine.backend.execute_plan(plan, blocks, out=out, label=label)


def redistribute(
    D: DistMatrix, grid: "ProcessorGrid", layout: Layout, label: str = "redistribute"
) -> DistMatrix:
    """Move ``D`` onto ``grid`` with ``layout`` at the exact routing cost.

    The charge comes from the per-pair plan: ``S`` is the largest number of
    point-to-point partners any rank has, ``W`` the largest per-rank word
    count sent or received.  A transition between identical index maps
    moves nothing, charges nothing, and returns ``D`` itself.
    """
    plan = routing_plan(End.of(D), End(grid, layout, D.shape), D.shape)
    if grid == D.grid and layout == D.layout:
        return D  # same ranks, same index maps: nothing to rebuild
    blocks = _route(D.machine, plan, D.blocks, label)
    return DistMatrix(D.machine, grid, layout, D.shape, blocks)


def change_layout(D: DistMatrix, layout: Layout, label: str = "change_layout") -> DistMatrix:
    """Re-lay ``D`` on its own grid (e.g. cyclic -> blocked)."""
    return redistribute(D, D.grid, layout, label=label)


def transpose_matrix(D: DistMatrix, label: str = "transpose") -> DistMatrix:
    """Distributed transpose: returns ``D.T`` on the same grid.

    On a square grid the block at ``(x, y)`` and the block at ``(y, x)``
    swap in one pairwise message per off-diagonal pair (``S = 1`` on the
    critical path — the paper's square-grid transpose in MM line 4);
    diagonal blocks transpose in place for free.  The pair's payloads can
    differ for a rectangular matrix (``m != n`` makes the two blocks
    different shapes), so each exchange is charged at the larger direction.
    The transposed layout is the axis swap, so the blocks pair by
    construction; a rectangular grid has no pairing at all and takes the
    exact general route instead.
    """
    machine = D.machine
    grid = D.grid
    pr, pc = grid.shape
    m, n = D.shape

    if pr == pc:
        # Pairwise exchange: rank (x, y)'s new block is the transpose of the
        # source block at (y, x); sendrecv charges the larger payload of
        # each off-diagonal pair, diagonal blocks transpose locally (free).
        blocks: dict[int, np.ndarray] = {}
        for x in range(pr):
            blocks[grid.rank((x, x))] = D.local((x, x)).T.copy()
            for y in range(x + 1, pc):
                sendrecv(
                    machine,
                    grid.rank((x, y)),
                    grid.rank((y, x)),
                    D.local((x, y)),
                    D.local((y, x)),
                    label=label,
                )
                blocks[grid.rank((x, y))] = D.local((y, x)).T.copy()
                blocks[grid.rank((y, x))] = D.local((x, y)).T.copy()
        return DistMatrix(machine, grid, D.layout.transposed(), (n, m), blocks)

    # No pairing: route the transposed view exactly (the transposed layout
    # is for a pc x pr grid, so the result keeps the source layout).
    plan = routing_plan(
        End(grid, D.layout, (m, n), transpose=True),
        End(grid, D.layout, (n, m)),
        (n, m),
    )
    blocks = _route(machine, plan, D.blocks, label)
    return DistMatrix(machine, grid, D.layout, (n, m), blocks)


# ---------------------------------------------------------------------------
# submatrix extraction / embedding (the recursion primitives)
# ---------------------------------------------------------------------------


def _check_window(D: DistMatrix, r0: int, r1: int, c0: int, c1: int) -> None:
    m, n = D.shape
    require(
        0 <= r0 <= r1 <= m and 0 <= c0 <= c1 <= n,
        ShapeError,
        f"window [{r0}:{r1}, {c0}:{c1}] out of range for shape {D.shape}",
    )


def extract_submatrix(
    D: DistMatrix, r0: int, r1: int, c0: int, c1: int, label: str = "extract"
) -> DistMatrix:
    """The submatrix ``D[r0:r1, c0:c1]`` in ``D``'s layout on ``D``'s grid.

    Aligned windows (each rank's piece already local — for the cyclic
    layout: ``r0 % pr == 0`` and ``c0 % pc == 0``) route nothing and are
    free; misaligned windows charge exactly the words that change ranks.
    An empty window (``r0 == r1`` or ``c0 == c1``) is free and returns a
    valid zero-shape matrix.  The result is a standard (offset-free)
    distribution of the submatrix.
    """
    _check_window(D, r0, r1, c0, c1)
    shape = (r1 - r0, c1 - c0)
    plan = routing_plan(
        End.window_of(D, r0, c0), End(D.grid, D.layout, shape), shape
    )
    blocks = _route(D.machine, plan, D.blocks, label)
    return DistMatrix(D.machine, D.grid, D.layout, shape, blocks)


def embed_submatrix(
    target: DistMatrix, sub: DistMatrix, r0: int, c0: int, label: str = "embed"
) -> DistMatrix:
    """Write ``sub`` into ``target`` at offset ``(r0, c0)``, in place.

    ``sub`` must live on the same grid as ``target`` (use
    :func:`route_embed` for the cross-grid fused version).  Aligned offsets
    are free (each rank writes into its own block); misaligned offsets
    charge exactly the words that change ranks.  Returns ``target``.
    """
    require(
        sub.grid == target.grid,
        GridError,
        "embed_submatrix requires sub and target on the same grid",
    )
    return route_embed(sub, target, r0, c0, label=label)


def route_submatrix(
    D: DistMatrix,
    r0: int,
    r1: int,
    c0: int,
    c1: int,
    grid: "ProcessorGrid",
    layout: Layout,
    label: str = "route",
) -> DistMatrix:
    """Fused extract + redistribute: ``D[r0:r1, c0:c1]`` onto ``grid``.

    The recursion call sites used to charge the extraction and the
    redistribution separately; the fused transition composes the window
    map with the destination map and charges the single exact route —
    blocks travel source rank -> destination rank once.
    """
    _check_window(D, r0, r1, c0, c1)
    shape = (r1 - r0, c1 - c0)
    plan = routing_plan(End.window_of(D, r0, c0), End(grid, layout, shape), shape)
    blocks = _route(D.machine, plan, D.blocks, label)
    return DistMatrix(D.machine, grid, layout, shape, blocks)


def route_embed(
    sub: DistMatrix,
    target: DistMatrix,
    r0: int,
    c0: int,
    label: str = "route_embed",
) -> DistMatrix:
    """Fused redistribute + embed: write ``sub`` into ``target`` in place.

    ``sub`` may live on any grid; the fused transition routes its blocks
    straight into ``target``'s blocks at offset ``(r0, c0)`` with one
    charge (the old chain paid a redistribution onto ``target``'s grid and
    then an uncharged — or separately charged — placement).  Returns
    ``target`` for chaining.
    """
    sm, sn = sub.shape
    M, N = target.shape
    require(
        0 <= r0 and r0 + sm <= M and 0 <= c0 and c0 + sn <= N,
        ShapeError,
        f"submatrix of shape {sub.shape} at offset ({r0}, {c0}) "
        f"does not fit in target of shape {target.shape}",
    )
    plan = routing_plan(End.of(sub), End.window_of(target, r0, c0), (sm, sn))
    _route(target.machine, plan, sub.blocks, label, out=target.blocks)
    target.mutated()
    return target


# ---------------------------------------------------------------------------
# staging helpers (the Cluster/scheduler entry points)
# ---------------------------------------------------------------------------


def staging_plan(D: DistMatrix, grid: "ProcessorGrid", layout: Layout) -> RoutingPlan:
    """The exact migration plan for moving ``D`` onto ``grid``/``layout``.

    Pure pricing — nothing is charged or moved.  The ``repro.sched``
    scheduler calls this before committing a request to a subgrid, so the
    modeled makespan includes the true per-pair migration cost of staging
    cluster-resident operands (no all-to-all bound anywhere).
    """
    return routing_plan(End.of(D), End(grid, layout, D.shape), D.shape)


def stage_matrix(
    D: DistMatrix,
    grid: "ProcessorGrid",
    layout: Layout,
    label: str = "stage",
) -> DistMatrix:
    """Migrate ``D`` onto a (sub)grid at the exact routing charge.

    The Cluster's operand-staging primitive: the fused plan routes blocks
    rank-to-rank and the charge is *pointwise*
    (:meth:`RoutingPlan.charge_pointwise`) — each sender/receiver pays its
    own traffic with no group barrier, so staging one request does not
    serialize solves running concurrently on disjoint subgrids.
    (:func:`redistribute` is the synchronized transition.)
    """
    blocks = _route(D.machine, staging_plan(D, grid, layout), D.blocks, label, pointwise=True)
    return DistMatrix(D.machine, grid, layout, D.shape, blocks)
