"""E8 — exact redistribution routing vs the all-to-all bound.

PR 2 replaced the uniform all-to-all *bound* on every grid/layout
transition with the exact per-(sender, receiver) plan derived from the two
index maps, and fused the recursion call sites' extract -> redistribute
chains into single composed charges.  This bench regenerates the
comparison table and asserts the claims that the test suite property-tests
in the small:

* exact ``W`` never exceeds the bound (on unions of >= 3 ranks) and is
  zero exactly when the index maps coincide;
* the paper's three-step cyclic -> blocked -> cyclic transition costs two
  bound-charges stepwise but composes to the identity when fused;
* ``S`` drops from ``Theta(log p)`` rounds to the actual partner count —
  constant for the aligned transitions RecTriInv performs.

Run via ``make bench-smoke`` (tiny sweep, CI-gated) or directly with
pytest for the full table.
"""

from __future__ import annotations

import os

import numpy as np

from repro.analysis import format_table
from repro.dist import (
    BlockCyclicLayout,
    BlockedLayout,
    CyclicLayout,
    End,
    RoutingPlan,
)
from repro.dist.routing import routing_plan
from repro.machine.topology import ProcessorGrid

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))


def _layouts(pr: int, pc: int):
    return {
        "cyclic": CyclicLayout(pr, pc),
        "blocked": BlockedLayout(pr, pc),
        "bc(2,2)": BlockCyclicLayout(pr, pc, br=2, bc=2),
        "bc(3,1)": BlockCyclicLayout(pr, pc, br=3, bc=1),
    }


def _pair_rows(side: int, sizes: list[int]):
    grid = ProcessorGrid.build((side, side))
    rows = []
    for m in sizes:
        shape = (m, m)
        lays = _layouts(side, side)
        for src_name, src in lays.items():
            for dst_name, dst in lays.items():
                plan = RoutingPlan(
                    End(grid, src, shape), End(grid, dst, shape), shape
                )
                exact = plan.cost()
                bound = plan.alltoall_bound()
                rows.append(
                    [
                        m,
                        f"{side}x{side}",
                        src_name,
                        dst_name,
                        exact.S,
                        exact.W,
                        bound.S,
                        bound.W,
                    ]
                )
    return rows


def test_exact_vs_bound_sweep(benchmark, emit):
    sides = [2] if SMOKE else [2, 4]
    sizes = [16] if SMOKE else [16, 48, 96]

    def sweep():
        rows = []
        for side in sides:
            rows.extend(_pair_rows(side, sizes))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "E8_redistribute_exact_vs_bound",
        format_table(
            ["m", "grid", "src", "dst", "S exact", "W exact", "S bound", "W bound"],
            rows,
            title="Redistribution: exact per-pair routing vs all-to-all bound",
        ),
    )
    for m, grid, src, dst, s_ex, w_ex, s_bd, w_bd in rows:
        # the bound is an envelope of the exact plan ...
        assert w_ex <= w_bd + 1e-9, (m, grid, src, dst)
        # ... and identity transitions are zero by construction
        if src == dst:
            assert s_ex == 0 and w_ex == 0, (m, grid, src)


def test_fused_transition_chains(emit):
    side = 2 if SMOKE else 4
    sizes = [16] if SMOKE else [16, 64, 128]
    grid = ProcessorGrid.build((side, side))
    cyc, blk = CyclicLayout(side, side), BlockedLayout(side, side)
    rows = []
    for m in sizes:
        shape = (m, m)
        ends = [End(grid, cyc, shape), End(grid, blk, shape), End(grid, cyc, shape)]
        # fused, the chain is the plan from its first end to its last
        fused = routing_plan(ends[0], ends[-1], shape).cost()
        step = routing_plan(ends[0], ends[1], shape).cost() + routing_plan(
            ends[1], ends[2], shape
        ).cost()
        rows.append([m, f"{side}x{side}", fused.S, fused.W, step.S, step.W])
    emit(
        "E8_fused_transition_chains",
        format_table(
            ["m", "grid", "S fused", "W fused", "S stepwise", "W stepwise"],
            rows,
            title="cyclic -> blocked -> cyclic: fused vs stepwise charges",
        ),
    )
    for m, _, s_f, w_f, s_s, w_s in rows:
        assert s_f == 0 and w_f == 0  # the three-step chain is the identity
        assert s_s > 0 and w_s > 0  # which the stepwise schedule pays anyway


def test_partner_counts_stay_constant(emit):
    """RecTriInv's cyclic(sp) -> cyclic(sp/2) halving: every destination
    rank has exactly 3 off-rank partners regardless of p, where the bound
    modeled Theta(log p) rounds."""
    rows = []
    sides = [2, 4] if SMOKE else [2, 4, 8]
    for side in sides:
        grid = ProcessorGrid.build((side, side))
        # the top-left quadrant, exactly as rec_tri_inv hands it to a child
        quadrant = grid.halves(0)[0].halves(1)[0]
        m = 8 * side
        shape = (m, m)
        plan = RoutingPlan(
            End(grid, CyclicLayout(side, side), shape),
            End(quadrant, CyclicLayout(side // 2, side // 2), shape),
            shape,
        )
        cost = plan.cost()
        bound = plan.alltoall_bound()
        rows.append([side * side, m, cost.S, bound.S, cost.W, bound.W])
    emit(
        "E8_halving_partner_counts",
        format_table(
            ["p", "m", "S exact", "S bound", "W exact", "W bound"],
            rows,
            title="Grid-halving redistribution: constant partners vs log p rounds",
        ),
    )
    ss = [r[2] for r in rows]
    assert all(s == ss[0] for s in ss)  # constant in p
    assert rows[-1][3] > rows[0][3]  # while the bound grows with p


def test_routing_is_numerically_faithful():
    """The plan that prices the transition is the plan that moves it."""
    from repro.dist import DistMatrix, redistribute
    from repro.machine import Machine

    machine = Machine(16)
    grid = machine.grid(4, 4)
    A = np.arange(32.0 * 24).reshape(32, 24)
    D = DistMatrix.from_global(machine, grid, CyclicLayout(4, 4), A)
    for layout in _layouts(4, 4).values():
        D = redistribute(D, grid, layout)
        assert np.array_equal(D.to_global(), A)
