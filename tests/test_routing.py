"""Exact redistribution routing: plans, fusion, and the charging bugfixes.

Covers the PR-2 contract:

* exact ``W`` never exceeds the old all-to-all bound (property-tested
  across layout families) and is zero iff the index maps coincide;
* identity transitions charge zero *via the routing plan* (no special
  case) and allocate nothing once the index-map cache is warm;
* fused transition chains (the paper's three-step cyclic/blocked/cyclic)
  collapse to a single charge, and ``rec_tri_inv``'s routed transitions
  (``backend.measurements()``) show exactly one fused charge per
  extract -> redistribute chain;
* the charging bugfixes: misaligned final assembly in ``rec_tri_inv`` is
  charged, empty-window extraction is free and valid, and the rectangular
  transpose on a square grid charges the larger direction of each pair.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import (
    BlockCyclicLayout,
    BlockedLayout,
    CyclicLayout,
    DistMatrix,
    End,
    RoutingPlan,
    extract_submatrix,
    gather_frame,
    redistribute,
    route_embed,
    route_submatrix,
    scatter_frame,
    transpose_matrix,
)
from repro.dist.layout import AxisMap, Layout, axis_cache_size, clear_layout_caches
from repro.dist.routing import routing_plan
from repro.inversion.rec_tri_inv import rec_tri_inv_global
from repro.machine import Cost, CostParams, Machine
from repro.machine.topology import ProcessorGrid
from repro.util.randmat import random_lower_triangular

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")

GRIDS = [(2, 2), (1, 3), (3, 1), (2, 4), (4, 4), (3, 3)]


def charged_routes(machine: Machine) -> list:
    """The backend's routed-transition records that moved data (a free
    plan logs zero messages and charges nothing)."""
    return [m for m in machine.backend.measurements() if m.messages > 0]


def make_layout(kind: str, pr: int, pc: int, br: int, bc: int) -> Layout:
    if kind == "cyclic":
        return CyclicLayout(pr, pc)
    if kind == "blocked":
        return BlockedLayout(pr, pc)
    return BlockCyclicLayout(pr, pc, br=br, bc=bc)


layout_kinds = st.sampled_from(["cyclic", "blocked", "blockcyclic"])


@st.composite
def transitions(draw):
    pr, pc = draw(st.sampled_from(GRIDS))
    m = draw(st.integers(1, 24))
    n = draw(st.integers(1, 24))
    mk = lambda: make_layout(  # noqa: E731 - local factory
        draw(layout_kinds), pr, pc, draw(st.integers(1, 4)), draw(st.integers(1, 4))
    )
    return (pr, pc), (m, n), mk(), mk()


class TestExactVsBound:
    @settings(max_examples=120, deadline=None)
    @given(t=transitions())
    def test_w_below_alltoall_bound_and_zero_iff_identity(self, t):
        """Exact routing never charges more bandwidth than the old
        all-to-all bound (for any union of >= 3 ranks, where the Bruck
        formula is a genuine envelope), and charges exactly zero iff the
        two index maps coincide."""
        (pr, pc), (m, n), la, lb = t
        grid = ProcessorGrid.build((pr, pc))
        plan = RoutingPlan(End(grid, la, (m, n)), End(grid, lb, (m, n)), (m, n))
        cost = plan.cost()
        same = np.array_equal(
            la.row_owner_map(m)[0], lb.row_owner_map(m)[0]
        ) and np.array_equal(la.col_owner_map(n)[0], lb.col_owner_map(n)[0])
        assert (cost.W == 0 and cost.S == 0) == same
        if pr * pc >= 3:
            assert cost.W <= plan.alltoall_bound().W + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(t=transitions())
    def test_routed_data_matches_global_view(self, t):
        """apply() routes blocks rank-to-rank; the result must assemble to
        the same global matrix."""
        (pr, pc), (m, n), la, lb = t
        machine = Machine(pr * pc, params=UNIT)
        grid = machine.grid(pr, pc)
        A = np.arange(float(m * n)).reshape(m, n)
        D = DistMatrix.from_global(machine, grid, la, A)
        D2 = redistribute(D, grid, lb)
        assert np.array_equal(D2.to_global(), A)

    def test_two_rank_swap_exceeds_brucks_formula(self):
        """On two ranks the old 'bound' (n/2 words) cannot even express a
        full pairwise swap — the documented reason the property above is
        scoped to unions of >= 3 ranks."""
        grid = ProcessorGrid.build((1, 2))
        la = BlockCyclicLayout(1, 2, br=1, bc=2)
        lb = BlockCyclicLayout(1, 2, br=1, bc=3)
        plan = RoutingPlan(End(grid, la, (8, 8)), End(grid, lb, (8, 8)), (8, 8))
        assert plan.cost().W > plan.alltoall_bound().W


class TestIdentityIsFree:
    def test_identity_charges_zero_without_special_case(self):
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        D = DistMatrix.from_global(machine, grid, CyclicLayout(2, 2), np.ones((6, 6)))
        # degenerate spelling of the same distribution: still zero pairs
        plan = RoutingPlan(
            End.of(D), End(grid, BlockCyclicLayout(2, 2, br=1, bc=1), D.shape), D.shape
        )
        assert plan.cost().S == 0 and plan.cost().W == 0
        assert plan.pairs() == []
        D2 = redistribute(D, grid, BlockCyclicLayout(2, 2, br=1, bc=1))
        assert machine.time() == 0.0
        # the two spellings are one layout by value, so downstream layout
        # requirements (e.g. mm3d's cyclic Require clause) hold either way
        assert D2.layout == BlockCyclicLayout(2, 2, br=1, bc=1) == CyclicLayout(2, 2)
        assert np.array_equal(D2.to_global(), D.to_global())
        # the same spelling short-circuits to the same object
        assert redistribute(D, grid, D.layout) is D

    def test_repeated_identity_transitions_do_not_grow_caches(self):
        """The regression guard for the memoized index maps: after the
        first transition the caches are warm and repeats allocate no new
        index arrays."""
        clear_layout_caches()
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        D = DistMatrix.from_global(machine, grid, CyclicLayout(2, 2), np.ones((8, 8)))
        redistribute(D, grid, CyclicLayout(2, 2))
        warm = axis_cache_size()
        assert warm > 0
        for _ in range(50):
            assert redistribute(D, grid, CyclicLayout(2, 2)) is D
        assert axis_cache_size() == warm
        assert machine.time() == 0.0

    def test_cached_index_arrays_are_shared_and_readonly(self):
        lay = CyclicLayout(2, 2)
        a = lay.row_indices(1, 9)
        b = CyclicLayout(2, 2).row_indices(1, 9)  # equal spelling, same cache
        assert a is b
        assert not a.flags.writeable


def _fused_and_stepwise(ends, shape):
    """A chain's one fused charge (first end -> last end: every middle end
    is a bijection of the frame) beside the sum over its separate steps."""
    fused = routing_plan(ends[0], ends[-1], shape).cost()
    step = Cost.zero()
    for a, b in zip(ends[:-1], ends[1:]):
        step = step + routing_plan(a, b, shape).cost()
    return fused, step


class TestFusedTransitions:
    def test_three_step_identity_chain_is_free_fused(self):
        """The paper's cyclic -> blocked -> cyclic transition: stepwise it
        pays twice, fused it composes to the identity and pays nothing."""
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        shape = (8, 8)
        fused, step = _fused_and_stepwise(
            [
                End(grid, CyclicLayout(2, 2), shape),
                End(grid, BlockedLayout(2, 2), shape),
                End(grid, CyclicLayout(2, 2), shape),
            ],
            shape,
        )
        assert fused.S == 0 and fused.W == 0
        assert step.S > 0 and step.W > 0

    def test_fused_cost_never_exceeds_stepwise(self):
        machine = Machine(8, params=UNIT)
        g1 = machine.grid(2, 2)
        g2 = machine.grid(2, 2)
        shape = (9, 7)
        fused, step = _fused_and_stepwise(
            [
                End(g1, CyclicLayout(2, 2), shape),
                End(g1, BlockedLayout(2, 2), shape),
                End(g2, CyclicLayout(2, 2), shape),
            ],
            shape,
        )
        assert fused.S <= step.S and fused.W <= step.W

    def test_route_submatrix_matches_unfused_data(self):
        machine = Machine(8, params=UNIT)
        g1 = machine.grid(2, 2)
        g2 = machine.grid(2, 2)
        A = np.arange(100.0).reshape(10, 10)
        D = DistMatrix.from_global(machine, g1, CyclicLayout(2, 2), A)
        sub = route_submatrix(D, 3, 9, 1, 8, g2, BlockedLayout(2, 2))
        assert sub.grid == g2 and sub.layout == BlockedLayout(2, 2)
        assert np.array_equal(sub.to_global(), A[3:9, 1:8])

    def test_route_embed_across_grids(self):
        machine = Machine(8, params=UNIT)
        g1 = machine.grid(2, 2)
        g2 = machine.grid(2, 2)
        target = DistMatrix.zeros(machine, g1, CyclicLayout(2, 2), (8, 8))
        sub = DistMatrix.from_global(
            machine, g2, BlockedLayout(2, 2), np.ones((3, 5))
        )
        route_embed(sub, target, 2, 1)
        G = target.to_global()
        assert np.all(G[2:5, 1:6] == 1)
        G[2:5, 1:6] = 0
        assert np.all(G == 0)

    def test_route_embed_of_a_matrix_into_itself(self):
        """Source and destination share storage: apply() must snapshot the
        source so early writes don't corrupt later reads."""
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        A = np.arange(64.0).reshape(8, 8)
        D = DistMatrix.from_global(machine, grid, CyclicLayout(2, 2), A)
        route_embed(D, D, 0, 0)  # identity placement: must be a no-op
        assert np.array_equal(D.to_global(), A)
        # a genuinely overlapping move: shift a window of D within D's own
        # storage; lazy reads would observe partially-written blocks
        E = DistMatrix.from_global(machine, grid, CyclicLayout(2, 2), A)
        plan = RoutingPlan(End.window_of(E, 0, 0), End.window_of(E, 3, 3), (4, 4))
        plan.apply(E.blocks, out=E.blocks)
        G = E.to_global()
        assert np.array_equal(G[3:7, 3:7], A[0:4, 0:4])

    def test_overlapping_layout_rejected(self, monkeypatch):
        from repro.machine.validate import ShapeError

        # every coordinate claims every index: not a partition
        monkeypatch.setattr(AxisMap, "_owned", lambda self, c, size: np.arange(size))
        clear_layout_caches()
        try:
            CyclicLayout(2, 2).row_indices(0, 4)
        except ShapeError:
            pass
        else:  # pragma: no cover - defends the partition invariant
            raise AssertionError("non-partition layout must be rejected")

    def test_rec_tri_inv_trace_has_one_fused_charge_per_chain(self):
        """Each recursion level routes L11 and L22 down in exactly one
        fused charge per child (the old code paid extract + redistribute
        separately)."""
        machine = Machine(16, params=UNIT)
        grid = machine.grid(4, 4)
        L = random_lower_triangular(16, seed=0)
        rec_tri_inv_global(machine, grid, L, base_n=4)
        charged = charged_routes(machine)
        down = [m for m in charged if m.label == "rectriinv.route_down"]
        back = [m for m in charged if m.label == "rectriinv.route_back"]
        # level 0 on the 4x4 grid: 2 children; level 1 on each 2x2
        # quadrant: 2 children each -> 2 + 4 fused charges in each direction
        assert len(down) == 6
        assert len(back) == 6
        stray = [
            m
            for m in charged
            if m.label.startswith("rectriinv.extract") and m.label != "rectriinv.extract21"
        ]
        assert stray == []


class TestChargingBugfixes:
    def test_misaligned_final_assembly_is_charged(self):
        """h % sp != 0 places inv21/inv22 at rank-moving offsets; the old
        scratch-copy assembly moved those words for free."""
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        L = random_lower_triangular(10, seed=1)  # h = 5, sp = 2: misaligned
        inv = rec_tri_inv_global(machine, grid, L, base_n=4)
        from repro.util.checking import backward_error

        assert backward_error(L, inv.to_global()) < 1e-12
        embeds = [m for m in charged_routes(machine) if m.label == "rectriinv.embed"]
        assert any(m.messages > 0 and m.words > 0 for m in embeds)

    def test_aligned_assembly_stays_free(self):
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        L = random_lower_triangular(16, seed=2)  # every level splits evenly
        rec_tri_inv_global(machine, grid, L, base_n=4)
        embeds = [m for m in charged_routes(machine) if m.label == "rectriinv.embed"]
        assert embeds == []

    def test_empty_window_extraction_is_free_and_valid(self):
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        A = np.arange(64.0).reshape(8, 8)
        D = DistMatrix.from_global(machine, grid, CyclicLayout(2, 2), A)
        for r0, r1, c0, c1 in [(3, 3, 0, 5), (0, 8, 6, 6), (2, 2, 2, 2)]:
            sub = extract_submatrix(D, r0, r1, c0, c1)
            assert machine.time() == 0.0
            assert sub.shape == (r1 - r0, c1 - c0)
            assert sub.to_global().shape == (r1 - r0, c1 - c0)
            assert set(sub.blocks) == set(grid.ranks())

    def test_rectangular_transpose_on_square_grid(self):
        """m != n pairs blocks of different shapes; the exchange must ship
        the larger payload and still land every element correctly."""
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        A = np.arange(20.0).reshape(4, 5)
        D = DistMatrix.from_global(machine, grid, CyclicLayout(2, 2), A)
        DT = transpose_matrix(D)
        assert np.array_equal(DT.to_global(), A.T)
        cp = machine.critical_path()
        assert cp.S == 1  # pairwise exchange
        # pair (0,1)<->(1,0): 2x2 = 4 words vs 2x3 = 6 words -> charge 6
        assert cp.W == 6


class TestGatherFrame:
    def test_matches_global_slicing(self):
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        A = np.arange(77.0).reshape(7, 11)
        D = DistMatrix.from_global(machine, grid, CyclicLayout(2, 2), A)
        rows = np.array([0, 2, 5, 6])
        cols = np.array([1, 3, 4, 9, 10])
        frame = gather_frame(End(grid, D.layout, D.shape, rows=rows, cols=cols), D.blocks)
        assert np.array_equal(frame, A[np.ix_(rows, cols)])
        assert machine.time() == 0.0  # plumbing, not a charge

    def test_window_offsets(self):
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        A = np.arange(64.0).reshape(8, 8)
        D = DistMatrix.from_global(machine, grid, BlockedLayout(2, 2), A)
        frame = gather_frame(End.window_of(D, 3, 2), D.blocks, shape=(4, 5))
        assert np.array_equal(frame, A[3:7, 2:7])

    @pytest.mark.parametrize("kind", ["window", "transposed", "selection"])
    def test_scatter_inverts_gather(self, kind):
        """scatter_frame(gather_frame(...)) writes back exactly the frame's
        elements, whatever the end's frame geometry."""
        machine = Machine(6, params=UNIT)
        grid = machine.grid(2, 3)
        layout = BlockCyclicLayout(2, 3, br=2, bc=1)
        A = np.arange(99.0).reshape(9, 11) + 1.0
        D = DistMatrix.from_global(machine, grid, layout, A)
        rows, cols = np.array([0, 2, 3, 8]), np.array([1, 4, 5, 6, 10])
        if kind == "window":
            end, shape, mask = End.window_of(D, 3, 2), (4, 5), np.s_[3:7, 2:7]
            expected = A[3:7, 2:7]
        elif kind == "transposed":
            end = End(grid, layout, A.shape, offset=(1, 2), transpose=True)
            shape, mask = (6, 7), np.s_[1:8, 2:8]
            expected = A[1:8, 2:8].T
        else:
            end = End(grid, layout, A.shape, rows=rows, cols=cols)
            shape, mask = None, np.ix_(rows, cols)
            expected = A[mask]
        frame = gather_frame(end, D.blocks, shape=shape)
        assert np.array_equal(frame, expected)
        out = {r: np.zeros_like(b) for r, b in D.blocks.items()}
        assert scatter_frame(end, frame, out) is out
        back = DistMatrix(machine, grid, layout, A.shape, out).to_global()
        want = np.zeros_like(A)
        want[mask] = A[mask]
        assert np.array_equal(back, want)
        assert machine.time() == 0.0


class TestPlanGeometry:
    def test_pair_words_sum_to_moved_volume(self):
        """Total planned words must equal the number of elements that truly
        change ranks."""
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        m, n = 9, 7
        la, lb = CyclicLayout(2, 2), BlockedLayout(2, 2)
        plan = RoutingPlan(End(grid, la, (m, n)), End(grid, lb, (m, n)), (m, n))
        ro_a, _ = la.row_owner_map(m)
        co_a, _ = la.col_owner_map(n)
        ro_b, _ = lb.row_owner_map(m)
        co_b, _ = lb.col_owner_map(n)
        moved = sum(
            1
            for i in range(m)
            for j in range(n)
            if grid.rank((ro_a[i], co_a[j])) != grid.rank((ro_b[i], co_b[j]))
        )
        assert sum(w for _, _, w in plan.pairs()) == moved

    def test_window_selectors_use_interval_views(self):
        lay = CyclicLayout(2, 2)
        pos = lay.local_rows_in(1, 16, 4, 12)
        rows = lay.row_indices(1, 16)
        # same answer the old O(m) scan gave, from two binary searches
        assert np.array_equal(rows[pos], [5, 7, 9, 11])
        assert np.array_equal(
            np.arange(len(rows))[pos], np.nonzero((rows >= 4) & (rows < 12))[0]
        )
        # ... as a slice, so indexing a block with it is a view, not a copy
        assert np.shares_memory(rows[pos], rows)

    def test_transposed_destination_end_applies_correctly(self):
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        A = np.arange(20.0).reshape(4, 5)
        D = DistMatrix.from_global(machine, grid, CyclicLayout(2, 2), A)
        # route A into the transposed view of a 5x4 blocked matrix: the
        # routed blocks must assemble to A.T
        dst_layout = BlockedLayout(2, 2)
        plan = RoutingPlan(
            End.of(D), End(grid, dst_layout, (5, 4), transpose=True), (4, 5)
        )
        blocks = plan.apply(D.blocks)
        DT = DistMatrix(machine, grid, dst_layout, (5, 4), blocks)
        assert np.array_equal(DT.to_global(), A.T)

    def test_selection_offset_exclusivity_enforced(self):
        from repro.machine.validate import ShapeError

        grid = ProcessorGrid.build((2, 2))
        lay = CyclicLayout(2, 2)
        try:
            End(grid, lay, (8, 8), offset=(2, 0), rows=np.arange(3))
        except ShapeError:
            pass
        else:  # pragma: no cover - defends the mutual-exclusion contract
            raise AssertionError("offset + explicit selection must be rejected")

    def test_s_matches_partner_count(self):
        """Disjoint-grid same-layout move: one partner per rank."""
        machine = Machine(8, params=UNIT)
        g1 = machine.grid(2, 2)
        g2 = machine.grid(2, 2)
        plan = RoutingPlan(
            End(g1, CyclicLayout(2, 2), (6, 6)), End(g2, CyclicLayout(2, 2), (6, 6)), (6, 6)
        )
        cost = plan.cost()
        assert cost.S == 1
        assert len(plan.pairs()) == 4
