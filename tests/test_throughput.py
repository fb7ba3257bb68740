"""Serve-scale fast-path parity: vectorized routing, plan cache, pricing memo.

PR 6's throughput work is only admissible because nothing observable
changed.  This suite pins that:

* **vectorized routing parity** — the vectorized ``pairs``/``cost``/
  ``charge_pointwise`` and the message-list ``apply`` are bit-identical to
  the pinned pre-refactor loops in ``tests/routing_reference.py``, the
  off-rank messages carry exactly the words ``pairs`` charges,
  property-tested across grids, layout families, shapes and transposed
  destinations — and checked over every plan a served stream leaves in
  the plan LRU;
* **plan cache** — :func:`repro.dist.routing.routing_plan` returns the
  *same object* for equal (src, dst, shape) fingerprints, builds fresh
  plans at capacity 0, evicts LRU-first, and cache-on/off schedules are
  identical;
* **overflow guard** — a plan whose per-pair word count cannot be held in
  an int32 is rejected at construction instead of silently wrapping;
* **pricing memo parity** — scheduling with the memo on and off yields
  flatten-identical schedules under lpt and the horizon search
  on the pinned golden streams (FakeRequest: per-object memo rows), on
  real TRSM streams (the shared ``pricing_key`` path) and on a request
  class with exactly the protocol's members, and equal keys share rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.cluster import Cluster
from repro.api.opcache import OperandCache
from repro.api.requests import TrsmRequest
from repro.api.serve import poisson_stream, schedule_stream
from repro.dist import (
    BlockCyclicLayout,
    BlockedLayout,
    CyclicLayout,
    DistMatrix,
    End,
    RoutingPlan,
)
from repro.dist import routing
from repro.dist.layout import Layout
from repro.machine import Cost, CostParams, Machine
from repro.machine.validate import ShapeError
from repro.sched import HorizonPolicy, Scheduler
from repro.sched.pricing import PricingMemo
from repro.util.randmat import random_dense, random_lower_triangular
from routing_reference import (
    reference_apply,
    reference_cost,
    reference_pairs,
    reference_pointwise_costs,
)
from test_policies import FakeRequest, flatten, golden_stream, make_pool

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")

GRIDS = [(2, 2), (1, 3), (3, 1), (2, 4), (4, 4), (3, 3)]


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


class TestVectorizedRoutingParity:
    """The group-by fast path is the old nonzero loop, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(t=transitions())
    def test_pairs_cost_and_pointwise_match_reference(self, t):
        (pr, pc), (m, n), la, lb = t
        machine = Machine(pr * pc, params=UNIT)
        grid = machine.grid(pr, pc)
        plan = RoutingPlan(End(grid, la, (m, n)), End(grid, lb, (m, n)), (m, n))
        assert plan.pairs() == reference_pairs(plan)
        assert plan.cost() == reference_cost(plan)
        assert plan._pointwise_costs() == reference_pointwise_costs(plan)
        # what goes on the wire is what the model charges
        messages = plan.messages()
        assert [
            (m.src, m.dst, len(m.src_rows) * len(m.src_cols))
            for m in messages
            if m.src != m.dst
        ] == plan.pairs()
        for m in messages:
            assert len(m.src_rows) == len(m.dst_rows)
            assert len(m.src_cols) == len(m.dst_cols)

    @settings(max_examples=50, deadline=None)
    @given(t=transitions())
    def test_apply_routes_identical_blocks(self, t):
        (pr, pc), (m, n), la, lb = t
        machine = Machine(pr * pc, params=UNIT)
        grid = machine.grid(pr, pc)
        A = np.arange(float(m * n)).reshape(m, n)
        D = DistMatrix.from_global(machine, grid, la, A)
        plan = RoutingPlan(End(grid, la, (m, n)), End(grid, lb, (m, n)), (m, n))
        vec = plan.apply(D.blocks)
        ref = reference_apply(plan, D.blocks)
        assert set(vec) == set(ref)
        for rank in vec:
            assert vec[rank].shape == ref[rank].shape
            assert vec[rank].tobytes() == ref[rank].tobytes()

    def test_transposed_destination_apply_matches_reference(self):
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        A = np.arange(20.0).reshape(4, 5)
        D = DistMatrix.from_global(machine, grid, CyclicLayout(2, 2), A)
        plan = RoutingPlan(
            End.of(D), End(grid, BlockedLayout(2, 2), (5, 4), transpose=True), (4, 5)
        )
        vec = plan.apply(D.blocks)
        ref = reference_apply(plan, D.blocks)
        for rank in vec:
            assert vec[rank].tobytes() == ref[rank].tobytes()

    def test_window_offset_apply_matches_reference(self):
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        A = np.arange(64.0).reshape(8, 8)
        D = DistMatrix.from_global(machine, grid, BlockedLayout(2, 2), A)
        plan = RoutingPlan(End.window_of(D, 3, 2), End.window_of(D, 0, 0), (4, 5))
        vec = plan.apply(D.blocks)
        ref = reference_apply(plan, D.blocks)
        for rank in vec:
            assert vec[rank].tobytes() == ref[rank].tobytes()

    def test_served_stream_plans_match_reference(self):
        """Parity over the plans the serve path really builds: every plan
        a scheduled stream leaves in the LRU answers exactly as the pinned
        loops do."""
        routing.clear_plan_cache()
        stream = poisson_stream(
            count=20, rate=2e5, n_range=(32, 64), k_range=(4, 8), seed=3
        )
        schedule_stream(stream, p=16)
        plans = list(routing._PLAN_CACHE.values())
        assert len(plans) > 20, "the stream must exercise the plan cache"
        assert any(not plan.is_free() for plan in plans)
        for plan in plans:
            assert plan.pairs() == reference_pairs(plan)
            assert plan.cost() == reference_cost(plan)
            assert plan._pointwise_costs() == reference_pointwise_costs(plan)


class TestPlanCache:
    def test_equal_ends_reuse_the_same_plan_object(self):
        routing.clear_plan_cache()
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        src = End(grid, CyclicLayout(2, 2), (8, 8))
        dst = End(grid, BlockedLayout(2, 2), (8, 8))
        p1 = routing.routing_plan(src, dst, (8, 8))
        # fresh, *equal* End objects: the fingerprint key must still hit
        p2 = routing.routing_plan(
            End(grid, CyclicLayout(2, 2), (8, 8)),
            End(grid, BlockedLayout(2, 2), (8, 8)),
            (8, 8),
        )
        assert p1 is p2
        stats = routing.plan_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["entries"] == 1

    def test_disabled_cache_builds_fresh_plans(self, monkeypatch):
        routing.clear_plan_cache()
        monkeypatch.setattr(routing, "_PLAN_CACHE_MAX", 0)
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        src = End(grid, CyclicLayout(2, 2), (8, 8))
        dst = End(grid, BlockedLayout(2, 2), (8, 8))
        p1 = routing.routing_plan(src, dst, (8, 8))
        p2 = routing.routing_plan(src, dst, (8, 8))
        assert p1 is not p2
        assert p1.cost() == p2.cost()
        assert routing.plan_cache_stats()["entries"] == 0

    def test_lru_evicts_the_oldest_entry(self, monkeypatch):
        routing.clear_plan_cache()
        monkeypatch.setattr(routing, "_PLAN_CACHE_MAX", 2)
        machine = Machine(4, params=UNIT)
        grid = machine.grid(2, 2)
        mk = lambda m: routing.routing_plan(  # noqa: E731 - local factory
            End(grid, CyclicLayout(2, 2), (m, m)),
            End(grid, BlockedLayout(2, 2), (m, m)),
            (m, m),
        )
        a, b = mk(6), mk(8)
        assert mk(6) is a  # touch a: b is now least-recently-used
        c = mk(10)  # evicts b
        assert routing.plan_cache_stats()["entries"] == 2
        assert mk(10) is c and mk(6) is a
        assert mk(8) is not b
        routing.clear_plan_cache()

    def test_clear_resets_stats(self):
        routing.clear_plan_cache()
        stats = routing.plan_cache_stats()
        capacity = stats.pop("capacity")
        assert capacity >= 0  # clearing resets counters, not the capacity
        assert stats == {"hits": 0, "misses": 0, "entries": 0}

    def test_cache_on_off_schedules_identical(self, monkeypatch):
        stream = poisson_stream(
            count=20, rate=2e5, n_range=(32, 64), k_range=(4, 8), seed=3
        )
        routing.clear_plan_cache()
        on = schedule_stream(stream, p=16)
        routing.clear_plan_cache()
        monkeypatch.setattr(routing, "_PLAN_CACHE_MAX", 0)
        off = schedule_stream(stream, p=16)
        assert flatten(on) == flatten(off)


class TestOverflowGuard:
    def test_pair_word_count_above_int32_rejected(self):
        """65536x65536 between two single-rank grids would put 2^32 words in
        one pair — must be rejected, not silently wrapped."""
        machine = Machine(2, params=UNIT)
        g1 = machine.grid(1, 1)
        g2 = machine.grid(1, 1)
        m = 2**16
        with pytest.raises(ShapeError):
            RoutingPlan(
                End(g1, BlockedLayout(1, 1), (m, m)),
                End(g2, BlockedLayout(1, 1), (m, m)),
                (m, m),
            )

    def test_just_below_the_limit_still_constructs(self):
        machine = Machine(2, params=UNIT)
        g1 = machine.grid(1, 1)
        g2 = machine.grid(1, 1)
        m = 2**15
        plan = RoutingPlan(
            End(g1, BlockedLayout(1, 1), (m, m)),
            End(g2, BlockedLayout(1, 1), (m, m)),
            (m, m),
        )
        assert plan.cost().W == float(m) * m


class ProtocolOnlyRequest:
    """Exactly the ``SchedulableRequest`` members and nothing else (no
    ``pricing_key``, no base class): one resident operand whose migration
    gets cheaper per rank on bigger subgrids."""

    priority = 0
    deadline = None

    def __init__(self, operand: str, seconds_by_size: dict, arrival: float):
        self.operand = operand
        self.seconds = seconds_by_size
        self.arrival = arrival

    def candidate_sizes(self, capacity):
        return [s for s in self.seconds if s <= capacity]

    def modeled_cost(self, size, params):
        return Cost(0.0, 0.0, self.seconds[size])

    def staging_targets(self, grid, params):
        return (((self.operand, grid), grid, Cost(1.0, 8.0 / grid.size, 0.0)),)


def policy_named(name: str):
    """A fresh policy per pass (policies carry state); the search policy
    gets a small window and budget so the parity cases stay quick."""
    return HorizonPolicy(window=4, node_budget=2_000) if name == "horizon" else name


class TestPricingMemoParity:
    @pytest.mark.parametrize("policy", ["lpt", "horizon"])
    @pytest.mark.parametrize(
        "key", [(0, 7, 0.0), (1, 9, 3.0), (2, 12, 8.0)]
    )
    def test_fake_streams_memo_on_off_identical(self, policy, key):
        """FakeRequest has no pricing_key, so every memo row is per-object:
        the memo must still reproduce the un-memoized schedule."""
        seed, count, max_arrival = key
        on = Scheduler(
            make_pool(16), UNIT, policy=policy_named(policy), pricing_cache=True
        ).schedule(golden_stream(seed, count, max_arrival))
        off = Scheduler(
            make_pool(16), UNIT, policy=policy_named(policy), pricing_cache=False
        ).schedule(golden_stream(seed, count, max_arrival))
        assert flatten(on) == flatten(off)

    @pytest.mark.parametrize("policy", ["lpt", "horizon"])
    def test_trsm_stream_memo_on_off_identical(self, policy):
        """Real TRSM streams (shared pricing keys, resident operands): the
        memoized staging targets must price exactly like fresh ones."""
        stream = poisson_stream(
            count=25, rate=2e5, n_range=(32, 64), k_range=(4, 8), seed=5
        )
        on = schedule_stream(stream, p=16, policy=policy_named(policy), pricing_cache=True)
        off = schedule_stream(stream, p=16, policy=policy_named(policy), pricing_cache=False)
        assert flatten(on) == flatten(off)

    @pytest.mark.parametrize("cached", [False, True], ids=["no-view", "cache-view"])
    @pytest.mark.parametrize("policy", ["lpt", "horizon"])
    def test_protocol_only_requests_price_identically(self, policy, cached):
        """Conformance: the protocol is all a request needs.  A class with
        exactly its members schedules — and stages, hit for hit — the same
        under the memo and under DirectPricing, with and without an
        operand-cache view."""

        def stream():
            return [
                ProtocolOnlyRequest("LMN"[i % 3], {4: 2.0 + i % 2, 16: 1.0}, 0.25 * i)
                for i in range(12)
            ]

        assert not hasattr(stream()[0], "pricing_key")

        def staged(pricing_cache):
            schedule = Scheduler(
                make_pool(16),
                UNIT,
                cache=OperandCache() if cached else None,
                policy=policy_named(policy),
                pricing_cache=pricing_cache,
            ).schedule(stream())
            return schedule, [
                (a.staging, a.staging_saved, a.cache_hits, a.cache_misses)
                for a in schedule.assignments
            ]

        (on, on_staging), (off, off_staging) = staged(True), staged(False)
        assert flatten(on) == flatten(off)
        assert on_staging == off_staging
        assert all(a.staging.S + a.staging_saved.S == 1.0 for a in on.assignments)
        assert (sum(a.cache_hits for a in on.assignments) > 0) == cached

    def test_equal_pricing_keys_share_memo_rows(self):
        cluster = Cluster(16)
        L = cluster.host(random_lower_triangular(32, seed=0))
        B = cluster.host(random_dense(32, 8, seed=1))
        r1 = TrsmRequest(L=L, B=B, verify=False)
        r2 = TrsmRequest(L=L, B=B, verify=False)
        assert r1.pricing_key() is not None
        assert r1.pricing_key() == r2.pricing_key()
        memo = PricingMemo(cluster.params, capacity=16)
        assert memo.sizes(r1) == memo.sizes(r2)
        assert len(memo._sizes) == 1  # one shared row, not one per object

    def test_fake_requests_fall_back_to_per_object_rows(self):
        memo = PricingMemo(UNIT, capacity=16)
        r1 = FakeRequest({4: 1.0})
        r2 = FakeRequest({4: 1.0})
        assert memo.sizes(r1) == memo.sizes(r2) == [4]
        assert len(memo._sizes) == 2  # no pricing_key: rows stay private

    def test_incremental_rest_area_tracks_commits(self):
        memo = PricingMemo(UNIT, capacity=16)
        reqs = [FakeRequest({4: float(i + 1)}) for i in range(4)]
        items = list(enumerate(reqs))
        memo.seed(items)
        for i, req in items:
            expect = sum(
                memo.min_area(r) for j, r in items if j != i and j in memo._area_by_index
            )
            if i in memo._area_by_index:
                assert memo.rest_area(i) == pytest.approx(expect)
            memo.remove(i)
