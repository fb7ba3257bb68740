"""Subgrid allocator invariants and scheduler packing properties."""

import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cost import Cost, CostParams
from repro.machine.machine import Machine
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import ParameterError
from repro.sched import Scheduler, SubgridAllocator

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")


def make_pool(p: int) -> SubgridAllocator:
    b = p.bit_length() - 1
    return SubgridAllocator(ProcessorGrid.build((2 ** ((b + 1) // 2), 2 ** (b // 2))))


class TestAllocatorBasics:
    def test_full_allocation_is_the_root(self):
        pool = make_pool(16)
        g = pool.allocate(16)
        assert g == pool.root_grid
        pool.release(g)
        assert pool.drained()

    def test_preview_matches_allocate(self):
        pool = make_pool(64)
        pool.allocate(16)
        for size in (16, 8, 2):
            preview = pool.preview(size)
            got = pool.allocate(size)
            assert preview == got

    def test_exhaustion_returns_none(self):
        pool = make_pool(4)
        assert pool.allocate(4) is not None
        assert pool.allocate(1) is None
        assert pool.preview(1) is None

    def test_release_unknown_grid_rejected(self):
        pool = make_pool(4)
        with pytest.raises(ParameterError):
            pool.release(ProcessorGrid.build((2, 2)))

    def test_invalid_sizes_rejected(self):
        pool = make_pool(8)
        with pytest.raises(ParameterError):
            pool.allocate(3)
        with pytest.raises(ParameterError):
            pool.allocate(16)
        # preview and can_allocate share allocate's size check
        for size in (0, 3, 6, 2 * pool.capacity):
            with pytest.raises(ParameterError):
                pool.preview(size)
            with pytest.raises(ParameterError):
                pool.can_allocate(size)

    def test_machine_grid_pool(self):
        pool = Machine(16).grid_pool()
        assert pool.capacity == 16
        assert pool.root_grid.shape == (4, 4)
        assert sorted(pool.root_grid.ranks()) == list(range(16))


@st.composite
def alloc_scripts(draw):
    """A pool capacity plus a sequence of allocation sizes to attempt."""
    exp = draw(st.integers(min_value=0, max_value=6))
    capacity = 2**exp
    sizes = draw(
        st.lists(
            st.integers(min_value=0, max_value=exp).map(lambda e: 2**e),
            min_size=1,
            max_size=12,
        )
    )
    return capacity, sizes


# Recorded from the buddy tree the heap-index pool replaced: every grid
# returned, every preview and every destroy event of pool_trace(0..59).
POOL_TRACE_DIGEST = "51da27dbe79fe7cedfc8707a370417398faff3620f078d73220874cdf22f0edf"
POOL_TRACE_SIZES = (1, 2, 4, 16, 64)


def pool_trace(seed: int) -> list:
    """One seeded allocate / release / lease_exact-into-clone script."""
    rng = random.Random(seed)
    p = POOL_TRACE_SIZES[seed % len(POOL_TRACE_SIZES)]
    sizes = [2**e for e in range(p.bit_length())]
    out: list = []

    def block(g):
        return None if g is None else [list(g.shape), g.ranks()]

    def hook(tag):
        return lambda g: out.append([tag, block(g)])

    def previews(tag, pool):
        out.append([tag, [block(pool.preview(s)) for s in sizes]])

    pool = make_pool(p)
    pool.on_destroy = hook("destroy")
    live: list = []
    for _ in range(rng.randrange(6, 20)):
        op = rng.random()
        if op < 0.5 or not live:
            g = pool.allocate(rng.choice(sizes))
            out.append(["allocate", block(g)])
            if g is not None:
                live.append(g)
        elif op < 0.75:
            g = live.pop(rng.randrange(len(live)))
            pool.release(g)
            out.append(["release", block(g)])
        else:
            # what-if on a clone: release a lease, allocate into the hole,
            # put everything back with lease_exact
            clone = pool.clone()
            clone.on_destroy = hook("clone-destroy")
            g = rng.choice(live)
            clone.release(g)
            previews("clone-released", clone)
            h = clone.allocate(rng.choice(sizes))
            out.append(["clone-allocate", block(h)])
            if h is not None:
                clone.release(h)
                clone.lease_exact(h)
                previews("clone-leased", clone)
                clone.release(h)
            clone.lease_exact(g)
            try:
                clone.lease_exact(rng.choice(live))
                out.append(["clone-double-lease", "accepted"])
            except ParameterError:
                out.append(["clone-double-lease", "refused"])
            previews("clone", clone)
            drained = pool.drained_clone()
            drained.on_destroy = hook("drained-destroy")
            for g in live:
                drained.lease_exact(g)
            previews("drained", drained)
        previews("pool", pool)
    for g in live:
        pool.release(g)
    out.append(["drained", pool.drained()])
    return out


def pool_trace_digest(seeds=range(60)) -> str:
    text = json.dumps([pool_trace(s) for s in seeds], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def all_previews(pool: SubgridAllocator) -> list:
    sizes = [2**e for e in range(pool.capacity.bit_length())]
    return [pool.preview(s) for s in sizes]


def leased_pool(script) -> tuple[SubgridAllocator, list]:
    """Allocate a script's sizes, releasing every third grant again."""
    capacity, sizes = script
    pool = make_pool(capacity)
    live = []
    for i, size in enumerate(sizes):
        g = pool.allocate(size)
        if g is not None:
            live.append(g)
        if i % 3 == 2 and live:
            pool.release(live.pop(0))
    return pool, live


class TestAllocatorInvariants:
    def test_pinned_trace(self):
        assert pool_trace_digest() == POOL_TRACE_DIGEST

    @given(alloc_scripts())
    @settings(max_examples=100, deadline=None)
    def test_clone_is_detached(self, script):
        pool, live = leased_pool(script)
        events = []
        pool.on_destroy = events.append
        before = all_previews(pool)
        clone = pool.clone()
        assert all_previews(clone) == before
        for g in live:
            clone.release(g)
        assert clone.drained()
        for size in script[1]:
            clone.allocate(size)
        assert events == []
        assert all_previews(pool) == before
        assert pool.in_use() == sum(g.size for g in live)

    @given(alloc_scripts())
    @settings(max_examples=100, deadline=None)
    def test_lease_exact_rebuilds_the_pool(self, script):
        pool, live = leased_pool(script)
        rebuilt = pool.drained_clone()
        for g in live:
            assert rebuilt.lease_exact(g) == g
        assert all_previews(rebuilt) == all_previews(pool)
        assert rebuilt.in_use() == pool.in_use()

    @given(alloc_scripts())
    @settings(max_examples=200, deadline=None)
    def test_disjoint_bounded_and_coalescing(self, script):
        capacity, sizes = script
        pool = make_pool(capacity)
        granted = []
        for size in sizes:
            g = pool.allocate(size)
            if g is None:
                # refusal is only legal when the free ranks genuinely
                # cannot serve the size (fragmentation or exhaustion)
                assert not pool.can_allocate(size)
                continue
            assert g.size == size
            granted.append(g)

        # 1. allocated subgrids are pairwise disjoint
        seen: set[int] = set()
        for g in granted:
            ranks = set(g.ranks())
            assert not ranks & seen
            seen |= ranks
        # 2. they cover at most the pool's ranks
        assert seen <= set(pool.root_grid.ranks())
        assert pool.in_use() == len(seen) <= capacity
        # 3. every grid is an axis-aligned block of the root
        for g in granted:
            assert set(g.ranks()) <= set(pool.root_grid.ranks())

        # 4. after a full drain the pool coalesces back to the root
        for g in granted:
            pool.release(g)
        assert pool.drained()
        assert pool.in_use() == 0
        regrant = pool.allocate(capacity)
        assert regrant == pool.root_grid

    @given(alloc_scripts())
    @settings(max_examples=100, deadline=None)
    def test_interleaved_release_keeps_invariants(self, script):
        capacity, sizes = script
        pool = make_pool(capacity)
        live = []
        for i, size in enumerate(sizes):
            g = pool.allocate(size)
            if g is not None:
                live.append(g)
            if i % 2 == 1 and live:
                pool.release(live.pop(0))
            held = [set(g.ranks()) for g in live]
            for a in range(len(held)):
                for b in range(a + 1, len(held)):
                    assert not held[a] & held[b]
        for g in live:
            pool.release(g)
        assert pool.drained()


class _FakeRequest:
    """Minimal SchedulableRequest: fixed per-size seconds, no staging."""

    priority = 0
    deadline = None

    def __init__(self, seconds_by_size: dict[int, float], arrival: float = 0.0):
        self.seconds = seconds_by_size
        self.arrival = arrival

    def candidate_sizes(self, capacity):
        return [s for s in self.seconds if s <= capacity]

    def modeled_cost(self, size, params):
        # unit params: encode seconds in F with gamma = 1
        return Cost(0.0, 0.0, self.seconds[size])

    def staging_targets(self, grid, params):
        return ()


class TestScheduler:
    def test_concurrent_requests_pack(self):
        pool = make_pool(16)
        reqs = [_FakeRequest({4: 1.0, 16: 0.9}) for _ in range(4)]
        schedule = Scheduler(pool, UNIT).schedule(reqs)
        # four quarter-grid placements at t=0 beat 4 x 0.9 serial
        assert schedule.makespan == pytest.approx(1.0)
        assert all(a.start == 0.0 for a in schedule.assignments)
        assert schedule.occupancy() == pytest.approx(1.0)
        assert pool.drained()

    def test_queueing_when_pool_is_full(self):
        pool = make_pool(4)
        reqs = [_FakeRequest({4: 1.0}) for _ in range(3)]
        schedule = Scheduler(pool, UNIT).schedule(reqs)
        starts = sorted(a.start for a in schedule.assignments)
        assert starts == pytest.approx([0.0, 1.0, 2.0])
        assert schedule.makespan == pytest.approx(3.0)

    def test_arrivals_delay_start(self):
        pool = make_pool(4)
        reqs = [
            _FakeRequest({4: 1.0}),
            _FakeRequest({4: 1.0}, arrival=5.0),
        ]
        schedule = Scheduler(pool, UNIT).schedule(reqs)
        by_index = {a.index: a for a in schedule.assignments}
        assert by_index[0].start == pytest.approx(0.0)
        assert by_index[1].start == pytest.approx(5.0)

    def test_arrival_during_execution_uses_idle_capacity(self):
        """An arrival while another request runs must start on free ranks
        immediately, not wait for the running tenant to finish."""
        pool = make_pool(16)
        reqs = [
            _FakeRequest({8: 100.0}),
            _FakeRequest({8: 1.0}, arrival=2.0),
        ]
        schedule = Scheduler(pool, UNIT).schedule(reqs)
        by_index = {a.index: a for a in schedule.assignments}
        assert by_index[0].start == pytest.approx(0.0)
        assert by_index[1].start == pytest.approx(2.0)  # not 100.0
        assert by_index[1].finish == pytest.approx(3.0)
        assert not set(by_index[0].grid.ranks()) & set(by_index[1].grid.ranks())

    def test_lpt_prefers_longest_first(self):
        pool = make_pool(4)
        short = _FakeRequest({4: 0.1})
        long = _FakeRequest({4: 2.0})
        schedule = Scheduler(pool, UNIT).schedule([short, long])
        first = min(schedule.assignments, key=lambda a: (a.start, 0))
        assert first.request is long

    def test_unsatisfiable_request_raises(self):
        pool = make_pool(4)
        bad = _FakeRequest({64: 1.0})  # no candidate fits the pool
        with pytest.raises(ParameterError):
            Scheduler(pool, UNIT).schedule([bad])

    def test_makespan_never_exceeds_serial_sum(self):
        rng = np.random.default_rng(0)
        pool = make_pool(16)
        reqs = [
            _FakeRequest({1: t * 4.0, 4: t * 1.5, 16: t})
            for t in rng.uniform(0.5, 2.0, size=6)
        ]
        schedule = Scheduler(pool, UNIT).schedule(reqs)
        serial = sum(r.seconds[16] for r in reqs)
        assert schedule.makespan <= serial + 1e-12
