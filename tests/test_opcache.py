"""Operand cache: staged-copy reuse proven correct by parity/properties.

The contract under test (ISSUE 4): caching staged operand copies per
(operand, subgrid, layout) changes *nothing* about results — cache-on and
cache-off Cluster runs produce bit-identical values and residuals — and
changes costs *only* by the saved staging charges: a request served from
the cache pays strictly less (verified via ``machine.region_cost``), one
that is not pays exactly what the uncached run pays, and a stream of
solves against one hosted factor pays the factor migration at most once
per subgrid tenancy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Cluster, TrsmRequest
from repro.api.opcache import cache_key
from repro.api.serve import replay_prepared
from repro.dist.distmatrix import DistMatrix
from repro.dist.layout import CyclicLayout
from repro.machine.cost import CostParams
from repro.machine.topology import ProcessorGrid
from repro.sched.allocator import SubgridAllocator
from repro.trsm.prepared import PreparedTrsm
from repro.util.randmat import random_dense, random_lower_triangular

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")


def _stage_target(cluster, size=4):
    """A concrete staging target: the would-be subgrid, reshaped 2D."""
    grid = cluster.pool.preview(size)
    side = int(np.sqrt(size))
    return grid.reshape((side, side)), CyclicLayout(side, side)


class TestCacheUnit:
    def test_miss_then_hit_is_bit_identical(self):
        cluster = Cluster(16, params=UNIT)
        L = cluster.host(random_lower_triangular(32, seed=0))
        grid, layout = _stage_target(cluster)
        first = cluster.stage_resident(L, grid, layout)
        words_after_first = cluster.machine.total_volume().W
        second = cluster.stage_resident(L, grid, layout)
        assert cluster.opcache.hits == 1 and cluster.opcache.misses == 1
        # the hit moved nothing and charged nothing
        assert cluster.machine.total_volume().W == words_after_first
        for rank in grid.ranks():
            assert second.blocks[rank].tobytes() == first.blocks[rank].tobytes()

    def test_hit_returns_a_private_copy(self):
        """A tenant scribbling on its operand cannot poison later tenants."""
        cluster = Cluster(16, params=UNIT)
        L = cluster.host(random_lower_triangular(32, seed=1))
        grid, layout = _stage_target(cluster)
        first = cluster.stage_resident(L, grid, layout)
        first.set_local((0, 0), np.zeros_like(first.local((0, 0))))
        second = cluster.stage_resident(L, grid, layout)
        assert second is not first
        assert not np.array_equal(second.local((0, 0)), first.local((0, 0)))
        assert np.allclose(second.to_global(), L.to_global())

    def test_local_view_is_read_only(self):
        """In-place writes through ``local()`` would bypass the generation
        counter (and so the staleness guarantee): they are forbidden —
        mutation goes through ``set_local``."""
        cluster = Cluster(16, params=UNIT)
        L = cluster.host(random_lower_triangular(32, seed=10))
        with pytest.raises(ValueError):
            L.local((0, 0))[0, 0] = 0.0

    def test_mutation_bumps_generation_and_is_never_served_stale(self):
        cluster = Cluster(16, params=UNIT)
        L = cluster.host(random_lower_triangular(32, seed=2))
        grid, layout = _stage_target(cluster)
        cluster.stage_resident(L, grid, layout)
        gen = L.generation
        L.set_local((0, 0), 2.0 * L.local((0, 0)))
        assert L.generation == gen + 1
        restaged = cluster.stage_resident(L, grid, layout)
        assert cluster.opcache.hits == 0 and cluster.opcache.misses == 2
        assert np.allclose(restaged.to_global(), L.to_global())

    def test_set_local_copies_the_block_in(self):
        """A caller-retained alias of a set_local block must not be able
        to mutate content behind the generation counter's back."""
        cluster = Cluster(16, params=UNIT)
        L = cluster.host(random_lower_triangular(32, seed=11))
        blk = np.asarray(L.local((0, 0)), dtype=np.float64).copy()
        L.set_local((0, 0), blk)
        before = L.local((0, 0)).copy()
        blk[:] = -1.0  # scribble on the retained alias
        assert np.array_equal(L.local((0, 0)), before)

    def test_store_purges_superseded_generations(self):
        """Mutate-and-restage must not accumulate dead masters."""
        cluster = Cluster(16, params=UNIT)
        L = cluster.host(random_lower_triangular(32, seed=12))
        grid, layout = _stage_target(cluster)
        for _ in range(3):
            cluster.stage_resident(L, grid, layout)
            L.set_local((0, 0), 2.0 * np.asarray(L.local((0, 0))))
        assert len(cluster.opcache) == 1  # only the live generation

    def test_route_embed_bumps_generation(self):
        from repro.dist.redistribute import route_embed

        cluster = Cluster(16, params=UNIT)
        target = cluster.host(random_dense(16, 16, seed=3))
        sub = cluster.host(random_dense(8, 8, seed=4))
        gen = target.generation
        route_embed(sub, target, 0, 0)
        assert target.generation == gen + 1

    def test_rehosting_mints_a_new_identity(self):
        cluster = Cluster(16, params=UNIT)
        A = random_lower_triangular(32, seed=5)
        L1, L2 = cluster.host(A), cluster.host(A)
        assert L1.uid != L2.uid
        grid, layout = _stage_target(cluster)
        cluster.stage_resident(L1, grid, layout)
        cluster.stage_resident(L2, grid, layout)  # same bytes, new identity
        assert cluster.opcache.hits == 0 and cluster.opcache.misses == 2

    def test_release_drops_copies(self):
        cluster = Cluster(16, params=UNIT)
        L = cluster.host(random_lower_triangular(32, seed=6))
        grid, layout = _stage_target(cluster)
        cluster.stage_resident(L, grid, layout)
        assert cluster.release(L) == 1
        cluster.stage_resident(L, grid, layout)
        assert cluster.opcache.hits == 0 and cluster.opcache.misses == 2

    def test_corrupted_master_is_dropped_not_served(self):
        cluster = Cluster(16, params=UNIT)
        L = cluster.host(random_lower_triangular(32, seed=7))
        grid, layout = _stage_target(cluster)
        cluster.stage_resident(L, grid, layout)
        (entry,) = cluster.opcache._entries.values()
        entry.matrix.set_local((0, 0), np.zeros_like(entry.matrix.local((0, 0))))
        assert not entry.pristine()
        restaged = cluster.stage_resident(L, grid, layout)
        assert cluster.opcache.hits == 0 and cluster.opcache.misses == 2
        assert np.allclose(restaged.to_global(), L.to_global())

    def test_evict_grid_by_rank_intersection(self):
        cluster = Cluster(16, params=UNIT)
        L = cluster.host(random_lower_triangular(32, seed=8))
        grid, layout = _stage_target(cluster)
        cluster.stage_resident(L, grid, layout)
        disjoint = ProcessorGrid(
            np.array([r for r in range(16) if r not in grid.ranks()])
        )
        assert cluster.opcache.evict_grid(disjoint) == 0
        assert cluster.opcache.evict_grid(grid) == 1
        assert len(cluster.opcache) == 0


class TestAllocatorEviction:
    def test_coalesce_reports_destroyed_blocks(self):
        pool = SubgridAllocator(ProcessorGrid.build((4, 4)))
        events = []
        pool.on_destroy = events.append
        g = pool.allocate(4)
        split_events = list(events)  # splitting down destroys the ancestors
        assert any(set(g.ranks()) <= set(e.ranks()) for e in split_events)
        events.clear()
        pool.release(g)  # only lease: coalesces all the way to the root
        assert pool.drained()
        assert any(set(g.ranks()) <= set(e.ranks()) for e in events)

    def test_release_without_coalesce_keeps_the_block(self):
        pool = SubgridAllocator(ProcessorGrid.build((4, 4)))
        a = pool.allocate(8)
        b = pool.allocate(8)
        events = []
        pool.on_destroy = events.append
        pool.release(a)  # buddy b still leased: the block survives
        assert events == []
        pool.release(b)
        assert events != [] and pool.drained()

    def test_split_of_a_free_block_reports_it(self):
        pool = SubgridAllocator(ProcessorGrid.build((4, 4)))
        pool.allocate(8)
        events = []
        pool.on_destroy = events.append
        small = pool.allocate(2)  # splits the free 8-block down
        assert any(e.size == 8 and set(small.ranks()) <= set(e.ranks()) for e in events)

    def test_hooked_cache_survives_tenancy_handover(self):
        """Release without coalesce keeps the copy; coalesce evicts it."""
        cluster = Cluster(16, params=UNIT)
        cache = cluster.opcache
        pool = cluster.pool
        pool.on_destroy = cache.evict_grid
        L = cluster.host(random_lower_triangular(32, seed=9))
        grid, layout = _stage_target(cluster)
        a = pool.allocate(4)
        b = pool.allocate(4)
        assert set(a.ranks()) == set(grid.ranks())  # preview matched allocate
        cluster.stage_resident(L, grid, layout)
        pool.release(a)  # buddy leased: no coalesce, copy survives
        assert len(cache) == 1
        pool.release(b)  # coalesce to root: tenancy over, copy evicted
        assert len(cache) == 0
        pool.on_destroy = None


@pytest.fixture(scope="module")
def solver64():
    """One prepared factor for the p=64 serve-stream acceptance tests."""
    L = random_lower_triangular(128, seed=0)
    return PreparedTrsm(L, p=64, k_hint=8, params=UNIT, n0=16)


class TestServeStreamAcceptance:
    """>= 8 PreparedSolves against one hosted factor on p = 64 pay the
    factor migration at most once per subgrid tenancy, bit-identically."""

    def test_factor_migration_once_per_tenancy(self, solver64):
        on = replay_prepared(
            solver64, count=8, p=64, k=8, params=UNIT, seed=3, cache=True, size=16
        )
        off = replay_prepared(
            solver64, count=8, p=64, k=8, params=UNIT, seed=3, cache=False, size=16
        )
        assert len(on.records) == 8

        # bit-identical solves and residuals, request by request
        for r in on.records:
            o = off.record(r.rid)
            assert r.value.tobytes() == o.value.tobytes()
            assert r.residual == o.residual

        # the factor pair (L, Ltilde) migrated once per subgrid tenancy
        # chain: misses == 2 per distinct block, every repeat placement hit
        blocks = {tuple(r.grid.ranks()) for r in on.records}
        assert on.staging_misses == 2 * len(blocks)
        assert on.staging_hits == 2 * (len(on.records) - len(blocks))
        seen = set()
        for r in sorted(on.records, key=lambda r: (r.modeled_start, r.rid)):
            key = tuple(r.grid.ranks())
            assert r.staging_hit == (key in seen)
            seen.add(key)

        # exact cost parity via region accounting: a miss pays exactly the
        # uncached charge, a hit pays strictly less (the skipped migration)
        for r in on.records:
            o = off.record(r.rid)
            assert r.grid == o.grid
            if r.staging_hit:
                assert r.measured.W < o.measured.W
                assert r.staging_saved_seconds > 0.0
            else:
                assert r.measured == o.measured
                assert r.staging_saved_seconds == 0.0

        # and the saving is real, in the model and on the clocks
        assert on.staging_saved_seconds == pytest.approx(
            sum(r.staging_saved_seconds for r in on.records)
        )
        assert on.staging_saved_seconds > 0.0
        assert on.modeled_makespan < off.modeled_makespan
        assert on.measured_makespan < off.measured_makespan
        assert off.staging_hits == 0 and off.staging_saved_seconds == 0.0

    def test_scheduler_prefers_affinity_unpinned(self, solver64):
        """Without pinned sizes the cache-aware price still yields hits."""
        on = replay_prepared(
            solver64, count=8, p=64, k=8, params=UNIT, seed=4, cache=True
        )
        assert on.staging_hits > 0
        assert on.staging_saved_seconds > 0.0
        for r in on.records:
            assert r.residual is not None and r.residual < 1e-8

    def test_cache_is_drained_with_the_pool(self, solver64):
        """The end-of-run coalesce ends every tenancy: no stale copies
        survive into the next scheduling pass."""
        L = random_lower_triangular(64, seed=1)
        cluster = Cluster(16, params=UNIT)
        Lh = cluster.host(L)
        for i in range(6):  # 4 slots of size 4: two repeat tenancies
            cluster.submit(
                TrsmRequest(L=Lh, B=random_dense(64, 8, seed=10 + i), sizes=(4,))
            )
        outcome = cluster.run()
        assert outcome.staging_hits > 0
        assert len(cluster.opcache) == 0
        assert cluster.pool.drained()

    def test_manual_warmup_is_cold_for_the_next_run(self):
        """A copy lives as long as its allocator block, and a drained pool
        has no blocks: entries from stage_resident() warm-ups outside a
        run must be priced cold — not crash the plan/measurement parity
        check when the first allocation's splits would destroy them."""
        cluster = Cluster(16, params=UNIT)
        L = cluster.host(random_lower_triangular(64, seed=13))
        B = random_dense(64, 8, seed=14)
        req = TrsmRequest(L=L, B=B, sizes=(4,))
        grid = cluster.pool.preview(4)
        warmed = []
        for D, tg, lay, _, _ in req._plan(grid, cluster.params).placements:
            if isinstance(D, DistMatrix):
                cluster.stage_resident(D, tg, lay)  # warm exactly the targets
                warmed.append(cache_key(D, tg, lay))
        assert warmed == [key for key, _g, _c in req.staging_targets(grid, cluster.params)]
        assert len(cluster.opcache) > 0
        rid = cluster.submit(req)
        outcome = cluster.run()  # must not raise
        assert outcome.staging_hits == 0
        assert outcome.record(rid).residual is not None
        assert outcome.record(rid).residual < 1e-9

    def test_single_request_never_hits(self):
        cluster = Cluster(16, params=UNIT)
        L = cluster.host(random_lower_triangular(64, seed=2))
        B = cluster.host(random_dense(64, 8, seed=3))
        cluster.submit(TrsmRequest(L=L, B=B))
        outcome = cluster.run()
        assert outcome.staging_hits == 0
        assert outcome.staging_saved_seconds == 0.0
        assert outcome.staging_hit_rate() == 0.0


@st.composite
def trsm_streams(draw):
    """A stream spec: shared factor, uniform pinned size, mixed hosting."""
    n = draw(st.sampled_from([32, 64]))
    k = draw(st.sampled_from([4, 8]))
    count = draw(st.integers(min_value=2, max_value=6))
    size = draw(st.sampled_from([4, 16]))
    host_b = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return n, k, count, size, host_b, seed


def _run_stream(n, k, count, size, host_b, seed, cache):
    cluster = Cluster(16, params=UNIT, cache=cache)
    Lh = cluster.host(random_lower_triangular(n, seed=seed))
    rids = []
    for i in range(count):
        B = random_dense(n, k, seed=seed + 7 * i + 1)
        rids.append(
            cluster.submit(
                TrsmRequest(
                    L=Lh,
                    B=cluster.host(B) if host_b else B,
                    sizes=(size,),
                )
            )
        )
    return cluster.run(), rids


class TestParityProperty:
    @given(trsm_streams())
    @settings(max_examples=15, deadline=None)
    def test_cache_changes_costs_only_never_results(self, spec):
        """For random request streams: bit-identical values/residuals, and
        ``measured_makespan(on) <= measured_makespan(off)`` with equality
        iff there were zero hits."""
        n, k, count, size, host_b, seed = spec
        on, rids = _run_stream(n, k, count, size, host_b, seed, cache=True)
        off, _ = _run_stream(n, k, count, size, host_b, seed, cache=False)

        for rid in rids:
            a, b = on.record(rid), off.record(rid)
            assert a.value.tobytes() == b.value.tobytes()
            assert a.residual == b.residual

        assert on.measured_makespan <= off.measured_makespan
        if on.staging_saved_seconds == 0.0:
            # zero savings (no hits, or hits on identity staging plans —
            # e.g. the full-machine plane is already the data plane):
            # the runs charge identically
            assert on.measured_makespan == off.measured_makespan
        else:
            assert on.measured_makespan < off.measured_makespan
        if on.staging_hits == 0:
            assert on.staging_saved_seconds == 0.0
        # hits happen exactly when the stream revisits a subgrid: with a
        # uniform pinned size that is count exceeding the slot count
        assert (on.staging_hits > 0) == (count > 16 // size)
        assert on.modeled_makespan <= off.modeled_makespan
