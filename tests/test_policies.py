"""Packing-policy contracts.

* **LPT parity** — the policy refactor extracted the historical greedy
  scheduler verbatim: the default policy reproduces pre-refactor golden
  schedules bit for bit (FakeRequest streams and full ``replay()`` runs,
  including cache hit/miss decisions).
* **Validity** — every policy emits a valid schedule: no two
  time-overlapping placements share a subgrid rank, every start respects
  the arrival, every placement books a candidate size for its modeled
  duration, and the pool drains.
* **Backfill no-delay** — a backfilled placement never delays the blocked
  head past its logged reservation, and the mixed small/large stream
  shows the strict win over greedy LPT.
* **Optimal ground truth** — the branch-and-bound search never loses to
  either heuristic, matches hand-checkable optima, and refuses queues it
  cannot search exhaustively.
* **Plans are guides** — the window-search policies run with the operand
  cache on: they plan against the cache view as it stands, commit at the
  live price, and re-plan when the two drift (property-tested through
  ``Cluster.run``'s planned == measured hit/miss check, one hand-built
  drift case, one pinned cached schedule).
* **Rolling horizon** — ``HorizonPolicy`` is bit-identical to
  ``OptimalPolicy`` whenever the whole queue fits its window
  (property-tested), serves queues the optimum refuses, never loses to
  either heuristic on the pinned mixed stream or the recorded gap
  streams, and tolerates re-plans at t = 0 (the tolerance-floor
  regression).
* **Accounting** — executing any policy's schedule charges the machine
  exactly once per request region: the global volume total equals the
  per-rank, per-region sums from ``machine.region_cost``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.cluster import Cluster
from repro.api.opcache import OperandCache
from repro.api.requests import TrsmRequest
from repro.api.serve import (
    poisson_stream,
    replay,
    replay_mixed,
    replay_prepared,
    schedule_stream,
)
from repro.machine.cost import Cost, CostParams
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import ParameterError
from repro.sched import (
    BackfillPolicy,
    HorizonPolicy,
    LPTPolicy,
    OptimalPolicy,
    Scheduler,
    SubgridAllocator,
    make_policy,
)
from repro.sched.policies import PolicyContext, _plan_tolerance
from repro.sched.pricing import DirectPricing
from repro.trsm.prepared import PreparedTrsm
from repro.util.randmat import random_dense, random_lower_triangular

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")

POLICY_NAMES = ("lpt", "backfill", "optimal", "horizon")


def make_pool(p: int) -> SubgridAllocator:
    b = p.bit_length() - 1
    return SubgridAllocator(ProcessorGrid.build((2 ** ((b + 1) // 2), 2 ** (b // 2))))


class FakeRequest:
    """Minimal SchedulableRequest: fixed per-size seconds, no staging."""

    priority = 0
    deadline = None

    def __init__(self, seconds_by_size: dict[int, float], arrival: float = 0.0):
        self.seconds = seconds_by_size
        self.arrival = arrival

    def candidate_sizes(self, capacity):
        return [s for s in self.seconds if s <= capacity]

    def modeled_cost(self, size, params):
        return Cost(0.0, 0.0, self.seconds[size])

    def staging_targets(self, grid, params):
        return ()


def golden_stream(seed: int, count: int, max_arrival: float) -> list[FakeRequest]:
    """The exact generator the pre-refactor goldens were captured with."""
    rng = np.random.default_rng(seed)
    reqs = []
    for _ in range(count):
        ss = sorted(rng.choice([1, 2, 4, 8, 16], size=rng.integers(1, 4), replace=False))
        base = float(rng.uniform(0.5, 4.0))
        secs = {int(s): base * (16 / s) ** float(rng.uniform(0.3, 1.0)) for s in ss}
        arr = float(rng.uniform(0, max_arrival)) if max_arrival else 0.0
        reqs.append(FakeRequest(secs, arrival=arr))
    return reqs


# Captured from the pre-refactor scheduler (PR 4 tree) on golden_stream
# inputs: [index, size, start, finish, ranks] per assignment, start order.
GOLDEN_SCHEDULES = {
    (0, 7, 0.0): [
        [2, 1, 0.0, 9.844294256020655, [1]],
        [3, 1, 0.0, 22.96981128038583, [0]],
        [4, 8, 0.0, 3.6807566900421533, [8, 9, 10, 11, 12, 13, 14, 15]],
        [5, 4, 0.0, 5.027836961265825, [2, 3, 6, 7]],
        [6, 2, 0.0, 26.259571328290587, [4, 5]],
        [0, 4, 3.6807566900421533, 5.731004775980371, [10, 11, 14, 15]],
        [1, 4, 3.6807566900421533, 8.780258307082445, [8, 9, 12, 13]],
    ],
    (1, 9, 3.0): [
        [1, 16, 0.0826773397292051, 2.0148743170212695,
         [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]],
        [0, 8, 2.0148743170212695, 3.453652117857625,
         [8, 9, 10, 11, 12, 13, 14, 15]],
        [2, 4, 2.0148743170212695, 8.64540177291541, [2, 3, 6, 7]],
        [7, 4, 2.0148743170212695, 6.844389018110867, [0, 1, 4, 5]],
        [3, 4, 3.453652117857625, 9.162941406219481, [10, 11, 14, 15]],
        [5, 4, 3.453652117857625, 10.823470394759228, [8, 9, 12, 13]],
        [6, 1, 6.844389018110867, 12.309427476712006, [0]],
        [8, 2, 6.844389018110867, 23.84001601215775, [4, 5]],
        [4, 4, 8.64540177291541, 11.24784065576513, [2, 3, 6, 7]],
    ],
    (2, 12, 8.0): [
        [0, 1, 0.4411730186645455, 6.49134152181604, [0]],
        [3, 4, 0.836348467463532, 9.776436534949108, [2, 3, 6, 7]],
        [9, 1, 0.9010628408905461, 4.705816045716892, [1]],
        [6, 8, 1.7297871281521155, 4.405805909807327,
         [8, 9, 10, 11, 12, 13, 14, 15]],
        [10, 1, 3.604676284414097, 13.121257821229747, [4]],
        [7, 1, 3.6514449670524485, 9.349806056141663, [5]],
        [5, 8, 4.405805909807327, 11.075730881519187,
         [8, 9, 10, 11, 12, 13, 14, 15]],
        [2, 1, 4.705816045716892, 18.907418667988225, [1]],
        [4, 1, 6.49134152181604, 34.355224736858574, [0]],
        [1, 2, 9.776436534949108, 15.506027394527425, [6, 7]],
        [11, 2, 9.776436534949108, 26.310012194468626, [2, 3]],
        [8, 16, 34.355224736858574, 37.77836595328155,
         [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]],
    ],
}


def flatten(schedule):
    return [
        [a.index, a.size, float(a.start), float(a.finish), a.grid.ranks()]
        for a in schedule.assignments
    ]


class TestLPTParity:
    """The default policy is the pre-refactor scheduler, bit for bit."""

    @pytest.mark.parametrize("key", sorted(GOLDEN_SCHEDULES))
    def test_golden_fake_streams(self, key):
        seed, count, max_arrival = key
        reqs = golden_stream(seed, count, max_arrival)
        schedule = Scheduler(make_pool(16), UNIT).schedule(reqs)
        assert flatten(schedule) == GOLDEN_SCHEDULES[key]

    def test_policy_spellings_identical(self):
        def reqs():
            # fresh FakeRequests per scheduler (they are stateless anyway)
            return golden_stream(1, 9, 3.0)

        default = Scheduler(make_pool(16), UNIT).schedule(reqs())
        by_name = Scheduler(make_pool(16), UNIT, policy="lpt").schedule(reqs())
        by_instance = Scheduler(
            make_pool(16), UNIT, policy=LPTPolicy()
        ).schedule(reqs())
        assert flatten(default) == flatten(by_name) == flatten(by_instance)
        assert default.policy == by_name.policy == "lpt"

    def test_golden_replay_resident_stream(self):
        # Captured pre-refactor: a resident Poisson stream through a
        # cache-on Cluster — placements, makespans, and cache decisions.
        stream = poisson_stream(
            count=7, rate=3e4, n_range=(32, 64), k_range=(8, 16), seed=9
        )
        out = replay(stream, p=16)
        assert out.modeled_makespan == 0.0003213221061352696
        assert out.measured_makespan == 0.00032091250613526957
        assert (out.staging_hits, out.staging_misses) == (0, 14)
        got = [
            [r.rid, r.size, float(r.modeled_start), float(r.modeled_finish),
             sorted(r.grid.ranks())]
            for r in out.records
        ]
        assert got == [
            [0, 4, 0.00010963025242444954, 0.00014024203677691303, [0, 1, 4, 5]],
            [1, 4, 0.0001260834451632792, 0.0001516211912513951, [2, 3, 6, 7]],
            [2, 4, 0.00015744876708232558, 0.00018589095143478908, [0, 1, 4, 5]],
            [3, 4, 0.00019073971796019118, 0.00021918190231265468, [0, 1, 4, 5]],
            [4, 4, 0.00021749965476403288, 0.00024594183911649635, [2, 3, 6, 7]],
            [5, 4, 0.0002615130237183503, 0.0002899552080708138, [0, 1, 4, 5]],
            [6, 1, 0.0002890629061352696, 0.0003213221061352696, [2]],
        ]

    def test_golden_replay_prepared_cache_hits(self):
        # Captured pre-refactor: the cache-hit path is decision-identical.
        solver = PreparedTrsm(random_lower_triangular(64, seed=0), p=16, k_hint=8)
        out = replay_prepared(solver, count=6, p=16, k=8, seed=5, cache=True, size=4)
        assert out.modeled_makespan == 2.34272e-05
        assert out.measured_makespan == 3.98208e-05
        assert (out.staging_hits, out.staging_misses) == (4, 8)
        assert out.staging_saved_seconds == 1.5072e-05


@st.composite
def fake_streams(draw, max_count=8, max_menu=3, max_arrival=5.0):
    """Streams of FakeRequests on a 16-rank pool."""
    count = draw(st.integers(min_value=1, max_value=max_count))
    reqs = []
    for _ in range(count):
        menu = draw(
            st.lists(
                st.sampled_from([1, 2, 4, 8, 16]),
                min_size=1,
                max_size=max_menu,
                unique=True,
            )
        )
        secs = {
            s: draw(st.floats(min_value=0.1, max_value=5.0)) for s in menu
        }
        arrival = draw(st.floats(min_value=0.0, max_value=max_arrival))
        reqs.append(FakeRequest(secs, arrival=arrival))
    return reqs


def assert_valid_schedule(schedule, reqs, pool):
    """The satellite validity property: disjointness, arrivals, booking."""
    assert sorted(a.index for a in schedule.assignments) == list(range(len(reqs)))
    for a in schedule.assignments:
        req = reqs[a.index]
        assert a.start >= req.arrival - 1e-12
        assert a.size in req.candidate_sizes(pool.capacity)
        assert a.size == a.grid.size
        assert a.finish == pytest.approx(a.start + req.seconds[a.size])
    for i, a in enumerate(schedule.assignments):
        for b in schedule.assignments[i + 1 :]:
            overlap = a.start < b.finish - 1e-12 and b.start < a.finish - 1e-12
            if overlap:
                assert not set(a.grid.ranks()) & set(b.grid.ranks()), (
                    f"requests {a.index} and {b.index} overlap in time and ranks"
                )
    assert schedule.makespan == max(a.finish for a in schedule.assignments)
    assert pool.drained()


def assert_cluster_caches(policy):
    """A window-search policy keeps the Cluster's operand cache and a
    shared-operand stream actually hits it."""
    assert Cluster(16, policy=policy).opcache is not None
    stream = poisson_stream(
        count=7, rate=1e5, n_range=(32, 64), k_range=(8, 8), seed=2
    )
    out = replay(stream, p=16, policy=policy, shared_operands=True, verify=False)
    assert out.policy == policy
    assert out.staging_hits > 0


@st.composite
def cached_window_cases(draw):
    """(p, window-search policy, shared-operand stream): the exhaustive
    optimum on queues it can search quickly, the budgeted horizon beyond."""
    p = draw(st.sampled_from([16, 64]))
    if draw(st.booleans()):
        policy, max_count = OptimalPolicy(), 6
    else:
        policy = HorizonPolicy(
            window=draw(st.sampled_from([3, 8])),
            node_budget=draw(st.sampled_from([200, 2_000])),
        )
        max_count = 10
    stream = poisson_stream(
        count=draw(st.integers(min_value=2, max_value=max_count)),
        rate=draw(st.sampled_from([0.0, 3e4, 1e5, 1e6])),
        n_range=(32, 64),
        k_range=(8, 16),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    return p, policy, stream


class TestEveryPolicyEmitsValidSchedules:
    @given(fake_streams())
    @settings(max_examples=60, deadline=None)
    def test_lpt_valid(self, reqs):
        pool = make_pool(16)
        schedule = Scheduler(pool, UNIT, policy="lpt").schedule(reqs)
        assert_valid_schedule(schedule, reqs, pool)

    @given(fake_streams())
    @settings(max_examples=60, deadline=None)
    def test_backfill_valid(self, reqs):
        pool = make_pool(16)
        schedule = Scheduler(pool, UNIT, policy="backfill").schedule(reqs)
        assert_valid_schedule(schedule, reqs, pool)

    @given(fake_streams(max_count=4, max_menu=2))
    @settings(max_examples=25, deadline=None)
    def test_optimal_valid(self, reqs):
        pool = make_pool(16)
        schedule = Scheduler(pool, UNIT, policy="optimal").schedule(reqs)
        assert_valid_schedule(schedule, reqs, pool)


class TestBackfillNoDelay:
    @given(fake_streams())
    @settings(max_examples=60, deadline=None)
    def test_head_starts_by_every_logged_reservation(self, reqs):
        policy = BackfillPolicy()
        schedule = Scheduler(make_pool(16), UNIT, policy=policy).schedule(reqs)
        by_index = {a.index: a for a in schedule.assignments}
        for logged_at, head, reserved in policy.reservations:
            assert by_index[head].start <= reserved + 1e-9, (
                f"head {head} reserved at t={logged_at} for {reserved} "
                f"started {by_index[head].start}"
            )

    def test_reservation_holds_capacity_for_the_blocked_head(self):
        """The textbook scenario: a full-grid request starves under greedy
        LPT while staggered small requests keep grabbing freed blocks;
        backfilling reserves its start and refuses the late smalls."""
        def stream():
            reqs = [FakeRequest({8: 3.0}) for _ in range(2)]          # fill pool
            reqs.append(FakeRequest({16: 10.0}, arrival=0.5))         # blocked head
            reqs += [
                FakeRequest({8: 3.0}, arrival=a) for a in (2.0, 3.5, 8.0)
            ]
            return reqs

        lpt = Scheduler(make_pool(16), UNIT, policy="lpt").schedule(stream())
        policy = BackfillPolicy()
        bf = Scheduler(make_pool(16), UNIT, policy=policy).schedule(stream())
        big_lpt = next(a for a in lpt.assignments if a.size == 16)
        big_bf = next(a for a in bf.assignments if a.size == 16)
        assert policy.reservations, "the head must have been reserved"
        assert big_bf.start < big_lpt.start, "backfilling must unblock the head"
        assert bf.makespan < lpt.makespan, "and win the makespan here"

    def test_mixed_pinned_stream_strict_win(self):
        """The real-request version (the bench gate scenario)."""
        lpt = replay_mixed(p=16, policy="lpt", smalls=8)
        bf = replay_mixed(p=16, policy="backfill", smalls=8)
        assert bf.policy == "backfill"
        assert bf.modeled_makespan < lpt.modeled_makespan
        assert bf.measured_makespan < lpt.measured_makespan


class TestOptimalGroundTruth:
    @given(fake_streams(max_count=4, max_menu=2))
    @settings(max_examples=25, deadline=None)
    def test_never_worse_than_either_heuristic(self, reqs):
        lpt = Scheduler(make_pool(16), UNIT, policy="lpt").schedule(reqs)
        bf = Scheduler(make_pool(16), UNIT, policy="backfill").schedule(reqs)
        opt = Scheduler(make_pool(16), UNIT, policy="optimal").schedule(reqs)
        assert opt.makespan <= min(lpt.makespan, bf.makespan) * (1 + 1e-9)

    def test_hand_checkable_optimum(self):
        # Two half-grid placements in parallel beat any serial full-grid
        # plan: optimal must find 1.4 even though each request alone
        # prefers the full grid.
        reqs = [FakeRequest({16: 1.0, 8: 1.4}), FakeRequest({16: 1.0, 8: 1.4})]
        opt = Scheduler(make_pool(16), UNIT, policy="optimal").schedule(reqs)
        assert opt.makespan == pytest.approx(1.4)

    def test_deliberate_idling_beats_greedy(self):
        # Greedy fills the second half with the long small job and pays
        # for it; the optimum idles that half until the full-grid job is
        # done.  (8-job 5.0 on the half, 16-job 1.0 on the grid.)
        reqs = [FakeRequest({16: 1.0}), FakeRequest({8: 5.0, 16: 4.0})]
        lpt = Scheduler(make_pool(16), UNIT, policy="lpt").schedule(reqs)
        opt = Scheduler(make_pool(16), UNIT, policy="optimal").schedule(reqs)
        assert opt.makespan <= lpt.makespan
        assert opt.makespan == pytest.approx(5.0)

    def test_queue_cap_enforced(self):
        reqs = [FakeRequest({4: 1.0}) for _ in range(9)]
        with pytest.raises(ParameterError):
            Scheduler(make_pool(16), UNIT, policy="optimal").schedule(reqs)
        # a raised cap admits the same queue
        relaxed = Scheduler(
            make_pool(16), UNIT, policy=OptimalPolicy(max_requests=9)
        )
        assert len(relaxed.schedule(reqs).assignments) == 9

    def test_accepts_operand_cache(self):
        reqs = [FakeRequest({16: 1.0, 8: 1.4}), FakeRequest({16: 1.0, 8: 1.4})]
        opt = Scheduler(
            make_pool(16), UNIT, cache=OperandCache(), policy="optimal"
        ).schedule(reqs)
        assert opt.makespan == pytest.approx(1.4)

    def test_cluster_keeps_cache_for_optimal(self):
        assert_cluster_caches("optimal")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ParameterError):
            make_policy("round_robin")


# Captured from the window search that keyed its seen states on sorted
# rank lists: [index, size, start, finish, ranks] per assignment, start
# order, for the stream test_golden_horizon_stream packs.
GOLDEN_HORIZON = [
    [0, 1, 1.1001481267803983e-07, 5.500761481267804e-05, [0]],
    [1, 4, 4.996716862517436e-07, 3.1111456038715235e-05, [2, 3, 6, 7]],
    [2, 4, 1.8992126443709819e-06, 5.603275005422494e-05, [8, 9, 12, 13]],
    [3, 1, 4.099360740152362e-06, 5.8996960740152367e-05, [1]],
    [4, 1, 4.442854559320684e-06, 5.934045455932068e-05, [4]],
    [5, 1, 4.700690082392566e-06, 4.701429008239256e-05, [5]],
    [6, 1, 5.135236596458579e-06, 6.003283659645858e-05, [10]],
    [7, 1, 5.237829866495989e-06, 4.270822986649599e-05, [11]],
    [8, 1, 6.2387914334546755e-06, 4.855239143345467e-05, [14]],
    [9, 1, 6.3050994728389605e-06, 6.974029947283895e-05, [15]],
    [12, 4, 3.1111456038715235e-05, 5.955364039117873e-05, [2, 3, 6, 7]],
    [15, 1, 4.270822986649599e-05, 8.017862986649599e-05, [11]],
    [10, 1, 4.701429008239256e-05, 8.923643085939774e-05, [5]],
    [11, 1, 4.855239143345467e-05, 9.086599143345467e-05, [14]],
    [13, 1, 5.500761481267804e-05, 9.732121481267803e-05, [0]],
    [14, 4, 5.603275005422494e-05, 9.984948746407891e-05, [8, 9, 12, 13]],
]


class TestHorizonPolicy:
    def test_golden_horizon_stream(self):
        """The search's node count, re-plans and placements are pinned:
        any change to its state keys or pool shows here."""
        stream = poisson_stream(16, rate=1e6, n_range=(64, 128), k_range=(8, 32), seed=3)
        policy = HorizonPolicy(node_budget=200)
        schedule = schedule_stream(stream, p=16, policy=policy, cache=False)
        assert (policy.nodes_explored, policy.replans) == (1_470, 9)
        assert flatten(schedule) == GOLDEN_HORIZON

    @given(fake_streams(max_count=4, max_menu=2))
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_optimal_when_queue_fits(self, reqs):
        """Queue <= window: the horizon search IS the exhaustive search —
        one solve, no re-plans, the same plan followed the same way."""
        opt = Scheduler(make_pool(16), UNIT, policy="optimal").schedule(reqs)
        hor = Scheduler(
            make_pool(16), UNIT, policy=HorizonPolicy(window=8)
        ).schedule(reqs)
        assert flatten(hor) == flatten(opt)

    @given(fake_streams(max_count=8))
    @settings(max_examples=20, deadline=None)
    def test_windowed_schedules_valid(self, reqs):
        """A window smaller than the queue forces re-plans and the
        beyond-window backfill path; the schedule must stay valid."""
        pool = make_pool(16)
        schedule = Scheduler(
            pool, UNIT, policy=HorizonPolicy(window=3)
        ).schedule(reqs)
        assert_valid_schedule(schedule, reqs, pool)

    def test_serves_queues_the_optimum_refuses(self):
        reqs = golden_stream(2, 12, 8.0)
        with pytest.raises(ParameterError):
            Scheduler(make_pool(16), UNIT, policy="optimal").schedule(reqs)
        pool = make_pool(16)
        # the anytime search: a 2 000-node budget rolls the same 5 windows
        # the 50 000-node default does, in 0.5 s instead of 18
        policy = HorizonPolicy(node_budget=2_000)
        hor = Scheduler(pool, UNIT, policy=policy).schedule(reqs)
        assert_valid_schedule(hor, golden_stream(2, 12, 8.0), pool)
        assert policy.replans >= 2, "a 12-request queue must roll the window"
        # and the windowed search still beats (or ties) the greedy baseline
        lpt = Scheduler(make_pool(16), UNIT, policy="lpt").schedule(
            golden_stream(2, 12, 8.0)
        )
        assert hor.makespan <= lpt.makespan * (1 + 1e-9)

    def test_mixed_pinned_stream_never_loses(self):
        """The bench gate scenario: horizon <= min(lpt, backfill)."""
        lpt = replay_mixed(p=16, policy="lpt", smalls=8)
        bf = replay_mixed(p=16, policy="backfill", smalls=8)
        hor = replay_mixed(p=16, policy="horizon", smalls=8)
        assert hor.policy == "horizon"
        floor = min(lpt.modeled_makespan, bf.modeled_makespan)
        assert hor.modeled_makespan <= floor * (1 + 1e-9)

    @pytest.mark.parametrize("seed,rate", [(0, 0.0), (1, 0.0), (2, 0.0), (0, 3e4)])
    def test_recorded_gap_streams_never_lose(self, seed, rate):
        """The gap-report streams (scheduling-only, so the comparison is
        cheap): horizon <= min(lpt, backfill) on each."""
        from repro.api.serve import schedule_stream

        def stream():
            return poisson_stream(
                count=6, rate=rate, n_range=(64, 128), k_range=(8, 32), seed=seed
            )

        spans = {
            pol: schedule_stream(stream(), p=16, policy=pol, cache=False).makespan
            for pol in ("lpt", "backfill", "horizon")
        }
        assert spans["horizon"] <= min(spans["lpt"], spans["backfill"]) * (1 + 1e-9)

    def test_replan_tolerance_floor_at_t0(self):
        """Regression: a planned start of 0.0 used to collapse the
        plan-following tolerance to exact float equality, so a decision
        point at a sub-resolution positive clock tripped the
        "plan diverged" guard.  The floor comes from the plan's own
        makespan, so a t=0 consultation with negligible drift follows
        the plan instead of raising."""
        reqs = [FakeRequest({8: 1.0}), FakeRequest({8: 2.0})]

        pool = make_pool(16)
        policy = OptimalPolicy()
        policy.reset(reqs)
        pending = list(enumerate(reqs))
        pricing = DirectPricing(UNIT, pool.capacity)
        pricing.seed(pending)
        first = policy.choose(PolicyContext(0.0, pool, UNIT, pending, [], pricing))
        assert first is not None and first.index == 0
        grid = pool.allocate(first.candidate.size)
        assert grid == first.candidate.grid
        # the event loop re-consults at "the same" timestamp; give the
        # clock a drift far below the event-timeline resolution (the
        # plan's makespan is 2.0, so the tolerance floor is 2e-9)
        drift = 1e-12
        assert drift <= _plan_tolerance(0.0, 2.0)
        pricing.remove(first.index)
        second = policy.choose(
            PolicyContext(
                drift,
                pool,
                UNIT,
                [pending[1]],
                [(first.candidate.finish, 0, first.candidate.size, grid)],
                pricing,
            )
        )
        assert second is not None and second.index == 1

    def test_window_and_budget_validated(self):
        with pytest.raises(ParameterError):
            HorizonPolicy(window=0)
        with pytest.raises(ParameterError):
            HorizonPolicy(node_budget=0)
        assert HorizonPolicy(node_budget=None).node_budget is None

    def test_cluster_keeps_cache_for_horizon(self):
        assert_cluster_caches("horizon")

    @given(cached_window_cases())
    @settings(max_examples=40, deadline=None)
    def test_cached_window_search_replays_as_scheduled(self, case):
        """Cache on, shared operands: ``Cluster.run`` returning means the
        planned == measured hit/miss ``require`` held for every request —
        however often the live prices drifted from the plan."""
        p, policy, stream = case
        out = replay(stream, p=p, policy=policy, shared_operands=True)
        assert sorted(r.rid for r in out.records) == list(range(len(stream)))
        for r in out.records:
            assert r.modeled_start >= stream[r.rid].arrival - 1e-12
            assert r.residual is not None and r.residual < 1e-10
        again = schedule_stream(stream, p=p, policy=policy)
        assert flatten(again) == [
            [r.rid, r.size, float(r.modeled_start), float(r.modeled_finish),
             r.grid.ranks()]
            for r in out.records
        ]

    def test_price_drift_replans(self):
        """Three solves of one hosted pair queue for the one full-grid
        block: the plan prices the second as a miss (nothing is staged
        yet), its commit finds the first one's copies — a hit, an earlier
        finish than planned — so the rest of the plan is dropped and
        re-planned instead of tripping the divergence guard."""

        def run(cache):
            policy = HorizonPolicy()
            cluster = Cluster(16, policy=policy, cache=cache)
            L = cluster.host(random_lower_triangular(64, seed=1))
            B = cluster.host(random_dense(64, 8, seed=2))
            for _ in range(3):
                cluster.submit(TrsmRequest(L=L, B=B, sizes=(16,), verify=False))
            out = cluster.run()
            for r in out.records:
                assert r.modeled_finish == r.modeled_start + (
                    r.staging_seconds + r.modeled_seconds
                )
            return policy.replans, out

        replans, cached = run(cache=True)
        assert replans == 2 > run(cache=False)[0]
        assert [r.staging_hit for r in cached.records] == [False, True, True]

    def test_golden_cached_shared_stream(self):
        """Pinned: horizon with the cache on over a shared-operand stream
        (one drift re-plan beyond the seven the window rolls uncached)."""
        stream = poisson_stream(
            count=10, rate=3e5, n_range=(32, 64), k_range=(8, 8), seed=3
        )
        policy = HorizonPolicy(window=4, node_budget=2_000)
        out = replay(
            stream, p=16, policy=policy, shared_operands=True, verify=False
        )
        assert policy.replans == 8
        assert (out.staging_hits, out.staging_misses) == (10, 10)
        assert out.modeled_makespan == 6.958039257095537e-05
        got = [
            [r.rid, r.size, float(r.modeled_start), float(r.modeled_finish),
             sorted(r.grid.ranks())]
            for r in out.records
        ]
        assert got == [
            [0, 4, 3.667160422601328e-07, 2.5904462130376004e-05, [0, 1, 4, 5]],
            [1, 4, 1.6655722875058122e-06, 2.7203318375621684e-05, [2, 3, 6, 7]],
            [2, 4, 6.33070881456994e-06, 3.477289316703343e-05, [8, 9, 12, 13]],
            [3, 4, 1.3664535800507876e-05, 4.210672015297137e-05,
             [10, 11, 14, 15]],
            [4, 4, 2.5904462130376004e-05, 4.113820821849188e-05, [0, 1, 4, 5]],
            [5, 4, 2.7203318375621684e-05, 4.243706446373756e-05, [2, 3, 6, 7]],
            [6, 4, 3.477289316703343e-05, 5.2223077519496916e-05, [8, 9, 12, 13]],
            [7, 4, 4.113820821849188e-05, 6.958039257095537e-05, [0, 1, 4, 5]],
            [9, 4, 4.210672015297137e-05, 5.955690450543486e-05,
             [10, 11, 14, 15]],
            [8, 4, 4.243706446373756e-05, 5.767081055185343e-05, [2, 3, 6, 7]],
        ]


class TestGapReportRendering:
    def test_null_gaps_render_as_em_dash(self):
        from repro.analysis.serve import format_gap_pct, policy_gap_report

        assert format_gap_pct(None) == "—"
        assert format_gap_pct(0.0) == "+0.00"
        assert format_gap_pct(12.5) == "+12.50"
        assert format_gap_pct(-0.25) == "-0.25"
        # a queue past optimal_max: the optimum is skipped, every gap is
        # null, and the table renders — cells (never "None%"/a TypeError)
        stream = poisson_stream(
            count=2, rate=0.0, n_range=(32, 32), k_range=(8, 8), seed=0
        )
        report = policy_gap_report(
            stream, p=16, policies=("lpt", "optimal"), optimal_max=1
        )
        assert "n/a (queue too long)" in report
        assert "—" in report
        assert "None" not in report


class TestClusterPolicyIntegration:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_stream_correct_under_every_policy(self, policy):
        stream = poisson_stream(
            count=4, rate=2e4, n_range=(32, 64), k_range=(8, 16), seed=3
        )
        out = replay(stream, p=16, policy=policy, cache=False)
        assert out.policy == policy
        assert len(out.records) == 4
        for rec in out.records:
            assert rec.residual is not None and rec.residual < 1e-9
            # measured windows are physical: nothing starts before arrival
            assert rec.measured_start >= stream[rec.rid].arrival - 1e-12
            assert rec.modeled_start >= stream[rec.rid].arrival - 1e-12

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_total_charge_equals_per_region_sums(self, policy):
        """Accounting identity: every charge of the run lands in exactly
        one request region, so the machine's global volume total equals
        the per-rank, per-region region_cost sums."""
        cluster = Cluster(16, cache=False, policy=policy)
        rng = np.random.default_rng(7)
        rids = []
        for i in range(4):
            n = int(rng.choice([32, 64]))
            L = random_lower_triangular(n, seed=10 + i)
            B = rng.standard_normal((n, 8))
            rids.append(
                cluster.submit(
                    TrsmRequest(
                        L=cluster.host(L), B=cluster.host(B), verify=False
                    )
                )
            )
        out = cluster.run()
        machine = cluster.machine
        total = machine.counters.total
        S = W = F = 0.0
        for rid in rids:
            region = f"request:{rid}"
            for rank in range(cluster.p):
                c = machine.region_cost(region, [rank])
                S, W, F = S + c.S, W + c.W, F + c.F
        assert S == pytest.approx(total.S, rel=1e-9, abs=1e-9)
        assert W == pytest.approx(total.W, rel=1e-9, abs=1e-9)
        assert F == pytest.approx(total.F, rel=1e-9, abs=1e-9)
        assert out.measured_makespan == machine.time()
