"""Online serving subsystem: arrivals, admission, priorities, the daemon.

The property suite pins the contracts ISSUE 8 names:

* seeded arrival processes are exactly reproducible and hit their target
  mean rate within tolerance;
* admission invariants — strictly FIFO within a priority class, every
  admitted request drained exactly once (no starvation), and rejected
  requests never reach the scheduler;
* priority classes and SLA deadlines are honored by the policy layer
  (higher classes first, EDF within a class, a later higher class jumps
  the queue but never revokes running work) while a uniform priority
  shift stays bit-identical to the default schedule — the offline-parity
  guarantee;
* the daemon protocol round-trips in virtual time via an injected clock.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.cluster import latency_percentiles
from repro.api.online import (
    Admitted,
    AdmissionConfig,
    AdmissionController,
    DaemonConfig,
    Deferred,
    Rejected,
    ServeDaemon,
    TokenBucket,
    make_arrivals,
    poisson_arrivals,
    synthetic_stream,
)
from repro.api.serve import poisson_stream, replay
from repro.dist.routing import clear_plan_cache
from repro.machine.cost import Cost, CostParams
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import ParameterError
from repro.sched import HorizonPolicy, Scheduler, SubgridAllocator

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")


def make_pool(p: int) -> SubgridAllocator:
    b = p.bit_length() - 1
    return SubgridAllocator(ProcessorGrid.build((2 ** ((b + 1) // 2), 2 ** (b // 2))))


# ---------------------------------------------------------------------------
# arrival processes


class TestArrivalProcesses:
    @given(
        seed=st.integers(0, 10**6),
        process=st.sampled_from(("poisson", "lognormal", "diurnal")),
    )
    @settings(max_examples=20, deadline=None)
    def test_same_seed_same_stream(self, seed, process):
        a = make_arrivals(process, 40, 500.0, seed=seed)
        b = make_arrivals(process, 40, 500.0, seed=seed)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) >= 0.0) and a[-1] > 0.0

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_lognormal_hits_target_rate(self, seed):
        rate = 200.0
        arr = make_arrivals("lognormal", 2500, rate, seed=seed)
        empirical = 2500 / float(arr[-1])
        assert abs(empirical - rate) / rate < 0.25

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_diurnal_hits_target_rate(self, seed):
        rate = 200.0
        arr = make_arrivals("diurnal", 1200, rate, seed=seed, period=1.0, depth=0.8)
        empirical = 1200 / float(arr[-1])
        assert abs(empirical - rate) / rate < 0.25

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_poisson_hits_target_rate(self, seed):
        rate = 1000.0
        arr = poisson_arrivals(4000, rate, seed=seed)
        empirical = 4000 / float(arr[-1])
        assert abs(empirical - rate) / rate < 0.10

    def test_poisson_rate_zero_is_burst(self):
        np.testing.assert_array_equal(poisson_arrivals(5, 0.0), np.zeros(5))

    def test_unknown_process_rejected(self):
        with pytest.raises(ParameterError):
            make_arrivals("weibull", 10, 1.0)

    def test_lognormal_heavier_tail_than_poisson(self):
        """Same mean rate, but the sigma=1 gaps have a larger max/mean."""
        rate = 100.0
        pois = np.diff(poisson_arrivals(4000, rate, seed=0), prepend=0.0)
        logn = np.diff(
            make_arrivals("lognormal", 4000, rate, seed=0, sigma=1.0), prepend=0.0
        )
        assert np.std(logn) / np.mean(logn) > np.std(pois) / np.mean(pois)


class TestSyntheticStream:
    def test_defaults_match_poisson_stream(self):
        """The historical generator delegates here: bit-identical output."""
        old = poisson_stream(12, rate=5e4, seed=7)
        new = synthetic_stream(12, rate=5e4, seed=7)
        assert [(s.n, s.k, s.arrival, s.seed) for s in old] == [
            (s.n, s.k, s.arrival, s.seed) for s in new
        ]
        assert all(s.priority == 0 and s.deadline is None for s in new)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(count=20, rate=0.0, seed=3),  # the burst: no arrival draw
            dict(count=12, rate=5e4, seed=7),
            dict(count=50, rate=2e5, n_range=(32, 128), k_range=(4, 16), seed=0),
        ],
        ids=["burst", "rate5e4", "rate2e5"],
    )
    def test_poisson_stream_is_synthetic_stream(self, kw):
        """One stream generator: ``poisson_stream`` is its Poisson defaults,
        and the values are the pinned historical draws (arrivals first,
        then n and k per entry, all from one generator)."""
        stream = poisson_stream(**kw)
        assert stream == synthetic_stream(**kw)
        rng = np.random.default_rng(kw["seed"])
        if kw["rate"] > 0.0:
            arrivals = np.cumsum(rng.exponential(1.0 / kw["rate"], size=kw["count"]))
            assert [s.arrival for s in stream] == arrivals.tolist()
        else:
            assert all(s.arrival == 0.0 for s in stream)
        lo, hi = kw.get("n_range", (64, 256))
        ns = [v for v in (2**e for e in range(12)) if lo <= v <= hi]
        assert stream[0].n == int(rng.choice(ns))

    def test_uniform_priority_does_not_disturb_draws(self):
        """A single non-zero class must not consume extra RNG draws."""
        base = synthetic_stream(10, rate=5e4, seed=3)
        shifted = synthetic_stream(10, rate=5e4, seed=3, priorities=(7,))
        assert [(s.n, s.k, s.arrival) for s in base] == [
            (s.n, s.k, s.arrival) for s in shifted
        ]
        assert all(s.priority == 7 for s in shifted)

    def test_tenants_priorities_and_deadlines(self):
        stream = synthetic_stream(
            9,
            rate=1e5,
            seed=0,
            tenants=("a", "b", "c"),
            priorities=(0, 1, 2),
            deadline_slack=3e-4,
        )
        assert [s.tenant for s in stream] == ["a", "b", "c"] * 3
        assert {s.priority for s in stream} <= {0, 1, 2}
        for s in stream:
            assert s.deadline == pytest.approx(s.arrival + 3e-4)


# ---------------------------------------------------------------------------
# admission control


class Req:
    __slots__ = ("priority", "tenant", "i")

    def __init__(self, priority: int, tenant: str, i: int):
        self.priority = priority
        self.tenant = tenant
        self.i = i


OFFERS = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(("a", "b", "c"))),
    min_size=1,
    max_size=40,
)


class TestTokenBucket:
    def test_starts_full_then_refills(self):
        b = TokenBucket(rate=2.0, burst=3.0)
        assert [b.try_take(0.0) for _ in range(4)] == [True, True, True, False]
        assert b.next_available(0.0) == pytest.approx(0.5)
        assert b.try_take(0.6)

    def test_validation(self):
        with pytest.raises(ParameterError):
            TokenBucket(rate=0.0, burst=2.0)
        with pytest.raises(ParameterError):
            TokenBucket(rate=1.0, burst=0.5)

    @given(
        rate=st.floats(0.1, 100.0),
        burst=st.floats(1.0, 16.0),
        gaps=st.lists(st.floats(0.0, 5.0), max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_token_count_stays_bounded(self, rate, burst, gaps):
        b = TokenBucket(rate=rate, burst=burst)
        t = 0.0
        for gap in gaps:
            t += gap
            b.try_take(t)
            assert 0.0 <= b.tokens <= burst
            assert b.next_available(t) >= t


class TestAdmissionInvariants:
    @given(items=OFFERS)
    @settings(max_examples=50, deadline=None)
    def test_drain_is_priority_then_fifo(self, items):
        """Higher classes first; strictly FIFO within a class."""
        ctrl = AdmissionController(AdmissionConfig(max_queue_depth=4096))
        reqs = [Req(p, t, i) for i, (p, t) in enumerate(items)]
        for r in reqs:
            assert isinstance(ctrl.offer(r, now=0.0), Admitted)
        drained = ctrl.drain()
        # Req.i is the offer index, and every offer was admitted: seq == i
        assert drained == [(r.i, r) for r in sorted(reqs, key=lambda r: (-r.priority, r.i))]
        assert ctrl.pending() == 0

    @given(items=OFFERS, split=st.integers(0, 40))
    @settings(max_examples=50, deadline=None)
    def test_every_admitted_request_drains_exactly_once(self, items, split):
        """No starvation: interleaved drains hand over everything admitted."""
        ctrl = AdmissionController()
        reqs = [Req(p, t, i) for i, (p, t) in enumerate(items)]
        first, second = reqs[:split], reqs[split:]
        for r in first:
            ctrl.offer(r, now=0.0)
        drained = list(ctrl.drain())
        for r in second:
            ctrl.offer(r, now=1.0)
        drained += ctrl.drain()
        assert sorted(r.i for _seq, r in drained) == list(range(len(reqs)))
        assert sorted(seq for seq, _r in drained) == list(range(len(reqs)))
        assert ctrl.pending() == 0

    @given(items=OFFERS, depth=st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_rejects_never_reach_the_scheduler(self, items, depth):
        ctrl = AdmissionController(AdmissionConfig(max_queue_depth=depth))
        reqs = [Req(p, t, i) for i, (p, t) in enumerate(items)]
        admitted, rejected = [], []
        for r in reqs:
            decision = ctrl.offer(r, now=0.0)
            (admitted if isinstance(decision, Admitted) else rejected).append(r)
        drained = [r for _seq, r in ctrl.drain()]
        assert set(r.i for r in drained) == set(r.i for r in admitted)
        assert not set(r.i for r in drained) & set(r.i for r in rejected)
        stats = ctrl.stats()
        assert stats["admitted"] == len(admitted)
        assert stats["rejected"] == len(rejected)
        if rejected:
            assert stats["reject_reasons"]["queue_full"] == len(rejected)

    def test_rate_limit_defers_then_readmits(self):
        ctrl = AdmissionController(AdmissionConfig(rate=1.0, burst=2.0))
        assert isinstance(ctrl.offer(Req(0, "a", 0), now=0.0), Admitted)
        assert isinstance(ctrl.offer(Req(0, "a", 1), now=0.0), Admitted)
        d = ctrl.offer(Req(0, "a", 2), now=0.0)
        assert isinstance(d, Deferred)
        assert d.retry_at == pytest.approx(1.0)
        assert isinstance(ctrl.offer(Req(0, "a", 3), now=d.retry_at), Admitted)

    def test_rate_limit_hard_reject_mode(self):
        ctrl = AdmissionController(
            AdmissionConfig(rate=1.0, burst=1.0, defer_on_rate=False)
        )
        ctrl.offer(Req(0, "a", 0), now=0.0)
        d = ctrl.offer(Req(0, "a", 1), now=0.0)
        assert isinstance(d, Rejected) and d.reason == "rate_limited"

    def test_tenant_buckets_are_isolated(self):
        """One tenant's flood spends only its own tokens."""
        ctrl = AdmissionController(AdmissionConfig(rate=1.0, burst=1.0))
        assert isinstance(ctrl.offer(Req(0, "a", 0), now=0.0), Admitted)
        assert isinstance(ctrl.offer(Req(0, "a", 1), now=0.0), Deferred)
        assert isinstance(ctrl.offer(Req(0, "b", 2), now=0.0), Admitted)

    def test_clock_must_be_monotone(self):
        ctrl = AdmissionController()
        ctrl.offer(Req(0, "a", 0), now=1.0)
        with pytest.raises(ParameterError):
            ctrl.offer(Req(0, "a", 1), now=0.5)


# ---------------------------------------------------------------------------
# priority classes and SLA deadlines in the policy layer


class FakeReq:
    """Minimal SchedulableRequest with online fields."""

    def __init__(self, seconds, arrival=0.0, priority=0, deadline=None):
        self.seconds = dict(seconds)
        self.arrival = arrival
        self.priority = priority
        self.deadline = deadline

    def candidate_sizes(self, capacity):
        return [s for s in self.seconds if s <= capacity]

    def modeled_cost(self, size, params):
        return Cost(0.0, 0.0, self.seconds[size])

    def staging_targets(self, grid, params):
        return ()


def start_order(schedule):
    return [a.index for a in sorted(schedule.assignments, key=lambda a: a.start)]


class TestPriorityScheduling:
    def test_higher_class_runs_first(self):
        """Full-pool requests serialize, so order is visible directly."""
        reqs = [FakeReq({16: 1.0}, priority=p) for p in (0, 2, 1)]
        schedule = Scheduler(make_pool(16), UNIT).schedule(reqs)
        assert start_order(schedule) == [1, 2, 0]

    def test_edf_within_a_class(self):
        """Same class: earliest deadline first, best-effort (None) last."""
        reqs = [
            FakeReq({16: 1.0}, priority=1, deadline=5.0),
            FakeReq({16: 1.0}, priority=1, deadline=2.0),
            FakeReq({16: 1.0}, priority=1, deadline=None),
        ]
        schedule = Scheduler(make_pool(16), UNIT).schedule(reqs)
        assert start_order(schedule) == [1, 0, 2]

    @pytest.mark.parametrize("policy", ["lpt", "horizon"])
    def test_uniform_priority_shift_is_parity_neutral(self, policy):
        """Offline parity: one class is one class, whatever its number."""

        def stream(priority):
            rng = np.random.default_rng(11)
            reqs = []
            for _ in range(10):
                ss = sorted(
                    rng.choice([1, 2, 4, 8, 16], size=rng.integers(1, 4), replace=False)
                )
                base = float(rng.uniform(0.5, 4.0))
                secs = {int(s): base * (16 / s) ** 0.5 for s in ss}
                reqs.append(
                    FakeReq(secs, arrival=float(rng.uniform(0, 4.0)), priority=priority)
                )
            return reqs

        if policy == "horizon":  # a small search keeps the case quick
            policy = HorizonPolicy(window=4, node_budget=2_000)
        a = Scheduler(make_pool(16), UNIT, policy=policy).schedule(stream(0))
        b = Scheduler(make_pool(16), UNIT, policy=policy).schedule(stream(9))
        assert [
            (x.index, x.size, x.start, x.finish) for x in a.assignments
        ] == [(x.index, x.size, x.start, x.finish) for x in b.assignments]

    def test_late_higher_class_starts_first_running_never_revoked(self):
        """A later, higher-class arrival overtakes the queued request that
        arrived before it, never the running one."""
        reqs = [
            FakeReq({16: 10.0}, arrival=0.0, priority=0),  # running head
            FakeReq({16: 10.0}, arrival=1.0, priority=0),  # queued behind it
            FakeReq({16: 1.0}, arrival=2.0, priority=5),  # jumps the queue
        ]
        schedule = Scheduler(make_pool(16), UNIT, policy="lpt").schedule(reqs)
        by_index = {a.index: a for a in schedule.assignments}
        assert (by_index[0].start, by_index[0].finish) == (0.0, 10.0)
        assert by_index[2].start == pytest.approx(10.0)
        assert by_index[1].start == pytest.approx(11.0)


# ---------------------------------------------------------------------------
# latency percentiles and SLA accounting


class TestLatencyAndSla:
    def test_nearest_rank_percentiles(self):
        data = [float(i) for i in range(1, 101)]
        pct = latency_percentiles(data)
        assert pct == {50.0: 50.0, 95.0: 95.0, 99.0: 99.0}

    def test_empty_and_singleton(self):
        assert latency_percentiles([]) == {50.0: 0.0, 95.0: 0.0, 99.0: 0.0}
        assert latency_percentiles([3.0]) == {50.0: 3.0, 95.0: 3.0, 99.0: 3.0}

    @given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_percentiles_are_order_statistics(self, data):
        pct = latency_percentiles(data)
        values = [pct[50.0], pct[95.0], pct[99.0]]
        assert all(v in data for v in values)
        assert values == sorted(values)

    def test_replay_sla_summary(self):
        generous = replay(
            synthetic_stream(6, rate=1e5, seed=2, deadline_slack=1e9), p=16
        )
        assert generous.sla_summary() == {"met": 6, "missed": 0, "best_effort": 0}
        hopeless = replay(
            synthetic_stream(6, rate=1e5, seed=2, deadline_slack=0.0), p=16
        )
        assert hopeless.sla_summary() == {"met": 0, "missed": 6, "best_effort": 0}
        default = replay(synthetic_stream(6, rate=1e5, seed=2), p=16)
        assert default.sla_summary() == {"met": 0, "missed": 0, "best_effort": 6}
        assert all(v >= 0.0 for v in default.latencies())


# ---------------------------------------------------------------------------
# the daemon, in virtual time


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def advance(self, dt: float) -> None:
        self.t += dt

    def __call__(self) -> float:
        return self.t


def daemon(batch=8, admission=None, **kw):
    config = DaemonConfig(
        p=16, batch=batch, time_scale=1.0, admission=admission, **kw
    )
    return ServeDaemon(config, clock=FakeClock())


#: one spelling of every JSON value class a client can put in a field
#: (``1e999`` parses to ``inf``; 2**70 overflows no Python int but any
#: fixed-width one; 10**400 overflows a float, so ``float()`` raises)
FIELD_VALUES = (
    "true", "null", "-3", "2.7", "1e999", "NaN", str(2**70), str(10**400),
    '"x"', "[]", "{}",
)


@st.composite
def trsm_lines(draw):
    """A ``trsm`` line: valid small shape, then any subset of the fields
    overwritten by a drawn :data:`FIELD_VALUES` spelling (none = valid)."""
    fields = {"n": "32", "k": "4", "seed": "0", "priority": "0", "sla": "1e9"}
    names = ["n", "k", "seed", "priority", "sla", "deadline", "tenant"]
    for name in draw(st.lists(st.sampled_from(names), unique=True, max_size=3)):
        fields[name] = draw(st.sampled_from(FIELD_VALUES))
    body = ", ".join(f'"{name}": {value}' for name, value in fields.items())
    return '{"op": "trsm", ' + body + "}"


class TestDaemon:
    def test_trsm_round_trip_and_auto_flush(self):
        d = daemon(batch=2)
        first = d.handle('{"op": "trsm", "n": 64, "k": 4, "sla": 1e9}')
        assert first["ok"] and first["decision"] == "admitted" and first["rid"] == 0
        assert "flushed" not in first
        second = d.handle('{"op": "trsm", "n": 64, "k": 4, "sla": 1e9}')
        flushed = second["flushed"]
        assert flushed["completed"] == 2
        assert {r["rid"] for r in flushed["results"]} == {0, 1}
        assert all(r["sla_met"] for r in flushed["results"])
        assert flushed["makespan_seconds"] > 0.0
        assert set(flushed["latency"]) == {"p50", "p95", "p99"}

    def test_sla_missed_is_reported(self):
        d = daemon(batch=1)
        out = d.handle('{"op": "trsm", "n": 64, "k": 4, "sla": 0.0}')
        assert out["flushed"]["results"][0]["sla_met"] is False

    def test_rejected_requests_never_run(self):
        d = daemon(batch=8, admission=AdmissionConfig(max_queue_depth=1))
        assert d.handle('{"op": "trsm", "n": 64}')["decision"] == "admitted"
        second = d.handle('{"op": "trsm", "n": 64}')
        assert second["decision"] == "rejected" and second["reason"] == "queue_full"
        flushed = d.handle('{"op": "flush"}')
        assert flushed["completed"] == 1
        stats = d.handle('{"op": "stats"}')
        assert stats["admission"]["rejected"] == 1
        assert stats["completed"] == 1

    def test_telemetry_snapshot_shape(self):
        d = daemon(batch=1)
        d.handle('{"op": "trsm", "n": 64, "k": 4}')
        t = d.handle('{"op": "stats"}')
        for key in (
            "sim_time",
            "completed",
            "flushes",
            "admission",
            "latency",
            "sla",
            "occupancy",
            "throughput_rps",
            "staging_cache",
            "pricing_memo",
            "plan_cache",
        ):
            assert key in t
        assert t["throughput_rps"] > 0.0
        assert t["plan_cache"]["hits"] + t["plan_cache"]["misses"] >= 0

    def test_virtual_clock_drives_sim_time(self):
        clock = FakeClock()
        d = ServeDaemon(DaemonConfig(p=16, time_scale=0.5), clock=clock)
        clock.advance(4.0)
        assert d.sim_now() == pytest.approx(2.0)
        clock.t = 1.0  # a coarse clock stepping backwards must not leak
        assert d.sim_now() == pytest.approx(2.0)

    def test_protocol_errors_are_typed(self):
        d = daemon()
        assert d.handle("not json")["ok"] is False
        # an integer literal past Python's int-string digit limit makes
        # json.loads raise a plain ValueError, not JSONDecodeError
        huge = d.handle('{"op": "trsm", "n": 1' + "0" * 5000 + "}")
        assert huge["ok"] is False and "bad JSON" in huge["error"]
        assert d.handle('{"no_op": 1}')["ok"] is False
        assert d.handle('{"op": "warp"}')["ok"] is False
        bad = d.handle('{"op": "trsm"}')  # missing n
        assert bad["ok"] is False and "KeyError" in bad["error"]

    def test_bad_shape_is_refused_before_admission(self):
        """Regression: ``k=0`` / ``n<=0`` — and, until PR 14, ``seed=-1``
        (``ValueError`` out of the operand generator) or a non-finite
        ``sla``/``deadline`` — used to be admitted (token spent, rid handed
        out) and then failed the next flush for the whole batch, so its
        valid neighbours were drained and never ran."""
        d = daemon(batch=8, verify=True)
        assert d.handle('{"op": "trsm", "n": 64, "k": 8}')["decision"] == "admitted"
        for bad in (
            '{"op": "trsm", "n": 64, "k": 0}',
            '{"op": "trsm", "n": 0, "k": 4}',
            '{"op": "trsm", "n": -3}',
            '{"op": "trsm", "n": 64, "k": 8, "seed": -1}',
            '{"op": "trsm", "n": 64, "k": 8, "sla": NaN}',
            '{"op": "trsm", "n": 64, "k": 8, "sla": Infinity}',
            '{"op": "trsm", "n": 64, "k": 8, "deadline": -Infinity}',
            # PR 15: admitted, these died in the flush (MemoryError is not
            # a typed refusal) or ran as a different solve than asked for
            '{"op": "trsm", "n": 10000000, "k": 8}',
            '{"op": "trsm", "n": 4096, "k": 1}',
            '{"op": "trsm", "n": true, "k": 8}',
            '{"op": "trsm", "n": 32.9, "k": 8}',
            '{"op": "trsm", "n": 64, "k": 8.5}',
            '{"op": "trsm", "n": Infinity, "k": 8}',
            # PR 16: OverflowError out of int(inf) killed the line loop;
            # 2.7 ran as seed 2 and true was admitted as priority class 1
            '{"op": "trsm", "n": 64, "k": 8, "priority": 1e999}',
            '{"op": "trsm", "n": 64, "k": 8, "seed": 1e999}',
            '{"op": "trsm", "n": 64, "k": 8, "seed": 2.7}',
            '{"op": "trsm", "n": 64, "k": 8, "priority": true}',
            # OverflowError out of float() on an integer past the float
            # range killed the line loop
            '{"op": "trsm", "n": 64, "k": 8, "sla": 1' + "0" * 400 + "}",
            '{"op": "trsm", "n": 64, "k": 8, "deadline": 1' + "0" * 400 + "}",
        ):
            out = d.handle(bad)
            assert out["ok"] is False and out["op"] == "trsm"
            assert "ParameterError" in out["error"]
        assert d.handle('{"op": "trsm", "n": 32.0, "k": 4}')["decision"] == "admitted"
        assert d.admission.stats()["admitted"] == 2
        assert d.admission.pending() == 2
        flushed = d.handle('{"op": "flush"}')
        assert flushed["ok"] and flushed["completed"] == 2
        assert {r["rid"] for r in flushed["results"]} == {0, 1}
        assert all(r["residual"] < 1e-10 for r in flushed["results"])
        assert d.handle('{"op": "stats"}')["completed"] == 2

    @given(st.lists(trsm_lines(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_any_field_value_gets_a_typed_response(self, lines):
        """Generated, not hand-found: whatever JSON value lands in a
        ``trsm`` field, the line is answered (never a traceback), and
        exactly the admitted lines are served."""
        d = daemon(batch=4)
        outs = [d.handle(line) for line in lines + ['{"op": "shutdown"}']]
        assert all(isinstance(o, dict) and "ok" in o for o in outs)
        admitted = sum(o.get("decision") == "admitted" for o in outs)
        assert outs[-1]["ok"] and outs[-1]["completed"] == admitted

    def test_shutdown_flushes_and_stops(self):
        d = daemon(batch=8)
        d.handle('{"op": "trsm", "n": 64}')
        out = d.handle('{"op": "shutdown"}')
        assert out["ok"] and out["final_flush"]["completed"] == 1
        assert d.stopped

    def test_run_stdin_line_protocol(self):
        lines = "\n".join(
            [
                json.dumps({"op": "trsm", "n": 64, "k": 4, "sla": 1e9}),
                json.dumps({"op": "shutdown"}),
            ]
        )
        fout = io.StringIO()
        processed = daemon(batch=8).run_stdin(io.StringIO(lines + "\n"), fout)
        assert processed == 2
        out = [json.loads(x) for x in fout.getvalue().splitlines()]
        assert out[0]["decision"] == "admitted"
        shutdown = next(o for o in out if o.get("op") == "shutdown")
        assert shutdown["final_flush"]["completed"] == 1

    def test_run_stdin_eof_final_flush(self):
        fout = io.StringIO()
        line = json.dumps({"op": "trsm", "n": 64}) + "\n"
        daemon(batch=8).run_stdin(io.StringIO(line), fout)
        out = [json.loads(x) for x in fout.getvalue().splitlines()]
        flush = next(o for o in out if o.get("op") == "flush")
        assert flush["completed"] == 1
        assert out[-1]["op"] == "telemetry"

    def test_serve_unix_runs_the_stdin_line_loop(self, tmp_path):
        """One socket round-trip gives the responses ``run_stdin`` gives."""
        import socket
        import threading
        import time

        lines = [
            json.dumps({"op": "trsm", "n": 64, "k": 4, "sla": 1e9}),
            json.dumps({"op": "trsm", "n": 32, "k": 8, "priority": 1}),
            json.dumps({"op": "stats"}),
            json.dumps({"op": "shutdown"}),
        ]
        text = "\n".join(lines) + "\n"
        fout = io.StringIO()
        clear_plan_cache()  # telemetry reports the process-wide plan LRU
        assert daemon(batch=2).run_stdin(io.StringIO(text), fout) == 4

        path = str(tmp_path / "daemon.sock")
        d = daemon(batch=2)
        clear_plan_cache()
        served = []
        server = threading.Thread(
            target=lambda: served.append(d.serve_unix(path, accept_timeout=0.05)),
            daemon=True,  # a wedged accept loop must fail the test, not hang it
        )
        server.start()
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.settimeout(10.0)
            for _ in range(200):  # wait for the daemon to bind
                try:
                    conn.connect(path)
                    break
                except OSError:
                    time.sleep(0.01)
            conn.sendall(text.encode("utf-8"))
            with conn.makefile("r", encoding="utf-8") as reader:
                received = list(reader)  # until the daemon hangs up
        server.join(timeout=10)
        assert not server.is_alive() and d.stopped and served == [4]
        assert "".join(received) == fout.getvalue()
        out = [json.loads(x) for x in received]
        assert [o["op"] for o in out] == ["trsm", "trsm", "telemetry", "stats", "shutdown"]
        assert out[1]["flushed"]["completed"] == 2 and out[-1]["completed"] == 2

    @pytest.mark.parametrize("process", ["poisson", "lognormal", "diurnal"])
    def test_load_test_completes_the_offered_count(self, process):
        """Arrival shapes move the latency tail, never the completion
        count: with no admission limits everything offered runs."""
        summary = daemon(batch=4).run_load_test(
            12, rate=2e4, process=process, n_range=(64, 128), k_range=(8, 32), seed=0
        )
        assert summary["offered"] == summary["completed"] == 12
        assert summary["rejected"] == 0 and summary["deferred"] == 0
        assert summary["admission"]["admitted"] == 12 and summary["queued"] == 0

    def test_load_test_is_reproducible(self):
        def run():
            summary = daemon(batch=4).run_load_test(
                8, rate=2e4, process="lognormal", seed=5, deadline_slack=1e9
            )
            return (
                summary["offered"],
                summary["completed"],
                summary["latency"],
                summary["sla"],
            )

        first, second = run(), run()
        assert first == second
        assert first[0] == first[1] == 8
        assert first[3] == {"met": 8, "missed": 0}

    def test_load_test_respects_admission(self):
        summary = daemon(
            batch=4, admission=AdmissionConfig(rate=1e3, burst=1.0, defer_on_rate=False)
        ).run_load_test(12, rate=1e6, seed=0)
        assert summary["offered"] == 12
        assert summary["rejected"] > 0
        assert summary["completed"] == 12 - summary["rejected"]

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            DaemonConfig(batch=0)
        with pytest.raises(ParameterError):
            DaemonConfig(time_scale=0.0)
        # an auto-flushed batch longer than the exhaustive search's window
        # could never be scheduled
        with pytest.raises(ParameterError, match="batch=9"):
            DaemonConfig(policy="optimal", batch=9)
        assert DaemonConfig(policy="optimal", batch=8).batch == 8
        assert DaemonConfig(policy="horizon", batch=64).batch == 64
