"""The six workloads: inputs from a seed, one timed pass, checked outputs.

Each workload has three steps the child process (``run.py --child``)
calls in order: :meth:`Workload.build` makes the inputs from a seed
(set-up time), :meth:`Workload.run` is the timed pass and touches only the
program's public API, :meth:`Workload.evaluate` checks the outputs and
reduces them to metrics afterwards.  Sizes are fixed per workload (about
four host seconds a pass on the 2-core box this was sized on; see
README.md for why each differs from a plain copy of the ISSUE's sizes), so
every simulated number is a function of the seed alone.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api.cluster import ClusterOutcome
from repro.api.online import AdmissionConfig, DaemonConfig, ServeDaemon
from repro.api.online.arrivals import synthetic_stream
from repro.api.requests import InvRequest, PreparedSolveRequest
from repro.api.serve import StreamRequest, poisson_stream, replay, schedule_stream
from repro.dist.routing import plan_cache_stats
from repro.machine.cost import CostParams
from repro.sched.policies import HorizonPolicy
from repro.sched.scheduler import Schedule
from repro.trsm.prepared import PreparedTrsm
from repro.trsm.solver import trsm
from repro.util.randmat import random_dense, random_lower_triangular

from perf.checks import Placement, hexf, schedule_failures, sim_digest, solve_failure
from perf.stats import highest_supported_percentile, nearest_rank

#: on workloads that run with ``verify=False`` the harness re-checks this
#: share of the records itself (every RECHECK_EVERY-th)
RECHECK_EVERY = 10

PARAMS = CostParams()


@dataclass(slots=True)
class Pass:
    """What one timed pass returned, before any checking."""

    seconds: float
    attempted: int
    raw: object
    #: host seconds of operations timed one by one (closed-loop workloads)
    op_seconds: list[float] = field(default_factory=list)


@dataclass(slots=True)
class Evaluation:
    """Checked outputs of one pass, reduced to numbers."""

    failed: int
    failures: list[str]
    #: simulated-clock end-to-end metrics (only the ones this workload defines)
    sim: dict[str, float]
    #: counter-derived per-layer metrics (exact, from the program's own counters)
    counters: dict[str, float]
    digest: str


@dataclass(slots=True)
class Batch:
    """One ``Cluster.run``, reduced to what metrics and checks need."""

    measured_makespan: float
    modeled_makespan: float
    busy_rank_seconds: float
    capacity: int
    staging_hits: int
    staging_misses: int
    pricing_hits: int
    pricing_misses: int
    latencies: list[float]
    sla_missed: int
    placements: list[Placement]
    rows: list[tuple]

    @classmethod
    def of(cls, outcome: ClusterOutcome) -> "Batch":
        placements, rows = [], []
        for r in outcome.records:
            ranks = tuple(int(x) for x in r.grid.ranks())
            placements.append(Placement(r.rid, r.arrival, r.modeled_start, r.modeled_finish, ranks))
            rows.append(
                (
                    r.rid,
                    r.size,
                    hexf(r.modeled_start),
                    hexf(r.modeled_finish),
                    ranks,
                    hexf(r.measured.S),
                    hexf(r.measured.W),
                    hexf(r.measured.F),
                    hexf(r.measured_finish),
                )
            )
        return cls(
            measured_makespan=outcome.measured_makespan,
            modeled_makespan=outcome.modeled_makespan,
            busy_rank_seconds=outcome.occupancy * outcome.p * outcome.modeled_makespan,
            capacity=outcome.p,
            staging_hits=outcome.staging_hits,
            staging_misses=outcome.staging_misses,
            pricing_hits=outcome.pricing_hits,
            pricing_misses=outcome.pricing_misses,
            latencies=outcome.latencies(),
            sla_missed=outcome.sla_summary()["missed"],
            placements=placements,
            rows=rows,
        )


def _share(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _gap_pct(measured: float, modeled: float) -> float:
    return 100.0 * abs(measured - modeled) / measured


def _plan_cache_counters(before: dict, after: dict) -> dict[str, float]:
    return {
        "dist.plan_cache_hit_share": _share(
            after["hits"] - before["hits"], after["misses"] - before["misses"]
        ),
        "dist.plan_cache_entries": after["entries"],
    }


def _batch_metrics(batches: list[Batch]) -> tuple[dict[str, float], dict[str, float]]:
    """Sim metrics and scheduler/cache counters of the executed batches."""
    measured = sum(b.measured_makespan for b in batches)
    modeled = sum(b.modeled_makespan for b in batches)
    latencies = [x for b in batches for x in b.latencies]
    sim = {
        "sim_makespan_us": measured * 1e6,
        "sim_latency_p50_us": nearest_rank(latencies, 50.0) * 1e6,
        "sim_latency_p95_us": nearest_rank(latencies, 95.0) * 1e6,
        "model_gap_pct": _gap_pct(measured, modeled),
    }
    counters = {
        "api.stage_hit_share": _share(
            sum(b.staging_hits for b in batches), sum(b.staging_misses for b in batches)
        ),
        "sched.pricing_hit_share": _share(
            sum(b.pricing_hits for b in batches), sum(b.pricing_misses for b in batches)
        ),
        "sched.plan_makespan_us": modeled * 1e6,
        "sched.occupancy": sum(b.busy_rank_seconds for b in batches)
        / sum(b.capacity * b.modeled_makespan for b in batches),
    }
    return sim, counters


class Workload:
    """Base: the name, the reason it exists, and the three steps."""

    name = ""
    why = ""
    loop = ""
    #: what one operation is (the unit of host_rps and failed_share)
    operation = ""
    #: host seconds one timed pass takes on the sizing box
    pass_seconds = 4.0

    def build(self, seed: int, warm: bool) -> object:
        raise NotImplementedError

    def run(self, inputs: object) -> Pass:
        raise NotImplementedError

    def evaluate(self, inputs: object, done: Pass) -> Evaluation:
        raise NotImplementedError


# -- solve_regimes ----------------------------------------------------------


@dataclass(slots=True)
class _SolveInputs:
    #: (n, k, p, L, B) per shape; each is solved iteratively, then recursively
    problems: list[tuple]
    prepared_p: int
    prepared_L: np.ndarray
    prepared_Bs: list[np.ndarray]


class SolveRegimes(Workload):
    name = "solve_regimes"
    why = (
        "The paper's own use: full-machine solves in all three regimes, It-Inv-TRSM vs "
        "Rec-TRSM, then invert-once/solve-many. Kernels, dist and machine do the work; "
        "sched and api.online do none."
    )
    loop = "closed, 1 caller"
    operation = "one solve"
    pass_seconds = 7.5

    SHAPES = (
        (1024, 64, 64),
        (2048, 8, 64),
        (64, 4096, 64),
        (1024, 1024, 16),
        (512, 128, 64),
        (256, 32, 16),
    )
    WARM_SHAPES = ((256, 32, 16), (1024, 64, 64))
    K_HINT = 64

    def build(self, seed: int, warm: bool) -> _SolveInputs:
        rng = np.random.default_rng(seed)
        base = seed * 1000
        problems = [
            (
                n,
                k,
                p,
                random_lower_triangular(n, seed=base + 2 * i),
                random_dense(n, k, seed=base + 2 * i + 1),
            )
            for i, (n, k, p) in enumerate(self.WARM_SHAPES if warm else self.SHAPES)
        ]
        # the right-hand-side counts of the prepared solves are the one part of
        # this workload's shape that comes from the seed
        n, solves = (256, 1) if warm else (1024, 4)
        ks = [16 * int(x) for x in rng.integers(2, 9, size=solves)]
        return _SolveInputs(
            problems=problems,
            prepared_p=64,
            prepared_L=random_lower_triangular(n, seed=base + 100),
            prepared_Bs=[random_dense(n, k, seed=base + 101 + j) for j, k in enumerate(ks)],
        )

    def run(self, inputs: _SolveInputs) -> Pass:
        results: list = []
        op_seconds: list[float] = []

        def timed(fn):
            start = time.perf_counter()
            try:
                out = fn()
            except Exception as e:  # a raised solve is a failed operation
                out = e
            op_seconds.append(time.perf_counter() - start)
            return out

        for n, k, p, L, B in inputs.problems:
            for algorithm in ("iterative", "recursive"):
                results.append(timed(lambda: trsm(L, B, p=p, algorithm=algorithm, verify=True)))
        prepared = timed(
            lambda: PreparedTrsm(inputs.prepared_L, p=inputs.prepared_p, k_hint=self.K_HINT)
        )
        results.append(prepared)
        for B in inputs.prepared_Bs:
            if isinstance(prepared, Exception):
                results.append(prepared)
                op_seconds.append(0.0)
                continue
            X = timed(lambda: prepared.solve(B, verify=True))
            cost = (prepared.last_solve_cost, prepared.last_solve_time)
            results.append(X if isinstance(X, Exception) else (X, *cost))
        return Pass(sum(op_seconds), len(results), results, op_seconds)

    def evaluate(self, inputs: _SolveInputs, done: Pass) -> Evaluation:
        failures: list[str] = []
        rows: list[tuple] = []
        measured = modeled = 0.0
        it_inv_S = rec_S = 0.0

        def account(i: int, p: int, cost, seconds: float, model_seconds: float) -> None:
            nonlocal measured, modeled
            measured += seconds
            modeled += model_seconds
            rows.append((i, p, hexf(cost.S), hexf(cost.W), hexf(cost.F), hexf(seconds)))

        results = list(done.raw)
        i = 0
        for n, k, p, L, B in inputs.problems:
            for algorithm in ("iterative", "recursive"):
                r = results[i]
                if isinstance(r, Exception):
                    failures.append(f"solve {i} ({n},{k},{p},{algorithm}) raised {r!r}")
                else:
                    why = solve_failure(r.X, r.residual, lambda: (L, B))
                    if why:
                        failures.append(f"solve {i} ({n},{k},{p},{algorithm}): {why}")
                    account(i, p, r.measured, r.time, r.modeled.time(PARAMS))
                    if algorithm == "iterative":
                        it_inv_S += r.measured.S
                    else:
                        rec_S += r.measured.S
                i += 1
        prepared, p = results[i], inputs.prepared_p
        if isinstance(prepared, Exception):
            failures.append(f"solve {i} (prepare) raised {prepared!r}")
            skipped = range(i + 1, i + 1 + len(inputs.prepared_Bs))
            failures += [f"solve {j} skipped: no prepared factor" for j in skipped]
        else:
            inv = InvRequest(L=prepared.L, n0=prepared.choice.n0, k_hint=self.K_HINT, sizes=(p,))
            account(
                i,
                p,
                prepared.preparation_cost,
                prepared.preparation_time,
                inv.modeled_cost(p, PARAMS).time(PARAMS),
            )
            it_inv_S += prepared.preparation_cost.S
            for j, B in enumerate(inputs.prepared_Bs):
                r = results[i + 1 + j]
                if isinstance(r, Exception):
                    failures.append(f"solve {i + 1 + j} (prepared) raised {r!r}")
                    continue
                X, cost, seconds = r
                why = solve_failure(X, None, lambda: (prepared.L, B))
                if why:
                    failures.append(f"solve {i + 1 + j} (prepared): {why}")
                req = PreparedSolveRequest(prepared=prepared, B=B, sizes=(p,))
                account(i + 1 + j, p, cost, seconds, req.modeled_cost(p, PARAMS).time(PARAMS))
                it_inv_S += cost.S
        sim = {"sim_makespan_us": measured * 1e6, "sim_sync_S": it_inv_S}
        if measured:
            sim["model_gap_pct"] = _gap_pct(measured, modeled)
        counters = {"trsm.rec_sim_S": rec_S, "sched.plan_makespan_us": modeled * 1e6}
        return Evaluation(len(failures), failures, sim, counters, sim_digest(rows))


# -- serve_unshared / serve_shared --------------------------------------------


@dataclass(slots=True)
class _ServeRaw:
    outcome: ClusterOutcome | Exception
    plan_cache: tuple[dict, dict]


class _Serve(Workload):
    """A Poisson stream replayed to completion on one Cluster (batch loop)."""

    loop = "batch: all submitted, one Cluster.run"
    operation = "one request"
    COUNT = 0
    STREAM: dict = {}
    P = 0
    VERIFY = True
    SHARED = False

    def build(self, seed: int, warm: bool) -> list[StreamRequest]:
        count = max(8, self.COUNT // 10) if warm else self.COUNT
        return poisson_stream(count=count, seed=seed, **self.STREAM)

    def run(self, inputs: list[StreamRequest]) -> Pass:
        before = plan_cache_stats()
        start = time.perf_counter()
        try:
            outcome = replay(inputs, p=self.P, verify=self.VERIFY, shared_operands=self.SHARED)
        except Exception as e:  # the whole batch failed
            outcome = e
        seconds = time.perf_counter() - start
        return Pass(seconds, len(inputs), _ServeRaw(outcome, (before, plan_cache_stats())))

    def _operands(self, stream: list[StreamRequest], rid: int) -> tuple[np.ndarray, np.ndarray]:
        """The (L, B) request ``rid`` was served with (as ``replay`` seeds them)."""
        s = stream[rid]
        if self.SHARED:
            s = next(t for t in stream if (t.n, t.k) == (s.n, s.k))
        return random_lower_triangular(s.n, seed=s.seed), random_dense(s.n, s.k, seed=s.seed + 1)

    def evaluate(self, inputs: list[StreamRequest], done: Pass) -> Evaluation:
        outcome = done.raw.outcome
        if isinstance(outcome, Exception):
            return Evaluation(done.attempted, [f"replay raised {outcome!r}"], {}, {}, "")
        batch = Batch.of(outcome)
        failed = schedule_failures(batch.placements, range(len(inputs)))
        for r in outcome.records:
            if r.rid in failed:
                continue
            if self.VERIFY or r.rid % RECHECK_EVERY == 0:
                why = solve_failure(r.value, r.residual, lambda: self._operands(inputs, r.rid))
            else:
                why = None if np.all(np.isfinite(r.value)) else "non-finite X"
            if why:
                failed[r.rid] = why
        sim, counters = _batch_metrics([batch])
        counters.update(_plan_cache_counters(*done.raw.plan_cache))
        failures = [f"request {rid}: {why}" for rid, why in sorted(failed.items())]
        return Evaluation(len(failed), failures, sim, counters, sim_digest(batch.rows))


class ServeUnshared(_Serve):
    name = "serve_unshared"
    why = (
        "Every request hosts its own L and B on p=64: every layer below admission is live "
        "and nothing amortizes (operand cache and PricingMemo never hit, plan LRU near "
        "capacity)."
    )
    COUNT = 150
    STREAM = {"rate": 2e6, "n_range": (64, 128), "k_range": (8, 32)}
    P = 64
    VERIFY = True


class ServeShared(_Serve):
    name = "serve_shared"
    why = (
        "Same code path, used the other way: one hosted pair per shape on p=16, so "
        "operand cache, plan LRU and PricingMemo all hit. Trading hit cost against miss "
        "cost moves this against serve_unshared."
    )
    COUNT = 1500
    STREAM = {"rate": 2e5, "n_range": (32, 64), "k_range": (4, 8)}
    P = 16
    VERIFY = False
    SHARED = True


# -- sched_pack / horizon_pack -------------------------------------------------


@dataclass(slots=True)
class _PackRaw:
    schedule: Schedule | Exception
    plan_cache: tuple[dict, dict]
    policy: object


class _Pack(Workload):
    """A stream packed by the scheduler, nothing executed (batch loop)."""

    loop = "batch: one Scheduler.schedule"
    operation = "one request scheduled"
    COUNT = 0
    STREAM: dict = {}
    P = 0

    #: further ``schedule_stream`` keywords
    EXTRA: dict = {}

    def _policy(self):
        """A fresh packing policy per pass (policies carry state), or the default."""
        return None

    def build(self, seed: int, warm: bool) -> list[StreamRequest]:
        count = max(8, self.COUNT // 10) if warm else self.COUNT
        return poisson_stream(count=count, seed=seed, **self.STREAM)

    def run(self, inputs: list[StreamRequest]) -> Pass:
        policy = self._policy()
        before = plan_cache_stats()
        start = time.perf_counter()
        try:
            schedule = schedule_stream(inputs, p=self.P, policy=policy, **self.EXTRA)
        except Exception as e:
            schedule = e
        seconds = time.perf_counter() - start
        return Pass(seconds, len(inputs), _PackRaw(schedule, (before, plan_cache_stats()), policy))

    def evaluate(self, inputs: list[StreamRequest], done: Pass) -> Evaluation:
        schedule = done.raw.schedule
        if isinstance(schedule, Exception):
            return Evaluation(done.attempted, [f"schedule_stream raised {schedule!r}"], {}, {}, "")
        placements = [
            Placement(
                a.index, a.request.arrival, a.start, a.finish, tuple(int(x) for x in a.grid.ranks())
            )
            for a in schedule.assignments
        ]
        failed = schedule_failures(placements, range(len(inputs)))
        rows = [
            (pl.index, len(pl.ranks), hexf(pl.start), hexf(pl.finish), pl.ranks)
            for pl in placements
        ]
        # nothing executes here, so there is no measured clock: the planned
        # makespan is this workload's only simulated time
        sim = {"sim_makespan_us": schedule.makespan * 1e6}
        policy = done.raw.policy
        counters = {
            "sched.plan_makespan_us": schedule.makespan * 1e6,
            "sched.occupancy": schedule.occupancy(),
            "sched.pricing_hit_share": _share(schedule.pricing_hits, schedule.pricing_misses),
            "sched.search_nodes": getattr(policy, "nodes_explored", 0),
            "sched.search_replans": getattr(policy, "replans", 0),
            **_plan_cache_counters(*done.raw.plan_cache),
        }
        failures = [f"request {i}: {why}" for i, why in sorted(failed.items())]
        return Evaluation(len(failed), failures, sim, counters, sim_digest(rows))


class SchedPack(_Pack):
    name = "sched_pack"
    why = (
        "sched (greedy LPT, allocator preview, pricing) and dist.routing_plan alone on "
        "p=64, nothing executed: an executed-path change must not move it; allocator and "
        "plan-cache work must."
    )
    COUNT = 12_000
    STREAM = {"rate": 2e5, "n_range": (32, 128), "k_range": (4, 16)}
    P = 64


class HorizonPack(_Pack):
    name = "horizon_pack"
    why = (
        "The same sched layer used differently: HorizonPolicy's branch-and-bound window "
        "search instead of the greedy loop. Node counts are exact, so host time per node "
        "separates from search size."
    )
    COUNT = 170
    # backlogged (arrivals 5x faster than service) with a binding per-replan
    # node budget: at the ISSUE's rate=2e5 and the default 50 000-node budget
    # the search size swings 10x with the seed (see README.md)
    STREAM = {"rate": 1e6, "n_range": (64, 128), "k_range": (8, 32)}
    P = 16
    NODE_BUDGET = 200
    EXTRA = {"cache": False}

    def _policy(self):
        return HorizonPolicy(node_budget=self.NODE_BUDGET)


# -- daemon_online ---------------------------------------------------------------


@dataclass(slots=True)
class _DaemonInputs:
    stream: list[StreamRequest]
    lines: list[str]


@dataclass(slots=True)
class _DaemonRaw:
    responses: list[dict]
    batches: list[Batch]
    #: daemon rids each flush reported, in flush order
    flushed_rids: list[int]
    #: (daemon rid, X) of every RECHECK_EVERY-th completed record
    samples: list[tuple[int, np.ndarray]]
    admission: dict
    plan_cache: tuple[dict, dict]


class DaemonOnline(Workload):
    name = "daemon_online"
    why = (
        "The only workload with api.online on the path: admission, priority queue, a "
        "fresh Cluster and operand generation per flush of 8. Rate limit and 70 us SLA "
        "make packing show in sla_miss_share."
    )
    loop = (
        "open loop in sim time (arrival schedule fixed by the generator, injected virtual clock, "
        "generator lateness 0 by construction); closed loop in host time (1 caller)"
    )
    operation = "one protocol line"
    COUNT = 600
    STREAM = {
        "rate": 2e4,
        "process": "lognormal",
        "n_range": (64, 128),
        "k_range": (8, 32),
        "tenants": ("a", "b"),
        "priorities": (0, 1),
    }
    SLA = 7e-5
    P = 16
    BATCH = 8
    ADMISSION = {"rate": 8e3, "burst": 8, "defer_on_rate": False, "max_queue_depth": 64}

    def build(self, seed: int, warm: bool) -> _DaemonInputs:
        count = max(2 * self.BATCH, self.COUNT // 10) if warm else self.COUNT
        stream = synthetic_stream(count, seed=seed, **self.STREAM)
        lines = [
            json.dumps(
                {
                    "op": "trsm",
                    "n": s.n,
                    "k": s.k,
                    "seed": s.seed,
                    "priority": s.priority,
                    "tenant": s.tenant,
                    "sla": self.SLA,
                }
            )
            for s in stream
        ]
        return _DaemonInputs(stream, lines)

    def run(self, inputs: _DaemonInputs) -> Pass:
        now = [0.0]
        daemon = ServeDaemon(
            DaemonConfig(
                p=self.P,
                batch=self.BATCH,
                time_scale=1.0,
                verify=False,
                admission=AdmissionConfig(**self.ADMISSION),
            ),
            clock=lambda: now[0],
        )
        raw = _DaemonRaw([], [], [], [], {}, (plan_cache_stats(), {}))
        op_seconds: list[float] = []
        completed = 0

        def send(line: str) -> None:
            # the caller's bookkeeping between lines is think time, not timed
            nonlocal completed
            start = time.perf_counter()
            try:
                response = daemon.handle(line)
            except Exception as e:
                response = {"ok": False, "error": repr(e)}
            op_seconds.append(time.perf_counter() - start)
            raw.responses.append(response)
            flush = response.get("flushed") or response.get("final_flush")
            if flush and flush.get("results"):
                outcome = daemon.last_outcome
                raw.batches.append(Batch.of(outcome))
                for result, record in zip(flush["results"], outcome.records):
                    raw.flushed_rids.append(result["rid"])
                    if completed % RECHECK_EVERY == 0:
                        raw.samples.append((result["rid"], record.value))
                    completed += 1

        for s, line in zip(inputs.stream, inputs.lines):
            now[0] = s.arrival
            send(line)
        send('{"op": "shutdown"}')
        raw.admission = daemon.admission.stats()
        raw.plan_cache = (raw.plan_cache[0], plan_cache_stats())
        return Pass(sum(op_seconds), len(op_seconds), raw, op_seconds)

    def evaluate(self, inputs: _DaemonInputs, done: Pass) -> Evaluation:
        raw: _DaemonRaw = done.raw
        failures: list[str] = []
        admitted: dict[int, int] = {}  # daemon rid -> line number
        refused = 0
        for i, response in enumerate(raw.responses):
            if not response.get("ok"):
                failures.append(f"line {i}: {response.get('error')}")
            elif response.get("decision") == "admitted":
                admitted[response["rid"]] = i
            elif response.get("op") == "trsm":
                refused += 1
        flushed = set(raw.flushed_rids)
        failures += [
            f"line {i}: admitted rid {rid} is in no flush result"
            for rid, i in sorted(admitted.items())
            if rid not in flushed
        ]
        for rid, X in raw.samples:
            s = inputs.stream[admitted[rid]] if rid in admitted else None
            if s is None:
                failures.append(f"rid {rid}: completed but never admitted")
                continue
            why = solve_failure(
                X,
                None,
                lambda: (
                    random_lower_triangular(s.n, seed=s.seed),
                    random_dense(s.n, s.k, seed=s.seed + 1),
                ),
            )
            if why:
                failures.append(f"line {admitted[rid]} (rid {rid}): {why}")
        for b, batch in enumerate(raw.batches):
            bad = schedule_failures(batch.placements, range(len(batch.placements)))
            failures += [f"flush {b} request {i}: {why}" for i, why in sorted(bad.items())]
        if not raw.batches:
            failures = failures or ["nothing was flushed"]
            return Evaluation(len(failures), failures, {}, {}, "")
        sim, counters = _batch_metrics(raw.batches)
        offered = len(inputs.lines)
        sim["sla_miss_share"] = (refused + sum(b.sla_missed for b in raw.batches)) / offered
        counters["api.online.admit_share"] = raw.admission["admitted"] / offered
        counters.update(_plan_cache_counters(*raw.plan_cache))
        rows = [(b, *row) for b, batch in enumerate(raw.batches) for row in batch.rows]
        return Evaluation(len(failures), failures, sim, counters, sim_digest(rows))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        SolveRegimes(),
        ServeUnshared(),
        ServeShared(),
        SchedPack(),
        HorizonPack(),
        DaemonOnline(),
    )
}


def host_op_p95_ms(op_seconds: list[float]) -> float | None:
    """p95 of the individually timed operations, when there are enough of them."""
    if (highest_supported_percentile(len(op_seconds)) or 0.0) < 95.0:
        return None
    return nearest_rank(op_seconds, 95.0) * 1e3
