"""E11 — serve-scale throughput: the vectorized routing + cache fast path.

PR 6 rebuilt the serve hot path for throughput: the per-pair ``np.nonzero``
scans in :mod:`repro.dist.routing` became one argsort/group-by shared by
``pairs``/``charge``/``apply``, routing plans are memoized in an LRU keyed
by layout fingerprints, and the scheduler prices repeat requests from a
:class:`~repro.sched.pricing.PricingMemo` instead of re-deriving every
candidate.  This bench keeps two floors under that work:

* **scheduling** — a 10^4-request Poisson stream packed (not executed)
  through :func:`~repro.api.serve.schedule_stream` on p = 64, gated on a
  requests-per-second floor so CI fails when the fast path regresses;
* **executed replay** — a grown (~100x the old smoke count) stream run to
  completion with shared operands, so the operand cache, plan cache and
  pricing memo all amortize across the stream.

Bit-identity of the fast path with the pinned pre-PR loops is a tier-1
test (``tests/test_throughput.py``, against ``tests/routing_reference.py``
and ``Scheduler(pricing_cache=False)``); the regression gate on its speed
is ``sched_pack`` / ``host_rps`` in ``BENCHMARK.json``.

Everything lands in ``benchmarks/results/BENCH_throughput.json`` (the CI
bench job uploads it next to ``BENCH_serve.json``).  Run via
``make bench-throughput``, or ``make bench-smoke`` for the tiny sweep.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.api.serve import poisson_stream, replay, schedule_stream
from repro.dist import routing

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))

#: scheduling-only stream (packs at ~2500 req/s on the dev box at p=64;
#: the floor leaves ~5x headroom for slower CI runners)
SCHED_P = 16 if SMOKE else 64
SCHED_COUNT = 300 if SMOKE else 10_000
RPS_FLOOR = 50.0 if SMOKE else 500.0

#: executed replay, ~100x the pre-PR smoke count (measured ~300 req/s)
REPLAY_COUNT = 30 if SMOKE else 600
REPLAY_RPS_FLOOR = 5.0 if SMOKE else 25.0

_REPORT: dict = {"smoke": SMOKE}


def test_scheduling_throughput_floor(emit, benchmark):
    """10^4 requests packed through the scheduler above the RPS floor."""
    stream = poisson_stream(
        count=SCHED_COUNT, rate=2e5, n_range=(32, 128), k_range=(4, 16), seed=7
    )
    routing.clear_plan_cache()
    start = time.perf_counter()
    sched = schedule_stream(stream, p=SCHED_P)
    seconds = time.perf_counter() - start
    rps = SCHED_COUNT / seconds
    stats = routing.plan_cache_stats()

    assert len(sched.assignments) == SCHED_COUNT
    assert rps >= RPS_FLOOR, (
        f"scheduling throughput regressed: {rps:.0f} req/s < floor {RPS_FLOOR:.0f}"
    )
    # the plan cache is doing the amortizing: repeat placements hit
    assert stats["hits"] > 0

    _REPORT["scheduling"] = {
        "p": SCHED_P,
        "requests": SCHED_COUNT,
        "seconds": seconds,
        "rps": rps,
        "rps_floor": RPS_FLOOR,
        "plan_cache": stats,
    }
    emit(
        "throughput_scheduling",
        f"scheduled {SCHED_COUNT} requests on p={SCHED_P} in {seconds:.3f}s "
        f"= {rps:.0f} req/s (floor {RPS_FLOOR:.0f})\n"
        f"plan cache: {stats['hits']} hits / {stats['misses']} misses",
    )
    benchmark(lambda: None)


def test_grown_replay_executes_end_to_end(emit, benchmark):
    """A ~100x-grown stream runs to completion with shared operands."""
    stream = poisson_stream(
        count=REPLAY_COUNT, rate=2e5, n_range=(32, 64), k_range=(4, 8), seed=11
    )
    start = time.perf_counter()
    outcome = replay(stream, p=16, verify=False, shared_operands=True)
    seconds = time.perf_counter() - start
    rps = REPLAY_COUNT / seconds

    assert len(outcome.records) == REPLAY_COUNT
    assert rps >= REPLAY_RPS_FLOOR, (
        f"executed replay regressed: {rps:.0f} req/s < floor {REPLAY_RPS_FLOOR:.0f}"
    )
    # shared operands make the staged-copy cache earn its keep
    assert outcome.staging_hits > 0

    _REPORT["executed_replay"] = {
        "p": 16,
        "requests": REPLAY_COUNT,
        "seconds": seconds,
        "rps": rps,
        "rps_floor": REPLAY_RPS_FLOOR,
        "staging_hit_rate": outcome.staging_hit_rate(),
    }
    emit(
        "throughput_replay",
        f"executed {REPLAY_COUNT} requests on p=16 in {seconds:.3f}s "
        f"= {rps:.0f} req/s (floor {REPLAY_RPS_FLOOR:.0f}), "
        f"staging hit rate {outcome.staging_hit_rate():.2f}",
    )
    benchmark(lambda: None)


def test_emit_bench_json(results_dir):
    """Write the machine-readable artifact the CI bench job uploads."""
    path = pathlib.Path(results_dir) / "BENCH_throughput.json"
    path.write_text(json.dumps(_REPORT, indent=2) + "\n")
    assert "scheduling" in _REPORT and "executed_replay" in _REPORT
