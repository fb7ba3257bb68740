"""E9 — serve throughput: subgrid packing vs serial full-grid execution.

The Cluster front-end packs a queue of heterogeneous TRSM requests onto
disjoint subgrids (``repro.sched``), staging every operand with the exact
:mod:`repro.dist.routing` migration plan.  This bench regenerates the
acceptance artifact:

* **burst** — >= 8 mixed (n, k) requests arriving at t = 0 on p = 64.
  Asserts the modeled makespan is *strictly below* serial full-grid
  execution (the whole point of the redesign: small solves are
  latency-bound, so a fraction of the machine per solve plus concurrency
  beats the full grid run serially), and that every request verifies;
* **poisson** — the same mix replayed as a Poisson arrival stream,
  reporting makespan, occupancy and throughput per arrival rate;
* **prepared** — a PreparedSolve stream against *one hosted factor*: the
  staged-copy operand cache (PR 4) must pay the factor migration once per
  subgrid tenancy, with ``staging_saved_seconds > 0`` and a hit rate of
  at least 50 % on the repeat placements, bit-identically to a cache-off
  run;
* **policies** — the packing-policy sweep: every stream replayed under
  LPT and the rolling-horizon policy.  Gates: ``horizon <= lpt`` on
  *every* recorded stream (the arrival-heavy stream included), a strict
  horizon win of more than 5 % on the mixed small/large pinned stream,
  and ``horizon <= 1.1 x optimal`` on every small queue the exhaustive
  ``"optimal"`` ground truth (the unbudgeted horizon search) can price
  (including the tiny-burst stream where LPT sits ~67 % above the
  optimum).  Both policies then run **with the operand cache on** over
  shared-operand streams, beside an uncached horizon run:
  modeled and measured makespan, hits/misses and ``replans`` are
  recorded, and only what a plan-as-guide supports is gated (the runs
  complete, horizon actually hits the cache) — the orderings are data.
  The whole sweep — plus the opcache reuse gate — is emitted as
  machine-readable ``benchmarks/results/BENCH_serve.json``: simulated
  numbers only, so the full-fat file is tracked and the CI bench job
  fails when a commit changes it without committing the change (the
  smoke sweep writes ``BENCH_serve_smoke.json``, untracked).

Run via ``make bench-smoke`` (tiny sweep, CI-gated) or directly with
pytest for the full table.
"""

from __future__ import annotations

import json
import math
import os
import pathlib

from repro.analysis import format_table
from repro.analysis.serve import policy_gap_data, serve_report
from repro.api.serve import poisson_stream, replay, replay_mixed, replay_prepared
from repro.machine.cost import HARDWARE_PRESETS
from repro.sched import HorizonPolicy
from repro.trsm.prepared import PreparedTrsm
from repro.util.randmat import random_lower_triangular

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))

P = 16 if SMOKE else 64
COUNT = 6 if SMOKE else 12
N_RANGE = (32, 64) if SMOKE else (64, 256)
K_RANGE = (8, 16) if SMOKE else (8, 64)
#: few distinct shapes and a queue longer than the horizon window, so a
#: shared-operand stream re-places its operands on subgrids that held them
SHARED_COUNT = 12
SHARED_N_RANGE = (32, 64) if SMOKE else (64, 128)
SHARED_K_RANGE = (8, 16)


def test_burst_beats_serial_full_grid(emit, benchmark):
    """Burst queue: packed makespan strictly below the serial baseline."""
    stream = poisson_stream(
        count=max(COUNT, 8) if not SMOKE else COUNT,
        rate=0.0,
        n_range=N_RANGE,
        k_range=K_RANGE,
        seed=0,
    )
    outcome = benchmark(lambda: replay(stream, p=P))
    emit("serve_burst", serve_report(outcome))

    assert len(outcome.records) == len(stream)
    # every operand migration came from an exact routing plan; a request
    # with a wrong answer would have residual > 1e-9 (or None only if
    # verification were skipped, which replay() does not do here)
    for rec in outcome.records:
        assert rec.residual is not None and rec.residual < 1e-9
    assert outcome.modeled_makespan < outcome.serial_seconds, (
        "packing must strictly beat serial full-grid execution"
    )
    assert 0.0 < outcome.occupancy <= 1.0


def test_poisson_stream_throughput(emit, benchmark):
    """Poisson replay across arrival rates and machine presets."""
    rows = []
    presets = ["default"] if SMOKE else ["default", "latency_bound"]
    rates = [0.0, 5e4] if SMOKE else [0.0, 2e4, 1e5]
    for preset in presets:
        params = HARDWARE_PRESETS[preset]
        for rate in rates:
            stream = poisson_stream(
                count=COUNT, rate=rate, n_range=N_RANGE, k_range=K_RANGE, seed=1
            )
            outcome = replay(stream, p=P, params=params)
            rows.append(
                [
                    preset,
                    f"{rate:.0f}" if rate else "burst",
                    len(outcome.records),
                    outcome.modeled_makespan * 1e6,
                    outcome.serial_seconds * 1e6,
                    outcome.speedup_vs_serial(),
                    outcome.occupancy,
                ]
            )
            assert len(outcome.records) == COUNT
            # arrivals only ever delay work; with all requests at t=0 the
            # packed makespan can never exceed running them one by one
            if rate == 0.0:
                assert outcome.modeled_makespan <= outcome.serial_seconds + 1e-12

    table = format_table(
        [
            "machine",
            "rate 1/s",
            "requests",
            "makespan us",
            "serial us",
            "speedup",
            "occupancy",
        ],
        rows,
        title=f"Poisson serve sweep (p={P}, n in {N_RANGE}, k in {K_RANGE})",
    )
    emit("serve_poisson", table)
    benchmark(lambda: None)


def test_prepared_stream_amortizes_factor_migration(emit, benchmark):
    """One hosted factor, >= 8 prepared solves: the operand cache pays the
    factor migration once per subgrid tenancy (region-accounted)."""
    n = 64 if SMOKE else 128
    count = 8 if SMOKE else 12
    size = P // 4
    solver = PreparedTrsm(random_lower_triangular(n, seed=0), p=P, k_hint=8)

    on = benchmark(
        lambda: replay_prepared(
            solver, count=count, p=P, k=8, seed=5, cache=True, size=size
        )
    )
    off = replay_prepared(solver, count=count, p=P, k=8, seed=5, cache=False, size=size)
    emit("serve_prepared", serve_report(on))

    assert len(on.records) == count
    # the reuse win is real and region-accounted: saved time is positive,
    # and the factor pair migrated exactly once per distinct subgrid
    assert on.staging_saved_seconds > 0.0
    blocks = {tuple(r.grid.ranks()) for r in on.records}
    assert on.staging_misses == 2 * len(blocks)
    # hit rate >= 50% across the repeat placements
    assert on.staging_hit_rate() >= 0.5
    repeats = count - len(blocks)
    assert on.staging_hits == 2 * repeats and repeats > 0
    # ...and bit-identical, cheaper-or-equal results vs the cache-off run
    for r in on.records:
        o = off.record(r.rid)
        assert r.value.tobytes() == o.value.tobytes()
        if r.staging_hit:
            assert r.measured.W < o.measured.W
        else:
            assert r.measured == o.measured
    assert on.measured_makespan < off.measured_makespan
    assert on.modeled_makespan <= off.modeled_makespan


def test_policy_sweep_emits_bench_json(emit, results_dir, benchmark):
    """E10 — packing policies: horizon never loses to LPT on any recorded
    stream (strict win on the mixed pinned stream), stays within 1.1x of
    the exhaustive optimum on every small queue, and the whole comparison
    lands in ``BENCH_serve.json`` for the CI bench job."""
    report: dict = {"smoke": SMOKE, "p": P}

    def _gate_horizon(hor: float, lpt: float, label: str) -> None:
        assert hor <= lpt * (1 + 1e-9), (
            f"horizon must not lose to lpt ({label}): {hor} > {lpt}"
        )

    # -- horizon vs LPT on representative streams -------------------------
    sweep_rows = []
    sweep_json = []
    rates = (0.0, 5e4) if SMOKE else (0.0, 2e4, 1e5)
    seeds = (0, 1, 2) if SMOKE else (0, 1, 3)
    for seed in seeds:
        for rate in rates:
            stream = poisson_stream(
                count=COUNT, rate=rate, n_range=N_RANGE, k_range=K_RANGE, seed=seed
            )
            lpt = replay(stream, p=P, policy="lpt", cache=False, verify=False)
            hor = replay(stream, p=P, policy="horizon", cache=False, verify=False)
            _gate_horizon(
                hor.modeled_makespan,
                lpt.modeled_makespan,
                f"seed {seed}, rate {rate:.0f}",
            )
            sweep_rows.append(
                [
                    seed,
                    f"{rate:.0f}" if rate else "burst",
                    lpt.modeled_makespan * 1e6,
                    hor.modeled_makespan * 1e6,
                    lpt.modeled_makespan / hor.modeled_makespan,
                ]
            )
            sweep_json.append(
                {
                    "seed": seed,
                    "rate": rate,
                    "requests": COUNT,
                    "lpt_makespan_seconds": lpt.modeled_makespan,
                    "horizon_makespan_seconds": hor.modeled_makespan,
                }
            )
    report["horizon_vs_lpt"] = sweep_json
    # One arrival-heavy stream beyond the sweep (full-fat only), gated
    # like every other recorded stream.
    if not SMOKE:
        heavy = poisson_stream(
            count=COUNT, rate=1e5, n_range=N_RANGE, k_range=K_RANGE, seed=2
        )
        h_lpt = replay(heavy, p=P, policy="lpt", cache=False, verify=False)
        h_hor = replay(heavy, p=P, policy="horizon", cache=False, verify=False)
        _gate_horizon(
            h_hor.modeled_makespan,
            h_lpt.modeled_makespan,
            "arrival-heavy seed 2, rate 1e5",
        )
        report["arrival_heavy_stream"] = {
            "seed": 2,
            "rate": 1e5,
            "requests": COUNT,
            "lpt_makespan_seconds": h_lpt.modeled_makespan,
            "horizon_makespan_seconds": h_hor.modeled_makespan,
        }

    # -- the window search with the operand cache on ----------------------
    # Shared-operand streams, every policy cached, horizon also uncached.
    # A plan is a guide under a moving cache view (HorizonPolicy re-plans
    # when a commit's live price drifts from the planned one), so which
    # run wins is recorded, not gated.  The budget is the tier-1 suites'
    # 2 000 nodes: the table is about the cache, not the search depth.
    budget = 2_000
    cached_json = []
    for seed in seeds:
        for rate in rates:
            stream = poisson_stream(
                count=SHARED_COUNT,
                rate=rate,
                n_range=SHARED_N_RANGE,
                k_range=SHARED_K_RANGE,
                seed=seed,
            )
            runs = {}
            for label, policy, cache in (
                ("lpt", "lpt", True),
                ("horizon", HorizonPolicy(node_budget=budget), True),
                ("horizon_uncached", HorizonPolicy(node_budget=budget), False),
            ):
                out = replay(
                    stream,
                    p=P,
                    policy=policy,
                    cache=cache,
                    shared_operands=True,
                    verify=False,
                )
                assert len(out.records) == SHARED_COUNT
                runs[label] = {
                    "modeled_makespan_seconds": out.modeled_makespan,
                    "measured_makespan_seconds": out.measured_makespan,
                    "hits": out.staging_hits,
                    "misses": out.staging_misses,
                    "replans": getattr(policy, "replans", None),
                }
            cached_json.append(
                {"seed": seed, "rate": rate, "requests": SHARED_COUNT, "runs": runs}
            )
    assert sum(s["runs"]["horizon"]["hits"] for s in cached_json) > 0, (
        "horizon never hit the operand cache on the shared-operand streams"
    )

    def _geomean_ratio(key: str, num: str, den: str) -> float:
        # rounded: libm's log/exp may differ in the last ulp across hosts,
        # and the file is diffed byte for byte
        logs = [
            math.log(s["runs"][num][key] / s["runs"][den][key]) for s in cached_json
        ]
        return round(math.exp(sum(logs) / len(logs)), 6)

    report["cached_window_search"] = {
        "node_budget": budget,
        "n_range": SHARED_N_RANGE,
        "k_range": SHARED_K_RANGE,
        "streams": cached_json,
        # recorded orderings (geomean makespan ratios; < 1 favours the first)
        "horizon_cached_vs_uncached_modeled": _geomean_ratio(
            "modeled_makespan_seconds", "horizon", "horizon_uncached"
        ),
        "horizon_cached_vs_uncached_measured": _geomean_ratio(
            "measured_makespan_seconds", "horizon", "horizon_uncached"
        ),
        "horizon_cached_vs_lpt_cached_modeled": _geomean_ratio(
            "modeled_makespan_seconds", "horizon", "lpt"
        ),
    }

    # -- the mixed small/large pinned stream: the strict horizon win -----
    smalls = 8 if SMOKE else 10
    mixed_lpt = benchmark(
        lambda: replay_mixed(p=16, policy="lpt", smalls=smalls)
    )
    mixed_hor = replay_mixed(p=16, policy="horizon", smalls=smalls)
    win = 1.0 - mixed_hor.modeled_makespan / mixed_lpt.modeled_makespan
    assert win > 0.05, f"the horizon win collapsed to {win * 100.0:.2f}%"
    report["mixed_stream_win"] = {
        "lpt_makespan_seconds": mixed_lpt.modeled_makespan,
        "horizon_makespan_seconds": mixed_hor.modeled_makespan,
        "win_fraction": win,
    }

    # -- small queues vs the exhaustive optimum --------------------------
    gap_specs = [(16, (64, 128), (8, 32), s, 0.0) for s in (0, 1, 2)]
    gap_specs += [(16, (64, 128), (8, 32), 0, 3e4)]
    if not SMOKE:
        gap_specs += [(64, (64, 256), (16, 64), s, 0.0) for s in (0, 1, 2)]
    gap_rows = []
    gap_json = []
    for p, nr, kr, seed, rate in gap_specs:
        stream = poisson_stream(count=6, rate=rate, n_range=nr, k_range=kr, seed=seed)
        data = policy_gap_data(stream, p=p)
        lpt_gap = data["gap_vs_optimal_pct"]["lpt"]
        hor_gap = data["gap_vs_optimal_pct"]["horizon"]
        assert hor_gap is not None and hor_gap <= 10.0, (
            f"horizon exceeded 1.1x the exhaustive optimum "
            f"(p={p}, seed={seed}, rate={rate:.0f}: +{hor_gap:.2f}%)"
        )
        assert hor_gap >= -1e-6  # optimal is a floor
        assert lpt_gap is not None and lpt_gap >= -1e-6
        gap_rows.append(
            [p, seed, f"{rate:.0f}" if rate else "burst",
             f"+{lpt_gap:.2f}", f"+{hor_gap:.2f}"]
        )
        gap_json.append(
            {"p": p, "seed": seed, "rate": rate, **data}
        )
    # adversarial tiny-burst stream: the ~67% LPT loss stays
    # tracked (ungated) in the JSON — but horizon is gated to close it
    adversarial = policy_gap_data(
        poisson_stream(count=6, rate=0.0, n_range=(32, 64), k_range=(8, 16), seed=0),
        p=16,
    )
    adv_hor = adversarial["gap_vs_optimal_pct"]["horizon"]
    assert adv_hor is not None and -1e-6 <= adv_hor <= 10.0, (
        f"horizon exceeded 1.1x the optimum on the adversarial tiny burst "
        f"(+{adv_hor:.2f}%)"
    )
    report["gap_vs_optimal"] = gap_json
    report["gap_adversarial_ungated"] = adversarial

    # -- the opcache reuse gate (CI fails when the saving regresses) -----
    solver = PreparedTrsm(random_lower_triangular(64, seed=0), p=16, k_hint=8)
    cached = replay_prepared(solver, count=8, p=16, k=8, seed=5, cache=True, size=4)
    assert cached.staging_saved_seconds > 0.0, "opcache stopped saving staging time"
    assert cached.staging_hit_rate() >= 0.5, "opcache hit rate regressed below 50%"
    report["opcache"] = {
        "staging_saved_seconds": cached.staging_saved_seconds,
        "hit_rate": cached.staging_hit_rate(),
        "hits": cached.staging_hits,
        "misses": cached.staging_misses,
    }

    # the tracked artifact is the full-fat sweep; smoke numbers stay local
    name = "BENCH_serve_smoke.json" if SMOKE else "BENCH_serve.json"
    path = pathlib.Path(results_dir) / name
    path.write_text(json.dumps(report, indent=2) + "\n")
    table = format_table(
        ["seed", "rate 1/s", "lpt us", "horizon us", "lpt/horizon"],
        sweep_rows,
        title=f"Policy sweep (p={P}, n in {N_RANGE}, k in {K_RANGE})",
    )
    gap_table = format_table(
        ["p", "seed", "rate 1/s", "lpt vs opt", "horizon vs opt"],
        gap_rows,
        title="Small-queue gap vs exhaustive optimum (6 requests, cache off)",
    )
    cached_table = format_table(
        ["seed", "rate 1/s", "run", "modeled us", "measured us", "hits", "misses",
         "replans"],
        [
            [
                s["seed"],
                f"{s['rate']:.0f}" if s["rate"] else "burst",
                label,
                run["modeled_makespan_seconds"] * 1e6,
                run["measured_makespan_seconds"] * 1e6,
                run["hits"],
                run["misses"],
                run["replans"] or "-",
            ]
            for s in cached_json
            for label, run in s["runs"].items()
        ],
        title=(
            f"Cache on, shared operands (p={P}, n in {SHARED_N_RANGE}, "
            f"k in {SHARED_K_RANGE}, horizon budget {budget} nodes)"
        ),
    )
    emit(
        "serve_policies",
        table
        + "\n\n"
        + gap_table
        + "\n\n"
        + cached_table
        + f"\n\nmixed pinned stream: horizon wins {win * 100.0:.1f}%"
        + f"\nwrote {path}",
    )
