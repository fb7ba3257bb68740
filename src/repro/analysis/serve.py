"""Throughput and occupancy reporting for Cluster serve runs.

Renders a :class:`~repro.api.cluster.ClusterOutcome` — the result of
packing a request queue onto the subgrid pool — as plain-text artifacts:

* :func:`occupancy_table` — one row per request: placement (subgrid size,
  modeled start/finish), migration charge, modeled vs measured cost;
* :func:`throughput_report` — the aggregate view: modeled and measured
  makespan, the serial full-grid baseline the scheduler is judged
  against, pool occupancy and request throughput;
* :func:`policy_gap_report` — the packing-policy comparison: one stream
  replayed under every policy (cache off: only uncached is the
  exhaustive optimum exact, so only there is it a ground truth), with
  per-policy makespan/occupancy/throughput and the %-above-optimal gap
  on queues that fit the ``"optimal"`` search's window;
* :func:`latency_report` — the p50/p95/p99 request-latency line, the
  *one* formatter both the replay reports and the
  :mod:`repro.api.online.daemon` telemetry render through;
* :func:`cache_stats_report` — the cache-layer summary (routing-plan
  LRU, scheduler PricingMemo, staged-copy operand cache) that
  ``python -m repro serve --profile`` and the daemon surface.

The rendering functions are duck-typed over the outcome object (no
import of :mod:`repro.api` at module scope), so they also render
hand-built schedules in tests.
"""

from __future__ import annotations

from repro.analysis.report import format_table


def occupancy_table(outcome) -> str:
    """Per-request placement/cost table for a serve run."""
    rows = []
    for r in outcome.records:
        rows.append(
            [
                r.rid,
                r.kind,
                r.size,
                f"{r.modeled_start * 1e6:.1f}",
                f"{r.modeled_finish * 1e6:.1f}",
                f"{r.staging_seconds * 1e6:.2f}",
                "hit" if r.staging_hit else "-",
                f"{r.staging_saved_seconds * 1e6:.2f}",
                float(r.modeled.S),
                float(r.modeled.W),
                float(r.measured.S),
                float(r.measured.W),
            ]
        )
    return format_table(
        [
            "rid",
            "kind",
            "ranks",
            "start us",
            "finish us",
            "stage us",
            "cache",
            "saved us",
            "S model",
            "W model",
            "S meas",
            "W meas",
        ],
        rows,
        title=f"Request placements (p={outcome.p}, machine {outcome.params.name!r})",
    )


def latency_report(percentiles: dict, count: int) -> str:
    """The one request-latency line replay reports and the daemon share.

    ``percentiles`` maps percentile → seconds (the shape
    :func:`repro.api.cluster.latency_percentiles` and
    ``ClusterOutcome.latency_percentiles`` produce); sojourn times are
    measured finish minus arrival, so queueing is included.
    """
    cells = " / ".join(
        f"p{int(q)} {v * 1e6:.2f} us" for q, v in sorted(percentiles.items())
    )
    return f"latency           : {cells} ({count} requests)"


def cache_stats_report(outcome=None, plan: dict | None = None) -> str:
    """The cache-layer summary ``--profile`` and the daemon telemetry print.

    Three layers, outermost first: the :func:`repro.dist.routing`
    routing-plan LRU (``plan``, the :func:`plan_cache_stats` dict —
    fetched live when omitted), the scheduler's PricingMemo
    staging-target rows, and the staged-copy operand cache — the last
    two read off ``outcome`` when one is given.
    """
    if plan is None:
        from repro.dist.routing import plan_cache_stats

        plan = plan_cache_stats()
    plan_total = plan["hits"] + plan["misses"]
    plan_rate = plan["hits"] / plan_total * 100.0 if plan_total else 0.0
    lines = [
        f"routing-plan LRU  : {plan['hits']} hits / {plan['misses']} misses "
        f"({plan_rate:.1f} %), {plan['entries']} entries"
    ]
    if outcome is not None:
        pricing_total = outcome.pricing_hits + outcome.pricing_misses
        pricing_rate = outcome.pricing_hit_rate() * 100.0
        if pricing_total:
            lines.append(
                f"pricing memo      : {outcome.pricing_hits} hits / "
                f"{outcome.pricing_misses} misses ({pricing_rate:.1f} %)"
            )
        else:
            lines.append("pricing memo      : off")
        if outcome.staging_hits or outcome.staging_misses:
            lines.append(
                f"staging cache     : {outcome.staging_hits} hits / "
                f"{outcome.staging_misses} misses "
                f"({outcome.staging_hit_rate() * 100.0:.1f} %), "
                f"{outcome.staging_saved_seconds * 1e6:.2f} us saved"
            )
    return "\n".join(lines)


def throughput_report(outcome) -> str:
    """Aggregate makespan/occupancy/throughput summary for a serve run."""
    lines = [
        f"requests          : {len(outcome.records)}",
        f"pool              : {outcome.p} ranks",
        f"modeled makespan  : {outcome.modeled_makespan * 1e6:.2f} us",
        f"measured makespan : {outcome.measured_makespan * 1e6:.2f} us",
        f"serial full-grid  : {outcome.serial_seconds * 1e6:.2f} us",
        f"speedup vs serial : {outcome.speedup_vs_serial():.2f}x",
        f"pool occupancy    : {outcome.occupancy * 100.0:.1f} %",
        f"throughput        : {outcome.throughput() / 1e3:.1f} krequests/s",
        latency_report(outcome.latency_percentiles(), len(outcome.records)),
    ]
    sla = outcome.sla_summary()
    if sla["met"] or sla["missed"]:
        lines.append(
            f"SLA               : {sla['met']} met / {sla['missed']} missed "
            f"({sla['best_effort']} best-effort)"
        )
    if outcome.staging_hits or outcome.staging_misses:
        lines.append(
            f"staging cache     : {outcome.staging_hits} hits / "
            f"{outcome.staging_misses} misses, "
            f"{outcome.staging_saved_seconds * 1e6:.2f} us saved"
        )
    return "\n".join(lines)


def serve_report(outcome) -> str:
    """The full artifact: occupancy table plus the aggregate summary."""
    return occupancy_table(outcome) + "\n\n" + throughput_report(outcome)


def policy_gap_data(
    stream,
    p: int,
    params=None,
    verify: bool = False,
) -> dict:
    """Replay ``stream`` under every policy; return the comparison as data.

    Every replay is uncached (``cache=False``): the optimum is exact only
    when no price moves between planning and commit.  ``"optimal"`` is
    skipped (entry ``None``) on queues longer than its
    :attr:`~repro.sched.PackingPolicy.max_queue` — the exhaustive search
    is exponential in the queue length; ``"horizon"`` runs the same
    search windowed and budgeted, so it serves at any length.  The
    result is JSON-ready: per-policy ``makespan_seconds`` / ``occupancy``
    / ``throughput_rps``, plus ``gap_vs_optimal_pct`` (how far each
    policy sits above the ground-truth makespan — ``None`` entries mean
    the optimum did not run) when the optimum ran.
    """
    from repro.api.serve import replay
    from repro.sched.policies import make_policy

    results: dict[str, dict | None] = {}
    for name in ("lpt", "horizon", "optimal"):
        policy = make_policy(name)
        if policy.max_queue is not None and len(stream) > policy.max_queue:
            results[name] = None
            continue
        outcome = replay(
            stream, p=p, params=params, verify=verify, policy=policy, cache=False
        )
        results[name] = {
            "makespan_seconds": outcome.modeled_makespan,
            "occupancy": outcome.occupancy,
            "throughput_rps": outcome.throughput(),
        }
    gaps: dict[str, float | None] = {}
    optimal = results.get("optimal")
    for name, res in results.items():
        if name == "optimal" or res is None or optimal is None:
            gaps[name] = None
        elif optimal["makespan_seconds"] <= 0.0:
            gaps[name] = 0.0
        else:
            gaps[name] = (
                res["makespan_seconds"] / optimal["makespan_seconds"] - 1.0
            ) * 100.0
    return {
        "p": p,
        "requests": len(stream),
        "policies": results,
        "gap_vs_optimal_pct": gaps,
    }


def format_gap_pct(gap: float | None) -> str:
    """Render one ``gap_vs_optimal_pct`` cell; ``None`` (no optimum) is ``—``."""
    return "—" if gap is None else f"{gap:+.2f}"


def policy_gap_report(
    stream,
    p: int,
    params=None,
    verify: bool = False,
) -> str:
    """Render :func:`policy_gap_data` as the gap-report table."""
    data = policy_gap_data(stream, p, params=params, verify=verify)
    rows = []
    for name, res in data["policies"].items():
        if res is None:
            rows.append([name, "n/a (queue too long)", "—", "—", "—"])
            continue
        gap = data["gap_vs_optimal_pct"].get(name)
        rows.append(
            [
                name,
                f"{res['makespan_seconds'] * 1e6:.2f}",
                f"{res['occupancy'] * 100.0:.1f}",
                f"{res['throughput_rps'] / 1e3:.1f}",
                format_gap_pct(gap),
            ]
        )
    return format_table(
        ["policy", "makespan us", "occupancy %", "krps", "vs optimal %"],
        rows,
        title=(
            f"Packing-policy gap report ({data['requests']} requests, "
            f"p={data['p']}, cache off)"
        ),
    )
