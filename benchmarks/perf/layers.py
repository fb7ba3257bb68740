"""Which entry points are wrapped, and the per-layer metrics read off them.

Layers are the program's package names.  ``TARGETS`` lists the public
entry points :class:`perf.trace.Tracer` wraps; :func:`layer_metrics`
turns one traced pass (spans + call counts), the counters the program
already exposes and the matching untraced pass into the named per-layer
metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

from perf.trace import Target

LAYERS = (
    "api.online",
    "api",
    "sched",
    "dist",
    "backend",
    "machine",
    "tuning",
    "mm",
    "inversion",
    "trsm",
    "util",
)

_COLLECTIVES = (
    "allgather",
    "allgather_blocks",
    "scatter",
    "gather",
    "reduce_scatter",
    "bcast",
    "reduce",
    "allreduce",
    "alltoall",
    "sendrecv",
    "send",
    "grid_transpose",
)

TARGETS: tuple[Target, ...] = (
    Target("api.online", "repro.api.online.daemon", "ServeDaemon.handle"),
    Target("api.online", "repro.api.online.daemon", "ServeDaemon.flush", "flush"),
    Target("api.online", "repro.api.online.admission", "AdmissionController.offer", "offer"),
    Target("api.online", "repro.api.online.admission", "AdmissionController.drain"),
    Target("api", "repro.api.serve", "replay"),
    Target("api", "repro.api.serve", "schedule_stream"),
    Target("api", "repro.api.cluster", "Cluster.host", "host"),
    Target("api", "repro.api.cluster", "Cluster.run", "run"),
    Target("api", "repro.api.cluster", "Cluster.stage_resident"),
    Target("api", "repro.api.requests", "TrsmRequest.execute", "execute"),
    Target("api", "repro.api.requests", "InvRequest.execute", "execute"),
    Target("api", "repro.api.requests", "PreparedSolveRequest.execute", "execute"),
    Target("api", "repro.api.requests", "MMRequest.execute", "execute"),
    Target("sched", "repro.sched.scheduler", "Scheduler.schedule", "schedule"),
    Target("sched", "repro.sched.policies", "_search_window", "search"),
    # entered once per priced candidate (> 10^5 per pass on sched_pack): counted, not timed
    Target("sched", "repro.sched.allocator", "SubgridAllocator.preview", "preview", True),
    Target("dist", "repro.dist.distmatrix", "DistMatrix.from_global", "from_global"),
    Target("dist", "repro.dist.distmatrix", "DistMatrix.to_global", "to_global"),
    Target("dist", "repro.dist.redistribute", "stage_matrix", "stage"),
    Target("dist", "repro.dist.redistribute", "redistribute", "route"),
    Target("dist", "repro.dist.redistribute", "transpose_matrix", "route"),
    Target("dist", "repro.dist.redistribute", "route_submatrix", "route"),
    Target("dist", "repro.dist.redistribute", "route_embed", "route"),
    Target("dist", "repro.dist.redistribute", "extract_submatrix", "route"),
    Target("dist", "repro.dist.redistribute", "embed_submatrix", "route"),
    Target("dist", "repro.dist.routing", "routing_plan", "plan_build"),
    Target("backend", "repro.backend.sim", "SimBackend.execute_plan", "plan"),
    *(Target("machine", "repro.machine.collectives", name, "collective") for name in _COLLECTIVES),
    Target("machine", "repro.machine.machine", "Machine.charge"),
    Target("machine", "repro.machine.machine", "Machine.charge_local"),
    # ~10^5 calls per executed pass (ROADMAP item 2 wants the count down)
    Target("machine", "repro.machine.topology", "ProcessorGrid.rank", count_only=True),
    Target("tuning", "repro.tuning.parameters", "tuned_parameters", "tuned"),
    Target("tuning", "repro.tuning.optimizer", "optimize_parameters"),
    Target("mm", "repro.mm.mm3d", "mm3d"),
    Target("mm", "repro.mm.mm1d", "mm1d"),
    Target("inversion", "repro.inversion.rec_tri_inv", "rec_tri_inv"),
    Target("inversion", "repro.inversion.sequential", "invert_lower_triangular"),
    Target("trsm", "repro.trsm.solver", "trsm"),
    Target("trsm", "repro.trsm.prepared", "PreparedTrsm.__init__"),
    Target("trsm", "repro.trsm.prepared", "PreparedTrsm.solve"),
    Target("trsm", "repro.trsm.iterative", "it_inv_trsm", "it_inv"),
    Target("trsm", "repro.trsm.recursive", "rec_trsm", "rec"),
    Target("trsm", "repro.trsm.diagonal_inverter", "diagonal_inverter", "diag_inv"),
    Target("util", "repro.util.randmat", "random_lower_triangular", "randmat"),
    Target("util", "repro.util.randmat", "random_dense", "randmat"),
    Target("util", "repro.util.checking", "relative_residual", "residual"),
)

#: machine phases whose simulated cost is reported (Machine.phase_cost)
PHASES = ("staging", "inversion", "setup", "solve", "update")

#: end-to-end metrics only some workloads define; the driver's contract
#: wants every ``end_to_end`` metric on every workload, so these ride with
#: the per-layer list (0 where a workload does not define them)
WORKLOAD_SPECIFIC = (
    ("host_op_p95_ms", "ms", "lower"),
    ("sim_latency_p50_us", "sim_us", "lower"),
    ("sim_latency_p95_us", "sim_us", "lower"),
    ("sim_sync_S", "messages", "lower"),
    ("model_gap_pct", "%", "lower"),
    ("sla_miss_share", "share", "lower"),
    ("failed_share", "share", "lower"),
)

PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((f"{layer}.calls", "count", "lower") for layer in LAYERS),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("api.online.flush_calls", "count", "lower"),
    ("api.online.flush_s", "s", "lower"),
    ("api.online.offer_us", "us", "lower"),
    ("api.online.admit_share", "share", "higher"),
    ("api.host_s", "s", "lower"),
    ("api.run_s", "s", "lower"),
    ("api.execute_self_s", "s", "lower"),
    ("api.stage_hit_share", "share", "higher"),
    ("sched.schedule_s", "s", "lower"),
    ("sched.us_per_request", "us", "lower"),
    ("sched.alloc_preview_calls", "count", "lower"),
    ("sched.pricing_hit_share", "share", "higher"),
    ("sched.search_nodes", "count", "lower"),
    ("sched.search_replans", "count", "lower"),
    ("sched.us_per_node", "us", "lower"),
    ("sched.plan_makespan_us", "sim_us", "lower"),
    ("sched.occupancy", "share", "higher"),
    *(
        (f"dist.{label}_{suffix}", unit, "lower")
        for label in ("from_global", "to_global", "stage", "route", "plan_build")
        for suffix, unit in (("s", "s"), ("calls", "count"))
    ),
    ("dist.plan_cache_hit_share", "share", "higher"),
    ("dist.plan_cache_entries", "count", "lower"),
    ("backend.plan_calls", "count", "lower"),
    ("backend.plan_s", "s", "lower"),
    ("backend.plan_words", "words", "lower"),
    ("backend.plan_msgs", "messages", "lower"),
    ("machine.collective_calls", "count", "lower"),
    ("machine.collective_s", "s", "lower"),
    ("machine.sim_S", "messages", "lower"),
    ("machine.sim_W_words", "words", "lower"),
    ("machine.sim_F_flops", "flops", "lower"),
    ("machine.sim_peak_words", "words", "lower"),
    *((f"machine.sim_{phase}_us", "sim_us", "lower") for phase in PHASES),
    ("tuning.s", "s", "lower"),
    ("trsm.it_inv_self_s", "s", "lower"),
    ("trsm.rec_self_s", "s", "lower"),
    ("trsm.diag_inv_s", "s", "lower"),
    ("trsm.rec_sim_S", "messages", "lower"),
    ("util.randmat_s", "s", "lower"),
    ("util.residual_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_pct", "%", "higher"),
    *WORKLOAD_SPECIFIC,
)


class MachineTally:
    """Exact simulator counters, summed over every ``Cluster.run`` of a pass.

    Installed as the tracer's ``Cluster.run`` return hook: the clusters a
    workload builds internally (``replay``, ``trsm``, the daemon's flushes)
    are reachable nowhere else from outside the program.
    """

    def __init__(self) -> None:
        self.values = {name: 0.0 for name, _, _ in PER_LAYER if name.startswith("machine.sim_")}
        self.values.update({"backend.plan_words": 0.0, "backend.plan_msgs": 0.0})

    def add(self, args: tuple, _result: object) -> None:
        cluster = args[0]
        machine, v = cluster.machine, self.values
        path = machine.critical_path()
        v["machine.sim_S"] += path.S
        v["machine.sim_W_words"] += path.W
        v["machine.sim_F_flops"] += path.F
        v["machine.sim_peak_words"] = max(v["machine.sim_peak_words"], machine.memory.peak_words())
        for phase in PHASES:
            v[f"machine.sim_{phase}_us"] += machine.phase_cost(phase).time(machine.params) * 1e6
        for m in cluster.backend.measurements():
            v["backend.plan_words"] += m.words
            v["backend.plan_msgs"] += m.messages


def layer_metrics(
    rows: list[dict],
    root_seconds: float,
    counters: dict[str, float],
    attempted: int,
    traced_seconds: float,
    untraced_seconds: float,
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric except the workload-specific block.

    ``rows``/``root_seconds`` are :meth:`Tracer.by_target` and
    :meth:`Tracer.root_seconds` of the traced pass; ``untraced_seconds`` is
    the same pass (same seed) run without the tracer.
    """
    out = {name: 0.0 for name, _, _ in PER_LAYER[: -len(WORKLOAD_SPECIFIC)]}

    def total(key: str, *, layer: str | None = None, label: str | None = None) -> float:
        return sum(
            r[key]
            for r in rows
            if (layer is None or r["layer"] == layer) and (label is None or r["label"] == label)
        )

    for layer in LAYERS:
        out[f"{layer}.calls"] = total("calls", layer=layer)
        out[f"{layer}.self_s"] = total("self_s", layer=layer)
    out["api.online.flush_calls"] = total("calls", label="flush")
    out["api.online.flush_s"] = total("inclusive_s", label="flush")
    offers = total("calls", label="offer")
    offer_s = total("inclusive_s", label="offer")
    out["api.online.offer_us"] = offer_s / offers * 1e6 if offers else 0.0
    out["api.host_s"] = total("inclusive_s", label="host")
    out["api.run_s"] = total("inclusive_s", label="run")
    out["api.execute_self_s"] = total("self_s", label="execute")
    out["sched.schedule_s"] = total("inclusive_s", label="schedule")
    out["sched.us_per_request"] = out["sched.schedule_s"] / attempted * 1e6
    out["sched.alloc_preview_calls"] = total("calls", label="preview")
    for label in ("from_global", "to_global", "stage", "route", "plan_build"):
        out[f"dist.{label}_s"] = total("inclusive_s", label=label)
        out[f"dist.{label}_calls"] = total("calls", label=label)
    out["backend.plan_calls"] = total("calls", label="plan")
    out["backend.plan_s"] = total("inclusive_s", label="plan")
    out["machine.collective_calls"] = total("calls", label="collective")
    out["machine.collective_s"] = total("self_s", label="collective")
    out["tuning.s"] = total("inclusive_s", label="tuned")
    out["trsm.it_inv_self_s"] = total("self_s", label="it_inv")
    out["trsm.rec_self_s"] = total("self_s", label="rec")
    out["trsm.diag_inv_s"] = total("inclusive_s", label="diag_inv")
    out["util.randmat_s"] = total("inclusive_s", label="randmat")
    out["util.residual_s"] = total("inclusive_s", label="residual")
    out.update({k: v for k, v in counters.items() if k in out})
    nodes = out["sched.search_nodes"]
    out["sched.us_per_node"] = out["sched.schedule_s"] / nodes * 1e6 if nodes else 0.0
    out["trace.overhead_pct"] = 100.0 * (traced_seconds - untraced_seconds) / untraced_seconds
    out["trace.coverage_pct"] = 100.0 * root_seconds / traced_seconds
    return out
