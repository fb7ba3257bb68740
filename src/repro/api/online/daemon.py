"""The serve daemon: online requests against the simulated machine.

Everything below :mod:`repro.api` runs in *virtual* time — the simulated
machine's clocks advance by modeled charges, never by the host's.  The
daemon is the one deliberate bridge: a long-running loop
(``python -m repro serve --daemon``) that accepts JSON requests as they
arrive in *wall-clock* time, maps wall gaps onto simulated arrival times
(``time_scale`` simulated seconds per wall second), gates them through
the :class:`~repro.api.online.admission.AdmissionController`, and
executes admitted batches on fresh :class:`~repro.api.cluster.Cluster`
runs — emitting occupancy/latency/hit-rate telemetry as it goes.  It is
the only module allowlisted by the ``wallclock-discipline`` lint rule;
the clock is injectable precisely so every test drives the daemon in
virtual time too.

Protocol: one JSON object per line, one JSON response per line.

* ``{"op": "trsm", "n": 128, "k": 16, "seed": 0, "priority": 1,
  "sla": 2e-4, "tenant": "acme"}`` — offer one solve.  ``sla`` is
  deadline slack in simulated seconds (``deadline = arrival + sla``);
  an absolute ``deadline`` is accepted too.  The response carries the
  typed admission decision (``admitted`` + rid, ``rejected`` + reason,
  or ``deferred`` + retry time);
* ``{"op": "flush"}`` — run everything admitted so far as one batch and
  return its outcome (per-request residuals and latencies, makespan,
  occupancy, cache rates).  Batches also flush automatically whenever
  ``batch`` requests are queued;
* ``{"op": "stats"}`` — the cumulative telemetry snapshot;
* ``{"op": "shutdown"}`` — final flush, respond, stop.

Transport is stdin/stdout (:meth:`ServeDaemon.run_stdin`) or a Unix
socket (:meth:`ServeDaemon.serve_unix`, ``--socket PATH``).  The
load-test mode (:meth:`ServeDaemon.run_load_test`) replaces the wall
clock with a seeded arrival process from
:mod:`repro.api.online.arrivals` — fully reproducible, and what
``benchmarks/bench_daemon.py`` gates sustained throughput on.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.api.cluster import Cluster, ClusterOutcome, latency_percentiles
from repro.api.online.admission import (
    Admitted,
    AdmissionConfig,
    AdmissionController,
    Deferred,
    Rejected,
)
from repro.api.serve import _trsm_requests
from repro.dist.routing import plan_cache_stats
from repro.machine.cost import CostParams
from repro.machine.validate import ParameterError, require

__all__ = ["DaemonConfig", "ServeDaemon"]


@dataclass(frozen=True, slots=True)
class DaemonConfig:
    """Daemon knobs: pool, batching, clock mapping, admission.

    ``time_scale`` maps wall seconds onto simulated seconds (the default
    1e-6 makes one wall second one simulated microsecond — the scale of
    a mid-size solve, so interactive gaps become meaningful simulated
    gaps).  ``batch`` auto-flushes whenever that many requests are
    queued; ``telemetry_every`` emits a telemetry record every N flushes
    (0 = only on request).  ``verify`` checks every solve's residual
    (slower; the CI smoke turns it on for one request).
    """

    p: int = 16
    params: CostParams | None = None
    policy: str | None = None
    cache: bool = True
    verify: bool = False
    time_scale: float = 1e-6
    batch: int = 8
    telemetry_every: int = 1
    admission: AdmissionConfig | None = None

    def __post_init__(self) -> None:
        require(self.batch >= 1, ParameterError, f"batch must be >= 1, got {self.batch}")
        require(
            self.time_scale > 0.0,
            ParameterError,
            f"time_scale must be > 0, got {self.time_scale}",
        )


@dataclass(slots=True)
class _Pending:
    """One admitted solve waiting for its flush batch."""

    rid: int
    n: int
    k: int
    seed: int
    arrival: float
    priority: int
    deadline: float | None
    tenant: str


@dataclass(slots=True)
class _Totals:
    """Cumulative serving counters across flush batches."""

    completed: int = 0
    flushes: int = 0
    sim_busy_seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    sla_met: int = 0
    sla_missed: int = 0
    staging_hits: int = 0
    staging_misses: int = 0
    pricing_hits: int = 0
    pricing_misses: int = 0


class ServeDaemon:
    """A live front-end over one admission controller and many batch runs.

    ``clock`` is any zero-argument callable returning seconds; it
    defaults to ``time.monotonic`` (the daemon is the lint-allowlisted
    wall-clock boundary) and tests inject a virtual clock instead.  Sim
    time is ``(clock() - start) * time_scale``, so the whole pipeline —
    admission token buckets, arrival stamps, SLA deadlines — runs in
    simulated seconds regardless of which clock drives it.
    """

    def __init__(
        self,
        config: DaemonConfig | None = None,
        clock=None,
    ) -> None:
        self.config = config or DaemonConfig()
        self._clock = time.monotonic if clock is None else clock
        self._t0 = float(self._clock())
        self.admission = AdmissionController(self.config.admission)
        self._queue: dict[int, _Pending] = {}
        self._next_rid = 0
        self.totals = _Totals()
        self.last_outcome: ClusterOutcome | None = None
        #: telemetry records emitted by ``telemetry_every`` (a transport
        #: loop may also forward them; see :meth:`run_stdin`)
        self.telemetry_log: list[dict] = []
        self._stop = False
        self._sim_floor = 0.0

    # -- clocks --------------------------------------------------------------

    def sim_now(self) -> float:
        """The current simulated time: scaled elapsed clock, monotone."""
        now = (float(self._clock()) - self._t0) * self.config.time_scale
        # A virtual clock may be coarse; admission requires monotonicity.
        self._sim_floor = max(self._sim_floor, now)
        return self._sim_floor

    @property
    def stopped(self) -> bool:
        return self._stop

    # -- the protocol --------------------------------------------------------

    def handle(self, line: str) -> dict:
        """Process one protocol line; always returns a JSON-ready dict."""
        try:
            msg = json.loads(line)
        except json.JSONDecodeError as e:
            return {"ok": False, "error": f"bad JSON: {e}"}
        if not isinstance(msg, dict) or "op" not in msg:
            return {"ok": False, "error": 'expected {"op": ...}'}
        op = msg["op"]
        try:
            if op == "trsm":
                return self._handle_trsm(msg)
            if op == "flush":
                return {"ok": True, "op": "flush", **self.flush()}
            if op == "stats":
                return {"ok": True, "op": "stats", **self.telemetry()}
            if op == "shutdown":
                final = self.flush() if self._queue else None
                self._stop = True
                out = {"ok": True, "op": "shutdown", **self.telemetry()}
                if final is not None:
                    out["final_flush"] = final
                return out
        except (ParameterError, ValueError, TypeError, KeyError) as e:
            return {"ok": False, "op": op, "error": f"{type(e).__name__}: {e}"}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _handle_trsm(self, msg: dict) -> dict:
        now = self.sim_now()
        n = int(msg["n"])
        k = int(msg.get("k", 1))
        # refuse a shape no solve accepts *before* admission: admitted, it
        # would fail the next flush for every request batched with it
        require(
            n >= 1 and k >= 1,
            ParameterError,
            f"trsm needs n >= 1 and k >= 1, got n={n}, k={k}",
        )
        seed = int(msg.get("seed", 0))
        priority = int(msg.get("priority", 0))
        tenant = str(msg.get("tenant", "default"))
        if msg.get("deadline") is not None:
            deadline = float(msg["deadline"])
        elif msg.get("sla") is not None:
            deadline = now + float(msg["sla"])
        else:
            deadline = None
        entry = _Pending(
            rid=-1,
            n=n,
            k=k,
            seed=seed,
            arrival=now,
            priority=priority,
            deadline=deadline,
            tenant=tenant,
        )
        decision = self.admission.offer(entry, now=now)
        if isinstance(decision, Rejected):
            return {
                "ok": True,
                "op": "trsm",
                "decision": "rejected",
                "reason": decision.reason,
                "sim_time": now,
            }
        if isinstance(decision, Deferred):
            return {
                "ok": True,
                "op": "trsm",
                "decision": "deferred",
                "retry_at": decision.retry_at,
                "reason": decision.reason,
                "sim_time": now,
            }
        assert isinstance(decision, Admitted)
        rid = self._next_rid
        self._next_rid += 1
        entry.rid = rid
        self._queue[id(entry)] = entry
        out = {
            "ok": True,
            "op": "trsm",
            "decision": "admitted",
            "rid": rid,
            "seq": decision.seq,
            "sim_time": now,
            "queued": self.admission.pending(),
        }
        if self.admission.pending() >= self.config.batch:
            out["flushed"] = self.flush()
        return out

    # -- execution -----------------------------------------------------------

    def flush(self) -> dict:
        """Run every admitted request as one batch on a fresh Cluster.

        The admission queue drains in (priority class, admission order);
        arrivals and deadlines are rebased to the batch's earliest
        arrival, so each batch is a self-contained replay whose
        occupancy/makespan mean what they do offline.  Returns the batch
        summary (per-request rid/latency/residual, makespan, occupancy,
        cache rates) and folds it into the cumulative totals.
        """
        drained = [e for e in self.admission.drain() if isinstance(e, _Pending)]
        if not drained:
            return {"completed": 0, "results": []}
        cfg = self.config
        base = min(e.arrival for e in drained)
        cluster = Cluster(cfg.p, params=cfg.params, cache=cfg.cache, policy=cfg.policy)
        requests = _trsm_requests(cluster, drained, verify=cfg.verify, base=base)
        rid_of = {cluster.submit(req): e.rid for req, e in zip(requests, drained)}
        self._queue.clear()
        outcome = cluster.run()
        self.last_outcome = outcome
        t = self.totals
        t.completed += len(outcome.records)
        t.flushes += 1
        t.sim_busy_seconds += outcome.modeled_makespan
        t.latencies.extend(outcome.latencies())
        sla = outcome.sla_summary()
        t.sla_met += sla["met"]
        t.sla_missed += sla["missed"]
        t.staging_hits += outcome.staging_hits
        t.staging_misses += outcome.staging_misses
        t.pricing_hits += outcome.pricing_hits
        t.pricing_misses += outcome.pricing_misses
        results = [
            {
                "rid": rid_of[r.rid],
                "kind": r.kind,
                "ranks": r.size,
                "latency_seconds": r.latency_seconds(),
                "residual": r.residual,
                "priority": r.priority,
                "tenant": r.tenant,
                "sla_met": r.sla_met(),
            }
            for r in outcome.records
        ]
        summary = {
            "completed": len(outcome.records),
            "results": results,
            "makespan_seconds": outcome.modeled_makespan,
            "occupancy": outcome.occupancy,
            "latency": {
                f"p{int(q)}": v
                for q, v in outcome.latency_percentiles().items()
            },
        }
        if (
            cfg.telemetry_every > 0
            and t.flushes % cfg.telemetry_every == 0
        ):
            self.telemetry_log.append({"op": "telemetry", **self.telemetry()})
        return summary

    # -- observability -------------------------------------------------------

    def telemetry(self) -> dict:
        """The cumulative occupancy/latency/hit-rate snapshot (JSON-ready).

        Includes the two cache layers the profile report also surfaces:
        the :func:`repro.dist.routing.plan_cache_stats` routing-plan LRU
        and the scheduler's PricingMemo hit/miss totals.
        """
        t = self.totals
        pct = latency_percentiles(t.latencies)
        staging_total = t.staging_hits + t.staging_misses
        pricing_total = t.pricing_hits + t.pricing_misses
        return {
            "sim_time": self.sim_now(),
            "completed": t.completed,
            "flushes": t.flushes,
            "queued": self.admission.pending(),
            "admission": self.admission.stats(),
            "latency": {f"p{int(q)}": v for q, v in pct.items()},
            "sla": {"met": t.sla_met, "missed": t.sla_missed},
            "occupancy": (
                self.last_outcome.occupancy if self.last_outcome is not None else 0.0
            ),
            "throughput_rps": (
                t.completed / t.sim_busy_seconds if t.sim_busy_seconds > 0.0 else 0.0
            ),
            "staging_cache": {
                "hits": t.staging_hits,
                "misses": t.staging_misses,
                "hit_rate": t.staging_hits / staging_total if staging_total else 0.0,
            },
            "pricing_memo": {
                "hits": t.pricing_hits,
                "misses": t.pricing_misses,
                "hit_rate": t.pricing_hits / pricing_total if pricing_total else 0.0,
            },
            "plan_cache": plan_cache_stats(),
        }

    # -- transports ----------------------------------------------------------

    def run_stdin(self, stdin=None, stdout=None) -> int:
        """Line-protocol loop over stdin/stdout; returns processed count.

        Blank lines are skipped; every request line gets exactly one
        compact JSON response line.  Telemetry records due under
        ``telemetry_every`` are written between responses.  EOF performs
        a final flush and a telemetry line, same as ``shutdown``.
        """
        import sys

        fin = sys.stdin if stdin is None else stdin
        fout = sys.stdout if stdout is None else stdout

        def emit(obj: dict) -> None:
            fout.write(json.dumps(obj, separators=(",", ":")) + "\n")
            fout.flush()

        processed = 0
        seen_telemetry = 0
        for line in fin:
            if not line.strip():
                continue
            response = self.handle(line)
            processed += 1
            emit(response)
            while seen_telemetry < len(self.telemetry_log):
                emit(self.telemetry_log[seen_telemetry])
                seen_telemetry += 1
            if self._stop:
                break
        if not self._stop:
            if self._queue:
                emit({"ok": True, "op": "flush", **self.flush()})
            emit({"op": "telemetry", **self.telemetry()})
            self._stop = True
        return processed

    def serve_unix(self, path: str, accept_timeout: float = 0.5) -> int:
        """Serve the line protocol on a Unix domain socket at ``path``.

        One client at a time (the operator console); each connection runs
        the same protocol as stdin, and a ``shutdown`` op ends the accept
        loop.  Returns the number of lines processed across connections.
        """
        import os
        import socket

        if os.path.exists(path):
            os.unlink(path)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        processed = 0
        try:
            sock.bind(path)
            sock.listen(1)
            sock.settimeout(accept_timeout)
            while not self._stop:
                try:
                    conn, _ = sock.accept()
                except socket.timeout:
                    continue
                with conn:
                    reader = conn.makefile("r", encoding="utf-8")
                    seen_telemetry = len(self.telemetry_log)
                    for line in reader:
                        if not line.strip():
                            continue
                        response = self.handle(line)
                        processed += 1
                        payload = json.dumps(response, separators=(",", ":")) + "\n"
                        conn.sendall(payload.encode("utf-8"))
                        while seen_telemetry < len(self.telemetry_log):
                            extra = json.dumps(
                                self.telemetry_log[seen_telemetry],
                                separators=(",", ":"),
                            )
                            conn.sendall((extra + "\n").encode("utf-8"))
                            seen_telemetry += 1
                        if self._stop:
                            break
        finally:
            sock.close()
            if os.path.exists(path):
                os.unlink(path)
        return processed

    # -- load testing --------------------------------------------------------

    def run_load_test(
        self,
        count: int,
        rate: float,
        process: str = "poisson",
        n_range: tuple[int, int] = (64, 128),
        k_range: tuple[int, int] = (8, 32),
        seed: int = 0,
        tenants: tuple[str, ...] = ("default",),
        priorities: tuple[int, ...] = (0,),
        deadline_slack: float | None = None,
        **knobs,
    ) -> dict:
        """Drive the daemon from a seeded arrival process, no wall clock.

        The load-test mode the arrival generators exist for: a
        :func:`~repro.api.online.arrivals.synthetic_stream` is offered to
        admission at its own simulated arrival times (bypassing the wall
        clock entirely, so runs are exactly reproducible), batches flush
        on the daemon's normal ``batch`` boundary, and the returned
        summary adds offered/admitted/rejected counts to the telemetry.
        ``benchmarks/bench_daemon.py`` gates its sustained-throughput
        floor on this.
        """
        from repro.api.online.arrivals import synthetic_stream

        stream = synthetic_stream(
            count,
            rate=rate,
            process=process,
            n_range=n_range,
            k_range=k_range,
            seed=seed,
            tenants=tenants,
            priorities=priorities,
            deadline_slack=deadline_slack,
            **knobs,
        )
        offered = len(stream)
        rejected = deferred = 0
        for s in stream:
            now = max(s.arrival, self._sim_floor)
            self._sim_floor = now
            entry = _Pending(
                rid=-1,
                n=s.n,
                k=s.k,
                seed=s.seed,
                arrival=now,
                priority=s.priority,
                deadline=s.deadline,
                tenant=s.tenant,
            )
            decision = self.admission.offer(entry, now=now)
            if isinstance(decision, Rejected):
                rejected += 1
                continue
            if isinstance(decision, Deferred):
                deferred += 1
                continue
            entry.rid = self._next_rid
            self._next_rid += 1
            self._queue[id(entry)] = entry
            if self.admission.pending() >= self.config.batch:
                self.flush()
        if self._queue:
            self.flush()
        return {
            "offered": offered,
            "rejected": rejected,
            "deferred": deferred,
            **self.telemetry(),
        }
