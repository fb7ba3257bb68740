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
the one serving-layer module allowlisted by the ``backend-discipline`` lint rule;
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
socket (:meth:`ServeDaemon.serve_unix`, ``--socket PATH``); both run the
same line loop.  The load-test mode (:meth:`ServeDaemon.run_load_test`)
replaces the wall clock with a seeded arrival process from
:mod:`repro.api.online.arrivals` — fully reproducible.  Protocol lines
and load-test entries alike enter admission through one door,
:meth:`ServeDaemon._admit` (the ``daemon_online`` workload of
``benchmarks/perf`` measures the whole pipeline).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

from repro.api.cluster import Cluster, ClusterOutcome, latency_percentiles
from repro.api.online.admission import (
    Admitted,
    AdmissionConfig,
    AdmissionController,
    Deferred,
    Rejected,
)
from repro.api.serve import StreamRequest, _trsm_requests
from repro.dist.routing import plan_cache_stats
from repro.machine.cost import CostParams
from repro.machine.validate import ParameterError, require
from repro.sched.policies import make_policy

__all__ = ["DaemonConfig", "ServeDaemon"]

#: The largest solve one protocol line may ask for, in operand words
#: (``n*n + n*k``; 2**24 float64 words = 128 MiB, n just under 4096).
#: Admission allocates nothing, so without a bound an oversized line is
#: admitted and then surfaces as a ``MemoryError`` — or the OOM killer —
#: inside the next flush, taking the batch it was queued with down too.
MAX_OPERAND_WORDS = 1 << 24


@dataclass(frozen=True, slots=True)
class DaemonConfig:
    """Daemon knobs: pool, batching, clock mapping, admission.

    ``time_scale`` maps wall seconds onto simulated seconds (the default
    1e-6 makes one wall second one simulated microsecond — the scale of
    a mid-size solve, so interactive gaps become meaningful simulated
    gaps).  ``batch`` auto-flushes whenever that many requests are
    queued.  ``verify`` checks every solve's residual (slower).  Every
    flush runs with the operand cache on and logs one telemetry record.
    A policy that refuses queues longer than its ``max_queue`` (the
    exhaustive ``"optimal"``) is refused here when ``batch`` exceeds it:
    otherwise the first full batch would fail to schedule.
    """

    p: int = 16
    params: CostParams | None = None
    policy: str | None = None
    verify: bool = False
    time_scale: float = 1e-6
    batch: int = 8
    admission: AdmissionConfig | None = None

    def __post_init__(self) -> None:
        require(self.batch >= 1, ParameterError, f"batch must be >= 1, got {self.batch}")
        require(
            self.time_scale > 0.0,
            ParameterError,
            f"time_scale must be > 0, got {self.time_scale}",
        )
        bound = make_policy(self.policy).max_queue
        require(
            bound is None or self.batch <= bound,
            ParameterError,
            f"policy {self.policy!r} searches at most {bound} requests "
            f"exhaustively, fewer than batch={self.batch}",
        )


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


def _whole(msg: dict, name: str, default: int | None = None) -> int:
    """An integral protocol field: ``64`` and ``64.0`` are, ``true`` (which
    ``int()`` reads as 1), ``32.9`` and ``Infinity`` are not."""
    value = msg[name] if default is None else msg.get(name, default)
    require(
        not isinstance(value, bool)
        and not (isinstance(value, float) and not value.is_integer()),
        ParameterError,
        f"trsm needs an integer {name}, got {value!r}",
    )
    return int(value)


def _seconds(value: float | str) -> float:
    """A time field as a float; a JSON integer too large for one (which
    ``float()`` raises ``OverflowError`` on) reads as infinite, so the
    finiteness check refuses it like ``1e999``."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _line(obj: dict) -> str:
    """One compact JSON protocol line."""
    return json.dumps(obj, separators=(",", ":")) + "\n"


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
        self.totals = _Totals()
        self.last_outcome: ClusterOutcome | None = None
        #: one telemetry record per flush (the line loop forwards them)
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
        except ValueError as e:  # JSONDecodeError, or an int past the digit limit
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
                final = self.flush() if self.admission.pending() else None
                self._stop = True
                out = {"ok": True, "op": "shutdown", **self.telemetry()}
                if final is not None:
                    out["final_flush"] = final
                return out
        except (ParameterError, ValueError, TypeError, KeyError) as e:
            return {"ok": False, "op": op, "error": f"{type(e).__name__}: {e}"}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _handle_trsm(self, msg: dict) -> dict:
        """Parse and validate one ``trsm`` line, then the admit door.

        Anything no solve accepts is refused here, *before* admission:
        admitted, it would fail the next flush for every request batched
        with it.
        """
        now = self.sim_now()
        n = _whole(msg, "n")
        k = _whole(msg, "k", 1)
        require(
            n >= 1 and k >= 1,
            ParameterError,
            f"trsm needs n >= 1 and k >= 1, got n={n}, k={k}",
        )
        words = n * n + n * k
        require(
            words <= MAX_OPERAND_WORDS,
            ParameterError,
            f"trsm operands of n={n}, k={k} take {words} words; this daemon "
            f"serves at most {MAX_OPERAND_WORDS}",
        )
        seed = _whole(msg, "seed", 0)
        require(seed >= 0, ParameterError, f"trsm needs seed >= 0, got {seed}")
        priority = _whole(msg, "priority", 0)
        tenant = str(msg.get("tenant", "default"))
        if msg.get("deadline") is not None:
            deadline = _seconds(msg["deadline"])
        elif msg.get("sla") is not None:
            deadline = now + _seconds(msg["sla"])
        else:
            deadline = None
        require(
            deadline is None or math.isfinite(deadline),
            ParameterError,
            "trsm needs a finite sla/deadline",
        )
        return self._admit(
            StreamRequest(
                n=n,
                k=k,
                arrival=now,
                seed=seed,
                priority=priority,
                deadline=deadline,
                tenant=tenant,
            )
        )

    def _admit(self, entry: StreamRequest) -> dict:
        """The admit door: offer ``entry`` to admission at its arrival time.

        The only caller of :meth:`AdmissionController.offer` — protocol
        lines and load-test entries both come through here.  Returns the
        ``trsm`` response (the typed decision; an admitted request's
        ``rid`` *is* its admission ``seq``) and auto-flushes when the
        queue reaches ``batch``.
        """
        now = entry.arrival
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
        out = {
            "ok": True,
            "op": "trsm",
            "decision": "admitted",
            "rid": decision.seq,
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
        drained = self.admission.drain()
        if not drained:
            return {"completed": 0, "results": []}
        cfg = self.config
        seqs, entries = zip(*drained)
        base = min(e.arrival for e in entries)
        cluster = Cluster(cfg.p, params=cfg.params, policy=cfg.policy)
        requests = _trsm_requests(cluster, entries, verify=cfg.verify, base=base)
        rid_of = {cluster.submit(req): seq for req, seq in zip(requests, seqs)}
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

    def _serve_lines(self, lines, write) -> int:
        """The line loop both transports run; returns processed count.

        Blank lines are skipped; every request line gets exactly one
        compact JSON response line through ``write``, followed by the
        telemetry records its flushes logged.  Ends at EOF or on
        ``shutdown``.
        """
        processed = 0
        seen = len(self.telemetry_log)
        for line in lines:
            if not line.strip():
                continue
            response = self.handle(line)
            processed += 1
            for obj in (response, *self.telemetry_log[seen:]):
                write(_line(obj))
            seen = len(self.telemetry_log)
            if self._stop:
                break
        return processed

    def run_stdin(self, stdin=None, stdout=None) -> int:
        """Line-protocol loop over stdin/stdout; returns processed count.

        EOF performs a final flush and a telemetry line, same as
        ``shutdown``.
        """
        import sys

        fin = sys.stdin if stdin is None else stdin
        fout = sys.stdout if stdout is None else stdout

        def write(text: str) -> None:
            fout.write(text)
            fout.flush()

        processed = self._serve_lines(fin, write)
        if not self._stop:
            if self.admission.pending():
                write(_line({"ok": True, "op": "flush", **self.flush()}))
            write(_line({"op": "telemetry", **self.telemetry()}))
            self._stop = True
        return processed

    def serve_unix(self, path: str, accept_timeout: float = 0.5) -> int:
        """Serve the line protocol on a Unix domain socket at ``path``.

        One client at a time (the operator console); each connection runs
        the same line loop as stdin, and a ``shutdown`` op ends the accept
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
                with conn, conn.makefile("r", encoding="utf-8") as reader:
                    processed += self._serve_lines(
                        reader, lambda text: conn.sendall(text.encode("utf-8"))
                    )
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
        n_range: tuple[int, int] = (64, 128),
        k_range: tuple[int, int] = (8, 32),
        **stream_knobs,
    ) -> dict:
        """Drive the daemon from a seeded arrival process, no wall clock.

        The load-test mode the arrival generators exist for: each entry of
        ``synthetic_stream(count, rate, n_range, k_range, **stream_knobs)``
        (see :func:`~repro.api.online.arrivals.synthetic_stream` for
        ``process``, ``seed``, ``tenants``, ``priorities``,
        ``deadline_slack`` and the per-process knobs) goes through the
        admit door at its own simulated arrival time (bypassing the wall
        clock entirely, so runs are exactly reproducible), batches flush
        on the daemon's normal ``batch`` boundary, and the returned
        summary adds the offered count and this run's rejected/deferred
        counts (from the admission controller's counters) to the
        telemetry.
        """
        from repro.api.online.arrivals import synthetic_stream

        stream = synthetic_stream(
            count, rate=rate, n_range=n_range, k_range=k_range, **stream_knobs
        )
        before = self.admission.stats()
        for s in stream:
            self._sim_floor = max(s.arrival, self._sim_floor)
            self._admit(replace(s, arrival=self._sim_floor))
        if self.admission.pending():
            self.flush()
        after = self.admission.stats()
        return {
            "offered": len(stream),
            "rejected": after["rejected"] - before["rejected"],
            "deferred": after["deferred"] - before["deferred"],
            **self.telemetry(),
        }
