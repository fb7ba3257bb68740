"""Cluster: one machine, a pool of subgrids, many concurrent solves.

The front-end the public API is built around.  A :class:`Cluster` owns one
simulated :class:`~repro.machine.machine.Machine` and a
:class:`~repro.sched.SubgridAllocator` pool over all of its ranks.  Typed
requests (:mod:`repro.api.requests`) are queued with :meth:`submit`;
:meth:`run` packs the queue onto disjoint subgrids with the
:class:`~repro.sched.Scheduler` and replays the packing on the machine.
The packing decision rule is pluggable (``policy="lpt"`` greedy LPT, the
default; ``"horizon"`` branch-and-bound on a sliding window, serving any
queue length; ``"optimal"`` the same search unbudgeted, exhaustive ground
truth for queues that fit its window — see :mod:`repro.sched.policies`).

Because a charge only advances the clocks of the ranks it touches, requests
executed on disjoint subgrids overlap in simulated time exactly as the
schedule modeled — the measured makespan is ``machine.time()``, and a
request placed on a just-freed subgrid starts when that subgrid's previous
tenant finished (the ranks' clocks carry the history).

Operands can be *hosted* on the cluster's data plane (:meth:`host` — the
full 2D grid, cyclic layout, free initial placement) and then referenced by
any number of requests; each placement stages them onto the assigned
subgrid at the exact :mod:`repro.dist.routing` migration cost, priced by
the scheduler before committing and charged point-to-point during
execution (no global barrier, so staging one request does not serialize
the others).

Staged copies are **cached** per (operand, subgrid, layout) in an
:class:`~repro.api.opcache.OperandCache`: a request placed on a subgrid
where a valid copy of its operand is still resident from a previous
tenancy pays nothing for it — the scheduler prices the placement
accordingly (subgrid affinity), :meth:`stage_resident` serves the copy
during execution, and :class:`RequestRecord.staging_hit` /
:class:`ClusterOutcome.staging_saved_seconds` report the reuse.  Copies
are invalidated when the operand mutates or is :meth:`release`\\ d and
evicted when the allocator destroys their subgrid (coalesce/re-split).
Construct with ``cache=False`` for the uncached PR-3 behavior; a
single-request cluster never hits the cache either way.

>>> import numpy as np
>>> from repro.api import Cluster, TrsmRequest
>>> from repro.util.randmat import random_dense, random_lower_triangular
>>> cluster = Cluster(p=16)
>>> rids = [
...     cluster.submit(TrsmRequest(
...         L=random_lower_triangular(64, seed=s),
...         B=random_dense(64, 8, seed=100 + s)))
...     for s in range(3)
... ]
>>> outcome = cluster.run()
>>> [outcome.record(r).residual < 1e-10 for r in rids]
[True, True, True]
>>> outcome.modeled_makespan < outcome.serial_seconds  # packing beats serial
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.api.opcache import OperandCache
from repro.api.requests import Execution, Request
from repro.backend.base import Backend, make_backend
from repro.dist.distmatrix import DistMatrix
from repro.dist.layout import CyclicLayout, Layout
from repro.dist.redistribute import stage_matrix
from repro.machine.cost import Cost, CostParams
from repro.machine.machine import Machine
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import ParameterError, require
from repro.sched.policies import PackingPolicy, make_policy
from repro.sched.scheduler import Scheduler
from repro.util.mathutil import is_power_of_two


def latency_percentiles(
    latencies: list[float], percentiles: tuple[float, ...] = (50.0, 95.0, 99.0)
) -> dict[float, float]:
    """Nearest-rank latency percentiles in seconds (empty input → all zero).

    The one percentile implementation both :class:`ClusterOutcome` (replay
    reports) and the :mod:`repro.api.online.daemon` telemetry compute
    through, rendered by the one formatter
    :func:`repro.analysis.serve.latency_report`.
    """
    lats = sorted(latencies)
    if not lats:
        return {q: 0.0 for q in percentiles}
    out = {}
    for q in percentiles:
        rank = max(0, min(len(lats) - 1, int(math.ceil(q / 100.0 * len(lats))) - 1))
        out[q] = lats[rank]
    return out


@dataclass(slots=True)
class RequestRecord:
    """One completed request: placement, model, and measurement."""

    rid: int
    kind: str
    value: object
    algorithm: str
    residual: float | None
    choice: object
    grid: ProcessorGrid
    size: int
    staging: Cost
    staging_seconds: float
    modeled: Cost
    modeled_seconds: float
    modeled_start: float
    modeled_finish: float
    measured: Cost
    measured_start: float
    measured_finish: float
    #: at least one resident operand was served from the staged-copy cache
    staging_hit: bool = False
    #: modeled migration seconds this request did *not* pay thanks to it
    staging_saved_seconds: float = 0.0
    #: the online-serving fields, copied off the request (offline replays
    #: carry the defaults): when the request arrived, its priority class,
    #: its SLA deadline in simulated seconds, and its admission tenant
    arrival: float = 0.0
    priority: int = 0
    deadline: float | None = None
    tenant: str = "default"

    def latency_seconds(self) -> float:
        """Sojourn time: measured finish minus arrival (queueing included)."""
        return self.measured_finish - self.arrival

    def sla_met(self) -> bool | None:
        """Whether the SLA held (``None`` for best-effort requests)."""
        if self.deadline is None:
            return None
        return self.measured_finish <= self.deadline


@dataclass(slots=True)
class ClusterOutcome:
    """What one :meth:`Cluster.run` produced, with aggregate views."""

    records: list[RequestRecord]
    p: int
    params: CostParams
    modeled_makespan: float
    measured_makespan: float
    occupancy: float
    serial_seconds: float
    #: name of the packing policy that produced the schedule
    policy: str = "lpt"
    #: modeled migration seconds the operand cache saved across the run
    staging_saved_seconds: float = 0.0
    #: resident-operand stagings served from / missing the cache
    staging_hits: int = 0
    staging_misses: int = 0
    #: scheduler PricingMemo staging-target traffic (0/0 = cache off)
    pricing_hits: int = 0
    pricing_misses: int = 0
    _by_rid: dict[int, RequestRecord] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self._by_rid = {r.rid: r for r in self.records}

    def record(self, rid: int) -> RequestRecord:
        """The record of the request ``submit`` returned ``rid`` for."""
        got = self._by_rid.get(rid)
        if got is None:
            raise KeyError(f"no record for request id {rid}")
        return got

    def staging_hit_rate(self) -> float:
        """Cache hit fraction over resident-operand stagings (0 when none)."""
        total = self.staging_hits + self.staging_misses
        return self.staging_hits / total if total else 0.0

    def pricing_hit_rate(self) -> float:
        """PricingMemo hit fraction over staging-target lookups (0 when off)."""
        total = self.pricing_hits + self.pricing_misses
        return self.pricing_hits / total if total else 0.0

    def latencies(self) -> list[float]:
        """Per-request sojourn times (measured finish minus arrival)."""
        return [r.latency_seconds() for r in self.records]

    def latency_percentiles(
        self, percentiles: tuple[float, ...] = (50.0, 95.0, 99.0)
    ) -> dict[float, float]:
        """Request-latency percentiles in seconds (empty run → all zero).

        Nearest-rank percentiles over :meth:`latencies` — the p50/p95/p99
        summary both the replay reports and the daemon telemetry print
        (one formatter: :func:`repro.analysis.serve.latency_report`).
        """
        return latency_percentiles(self.latencies(), percentiles)

    def sla_summary(self) -> dict[str, int]:
        """SLA outcome counts: requests with deadlines met/missed/best-effort."""
        met = missed = best_effort = 0
        for r in self.records:
            ok = r.sla_met()
            if ok is None:
                best_effort += 1
            elif ok:
                met += 1
            else:
                missed += 1
        return {"met": met, "missed": missed, "best_effort": best_effort}

    def throughput(self) -> float:
        """Completed requests per modeled second."""
        if self.modeled_makespan <= 0.0:
            return 0.0
        return len(self.records) / self.modeled_makespan

    def speedup_vs_serial(self) -> float:
        """Serial full-grid time over the packed modeled makespan."""
        if self.modeled_makespan <= 0.0:
            return float("inf") if self.serial_seconds > 0.0 else 1.0
        return self.serial_seconds / self.modeled_makespan


class Cluster:
    """A simulated machine serving a queue of heterogeneous requests."""

    def __init__(
        self,
        p: int,
        params: CostParams | None = None,
        cache: bool = True,
        policy: PackingPolicy | str | None = None,
        backend: Backend | str | None = None,
    ):
        """Build a cluster of ``p`` ranks.

        ``params`` are the machine cost constants (default
        :class:`CostParams`), ``cache=False`` disables staged-copy reuse,
        ``policy`` names the packing rule and ``backend`` the execution
        backend (``None``/``"sim"``, ``"mpi"``, or a
        :class:`~repro.backend.Backend` instance).
        """
        require(
            is_power_of_two(p), ParameterError, f"p must be a power of two, got {p}"
        )
        self.p = int(p)
        self.params = params or CostParams()
        #: the execution backend plans route through (repro.backend)
        self.backend = make_backend(backend)
        self.machine = Machine(self.p, params=self.params, backend=self.backend)
        #: the packing decision rule ("lpt", "horizon", "optimal", or a
        #: PackingPolicy instance; see repro.sched.policies)
        self.policy = make_policy(policy)
        #: the quadrant pool over all ranks (repro.sched.SubgridAllocator)
        self.pool = self.machine.grid_pool()
        #: the data plane: hosted operands live here in a cyclic layout
        self.plane = self.pool.root_grid
        self.plane_layout = CyclicLayout(*self.plane.shape)
        #: staged-copy reuse across requests, under every packing policy
        #: (None = ``cache=False``, every staging charged in full)
        self.opcache: OperandCache | None = OperandCache() if cache else None
        self._queue: list[Request] = []
        self._next_rid = 0
        self._exec_hits = 0
        self._exec_misses = 0

    # -- data plane ---------------------------------------------------------

    def host(self, A: np.ndarray) -> DistMatrix:
        """Place a matrix on the data plane (free initial placement).

        The returned handle can be used as an operand in any number of
        requests; every placement migrates it to the assigned subgrid at
        the exact routing charge (unlike ndarray operands, which the
        simulation places on the subgrid for free).
        """
        A = np.asarray(A, dtype=np.float64)
        require(A.ndim == 2, ParameterError, "host() takes a 2D matrix")
        return DistMatrix.from_global(self.machine, self.plane, self.plane_layout, A)

    def release(self, operand: DistMatrix) -> int:
        """Declare a hosted operand dead: drop its cached staged copies.

        The handle itself stays usable (the simulation never reclaims
        memory), but no future placement can be served a copy of it.
        Returns the number of cached copies dropped.
        """
        if self.opcache is None:
            return 0
        return self.opcache.invalidate(operand)

    def stage_resident(
        self,
        operand: DistMatrix,
        grid: ProcessorGrid,
        layout: Layout,
        label: str = "cluster.stage",
    ) -> DistMatrix:
        """Stage a resident operand onto ``grid``/``layout`` via the cache.

        The Cluster's staging primitive: a valid cached copy from a
        previous tenancy of the same subgrid is handed back as a private
        working copy for free; otherwise the operand migrates at the
        exact point-to-point routing charge and the staged copy is filed
        for the next tenant.
        """
        require(
            operand.machine is self.machine,
            ParameterError,
            "resident operand belongs to a different cluster's machine",
        )
        if self.opcache is not None:
            cached = self.opcache.lookup(operand, grid, layout)
            if cached is not None:
                self._exec_hits += 1
                return cached
            self._exec_misses += 1
        with self.machine.phase("staging"):
            staged = stage_matrix(operand, grid, layout, label=label)
        if self.opcache is not None:
            self.opcache.store(operand, grid, layout, staged)
        return staged

    # -- queue --------------------------------------------------------------

    def submit(self, request: Request) -> int:
        """Queue a typed request; returns its id for :meth:`ClusterOutcome.record`."""
        require(
            isinstance(request, Request),
            ParameterError,
            f"submit() takes a Request (TrsmRequest, MMRequest, InvRequest, "
            f"PreparedSolveRequest), got {type(request).__name__}",
        )
        self._queue.append(request)
        rid = self._next_rid
        self._next_rid += 1
        return rid

    def pending(self) -> int:
        """Queued requests not yet run."""
        return len(self._queue)

    # -- execution ----------------------------------------------------------

    def run(self) -> ClusterOutcome:
        """Schedule the queued requests onto subgrids and execute them.

        The scheduler packs the queue to minimize the *modeled* makespan
        (closed-form costs plus exact operand-migration plans); execution
        replays the packing in start order on the shared machine, whose
        group-synchronization semantics reproduce the overlap.  Returns a
        :class:`ClusterOutcome`; the queue is left empty.
        """
        queue = self._queue
        base_rid = self._next_rid - len(queue)
        self._queue = []
        if self.opcache is not None:
            # A copy lives exactly as long as its allocator block, and a
            # drained pool has no blocks: entries left over from manual
            # stage_resident() warm-ups have no tenancy and must not be
            # priced as hits (the first allocation's splits would destroy
            # them mid-run and diverge the plan from the measurement).
            self.opcache.evict_grid(self.pool.root_grid)
        schedule = Scheduler(
            self.pool, self.params, cache=self.opcache, policy=self.policy
        ).schedule(queue)
        require(
            self.pool.drained(),
            ParameterError,
            "scheduler must return the pool drained",
        )
        records: list[RequestRecord] = []
        # Allocator destroy events in modeled-time order: replayed against
        # the real cache as execution advances, so a copy the planner saw
        # evicted (subgrid coalesced or re-split) is never served here.
        evictions = list(schedule.evictions)
        next_evict = 0
        for a in schedule.assignments:
            rid = base_rid + a.index
            region = f"request:{rid}"
            ranks = a.grid.ranks()
            while next_evict < len(evictions) and evictions[next_evict][0] <= a.start:
                if self.opcache is not None:
                    self.opcache.evict_grid(evictions[next_evict][1])
                next_evict += 1
            # A request cannot start before it arrives: lift the subgrid's
            # clocks to the arrival time so the measured window is physical.
            self.machine.advance_group(ranks, a.request.arrival)
            started = self.machine.group_time(ranks)
            self._exec_hits = self._exec_misses = 0
            with self.machine.region(region):
                ex: Execution = a.request.execute(self, a.grid)
            require(
                (self._exec_hits, self._exec_misses)
                == (a.cache_hits, a.cache_misses)
                or self.opcache is None,
                ParameterError,
                f"request {rid}: staged-copy reuse diverged from the "
                f"schedule (planned {a.cache_hits} hits/{a.cache_misses} "
                f"misses, measured {self._exec_hits}/{self._exec_misses})",
            )
            records.append(
                RequestRecord(
                    rid=rid,
                    kind=a.request.kind,
                    value=ex.value,
                    algorithm=ex.algorithm,
                    residual=ex.residual,
                    choice=ex.choice,
                    grid=a.grid,
                    size=a.size,
                    staging=a.staging,
                    staging_seconds=a.staging_seconds,
                    modeled=a.modeled,
                    modeled_seconds=a.exec_seconds,
                    modeled_start=a.start,
                    modeled_finish=a.finish,
                    measured=self.machine.region_cost(region),
                    measured_start=started,
                    measured_finish=self.machine.group_time(ranks),
                    staging_hit=a.cache_hits > 0,
                    staging_saved_seconds=a.staging_saved_seconds,
                    arrival=a.request.arrival,
                    priority=a.request.priority,
                    deadline=a.request.deadline,
                    tenant=a.request.tenant,
                )
            )
        if self.opcache is not None:
            # Apply the trailing destroy events (the end-of-run drain
            # coalesces the pool back to the root, ending every tenancy).
            for _, grid in evictions[next_evict:]:
                self.opcache.evict_grid(grid)
        serial = sum(
            req.modeled_cost(max(req.candidate_sizes(self.p)), self.params).time(
                self.params
            )
            for req in queue
        )
        return ClusterOutcome(
            records=records,
            p=self.p,
            params=self.params,
            modeled_makespan=schedule.makespan,
            measured_makespan=self.machine.time(),
            occupancy=schedule.occupancy(),
            serial_seconds=serial,
            policy=schedule.policy,
            staging_saved_seconds=sum(a.staging_saved_seconds for a in schedule.assignments),
            staging_hits=sum(a.cache_hits for a in schedule.assignments),
            staging_misses=sum(a.cache_misses for a in schedule.assignments),
            pricing_hits=schedule.pricing_hits,
            pricing_misses=schedule.pricing_misses,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cluster(p={self.p}, params={self.params.name!r}, "
            f"pending={len(self._queue)})"
        )
