"""Pack a queue of heterogeneous requests onto the subgrid pool.

The scheduler is an event-driven list scheduler over the modeled costs.
It owns the *mechanics* of packing; the *decision rule* — which request
is placed on which subgrid size at each decision point — is a pluggable
:class:`~repro.sched.policies.PackingPolicy` (greedy LPT by default,
conservative backfilling and an exhaustive small-queue optimum as
alternatives; see :mod:`repro.sched.policies`).  The loop:

* at every decision point the policy is consulted with a
  :class:`~repro.sched.policies.PolicyContext` — the loop's own arrived,
  future and running sequences, the allocator and the pass's one pricing
  object, handed over as they are.  Every candidate subgrid size is
  priced as ``finish = now + staging + execution``, where *staging* is the exact :mod:`repro.dist.routing`
  migration cost of the request's resident operands onto the concrete
  candidate subgrid (:meth:`SubgridAllocator.preview` exposes it before
  committing) and *execution* is the request's closed-form model on that
  size.  With an operand cache (:mod:`repro.api.opcache`) the staging
  price is *cache-aware*: a target whose staged copy is still resident on
  the candidate subgrid prices at zero, so packing actively prefers
  subgrid affinity for streams of requests over the same operands.  The
  scheduler simulates the cache forward (a :class:`~repro.api.opcache.
  CachePlan`): committed placements add their staged keys, allocator
  destroy events (coalesce/re-split) evict, and both the per-target
  decisions and the eviction times are recorded on the result so
  execution replays the exact same hits;
* the default policy scores a placement ``max(finish, area bound)`` where
  the *area bound* is ``now + (remaining queue's rank-seconds + this
  placement's rank-seconds) / capacity`` — a finish-time-greedy rule
  would grab the whole machine whenever the full grid is marginally
  faster per request and serialize the queue behind it; charging each
  candidate for the capacity it consumes is what makes the scheduler
  *pack*.  Ties prefer the smaller subgrid;
* when the policy declines to place, time advances to the earliest
  running finish (its subgrid coalesces back into the pool) or the next
  arrival, whichever comes first.

The result is a :class:`Schedule`: per-request assignments with modeled
start/finish plus the aggregate makespan and occupancy.  Execution
(:meth:`repro.api.Cluster.run`) replays the assignments in start order on
the real simulated machine — the machine's group-synchronization semantics
reproduce the packing, since charges only advance the clocks of the ranks
they touch.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Protocol, Sequence

from repro.machine.cost import Cost, CostParams
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import ParameterError, require
from repro.sched.allocator import SubgridAllocator
from repro.sched.policies import PackingPolicy, PolicyContext, make_policy
from repro.sched.pricing import DirectPricing, PricingMemo

if TYPE_CHECKING:
    from repro.api.opcache import CachePlan, OperandCache

#: one resident operand of one placement: ``(operand-cache key, target
#: grid, exact migration cost)``
StagingTarget = tuple[tuple, ProcessorGrid, Cost]


class SchedulableRequest(Protocol):
    """Everything the event loop, the policies and the pricing objects
    read from a request (:class:`repro.api.requests.Request` is the stock
    implementation; the test fakes define exactly these members).

    ``arrival`` is the earliest simulated time the request may start;
    ``priority`` (higher classes first) and ``deadline`` (an SLA target in
    simulated seconds, ``None`` for best effort) order the arrived queue
    and never affect a price.  The three methods are the pricing hooks,
    each pure in the request's pricing identity: the subgrid sizes it can
    run on, its closed-form execution cost on one size, and its
    :data:`StagingTarget` triples on one concrete subgrid, in staging
    order (``()`` when no operand is cluster-resident).

    A request *may* also define ``pricing_key()`` returning a hashable
    (or ``None``): requests with equal keys must answer all three hooks
    identically, and :class:`~repro.sched.pricing.PricingMemo` then
    prices them once.
    """

    arrival: float
    priority: int
    deadline: float | None

    def candidate_sizes(self, capacity: int) -> list[int]: ...

    def modeled_cost(self, size: int, params: CostParams) -> Cost: ...

    def staging_targets(
        self, grid: ProcessorGrid, params: CostParams
    ) -> Sequence[StagingTarget]: ...


@dataclass(slots=True)
class Assignment:
    """One request placed on one subgrid for one modeled time window."""

    index: int
    request: object
    grid: ProcessorGrid
    size: int
    start: float
    staging_seconds: float
    exec_seconds: float
    finish: float
    staging: Cost = field(default_factory=Cost.zero)
    modeled: Cost = field(default_factory=Cost.zero)
    #: cache-aware staging: the migration cost *not* paid because valid
    #: staged copies were resident, and the per-resident-target decision
    #: counts the pricing committed to (execution must reproduce them)
    staging_saved: Cost = field(default_factory=Cost.zero)
    staging_saved_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass(slots=True)
class Schedule:
    """The packed queue: assignments in start order plus aggregates."""

    assignments: list[Assignment]
    capacity: int
    #: allocator destroy events ``(modeled time, block grid)`` in event
    #: order — the Cluster replays these against the real operand cache
    #: so measured evictions mirror the modeled ones
    evictions: list[tuple[float, ProcessorGrid]] = field(default_factory=list)
    #: name of the packing policy that produced this schedule
    policy: str = "lpt"
    #: staging-target traffic of the pass's PricingMemo (0/0 when the
    #: pricing cache was off) — the hit/miss rates telemetry surfaces
    pricing_hits: int = 0
    pricing_misses: int = 0

    @property
    def makespan(self) -> float:
        """Modeled completion time of the whole queue."""
        return max((a.finish for a in self.assignments), default=0.0)

    def occupancy(self) -> float:
        """Busy rank-seconds over available rank-seconds (0..1)."""
        span = self.makespan
        if span <= 0.0:
            return 0.0
        busy = sum(a.size * (a.finish - a.start) for a in self.assignments)
        return busy / (self.capacity * span)


class Scheduler:
    """Event-driven packing of requests onto a :class:`SubgridAllocator`.

    ``policy`` selects the packing decision rule — a
    :class:`~repro.sched.policies.PackingPolicy` instance, a registry name
    (``"lpt"``, ``"backfill"``, ``"optimal"``, ``"horizon"``), or ``None``
    for the default greedy LPT.  ``cache`` (an
    :class:`~repro.api.opcache.OperandCache`, optional) makes staging
    prices cache-aware; without one the scheduler prices every placement
    at the full migration cost.  Every policy commits at the live
    (cache-aware) price; the window-search policies plan against the view
    as it stands and re-plan when a commit's price has drifted from it.
    """

    def __init__(
        self,
        allocator: SubgridAllocator,
        params: CostParams | None = None,
        cache: "OperandCache | None" = None,
        policy: PackingPolicy | str | None = None,
        pricing_cache: bool = True,
    ) -> None:
        self.allocator = allocator
        self.params = params or CostParams()
        self.policy = make_policy(policy)
        self.cache = cache
        #: memoize pricing across decision points (PricingMemo); False
        #: re-derives every price (DirectPricing, the parity reference —
        #: bit-identical schedules)
        self.pricing_cache = bool(pricing_cache)

    def schedule(self, requests: Sequence[SchedulableRequest]) -> Schedule:
        """Pack ``requests``; the pool is drained again when this returns."""
        alloc = self.allocator
        params = self.params
        require(
            alloc.drained(),
            ParameterError,
            "scheduling needs a drained pool (release running leases first)",
        )
        self.policy.reset(requests)
        items = list(enumerate(requests))
        view: "CachePlan | None" = (
            self.cache.plan() if self.cache is not None else None
        )
        # How a placement is priced is decided here, once: memoized, or
        # (the parity reference) re-derived from the request every time.
        pricing: PricingMemo | DirectPricing
        if self.pricing_cache:
            pricing = PricingMemo(params, alloc.capacity, view)
        else:
            pricing = DirectPricing(params, alloc.capacity, view)
        pricing.seed(items)
        # The event queue: ``future`` holds the requests not yet arrived,
        # latest first, so the next arrival is its tail; arrived-but-
        # unplaced requests live in ``arrived``, kept index-sorted (the
        # queue order policies see).  Advancing an arrival is a pop,
        # committing a placement a bisect — no O(queue) scan per event.
        future = sorted(items, key=lambda it: (it[1].arrival, it[0]), reverse=True)
        arrived: list[tuple[int, SchedulableRequest]] = []
        # committed, unfinished placements ``(finish, index, size, grid)``
        # in commit order — at most one per rank, so finding the earliest
        # finish is a bounded scan
        running: list[tuple[float, int, int, ProcessorGrid]] = []
        out: list[Assignment] = []
        now = 0.0
        evictions: list[tuple[float, ProcessorGrid]] = []

        def drain_arrivals() -> None:
            while future and future[-1][1].arrival <= now:
                insort(arrived, future.pop(), key=itemgetter(0))

        def on_destroy(grid: ProcessorGrid) -> None:
            # A block stopped existing: its staged copies die with it, in
            # the planned view now and (via the recorded event time) in
            # the real cache when execution reaches this point.
            assert view is not None  # only installed when a cache view exists
            view.evict_grid(grid)
            evictions.append((now, grid))

        prev_hook = alloc.on_destroy
        if view is not None:
            alloc.on_destroy = on_destroy
        try:
            prev_state: tuple[float, int, int] | None = None
            drain_arrivals()
            while arrived or future or running:
                # A legal iteration places (out grows), pops a finish
                # (running shrinks), or advances the clock; anything else
                # means the policy declined forever — fail loudly instead
                # of spinning.
                state = (now, len(out), len(running))
                require(
                    state != prev_state,
                    ParameterError,
                    f"scheduler stalled at t={now!r}: policy "
                    f"{self.policy.name!r} places nothing and no event can "
                    "advance time",
                )
                prev_state = state
                placed = True
                while placed:
                    placed = False
                    decision = self.policy.choose(
                        PolicyContext(now, alloc, params, arrived, running, pricing, future)
                    )
                    if decision is None:
                        continue
                    index, req, cand = (
                        decision.index,
                        decision.request,
                        decision.candidate,
                    )
                    pos = bisect_left(arrived, index, key=itemgetter(0))
                    require(
                        pos < len(arrived) and arrived[pos][0] == index,
                        ParameterError,
                        f"policy {self.policy.name!r} placed request {index}, "
                        "which is not an arrived, unplaced request",
                    )
                    del arrived[pos]
                    grid = alloc.allocate(cand.size)
                    assert grid is not None  # the candidate came from preview
                    if view is not None:
                        for key, target_grid, _, hit in cand.targets:
                            if not hit:
                                view.add(key, target_grid)
                    a = Assignment(
                        index=index,
                        request=req,
                        grid=grid,
                        size=cand.size,
                        start=now,
                        staging_seconds=cand.staging.time(params),
                        exec_seconds=cand.modeled.time(params),
                        finish=cand.finish,
                        staging=cand.staging,
                        modeled=cand.modeled,
                        staging_saved=cand.saved,
                        staging_saved_seconds=cand.saved.time(params),
                        cache_hits=sum(1 for t in cand.targets if t[3]),
                        cache_misses=sum(1 for t in cand.targets if not t[3]),
                    )
                    running.append((cand.finish, index, cand.size, grid))
                    out.append(a)
                    pricing.remove(index)
                    placed = True  # re-consult against the shrunken pool
                # Advance to the next event: the earliest running finish OR the
                # next arrival, whichever comes first — a request arriving while
                # others run must be considered as soon as it arrives, not when
                # the next tenant happens to finish (free capacity may be idle).
                next_arrival = future[-1][1].arrival if future else None
                if running:
                    # earliest finish; the first committed among equals
                    done = min(running, key=itemgetter(0))
                    if next_arrival is not None and next_arrival < done[0]:
                        now = next_arrival
                    else:
                        running.remove(done)
                        finish, _index, _size, freed = done
                        # Advance the clock before releasing: a coalesce
                        # eviction triggered by this release must be stamped
                        # with the time the tenancy actually ended.
                        now = max(now, finish)
                        alloc.release(freed)
                elif next_arrival is not None:
                    # Nothing running and nothing placeable has arrived yet.
                    now = next_arrival
                drain_arrivals()
                require(
                    not (not running and arrived and not future
                         and not any(
                             alloc.can_allocate(s)
                             for it in arrived
                             for s in pricing.sizes(it[1])
                         )),
                    ParameterError,
                    "a pending request fits no allocatable subgrid size",
                )
        finally:
            alloc.on_destroy = prev_hook
        out.sort(key=lambda a: (a.start, a.index))
        return Schedule(
            assignments=out,
            capacity=alloc.capacity,
            evictions=evictions,
            policy=self.policy.name,
            pricing_hits=pricing.hits,
            pricing_misses=pricing.misses,
        )
