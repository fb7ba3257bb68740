"""Pluggable packing policies: the decision rule of the subgrid scheduler.

The :class:`~repro.sched.scheduler.Scheduler` owns the event loop — when
time advances, how placements commit, how the operand-cache plan and the
allocator destroy events are replayed — but *which* request is placed on
*which* subgrid size at each decision point is a strategy.  This module
defines that strategy interface (:class:`PackingPolicy`) and four
implementations the gap report in :mod:`repro.analysis.serve` compares:

* :class:`LPTPolicy` — the greedy longest-processing-time rule the
  scheduler always used, extracted verbatim (bit-identical schedules;
  ``tests/test_policies.py`` pins pre-refactor goldens);
* :class:`BackfillPolicy` — conservative (EASY-style) backfilling: when
  the longest arrived request is blocked, its earliest possible start is
  *reserved* and only placements that finish by the reservation may jump
  the queue, so backfilling can never delay the blocked head (the
  no-delay invariant, property-tested against the reservation log);
* :class:`OptimalPolicy` — branch-and-bound exhaustive search over all
  event-aligned schedules of a small queue (≤ 8 requests by default),
  pruned by the area bound; uncached, the ground-truth baseline the gap
  report measures the heuristics against;
* :class:`HorizonPolicy` — the rolling-horizon composition of the two:
  the same branch-and-bound run over a sliding window of queued
  requests, seeded from the *live* allocator state (running placements
  and all), committing only the head of each plan and re-planning when
  the window's membership changes or a commit's price drifts from the
  plan, with conservative backfill scoring for arrived requests beyond
  the window.  Serves queues of any length at bounded per-decision cost.

Every placement option a policy considers is priced by the scheduling
pass's one pricing object (closed-form execution cost plus the exact
:mod:`repro.dist.routing` staging cost of the request's resident operands
on the *concrete* candidate subgrid, cache-aware when the pass has an
operand cache) at the decision point it commits at, so the price a
placement is booked at is the price execution pays.  A window-search plan
is thus a guide, not a contract: :meth:`HorizonPolicy.choose` drops the
rest of a plan whose head commits at a finish other than the planned one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.machine.cost import Cost, CostParams
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import ParameterError, require
from repro.sched.allocator import SubgridAllocator
from repro.sched.pricing import DirectPricing, PricingMemo

if TYPE_CHECKING:
    from repro.sched.scheduler import SchedulableRequest

#: relative slack for "same score" placement ties (smaller subgrid wins)
_TIE = 1e-6


@dataclass(frozen=True, slots=True)
class Candidate:
    """One priced placement option: a request on a concrete subgrid, now."""

    size: int
    grid: ProcessorGrid
    staging: Cost
    saved: Cost
    targets: tuple
    modeled: Cost
    duration: float
    finish: float


@dataclass(frozen=True, slots=True)
class Decision:
    """What :meth:`PackingPolicy.choose` returns: place this request here."""

    index: int
    request: object
    candidate: Candidate


class PolicyContext:
    """One decision point of the event loop: what a policy decides from.

    Built by the scheduler before every policy consultation from its own
    sequences (no copies), so a policy always sees the post-commit pool
    and queue:

    * ``arrived`` — the unplaced requests a policy may place now, as
      ``(queue index, request)`` in index order;
    * ``future`` — the unplaced requests that have not arrived yet (any
      order; the area bound and the window search anticipate them);
    * ``running`` — the committed, unfinished placements as ``(finish,
      index, size, grid)``, earliest finish first;
    * ``allocator`` — the live pool (``clone()`` it for what-if releases:
      a clone never fires the real pool's destroy hook, so asking "when
      would this fit?" records no phantom cache evictions);
    * ``pricing`` — *the* pricing object of the pass
      (:class:`~repro.sched.pricing.PricingMemo` or its un-memoized parity
      reference :class:`~repro.sched.pricing.DirectPricing`), which every
      price a policy compares comes from.
    """

    def __init__(
        self,
        now: float,
        allocator: SubgridAllocator,
        params: CostParams,
        arrived: Sequence[tuple[int, SchedulableRequest]],
        running: Sequence[tuple[float, int, int, ProcessorGrid]],
        pricing: PricingMemo | DirectPricing,
        future: Sequence[tuple[int, SchedulableRequest]] = (),
    ) -> None:
        self.now = now
        self.allocator = allocator
        self.params = params
        self.arrived = arrived
        self.future = future
        self.pricing = pricing
        self._running = running  # commit order

    @property
    def running(self) -> list[tuple[float, int, int, ProcessorGrid]]:
        # stable: equal finishes stay in commit order, the order the event
        # loop releases them in
        return sorted(self._running, key=lambda r: r[0])

    # -- pricing ------------------------------------------------------------

    def price(self, req: SchedulableRequest, size: int) -> Candidate | None:
        """Price placing ``req`` at ``size`` on the pool's preview block
        (``None`` when no free block serves the size)."""
        grid = self.allocator.preview(size)
        if grid is None:
            return None
        staging, saved, targets = self.pricing.staging(req, grid)
        modeled = self.pricing.modeled_cost(req, size)
        duration = staging.time(self.params) + modeled.time(self.params)
        return Candidate(
            size=size,
            grid=grid,
            staging=staging,
            saved=saved,
            targets=targets,
            modeled=modeled,
            duration=duration,
            finish=self.now + duration,
        )

    def best_candidate(
        self,
        req: SchedulableRequest,
        rest_area: float,
        deadline: float | None = None,
    ) -> Candidate | None:
        """The minimum-score placement of ``req`` on the current pool.

        A placement is scored ``max(finish, area bound)`` where the area
        bound charges the candidate for the capacity it consumes against
        the remaining queue's minimum rank-seconds — the rule that makes
        every policy *pack* instead of grabbing the whole machine.
        Near-ties (1 ppm) take the smaller subgrid.  ``deadline`` drops
        candidates finishing after it (how backfilling guards a
        reservation).
        """
        best: tuple[float, Candidate] | None = None
        for size in self.pricing.sizes(req):
            cand = self.price(req, size)
            if cand is None:
                continue
            if deadline is not None and cand.finish > deadline:
                continue
            score = max(
                cand.finish,
                self.now + (rest_area + size * cand.duration) / self.allocator.capacity,
            )
            if (
                best is None
                or score < best[0] * (1.0 - _TIE)
                or (score <= best[0] * (1.0 + _TIE) and size < best[1].size)
            ):
                best = (score, cand)
        return None if best is None else best[1]

    def first_fit(
        self,
        order: Sequence[tuple[int, SchedulableRequest]],
        deadline: float | None = None,
        skip: frozenset[int] = frozenset(),
    ) -> Decision | None:
        """The first request of ``order`` (skipping indices in ``skip``)
        with a feasible best-scored placement finishing by ``deadline``."""
        for index, req in order:
            if index in skip:
                continue
            cand = self.best_candidate(req, self.pricing.rest_area(index), deadline)
            if cand is not None:
                return Decision(index, req, cand)
        return None

    # -- what-if simulation -------------------------------------------------

    def earliest_fit(self, req: SchedulableRequest) -> float | None:
        """Earliest modeled time ``req`` could start with no new tenants.

        Simulates the running placements releasing at their modeled
        finishes (in finish order) on a scratch pool and returns the
        first time a candidate size of ``req`` fits — ``self.now`` when
        it already fits, ``None`` when it can never fit (no candidate
        size is allocatable even in a drained pool).
        """
        sizes = self.pricing.sizes(req)
        if not sizes:
            return None
        smallest = min(sizes)
        if self.allocator.can_allocate(smallest):
            return self.now
        pool = self.allocator.clone()
        for finish, _index, _size, grid in self.running:
            pool.release(grid)
            if pool.can_allocate(smallest):
                return finish
        return None

    # -- the priority-aware view ---------------------------------------------

    def class_order(self) -> list[tuple[int, SchedulableRequest]]:
        """Arrived requests in serving order: the priority-aware view.

        Higher priority classes first; within a class earliest SLA
        deadline first (best-effort requests, deadline ``inf``, behind
        any deadline-bearing one); remaining ties longest best-case
        execution first — the historical LPT rank.  Reading "no
        deadline" as ``inf`` makes the deadline a total order.  The sort
        is stable and every tier is neutral under the defaults (one
        class, no deadlines), so offline streams order exactly as they
        always did: this *is* the LPT order when no request carries the
        online fields, which is what keeps the golden schedules pinned.
        """
        inf = float("inf")
        return sorted(
            self.arrived,
            key=lambda it: (
                -it[1].priority,
                inf if it[1].deadline is None else it[1].deadline,
                -self.pricing.min_exec_seconds(it[1]),
            ),
        )


class PackingPolicy:
    """Strategy interface: pick the next placement at a decision point.

    The scheduler calls :meth:`choose` repeatedly at each decision point
    (rebuilding the context after every commit) until it returns ``None``,
    then advances time to the next event.  :meth:`reset` runs once per
    ``schedule()`` pass before the event loop starts.  A policy may carry
    a plan across calls, but the candidate it returns must be priced
    through ``ctx`` at that call: commits book the live price.
    """

    name = "policy"

    def reset(self, requests: Sequence[object]) -> None:
        """Hook called once per scheduling pass with the full queue."""

    def choose(self, ctx: PolicyContext) -> Decision | None:
        raise NotImplementedError


class LPTPolicy(PackingPolicy):
    """Greedy longest-processing-time list scheduling (the historical rule).

    Arrived requests are ranked longest best-case execution first; the
    first one with any feasible placement is committed at its best-scored
    size.  A blocked longer request does *not* hold shorter ones back —
    that greedy skip is exactly what :class:`BackfillPolicy` replaces
    with a reservation.
    """

    name = "lpt"

    def choose(self, ctx: PolicyContext) -> Decision | None:
        return ctx.first_fit(ctx.class_order())


class BackfillPolicy(PackingPolicy):
    """Conservative backfilling: fill holes without delaying the blocked head.

    Identical to :class:`LPTPolicy` until the LPT head cannot be placed.
    Then the head's earliest possible start is computed from the running
    placements' modeled finishes (:meth:`PolicyContext.earliest_fit`) and
    *reserved*; later requests in the LPT order may start in the idle
    blocks only if every candidate placement finishes by the reservation.

    The reservation is *sticky*: the reserved request keeps queue
    priority until it is placed, even if a longer request arrives in the
    meantime (a reservation is a promise — new arrivals go behind it,
    exactly as in EASY backfilling's FCFS guarantee).  The one exception
    is the online-serving priority ladder: a reservation held by a
    *queued* request is dropped when a strictly higher priority class
    arrives — the preempting request becomes the new head and the old
    head re-reserves behind it.  Only queued work is ever preempted;
    committed placements (running work) are never revoked, so preemption
    can change who waits but never rolls back the simulated machine.
    ``preemptions`` logs every ``(decision time, preempted index,
    preempting index)``.

    **No-delay invariant**: a backfilled placement returns its block by
    the reserved time, and buddy coalescing is canonical in the lease
    set, so the free blocks the reservation was computed from are free
    again at the reservation — the head can always start by it.  While
    the head stays blocked the reservation is recomputed every decision
    point and can only move *earlier* (every tenant admitted after the
    reservation releases its block by it).  ``reservations`` logs every
    ``(decision time, head index, reserved start)`` so the property test
    can check ``head start ≤ reserved start`` directly.
    """

    name = "backfill"

    def __init__(self) -> None:
        #: (decision time, blocked head index, reserved start) log
        self.reservations: list[tuple[float, int, float]] = []
        #: (decision time, preempted index, preempting index) log
        self.preemptions: list[tuple[float, int, int]] = []
        self._reserved: int | None = None

    def reset(self, requests: Sequence[object]) -> None:
        self.reservations = []
        self.preemptions = []
        self._reserved = None

    def choose(self, ctx: PolicyContext) -> Decision | None:
        order = ctx.class_order()
        if not order:
            return None
        if self._reserved is not None:
            at = [i for i, it in enumerate(order) if it[0] == self._reserved]
            if not at:
                self._reserved = None  # placed on a previous pass
            elif order[0][1].priority > order[at[0]][1].priority:
                # A strictly higher priority class arrived: the *queued*
                # reservation is preempted (running placements are never
                # revoked) and the new head reserves in its place below.
                self.preemptions.append((ctx.now, self._reserved, order[0][0]))
                self._reserved = None
            elif at[0] != 0:
                order.insert(0, order.pop(at[0]))
        index, req = order[0]
        cand = ctx.best_candidate(req, ctx.pricing.rest_area(index))
        if cand is not None:
            if index == self._reserved:
                self._reserved = None
            return Decision(index, req, cand)
        reserve = ctx.earliest_fit(req)
        if reserve is None:
            # The head can never fit any block of this pool: fall back to
            # plain greedy so the scheduler's guard reports it, exactly
            # as under LPT.
            return ctx.first_fit(order[1:])
        self._reserved = index
        self.reservations.append((ctx.now, index, reserve))
        return ctx.first_fit(order[1:], deadline=reserve)


#: one planned placement: (queue index, request, size, start, grid, finish)
PlanEntry = tuple[int, "SchedulableRequest", int, float, ProcessorGrid, float]


def _search_window(
    ctx: PolicyContext,
    items: Sequence[tuple[int, "SchedulableRequest"]],
    running: Sequence[tuple[float, int, int, ProcessorGrid]],
    node_budget: int | None = None,
) -> tuple[list[PlanEntry], float, int]:
    """Branch-and-bound minimum-makespan plan for ``items``, live state in.

    The one exhaustive search both :class:`OptimalPolicy` (whole queue,
    idle pool, unbounded) and :class:`HorizonPolicy` (sliding window,
    running work, budgeted) plan with.  ``running`` seeds the search with
    the committed-but-unfinished placements — their blocks are leased in
    the scratch pool (a :meth:`SubgridAllocator.clone` of the live pool),
    released as the search's wait branches reach their modeled finishes
    and re-leased with ``lease_exact`` on backtrack — so re-planning
    mid-stream sees exactly the machine the event loop sees.

    ``node_budget`` bounds the search: once that many nodes have been
    explored *and* a complete incumbent exists, remaining branches are
    abandoned and the incumbent plan is returned.  The first descent
    follows the greedy scoring to a complete schedule, so any budget
    yields a feasible plan; an unbounded search (``None``) returns the
    exact optimum.

    Returns ``(plan, makespan, nodes_explored)`` where ``plan`` is the
    chronological placement list and ``makespan`` the modeled completion
    time of the planned window plus the seeded running work (the event
    timeline scale the plan-following tolerance derives from).
    """
    params, capacity = ctx.params, ctx.allocator.capacity
    items = list(items)
    req_by = dict(items)
    arrival = {i: req.arrival for i, req in items}
    pricing = ctx.pricing
    sizes = {i: pricing.sizes(req) for i, req in items}
    pool = ctx.allocator.clone()
    bounds_pool = ctx.allocator.drained_clone()
    best: dict = {"makespan": float("inf"), "plan": None}
    seen: dict = {}
    nodes = 0

    # Durations are pure in (request, concrete grid): memoize across
    # the whole search (staging plans are the expensive part).
    exec_memo: dict[tuple[int, int], float] = {
        (i, s): pricing.exec_seconds(req, s) for i, req in items for s in sizes[i]
    }
    stage_memo: dict[tuple[int, ProcessorGrid], float] = {}

    def duration_of(i: int, size: int, grid: ProcessorGrid) -> float:
        key = (i, grid)
        staged = stage_memo.get(key)
        if staged is None:
            staged = stage_memo[key] = pricing.staging(req_by[i], grid)[0].time(params)
        return staged + exec_memo[(i, size)]

    # Staging-inclusive lower bounds, priced on a drained pool's
    # canonical blocks (our cyclic layouts route the same word counts
    # to every congruent block, so the canonical price stands in for
    # any block of that size — including blocks the live leases hide):
    # the shortest possible duration of each request and the fewest
    # rank-seconds it can consume.
    dur0: dict[tuple[int, int], float] = {}
    for i, _req in items:
        for s in sizes[i]:
            grid0 = bounds_pool.preview(s)
            assert grid0 is not None  # a drained pool serves every size
            dur0[(i, s)] = duration_of(i, s, grid0)
    min_dur = {
        i: min((dur0[(i, s)] for s in sizes[i]), default=0.0) for i, _req in items
    }
    areas = {
        i: min((s * dur0[(i, s)] for s in sizes[i]), default=0.0)
        for i, _req in items
    }

    @functools.cache
    def rank_set(grid: ProcessorGrid) -> frozenset[int]:
        return frozenset(grid.ranks())

    def state_key(
        pending: frozenset[int],
        running: list[tuple[float, int, int, ProcessorGrid]],
        now: float,
        barrier: int,
    ) -> tuple:
        # exact floats: rounding could alias a state with its own
        # wait-descendant (e.g. a sub-grain arrival) and prune the
        # only feasible path; identical placement sets still collide
        # exactly because their times are the same float sums
        # (running grids are distinct blocks, so the set is the multiset)
        return (
            frozenset(pending),
            frozenset((f, g) for f, _i, _s, g in running),
            now,
            barrier,
        )

    def dfs(
        pending: frozenset[int],
        running: list[tuple[float, int, int, ProcessorGrid]],
        now: float,
        plan: list[PlanEntry],
        max_finish: float,
        barrier: int,
    ) -> None:
        nonlocal nodes
        if (
            node_budget is not None
            and nodes >= node_budget
            and best["plan"] is not None
        ):
            return  # budget spent: keep the incumbent (anytime search)
        nodes += 1
        if not pending:
            if max_finish < best["makespan"]:
                best["makespan"] = max_finish
                best["plan"] = list(plan)
            return
        # prune: area bound + release-plus-execution bounds
        lb = max_finish
        owed = sum((f - now) * g.size for f, _i, _s, g in running)
        owed += sum(areas[i] for i in pending)
        lb = max(lb, now + owed / capacity)
        for i in pending:
            lb = max(lb, max(now, arrival[i]) + min_dur[i])
        if lb >= best["makespan"] * (1.0 - 1e-12):
            return
        key = state_key(pending, running, now, barrier)
        prior = seen.get(key)
        if prior is not None and prior <= max_finish:
            return
        seen[key] = max_finish
        # Placement branches, best-scored first (greedy-first descent,
        # so the incumbent starts near the heuristics' makespan).
        # ``barrier`` canonicalizes same-timestamp placements to
        # increasing request index: committing {A, B} at one decision
        # time in either order books the same sizes for the same
        # durations (staging volumes are congruent across same-size
        # blocks), so only one order needs exploring.
        options: list[tuple[float, int, int, float]] = []
        for i in pending:
            if arrival[i] > now or i <= barrier:
                continue
            rest = sum(areas[j] for j in pending if j != i)
            priced: list[tuple[int, ProcessorGrid, float]] = []
            for size in sizes[i]:
                grid = pool.preview(size)
                if grid is None:
                    continue
                priced.append((size, grid, duration_of(i, size, grid)))
            priced.sort()
            for pos, (size, grid, duration) in enumerate(priced):
                # dominated size: a smaller nested block runs this
                # request at most as long while leaving the pool
                # strictly freer — the bigger placement can always be
                # exchanged for the smaller one without losing makespan
                ranks = rank_set(grid)
                if any(
                    d2 <= duration and rank_set(g2) <= ranks
                    for _s2, g2, d2 in priced[:pos]
                ):
                    continue
                finish = now + duration
                score = max(finish, now + (rest + size * duration) / capacity)
                options.append((score, i, size, finish))
        options.sort(key=lambda o: (o[0], o[2], o[1]))
        for _score, i, size, finish in options:
            grid = pool.allocate(size)
            assert grid is not None
            entry = (i, req_by[i], size, now, grid, finish)
            dfs(
                pending - {i},
                running + [(finish, i, size, grid)],
                now,
                plan + [entry],
                max(max_finish, finish),
                i,
            )
            pool.release(grid)
        # wait branch: advance to the next event
        next_finish = min((f for f, *_ in running), default=None)
        next_arrival = min(
            (arrival[i] for i in pending if arrival[i] > now), default=None
        )
        candidates = [t for t in (next_finish, next_arrival) if t is not None]
        if not candidates:
            require(
                barrier >= 0 or bool(options),
                ParameterError,
                "a pending request fits no allocatable subgrid size",
            )
            return
        nxt = min(candidates)
        released = [r for r in running if r[0] <= nxt]
        for _f, _i, _s, g in released:
            pool.release(g)
        dfs(
            pending,
            [r for r in running if r[0] > nxt],
            nxt,
            plan,
            max_finish,
            -1,
        )
        for _f, _i, _s, g in reversed(released):
            pool.lease_exact(g)

    dfs(
        frozenset(i for i, _ in items),
        list(running),
        ctx.now,
        [],
        max((f for f, *_ in running), default=0.0),
        -1,
    )
    require(
        best["plan"] is not None,
        ParameterError,
        "optimal search found no feasible schedule",
    )
    return best["plan"], best["makespan"], nodes


def _plan_tolerance(start: float, span: float) -> float:
    """Slack for matching a planned start against the event loop's clock.

    The loop re-derives the plan's times from the same float arithmetic,
    so matches are exact up to reassociation — the tolerance is relative
    (1 ppb of the planned start).  A purely relative tolerance collapses
    to *exact* equality when the planned start is 0.0, which made any
    sub-ulp drift at t = 0 trip the divergence guard; the floor derived
    from the plan's own event timeline (1 ppb of its makespan — far below
    any event gap the timeline resolves) keeps re-plans at early
    timestamps, which :class:`HorizonPolicy` performs constantly, from
    spuriously diverging.
    """
    return 1e-9 * max(abs(start), span)


class HorizonPolicy(PackingPolicy):
    """Rolling-horizon packing: branch-and-bound over a sliding window.

    Closes the measured policy gaps from both sides: on queues that fit
    the window this is the exhaustive optimum (:class:`OptimalPolicy` is
    this class with the whole queue in the window and no node budget),
    and on longer queues it keeps the exhaustive search tractable by
    planning only a window of requests at a time:

    * at each decision point the window holds the first ``window``
      unplaced requests — arrived requests in priority/LPT serving order
      first, then future arrivals in arrival order (so the search
      anticipates near-term arrivals exactly as the full optimum does);
    * the window is planned with :func:`_search_window`, *seeded from the
      live allocator state*: committed-but-unfinished placements enter
      the search as running work whose blocks free up at their modeled
      finishes — no idle-pool restriction;
    * only the head of the plan is committed; the rest is followed while
      it stays valid and re-planned as soon as the window's membership
      changes (a placement slides the next queued request in, a new
      arrival jumps in ahead of a future member);
    * while the plan deliberately idles until its next start, arrived
      requests *beyond* the window may backfill — with
      :class:`BackfillPolicy`'s conservative scoring, where the next
      planned start acts as the reservation: only placements finishing by
      it are admitted, so backfilled work always returns its block before
      the plan needs the pool (buddy coalescing is canonical, so the free
      structure the plan modeled is intact) and the plan is never delayed.

    Each re-plan is budgeted (``node_budget`` search nodes): the
    branch-and-bound is *anytime* — the greedy-first descent completes an
    incumbent immediately and further nodes only improve it — so on
    adversarial windows the policy degrades toward greedy quality instead
    of stalling the stream.  Per-decision cost is thereby bounded by
    O(budget) regardless of queue length.  The plan is a guide: its head
    commits at the *live* price, which under an operand cache can differ
    from the planned one (the search prices against the cache view as it
    stood when it planned).  Later starts were aligned to the planned
    finish, so on drift the rest of the plan is dropped and re-planned
    from the live pool; without a cache nothing drifts.  ``replans`` and
    ``nodes_explored`` expose the planning effort for reports.
    """

    name = "horizon"

    def __init__(self, window: int = 8, node_budget: int | None = 50_000) -> None:
        require(
            window >= 1, ParameterError, f"window must be positive, got {window}"
        )
        require(
            node_budget is None or node_budget >= 1,
            ParameterError,
            f"node_budget must be positive or None, got {node_budget}",
        )
        self.window = int(window)
        self.node_budget = None if node_budget is None else int(node_budget)
        self._plan: list[PlanEntry] = []
        self._plan_span = 0.0
        #: planning-effort statistics of the last scheduling pass
        self.nodes_explored = 0
        self.replans = 0

    def reset(self, requests: Sequence[object]) -> None:
        self._plan = []
        self._plan_span = 0.0
        self.nodes_explored = 0
        self.replans = 0

    def _window_of(self, ctx: PolicyContext) -> list[tuple[int, SchedulableRequest]]:
        """The first ``window`` unplaced requests in serving order.

        Arrived requests first (priority-aware LPT order, the same view
        every other policy serves from), then not-yet-arrived requests
        earliest arrival first — the rolling head of the stream.
        """
        head = ctx.class_order()
        if len(head) < self.window:
            head += sorted(ctx.future, key=lambda it: (it[1].arrival, it[0]))
        return head[: self.window]

    def choose(self, ctx: PolicyContext) -> Decision | None:
        window = self._window_of(ctx)
        if not window:
            return None  # nothing left to place
        members = frozenset(i for i, _ in window)
        if not members <= {e[0] for e in self._plan}:
            # membership changed, or no plan stands (first decision point or
            # price drift): re-plan the window from the live allocator state
            self._plan, self._plan_span, nodes = _search_window(
                ctx, window, ctx.running, node_budget=self.node_budget
            )
            self.replans += 1
            self.nodes_explored += nodes
        index, req, size, start, grid, finish = self._plan[0]
        tol = _plan_tolerance(start, self._plan_span)
        if ctx.now < start - tol or ctx.now < req.arrival:
            # The plan idles until its next start (the arrival check keeps
            # the tolerance floor from committing before the head's own
            # arrival): arrived requests beyond the window may backfill,
            # under BackfillPolicy's guarded scoring with that start as
            # the reservation — admitted only if every way of running one
            # finishes by it, so its block coalesces back before the plan
            # touches the pool again and the planned grids still preview
            # exactly as modeled.
            return ctx.first_fit(ctx.class_order(), deadline=start, skip=members)
        require(
            ctx.now <= start + tol,
            ParameterError,
            f"{self.name} plan diverged from the event loop (planned start "
            f"{start!r}, loop reached {ctx.now!r})",
        )
        cand = ctx.price(req, size)
        if cand is None or cand.grid != grid:
            # more releases land at this same timestamp; wait for them
            return None
        # Later planned starts were aligned to this planned finish: if the
        # live price moved it (the cache view changed since planning), the
        # rest of the plan is void and the next consultation re-plans.
        self._plan = self._plan[1:] if abs(cand.finish - finish) <= tol else []
        return Decision(index, req, cand)


class OptimalPolicy(HorizonPolicy):
    """Branch-and-bound exhaustive packing of a small queue (ground truth).

    :class:`HorizonPolicy` with the whole queue in the window and no node
    budget: the first decision point plans every request at once, the
    window's membership never changes, so nothing is ever re-planned or
    backfilled.  The search explores every *event-aligned* schedule —
    placements happen at t = 0, at an arrival, or at a modeled finish,
    which is exactly the set of decision points the event loop offers,
    and some optimal schedule is always of this form (shifting any
    placement earlier to the previous event never hurts) — including
    deliberately idling capacity that the greedy rules would grab.
    Pruned by the area bound (remaining rank-seconds over capacity), by
    per-request release-plus-execution lower bounds, and by state
    dominance; the first descent follows the greedy scoring so the
    incumbent starts at (roughly) the LPT makespan and the search space
    only shrinks it.  The LPT schedule itself is in the search space, so
    the result is never worse than LPT.  Exact only *uncached* (why the
    gap report keeps ``cache=False``): under an operand cache it plans
    against the view as it stands and re-plans on drift — a budget-free
    horizon, not a proven optimum.

    Exhaustive search is exponential: queues above ``max_requests``
    (default 8, the tractability bound the gap report advertises) are
    rejected — :class:`HorizonPolicy` proper serves longer queues.
    """

    name = "optimal"

    def __init__(self, max_requests: int = 8) -> None:
        require(
            max_requests >= 1,
            ParameterError,
            f"max_requests must be positive, got {max_requests}",
        )
        super().__init__(window=max_requests, node_budget=None)
        self.max_requests = self.window

    def reset(self, requests: Sequence[object]) -> None:
        require(
            len(requests) <= self.max_requests,
            ParameterError,
            f"OptimalPolicy searches exhaustively: a queue of "
            f"{len(requests)} requests exceeds max_requests="
            f"{self.max_requests} (use horizon/lpt/backfill for long "
            "queues)",
        )
        super().reset(requests)


#: policy registry: the names ``--policy`` and ``Cluster(policy=...)`` accept
POLICIES: dict[str, type[PackingPolicy]] = {
    LPTPolicy.name: LPTPolicy,
    BackfillPolicy.name: BackfillPolicy,
    OptimalPolicy.name: OptimalPolicy,
    HorizonPolicy.name: HorizonPolicy,
}


def make_policy(policy: "PackingPolicy | str | None") -> PackingPolicy:
    """Resolve ``policy`` to an instance: name, instance, or None (LPT)."""
    if policy is None:
        return LPTPolicy()
    if isinstance(policy, PackingPolicy):
        return policy
    if isinstance(policy, str):
        cls = POLICIES.get(policy)
        require(
            cls is not None,
            ParameterError,
            f"unknown packing policy {policy!r} (choose from "
            f"{sorted(POLICIES)})",
        )
        return cls()
    raise ParameterError(
        f"policy must be a PackingPolicy, a name, or None, got {type(policy).__name__}"
    )
