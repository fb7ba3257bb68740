"""Pluggable packing policies: the decision rule of the subgrid scheduler.

The :class:`~repro.sched.scheduler.Scheduler` owns the event loop — when
time advances, how placements commit, how the operand-cache plan and the
allocator destroy events are replayed — but *which* request is placed on
*which* subgrid size at each decision point is a strategy.  This module
defines that strategy interface (:class:`PackingPolicy`) and the two rules
the gap report in :mod:`repro.analysis.serve` compares:

* :class:`LPTPolicy` — the greedy longest-processing-time rule the
  scheduler always used, extracted verbatim (bit-identical schedules;
  ``tests/test_policies.py`` pins pre-refactor goldens);
* :class:`HorizonPolicy` — branch-and-bound over a sliding window of
  queued requests, seeded from the *live* allocator state (running
  placements and all), committing only the head of each plan and
  re-planning when the window's membership changes or a commit's price
  drifts from the plan, with guarded first-fit for arrived requests
  beyond the window.  Serves queues of any length at bounded
  per-decision cost.  Unbudgeted (``node_budget=None``) it is the
  exhaustive optimum — the registry's ``"optimal"`` — and refuses queues
  longer than its window.

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
from typing import TYPE_CHECKING, Callable, Sequence

from repro.machine.cost import Cost, CostParams
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import ParameterError, require
from repro.sched.allocator import SubgridAllocator
from repro.sched.pricing import DirectPricing, Placement, PricingMemo

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
        return self._candidate(size, grid, self.pricing.placement(req, size, grid))

    def _candidate(self, size: int, grid: ProcessorGrid, price: Placement) -> Candidate:
        staging, saved, targets, modeled, duration = price
        return Candidate(size, grid, staging, saved, targets, modeled, duration, self.now + duration)

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
        candidates finishing after it (how the window search guards its
        next planned start).  Only the winner becomes a :class:`Candidate`.
        """
        now, capacity = self.now, self.allocator.capacity
        best: tuple | None = None  # (score, size, grid, placement)
        for size in self.pricing.sizes(req):
            grid = self.allocator.preview(size)
            if grid is None:
                continue
            price = self.pricing.placement(req, size, grid)
            duration = price[4]
            finish = now + duration
            if deadline is not None and finish > deadline:
                continue
            score = max(finish, now + (rest_area + size * duration) / capacity)
            if (
                best is None
                or score < best[0] * (1.0 - _TIE)
                or (score <= best[0] * (1.0 + _TIE) and size < best[1])
            ):
                best = (score, size, grid, price)
        return None if best is None else self._candidate(*best[1:])

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
    #: the longest queue one pass accepts (``None``: any length)
    max_queue: int | None = None

    def reset(self, requests: Sequence[object]) -> None:
        """Hook called once per scheduling pass with the full queue."""

    def choose(self, ctx: PolicyContext) -> Decision | None:
        raise NotImplementedError


class LPTPolicy(PackingPolicy):
    """Greedy longest-processing-time list scheduling (the historical rule).

    Arrived requests are ranked longest best-case execution first; the
    first one with any feasible placement is committed at its best-scored
    size.  A blocked longer request does *not* hold shorter ones back.
    """

    name = "lpt"

    def choose(self, ctx: PolicyContext) -> Decision | None:
        return ctx.first_fit(ctx.class_order())


#: one planned placement: (queue index, request, size, start, grid, finish)
PlanEntry = tuple[int, "SchedulableRequest", int, float, ProcessorGrid, float]


def _search_window(
    ctx: PolicyContext,
    items: Sequence[tuple[int, "SchedulableRequest"]],
    running: Sequence[tuple[float, int, int, ProcessorGrid]],
    node_budget: int | None = None,
) -> tuple[list[PlanEntry], float, int]:
    """Branch-and-bound minimum-makespan plan for ``items``, live state in.

    The exhaustive search :class:`HorizonPolicy` plans its window with.
    ``running`` seeds the search with
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
    capacity = ctx.allocator.capacity
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
    dur_memo: dict[tuple[int, ProcessorGrid], float] = {}

    def duration_of(i: int, size: int, grid: ProcessorGrid) -> float:
        key = (i, grid)
        duration = dur_memo.get(key)
        if duration is None:
            duration = dur_memo[key] = pricing.placement(req_by[i], size, grid)[4]
        return duration

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

    On queues that fit the window this is the exhaustive optimum, and on
    longer queues it keeps the exhaustive search tractable by planning
    only a window of requests at a time:

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
      requests *beyond* the window may backfill — guarded by the next
      planned start: only placements finishing by it are admitted, so
      backfilled work always returns its block before the plan needs the
      pool (buddy coalescing is canonical, so the free structure the plan
      modeled is intact) and the plan is never delayed.

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

    Unbudgeted (``node_budget=None``) the search is exhaustive, so the
    policy is named ``"optimal"`` and refuses a queue longer than its
    window (:attr:`max_queue`; the search is exponential).  The first
    decision point then plans the whole queue, whose membership never
    changes, so nothing is backfilled.  The search explores every
    *event-aligned* schedule (placements at t = 0, at an arrival or at a
    modeled finish; some optimal schedule is always of this form),
    deliberate idling included, and the LPT schedule is in that space, so
    the result never loses to LPT.  It is exact only uncached (why the
    gap report keeps ``cache=False``): under an operand cache it re-plans
    on drift like any horizon.
    """

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
        self.name = "horizon" if self.node_budget is not None else "optimal"
        self.max_queue = self.window if self.node_budget is None else None
        self._plan: list[PlanEntry] = []
        self._plan_span = 0.0
        #: planning-effort statistics of the last scheduling pass
        self.nodes_explored = 0
        self.replans = 0

    def reset(self, requests: Sequence[object]) -> None:
        require(
            self.max_queue is None or len(requests) <= self.max_queue,
            ParameterError,
            f"{self.name} searches exhaustively: a queue of {len(requests)} "
            f"requests exceeds its window of {self.max_queue} (horizon and "
            "lpt serve queues of any length)",
        )
        self._plan = []
        self._plan_span = 0.0
        self.nodes_explored = 0
        self.replans = 0

    def _window_of(self, ctx: PolicyContext) -> list[tuple[int, SchedulableRequest]]:
        """The first ``window`` unplaced requests in serving order.

        Arrived requests first (priority-aware LPT order, the same view
        LPT serves from), then not-yet-arrived requests earliest arrival
        first — the rolling head of the stream.
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
            # admitted only if every way of running one finishes by that
            # start, so its block coalesces back before the plan touches
            # the pool again and the planned grids still preview exactly
            # as modeled.
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


#: policy registry: the names ``--policy`` and ``Cluster(policy=...)`` accept
POLICIES: dict[str, Callable[[], PackingPolicy]] = {
    "lpt": LPTPolicy,
    "horizon": HorizonPolicy,
    "optimal": functools.partial(HorizonPolicy, window=8, node_budget=None),
}


def make_policy(policy: "PackingPolicy | str | None") -> PackingPolicy:
    """Resolve ``policy`` to an instance: name, instance, or None (LPT)."""
    if policy is None:
        return LPTPolicy()
    if isinstance(policy, PackingPolicy):
        return policy
    if isinstance(policy, str):
        factory = POLICIES.get(policy)
        require(
            factory is not None,
            ParameterError,
            f"unknown packing policy {policy!r} (choose from "
            f"{sorted(POLICIES)})",
        )
        return factory()
    raise ParameterError(
        f"policy must be a PackingPolicy, a name, or None, got {type(policy).__name__}"
    )
