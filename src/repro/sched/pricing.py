"""Incremental pricing cache: memoized request pricing for the scheduler.

Pricing a single placement is cheap, but the event loop prices every
arrived request at every candidate size at every decision point, and the
area bound re-prices the *whole* remaining queue each time — an
O(queue²·sizes) pattern that dominates serve-scale replays.  Almost all
of those prices are recomputations: ``candidate_sizes``, ``modeled_cost``
and the raw staging targets are pure in the request's *pricing identity*
(its shapes, algorithm knobs and operand handles), not in the object.

:class:`PricingMemo` exploits that purity.  Requests expose a
``pricing_key()`` (see :meth:`repro.api.requests.Request.pricing_key`);
two requests with equal keys are priced identically and share one memo
row, so a stream of a thousand same-shape solves prices like one.
Requests without a key (or foreign objects that merely satisfy the
scheduler protocol) fall back to per-object memoization, and staging is
memoized only for requests whose staging hooks are the stock
:class:`~repro.api.requests.Request` implementations — an overridden
hook is treated as opaque and called through every time, so subclassing
can never observe stale prices.

What is and is not cached:

* **cached across calls**: candidate sizes, modeled costs, execution
  seconds, minimum areas, and the *raw staging targets* — the
  ``(cache key, target grid, migration cost)`` triples per concrete
  subgrid, whose routing plans are the expensive part (and are
  themselves shared via :func:`repro.dist.routing.routing_plan`);
* **replayed fresh on every call**: the cache hit/miss decisions.  The
  scheduler's :class:`~repro.api.opcache.CachePlan` view mutates as
  placements commit and blocks coalesce, so
  :meth:`PricingMemo.staging` re-runs the hit logic
  ``Request.staging_breakdown`` runs (:meth:`CachePlan.price
  <repro.api.opcache.CachePlan.price>`, the one copy of it) against the
  *current* view over the memoized raw targets — bit-identical to the
  uncached path by construction (the parity suite in
  ``tests/test_throughput.py`` pins this);
* **invalidated implicitly**: a memo lives for one ``schedule()`` pass.
  Operand generations (part of every cache key) only change when
  execution mutates a matrix, which never happens while a pass is
  pricing, and allocator split/coalesce changes which *grid* is priced —
  a different memo row — so no explicit invalidation hook is needed.

The queue-area aggregate (:meth:`rest_area`) is maintained
incrementally: seeded once, one subtraction per commit, one subtraction
per query — replacing the reference's full re-sum.  The incremental
float sums can differ from the re-sum in the last ulp; the policies'
1 ppm score tie band absorbs that, and the golden-schedule tests pin
that the schedules stay identical.

:class:`DirectPricing` is that reference: the same interface with nothing
memoized, every price re-derived from the request on every call.
``Scheduler(pricing_cache=False)`` selects it, and the parity suite
requires the two to produce flatten-identical schedules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.machine.cost import Cost, CostParams

if TYPE_CHECKING:
    from repro.api.opcache import CachePlan
    from repro.machine.topology import ProcessorGrid


class DirectPricing:
    """Un-memoized pricing for one scheduling pass: the parity reference.

    :class:`PricingMemo`'s interface, each answer re-derived from the
    request when asked; the only state is the pending queue
    :meth:`rest_area` re-sums, in index order, on every call.
    """

    __slots__ = ("params", "capacity", "view", "_pending")

    #: nothing is memoized, so there is no memo traffic to report
    hits = 0
    misses = 0

    def __init__(
        self, params: CostParams, capacity: int, view: "CachePlan | None" = None
    ) -> None:
        self.params = params
        self.capacity = int(capacity)
        self.view = view
        self._pending: dict[int, Any] = {}

    def sizes(self, req: Any) -> list[int]:
        return req.candidate_sizes(self.capacity)

    def modeled_cost(self, req: Any, size: int) -> Cost:
        return req.modeled_cost(size, self.params)

    def exec_seconds(self, req: Any, size: int) -> float:
        return self.modeled_cost(req, size).time(self.params)

    def min_exec_seconds(self, req: Any) -> float:
        return min((self.exec_seconds(req, s) for s in self.sizes(req)), default=0.0)

    def min_area(self, req: Any) -> float:
        return min((s * self.exec_seconds(req, s) for s in self.sizes(req)), default=0.0)

    def seed(self, items: Iterable[tuple[int, Any]]) -> None:
        """Register the enumerated queue (index order) as pending."""
        self._pending = dict(items)

    def remove(self, index: int) -> None:
        """A request committed: it no longer owes any area."""
        del self._pending[index]

    def rest_area(self, index: int) -> float:
        """Minimum rank-seconds the queue minus ``index`` still owes."""
        return sum(self.min_area(r) for j, r in self._pending.items() if j != index)

    def staging(self, req: Any, grid: "ProcessorGrid") -> tuple[Cost, Cost, tuple]:
        """``(charged, saved, per-target decisions)`` for one placement:
        the request's own cache-aware breakdown when there is a cache view
        (and the request has one), its full migration cost otherwise."""
        breakdown = getattr(req, "staging_breakdown", None)
        if self.view is None or breakdown is None:
            return req.staging_cost(grid, self.params), Cost.zero(), ()
        return breakdown(grid, self.params, self.view)


class PricingMemo:
    """Memoized pricing for one scheduling pass.

    One instance per :meth:`~repro.sched.scheduler.Scheduler.schedule`
    call: create (with the pass's cache view, if any), :meth:`seed` with
    the enumerated queue, consult through the
    :class:`~repro.sched.policies.PolicyContext` helpers, and
    :meth:`remove` each request as it commits.
    """

    __slots__ = (
        "params",
        "capacity",
        "view",
        "hits",
        "misses",
        "_keys",
        "_sizes",
        "_modeled",
        "_seconds",
        "_min_seconds",
        "_min_area",
        "_targets",
        "_area_by_index",
        "_area_total",
        "_request_base",
    )

    def __init__(
        self, params: CostParams, capacity: int, view: "CachePlan | None" = None
    ) -> None:
        self.params = params
        self.capacity = int(capacity)
        self.view = view
        #: staging-target memo traffic (for tests and reports)
        self.hits = 0
        self.misses = 0
        # id(req) -> (share key, req); the request reference keeps the id
        # stable for the memo's lifetime
        self._keys: dict[int, tuple[tuple, object]] = {}
        self._sizes: dict[tuple, list[int]] = {}
        self._modeled: dict[tuple, Cost] = {}
        self._seconds: dict[tuple, float] = {}
        self._min_seconds: dict[tuple, float] = {}
        self._min_area: dict[tuple, float] = {}
        self._targets: dict[tuple, tuple] = {}
        self._area_by_index: dict[int, float] = {}
        self._area_total = 0.0
        self._request_base: type | None = None

    # -- identity -----------------------------------------------------------

    def _key_of(self, req: Any) -> tuple:
        """The request's share key: equal keys share every memo row."""
        got = self._keys.get(id(req))
        if got is not None:
            return got[0]
        pricing_key = getattr(req, "pricing_key", None)
        key = pricing_key() if callable(pricing_key) else None
        share = ("req", key) if key is not None else ("obj", id(req))
        self._keys[id(req)] = (share, req)
        return share

    def _base(self) -> type:
        if self._request_base is None:
            # deferred: repro.api imports the scheduler package at load
            # time, so a module-level import here would be circular
            from repro.api.requests import Request

            self._request_base = Request
        return self._request_base

    def _stock_staging(self, req: Any) -> bool:
        """True iff both staging hooks are the stock Request implementations
        (the contract the raw-target memo and hit replay are valid under)."""
        Request = self._base()
        if not isinstance(req, Request):
            return False
        cls = type(req)
        return (
            cls.staging_cost is Request.staging_cost
            and cls.staging_breakdown is Request.staging_breakdown
        )

    # -- modeled execution ---------------------------------------------------

    def sizes(self, req: Any) -> list[int]:
        key = self._key_of(req)
        got = self._sizes.get(key)
        if got is None:
            got = self._sizes[key] = req.candidate_sizes(self.capacity)
        return got

    def modeled_cost(self, req: Any, size: int) -> Cost:
        key = (self._key_of(req), size)
        got = self._modeled.get(key)
        if got is None:
            got = self._modeled[key] = req.modeled_cost(size, self.params)
        return got

    def exec_seconds(self, req: Any, size: int) -> float:
        key = (self._key_of(req), size)
        got = self._seconds.get(key)
        if got is None:
            got = self._seconds[key] = self.modeled_cost(req, size).time(
                self.params
            )
        return got

    def min_exec_seconds(self, req: Any) -> float:
        key = self._key_of(req)
        got = self._min_seconds.get(key)
        if got is None:
            got = self._min_seconds[key] = min(
                (self.exec_seconds(req, s) for s in self.sizes(req)),
                default=0.0,
            )
        return got

    def min_area(self, req: Any) -> float:
        key = self._key_of(req)
        got = self._min_area.get(key)
        if got is None:
            got = self._min_area[key] = min(
                (s * self.exec_seconds(req, s) for s in self.sizes(req)),
                default=0.0,
            )
        return got

    # -- the queue-area aggregate -------------------------------------------

    def seed(self, items: Iterable[tuple[int, Any]]) -> None:
        """Register the enumerated queue for incremental area accounting."""
        self._area_by_index = {i: self.min_area(req) for i, req in items}
        self._area_total = sum(self._area_by_index.values())

    def remove(self, index: int) -> None:
        """A request committed: retire its area from the aggregate."""
        self._area_total -= self._area_by_index.pop(index)

    def rest_area(self, index: int) -> float:
        """Minimum rank-seconds the queue minus ``index`` still owes."""
        return self._area_total - self._area_by_index[index]

    # -- staging -------------------------------------------------------------

    def _raw_targets(self, req: Any, grid: "ProcessorGrid") -> tuple:
        """``(cache key, target grid, migration cost)`` per resident operand
        of ``req`` on the concrete subgrid ``grid`` (memoized — the routing
        plans behind the costs are the expensive part)."""
        key = (self._key_of(req), grid)
        got = self._targets.get(key)
        if got is not None:
            self.hits += 1
            return got
        self.misses += 1
        got = self._targets[key] = tuple(req._raw_targets(grid, self.params))
        return got

    def staging(self, req: Any, grid: "ProcessorGrid") -> tuple[Cost, Cost, tuple]:
        """The pass's staging price: ``(charged, saved, targets)``.

        Mirrors :meth:`DirectPricing.staging` exactly: without a cache
        view (or a ``staging_breakdown``) the full migration cost is
        charged; with one, the view prices the memoized raw targets as it
        stands *now*.  Requests with overridden staging hooks bypass the
        memo entirely.
        """
        breakdown = getattr(req, "staging_breakdown", None)
        if self.view is None or breakdown is None:
            return self.staging_cost(req, grid), Cost.zero(), ()
        if not self._stock_staging(req):
            return breakdown(grid, self.params, self.view)
        return self.view.price(self._raw_targets(req, grid))

    def staging_cost(self, req: Any, grid: "ProcessorGrid") -> Cost:
        """Plain (cache-blind) staging price, memoized when stock."""
        if not self._stock_staging(req):
            return req.staging_cost(grid, self.params)
        total = Cost.zero()
        for _key, _grid, cost in self._raw_targets(req, grid):
            total = total + cost
        return total
