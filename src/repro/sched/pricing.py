"""Incremental pricing cache: memoized request pricing for the scheduler.

Pricing a single placement is cheap, but the event loop prices every
arrived request at every candidate size at every decision point, and the
area bound re-prices the *whole* remaining queue each time — an
O(queue²·sizes) pattern that dominates serve-scale replays.  Almost all
of those prices are recomputations: the three pricing hooks of the
:class:`~repro.sched.scheduler.SchedulableRequest` protocol
(``candidate_sizes``, ``modeled_cost``, ``staging_targets``) are pure in
the request's *pricing identity* (its shapes, algorithm knobs and operand
handles), not in the object.

:class:`PricingMemo` exploits that purity.  A request may expose a
``pricing_key()`` (see :meth:`repro.api.requests.Request.pricing_key`);
two requests with equal keys are priced identically and share one memo
row, so a stream of a thousand same-shape solves prices like one.
Requests without a key (or whose key is ``None``) get per-object rows.
Staging has one hook, so there is nothing to override inconsistently:
the memo's whole contract is ``pricing_key``'s — equal keys, equal
prices.

What is and is not cached:

* **cached across calls**: candidate sizes, modeled costs, execution
  seconds, minimum areas, and the *raw staging targets* — the
  ``(cache key, target grid, migration cost)`` triples per concrete
  subgrid, whose routing plans are the expensive part (and are
  themselves shared via :func:`repro.dist.routing.routing_plan`);
* **replayed fresh on every call**: the cache hit/miss decisions.  The
  scheduler's :class:`~repro.api.opcache.CachePlan` view mutates as
  placements commit and blocks coalesce, so :meth:`PricingMemo.staging`
  prices the memoized targets against the *current* view
  (:meth:`CachePlan.price <repro.api.opcache.CachePlan.price>`, the one
  copy of the hit logic) — the same call :class:`DirectPricing` makes on
  freshly derived targets, so the two agree by construction (the parity
  suite in ``tests/test_throughput.py`` pins this);
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

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.machine.cost import Cost, CostParams

if TYPE_CHECKING:
    from repro.api.opcache import CachePlan
    from repro.machine.topology import ProcessorGrid
    from repro.sched.scheduler import SchedulableRequest, StagingTarget


def _staging_price(
    view: "CachePlan | None", targets: "Sequence[StagingTarget]"
) -> tuple[Cost, Cost, tuple]:
    """``(charged, saved, per-target decisions)`` of one placement's
    staging targets: priced by the cache view as it stands now, or — no
    cache — every migration charged in full, summed in staging order."""
    if view is not None:
        return view.price(targets)
    total = Cost.zero()
    for _key, _grid, cost in targets:
        total = total + cost
    return total, Cost.zero(), ()


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
        self._pending: dict[int, SchedulableRequest] = {}

    def sizes(self, req: "SchedulableRequest") -> list[int]:
        return req.candidate_sizes(self.capacity)

    def modeled_cost(self, req: "SchedulableRequest", size: int) -> Cost:
        return req.modeled_cost(size, self.params)

    def exec_seconds(self, req: "SchedulableRequest", size: int) -> float:
        return self.modeled_cost(req, size).time(self.params)

    def min_exec_seconds(self, req: "SchedulableRequest") -> float:
        return min((self.exec_seconds(req, s) for s in self.sizes(req)), default=0.0)

    def min_area(self, req: "SchedulableRequest") -> float:
        return min((s * self.exec_seconds(req, s) for s in self.sizes(req)), default=0.0)

    def seed(self, items: "Iterable[tuple[int, SchedulableRequest]]") -> None:
        """Register the enumerated queue (index order) as pending."""
        self._pending = dict(items)

    def remove(self, index: int) -> None:
        """A request committed: it no longer owes any area."""
        del self._pending[index]

    def rest_area(self, index: int) -> float:
        """Minimum rank-seconds the queue minus ``index`` still owes."""
        return sum(self.min_area(r) for j, r in self._pending.items() if j != index)

    def staging(
        self, req: "SchedulableRequest", grid: "ProcessorGrid"
    ) -> tuple[Cost, Cost, tuple]:
        """``(charged, saved, per-target decisions)`` for one placement."""
        return _staging_price(self.view, req.staging_targets(grid, self.params))


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

    # -- identity -----------------------------------------------------------

    def _key_of(self, req: "SchedulableRequest") -> tuple:
        """The request's share key: equal keys share every memo row."""
        got = self._keys.get(id(req))
        if got is not None:
            return got[0]
        pricing_key = getattr(req, "pricing_key", None)
        key = pricing_key() if callable(pricing_key) else None
        share = ("req", key) if key is not None else ("obj", id(req))
        self._keys[id(req)] = (share, req)
        return share

    # -- modeled execution ---------------------------------------------------

    def sizes(self, req: "SchedulableRequest") -> list[int]:
        key = self._key_of(req)
        got = self._sizes.get(key)
        if got is None:
            got = self._sizes[key] = req.candidate_sizes(self.capacity)
        return got

    def modeled_cost(self, req: "SchedulableRequest", size: int) -> Cost:
        key = (self._key_of(req), size)
        got = self._modeled.get(key)
        if got is None:
            got = self._modeled[key] = req.modeled_cost(size, self.params)
        return got

    def exec_seconds(self, req: "SchedulableRequest", size: int) -> float:
        key = (self._key_of(req), size)
        got = self._seconds.get(key)
        if got is None:
            got = self._seconds[key] = self.modeled_cost(req, size).time(
                self.params
            )
        return got

    def min_exec_seconds(self, req: "SchedulableRequest") -> float:
        key = self._key_of(req)
        got = self._min_seconds.get(key)
        if got is None:
            got = self._min_seconds[key] = min(
                (self.exec_seconds(req, s) for s in self.sizes(req)),
                default=0.0,
            )
        return got

    def min_area(self, req: "SchedulableRequest") -> float:
        key = self._key_of(req)
        got = self._min_area.get(key)
        if got is None:
            got = self._min_area[key] = min(
                (s * self.exec_seconds(req, s) for s in self.sizes(req)),
                default=0.0,
            )
        return got

    # -- the queue-area aggregate -------------------------------------------

    def seed(self, items: "Iterable[tuple[int, SchedulableRequest]]") -> None:
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

    def staging(
        self, req: "SchedulableRequest", grid: "ProcessorGrid"
    ) -> tuple[Cost, Cost, tuple]:
        """``(charged, saved, per-target decisions)`` for one placement.

        The targets on the concrete subgrid ``grid`` are memoized (the
        routing plans behind their costs are the expensive part); the
        cache view prices them as it stands *now*.
        """
        key = (self._key_of(req), grid)
        targets = self._targets.get(key)
        if targets is None:
            self.misses += 1
            targets = self._targets[key] = tuple(
                req.staging_targets(grid, self.params)
            )
        else:
            self.hits += 1
        return _staging_price(self.view, targets)
