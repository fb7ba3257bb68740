"""Admission control: the gate between online traffic and the scheduler.

Offline replay schedules whatever the trace contains; an online front-end
must be able to say *no*.  The :class:`AdmissionController` sits in front
of the :class:`~repro.api.cluster.Cluster` queue and makes a typed
decision per offered request:

* :class:`Admitted` — the request enters the admission queue and will be
  drained to the scheduler (FIFO within its priority class, higher
  classes first);
* :class:`Rejected` — dropped before the scheduler ever sees it
  (the queue-depth cap, or hard rate limits).  A rejected request never
  reaches the scheduler — the invariant the property suite pins;
* :class:`Deferred` — rate-limited but retryable: carries the earliest
  time the tenant's token bucket can serve it again.

Fairness is per tenant: each tenant owns a token bucket
(:class:`TokenBucket`, ``rate`` tokens/s refill up to ``burst``), so one
tenant's flood spends only its own tokens.  All time is the caller's
clock — simulated seconds in tests and load tests, scaled wall-clock in
the daemon — the controller itself never reads a clock
(``backend-discipline`` holds everywhere except the daemon loop).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.machine.validate import ParameterError, require

__all__ = [
    "Admitted",
    "AdmissionConfig",
    "AdmissionController",
    "Decision",
    "Deferred",
    "Rejected",
    "TokenBucket",
]


@dataclass(slots=True)
class TokenBucket:
    """A standard token bucket: ``rate`` tokens/s refill, ``burst`` cap.

    Starts full.  ``now`` must be non-decreasing across calls (the
    controller enforces its own monotone clock).
    """

    rate: float
    burst: float
    tokens: float = field(init=False)
    stamp: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        require(self.rate > 0.0, ParameterError, f"rate must be > 0, got {self.rate}")
        require(
            self.burst >= 1.0, ParameterError, f"burst must be >= 1, got {self.burst}"
        )
        self.tokens = float(self.burst)

    def _refill(self, now: float) -> None:
        if now > self.stamp:
            self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
            self.stamp = now

    def try_take(self, now: float) -> bool:
        """Take one token if available; refills first."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def next_available(self, now: float) -> float:
        """Earliest time one whole token will be available."""
        self._refill(now)
        if self.tokens >= 1.0:
            return now
        return now + (1.0 - self.tokens) / self.rate


@dataclass(slots=True)
class AdmissionConfig:
    """Controller-wide knobs.

    ``rate``/``burst`` configure every tenant's token bucket (one bucket
    per tenant; ``rate=None`` disables rate limiting entirely);
    ``max_queue_depth`` caps the whole admission queue.
    ``defer_on_rate=True`` turns rate-limit refusals into retryable
    :class:`Deferred` decisions instead of hard :class:`Rejected` ones.
    """

    rate: float | None = None
    burst: float = 8.0
    max_queue_depth: int = 1024
    defer_on_rate: bool = True

    def __post_init__(self) -> None:
        require(
            self.max_queue_depth >= 1,
            ParameterError,
            f"max_queue_depth must be >= 1, got {self.max_queue_depth}",
        )


@dataclass(frozen=True, slots=True)
class Admitted:
    """The request entered the admission queue at sequence ``seq``."""

    seq: int


@dataclass(frozen=True, slots=True)
class Rejected:
    """Dropped before the scheduler: ``queue_full`` / ``rate_limited``
    (when deferral is disabled)."""

    reason: str


@dataclass(frozen=True, slots=True)
class Deferred:
    """Rate-limited but retryable at ``retry_at`` (the caller's clock)."""

    retry_at: float
    reason: str = "rate_limited"


Decision = Admitted | Rejected | Deferred


class AdmissionController:
    """Typed admit/reject/defer decisions plus a priority admission queue.

    ``offer(request, now)`` runs the gate; admitted requests are held in
    a priority queue and handed to the scheduler by ``drain()`` (each
    with its admission ``seq``) in (priority class descending, admission
    order) order — strictly FIFO
    within a class, which is the fairness contract the property tests
    pin.  ``now`` must be non-decreasing across calls.
    """

    def __init__(self, config: AdmissionConfig | None = None) -> None:
        self.config = config or AdmissionConfig()
        self._buckets: dict[str, TokenBucket] = {}
        self._heap: list[tuple[int, int, object]] = []  # (-priority, seq, request)
        self._seq = 0
        self._clock = 0.0
        #: lifetime decision counters, by outcome and reject reason
        self.admitted = 0
        self.rejected = 0
        self.deferred = 0
        self.reject_reasons: dict[str, int] = {}

    # -- introspection -------------------------------------------------------

    def pending(self) -> int:
        """Admitted requests not yet drained to the scheduler."""
        return len(self._heap)

    def stats(self) -> dict:
        """Lifetime decision counters (JSON-ready, for telemetry)."""
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "deferred": self.deferred,
            "pending": self.pending(),
            "reject_reasons": dict(self.reject_reasons),
        }

    # -- the gate ------------------------------------------------------------

    def _bucket(self, tenant: str) -> TokenBucket | None:
        if self.config.rate is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                rate=self.config.rate, burst=self.config.burst
            )
        return bucket

    def offer(self, request: object, now: float = 0.0) -> Decision:
        """Gate one request: :class:`Admitted`, :class:`Rejected`, or
        :class:`Deferred`.  ``request.tenant``/``request.priority`` are
        read off the request (defaulting to ``"default"``/0 for foreign
        objects)."""
        require(
            now >= self._clock,
            ParameterError,
            f"admission clock must be monotone (got {now!r} after {self._clock!r})",
        )
        self._clock = now
        tenant = str(getattr(request, "tenant", "default"))
        priority = int(getattr(request, "priority", 0))
        if len(self._heap) >= self.config.max_queue_depth:
            return self._reject("queue_full")
        bucket = self._bucket(tenant)
        if bucket is not None and not bucket.try_take(now):
            if self.config.defer_on_rate:
                self.deferred += 1
                return Deferred(retry_at=bucket.next_available(now))
            return self._reject("rate_limited")
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (-priority, seq, request))
        self.admitted += 1
        return Admitted(seq=seq)

    def _reject(self, reason: str) -> Rejected:
        self.rejected += 1
        self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + 1
        return Rejected(reason=reason)

    def drain(self) -> list[tuple[int, object]]:
        """Hand every queued ``(seq, request)`` to the caller, priority-class order.

        Higher priority classes first; within a class strictly FIFO in
        admission order (the heap key is ``(-priority, seq)``); ``seq`` is
        the one :class:`Admitted` carried.  Every admitted request is
        drained exactly once — nothing the controller admits can be
        starved forever, because each drain empties the queue and
        admission order breaks all ties.
        """
        out = []
        while self._heap:
            _neg, seq, request = heapq.heappop(self._heap)
            out.append((seq, request))
        return out
