"""Synthetic request streams: the serve-traffic workload generator.

Shared by ``python -m repro serve`` and ``benchmarks/bench_serve.py``: a
seeded Poisson arrival process over mixed-size TRSM problems, replayed
through a :class:`~repro.api.cluster.Cluster`.  With ``resident=True``
(the default) the operands are hosted on the cluster's data plane first,
so every placement pays — and the scheduler prices — the exact
:mod:`repro.dist.routing` migration onto the assigned subgrid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.cluster import Cluster, ClusterOutcome
from repro.api.requests import PreparedSolveRequest, TrsmRequest
from repro.machine.cost import CostParams
from repro.machine.validate import ParameterError, require
from repro.sched.scheduler import Schedule, Scheduler
from repro.util.randmat import random_dense, random_lower_triangular


@dataclass(frozen=True, slots=True)
class StreamRequest:
    """One synthetic solve in the stream: shape plus arrival time.

    ``priority``/``deadline``/``tenant`` are the online-serving fields
    (see :mod:`repro.api.online`); their defaults reproduce the offline
    streams bit for bit.
    """

    n: int
    k: int
    arrival: float
    seed: int
    priority: int = 0
    deadline: float | None = None
    tenant: str = "default"


def _pow2_choices(lo: int, hi: int) -> list[int]:
    out = []
    v = 1
    while v <= hi:
        if v >= lo:
            out.append(v)
        v *= 2
    require(bool(out), ParameterError, f"no power of two in [{lo}, {hi}]")
    return out


def poisson_stream(
    count: int,
    rate: float = 0.0,
    n_range: tuple[int, int] = (64, 256),
    k_range: tuple[int, int] = (8, 64),
    seed: int = 0,
) -> list[StreamRequest]:
    """A seeded stream of ``count`` mixed (n, k) solve requests.

    Arrivals are a Poisson process with ``rate`` requests per simulated
    second (``rate = 0`` puts the whole queue at ``t = 0`` — the burst
    workload the makespan comparison uses).  ``n`` and ``k`` are drawn
    uniformly from the powers of two inside their ranges, so every tuned
    block size divides ``n``.

    The arrival process itself lives in
    :func:`repro.api.online.arrivals.poisson_arrivals` (alongside the
    heavy-tailed and diurnal generators this function's superset,
    :func:`~repro.api.online.arrivals.synthetic_stream`, selects from);
    delegating through the shared generator keeps this stream
    bit-identical to its pre-refactor draws.
    """
    from repro.api.online.arrivals import poisson_arrivals

    require(count >= 1, ParameterError, "need at least one request")
    rng = np.random.default_rng(seed)
    ns = _pow2_choices(*n_range)
    ks = _pow2_choices(*k_range)
    arrivals = (
        poisson_arrivals(count, rate, rng=rng)
        if rate > 0.0
        else np.zeros(count)
    )
    return [
        StreamRequest(
            n=int(rng.choice(ns)),
            k=int(rng.choice(ks)),
            arrival=float(arrivals[i]),
            seed=seed + 17 * i,
        )
        for i in range(count)
    ]


def _trsm_requests(
    cluster: Cluster,
    entries,
    resident: bool = True,
    shared: bool = False,
    verify: bool = True,
    base: float = 0.0,
) -> list[TrsmRequest]:
    """One :class:`TrsmRequest` per stream entry, operands from its seed.

    The one stream-entry → request step :func:`replay`,
    :func:`schedule_stream` and the daemon's flush share.  ``resident``
    hosts the operands on ``cluster``'s data plane; ``shared`` makes one
    ``(L, B)`` pair per distinct ``(n, k)`` shape (seeded by the shape's
    first entry) serve every same-shape entry; ``base`` is subtracted
    from arrivals and deadlines (the daemon rebases each batch).
    """
    pairs: dict[tuple[int, int], tuple] = {}
    requests = []
    for s in entries:
        pair = pairs.get((s.n, s.k)) if shared else None
        if pair is None:
            L = random_lower_triangular(s.n, seed=s.seed)
            B = random_dense(s.n, s.k, seed=s.seed + 1)
            pair = (cluster.host(L), cluster.host(B)) if resident else (L, B)
            if shared:
                pairs[(s.n, s.k)] = pair
        requests.append(
            TrsmRequest(
                L=pair[0],
                B=pair[1],
                verify=verify,
                arrival=s.arrival - base,
                priority=s.priority,
                deadline=None if s.deadline is None else s.deadline - base,
                tenant=s.tenant,
            )
        )
    return requests


def replay(
    stream: list[StreamRequest],
    p: int,
    params: CostParams | None = None,
    resident: bool = True,
    verify: bool = True,
    policy=None,
    cache: bool = True,
    shared_operands: bool = False,
    backend=None,
) -> ClusterOutcome:
    """Submit a stream to a fresh Cluster and run it to completion.

    ``resident=True`` hosts every operand on the data plane first, so each
    placement is charged the exact migration plan; ``resident=False``
    passes globals (free Require-clause placement) — useful to isolate the
    scheduling gain from the migration cost.  ``policy`` selects the
    packing rule (``"lpt"``/``"backfill"``/``"optimal"``/``"horizon"``;
    see :mod:`repro.sched.policies`) and ``cache=False`` disables the
    staged-copy operand cache — the gap report runs every policy uncached
    so the comparison is apples-to-apples with the (cache-incompatible)
    pre-planning policies.

    ``shared_operands=True`` hosts **one** ``(L, B)`` pair per distinct
    ``(n, k)`` shape (seeded by the shape's first stream entry) and lets
    every same-shape request reference it — the serve-scale regime where
    the operand cache, the routing-plan cache and the pricing memo all
    amortize across the stream.

    ``backend`` selects the execution backend (``None``/``"sim"``/``"mpi"``
    or a :class:`~repro.backend.Backend` instance; see :mod:`repro.backend`)
    — values are bit-identical across backends, a real backend adds
    measured wall-clock transport alongside the model.
    """
    cluster = Cluster(p, params=params, cache=cache, policy=policy, backend=backend)
    shared = resident and shared_operands
    for request in _trsm_requests(cluster, stream, resident, shared, verify):
        cluster.submit(request)
    return cluster.run()


def schedule_stream(
    stream: list[StreamRequest],
    p: int,
    params: CostParams | None = None,
    policy=None,
    cache: bool = True,
    pricing_cache: bool = True,
) -> Schedule:
    """Pack a stream onto the subgrid pool **without executing it**.

    The scheduling-only counterpart of :func:`replay`: operands are hosted
    once per distinct ``(n, k)`` shape (as ``shared_operands`` replay
    does), the queue is priced and packed exactly as ``Cluster.run``
    would, and the resulting :class:`~repro.sched.scheduler.Schedule` is
    returned with the pool drained — no solve runs, no block moves.  This
    is the scheduler+routing hot path in isolation, which is what the
    serve-scale throughput bench measures and what capacity planning
    ("how would this day of traffic pack?") actually needs.
    ``pricing_cache=False`` re-derives every scheduler price
    (:class:`~repro.sched.pricing.DirectPricing`, the parity tests'
    reference).
    """
    cluster = Cluster(p, params=params, cache=cache, policy=policy)
    requests = _trsm_requests(cluster, stream, shared=True, verify=False)
    return Scheduler(
        cluster.pool,
        cluster.params,
        cache=cluster.opcache,
        policy=cluster.policy,
        pricing_cache=pricing_cache,
    ).schedule(requests)


def replay_mixed(
    p: int,
    params: CostParams | None = None,
    policy=None,
    cache: bool = False,
    smalls: int = 10,
    n_small: int = 64,
    k_small: int = 8,
    n_big: int = 256,
    k_big: int = 32,
    stagger: float = 2.0e-5,
    big_arrival: float = 5e-6,
    verify: bool = False,
    seed: int = 0,
    backend=None,
) -> ClusterOutcome:
    """The mixed small/large serving scenario backfilling exists for.

    A stream of small solves pinned to quarter subgrids keeps the pool
    busy (the first four arrive at t = 0, the rest every ``stagger``
    seconds), and one large solve pinned to the full grid arrives just
    after the pool fills.  Greedy LPT keeps placing arriving smalls in
    the freed blocks, so the large solve — which needs *all* blocks free
    at once — starves behind the stream; conservative backfilling
    reserves its earliest start and only admits smalls that finish by
    the reservation, so the pool drains and the large solve runs.  This
    is the paper's selective-inversion serving mix (small preconditioner
    applications interleaved with occasional large solves), and the
    stream ``benchmarks/bench_serve.py`` gates the backfill-vs-LPT win
    on.
    """
    require(smalls >= 5, ParameterError, "the mixed stream needs >= 5 smalls")
    cluster = Cluster(p, params=params, cache=cache, policy=policy, backend=backend)
    for i in range(smalls):
        arrival = 0.0 if i < 4 else (i - 3) * stagger
        L = random_lower_triangular(n_small, seed=seed + 100 + i)
        B = random_dense(n_small, k_small, seed=seed + 200 + i)
        cluster.submit(
            TrsmRequest(
                L=cluster.host(L),
                B=cluster.host(B),
                verify=verify,
                arrival=arrival,
                sizes=(p // 4,),
            )
        )
    Lb = random_lower_triangular(n_big, seed=seed + 1)
    Bb = random_dense(n_big, k_big, seed=seed + 2)
    cluster.submit(
        TrsmRequest(
            L=cluster.host(Lb),
            B=cluster.host(Bb),
            verify=verify,
            arrival=big_arrival,
            sizes=(p,),
        )
    )
    return cluster.run()


def replay_prepared(
    prepared,
    count: int,
    p: int,
    k: int = 8,
    rate: float = 0.0,
    params: CostParams | None = None,
    seed: int = 0,
    cache: bool = True,
    size: int | None = None,
    verify: bool = True,
    policy=None,
    backend=None,
) -> ClusterOutcome:
    """A stream of solves against one hosted prepared factor.

    The serve workload the operand cache exists for (Raghavan's
    selective-inversion preconditioner application): ``prepared`` (a
    :class:`~repro.trsm.prepared.PreparedTrsm`) has inverted the factor
    once; here its ``L`` and ``Ltilde`` are hosted on a fresh
    ``cache``-configured Cluster and ``count`` right-hand-side batches are
    replayed through :class:`~repro.api.PreparedSolveRequest`.  Every
    placement stages the factor pair onto its subgrid — at the full
    migration charge the first time a subgrid hosts them, and from the
    staged-copy cache on repeat tenancies.  ``size`` pins every placement
    to one subgrid size (deterministic placements for parity runs);
    ``rate`` as in :func:`poisson_stream`.
    """
    require(count >= 1, ParameterError, "need at least one request")
    rng = np.random.default_rng(seed)
    arrivals = (
        np.cumsum(rng.exponential(1.0 / rate, size=count))
        if rate > 0.0
        else np.zeros(count)
    )
    cluster = Cluster(p, params=params, cache=cache, policy=policy, backend=backend)
    Lh = cluster.host(prepared.L)
    Lth = cluster.host(prepared.Ltilde)
    for i in range(count):
        cluster.submit(
            PreparedSolveRequest(
                prepared=prepared,
                B=random_dense(prepared.n, k, seed=seed + 31 * i + 1),
                L=Lh,
                Ltilde=Lth,
                verify=verify,
                arrival=float(arrivals[i]),
                sizes=None if size is None else (size,),
            )
        )
    return cluster.run()
