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


def poisson_stream(
    count: int,
    rate: float = 0.0,
    n_range: tuple[int, int] = (64, 256),
    k_range: tuple[int, int] = (8, 64),
    seed: int = 0,
) -> list[StreamRequest]:
    """A seeded stream of ``count`` mixed (n, k) solve requests.

    The Poisson-defaults call of
    :func:`~repro.api.online.arrivals.synthetic_stream`, the one stream
    generator: arrivals are a Poisson process with ``rate`` requests per
    simulated second (``rate = 0`` puts the whole queue at ``t = 0`` —
    the burst workload the makespan comparison uses), ``n`` and ``k`` are
    drawn uniformly from the powers of two inside their ranges (so every
    tuned block size divides ``n``), and every entry has priority 0, no
    deadline and the ``"default"`` tenant.
    """
    from repro.api.online.arrivals import synthetic_stream

    return synthetic_stream(count, rate=rate, n_range=n_range, k_range=k_range, seed=seed)


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
    because the exhaustive optimum is exact only there.

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


def replay_mixed(p: int, policy=None, smalls: int = 10) -> ClusterOutcome:
    """The mixed small/large serving scenario backfilling exists for.

    A stream of small solves (n = 64, k = 8) pinned to quarter subgrids
    keeps the pool busy (the first four arrive at t = 0, the rest every
    20 us), and one large solve (n = 256, k = 32) pinned to the full grid
    arrives at 5 us, just after the pool fills.  Greedy LPT keeps placing
    arriving smalls in the freed blocks, so the large solve — which needs
    *all* blocks free at once — starves behind the stream; conservative
    backfilling reserves its earliest start and only admits smalls that
    finish by the reservation, so the pool drains and the large solve
    runs.  This is the paper's selective-inversion serving mix (small
    preconditioner applications interleaved with occasional large
    solves), and the stream ``benchmarks/bench_serve.py`` gates the
    backfill-vs-LPT win on.  Runs uncached and unverified on the default
    machine constants.
    """
    require(smalls >= 5, ParameterError, "the mixed stream needs >= 5 smalls")
    cluster = Cluster(p, cache=False, policy=policy)

    def submit(n: int, k: int, seed_l: int, seed_b: int, arrival: float, size: int) -> None:
        L = random_lower_triangular(n, seed=seed_l)
        B = random_dense(n, k, seed=seed_b)
        cluster.submit(
            TrsmRequest(
                L=cluster.host(L),
                B=cluster.host(B),
                verify=False,
                arrival=arrival,
                sizes=(size,),
            )
        )

    for i in range(smalls):
        submit(64, 8, 100 + i, 200 + i, 0.0 if i < 4 else (i - 3) * 2.0e-5, p // 4)
    submit(256, 32, 1, 2, 5e-6, p)
    return cluster.run()


def replay_prepared(
    prepared,
    count: int,
    p: int,
    k: int = 8,
    params: CostParams | None = None,
    seed: int = 0,
    cache: bool = True,
    size: int | None = None,
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
    staged-copy cache on repeat tenancies.  Every batch arrives at
    ``t = 0`` and is verified; ``size`` pins every placement to one
    subgrid size (deterministic placements for parity runs).
    """
    require(count >= 1, ParameterError, "need at least one arrival")
    cluster = Cluster(p, params=params, cache=cache)
    Lh = cluster.host(prepared.L)
    Lth = cluster.host(prepared.Ltilde)
    for i in range(count):
        cluster.submit(
            PreparedSolveRequest(
                prepared=prepared,
                B=random_dense(prepared.n, k, seed=seed + 31 * i + 1),
                L=Lh,
                Ltilde=Lth,
                sizes=None if size is None else (size,),
            )
        )
    return cluster.run()
