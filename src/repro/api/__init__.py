"""repro.api: the Cluster/Session front-end — one API for every workload.

The public entry point of the package.  Instead of three unrelated
functions that each privately allocate a whole machine, every workload is
a typed request submitted to a :class:`Cluster` that owns one machine and
a pool of disjoint subgrids:

* :class:`Cluster` — machine + subgrid pool + request queue
  (``host``/``submit``/``run``), configured by six keywords (``params``,
  ``collectives``, ``trace``, ``cache``, ``policy``, ``backend``);
* :class:`Backend` / :func:`make_backend` — the execution backend
  (:mod:`repro.backend`): ``"sim"`` simulated clocks (default),
  ``"mpi"`` real Alltoallv transport with wall-clock measurement;
* :class:`TrsmRequest` — solve ``L X = B`` (It-Inv-TRSM or the recursive
  baseline);
* :class:`MMRequest` — the Section III matrix multiplication;
* :class:`InvRequest` — triangular inversion, full (RecTriInv) or
  diagonal-blocks-only (the Diagonal-Inverter preparation);
* :class:`PreparedSolveRequest` — apply a prepared inverse to new
  right-hand sides (solve + update phases only, Section II-C3);
* :class:`RequestRecord` / :class:`ClusterOutcome` — per-request and
  aggregate results: placement, modeled and measured costs, makespan,
  occupancy, throughput, staged-copy cache hits and savings;
* :class:`OperandCache` / :class:`CachePlan` — cross-request reuse of
  staged operand copies (:mod:`repro.api.opcache`): repeat placements on
  a subgrid whose staged copy is still resident skip the migration, in
  the scheduler's prices and in the measured charges alike.

The legacy one-call entry points (``repro.trsm``,
``repro.trsm.prepared.PreparedTrsm``) are thin wrappers over a
single-request Cluster, kept one release for compatibility.
"""

from repro.api.cluster import Cluster, ClusterOutcome, RequestRecord
from repro.api.opcache import CachePlan, OperandCache, cache_key
from repro.api.requests import (
    Execution,
    InvRequest,
    MMRequest,
    PreparedSolveRequest,
    Request,
    TrsmRequest,
)
from repro.backend import Backend, SimBackend, make_backend

__all__ = [
    "Backend",
    "CachePlan",
    "Cluster",
    "ClusterOutcome",
    "Execution",
    "InvRequest",
    "MMRequest",
    "OperandCache",
    "PreparedSolveRequest",
    "Request",
    "RequestRecord",
    "SimBackend",
    "TrsmRequest",
    "cache_key",
    "make_backend",
]
