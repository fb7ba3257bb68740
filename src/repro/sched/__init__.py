"""repro.sched: subgrid allocation and request scheduling.

The paper amortizes synchronization by running independent work on
*disjoint subgrids* (the Diagonal-Inverter inverts all ``n/n0`` blocks
concurrently; Section II-C3 cites the solve-many-times workload).  This
package turns that pattern into machinery the :mod:`repro.api` Cluster
front-end schedules arbitrary request queues with:

* :mod:`repro.sched.allocator` — :class:`SubgridAllocator`, a power-of-two
  quadrant pool over one root grid (buddy split/coalesce built on
  :meth:`~repro.machine.topology.ProcessorGrid.halves`);
* :mod:`repro.sched.scheduler` — :class:`Scheduler`, the event-driven
  packing loop: it prices each candidate placement with the request's
  closed-form cost model plus the exact :mod:`repro.dist.routing`
  migration cost of staging its operands, and replays the cache plan and
  eviction timeline;
* :mod:`repro.sched.policies` — the pluggable decision rules:
  :class:`LPTPolicy` (greedy longest-first, the default) and
  :class:`HorizonPolicy` (branch-and-bound on a sliding window with
  guarded backfill beyond it — optimal-quality packing at any queue
  length; unbudgeted, the registry's ``"optimal"`` ground truth for
  small queues).
"""

from repro.sched.allocator import SubgridAllocator
from repro.sched.policies import (
    POLICIES,
    HorizonPolicy,
    LPTPolicy,
    PackingPolicy,
    make_policy,
)
from repro.sched.scheduler import Assignment, Schedule, Scheduler

__all__ = [
    "SubgridAllocator",
    "Assignment",
    "Schedule",
    "Scheduler",
    "PackingPolicy",
    "LPTPolicy",
    "HorizonPolicy",
    "POLICIES",
    "make_policy",
]
