"""The simulated backend: today's per-rank clocks, verbatim.

``SimBackend`` is the CI default and the pre-backend behavior bit for
bit: :meth:`execute_plan` *is* :meth:`RoutingPlan.apply` (the plan's
one message list, on-rank copies included, and its aliasing snapshot),
plus a measurement record whose "measured" seconds are the model's own
prediction — the simulator validates against itself by construction, so
the modeled-vs-measured report degenerates to zero relative error.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import Backend
from repro.dist.routing import RoutingPlan


class SimBackend(Backend):
    """Execute plans with simulated clocks only (no real data transport
    beyond the in-process block routing the simulator always did)."""

    name = "sim"
    is_real = False
    world_size = 1

    def execute_plan(
        self,
        plan: RoutingPlan,
        blocks: dict[int, np.ndarray],
        out: dict[int, np.ndarray] | None = None,
        label: str = "route",
    ) -> dict[int, np.ndarray]:
        result = plan.apply(blocks, out=out)
        self._log_plan(plan, label, measured_seconds=plan.cost().time(self.machine.params))
        return result

    def timer(self) -> float:
        """The simulated clock: the bound machine's critical-path seconds."""
        return self.machine.time()
