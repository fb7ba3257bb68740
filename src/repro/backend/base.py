"""The execution backend protocol: one codebase, simulated and real.

Everything above this package — ``DistMatrix`` transitions, the Cluster,
the scheduler — speaks to execution through a :class:`Backend`:

* ``Machine(..., backend=...)`` binds the backend to the :class:`~repro.
  machine.machine.Machine` it executes for (the *model state* — per-rank
  clocks, counters, phases — is always simulated; a real backend adds
  wall-clock measurement alongside it, it does not replace the model);
* :meth:`Backend.execute_plan` routes a :class:`~repro.dist.routing.
  RoutingPlan`'s blocks.  Both executors read the plan's one message
  list (:meth:`~repro.dist.routing.RoutingPlan.messages`):
  :class:`~repro.backend.sim.SimBackend` applies all of it
  (``plan.apply`` verbatim); :class:`~repro.backend.mpi.MPIBackend`
  sends its off-rank messages over a real communicator in ``Alltoallv``
  count/displacement rounds and times them;
* :meth:`Backend.timer` — the backend's clock (simulated seconds for the
  simulator, wall seconds for MPI);
* capability flags — ``name``, ``is_real`` (are measured seconds real
  wall-clock readings?), ``world_size`` (processes backing execution).

Every plan execution appends a measurement record (label, phase, words,
messages, modeled and measured seconds; the one per-transition log the
program keeps), so :mod:`repro.analysis.validation` can compare the model's
predictions with what execution observed — trivially self-consistent under
the simulator, a genuine hardware validation under MPI.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.machine.validate import ParameterError, require

if TYPE_CHECKING:
    from repro.dist.routing import RoutingPlan
    from repro.machine.machine import Machine

#: measurement records kept per backend (oldest dropped beyond this; the
#: aggregate report reads recent history, not an unbounded daemon log)
MEASUREMENT_LOG_LIMIT = 65536


class BackendExecutionError(RuntimeError):
    """Real execution diverged from the model (transport delivered wrong
    bytes, a plan routed outside the communicator, ...)."""


@dataclass(slots=True, frozen=True)
class PlanMeasurement:
    """One executed routing plan: what the model predicted, what happened."""

    label: str
    #: machine phase active at execution time ("staging", "solve", ...)
    phase: str
    #: off-rank words the plan moves (sum over all pairwise messages)
    words: int
    #: off-rank pairwise messages in the plan
    messages: int
    #: the model's alpha-beta critical-path seconds for the transition
    modeled_seconds: float
    #: what execution took — simulated seconds (== modeled) for the
    #: simulator, measured wall-clock seconds for a real backend
    measured_seconds: float
    #: Alltoallv rounds the transfer was chunked into (0 = no wire traffic)
    rounds: int = 0
    #: words between virtual ranks co-located on one process — moved
    #: through local memory, so *under-measured* relative to the model
    colocated_words: int = 0

    def relative_error(self) -> float:
        """(measured - modeled) / modeled; 0 when nothing was modeled."""
        if self.modeled_seconds == 0.0:
            return 0.0
        return (self.measured_seconds - self.modeled_seconds) / self.modeled_seconds


class Backend(abc.ABC):
    """Abstract execution backend; see the module docstring.

    A backend instance executes for one machine: ``Machine(...,
    backend=self)`` sets :attr:`machine`, and nothing else does.
    ``repro.backend.make_backend`` resolves the ``"sim"`` / ``"mpi"``
    spellings the public APIs accept.
    """

    #: registry name ("sim", "mpi")
    name: str = "abstract"
    #: True when measured seconds are wall-clock readings on real hardware
    is_real: bool = False
    #: processes backing execution (1 for the simulator)
    world_size: int = 1

    #: the machine this backend executes for, whose phase, clocks and cost
    #: constants it reads (set by ``Machine.__init__``)
    machine: "Machine"

    def __init__(self) -> None:
        self.plan_log: deque[PlanMeasurement] = deque(maxlen=MEASUREMENT_LOG_LIMIT)

    # -- the execution protocol ---------------------------------------------

    @abc.abstractmethod
    def execute_plan(
        self,
        plan: "RoutingPlan",
        blocks: dict[int, np.ndarray],
        out: dict[int, np.ndarray] | None = None,
        label: str = "route",
    ) -> dict[int, np.ndarray]:
        """Route a plan's blocks; returns the destination block dict.

        Semantics are those of :meth:`RoutingPlan.apply` — same values on
        every backend, bit for bit.  Charging stays the call site's
        business (``plan.charge``/``charge_pointwise`` before executing),
        exactly as it was for direct ``apply`` calls.
        """

    @abc.abstractmethod
    def timer(self) -> float:
        """The backend's clock: simulated seconds, or wall seconds."""

    # -- measurement log ------------------------------------------------------

    def _log_plan(
        self,
        plan: "RoutingPlan",
        label: str,
        measured_seconds: float,
        rounds: int = 0,
        colocated_words: int = 0,
    ) -> PlanMeasurement:
        _, _, words = plan._pair_arrays()
        record = PlanMeasurement(
            label=label,
            phase=self.machine.current_phase(),
            words=int(words.sum(dtype=np.int64)),
            messages=int(len(words)),
            modeled_seconds=plan.cost().time(self.machine.params),
            measured_seconds=float(measured_seconds),
            rounds=int(rounds),
            colocated_words=int(colocated_words),
        )
        self.plan_log.append(record)
        return record

    def measurements(self) -> list[PlanMeasurement]:
        """Executed-plan records, oldest first (bounded history)."""
        return list(self.plan_log)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, world={self.world_size})"


#: CLI-facing registry: the specs `make_backend` resolves by name
BACKEND_NAMES = ("sim", "mpi")


def make_backend(spec: "Backend | str | None" = None) -> Backend:
    """Resolve a backend spec: an instance, ``"sim"``/``"mpi"``, or None.

    ``None`` (every front-end's default) means a fresh simulator.  The
    ``"mpi"`` spelling needs mpi4py importable and raises a clean
    :class:`~repro.machine.validate.ParameterError` otherwise — callers
    that want to degrade (skip-if-no-mpi4py) catch exactly that.
    """
    if spec is None or spec == "sim":
        from repro.backend.sim import SimBackend

        return SimBackend()
    if isinstance(spec, Backend):
        return spec
    require(
        spec == "mpi",
        ParameterError,
        f"unknown backend {spec!r}; choose from {BACKEND_NAMES} "
        "or pass a Backend instance",
    )
    from repro.backend.mpi import MPIBackend

    return MPIBackend()
