"""Execution backends: the same plans, simulated or on real MPI.

See :mod:`repro.backend.base` for the protocol.  ``make_backend``
resolves the ``"sim"`` / ``"mpi"`` spellings every front-end accepts;
:class:`SimBackend` is the default everywhere and bit-identical to the
pre-backend code paths.
"""

from repro.backend.base import (
    BACKEND_NAMES,
    Backend,
    BackendExecutionError,
    PlanMeasurement,
    make_backend,
)
from repro.backend.sim import SimBackend

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "BackendExecutionError",
    "PlanMeasurement",
    "SimBackend",
    "make_backend",
]
