"""repro.api.online: the online serving subsystem.

Everything the offline replay path cannot represent about "heavy traffic
from millions of users": typed admission control with per-tenant token
buckets (:mod:`~repro.api.online.admission`), seeded Poisson /
heavy-tailed / diurnal arrival processes
(:mod:`~repro.api.online.arrivals`), and the wall-clock daemon bridging
live JSON requests onto the simulated machine
(:mod:`~repro.api.online.daemon`, ``python -m repro serve --daemon``).
Priority classes and SLA deadlines ride on the existing
:class:`~repro.api.requests.Request` fields and are honored by the
policy layer (:meth:`repro.sched.policies.PolicyContext.class_order`);
with the defaults the offline replay schedules are bit-identical.
"""

from repro.api.online.admission import (
    Admitted,
    AdmissionConfig,
    AdmissionController,
    Decision,
    Deferred,
    Rejected,
    TokenBucket,
)
from repro.api.online.arrivals import (
    ARRIVAL_PROCESSES,
    diurnal_arrivals,
    lognormal_arrivals,
    make_arrivals,
    poisson_arrivals,
    synthetic_stream,
)
from repro.api.online.daemon import DaemonConfig, ServeDaemon

__all__ = [
    "ARRIVAL_PROCESSES",
    "Admitted",
    "AdmissionConfig",
    "AdmissionController",
    "DaemonConfig",
    "Decision",
    "Deferred",
    "Rejected",
    "ServeDaemon",
    "TokenBucket",
    "diurnal_arrivals",
    "lognormal_arrivals",
    "make_arrivals",
    "poisson_arrivals",
    "synthetic_stream",
]
