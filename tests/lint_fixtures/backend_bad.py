# replint-fixture-module: repro.analysis.fixture_backend_bad
"""Bad: analysis code timing a machine with the host clock."""

import time
from time import perf_counter  # noqa: F401

from repro.machine.machine import Machine


def simulate(p: int) -> float:
    machine = Machine(p)
    t0 = time.perf_counter()
    machine.grid(p)
    return time.perf_counter() - t0
