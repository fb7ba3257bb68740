# replint-fixture-module: repro.analysis.fixture_backend_good
"""Good: the clock is the machine's backend's timer."""

from repro.machine.machine import Machine


def simulate(p: int) -> float:
    machine = Machine(p)
    t0 = machine.backend.timer()
    machine.grid(p)
    return machine.backend.timer() - t0
