"""Stateful property testing of the simulated machine.

Hypothesis drives random sequences of charges, syncs, phases and memory
operations against a reference model, checking the invariants the whole
repository relies on:

* clocks are monotone and bounded by the serialization of all charges;
* the critical-path time equals alpha*S + beta*W + gamma*F of *some*
  consistent execution path (here: bounded by totals);
* group synchronization never decreases any clock;
* memory high-water is monotone.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.machine import CostParams, Machine
from repro.machine.cost import Cost

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")
N_RANKS = 6


class MachineModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.machine = Machine(N_RANKS, params=UNIT)
        self.total_serial_time = 0.0
        self.largest_charge = 0.0
        self.last_time = 0.0
        self.last_peak = 0.0

    # -- operations -----------------------------------------------------------

    @rule(
        ranks=st.sets(st.integers(0, N_RANKS - 1), min_size=1, max_size=N_RANKS),
        s=st.floats(0, 50, allow_nan=False),
        w=st.floats(0, 500, allow_nan=False),
        f=st.floats(0, 5000, allow_nan=False),
        sync=st.booleans(),
    )
    def charge_group(self, ranks, s, w, f, sync):
        cost = Cost(s, w, f)
        self.machine.charge(sorted(ranks), cost, sync=sync)
        self.total_serial_time += cost.time(UNIT)
        self.largest_charge = max(self.largest_charge, cost.time(UNIT))

    @rule(
        rank=st.integers(0, N_RANKS - 1),
        f=st.floats(0, 1000, allow_nan=False),
    )
    def charge_local(self, rank, f):
        self.machine.charge_local({rank: Cost(0, 0, f)})
        self.total_serial_time += f
        self.largest_charge = max(self.largest_charge, f)

    @rule(
        ranks=st.sets(st.integers(0, N_RANKS - 1), min_size=1, max_size=N_RANKS)
    )
    def barrier(self, ranks):
        self.machine.charge(sorted(ranks), Cost.zero())

    @rule(
        name=st.sampled_from(["a", "b"]),
        s=st.floats(0, 10, allow_nan=False),
    )
    def charge_in_phase(self, name, s):
        with self.machine.phase(name):
            self.machine.charge([0, 1], Cost(s, 0, 0))
        self.total_serial_time += s
        self.largest_charge = max(self.largest_charge, s)

    @rule(
        rank=st.integers(0, N_RANKS - 1),
        words=st.floats(0, 100, allow_nan=False),
    )
    def touch_memory(self, rank, words):
        self.machine.memory.observe(rank, words)
        self.machine.memory.observe(rank, words / 2)

    # -- invariants -------------------------------------------------------------

    @invariant()
    def clock_monotone(self):
        t = self.machine.time()
        assert t >= self.last_time - 1e-9
        self.last_time = t

    @invariant()
    def time_bounded_by_serialization(self):
        assert self.machine.time() <= self.total_serial_time + 1e-6

    @invariant()
    def time_at_least_largest_single_charge(self):
        assert self.machine.time() >= self.largest_charge - 1e-9

    @invariant()
    def critical_path_consistent_with_time(self):
        cp = self.machine.critical_path()
        # the max-clock rank's path cost can't exceed total time (unit params)
        assert cp.time(UNIT) <= self.machine.time() + 1e-6

    @invariant()
    def counters_nonnegative(self):
        c = self.machine.counters
        assert (c.S >= 0).all() and (c.W >= 0).all() and (c.F >= 0).all()
        assert (c.clock >= 0).all()

    @invariant()
    def memory_peak_monotone(self):
        peak = self.machine.memory.peak_words()
        assert peak >= self.last_peak
        self.last_peak = peak

    @invariant()
    def phase_costs_bounded_by_totals(self):
        for name in self.machine.phase_names():
            pc = self.machine.phase_cost(name)
            tot = self.machine.total_volume()
            assert pc.S <= tot.S + 1e-9
            assert pc.W <= tot.W + 1e-9


TestMachineStateful = MachineModel.TestCase
TestMachineStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
