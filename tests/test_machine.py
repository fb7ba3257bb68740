"""Tests for the simulated machine: charging, syncing, phases."""

import numpy as np
import pytest

from repro.dist import BlockedLayout, CyclicLayout, DistMatrix, redistribute
from repro.machine import CostParams, Machine
from repro.machine.cost import Cost
from repro.machine.validate import GridError


UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")


class TestGridAllocation:
    def test_allocates_consecutive_ranks(self):
        m = Machine(8)
        g1 = m.grid(2, 2)
        g2 = m.grid(4)
        assert g1.ranks() == [0, 1, 2, 3]
        assert g2.ranks() == [4, 5, 6, 7]

    def test_over_allocation_rejected(self):
        m = Machine(4)
        m.grid(2, 2)
        with pytest.raises(GridError):
            m.grid(2)

    def test_zero_ranks_rejected(self):
        with pytest.raises(GridError):
            Machine(0)


class TestCharging:
    def test_charge_advances_clock(self):
        m = Machine(4, params=UNIT)
        m.charge([0, 1], Cost(1, 2, 3))
        assert m.time() == 6.0

    def test_charge_updates_counters(self):
        m = Machine(2, params=UNIT)
        m.charge([0], Cost(1, 2, 3))
        cp = m.critical_path()
        assert (cp.S, cp.W, cp.F) == (1, 2, 3)

    def test_disjoint_groups_run_concurrently(self):
        m = Machine(4, params=UNIT)
        m.charge([0, 1], Cost(5, 0, 0))
        m.charge([2, 3], Cost(7, 0, 0))
        # concurrent: total time is the max, not the sum
        assert m.time() == 7.0

    def test_group_sync_serializes_dependents(self):
        m = Machine(4, params=UNIT)
        m.charge([0, 1], Cost(5, 0, 0))
        m.charge([1, 2], Cost(1, 0, 0))  # rank 1 drags rank 2 forward
        assert m.time() == 6.0

    def test_sync_propagates_critical_path_counters(self):
        m = Machine(2, params=UNIT)
        m.charge([0], Cost(10, 0, 0), sync=False)
        m.charge([0, 1], Cost(1, 0, 0))  # sync: rank 1 inherits rank 0's path
        cp = m.critical_path()
        assert cp.S == 11

    def test_charge_empty_group_is_noop(self):
        m = Machine(2, params=UNIT)
        m.charge([], Cost(5, 5, 5))
        assert m.time() == 0.0

    def test_charge_local_per_rank(self):
        m = Machine(3, params=UNIT)
        m.charge_local({0: Cost(0, 0, 5), 1: Cost(0, 0, 9)})
        assert m.time() == 9.0
        assert m.critical_path().F == 9

    def test_barrier_aligns_clocks(self):
        """A zero-cost charge is a barrier: it aligns the group's clocks."""
        m = Machine(2, params=UNIT)
        m.charge([0], Cost(9, 0, 0), sync=False)
        m.charge([0, 1], Cost.zero())
        m.charge([1], Cost(1, 0, 0), sync=False)
        assert m.time() == 10.0

    def test_total_volume_counts_all_ranks(self):
        m = Machine(4, params=UNIT)
        m.charge([0, 1, 2, 3], Cost(1, 2, 0))
        tv = m.total_volume()
        assert (tv.S, tv.W) == (4, 8)


class TestPhases:
    def test_phase_attribution(self):
        m = Machine(2, params=UNIT)
        with m.phase("a"):
            m.charge([0, 1], Cost(1, 2, 3))
        m.charge([0, 1], Cost(10, 0, 0))  # outside any phase
        assert m.phase_cost("a") == Cost(1, 2, 3)

    def test_unknown_phase_is_zero(self):
        m = Machine(2)
        assert m.phase_cost("nope") == Cost.zero()

    def test_phase_reentry_accumulates(self):
        m = Machine(2, params=UNIT)
        for _ in range(3):
            with m.phase("loop"):
                m.charge([0, 1], Cost(1, 0, 0))
        assert m.phase_cost("loop").S == 3

    def test_concurrent_disjoint_charges_do_not_stack(self):
        m = Machine(4, params=UNIT)
        with m.phase("par"):
            m.charge([0, 1], Cost(0, 100, 0))
            m.charge([2, 3], Cost(0, 100, 0))
        # per-rank max, not the 200-word sum
        assert m.phase_cost("par").W == 100

    def test_nested_phases_attribute_to_innermost(self):
        m = Machine(2, params=UNIT)
        with m.phase("outer"):
            with m.phase("inner"):
                m.charge([0, 1], Cost(1, 0, 0))
            m.charge([0, 1], Cost(0, 1, 0))
        assert m.phase_cost("inner") == Cost(1, 0, 0)
        assert m.phase_cost("outer") == Cost(0, 1, 0)

    def test_phase_names(self):
        m = Machine(2, params=UNIT)
        with m.phase("x"):
            m.charge([0], Cost(1, 0, 0))
        assert m.phase_names() == ["x"]


class TestTrace:
    def test_trace_records_labels(self):
        """The machine keeps no per-charge log; its backend logs every
        routed transition with the call site's label and the active phase."""
        m = Machine(4, params=UNIT)
        g = m.grid(2, 2)
        D = DistMatrix.from_global(m, g, CyclicLayout(2, 2), np.arange(16.0).reshape(4, 4))
        with m.phase("solve"):
            redistribute(D, g, BlockedLayout(2, 2), label="op")
        (rec,) = m.backend.measurements()
        assert (rec.label, rec.phase) == ("op", "solve")
        assert rec.messages > 0 and rec.words > 0
