"""Direct tests of the per-rank counter machinery."""

import numpy as np
import pytest

from repro.machine.cost import Cost
from repro.machine.counters import CounterSet


class TestCharge:
    def test_charge_accumulates(self):
        c = CounterSet(4)
        c.charge(np.array([0, 2]), Cost(1, 2, 3), seconds=0.5)
        assert c.S[0] == 1 and c.W[2] == 2 and c.F[0] == 3
        assert c.S[1] == 0
        assert c.clock[0] == 0.5 and c.clock[1] == 0.0

    def test_total_counts_group_size(self):
        c = CounterSet(4)
        c.charge(np.array([0, 1, 2]), Cost(1, 1, 1), seconds=0.0)
        assert c.total == Cost(3, 3, 3)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            CounterSet(0)


class TestSync:
    def test_sync_aligns_clocks_to_max(self):
        c = CounterSet(3)
        c.clock[:] = [5.0, 1.0, 3.0]
        c.sync(np.array([0, 1, 2]))
        assert list(c.clock) == [5.0, 5.0, 5.0]

    def test_sync_propagates_slowest_counters(self):
        c = CounterSet(2)
        c.charge(np.array([0]), Cost(10, 20, 30), seconds=9.0)
        c.charge(np.array([1]), Cost(1, 1, 1), seconds=1.0)
        c.sync(np.array([0, 1]))
        # rank 1 inherits rank 0's path counters (rank 0 was slowest)
        assert c.S[1] == 10 and c.W[1] == 20 and c.F[1] == 30

    def test_sync_singleton_noop(self):
        c = CounterSet(2)
        c.charge(np.array([0]), Cost(1, 1, 1), seconds=1.0)
        c.sync(np.array([0]))
        assert c.clock[0] == 1.0

    def test_sync_partial_group(self):
        c = CounterSet(3)
        c.clock[:] = [1.0, 9.0, 2.0]
        c.sync(np.array([0, 2]))
        assert list(c.clock) == [2.0, 9.0, 2.0]


class TestReporting:
    def test_critical_path_returns_max_rank(self):
        c = CounterSet(3)
        c.charge(np.array([1]), Cost(7, 8, 9), seconds=4.0)
        t, cost = c.critical_path()
        assert t == 4.0
        assert cost == Cost(7, 8, 9)

    def test_max_counters_componentwise(self):
        c = CounterSet(2)
        c.charge(np.array([0]), Cost(10, 0, 0), seconds=0.0)
        c.charge(np.array([1]), Cost(0, 20, 0), seconds=0.0)
        assert c.max_counters() == Cost(10, 20, 0)
