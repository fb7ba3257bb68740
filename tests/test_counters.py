"""Direct tests of the per-rank counter machinery."""

import numpy as np
import pytest

from repro.machine.cost import Cost
from repro.machine.counters import CounterSet


def col(seconds, S, W, F):
    """A (4, 1) (seconds, S, W, F) block: charged to every rank given."""
    return np.array([[seconds], [S], [W], [F]], dtype=float)


class TestCharge:
    def test_charge_accumulates(self):
        c = CounterSet(4)
        c.charge(np.array([0, 2]), col(0.5, 1, 2, 3))
        assert c.S[0] == 1 and c.W[2] == 2 and c.F[0] == 3
        assert c.S[1] == 0
        assert c.clock[0] == 0.5 and c.clock[1] == 0.0

    def test_total_counts_group_size(self):
        c = CounterSet(4)
        c.charge(np.array([0, 1, 2]), col(0.0, 1, 1, 1))
        assert c.total == Cost(3, 3, 3)

    def test_block_charges_one_column_per_rank(self):
        c = CounterSet(3)
        block = np.array([[0.5, 2.0], [1, 4], [2, 5], [3, 6]], dtype=float)
        c.charge(np.array([2, 0]), block)
        assert list(c.ledger[:, 2]) == [0.5, 1, 2, 3]
        assert list(c.ledger[:, 0]) == [2.0, 4, 5, 6]
        assert c.total == Cost(5, 7, 9)

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
        c.charge(np.array([0]), col(9.0, 10, 20, 30))
        c.charge(np.array([1]), col(1.0, 1, 1, 1))
        c.sync(np.array([0, 1]))
        # rank 1 inherits rank 0's path counters (rank 0 was slowest)
        assert c.S[1] == 10 and c.W[1] == 20 and c.F[1] == 30

    def test_sync_singleton_noop(self):
        c = CounterSet(2)
        c.charge(np.array([0]), col(1.0, 1, 1, 1))
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
        c.charge(np.array([1]), col(4.0, 7, 8, 9))
        t, cost = c.critical_path()
        assert t == 4.0
        assert cost == Cost(7, 8, 9)
