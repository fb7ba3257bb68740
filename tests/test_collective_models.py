"""The Section II-C1 butterfly cost table and the machine charging it."""

import numpy as np

from repro.machine import CostParams, Machine
from repro.machine import collective_models
from repro.machine.collectives import allgather

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")


class TestModels:
    def test_butterfly_log_latency(self):
        assert collective_models.allgather(8, 64).S == 3
        assert collective_models.bcast(8, 64).S == 6

    def test_same_bandwidth_for_one_phase_ops(self):
        """allgather, scatter, gather and reduce-scatter all move ``n * 1_g``
        words; only reduce-scatter adds the ``n * 1_g`` flops."""
        for cost in (
            collective_models.allgather(8, 64),
            collective_models.scatter(8, 64),
            collective_models.gather(8, 64),
            collective_models.reduce_scatter(8, 64),
        ):
            assert (cost.S, cost.W) == (3, 64)
        assert collective_models.reduce_scatter(8, 64).F == 64

    def test_singleton_groups_free_in_both(self):
        """Both the one-phase and the two-phase collectives charge a group
        of one nothing."""
        assert collective_models.allgather(1, 64).W == 0
        assert collective_models.bcast(1, 64).S == 0

    def test_alltoall_volume(self):
        # butterfly (Bruck): (n/2) log p
        assert collective_models.alltoall(8, 64).W == 32 * 3


class TestMachineIntegration:
    def test_default_is_butterfly(self):
        """A machine's collectives charge the butterfly table: ``log g``
        rounds for an allgather over eight ranks."""
        m = Machine(8, params=UNIT)
        group = list(range(8))
        allgather(m, group, {r: np.ones(8) for r in group})
        assert m.critical_path() == collective_models.allgather(8, 64)
