"""DistMatrix container tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import BlockedLayout, CyclicLayout, DistMatrix
from repro.machine import Machine
from repro.machine.validate import GridError, ShapeError


def setup(pr=2, pc=2, m=6, n=6, layout_cls=CyclicLayout):
    machine = Machine(pr * pc)
    grid = machine.grid(pr, pc)
    layout = layout_cls(pr, pc)
    A = np.arange(float(m * n)).reshape(m, n)
    D = DistMatrix.from_global(machine, grid, layout, A)
    return machine, grid, layout, A, D


class TestRoundtrip:
    def test_global_roundtrip_cyclic(self):
        _, _, _, A, D = setup()
        assert np.array_equal(D.to_global(), A)

    def test_global_roundtrip_blocked(self):
        _, _, _, A, D = setup(layout_cls=BlockedLayout)
        assert np.array_equal(D.to_global(), A)

    def test_ragged_shapes(self):
        _, _, _, A, D = setup(pr=2, pc=4, m=7, n=9)
        assert np.array_equal(D.to_global(), A)

    def test_distribution_is_free(self):
        machine, *_ = setup()
        assert machine.time() == 0.0


class TestAccess:
    def test_local_block_contents(self):
        _, grid, layout, A, D = setup()
        blk = D.local((1, 0))
        assert np.array_equal(blk, A[1::2, 0::2])

    def test_set_local_validates_shape(self):
        _, _, _, _, D = setup()
        with pytest.raises(ShapeError):
            D.set_local((0, 0), np.zeros((1, 1)))

    def test_set_local_roundtrip(self):
        _, _, _, A, D = setup()
        D.set_local((0, 0), np.zeros((3, 3)))
        G = D.to_global()
        assert np.all(G[0::2, 0::2] == 0)
        assert np.array_equal(G[1::2, :], A[1::2, :])

    def test_copy_is_deep(self):
        _, _, _, A, D = setup()
        C = D.copy()
        C.blocks[0][:] = -1
        assert np.array_equal(D.to_global(), A)


class TestValidation:
    def test_requires_2d_grid(self):
        machine = Machine(4)
        grid = machine.grid(4)
        with pytest.raises(GridError):
            DistMatrix.from_global(machine, grid, CyclicLayout(1, 4), np.zeros((2, 2)))

    def test_layout_grid_mismatch(self):
        machine = Machine(4)
        grid = machine.grid(2, 2)
        with pytest.raises(GridError):
            DistMatrix.from_global(machine, grid, CyclicLayout(4, 1), np.zeros((2, 2)))

    def test_vector_input_rejected(self):
        machine = Machine(4)
        grid = machine.grid(2, 2)
        with pytest.raises(ShapeError):
            DistMatrix.from_global(machine, grid, CyclicLayout(2, 2), np.zeros(4))

    def test_zeros_constructor(self):
        machine = Machine(4)
        grid = machine.grid(2, 2)
        D = DistMatrix.zeros(machine, grid, CyclicLayout(2, 2), (5, 3))
        assert np.all(D.to_global() == 0)
        assert D.shape == (5, 3)


@settings(max_examples=40, deadline=None)
@given(
    pr=st.integers(1, 3),
    pc=st.integers(1, 3),
    m=st.integers(1, 12),
    n=st.integers(1, 12),
)
def test_roundtrip_property(pr, pc, m, n):
    machine = Machine(pr * pc)
    grid = machine.grid(pr, pc)
    A = np.random.default_rng(0).standard_normal((m, n))
    D = DistMatrix.from_global(machine, grid, CyclicLayout(pr, pc), A)
    assert np.allclose(D.to_global(), A)
