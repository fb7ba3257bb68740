"""Degenerate-parameter equivalences between the three layout families.

``BlockCyclicLayout`` generalizes both other layouts:

* ``br = bc = 1`` is exactly ``CyclicLayout`` — on every shape and grid;
* ``br = ceil(m/pr)`` gives each grid row one contiguous run of rows, which
  coincides with ``BlockedLayout`` whenever ``pr`` divides ``m`` (and
  always on a degenerate axis, ``pr = 1``).  On ragged shapes the two
  *differ by design*: ``BlockedLayout`` balances (front-loaded, sizes
  differ by at most one) while ceil-sized block-cyclic starves the last
  rank — the regression test below pins down that documented divergence.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import DistMatrix
from repro.dist.layout import BlockCyclicLayout, BlockedLayout, CyclicLayout
from repro.machine import Machine
from repro.machine.topology import ProcessorGrid

GRIDS = st.tuples(st.integers(1, 5), st.integers(1, 5))
EDGE_GRIDS = st.sampled_from([(1, 1), (1, 4), (4, 1), (1, 7), (7, 1)])


def assert_same_index_maps(a, b, m, n):
    for x in range(a.pr):
        assert np.array_equal(a.row_indices(x, m), b.row_indices(x, m)), (
            f"row maps differ at x={x}, m={m}"
        )
    for y in range(a.pc):
        assert np.array_equal(a.col_indices(y, n), b.col_indices(y, n)), (
            f"col maps differ at y={y}, n={n}"
        )


class TestBlockCyclicDegeneratesToCyclic:
    @settings(max_examples=80, deadline=None)
    @given(grid=GRIDS, m=st.integers(0, 40), n=st.integers(0, 40))
    def test_unit_blocks_equal_cyclic_on_ragged_shapes(self, grid, m, n):
        pr, pc = grid
        assert_same_index_maps(
            BlockCyclicLayout(pr, pc, br=1, bc=1), CyclicLayout(pr, pc), m, n
        )

    @settings(max_examples=40, deadline=None)
    @given(grid=EDGE_GRIDS, m=st.integers(1, 30), n=st.integers(1, 30))
    def test_unit_blocks_equal_cyclic_on_degenerate_grids(self, grid, m, n):
        pr, pc = grid
        assert_same_index_maps(
            BlockCyclicLayout(pr, pc, br=1, bc=1), CyclicLayout(pr, pc), m, n
        )

    @settings(max_examples=40, deadline=None)
    @given(grid=GRIDS, m=st.integers(1, 30))
    def test_unit_blocks_extract_like_cyclic(self, grid, m):
        pr, pc = grid
        A = np.arange(float(m * m)).reshape(m, m)
        grid = ProcessorGrid.build((pr, pc))
        machine = Machine(pr * pc)
        bc = DistMatrix.from_global(machine, grid, BlockCyclicLayout(pr, pc, br=1, bc=1), A)
        cy = DistMatrix.from_global(machine, grid, CyclicLayout(pr, pc), A)
        for r in grid.ranks():
            assert np.array_equal(bc.blocks[r], cy.blocks[r])


class TestBlockCyclicDegeneratesToBlocked:
    @settings(max_examples=80, deadline=None)
    @given(
        pr=st.integers(1, 5),
        pc=st.integers(1, 5),
        mb=st.integers(1, 8),
        nb=st.integers(1, 8),
    )
    def test_full_blocks_equal_blocked_when_divisible(self, pr, pc, mb, nb):
        m, n = pr * mb, pc * nb
        lay = BlockCyclicLayout(
            pr, pc, br=math.ceil(m / pr), bc=math.ceil(n / pc)
        )
        assert_same_index_maps(lay, BlockedLayout(pr, pc), m, n)

    @settings(max_examples=60, deadline=None)
    @given(grid=EDGE_GRIDS, m=st.integers(1, 30), n=st.integers(1, 30))
    def test_degenerate_axis_always_matches_blocked(self, grid, m, n):
        """On a 1 x p / p x 1 grid the singleton axis owns everything, and
        both layouts agree on it for any (ragged) extent."""
        pr, pc = grid
        lay = BlockCyclicLayout(pr, pc, br=math.ceil(m / pr), bc=math.ceil(n / pc))
        blk = BlockedLayout(pr, pc)
        if pr == 1:
            assert np.array_equal(lay.row_indices(0, m), blk.row_indices(0, m))
            assert np.array_equal(lay.row_indices(0, m), np.arange(m))
        if pc == 1:
            assert np.array_equal(lay.col_indices(0, n), blk.col_indices(0, n))
            assert np.array_equal(lay.col_indices(0, n), np.arange(n))

    def test_ragged_divergence_is_the_documented_one(self):
        """m=7 over pr=3: blocked balances [3,2,2]; ceil-block-cyclic
        chunks [3,3,1].  Both partition the rows; they are not equal."""
        blocked = BlockedLayout(3, 1)
        ceilbc = BlockCyclicLayout(3, 1, br=math.ceil(7 / 3))
        assert [len(blocked.row_indices(x, 7)) for x in range(3)] == [3, 2, 2]
        assert [len(ceilbc.row_indices(x, 7)) for x in range(3)] == [3, 3, 1]
        for lay in (blocked, ceilbc):
            rows = np.concatenate([lay.row_indices(x, 7) for x in range(3)])
            assert sorted(rows.tolist()) == list(range(7))


@settings(max_examples=60, deadline=None)
@given(
    pr=st.integers(1, 4),
    pc=st.integers(1, 4),
    br=st.integers(1, 5),
    bc=st.integers(1, 5),
    m=st.integers(0, 25),
    n=st.integers(0, 25),
)
def test_block_cyclic_always_partitions(pr, pc, br, bc, m, n):
    """Arbitrary physical block sizes still partition the index space."""
    lay = BlockCyclicLayout(pr, pc, br=br, bc=bc)
    rows = np.concatenate([lay.row_indices(x, m) for x in range(pr)])
    cols = np.concatenate([lay.col_indices(y, n) for y in range(pc)])
    assert sorted(rows.tolist()) == list(range(m))
    assert sorted(cols.tolist()) == list(range(n))
