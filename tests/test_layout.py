"""Layout index maps: cyclic, blocked, block-cyclic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import DistMatrix
from repro.dist.layout import (
    BlockCyclicLayout,
    BlockedLayout,
    CyclicLayout,
    expected_local_words,
)
from repro.dist.routing import End, gather_frame, scatter_frame, zero_blocks
from repro.machine import Machine
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import ShapeError


def extract_all(lay, A):
    """Every local block of ``A`` under ``lay`` on a fresh grid, by coordinate."""
    grid = ProcessorGrid.build((lay.pr, lay.pc))
    blocks = scatter_frame(End(grid, lay, A.shape), A, zero_blocks(grid, lay, A.shape))
    return {coord: blocks[grid.rank(coord)] for coord in grid.coords()}


class TestCyclicLayout:
    def test_row_indices_strided(self):
        lay = CyclicLayout(3, 2)
        assert np.array_equal(lay.row_indices(1, 10), [1, 4, 7])

    def test_matches_paper_definition(self):
        # L[x, y](i, j) = L(i*pr + x, j*pc + y)
        lay = CyclicLayout(2, 3)
        A = np.arange(36.0).reshape(6, 6)
        block = extract_all(lay, A)[(1, 2)]
        for i in range(block.shape[0]):
            for j in range(block.shape[1]):
                assert block[i, j] == A[i * 2 + 1, j * 3 + 2]

    def test_out_of_range_coord(self):
        lay = CyclicLayout(2, 2)
        with pytest.raises(ShapeError):
            lay.row_indices(2, 4)

    def test_local_rows_in_window(self):
        lay = CyclicLayout(4, 1)
        # rank 1 owns rows 1, 5, 9, 13; window [4, 12) catches 5 and 9
        pos = lay.local_rows_in(1, 16, 4, 12)
        rows = lay.row_indices(1, 16)[pos]
        assert np.array_equal(rows, [5, 9])


class TestBlockedLayout:
    def test_contiguous_tiles(self):
        lay = BlockedLayout(2, 2)
        assert np.array_equal(lay.row_indices(0, 5), [0, 1, 2])
        assert np.array_equal(lay.row_indices(1, 5), [3, 4])

    def test_front_loaded_raggedness(self):
        lay = BlockedLayout(3, 1)
        sizes = [len(lay.row_indices(x, 7)) for x in range(3)]
        assert sizes == [3, 2, 2]


class TestBlockCyclicLayout:
    def test_block_size_two(self):
        lay = BlockCyclicLayout(2, 1, br=2)
        assert np.array_equal(lay.row_indices(0, 8), [0, 1, 4, 5])
        assert np.array_equal(lay.row_indices(1, 8), [2, 3, 6, 7])

    def test_block_size_one_equals_cyclic(self):
        bc = BlockCyclicLayout(3, 2, br=1, bc=1)
        cy = CyclicLayout(3, 2)
        for x in range(3):
            assert np.array_equal(bc.row_indices(x, 11), cy.row_indices(x, 11))

    def test_invalid_params(self):
        with pytest.raises(ShapeError):
            BlockCyclicLayout(0, 1)
        with pytest.raises(ShapeError):
            BlockCyclicLayout(1, 1, br=0)

    def test_equality(self):
        assert BlockCyclicLayout(2, 2, 1, 1) == BlockCyclicLayout(2, 2, 1, 1)
        assert BlockCyclicLayout(2, 2, 2, 1) != BlockCyclicLayout(2, 2, 1, 1)


class TestExtractPlace:
    """Local blocks leave and re-enter a global matrix through the frame
    helpers over the whole-matrix end."""

    def test_roundtrip(self):
        lay = CyclicLayout(2, 3)
        grid = ProcessorGrid.build((2, 3))
        A = np.arange(30.0).reshape(5, 6)
        end = End(grid, lay, A.shape)
        blocks = scatter_frame(end, A, zero_blocks(grid, lay, A.shape))
        assert np.array_equal(gather_frame(end, blocks, A.shape), A)

    def test_place_shape_mismatch(self):
        lay = CyclicLayout(2, 2)
        grid = ProcessorGrid.build((2, 2))
        D = DistMatrix.from_global(Machine(4), grid, lay, np.zeros((4, 4)))
        D.blocks[grid.rank((0, 0))] = np.zeros((3, 3))
        with pytest.raises(ShapeError):
            D.to_global()

    def test_expected_local_words_is_max(self):
        lay = CyclicLayout(2, 2)
        assert expected_local_words(lay, (5, 5)) == 9  # ceil(5/2)^2


@st.composite
def layout_specs(draw):
    """``(pr, pc, br, bc, blocked?)`` from a space small enough that two
    draws often coincide, in value or only in effect."""
    return (
        draw(st.integers(1, 3)),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 3)),
        draw(st.booleans()),
    )


def _layout_of(spec):
    pr, pc, br, bc, blocked = spec
    return BlockedLayout(pr, pc) if blocked else BlockCyclicLayout(pr, pc, br, bc)


@settings(max_examples=200, deadline=None)
@given(sa=layout_specs(), sb=layout_specs(), m=st.integers(0, 14), n=st.integers(0, 14))
def test_layout_identity_is_its_axis_maps(sa, sb, m, n):
    """One identity: ``==``, ``hash`` and the memoized index maps all follow
    the two axis maps, so a cache keyed on a layout can neither alias two
    distributions nor split one (``p = 1`` spellings may *deal* alike
    while differing by value — the safe direction).  ``transposed()`` is
    the axis swap, hence an involution that pairs rows with columns."""
    a, b = _layout_of(sa), _layout_of(sb)
    same_value = (a.rows, a.cols) == (b.rows, b.cols)
    assert (a == b) == same_value == (hash(a) == hash(b))
    same_maps = np.array_equal(
        a.row_owner_map(m)[0], b.row_owner_map(m)[0]
    ) and np.array_equal(a.col_owner_map(n)[0], b.col_owner_map(n)[0])
    if a == b:
        assert same_maps
        assert all(a.row_indices(x, m) is b.row_indices(x, m) for x in range(a.pr))
    if not same_maps:
        assert a != b
    t = a.transposed()
    assert t.transposed() == a and (t.pr, t.pc) == (a.pc, a.pr)
    assert all(t.row_indices(y, n) is a.col_indices(y, n) for y in range(a.pc))


LAYOUTS = st.sampled_from(["cyclic", "blocked", "blockcyclic"])


def _make_layout(kind, pr, pc):
    if kind == "cyclic":
        return CyclicLayout(pr, pc)
    if kind == "blocked":
        return BlockedLayout(pr, pc)
    return BlockCyclicLayout(pr, pc, br=2, bc=3)


@settings(max_examples=60, deadline=None)
@given(
    kind=LAYOUTS,
    pr=st.integers(1, 4),
    pc=st.integers(1, 4),
    m=st.integers(1, 25),
    n=st.integers(1, 25),
)
def test_layout_partitions_index_space(kind, pr, pc, m, n):
    """Every layout must partition rows/cols exactly (no gaps, no overlap)."""
    lay = _make_layout(kind, pr, pc)
    rows = np.concatenate([lay.row_indices(x, m) for x in range(pr)])
    cols = np.concatenate([lay.col_indices(y, n) for y in range(pc)])
    assert sorted(rows.tolist()) == list(range(m))
    assert sorted(cols.tolist()) == list(range(n))
    for x in range(pr):
        r = lay.row_indices(x, m)
        assert np.all(np.diff(r) > 0)  # ascending
