"""Frame-copy contract: whole-matrix placement and assembly are the frame
helpers, byte-identical to the per-coordinate loops they replaced.

``DistMatrix.from_global`` is one ``scatter_frame`` over the whole-matrix
end, ``to_global`` one ``gather_frame``, and a window axis is sliced from
the layout's cached index arrays instead of grouped.  The loops they
replaced are pinned verbatim in ``tests/layout_reference.py``; this suite
drives both with the same hypothesis inputs — all four layout
constructors with physical blocks > 1, ragged and empty axes, grids of
non-consecutive permuted ranks, window, transposed and selection ends —
and asserts:

* blocks, assembled matrices and frames are equal ``tobytes()`` (NaN and
  ``-0.0`` included), and ``End.frame_maps`` is unchanged;
* every block is private: C-contiguous, writeable, sharing memory with
  neither the source matrix nor another block;
* a block scribbled to the wrong shape makes ``to_global`` refuse with a
  ``ShapeError``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layout_reference import (
    reference_frame_maps,
    reference_from_global,
    reference_gather_frame,
    reference_scatter_frame,
    reference_to_global,
)
from repro.dist import DistMatrix, End
from repro.dist.layout import (
    BlockCyclicLayout,
    BlockedLayout,
    CyclicLayout,
    RowCyclicColBlockedLayout,
)
from repro.dist.routing import gather_frame, scatter_frame
from repro.machine import Machine
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import ShapeError


@st.composite
def placements(draw):
    """A layout of any family, a grid of permuted non-consecutive ranks,
    and a seeded global matrix of a possibly ragged or empty shape."""
    pr, pc = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["cyclic", "blocked", "blockcyclic", "rowcyclic"]))
    b1, b2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    layout = {
        "cyclic": lambda: CyclicLayout(pr, pc),
        "blocked": lambda: BlockedLayout(pr, pc),
        "blockcyclic": lambda: BlockCyclicLayout(pr, pc, b1, b2),
        "rowcyclic": lambda: RowCyclicColBlockedLayout(pr, pc, b1),
    }[kind]()
    ranks = draw(st.permutations(range(2 * pr * pc)))[: pr * pc]
    grid = ProcessorGrid(np.array(ranks).reshape(pr, pc))
    m, n = draw(st.integers(0, 13)), draw(st.integers(0, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    A = rng.standard_normal((m, n))
    if A.size:
        A.flat[rng.integers(A.size)] = -0.0
        A.flat[rng.integers(A.size)] = np.nan
    order = draw(st.sampled_from(["C", "F", "T"]))
    if order == "F":
        A = np.asfortranarray(A)
    elif order == "T":  # a strided view of a transposed buffer
        A = np.ascontiguousarray(A.T).T
    return layout, grid, A


def assert_private(blocks, A):
    arrays = list(blocks.values())
    for i, block in enumerate(arrays):
        assert block.dtype == np.float64
        assert block.flags.c_contiguous and block.flags.writeable
        assert not np.shares_memory(block, A)
        for other in arrays[i + 1 :]:
            assert not np.shares_memory(block, other)


@settings(max_examples=150, deadline=None)
@given(case=placements())
def test_from_global_to_global_match_reference(case):
    layout, grid, A = case
    machine = Machine(int(grid.rank_array.max()) + 1)
    D = DistMatrix.from_global(machine, grid, layout, A)
    ref = reference_from_global(grid, layout, A)
    assert list(D.blocks) == list(ref)
    for r, block in ref.items():
        assert D.blocks[r].shape == block.shape
        assert D.blocks[r].tobytes() == block.tobytes()
    assert_private(D.blocks, A)
    out = D.to_global()
    assert out.tobytes() == reference_to_global(D).tobytes()
    assert out.tobytes() == np.ascontiguousarray(A).tobytes()
    Z = DistMatrix.zeros(machine, grid, layout, A.shape)
    zref = reference_from_global(grid, layout, np.zeros(A.shape))
    assert all(Z.blocks[r].tobytes() == b.tobytes() for r, b in zref.items())
    assert_private(Z.blocks, A)


@settings(max_examples=60, deadline=None)
@given(case=placements(), data=st.data())
def test_to_global_refuses_a_scribbled_block(case, data):
    layout, grid, A = case
    D = DistMatrix.from_global(Machine(int(grid.rank_array.max()) + 1), grid, layout, A)
    r = data.draw(st.sampled_from(grid.ranks()))
    m, n = D.blocks[r].shape
    dm, dn = data.draw(
        st.tuples(st.integers(-1, 1), st.integers(-1, 1)).filter(
            lambda d: d != (0, 0) and m + d[0] >= 0 and n + d[1] >= 0
        )
    )
    D.blocks[r] = np.zeros((m + dm, n + dn))
    with pytest.raises(ShapeError):
        D.to_global()


@st.composite
def frame_ends(draw, grid, layout, shape):
    """A window, transposed-window or selection end inside ``shape``, and
    its frame shape."""
    M, N = shape
    kind = draw(st.sampled_from(["window", "transpose", "rows", "cols", "both"]))
    if kind in ("window", "transpose"):
        t = kind == "transpose"
        r0 = draw(st.integers(0, M))
        c0 = draw(st.integers(0, N))
        fr, fc = draw(st.integers(0, M - r0)), draw(st.integers(0, N - c0))
        end = End(grid, layout, shape, offset=(r0, c0), transpose=t)
        return end, ((fc, fr) if t else (fr, fc))

    def selection(size):
        picked = draw(st.permutations(range(size)))
        return np.array(picked[: draw(st.integers(0, size))], dtype=np.int64)

    rows = selection(M) if kind in ("rows", "both") else None
    cols = selection(N) if kind in ("cols", "both") else None
    fm = len(rows) if rows is not None else draw(st.integers(0, M))
    fn = len(cols) if cols is not None else draw(st.integers(0, N))
    return End(grid, layout, shape, rows=rows, cols=cols), (fm, fn)


@settings(max_examples=200, deadline=None)
@given(case=placements(), data=st.data())
def test_gather_scatter_frame_match_reference(case, data):
    layout, grid, A = case
    machine = Machine(int(grid.rank_array.max()) + 1)
    D = DistMatrix.from_global(machine, grid, layout, A)
    end, fshape = data.draw(frame_ends(grid, layout, A.shape))
    for got, want in zip(end.frame_maps(fshape), reference_frame_maps(end, fshape)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    frame = gather_frame(end, D.blocks, fshape)
    assert frame.shape == fshape
    assert frame.tobytes() == reference_gather_frame(end, D.blocks, fshape).tobytes()
    new = np.random.default_rng(1).standard_normal(fshape)
    got = scatter_frame(end, new, {r: b.copy() for r, b in D.blocks.items()})
    want = reference_scatter_frame(end, new, {r: b.copy() for r, b in D.blocks.items()})
    assert all(got[r].tobytes() == want[r].tobytes() for r in want)


def test_window_past_the_matrix_is_refused():
    grid = ProcessorGrid.build((2, 2))
    blocks = DistMatrix.zeros(Machine(4), grid, CyclicLayout(2, 2), (4, 5)).blocks
    for end, shape in [
        (End(grid, CyclicLayout(2, 2), (4, 5), offset=(1, 0)), (4, 5)),
        (End(grid, CyclicLayout(2, 2), (4, 5), transpose=True), (4, 5)),
        (End(grid, CyclicLayout(2, 2), (4, 5), rows=[0, 4]), (2, 5)),
    ]:
        with pytest.raises(ShapeError):
            gather_frame(end, blocks, shape)
        with pytest.raises(ShapeError):
            reference_gather_frame(end, blocks, shape)
