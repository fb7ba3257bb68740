"""Golden reference: the per-coordinate copy loops, pinned verbatim.

When whole-matrix placement and assembly became the frame helpers of
:mod:`repro.dist.routing` (``DistMatrix.from_global`` is one
``scatter_frame`` over the whole-matrix end, ``to_global`` one
``gather_frame``, and a window axis is sliced from the layout's cached
index arrays), the original implementations moved here unchanged:
``Layout.extract``/``Layout.place``, the per-coordinate
``from_global``/``to_global`` loops, ``End.frame_maps`` and the group-by
``_frame_messages`` behind ``gather_frame``/``scatter_frame``.
``tests/test_layout_parity.py`` drives both with the same hypothesis
inputs and asserts byte-identical blocks and frames.

An oracle *beside* the fast path, like ``tests/routing_reference.py``:
nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.dist.routing import _axis_pairs
from repro.machine.validate import ShapeError, require

if TYPE_CHECKING:
    from repro.dist.distmatrix import DistMatrix
    from repro.dist.layout import Layout
    from repro.dist.routing import Blocks, End
    from repro.machine.topology import ProcessorGrid


def reference_extract(
    layout: "Layout", A: np.ndarray, coord: tuple[int, int]
) -> np.ndarray:
    """The local block of global matrix ``A`` at grid coordinate ``coord``."""
    x, y = coord
    m, n = A.shape
    return A[np.ix_(layout.row_indices(x, m), layout.col_indices(y, n))]


def reference_place(
    layout: "Layout", out: np.ndarray, coord: tuple[int, int], block: np.ndarray
) -> None:
    """Inverse of :func:`reference_extract`: scatter ``block`` into ``out``."""
    x, y = coord
    m, n = out.shape
    rows = layout.row_indices(x, m)
    cols = layout.col_indices(y, n)
    require(
        block.shape == (len(rows), len(cols)),
        ShapeError,
        f"block at {coord} has shape {block.shape}, layout expects "
        f"({len(rows)}, {len(cols)})",
    )
    out[np.ix_(rows, cols)] = block


def reference_from_global(
    grid: "ProcessorGrid", layout: "Layout", A: np.ndarray
) -> dict[int, np.ndarray]:
    """The per-coordinate ``from_global`` loop (its blocks dict)."""
    A = np.asarray(A, dtype=np.float64)
    return {
        grid.rank(coord): reference_extract(layout, A, coord)
        for coord in grid.coords()
    }


def reference_to_global(D: "DistMatrix") -> np.ndarray:
    """The per-coordinate ``to_global`` loop."""
    out = np.zeros(D.shape)
    for coord in D.grid.coords():
        reference_place(D.layout, out, coord, D.blocks[D.grid.rank(coord)])
    return out


def reference_frame_maps(
    end: "End", shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The original ``End.frame_maps``: owner/position vectors along both
    frame axes, sliced (window) or fancy-indexed (selection) from the
    layout's cached owner maps."""
    fm, fn = end.frame_shape(shape)
    M, N = end.full_shape
    r0, c0 = end.offset
    if end.transpose:
        # Frame rows follow matrix columns and vice versa.
        require(
            c0 + fm <= N and r0 + fn <= M,
            ShapeError,
            f"transposed frame {shape} at {end.offset} exceeds {end.full_shape}",
        )
        col_owners, col_pos = end.layout.col_owner_map(N)
        row_owners, row_pos = end.layout.row_owner_map(M)
        return (
            col_owners[c0 : c0 + fm],
            col_pos[c0 : c0 + fm],
            row_owners[r0 : r0 + fn],
            row_pos[r0 : r0 + fn],
        )
    row_owners, row_pos = end.layout.row_owner_map(M)
    col_owners, col_pos = end.layout.col_owner_map(N)
    if end.rows is None and end.cols is None:
        # contiguous window: zero-copy slice views of the cached maps
        require(
            r0 + fm <= M and c0 + fn <= N,
            ShapeError,
            f"frame {shape} at {end.offset} exceeds {end.full_shape}",
        )
        return (
            row_owners[r0 : r0 + fm],
            row_pos[r0 : r0 + fm],
            col_owners[c0 : c0 + fn],
            col_pos[c0 : c0 + fn],
        )
    ri = end.rows if end.rows is not None else np.arange(fm)
    ci = end.cols if end.cols is not None else np.arange(fn)
    require(
        (ri.size == 0 or (0 <= ri.min() and ri.max() < M))
        and (ci.size == 0 or (0 <= ci.min() and ci.max() < N)),
        ShapeError,
        f"frame selection exceeds matrix of shape {end.full_shape}",
    )
    return row_owners[ri], row_pos[ri], col_owners[ci], col_pos[ci]


def reference_frame_messages(
    end: "End", shape: tuple[int, int]
) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The messages between an end and a dense frame of ``shape``:
    ``(rank, block rows, block cols, frame rows, frame cols)`` per owning
    rank — :func:`_axis_pairs` with a one-coordinate dense side."""
    ro, rp, co, cp = reference_frame_maps(end, shape)
    ranks = end.rank_matrix().tolist()
    col_pairs = _axis_pairs(co, 0, cp, np.arange(shape[1]), 1)
    return [
        (ranks[a][b], rs, cs, rd, cd)
        for a, _, rs, rd in _axis_pairs(ro, 0, rp, np.arange(shape[0]), 1)
        for b, _, cs, cd in col_pairs
    ]


def reference_gather_frame(
    end: "End", blocks: "Blocks", shape: tuple[int, int] | None = None
) -> np.ndarray:
    """The group-by ``gather_frame``."""
    fm, fn = end.frame_shape(shape)
    out = np.zeros((fm, fn))
    for rank, rs, cs, rd, cd in reference_frame_messages(end, (fm, fn)):
        view = blocks[rank].T if end.transpose else blocks[rank]
        out[rd[:, None], cd] = view[rs[:, None], cs]
    return out


def reference_scatter_frame(
    end: "End", frame: np.ndarray, out: dict[int, np.ndarray]
) -> dict[int, np.ndarray]:
    """The group-by ``scatter_frame``."""
    frame = np.asarray(frame)
    for rank, rs, cs, rd, cd in reference_frame_messages(
        end, end.frame_shape(frame.shape)
    ):
        view = out[rank].T if end.transpose else out[rank]
        view[rs[:, None], cs] = frame[rd[:, None], cd]
    return out
