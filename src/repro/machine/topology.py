"""Processor grids: the paper's 2D, 3D and 4D process topologies.

A :class:`ProcessorGrid` is a view of a set of machine ranks arranged as an
n-dimensional array.  The same ranks can be viewed through several grids at
once (the paper constantly re-embeds a ``sqrt(p) x sqrt(p)`` 2D grid as a
``p1 x sqrt(p2) x p1 x sqrt(p2)`` 4D grid, Section III line 1), so grids are
cheap immutable objects over a shared ``ranks`` ndarray.

Conventions
-----------
* ``grid.rank(coord)`` maps a coordinate tuple to the machine rank.
* ``grid.fiber(axis, coord)`` is the 1D group obtained by varying ``axis``
  with every other coordinate fixed — the paper's ``Pi(x, o, z)`` notation.
* ``grid.split_axis(axis, inner)`` re-embeds one axis of size ``inner*outer``
  as two axes ``(inner_idx, outer_idx)`` with the original index equal to
  ``inner_idx + inner * outer_idx`` — exactly the paper's
  ``Pi4D(x1, x2, y1, y2) = Pi2D(x1 + p1*x2, y1 + p1*y2)`` construction.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from repro.machine.validate import GridError, require


class ProcessorGrid:
    """An immutable n-dimensional arrangement of machine ranks."""

    __slots__ = ("_ranks", "_hash")

    def __init__(self, ranks: np.ndarray):
        ranks = np.asarray(ranks, dtype=np.int64)
        require(ranks.ndim >= 1, GridError, "grid must have at least one axis")
        require(ranks.size >= 1, GridError, "grid must contain at least one rank")
        flat = ranks.reshape(-1)
        require(
            len(set(flat.tolist())) == flat.size,
            GridError,
            "grid ranks must be distinct",
        )
        self._ranks = ranks
        self._ranks.setflags(write=False)
        self._hash: int | None = None

    # -- basic properties ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self._ranks.shape

    @property
    def ndim(self) -> int:
        return self._ranks.ndim

    @property
    def size(self) -> int:
        return int(self._ranks.size)

    @property
    def rank_array(self) -> np.ndarray:
        """The underlying (read-only) rank ndarray — vectorized rank lookup."""
        return self._ranks

    def ranks(self) -> list[int]:
        """All machine ranks in this grid, in C (row-major) coordinate order."""
        return [int(r) for r in self._ranks.reshape(-1)]

    def rank(self, coord: Sequence[int]) -> int:
        """Machine rank at the given coordinate."""
        coord = tuple(int(c) for c in coord)
        require(
            len(coord) == self.ndim,
            GridError,
            f"coordinate {coord} has wrong arity for grid shape {self.shape}",
        )
        for c, s in zip(coord, self.shape):
            require(0 <= c < s, GridError, f"coordinate {coord} out of bounds for {self.shape}")
        return int(self._ranks[coord])

    def coords(self) -> Iterator[tuple[int, ...]]:
        """Iterate over all coordinates in C order."""
        return iter(np.ndindex(*self.shape))

    def __contains__(self, rank: int) -> bool:
        return bool(np.any(self._ranks == rank))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, ProcessorGrid) and (
            self.shape == other.shape and bool(np.all(self._ranks == other._ranks))
        )

    def __hash__(self) -> int:
        # grids key the scheduler's sets and memos: hash the bytes once
        if self._hash is None:
            self._hash = hash((self.shape, self._ranks.tobytes()))
        return self._hash

    def __reduce__(self) -> tuple:
        # rebuild from the ranks alone: a bytes hash is salted per process
        # (PYTHONHASHSEED), so a pickled cached hash would be wrong elsewhere
        return (ProcessorGrid, (self._ranks,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessorGrid(shape={self.shape})"

    # -- constructors -------------------------------------------------------

    @staticmethod
    def build(shape: Sequence[int], start: int = 0) -> "ProcessorGrid":
        """Grid over consecutive ranks ``start, start+1, ...`` in C order."""
        shape = tuple(int(s) for s in shape)
        n = math.prod(shape)
        return ProcessorGrid(np.arange(start, start + n, dtype=np.int64).reshape(shape))

    # -- views and subgrids ---------------------------------------------------

    def reshape(self, shape: Sequence[int]) -> "ProcessorGrid":
        """C-order reshape over the same ranks."""
        shape = tuple(int(s) for s in shape)
        require(
            math.prod(shape) == self.size,
            GridError,
            f"cannot reshape grid of size {self.size} to {shape}",
        )
        return ProcessorGrid(self._ranks.reshape(shape))

    def split_axis(self, axis: int, inner: int) -> "ProcessorGrid":
        """Re-embed ``axis`` (size ``inner * outer``) as two axes.

        The original index decomposes as ``idx = inner_idx + inner * outer_idx``;
        the new shape has ``inner`` at position ``axis`` and ``outer`` at
        position ``axis + 1``.  This is the paper's 2D-to-4D embedding.
        """
        size = self.shape[axis]
        require(
            inner >= 1 and size % inner == 0,
            GridError,
            f"axis of size {size} cannot split with inner factor {inner}",
        )
        outer = size // inner
        new_shape = self.shape[:axis] + (outer, inner) + self.shape[axis + 1 :]
        arr = self._ranks.reshape(new_shape)
        # idx = inner_idx + inner*outer_idx means outer varies slowest, so the
        # C-order reshape above yields (outer, inner); swap to (inner, outer).
        arr = np.swapaxes(arr, axis, axis + 1)
        return ProcessorGrid(arr)

    def subgrid(self, *index: slice | int) -> "ProcessorGrid":
        """Slice the grid; integer indices drop axes like numpy indexing."""
        arr = self._ranks[tuple(index)]
        if arr.ndim == 0:
            arr = arr.reshape(1)
        return ProcessorGrid(arr)

    def fiber(self, axis: int, coord: Sequence[int]) -> list[int]:
        """Ranks along ``axis`` with the other coordinates fixed by ``coord``.

        ``coord`` has one entry per grid axis; the entry at ``axis`` is
        ignored.  Returns machine ranks ordered by the ``axis`` index —
        the paper's ``Pi(x, o, z)``.
        """
        idx: list[object] = [int(c) for c in coord]
        require(len(idx) == self.ndim, GridError, "fiber coord arity mismatch")
        idx[axis] = slice(None)
        return [int(r) for r in self._ranks[tuple(idx)]]

    def plane(self, axis: int, value: int) -> "ProcessorGrid":
        """The (ndim-1)-dimensional grid with ``axis`` fixed at ``value``."""
        idx: list[object] = [slice(None)] * self.ndim
        idx[axis] = int(value)
        return ProcessorGrid(self._ranks[tuple(idx)])

    def halves(self, axis: int) -> tuple["ProcessorGrid", "ProcessorGrid"]:
        """Split the grid into two equal halves along ``axis``.

        Used by the recursive triangular inversion to hand the two
        independent subproblems to disjoint processor sets.
        """
        size = self.shape[axis]
        require(size % 2 == 0, GridError, f"axis of size {size} cannot halve")
        idx_lo: list[object] = [slice(None)] * self.ndim
        idx_hi: list[object] = [slice(None)] * self.ndim
        idx_lo[axis] = slice(0, size // 2)
        idx_hi[axis] = slice(size // 2, size)
        return (
            ProcessorGrid(self._ranks[tuple(idx_lo)]),
            ProcessorGrid(self._ranks[tuple(idx_hi)]),
        )
