"""Data layouts: how a global matrix maps onto a 2D processor grid.

This module is the one place that knows which index lives on which grid
coordinate.  The paper states every distribution *per axis* (Section II-B),
and so does the code:

* an :class:`AxisMap` is a 1-D rule dealing the indices of one matrix axis
  to the ``p`` coordinates of one grid axis — cyclic over physical blocks
  of ``block`` indices (``block = 1`` is the paper's element-cyclic
  ``L[x, y](i, j) = L(i*pr + x, j*pc + y)``), or ``blocked`` (``p``
  balanced contiguous runs, raggedness front-loaded);
* a :class:`Layout` is a pair of axis maps, ``(rows, cols)``.  It owns no
  data and no ranks; for a ``pr x pc`` grid it answers "which global
  rows/columns does grid coordinate ``(x, y)`` hold?".

Both are immutable named tuples: equality and hash *are* the fields (and
run at C speed — the layout sits under the routing-plan LRU key, looked
up ~10^5 times per packing pass), so two spellings of one distribution
are one layout (``BlockCyclicLayout(pr, pc, 1, 1) == CyclicLayout(pr,
pc)``) and every cache in the tree (the index maps here, the routing-plan
LRU, the operand cache) keys on the layout itself.  The named layouts are
constructors: :func:`CyclicLayout`, :func:`BlockedLayout`,
:func:`BlockCyclicLayout` and :func:`RowCyclicColBlockedLayout` (Section
VI-B's layout for ``B``).
The set of distributions is closed: a new one is a new axis-map kind
here, not a subclass elsewhere (a subclass would compare and hash equal
to its base and so share its cache entries).

Index maps are **memoized** per ``(axis map, size)`` in a module-level
cache, so the two axes of a layout and different layouts sharing an axis
rule share entries.  Each entry holds three read-only arrays:

* the per-coordinate ascending index arrays (what
  :meth:`Layout.row_indices` returns, and what :mod:`repro.dist.routing`
  cuts frame windows and block shapes from) — together they partition
  the global index space exactly, which the builder checks;
* the *owner* vector ``owners[g] = coordinate that owns global index g``;
* the *position* vector ``pos[g] = offset of g within its owner's list``.

The owner/position maps are what :mod:`repro.dist.routing` intersects to
derive exact per-(sender, receiver) message plans, and the cache is why the
recursion hot loops (which re-derive the same maps at every level) stop
rebuilding O(p*m) index arrays per call once the maps are warm —
``tests/test_routing.py`` guards that repeats add no cache entries.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.machine.validate import ShapeError, require
from repro.util.mathutil import split_indices

_AxisMaps = tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]

#: (axis map, size) -> (per-coord index arrays, owners, positions).
_AXIS_CACHE: dict[tuple["AxisMap", int], _AxisMaps] = {}

#: (layout, m, n) -> largest per-rank block size in words.
_WORDS_CACHE: dict[tuple["Layout", int, int], int] = {}

#: Entry bound per cache: long sweeps over many distinct (layout, size)
#: pairs evict oldest-first instead of growing without limit.  Far above
#: any single solve's working set, so hot-loop reuse is unaffected.
_CACHE_MAX_ENTRIES = 4096


def _cache_put(cache: dict, key: tuple, value: object) -> None:
    """Insert with FIFO eviction once the cache reaches its entry bound."""
    while len(cache) >= _CACHE_MAX_ENTRIES:
        cache.pop(next(iter(cache)))
    cache[key] = value


def axis_cache_size() -> int:
    """Number of memoized (axis map, size) index maps.

    Exposed so tests can assert that repeated transitions over the same
    layouts reuse the cached maps instead of growing the cache.
    """
    return len(_AXIS_CACHE)


def clear_layout_caches() -> None:
    """Drop all memoized index maps (the cache-growth regression test in
    ``tests/test_routing.py`` starts from this for a deterministic count)."""
    _AXIS_CACHE.clear()
    _WORDS_CACHE.clear()


class AxisMap(NamedTuple("AxisMap", [("p", int), ("block", int), ("blocked", bool)])):
    """One axis of a layout: ``p`` grid coordinates sharing an index range.

    Cyclic over physical blocks by default — index ``i`` belongs to
    coordinate ``(i // block) mod p`` — or, with ``blocked``, ``p``
    contiguous runs whose lengths differ by at most one (the first
    ``size mod p`` runs get the extra index).
    """

    __slots__ = ()

    def __new__(cls, p: int, block: int = 1, blocked: bool = False) -> "AxisMap":
        require(
            p >= 1 and block >= 1 and not (blocked and block != 1),
            ShapeError,
            f"an axis map needs p >= 1 coordinates and a physical block >= 1 "
            f"(1 when blocked), got p={p}, block={block}",
        )
        return super().__new__(cls, int(p), int(block), bool(blocked))

    @property
    def stride(self) -> int | None:
        """Gap between a coordinate's consecutive indices (``None``: runs of ``block > 1``)."""
        return 1 if self.blocked or self.p == 1 else (self.p if self.block == 1 else None)

    def _owned(self, c: int, size: int) -> np.ndarray:
        """Ascending indices of ``range(size)`` dealt to coordinate ``c``."""
        if self.blocked:
            return np.arange(*split_indices(size, self.p)[c])
        i = np.arange(size)
        return i[(i // self.block) % self.p == c]

    def maps(self, size: int) -> _AxisMaps:
        """Memoized ``(index arrays, owners, positions)`` over ``size`` indices."""
        key = (self, int(size))
        hit = _AXIS_CACHE.get(key)
        if hit is not None:
            return hit
        size = int(size)
        index = tuple(
            np.ascontiguousarray(self._owned(c, size), dtype=np.int64) for c in range(self.p)
        )
        owners = np.full(size, -1, dtype=np.int64)
        pos = np.zeros(size, dtype=np.int64)
        for c, idx in enumerate(index):
            owners[idx] = c
            pos[idx] = np.arange(len(idx), dtype=np.int64)
        require(
            sum(len(a) for a in index) == size and (size == 0 or int(owners.min()) >= 0),
            ShapeError,
            f"{self!r} does not partition an axis of size {size}",
        )
        for arr in (*index, owners, pos):
            arr.setflags(write=False)
        hit = (index, owners, pos)
        _cache_put(_AXIS_CACHE, key, hit)
        return hit

    def indices(self, c: int, size: int) -> np.ndarray:
        """Ascending global indices owned by coordinate ``c`` (of ``size``).

        The returned array is cached and read-only; copy before mutating.
        """
        require(
            0 <= int(c) < self.p,
            ShapeError,
            f"grid coordinate {c} out of range for an axis of {self.p}",
        )
        return self.maps(size)[0][int(c)]


class Layout(NamedTuple):
    """A 2D index map over a ``pr x pc`` grid: one :class:`AxisMap` per axis.

    Everything (index maps, owner maps, window queries, local shapes)
    derives from the two axis maps.  Layouts are cheap immutable values,
    shared freely between :class:`~repro.dist.distmatrix.DistMatrix`
    instances and used directly as cache keys.
    """

    rows: AxisMap
    cols: AxisMap

    @property
    def pr(self) -> int:
        """Grid rows this layout deals matrix rows to."""
        return self.rows.p

    @property
    def pc(self) -> int:
        """Grid columns this layout deals matrix columns to."""
        return self.cols.p

    # -- index maps ---------------------------------------------------------

    def row_indices(self, x: int, m: int) -> np.ndarray:
        """Ascending global row indices owned by grid row ``x`` (of ``m``).

        The returned array is cached and read-only; copy before mutating.
        """
        return self.rows.indices(x, m)

    def col_indices(self, y: int, n: int) -> np.ndarray:
        """Ascending global column indices owned by grid column ``y``.

        The returned array is cached and read-only; copy before mutating.
        """
        return self.cols.indices(y, n)

    def row_owner_map(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """``(owners, positions)`` over all ``m`` global rows (cached).

        ``owners[g]`` is the grid row owning global row ``g`` and
        ``positions[g]`` its offset inside that coordinate's local block —
        the two vectors exact routing intersects.
        """
        return self.rows.maps(m)[1:]

    def col_owner_map(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Column counterpart of :meth:`row_owner_map` (cached)."""
        return self.cols.maps(n)[1:]

    def local_rows_in(self, x: int, m: int, lo: int, hi: int) -> slice:
        """The interval of grid row ``x``'s *local* rows whose global row
        is in the half-open window ``[lo, hi)`` — the block-row selector
        It-Inv-TRSM reads its owned blocks with.

        The cached index arrays ascend, so the window is a slice (indexing
        a block with it is a view): two binary searches bound it, no O(m)
        scan."""
        i0, i1 = np.searchsorted(self.row_indices(x, m), (lo, hi))
        return slice(int(i0), int(i1))

    def local_shape(self, coord: tuple[int, int], shape: tuple[int, int]) -> tuple[int, int]:
        """Shape of the local block at ``coord`` for a global ``shape``."""
        x, y = coord
        m, n = shape
        return (len(self.row_indices(x, m)), len(self.col_indices(y, n)))

    def transposed(self) -> "Layout":
        """The layout of the transposed matrix on the transposed grid: the
        axis swap, so its owner maps pair with this one's by construction."""
        return Layout(self.cols, self.rows)


def CyclicLayout(pr: int, pc: int) -> Layout:
    """Element-cyclic, the paper's default: ``(x, y)`` owns
    ``L(i*pr + x, j*pc + y)`` — rows congruent to ``x`` mod ``pr``,
    columns congruent to ``y`` mod ``pc``."""
    return Layout(AxisMap(pr), AxisMap(pc))


def BlockedLayout(pr: int, pc: int) -> Layout:
    """``pr x pc`` contiguous tiles, raggedness front-loaded (the first
    ``m mod pr`` row tiles get one extra row)."""
    return Layout(AxisMap(pr, blocked=True), AxisMap(pc, blocked=True))


def BlockCyclicLayout(pr: int, pc: int, br: int = 1, bc: int = 1) -> Layout:
    """Cyclic over physical ``br x bc`` blocks: ``(x, y)`` owns row ``i``
    iff ``(i // br) mod pr == x`` (columns analogously with ``bc``/``pc``).

    ``br = bc = 1`` *is* :func:`CyclicLayout` (equal by value);
    ``br >= ceil(m/pr)`` gives each grid row one contiguous run of rows
    (ceil-chunked blocked).
    """
    return Layout(AxisMap(pr, br), AxisMap(pc, bc))


def RowCyclicColBlockedLayout(pr: int, pc: int, b: int = 1) -> Layout:
    """Rows block-cyclic over ``pr`` with physical block size ``b``,
    columns in ``pc`` contiguous slabs.

    The paper's layout for ``B`` on the ``(x, z)`` plane — Section VI-B's
    Require clause, "a blocked layout with a physical block size of
    ``b x k/p2``".  ``b = 1`` (the default everywhere) is element-cyclic.
    """
    return Layout(AxisMap(pr, b), AxisMap(pc, blocked=True))


def expected_local_words(layout: Layout, shape: tuple[int, int]) -> int:
    """Largest per-rank block size (words) for ``shape`` under ``layout``.

    This is the ``n_per_rank`` of the all-to-all *bound* (the envelope the
    exact routing plans are property-tested against) and the per-rank
    storage a :class:`DistMatrix` registers.  Memoized per (layout, shape).
    """
    m, n = int(shape[0]), int(shape[1])
    key = (layout, m, n)
    words = _WORDS_CACHE.get(key)
    if words is None:
        words = max(map(len, layout.rows.maps(m)[0])) * max(map(len, layout.cols.maps(n)[0]))
        _cache_put(_WORDS_CACHE, key, words)
    return words
