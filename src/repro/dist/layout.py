"""Data layouts: how a global matrix maps onto a 2D processor grid.

A :class:`Layout` is a pure index map — it owns no data and no ranks.  For a
``pr x pc`` grid it answers "which global rows/columns does grid coordinate
``(x, y)`` hold?".  The paper's Section II-B layouts are all here:

* :class:`CyclicLayout` — the paper's default.  Processor ``(x, y)`` owns
  ``L[x, y](i, j) = L(i*pr + x, j*pc + y)``: rows congruent to ``x`` mod
  ``pr`` and columns congruent to ``y`` mod ``pc``;
* :class:`BlockedLayout` — ``pr x pc`` contiguous tiles, raggedness
  front-loaded (the first ``m mod pr`` row tiles get one extra row);
* :class:`BlockCyclicLayout` — cyclic over *physical blocks* of ``br x bc``
  elements; ``br = bc = 1`` degenerates to the cyclic layout, and
  ``br = ceil(m/pr)`` makes each processor's rows one contiguous run.

Layouts are cheap immutable value objects (equality by parameters), shared
freely between :class:`~repro.dist.distmatrix.DistMatrix` instances.  Index
arrays are always ascending, and the per-coordinate index sets partition the
global index space exactly — the property test in ``tests/test_layout.py``
enforces this for every layout class.

Index maps are **memoized** per ``(layout, axis, size)`` in a module-level
cache (layouts hash by their parameters, so equal spellings share entries).
Each cache entry holds three read-only arrays per axis:

* the per-coordinate ascending index arrays (what :meth:`Layout.row_indices`
  returns),
* the *owner* vector ``owners[g] = coordinate that owns global index g``, and
* the *position* vector ``pos[g] = offset of g within its owner's list``.

The owner/position maps are what :mod:`repro.dist.routing` intersects to
derive exact per-(sender, receiver) message plans, and the cache is why the
recursion hot loops (which re-derive the same maps at every level) stop
rebuilding O(p*m) index arrays per call once the maps are warm —
``tests/test_routing.py`` guards that repeats add no cache entries.
Cache keys fingerprint the layout's full attribute dict (not just
``_key()``), so a subclass that adds parameters without overriding
``_key()`` can never be served another instance's maps.
"""

from __future__ import annotations

import numpy as np

from repro.machine.validate import ShapeError, require
from repro.util.mathutil import split_indices

#: (layout fingerprint, axis, size) -> (per-coord index arrays, owners, positions).
_AXIS_CACHE: dict[tuple, tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]] = {}

#: (layout fingerprint, shape) -> largest per-rank block size in words.
_WORDS_CACHE: dict[tuple, int] = {}

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
    """Number of memoized (layout, axis, size) index maps.

    Exposed so tests can assert that repeated transitions over the same
    layouts reuse the cached maps instead of growing the cache.
    """
    return len(_AXIS_CACHE)


def clear_layout_caches() -> None:
    """Drop all memoized index maps (the cache-growth regression test in
    ``tests/test_routing.py`` starts from this for a deterministic count)."""
    _AXIS_CACHE.clear()
    _WORDS_CACHE.clear()


class Layout:
    """Base class: a 2D index map over a ``pr x pc`` grid.

    Subclasses implement ``_rows(x, m)`` and ``_cols(y, n)`` returning the
    ascending global indices owned by grid row ``x`` / grid column ``y``.
    Everything else (extraction, placement, window queries, local shapes)
    derives from those two maps, so a new layout is ~10 lines of code.
    """

    def __init__(self, pr: int, pc: int) -> None:
        require(
            int(pr) >= 1 and int(pc) >= 1,
            ShapeError,
            f"layout grid factors must be >= 1, got ({pr}, {pc})",
        )
        self.pr = int(pr)
        self.pc = int(pc)

    # -- the two subclass hooks ---------------------------------------------

    def _rows(self, x: int, m: int) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def _cols(self, y: int, n: int) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- cached index maps --------------------------------------------------

    def _fingerprint(self) -> tuple:
        """Cache identity: the concrete type plus *every* attribute.

        Deliberately stronger than ``_key()``: a subclass that adds
        parameters but forgets to override ``_key()`` only mis-answers
        equality, it must never be served another instance's cached maps.
        Covers ``__slots__``-declared attributes as well as ``__dict__``.
        Memoized per instance (layouts are immutable) — the serve hot
        path fingerprints the same layout objects thousands of times.
        """
        memo = self.__dict__.get("_fingerprint_memo")
        if memo is not None:
            return memo
        state = dict(self.__dict__)
        state.pop("_fingerprint_memo", None)
        for klass in type(self).__mro__:
            for name in getattr(klass, "__slots__", ()):
                if hasattr(self, name):
                    state[name] = getattr(self, name)
        memo = (type(self).__qualname__, tuple(sorted(state.items())))
        self.__dict__["_fingerprint_memo"] = memo
        return memo

    def _axis_maps(
        self, axis: int, size: int
    ) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
        """Memoized ``(index arrays, owners, positions)`` for one axis."""
        key = (self._fingerprint(), axis, int(size))
        hit = _AXIS_CACHE.get(key)
        if hit is not None:
            return hit
        size = int(size)
        build, count = (self._rows, self.pr) if axis == 0 else (self._cols, self.pc)
        index = tuple(
            np.ascontiguousarray(build(c, size), dtype=np.int64) for c in range(count)
        )
        owners = np.full(size, -1, dtype=np.int64)
        pos = np.zeros(size, dtype=np.int64)
        for c, idx in enumerate(index):
            owners[idx] = c
            pos[idx] = np.arange(len(idx), dtype=np.int64)
        require(
            sum(len(a) for a in index) == size
            and (size == 0 or int(owners.min()) >= 0),
            ShapeError,
            f"{self!r} does not partition axis {axis} of size {size}",
        )
        for arr in (*index, owners, pos):
            arr.setflags(write=False)
        hit = (index, owners, pos)
        _cache_put(_AXIS_CACHE, key, hit)
        return hit

    # -- public index maps --------------------------------------------------

    def row_indices(self, x: int, m: int) -> np.ndarray:
        """Ascending global row indices owned by grid row ``x`` (of ``m``).

        The returned array is cached and read-only; copy before mutating.
        """
        require(
            0 <= int(x) < self.pr,
            ShapeError,
            f"grid row {x} out of range for pr={self.pr}",
        )
        return self._axis_maps(0, m)[0][int(x)]

    def col_indices(self, y: int, n: int) -> np.ndarray:
        """Ascending global column indices owned by grid column ``y``.

        The returned array is cached and read-only; copy before mutating.
        """
        require(
            0 <= int(y) < self.pc,
            ShapeError,
            f"grid column {y} out of range for pc={self.pc}",
        )
        return self._axis_maps(1, n)[0][int(y)]

    def row_owner_map(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """``(owners, positions)`` over all ``m`` global rows (cached).

        ``owners[g]`` is the grid row owning global row ``g`` and
        ``positions[g]`` its offset inside that coordinate's local block —
        the two vectors exact routing intersects.
        """
        _, owners, pos = self._axis_maps(0, m)
        return owners, pos

    def col_owner_map(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Column counterpart of :meth:`row_owner_map` (cached)."""
        _, owners, pos = self._axis_maps(1, n)
        return owners, pos

    def local_rows_in(self, x: int, m: int, lo: int, hi: int) -> np.ndarray:
        """Positions *within the local row list* whose global row is in
        the half-open window ``[lo, hi)`` — the block-row selector every
        iteration of It-Inv-TRSM needs.

        The cached index arrays are ascending, so the window is an
        *interval view*: two binary searches bound it, no O(m) scan."""
        rows = self.row_indices(x, m)
        i0, i1 = np.searchsorted(rows, (lo, hi))
        return np.arange(i0, i1)

    # -- data movement helpers ----------------------------------------------

    def local_shape(self, coord: tuple[int, int], shape: tuple[int, int]) -> tuple[int, int]:
        """Shape of the local block at ``coord`` for a global ``shape``."""
        x, y = coord
        m, n = shape
        return (len(self.row_indices(x, m)), len(self.col_indices(y, n)))

    def extract(self, A: np.ndarray, coord: tuple[int, int]) -> np.ndarray:
        """The local block of global matrix ``A`` at grid coordinate ``coord``."""
        x, y = coord
        m, n = A.shape
        return A[np.ix_(self.row_indices(x, m), self.col_indices(y, n))]

    def place(self, out: np.ndarray, coord: tuple[int, int], block: np.ndarray) -> None:
        """Inverse of :meth:`extract`: scatter ``block`` into global ``out``."""
        x, y = coord
        m, n = out.shape
        rows = self.row_indices(x, m)
        cols = self.col_indices(y, n)
        require(
            block.shape == (len(rows), len(cols)),
            ShapeError,
            f"block at {coord} has shape {block.shape}, layout expects "
            f"({len(rows)}, {len(cols)})",
        )
        out[np.ix_(rows, cols)] = block

    def transposed(self) -> "Layout":
        """The layout of the transposed matrix on the transposed grid."""
        raise NotImplementedError(
            f"{type(self).__name__} does not define a transposed layout"
        )

    # -- value semantics ----------------------------------------------------

    def _key(self) -> tuple:
        return (type(self).__name__, self.pr, self.pc)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Layout) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(pr={self.pr}, pc={self.pc})"


class CyclicLayout(Layout):
    """Element-cyclic: ``(x, y)`` owns ``L(i*pr + x, j*pc + y)``."""

    def _rows(self, x: int, m: int) -> np.ndarray:
        return np.arange(x, m, self.pr)

    def _cols(self, y: int, n: int) -> np.ndarray:
        return np.arange(y, n, self.pc)

    def transposed(self) -> "CyclicLayout":
        return CyclicLayout(self.pc, self.pr)


class BlockedLayout(Layout):
    """Contiguous tiles, raggedness front-loaded (first tiles one larger)."""

    def _rows(self, x: int, m: int) -> np.ndarray:
        lo, hi = split_indices(m, self.pr)[x]
        return np.arange(lo, hi)

    def _cols(self, y: int, n: int) -> np.ndarray:
        lo, hi = split_indices(n, self.pc)[y]
        return np.arange(lo, hi)

    def transposed(self) -> "BlockedLayout":
        return BlockedLayout(self.pc, self.pr)


class BlockCyclicLayout(Layout):
    """Cyclic over physical ``br x bc`` blocks: ``(x, y)`` owns row ``i``
    iff ``(i // br) mod pr == x`` (columns analogously with ``bc``/``pc``).

    ``br = bc = 1`` is exactly :class:`CyclicLayout`; ``br >= ceil(m/pr)``
    gives each grid row one contiguous run of rows (ceil-chunked blocked).
    """

    def __init__(self, pr: int, pc: int, br: int = 1, bc: int = 1) -> None:
        super().__init__(pr, pc)
        require(
            int(br) >= 1 and int(bc) >= 1,
            ShapeError,
            f"physical block sizes must be >= 1, got ({br}, {bc})",
        )
        self.br = int(br)
        self.bc = int(bc)

    def _rows(self, x: int, m: int) -> np.ndarray:
        if self.br == 1:
            return np.arange(x, m, self.pr)
        i = np.arange(m)
        return i[(i // self.br) % self.pr == x]

    def _cols(self, y: int, n: int) -> np.ndarray:
        if self.bc == 1:
            return np.arange(y, n, self.pc)
        j = np.arange(n)
        return j[(j // self.bc) % self.pc == y]

    def transposed(self) -> "BlockCyclicLayout":
        return BlockCyclicLayout(self.pc, self.pr, br=self.bc, bc=self.br)

    def _key(self) -> tuple:
        return (type(self).__name__, self.pr, self.pc, self.br, self.bc)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockCyclicLayout(pr={self.pr}, pc={self.pc}, "
            f"br={self.br}, bc={self.bc})"
        )


def expected_local_words(layout: Layout, shape: tuple[int, int]) -> int:
    """Largest per-rank block size (words) for ``shape`` under ``layout``.

    This is the ``n_per_rank`` of the all-to-all *bound* (the envelope the
    exact routing plans are property-tested against) and the per-rank
    storage a :class:`DistMatrix` registers.  Memoized per (layout, shape).
    """
    m, n = int(shape[0]), int(shape[1])
    key = (layout._fingerprint(), m, n)
    words = _WORDS_CACHE.get(key)
    if words is None:
        row_owners, _ = layout.row_owner_map(m)
        col_owners, _ = layout.col_owner_map(n)
        max_rows = int(np.bincount(row_owners, minlength=layout.pr).max()) if m else 0
        max_cols = int(np.bincount(col_owners, minlength=layout.pc).max()) if n else 0
        words = max_rows * max_cols
        _cache_put(_WORDS_CACHE, key, words)
    return words
