"""SubgridAllocator: a power-of-two quadrant pool over one processor grid.

The Diagonal-Inverter already proves the machine model supports concurrent
work on disjoint subgrids (every diagonal block inverts on its own grid);
this module generalizes the idea from "one algorithm's private split" to a
*pool* the Cluster front-end schedules arbitrary requests onto.

The pool is a buddy tree over a root :class:`~repro.machine.topology.
ProcessorGrid` whose blocks are heap indices: the root is ``1``, block
``h`` splits into ``2h`` and ``2h + 1`` (the two
:meth:`ProcessorGrid.halves` along its largest axis), so every block is a
contiguous axis-aligned sub-rectangle of the root, and the blocks ``h``
of level ``l = h.bit_length() - 1`` hold ``root.size >> l`` ranks each.
The state is one set of free blocks per level, the split set and the
leases: preview and allocation scan at most ``log2(p) + 1`` levels for
the smallest free block that fits (lowest index first), and ``clone``
copies sets.  Preview keeps the scan's answer per size in a fit table
(empty in a clone), cleared at the top of ``lease_exact`` and ``release``
before any set is touched.  Allocation splits that block down to the
requested size; release coalesces buddies ``h``, ``h ^ 1`` back up, so a
drained pool always returns to the single free root (the invariant
``tests/test_sched.py`` property-tests).  Each block's grid is built
once, in a table every clone of the pool shares.

Grids handed out are plain :class:`ProcessorGrid` views — reshape them to
whatever topology the algorithm wants (``p1 x p1 x p2`` for It-Inv-TRSM, a
square for MM/RecTriInv); the ranks stay the block's ranks.
"""

from __future__ import annotations

from typing import Callable

from repro.machine.topology import ProcessorGrid
from repro.machine.validate import ParameterError, require
from repro.util.mathutil import is_power_of_two


class SubgridAllocator:
    """Split/coalesce pool of disjoint subgrids of one root grid."""

    def __init__(self, root: ProcessorGrid) -> None:
        require(
            is_power_of_two(root.size),
            ParameterError,
            f"the pool needs a power-of-two root, got {root.size} ranks",
        )
        #: heap index -> block grid and back, filled on first use and
        #: shared by every clone of this pool
        self._grids: dict[int, ProcessorGrid] = {1: root}
        self._index: dict[ProcessorGrid, int] = {root: 1}
        self._depth = root.size.bit_length() - 1
        #: free blocks per level, split blocks, leased blocks
        self._free: list[set[int]] = [{1}] + [set() for _ in range(self._depth)]
        self._split: set[int] = set()
        self._leases: dict[ProcessorGrid, int] = {}
        #: size -> preview answer for the current state (the fit table)
        self._fits: dict[int, ProcessorGrid | None] = {}
        #: optional hook called with every block *destroyed* by the pool —
        #: a free block split down to serve a smaller lease, or a buddy
        #: pair coalesced back into its parent on release.  The operand
        #: cache subscribes here: a staged copy lives exactly as long as
        #: the block it was staged onto, so destroying the block evicts it
        #: (see repro.api.opcache).
        self.on_destroy: Callable[[ProcessorGrid], None] | None = None

    # -- queries ------------------------------------------------------------

    @property
    def root_grid(self) -> ProcessorGrid:
        return self._grids[1]

    @property
    def capacity(self) -> int:
        """Total ranks in the pool."""
        return self._grids[1].size

    def in_use(self) -> int:
        """Ranks currently leased."""
        return sum(g.size for g in self._leases)

    def drained(self) -> bool:
        """True iff nothing is leased and the pool has coalesced to the root."""
        return 1 in self._free[0]

    def can_allocate(self, size: int) -> bool:
        return self.preview(size) is not None

    # -- allocate / release -------------------------------------------------

    def preview(self, size: int) -> ProcessorGrid | None:
        """The grid :meth:`allocate` would return for ``size`` — no mutation.

        The scheduler uses this to price a request's operand migration onto
        the *concrete* candidate subgrid before committing.  Returns ``None``
        when no free block can currently serve the size; ``size`` must be
        one :meth:`allocate` accepts.
        """
        fits = self._fits
        if size not in fits:
            fits[size] = self._fit(size)
        return fits[size]

    def allocate(self, size: int) -> ProcessorGrid | None:
        """Lease a subgrid of exactly ``size`` ranks (``None`` if full).

        ``size`` must be a power of two not exceeding the capacity.  The
        smallest free block that fits is split down (first half each time,
        so the result matches :meth:`preview`) and marked allocated.
        """
        grid = self._fit(size)
        return None if grid is None else self.lease_exact(grid)

    def lease_exact(self, grid: ProcessorGrid) -> ProcessorGrid:
        """Lease a *specific* block, splitting its free ancestor down.

        The buddy tree is canonical in its lease set — splits exist only
        on the paths to leased blocks, everything else is coalesced — so
        re-leasing another pool's exact grids reconstructs that pool's
        state.  The window search is built on this: it releases blocks
        of a :meth:`clone` as its wait branches pass their finishes and
        re-leases them with this method on the way back, and the real
        pool's destroy hook never fires.  Raises when ``grid`` is not a
        block this pool or a clone of it has handed out, or overlaps an
        existing lease.
        """
        self._fits.clear()
        h = self._index.get(grid, 0)  # 0, not a block, is in no set
        level = h.bit_length() - 1
        for k in range(level, 0, -1):
            a = h >> k
            if a in self._split:
                continue
            if a not in self._free[level - k]:
                break  # a leased ancestor
            self._destroyed(a)
            self._free[level - k].remove(a)
            self._split.add(a)
            self._free[level - k + 1].update((2 * a, 2 * a + 1))
        if h not in self._free[level]:
            raise ParameterError(f"{grid!r} is not a free block of this pool")
        self._free[level].remove(h)
        self._leases[self._grids[h]] = h
        return self._grids[h]

    def clone(self) -> "SubgridAllocator":
        """A detached copy: same root, same leases, no destroy hook.

        Copies the free, split and lease sets; the block table is shared.
        The scheduler's policies simulate against clones (reservation
        lookahead, running-work-aware branch-and-bound), so what-if
        releases never emit destroy events on the real pool.
        """
        pool = self.drained_clone()
        pool._free = [set(level) for level in self._free]
        pool._split = set(self._split)
        pool._leases = dict(self._leases)
        return pool

    def drained_clone(self) -> "SubgridAllocator":
        """A detached *empty* pool over the same root grid.

        A drained pool serves every block size at its canonical (first
        half each split) position, which is what the branch-and-bound
        lower bounds price against even while the live pool is busy —
        our cyclic layouts route the same word counts to every congruent
        block, so the canonical price stands in for any block of that
        size.
        """
        pool = SubgridAllocator(self.root_grid)
        pool._grids, pool._index = self._grids, self._index
        return pool

    def release(self, grid: ProcessorGrid) -> None:
        """Return a leased subgrid; buddy pairs coalesce back toward the root."""
        self._fits.clear()
        h = self._leases.pop(grid, 0)
        if not h:
            raise ParameterError(f"{grid!r} is not leased from this pool")
        level = h.bit_length() - 1
        while h > 1 and (h ^ 1) in self._free[level]:
            self._free[level].remove(h ^ 1)
            h >>= 1
            level -= 1
            self._split.remove(h)
            self._destroyed(h)
        self._free[level].add(h)

    # -- internals ----------------------------------------------------------

    def _destroyed(self, h: int) -> None:
        """Notify the subscriber that block ``h`` stopped existing as a unit.

        A coalesce reports the merged parent (it covers both destroyed
        children); a split reports the block being split.  Subscribers
        evict by rank intersection, so reporting the covering block is
        sufficient in both directions.
        """
        if self.on_destroy is not None:
            self.on_destroy(self._grid(h))

    def _fit(self, size: int) -> ProcessorGrid | None:
        """The first ``size``-rank block of the smallest free block that
        fits (lowest index per level: first in depth-first order)."""
        level = self._depth + 1 - size.bit_length() if is_power_of_two(size) else -1
        if level < 0:
            raise ParameterError(
                f"size must be a power of two in [1, {self.capacity}], got {size}"
            )
        for free in self._free[level::-1]:
            if free:
                h = min(free)
                return self._grid(h << (level - h.bit_length() + 1))
        return None

    def _grid(self, h: int) -> ProcessorGrid:
        """Block ``h``'s grid, built (with its buddy) on first use."""
        grid = self._grids.get(h)
        if grid is None:
            parent = self._grid(h >> 1)
            axis = max(range(parent.ndim), key=lambda a: parent.shape[a])
            for child, half in zip((h & ~1, h | 1), parent.halves(axis)):
                self._grids[child] = half
                self._index[half] = child
            grid = self._grids[h]
        return grid

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SubgridAllocator(capacity={self.capacity}, "
            f"in_use={self.in_use()}, leases={len(self._leases)})"
        )
