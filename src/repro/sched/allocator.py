"""SubgridAllocator: a power-of-two quadrant pool over one processor grid.

The Diagonal-Inverter already proves the machine model supports concurrent
work on disjoint subgrids (every diagonal block inverts on its own grid);
this module generalizes the idea from "one algorithm's private split" to a
*pool* the Cluster front-end schedules arbitrary requests onto.

The pool is a buddy tree over a root :class:`~repro.machine.topology.
ProcessorGrid`.  A node splits into its two :meth:`ProcessorGrid.halves`
along the currently largest axis, so repeated splits of a square root grid
walk through halves and quadrants — every block is a contiguous
axis-aligned sub-rectangle of the root, and every block size is
``root.size / 2^j``.  Allocation finds the *smallest* free block that fits
and splits it down to the exact requested size; release coalesces buddy
pairs back up, so a drained pool always returns to the single free root
(the invariant ``tests/test_sched.py`` property-tests).

Grids handed out are plain :class:`ProcessorGrid` views — reshape them to
whatever topology the algorithm wants (``p1 x p1 x p2`` for It-Inv-TRSM, a
square for MM/RecTriInv); the ranks stay the block's ranks.
"""

from __future__ import annotations

from typing import Callable

from repro.machine.topology import ProcessorGrid
from repro.machine.validate import GridError, ParameterError, require
from repro.util.mathutil import is_power_of_two


class _Node:
    """One block of the buddy tree."""

    __slots__ = ("grid", "parent", "children", "allocated")

    def __init__(self, grid: ProcessorGrid, parent: "_Node | None" = None) -> None:
        self.grid = grid
        self.parent = parent
        self.children: tuple[_Node, _Node] | None = None
        self.allocated = False

    @property
    def free(self) -> bool:
        return not self.allocated and self.children is None

    def split(self) -> tuple["_Node", "_Node"]:
        """Halve along the largest axis (ties break toward the first axis)."""
        axis = max(range(self.grid.ndim), key=lambda a: self.grid.shape[a])
        require(
            self.grid.shape[axis] % 2 == 0,
            GridError,
            f"block of shape {self.grid.shape} cannot split further",
        )
        lo, hi = self.grid.halves(axis)
        self.children = (_Node(lo, self), _Node(hi, self))
        return self.children


class SubgridAllocator:
    """Split/coalesce pool of disjoint subgrids of one root grid."""

    def __init__(self, root: ProcessorGrid) -> None:
        require(
            is_power_of_two(root.size),
            ParameterError,
            f"the pool needs a power-of-two root, got {root.size} ranks",
        )
        self._root = _Node(root)
        self._leases: dict[ProcessorGrid, _Node] = {}
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
        return self._root.grid

    @property
    def capacity(self) -> int:
        """Total ranks in the pool."""
        return self._root.grid.size

    def in_use(self) -> int:
        """Ranks currently leased."""
        return sum(g.size for g in self._leases)

    def drained(self) -> bool:
        """True iff nothing is leased and the pool has coalesced to the root."""
        return self._root.free

    def can_allocate(self, size: int) -> bool:
        return self.preview(size) is not None

    # -- allocate / release -------------------------------------------------

    def preview(self, size: int) -> ProcessorGrid | None:
        """The grid :meth:`allocate` would return for ``size`` — no mutation.

        The scheduler uses this to price a request's operand migration onto
        the *concrete* candidate subgrid before committing.  Returns ``None``
        when no free block can currently serve the size.
        """
        node = self._fit(size)
        if node is None:
            return None
        grid = node.grid
        while grid.size > size:
            axis = max(range(grid.ndim), key=lambda a: grid.shape[a])
            grid = grid.halves(axis)[0]
        return grid

    def allocate(self, size: int) -> ProcessorGrid | None:
        """Lease a subgrid of exactly ``size`` ranks (``None`` if full).

        ``size`` must be a power of two not exceeding the capacity.  The
        smallest free block that fits is split down (first half each time,
        so the result matches :meth:`preview`) and marked allocated.
        """
        require(
            is_power_of_two(size) and 1 <= size <= self.capacity,
            ParameterError,
            f"size must be a power of two in [1, {self.capacity}], got {size}",
        )
        node = self._fit(size)
        if node is None:
            return None
        while node.grid.size > size:
            self._destroyed(node.grid)
            node = node.split()[0]
        node.allocated = True
        self._leases[node.grid] = node
        return node.grid

    def lease_exact(self, grid: ProcessorGrid) -> ProcessorGrid:
        """Lease a *specific* block, splitting down along its path.

        The buddy tree is canonical in its lease set — splits exist only
        on the paths to leased blocks, everything else is coalesced — so
        re-leasing another pool's exact grids reconstructs that pool's
        state.  The hole-preview machinery is built on this: policies
        :meth:`clone` the pool, release and re-lease freely to answer
        "when would this fit?", and the real pool's destroy hook never
        fires.  Raises when ``grid`` is not a reachable block of this
        pool or overlaps an existing lease.
        """
        target = set(grid.ranks())
        node = self._root
        while set(node.grid.ranks()) != target:
            require(
                not node.allocated and target < set(node.grid.ranks()),
                ParameterError,
                f"{grid!r} is not a free block of this pool",
            )
            children = node.children
            if children is None:
                self._destroyed(node.grid)
                children = node.split()
            lo, hi = children
            node = lo if target <= set(lo.grid.ranks()) else hi
        require(
            node.free,
            ParameterError,
            f"{grid!r} is not a free block of this pool",
        )
        node.allocated = True
        self._leases[node.grid] = node
        return node.grid

    def clone(self) -> "SubgridAllocator":
        """A detached copy: same root, same leases, no destroy hook.

        The scheduler's policies simulate against clones (reservation
        lookahead, running-work-aware branch-and-bound), so what-if
        releases never emit destroy events on the real pool.
        """
        pool = SubgridAllocator(self._root.grid)
        for grid in self._leases:
            pool.lease_exact(grid)
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
        return SubgridAllocator(self._root.grid)

    def release(self, grid: ProcessorGrid) -> None:
        """Return a leased subgrid; buddy pairs coalesce back toward the root."""
        node = self._leases.pop(grid, None)
        require(node is not None, ParameterError, f"{grid!r} is not leased from this pool")
        node.allocated = False
        parent = node.parent
        while (
            parent is not None
            and parent.children is not None
            and all(c.free for c in parent.children)
        ):
            parent.children = None
            self._destroyed(parent.grid)
            parent = parent.parent

    # -- internals ----------------------------------------------------------

    def _destroyed(self, grid: ProcessorGrid) -> None:
        """Notify the subscriber that a block stopped existing as a unit.

        A coalesce reports the merged parent (it covers both destroyed
        children); a split reports the block being split.  Subscribers
        evict by rank intersection, so reporting the covering block is
        sufficient in both directions.
        """
        if self.on_destroy is not None:
            self.on_destroy(grid)

    def _fit(self, size: int) -> _Node | None:
        """Smallest free block with ``size`` ranks or more (DFS, first wins)."""
        best: _Node | None = None

        def visit(node: _Node) -> None:
            nonlocal best
            if node.allocated:
                return
            if node.children is not None:
                for c in node.children:
                    visit(c)
                return
            if node.grid.size >= size and (best is None or node.grid.size < best.grid.size):
                best = node

        visit(self._root)
        return best

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SubgridAllocator(capacity={self.capacity}, "
            f"in_use={self.in_use()}, leases={len(self._leases)})"
        )
