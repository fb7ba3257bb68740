"""OperandCache: cross-request reuse of staged operand copies.

The serve-style workload — many solves against one hosted factor — used to
re-pay the full :mod:`repro.dist.routing` migration of the factor onto a
subgrid for *every* placement, even when the previous tenant of the same
subgrid had staged an identical copy moments before.  This module is the
owner-computes reuse trick: staged copies stay resident on their subgrid
and are handed back for free while they remain valid.

A cache entry is a :class:`~repro.dist.distmatrix.StagedCopy` keyed by

    ``(source uid, source generation, target grid, layout)``

so the three staleness axes are structural:

* **mutation / re-hosting** — mutating a source bumps its ``generation``
  and re-hosting mints a new ``uid``; either way the key no longer
  matches and the stale copy is unreachable (and dropped via
  :meth:`OperandCache.invalidate` on operand release);
* **tenancy loss** — a copy lives exactly as long as the allocator block
  it was staged onto.  The :class:`~repro.sched.SubgridAllocator` reports
  every destroyed block (buddy coalesce on release, split of a free block
  to serve a smaller lease) and :meth:`OperandCache.evict_grid` drops
  every entry whose ranks intersect it;
* **copy corruption** — an entry whose staged matrix was itself mutated
  (``StagedCopy.pristine()`` fails) is dropped on lookup rather than
  served.

Lookups hand out a *private deep copy* of the cached matrix (a purely
local, zero-communication operation), so a tenant scribbling on its
operand can never poison the cache or a later tenant.

:class:`CachePlan` is the scheduler's forward simulation of the same
keyed state: pricing a candidate placement asks the plan, committing one
adds the would-be-staged keys, and allocator destroy events evict — so
the modeled staging charges and the measured ones agree decision for
decision (``tests/test_opcache.py`` proves exact parity).
"""

from __future__ import annotations

from typing import Iterable

from repro.dist.distmatrix import DistMatrix, StagedCopy
from repro.dist.layout import Layout
from repro.machine.cost import Cost

#: (source uid, source generation, target grid, layout)
CacheKey = tuple


def cache_key(source: DistMatrix, grid, layout: Layout) -> CacheKey:
    """The identity a staged copy is filed under."""
    return (source.uid, source.generation, grid, layout)


class OperandCache:
    """Live staged copies of cluster-hosted operands, keyed by placement."""

    __slots__ = ("_entries", "_ranks", "hits", "misses")

    def __init__(self):
        self._entries: dict[CacheKey, StagedCopy] = {}
        self._ranks: dict[CacheKey, frozenset[int]] = {}
        #: lifetime counters (lookups served / stagings stored)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- the request path ---------------------------------------------------

    def lookup(self, source: DistMatrix, grid, layout: Layout) -> DistMatrix | None:
        """A private working copy of a valid cached staging, else ``None``.

        Counts a hit or a miss; a present-but-corrupted entry (the staged
        master was mutated in place) is dropped and counts as a miss.
        """
        key = cache_key(source, grid, layout)
        entry = self._entries.get(key)
        if entry is not None and entry.valid_for(source) and entry.pristine():
            self.hits += 1
            return entry.matrix.copy()
        if entry is not None:
            self._drop(key)
        self.misses += 1
        return None

    def store(self, source: DistMatrix, grid, layout: Layout, staged: DistMatrix) -> None:
        """File ``staged`` (just produced by ``stage_matrix``) for reuse.

        The cache keeps its own deep copy as the master, so the caller may
        hand ``staged`` straight to an algorithm that mutates it.  Entries
        for *superseded generations* of the same (operand, placement) are
        purged — unreachable by any lookup once the source moved on, they
        would otherwise pin a dead master per mutation.
        """
        key = cache_key(source, grid, layout)
        for k in [
            k
            for k in self._entries
            if k[0] == key[0] and k[2:] == key[2:] and k[1] != key[1]
        ]:
            self._drop(k)
        self._entries[key] = StagedCopy.of(source, staged.copy())
        self._ranks[key] = frozenset(grid.ranks())

    # -- invalidation / eviction --------------------------------------------

    def invalidate(self, source: DistMatrix) -> int:
        """Drop every copy of ``source`` (operand released or mutated).

        Returns the number of entries dropped.
        """
        dead = [k for k in self._entries if k[0] == source.uid]
        for k in dead:
            self._drop(k)
        return len(dead)

    def evict_grid(self, grid) -> int:
        """Drop every entry whose ranks intersect a destroyed block.

        Wired to :attr:`repro.sched.SubgridAllocator.on_destroy`: once the
        block a copy was staged onto is coalesced away or re-split, the
        tenancy that owned the copy is over.  Returns the entries dropped.
        """
        ranks = frozenset(grid.ranks())
        dead = [k for k, r in self._ranks.items() if r & ranks]
        for k in dead:
            self._drop(k)
        return len(dead)

    def _drop(self, key: CacheKey) -> None:
        self._entries.pop(key, None)
        self._ranks.pop(key, None)

    # -- planning -----------------------------------------------------------

    def plan(self) -> "CachePlan":
        """A scheduler-side simulation seeded with the current live keys."""
        return CachePlan(dict(self._ranks))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OperandCache(entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class CachePlan:
    """The scheduler's what-if view of the cache during one packing pass.

    Holds keys and rank sets only (no matrices): enough to answer "would
    this staging hit?" while the scheduler commits placements and replays
    allocator destroy events forward in modeled time.  The committed
    decisions are recorded on each assignment, and the real cache follows
    the same evictions during execution, so model and measurement agree.
    """

    __slots__ = ("_ranks",)

    def __init__(self, ranks: dict[CacheKey, frozenset[int]]):
        self._ranks = dict(ranks)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._ranks

    def price(
        self, raw_targets: Iterable[tuple[CacheKey, object, Cost]]
    ) -> tuple[Cost, Cost, tuple]:
        """Cache-aware staging price of one placement: ``(charged, saved,
        targets)``.

        ``raw_targets`` are the placement's ``(cache key, target grid,
        migration cost)`` triples in staging order.  A target prices at
        zero when a valid staged copy is (or, earlier in this same
        placement, will be) resident, and at its full migration cost
        otherwise; ``targets`` appends the ``hit`` decision to each triple
        so the scheduler can commit it.
        """
        charged, saved = Cost.zero(), Cost.zero()
        targets = []
        staged_here: set = set()
        for key, target_grid, cost in raw_targets:
            hit = key in self._ranks or key in staged_here
            if hit:
                saved = saved + cost
            else:
                charged = charged + cost
                staged_here.add(key)
            targets.append((key, target_grid, cost, hit))
        return charged, saved, tuple(targets)

    def add(self, key: CacheKey, grid) -> None:
        """Record that a committed placement will stage this key."""
        self._ranks[key] = frozenset(grid.ranks())

    def evict_grid(self, grid) -> None:
        """Mirror of :meth:`OperandCache.evict_grid` on the planned state."""
        ranks = frozenset(grid.ranks())
        for k in [k for k, r in self._ranks.items() if r & ranks]:
            del self._ranks[k]
