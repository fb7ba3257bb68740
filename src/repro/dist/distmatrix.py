"""DistMatrix: a matrix distributed over a 2D processor grid.

The container every algorithm layer operates on.  A :class:`DistMatrix`
couples four things:

* a :class:`~repro.machine.machine.Machine` (for cost/memory accounting),
* a 2D :class:`~repro.machine.topology.ProcessorGrid` (which ranks),
* a :class:`~repro.dist.layout.Layout` (which indices live where), and
* ``blocks`` — a dict ``machine rank -> local ndarray``, the actual data.

Distribution and assembly (:meth:`from_global` / :meth:`to_global`) are
**free**: the simulation treats the initial data placement as given, exactly
as the paper's Require clauses do ("initially distributed cyclically"), and
``to_global`` is the debugging/verification view, not a collective.  Both
are one frame helper of :mod:`repro.dist.routing` over the whole-matrix end
(``scatter_frame`` into fresh ``zero_blocks``, and ``gather_frame``).  All
*charged* movement between grids and layouts lives in :mod:`repro.dist.redistribute`.

Construction registers each rank's block words with the machine's
:class:`~repro.machine.memory.MemoryTracker`, so per-rank footprints of
replicated operands show up in ``machine.memory.peak_words()``.

Every instance carries a stable *identity*: a ``uid`` unique for the
process lifetime and a ``generation`` counter bumped whenever the matrix
is mutated through the public mutation paths (:meth:`set_local`,
:func:`repro.dist.redistribute.route_embed`).  The pair is what the
Cluster's operand cache (:mod:`repro.api.opcache`) keys staged copies on:
a cached copy is valid only while its source's ``(uid, generation)`` is
unchanged, so a mutated or re-hosted operand can never be served stale.
Algorithms that scribble into ``blocks`` directly own those matrices
privately and never hand them to the cache.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.dist.layout import Layout
from repro.dist.routing import End, block_shapes, gather_frame, scatter_frame, zero_blocks
from repro.machine.validate import GridError, ShapeError, require

if TYPE_CHECKING:
    from repro.machine.machine import Machine
    from repro.machine.topology import ProcessorGrid


class DistMatrix:
    """A dense matrix distributed over a 2D processor grid by a layout."""

    __slots__ = ("machine", "grid", "layout", "shape", "blocks", "uid", "generation")

    _uids = itertools.count()

    def __init__(
        self,
        machine: "Machine",
        grid: "ProcessorGrid",
        layout: Layout,
        shape: tuple[int, int],
        blocks: Mapping[int, np.ndarray],
    ) -> None:
        _require_grid(grid, layout)
        rank_set = set(grid.ranks())
        require(
            set(blocks) == rank_set,
            ShapeError,
            f"blocks must cover exactly the grid's ranks: "
            f"missing {sorted(rank_set - set(blocks))}, "
            f"extra {sorted(set(blocks) - rank_set)}",
        )
        self.machine = machine
        self.grid = grid
        self.layout = layout
        self.shape = (int(shape[0]), int(shape[1]))
        self.blocks: dict[int, np.ndarray] = dict(blocks)
        self._check_blocks()
        for rank, block in self.blocks.items():
            machine.memory.observe(rank, float(block.size))
        #: process-lifetime-unique identity (content/placement provenance)
        self.uid = next(DistMatrix._uids)
        #: mutation counter; cached staged copies of an older generation
        #: are stale (see repro.api.opcache)
        self.generation = 0

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_global(
        cls,
        machine: "Machine",
        grid: "ProcessorGrid",
        layout: Layout,
        A: np.ndarray,
    ) -> "DistMatrix":
        """Distribute a global matrix (zero-cost initial placement)."""
        _require_grid(grid, layout)
        A = np.asarray(A, dtype=np.float64)
        require(
            A.ndim == 2,
            ShapeError,
            f"DistMatrix holds 2D matrices; got an array of ndim {A.ndim} "
            "(reshape vectors to (n, 1) first)",
        )
        blocks = scatter_frame(End(grid, layout, A.shape), A, zero_blocks(grid, layout, A.shape))
        return cls(machine, grid, layout, A.shape, blocks)

    @classmethod
    def zeros(
        cls,
        machine: "Machine",
        grid: "ProcessorGrid",
        layout: Layout,
        shape: tuple[int, int],
    ) -> "DistMatrix":
        """An all-zero distributed matrix of the given global shape."""
        _require_grid(grid, layout)
        return cls(machine, grid, layout, shape, zero_blocks(grid, layout, shape))

    # -- access -------------------------------------------------------------

    def local(self, coord: tuple[int, int]) -> np.ndarray:
        """The local block at grid coordinate ``coord`` (read-only view).

        Mutation goes through :meth:`set_local`, which bumps the
        generation — a writable alias here would let callers mutate
        blocks behind the generation counter's back and be served stale
        copies from the operand cache.
        """
        view = self.blocks[self.grid.rank(coord)].view()
        view.setflags(write=False)
        return view

    def set_local(self, coord: tuple[int, int], block: np.ndarray) -> None:
        """Replace the block at ``coord``; the shape must match the layout.

        The block is copied in: a caller-retained alias could otherwise
        mutate the content behind the generation counter's back (the same
        staleness :meth:`local` is read-only to prevent).
        """
        block = np.array(block, dtype=np.float64)
        expected = self.layout.local_shape(coord, self.shape)
        require(
            block.shape == expected,
            ShapeError,
            f"block at {coord} must have shape {expected}, got {block.shape}",
        )
        self.blocks[self.grid.rank(coord)] = block
        self.mutated()

    def mutated(self) -> None:
        """Bump the generation: any cached staged copy of this matrix is
        now stale.  Called by every public in-place mutation path."""
        self.generation += 1

    def to_global(self) -> np.ndarray:
        """Assemble the global matrix (free; a verification/debug view)."""
        self._check_blocks()
        return gather_frame(End.of(self), self.blocks, self.shape)

    def _check_blocks(self) -> None:
        """Every block has the shape the layout's per-axis counts give it."""
        for coord, rank, expected in block_shapes(self.grid, self.layout, self.shape):
            shape = self.blocks[rank].shape
            if shape != expected:
                raise ShapeError(
                    f"block at {coord} has shape {shape}, layout expects "
                    f"{expected} for global shape {self.shape}"
                )

    def copy(self) -> "DistMatrix":
        """Deep copy: same machine/grid/layout, private block storage."""
        return DistMatrix(
            self.machine,
            self.grid,
            self.layout,
            self.shape,
            {r: b.copy() for r, b in self.blocks.items()},
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistMatrix(shape={self.shape}, grid={self.grid.shape}, "
            f"layout={self.layout!r})"
        )


def _require_grid(grid: "ProcessorGrid", layout: Layout) -> None:
    """A DistMatrix lives on a 2D grid of the layout's shape."""
    require(
        grid.ndim == 2,
        GridError,
        f"DistMatrix requires a 2D grid, got shape {grid.shape}",
    )
    require(
        (layout.pr, layout.pc) == grid.shape,
        GridError,
        f"layout is for a {layout.pr} x {layout.pc} grid, "
        f"but the grid has shape {grid.shape}",
    )


@dataclass(slots=True)
class StagedCopy:
    """A staged instance of a source matrix, remembering its provenance.

    ``matrix`` is the staged :class:`DistMatrix` (on some subgrid/layout);
    the record pins the source's ``(uid, generation)`` at staging time plus
    the staged matrix's own generation, so a consumer can tell both kinds
    of staleness apart: the *source* moved on (:meth:`valid_for` fails) or
    the *copy itself* was scribbled on (:meth:`pristine` fails).  The
    operand cache (:mod:`repro.api.opcache`) stores these.
    """

    matrix: DistMatrix
    source_uid: int
    source_generation: int
    staged_generation: int

    @classmethod
    def of(cls, source: DistMatrix, staged: DistMatrix) -> "StagedCopy":
        """Record ``staged`` as a copy of ``source`` as it is right now."""
        return cls(
            matrix=staged,
            source_uid=source.uid,
            source_generation=source.generation,
            staged_generation=staged.generation,
        )

    def valid_for(self, source: DistMatrix) -> bool:
        """True iff ``source`` is the recorded matrix, unmutated since."""
        return (
            source.uid == self.source_uid
            and source.generation == self.source_generation
        )

    def pristine(self) -> bool:
        """True iff the staged copy itself has not been mutated."""
        return self.matrix.generation == self.staged_generation
