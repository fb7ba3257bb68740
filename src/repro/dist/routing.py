"""Exact redistribution routing: per-(sender, receiver) message plans.

The paper charges every grid/layout transition in RecTriInv at the
all-to-all *bound*.  This module replaces the bound with the real plan, in
the spirit of ScaLAPACK's block-cyclic redistribution (Prylli &
Tourancheau): because a transition is fully described by the two sides'
index maps, the per-pair word counts — hence the exact ``S`` and ``W`` —
are derivable without moving a byte.

Two layers:

* :class:`End` — one side of a transition: a *frame* of matrix elements
  (a full matrix, a submatrix window, an arbitrary row/column selection,
  or a transposed view) pinned to a ``(grid, layout)`` pair;
* :class:`RoutingPlan` — the exact plan between two ends.  Per-axis owner
  vectors are intersected (a bincount over owner pairs, O(m + n + p_s p_d)
  per axis), the per-rank send/receive word counts and partner counts
  follow from the row x column product structure, and the charge is

      ``S = max over ranks of max(#send partners, #recv partners)``
      ``W = max over ranks of max(words sent, words received)``

  — the full-duplex critical-path cost of posting each pairwise message.
  Words that stay on their rank are free, so identity and aligned
  transitions cost zero *by construction*, with no special-case branch.
  A chain of transitions (extract -> redistribute -> ... -> embed) needs
  no type of its own: each intermediate end is a bijection of the frame,
  so the fused chain is simply the plan from the first end to the last.

Plans also *move* the data.  :meth:`RoutingPlan.messages` is the plan
as one list of per-(sender, receiver) :class:`Message` s — built lazily
from one stable argsort/group-by per frame axis and cached on the plan —
and every data mover reads that list: :meth:`RoutingPlan.apply` copies
each message's elements block to block (which is what lets the hot paths
in :mod:`repro.dist.redistribute` and :mod:`repro.mm.mm3d` skip the
``DistMatrix.to_global()`` scratch assembly), the MPI backend sends the
off-rank ones, and :func:`gather_frame`/:func:`scatter_frame` run the
same group-by against a dense frame.

Two serve-scale mechanisms sit on top (both bit-identical to the original
per-pair loops, which are pinned verbatim under ``tests/`` as the parity
oracle the hypothesis suite compares every plan against):

* pricing never builds messages: the pair enumeration and per-rank
  traffic summaries behind :meth:`RoutingPlan.pairs`,
  :meth:`RoutingPlan.cost` and :meth:`RoutingPlan.charge_pointwise` are
  **vectorized** over the per-axis owner intersections;
* :func:`routing_plan` memoizes whole plans (messages included) in an
  LRU of :data:`_PLAN_CACHE_MAX` entries keyed by the two ends' full
  fingerprints plus the frame shape, so a stream of requests re-pricing
  and re-staging the same transitions builds each plan once
  (:func:`plan_cache_stats` / :func:`clear_plan_cache` for tests).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

import numpy as np

from repro.dist.layout import Layout, expected_local_words
from repro.machine import collective_models
from repro.machine.cost import Cost
from repro.machine.validate import ShapeError, require

if TYPE_CHECKING:
    from repro.dist.distmatrix import DistMatrix
    from repro.machine.machine import Machine
    from repro.machine.topology import ProcessorGrid

Blocks = Mapping[int, np.ndarray]

#: per-(sender, receiver) word counts and bincount keys must stay
#: addressable by 32-bit message-count APIs; guarded at plan construction
#: (accumulators are int64 throughout, so the guard is exact).
INT32_LIMIT = 2**31 - 1

#: (src fingerprint, dst fingerprint, shape) -> RoutingPlan, LRU order
_PLAN_CACHE: "OrderedDict[tuple, RoutingPlan]" = OrderedDict()
#: LRU capacity (``0`` would keep the cache empty)
_PLAN_CACHE_MAX = 1024
_PLAN_CACHE_HITS = 0
_PLAN_CACHE_MISSES = 0


class End:
    """One side of a routed transition.

    The *frame* is the (logical) set of matrix elements being moved.  An
    ``End`` says where each frame element lives: element ``(i, j)`` of the
    frame is element ``(r0 + i, c0 + j)`` of a ``full_shape`` matrix
    distributed by ``layout`` on ``grid`` (or, with ``transpose=True``,
    element ``(r0 + j, c0 + i)`` — the frame is the transposed view).
    ``rows``/``cols`` instead select arbitrary global indices (the MM
    slab gathers use this); they are mutually exclusive with offsets and
    transposition.
    """

    __slots__ = ("grid", "layout", "full_shape", "offset", "transpose", "rows", "cols")

    def __init__(
        self,
        grid: "ProcessorGrid",
        layout: Layout,
        full_shape: tuple[int, int],
        offset: tuple[int, int] = (0, 0),
        transpose: bool = False,
        rows: Sequence[int] | None = None,
        cols: Sequence[int] | None = None,
    ) -> None:
        require(
            (layout.pr, layout.pc) == grid.shape,
            ShapeError,
            f"layout is for a {layout.pr} x {layout.pc} grid, "
            f"but the grid has shape {grid.shape}",
        )
        require(
            not (transpose and (rows is not None or cols is not None)),
            ShapeError,
            "transposed ends do not support explicit row/column selections",
        )
        require(
            (rows is None and cols is None) or tuple(offset) == (0, 0),
            ShapeError,
            "explicit row/column selections are mutually exclusive with offsets",
        )
        self.grid = grid
        self.layout = layout
        self.full_shape = (int(full_shape[0]), int(full_shape[1]))
        self.offset = (int(offset[0]), int(offset[1]))
        self.transpose = bool(transpose)
        self.rows = None if rows is None else np.asarray(rows, dtype=np.int64)
        self.cols = None if cols is None else np.asarray(cols, dtype=np.int64)

    # -- constructors -------------------------------------------------------

    @classmethod
    def of(cls, D: "DistMatrix") -> "End":
        """The frame covering all of ``D``."""
        return cls(D.grid, D.layout, D.shape)

    @classmethod
    def window_of(cls, D: "DistMatrix", r0: int, c0: int) -> "End":
        """The frame starting at ``(r0, c0)`` inside ``D``."""
        return cls(D.grid, D.layout, D.shape, offset=(r0, c0))

    # -- frame geometry -----------------------------------------------------

    def frame_shape(self, shape: tuple[int, int] | None = None) -> tuple[int, int]:
        """Resolve the frame shape (explicit selections pin it)."""
        fm = len(self.rows) if self.rows is not None else None
        fn = len(self.cols) if self.cols is not None else None
        if shape is None:
            require(
                fm is not None and fn is not None,
                ShapeError,
                "frame shape is required unless rows and cols are explicit",
            )
            assert fm is not None and fn is not None  # require raised otherwise
            return (fm, fn)
        shape = (int(shape[0]), int(shape[1]))
        require(
            (fm is None or fm == shape[0]) and (fn is None or fn == shape[1]),
            ShapeError,
            f"explicit selection of shape ({fm}, {fn}) does not match frame {shape}",
        )
        return shape

    def frame_maps(
        self, shape: tuple[int, int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Owner/position vectors along both frame axes.

        Returns ``(row_owners, row_pos, col_owners, col_pos)``: for each
        frame row (column), which coordinate along the matching grid axis
        owns it and at which local offset.  Built by slicing the layout's
        cached owner maps — no per-call allocation beyond the slices.
        """
        fm, fn = self.frame_shape(shape)
        M, N = self.full_shape
        r0, c0 = self.offset
        if self.transpose:
            # Frame rows follow matrix columns and vice versa.
            require(
                c0 + fm <= N and r0 + fn <= M,
                ShapeError,
                f"transposed frame {shape} at {self.offset} exceeds {self.full_shape}",
            )
            col_owners, col_pos = self.layout.col_owner_map(N)
            row_owners, row_pos = self.layout.row_owner_map(M)
            return (
                col_owners[c0 : c0 + fm],
                col_pos[c0 : c0 + fm],
                row_owners[r0 : r0 + fn],
                row_pos[r0 : r0 + fn],
            )
        row_owners, row_pos = self.layout.row_owner_map(M)
        col_owners, col_pos = self.layout.col_owner_map(N)
        if self.rows is None and self.cols is None:
            # contiguous window: zero-copy slice views of the cached maps
            require(
                r0 + fm <= M and c0 + fn <= N,
                ShapeError,
                f"frame {shape} at {self.offset} exceeds {self.full_shape}",
            )
            return (
                row_owners[r0 : r0 + fm],
                row_pos[r0 : r0 + fm],
                col_owners[c0 : c0 + fn],
                col_pos[c0 : c0 + fn],
            )
        ri = self.rows if self.rows is not None else np.arange(fm)
        ci = self.cols if self.cols is not None else np.arange(fn)
        require(
            (ri.size == 0 or (0 <= ri.min() and ri.max() < M))
            and (ci.size == 0 or (0 <= ci.min() and ci.max() < N)),
            ShapeError,
            f"frame selection exceeds matrix of shape {self.full_shape}",
        )
        return row_owners[ri], row_pos[ri], col_owners[ci], col_pos[ci]

    def axis_sizes(self) -> tuple[int, int]:
        """Coordinate counts along the frame's (row, col) axes."""
        if self.transpose:
            return (self.layout.pc, self.layout.pr)
        return (self.layout.pr, self.layout.pc)

    def rank(self, a: int, b: int) -> int:
        """Machine rank of frame-axis coordinates ``(a, b)``."""
        coord = (b, a) if self.transpose else (a, b)
        return self.grid.rank(coord)

    def rank_matrix(self) -> np.ndarray:
        """Rank lookup in frame-axis orientation: ``rank_matrix()[a, b]``
        equals :meth:`rank` ``(a, b)`` (vectorized, no per-pair calls)."""
        ranks = self.grid.rank_array
        return ranks.T if self.transpose else ranks

    def local_view(self, blocks: Blocks, a: int, b: int) -> np.ndarray:
        """The local block at frame coords ``(a, b)``, frame-oriented."""
        block = blocks[self.rank(a, b)]
        return block.T if self.transpose else block

    def fingerprint(self) -> tuple:
        """Hashable identity of everything a routing plan derives from.

        Two ends with equal fingerprints produce identical owner maps,
        rank matrices and therefore identical plans — the contract the
        :func:`routing_plan` LRU cache is keyed on.
        """
        return (
            self.grid.shape,
            self.grid.rank_array.tobytes(),
            self.layout,
            self.full_shape,
            self.offset,
            self.transpose,
            None if self.rows is None else self.rows.tobytes(),
            None if self.cols is None else self.cols.tobytes(),
        )


class Message(NamedTuple):
    """One (sender, receiver) message of a :class:`RoutingPlan`.

    Element ``(src_rows[i], src_cols[j])`` of the source rank's local
    block goes to ``(dst_rows[i], dst_cols[j])`` of the destination
    rank's; both index pairs address the blocks in *frame* orientation
    (through ``.T`` for a transposed end).  ``src == dst`` is an on-rank
    copy, which moves data but no words.
    """

    src: int
    dst: int
    src_rows: np.ndarray
    src_cols: np.ndarray
    dst_rows: np.ndarray
    dst_cols: np.ndarray


def _axis_pairs(
    so: np.ndarray, do: np.ndarray | int, sp: np.ndarray, dp: np.ndarray, d_size: int
) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """Group one frame axis by (source coord, destination coord) pair.

    Returns ``(a, x, source positions, destination positions)`` per
    nonempty pair.  One stable argsort over ``so * d_size + do`` replaces
    the reference's per-pair ``np.nonzero((so == a) & (do == x))`` scans:
    pairs come in ``np.nonzero`` row-major order and the positions keep
    the ascending frame order within each pair, so routed assignments are
    identical element for element.  A dense side is one coordinate
    (``do = 0``, ``d_size = 1``) whose positions are the frame indices.
    """
    key = so * d_size + do
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    bounds = [0, *(np.flatnonzero(np.diff(sorted_key)) + 1).tolist(), len(order)]
    out: list[tuple[int, int, np.ndarray, np.ndarray]] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo < hi:  # only an empty axis has an empty span
            idx = order[lo:hi]
            a, x = divmod(int(sorted_key[lo]), d_size)
            out.append((a, x, sp[idx], dp[idx]))
    return out


class RoutingPlan:
    """The exact message plan between two :class:`End` s of one frame."""

    def __init__(self, src: End, dst: End, shape: tuple[int, int]) -> None:
        shape = src.frame_shape(shape)
        require(
            dst.frame_shape(shape) == shape,
            ShapeError,
            "source and destination frames disagree on shape",
        )
        self.src = src
        self.dst = dst
        self.shape = shape
        sro, srp, sco, scp = src.frame_maps(shape)
        dro, drp, dco, dcp = dst.frame_maps(shape)
        self._maps = (sro, srp, sco, scp, dro, drp, dco, dcp)
        s_pr, s_pc = src.axis_sizes()
        d_pr, d_pc = dst.axis_sizes()
        # Per-axis coordinate-pair intersection sizes: R[a, x] frame rows are
        # owned by source grid-coordinate a and destination coordinate x.
        self._R = np.bincount(sro * d_pr + dro, minlength=s_pr * d_pr).reshape(
            s_pr, d_pr
        )
        self._C = np.bincount(sco * d_pc + dco, minlength=s_pc * d_pc).reshape(
            s_pc, d_pc
        )
        # Overflow guard: bincount keys are bounded by the coordinate-pair
        # products, per-pair word counts by max(R) * max(C); both must fit
        # an int32 (the accumulators themselves are int64 throughout).
        require(
            s_pr * d_pr <= INT32_LIMIT and s_pc * d_pc <= INT32_LIMIT,
            ShapeError,
            f"owner-pair bincount key space ({s_pr} x {d_pr}, {s_pc} x "
            f"{d_pc}) exceeds the int32 limit",
        )
        max_words = int(self._R.max(initial=0)) * int(self._C.max(initial=0))
        require(
            max_words <= INT32_LIMIT,
            ShapeError,
            f"a per-(sender, receiver) message of {max_words} words exceeds "
            f"the int32 limit ({INT32_LIMIT})",
        )
        self._cost: Cost | None = None
        self._pair_arrays_cache: (
            tuple[np.ndarray, np.ndarray, np.ndarray] | None
        ) = None
        self._per_rank_cache: (
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
        ) = None
        self._pointwise_cache: dict[int, Cost] | None = None
        self._messages_cache: list[Message] | None = None

    # -- the plan -----------------------------------------------------------

    def _pair_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src_ranks, dst_ranks, words)`` over all off-rank pairs.

        Built once per plan from the outer product of the per-axis owner
        intersections: row pairs in ``np.nonzero(R)`` order outer, column
        pairs inner — exactly the reference loop's enumeration order, so
        downstream consumers are bit-identical by construction.  Word
        counts are int64.
        """
        cached = self._pair_arrays_cache
        if cached is None:
            R, C = self._R, self._C
            ra, rx = np.nonzero(R)
            cb, cy = np.nonzero(C)
            src_ranks = self.src.rank_matrix()[ra[:, None], cb[None, :]].ravel()
            dst_ranks = self.dst.rank_matrix()[rx[:, None], cy[None, :]].ravel()
            words = (
                R[ra, rx].astype(np.int64)[:, None]
                * C[cb, cy].astype(np.int64)[None, :]
            ).ravel()
            off_rank = src_ranks != dst_ranks
            cached = self._pair_arrays_cache = (
                src_ranks[off_rank],
                dst_ranks[off_rank],
                words[off_rank],
            )
        return cached

    def _per_rank(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-rank traffic: ``(ranks, sent, recv, send_pairs, recv_pairs)``
        over the ascending union of ranks that move at least one word."""
        cached = self._per_rank_cache
        if cached is None:
            sr, dr, words = self._pair_arrays()
            ranks = np.unique(np.concatenate((sr, dr)))
            sid = np.searchsorted(ranks, sr)
            did = np.searchsorted(ranks, dr)
            w = words.astype(np.float64)
            n = len(ranks)
            cached = self._per_rank_cache = (
                ranks,
                np.bincount(sid, weights=w, minlength=n),
                np.bincount(did, weights=w, minlength=n),
                np.bincount(sid, minlength=n),
                np.bincount(did, minlength=n),
            )
        return cached

    def pairs(self) -> list[tuple[int, int, int]]:
        """All nonempty off-rank messages as ``(src_rank, dst_rank, words)``.

        Words between the source rank at frame coords ``(a, b)`` and the
        destination rank at ``(x, y)`` factor as ``R[a, x] * C[b, y]``.
        """
        sr, dr, words = self._pair_arrays()
        return list(zip(sr.tolist(), dr.tolist(), words.tolist()))

    def cost(self) -> Cost:
        """The exact transition charge (full-duplex critical path)."""
        if self._cost is None:
            ranks, sent, recv, s_pairs, r_pairs = self._per_rank()
            if len(ranks) == 0:
                self._cost = Cost(S=0.0, W=0.0, F=0.0)
            else:
                # float sums of int word counts are exact below 2**53, so
                # the vectorized maxima match the reference dict sums bit
                # for bit
                self._cost = Cost(
                    S=float(np.maximum(s_pairs, r_pairs).max()),
                    W=float(np.maximum(sent, recv).max()),
                    F=0.0,
                )
        return self._cost

    def is_free(self) -> bool:
        """True iff no words cross a rank boundary (identity/aligned)."""
        c = self.cost()
        return c.S == 0.0 and c.W == 0.0

    def ranks(self) -> list[int]:
        """Union of both grids' ranks — the group a charge synchronizes."""
        return list(dict.fromkeys(self.src.grid.ranks() + self.dst.grid.ranks()))

    def charge(self, machine: "Machine", label: str = "route") -> Cost:
        """Charge the exact cost (a free plan charges — and syncs — nothing)."""
        cost = self.cost()
        if not self.is_free():
            machine.charge(self.ranks(), cost, label=label)
        return cost

    def charge_pointwise(self, machine: "Machine", label: str = "route") -> Cost:
        """Charge each involved rank its own exact traffic, without a barrier.

        ``charge`` synchronizes the union of both grids, which is right for
        a collective transition inside one algorithm but wrong for operand
        *staging* in a multi-tenant cluster: routing a matrix from the full
        data plane onto one subgrid must not serialize the solves already
        running on the other subgrids.  Here every rank that actually sends
        or receives is charged ``S`` = its partner count and ``W`` =
        ``max(words sent, words received)`` locally (no group sync); ranks
        that move nothing are untouched.  The receivers' clocks carry the
        staging time forward, so the subgrid's first collective naturally
        starts after its operands arrive.  Returns the plan's aggregate
        critical-path cost (what :meth:`cost` reports).
        """
        costs = self._pointwise_costs()
        if costs:
            machine.charge_local(costs, label=label)
        return self.cost()

    def _pointwise_costs(self) -> dict[int, Cost]:
        """Per-rank local charges of :meth:`charge_pointwise` (memoized).

        Ranks ascend (the reference iterates a set union; charges to
        distinct ranks commute, and the per-rank values are bit-identical).
        """
        cached = self._pointwise_cache
        if cached is None:
            ranks, sent, recv, s_pairs, r_pairs = self._per_rank()
            partners = np.maximum(s_pairs, r_pairs)
            volume = np.maximum(sent, recv)
            cached = self._pointwise_cache = {
                r: Cost(S=float(s), W=float(w), F=0.0)
                for r, s, w in zip(
                    ranks.tolist(), partners.tolist(), volume.tolist()
                )
            }
        return cached

    def alltoall_bound(self) -> Cost:
        """The old uniform bound this plan replaces (for comparison/tests):
        an all-to-all over the union at the larger per-rank footprint."""
        g = len(self.ranks())
        if g <= 1:
            return Cost.zero()
        n_per_rank = max(
            expected_local_words(self.src.layout, _end_extent(self.src, self.shape)),
            expected_local_words(self.dst.layout, _end_extent(self.dst, self.shape)),
        )
        return collective_models.alltoall(g, float(n_per_rank))

    # -- data movement ------------------------------------------------------

    def messages(self) -> list[Message]:
        """The plan as one message list: every nonempty (row pair x column
        pair), on-rank copies included, row pairs outer and column pairs
        inner — the enumeration order of :meth:`pairs`.  Built on first
        use and cached on the plan (so the plan LRU keeps it)."""
        cached = self._messages_cache
        if cached is None:
            sro, srp, sco, scp, dro, drp, dco, dcp = self._maps
            d_pr, d_pc = self.dst.axis_sizes()
            src_ranks = self.src.rank_matrix().tolist()
            dst_ranks = self.dst.rank_matrix().tolist()
            col_pairs = _axis_pairs(sco, dco, scp, dcp, d_pc)
            cached = self._messages_cache = [
                Message(src_ranks[a][b], dst_ranks[x][y], rs, cs, rd, cd)
                for a, x, rs, rd in _axis_pairs(sro, dro, srp, drp, d_pr)
                for b, y, cs, cd in col_pairs
            ]
        return cached

    def apply(
        self, blocks: Blocks, out: dict[int, np.ndarray] | None = None
    ) -> dict[int, np.ndarray]:
        """Route the frame from source blocks into destination blocks.

        ``out`` defaults to fresh zero blocks shaped for the destination
        layout (the standalone-result case: ``full_shape == frame shape``);
        pass an existing block dict (e.g. a target matrix's) to scatter the
        frame in place.  When ``out`` shares arrays with ``blocks`` (a
        matrix routed into itself), the source is snapshotted first so
        reads never observe partial writes.  Returns ``out``.
        """
        grid = self.dst.grid
        if out is None:
            out = {
                rank: np.zeros(self.dst.layout.local_shape(coord, self.dst.full_shape))
                for rank, coord in zip(grid.ranks(), grid.coords())
            }
        else:
            src_ids = {id(b) for b in blocks.values()}
            if any(id(b) in src_ids for b in out.values()):
                blocks = {r: b.copy() for r, b in blocks.items()}
        src_t, dst_t = self.src.transpose, self.dst.transpose
        for m in self.messages():
            src_view = blocks[m.src].T if src_t else blocks[m.src]
            # a transposed end stores its blocks layout-oriented, so the
            # frame view is the transpose (fancy assignment into a .T view
            # writes the underlying block)
            dst_view = out[m.dst].T if dst_t else out[m.dst]
            dst_view[m.dst_rows[:, None], m.dst_cols] = src_view[
                m.src_rows[:, None], m.src_cols
            ]
        return out


def _end_extent(end: End, shape: tuple[int, int]) -> tuple[int, int]:
    """The matrix extent the old bound sized its per-rank footprint on:
    the frame, in the end's own layout orientation."""
    return (shape[1], shape[0]) if end.transpose else shape


# ---------------------------------------------------------------------------
# the plan cache (serve-scale reuse of identical transitions)
# ---------------------------------------------------------------------------


def routing_plan(src: End, dst: End, shape: tuple[int, int]) -> RoutingPlan:
    """A :class:`RoutingPlan` between two ends, memoized in an LRU cache.

    Keyed by both ends' full :meth:`End.fingerprint` plus the frame shape
    — equal fingerprints derive identical owner maps and rank matrices,
    so a cached plan is interchangeable with a fresh one (including its
    memoized pair arrays, per-rank traffic and messages, which is the
    point: a stream of requests staging the same operands onto congruent
    subgrids builds each plan once).  Plans are index maps only — they
    hold no matrix data — so reuse across requests is safe by
    construction.
    """
    global _PLAN_CACHE_HITS, _PLAN_CACHE_MISSES
    key = (
        src.fingerprint(),
        dst.fingerprint(),
        None if shape is None else (int(shape[0]), int(shape[1])),
    )
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _PLAN_CACHE_HITS += 1
        _PLAN_CACHE.move_to_end(key)
        return plan
    _PLAN_CACHE_MISSES += 1
    plan = RoutingPlan(src, dst, shape)
    _PLAN_CACHE[key] = plan
    while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
        _PLAN_CACHE.popitem(last=False)
    return plan


def plan_cache_stats() -> dict[str, int]:
    """Lifetime hit/miss counters, entry count and current capacity."""
    return {
        "hits": _PLAN_CACHE_HITS,
        "misses": _PLAN_CACHE_MISSES,
        "entries": len(_PLAN_CACHE),
        "capacity": _PLAN_CACHE_MAX,
    }


def clear_plan_cache() -> None:
    """Drop all memoized plans and reset the counters."""
    global _PLAN_CACHE_HITS, _PLAN_CACHE_MISSES
    _PLAN_CACHE.clear()
    _PLAN_CACHE_HITS = 0
    _PLAN_CACHE_MISSES = 0


def _frame_messages(
    end: End, shape: tuple[int, int]
) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The messages between an end and a dense frame of ``shape``:
    ``(rank, block rows, block cols, frame rows, frame cols)`` per owning
    rank — :func:`_axis_pairs` with a one-coordinate dense side."""
    ro, rp, co, cp = end.frame_maps(shape)
    ranks = end.rank_matrix().tolist()
    col_pairs = _axis_pairs(co, 0, cp, np.arange(shape[1]), 1)
    return [
        (ranks[a][b], rs, cs, rd, cd)
        for a, _, rs, rd in _axis_pairs(ro, 0, rp, np.arange(shape[0]), 1)
        for b, _, cs, cd in col_pairs
    ]


def gather_frame(end: End, blocks: Blocks, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Assemble an end's frame into a dense local array (cost-free plumbing).

    The routing counterpart of slicing ``to_global()``: only the frame's
    elements are touched, so hot paths that need one slab of a distributed
    matrix (MM line 5) no longer assemble the whole thing.  Charging is the
    caller's business, exactly as it was for ``to_global``.
    """
    fm, fn = end.frame_shape(shape)
    out = np.zeros((fm, fn))
    for rank, rs, cs, rd, cd in _frame_messages(end, (fm, fn)):
        view = blocks[rank].T if end.transpose else blocks[rank]
        out[rd[:, None], cd] = view[rs[:, None], cs]
    return out


def scatter_frame(
    end: End, frame: np.ndarray, out: dict[int, np.ndarray]
) -> dict[int, np.ndarray]:
    """Inverse of :func:`gather_frame`: write a dense frame into an end's blocks.

    Only the frame's elements are written, so hot paths that produce one
    slab of a distributed result (MM line 7) scatter it straight into the
    destination blocks instead of assembling a global scratch matrix first.
    Cost-free plumbing, exactly like ``gather_frame`` — the movement is the
    caller's charge.  Returns ``out``.
    """
    frame = np.asarray(frame)
    for rank, rs, cs, rd, cd in _frame_messages(end, end.frame_shape(frame.shape)):
        view = out[rank].T if end.transpose else out[rank]
        view[rs[:, None], cs] = frame[rd[:, None], cd]
    return out
