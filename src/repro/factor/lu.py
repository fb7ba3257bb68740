"""Blocked right-looking distributed LU factorization (``P A = L U``).

The second factorization the paper's introduction names.  Beyond providing
the substrate, LU adds a communication dimension Cholesky lacks —
**pivoting** — with its own latency story, directly analogous to the
paper's TRSM argument:

* ``pivoting="partial"`` — classical partial pivoting: every column of
  every panel performs a distributed argmax over the rows
  (one single-word allreduce each), ``Theta(n)`` synchronization total —
  the latency sink;
* ``pivoting="tournament"`` — CALU-style tournament pivoting: each panel
  selects its ``b`` pivot rows with one ``log p``-round reduction tree of
  ``b x b`` candidate blocks, ``Theta((n/b) log p)`` synchronization total.
  The selected pivots differ from partial pivoting's but keep the panel
  block nonsingular and the growth bounded (the CALU stability argument);
* ``pivoting="none"`` — for diagonally dominant matrices.

The panel's U rows and the trailing update follow the same
bcast-the-inverse pattern as the Cholesky consumer (the paper's selective
inversion at work).  Phases: ``pivot_search`` / ``panel_factor`` /
``panel_solve`` / ``trailing_update``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from repro.dist.distmatrix import DistMatrix
from repro.dist.layout import CyclicLayout
from repro.dist.triangular import require_square
from repro.inversion.sequential import invert_lower_triangular
from repro.machine.collective_models import _log2_ceil
from repro.machine.cost import Cost
from repro.machine.machine import Machine
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import GridError, ParameterError, ShapeError, require


def _tournament_pivots(panel: np.ndarray, groups: int) -> np.ndarray:
    """CALU pivot selection: indices (into ``panel`` rows) of the winners.

    Each of ``groups`` row chunks nominates its best ``b`` rows via a local
    partially-pivoted LU; winners merge pairwise up a binary tree.
    """
    m, b = panel.shape
    candidates: list[np.ndarray] = []  # row-index arrays
    bounds = np.linspace(0, m, groups + 1, dtype=int)
    for g in range(groups):
        lo, hi = bounds[g], bounds[g + 1]
        if hi - lo == 0:
            continue
        rows = np.arange(lo, hi)
        sel = _local_pivot_rows(panel[rows], b)
        candidates.append(rows[sel])
    while len(candidates) > 1:
        merged = []
        for i in range(0, len(candidates) - 1, 2):
            rows = np.concatenate([candidates[i], candidates[i + 1]])
            sel = _local_pivot_rows(panel[rows], b)
            merged.append(rows[sel])
        if len(candidates) % 2 == 1:
            merged.append(candidates[-1])
        candidates = merged
    return candidates[0][:b]


def _local_pivot_rows(block: np.ndarray, b: int) -> np.ndarray:
    """Rows a local partially-pivoted LU would bring to the top (<= b)."""
    rows = min(block.shape[0], b)
    if block.shape[0] == 0:
        return np.arange(0)
    _, piv = sla.lu_factor(
        np.asfortranarray(block[:, :rows] if block.shape[1] > rows else block),
        check_finite=False,
    )
    order = np.arange(block.shape[0])
    for i, p in enumerate(piv):
        order[i], order[p] = order[p], order[i]
    return order[:rows]


def lu_factor_distributed(
    machine: Machine,
    grid: ProcessorGrid,
    A_global: np.ndarray,
    block: int = 32,
    pivoting: str = "tournament",
) -> tuple[DistMatrix, DistMatrix, np.ndarray]:
    """Factor ``P A = L U`` on the simulated grid.

    Returns ``(L, U, perm)`` with ``L`` unit lower triangular and ``U``
    upper triangular, both cyclically distributed, and ``perm`` the row
    permutation such that ``A[perm] == L @ U`` (up to roundoff).
    """
    require(
        grid.ndim == 2 and grid.shape[0] == grid.shape[1],
        GridError,
        f"lu_factor_distributed requires a square grid, got {grid.shape}",
    )
    require(
        pivoting in ("partial", "tournament", "none"),
        ParameterError,
        f"unknown pivoting strategy {pivoting!r}",
    )
    A = np.asarray(A_global, dtype=np.float64)
    n = require_square(A, "A")
    b = max(min(int(block), n), 1)
    sp = grid.shape[0]
    p = grid.size
    all_ranks = grid.ranks()

    work = A.copy()
    perm = np.arange(n)

    for lo in range(0, n, b):
        hi = min(lo + b, n)
        bb = hi - lo
        m_below = n - lo

        # ---- pivot selection ------------------------------------------------
        panel_done = False
        with machine.phase("pivot_search"):
            if pivoting == "partial":
                # Partial pivoting interleaves search and elimination: each
                # column's argmax (one single-word allreduce over the row
                # fiber) must see the already-eliminated values.  This is
                # exactly why its synchronization cost is Theta(n log p).
                machine.charge(
                    all_ranks,
                    Cost(
                        S=2.0 * bb * _log2_ceil(sp) if p > 1 else 0.0,
                        W=2.0 * bb,
                        F=0.0,
                    ),
                    label="lu.pivot_partial",
                )
                for j in range(lo, hi):
                    piv = int(np.argmax(np.abs(work[j:, j]))) + j
                    if piv != j:
                        work[[j, piv], :] = work[[piv, j], :]
                        perm[[j, piv]] = perm[[piv, j]]
                        # pairwise row exchange between the owner ranks
                        machine.charge(
                            all_ranks[:2] if p > 1 else all_ranks,
                            Cost(S=1.0 if p > 1 else 0.0, W=float(n) / sp, F=0.0),
                            label="lu.pivot_swap",
                            sync=False,
                        )
                    pivot = work[j, j]
                    require(
                        abs(pivot) > 0.0,
                        ShapeError,
                        f"matrix is singular (zero pivot at column {j})",
                    )
                    work[j + 1 :, j] /= pivot
                    work[j + 1 :, j + 1 : hi] -= np.outer(
                        work[j + 1 :, j], work[j, j + 1 : hi]
                    )
                machine.charge(
                    all_ranks,
                    Cost(S=0.0, W=0.0, F=float(m_below) * bb * bb / (2.0 * p)),
                    label="lu.panel_factor",
                    sync=False,
                )
                panel_done = True
            elif pivoting == "tournament":
                # one log-depth tournament of b x b candidate blocks
                machine.charge(
                    all_ranks,
                    Cost(
                        S=2.0 * _log2_ceil(sp) if p > 1 else 0.0,
                        W=2.0 * bb * bb * max(_log2_ceil(sp), 1 if p > 1 else 0),
                        F=float(bb) ** 3 / 3.0,
                    ),
                    label="lu.pivot_tournament",
                )
                panel = work[lo:, lo:hi]
                winners = (lo + _tournament_pivots(panel, groups=max(sp, 1))).tolist()
                # bring the winners to the top of the panel in tournament
                # order (the order the selection LU established); repoint
                # pending winners displaced by earlier swaps
                for i in range(len(winners)):
                    j = lo + i
                    w = winners[i]
                    if w != j:
                        work[[j, w], :] = work[[w, j], :]
                        perm[[j, w]] = perm[[w, j]]
                        for t in range(i + 1, len(winners)):
                            if winners[t] == j:
                                winners[t] = w

        # ---- panel factor: unpivoted LU of the (now safe) panel -------------
        if not panel_done:
            with machine.phase("panel_factor"):
                for j in range(lo, hi):
                    pivot = work[j, j]
                    require(
                        abs(pivot) > 0.0,
                        ShapeError,
                        f"zero pivot at column {j} "
                        "(matrix singular or pivoting='none' unsafe)",
                    )
                    work[j + 1 :, j] /= pivot
                    work[j + 1 :, j + 1 : hi] -= np.outer(
                        work[j + 1 :, j], work[j, j + 1 : hi]
                    )
                machine.charge(
                    all_ranks,
                    Cost(S=0.0, W=0.0, F=float(m_below) * bb * bb / (2.0 * p)),
                    label="lu.panel_factor",
                    sync=False,
                )

        if hi == n:
            break

        # ---- panel solve: U(lo:hi, hi:) = inv(L_jj) @ A(lo:hi, hi:) ----------
        with machine.phase("panel_solve"):
            Ljj = np.tril(work[lo:hi, lo:hi], -1) + np.eye(bb)
            machine.charge(
                all_ranks,
                Cost(
                    S=2.0 * _log2_ceil(sp) if p > 1 else 0.0,
                    W=2.0 * bb * bb,
                    F=float(bb) * bb * (n - hi) / p,
                ),
                label="lu.panel_solve",
            )
            Linv = invert_lower_triangular(Ljj, check=False)
            work[lo:hi, hi:] = Linv @ work[lo:hi, hi:]

        # ---- trailing update -------------------------------------------------
        with machine.phase("trailing_update"):
            machine.charge(
                all_ranks,
                Cost(
                    S=2.0 * _log2_ceil(sp) if p > 1 else 0.0,
                    W=2.0 * (n - hi) * bb / max(sp, 1) + 2.0 * bb * (n - hi) / max(sp, 1),
                    F=float(n - hi) * (n - hi) * bb / p,
                ),
                label="lu.update",
            )
            work[hi:, hi:] -= work[hi:, lo:hi] @ work[lo:hi, hi:]

    L = np.tril(work, -1) + np.eye(n)
    U = np.triu(work)
    layout = CyclicLayout(sp, sp)
    return (
        DistMatrix.from_global(machine, grid, layout, L),
        DistMatrix.from_global(machine, grid, layout, U),
        perm,
    )
