"""Blocked right-looking distributed Cholesky (``A = L L^T``).

Layout: ``A`` symmetric positive definite, cyclically distributed on a
``sp x sp`` grid.  For each panel ``j`` of width ``b``:

1. **panel factor** — the ``b x b`` diagonal block is allgathered over the
   grid column that owns it and factored redundantly
   (``S = log p, W = b^2, F = b^3/6``);
2. **panel solve** — the ``m x b`` subdiagonal panel is solved against
   ``L_jj^T`` from the right.  Strategy ``"substitution"`` performs the
   column-by-column substitution (``S ~ b`` sequential steps per panel —
   the classical latency sink).  Strategy ``"inversion"`` broadcasts
   ``inv(L_jj)`` once (``S = 2 log p, W = 2 b^2``) and multiplies
   (``F = m b^2 / p'`` on the owning ranks) — selective inversion exactly
   as the paper applies it to TRSM;
3. **trailing update** — ``A_22 -= P P^T``: the panel is allgathered along
   both grid fibers (``W = 2 m b / sp`` per rank) and each rank updates its
   local trailing block (``F ~ m^2 b / (2p)``).

Phases are labelled ``panel_factor`` / ``panel_solve`` / ``trailing_update``
so the factorization bench can attribute costs, mirroring the paper's
Section VII decomposition.
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


def _chol_block(A: np.ndarray) -> np.ndarray:
    """Local unblocked Cholesky of an SPD block (raises on non-SPD)."""
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        d = A[j, j] - L[j, :j] @ L[j, :j]
        require(
            d > 0.0,
            ShapeError,
            f"matrix is not positive definite (pivot {j} is {d:.3e})",
        )
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def cholesky_factor(
    machine: Machine,
    grid: ProcessorGrid,
    A_global: np.ndarray,
    block: int = 32,
    panel: str = "inversion",
) -> DistMatrix:
    """Factor ``A = L L^T`` on the simulated grid; returns distributed ``L``.

    ``panel`` selects the panel-solve strategy (``"inversion"`` or
    ``"substitution"``); ``block`` is the panel width ``b``.
    """
    require(
        grid.ndim == 2 and grid.shape[0] == grid.shape[1],
        GridError,
        f"cholesky_factor requires a square grid, got {grid.shape}",
    )
    require(
        panel in ("inversion", "substitution"),
        ParameterError,
        f"unknown panel strategy {panel!r}",
    )
    A = np.asarray(A_global, dtype=np.float64)
    n = require_square(A, "A")
    require(
        np.allclose(A, A.T, atol=1e-12 * max(np.abs(A).max(), 1.0)),
        ShapeError,
        "A must be symmetric",
    )
    b = max(min(int(block), n), 1)
    sp = grid.shape[0]
    p = grid.size
    all_ranks = grid.ranks()

    work = A.copy()
    L = np.zeros_like(A)

    for lo in range(0, n, b):
        hi = min(lo + b, n)
        bb = hi - lo
        m = n - hi  # trailing rows below the panel

        # ---- panel factor: redundant Cholesky of the diagonal block -------
        with machine.phase("panel_factor"):
            owner_col = [grid.rank((x, (lo // 1) % sp)) for x in range(sp)]
            machine.charge(
                owner_col,
                Cost(S=_log2_ceil(sp), W=float(bb * bb), F=0.0),
                label="chol.diag_gather",
            )
            Ljj = _chol_block(work[lo:hi, lo:hi])
            machine.charge(
                owner_col,
                Cost(S=0.0, W=0.0, F=float(bb) ** 3 / 6.0),
                label="chol.diag_factor",
                sync=False,
            )
            L[lo:hi, lo:hi] = Ljj

        if m == 0:
            break  # last panel: nothing below or to the right

        # ---- panel solve: P = A(hi:, lo:hi) @ inv(Ljj)^T -------------------
        with machine.phase("panel_solve"):
            if panel == "inversion":
                # bcast inv(Ljj) along the grid rows, one multiply per rank
                machine.charge(
                    all_ranks,
                    Cost(
                        S=2.0 * _log2_ceil(sp),
                        W=2.0 * bb * bb,
                        F=float(bb) ** 3 / 6.0 / p,
                    ),
                    label="chol.panel_inv_bcast",
                )
                Linv = invert_lower_triangular(Ljj, check=False)
                P = work[hi:, lo:hi] @ Linv.T
                machine.charge(
                    all_ranks,
                    Cost(S=0.0, W=0.0, F=float(m) * bb * bb / p),
                    label="chol.panel_multiply",
                    sync=False,
                )
            else:
                # substitution: bb dependent column steps, each one message
                # round on the owning column fiber plus the update flops
                machine.charge(
                    all_ranks,
                    Cost(
                        S=float(bb) * max(_log2_ceil(sp), 1 if p > 1 else 0),
                        W=float(bb) * m / max(sp, 1),
                        F=float(m) * bb * bb / (2.0 * p),
                    ),
                    label="chol.panel_substitution",
                )
                P = sla.solve_triangular(Ljj, work[hi:, lo:hi].T, lower=True).T
            L[hi:, lo:hi] = P

        # ---- trailing update: A22 -= P P^T ---------------------------------
        with machine.phase("trailing_update"):
            machine.charge(
                all_ranks,
                Cost(
                    S=2.0 * _log2_ceil(sp),
                    W=2.0 * float(m) * bb / max(sp, 1),
                    F=float(m) * m * bb / (2.0 * p),
                ),
                label="chol.update",
            )
            work[hi:, hi:] -= P @ P.T

    layout = CyclicLayout(sp, sp)
    return DistMatrix.from_global(machine, grid, layout, np.tril(L))
