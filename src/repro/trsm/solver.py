"""Top-level TRSM entry point with a-priori algorithm/parameter selection.

``trsm(L, B, p=...)`` is the one-call public API: it classifies the regime
(Section VIII), picks tuned parameters (closed forms by default, exhaustive
model search with ``tune="search"``), runs the chosen algorithm on real
data, verifies the residual, and returns a :class:`TrsmResult` bundling the
solution with the measured critical-path costs and the a-priori model
prediction.

Since the Cluster redesign this is a *thin wrapper* over a single-request
:class:`repro.api.Cluster` pinned to the full machine — the call behaves
(and charges) exactly as it always did, but multi-request workloads should
use the Cluster directly, which can pack many solves onto disjoint
subgrids concurrently.  The signature is kept for one release of
compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.machine.cost import Cost, CostParams
from repro.machine.machine import Machine
from repro.machine.validate import ParameterError, ShapeError, require
from repro.tuning.parameters import TuningChoice
from repro.util.mathutil import is_power_of_two


@dataclass
class TrsmResult:
    """Solution plus the simulation's cost accounting."""

    X: np.ndarray
    algorithm: str
    machine: Machine
    choice: TuningChoice | None
    modeled: Cost
    measured: Cost = field(init=False)
    time: float = field(init=False)
    residual: float | None = None

    def __post_init__(self) -> None:
        self.measured = self.machine.critical_path()
        self.time = self.machine.time()

    def phase_costs(self) -> dict[str, Cost]:
        """Per-phase costs (iterative algorithm: inversion/solve/update)."""
        return {
            name: self.machine.phase_cost(name)
            for name in self.machine.phase_names()
        }


def trsm(
    L: np.ndarray,
    B: np.ndarray,
    p: int,
    algorithm: str = "auto",
    params: CostParams | None = None,
    tune: str = "closed_form",
    n0: int | None = None,
    verify: bool = True,
    base_n: int = 8,
    backend=None,
) -> TrsmResult:
    """Solve ``L X = B`` on a simulated ``p``-processor machine.

    .. deprecated:: 1.1
        ``trsm`` now wraps a single-request :class:`repro.api.Cluster`
        pinned to the full machine; results are bit-identical to the
        pre-Cluster path.  For more than one solve per machine, build a
        ``Cluster`` and submit :class:`repro.api.TrsmRequest` s — the
        subgrid scheduler runs them concurrently.

    Parameters
    ----------
    L, B:
        Global operands (``n x n`` lower triangular, ``n x k``; a vector
        ``B`` is treated as ``k = 1``).
    p:
        Number of simulated processors (power of two).
    algorithm:
        ``"iterative"`` (It-Inv-TRSM, the paper's contribution),
        ``"recursive"`` (Rec-TRSM baseline), or ``"auto"`` — iterative
        unless ``p == 1``.
    params:
        Machine cost constants (``alpha, beta, gamma``).
    tune:
        ``"closed_form"`` — Section VIII formulas; ``"search"`` —
        exhaustive discrete minimization of the modeled time.
    n0:
        Override the inverted-block size (must divide ``n``).
    verify:
        Compute and store the relative residual.
    base_n:
        Redundant-inversion cutoff passed down to ``rec_tri_inv``.
    backend:
        Execution backend (``None``/``"sim"``/``"mpi"`` or a
        :class:`~repro.backend.Backend`); values are identical across
        backends, ``"mpi"`` adds measured Alltoallv transport.
    """
    from repro.api import Cluster, TrsmRequest

    require(is_power_of_two(p), ParameterError, f"p must be a power of two, got {p}")
    L = np.asarray(L, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    require(
        B.ndim >= 1 and B.shape[0] == L.shape[0],
        ShapeError,
        f"B has shape {B.shape}, L has {L.shape[0]} rows",
    )
    vector = B.ndim == 1
    B2 = B.reshape(L.shape[0], -1)

    cluster = Cluster(p, params=params, backend=backend)
    rid = cluster.submit(
        TrsmRequest(
            L=L,
            B=B2,
            algorithm=algorithm,
            tune=tune,
            n0=n0,
            verify=verify,
            base_n=base_n,
            sizes=(p,),  # the legacy contract: the whole machine
        )
    )
    rec = cluster.run().record(rid)

    result = TrsmResult(
        X=rec.value,
        algorithm=rec.algorithm,
        machine=cluster.machine,
        choice=rec.choice,
        modeled=rec.modeled,
    )
    result.residual = rec.residual
    if vector:
        result.X = result.X[:, 0]
    return result
