"""Triangular solve with multiple right-hand sides (the paper's subject).

* ``trsm_lower_sequential`` and ``forward_substitution`` — the blocked
  BLAS-3 sequential TRSM (the local kernel) and its row-by-row form,
  re-exported from :mod:`repro.inversion.sequential`, where inversion is
  the same kernel against the identity;
* :mod:`repro.trsm.heath_romine` — the classical single-RHS parallel
  baseline (Section II-C3);
* :mod:`repro.trsm.recursive` — ``Rec-TRSM`` (Section IV), the paper's
  baseline algorithm with 1D/2D/3D regimes;
* :mod:`repro.trsm.diagonal_inverter` — selective inversion of the
  diagonal blocks (Section VI-A);
* :mod:`repro.trsm.iterative` — ``It-Inv-TRSM`` (Section VI-B), the
  paper's main contribution;
* :mod:`repro.trsm.cost_model` — every closed form of Sections IV-A, VII
  and VIII;
* :mod:`repro.trsm.solver` — the top-level :func:`~repro.trsm.solver.trsm`
  entry point with a-priori regime/parameter selection.
"""

from repro.inversion.sequential import trsm_lower_sequential, forward_substitution
from repro.trsm.heath_romine import heath_romine_trsv
from repro.trsm.recursive import rec_trsm, rec_trsm_global
from repro.trsm.diagonal_inverter import diagonal_inverter
from repro.trsm.iterative import it_inv_trsm, it_inv_trsm_global
from repro.trsm.solver import trsm, TrsmResult

__all__ = [
    "trsm_lower_sequential",
    "forward_substitution",
    "heath_romine_trsv",
    "rec_trsm",
    "rec_trsm_global",
    "diagonal_inverter",
    "it_inv_trsm",
    "it_inv_trsm_global",
    "trsm",
    "TrsmResult",
]
