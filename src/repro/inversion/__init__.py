"""Triangular matrix inversion (paper Section V).

Triangular inversion — unlike general matrix inversion — is numerically
stable (Du Croz & Higham) and, crucially for the paper, can be parallelized
with only ``O(log^2 p)`` synchronizations because the two half-sized
recursive inversions are *independent*.

* :mod:`repro.inversion.sequential` — the one local triangular kernel: the
  blocked sequential solve ``trsm_lower_sequential`` (and its row-by-row
  form), with inversion as that solve against the identity (the redundant
  base-case kernel of both packages);
* :mod:`repro.inversion.rec_tri_inv` — the parallel recursive inversion
  ``RecTriInv`` with its cost analysis;
* :mod:`repro.inversion.cost_model` — the Section V-B closed forms.
"""

from repro.inversion.sequential import invert_lower_triangular
from repro.inversion.rec_tri_inv import rec_tri_inv
from repro.inversion.cost_model import (
    NU,
    rec_tri_inv_cost,
    rec_tri_inv_recurrence,
    redistribution_level_cost,
)

__all__ = [
    "invert_lower_triangular",
    "rec_tri_inv",
    "rec_tri_inv_cost",
    "rec_tri_inv_recurrence",
    "redistribution_level_cost",
    "NU",
]
