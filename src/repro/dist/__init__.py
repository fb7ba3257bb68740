"""repro.dist: distributed matrices, layouts and charged redistribution.

The data-distribution substrate every algorithm layer builds on:

* :mod:`repro.dist.layout` — the one home of index arithmetic: a
  :class:`Layout` is a pair of per-axis :class:`AxisMap` rules describing
  which global rows/columns each grid coordinate owns, built by the
  constructors :func:`CyclicLayout`, :func:`BlockedLayout`,
  :func:`BlockCyclicLayout` and :func:`RowCyclicColBlockedLayout`;
* :mod:`repro.dist.distmatrix` — :class:`DistMatrix`, the container
  coupling a machine, a 2D grid, a layout and per-rank blocks, with a
  stable ``(uid, generation)`` identity; :class:`StagedCopy`, the
  provenance record the operand cache stores staged instances under;
* :mod:`repro.dist.routing` — exact per-(sender, receiver) message plans
  derived from index-map intersections (:class:`End`,
  :class:`RoutingPlan`, :func:`routing_plan`, :func:`gather_frame`);
* :mod:`repro.dist.redistribute` — charged transitions between grids,
  layouts and submatrix windows (:func:`redistribute`,
  :func:`change_layout`, :func:`transpose_matrix`,
  :func:`extract_submatrix`, :func:`embed_submatrix`), the fused
  chains (:func:`route_submatrix`, :func:`route_embed`), and the
  cluster staging helpers (:func:`staging_plan`, :func:`stage_matrix`);
* :mod:`repro.dist.triangular` — triangular-structure validation and word
  counts shared by the solvers and factorizations.
"""

from repro.dist.distmatrix import DistMatrix, StagedCopy
from repro.dist.layout import (
    AxisMap,
    BlockCyclicLayout,
    BlockedLayout,
    CyclicLayout,
    Layout,
    RowCyclicColBlockedLayout,
    expected_local_words,
)
from repro.dist.redistribute import (
    change_layout,
    embed_submatrix,
    extract_submatrix,
    redistribute,
    route_embed,
    route_submatrix,
    stage_matrix,
    staging_plan,
    transpose_matrix,
)
from repro.dist.routing import (
    End,
    RoutingPlan,
    gather_frame,
    scatter_frame,
)
from repro.dist.triangular import (
    is_lower_triangular,
    require_lower_triangular,
    require_nonsingular_triangular,
    require_square,
    triangle_words,
)

__all__ = [
    "AxisMap",
    "Layout",
    "CyclicLayout",
    "BlockedLayout",
    "BlockCyclicLayout",
    "RowCyclicColBlockedLayout",
    "expected_local_words",
    "DistMatrix",
    "StagedCopy",
    "redistribute",
    "change_layout",
    "transpose_matrix",
    "extract_submatrix",
    "embed_submatrix",
    "route_submatrix",
    "route_embed",
    "staging_plan",
    "stage_matrix",
    "End",
    "RoutingPlan",
    "gather_frame",
    "scatter_frame",
    "is_lower_triangular",
    "require_square",
    "require_lower_triangular",
    "require_nonsingular_triangular",
    "triangle_words",
]
