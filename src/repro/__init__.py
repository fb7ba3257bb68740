"""repro: communication-avoiding parallel TRSM (Wicky, Solomonik, Hoefler,
IPDPS 2017), reproduced in Python on a simulated alpha-beta-gamma machine.

Quickstart
----------
One solve, one call (wraps a single-request Cluster):

>>> import numpy as np
>>> from repro import trsm, random_lower_triangular, random_dense
>>> L = random_lower_triangular(256, seed=0)
>>> B = random_dense(256, 64, seed=1)
>>> result = trsm(L, B, p=64)           # It-Inv-TRSM on 64 simulated procs
>>> bool(result.residual < 1e-12)
True

Many solves, one machine — the Cluster front-end packs a queue of typed
requests onto disjoint subgrids (the paper's concurrent-subgrid pattern,
generalized):

>>> from repro import Cluster, TrsmRequest
>>> cluster = Cluster(p=64)
>>> rids = [cluster.submit(TrsmRequest(
...     L=random_lower_triangular(128, seed=s),
...     B=random_dense(128, 16, seed=50 + s))) for s in range(4)]
>>> outcome = cluster.run()
>>> bool(outcome.modeled_makespan < outcome.serial_seconds)
True

Package layout
--------------
``repro.api``       Cluster/Session front-end: typed requests, one machine
``repro.sched``     subgrid allocator (quadrant pool) + request scheduler
``repro.machine``   simulated machine: grids, collectives, cost accounting
``repro.dist``      distributed matrices, layouts, exact routing plans
``repro.mm``        Section III matrix multiplication
``repro.inversion`` Section V recursive triangular inversion
``repro.trsm``      Sections IV & VI TRSM algorithms + cost models
``repro.tuning``    Section VIII a-priori parameter selection
``repro.analysis``  Section IX tables, Figure 1 regime map, serve reports
"""

from repro.machine import Cost, CostParams, HARDWARE_PRESETS, Machine, ProcessorGrid
from repro.machine.validate import (
    GridError,
    ParameterError,
    ReproError,
    ShapeError,
)
from repro.dist import (
    BlockCyclicLayout,
    BlockedLayout,
    CyclicLayout,
    DistMatrix,
    End,
    Layout,
    RoutingPlan,
    change_layout,
    expected_local_words,
    extract_submatrix,
    embed_submatrix,
    gather_frame,
    redistribute,
    route_embed,
    route_submatrix,
    transpose_matrix,
)
from repro.mm import mm1d, mm3d
from repro.inversion import invert_lower_triangular, rec_tri_inv
from repro.trsm import (
    TrsmResult,
    heath_romine_trsv,
    it_inv_trsm,
    it_inv_trsm_global,
    rec_trsm,
    rec_trsm_global,
    trsm,
    trsm_lower_sequential,
)
from repro.trsm.prepared import PreparedTrsm
from repro.api import (
    Cluster,
    ClusterOutcome,
    InvRequest,
    MMRequest,
    PreparedSolveRequest,
    RequestRecord,
    TrsmRequest,
)
from repro.sched import (
    BackfillPolicy,
    HorizonPolicy,
    LPTPolicy,
    OptimalPolicy,
    PackingPolicy,
    Schedule,
    Scheduler,
    SubgridAllocator,
    make_policy,
)
from repro.tuning import (
    TrsmRegime,
    TuningChoice,
    classify_trsm,
    optimize_parameters,
    tuned_parameters,
)
from repro.util import (
    random_dense,
    random_lower_triangular,
    random_spd,
    relative_residual,
)

__version__ = "1.1.0"

__all__ = [
    "Cluster",
    "ClusterOutcome",
    "RequestRecord",
    "TrsmRequest",
    "MMRequest",
    "InvRequest",
    "PreparedSolveRequest",
    "SubgridAllocator",
    "Scheduler",
    "Schedule",
    "PackingPolicy",
    "LPTPolicy",
    "BackfillPolicy",
    "OptimalPolicy",
    "HorizonPolicy",
    "make_policy",
    "Cost",
    "CostParams",
    "HARDWARE_PRESETS",
    "Machine",
    "ProcessorGrid",
    "ReproError",
    "GridError",
    "ShapeError",
    "ParameterError",
    "DistMatrix",
    "Layout",
    "CyclicLayout",
    "BlockedLayout",
    "BlockCyclicLayout",
    "expected_local_words",
    "redistribute",
    "change_layout",
    "transpose_matrix",
    "extract_submatrix",
    "embed_submatrix",
    "route_submatrix",
    "route_embed",
    "End",
    "RoutingPlan",
    "gather_frame",
    "mm3d",
    "mm1d",
    "invert_lower_triangular",
    "rec_tri_inv",
    "trsm",
    "TrsmResult",
    "PreparedTrsm",
    "trsm_lower_sequential",
    "heath_romine_trsv",
    "rec_trsm",
    "rec_trsm_global",
    "it_inv_trsm",
    "it_inv_trsm_global",
    "TrsmRegime",
    "TuningChoice",
    "classify_trsm",
    "tuned_parameters",
    "optimize_parameters",
    "random_dense",
    "random_lower_triangular",
    "random_spd",
    "relative_residual",
    "__version__",
]
