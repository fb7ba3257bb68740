"""Typed request objects: the units the Cluster schedules.

A request is a declarative description of one unit of work — operands,
algorithm knobs, an optional arrival time — plus the three hooks the
:mod:`repro.sched` scheduler prices placements with (``candidate_sizes``,
``modeled_cost``, ``staging_targets``; the full contract is
:class:`repro.sched.scheduler.SchedulableRequest`) and the ``execute``
hook the Cluster replays the chosen placement with on the real simulated
machine.

Operands are either global ``ndarray``\\ s (placed on the assigned subgrid
for free, the paper's Require-clause convention) or *cluster-resident*
:class:`~repro.dist.distmatrix.DistMatrix` handles from
:meth:`~repro.api.cluster.Cluster.host` — those are staged onto the
subgrid through :func:`repro.dist.redistribute.stage_matrix`, charged at
the exact per-pair routing cost, and the same
:func:`~repro.dist.redistribute.staging_plan` prices the migration for the
scheduler before the placement is committed.

**How a request is planned.**  Algorithm, tuned parameters, working grid
and operand layouts are fixed a priori from ``(n, k, p)`` (paper Section
VIII), once, by the request type's ``_plan(grid, params)``.  Everything
else reads that one plan: ``staging_targets`` (what the scheduler
prices) is its resident placements, and ``execute`` (what the machine
runs) places its operands in order and hands them to the kernel — so a
placement cannot be priced one way and executed another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from repro.api.opcache import cache_key
from repro.dist.distmatrix import DistMatrix
from repro.dist.layout import CyclicLayout, Layout, RowCyclicColBlockedLayout
from repro.dist.redistribute import staging_plan
from repro.machine.cost import Cost, CostParams
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import ParameterError, ShapeError, require
from repro.tuning.parameters import TuningChoice, tuned_parameters
from repro.util.checking import check_fields, relative_residual


def _pow2_sizes(capacity: int) -> list[int]:
    sizes = []
    q = capacity
    while q >= 1:
        sizes.append(q)
        q //= 2
    return sizes


def _square_sizes(capacity: int) -> list[int]:
    return [q for q in _pow2_sizes(capacity) if math.isqrt(q) ** 2 == q]


def _shape_of(M) -> tuple[int, int]:
    if isinstance(M, DistMatrix):
        return M.shape
    A = np.asarray(M)
    return (A.shape[0], A.shape[1] if A.ndim == 2 else 1)


def _order_of(L, n0: int | None) -> int:
    """The order ``n`` of the square operand ``L``; ``n0`` must divide it."""
    n, n2 = _shape_of(L)
    require(n == n2, ShapeError, "L must be square")
    require(
        n0 is None or (n0 >= 1 and n % n0 == 0),
        ParameterError,
        f"n0={n0} must divide n={n}",
    )
    return n


def _rhs_cols(B, n: int) -> int:
    """The column count ``k`` of a right-hand side ``B``, which must have
    the ``n`` rows of ``L``."""
    rows, k = _shape_of(B)
    require(rows == n, ShapeError, f"B has {rows} rows, L is {n} x {n}")
    return k


def _operand_key(M):
    """The pricing identity of one operand.

    Cluster-resident matrices price by handle and generation (staging
    costs and cache keys both derive from exactly these); global arrays
    never stage, so only their shape matters for pricing — and the shape
    is already part of every ``pricing_key`` — hence ``None``.
    """
    return (M.uid, M.generation) if isinstance(M, DistMatrix) else None


@dataclass(slots=True)
class Execution:
    """What one request execution produced (see ``RequestRecord``)."""

    value: object
    algorithm: str
    residual: float | None = None
    choice: TuningChoice | None = None


@dataclass(frozen=True, slots=True)
class _Plan:
    """One request on one subgrid: the a-priori decision everything else
    (pricing, staging, execution) is derived from."""

    algorithm: str
    choice: TuningChoice | None
    #: the subgrid reshaped to the kernel's working grid
    grid: ProcessorGrid
    #: ``(operand, target grid, layout, shape, label)`` per operand, in
    #: staging order (``Cost`` sums and the cache hit/miss replay are
    #: order-sensitive)
    placements: tuple[tuple, ...]


def _on(name: str, M, grid: ProcessorGrid, shape: tuple[int, int], layout: Layout | None = None):
    """Placement of operand ``name``: cyclic over the 2D ``grid`` unless
    the kernel wants another ``layout``."""
    if layout is None:
        layout = CyclicLayout(*grid.shape)
    return (M, grid, layout, shape, f"cluster.stage_{name}")


def _plan_3d(
    algorithm: str, grid: ProcessorGrid, c: TuningChoice, n: int, factors, B=None, k: int = 0
) -> _Plan:
    """The It-Inv-TRSM placement on ``p1 x p1 x p2``: the ``n x n``
    ``(name, operand)`` factors cyclic on the ``z = 0`` plane, then the
    right-hand side (if any) row-cyclic / column-blocked on ``y = 0``."""
    work = grid.reshape((c.p1, c.p1, c.p2))
    front = work.plane(2, 0)
    placements = [_on(name, M, front, (n, n)) for name, M in factors]
    if B is not None:
        layout = RowCyclicColBlockedLayout(c.p1, c.p2)
        placements.append(_on("B", B, work.plane(1, 0), (n, k), layout))
    return _Plan(algorithm, c, work, tuple(placements))


@dataclass(kw_only=True, eq=False, slots=True)
class Request:
    """Base request: arrival time and an optional placement restriction.

    ``sizes`` pins the candidate subgrid sizes (e.g. ``(p,)`` forces the
    full machine — how the deprecated one-call wrappers reproduce the
    pre-Cluster behavior bit for bit).

    ``priority``/``deadline``/``tenant`` are the online-serving fields
    (:mod:`repro.api.online`): higher priority classes are ordered first
    by the policy layer, ``deadline`` is an SLA target in simulated
    seconds (ties within a class break earliest-deadline-first), and
    ``tenant`` names the admission-control fairness domain.  Like
    ``arrival``, none of them affects pricing — ``pricing_key`` excludes
    them by contract — and the defaults reproduce the offline behavior
    bit for bit.  Construction checks these five fields against the request
    schema (:mod:`repro.util.checking`), then runs the type's :meth:`_bind`.
    """

    arrival: float = 0.0
    sizes: tuple[int, ...] | None = None
    priority: int = 0
    deadline: float | None = None
    tenant: str = "default"
    kind: str = field(default="request", init=False)
    #: the attributes a price depends on and the operand attributes — the
    #: type-specific part of :meth:`pricing_key` (empty = opt out)
    _priced: ClassVar[tuple[str, ...]] = ()
    _operands: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        check_fields(self, ("arrival", "sizes", "priority", "deadline", "tenant"))
        self._bind()

    def _bind(self) -> None:
        """The type's own construction: ``kind``, knobs, operand shapes."""

    def candidate_sizes(self, capacity: int) -> list[int]:
        base = self._natural_sizes(capacity)
        if self.sizes is None:
            return base
        pinned = [s for s in self.sizes if s in base]
        require(
            bool(pinned),
            ParameterError,
            f"none of the pinned sizes {self.sizes} is valid for this "
            f"request on a {capacity}-rank pool (valid: {base})",
        )
        return pinned

    def _natural_sizes(self, capacity: int) -> list[int]:
        return _pow2_sizes(capacity)

    def modeled_cost(self, size: int, params: CostParams) -> Cost:
        raise NotImplementedError

    def _plan(self, grid: ProcessorGrid, params: CostParams) -> _Plan:
        """The type's one placement decision for the subgrid ``grid``."""
        raise NotImplementedError

    def staging_targets(self, grid: ProcessorGrid, params: CostParams) -> tuple:
        """What staging this request onto ``grid`` costs: one ``(cache key,
        target grid, exact migration cost)`` triple per resident operand
        of the plan, in staging order (``()`` when nothing is resident)."""
        return tuple(
            (cache_key(M, target, layout), target, staging_plan(M, target, layout).cost())
            for M, target, layout, _, _ in self._plan(grid, params).placements
            if isinstance(M, DistMatrix)
        )

    def pricing_key(self):
        """Hashable pricing identity, or ``None`` to opt out of sharing.

        **Contract**: two requests with equal, non-``None`` keys must
        price identically — same ``candidate_sizes``, same
        ``modeled_cost`` at every size, and same ``staging_targets`` on
        any concrete subgrid.  The scheduler's
        :class:`~repro.sched.pricing.PricingMemo` then shares one memo
        row across them, which is what makes a serve stream of
        same-shape requests price in O(1) amortized.  Arrival times and
        verification flags are deliberately excluded — they never affect
        a price.
        """
        if not self._priced:
            return None
        return (
            self.kind,
            self.sizes,
            *(getattr(self, name) for name in self._priced),
            *(_operand_key(getattr(self, name)) for name in self._operands),
        )

    def execute(self, cluster, grid: ProcessorGrid) -> Execution:
        raise NotImplementedError


def _place(cluster, plan: _Plan) -> list[DistMatrix]:
    """Put the plan's operands where it says, in order: resident operands
    migrate (exact charge, cache-aware); globals are free."""
    placed = []
    for M, grid, layout, shape, label in plan.placements:
        if isinstance(M, DistMatrix):
            placed.append(cluster.stage_resident(M, grid, layout, label=label))
        else:
            A = np.asarray(M, dtype=np.float64).reshape(shape)
            placed.append(DistMatrix.from_global(cluster.machine, grid, layout, A))
    return placed


def _as_global(operand) -> np.ndarray:
    return operand.to_global() if isinstance(operand, DistMatrix) else np.asarray(
        operand, dtype=np.float64
    )


@dataclass(kw_only=True, eq=False, slots=True)
class TrsmRequest(Request):
    """Solve ``L X = B`` (It-Inv-TRSM or the recursive baseline)."""

    L: object
    B: object
    algorithm: str = "auto"
    tune: str = "closed_form"
    n0: int | None = None
    verify: bool = True
    base_n: int = 8
    n: int = field(init=False)
    k: int = field(init=False)
    _choices: dict[tuple[int, CostParams], TuningChoice] = field(init=False, repr=False)
    _priced = ("n", "k", "algorithm", "tune", "n0", "base_n")
    _operands = ("L", "B")

    def _bind(self) -> None:
        self.kind = "trsm"
        require(
            self.algorithm in ("auto", "iterative", "recursive"),
            ParameterError,
            f"unknown algorithm {self.algorithm!r}",
        )
        require(
            self.tune in ("closed_form", "search"),
            ParameterError,
            f"unknown tune mode {self.tune!r}",
        )
        require(
            self.algorithm != "recursive" or self.n0 is None,
            ParameterError,
            "n0 is It-Inv-TRSM's inverted-block size; algorithm='recursive' takes none",
        )
        self.n = _order_of(self.L, self.n0)
        self.k = _rhs_cols(self.B, self.n)
        self._choices = {}

    # -- scheduling hooks ---------------------------------------------------

    def _algorithm_for(self, size: int) -> str:
        if self.algorithm != "auto":
            return self.algorithm
        return "iterative" if size > 1 else "recursive"

    def choice_for(self, size: int, params: CostParams) -> TuningChoice:
        """The (cached) tuning choice scoped to a ``size``-rank subgrid."""
        key = (size, params)
        got = self._choices.get(key)
        if got is None:
            if self.tune == "search":
                from repro.tuning.optimizer import optimize_parameters

                got = optimize_parameters(self.n, self.k, size, params=params)
            else:
                got = tuned_parameters(self.n, self.k, size)
            if self.n0 is not None:
                got = replace(got, n0=self.n0)
            self._choices[key] = got
        return got

    def modeled_cost(self, size: int, params: CostParams) -> Cost:
        from repro.trsm.cost_model import iterative_cost, recursive_cost

        if self._algorithm_for(size) == "recursive":
            return recursive_cost(self.n, self.k, size)
        c = self.choice_for(size, params)
        return iterative_cost(self.n, self.k, c.n0, c.p1, c.p2)

    def _plan(self, grid: ProcessorGrid, params: CostParams) -> _Plan:
        n, k = self.n, self.k
        if self._algorithm_for(grid.size) == "recursive":
            from repro.trsm.recursive import choose_recursive_grid

            work = grid.reshape(choose_recursive_grid(n, k, grid.size))
            placements = (_on("L", self.L, work, (n, n)), _on("B", self.B, work, (n, k)))
            return _Plan("recursive", None, work, placements)
        c = self.choice_for(grid.size, params)
        return _plan_3d("iterative", grid, c, n, [("L", self.L)], self.B, k)

    # -- execution ----------------------------------------------------------

    def execute(self, cluster, grid: ProcessorGrid) -> Execution:
        from repro.trsm.iterative import it_inv_trsm
        from repro.trsm.recursive import rec_trsm

        n, k = self.n, self.k
        plan = self._plan(grid, cluster.params)
        Ld, Bd = _place(cluster, plan)
        if plan.choice is None:
            X = rec_trsm(Ld, Bd).to_global()
        else:
            X = it_inv_trsm(
                cluster.machine, plan.grid, Ld, Bd, n0=plan.choice.n0, base_n=self.base_n
            ).to_global()

        residual = None
        if self.verify:
            residual = relative_residual(
                _as_global(self.L), X, _as_global(self.B).reshape(n, k)
            )
        return Execution(value=X, algorithm=plan.algorithm, residual=residual, choice=plan.choice)


@dataclass(kw_only=True, eq=False, slots=True)
class MMRequest(Request):
    """Multiply ``B = scale * A @ X`` with the Section III MM."""

    A: object
    X: object
    scale: float = 1.0
    p1: int | None = None
    verify: bool = False
    m: int = field(init=False)
    n: int = field(init=False)
    k: int = field(init=False)
    _priced = ("m", "n", "k", "p1")
    _operands = ("A", "X")

    def _bind(self) -> None:
        self.kind = "mm"
        self.m, self.n = _shape_of(self.A)
        n2, self.k = _shape_of(self.X)
        require(
            self.n == n2,
            ShapeError,
            f"inner dimensions disagree: A is {_shape_of(self.A)}, "
            f"X is {_shape_of(self.X)}",
        )

    def _natural_sizes(self, capacity: int) -> list[int]:
        # mm3d runs on a square grid: even powers of two only.
        return _square_sizes(capacity)

    def _split(self, size: int, params: CostParams) -> tuple[int, int]:
        from repro.mm.dispatch import choose_mm_split

        if self.p1 is not None:
            sp = math.isqrt(size)
            require(
                self.p1 >= 1 and sp % self.p1 == 0,
                ParameterError,
                f"p1={self.p1} must divide the grid side {sp}",
            )
            return self.p1, (sp // self.p1) ** 2
        return choose_mm_split(self.n, self.k, size, params=params, m=self.m)

    def modeled_cost(self, size: int, params: CostParams) -> Cost:
        from repro.mm.cost_model import mm3d_cost

        p1, p2 = self._split(size, params)
        return mm3d_cost(self.n, self.k, p1, p2, m=self.m)

    def _plan(self, grid: ProcessorGrid, params: CostParams) -> _Plan:
        sp = math.isqrt(grid.size)
        work = grid.reshape((sp, sp))
        A = _on("A", self.A, work, (self.m, self.n))
        X = _on("X", self.X, work, (self.n, self.k))
        return _Plan("mm3d", None, work, (A, X))

    def execute(self, cluster, grid: ProcessorGrid) -> Execution:
        from repro.mm.mm3d import mm3d

        plan = self._plan(grid, cluster.params)
        Ad, Xd = _place(cluster, plan)
        p1, _ = self._split(grid.size, cluster.params)
        B = mm3d(Ad, Xd, p1, scale=self.scale).to_global()
        residual = None
        if self.verify:
            residual = relative_residual(
                self.scale * _as_global(self.A), _as_global(self.X), B
            )
        return Execution(value=B, algorithm=f"{plan.algorithm}(p1={p1})", residual=residual)


@dataclass(kw_only=True, eq=False, slots=True)
class InvRequest(Request):
    """Invert a lower-triangular matrix — fully, or its ``n0`` diagonal
    blocks only (the Diagonal-Inverter / selective-inversion preparation)."""

    L: object
    n0: int | None = None
    k_hint: int = 1
    base_n: int = 8
    verify: bool = False
    n: int = field(init=False)
    _priced = ("n", "n0", "k_hint", "base_n")
    _operands = ("L",)

    def _bind(self) -> None:
        self.kind = "inv" if self.n0 is None else "diag_inv"
        self.n = _order_of(self.L, self.n0)

    def _natural_sizes(self, capacity: int) -> list[int]:
        if self.n0 is None:
            # rec_tri_inv runs on a square grid.
            return _square_sizes(capacity)
        return _pow2_sizes(capacity)

    def choice_for(self, size: int) -> TuningChoice:
        """Diagonal-inverter grid choice scoped to the subgrid (paper VIII)."""
        choice = tuned_parameters(self.n, max(self.k_hint, 1), size)
        return choice if self.n0 is None else replace(choice, n0=self.n0)

    def modeled_cost(self, size: int, params: CostParams) -> Cost:
        if self.n0 is None:
            from repro.inversion.cost_model import rec_tri_inv_cost

            sp = math.isqrt(size)
            return rec_tri_inv_cost(self.n, sp, 1)
        from repro.trsm.cost_model import iterative_parts

        c = self.choice_for(size)
        return iterative_parts(self.n, max(self.k_hint, 1), c.n0, c.p1, c.p2).inversion

    def _plan(self, grid: ProcessorGrid, params: CostParams) -> _Plan:
        n = self.n
        if self.n0 is None:
            sp = math.isqrt(grid.size)
            work = grid.reshape((sp, sp))
            return _Plan("rec_tri_inv", None, work, (_on("L", self.L, work, (n, n)),))
        c = self.choice_for(grid.size)
        return _plan_3d("diagonal_inverter", grid, c, n, [("L", self.L)])

    def execute(self, cluster, grid: ProcessorGrid) -> Execution:
        n = self.n
        plan = self._plan(grid, cluster.params)
        (Ld,) = _place(cluster, plan)
        if plan.choice is None:
            from repro.inversion.rec_tri_inv import rec_tri_inv

            Linv = rec_tri_inv(Ld, base_n=self.base_n).to_global()
            residual = None
            if self.verify:
                residual = float(
                    np.linalg.norm(_as_global(self.L) @ Linv - np.eye(n))
                    / math.sqrt(n)
                )
            return Execution(value=Linv, algorithm=plan.algorithm, residual=residual)

        from repro.trsm.diagonal_inverter import diagonal_inverter

        with cluster.machine.phase("inversion"):
            Ltilde = diagonal_inverter(
                Ld, plan.choice.n0, pool=plan.grid.ranks(), base_n=self.base_n
            ).to_global()
        return Execution(value=Ltilde, algorithm=plan.algorithm, choice=plan.choice)


@dataclass(kw_only=True, eq=False, slots=True)
class PreparedSolveRequest(Request):
    """Apply a :class:`~repro.trsm.prepared.PreparedTrsm`'s inverse to a new
    right-hand-side batch: solve + update phases only (Section II-C3).

    ``L``/``Ltilde`` optionally name *cluster-hosted* copies of the factor
    and its prepared inverse (:meth:`~repro.api.cluster.Cluster.host`).
    When given, each placement stages them onto the assigned subgrid at
    the exact migration charge — and the operand cache amortizes that
    charge across a stream of solves against the same factor, which is
    the serve workload this request type exists for.  When omitted the
    factor travels as the solver's own state (free placement), exactly
    the pre-cache behavior.
    """

    prepared: object
    B: object
    L: object | None = None
    Ltilde: object | None = None
    verify: bool = True
    n: int = field(init=False)
    k: int = field(init=False)
    _priced = ("n", "k")
    _operands = ("L", "Ltilde", "B")

    def _bind(self) -> None:
        self.kind = "prepared_solve"
        self.n = int(self.prepared.n)
        self.k = _rhs_cols(self.B, self.n)
        for name, M in (("L", self.L), ("Ltilde", self.Ltilde)):
            require(
                M is None or _shape_of(M) == (self.n, self.n),
                ShapeError,
                f"hosted {name} must be {self.n} x {self.n}, got {_shape_of(M) if M is not None else None}",
            )

    def choice_for(self, size: int) -> TuningChoice:
        """The prepared choice on its native size; re-tuned (same ``n0`` —
        the block inverses are for that size) on any other subgrid."""
        prepared = self.prepared
        if size == prepared.p:
            return prepared.choice
        choice = tuned_parameters(self.n, max(self.k, 1), size)
        return replace(choice, n0=prepared.choice.n0)

    def modeled_cost(self, size: int, params: CostParams) -> Cost:
        from repro.trsm.cost_model import iterative_parts

        c = self.choice_for(size)
        parts = iterative_parts(self.n, self.k, c.n0, c.p1, c.p2)
        return parts.solve + parts.update

    def pricing_key(self):
        # the prepared solver prices through its TuningChoice; distinct
        # PreparedTrsm objects stay distinct (id), shared ones share
        return (id(self.prepared), *Request.pricing_key(self))

    def _plan(self, grid: ProcessorGrid, params: CostParams) -> _Plan:
        # Hosted factor/inverse handles migrate (cache-amortized across the
        # stream); otherwise they are the solver's own state — plain arrays,
        # so their placement is free, exactly as before.
        prepared = self.prepared
        factors = [
            ("L", prepared.L if self.L is None else self.L),
            ("Ltilde", prepared.Ltilde if self.Ltilde is None else self.Ltilde),
        ]
        c = self.choice_for(grid.size)
        return _plan_3d("it_inv_trsm(prepared)", grid, c, self.n, factors, self.B, self.k)

    def execute(self, cluster, grid: ProcessorGrid) -> Execution:
        from repro.trsm.iterative import it_inv_trsm

        prepared = self.prepared
        n, k = self.n, self.k
        plan = self._plan(grid, cluster.params)
        Ld, Ltilde, Bd = _place(cluster, plan)
        X = it_inv_trsm(
            cluster.machine,
            plan.grid,
            Ld,
            Bd,
            n0=plan.choice.n0,
            base_n=prepared.base_n,
            Ltilde=Ltilde,
        ).to_global()
        residual = None
        if self.verify:
            B2 = _as_global(self.B).reshape(n, k)
            residual = relative_residual(prepared.L, X, B2)
            require(
                bool(residual < 1e-8) or not np.all(np.isfinite(B2)),
                ShapeError,
                f"prepared solve verification failed (residual {residual:.3e})",
            )
        return Execution(value=X, algorithm=plan.algorithm, residual=residual, choice=plan.choice)
