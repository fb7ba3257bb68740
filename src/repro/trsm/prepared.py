"""PreparedTrsm: invert once, solve many (Section II-C3 amortization).

The paper cites Raghavan's selective inversion for "repeated triangular
solves that arise in preconditioned sparse iterative methods": the factor
``L`` is fixed across hundreds of applications, so the Diagonal-Inverter's
one-off cost amortizes away and each application is pure matrix
multiplication.  ``PreparedTrsm`` packages that pattern:

    solver = PreparedTrsm(L, p=64)          # runs the Diagonal-Inverter
    X1 = solver.solve(B1)                   # solve + update phases only
    X2 = solver.solve(B2)                   # ...
    solver.preparation_cost                 # the amortized one-off
    solver.last_solve_cost                  # per-application cost

Every call runs on a fresh machine seeded with the prepared inverse, so
per-application costs are measured independently and are directly
comparable.

Since the Cluster redesign both the preparation and each application are
single-request :class:`repro.api.Cluster` runs pinned to the full machine
(an :class:`repro.api.InvRequest` with a diagonal block size, then
:class:`repro.api.PreparedSolveRequest` s); behavior and charges are
unchanged.  To batch many applications onto subgrids concurrently, submit
``PreparedSolveRequest(prepared=solver, B=...)`` to a shared Cluster
instead of calling :meth:`solve`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.machine.cost import Cost, CostParams
from repro.machine.validate import ParameterError, ShapeError, require
from repro.tuning.parameters import tuned_parameters
from repro.util.mathutil import is_power_of_two


class PreparedTrsm:
    """A triangular factor with pre-inverted diagonal blocks.

    .. deprecated:: 1.1
        Thin wrapper over single-request Clusters (kept one release for
        compatibility); new code should submit
        :class:`repro.api.PreparedSolveRequest` s directly.
    """

    def __init__(
        self,
        L: np.ndarray,
        p: int,
        k_hint: int = 1,
        params: CostParams | None = None,
        n0: int | None = None,
        base_n: int = 8,
        backend=None,
    ):
        """Run the Diagonal-Inverter for ``L`` on ``p`` simulated processors.

        ``k_hint`` is the expected right-hand-side count, used only for the
        a-priori parameter choice (Section VIII needs the shape ratio).
        ``backend`` selects the execution backend for the preparation and
        every subsequent :meth:`solve` (see :mod:`repro.backend`).
        """
        from repro.api import Cluster, InvRequest

        require(is_power_of_two(p), ParameterError, f"p must be a power of two, got {p}")
        self.L = np.asarray(L, dtype=np.float64)
        require(
            self.L.ndim == 2 and self.L.shape[0] == self.L.shape[1],
            ShapeError,
            "L must be square",
        )
        self.n = self.L.shape[0]
        self.p = p
        self.params = params or CostParams()
        self.base_n = base_n
        self.k_hint = max(k_hint, 1)
        self.backend = backend

        choice = tuned_parameters(self.n, self.k_hint, p)
        if n0 is not None:
            require(self.n % n0 == 0, ParameterError, f"n0={n0} must divide n={self.n}")
            choice = replace(choice, n0=n0)
        self.choice = choice

        # One-off preparation: a single diagonal-inversion request on its
        # own machine, pinned to the full grid.
        cluster = Cluster(p, params=self.params, backend=self.backend)
        rid = cluster.submit(
            InvRequest(
                L=self.L,
                n0=choice.n0,
                k_hint=self.k_hint,
                base_n=base_n,
                sizes=(p,),
            )
        )
        rec = cluster.run().record(rid)
        self._Ltilde_global = rec.value
        self.preparation_cost: Cost = cluster.machine.critical_path()
        self.preparation_time: float = cluster.machine.time()
        self.last_solve_cost: Cost | None = None
        self.last_solve_time: float | None = None
        self.solves: int = 0

    @property
    def Ltilde(self) -> np.ndarray:
        """The prepared inverse (block-inverted factor) as a global matrix.

        Host this next to ``L`` on a shared Cluster
        (``cluster.host(solver.Ltilde)``) to serve a stream of
        :class:`repro.api.PreparedSolveRequest` s against one resident
        factor — the operand cache then amortizes the factor migration
        across placements on the same subgrid.
        """
        return self._Ltilde_global

    def solve(self, B: np.ndarray, verify: bool = True) -> np.ndarray:
        """Apply ``inv(L)`` to a new right-hand side batch.

        Runs only the solve/update phases (the prepared inverse is reused),
        on a fresh machine so the measured cost is per-application.
        """
        from repro.api import Cluster, PreparedSolveRequest

        Bv = np.asarray(B, dtype=np.float64)
        vector = Bv.ndim == 1
        require(
            Bv.shape[0] == self.n,
            ShapeError,
            f"B has {Bv.shape[0]} rows, L is {self.n} x {self.n}",
        )
        B2 = Bv.reshape(self.n, -1)

        cluster = Cluster(self.p, params=self.params, backend=self.backend)
        rid = cluster.submit(
            PreparedSolveRequest(prepared=self, B=B2, verify=verify, sizes=(self.p,))
        )
        rec = cluster.run().record(rid)
        X = rec.value
        self.last_solve_cost = cluster.machine.critical_path()
        self.last_solve_time = cluster.machine.time()
        self.solves += 1
        return X[:, 0] if vector else X

    def amortized_time(self, applications: int) -> float:
        """Modeled total time for ``applications`` solves incl. preparation."""
        require(applications >= 1, ParameterError, "need at least one application")
        require(
            self.last_solve_time is not None,
            ParameterError,
            "call solve() at least once before asking for amortized time",
        )
        return self.preparation_time + applications * float(self.last_solve_time)
