"""Cluster front-end: wrapper parity, scheduling demo, staging charges."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.api import (
    Cluster,
    InvRequest,
    MMRequest,
    PreparedSolveRequest,
    TrsmRequest,
)
from repro.api.opcache import cache_key
from repro.api.serve import poisson_stream, replay
from repro.dist.distmatrix import DistMatrix
from repro.machine.cost import CostParams
from repro.machine.machine import Machine
from repro.machine.validate import ParameterError, ShapeError
from repro.sched.pricing import DirectPricing
from repro.trsm.cost_model import iterative_cost
from repro.trsm.iterative import it_inv_trsm_global
from repro.trsm.prepared import PreparedTrsm
from repro.tuning.parameters import tuned_parameters
from repro.util.randmat import random_dense, random_lower_triangular

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")


def resident_placements(req, grid, params):
    """``(operand, target grid, layout)`` per cluster-resident operand of
    the request's plan on ``grid``, in placement order — what ``execute``
    stages."""
    return [
        (M, target, layout)
        for M, target, layout, _, _ in req._plan(grid, params).placements
        if isinstance(M, DistMatrix)
    ]


class TestWrapperParity:
    """trsm() is a thin wrapper over a single-request Cluster — and must
    behave bit-for-bit like the pre-redesign path (fresh machine, tuned
    parameters, it_inv_trsm on the full grid)."""

    @pytest.mark.parametrize("n,k,p", [(64, 16, 16), (96, 8, 4), (128, 32, 64)])
    def test_trsm_matches_pre_redesign_path(self, n, k, p):
        from repro import trsm

        L = random_lower_triangular(n, seed=0)
        B = random_dense(n, k, seed=1)
        params = CostParams()

        choice = tuned_parameters(n, k, p)
        machine = Machine(p, params=params)
        X_old = it_inv_trsm_global(
            machine, L, B, p1=choice.p1, p2=choice.p2, n0=choice.n0
        ).to_global()
        cost_old = machine.critical_path()
        time_old = machine.time()

        res = trsm(L, B, p=p, params=params)
        assert res.X.tobytes() == X_old.tobytes()  # bit-identical
        assert res.measured == cost_old
        assert res.time == time_old
        assert res.modeled == iterative_cost(n, k, choice.n0, choice.p1, choice.p2)

    def test_prepared_trsm_solve_parity_with_inline_path(self):
        """PreparedTrsm.solve must still exclude the inversion phase."""
        L = random_lower_triangular(48, seed=4)
        solver = PreparedTrsm(L, p=4, k_hint=8, params=UNIT, n0=12)
        B = random_dense(48, 8, seed=5)
        X = solver.solve(B)
        assert np.allclose(X, sla.solve_triangular(L, B, lower=True), atol=1e-9)
        assert solver.preparation_cost.F > 0
        assert solver.last_solve_cost is not None
        assert solver.last_solve_cost.F < solver.preparation_cost.F + 1e9

    def test_single_request_cluster_equals_trsm(self):
        from repro import trsm

        n, k, p = 64, 8, 16
        L = random_lower_triangular(n, seed=2)
        B = random_dense(n, k, seed=3)
        res = trsm(L, B, p=p)
        cluster = Cluster(p)
        rid = cluster.submit(TrsmRequest(L=L, B=B, sizes=(p,)))
        rec = cluster.run().record(rid)
        assert rec.value.tobytes() == res.X.tobytes()
        assert cluster.machine.critical_path() == res.measured


class TestSchedulingDemo:
    """The acceptance demo: >= 8 mixed (n, k) TRSM requests on p = 64
    finish with a modeled makespan strictly below serial full-grid
    execution, with every migration charged via an exact routing plan."""

    def test_mixed_queue_beats_serial_full_grid(self):
        shapes = [
            (64, 16), (128, 32), (256, 64), (128, 8),
            (64, 64), (256, 16), (128, 16), (64, 32),
        ]
        cluster = Cluster(64)
        rids = []
        for i, (n, k) in enumerate(shapes):
            L = cluster.host(random_lower_triangular(n, seed=10 + i))
            B = cluster.host(random_dense(n, k, seed=50 + i))
            rids.append(cluster.submit(TrsmRequest(L=L, B=B)))
        outcome = cluster.run()

        assert len(outcome.records) == 8
        assert outcome.modeled_makespan < outcome.serial_seconds  # strict
        for rid in rids:
            rec = outcome.record(rid)
            assert rec.residual is not None and rec.residual < 1e-9
        # concurrency actually happened: some requests overlap in time
        starts = sorted(r.modeled_start for r in outcome.records)
        finishes = sorted(r.modeled_finish for r in outcome.records)
        assert starts[1] < finishes[-1]
        assert 0.0 < outcome.occupancy <= 1.0

    def test_all_migrations_have_exact_plans(self):
        """Staging charges come from RoutingPlan (S = partner counts), never
        from an all-to-all bound over the union."""
        from repro.dist.redistribute import staging_plan

        cluster = Cluster(16)
        n, k = 64, 8
        L = cluster.host(random_lower_triangular(n, seed=0))
        B = cluster.host(random_dense(n, k, seed=1))
        req = TrsmRequest(L=L, B=B)
        grid = cluster.pool.preview(4)
        staged, _saved, _ = DirectPricing(cluster.params, cluster.p).staging(req, grid)
        targets = resident_placements(req, grid, cluster.params)
        assert targets, "resident operands must produce staging targets"
        priced = req.staging_targets(grid, cluster.params)
        assert len(priced) == len(targets)
        exact_S = exact_W = bound_W = 0.0
        for (D, tgrid, layout), (key, pgrid, cost) in zip(targets, priced):
            plan = staging_plan(D, tgrid, layout)
            assert (key, pgrid, cost) == (cache_key(D, tgrid, layout), tgrid, plan.cost())
            exact_S += plan.cost().S
            exact_W += plan.cost().W
            bound_W += plan.alltoall_bound().W
        # the priced migration IS the sum of the exact per-pair plans...
        assert staged.S == exact_S and staged.W == exact_W
        # ...and the exact word count never exceeds the old uniform bound
        assert staged.W <= bound_W

    def test_measured_overlap_on_disjoint_subgrids(self):
        """Charges only advance the clocks they touch, so two requests
        pinned to disjoint halves overlap in measured time."""
        cluster = Cluster(16, params=UNIT)
        for i in range(2):
            cluster.submit(
                TrsmRequest(
                    L=random_lower_triangular(64, seed=i),
                    B=random_dense(64, 16, seed=10 + i),
                    sizes=(8,),
                )
            )
        outcome = cluster.run()
        a, b = outcome.records
        assert not set(a.grid.ranks()) & set(b.grid.ranks())
        # both started at measured time zero: true concurrency
        assert a.measured_start == 0.0 and b.measured_start == 0.0
        assert outcome.measured_makespan == pytest.approx(
            max(a.measured_finish, b.measured_finish)
        )


class TestOtherRequests:
    def test_mm_request(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((32, 24))
        X = rng.standard_normal((24, 12))
        cluster = Cluster(16)
        rid = cluster.submit(MMRequest(A=A, X=X, verify=True))
        rec = cluster.run().record(rid)
        assert np.allclose(rec.value, A @ X, atol=1e-10)
        assert rec.residual < 1e-12

    def test_inv_request_full(self):
        L = random_lower_triangular(32, seed=1)
        cluster = Cluster(16)
        rid = cluster.submit(InvRequest(L=L, verify=True))
        rec = cluster.run().record(rid)
        assert np.allclose(rec.value @ L, np.eye(32), atol=1e-8)

    def test_prepared_solve_request_on_shared_cluster(self):
        L = random_lower_triangular(32, seed=2)
        solver = PreparedTrsm(L, p=4, k_hint=8, params=UNIT, n0=8)
        cluster = Cluster(16, params=UNIT)
        rids = [
            cluster.submit(
                PreparedSolveRequest(prepared=solver, B=random_dense(32, 8, seed=s))
            )
            for s in (3, 4)
        ]
        outcome = cluster.run()
        for rid, s in zip(rids, (3, 4)):
            B = random_dense(32, 8, seed=s)
            assert np.allclose(
                outcome.record(rid).value,
                sla.solve_triangular(L, B, lower=True),
                atol=1e-9,
            )

    def test_trsm_request_refuses_b_rows_not_n(self):
        """Regression: a ``B`` whose row count is not ``n`` was accepted,
        and the next ``run()`` raised ``ValueError``, losing the valid
        request queued with it."""
        L = random_lower_triangular(16, seed=0)
        cluster = Cluster(4)
        rid = cluster.submit(TrsmRequest(L=L, B=random_dense(16, 4, seed=1)))
        for B in (random_dense(8, 4, seed=2), cluster.host(random_dense(8, 4, seed=2))):
            with pytest.raises(ShapeError, match="B has 8 rows"):
                TrsmRequest(L=L, B=B)
        assert cluster.run().record(rid).residual < 1e-10

    def test_submit_rejects_untyped_requests(self):
        cluster = Cluster(4)
        with pytest.raises(ParameterError):
            cluster.submit("solve please")

    def test_host_rejects_vectors(self):
        cluster = Cluster(4)
        with pytest.raises(ParameterError):
            cluster.host(np.ones(8))


class TestServeStream:
    def test_poisson_stream_is_seeded_and_sorted(self):
        s1 = poisson_stream(6, rate=1e4, seed=7)
        s2 = poisson_stream(6, rate=1e4, seed=7)
        assert s1 == s2
        arrivals = [r.arrival for r in s1]
        assert arrivals == sorted(arrivals)
        assert all(r.n >= 64 and r.k >= 8 for r in s1)

    def test_replay_completes_and_beats_serial(self):
        stream = poisson_stream(8, rate=0.0, seed=0)
        outcome = replay(stream, p=64)
        assert len(outcome.records) == 8
        assert outcome.modeled_makespan < outcome.serial_seconds

    def test_measured_window_respects_arrival(self):
        """A request's measured start can never precede its arrival."""
        cluster = Cluster(4, params=UNIT)
        rid = cluster.submit(
            TrsmRequest(
                L=random_lower_triangular(16, seed=0),
                B=random_dense(16, 4, seed=1),
                arrival=5.0,
            )
        )
        outcome = cluster.run()
        rec = outcome.record(rid)
        assert rec.modeled_start >= 5.0
        assert rec.measured_start >= 5.0
        assert rec.measured_finish > rec.measured_start
        assert outcome.measured_makespan >= 5.0


class TestRegionAccounting:
    def test_region_accumulates_across_inner_phases(self):
        machine = Machine(4, params=UNIT)
        from repro.machine.cost import Cost

        with machine.region("req"):
            with machine.phase("solve"):
                machine.charge([0, 1], Cost(1.0, 10.0, 0.0))
            with machine.phase("update"):
                machine.charge([2, 3], Cost(2.0, 0.0, 5.0))
        assert machine.region_cost("req").S == 2.0
        assert machine.region_cost("req", ranks=[0, 1]).W == 10.0
        assert machine.region_cost("req", ranks=[2, 3]).F == 5.0
        # phases still attribute innermost, now rank-scopable
        assert machine.phase_cost("solve", ranks=[2, 3]).W == 0.0
        assert machine.phase_cost("solve").W == 10.0


def _prepared_solve(cluster, Lh, Bh):
    prepared = PreparedTrsm(Lh.to_global(), p=cluster.p, k_hint=Bh.shape[1])
    return PreparedSolveRequest(
        prepared=prepared, B=Bh, L=Lh, Ltilde=cluster.host(prepared.Ltilde)
    )


#: one request of every shape over hosted ``(cluster, L, B)`` operands
HOSTED_SHAPES = {
    "trsm-iterative": lambda c, L, B: TrsmRequest(L=L, B=B, algorithm="iterative"),
    "trsm-recursive": lambda c, L, B: TrsmRequest(L=L, B=B, algorithm="recursive"),
    "mm": lambda c, L, B: MMRequest(A=L, X=B),
    "inv-full": lambda c, L, B: InvRequest(L=L),
    "inv-diagonal": lambda c, L, B: InvRequest(L=L, n0=16, k_hint=B.shape[1]),
    "prepared-solve": _prepared_solve,
}


class TestPriceWhatYouExecute:
    """What the scheduler prices (``staging_targets``) and what ``execute``
    stages are read off one plan: same operands, same target ranks, same
    layouts, same order — on every candidate subgrid of every request type."""

    @pytest.mark.parametrize("shape", sorted(HOSTED_SHAPES))
    def test_executed_stagings_equal_priced_targets(self, shape, monkeypatch):
        cluster = Cluster(16, cache=False)
        Lh = cluster.host(random_lower_triangular(64, seed=0))
        Bh = cluster.host(random_dense(64, 8, seed=1))
        req = HOSTED_SHAPES[shape](cluster, Lh, Bh)
        staged = []
        stage_resident = cluster.stage_resident

        def spy(operand, grid, layout, label="cluster.stage"):
            staged.append(cache_key(operand, grid, layout))
            return stage_resident(operand, grid, layout, label=label)

        monkeypatch.setattr(cluster, "stage_resident", spy)
        sizes = req.candidate_sizes(cluster.p)
        assert sizes
        for size in sizes:
            grid = cluster.pool.preview(size)
            priced = [key for key, _g, _cost in req.staging_targets(grid, cluster.params)]
            assert priced, "every operand is resident"
            assert priced == [
                cache_key(D, g, layout)
                for D, g, layout in resident_placements(req, grid, cluster.params)
            ]
            del staged[:]
            req.execute(cluster, grid)
            assert staged == priced, f"{shape} on {size} ranks"
