"""The execution backend seam: SimBackend goldens, MPI plan wiring, config.

Three layers of guarantees:

* **Bit-identical defaults** — the refactor that routed every
  ``RoutingPlan.apply`` through ``Backend.execute_plan`` must not move a
  single bit: solver outputs, simulated times and replay makespans are
  pinned against goldens captured on the pre-backend tree.
* **MPI wiring without MPI** — the Alltoallv plan compiler
  (:meth:`RoutingPlan.messages` / :func:`build_alltoallv_rounds` /
  :func:`round_buffers`) is pure and testable in-process, every
  process's packed buffers are cross-checked for worlds of 2-4, and
  :class:`MPIBackend` runs end-to-end over :class:`LoopbackComm`.
* **Real-MPI parity** — when ``mpi4py`` and ``mpirun`` exist, a 4-process
  run must produce the same solution the simulator does (skipped
  cleanly otherwise; CI provisions MPI in a dedicated job).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.api import Cluster
from repro.api.serve import poisson_stream, replay
from repro.backend import (
    BACKEND_NAMES,
    Backend,
    PlanMeasurement,
    SimBackend,
    make_backend,
)
from repro.backend.mpi import (
    LoopbackComm,
    MPIBackend,
    build_alltoallv_rounds,
    round_buffers,
    virtual_rank_map,
)
from repro.dist import BlockedLayout, CyclicLayout, DistMatrix, redistribute
from repro.dist.routing import End, RoutingPlan
from repro.machine import CostParams, Machine
from repro.machine.validate import ParameterError
from repro.trsm.solver import trsm

ROOT = Path(__file__).resolve().parent.parent

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")


def value_hash(a) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(a, dtype=np.float64).tobytes()
    ).hexdigest()[:16]


def golden_trsm_inputs():
    rng = np.random.default_rng(7)
    n, k = 64, 32
    L = np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
    B = rng.standard_normal((n, k))
    return L, B


# ---------------------------------------------------------------------------
# bit-identical defaults (goldens captured on the pre-backend tree)
# ---------------------------------------------------------------------------


class TestSimBackendGoldens:
    def test_trsm_is_bit_identical_to_pre_backend_tree(self):
        L, B = golden_trsm_inputs()
        res = trsm(L, B, 16)
        assert value_hash(res.X) == "43050a20dcede743"
        assert res.time == pytest.approx(8.696213333333335e-05, rel=1e-12)

    def test_explicit_sim_backend_matches_default(self):
        L, B = golden_trsm_inputs()
        res = trsm(L, B, 16, backend=SimBackend())
        assert value_hash(res.X) == "43050a20dcede743"

    def test_replay_is_bit_identical_to_pre_backend_tree(self):
        stream = poisson_stream(6, rate=2000.0, n_range=(32, 64), k_range=(8, 32), seed=3)
        out = replay(stream, p=16)
        assert out.modeled_makespan == pytest.approx(0.0023809568255487466, rel=1e-12)
        assert out.measured_makespan == pytest.approx(0.0023914159745296168, rel=1e-12)
        assert [value_hash(np.asarray(r.value)) for r in out.records] == [
            "d7b213245f64192f",
            "94a26691fa22af11",
            "5b1d02e1d0976f80",
            "28b785e1733507f1",
            "2aeb7166e465882b",
            "62bab52c2ff7ff9d",
        ]

    def test_sim_measurements_have_zero_relative_error(self):
        backend = SimBackend()
        L, B = golden_trsm_inputs()
        trsm(L, B, 16, backend=backend)
        records = backend.measurements()
        assert records, "solver run must log plan executions"
        for rec in records:
            assert isinstance(rec, PlanMeasurement)
            assert rec.measured_seconds == rec.modeled_seconds
            assert rec.relative_error() == 0.0
            assert rec.words >= 0 and rec.phase


# ---------------------------------------------------------------------------
# backend resolution and Cluster configuration
# ---------------------------------------------------------------------------


class TestMakeBackend:
    def test_names(self):
        assert BACKEND_NAMES == ("sim", "mpi")

    def test_default_and_sim_are_fresh_sim_backends(self):
        a, b = make_backend(None), make_backend("sim")
        assert isinstance(a, SimBackend) and isinstance(b, SimBackend)
        assert a is not b

    def test_instance_passes_through(self):
        backend = SimBackend()
        assert make_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            make_backend("cuda")

    def test_mpi_without_mpi4py_is_a_clean_error(self):
        if any("mpi4py" in m for m in sys.modules):
            pytest.skip("mpi4py importable here; covered by the mpirun test")
        with pytest.raises(ParameterError, match="mpi4py"):
            make_backend("mpi")


class TestClusterConfig:
    def test_defaults(self):
        cluster = Cluster(8)
        assert isinstance(cluster.backend, SimBackend)
        assert cluster.machine.backend is cluster.backend
        assert cluster.opcache is not None

    def test_keywords_are_honoured(self):
        cluster = Cluster(8, params=UNIT, cache=False, policy="horizon")
        assert cluster.machine.params is UNIT
        assert cluster.opcache is None
        assert cluster.policy.name == "horizon"

    def test_backend_instance_is_threaded_through(self):
        backend = SimBackend()
        cluster = Cluster(8, backend=backend)
        assert cluster.backend is backend
        assert cluster.machine.backend is backend


# ---------------------------------------------------------------------------
# the Alltoallv plan compiler (pure, no MPI required)
# ---------------------------------------------------------------------------


def disjoint_grid_plan():
    """A 4x4 redistribute between disjoint 2x2 grids: 4 off-rank messages."""
    m = Machine(8, params=UNIT)
    g1, g2 = m.grid(2, 2), m.grid(2, 2)
    layout = CyclicLayout(2, 2)
    src = End(g1, layout, (4, 4))
    dst = End(g2, layout, (4, 4))
    return RoutingPlan(src, dst, (4, 4))


def uneven_plan():
    """7x9 cyclic -> blocked on one 2x4 grid: off-rank messages of
    unequal sizes beside on-rank copies."""
    g = Machine(8, params=UNIT).grid(2, 4)
    src = End(g, CyclicLayout(2, 4), (7, 9))
    dst = End(g, BlockedLayout(2, 4), (7, 9))
    return RoutingPlan(src, dst, (7, 9))


def wire_messages(plan):
    """What MPIBackend sends: the plan's messages that leave their rank."""
    return [m for m in plan.messages() if m.src != m.dst]


def words(msg) -> int:
    return len(msg.src_rows) * len(msg.src_cols)


class TestPlanCompiler:
    def test_wire_messages_are_the_off_rank_traffic(self):
        plan = disjoint_grid_plan()
        messages = wire_messages(plan)
        assert len(messages) == 4 == len(plan.messages())
        for msg in messages:
            assert words(msg) == 4
        assert [(m.src, m.dst, words(m)) for m in messages] == plan.pairs()

    def test_identity_plan_has_no_messages(self):
        """No wire messages, that is: all four are on-rank copies."""
        m = Machine(4, params=UNIT)
        g = m.grid(2, 2)
        end = End(g, CyclicLayout(2, 2), (4, 4))
        plan = RoutingPlan(end, end, (4, 4))
        assert len(plan.messages()) == 4
        assert wire_messages(plan) == []

    def test_virtual_rank_map_folds_round_robin(self):
        assert virtual_rank_map(8, 3).tolist() == [0, 1, 2, 0, 1, 2, 0, 1]
        with pytest.raises(ParameterError):
            virtual_rank_map(4, 0)

    @pytest.mark.parametrize("cap", [1, 3, 5, 2**31 - 1])
    def test_rounds_respect_per_process_budgets(self, cap):
        plan = disjoint_grid_plan()
        messages = wire_messages(plan)
        world = 2
        vmap = virtual_rank_map(8, world)
        rounds = build_alltoallv_rounds(messages, vmap, world, cap=cap)
        total = 0
        for segments in rounds:
            assert segments, "no empty rounds"
            send = np.zeros(world, dtype=np.int64)
            recv = np.zeros(world, dtype=np.int64)
            for seg in segments:
                assert 1 <= seg.words <= cap
                msg = messages[seg.message]
                send[int(vmap[msg.src])] += seg.words
                recv[int(vmap[msg.dst])] += seg.words
                total += seg.words
            assert send.max(initial=0) <= cap
            assert recv.max(initial=0) <= cap
        assert total == sum(words(m) for m in messages)

    def test_segments_cover_each_message_in_order(self):
        plan = disjoint_grid_plan()
        messages = wire_messages(plan)
        vmap = virtual_rank_map(8, 2)
        rounds = build_alltoallv_rounds(messages, vmap, 2, cap=3)
        progress = {i: 0 for i in range(len(messages))}
        for segments in rounds:
            for seg in segments:
                assert seg.offset == progress[seg.message]
                progress[seg.message] += seg.words
        assert progress == {i: words(m) for i, m in enumerate(messages)}

    def test_round_buffers_world_of_one_is_a_self_copy(self):
        plan = disjoint_grid_plan()
        messages = wire_messages(plan)
        vmap = virtual_rank_map(8, 1)
        blocks = {
            r: np.arange(4.0).reshape(2, 2) + 10 * r for r in range(8)
        }
        payloads = [
            blocks[m.src][m.src_rows[:, None], m.src_cols].ravel() for m in messages
        ]
        (rounds,) = [build_alltoallv_rounds(messages, vmap, 1, cap=2**31 - 1)][0]
        sendbuf, scounts, sdispls, rcounts, rdispls, expected = round_buffers(
            rounds, messages, payloads, vmap, 1, 0
        )
        assert scounts.dtype == np.int32 and sdispls.dtype == np.int32
        assert np.array_equal(scounts, rcounts)
        assert np.array_equal(sendbuf, expected)
        assert int(scounts.sum()) == sum(words(m) for m in messages)

    @pytest.mark.parametrize("world", [2, 3, 4])
    @pytest.mark.parametrize("cap", [1, 3, 2**31 - 1])
    def test_every_process_packs_what_its_peers_expect(self, world, cap):
        """The multi-process Alltoallv contract, checked without MPI: in
        every round, process q's expected slice from p is exactly process
        p's send slice to q, and each message's words arrive once, in
        order."""
        plan = uneven_plan()
        messages = wire_messages(plan)
        assert len({words(m) for m in messages}) > 1
        vmap = virtual_rank_map(8, world)
        # distinct values per message and word, so a misplaced word shows
        payloads = [
            1000.0 * i + np.arange(words(m), dtype=np.float64)
            for i, m in enumerate(messages)
        ]
        received = {q: [] for q in range(world)}
        for segments in build_alltoallv_rounds(messages, vmap, world, cap=cap):
            bufs = [
                round_buffers(segments, messages, payloads, vmap, world, q)
                for q in range(world)
            ]
            for p, (sendbuf, scounts, sdispls, _, _, _) in enumerate(bufs):
                assert scounts.dtype == np.int32 and sdispls.dtype == np.int32
                assert len(sendbuf) == int(scounts.sum(dtype=np.int64)) <= cap
                for q, (_, _, _, rcounts, rdispls, expected) in enumerate(bufs):
                    assert len(expected) == int(rcounts.sum(dtype=np.int64)) <= cap
                    assert scounts[q] == rcounts[p]
                    sent = sendbuf[sdispls[q] : sdispls[q] + scounts[q]]
                    due = expected[rdispls[p] : rdispls[p] + rcounts[p]]
                    assert np.array_equal(sent, due)
            for q, (*_, expected) in enumerate(bufs):
                received[q].append(expected)
        for i, m in enumerate(messages):
            got = np.concatenate(received[int(vmap[m.dst])])
            assert np.array_equal(got[got // 1000 == i], payloads[i])

    def test_invalid_cap_rejected(self):
        with pytest.raises(ParameterError):
            build_alltoallv_rounds([], virtual_rank_map(4, 2), 2, cap=0)


# ---------------------------------------------------------------------------
# MPIBackend over the loopback communicator
# ---------------------------------------------------------------------------


class TestLoopbackMPIBackend:
    def test_redistribute_matches_sim_bit_for_bit(self):
        A = np.arange(36.0).reshape(6, 6)

        def run(backend: Backend):
            m = Machine(8, params=UNIT, backend=backend)
            g1, g2 = m.grid(2, 2), m.grid(2, 2)
            D = DistMatrix.from_global(m, g1, CyclicLayout(2, 2), A)
            return redistribute(D, g2, CyclicLayout(2, 2)).to_global()

        sim = run(SimBackend())
        mpi = run(MPIBackend(comm=LoopbackComm(), chunk_limit=5))
        assert np.array_equal(sim, A)
        assert np.array_equal(mpi, A)

    def test_trsm_matches_sim_bit_for_bit(self):
        L, B = golden_trsm_inputs()
        backend = MPIBackend(comm=LoopbackComm(), chunk_limit=257)
        res = trsm(L, B, 16, backend=backend)
        assert value_hash(res.X) == "43050a20dcede743"
        # parity within one run, not only through the pinned constant
        assert res.X.tobytes() == trsm(L, B, 16, backend=SimBackend()).X.tobytes()

    def test_chunking_produces_multiple_rounds_and_wall_clock(self):
        backend = MPIBackend(comm=LoopbackComm(), chunk_limit=5)
        A = np.arange(36.0).reshape(6, 6)
        m = Machine(8, params=UNIT, backend=backend)
        g1, g2 = m.grid(2, 2), m.grid(2, 2)
        D = DistMatrix.from_global(m, g1, CyclicLayout(2, 2), A)
        redistribute(D, g2, CyclicLayout(2, 2))
        routed = [r for r in backend.measurements() if r.words > 0]
        assert routed, "the disjoint-grid redistribute moves words"
        rec = routed[-1]
        assert rec.rounds >= 2, "chunk_limit=5 must split 9-word blocks"
        # a world of one folds every vrank onto the same process: all the
        # plan's traffic is co-located, none of it crosses a wire
        assert rec.colocated_words == rec.words
        assert rec.measured_seconds > 0.0
        assert rec.modeled_seconds > 0.0

    def test_world_size_and_flags(self):
        backend = MPIBackend(comm=LoopbackComm())
        assert backend.name == "mpi"
        assert backend.is_real is True
        assert backend.world_size == 1
        assert backend.timer() > 0.0


# ---------------------------------------------------------------------------
# the modeled-vs-measured report
# ---------------------------------------------------------------------------


class TestValidationReport:
    def test_sim_report_has_zero_error_sections(self):
        from repro.analysis import validation_report

        backend = SimBackend()
        stream = poisson_stream(4, rate=2000.0, n_range=(32, 64), k_range=(8, 32), seed=3)
        outcome = replay(stream, p=16, backend=backend)
        report = validation_report(backend, outcome)
        assert report.backend == "sim"
        assert report.is_real is False
        assert report.by_phase and report.by_label
        for row in report.by_phase + report.by_label:
            assert row.relative_error == 0.0
        total = report.total()
        assert total.plans == len(backend.measurements())
        text = report.render()
        assert "modeled vs measured" in text
        assert "self-consistent" in text

    def test_loopback_report_is_wall_clock(self):
        from repro.analysis import validation_report

        backend = MPIBackend(comm=LoopbackComm())
        L, B = golden_trsm_inputs()
        trsm(L, B, 16, backend=backend)
        report = validation_report(backend)
        assert report.is_real is True
        assert "wall-clock" in report.render()
        assert report.total().measured_seconds > 0.0


# ---------------------------------------------------------------------------
# real-MPI parity (skips cleanly when the toolchain is absent)
# ---------------------------------------------------------------------------


def have_mpi() -> bool:
    import importlib.util

    return (
        importlib.util.find_spec("mpi4py") is not None
        and shutil.which("mpirun") is not None
    )


@pytest.mark.skipif(not have_mpi(), reason="mpi4py and mpirun required")
class TestRealMPIParity:
    def test_mpirun_np4_matches_sim(self, tmp_path):
        script = tmp_path / "parity.py"
        script.write_text(
            textwrap.dedent(
                """
                import hashlib
                import numpy as np
                from mpi4py import MPI
                from repro.backend.mpi import MPIBackend
                from repro.trsm.solver import trsm

                rng = np.random.default_rng(7)
                n, k = 64, 32
                L = np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
                B = rng.standard_normal((n, k))
                res = trsm(L, B, 16, backend=MPIBackend())
                digest = hashlib.sha256(
                    np.ascontiguousarray(res.X, dtype=np.float64).tobytes()
                ).hexdigest()[:16]
                if MPI.COMM_WORLD.Get_rank() == 0:
                    print(digest)
                """
            )
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        out = subprocess.run(
            ["mpirun", "-np", "4", sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "43050a20dcede743"
