"""The benchmark harness checks itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf/tests -q``
(outside the tier-1 ``testpaths``).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
sys.path.insert(0, str(PERF.parent))

from perf import layers, manifest, stats, trace  # noqa: E402
from perf.checks import Placement, schedule_failures, sim_digest, solve_failure  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402


# -- span arithmetic ---------------------------------------------------------


def test_self_time_is_duration_minus_direct_children():
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (1, 5.0, 9.0, 0)]
    assert trace.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # self times add up to the root span, whatever the nesting
    assert sum(trace.self_times(spans)) == 10.0


def test_inclusive_time_counts_recursion_once():
    targets = [trace.Target("trsm", "m", "rec", "rec"), trace.Target("mm", "m", "mm3d")]
    tracer = trace.Tracer("synthetic", targets)
    tracer.spans = [(0, 0.0, 10.0, -1), (0, 1.0, 6.0, 0), (1, 2.0, 3.0, 1), (0, 7.0, 9.0, 0)]
    tracer.counts = [3, 1]
    rec, mm = tracer.by_target()
    assert (rec["calls"], rec["inclusive_s"], rec["self_s"]) == (3, 10.0, 9.0)
    assert (mm["calls"], mm["inclusive_s"], mm["self_s"]) == (1, 1.0, 1.0)
    assert tracer.root_seconds() == 10.0


def test_layer_metrics_sum_to_the_root_span():
    def row(layer, name, label, inclusive_s, self_s):
        return {
            "layer": layer,
            "name": name,
            "label": label,
            "calls": 1,
            "inclusive_s": inclusive_s,
            "self_s": self_s,
            "spans_dropped": False,
        }

    rows = [
        row("api", "Cluster.run", "run", 4.0, 1.0),
        row("sched", "Scheduler.schedule", "schedule", 3.0, 3.0),
    ]
    counters = {"sched.search_nodes": 6.0, "not.a.metric": 1.0}
    out = layers.layer_metrics(rows, 4.0, counters, 2, 5.0, 4.0)
    assert sum(out[f"{layer}.self_s"] for layer in layers.LAYERS) == 4.0
    assert out["sched.us_per_request"] == 1.5e6 and out["sched.us_per_node"] == 0.5e6
    assert out["trace.overhead_pct"] == 25.0 and out["trace.coverage_pct"] == 80.0
    assert "not.a.metric" not in out
    specific = {name for name, _, _ in layers.WORKLOAD_SPECIFIC}
    assert set(out) | specific == {name for name, _, _ in layers.PER_LAYER}


# -- the percentile rule -------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.highest_supported_percentile(n) == expected


def test_nearest_rank_matches_the_programs_percentiles():
    from repro.api.cluster import latency_percentiles

    values = list(np.random.default_rng(0).random(137))
    ours = {q: stats.nearest_rank(values, q) for q in (50.0, 95.0, 99.0)}
    assert ours == latency_percentiles(values)


def test_spread_is_interquartile_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    s = stats.summarize(values)
    assert (s["median"], s["n"]) == (5.5, 10)
    assert s["spread"] == pytest.approx((s["q3"] - s["q1"]) / 5.5)
    assert stats.spread([3.0]) == 0.0


# -- patching ------------------------------------------------------------------


def _bindings() -> dict:
    import repro  # noqa: F401

    seen = {
        (name, attr): id(value)
        for name, mod in list(sys.modules.items())
        if mod is not None and name.partition(".")[0] == "repro"
        for attr, value in list(vars(mod).items())
    }
    for target in layers.TARGETS:
        owner, _, attr = target.qualname.rpartition(".")
        if owner:
            cls = getattr(sys.modules[target.module], owner)
            seen[(target.module, target.qualname)] = id(cls.__dict__[attr])
    return seen


def test_patch_then_restore_leaves_every_binding_identical():
    import repro.api.serve
    import repro.util
    from repro.util.randmat import random_dense

    tracer = trace.Tracer("patching", layers.TARGETS)
    tracer.install()
    tracer.restore()  # imports every target module, so the snapshot below is complete
    before = _bindings()
    tracer = trace.Tracer("patching", layers.TARGETS)
    with tracer:
        # `from x import f` copies are caught, not just the defining module
        assert repro.random_dense is not random_dense
        assert repro.util.random_dense is repro.random_dense
        assert repro.api.serve.random_dense is repro.random_dense
        # a copy made while the tracer is installed is put back too
        repro.util.late_copy = repro.util.randmat.random_dense
        repro.random_dense(4, 2, seed=0)
        repro.DistMatrix.to_global  # classmethod/instance-method targets stay callable
    assert repro.util.late_copy is random_dense
    del repro.util.late_copy
    assert _bindings() == before
    counts = {t.qualname: tracer.counts[i] for i, t in enumerate(tracer.targets)}
    assert counts["random_dense"] == 1 and len(tracer.spans) == 1


def test_count_only_targets_record_no_spans():
    import repro

    rank = trace.Target("machine", "repro.machine.topology", "ProcessorGrid.rank", count_only=True)
    targets = [rank]
    with trace.Tracer("hot", targets) as tracer:
        grid = repro.Machine(4).grid(2, 2)
        grid.rank((1, 1))
    assert tracer.counts[0] >= 1 and tracer.spans == []
    assert tracer.by_target()[0]["spans_dropped"]


# -- output checks ---------------------------------------------------------------


def test_schedule_checker_accepts_a_valid_packing():
    ok = [
        Placement(0, 0.0, 0.0, 2.0, (0, 1)),
        Placement(1, 0.0, 0.0, 1.0, (2, 3)),
        Placement(2, 0.5, 1.0, 3.0, (2, 3)),  # starts exactly when its ranks free up
        Placement(3, 2.0, 2.0, 2.5, (0,)),
    ]
    assert schedule_failures(ok, range(4)) == {}


def test_schedule_checker_rejects_a_hand_made_overlap():
    bad = [
        Placement(0, 0.0, 0.0, 2.0, (0, 1)),
        Placement(1, 0.0, 1.0, 3.0, (1, 2)),  # rank 1 is busy until t=2
    ]
    failures = schedule_failures(bad, range(2))
    assert set(failures) == {1} and "rank 1" in failures[1]


def test_schedule_checker_rejects_early_duplicate_and_missing():
    bad = [
        Placement(0, 1.0, 0.5, 2.0, (0,)),  # before its arrival
        Placement(1, 0.0, 0.0, 1.0, (1,)),
        Placement(1, 0.0, 2.0, 3.0, (1,)),  # placed twice
        Placement(7, 0.0, 0.0, 1.0, (3,)),  # never submitted
    ]
    failures = schedule_failures(bad, range(3))
    assert "before its arrival" in failures[0]
    assert "exactly once" in failures[1] and "exactly once" in failures[2]
    assert "never submitted" in failures[7]


def test_solve_failure_and_digest():
    L = np.tril(np.ones((4, 4))) + 3 * np.eye(4)
    B = np.arange(8.0).reshape(4, 2)
    X = np.linalg.solve(L, B)
    assert solve_failure(X, None, lambda: (L, B)) is None
    assert "residual" in solve_failure(X + 1e-3, None, lambda: (L, B))
    assert "residual" in solve_failure(X, 1e-3, lambda: (L, B))
    assert "non-finite" in solve_failure(X * np.nan, 0.0, lambda: (L, B))
    rows = [(0, 4, (0.1).hex(), (0, 1))]
    assert sim_digest(rows) == sim_digest(list(rows))
    assert sim_digest(rows) != sim_digest([(0, 4, (0.1000000001).hex(), (0, 1))])


# -- the workloads, tiny -----------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_clean_at_a_tiny_count(name):
    workload = WORKLOADS[name]
    inputs = workload.build(5, warm=True)  # the ~10 % warm-up size
    done = workload.run(inputs)
    ev = workload.evaluate(inputs, done)
    assert ev.failures == [] and ev.failed == 0
    assert done.attempted >= 1 and done.seconds > 0.0
    assert ev.sim["sim_makespan_us"] > 0.0 and len(ev.digest) == 64
    again = workload.evaluate(inputs, workload.run(inputs))
    assert again.digest == ev.digest and again.sim == ev.sim  # sim numbers repeat exactly


def test_a_corrupted_solution_counts_as_failed():
    workload = WORKLOADS["serve_unshared"]
    inputs = workload.build(5, warm=True)
    done = workload.run(inputs)
    done.raw.outcome.records[0].value[:] = np.nan
    ev = workload.evaluate(inputs, done)
    assert ev.failed == 1 and "non-finite" in ev.failures[0]


# -- the contract --------------------------------------------------------------------


def test_benchmark_json_is_the_manifest_and_within_the_contract():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == manifest.manifest()
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(committed) == keys
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    names += [w["name"] for w in committed["workloads"]]
    assert len(names) == len(set(names)) and all(name_re.match(n) for n in names)
    assert all(unit_re.match(m["unit"]) for m in committed["end_to_end"] + committed["per_layer"])
    assert 2 <= len(committed["workloads"]) <= 8 and len(committed["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    setup = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    assert setup in committed["end_to_end"]
    runs = 4 + 22 * len(committed["workloads"])
    assert 1 <= committed["run_seconds"] <= 60 and runs * 25 <= 3420


def test_without_the_program_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(PERF, tmp_path / "benchmarks" / "perf", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "benchmarks/perf/run.py", "--workload", "sched_pack"]
    cmd += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
