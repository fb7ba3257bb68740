"""Smoke tests: every example script runs end to end on small inputs."""

import os
import pathlib
import subprocess
import sys


EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
SRC = EXAMPLES.parent / "src"


def run_example(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py", "64", "16", "16")
    assert "residual" in out
    assert "critical path" in out


def test_cholesky_solver():
    out = run_example("cholesky_solver.py", "64", "16", "16")
    assert "relative error" in out
    assert "forward solve" in out and "backward solve" in out


def test_regime_explorer():
    out = run_example("regime_explorer.py", "256", "64", "64")
    assert "Figure 1" in out
    assert "closed form" in out


def test_machine_comparison():
    out = run_example("machine_comparison.py", "48", "12")
    assert "latency_bound" in out
    assert "Strong scaling" in out


def test_repeated_solves():
    out = run_example("repeated_solves.py", "64", "16", "16", "10")
    assert "per application" in out
    assert "speedup" in out


def test_custom_algorithm():
    out = run_example("custom_algorithm.py", "64", "16", "8")
    assert "preconditioned Richardson" in out
    assert "per application" in out


def test_cluster_serve():
    out = run_example("cluster_serve.py", "16", "6")
    assert "modeled makespan" in out
    assert "packed 6 requests" in out
