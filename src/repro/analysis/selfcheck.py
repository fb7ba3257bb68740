"""Built-in acceptance battery: one call that proves the install works.

``run_selfcheck()`` executes a compact matrix of configurations — every
regime, both algorithms, a prepared solve — verifying numerics against
SciPy and sanity-checking the cost counters.  It is what a downstream user
should run right after installing (``python -m repro selfcheck``), and what
CI would gate on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    seconds: float = 0.0


@dataclass
class SelfCheckReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.ok else "FAIL"
            lines.append(f"[{status}] {r.name:42s} {r.seconds * 1e3:8.1f} ms  {r.detail}")
        lines.append("")
        n_ok = sum(r.ok for r in self.results)
        lines.append(f"{n_ok}/{len(self.results)} checks passed")
        return "\n".join(lines)


def _check(report: SelfCheckReport, name: str, fn) -> None:
    t0 = time.perf_counter()
    try:
        detail = fn() or ""
        report.results.append(
            CheckResult(name, True, str(detail), time.perf_counter() - t0)
        )
    except Exception as exc:  # noqa: BLE001 - battery reports, not raises
        report.results.append(
            CheckResult(name, False, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0)
        )


def run_selfcheck(quick: bool = False) -> SelfCheckReport:
    """Run the acceptance battery; returns a report (never raises)."""
    from repro import PreparedTrsm, random_dense, random_lower_triangular, trsm

    report = SelfCheckReport()
    sizes = (32, 8, 4) if quick else (96, 24, 16)
    n, k, p = sizes

    def solve_case(regime_name, nn, kk, algorithm):
        def fn():
            L = random_lower_triangular(nn, seed=1)
            B = random_dense(nn, kk, seed=2)
            res = trsm(L, B, p=p, algorithm=algorithm)
            ref = sla.solve_triangular(L, B, lower=True)
            assert np.allclose(res.X, ref, atol=1e-8), "solution mismatch"
            assert res.residual is not None and res.residual < 1e-10
            assert res.measured.F > 0
            return f"residual {res.residual:.1e}"

        _check(report, f"{algorithm} TRSM ({regime_name})", fn)

    solve_case("3D regime", n, k, "iterative")
    solve_case("3D regime", n, k, "recursive")
    solve_case("wide RHS", max(n // 8, 4), 8 * k, "iterative")
    solve_case("tall L", 4 * n, max(k // 8, 1), "iterative")

    def prepared():
        L = random_lower_triangular(n, seed=3)
        solver = PreparedTrsm(L, p=p, k_hint=k, n0=None)
        for s in range(2):
            B = random_dense(n, k, seed=4 + s)
            X = solver.solve(B)
            assert np.allclose(L @ X, B, atol=1e-8)
        return f"2 solves, prep F={solver.preparation_cost.F:.0f}"

    _check(report, "PreparedTrsm repeated solves", prepared)

    def counters():
        L = random_lower_triangular(n, seed=7)
        B = random_dense(n, k, seed=8)
        res = trsm(L, B, p=p)
        cp = res.measured
        assert cp.S >= 0 and cp.W >= 0 and cp.F > 0
        assert res.time > 0
        phases = res.phase_costs()
        assert "solve" in phases
        return f"S={cp.S:.0f} W={cp.W:.0f} F={cp.F:.0f}"

    _check(report, "cost counters / phases", counters)

    return report
