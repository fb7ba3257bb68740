"""E13 — wall-clock micro-benchmarks of the local kernels.

Unlike the other benches (which measure *simulated* S/W/F), these measure
real Python/numpy wall time of the sequential kernels via pytest-benchmark
— the "is the base-case kernel BLAS-3 rich?" sanity check behind the
blocked formulations, plus a simulator-overhead measurement.
"""

import numpy as np
import pytest

from repro.inversion.sequential import (
    forward_substitution,
    invert_lower_triangular,
    trsm_lower_sequential,
)
from repro.machine import Machine
from repro.util.randmat import random_dense, random_lower_triangular

N = 192
K = 48


@pytest.fixture(scope="module")
def operands():
    return random_lower_triangular(N, seed=0), random_dense(N, K, seed=1)


def test_forward_substitution_wallclock(benchmark, operands):
    L, B = operands
    X = benchmark(lambda: forward_substitution(L, B))
    assert np.allclose(L @ X, B, atol=1e-9)


def test_blocked_trsm_wallclock(benchmark, operands):
    L, B = operands
    X = benchmark(lambda: trsm_lower_sequential(L, B, check=False))
    assert np.allclose(L @ X, B, atol=1e-9)


def test_blocked_beats_unblocked(benchmark):
    """The BLAS-3 blocked kernel must not be slower than row-by-row
    substitution at this size (it batches the updates into GEMMs).

    One call takes about a millisecond, so a single timing is at the mercy
    of a scheduler hiccup: each sample times enough back-to-back calls to
    last at least 20 ms, the two kernels alternate round by round (so a
    slow spell on the box hits both), and each keeps its best of 7 rounds.
    """
    import time

    L = random_lower_triangular(N, seed=0)
    B = random_dense(N, K, seed=1)
    kernels = (
        lambda: forward_substitution(L, B),
        lambda: trsm_lower_sequential(L, B, check=False),
    )

    def sample(fn, calls):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    def calls_for(fn):
        calls = 1
        while sample(fn, calls) < 0.02:
            calls *= 2
        return calls

    def compare():
        calls = [calls_for(fn) for fn in kernels]
        best = [float("inf")] * len(kernels)
        for _ in range(7):
            for i, fn in enumerate(kernels):
                best[i] = min(best[i], sample(fn, calls[i]) / calls[i])
        return best

    t_unblocked, t_blocked = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert t_blocked < t_unblocked * 1.2


def test_inversion_wallclock(benchmark, operands):
    """Inversion is the blocked solve against the identity (no recursion)."""
    L, _ = operands
    X = benchmark(lambda: invert_lower_triangular(L, check=False))
    assert np.allclose(L @ X, np.eye(N), atol=1e-8)


def test_simulated_solve_wallclock(benchmark):
    """End-to-end wall time of one simulated 16-rank solve — tracks the
    simulator's own overhead so regressions in the harness show up."""
    from repro import trsm

    L = random_lower_triangular(64, seed=2)
    B = random_dense(64, 16, seed=3)

    def run():
        return trsm(L, B, p=16, n0=16)

    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert res.residual < 1e-12


def test_machine_charge_overhead(benchmark):
    """Throughput of the charging hot path (vectorized numpy counters)."""
    from repro.machine.cost import Cost

    machine = Machine(64)
    group = list(range(64))
    cost = Cost(1, 100, 1000)

    def charge_many():
        for _ in range(100):
            machine.charge(group, cost)

    benchmark(charge_many)
    assert machine.critical_path().S > 0
