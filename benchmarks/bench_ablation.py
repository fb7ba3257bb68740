"""E10 — ablations on the design choices PAPER.md calls out ("The
algorithms" and "Deviations from the printed paper").

Three knobs, each isolated on the simulator:

* **block size n0** — the paper's central dial between "pure TRSM"
  (n0 small: many cheap iterations, latency-bound) and "full inversion"
  (n0 = n: one giant inversion, bandwidth/flop-bound).  The tuned value
  must sit in the interior sweet spot on a latency-bound machine, and the
  simulated time curve must be U-shaped (or monotone toward the tuned
  endpoint in degenerate regimes);
* **grid split (p1, p2)** — 2D vs 3D processor layouts for the same p:
  bandwidth falls as p2 grows while memory rises (the replication
  tradeoff);
* **selective vs full inversion** — inverting only diagonal blocks must
  beat inverting all of L when k << n (the work-efficiency argument of
  Section I).
"""

from repro.analysis import format_table
from repro.machine import CostParams, HARDWARE_PRESETS, Machine
from repro.dist import CyclicLayout, DistMatrix
from repro.mm import mm3d
from repro.trsm.solver import trsm
from repro.util.randmat import random_dense, random_lower_triangular

UNIT = CostParams(alpha=1.0, beta=1.0, gamma=1.0, name="unit")


def test_n0_ablation(benchmark, emit):
    n, k, p = 128, 16, 16
    L = random_lower_triangular(n, seed=0)
    B = random_dense(n, k, seed=1)
    params = HARDWARE_PRESETS["latency_bound"]

    def sweep():
        rows = []
        for n0 in (8, 16, 32, 64, 128):
            r = trsm(L, B, p=p, n0=n0, params=params)
            rows.append(
                [n0, r.time * 1e3, r.measured.S, r.measured.W, r.measured.F]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "E10_ablation_n0",
        format_table(
            ["n0", "time ms", "S", "W", "F"],
            rows,
            title=f"Block-size ablation (n={n}, k={k}, p={p}, latency-bound)",
        ),
    )
    times = [r[1] for r in rows]
    ss = [r[2] for r in rows]
    # latency falls as blocks grow (fewer iterations; the trend is in the
    # endpoints — interior points wiggle with the inversion-subgrid shape)
    assert ss[-1] < 0.5 * ss[0]
    # ...while flops rise toward full inversion
    fs = [r[4] for r in rows]
    assert fs[-1] > fs[0]
    # and the best time is not at the smallest block size
    assert min(times) < times[0]


def test_grid_split_ablation(benchmark, emit):
    # k << n so the replicated left operand (not the X slabs) dominates
    # the working set — the regime where the memory tradeoff is visible
    n, k = 64, 8

    def sweep():
        rows = []
        for p1, sq in ((8, 1), (4, 2), (2, 4), (1, 8)):
            sp = p1 * sq
            machine = Machine(sp * sp, params=UNIT)
            grid = machine.grid(sp, sp)
            lay = CyclicLayout(sp, sp)
            A = random_dense(n, n, seed=0)
            X = random_dense(n, k, seed=1)
            dA = DistMatrix.from_global(machine, grid, lay, A)
            dX = DistMatrix.from_global(machine, grid, lay, X)
            mm3d(dA, dX, p1)
            cp = machine.critical_path()
            rows.append(
                [
                    f"({p1},{sq * sq})",
                    cp.S,
                    cp.W,
                    machine.memory.peak_words(),
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "E10_ablation_grid_split",
        format_table(
            ["(p1,p2)", "S", "W", "peak words/rank"],
            rows,
            title=f"MM grid-split ablation (n={n}, k={k}, p=64)",
        ),
    )
    # replication memory rises monotonically with p2
    mems = [r[3] for r in rows]
    assert all(b >= a for a, b in zip(mems, mems[1:]))
    assert mems[-1] > 4 * mems[0]


def test_selective_vs_full_inversion(benchmark, emit):
    """Work efficiency: with k << n, inverting only the diagonal blocks
    does asymptotically less arithmetic than inverting all of L."""
    n, k, p = 128, 8, 16
    L = random_lower_triangular(n, seed=2)
    B = random_dense(n, k, seed=3)

    def run():
        r_sel = trsm(L, B, p=p, n0=16, params=UNIT)  # selective
        r_full = trsm(L, B, p=p, n0=n, params=UNIT)  # full inversion
        return r_sel, r_full

    r_sel, r_full = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "E10_selective_vs_full",
        format_table(
            ["variant", "S", "W", "F", "time ms", "residual"],
            [
                ["selective (n0=16)", r_sel.measured.S, r_sel.measured.W,
                 r_sel.measured.F, r_sel.time * 1e3, f"{r_sel.residual:.1e}"],
                ["full inversion (n0=n)", r_full.measured.S, r_full.measured.W,
                 r_full.measured.F, r_full.time * 1e3, f"{r_full.residual:.1e}"],
            ],
            title=f"Selective vs full inversion (n={n}, k={k}, p={p})",
        ),
    )
    assert r_sel.measured.F < r_full.measured.F
    assert r_sel.residual < 1e-12 and r_full.residual < 1e-12
