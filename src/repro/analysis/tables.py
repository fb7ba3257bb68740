"""The paper's tables, regenerated from models and/or simulation.

* :func:`conclusion_table` — Section IX: S/W/F of standard vs new method in
  all three regimes (model sweep; the benches add simulator spot checks);
* :func:`mm_line_table` — Section III-A: per-line MM costs, model vs
  simulated trace;
* :func:`iterative_parts_table` — Section VII: inversion/solve/update parts,
  model vs simulated phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.cost import Cost
from repro.machine.machine import Machine
from repro.trsm.cost_model import conclusion_row
from repro.tuning.regimes import TrsmRegime


@dataclass(frozen=True)
class ConclusionEntry:
    regime: TrsmRegime
    n: int
    k: int
    p: int
    standard: Cost
    new: Cost

    @property
    def latency_ratio(self) -> float:
        return self.standard.S / self.new.S if self.new.S else float("inf")


def conclusion_table(
    cases: list[tuple[int, int, int]] | None = None
) -> list[ConclusionEntry]:
    """Section IX comparison rows for representative (n, k, p) triples.

    The default cases put one triple deep inside each regime at several
    machine sizes.
    """
    from repro.tuning.regimes import classify_trsm

    if cases is None:
        cases = []
        k = 64
        for p in (64, 1024, 16384):
            cases.append((k, 4 * k * p, p))  # 1D: n < 4k/p
            cases.append((8 * k * int(p**0.5), k, p))  # 2D: n > 4k sqrt(p)
            cases.append((4 * k, k, p))  # 3D: between the thresholds
    out = []
    for n, k, p in cases:
        row = conclusion_row(n, k, p)
        out.append(
            ConclusionEntry(
                regime=classify_trsm(n, k, p),
                n=n,
                k=k,
                p=p,
                standard=row["standard"],
                new=row["new"],
            )
        )
    return out


def mm_line_table(
    n: int, k: int, p1: int, p2: int, m: int | None = None, seed: int = 0
) -> list[tuple[str, Cost, Cost]]:
    """(line, modeled, simulated) for one MM run.

    mm3d labels every charge ``mm3d.lineN``; routing each label into a
    machine phase gives per-rank sums per line, whose componentwise max is
    the line's critical-path cost (concurrent fiber groups don't stack).
    """
    import math

    from repro.dist.distmatrix import DistMatrix
    from repro.dist.layout import CyclicLayout
    from repro.mm.cost_model import mm3d_cost_lines
    from repro.util.randmat import random_dense

    if m is None:
        m = n
    sq = math.isqrt(p2)
    sp = p1 * sq
    p = sp * sp
    machine = Machine(p)
    grid = machine.grid(sp, sp)
    layout = CyclicLayout(sp, sp)
    A = random_dense(m, n, seed=seed)
    X = random_dense(n, k, seed=seed + 1)
    dA = DistMatrix.from_global(machine, grid, layout, A)
    dX = DistMatrix.from_global(machine, grid, layout, X)
    result = _simulate_mm_with_phases(machine, dA, dX, p1)
    assert np.allclose(result.to_global(), A @ X)
    model = mm3d_cost_lines(n, k, p1, p2, m=m)
    out = []
    for line in sorted(model.keys()):
        out.append((line, model[line], machine.phase_cost(f"mm3d.{line}")))
    return out


def _simulate_mm_with_phases(machine, dA, dX, p1):
    """Run mm3d with each line's charges wrapped in a phase.

    mm3d labels its charges "mm3d.lineN"; we monkey-route labels to phases
    by intercepting Machine.charge.
    """
    original_charge = machine.charge
    original_local = machine.charge_local

    def charge(group, cost, label="", sync=True):
        if label.startswith("mm3d."):
            with machine.phase(label):
                original_charge(group, cost, label=label, sync=sync)
        else:
            original_charge(group, cost, label=label, sync=sync)

    def charge_local(rank_costs, label=""):
        if label.startswith("mm3d."):
            with machine.phase(label):
                original_local(rank_costs, label=label)
        else:
            original_local(rank_costs, label=label)

    machine.charge = charge
    machine.charge_local = charge_local
    try:
        from repro.mm.mm3d import mm3d

        return mm3d(dA, dX, p1)
    finally:
        machine.charge = original_charge
        machine.charge_local = original_local


def iterative_parts_table(
    n: int, k: int, p1: int, p2: int, n0: int, seed: int = 0
) -> list[tuple[str, Cost, Cost]]:
    """(part, modeled, simulated) for inversion / solve / update."""
    from repro.trsm.cost_model import iterative_parts
    from repro.trsm.iterative import it_inv_trsm_global
    from repro.util.randmat import random_dense, random_lower_triangular

    machine = Machine(p1 * p1 * p2)
    L = random_lower_triangular(n, seed=seed)
    B = random_dense(n, k, seed=seed + 1)
    it_inv_trsm_global(machine, L, B, p1=p1, p2=p2, n0=n0)
    model = iterative_parts(n, k, n0, p1, p2)
    return [
        ("inversion", model.inversion, machine.phase_cost("inversion")),
        ("solve", model.solve, machine.phase_cost("solve")),
        ("update", model.update, machine.phase_cost("update")),
    ]
