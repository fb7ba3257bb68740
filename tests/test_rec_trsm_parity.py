"""Rec-TRSM base-case contract: one stacked solve, the same charges.

The base case charges the Section IV schedule per grid column (allgather
``L``, an all-to-all of ``B``, per-rank local flops, an all-to-all back)
but executes one sequential solve over ``B``'s stacked columns.  The
rank-by-rank implementation it replaced is pinned verbatim in
``tests/recursive_reference.py``; this suite runs ``rec_trsm`` with each
base case on the same hypothesis inputs — ``n`` in 1..40 (ragged
included), ``k`` in 1..24, square grids and the column-partitioning grids
2x4 / 2x8, on permuted non-consecutive ranks, cutoffs that force the base
case and the recursion, and every layout family on the base case alone —
and asserts:

* the ledger is byte-identical (clock, S, W, F per rank), as are
  ``total_volume()``, the memory peaks, and every phase and region cost,
  per rank;
* every block is private: float64, C-contiguous, writeable, sharing
  memory with no ``B`` block and no other block;
* values agree within rounding, ``max|X - X_ref| <= 4 n eps max|X_ref|``
  (one stacked solve and per-rank solves may round differently on ragged
  shapes, so values are not pinned bitwise here; the measured-cost
  goldens in ``tests/test_rec_trsm.py`` pin the solution hash).
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from recursive_reference import reference_base_case
from repro.dist import DistMatrix
from repro.dist.layout import (
    BlockCyclicLayout,
    BlockedLayout,
    CyclicLayout,
    RowCyclicColBlockedLayout,
)
from repro.machine import Machine
from repro.machine.topology import ProcessorGrid
from repro.trsm import recursive
from repro.util.randmat import random_dense, random_lower_triangular

GRIDS = [(1, 1), (2, 2), (4, 4), (2, 4), (2, 8)]


@st.composite
def problems(draw):
    """Operands, a grid of permuted non-consecutive ranks, a layout and a
    cutoff; non-cyclic layouts run the base case alone (the recursion and
    the column partitioning assume the cyclic layout)."""
    n, k = draw(st.integers(1, 40)), draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["cyclic", "cyclic", "blocked", "blockcyclic", "rowcyclic"]))
    if kind == "cyclic":
        pr, pc = draw(st.sampled_from(GRIDS))
        n0 = draw(st.one_of(st.integers(1, 8), st.integers(n, 48)))
    else:
        pr = pc = draw(st.sampled_from([1, 2, 4]))
        n0 = n
    b1, b2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    layout = {
        "cyclic": lambda: CyclicLayout(pr, pc),
        "blocked": lambda: BlockedLayout(pr, pc),
        "blockcyclic": lambda: BlockCyclicLayout(pr, pc, b1, b2),
        "rowcyclic": lambda: RowCyclicColBlockedLayout(pr, pc, b1),
    }[kind]()
    ranks = draw(st.permutations(range(2 * pr * pc)))[: pr * pc]
    seed = draw(st.integers(0, 2**16))
    L = random_lower_triangular(n, seed=seed)
    B = random_dense(n, k, seed=seed + 1)
    return ProcessorGrid(np.array(ranks).reshape(pr, pc)), layout, L, B, n0


def run(case, base_case):
    """One ``rec_trsm`` with the given base case, inside a phase and a
    region so their tables are exercised too."""
    grid, layout, L, B, n0 = case
    machine = Machine(int(grid.rank_array.max()) + 1)
    Ld = DistMatrix.from_global(machine, grid, layout, L)
    Bd = DistMatrix.from_global(machine, grid, layout, B)
    with mock.patch.object(recursive, "_base_case", base_case):
        with machine.region("request"), machine.phase("solve"):
            X = recursive.rec_trsm(Ld, Bd, n0=n0)
    return machine, Bd, X


def assert_same_charges(m, ref):
    assert m.counters.ledger.tobytes() == ref.counters.ledger.tobytes()
    assert m.total_volume() == ref.total_volume()
    assert m.memory.peak.tobytes() == ref.memory.peak.tobytes()
    assert m.phase_names() == ref.phase_names()
    ranks = range(m.n_ranks)
    for name in m.phase_names():
        assert [m.phase_cost(name, [r]) for r in ranks] == [
            ref.phase_cost(name, [r]) for r in ranks
        ]
    assert [m.region_cost("request", [r]) for r in ranks] == [
        ref.region_cost("request", [r]) for r in ranks
    ]


def assert_private(blocks, sources):
    arrays = list(blocks.values())
    for i, block in enumerate(arrays):
        assert block.dtype == np.float64
        assert block.flags.c_contiguous and block.flags.writeable
        assert not any(np.shares_memory(block, s) for s in sources)
        for other in arrays[i + 1 :]:
            assert not np.shares_memory(block, other)


@settings(max_examples=120, deadline=None)
@given(case=problems())
def test_base_case_matches_reference(case):
    machine, Bd, X = run(case, recursive._base_case)
    ref_machine, _, X_ref = run(case, reference_base_case)
    assert_same_charges(machine, ref_machine)
    assert list(X.blocks) == list(X_ref.blocks)
    assert_private(X.blocks, list(Bd.blocks.values()))
    got, want = X.to_global(), X_ref.to_global()
    n = want.shape[0]
    assert np.abs(got - want).max() <= 4 * n * np.finfo(float).eps * np.abs(want).max()


@settings(max_examples=25, deadline=None)
@given(case=problems())
def test_one_sequential_solve_per_base_case(case):
    calls = {"base": 0, "solve": 0}
    base, solve = recursive._base_case, recursive.trsm_lower_sequential

    def counted_base(*a, **kw):
        calls["base"] += 1
        return base(*a, **kw)

    def counted_solve(*a, **kw):
        calls["solve"] += 1
        return solve(*a, **kw)

    with mock.patch.object(recursive, "trsm_lower_sequential", counted_solve):
        run(case, counted_base)
    assert calls["base"] >= 1 and calls["solve"] == calls["base"]
