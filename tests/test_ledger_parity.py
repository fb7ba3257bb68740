"""The vectorized charging path against the pinned per-rank loops.

``tests/machine_reference.py`` holds the per-rank implementations that
``Machine.charge``/``charge_local`` replaced.  Hypothesis drives both with
the same random program — group charges with and without sync, multi-rank
``charge_local`` dicts, ``advance_group``, nested phases and regions (a
region name may repeat inside itself) — under every hardware preset, and
after every step the clocks, path counters, volume totals and every
per-rank phase/region cost must agree bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import HARDWARE_PRESETS, Machine
from repro.machine.cost import Cost

from machine_reference import ReferenceMachine

NAMES = ("a", "b", "c")

values = st.floats(0, 1e6, allow_nan=False, allow_infinity=False) | st.integers(0, 10**6)
costs = st.builds(Cost, values, values, values)


def programs(p: int):
    rank = st.integers(0, p - 1)
    op = st.one_of(
        st.tuples(
            st.just("charge"), st.lists(rank, max_size=p + 2), costs, st.booleans()
        ),
        st.tuples(st.just("local"), st.dictionaries(rank, costs, max_size=p)),
        st.tuples(st.just("advance"), st.lists(rank, max_size=p), values),
        st.tuples(st.just("phase"), st.sampled_from(NAMES)),
        st.tuples(st.just("region"), st.sampled_from(NAMES)),
        st.tuples(st.just("close")),
    )
    return st.lists(op, max_size=40)


def _hex(c: Cost) -> tuple[str, str, str]:
    return float(c.S).hex(), float(c.W).hex(), float(c.F).hex()


def _assert_same(new: Machine, ref: ReferenceMachine) -> None:
    a, b = new.counters, ref.counters
    for row in ("clock", "S", "W", "F"):
        assert getattr(a, row).tobytes() == getattr(b, row).tobytes(), row
    assert _hex(new.total_volume()) == _hex(b.total)
    assert new.phase_names() == list(ref._phase_acc)
    assert list(new._region_acc) == list(ref._region_acc)
    for tables, read in (
        (ref._phase_acc, new.phase_cost),
        (ref._region_acc, new.region_cost),
    ):
        for name, acc in tables.items():
            for r in range(ref.n_ranks):
                assert _hex(read(name, [r])) == _hex(Cost(*acc[:, r])), (name, r)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    p=st.integers(1, 32),
    preset=st.sampled_from(sorted(HARDWARE_PRESETS)),
)
def test_ledger_matches_per_rank_reference(data, p, preset):
    params = HARDWARE_PRESETS[preset]
    new, ref = Machine(p, params=params), ReferenceMachine(p, params)
    open_contexts: list[tuple] = []
    for op in data.draw(programs(p)):
        kind = op[0]
        if kind == "charge":
            _, group, cost, sync = op
            new.charge(group, cost, sync=sync)
            ref.charge(group, cost, sync=sync)
        elif kind == "local":
            new.charge_local(op[1])
            ref.charge_local(op[1])
        elif kind == "advance":
            new.advance_group(op[1], op[2])
            ref.advance_group(op[1], op[2])
        elif kind in ("phase", "region"):
            pair = (getattr(new, kind)(op[1]), getattr(ref, kind)(op[1]))
            for cm in pair:
                cm.__enter__()
            open_contexts.append(pair)
        elif open_contexts:
            for cm in open_contexts.pop():
                cm.__exit__(None, None, None)
        _assert_same(new, ref)
    while open_contexts:
        for cm in open_contexts.pop():
            cm.__exit__(None, None, None)


def test_totals_add_in_rank_order():
    """Per-rank costs spread over nine decades round differently under
    pairwise or compensated summation, so the volume totals pin the
    sequential rank-order adds of the per-rank loop."""
    rng = np.random.default_rng(7)
    params = HARDWARE_PRESETS["default"]
    new, ref = Machine(32, params=params), ReferenceMachine(32, params)
    for _ in range(20):
        costs = {
            int(r): Cost(*rng.random(3) * 10.0 ** rng.integers(-3, 6, 3))
            for r in rng.permutation(32)[: rng.integers(2, 33)]
        }
        new.charge_local(costs)
        ref.charge_local(costs)
        group = rng.permutation(32)[: rng.integers(1, 33)].tolist()
        cost, sync = next(iter(costs.values())), bool(rng.integers(2))
        new.charge(group, cost, sync=sync)
        ref.charge(group, cost, sync=sync)
    _assert_same(new, ref)
