"""Memoized placement prices against the un-memoized reference.

:meth:`PricingMemo.placement` memoizes a placement's whole price per
``(share key, block, hit pattern)``; :class:`DirectPricing`
re-derives it on every call and is the reference.  Random operand-cache
views (``CachePlan`` states built from ``add``/``evict_grid``) are
mutated *between* prices of the same requests, so a memo row reused
across a different view state must still price exactly like a fresh
derivation: every ``Cost`` field and the duration equal by
``float.hex``, the per-target decisions equal.  A sched_pack-shaped
stream then checks whole schedules, memo on and off.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.opcache import CachePlan
from repro.api.serve import poisson_stream, schedule_stream
from repro.machine.cost import Cost, CostParams
from repro.machine.topology import ProcessorGrid
from repro.sched import SubgridAllocator
from repro.sched.pricing import DirectPricing, PricingMemo

PARAMS = CostParams()
P = 16
KEYS = ("L", "B", "X", "Y")


class TargetRequest:
    """A schedulable request whose staging targets are drawn: 0-3 operand
    keys (a key may repeat) with their migration costs."""

    arrival = 0.0
    priority = 0
    deadline = None

    def __init__(self, keys, costs, modeled):
        self.keys, self.costs, self.modeled = tuple(keys), tuple(costs), modeled

    def pricing_key(self):
        # equal definitions price identically, so they may share memo rows
        return (self.keys, self.costs, self.modeled)

    def candidate_sizes(self, capacity):
        return [s for s in (1, 2, 4, 8, 16) if s <= capacity]

    def modeled_cost(self, size, params):
        S, W, F = self.modeled
        return Cost(S, W / size, F / size)

    def staging_targets(self, grid, params):
        return tuple(
            ((key, grid.size), grid, Cost(S, W / grid.size, 0.0))
            for key, (S, W) in zip(self.keys, self.costs)
        )


amounts = st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False)
targets = st.lists(st.tuples(st.sampled_from(KEYS), st.tuples(amounts, amounts)), max_size=3)
requests = st.builds(
    lambda drawn, modeled: TargetRequest([k for k, _ in drawn], [c for _, c in drawn], modeled),
    targets,
    st.tuples(amounts, amounts, amounts),
)
blocks = st.integers(1, 2 * P - 1)
#: cache-view edits; after each one every placement below is priced again
edits = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(KEYS), st.integers(0, 2), blocks),
        st.tuples(st.just("evict"), blocks),
    ),
    max_size=12,
)
#: (size, block) pairs priced: sizes 1, 2, 4 (the keys' sizes), two blocks each
PLACES = [(2**e, P // 2**e + offset) for e in range(3) for offset in range(2)]


def hexed(price):
    charged, saved, decisions, modeled, duration = price
    costs = [getattr(c, f).hex() for c in (charged, saved, modeled) for f in ("S", "W", "F")]
    return costs, decisions, duration.hex()


@pytest.mark.parametrize("cached", [True, False], ids=["cache-view", "no-view"])
@given(reqs=st.lists(requests, min_size=1, max_size=3), script=edits)
@settings(max_examples=150, deadline=None)
def test_memoized_placement_is_bitwise_the_direct_price(cached, reqs, script):
    pool = SubgridAllocator(ProcessorGrid.build((4, 4)))
    view = CachePlan({}) if cached else None
    memo = PricingMemo(PARAMS, P, view)
    direct = DirectPricing(PARAMS, P, view)
    priced = 0
    for step in [None, *script]:
        if step is not None and view is not None:
            if step[0] == "add":
                _, key, exp, h = step
                view.add((key, 2**exp), pool._grid(h))
            else:
                view.evict_grid(pool._grid(step[1]))
        # every memo row meets every view state the script builds
        for req in reqs:
            for size, h in PLACES:
                grid = pool._grid(h)
                got = memo.placement(req, size, grid)
                assert hexed(got) == hexed(direct.placement(req, size, grid))
                priced += 1
                # one staging-target hit or miss per priced placement
                assert memo.hits + memo.misses == priced


def test_sched_pack_stream_memo_on_off_identical():
    """A 400-request stream shaped like the sched_pack benchmark on p = 64
    schedules flatten-identically with the memo on and off."""
    stream = poisson_stream(count=400, seed=3, rate=2e5, n_range=(32, 128), k_range=(4, 16))
    on = schedule_stream(stream, p=64, pricing_cache=True)
    off = schedule_stream(stream, p=64, pricing_cache=False)

    def flatten(schedule):
        return [
            [a.index, a.size, a.start, a.finish, a.grid.ranks(), a.cache_hits, a.cache_misses]
            for a in schedule.assignments
        ]

    assert flatten(on) == flatten(off)
    assert on.pricing_hits > 0 and on.pricing_misses > 0
    assert (off.pricing_hits, off.pricing_misses) == (0, 0)
