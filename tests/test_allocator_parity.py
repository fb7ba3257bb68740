"""The allocator's fit table against the pinned fit scan.

``SubgridAllocator.preview`` answers from a per-size table that
``lease_exact`` and ``release`` clear before they touch the pool's sets;
``tests/allocator_reference.py`` holds the scan it replaced.  Random
``allocate`` / ``lease_exact`` (refused ones included) / ``release`` /
``clone`` / ``drained_clone`` sequences run over a family of pools, and
after every step ``preview`` must equal the scan for every size on every
pool — so a stale table entry, a clear missed on some path or a table
shared between clones fails here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocator_reference import reference_fit
from repro.machine.topology import ProcessorGrid
from repro.machine.validate import ParameterError
from repro.sched import SubgridAllocator

CAPACITIES = (1, 2, 4, 16, 64)

#: one step: (operation, which pool, a size exponent / block choice)
steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["allocate", "lease_exact", "release", "release_unleased", "clone", "drained_clone"]
        ),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=127),
    ),
    min_size=1,
    max_size=40,
)


def make_pool(p: int) -> SubgridAllocator:
    b = p.bit_length() - 1
    return SubgridAllocator(ProcessorGrid.build((2 ** ((b + 1) // 2), 2 ** (b // 2))))


def sizes_of(pool: SubgridAllocator) -> list[int]:
    return [2**e for e in range(pool.capacity.bit_length())]


def previews(pool: SubgridAllocator) -> list:
    return [pool.preview(s) for s in sizes_of(pool)]


def assert_matches_scan(pool: SubgridAllocator) -> None:
    for size in sizes_of(pool):
        assert pool.preview(size) == reference_fit(pool, size), size
        assert pool.can_allocate(size) == (reference_fit(pool, size) is not None)


@pytest.mark.parametrize("p", CAPACITIES)
@given(script=steps)
@settings(max_examples=60, deadline=None)
def test_preview_is_the_fit_scan_after_every_step(p, script):
    pools = [make_pool(p)]
    leases: list[list[ProcessorGrid]] = [[]]
    for op, which, arg in script:
        i = which % len(pools)
        pool = pools[i]
        if op == "allocate":
            size = 2 ** (arg % p.bit_length())
            grid = pool.allocate(size)
            if grid is not None:
                leases[i].append(grid)
        elif op == "lease_exact":
            # any block of the tree: free ones lease, the rest are refused
            # (possibly after splitting a free ancestor)
            grid = pool._grid(1 + arg % (2 * p - 1))
            try:
                leases[i].append(pool.lease_exact(grid))
            except ParameterError:
                pass
        elif op == "release" and leases[i]:
            pool.release(leases[i].pop(arg % len(leases[i])))
        elif op == "release_unleased":
            grid = pool._grid(1 + arg % (2 * p - 1))
            if grid not in leases[i]:
                with pytest.raises(ParameterError):
                    pool.release(grid)
        elif op in ("clone", "drained_clone"):
            before = previews(pool)
            child = getattr(pool, op)()
            pools.append(child)
            leases.append(list(leases[i]) if op == "clone" else [])
            # a lease on the child leaves the parent's answers alone
            grid = child.allocate(2 ** (arg % p.bit_length()))
            if grid is not None:
                leases[-1].append(grid)
            assert previews(pool) == before
        for q in pools:
            assert_matches_scan(q)


def test_table_follows_lease_exact_and_release():
    """The previewed block, once leased exactly, is no longer previewed;
    released, it is again (each answer first read from a full table)."""
    pool = make_pool(16)
    first = previews(pool)
    pool.lease_exact(first[2])  # the 4-rank block preview named
    assert_matches_scan(pool)
    assert pool.preview(4) != first[2]
    pool.release(first[2])
    assert previews(pool) == first
