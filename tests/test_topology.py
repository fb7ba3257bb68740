"""Tests for processor grids (fibers, embeddings, subgrids)."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.machine.topology import ProcessorGrid
from repro.machine.validate import GridError


class TestConstruction:
    def test_build_consecutive(self):
        g = ProcessorGrid.build((2, 3))
        assert g.shape == (2, 3)
        assert g.ranks() == [0, 1, 2, 3, 4, 5]

    def test_build_with_start(self):
        g = ProcessorGrid.build((2, 2), start=10)
        assert g.ranks() == [10, 11, 12, 13]

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(GridError):
            ProcessorGrid(np.array([[0, 1], [1, 2]]))

    def test_empty_rejected(self):
        with pytest.raises(GridError):
            ProcessorGrid(np.zeros((0, 2), dtype=int))

    def test_rank_and_coord_roundtrip(self):
        g = ProcessorGrid.build((3, 4, 2))
        for coord in g.coords():
            assert g.rank(coord) == g.rank_array[coord]

    def test_rank_out_of_bounds(self):
        g = ProcessorGrid.build((2, 2))
        with pytest.raises(GridError):
            g.rank((2, 0))
        with pytest.raises(GridError):
            g.rank((0,))

    def test_contains(self):
        g = ProcessorGrid.build((2, 2), start=4)
        assert 5 in g and 3 not in g

    def test_equality_and_hash(self):
        a = ProcessorGrid.build((2, 2))
        b = ProcessorGrid.build((2, 2))
        assert a == b and hash(a) == hash(b)
        assert a != ProcessorGrid.build((4,))

    def test_pickle_round_trip_rehashes(self):
        # the hash is cached on first use, but bytes hashes are salted per
        # process: a grid pickled after hashing under another
        # PYTHONHASHSEED must hash like a fresh grid here
        g = ProcessorGrid.build((2, 4), start=3)
        hash(g)
        assert pickle.loads(pickle.dumps(g)) == g
        other = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = Path(__file__).resolve().parent.parent / "src"
        script = (
            "import pickle, sys\n"
            "from repro.machine.topology import ProcessorGrid\n"
            "g = ProcessorGrid.build((2, 4), start=3)\n"
            "print(hash(g))\n"
            "print(pickle.dumps(g).hex())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": other, "PYTHONPATH": str(src)},
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        their_hash, payload = out.stdout.split()
        assert int(their_hash) != hash(g)  # the salts differ
        back = pickle.loads(bytes.fromhex(payload))
        assert back == g and hash(back) == hash(g)


class TestViews:
    def test_reshape(self):
        g = ProcessorGrid.build((4, 4))
        r = g.reshape((2, 8))
        assert r.shape == (2, 8)
        assert r.ranks() == g.ranks()

    def test_reshape_size_mismatch(self):
        with pytest.raises(GridError):
            ProcessorGrid.build((2, 2)).reshape((3, 2))

    def test_split_axis_index_math(self):
        # The paper's embedding: idx = inner + inner_size * outer.
        g = ProcessorGrid.build((8,))
        s = g.split_axis(0, 4)
        assert s.shape == (4, 2)
        for inner in range(4):
            for outer in range(2):
                assert s.rank((inner, outer)) == g.rank((inner + 4 * outer,))

    def test_split_axis_2d_to_4d(self):
        # Pi4D(x1, x2, y1, y2) = Pi2D(x1 + p1*x2, y1 + p1*y2), p1 = 2.
        g = ProcessorGrid.build((4, 4))
        g4 = g.split_axis(0, 2).split_axis(2, 2)
        assert g4.shape == (2, 2, 2, 2)
        for x1 in range(2):
            for x2 in range(2):
                for y1 in range(2):
                    for y2 in range(2):
                        assert g4.rank((x1, x2, y1, y2)) == g.rank(
                            (x1 + 2 * x2, y1 + 2 * y2)
                        )

    def test_split_invalid_factor(self):
        with pytest.raises(GridError):
            ProcessorGrid.build((6,)).split_axis(0, 4)


class TestFibersAndSubgrids:
    def test_fiber_varies_one_axis(self):
        g = ProcessorGrid.build((3, 4))
        fib = g.fiber(1, (2, 0))
        assert fib == [g.rank((2, y)) for y in range(4)]

    def test_fibers_partition_grid(self):
        g = ProcessorGrid.build((4, 4))
        seen = set()
        for x in range(4):
            fib = g.fiber(1, (x, 0))
            assert len(fib) == 4
            seen.update(fib)
        assert seen == set(g.ranks())

    def test_plane(self):
        g = ProcessorGrid.build((2, 3, 4))
        pl = g.plane(2, 1)
        assert pl.shape == (2, 3)
        assert pl.rank((1, 2)) == g.rank((1, 2, 1))

    def test_halves_disjoint_cover(self):
        g = ProcessorGrid.build((4, 4))
        a, b = g.halves(0)
        assert a.shape == (2, 4) and b.shape == (2, 4)
        assert set(a.ranks()) | set(b.ranks()) == set(g.ranks())
        assert set(a.ranks()).isdisjoint(b.ranks())

    def test_halves_odd_axis_rejected(self):
        with pytest.raises(GridError):
            ProcessorGrid.build((3, 2)).halves(0)

    def test_subgrid_slicing(self):
        g = ProcessorGrid.build((4, 4))
        s = g.subgrid(slice(1, 3), slice(0, 2))
        assert s.shape == (2, 2)
        assert s.rank((0, 0)) == g.rank((1, 0))

    def test_subgrid_integer_index_drops_axis(self):
        g = ProcessorGrid.build((4, 4))
        s = g.subgrid(2, slice(None))
        assert s.shape == (4,)


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 3),
)
def test_grid_size_invariants(a, b, c):
    g = ProcessorGrid.build((a, b, c))
    assert g.size == a * b * c
    assert len(set(g.ranks())) == g.size
    assert sorted(g.ranks()) == list(range(a * b * c))
