"""Triangular-structure helpers (dist.triangular) and report formatting."""

import numpy as np
import pytest

from repro.analysis.report import format_table
from repro.dist.triangular import (
    is_lower_triangular,
    require_lower_triangular,
    require_nonsingular_triangular,
    require_square,
    triangle_words,
)
from repro.machine.validate import ShapeError


class TestStructureChecks:
    def test_is_lower_triangular(self):
        assert is_lower_triangular(np.tril(np.ones((4, 4))))
        assert not is_lower_triangular(np.ones((4, 4)))

    def test_tolerance(self):
        A = np.tril(np.ones((4, 4)))
        A[0, 3] = 1e-12
        assert not is_lower_triangular(A)
        assert is_lower_triangular(A, tol=1e-10)

    def test_require_lower_raises(self):
        with pytest.raises(ShapeError):
            require_lower_triangular(np.triu(np.ones((3, 3))) + np.eye(3))

    def test_require_nonsingular(self):
        L = np.eye(4)
        require_nonsingular_triangular(L)
        L[2, 2] = 0.0
        with pytest.raises(ShapeError):
            require_nonsingular_triangular(L)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_diagonal_is_not_called_a_zero(self, value):
        from repro.dist import CyclicLayout, DistMatrix
        from repro.machine import Machine

        machine = Machine(4)
        L = np.eye(4)
        L[1, 1] = value
        D = DistMatrix.from_global(machine, machine.grid(2, 2), CyclicLayout(2, 2), L)
        for A in (L, D):
            with pytest.raises(ShapeError, match=f"non-finite: diagonal entry {value} at index 1$"):
                require_nonsingular_triangular(A, "L")

    def test_distributed_operand_is_checked_block_by_block(self):
        """A DistMatrix gets the same verdicts and messages as its global
        matrix, from the entries each rank owns (no assembly)."""
        from repro.dist import BlockedLayout, CyclicLayout, DistMatrix
        from repro.machine import Machine

        machine = Machine(4)
        grid = machine.grid(2, 2)
        L = np.tril(np.arange(1.0, 37.0).reshape(6, 6))
        for layout in (CyclicLayout(2, 2), BlockedLayout(2, 2)):
            D = DistMatrix.from_global(machine, grid, layout, L)
            require_lower_triangular(D)
            require_nonsingular_triangular(D)
        bad = L.copy()
        bad[1, 4] = 1e-12  # above the diagonal, off every rank's local diagonal
        bad[5, 5] = bad[2, 2] = 0.0
        D = DistMatrix.from_global(machine, grid, CyclicLayout(2, 2), bad)
        with pytest.raises(ShapeError, match="lower triangular"):
            require_lower_triangular(D, "L")
        require_lower_triangular(D, "L", tol=1e-10)
        with pytest.raises(ShapeError, match="L is singular.*at index 2$"):
            require_nonsingular_triangular(D, "L")

    def test_require_square(self):
        assert require_square(np.zeros((5, 5))) == 5
        with pytest.raises(ShapeError):
            require_square(np.zeros((5, 4)))

    def test_require_square_on_distmatrix_like(self):
        class Fake:
            shape = (3, 3)

        assert require_square(Fake()) == 3


class TestBlocks:
    def test_triangle_words(self):
        assert triangle_words(4) == 10


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["col"], [[123456.0]])
        assert "1.235e+05" in text

    def test_format_table_title_underline(self):
        text = format_table(["a"], [[1]], title="Hello")
        lines = text.splitlines()
        assert lines[0] == "Hello"
        assert lines[1] == "=====".ljust(5, "=")

    def test_zero_float(self):
        assert "0" in format_table(["x"], [[0.0]])


class TestRenderBars:
    def test_basic_bars(self):
        from repro.analysis.report import render_bars

        text = render_bars({"a": 10.0, "b": 5.0}, width=10, unit=" ms")
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5
        assert "ms" in lines[0]

    def test_title_and_empty(self):
        from repro.analysis.report import render_bars

        assert "T" in render_bars({"a": 1.0}, title="T")
        assert render_bars({}) == "(no data)"

    def test_negative_rejected(self):
        from repro.analysis.report import render_bars

        import pytest as _pytest

        with _pytest.raises(ValueError):
            render_bars({"a": -1.0})

    def test_zero_value_has_no_bar(self):
        from repro.analysis.report import render_bars

        text = render_bars({"a": 0.0, "b": 2.0})
        assert "a | " in text.splitlines()[0] + text
