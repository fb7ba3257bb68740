"""Shared infrastructure for the paper-reproduction benches.

Every bench regenerates one paper artifact (a table or figure of the
sections PAPER.md summarizes; where this reproduction departs from the
printed text is listed there under "Deviations from the printed paper") and

* writes the regenerated artifact to ``benchmarks/results/<name>.txt``,
* asserts the *shape* of the paper's claim (who wins, growth exponents,
  crossovers) — not absolute constants, and
* exposes at least one timed callable through pytest-benchmark so
  ``pytest benchmarks/ --benchmark-only`` produces timing output.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

if importlib.util.find_spec("pytest_benchmark") is None:

    class _FallbackBenchmark:
        """Minimal stand-in when pytest-benchmark is not installed.

        Runs the callable once and returns its result, so the benches
        still execute their sweeps and assertions (``make bench-smoke``
        in minimal CI environments) — just without timing statistics.
        """

        def __call__(self, fn, *args, **kwargs):
            return fn(*args, **kwargs)

        def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
            return fn(*args, **(kwargs or {}))

    @pytest.fixture
    def benchmark():
        return _FallbackBenchmark()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def emit(results_dir):
    """Write (and echo) a named artifact file."""

    def _emit(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n--- {name} ({path}) ---")
        print(text)

    return _emit
