PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast test-perf bench-smoke bench-paper bench-policies \
	bench-backend lint replint lint-all selfcheck solve serve clean

## Run the tier-1 test suite (what CI gates on).
test:
	$(PYTHON) -m pytest -x -q

## Fail-fast subset: the dist-layer contracts plus the scheduler and
## packing-policy contracts (allocator invariants, LPT parity goldens,
## horizon goldens, optimal ground truth).
test-fast:
	$(PYTHON) -m pytest -x -q tests/test_layout.py tests/test_distmatrix.py \
		tests/test_redistribute.py tests/test_triangular_helpers.py \
		tests/test_row_block.py tests/test_layout_equivalences.py \
		tests/test_sched.py tests/test_policies.py

## The benchmark harness's own tests.  benchmarks/perf/trace.py rebinds
## the program's entry points by name, so a refactor that renames or
## moves one breaks the benchmark without failing tier-1; this catches it.
test-perf:
	$(PYTHON) -m pytest -q benchmarks/perf/tests

## Tiny routing + serve sweeps: fails fast on routing-cost or scheduler
## regressions (serve asserts packed makespan < serial full grid).
bench-smoke:
	BENCH_SMOKE=1 $(PYTHON) -m pytest -x -q benchmarks/bench_redistribute.py \
		benchmarks/bench_serve.py

## The paper's tables and figures: every bench no other target runs
## (conclusion table, Figure 1 regime map, latency improvement, inversion,
## MM cost table, tuning, sensitivity, stability, ...).  Each asserts the
## shape of the paper's claim, so this gates the reproduction itself;
## timing rounds are skipped where pytest-benchmark is installed.
PAPER_BENCHES := $(filter-out benchmarks/bench_redistribute.py \
	benchmarks/bench_serve.py benchmarks/bench_backend.py, \
	$(sort $(wildcard benchmarks/bench_*.py)))
bench-paper:
	$(PYTHON) -m pytest -x -q $(PAPER_BENCHES) $$($(PYTHON) -c \
		"from importlib.util import find_spec as f; print('--benchmark-disable' if f('pytest_benchmark') else '')")

## Full-fat serve + policy-comparison sweep: gates horizon <= lpt on every
## recorded stream (arrival-heavy one included), the mixed-stream horizon
## win (> 5 %), horizon <= 1.1x the exhaustive optimum on small queues,
## and the opcache reuse floor;
## records (ungated) the cache-on window-search table; rewrites the tracked
## benchmarks/results/BENCH_serve.json (simulated numbers only — the CI
## bench job fails if the committed file differs).
bench-policies:
	$(PYTHON) -m pytest -x -q benchmarks/bench_serve.py

## Backend parity + modeled-vs-measured calibration: one replay through
## SimBackend and the loopback MPIBackend, bit-identical solutions
## asserted, the per-phase error recorded (not gated) to
## benchmarks/results/BENCH_backend.json (CI uploads it).
bench-backend:
	$(PYTHON) -m pytest -x -q benchmarks/bench_backend.py

## Ruff lint + formatting check (CI runs both; requires ruff on PATH).
lint:
	ruff check src tests benchmarks
	ruff format --check src tests benchmarks

## The repo-aware invariants pass (src/repro/lint): proves the cost
## model's invariants at lint time (see README "Static analysis").
replint:
	$(PYTHON) -m repro lint src tests benchmarks

## Everything the CI lint + static-analysis jobs run.  Ruff and mypy are
## skipped with a note when not installed (they are CI deps, not runtime
## deps); replint always runs — it has no dependencies beyond the repo.
lint-all: replint
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null; then \
		ruff check src tests benchmarks && \
		ruff format --check src tests benchmarks; \
	else echo "lint-all: ruff not installed, skipping (pip install ruff)"; fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --strict -p repro.dist -p repro.sched; \
	else echo "lint-all: mypy not installed, skipping (pip install mypy)"; fi

## Acceptance battery on the simulated machine.
selfcheck:
	$(PYTHON) -m repro selfcheck

## A tuned simulated solve with cost report.
solve:
	$(PYTHON) -m repro solve

## Replay a Poisson request stream through the Cluster scheduler.
serve:
	$(PYTHON) -m repro serve

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis
