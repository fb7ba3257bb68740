"""The benchmark's contract: what ``BENCHMARK.json`` at the repo root says.

One source for the metric names, units, directions and regression bounds;
``python3 benchmarks/perf/run.py --print-manifest`` renders it and the
harness test checks the committed file against it.
"""

from __future__ import annotations

from perf.layers import PER_LAYER, WORKLOAD_SPECIFIC
from perf.workloads import WORKLOADS

#: seconds of timed passes one driver run adds up to (see run.py: the
#: number of child passes is this over the workload's nominal pass length)
RUN_SECONDS = 12

#: ``(name, unit, better, bound)`` of the metrics defined — and never 0 —
#: on all six workloads.  ``bound`` is the share of the parent's median a
#: change may lose.  The driver accepts a bound only if ten runs on ten
#: seeds spread (IQR / median) less than it, so the bounds cover what was
#: seen on the sizing box (README.md, "Bounds"): host speed drifts 5-10 %
#: between runs there, and the simulated makespan — exact for one seed —
#: moves up to 10 % from seed to seed.  Same-seed comparisons are held to
#: the tighter HOST_BOUNDS / exact equality by ``--check-repeat``.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("host_rps", "1/s", "higher", 0.25),
    ("host_peak_rss_mb", "MiB", "lower", 0.10),
    ("sim_makespan_us", "sim_us", "lower", 0.25),
)

#: every end-to-end metric the full report prints, in print order: the four
#: bounded ones, then the ones only some workloads define
REPORTED = tuple(name for name, *_ in (*END_TO_END, *WORKLOAD_SPECIFIC))

UNITS = {
    **{name: unit for name, unit, _, _ in END_TO_END},
    **{name: unit for name, unit, _ in PER_LAYER},
}

#: metrics read off the host clock or the OS (noisy), with the bound two
#: sets of R >= 7 interleaved same-seed passes must agree within (set-up is
#: one ~1 s measurement per child, so it keeps the driver's bound);
#: everything else is a function of the seed and must repeat exactly
HOST_BOUNDS = {"setup_s": 0.25, "host_rps": 0.10, "host_op_p95_ms": 0.10, "host_peak_rss_mb": 0.10}


def manifest() -> dict:
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }
