"""One command for the repo's benchmark: six workloads, two clocks, per-layer spans.

Two ways in, one harness:

* the driver's contract (``BENCHMARK.json``)::

      python3 benchmarks/perf/run.py --workload NAME --seed N --seconds T --trace 0|1

  runs one workload and prints one JSON object as the last line of stdout
  (``--trace 0``: the end-to-end metrics, ``--trace 1``: the per-layer ones);

* the full report::

      python3 benchmarks/perf/run.py [--seed N] [--reps R] [--workload NAME ...]
                                     [--no-trace] [--check-repeat] [--baseline]

  runs every workload ``R`` times round-robin, prints every metric by name
  with its unit, and writes ``benchmarks/perf/out/latest.json`` plus one
  Chrome-trace span file per workload.

Load comes from one process at a time: every timed pass runs in a fresh
child (``--child``) that imports the program, builds its inputs from the
seed, warms up, then runs the pass — so set-up is measured once per pass
and a run's figures are medians over its children.  Child ``j`` of a run
with ``--seed N`` uses seed ``100 N + j``.  See README.md for the metric
glossary and what each workload is for.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # child start: set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

# Import the harness as the package ``perf`` (and the program from src/):
# leaving this directory itself on sys.path would let trace.py shadow the
# standard library's ``trace`` module for everything in the process.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(SRC), str(HERE.parent)]

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: a child that has not finished by then is killed and the run fails
CHILD_TIMEOUT_S = 150

#: a driver run must exit within 180 s, children and all
DRIVER_DEADLINE_S = 170


# -- the child: one workload, one seed, one timed pass -------------------------


def run_child(name: str, seed: int, traced: bool) -> dict:
    import contextlib
    import gc
    import resource

    from perf.layers import TARGETS, MachineTally
    from perf.trace import Tracer
    from perf.workloads import WORKLOADS, host_op_p95_ms

    workload = WORKLOADS[name]
    inputs = workload.build(seed, warm=False)
    # ~10 % of the pass on other inputs: lazy imports, layout memos and the
    # plan LRU reach their steady state before the clock starts
    workload.run(workload.build(seed + 1000, warm=True))
    tracer = tally = None
    if traced:
        tally = MachineTally()
        tracer = Tracer(name, TARGETS)
        tracer.on_return["Cluster.run"] = tally.add
    gc.collect()
    setup_s = time.perf_counter() - T0
    with tracer or contextlib.nullcontext():
        done = workload.run(inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ev = workload.evaluate(inputs, done)
    failed = min(ev.failed, done.attempted)
    out = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "pass_s": done.seconds,
        "attempted": done.attempted,
        "failed": failed,
        "failures": ev.failures[:5],
        "op_samples": len(done.op_seconds),
        "sim_digest": ev.digest,
        "counters": ev.counters,
        "end_to_end": {
            "setup_s": setup_s,
            "host_rps": done.attempted / done.seconds,
            "host_op_p95_ms": host_op_p95_ms(done.op_seconds),
            "host_peak_rss_mb": peak_rss_mb,
            **ev.sim,
            "failed_share": failed / done.attempted,
        },
    }
    if tracer is not None:
        trace_file = OUT / f"trace-{name}.json"
        tracer.write_chrome_trace(trace_file)
        out["trace"] = {
            "rows": tracer.by_target(),
            "root_seconds": tracer.root_seconds(),
            "spans": len(tracer.spans),
            "file": str(trace_file.relative_to(ROOT)),
            "tally": tally.values,
        }
    return out


# -- the parent: spawn children, aggregate, report -------------------------------


def spawn(name: str, seed: int, traced: bool, deadline: float | None = None) -> dict:
    """Run one child to completion and return what it printed."""
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child"]
    cmd += ["--workload", name, "--seed", str(seed), "--trace", "1" if traced else "0"]
    timeout = CHILD_TIMEOUT_S
    if deadline is not None:
        timeout = max(1.0, min(timeout, deadline - time.perf_counter()))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {name} seed {seed} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_sets(
    names: list[str],
    seed: int,
    reps: int,
    trace: bool,
    sets: int = 1,
    deadline: float | None = None,
) -> list[dict]:
    """``sets`` sets of ``reps`` untraced children per workload.

    Children go round-robin across workloads and alternate between the
    sets, so machine drift hits every workload and every set alike.  The
    traced child (first set only) runs right after the untraced child it
    is compared with, on the same seed.
    """
    runs = [{name: {"children": [], "traced": None} for name in names} for _ in range(sets)]
    for j in range(reps):
        for name in names:
            for run in runs:
                run[name]["children"].append(spawn(name, 100 * seed + j, False, deadline))
            if trace and j == 0:
                runs[0][name]["traced"] = spawn(name, 100 * seed, True, deadline)
    return runs


def summaries(children: list[dict]) -> dict[str, dict]:
    """Median/quartiles/count per end-to-end metric over a run's children."""
    from perf.manifest import REPORTED
    from perf.stats import summarize

    out = {}
    for metric in REPORTED:
        values = [c["end_to_end"].get(metric) for c in children]
        values = [v for v in values if v is not None]
        if values:
            out[metric] = summarize(values)
    return out


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    """Every per-layer metric of the traced child against its untraced twin."""
    from perf.layers import WORKLOAD_SPECIFIC, layer_metrics

    t = traced["trace"]
    counters = {**traced["counters"], **t["tally"]}
    out = layer_metrics(
        t["rows"],
        t["root_seconds"],
        counters,
        traced["attempted"],
        traced["pass_s"],
        untraced["pass_s"],
    )
    for name, _, _ in WORKLOAD_SPECIFIC:
        out[name] = untraced["end_to_end"].get(name) or 0.0
    return out


def all_correct(run: dict) -> bool:
    children = run["children"] + ([run["traced"]] if run["traced"] else [])
    if any(c["failed"] or not c["sim_digest"] for c in children):
        return False
    # tracing must not change what is simulated
    return not run["traced"] or run["traced"]["sim_digest"] == run["children"][0]["sim_digest"]


def driver_run(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One run under the ``BENCHMARK.json`` contract: JSON on the last line."""
    from perf.manifest import END_TO_END, UNITS
    from perf.workloads import WORKLOADS

    reps = 1 if trace else max(1, round(seconds / WORKLOADS[name].pass_seconds))
    run = run_sets([name], seed, reps, trace, deadline=T0 + DRIVER_DEADLINE_S)[0][name]
    children = run["children"] + ([run["traced"]] if trace else [])
    if trace:
        values = per_layer(run["children"][0], run["traced"])
    else:
        medians = summaries(run["children"])
        values = {metric: medians[metric]["median"] for metric, _, _, _ in END_TO_END}
    for c in children:
        for line in c["failures"]:
            print(f"{name} seed {c['seed']}: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": all_correct(run),
                "attempted": sum(c["attempted"] for c in children),
                "failed": sum(c["failed"] for c in children),
                "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
            }
        )
    )
    return 0


def environment() -> dict:
    import numpy as np

    try:
        git = ["git", "-C", str(ROOT), "rev-parse", "HEAD"]
        commit = subprocess.run(git, capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_env": THREAD_ENV,
    }


def report(runs: dict[str, dict]) -> dict[str, dict]:
    """Print every metric by name with its unit; return the stored form."""
    from perf.manifest import UNITS
    from perf.workloads import WORKLOADS

    stored = {}
    for name, run in runs.items():
        w = WORKLOADS[name]
        e2e = summaries(run["children"])
        print(f"\n== {name}  (operation = {w.operation}; loop: {w.loop})")
        print(f"   {w.why}")
        print(f"   {'end-to-end metric':<22}{'median':>14}  {'[q1, q3]':<30}{'n':>3}  unit")
        for metric, s in e2e.items():
            quart = f"[{s['q1']:.6g}, {s['q3']:.6g}]"
            print(f"   {metric:<22}{s['median']:>14.6g}  {quart:<30}{s['n']:>3}  {UNITS[metric]}")
        samples = run["children"][0]["op_samples"]
        if "host_op_p95_ms" in e2e:
            print(f"   host_op_p95_ms is over {samples} individually timed operations per pass")
        if "model_gap_pct" in e2e:
            print(
                "   model_gap_pct is sim-internal (scheduler closed forms vs the simulator's exact "
                "charges); the repo has no real-hardware reference"
            )
        digests = {str(c["seed"]): c["sim_digest"] for c in run["children"]}
        for seed, digest in digests.items():
            print(f"   sim_digest seed {seed}: {digest}")
        layers = None
        if run["traced"]:
            layers = per_layer(run["children"][0], run["traced"])
            t = run["traced"]["trace"]
            dropped = [r["name"] for r in t["rows"] if r["spans_dropped"] and r["calls"]]
            seed = run["traced"]["seed"]
            print(f"   per-layer (traced pass, seed {seed}, {t['spans']} spans -> {t['file']}):")
            for metric, value in layers.items():
                if value:
                    print(f"     {metric:<28}{value:>16.6g}  {UNITS[metric]}")
            if dropped:
                print(f"     counted but not timed (hot entry points): {', '.join(dropped)}")
        for c in run["children"]:
            for line in c["failures"]:
                print(f"   FAILED seed {c['seed']}: {line}")
        stored[name] = {
            "why": w.why,
            "loop": w.loop,
            "operation": w.operation,
            "correct": all_correct(run),
            "end_to_end": e2e,
            "per_layer": layers,
            "sim_digest": digests,
            "children": run["children"],
        }
    return stored


def compare_sets(first: dict[str, dict], second: dict[str, dict]) -> tuple[dict, bool]:
    """Two sets of the same code: host metrics within their bounds, every
    simulated number and digest exactly."""
    from perf.manifest import HOST_BOUNDS

    agree, table = True, {}
    for name in first:
        rows = {}
        a, b = summaries(first[name]["children"]), summaries(second[name]["children"])
        for metric in a:
            if metric in HOST_BOUNDS:
                shift = abs(b[metric]["median"] - a[metric]["median"]) / a[metric]["median"]
                ok = shift <= HOST_BOUNDS[metric]
                rows[metric] = {
                    "bound": HOST_BOUNDS[metric],
                    "shift": shift,
                    "spread": max(a[metric]["spread"], b[metric]["spread"]),
                    "ok": ok,
                }
            else:
                pairs = zip(first[name]["children"], second[name]["children"])
                ok = all(x["end_to_end"][metric] == y["end_to_end"][metric] for x, y in pairs)
                rows[metric] = {"bound": 0.0, "exact": ok, "ok": ok}
            agree &= ok
        pairs = zip(first[name]["children"], second[name]["children"])
        same = all(x["sim_digest"] == y["sim_digest"] for x, y in pairs)
        rows["sim_digest"] = {"exact": same, "ok": same}
        agree &= same
        table[name] = rows
        print(f"\n== repeat check: {name}")
        for metric, row in rows.items():
            detail = (
                f"medians differ {100 * row['shift']:.2f} % (bound {100 * row['bound']:.0f} %), "
                f"spread within a set {100 * row['spread']:.2f} %"
                if "shift" in row
                else "identical" if row["ok"] else "DIFFERS"
            )
            print(f"   {'ok  ' if row['ok'] else 'FAIL'} {metric:<22}{detail}")
    return table, agree


def full_run(args: argparse.Namespace) -> int:
    from perf.manifest import END_TO_END, HOST_BOUNDS
    from perf.workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    runs, *again = run_sets(
        names, args.seed, args.reps, not args.no_trace, sets=2 if args.check_repeat else 1
    )
    stored = report(runs)
    latest = {
        "environment": environment(),
        "seed": args.seed,
        "reps": args.reps,
        "claim": None,
        "workloads": stored,
    }
    ok = all(w["correct"] for w in stored.values())
    if args.check_repeat:
        latest["repeat"], agree = compare_sets(runs, again[0])
        ok &= agree
    OUT.mkdir(exist_ok=True)
    (OUT / "latest.json").write_text(json.dumps(latest, indent=1))
    print(f"\nwrote {(OUT / 'latest.json').relative_to(ROOT)}")
    if args.baseline:
        baseline = {
            "environment": latest["environment"],
            "seed": args.seed,
            "reps": args.reps,
            "claim": None,
            "bounds": {name: bound for name, _, _, bound in END_TO_END},
            "repeat_bounds": HOST_BOUNDS,
            "medians": {
                name: {
                    **{m: s["median"] for m, s in w["end_to_end"].items()},
                    **(w["per_layer"] or {}),
                }
                for name, w in stored.items()
            },
            "spreads": {
                name: {m: s["spread"] for m, s in w["end_to_end"].items() if m in HOST_BOUNDS}
                for name, w in stored.items()
            },
            "sim_digest": {name: w["sim_digest"] for name, w in stored.items()},
            "repeat": latest.get("repeat"),
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"wrote {(HERE / 'baseline.json').relative_to(ROOT)}")
    if not ok:
        print("FAILED: see the lines marked FAILED/FAIL above", file=sys.stderr)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append", help="workload name (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="driver mode: seconds of timed passes in a run")
    ap.add_argument("--trace", type=int, choices=(0, 1), help="driver mode: 1 = per-layer metrics")
    ap.add_argument("--reps", type=int, default=7, help="full report: children per workload")
    ap.add_argument("--no-trace", action="store_true", help="full report: skip the traced passes")
    ap.add_argument("--check-repeat", action="store_true", help="run two sets and compare them")
    ap.add_argument("--baseline", action="store_true", help="also write perf/baseline.json")
    ap.add_argument("--print-manifest", action="store_true", help="print BENCHMARK.json and exit")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark needs the program under {SRC}; it is not there", file=sys.stderr)
        return 2
    from perf.workloads import WORKLOADS

    unknown = [name for name in args.workload or [] if name not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r} (choose from {', '.join(WORKLOADS)})")
    if args.print_manifest:
        from perf.manifest import manifest

        print(json.dumps(manifest(), indent=2))
        return 0
    if args.child:
        print(json.dumps(run_child(args.workload[0], args.seed, bool(args.trace))))
        return 0
    if args.trace is not None:
        if args.seconds is None or len(args.workload or []) != 1:
            ap.error("--trace needs exactly one --workload and --seconds")
        return driver_run(args.workload[0], args.seed, args.seconds, bool(args.trace))
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
