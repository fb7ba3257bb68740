"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``     run a tuned simulated solve on random operands and report costs
``serve``     replay a Poisson request stream through the Cluster scheduler
``tune``      print the a-priori parameters (closed form + model search)
``map``       print the Figure 1 regime map
``table``     print the Section IX conclusion table for a p-sweep
``presets``   list the machine cost presets
``report``    write model-side artifacts (CSV/JSON) to a directory
``selfcheck`` run the acceptance battery
``lint``      run replint, the repo-aware static-analysis pass

Every command operates on synthetic operands — the CLI exists to explore
the cost model and the simulator without writing a script.
"""

from __future__ import annotations

import argparse
import sys


def _add_nkp(p: argparse.ArgumentParser, n=256, k=64, pp=64) -> None:
    p.add_argument("-n", type=int, default=n, help="matrix dimension")
    p.add_argument("-k", type=int, default=k, help="right-hand sides")
    p.add_argument("-p", type=int, default=pp, help="processors (power of two)")


def _add_machine(p: argparse.ArgumentParser) -> None:
    from repro.machine import HARDWARE_PRESETS

    p.add_argument("--machine", choices=list(HARDWARE_PRESETS), default="default")


def _require_p_bounds(p_min: int, p_max: int) -> None:
    from repro.machine.validate import ParameterError, require
    from repro.util.mathutil import is_power_of_two

    require(
        is_power_of_two(p_min),
        ParameterError,
        f"p_min must be a power of two, got {p_min}",
    )
    require(
        p_min <= p_max, ParameterError, f"p_min (= {p_min}) exceeds p_max (= {p_max})"
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro import HARDWARE_PRESETS, random_dense, random_lower_triangular, trsm
    from repro.machine.validate import ParameterError, require

    require(
        args.n >= 1 and args.k >= 1 and args.p >= 1,
        ParameterError,
        "n, k, p must be >= 1",
    )
    params = HARDWARE_PRESETS[args.machine]
    L = random_lower_triangular(args.n, seed=args.seed)
    B = random_dense(args.n, args.k, seed=args.seed + 1)
    res = trsm(
        L,
        B,
        p=args.p,
        algorithm=args.algorithm,
        params=params,
        tune=args.tune,
        verify=not args.no_verify,
    )
    print(f"algorithm : {res.algorithm}")
    if res.choice is not None:
        c = res.choice
        print(
            f"parameters: regime={c.regime.value} p1={c.p1} p2={c.p2} "
            f"n0={c.n0} (r1={c.r1:.2f}, r2={c.r2:.2f})"
        )
    residual = "skipped" if res.residual is None else f"{res.residual:.3e}"
    print(f"residual  : {residual}")
    m = res.measured
    print(f"measured  : S={m.S:.0f}  W={m.W:.0f}  F={m.F:.0f}")
    print(f"time      : {res.time * 1e3:.4f} ms  (machine '{args.machine}')")
    for name, cost in sorted(res.phase_costs().items()):
        print(f"  phase {name:10s}: S={cost.S:8.0f} W={cost.W:12.0f} F={cost.F:12.0f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import HARDWARE_PRESETS

    params = HARDWARE_PRESETS[args.machine]
    if args.daemon:
        return _serve_daemon(args, params)
    from repro.analysis.serve import (
        cache_stats_report,
        policy_gap_report,
        serve_report,
    )
    from repro.api.online.arrivals import synthetic_stream

    requests_spec = synthetic_stream(
        count=args.requests,
        rate=args.rate,
        process=args.arrivals,
        n_range=(args.n_min, args.n_max),
        k_range=(args.k_min, args.k_max),
        seed=args.seed,
    )
    last_outcome = []

    def run() -> int:
        from repro.api.serve import replay

        if args.gap:
            print(
                policy_gap_report(
                    requests_spec,
                    p=args.p,
                    params=params,
                    verify=not args.no_verify,
                )
            )
            return 0
        from repro.backend import make_backend

        backend = make_backend(args.backend)
        outcome = replay(
            requests_spec,
            p=args.p,
            params=params,
            resident=not args.no_resident,
            verify=not args.no_verify,
            policy=args.policy,
            backend=backend,
        )
        last_outcome.append(outcome)
        print(serve_report(outcome))
        if args.validate:
            from repro.analysis import validation_report

            print()
            print(validation_report(backend, outcome).render())
        return 0

    if not args.profile:
        return run()
    import cProfile
    import io
    import pstats

    prof = cProfile.Profile()
    rc = prof.runcall(run)
    buf = io.StringIO()
    pstats.Stats(prof, stream=buf).strip_dirs().sort_stats("cumulative").print_stats(25)
    print("\nprofile (top 25 by cumulative time):")
    print(buf.getvalue())
    print("cache stats:")
    print(cache_stats_report(last_outcome[-1] if last_outcome else None))
    return rc


def _serve_daemon(args: argparse.Namespace, params) -> int:
    """The ``serve --daemon`` entry: stdin/socket protocol or load test."""
    from repro.api.online.admission import AdmissionConfig
    from repro.api.online.daemon import DaemonConfig, ServeDaemon

    admission = AdmissionConfig(
        rate=args.admit_rate,
        burst=args.admit_burst,
        max_queue_depth=args.max_queue,
    )
    daemon = ServeDaemon(
        DaemonConfig(
            p=args.p,
            params=params,
            policy=args.policy,
            verify=not args.no_verify,
            time_scale=args.time_scale,
            batch=args.batch,
            admission=admission,
        )
    )
    if args.load:
        import json

        summary = daemon.run_load_test(
            args.load,
            rate=args.rate,
            process=args.arrivals,
            n_range=(args.n_min, args.n_max),
            k_range=(args.k_min, args.k_max),
            seed=args.seed,
        )
        print(json.dumps(summary, separators=(",", ":")))
        return 0
    if args.socket:
        daemon.serve_unix(args.socket)
        return 0
    daemon.run_stdin()
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro import HARDWARE_PRESETS, optimize_parameters, tuned_parameters
    from repro.trsm.cost_model import iterative_cost, recursive_cost

    params = HARDWARE_PRESETS[args.machine]
    closed = tuned_parameters(args.n, args.k, args.p)
    best = optimize_parameters(args.n, args.k, args.p, params=params)
    print(f"regime: {closed.regime.value}")
    for name, c in (("closed form", closed), ("model search", best)):
        t = iterative_cost(args.n, args.k, c.n0, c.p1, c.p2).time(params)
        print(
            f"{name:13s}: p1={c.p1:<5d} p2={c.p2:<7d} n0={c.n0:<7d} "
            f"modeled {t * 1e3:.4f} ms"
        )
    t_rec = recursive_cost(args.n, args.k, args.p).time(params)
    print(f"{'recursive':13s}: modeled {t_rec * 1e3:.4f} ms (baseline)")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from repro.analysis import regime_map, render_regime_map
    from repro.machine.validate import ParameterError, require

    _require_p_bounds(args.p_min, args.p_max)
    require(
        args.ratio_min <= args.ratio_max,
        ParameterError,
        f"ratio_min (= {args.ratio_min}) exceeds ratio_max (= {args.ratio_max})",
    )
    print(
        render_regime_map(
            regime_map(
                (args.ratio_min, args.ratio_max), (args.p_min, args.p_max)
            )
        )
    )
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.trsm.cost_model import conclusion_row
    from repro.tuning.regimes import classify_trsm

    _require_p_bounds(args.p_min, args.p_max)
    rows = []
    p = args.p_min
    while p <= args.p_max:
        row = conclusion_row(args.n, args.k, p)
        std, new = row["standard"], row["new"]
        rows.append(
            [
                classify_trsm(args.n, args.k, p).value,
                p,
                std.S,
                new.S,
                std.S / new.S if new.S else float("inf"),
                std.W / new.W if new.W else float("inf"),
            ]
        )
        p *= 4
    print(
        format_table(
            ["regime", "p", "S std", "S new", "S ratio", "W ratio"],
            rows,
            title=f"Conclusion-table sweep (n={args.n}, k={args.k})",
        )
    )
    return 0


def _cmd_presets(_args: argparse.Namespace) -> int:
    from repro import HARDWARE_PRESETS

    for name, p in HARDWARE_PRESETS.items():
        print(
            f"{name:16s}: alpha={p.alpha:.2e}  beta={p.beta:.2e}  "
            f"gamma={p.gamma:.2e}  (alpha/beta = {p.latency_bandwidth_ratio():.3g})"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Communication-avoiding TRSM: simulated solves and cost models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one tuned simulated solve")
    _add_nkp(p_solve)
    p_solve.add_argument(
        "--algorithm", choices=["auto", "iterative", "recursive"], default="auto"
    )
    p_solve.add_argument(
        "--tune", choices=["closed_form", "search"], default="closed_form"
    )
    _add_machine(p_solve)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the residual check (prints 'skipped')",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_serve = sub.add_parser(
        "serve", help="replay a Poisson TRSM request stream through the Cluster"
    )
    p_serve.add_argument("-p", type=int, default=64, help="processors (power of two)")
    p_serve.add_argument("--requests", type=int, default=8, help="stream length")
    p_serve.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="Poisson arrival rate in requests/s (0 = all arrive at t=0)",
    )
    p_serve.add_argument("--n-min", type=int, default=64)
    p_serve.add_argument("--n-max", type=int, default=256)
    p_serve.add_argument("--k-min", type=int, default=8)
    p_serve.add_argument("--k-max", type=int, default=64)
    _add_machine(p_serve)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--policy",
        choices=["lpt", "backfill", "optimal", "horizon"],
        default="lpt",
        help="packing policy (optimal is exhaustive: queues of <= 8 only; "
        "horizon runs the same search on a sliding window at any length)",
    )
    p_serve.add_argument(
        "--backend",
        choices=["sim", "mpi"],
        default="sim",
        help="execution backend: 'sim' simulated clocks (default); 'mpi' "
        "executes the routing plans with real Alltoallv transport and "
        "wall-clock timing (requires mpi4py; values are identical)",
    )
    p_serve.add_argument(
        "--validate",
        action="store_true",
        help="print the modeled-vs-measured validation report after the run",
    )
    p_serve.add_argument(
        "--gap",
        action="store_true",
        help="replay the stream under every policy and print the gap report",
    )
    p_serve.add_argument(
        "--no-resident",
        action="store_true",
        help="pass operands as globals (skip data-plane hosting + migration)",
    )
    p_serve.add_argument("--no-verify", action="store_true")
    p_serve.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top functions by cumulative time",
    )
    p_serve.add_argument(
        "--arrivals",
        choices=["poisson", "lognormal", "diurnal"],
        default="poisson",
        help="arrival process for the synthetic stream (and --daemon --load)",
    )
    p_serve.add_argument(
        "--daemon",
        action="store_true",
        help="run the online serving daemon (JSON line protocol on stdin, "
        "or --socket / --load)",
    )
    p_serve.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="daemon only: serve the protocol on a Unix socket instead of stdin",
    )
    p_serve.add_argument(
        "--load",
        type=int,
        default=0,
        metavar="COUNT",
        help="daemon only: run a seeded load test of COUNT requests and exit",
    )
    p_serve.add_argument(
        "--time-scale",
        type=float,
        default=1e-6,
        help="daemon only: simulated seconds per wall second (default 1e-6)",
    )
    p_serve.add_argument(
        "--batch",
        type=int,
        default=8,
        help="daemon only: auto-flush after this many admitted requests",
    )
    p_serve.add_argument(
        "--admit-rate",
        type=float,
        default=None,
        help="daemon only: per-tenant token-bucket refill in requests per "
        "simulated second (default: no rate limit)",
    )
    p_serve.add_argument(
        "--admit-burst",
        type=float,
        default=8.0,
        help="daemon only: per-tenant token-bucket capacity",
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        help="daemon only: admission queue depth cap (rejects beyond it)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_tune = sub.add_parser("tune", help="a-priori parameter advice")
    _add_nkp(p_tune)
    _add_machine(p_tune)
    p_tune.set_defaults(func=_cmd_tune)

    p_map = sub.add_parser("map", help="Figure 1 regime map")
    p_map.add_argument("--ratio-min", type=int, default=-8)
    p_map.add_argument("--ratio-max", type=int, default=8)
    p_map.add_argument("--p-min", type=int, default=4)
    p_map.add_argument("--p-max", type=int, default=65536)
    p_map.set_defaults(func=_cmd_map)

    p_table = sub.add_parser("table", help="Section IX conclusion-table sweep")
    p_table.add_argument("-n", type=int, default=256)
    p_table.add_argument("-k", type=int, default=64)
    p_table.add_argument("--p-min", type=int, default=64)
    p_table.add_argument("--p-max", type=int, default=2**20)
    p_table.set_defaults(func=_cmd_table)

    p_presets = sub.add_parser("presets", help="list machine cost presets")
    p_presets.set_defaults(func=_cmd_presets)

    p_report = sub.add_parser(
        "report", help="write model-side artifacts (CSV/JSON) to a directory"
    )
    p_report.add_argument("directory")
    p_report.add_argument("-n", type=int, default=256)
    p_report.add_argument("-k", type=int, default=64)
    p_report.set_defaults(func=_cmd_report)

    p_check = sub.add_parser("selfcheck", help="run the acceptance battery")
    p_check.add_argument("--quick", action="store_true")
    p_check.set_defaults(func=_cmd_selfcheck)

    p_lint = sub.add_parser(
        "lint", help="prove the cost model's invariants with replint"
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "benchmarks"],
        help="files or directories to lint (default: src tests benchmarks)",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from repro.analysis.selfcheck import run_selfcheck

    report = run_selfcheck(quick=args.quick)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import run_lint

    return run_lint(args.paths, list_rules=args.list_rules)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.export import write_report

    for path in write_report(args.directory, n=args.n, k=args.k):
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    from repro.machine.validate import ParameterError

    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except ParameterError as exc:
        # a refused configuration (e.g. `--policy optimal` on a queue
        # longer than its exhaustive-search bound) is a usage error, not
        # a crash: one line, exit 2 (argparse's own usage-error code)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
