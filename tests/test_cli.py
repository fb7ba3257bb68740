"""CLI tests (python -m repro)."""

import io
import json

import pytest

from repro.__main__ import build_parser, main


class TestSolve:
    def test_solve_default(self, capsys):
        assert main(["solve", "-n", "32", "-k", "8", "-p", "4"]) == 0
        out = capsys.readouterr().out
        assert "algorithm : iterative" in out
        assert "residual" in out

    def test_solve_recursive(self, capsys):
        assert (
            main(["solve", "-n", "16", "-k", "4", "-p", "4", "--algorithm", "recursive"])
            == 0
        )
        assert "recursive" in capsys.readouterr().out

    def test_solve_search_tuning(self, capsys):
        assert (
            main(["solve", "-n", "32", "-k", "8", "-p", "4", "--tune", "search"]) == 0
        )
        assert "parameters" in capsys.readouterr().out

    def test_solve_machine_preset(self, capsys):
        assert (
            main(["solve", "-n", "16", "-k", "4", "-p", "4", "--machine", "latency_bound"])
            == 0
        )
        assert "latency_bound" in capsys.readouterr().out


    def test_solve_no_verify_prints_skipped(self, capsys):
        assert (
            main(["solve", "-n", "32", "-k", "8", "-p", "4", "--no-verify"]) == 0
        )
        out = capsys.readouterr().out
        assert "residual  : skipped" in out


class TestServe:
    def test_serve_burst_reports_speedup(self, capsys):
        assert (
            main(
                [
                    "serve", "-p", "16", "--requests", "4",
                    "--n-min", "32", "--n-max", "64",
                    "--k-min", "8", "--k-max", "16",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "modeled makespan" in out
        assert "serial full-grid" in out
        assert "pool occupancy" in out

    def test_serve_optimal_long_queue_exits_2_with_one_line(self, capsys):
        """Regression: this used to die with a raw ParameterError
        traceback; now it is a clean usage error on stderr."""
        code = main(
            [
                "serve", "--policy", "optimal", "--requests", "12", "-p", "16",
                "--n-min", "32", "--n-max", "32",
                "--k-min", "8", "--k-max", "8",
                "--no-verify",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        err_lines = [ln for ln in captured.err.splitlines() if ln]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: ")
        assert "exceeds its window of 8" in err_lines[0]
        assert "Traceback" not in captured.err

    def test_serve_backfill_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--policy", "backfill"])
        assert exc.value.code == 2
        assert "invalid choice: 'backfill'" in capsys.readouterr().err

    def test_serve_horizon_serves_long_queue(self, capsys):
        """The fix proper: --policy horizon packs the queue optimal refuses."""
        code = main(
            [
                "serve", "--policy", "horizon", "--requests", "10", "-p", "16",
                "--n-min", "32", "--n-max", "64",
                "--k-min", "8", "--k-max", "8",
                "--no-verify",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "requests          : 10" in out
        assert "modeled makespan" in out

    def test_serve_poisson_no_resident(self, capsys):
        assert (
            main(
                [
                    "serve", "-p", "16", "--requests", "3", "--rate", "1e4",
                    "--n-min", "32", "--n-max", "32",
                    "--k-min", "8", "--k-max", "8",
                    "--no-resident", "--no-verify",
                ]
            )
            == 0
        )
        assert "requests          : 3" in capsys.readouterr().out

    def test_serve_profile_prints_hotspots(self, capsys):
        assert (
            main(
                [
                    "serve", "-p", "16", "--requests", "3",
                    "--n-min", "32", "--n-max", "32",
                    "--k-min", "8", "--k-max", "8",
                    "--no-verify", "--profile",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # the normal report still prints, followed by the pstats table
        assert "modeled makespan" in out
        assert "profile (top 25 by cumulative time):" in out
        assert "cumtime" in out
        # the cache-layer summary rides along with --profile
        assert "cache stats:" in out
        assert "routing-plan LRU" in out
        assert "pricing memo" in out


class TestServeDaemon:
    def test_daemon_stdin_round_trip(self, capsys, monkeypatch):
        lines = "\n".join(
            [
                json.dumps({"op": "trsm", "n": 32, "k": 8, "sla": 1e9}),
                json.dumps({"op": "shutdown"}),
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
        assert main(["serve", "-p", "16", "--daemon", "--no-verify"]) == 0
        out = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
        assert out[0]["decision"] == "admitted"
        shutdown = next(o for o in out if o.get("op") == "shutdown")
        assert shutdown["final_flush"]["completed"] == 1
        assert shutdown["final_flush"]["results"][0]["sla_met"] is True

    def test_daemon_load_test(self, capsys):
        assert (
            main(
                [
                    "serve", "-p", "16", "--daemon", "--load", "4",
                    "--rate", "1e4", "--arrivals", "diurnal",
                    "--n-min", "32", "--n-max", "32",
                    "--k-min", "8", "--k-max", "8",
                    "--no-verify", "--batch", "2",
                ]
            )
            == 0
        )
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["offered"] == 4 and summary["completed"] == 4
        assert summary["flushes"] == 2

    def test_daemon_refuses_batch_past_the_exhaustive_bound(
        self, capsys, monkeypatch
    ):
        """Regression: a batch of 12 under the 8-request exhaustive search
        used to admit 11 requests, fail the 12th's auto-flush and lose all
        of them, then exit 0.  The config is refused before anything is
        admitted."""
        lines = [json.dumps({"op": "trsm", "n": 32, "k": 8})] * 12
        lines += [json.dumps({"op": "stats"}), json.dumps({"op": "shutdown"})]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(
            [
                "serve", "--daemon", "--policy", "optimal", "--batch", "12",
                "-p", "16", "--no-verify",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err_lines = [ln for ln in captured.err.splitlines() if ln]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: ")
        assert "batch=12" in err_lines[0]


class TestOtherCommands:
    def test_tune(self, capsys):
        assert main(["tune", "-n", "128", "-k", "32", "-p", "16"]) == 0
        out = capsys.readouterr().out
        assert "closed form" in out and "model search" in out and "recursive" in out

    def test_map(self, capsys):
        assert main(["map", "--ratio-min", "-2", "--ratio-max", "2", "--p-max", "64"]) == 0
        out = capsys.readouterr().out
        assert "one large dimension" in out

    def test_table(self, capsys):
        assert main(["table", "-n", "256", "-k", "64", "--p-max", "1024"]) == 0
        out = capsys.readouterr().out
        assert "S ratio" in out

    def test_presets(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "latency_bound" in out and "alpha" in out


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--machine", "nope"],
        ["tune", "--machine", "nope"],
        ["solve", "-n", "0"],
        ["map", "--p-min", "64", "--p-max", "4"],
        ["map", "--p-min", "3"],
        ["map", "--ratio-min", "5", "--ratio-max", "-5"],
        ["table", "--p-min", "64", "--p-max", "4"],
    ],
    ids=" ".join,
)
def test_bad_arguments_exit_2_with_one_error_line(argv, capsys):
    """A bad preset or out-of-range n, p or ratio bound is a usage error: exit 2
    and one ``error:`` line on stderr, from argparse or from ``main``."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage error
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1
