"""Golden tests for replint: every rule against a paired good/bad fixture.

Each fixture under ``tests/lint_fixtures/`` impersonates a real module via
its ``# replint-fixture-module:`` header, so the rules see it exactly as
they would see hot-path library code.  The bad fixtures pin *exact* rule
ids and line numbers; the good twins pin silence.  Two fixtures encode
the acceptance scenarios from the invariants themselves: ``charge_bad``
is ``stage_matrix`` with its ``charge_pointwise`` pairing deleted, and
``rng_bad`` is a bare ``np.random.rand`` dropped into the serve layer.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.lint import RULES, lint_paths, rules, run_lint
from repro.lint.engine import derive_module

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def lint_fixture(name: str) -> list[tuple[str, int]]:
    found = lint_paths([str(FIXTURES / name)])
    return [(f.rule, f.line) for f in found]


class TestNoGlobalGather:
    def test_good(self):
        assert lint_fixture("gather_good.py") == []

    def test_bad(self):
        assert lint_fixture("gather_bad.py") == [
            ("no-global-gather", 10),
            ("no-global-gather", 11),
        ]


class TestChargeSoundness:
    def test_good(self):
        """The stage_matrix shape: charge_pointwise paired with apply."""
        assert lint_fixture("charge_good.py") == []

    def test_bad(self):
        """Deleting the charge_pointwise pairing makes the linter fail."""
        assert lint_fixture("charge_bad.py") == [("charge-soundness", 6)]

    def test_covered_through_callers(self, tmp_path):
        """A charge in every caller covers a mutation in a helper."""
        src = (
            "# replint-fixture-module: repro.dist.fixture_chain\n"
            "def outer(plan, machine, blocks):\n"
            "    plan.charge(machine, label='x')\n"
            "    return inner(plan, blocks)\n"
            "\n"
            "def inner(plan, blocks):\n"
            "    return plan.apply(blocks)\n"
        )
        p = tmp_path / "chain.py"
        p.write_text(src)
        assert lint_paths([str(p)]) == []

    def test_uncovered_when_one_caller_lacks_charge(self, tmp_path):
        src = (
            "# replint-fixture-module: repro.dist.fixture_chain_bad\n"
            "def outer(plan, machine, blocks):\n"
            "    plan.charge(machine, label='x')\n"
            "    return inner(plan, blocks)\n"
            "\n"
            "def sneaky(plan, blocks):\n"
            "    return inner(plan, blocks)\n"
            "\n"
            "def inner(plan, blocks):\n"
            "    return plan.apply(blocks)\n"
        )
        p = tmp_path / "chain_bad.py"
        p.write_text(src)
        found = lint_paths([str(p)])
        assert [(f.rule, f.line) for f in found] == [("charge-soundness", 10)]


class TestSlotsRequired:
    def test_good(self):
        assert lint_fixture("slots_good.py") == []

    def test_bad(self):
        assert lint_fixture("slots_bad.py") == [
            ("slots-required", 8),
            ("slots-required", 14),
        ]


class TestRngDiscipline:
    def test_good(self):
        assert lint_fixture("rng_good.py") == []

    def test_bad(self):
        """A bare np.random.rand in the serve layer, plus a seedless rng."""
        assert lint_fixture("rng_bad.py") == [
            ("rng-discipline", 8),
            ("rng-discipline", 12),
        ]


class TestInt32Accumulation:
    def test_good(self):
        assert lint_fixture("int32_good.py") == []

    def test_bad(self):
        assert lint_fixture("int32_bad.py") == [
            ("int32-accumulation", 8),
            ("int32-accumulation", 8),
        ]


class TestWallclockDiscipline:
    def test_good(self):
        assert lint_fixture("wallclock_good.py") == []

    def test_bad(self):
        assert lint_fixture("wallclock_bad.py") == [
            ("backend-discipline", 5),
            ("backend-discipline", 9),
            ("backend-discipline", 13),
        ]

    def test_daemon_is_allowlisted_not_exempt(self, monkeypatch):
        """The daemon's wall-clock default is caught by the rule and silenced
        only by the allowlist — moving the read elsewhere re-fires."""
        daemon = ROOT / "src" / "repro" / "api" / "online" / "daemon.py"
        assert lint_paths([str(daemon)]) == []
        monkeypatch.setattr(rules, "ALLOW", {})
        raw = lint_paths([str(daemon)])
        assert raw and {f.rule for f in raw} == {"backend-discipline"}


class TestBackendDiscipline:
    def test_good(self):
        """A directly built machine, clocks through backend.timer: silent."""
        assert lint_fixture("backend_good.py") == []

    def test_bad(self):
        """Three flavors of wall-clock read (the bare Machine(p) is fine)."""
        assert lint_fixture("backend_bad.py") == [
            ("backend-discipline", 5),
            ("backend-discipline", 12),
            ("backend-discipline", 14),
        ]

    def test_backend_and_machine_packages_are_exempt(self, tmp_path):
        """The packages that *implement* execution may read real clocks —
        the rule is about everyone else."""
        src = (
            "# replint-fixture-module: repro.backend.fixture_impl\n"
            "import time\n"
            "from repro.machine.machine import Machine\n"
            "\n"
            "def make(p):\n"
            "    t0 = time.perf_counter()\n"
            "    return Machine(p), t0\n"
        )
        p = tmp_path / "impl.py"
        p.write_text(src)
        assert lint_paths([str(p)]) == []

    def test_selfcheck_timer_is_allowlisted_not_exempt(self, monkeypatch):
        """_check times the battery with the host clock; that is silenced by
        the allowlist, not by weakening the rule."""
        selfcheck = ROOT / "src" / "repro" / "analysis" / "selfcheck.py"
        assert lint_paths([str(selfcheck)]) == []
        monkeypatch.setattr(rules, "ALLOW", {})
        raw = lint_paths([str(selfcheck)])
        assert raw and {f.rule for f in raw} == {"backend-discipline"}


class TestEscapeHatch:
    def test_justified_suppression_silences(self):
        assert lint_fixture("suppress_good.py") == []

    def test_unjustified_suppression_does_not_silence(self):
        """Without '-- <why>' the finding stays AND the comment is flagged."""
        assert lint_fixture("suppress_bad.py") == [
            ("bad-suppression", 8),
            ("rng-discipline", 8),
        ]

    def test_unknown_rule_in_disable_is_flagged(self, tmp_path):
        p = tmp_path / "typo.py"
        p.write_text(
            "# replint: disable=rng-dicipline -- typo in the rule id\n"
            "x = 1\n"
        )
        found = lint_paths([str(p)])
        assert [(f.rule, f.line) for f in found] == [("bad-suppression", 1)]

    def test_standalone_comment_covers_next_line_only(self, tmp_path):
        p = tmp_path / "stand.py"
        p.write_text(
            "# replint-fixture-module: repro.api.fixture_stand\n"
            "import numpy as np\n"
            "\n"
            "\n"
            "def f():\n"
            "    # replint: disable=rng-discipline -- only the line below\n"
            "    a = np.random.rand(2)\n"
            "    b = np.random.rand(2)\n"
            "    return a + b\n"
        )
        found = lint_paths([str(p)])
        assert [(f.rule, f.line) for f in found] == [("rng-discipline", 8)]


class TestEngine:
    def test_module_derivation(self):
        assert derive_module(Path("src/repro/dist/routing.py")) == "repro.dist.routing"
        assert derive_module(Path("src/repro/dist/__init__.py")) == "repro.dist"
        assert derive_module(Path("tests/test_lint.py")) == "tests.test_lint"
        assert derive_module(Path("benchmarks/bench_serve.py")) == "benchmarks.bench_serve"

    def test_parse_error_is_a_finding(self, tmp_path):
        p = tmp_path / "broken.py"
        p.write_text("def f(:\n")
        found = lint_paths([str(p)])
        assert [f.rule for f in found] == ["parse-error"]

    def test_allowlist_matches_module_and_qualname(self, monkeypatch):
        monkeypatch.setattr(
            rules, "ALLOW", {"rng-discipline": ("repro.api.fixture_serve:jitter",)}
        )
        found = lint_paths([str(FIXTURES / "rng_bad.py")])
        assert [(f.rule, f.line) for f in found] == [("rng-discipline", 12)]

    def test_directory_walk_skips_fixtures_named_file_is_linted(self):
        """Walking ``tests/`` never enters ``lint_fixtures``; naming a fixture
        explicitly lints it."""
        walked = lint_paths([str(FIXTURES.parent)])
        assert not any("lint_fixtures" in f.path for f in walked)
        named = lint_paths([str(FIXTURES.parent), str(FIXTURES / "gather_bad.py")])
        assert [(f.rule, f.line) for f in named] == [
            ("no-global-gather", 10),
            ("no-global-gather", 11),
        ]

    def test_rule_catalogue_is_complete(self):
        assert set(RULES) == {
            "no-global-gather",
            "charge-soundness",
            "slots-required",
            "rng-discipline",
            "int32-accumulation",
            "backend-discipline",
        }


class TestRepoTree:
    def test_repo_tree_is_clean(self):
        """`python -m repro lint src tests benchmarks` exits 0 on this tree."""
        found = lint_paths([str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "benchmarks")])
        assert [f.render() for f in found] == []

    def test_verdict_is_independent_of_cwd(self, tmp_path):
        """Run from outside the repo on absolute paths: still clean."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint"]
            + [str(ROOT / d) for d in ("src", "tests", "benchmarks")],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "replint: clean"

    def test_cli_reports_clean(self, capsys):
        rc = run_lint([str(ROOT / "src")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "replint: clean" in out

    def test_cli_list_rules(self, capsys):
        rc = run_lint([], list_rules=True)
        out = capsys.readouterr().out
        assert rc == 0
        assert [line.split()[0] for line in out.splitlines()] == list(RULES)
