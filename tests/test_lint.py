"""Golden tests for replint: every rule against a paired good/bad fixture.

Each fixture under ``tests/lint_fixtures/`` impersonates a real module via
its ``# replint-fixture-module:`` header, so the rules see it exactly as
they would see hot-path library code.  The bad fixtures pin *exact* rule
ids and line numbers; the good twins pin silence.  Two fixtures encode
the acceptance scenarios from the invariants themselves: ``charge_bad``
is ``stage_matrix`` with its ``charge_pointwise`` pairing deleted, and
``rng_bad`` is a bare ``np.random.rand`` dropped into the serve layer.
"""

from pathlib import Path

from repro.lint import RULES, LintConfig, lint_paths, load_config, run_lint
from repro.lint.engine import _parse_replint_sections, derive_module

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def lint_fixture(name: str) -> list[tuple[str, int]]:
    config = LintConfig(exclude=())
    found = lint_paths([str(FIXTURES / name)], config=config)
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
        assert lint_paths([str(p)], config=LintConfig(exclude=())) == []

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
        found = lint_paths([str(p)], config=LintConfig(exclude=()))
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

    def test_daemon_is_allowlisted_not_exempt(self):
        """The daemon's wall-clock default is caught by the rule and silenced
        only by the pyproject allowlist — moving the read elsewhere re-fires."""
        config = load_config(ROOT / "pyproject.toml")
        daemon = ROOT / "src" / "repro" / "api" / "online" / "daemon.py"
        raw = lint_paths([str(daemon)], config=LintConfig(exclude=()))
        assert any(f.rule == "backend-discipline" for f in raw)
        allowed = lint_paths([str(daemon)], config=config)
        assert [f.rule for f in allowed] == []


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
        assert lint_paths([str(p)], config=LintConfig(exclude=())) == []

    def test_selfcheck_timer_is_allowlisted_not_exempt(self):
        """_check times the battery with the host clock; that is silenced by
        the pyproject allowlist, not by weakening the rule."""
        config = load_config(ROOT / "pyproject.toml")
        selfcheck = ROOT / "src" / "repro" / "analysis" / "selfcheck.py"
        raw = lint_paths([str(selfcheck)], config=LintConfig(exclude=()))
        assert any(f.rule == "backend-discipline" for f in raw)
        allowed = lint_paths([str(selfcheck)], config=config)
        assert [f.rule for f in allowed] == []


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
        found = lint_paths([str(p)], config=LintConfig(exclude=()))
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
        found = lint_paths([str(p)], config=LintConfig(exclude=()))
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
        found = lint_paths([str(p)], config=LintConfig(exclude=()))
        assert [f.rule for f in found] == ["parse-error"]

    def test_allowlist_matches_module_and_qualname(self):
        config = LintConfig(
            exclude=(),
            allow={"rng-discipline": ("repro.api.fixture_serve:jitter",)},
        )
        found = lint_paths([str(FIXTURES / "rng_bad.py")], config=config)
        assert [(f.rule, f.line) for f in found] == [("rng-discipline", 12)]

    def test_config_loads_from_pyproject(self):
        config = load_config(ROOT / "pyproject.toml")
        assert "repro.sched" in config.hot_path_modules
        assert "lint_fixtures" in config.exclude
        assert "no-global-gather" in config.allow

    def test_toml_fallback_matches_tomllib(self):
        """The minimal 3.10 parser reads [tool.replint] identically."""
        import tomllib

        text = (ROOT / "pyproject.toml").read_text()
        full = tomllib.loads(text)["tool"]["replint"]
        mini = _parse_replint_sections(text)["tool"]["replint"]
        assert mini == full

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
        config = load_config(ROOT / "pyproject.toml")
        found = lint_paths(
            [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "benchmarks")],
            config=config,
        )
        assert [f.render() for f in found] == []

    def test_cli_reports_clean(self, capsys):
        rc = run_lint([str(ROOT / "src")], config_path=ROOT / "pyproject.toml")
        out = capsys.readouterr().out
        assert rc == 0
        assert "replint: clean" in out

    def test_cli_list_rules(self, capsys):
        rc = run_lint([], list_rules=True)
        out = capsys.readouterr().out
        assert rc == 0
        assert [line.split()[0] for line in out.splitlines()] == list(RULES)
