"""The built-in acceptance battery."""


from repro.analysis.selfcheck import CheckResult, SelfCheckReport, run_selfcheck


class TestBattery:
    def test_quick_battery_passes(self):
        report = run_selfcheck(quick=True)
        assert report.ok, report.render()
        assert len(report.results) == 6

    def test_render_contains_status(self):
        report = run_selfcheck(quick=True)
        text = report.render()
        assert "PASS" in text
        assert "6/6 checks passed" in text

    def test_failures_are_reported_not_raised(self):
        report = SelfCheckReport()
        report.results.append(CheckResult("broken", False, "boom"))
        assert not report.ok
        assert "FAIL" in report.render()

    def test_cli_exit_code(self, capsys):
        from repro.__main__ import main

        assert main(["selfcheck", "--quick"]) == 0
        assert "checks passed" in capsys.readouterr().out


def test_full_battery_passes():
    report = run_selfcheck(quick=False)
    assert report.ok, report.render()
