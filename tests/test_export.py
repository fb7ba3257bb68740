"""Structured export (CSV/JSON) and the report command."""

import csv
import json


from repro.analysis.export import (
    conclusion_sweep_rows,
    regime_map_json,
    rows_to_csv,
    tuning_table_rows,
    write_report,
)


class TestPrimitives:
    def test_rows_to_csv_roundtrip(self):
        text = rows_to_csv(["a", "b"], [[1, "x,y"], [2, "z"]])
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["a", "b"]
        assert rows[1] == ["1", "x,y"]  # quoting survived the comma


class TestSweeps:
    def test_conclusion_sweep_shape(self):
        headers, rows = conclusion_sweep_rows(256, 64, [16, 256])
        assert len(headers) == 10
        assert len(rows) == 2
        assert rows[0][3] == 16

    def test_regime_map_json_parses(self):
        data = json.loads(regime_map_json((-2, 2), (4, 64)))
        assert set(data) == {"log2_n_over_k", "p", "labels"}
        assert all(v in ("1D", "2D", "3D") for row in data["labels"] for v in row)

    def test_tuning_table(self):
        headers, rows = tuning_table_rows([(128, 32, 16)])
        assert rows[0][:3] == [128, 32, 16]
        assert rows[0][4] * rows[0][4] * rows[0][5] == 16  # p1^2 p2 = p


class TestReport:
    def test_write_report_creates_files(self, tmp_path):
        paths = write_report(tmp_path / "report", n=128, k=32, ps=[16, 64])
        names = {p.name for p in paths}
        assert names == {
            "conclusion_sweep.csv",
            "regime_map.json",
            "tuning_table.csv",
            "sensitivity.csv",
        }
        for p in paths:
            assert p.exists() and p.stat().st_size > 0

    def test_report_csv_parsable(self, tmp_path):
        paths = write_report(tmp_path, n=128, k=32, ps=[16, 64])
        for p in paths:
            if p.suffix == ".csv":
                rows = list(csv.reader(p.read_text().splitlines()))
                assert len(rows) >= 2

    def test_cli_report_command(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["report", str(tmp_path / "out"), "-n", "128", "-k", "32"]) == 0
        out = capsys.readouterr().out
        assert "conclusion_sweep.csv" in out
