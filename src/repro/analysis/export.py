"""Structured export of experiment artifacts (CSV / JSON).

The benches write human-readable tables to ``benchmarks/results/``; this
module produces machine-readable versions of the same sweeps for plotting
or downstream analysis, plus a one-call ``write_report`` that regenerates
the full model-side artifact set into a directory.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from typing import Sequence


def rows_to_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render rows as CSV text (RFC-4180 quoting via the csv module)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(headers))
    for row in rows:
        writer.writerow(list(row))
    return buf.getvalue()


def conclusion_sweep_rows(
    n: int, k: int, ps: Sequence[int]
) -> tuple[list[str], list[list[object]]]:
    """CSV-ready Section IX sweep for fixed (n, k)."""
    from repro.trsm.cost_model import conclusion_row
    from repro.tuning.regimes import classify_trsm

    headers = [
        "regime", "n", "k", "p",
        "S_std", "W_std", "F_std",
        "S_new", "W_new", "F_new",
    ]
    rows: list[list[object]] = []
    for p in ps:
        r = conclusion_row(n, k, p)
        std, new = r["standard"], r["new"]
        rows.append(
            [
                classify_trsm(n, k, p).value, n, k, p,
                std.S, std.W, std.F, new.S, new.W, new.F,
            ]
        )
    return headers, rows


def regime_map_json(ratio_range=(-8, 8), p_range=(4, 65536)) -> str:
    """Figure 1 as JSON: {ratios, ps, labels}."""
    from repro.analysis.regime_map import regime_map

    rmap = regime_map(ratio_range, p_range)
    return json.dumps(
        {
            "log2_n_over_k": rmap.ratios,
            "p": rmap.ps,
            "labels": [[r.value for r in row] for row in rmap.labels],
        },
        indent=2,
    )


def tuning_table_rows(
    cases: Sequence[tuple[int, int, int]]
) -> tuple[list[str], list[list[object]]]:
    """Section VIII parameters for a case list."""
    from repro.tuning.parameters import tuned_parameters

    headers = ["n", "k", "p", "regime", "p1", "p2", "n0", "r1", "r2"]
    rows: list[list[object]] = []
    for n, k, p in cases:
        c = tuned_parameters(n, k, p)
        rows.append([n, k, p, c.regime.value, c.p1, c.p2, c.n0, c.r1, c.r2])
    return headers, rows


def write_report(
    directory: str | pathlib.Path,
    n: int = 256,
    k: int = 64,
    ps: Sequence[int] | None = None,
) -> list[pathlib.Path]:
    """Regenerate the model-side artifacts into ``directory``.

    Writes ``conclusion_sweep.csv``, ``regime_map.json``,
    ``tuning_table.csv`` and ``sensitivity.csv``; returns the paths.
    """
    from repro.analysis.sensitivity import sweep_alpha_beta

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if ps is None:
        ps = [4**e for e in range(2, 10)]

    written: list[pathlib.Path] = []

    headers, rows = conclusion_sweep_rows(n, k, ps)
    path = directory / "conclusion_sweep.csv"
    path.write_text(rows_to_csv(headers, rows))
    written.append(path)

    path = directory / "regime_map.json"
    path.write_text(regime_map_json())
    written.append(path)

    cases = [(n, k, p) for p in ps]
    headers, rows = tuning_table_rows(cases)
    path = directory / "tuning_table.csv"
    path.write_text(rows_to_csv(headers, rows))
    written.append(path)

    pts = sweep_alpha_beta(n, k, ps[len(ps) // 2])
    headers2 = ["alpha_over_beta", "t_recursive", "t_iterative", "speedup"]
    rows2 = [
        [pt.alpha_over_beta, pt.t_recursive, pt.t_iterative, pt.speedup]
        for pt in pts
    ]
    path = directory / "sensitivity.csv"
    path.write_text(rows_to_csv(headers2, rows2))
    written.append(path)

    return written
