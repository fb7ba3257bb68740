"""The serve path never imports ``scipy.linalg``.

The local kernels are numpy only.  ``import scipy.linalg`` alone costs
about 27 MiB of resident memory and 0.3 s, which a serve process pays on
every start (the benchmark bounds ``host_peak_rss_mb`` at 10 %), so only
``repro.analysis.selfcheck`` and the examples may load it.  A fresh
interpreter is the only place where ``sys.modules`` says what the program
itself imported.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    import repro
    from repro.api import Cluster, InvRequest, TrsmRequest
    from repro.util.randmat import random_dense, random_lower_triangular

    L = random_lower_triangular(48, seed=0)
    B = random_dense(48, 8, seed=1)
    repro.trsm(L, B, p=8, algorithm="iterative")
    repro.trsm(L, B, p=8, algorithm="recursive")
    repro.invert_lower_triangular(L)
    cluster = Cluster(16)
    cluster.submit(TrsmRequest(L=L, B=B))
    cluster.submit(InvRequest(L=L))
    cluster.run()
    print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
    """
)


def test_solves_and_inversion_do_not_import_scipy_linalg():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout)
    assert "scipy.linalg" not in loaded, loaded
