"""Serve a mixed request queue through the Cluster scheduler.

Usage: python examples/cluster_serve.py [p] [requests]

Hosts every operand on the cluster's data plane, submits a mix of TRSM,
MM and prepared-solve requests, and prints the per-request placements
plus the makespan comparison against serial full-grid execution.
"""

import sys

import numpy as np

from repro import (
    Cluster,
    MMRequest,
    PreparedSolveRequest,
    PreparedTrsm,
    TrsmRequest,
)
from repro.analysis.serve import serve_report
from repro.api.serve import replay_mixed
from repro.util.randmat import random_dense, random_lower_triangular


def main() -> int:
    p = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 8

    rng = np.random.default_rng(0)
    cluster = Cluster(p)

    # A factor prepared once, applied many times (Section II-C3).
    Lfix = random_lower_triangular(64, seed=99)
    prepared = PreparedTrsm(Lfix, p=p, k_hint=16)

    for i in range(count):
        n = int(rng.choice([64, 128]))
        k = int(rng.choice([8, 16, 32]))
        style = i % 3
        if style == 0:
            L = cluster.host(random_lower_triangular(n, seed=i))
            B = cluster.host(random_dense(n, k, seed=100 + i))
            cluster.submit(TrsmRequest(L=L, B=B))
        elif style == 1:
            A = cluster.host(random_dense(n, n, seed=200 + i))
            X = cluster.host(random_dense(n, k, seed=300 + i))
            cluster.submit(MMRequest(A=A, X=X))
        else:
            B = cluster.host(random_dense(64, 16, seed=400 + i))
            cluster.submit(PreparedSolveRequest(prepared=prepared, B=B))

    outcome = cluster.run()
    print(serve_report(outcome))
    speedup = outcome.speedup_vs_serial()
    print(f"\npacked {count} requests at {speedup:.2f}x the serial rate")

    # The packing rule is pluggable: the mixed small/large pinned stream
    # is where the rolling-horizon search strictly beats greedy LPT.
    lpt = replay_mixed(p=16, policy="lpt", smalls=8)
    horizon = replay_mixed(p=16, policy="horizon", smalls=8)
    win = (1.0 - horizon.modeled_makespan / lpt.modeled_makespan) * 100.0
    print(
        f"mixed pinned stream: lpt {lpt.modeled_makespan * 1e6:.1f} us, "
        f"horizon {horizon.modeled_makespan * 1e6:.1f} us "
        f"({win:+.1f}% makespan win)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
