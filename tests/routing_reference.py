"""Golden reference: the pre-vectorization routing loops, pinned verbatim.

When :mod:`repro.dist.routing` was vectorized (argsort/group-by over owner
pairs instead of per-pair ``np.nonzero`` scans), the original per-pair loop
implementations moved here unchanged, exactly as ``tests/test_policies.py``
pinned the pre-refactor LPT scheduler.  The hypothesis parity suite in
``tests/test_throughput.py`` runs every plan through both implementations
and asserts bit-identical pairs, costs, pointwise charges and routed blocks.

An oracle *beside* the fast path: each function takes a built
:class:`~repro.dist.routing.RoutingPlan` and recomputes one of its answers
the old way.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.machine.cost import Cost

if TYPE_CHECKING:
    from repro.dist.routing import Blocks, RoutingPlan


def reference_pairs(plan: "RoutingPlan") -> list[tuple[int, int, int]]:
    """The original nested-``np.nonzero`` pair enumeration."""
    out: list[tuple[int, int, int]] = []
    R, C = plan._R, plan._C
    for a, x in zip(*np.nonzero(R)):
        for b, y in zip(*np.nonzero(C)):
            sr = plan.src.rank(int(a), int(b))
            dr = plan.dst.rank(int(x), int(y))
            if sr != dr:
                out.append((sr, dr, int(R[a, x] * C[b, y])))
    return out


def _per_rank_dicts(
    plan: "RoutingPlan",
) -> tuple[dict[int, float], dict[int, float], dict[int, int], dict[int, int]]:
    """The original dict accumulation over :func:`reference_pairs`."""
    sent: dict[int, float] = {}
    recv: dict[int, float] = {}
    s_pairs: dict[int, int] = {}
    r_pairs: dict[int, int] = {}
    for sr, dr, words in reference_pairs(plan):
        sent[sr] = sent.get(sr, 0.0) + words
        recv[dr] = recv.get(dr, 0.0) + words
        s_pairs[sr] = s_pairs.get(sr, 0) + 1
        r_pairs[dr] = r_pairs.get(dr, 0) + 1
    return sent, recv, s_pairs, r_pairs


def reference_cost(plan: "RoutingPlan") -> Cost:
    """The original aggregate critical-path charge."""
    sent, recv, s_pairs, r_pairs = _per_rank_dicts(plan)
    ranks = set(sent) | set(recv)
    S = max(
        (max(s_pairs.get(r, 0), r_pairs.get(r, 0)) for r in ranks),
        default=0,
    )
    W = max(
        (max(sent.get(r, 0.0), recv.get(r, 0.0)) for r in ranks),
        default=0.0,
    )
    return Cost(S=float(S), W=float(W), F=0.0)


def reference_pointwise_costs(plan: "RoutingPlan") -> dict[int, Cost]:
    """The original per-rank local charges of ``charge_pointwise``."""
    sent, recv, s_pairs, r_pairs = _per_rank_dicts(plan)
    return {
        r: Cost(
            S=float(max(s_pairs.get(r, 0), r_pairs.get(r, 0))),
            W=float(max(sent.get(r, 0.0), recv.get(r, 0.0))),
            F=0.0,
        )
        for r in set(sent) | set(recv)
    }


def reference_apply(
    plan: "RoutingPlan",
    blocks: "Blocks",
    out: dict[int, np.ndarray] | None = None,
) -> dict[int, np.ndarray]:
    """The original per-pair ``np.nonzero`` routing loop (with the
    duplicated per-call ``col_cache`` the vectorized path hoisted)."""
    if out is None:
        out = {
            plan.dst.grid.rank(coord): np.zeros(
                plan.dst.layout.local_shape(coord, plan.dst.full_shape)
            )
            for coord in plan.dst.grid.coords()
        }
    elif any(dst_b is src_b for dst_b in out.values() for src_b in blocks.values()):
        blocks = {r: b.copy() for r, b in blocks.items()}
    sro, srp, sco, scp, dro, drp, dco, dcp = plan._maps
    R, C = plan._R, plan._C
    col_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for a, x in zip(*np.nonzero(R)):
        ridx = np.nonzero((sro == a) & (dro == x))[0]
        rs, rd = srp[ridx], drp[ridx]
        for b, y in zip(*np.nonzero(C)):
            key = (int(b), int(y))
            hit = col_cache.get(key)
            if hit is None:
                cidx = np.nonzero((sco == b) & (dco == y))[0]
                hit = col_cache[key] = (scp[cidx], dcp[cidx])
            cs, cd = hit
            src_view = plan.src.local_view(blocks, int(a), int(b))
            dst_block = out[plan.dst.rank(int(x), int(y))]
            dst_view = dst_block.T if plan.dst.transpose else dst_block
            dst_view[np.ix_(rd, cd)] = src_view[np.ix_(rs, cs)]
    return out
