"""Collective operations: real data movement + Section II-C1 costs.

Every collective here does two things at once:

1. **moves real numpy data** between virtual ranks (dicts ``rank -> ndarray``),
   so algorithm implementations are numerically honest end to end; and
2. **charges the butterfly-collective costs of the paper's Section II-C1**
   to the participating group, via :meth:`Machine.charge` — the cost table
   is :mod:`repro.machine.collective_models`; point-to-point messages
   charge ``S = 1, W = n`` per end.

All collectives are *group-synchronizing*: participants' clocks align to the
group max before the charge, which is how the simulation measures
critical-path time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.machine import collective_models
from repro.machine.cost import Cost
from repro.machine.machine import Machine
from repro.machine.validate import ShapeError, require
from repro.util.mathutil import split_indices

Arrays = dict[int, np.ndarray]


def _words(a: np.ndarray) -> int:
    return int(a.size)


def _check_group_data(group: Sequence[int], data: Arrays, what: str) -> None:
    missing = [r for r in group if r not in data]
    require(not missing, ShapeError, f"{what}: ranks {missing} contributed no data")


# ---------------------------------------------------------------------------
# one-phase butterfly collectives
# ---------------------------------------------------------------------------


def allgather(
    machine: Machine,
    group: Sequence[int],
    contribs: Arrays,
    axis: int = 0,
    label: str = "allgather",
) -> Arrays:
    """Concatenate each rank's contribution along ``axis``; all ranks get the result.

    Cost: ``alpha*log g + beta*n_result*1_g`` (paper's allgather).
    """
    group = list(group)
    _check_group_data(group, contribs, "allgather")
    parts = [contribs[r] for r in group]
    result = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)
    g = len(group)
    machine.charge(group, collective_models.allgather(g, _words(result)), label=label)
    return {r: result for r in group}


def allgather_blocks(
    machine: Machine,
    group: Sequence[int],
    contribs: Arrays,
    label: str = "allgather",
) -> dict[int, Arrays]:
    """Allgather that keeps per-contributor identity.

    Every rank receives a dict ``source_rank -> block`` (the blocks may have
    different shapes; callers reassemble them with their own index maps,
    e.g. the cyclic interleave of the paper's MM line 2).  Cost is identical
    to :func:`allgather`: ``alpha*log g + beta*n_result*1_g`` where
    ``n_result`` is the total gathered volume.
    """
    group = list(group)
    _check_group_data(group, contribs, "allgather_blocks")
    g = len(group)
    n_result = sum(_words(contribs[r]) for r in group)
    machine.charge(group, collective_models.allgather(g, n_result), label=label)
    gathered = {r: contribs[r] for r in group}
    return {r: gathered for r in group}


def scatter(
    machine: Machine,
    group: Sequence[int],
    root: int,
    chunks: Sequence[np.ndarray],
    label: str = "scatter",
) -> Arrays:
    """Root distributes ``chunks[i]`` to ``group[i]``.

    Cost: ``alpha*log g + beta*n_total*1_g`` where ``n_total`` is the total
    scattered volume (paper's scatter).
    """
    group = list(group)
    require(root in group, ShapeError, "scatter root must be in the group")
    require(
        len(chunks) == len(group),
        ShapeError,
        f"scatter needs one chunk per rank: {len(chunks)} chunks, {len(group)} ranks",
    )
    g = len(group)
    n_total = sum(_words(c) for c in chunks)
    machine.charge(group, collective_models.scatter(g, n_total), label=label)
    return {r: chunks[i] for i, r in enumerate(group)}


def gather(
    machine: Machine,
    group: Sequence[int],
    root: int,
    contribs: Arrays,
    label: str = "gather",
) -> list[np.ndarray]:
    """Root collects one array per rank (in group order).

    Cost: ``alpha*log g + beta*n_total*1_g``.
    """
    group = list(group)
    require(root in group, ShapeError, "gather root must be in the group")
    _check_group_data(group, contribs, "gather")
    g = len(group)
    n_total = sum(_words(contribs[r]) for r in group)
    machine.charge(group, collective_models.gather(g, n_total), label=label)
    return [contribs[r] for r in group]


def reduce_scatter(
    machine: Machine,
    group: Sequence[int],
    contribs: Arrays,
    axis: int = 0,
    label: str = "reduce_scatter",
) -> Arrays:
    """Sum the (same-shaped) contributions; rank ``group[i]`` gets slice ``i``.

    The summed array is split into ``g`` near-equal slabs along ``axis``.
    Cost: ``alpha*log g + (beta+gamma)*n_total*1_g`` with ``n_total`` the full
    array size (paper's reduce-scatter).
    """
    group = list(group)
    _check_group_data(group, contribs, "reduce_scatter")
    shapes = {contribs[r].shape for r in group}
    require(len(shapes) == 1, ShapeError, f"reduce_scatter shape mismatch: {shapes}")
    total = contribs[group[0]]
    for r in group[1:]:
        total = total + contribs[r]
    g = len(group)
    n_total = _words(total)
    machine.charge(group, collective_models.reduce_scatter(g, n_total), label=label)
    slabs = split_indices(total.shape[axis], g)
    out: Arrays = {}
    for i, r in enumerate(group):
        lo, hi = slabs[i]
        idx: list[object] = [slice(None)] * total.ndim
        idx[axis] = slice(lo, hi)
        out[r] = total[tuple(idx)]
    return out


# ---------------------------------------------------------------------------
# two-phase collectives (built from the one-phase set, Chan et al.)
# ---------------------------------------------------------------------------


def bcast(
    machine: Machine,
    group: Sequence[int],
    root: int,
    value: np.ndarray,
    label: str = "bcast",
) -> Arrays:
    """Broadcast ``value`` from ``root`` to the group (scatter + allgather).

    Cost: ``alpha*2 log g + beta*2n*1_g``.
    """
    group = list(group)
    require(root in group, ShapeError, "bcast root must be in the group")
    g = len(group)
    machine.charge(group, collective_models.bcast(g, _words(value)), label=label)
    return {r: value for r in group}


def reduce(
    machine: Machine,
    group: Sequence[int],
    root: int,
    contribs: Arrays,
    label: str = "reduce",
) -> np.ndarray:
    """Sum contributions onto ``root`` (reduce-scatter + gather).

    Cost: ``alpha*2 log g + beta*2n*1_g + gamma*n*1_g``.
    """
    group = list(group)
    require(root in group, ShapeError, "reduce root must be in the group")
    _check_group_data(group, contribs, "reduce")
    shapes = {contribs[r].shape for r in group}
    require(len(shapes) == 1, ShapeError, f"reduce shape mismatch: {shapes}")
    total = contribs[group[0]]
    for r in group[1:]:
        total = total + contribs[r]
    g = len(group)
    machine.charge(group, collective_models.reduce(g, _words(total)), label=label)
    return total


def allreduce(
    machine: Machine,
    group: Sequence[int],
    contribs: Arrays,
    label: str = "allreduce",
) -> Arrays:
    """Sum contributions; every rank gets the sum (reduce-scatter + allgather).

    Cost: ``alpha*2 log g + beta*2n*1_g + gamma*n*1_g``.
    """
    group = list(group)
    _check_group_data(group, contribs, "allreduce")
    shapes = {contribs[r].shape for r in group}
    require(len(shapes) == 1, ShapeError, f"allreduce shape mismatch: {shapes}")
    total = contribs[group[0]]
    for r in group[1:]:
        total = total + contribs[r]
    g = len(group)
    machine.charge(group, collective_models.allreduce(g, _words(total)), label=label)
    return {r: total for r in group}


# ---------------------------------------------------------------------------
# all-to-all and point-to-point
# ---------------------------------------------------------------------------


def alltoall(
    machine: Machine,
    group: Sequence[int],
    blocks: dict[int, Sequence[np.ndarray]],
    label: str = "alltoall",
) -> dict[int, list[np.ndarray]]:
    """Personalized exchange: rank ``group[i]`` sends ``blocks[rank][j]`` to
    ``group[j]`` and receives one block from every rank.

    Cost (Bruck): ``alpha*log g + beta*(n_per_rank/2)*log g`` where
    ``n_per_rank`` is the largest per-rank send volume.
    """
    group = list(group)
    g = len(group)
    _check_group_data(group, blocks, "alltoall")  # type: ignore[arg-type]
    for r in group:
        require(
            len(blocks[r]) == g,
            ShapeError,
            f"alltoall: rank {r} supplied {len(blocks[r])} blocks for group of {g}",
        )
    n_per_rank = max(sum(_words(b) for b in blocks[r]) for r in group)
    machine.charge(group, collective_models.alltoall(g, n_per_rank), label=label)
    return {
        dest: [np.asarray(blocks[src][j]) for src in group]
        for j, dest in enumerate(group)
    }


def sendrecv(
    machine: Machine,
    rank_a: int,
    rank_b: int,
    data_a: np.ndarray,
    data_b: np.ndarray,
    label: str = "sendrecv",
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise exchange: ``a`` gets ``data_b`` and vice versa.

    Cost per rank: one message of the larger payload (``S=1, W=n``) — the
    transposes on square grids in the paper's MM (line 4) use exactly this.
    A self-exchange (``rank_a == rank_b``) is free.
    """
    if rank_a == rank_b:
        return data_b, data_a
    n = max(_words(data_a), _words(data_b))
    machine.charge([rank_a, rank_b], Cost(S=1.0, W=float(n), F=0.0), label=label)
    return data_b, data_a


def send(
    machine: Machine,
    src: int,
    dest: int,
    data: np.ndarray,
    label: str = "send",
) -> np.ndarray:
    """One-directional point-to-point message (``S=1, W=n`` for both ends)."""
    if src == dest:
        return data
    machine.charge([src, dest], Cost(S=1.0, W=float(_words(data)), F=0.0), label=label)
    return data


def grid_transpose(
    machine: Machine,
    grid_axis_pairs: Sequence[tuple[int, int]],
    data: Arrays,
    label: str = "transpose",
) -> Arrays:
    """Exchange local blocks between rank pairs ``(a, b)`` (square-grid transpose).

    ``grid_axis_pairs`` lists each unordered pair once; diagonal ranks
    (``a == b``) keep their block for free.  Cost per involved rank:
    one message of its incoming block size.
    """
    out: Arrays = dict(data)
    for a, b in grid_axis_pairs:
        if a == b:
            continue
        out[a], out[b] = sendrecv(machine, a, b, data[a], data[b], label=label)
    return out
