"""The Section II-C1 collective cost table: butterfly (recursive-doubling)
collectives, ``log g`` rounds, bandwidth-optimal volumes.

This is the one place the table lives.  :mod:`repro.machine.collectives`
(which also moves the data), ``mm3d`` and ``it_inv_trsm`` call these
functions qualified by module (``collective_models.bcast``), so a cost is
never mistaken for the collective of the same name.

Every function returns the :class:`Cost` charged to **each participant** of
a group of size ``g`` (``n`` = words, ``1_g`` = unit step):

===============  =======================  =========================  ==========
collective       S (messages)             W (words)                  F (flops)
===============  =======================  =========================  ==========
allgather        ``log g``                ``n_result * 1_g``         0
scatter          ``log g``                ``n_total * 1_g``          0
gather           ``log g``                ``n_total * 1_g``          0
reduce-scatter   ``log g``                ``n_total * 1_g``          ``n_total * 1_g``
bcast            ``2 log g``              ``2 n * 1_g``              0
reduce           ``2 log g``              ``2 n * 1_g``              ``n * 1_g``
allreduce        ``2 log g``              ``2 n * 1_g``              ``n * 1_g``
all-to-all       ``log g``                ``(n_per_rank/2) log g``   0
===============  =======================  =========================  ==========

``log`` is ``ceil(log2)``; groups of size 1 charge nothing.
"""

from __future__ import annotations

import math

from repro.machine.cost import Cost
from repro.util.mathutil import unit_step


def _log2_ceil(g: int) -> int:
    return int(math.ceil(math.log2(g))) if g > 1 else 0


def allgather(g: int, n_result: float) -> Cost:
    return Cost(S=_log2_ceil(g), W=n_result * unit_step(g), F=0.0)


def scatter(g: int, n_total: float) -> Cost:
    return Cost(S=_log2_ceil(g), W=n_total * unit_step(g), F=0.0)


gather = scatter


def reduce_scatter(g: int, n_total: float) -> Cost:
    return Cost(
        S=_log2_ceil(g),
        W=n_total * unit_step(g),
        F=n_total * unit_step(g),
    )


def bcast(g: int, n: float) -> Cost:
    return Cost(S=2 * _log2_ceil(g), W=2 * n * unit_step(g), F=0.0)


def reduce(g: int, n: float) -> Cost:
    return Cost(S=2 * _log2_ceil(g), W=2 * n * unit_step(g), F=n * unit_step(g))


allreduce = reduce


def alltoall(g: int, n_per_rank: float) -> Cost:
    return Cost(S=_log2_ceil(g), W=(n_per_rank / 2.0) * _log2_ceil(g), F=0.0)
