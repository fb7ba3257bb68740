"""Output checks: a schedule is a valid packing, a solve solved its system.

Everything here runs after the timed pass, on what the program returned.
A failed check makes the operation count as *failed*; it never raises.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.util.checking import relative_residual

#: a solve whose relative residual exceeds this has failed
RESIDUAL_LIMIT = 1e-10


@dataclass(frozen=True, slots=True)
class Placement:
    """One request's planned placement, as the validity check sees it."""

    index: int
    arrival: float
    start: float
    finish: float
    ranks: tuple[int, ...]


def _tolerance(t: float) -> float:
    # planned times are sums of the same float terms on both sides of a
    # comparison, so equality is exact; the slack only absorbs rebasing
    return 1e-15 + 1e-12 * abs(t)


def schedule_failures(placements: Sequence[Placement], expected: Iterable[int]) -> dict[int, str]:
    """``index -> reason`` for every request the schedule mishandles.

    A request must be placed exactly once, not before it arrives, for a
    non-negative duration, and on ranks no other request occupies during
    an overlapping interval.
    """
    failures: dict[int, str] = {}
    seen: dict[int, int] = {}
    for pl in placements:
        seen[pl.index] = seen.get(pl.index, 0) + 1
    for index in expected:
        if seen.pop(index, 0) != 1:
            failures[index] = "not placed exactly once"
    for index in seen:
        failures[index] = "placed but never submitted"
    by_rank: dict[int, list[Placement]] = {}
    for pl in placements:
        if pl.start < pl.arrival - _tolerance(pl.arrival):
            failures.setdefault(pl.index, "starts before its arrival")
        if pl.finish < pl.start:
            failures.setdefault(pl.index, "finishes before it starts")
        for rank in pl.ranks:
            by_rank.setdefault(rank, []).append(pl)
    for rank, tenants in by_rank.items():
        tenants.sort(key=lambda pl: (pl.start, pl.finish))
        busy_until, holder = float("-inf"), None
        for pl in tenants:
            if holder is not None and pl.start < busy_until - _tolerance(busy_until):
                failures.setdefault(pl.index, f"rank {rank} still busy with request {holder}")
            if pl.finish >= busy_until:
                busy_until, holder = pl.finish, pl.index
    return failures


def solve_failure(X: object, residual: float | None, operands: Callable[[], tuple]) -> str | None:
    """Why ``X`` does not solve ``L X = B``, or ``None`` when it does.

    ``residual`` is the program's own (``verify=True``) figure when it
    computed one; otherwise ``operands()`` supplies ``(L, B)`` and it is
    recomputed here.
    """
    if not isinstance(X, np.ndarray) or not np.all(np.isfinite(X)):
        return "non-finite or missing X"
    if residual is None:
        L, B = operands()
        residual = relative_residual(L, X, B.reshape(L.shape[0], -1))
    if not residual <= RESIDUAL_LIMIT:
        return f"residual {residual:.3e} > {RESIDUAL_LIMIT:.0e}"
    return None


def hexf(x: float) -> str:
    """Exact text form of a float (the digest must not depend on repr rounding)."""
    return float(x).hex()


def sim_digest(rows: Sequence[tuple]) -> str:
    """sha256 over the ordered simulation rows of one pass.

    Rows hold only ints, tuples of ints and :func:`hexf` strings, so two
    passes share a digest exactly when every planned placement and every
    measured ``Cost`` triple is bit-identical.
    """
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()
