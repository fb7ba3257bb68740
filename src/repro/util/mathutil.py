"""Integer arithmetic helpers used throughout the grid and cost machinery.

The paper's algorithms assume divisibility among the problem sizes and the
processor-grid dimensions (powers of two everywhere).  The helpers here keep
that arithmetic in one audited place.
"""

from __future__ import annotations

from typing import Iterator


def unit_step(x: float) -> int:
    """The paper's unit step ``1_x``: 1 if ``x > 1`` else 0.

    Used to zero out communication terms that vanish on degenerate
    (single-processor) grid dimensions, e.g. ``beta * n * 1_p`` for an
    allgather over a group of size ``p``.
    """
    return 1 if x > 1 else 0


def is_power_of_two(x: int) -> bool:
    """True iff ``x`` is a positive integral power of two (1 counts)."""
    return isinstance(x, (int,)) and x > 0 and (x & (x - 1)) == 0


def ilog2(x: int) -> int:
    """Exact integer log2; raises ``ValueError`` for non powers of two."""
    if not is_power_of_two(x):
        raise ValueError(f"ilog2 requires a power of two, got {x!r}")
    return x.bit_length() - 1


def next_power_of_two(x: int) -> int:
    """Smallest power of two >= max(x, 1)."""
    if x <= 1:
        return 1
    return 1 << (x - 1).bit_length()


def prev_power_of_two(x: int) -> int:
    """Largest power of two <= x (x must be >= 1)."""
    if x < 1:
        raise ValueError(f"prev_power_of_two requires x >= 1, got {x!r}")
    return 1 << (x.bit_length() - 1)


def ceil_div(a: int, b: int) -> int:
    """Ceiling division for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"ceil_div requires b > 0, got {b!r}")
    return -(-a // b)


def divisor_pairs(p: int) -> Iterator[tuple[int, int]]:
    """Yield all ordered factorizations ``p = a * b`` with ``a, b >= 1``.

    Enumeration order is ascending in ``a``.  Used by the discrete parameter
    optimizer to enumerate candidate processor grids.
    """
    if p < 1:
        raise ValueError(f"divisor_pairs requires p >= 1, got {p!r}")
    for a in range(1, p + 1):
        if p % a == 0:
            yield a, p // a


def split_indices(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous chunks, first chunks larger.

    Returns half-open ``(start, stop)`` pairs.  Matches the block partitioning
    used for blocked layouts.
    """
    if parts < 1:
        raise ValueError(f"split_indices requires parts >= 1, got {parts!r}")
    base, extra = divmod(n, parts)
    out: list[tuple[int, int]] = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        out.append((start, stop))
        start = stop
    return out


def geometric_range(lo: int, hi: int, factor: int = 2) -> list[int]:
    """Powers-of-``factor`` ladder from ``lo`` to ``hi`` inclusive."""
    if lo < 1 or hi < lo or factor < 2:
        raise ValueError("geometric_range requires 1 <= lo <= hi and factor >= 2")
    out = []
    x = lo
    while x <= hi:
        out.append(x)
        x *= factor
    return out
