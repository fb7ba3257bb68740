"""Validation errors for grids, layouts and parameters, and the ``require`` guard.

The paper's algorithms "assume divisibility among p, p1, p2 and sqrt(p2)"
(Section III).  Rather than silently mis-partitioning, every entry point
validates its grid/shape arguments and raises one of the exceptions below
with an actionable message.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class GridError(ReproError):
    """Invalid processor-grid shape or subgrid request."""


class ShapeError(ReproError):
    """Matrix dimensions incompatible with the requested distribution."""


class ParameterError(ReproError):
    """Algorithm parameter (n0, p1, p2, r1, r2, ...) out of its valid range."""


def require(condition: bool, exc: type[ReproError], message: str) -> None:
    """Raise ``exc(message)`` unless ``condition`` holds."""
    if not condition:
        raise exc(message)
