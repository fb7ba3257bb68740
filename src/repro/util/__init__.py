"""Small shared utilities: integer math, random matrix generators, checks."""

from repro.util.mathutil import (
    ceil_div,
    divisor_pairs,
    ilog2,
    is_power_of_two,
    next_power_of_two,
    prev_power_of_two,
    split_indices,
    unit_step,
)
from repro.util.randmat import (
    random_dense,
    random_lower_triangular,
    random_unit_lower_triangular,
    random_spd,
)
from repro.util.checking import (
    backward_error,
    forward_error,
    relative_residual,
)

__all__ = [
    "ceil_div",
    "divisor_pairs",
    "ilog2",
    "is_power_of_two",
    "next_power_of_two",
    "prev_power_of_two",
    "split_indices",
    "unit_step",
    "random_dense",
    "random_lower_triangular",
    "random_unit_lower_triangular",
    "random_spd",
    "backward_error",
    "forward_error",
    "relative_residual",
]
