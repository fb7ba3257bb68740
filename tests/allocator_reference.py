"""Golden reference: the allocator's fit scan, pinned verbatim.

When :meth:`SubgridAllocator.preview <repro.sched.allocator.SubgridAllocator.preview>`
started answering from a per-size fit table, the scan it used to run on
every call stayed in ``src/`` as ``_fit`` (the table's fill) and this
copy of it moved here unchanged, as a function over the pool's state.
``tests/test_allocator_parity.py`` drives pools through random lease,
release and clone sequences and asserts that ``preview`` equals this
scan for every size after every step.

An oracle *beside* the fast path, like ``tests/layout_reference.py``:
nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from repro.machine.topology import ProcessorGrid
from repro.machine.validate import ParameterError
from repro.sched.allocator import SubgridAllocator
from repro.util.mathutil import is_power_of_two


def reference_fit(self: SubgridAllocator, size: int) -> ProcessorGrid | None:
    """The first ``size``-rank block of the smallest free block that
    fits (lowest index per level: first in depth-first order)."""
    level = self._depth + 1 - size.bit_length() if is_power_of_two(size) else -1
    if level < 0:
        raise ParameterError(
            f"size must be a power of two in [1, {self.capacity}], got {size}"
        )
    for free in self._free[level::-1]:
        if free:
            h = min(free)
            return self._grid(h << (level - h.bit_length() + 1))
    return None
