"""repro.kernel -- the numpy bitset kernel of the explicit state-space engine.

The packed core (:mod:`repro.core`) turned every state into a handful of
Python ints; :mod:`repro.kernel.bitset` runs the explicit engine's sweeps
over every state on numpy ``uint64`` words instead.  A cold State Graph
build expands one BFS wave per fixed sequence of array operations, with no
Python loop per candidate or per state: only each wave's distinct
successor markings become Python ints, to meet the graph's marking index.
The USC/CSC checks join states through one sort of the code rows.

numpy is an optional extra (``pip install repro-synth[kernel]``).  This
module holds the single capability probe: the explicit engine reads
:data:`HAS_NUMPY` at call time and runs the bitset kernel for cold builds
and the USC/CSC sweeps whenever numpy is installed, and the pure-python
packed loops otherwise.  Both build the same graphs and raise the same
errors; the tests compare them by setting :data:`HAS_NUMPY` to False.
Growing a graph after a signal insertion always runs on the python loop.
"""

from __future__ import annotations

__all__ = [
    "HAS_NUMPY",
    "numpy_or_none",
    "resolve_kernel",
]

try:  # the single capability probe for the whole package
    import numpy as _np  # type: ignore
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

#: True when the numpy kernel layer is importable.
HAS_NUMPY = _np is not None


def numpy_or_none():
    """The probed numpy module, or ``None`` when the extra is not installed."""
    return _np


def resolve_kernel(choice: None = None) -> str:
    """The explicit engine's backend: ``"numpy"`` or ``"python"``.

    ``choice`` must be ``None``: the backend is not selectable, and the
    call only reports what :data:`HAS_NUMPY` picks.
    """
    if choice is not None:
        raise ValueError("the kernel is not selectable (got %r)" % (choice,))
    return "numpy" if HAS_NUMPY else "python"
