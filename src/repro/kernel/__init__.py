"""repro.kernel -- the numpy bitset kernel of the explicit state-space engine.

The packed core (:mod:`repro.core`) turned every state into a handful of
Python ints; :mod:`repro.kernel.bitset` goes further with numpy ``uint64``
bitset matrices (states x words) that replace the remaining per-state
Python loops of the explicit engine -- BFS frontier expansion,
excitation-mask sweeps and the pairwise USC/CSC code-comparison joins --
with whole-frontier array operations.

numpy is an optional extra (``pip install repro-synth[kernel]``).  This
module holds the single capability probe: the explicit engine reads
:data:`HAS_NUMPY` at call time and runs the bitset kernel for cold builds
and the USC/CSC sweeps whenever numpy is installed, and the pure-python
packed loops otherwise.  Both build the same graphs; the tests compare them
by setting :data:`HAS_NUMPY` to False.  Growing a graph after a signal
insertion always runs on the python loop.
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
