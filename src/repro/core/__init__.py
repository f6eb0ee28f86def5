"""repro.core -- packed bitvector state representation.

Every state-space layer of the flow (explicit reachability, State Graph
construction, on-set/cover extraction and closed-loop simulation) works on
two kinds of state:

* the **binary code** of the signals -- historically a ``Tuple[int, ...]``
  ordered like ``stg.signals``;
* the **marking** of the underlying Petri net -- historically a dict-backed
  :class:`~repro.petrinet.marking.Marking`.

This package packs both into single Python integers:

* a :class:`SignalTable` / :class:`PlaceTable` interns names and assigns
  each a stable index that doubles as a bit position;
* a *packed code* is one int whose bit ``i`` is the value of signal ``i``
  (see :mod:`repro.core.packed`);
* a *packed marking* of a safe (1-bounded, weight-1) net is one int whose
  bit ``i`` is the token count of place ``i``; :class:`MarkingCodec`
  converts to and from :class:`~repro.petrinet.marking.Marking`;
* :class:`PackedNet` compiles the token game of a packable net into
  per-transition ``(preset_mask, postset_mask)`` pairs so enabling checks
  and firing become two integer operations each.

Nets outside the safe, weight-1 class cannot be packed: compiling a
:class:`PackedNet` raises :class:`UnsafeNetError` for arc weights > 1, an
unsafe initial marking or a transition without input places, and the
packed token game raises it when a firing would put a second token on a
place.  Every STG flow (both unfolding methods, both state-space engines
and the simulator) runs on this core, so all of them reject such nets
with the same error.
"""

from .lazy import LazyDecodedList
from .tables import NameTable, PlaceTable, SignalTable
from .packed import (
    MarkingCodec,
    UnsafeNetError,
    bits_of_mask,
    iter_set_bits,
    pack_code,
    popcount,
    unpack_code,
)
from .packednet import PackedNet

__all__ = [
    "LazyDecodedList",
    "NameTable",
    "SignalTable",
    "PlaceTable",
    "MarkingCodec",
    "UnsafeNetError",
    "PackedNet",
    "pack_code",
    "unpack_code",
    "bits_of_mask",
    "iter_set_bits",
    "popcount",
]
