"""Packed codes and packed markings.

Bitmask layout
--------------
A *packed code* is a single Python int: bit ``i`` (``1 << i``) holds the
binary value of the signal with index ``i`` in the governing
:class:`~repro.core.tables.SignalTable`.  The tuple ``(1, 0, 1)`` packs to
``0b101`` -- note that the *leftmost* tuple element is the *lowest* bit,
matching the variable numbering of :class:`~repro.boolean.cube.Cube` where a
packed code is directly usable as a minterm.

A *packed marking* is the same trick over places: bit ``i`` is the token
count of place ``i``, which is only representable when the net is **safe**
(1-bounded) and all arc weights are 1.  :class:`MarkingCodec` converts
between dict-backed :class:`~repro.petrinet.marking.Marking` objects and
packed ints, raising :class:`UnsafeNetError` when a marking cannot be
packed.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from .tables import PlaceTable

__all__ = [
    "UnsafeNetError",
    "pack_code",
    "unpack_code",
    "bits_of_mask",
    "iter_set_bits",
    "popcount",
    "MarkingCodec",
]


class UnsafeNetError(RuntimeError):
    """A marking or firing is not representable as a safe-net bitmask.

    Raised when a token count exceeds 1, an arc weight exceeds 1, a
    transition has no input or no output place, or a firing would place a
    second token on a marked place.  Every STG flow raises it for such
    nets; only the general net layer (:func:`repro.petrinet.explore`)
    plays the dict-based token game on them.
    """


def pack_code(bits: Sequence[int]) -> int:
    """Pack a 0/1 sequence into one int (element ``i`` -> bit ``i``)."""
    word = 0
    for index, value in enumerate(bits):
        if value:
            word |= 1 << index
    return word


def unpack_code(word: int, nbits: int) -> Tuple[int, ...]:
    """Unpack an int into the 0/1 tuple of its lowest ``nbits`` bits."""
    return tuple((word >> index) & 1 for index in range(nbits))


def iter_set_bits(mask: int) -> Iterator[int]:
    """Iterate over the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of_mask(mask: int) -> List[int]:
    """The indices of the set bits of ``mask``, ascending."""
    return list(iter_set_bits(mask))


def popcount(mask: int) -> int:
    """Number of set bits (``int.bit_count`` requires Python >= 3.10)."""
    return bin(mask).count("1")


class MarkingCodec:
    """Packs safe-net markings into ints against a :class:`PlaceTable`.

    The codec is constructed from a :class:`~repro.petrinet.net.PetriNet`
    (interning every place) or an explicit table.  ``encode`` raises
    :class:`UnsafeNetError` on markings with more than one token on a
    place.
    """

    __slots__ = ("places",)

    def __init__(self, table: PlaceTable) -> None:
        self.places = table

    @classmethod
    def for_net(cls, net) -> "MarkingCodec":
        """Build a codec interning every place of a net, in net order."""
        return cls(PlaceTable(net.places))

    def encode(self, marking) -> int:
        """Pack a :class:`Marking` (raises :class:`UnsafeNetError` if unsafe)."""
        word = 0
        index = self.places.index
        for place, tokens in marking.items():
            if tokens > 1:
                raise UnsafeNetError(
                    "place %r holds %d tokens; packed markings require a safe net"
                    % (place, tokens)
                )
            word |= 1 << index(place)
        return word

    def decode(self, word: int):
        """Unpack an int into a :class:`Marking` (imported lazily: no cycle)."""
        from ..petrinet.marking import Marking

        return Marking({name: 1 for name in self.places.names_in(word)})

    def decode_places(self, word: int) -> List[str]:
        """The marked place names of a packed marking, in place order."""
        return self.places.names_in(word)
