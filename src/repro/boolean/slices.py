"""A cube list held as per-variable bit slices.

Expansion, irredundancy and the explicit engine's don't-care and off-set
covers all ask one question of a fixed cube list: which of its cubes does
a given cube miss?  Stored cube by cube that is a Python loop over the
list per query.  Stored as slices -- bit ``k`` of ``one[v]`` (``zero[v]``)
is set when cube ``k`` has the literal ``v=1`` (``v=0``) -- it is one OR per
literal of the query cube: a cube with literal ``v=1`` misses exactly the
cubes of ``zero[v]``, so the cubes it misses are the OR of these conflict
slices over its literals, and the cubes it meets are the rest.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

from .cover import Cover, Pair

__all__ = ["CubeSlices", "code_complement", "prime_cover", "suffix_ors"]


def _transpose(nvars: int, pairs: Sequence[Pair]) -> Tuple[List[int], List[int]]:
    """The ``one`` and ``zero`` slices of a cube list.

    Cube ``k`` is written as ``2 * nvars`` binary digits, its ones above its
    zeros, most significant first, and the cubes are written last to first.
    The digits of one bit position then sit ``2 * nvars`` apart, and one
    strided slice gathers them with cube 0 as the least significant digit;
    one base-2 parse packs them.
    """
    if not pairs or not nvars:
        return [0] * nvars, [0] * nvars
    width = 2 * nvars
    rows = [(ones << nvars) | zeros for ones, zeros in reversed(pairs)]
    digits = "".join(map(("{:0%db}" % width).format, rows))
    columns = [int(digits[width - 1 - bit::width], 2) for bit in range(width)]
    return columns[nvars:], columns[:nvars]


def suffix_ors(masks: Sequence[int]) -> List[int]:
    """``out[i]`` is the OR of ``masks[i:]``; ``out[len(masks)]`` is 0."""
    out = [0] * (len(masks) + 1)
    for index in range(len(masks) - 1, -1, -1):
        out[index] = out[index + 1] | masks[index]
    return out


class CubeSlices:
    """A fixed list of ``(ones, zeros)`` cubes, transposed into slices.

    ``everything`` has one bit per cube.  :meth:`meeting` answers which
    cubes a query cube meets, and :meth:`expand` grows a query cube to a
    prime that meets none of them.  Each is a few big-integer operations
    per literal of the query cube, with no Python loop over the list.
    """

    __slots__ = ("one", "zero", "everything")

    def __init__(self, nvars: int, pairs: Sequence[Pair]) -> None:
        self.one, self.zero = _transpose(nvars, pairs)
        self.everything = (1 << len(pairs)) - 1

    def append(self, pairs: Sequence[Pair]) -> None:
        """Add cubes after the last one: cube ``k`` of ``pairs`` gets the
        bit just above the ``k`` cubes before it."""
        if not pairs:
            return
        start = self.everything.bit_length()
        one, zero = _transpose(len(self.one), pairs)
        for var, (new_one, new_zero) in enumerate(zip(one, zero)):
            self.one[var] |= new_one << start
            self.zero[var] |= new_zero << start
        self.everything = (1 << (start + len(pairs))) - 1

    def meeting(self, ones: int, zeros: int) -> int:
        """The cubes that share a point with the cube ``(ones, zeros)``."""
        one = self.one
        zero = self.zero
        missed = 0
        mask = ones | zeros
        while mask:
            low = mask & -mask
            mask ^= low
            var = low.bit_length() - 1
            missed |= zero[var] if ones & low else one[var]
        return self.everything & ~missed

    def expand(self, ones: int, zeros: int) -> Pair:
        """Drop literals, lowest variable first, while the cube meets none
        of the cubes.

        A literal may go exactly when the conflict slices of the literals
        that remain still cover every cube: those are the literals kept so
        far plus every later one (a suffix OR).  A blocked drop stays
        blocked, because later drops only grow the cube, so one ascending
        scan leaves a prime.  A cube that already meets one of the cubes
        keeps every literal.
        """
        one = self.one
        zero = self.zero
        everything = self.everything
        lows: List[int] = []
        conflicts: List[int] = []
        mask = ones | zeros
        while mask:
            low = mask & -mask
            mask ^= low
            var = low.bit_length() - 1
            lows.append(low)
            conflicts.append(zero[var] if ones & low else one[var])
        later = suffix_ors(conflicts)
        if later[0] != everything:
            return ones, zeros
        kept = 0
        for index, low in enumerate(lows):
            if kept | later[index + 1] == everything:
                ones &= ~low
                zeros &= ~low
            else:
                kept |= conflicts[index]
        return ones, zeros


def prime_cover(nvars: int, pairs: Iterable[Pair], blocking: Sequence[Pair]) -> Cover:
    """Every cube of ``pairs`` expanded to a prime against ``blocking``,
    under single-cube containment.

    The result covers every point of ``pairs``, and every point it adds
    lies outside ``blocking``; a cube that meets ``blocking`` stays as it
    is.  Many cubes grow to the same prime, so repeats go before the
    containment scan.
    """
    expand = CubeSlices(nvars, blocking).expand
    grown = dict.fromkeys(expand(ones, zeros) for ones, zeros in pairs)
    return Cover.from_mask_pairs(nvars, grown).single_cube_containment()


def code_complement(nvars: int, codes: Set[int]) -> Cover:
    """Cover of every code outside the set ``codes``, in prime cubes.

    Each cube of the complement of the codes' minterms grows to a prime
    against them.  When ``codes`` holds every code the cover is empty and
    no complement is run.
    """
    if len(codes) == 1 << nvars:
        return Cover.empty(nvars)
    full = (1 << nvars) - 1
    points = [(code, full & ~code) for code in codes]
    outside = Cover.from_mask_pairs(nvars, points).complement()
    return prime_cover(nvars, [(cube.ones, cube.zeros) for cube in outside], points)
