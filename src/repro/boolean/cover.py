"""Covers: sums of cubes representing Boolean functions.

A :class:`Cover` is an ordered collection of :class:`~repro.boolean.cube.Cube`
objects over the same variable space, interpreted as a sum-of-products.  The
synthesis flow uses covers for

* the on-set / off-set / don't-care set of every output signal,
* excitation-region and marked-region approximations derived from the
  STG-unfolding segment, and
* the final gate implementations whose literal counts are reported.

Besides the usual set algebra (union, intersection, sharp, complement) the
class provides tautology checking and single-cube containment, both via the
standard unate-recursive paradigm, which are the primitives required by the
Espresso-style minimiser in :mod:`repro.boolean.minimize`.

This module and :mod:`repro.boolean.minimize` are the one cover engine.
Every loop works on the cubes' ``(ones, zeros)`` integer masks directly and
deduplicates through sets of mask pairs, because covers built from packed
State-Graph codes reach thousands of cubes and these operations dominate
synthesis time.  The recursions below follow the textbook Cube-object
recursions cube for cube; those recursions are kept in the test suite as the
engine's oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .cube import Cube, CubeError

__all__ = ["Cover", "minterm_cover"]

#: A cube as its raw ``(ones, zeros)`` literal masks.
Pair = Tuple[int, int]


def minterm_cover(nvars: int, code_words: Iterable[int]) -> "Cover":
    """Exact cover of a set of packed codes (one ``(ones, zeros)`` cube each).

    A packed code *is* a minterm, so each cube is built straight from the
    two masks without touching individual bits; the codes are sorted so the
    result is deterministic for set-valued inputs.
    """
    full = (1 << nvars) - 1
    return Cover(nvars, [Cube(nvars, code, full & ~code) for code in sorted(code_words)])


class Cover:
    """A sum of cubes over a fixed Boolean space.

    Parameters
    ----------
    nvars:
        Number of variables of the Boolean space.
    cubes:
        Iterable of cubes; all must live in the same space.
    """

    __slots__ = ("nvars", "_cubes", "_keys")

    def __init__(self, nvars: int, cubes: Iterable[Cube] = ()) -> None:
        self.nvars = nvars
        self._cubes: List[Cube] = []
        self._keys: Set[Tuple[int, int]] = set()
        for cube in cubes:
            self._append_checked(cube)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, nvars: int) -> "Cover":
        """The cover of the constant-0 function."""
        return cls(nvars)

    @classmethod
    def universe(cls, nvars: int) -> "Cover":
        """The cover of the constant-1 function (one universal cube)."""
        return cls(nvars, [Cube.full(nvars)])

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "Cover":
        """Build a cover from positional-cube strings (``"1-0"``, ...)."""
        if not rows:
            raise CubeError("cannot infer variable count from an empty row list")
        cubes = [Cube.from_string(row) for row in rows]
        nvars = cubes[0].nvars
        return cls(nvars, cubes)

    @classmethod
    def from_minterms(cls, nvars: int, minterms: Iterable[int]) -> "Cover":
        """Build a cover with one cube per minterm."""
        return cls(nvars, [Cube.from_minterm(nvars, m) for m in minterms])

    @classmethod
    def from_mask_pairs(cls, nvars: int, pairs: Iterable[Tuple[int, int]]) -> "Cover":
        """Build a cover from raw ``(ones, zeros)`` cube masks.

        This is the hand-off format of the symbolic engine's ISOP cube
        extraction (:func:`repro.bdd.isop`): each pair becomes one cube with
        no per-bit translation.
        """
        return cls(nvars, [Cube(nvars, ones, zeros) for ones, zeros in pairs])

    def copy(self) -> "Cover":
        """Return a shallow copy (cubes are immutable, so this is safe)."""
        return Cover(self.nvars, self._cubes)

    # ------------------------------------------------------------------ #
    # Basic container protocol
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Cube]:
        return iter(self._cubes)

    def __len__(self) -> int:
        return len(self._cubes)

    def __getitem__(self, index: int) -> Cube:
        return self._cubes[index]

    def __bool__(self) -> bool:
        return bool(self._cubes)

    @property
    def cubes(self) -> Tuple[Cube, ...]:
        """The cubes of the cover as an immutable tuple."""
        return tuple(self._cubes)

    def add(self, cube: Cube) -> None:
        """Append a cube (duplicates are silently skipped)."""
        if (cube.ones, cube.zeros) in self._keys:
            return
        self._append_checked(cube)

    def extend(self, cubes: Iterable[Cube]) -> None:
        """Append several cubes, skipping duplicates."""
        for cube in cubes:
            self.add(cube)

    def is_empty(self) -> bool:
        """Return True if the cover has no cubes (the constant-0 function)."""
        return not self._cubes

    # ------------------------------------------------------------------ #
    # Semantics
    # ------------------------------------------------------------------ #
    def evaluate(self, assignment: Sequence[int]) -> bool:
        """Evaluate the cover on a 0/1 assignment vector."""
        return any(cube.covers_assignment(assignment) for cube in self._cubes)

    def covers_minterm(self, minterm: int) -> bool:
        """Return True if any cube covers the given minterm."""
        return any(cube.covers_minterm(minterm) for cube in self._cubes)

    def minterms(self) -> Set[int]:
        """Enumerate the set of covered minterms (exponential; small spaces only)."""
        result: Set[int] = set()
        for cube in self._cubes:
            result.update(cube.minterms())
        return result

    @property
    def literal_count(self) -> int:
        """Total number of literals -- the quality metric used in Table 1."""
        return sum(cube.num_literals for cube in self._cubes)

    # ------------------------------------------------------------------ #
    # Set algebra
    # ------------------------------------------------------------------ #
    def union(self, other: "Cover") -> "Cover":
        """Return the sum of the two covers."""
        self._check_compatible(other)
        result = self.copy()
        result.extend(other)
        return result

    def __or__(self, other: "Cover") -> "Cover":
        return self.union(other)

    def intersect(self, other: "Cover") -> "Cover":
        """Return the product of the two covers (pairwise cube intersection)."""
        self._check_compatible(other)
        cubes: List[Cube] = []
        seen: Set[Tuple[int, int]] = set()
        for left in self._cubes:
            left_ones = left.ones
            left_zeros = left.zeros
            for right in other._cubes:
                ones = left_ones | right.ones
                zeros = left_zeros | right.zeros
                if ones & zeros:
                    continue
                key = (ones, zeros)
                if key not in seen:
                    seen.add(key)
                    cubes.append(Cube(self.nvars, ones, zeros))
        return Cover(self.nvars, cubes)

    def __and__(self, other: "Cover") -> "Cover":
        return self.intersect(other)

    def intersects(self, other: "Cover") -> bool:
        """Return True if the two covers share at least one minterm."""
        self._check_compatible(other)
        for left in self._cubes:
            left_ones = left.ones
            left_zeros = left.zeros
            for right in other._cubes:
                if not ((left_ones | right.ones) & (left_zeros | right.zeros)):
                    return True
        return False

    def intersect_cube(self, cube: Cube) -> "Cover":
        """Return the cover restricted to the given cube."""
        cube_ones = cube.ones
        cube_zeros = cube.zeros
        cubes: List[Cube] = []
        seen: Set[Tuple[int, int]] = set()
        for own in self._cubes:
            ones = own.ones | cube_ones
            zeros = own.zeros | cube_zeros
            if ones & zeros:
                continue
            key = (ones, zeros)
            if key not in seen:
                seen.add(key)
                cubes.append(Cube(self.nvars, ones, zeros))
        return Cover(self.nvars, cubes)

    def cofactor(self, cube: Cube) -> "Cover":
        """Generalised Shannon cofactor of the cover with respect to a cube."""
        cube_ones = cube.ones
        cube_zeros = cube.zeros
        fixed = cube_ones | cube_zeros
        cubes: List[Cube] = []
        seen: Set[Tuple[int, int]] = set()
        for own in self._cubes:
            own_ones = own.ones
            own_zeros = own.zeros
            if (own_ones & cube_zeros) | (own_zeros & cube_ones):
                continue  # distance > 0: the cube lies outside the cofactor
            key = (own_ones & ~fixed, own_zeros & ~fixed)
            if key not in seen:
                seen.add(key)
                cubes.append(Cube(self.nvars, key[0], key[1]))
        return Cover(self.nvars, cubes)

    def sharp(self, cube: Cube) -> "Cover":
        """Return the cover minus a cube (the *sharp* operation)."""
        result = Cover(self.nvars)  # result.add dedups through its key set
        for own in self._cubes:
            if not own.intersects(cube):
                result.add(own)
                continue
            # own \ cube: expand the complement of the cube inside own.
            remainder = own
            for var, value in cube.literals():
                piece = remainder.cofactor(var, 1 - value)
                if piece is not None:
                    result.add(piece.with_literal(var, 1 - value))
                next_remainder = remainder.cofactor(var, value)
                if next_remainder is None:
                    remainder = None
                    break
                remainder = next_remainder.with_literal(var, value)
        return result

    def difference(self, other: "Cover") -> "Cover":
        """Return this cover minus another cover."""
        self._check_compatible(other)
        result = self.copy()
        for cube in other:
            result = result.sharp(cube)
        return result

    def complement(self) -> "Cover":
        """Return a cover of the complement function.

        Uses recursive Shannon expansion on the most-bound variable, which is
        efficient enough for the signal counts of asynchronous controller
        benchmarks (tens of variables).
        """
        pieces: List[Pair] = []
        _complement_pairs(self.nvars, self._pairs(), 0, 0, pieces)
        return Cover.from_mask_pairs(self.nvars, pieces)

    # ------------------------------------------------------------------ #
    # Tautology / containment
    # ------------------------------------------------------------------ #
    def is_tautology(self) -> bool:
        """Return True if the cover evaluates to 1 for every assignment."""
        return _tautology_pairs(self.nvars, self._pairs())

    def contains_cube(self, cube: Cube) -> bool:
        """Return True if the cover covers every minterm of the cube."""
        return _tautology_pairs(
            self.nvars, _cofactor_pairs(self._pairs(), cube.ones, cube.zeros)
        )

    def contains_cover(self, other: "Cover") -> bool:
        """Return True if every cube of ``other`` is contained in this cover."""
        self._check_compatible(other)
        pairs = self._pairs()
        full = (1 << self.nvars) - 1
        for cube in other._cubes:
            ones = cube.ones
            zeros = cube.zeros
            if ones | zeros == full:
                # A fully specified cube is one point (minterm covers are
                # the synthesis common case): some cube must hold it, i.e.
                # have literals that are a subset of the point's.
                if all(
                    (own_ones & zeros) | (own_zeros & ones)
                    for own_ones, own_zeros in pairs
                ):
                    return False
            elif not _tautology_pairs(self.nvars, _cofactor_pairs(pairs, ones, zeros)):
                return False
        return True

    def equivalent(self, other: "Cover") -> bool:
        """Return True if both covers denote the same Boolean function."""
        return self.contains_cover(other) and other.contains_cover(self)

    # ------------------------------------------------------------------ #
    # Normalisation
    # ------------------------------------------------------------------ #
    def single_cube_containment(self) -> "Cover":
        """Drop cubes contained in a single other cube of the cover.

        Cubes are visited in ascending literal count (stable), and a cube is
        dropped when a kept cube's literals are a subset of its own.  Among
        cubes with equal literal counts only an identical cube can contain
        another, so each cube is compared with the kept cubes that have
        strictly fewer literals plus the set of kept masks; on minterm
        covers the check is linear.
        """
        kept: List[Cube] = []
        kept_keys: Set[Pair] = set()
        fewer: List[Pair] = []  # kept masks with fewer literals than the cube
        level: List[Pair] = []  # kept masks with the cube's literal count
        count = -1
        for cube in sorted(self._cubes, key=lambda c: c.num_literals):
            if cube.num_literals != count:
                count = cube.num_literals
                fewer.extend(level)
                level = []
            ones = cube.ones
            zeros = cube.zeros
            key = (ones, zeros)
            if key in kept_keys or any(
                not (other_ones & ~ones) and not (other_zeros & ~zeros)
                for other_ones, other_zeros in fewer
            ):
                continue
            kept.append(cube)
            kept_keys.add(key)
            level.append(key)
        return Cover(self.nvars, kept)

    def irredundant(self, dc: Optional["Cover"] = None) -> "Cover":
        """Remove cubes covered by the rest of the cover plus the DC-set."""
        cubes = list(self.single_cube_containment())
        index = 0
        while index < len(cubes):
            rest = Cover(self.nvars, cubes[:index] + cubes[index + 1:])
            if dc is not None:
                rest = rest.union(dc)
            if rest.contains_cube(cubes[index]):
                cubes.pop(index)
            else:
                index += 1
        return Cover(self.nvars, cubes)

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def to_strings(self) -> List[str]:
        """Render all cubes in positional notation."""
        return [cube.to_string() for cube in self._cubes]

    def to_expression(self, names: Sequence[str]) -> str:
        """Render the cover as a sum of products using variable names."""
        if self.is_empty():
            return "0"
        return " + ".join(cube.to_expression(names) for cube in self._cubes)

    def __str__(self) -> str:
        return " + ".join(self.to_strings()) if self._cubes else "<empty>"

    def __repr__(self) -> str:
        return "Cover(%d, %r)" % (self.nvars, self.to_strings())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return self.nvars == other.nvars and set(self._cubes) == set(other._cubes)

    def __hash__(self) -> int:  # pragma: no cover - covers rarely hashed
        return hash((self.nvars, frozenset(self._cubes)))

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _pairs(self) -> List[Pair]:
        return [(cube.ones, cube.zeros) for cube in self._cubes]

    def _append_checked(self, cube: Cube) -> None:
        if cube.nvars != self.nvars:
            raise CubeError(
                "cube over %d variables added to a cover over %d variables"
                % (cube.nvars, self.nvars)
            )
        self._cubes.append(cube)
        self._keys.add((cube.ones, cube.zeros))

    def _check_compatible(self, other: "Cover") -> None:
        if self.nvars != other.nvars:
            raise CubeError(
                "cover spaces differ: %d vs %d variables" % (self.nvars, other.nvars)
            )


# ---------------------------------------------------------------------- #
# Recursive helpers (unate recursive paradigm) on (ones, zeros) mask pairs
# ---------------------------------------------------------------------- #
def _split_var_pairs(nvars: int, pairs: Sequence[Pair]) -> Optional[int]:
    """The variable bound in the most cubes, lowest index on ties."""
    counts = [0] * nvars
    for ones, zeros in pairs:
        mask = ones | zeros
        while mask:
            low = mask & -mask
            counts[low.bit_length() - 1] += 1
            mask ^= low
    best_var = None
    best_count = 0
    for var, count in enumerate(counts):
        if count > best_count:
            best_var = var
            best_count = count
    return best_var


def _cofactor_pairs(
    pairs: Iterable[Pair], cube_ones: int, cube_zeros: int
) -> List[Pair]:
    """Generalised Shannon cofactor against one cube, first occurrence kept."""
    fixed = cube_ones | cube_zeros
    out = []
    seen = set()
    for ones, zeros in pairs:
        if (ones & cube_zeros) | (zeros & cube_ones):
            continue  # distance > 0: the cube lies outside the cofactor
        key = (ones & ~fixed, zeros & ~fixed)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _tautology_pairs(nvars: int, pairs: List[Pair]) -> bool:
    """Recursive tautology check.

    Tautology is semantic, so this recursion is free to apply the classic
    unate reductions the constructive recursions cannot: cubes with a
    literal of a unate variable never help cover the opposite half-space
    (taut(C) == taut(C cofactored against the unate orientation)), and the
    split variable only needs to be binate.
    """
    while True:
        if not pairs:
            return False
        if any(ones == 0 and zeros == 0 for ones, zeros in pairs):
            return True
        or_ones = 0
        or_zeros = 0
        for ones, zeros in pairs:
            or_ones |= ones
            or_zeros |= zeros
        binate = or_ones & or_zeros
        pos_unate = or_ones & ~binate
        neg_unate = or_zeros & ~binate
        if pos_unate | neg_unate:
            pairs = [
                (ones, zeros)
                for ones, zeros in pairs
                if not ((ones & pos_unate) | (zeros & neg_unate))
            ]
            continue
        if binate == 0:
            return False
        counts = [0] * nvars
        for ones, zeros in pairs:
            mask = (ones | zeros) & binate
            while mask:
                low = mask & -mask
                counts[low.bit_length() - 1] += 1
                mask ^= low
        var = max(range(nvars), key=lambda index: counts[index])
        bit = 1 << var
        if not _tautology_pairs(nvars, _cofactor_pairs(pairs, bit, 0)):
            return False
        pairs = _cofactor_pairs(pairs, 0, bit)


def _branches(bit: int, ctx_ones: int, ctx_zeros: int):
    """The ``var=1`` then the ``var=0`` half of a context cube, skipping the
    half the context excludes, as ``(literal, context)`` mask-pair pairs."""
    if not ctx_zeros & bit:
        yield (bit, 0), (ctx_ones | bit, ctx_zeros)
    if not ctx_ones & bit:
        yield (0, bit), (ctx_ones, ctx_zeros | bit)


def _complement_pairs(
    nvars: int, pairs: List[Pair], ctx_ones: int, ctx_zeros: int, pieces: List[Pair]
) -> None:
    """Append cubes covering ``context AND NOT pairs`` to ``pieces``.

    Splits on the most-bound variable (lowest index on ties, counted over
    the first-occurrence-deduplicated cofactors), positive branch first,
    and emits each accumulated branch context: the output cubes depend on
    this order, which is the textbook recursion's.
    """
    if not pairs:
        pieces.append((ctx_ones, ctx_zeros))
        return
    if any(ones == 0 and zeros == 0 for ones, zeros in pairs):
        return
    var = _split_var_pairs(nvars, pairs)
    if var is None:
        return
    bit = 1 << var
    for literal, context in _branches(bit, ctx_ones, ctx_zeros):
        branch = _cofactor_pairs(pairs, *literal)
        _complement_pairs(nvars, branch, context[0], context[1], pieces)


def _bounding_pairs(
    nvars: int, ctx_ones: int, ctx_zeros: int, pairs: List[Pair]
) -> Optional[Pair]:
    """Smallest cube covering ``context AND NOT pairs``, or None when empty.

    ``pairs`` must already be cofactored against the context.  Espresso's
    REDUCE folds ``supercube`` over an explicit disjoint cover of the
    difference; the supercube of *any* cover of a set is the set's bounding
    box (a variable is bound iff every minterm agrees on it), so recursing
    on the boxes gives the same cube without building the difference.  The
    box is semantic, which licenses one more reduction: a single-literal
    cube ``x=v`` covers the whole ``x=v`` half of the context, so the
    difference lives in ``x=not v`` -- bind that into the context and
    cofactor instead of branching.
    """
    while True:
        if not pairs:
            return ctx_ones, ctx_zeros
        if any(ones == 0 and zeros == 0 for ones, zeros in pairs):
            return None
        single = None
        for ones, zeros in pairs:
            mask = ones | zeros
            if mask and not (mask & (mask - 1)):
                single = (ones, mask)
                break
        if single is None:
            break
        ones, bit = single
        if ones:
            ctx_zeros |= bit
            pairs = _cofactor_pairs(pairs, 0, bit)
        else:
            ctx_ones |= bit
            pairs = _cofactor_pairs(pairs, bit, 0)
    var = _split_var_pairs(nvars, pairs)
    if var is None:  # pragma: no cover - defensive: a literal-free cube is full
        return None
    bit = 1 << var
    box = None
    for literal, context in _branches(bit, ctx_ones, ctx_zeros):
        branch = _cofactor_pairs(pairs, *literal)
        piece = _bounding_pairs(nvars, context[0], context[1], branch)
        if piece is None:
            continue
        box = piece if box is None else (box[0] & piece[0], box[1] & piece[1])
        if box == (ctx_ones, ctx_zeros):
            # The box only loses literals as pieces merge, and the context
            # bounds it below: the remaining branch cannot change it.
            return box
    return box
