"""Two-level logic minimisation.

The DAC'97 flow runs Espresso on the derived on-set covers, using the
don't-care set, to reduce the literal count of the final implementation
(the ``EspTim`` column of Table 1).  This module provides two minimisers:

* :func:`espresso` -- a heuristic expand / irredundant / reduce loop in the
  style of Espresso-II.  It never changes the function on the care set and
  is the minimiser used by the synthesis flow.  Like :mod:`.cover`, whose
  mask-pair recursions it uses, it runs on the cubes' integer masks only;
  expansion and the irredundancy of minterm care sets read the off-set and
  the care points as bit slices (:mod:`.slices`), built once per call.
  The test suite checks it against a Cube-object oracle cube for cube.
* :func:`quine_mccluskey` -- an exact minimiser (prime generation plus a
  greedy/Petrick covering step) usable for small variable counts; the test
  suite uses it to cross-check the heuristic minimiser.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..obs import current_tracer
from .cover import Cover, Pair, _bounding_pairs, _cofactor_pairs
from .cube import Cube
from .slices import CubeSlices, suffix_ors

__all__ = ["espresso", "quine_mccluskey", "MinimizationResult"]


class MinimizationResult:
    """Outcome of a minimisation run.

    Attributes
    ----------
    cover:
        The minimised cover.
    iterations:
        Number of expand/irredundant/reduce passes performed.
    initial_literals / final_literals:
        Literal counts before and after minimisation.
    """

    def __init__(self, cover: Cover, iterations: int, initial_literals: int) -> None:
        self.cover = cover
        self.iterations = iterations
        self.initial_literals = initial_literals
        self.final_literals = cover.literal_count

    def __repr__(self) -> str:
        return "MinimizationResult(literals=%d->%d, iterations=%d)" % (
            self.initial_literals,
            self.final_literals,
            self.iterations,
        )


# ---------------------------------------------------------------------- #
# Espresso-style heuristic minimisation
# ---------------------------------------------------------------------- #
def espresso(
    on: Cover,
    dc: Optional[Cover] = None,
    max_iterations: int = 4,
    off: Optional[Cover] = None,
) -> MinimizationResult:
    """Minimise ``on`` against the don't-care set ``dc``.

    The result covers every minterm of ``on``, covers no minterm outside
    ``on`` plus ``dc``, and usually has substantially fewer literals.

    When ``off`` is given it is used directly as the blocking set for cube
    expansion instead of computing ``complement(on + dc)`` -- the synthesis
    flows use this because they already hold an off-set cover and the
    complement can be expensive for wide specifications.  Everything outside
    ``on + off`` is then treated as a don't care.

    """
    nvars = on.nvars
    if dc is None:
        dc = Cover.empty(nvars)
    if on.is_empty():
        return MinimizationResult(Cover.empty(nvars), 0, 0)

    care_on = on
    initial_literals = on.literal_count
    if off is None:
        off = on.union(dc).complement()
    # Expansion asks which off cubes a cube misses, irredundancy which care
    # points a cube holds: both read fixed sets, so both are transposed
    # into bit slices once per call.
    blocking = CubeSlices(nvars, off._pairs())
    points = _point_table(care_on, dc)

    current = on.single_cube_containment()
    iterations = 0
    previous_cost = _cost(current)
    # Expansion depends only on (cube, off) and off is fixed for the whole
    # run, so grown cubes are memoised across phases: the post-irredundant
    # expand of each iteration mostly re-expands already-maximal cubes.
    expand_cache: Dict[Pair, Cube] = {}
    for _ in range(max_iterations):
        iterations += 1
        current = _expand(current, blocking, expand_cache)
        current = _irredundant_care(current, care_on, dc, points)
        current = _reduce(current, dc)
        current = _expand(current, blocking, expand_cache)
        current = _irredundant_care(current, care_on, dc, points)
        cost = _cost(current)
        if cost >= previous_cost:
            break
        previous_cost = cost

    # Safety: the minimised cover must still cover the original on-set.
    if not current.union(dc).contains_cover(care_on):  # pragma: no cover - guard
        current = care_on.single_cube_containment()
    obs = current_tracer()
    if obs.enabled:
        span = obs.current
        span.counter("espresso_calls")
        span.counter("espresso_iterations", iterations)
        span.counter("espresso_input_cubes", len(on))
        span.counter("espresso_output_cubes", len(current))
    return MinimizationResult(current, iterations, initial_literals)


def _cost(cover: Cover) -> Tuple[int, int]:
    return (len(cover), cover.literal_count)


#: A care set of minterms as bit slices, with the points the DC-set holds.
PointTable = Tuple[CubeSlices, int]


def _point_table(care_on: Cover, dc: Cover) -> Optional[PointTable]:
    """The care set's points as slices, when every care cube is a minterm
    (the synthesis common case), and the mask of the points in the DC-set;
    None otherwise.  A cube holds a point exactly when it meets it, so the
    DC-set holds the points its cubes meet."""
    full = (1 << care_on.nvars) - 1
    pairs = care_on._pairs()
    if not all(ones | zeros == full for ones, zeros in pairs):
        return None
    points = CubeSlices(care_on.nvars, pairs)
    in_dc = 0
    for cube in dc:
        in_dc |= points.meeting(cube.ones, cube.zeros)
    return points, in_dc


def _irredundant_care(
    cover: Cover, care_on: Cover, dc: Cover, points: Optional[PointTable]
) -> Cover:
    """Drop cubes whose *care* minterms are covered by the rest of the cover.

    A cube is redundant when every minterm it covers that belongs to the
    original on-set is also covered by the remaining cubes (plus the DC-set).
    Working with the care set directly avoids complementing the cover, which
    matters for wide specifications.  Cubes are tried in order and each
    verdict sees the cubes dropped before it.
    """
    nvars = cover.nvars
    cubes = list(cover.single_cube_containment())
    if points is not None:
        return Cover(nvars, _irredundant_points(cubes, *points))
    index = 0
    while index < len(cubes):
        candidate = cubes[index]
        rest = Cover(nvars, cubes[:index] + cubes[index + 1:])
        if not dc.is_empty():
            rest = rest.union(dc)
        care_part = care_on.intersect_cube(candidate)
        if rest.contains_cover(care_part):
            cubes.pop(index)
        else:
            index += 1
    return Cover(nvars, cubes)


def _irredundant_points(cubes: List[Cube], points: CubeSlices, in_dc: int) -> List[Cube]:
    """:func:`_irredundant_care` on a point table.

    When cube ``i`` is tried, the live cubes are the ones kept before it,
    itself and every later one.  So it drops exactly when each point it
    holds is in the DC-set, in a kept cube or in a later cube (a suffix
    OR of the held-point masks).
    """
    held = [points.meeting(cube.ones, cube.zeros) for cube in cubes]
    later = suffix_ors(held)
    covered = in_dc
    kept: List[Cube] = []
    for index, cube in enumerate(cubes):
        if held[index] & ~(covered | later[index + 1]):
            kept.append(cube)
            covered |= held[index]
    return kept


def _expand(cover: Cover, blocking: CubeSlices, cache: Dict[Pair, Cube]) -> Cover:
    """Expand every cube to a prime that misses the off-set.

    ``cache`` memoises expansions against this (fixed) off-set.  Expansion
    is idempotent -- a literal whose drop was blocked stays blocked as the
    cube only ever grows -- so every grown cube is also recorded as its
    own expansion, which makes re-expanding an already-maximal cover free.
    """
    nvars = cover.nvars
    grown_cubes = []
    for cube in sorted(cover, key=lambda c: -c.num_literals):
        key = (cube.ones, cube.zeros)
        grown = cache.get(key)
        if grown is None:
            grown = Cube(nvars, *blocking.expand(*key))
            cache[key] = grown
            cache[(grown.ones, grown.zeros)] = grown
        grown_cubes.append(grown)

    expanded: List[Cube] = []
    for grown in grown_cubes:
        grown_ones = grown.ones
        grown_zeros = grown.zeros
        # A cube contains another iff its literals are a subset of the
        # other's; checked on the masks directly (this is the inner loop).
        if not any(
            not (other.ones & ~grown_ones) and not (other.zeros & ~grown_zeros)
            for other in expanded
        ):
            expanded = [
                other
                for other in expanded
                if (grown_ones & ~other.ones) or (grown_zeros & ~other.zeros)
            ]
            expanded.append(grown)
    return Cover(nvars, expanded)


def _reduce(cover: Cover, dc: Cover) -> Cover:
    """Shrink each cube to the smallest cube covering its essential part.

    The essential part of a cube is the cube minus the rest of the cover
    and the DC-set; earlier cubes are taken in their already-reduced form,
    later cubes in their original form (standard Espresso REDUCE ordering).
    A cube whose essential part is empty is kept as it is, and the
    irredundant pass drops it.
    """
    nvars = cover.nvars
    pairs = [(cube.ones, cube.zeros) for cube in cover]
    dc_pairs = [(cube.ones, cube.zeros) for cube in dc]
    reduced: List[Cube] = []
    for index, cube in enumerate(cover):
        rest = pairs[:index] + pairs[index + 1:] + dc_pairs
        box = _bounding_pairs(
            nvars, cube.ones, cube.zeros, _cofactor_pairs(rest, cube.ones, cube.zeros)
        )
        if box is not None:
            cube = Cube(nvars, box[0], box[1])
            pairs[index] = box
        reduced.append(cube)
    return Cover(nvars, reduced)


# ---------------------------------------------------------------------- #
# Exact minimisation (Quine-McCluskey + Petrick / greedy cover)
# ---------------------------------------------------------------------- #
def quine_mccluskey(
    on: Cover,
    dc: Optional[Cover] = None,
    max_vars: int = 14,
) -> Cover:
    """Exact two-level minimisation for small variable counts.

    Raises :class:`ValueError` when the space is too large to enumerate.
    """
    nvars = on.nvars
    if nvars > max_vars:
        raise ValueError(
            "quine_mccluskey limited to %d variables, got %d" % (max_vars, nvars)
        )
    if dc is None:
        dc = Cover.empty(nvars)
    on_minterms = on.minterms()
    if not on_minterms:
        return Cover.empty(nvars)
    dc_minterms = dc.minterms() - on_minterms
    primes = _prime_implicants(nvars, on_minterms | dc_minterms)
    return _select_cover(nvars, primes, on_minterms)


def _prime_implicants(nvars: int, minterms: Set[int]) -> List[Cube]:
    """Generate all prime implicants of the given minterm set."""
    current: Set[Cube] = {Cube.from_minterm(nvars, m) for m in minterms}
    primes: Set[Cube] = set()
    while current:
        merged_from: Set[Cube] = set()
        next_level: Set[Cube] = set()
        cubes = sorted(current, key=lambda c: (c.num_literals, c.ones, c.zeros))
        for left, right in itertools.combinations(cubes, 2):
            if left.free_mask != right.free_mask:
                continue
            combined = left.consensus(right)
            if combined is None:
                continue
            if combined.free_mask == (left.free_mask | (left.ones ^ right.ones)):
                next_level.add(combined)
                merged_from.add(left)
                merged_from.add(right)
        primes.update(cube for cube in current if cube not in merged_from)
        current = next_level
    return sorted(primes, key=lambda c: (c.num_literals, c.ones, c.zeros))


def _select_cover(nvars: int, primes: List[Cube], on_minterms: Set[int]) -> Cover:
    """Choose a minimal set of primes covering every on-set minterm."""
    coverage: Dict[int, List[int]] = {m: [] for m in on_minterms}
    for index, prime in enumerate(primes):
        for minterm in on_minterms:
            if prime.covers_minterm(minterm):
                coverage[minterm].append(index)

    chosen: Set[int] = set()
    remaining = set(on_minterms)

    # Essential primes first.
    for minterm, indices in coverage.items():
        if len(indices) == 1:
            chosen.add(indices[0])
    for index in chosen:
        remaining -= {m for m in remaining if primes[index].covers_minterm(m)}

    # Petrick's method for small residual problems, greedy otherwise.
    if remaining and len(remaining) <= 16 and len(primes) <= 24:
        chosen |= _petrick(primes, coverage, remaining)
        remaining = set()
    while remaining:
        best_index = max(
            range(len(primes)),
            key=lambda i: (
                sum(1 for m in remaining if primes[i].covers_minterm(m)),
                -primes[i].num_literals,
            ),
        )
        chosen.add(best_index)
        remaining -= {m for m in remaining if primes[best_index].covers_minterm(m)}

    cover = Cover(nvars, [primes[i] for i in sorted(chosen)])
    return cover.irredundant()


def _petrick(
    primes: List[Cube],
    coverage: Dict[int, List[int]],
    remaining: Set[int],
) -> Set[int]:
    """Exact covering via Petrick's method (product of sums expansion)."""
    products: Set[FrozenSet[int]] = {frozenset()}
    for minterm in remaining:
        options = coverage[minterm]
        new_products: Set[FrozenSet[int]] = set()
        for product in products:
            for option in options:
                new_products.add(product | {option})
        # Prune dominated products to keep the set small.
        pruned: Set[FrozenSet[int]] = set()
        for product in sorted(new_products, key=len):
            if not any(existing <= product for existing in pruned):
                pruned.add(product)
        products = pruned
    if not products:
        return set()

    def product_cost(product: FrozenSet[int]) -> Tuple[int, int]:
        return (len(product), sum(primes[i].num_literals for i in product))

    return set(min(products, key=product_cost))
