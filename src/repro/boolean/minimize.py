"""Two-level logic minimisation.

The DAC'97 flow runs Espresso on the derived on-set covers, using the
don't-care set, to reduce the literal count of the final implementation
(the ``EspTim`` column of Table 1).  This module provides two minimisers:

* :func:`espresso` -- a heuristic expand / irredundant / reduce loop in the
  style of Espresso-II.  It never changes the function on the care set and
  is the minimiser used by the synthesis flow.  Like :mod:`.cover`, whose
  mask-pair recursions it uses, it runs on the cubes' integer masks only;
  the test suite checks it against a Cube-object oracle cube for cube.
* :func:`quine_mccluskey` -- an exact minimiser (prime generation plus a
  greedy/Petrick covering step) usable for small variable counts; the test
  suite uses it to cross-check the heuristic minimiser.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..obs import current_tracer
from .cover import Cover, Pair, _bounding_pairs, _cofactor_pairs
from .cube import Cube

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
        off = on.union(dc).complement().single_cube_containment()
    else:
        off = off.single_cube_containment()

    current = on.single_cube_containment()
    iterations = 0
    previous_cost = _cost(current)
    # Expansion depends only on (cube, off) and off is fixed for the whole
    # run, so grown cubes are memoised across phases: the post-irredundant
    # expand of each iteration mostly re-expands already-maximal cubes.
    expand_cache: Dict[Tuple[int, int], Cube] = {}
    for _ in range(max_iterations):
        iterations += 1
        current = _expand(current, off, expand_cache)
        current = _irredundant_care(current, care_on, dc)
        current = _reduce(current, dc)
        current = _expand(current, off, expand_cache)
        current = _irredundant_care(current, care_on, dc)
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


def _irredundant_care(cover: Cover, care_on: Cover, dc: Cover) -> Cover:
    """Drop cubes whose *care* minterms are covered by the rest of the cover.

    A cube is redundant when every minterm it covers that belongs to the
    original on-set is also covered by the remaining cubes (plus the DC-set).
    Working with the care set directly avoids complementing the cover, which
    matters for wide specifications.  Cubes are tried in order and each
    verdict sees the cubes dropped before it.
    """
    nvars = cover.nvars
    cubes = list(cover.single_cube_containment())
    full = (1 << nvars) - 1
    points = [(cube.ones, cube.zeros) for cube in care_on]
    if all(ones | zeros == full for ones, zeros in points):
        return Cover(nvars, _irredundant_points(cubes, points, dc))
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


def _irredundant_points(
    cubes: List[Cube], points: List[Pair], dc: Cover
) -> List[Cube]:
    """:func:`_irredundant_care` for a care set of minterms (the synthesis
    common case), by coverage counting.

    "The rest plus the DC-set covers every care point of the candidate" is,
    for points, "each such point is covered by some other live cube or by
    the DC-set".  So count, per point, the live cubes covering it plus one
    when the DC-set covers it; a cube drops when every one of its points
    counts at least 2, and its points then lose one count each.
    """

    # A cube holds a point iff it has no literal the point contradicts.
    def held_by(ones: int, zeros: int) -> List[int]:
        return [
            index
            for index, (point_ones, point_zeros) in enumerate(points)
            if not ((ones & point_zeros) | (zeros & point_ones))
        ]

    dc_pairs = [(cube.ones, cube.zeros) for cube in dc]
    counts = []
    for point_ones, point_zeros in points:
        in_dc = not all(
            (ones & point_zeros) | (zeros & point_ones) for ones, zeros in dc_pairs
        )
        counts.append(1 if in_dc else 0)
    held = [held_by(cube.ones, cube.zeros) for cube in cubes]
    for indices in held:
        for index in indices:
            counts[index] += 1
    kept: List[Cube] = []
    for cube, indices in zip(cubes, held):
        if all(counts[index] >= 2 for index in indices):
            for index in indices:
                counts[index] -= 1
        else:
            kept.append(cube)
    return kept


def _expand(
    cover: Cover,
    off: Cover,
    cache: Optional[Dict[Tuple[int, int], Cube]] = None,
) -> Cover:
    """Expand every cube maximally without hitting the off-set.

    ``cache`` memoises expansions against this (fixed) off-set.  Expansion
    is idempotent -- a literal whose drop was blocked stays blocked as the
    cube only ever grows -- so every grown cube is also recorded as its
    own expansion, which makes re-expanding an already-maximal cover free.
    """
    if cache is None:
        cache = {}
    ordered = sorted(cover, key=lambda c: -c.num_literals)
    todo = [
        cube for cube in ordered if (cube.ones, cube.zeros) not in cache
    ]
    if todo:
        off_masks = [(c.ones, c.zeros) for c in off]
        grown_todo = [_expand_cube(cube, off_masks) for cube in todo]
        for cube, grown in zip(todo, grown_todo):
            cache[(cube.ones, cube.zeros)] = grown
            cache[(grown.ones, grown.zeros)] = grown
    grown_cubes = [cache[(cube.ones, cube.zeros)] for cube in ordered]

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
    return Cover(cover.nvars, expanded)


def _expand_cube(cube: Cube, off_masks: Sequence[Tuple[int, int]]) -> Cube:
    """Remove literals one at a time while the cube stays off-set free.

    ``off_masks`` is the off-set as raw ``(ones, zeros)`` pairs; the
    candidate cube intersects the off-set iff for some pair the combined
    ones/zeros masks are disjoint, so the whole check is integer ops.
    """
    ones = cube.ones
    zeros = cube.zeros
    # One ascending scan suffices: a blocked drop stays blocked, because
    # later drops only grow the cube and intersection with the off-set is
    # monotone under growth.
    mask = ones | zeros
    while mask:
        low = mask & -mask
        mask ^= low
        cand_ones = ones & ~low
        cand_zeros = zeros & ~low
        for off_ones, off_zeros in off_masks:
            if not ((cand_ones | off_ones) & (cand_zeros | off_zeros)):
                break  # hits the off-set: keep the literal
        else:
            ones = cand_ones
            zeros = cand_zeros
    return Cube(cube.nvars, ones, zeros)


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
