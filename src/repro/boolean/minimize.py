"""Two-level logic minimisation.

The DAC'97 flow runs Espresso on the derived on-set covers, using the
don't-care set, to reduce the literal count of the final implementation
(the ``EspTim`` column of Table 1).  This module provides two minimisers:

* :func:`espresso` -- a heuristic expand / irredundant / reduce loop in the
  style of Espresso-II.  It never changes the function on the care set and
  is the minimiser used by the synthesis flow.
* :func:`quine_mccluskey` -- an exact minimiser (prime generation plus a
  greedy/Petrick covering step) usable for small variable counts; the test
  suite uses it to cross-check the heuristic minimiser.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..obs import current_tracer
from .cover import Cover, _matrix_kernel
from .cube import Cube

__all__ = ["espresso", "quine_mccluskey", "MinimizationResult"]

#: Matrix-backed phase passes executed since import; espresso() snapshots
#: this around its loop to feed the ``espresso_matrix_passes`` obs counter.
_matrix_passes = 0


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
    kernel: Optional[str] = None,
) -> MinimizationResult:
    """Minimise ``on`` against the don't-care set ``dc``.

    The result covers every minterm of ``on``, covers no minterm outside
    ``on`` plus ``dc``, and usually has substantially fewer literals.

    When ``off`` is given it is used directly as the blocking set for cube
    expansion instead of computing ``complement(on + dc)`` -- the synthesis
    flows use this because they already hold an off-set cover and the
    complement can be expensive for wide specifications.  Everything outside
    ``on + off`` is then treated as a don't care.

    ``kernel`` selects the cover engine backend (``"auto"`` / ``"numpy"`` /
    ``"python"``, see :func:`repro.kernel.resolve_kernel`): under numpy the
    irredundant/reduce passes run over uint64 cube matrices (expand keeps
    its scalar scan).  Both backends produce the identical
    :class:`MinimizationResult` -- same cubes, same order, same iteration
    count.
    """
    nvars = on.nvars
    if dc is None:
        dc = Cover.empty(nvars)
    if on.is_empty():
        return MinimizationResult(Cover.empty(nvars), 0, 0)

    care_on = on
    initial_literals = on.literal_count
    passes_before = _matrix_passes
    if off is None:
        off = on.union(dc).complement(kernel=kernel).single_cube_containment(
            kernel=kernel
        )
    else:
        off = off.single_cube_containment(kernel=kernel)

    current = on.single_cube_containment(kernel=kernel)
    iterations = 0
    previous_cost = _cost(current)
    # Expansion depends only on (cube, off) and off is fixed for the whole
    # run, so grown cubes are memoised across phases: the post-irredundant
    # expand of each iteration mostly re-expands already-maximal cubes.
    expand_cache: Dict[Tuple[int, int], Cube] = {}
    for _ in range(max_iterations):
        iterations += 1
        current = _expand(current, off, expand_cache)
        current = _irredundant_care(current, care_on, dc, kernel)
        current = _reduce(current, dc, kernel)
        current = _expand(current, off, expand_cache)
        current = _irredundant_care(current, care_on, dc, kernel)
        cost = _cost(current)
        if cost >= previous_cost:
            break
        previous_cost = cost

    # Safety: the minimised cover must still cover the original on-set.
    if not current.union(dc).contains_cover(care_on, kernel=kernel):  # pragma: no cover - guard
        current = care_on.single_cube_containment(kernel=kernel)
    obs = current_tracer()
    if obs.enabled:
        span = obs.current
        span.counter("espresso_calls")
        span.counter("espresso_iterations", iterations)
        span.counter("espresso_input_cubes", len(on))
        span.counter("espresso_output_cubes", len(current))
        if _matrix_passes > passes_before:
            span.counter("espresso_matrix_passes", _matrix_passes - passes_before)
    return MinimizationResult(current, iterations, initial_literals)


def _cost(cover: Cover) -> Tuple[int, int]:
    return (len(cover), cover.literal_count)


def _irredundant_care(
    cover: Cover, care_on: Cover, dc: Cover, kernel: Optional[str] = None
) -> Cover:
    """Drop cubes whose *care* minterms are covered by the rest of the cover.

    A cube is redundant when every minterm it covers that belongs to the
    original on-set is also covered by the remaining cubes (plus the DC-set).
    Working with the care set directly avoids complementing the cover, which
    matters for wide specifications.
    """
    matrix = _matrix_kernel(kernel, len(cover) + len(dc))
    if matrix is not None:
        return _irredundant_care_matrix(cover, care_on, dc, kernel, matrix)
    cubes = list(cover.single_cube_containment(kernel=kernel))
    index = 0
    while index < len(cubes):
        candidate = cubes[index]
        rest = Cover(cover.nvars, cubes[:index] + cubes[index + 1:])
        if not dc.is_empty():
            rest = rest.union(dc)
        care_part = care_on.intersect_cube(candidate)
        if rest.contains_cover(care_part, kernel=kernel):
            cubes.pop(index)
        else:
            index += 1
    return Cover(cover.nvars, cubes)


def _irredundant_care_matrix(
    cover: Cover, care_on: Cover, dc: Cover, kernel: Optional[str], matrix
) -> Cover:
    """Matrix twin of :func:`_irredundant_care` (bit-identical).

    The drop decision is a semantic containment check, so only the
    sequential candidate order needs replicating; the per-candidate
    cofactor/tautology recursions run over packed rows.
    """
    global _matrix_passes
    _matrix_passes += 1
    np = matrix.np
    nvars = cover.nvars
    words = matrix.words_for(nvars)
    cubes = list(cover.single_cube_containment(kernel=kernel))
    all_ones, all_zeros = matrix.pack_pairs(
        [(c.ones, c.zeros) for c in cubes], words
    )
    dc_ones, dc_zeros = matrix.pack_cover(dc)
    care_ones, care_zeros = matrix.pack_cover(care_on)
    care_counts = matrix.literal_counts(care_ones, care_zeros)
    if len(care_counts) == 0 or bool((care_counts == nvars).all()):
        # Minterm care set (the synthesis common case): the sequential
        # drop loop collapses to coverage counting.  "The rest plus the
        # DC-set covers every care point of the candidate" is, for
        # points, "each such point is covered by some other live row" --
        # so track how many live rows cover each point and decrement as
        # cubes drop.  Bit-identical to the reference's sequential scan.
        cov = matrix.cover_point_matrix(all_ones, all_zeros, care_ones, care_zeros)
        counts = cov.sum(axis=0)
        if len(dc):
            # DC coverage never decrements, so a bool contribution of 1
            # is enough to keep covered points above the drop threshold.
            counts = counts + matrix.covered_points(
                dc_ones, dc_zeros, care_ones, care_zeros
            ).astype(counts.dtype)
        kept: List[Cube] = []
        for index, cube in enumerate(cubes):
            mine = cov[index]
            if bool((counts[mine] >= 2).all()):
                counts[mine] -= 1
            else:
                kept.append(cube)
        return Cover(nvars, kept)
    alive = list(range(len(cubes)))
    index = 0
    while index < len(alive):
        candidate = cubes[alive[index]]
        rest_index = np.array(
            alive[:index] + alive[index + 1:], dtype=np.intp
        )
        rest_ones = np.concatenate([all_ones[rest_index], dc_ones])
        rest_zeros = np.concatenate([all_zeros[rest_index], dc_zeros])
        part_ones, part_zeros = matrix.intersect_cube_rows(
            care_ones,
            care_zeros,
            matrix.pack_row(candidate.ones, words),
            matrix.pack_row(candidate.zeros, words),
        )
        # No dedup: the drop decision is semantic, and duplicate care rows
        # cannot change a containment verdict.
        # Fully-specified care cubes (the common case: synthesis on-sets
        # are minterm covers) get a single batched point-containment
        # sweep; only genuinely wider cubes need the tautology recursion.
        part_counts = matrix.literal_counts(part_ones, part_zeros)
        points = part_counts == nvars
        contained = True
        if points.any():
            contained = bool(
                matrix.covered_points(
                    rest_ones, rest_zeros, part_ones[points], part_zeros[points]
                ).all()
            )
        if contained:
            wide = np.flatnonzero(~points)
            contained = all(
                matrix.contains_cube_rows(
                    nvars, rest_ones, rest_zeros, part_ones[row], part_zeros[row]
                )
                for row in wide
            )
        if contained:
            alive.pop(index)
        else:
            index += 1
    return Cover(nvars, [cubes[i] for i in alive])


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

    Expand runs on the scalar scan under every kernel: most literal drops
    are blocked by the first off-cube tested, so its early exit beat a
    batched matrix pass, which always computes the full conflict tensor,
    at every measured off-set size (the Table 1 covers, off-sets of 9-400
    cubes, and synthetic minterm off-sets up to 5000 rows).
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


def _reduce(cover: Cover, dc: Cover, kernel: Optional[str] = None) -> Cover:
    """Shrink each cube to the smallest cube covering its essential part."""
    matrix = _matrix_kernel(kernel, len(cover) + len(dc))
    if matrix is not None:
        return _reduce_matrix(cover, dc, matrix)
    cubes = list(cover)
    reduced: List[Cube] = []
    for index, cube in enumerate(cubes):
        # Earlier cubes are taken in their already-reduced form, later cubes
        # in their original form (standard Espresso REDUCE ordering).
        rest = Cover(cover.nvars, reduced + cubes[index + 1:])
        rest = rest.union(dc)
        essential = Cover(cover.nvars, [cube]).difference(rest)
        if essential.is_empty():
            # Entirely covered elsewhere; keep as-is, irredundant pass drops it.
            reduced.append(cube)
            continue
        smallest = essential[0]
        for piece in essential:
            smallest = smallest.supercube(piece)
        reduced.append(smallest)
    return Cover(cover.nvars, reduced)


def _reduce_matrix(cover: Cover, dc: Cover, matrix) -> Cover:
    """Matrix twin of :func:`_reduce` (bit-identical).

    The reduced cube is the bounding box of ``cube minus rest``; the
    reference's supercube fold over an explicit difference cover computes
    exactly that box, so :func:`repro.kernel.cubes.bounding_difference`
    reproduces it without materialising the difference.
    """
    global _matrix_passes
    _matrix_passes += 1
    np = matrix.np
    nvars = cover.nvars
    words = matrix.words_for(nvars)
    cubes = list(cover)
    count = len(cubes)
    all_ones, all_zeros = matrix.pack_pairs(
        [(c.ones, c.zeros) for c in cubes], words
    )
    dc_ones, dc_zeros = matrix.pack_cover(dc)
    # Earlier cubes participate in their already-reduced form (standard
    # Espresso REDUCE ordering); rows are rewritten in place as we go.
    done_ones = np.zeros((count, words), dtype=np.uint64)
    done_zeros = np.zeros((count, words), dtype=np.uint64)
    reduced: List[Cube] = []
    for index, cube in enumerate(cubes):
        rest_ones = np.concatenate(
            [done_ones[:index], all_ones[index + 1:], dc_ones]
        )
        rest_zeros = np.concatenate(
            [done_zeros[:index], all_zeros[index + 1:], dc_zeros]
        )
        box = matrix.bounding_difference(
            nvars, cube.ones, cube.zeros, rest_ones, rest_zeros
        )
        if box is None:
            # Entirely covered elsewhere; keep as-is, irredundant pass drops it.
            smallest = cube
        else:
            smallest = Cube(nvars, box[0], box[1])
        reduced.append(smallest)
        done_ones[index] = matrix.pack_row(smallest.ones, words)
        done_zeros[index] = matrix.pack_row(smallest.zeros, words)
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
