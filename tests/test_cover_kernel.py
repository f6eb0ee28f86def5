"""The cover engine against its Cube-object oracle, cube for cube.

:mod:`repro.boolean.cover` and :mod:`repro.boolean.minimize` run every
recursion on ``(ones, zeros)`` mask pairs; :mod:`tests.oracles` keeps the
textbook recursions on Cube objects.  Every constructive operation
(complement, single-cube containment, irredundant, espresso itself) must
reproduce the oracle exactly -- same cubes, same order, same iteration
counts -- and the predicates must agree on every probe.  The suite sweeps
the word boundaries (1, 12, 64, 65 and 128 variables), real Table 1 cover
jobs, minterm on-sets (the point-counting irredundant path), the
>64-signal graph kernel and the memoised ranking cache.
"""

import random

import pytest

from repro import kernel as kernel_pkg
from repro.boolean import Cover, Cube, espresso
from repro.kernel import HAS_NUMPY
from repro.stg import csc_arbiter, table1_suite

from oracles import (
    assert_same_graph,
    reference_complement,
    reference_contains_cover,
    reference_contains_cube,
    reference_espresso,
    reference_irredundant,
    reference_single_cube_containment,
    tautology_rec,
)

requires_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")

#: Variable counts straddling the 64-bit word boundaries.
WIDTHS = [1, 12, 64, 65, 128]


def random_cube(rng, nvars, max_literals=6):
    """A random cube with at most ``max_literals`` bound variables."""
    ones = zeros = 0
    nlits = rng.randint(0, min(max_literals, nvars))
    for var in rng.sample(range(nvars), nlits):
        if rng.random() < 0.5:
            ones |= 1 << var
        else:
            zeros |= 1 << var
    return Cube(nvars, ones, zeros)


def random_cover(rng, nvars, ncubes, max_literals=6):
    return Cover(nvars, [random_cube(rng, nvars, max_literals) for _ in range(ncubes)])


def random_point(rng, nvars):
    return Cube.from_minterm(nvars, rng.getrandbits(nvars))


def assert_same_cover(a, b):
    assert a.nvars == b.nvars
    assert list(a) == list(b)


def assert_same_result(result, oracle):
    assert_same_cover(result.cover, oracle.cover)
    assert result.iterations == oracle.iterations
    assert result.initial_literals == oracle.initial_literals


# ---------------------------------------------------------------------- #
# Cover primitives across the word boundaries
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("nvars", WIDTHS)
def test_cover_predicates_match_reference(nvars):
    rng = random.Random(nvars)
    for round_ in range(8):
        cover = random_cover(rng, nvars, ncubes=rng.randint(0, 10))
        other = random_cover(rng, nvars, ncubes=rng.randint(0, 6))
        assert cover.is_tautology() == tautology_rec(cover)
        assert cover.contains_cover(other) == reference_contains_cover(cover, other)
        # Fully specified cubes take the point test; mix them with wide ones.
        points = Cover(nvars, list(other) + [random_point(rng, nvars) for _ in range(3)])
        assert cover.contains_cover(points) == reference_contains_cover(cover, points)
        for _ in range(4):
            probe = random_cube(rng, nvars)
            assert cover.contains_cube(probe) == reference_contains_cube(cover, probe)
    # The degenerate fixed points agree too.
    assert Cover.universe(nvars).is_tautology()
    assert not Cover.empty(nvars).is_tautology()


@pytest.mark.parametrize("nvars", WIDTHS)
def test_constructive_cover_ops_bit_identical(nvars):
    rng = random.Random(100 + nvars)
    for round_ in range(8):
        cover = random_cover(rng, nvars, ncubes=rng.randint(0, 8), max_literals=5)
        assert_same_cover(
            cover.single_cube_containment(), reference_single_cube_containment(cover)
        )
        assert_same_cover(cover.complement(), reference_complement(cover))
        dc = random_cover(rng, nvars, ncubes=rng.randint(0, 3), max_literals=5)
        assert_same_cover(cover.irredundant(dc), reference_irredundant(cover, dc))


@pytest.mark.parametrize("nvars", WIDTHS)
def test_pack_roundtrip_and_cube_intersection(nvars):
    """The engine's mask pairs rebuild the cover, and cube intersection at
    the cover level mirrors ``Cube.intersect``: the surviving cubes are
    exactly the non-empty intersections, in the original order."""
    rng = random.Random(200 + nvars)
    cover = random_cover(rng, nvars, ncubes=12)
    pairs = [(cube.ones, cube.zeros) for cube in cover]
    assert_same_cover(Cover.from_mask_pairs(nvars, pairs), cover)
    for _ in range(8):
        cube = random_cube(rng, nvars)
        expected = []
        for other in cover:
            inter = other.intersect(cube)
            if inter is not None and inter not in expected:
                expected.append(inter)
        assert list(cover.intersect_cube(cube)) == expected


def test_single_cube_containment_duplicates_and_mixed_literal_counts():
    """Duplicates, equal-count cubes and containers at several literal
    counts: the engine keeps exactly the oracle's cubes, in its order."""
    rng = random.Random(7)
    for nvars in (4, 12, 65):
        for _ in range(20):
            base = random_cover(rng, nvars, ncubes=rng.randint(1, 12), max_literals=4)
            cubes = list(base)
            cubes += [rng.choice(cubes) for _ in range(rng.randint(0, 6))]
            cubes += [random_point(rng, nvars) for _ in range(rng.randint(0, 4))]
            rng.shuffle(cubes)
            cover = Cover(nvars, cubes)
            assert_same_cover(
                cover.single_cube_containment(), reference_single_cube_containment(cover)
            )


# ---------------------------------------------------------------------- #
# Espresso parity (result covers AND iteration counts)
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("nvars", [1, 12])
def test_espresso_parity_random_with_dc(nvars):
    rng = random.Random(300 + nvars)
    for round_ in range(6):
        on = random_cover(rng, nvars, ncubes=rng.randint(1, 8), max_literals=4)
        dc = random_cover(rng, nvars, ncubes=rng.randint(0, 3), max_literals=4)
        assert_same_result(espresso(on, dc), reference_espresso(on, dc))


@pytest.mark.parametrize("nvars", [64, 65, 128])
def test_espresso_parity_wide_with_off(nvars):
    """Past 64 variables the off-set is given explicitly (like the ACG flow
    does) so the workload stays disjoint by construction: on-cubes live in
    the half-space var0=1, blocking cubes in var0=0."""
    rng = random.Random(400 + nvars)
    for round_ in range(4):
        on = Cover(
            nvars,
            [
                Cube(nvars, cube.ones | 1, cube.zeros & ~1)
                for cube in random_cover(rng, nvars, ncubes=rng.randint(1, 6))
            ],
        )
        off = Cover(
            nvars,
            [
                Cube(nvars, cube.ones & ~1, cube.zeros | 1)
                for cube in random_cover(rng, nvars, ncubes=rng.randint(1, 6))
            ],
        )
        assert_same_result(espresso(on, off=off), reference_espresso(on, off=off))


@pytest.mark.parametrize("nvars", [5, 9, 12])
def test_espresso_parity_minterm_on_sets(nvars):
    """Minterm on-sets (the synthesis common case) take the point-counting
    irredundant pass, with and without a DC-set, and with an explicit
    off-set."""
    rng = random.Random(500 + nvars)
    for round_ in range(6):
        codes = rng.sample(range(1 << nvars), rng.randint(1, 40))
        split = rng.randint(1, len(codes))
        on = Cover.from_minterms(nvars, codes[:split])
        rest = codes[split:]
        dc = Cover.from_minterms(nvars, rest[: len(rest) // 2])
        dc.extend(random_cover(rng, nvars, ncubes=rng.randint(0, 2), max_literals=nvars - 1))
        assert_same_result(espresso(on), reference_espresso(on))
        assert_same_result(espresso(on, dc), reference_espresso(on, dc))
        off = Cover.from_minterms(nvars, rest[len(rest) // 2:])
        if not off.is_empty():
            assert_same_result(espresso(on, off=off), reference_espresso(on, off=off))


def test_espresso_parity_table1_jobs():
    """Real cover jobs: the smallest Table 1 benchmarks, every conflict-free
    implementable signal, engine vs oracle, cube for cube."""
    from repro.spaces import build_state_space

    entries = [e for e in table1_suite() if e.expected_signals <= 6][:4]
    assert entries, "table1 suite lost its small benchmarks"
    jobs = 0
    for entry in entries:
        stg = entry.build()
        space = build_state_space(stg)
        conflicting = space.conflicting_signals()
        dc = space.dc_cover()
        for signal in stg.implementable_signals:
            if signal in conflicting:
                continue
            on = space.on_cover(signal)
            assert_same_result(espresso(on, dc), reference_espresso(on, dc))
            jobs += 1
    assert jobs > 0


# ---------------------------------------------------------------------- #
# Multi-word code matrices: >64 signals stay on the numpy path
# ---------------------------------------------------------------------- #
@requires_numpy
def test_wide_code_graph_kernel_equivalence(monkeypatch):
    from repro.kernel.bitset import code_words
    from repro.stategraph import build_state_graph, check_csc, check_usc

    stg = csc_arbiter(64)
    assert stg.num_signals == 65
    assert code_words(stg.num_signals) == 2  # genuinely multi-word
    vec = build_state_graph(stg)
    assert len(vec._codec.places) > 192  # four marking words per row
    vec_usc, vec_csc = check_usc(vec), check_csc(vec)
    monkeypatch.setattr(kernel_pkg, "HAS_NUMPY", False)
    ref = build_state_graph(csc_arbiter(64))
    assert_same_graph(vec, ref)
    ref_usc, ref_csc = check_usc(ref), check_csc(ref)
    assert vec_usc.num_conflicts == ref_usc.num_conflicts
    assert vec_csc.num_conflicts == ref_csc.num_conflicts
    assert sorted(map(tuple, vec_csc.conflicts)) == sorted(
        map(tuple, ref_csc.conflicts)
    )


# ---------------------------------------------------------------------- #
# Ranking-cost cache
# ---------------------------------------------------------------------- #
def test_ranking_cache_hits_and_parity():
    from repro.encoding import candidate_regions, choose_insertion, conflict_cores
    from repro.encoding import insertion as insertion_mod
    from repro.obs import tracing
    from repro.stategraph import build_state_graph

    graph = build_state_graph(csc_arbiter(4))
    cores = conflict_cores(graph)
    regions = candidate_regions(graph)
    insertion_mod._COST_CACHE.clear()
    with tracing("ranking") as obs:
        cold = choose_insertion(graph, cores, regions, random.Random(0))
        warm = choose_insertion(graph, cores, regions, random.Random(0))
        root = obs.finish()
    hits = sum(span.counters.get("ranking_cache_hits", 0) for span in root.walk())
    assert hits > 0
    assert [(gain, region.t_on, region.t_off, region.mask_on) for gain, region in cold] == [
        (gain, region.t_on, region.t_off, region.mask_on) for gain, region in warm
    ]


def test_ranking_cache_bounded():
    from repro.encoding import insertion as insertion_mod

    insertion_mod._COST_CACHE.clear()
    for index in range(insertion_mod._COST_CACHE_MAX + 10):
        insertion_mod._COST_CACHE[(index, b"", b"")] = index
        if len(insertion_mod._COST_CACHE) > insertion_mod._COST_CACHE_MAX:
            insertion_mod._COST_CACHE.popitem(last=False)
    assert len(insertion_mod._COST_CACHE) <= insertion_mod._COST_CACHE_MAX
    insertion_mod._COST_CACHE.clear()
