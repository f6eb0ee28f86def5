"""Python-vs-numpy equivalence of the cube-matrix cover kernel.

The bit-identity contract of :mod:`repro.kernel.cubes`: every constructive
cover operation (complement, single-cube containment, espresso itself)
reproduces the pure-python reference exactly -- same cubes, same order,
same iteration counts -- and the predicates agree on every probe.  The
suite sweeps the word boundaries (1, 12, 64, 65 and 128 variables), real
Table 1 cover jobs, the >64-signal graph kernel and the memoised ranking
cache.  The espresso parity runs force every matrix pass on (expand has
none) by zeroing ``_MATRIX_MIN_CUBES``.
"""

import random

import pytest

from repro.boolean import Cover, Cube, espresso
from repro.boolean import cover as cover_mod
from repro.kernel import HAS_NUMPY
from repro.stg import csc_arbiter, table1_suite

requires_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")

#: Variable counts straddling the uint64 word boundaries.
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


def assert_same_cover(a, b):
    assert a.nvars == b.nvars
    assert list(a) == list(b)


# ---------------------------------------------------------------------- #
# Cover primitives across the word boundaries
# ---------------------------------------------------------------------- #
@requires_numpy
@pytest.mark.parametrize("nvars", WIDTHS)
def test_cover_predicates_match_reference(nvars):
    rng = random.Random(nvars)
    for round_ in range(8):
        cover = random_cover(rng, nvars, ncubes=rng.randint(0, 10))
        other = random_cover(rng, nvars, ncubes=rng.randint(0, 6))
        assert cover.is_tautology(kernel="numpy") == cover.is_tautology(
            kernel="python"
        )
        assert cover.contains_cover(other, kernel="numpy") == cover.contains_cover(
            other, kernel="python"
        )
        for _ in range(4):
            probe = random_cube(rng, nvars)
            assert cover.contains_cube(probe, kernel="numpy") == cover.contains_cube(
                probe, kernel="python"
            )
    # The degenerate fixed points agree too.
    assert Cover.universe(nvars).is_tautology(kernel="numpy")
    assert not Cover.empty(nvars).is_tautology(kernel="numpy")


@requires_numpy
@pytest.mark.parametrize("nvars", WIDTHS)
def test_constructive_cover_ops_bit_identical(nvars):
    rng = random.Random(100 + nvars)
    for round_ in range(8):
        cover = random_cover(rng, nvars, ncubes=rng.randint(0, 8), max_literals=5)
        assert_same_cover(
            cover.single_cube_containment(kernel="numpy"),
            cover.single_cube_containment(kernel="python"),
        )
        assert_same_cover(
            cover.complement(kernel="numpy"), cover.complement(kernel="python")
        )
        dc = random_cover(rng, nvars, ncubes=rng.randint(0, 3), max_literals=5)
        assert_same_cover(
            cover.irredundant(dc, kernel="numpy"),
            cover.irredundant(dc, kernel="python"),
        )


@requires_numpy
@pytest.mark.parametrize("nvars", WIDTHS)
def test_pack_roundtrip_and_cube_intersection(nvars):
    from repro.kernel import cubes as kernel_cubes

    rng = random.Random(200 + nvars)
    cover = random_cover(rng, nvars, ncubes=12)
    ones, zeros = kernel_cubes.pack_cover(cover)
    assert ones.shape == (len(cover), kernel_cubes.words_for(nvars))
    assert_same_cover(kernel_cubes.unpack_cover(nvars, ones, zeros), cover)
    # Row-level cube intersection mirrors Cube.intersect: the surviving
    # rows are exactly the non-empty intersections, in original order.
    words = kernel_cubes.words_for(nvars)
    for _ in range(8):
        cube = random_cube(rng, nvars)
        cube_ones = kernel_cubes.pack_row(cube.ones, words)
        cube_zeros = kernel_cubes.pack_row(cube.zeros, words)
        i_ones, i_zeros = kernel_cubes.intersect_cube_rows(
            ones, zeros, cube_ones, cube_zeros
        )
        expected = [
            other.intersect(cube)
            for other in cover
            if other.intersect(cube) is not None
        ]
        assert len(i_ones) == len(expected)
        for idx, inter in enumerate(expected):
            assert kernel_cubes.row_int(i_ones[idx]) == inter.ones
            assert kernel_cubes.row_int(i_zeros[idx]) == inter.zeros


# ---------------------------------------------------------------------- #
# Espresso parity (result covers AND iteration counts)
# ---------------------------------------------------------------------- #
@requires_numpy
@pytest.mark.parametrize("nvars", [1, 12])
def test_espresso_parity_random_with_dc(nvars, monkeypatch):
    monkeypatch.setattr(cover_mod, "_MATRIX_MIN_CUBES", 0)
    rng = random.Random(300 + nvars)
    for round_ in range(6):
        on = random_cover(rng, nvars, ncubes=rng.randint(1, 8), max_literals=4)
        dc = random_cover(rng, nvars, ncubes=rng.randint(0, 3), max_literals=4)
        ref = espresso(on, dc, kernel="python")
        vec = espresso(on, dc, kernel="numpy")
        assert_same_cover(vec.cover, ref.cover)
        assert vec.iterations == ref.iterations
        assert vec.initial_literals == ref.initial_literals


@requires_numpy
@pytest.mark.parametrize("nvars", [64, 65, 128])
def test_espresso_parity_wide_with_off(nvars, monkeypatch):
    """Past 64 variables the off-set is given explicitly (like the ACG flow
    does) so the workload stays disjoint by construction: on-cubes live in
    the half-space var0=1, blocking cubes in var0=0."""
    monkeypatch.setattr(cover_mod, "_MATRIX_MIN_CUBES", 0)
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
        ref = espresso(on, off=off, kernel="python")
        vec = espresso(on, off=off, kernel="numpy")
        assert_same_cover(vec.cover, ref.cover)
        assert vec.iterations == ref.iterations


@requires_numpy
def test_espresso_parity_table1_jobs(monkeypatch):
    """Real cover jobs: the smallest Table 1 benchmarks, every conflict-free
    implementable signal, python vs numpy, cube-for-cube."""
    from repro.spaces import build_state_space

    monkeypatch.setattr(cover_mod, "_MATRIX_MIN_CUBES", 0)
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
            ref = espresso(on, dc, kernel="python")
            vec = espresso(on, dc, kernel="numpy")
            assert_same_cover(vec.cover, ref.cover)
            assert vec.iterations == ref.iterations
            jobs += 1
    assert jobs > 0


# ---------------------------------------------------------------------- #
# Multi-word code matrices: >64 signals stay on the numpy path
# ---------------------------------------------------------------------- #
@requires_numpy
def test_wide_code_graph_kernel_equivalence():
    from repro.kernel.bitset import code_words
    from repro.stategraph import build_state_graph, check_csc, check_usc

    stg = csc_arbiter(64)
    assert stg.num_signals == 65
    assert code_words(stg.num_signals) == 2  # genuinely multi-word
    ref = build_state_graph(csc_arbiter(64), kernel="python")
    vec = build_state_graph(stg, kernel="numpy")
    assert vec.num_states == ref.num_states
    assert vec.packed_codes == ref.packed_codes
    ref_usc, vec_usc = check_usc(ref), check_usc(vec)
    ref_csc, vec_csc = check_csc(ref), check_csc(vec)
    assert vec_usc.num_conflicts == ref_usc.num_conflicts
    assert vec_csc.num_conflicts == ref_csc.num_conflicts
    assert sorted(map(tuple, vec_csc.conflicts)) == sorted(
        map(tuple, ref_csc.conflicts)
    )


def test_wide_code_python_fallback_unavailable_numpy(monkeypatch):
    """Explicit --kernel numpy still fails loudly when numpy is missing --
    the wide-code lift must not have introduced a silent fallback."""
    from repro import kernel as kernel_pkg
    from repro.stategraph import build_state_graph

    monkeypatch.setattr(kernel_pkg, "HAS_NUMPY", False)
    with pytest.raises(RuntimeError):
        build_state_graph(csc_arbiter(4), kernel="numpy")


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
