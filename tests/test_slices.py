"""The bit-sliced cover primitives against the loops they replaced.

:class:`repro.boolean.slices.CubeSlices` answers "which cubes of a fixed
list does this cube meet" with one OR per literal, and builds expansion and
espresso's minterm irredundancy on it.  Hypothesis draws the cube lists;
the seeded cases pin the corners: an empty blocking set, a blocking set
that contains the cube, duplicate care points and more than 64 variables.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.boolean import Cover, Cube
from repro.boolean import minimize
from repro.boolean.slices import CubeSlices, prime_cover, suffix_ors

from oracles import (
    reference_expand_cube,
    reference_irredundant_care,
    reference_irredundant_points,
)

#: Variable counts on both sides of the 64-bit word boundary.
WIDTHS = [1, 3, 8, 64, 65, 80]

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _pair(nvars, literals):
    ones = zeros = 0
    for var, value in literals:
        bit = 1 << (var % nvars)
        ones &= ~bit
        zeros &= ~bit
        if value:
            ones |= bit
        else:
            zeros |= bit
    return ones, zeros


def cube_pairs(nvars, max_literals):
    """A cube as ``(ones, zeros)`` with at most ``max_literals`` literals."""
    return st.lists(
        st.tuples(st.integers(0, nvars - 1), st.booleans()), max_size=max_literals
    ).map(lambda literals: _pair(nvars, literals))


def minterm_pairs(nvars):
    full = (1 << nvars) - 1
    return st.integers(0, full).map(lambda code: (code, full & ~code))


def _meets(left, right):
    return not ((left[0] | right[0]) & (left[1] | right[1]))


def _cover(nvars, pairs):
    return Cover(nvars, [Cube(nvars, ones, zeros) for ones, zeros in pairs])


# ---------------------------------------------------------------------- #
# Expansion and the meet query
# ---------------------------------------------------------------------- #
@given(st.data())
@SETTINGS
def test_expand_makes_the_scans_drop_decisions(data):
    nvars = data.draw(st.sampled_from(WIDTHS))
    blocking = data.draw(st.lists(cube_pairs(nvars, 6), max_size=12))
    cube = data.draw(st.one_of(cube_pairs(nvars, nvars), minterm_pairs(nvars)))
    if data.draw(st.booleans()):
        # A blocking cube that contains the cube: nothing may be dropped.
        blocking.insert(data.draw(st.integers(0, len(blocking))), cube)
    slices = CubeSlices(nvars, blocking)
    assert slices.expand(*cube) == reference_expand_cube(*cube, blocking)


@given(st.data())
@SETTINGS
def test_meeting_lists_the_cubes_sharing_a_point(data):
    nvars = data.draw(st.sampled_from(WIDTHS))
    pairs = data.draw(st.lists(cube_pairs(nvars, 5), max_size=10))
    cube = data.draw(cube_pairs(nvars, 8))
    expected = sum(1 << k for k, pair in enumerate(pairs) if _meets(cube, pair))
    assert CubeSlices(nvars, pairs).meeting(*cube) == expected


@pytest.mark.parametrize("nvars", WIDTHS)
def test_expand_corner_cases(nvars):
    rng = random.Random(nvars)
    full = (1 << nvars) - 1
    for _ in range(20):
        code = rng.getrandbits(nvars)
        point = (code, full & ~code)
        # No blocking cube: every literal goes.
        assert CubeSlices(nvars, []).expand(*point) == (0, 0)
        # The point itself blocks: every literal stays.
        others = [_pair(nvars, [(rng.randrange(nvars), rng.random() < 0.5)]) for _ in range(3)]
        assert CubeSlices(nvars, others + [point]).expand(*point) == point
        blocking = [
            _pair(nvars, [(rng.randrange(nvars), rng.random() < 0.5) for _ in range(4)])
            for _ in range(rng.randint(1, 70))
        ]
        grown = CubeSlices(nvars, blocking).expand(*point)
        assert grown == reference_expand_cube(*point, blocking)
        # The result is a prime: it meets no blocking cube, and each
        # single-literal drop would.
        if not any(_meets(point, pair) for pair in blocking):
            assert not any(_meets(grown, pair) for pair in blocking)
            mask = grown[0] | grown[1]
            while mask:
                low = mask & -mask
                mask ^= low
                wider = (grown[0] & ~low, grown[1] & ~low)
                assert any(_meets(wider, pair) for pair in blocking)


def test_suffix_ors():
    assert suffix_ors([]) == [0]
    assert suffix_ors([1, 4, 2]) == [7, 6, 2, 0]


def test_prime_cover_drops_repeats_and_contained_cubes():
    nvars = 3
    full = 7
    blocking = [(0b111, 0)]  # only the code 111 blocks
    points = [(code, full & ~code) for code in (0b111, 0b000, 0b001)]
    # 000 and 001 both grow to x2' (drops go lowest variable first, so the
    # last literal is the one that must stay); the blocked point 111 stays
    # a minterm, and the containment scan puts the prime first.
    cover = prime_cover(nvars, points, blocking)
    assert [(cube.ones, cube.zeros) for cube in cover] == [(0, 0b100), (0b111, 0)]
    # 011 grows to the prime x2', which the blocked universal cube holds.
    cover = prime_cover(nvars, [(0b011, 0b100), (0, 0)], [(0b100, 0)])
    assert [(cube.ones, cube.zeros) for cube in cover] == [(0, 0)]
    assert CubeSlices(nvars, [(0b100, 0)]).expand(0b011, 0b100) == (0, 0b100)


# ---------------------------------------------------------------------- #
# Espresso's minterm irredundancy on the point table
# ---------------------------------------------------------------------- #
def _point_irredundant(cover, care_on, dc):
    table = minimize._point_table(care_on, dc)
    assert table is not None
    return minimize._irredundant_care(cover, care_on, dc, table)


@given(st.data())
@SETTINGS
def test_point_table_irredundant_matches_the_oracles(data):
    nvars = data.draw(st.sampled_from([3, 8, 65, 80]))
    points = data.draw(st.lists(minterm_pairs(nvars), min_size=1, max_size=12))
    # Duplicate care points: each copy is a point of its own, in the point
    # table and in both oracles.
    points += data.draw(st.lists(st.sampled_from(points), max_size=3))
    on = _cover(nvars, points)
    cubes = data.draw(st.lists(cube_pairs(nvars, 5), max_size=8))
    cubes += data.draw(st.lists(st.sampled_from(points), max_size=4))
    cover = _cover(nvars, cubes)
    dc = _cover(nvars, data.draw(st.lists(cube_pairs(nvars, 4), max_size=3)))
    result = _point_irredundant(cover, on, dc)
    assert list(result) == list(reference_irredundant_care(cover, on, dc))
    scanned = reference_irredundant_points(list(cover.single_cube_containment()), points, dc)
    assert list(result) == scanned


@pytest.mark.parametrize("nvars", [3, 4, 5, 8, 65])
def test_point_table_irredundant_seeded(nvars):
    """Dense seeded cases, where cubes share most of their points: a cube
    kept early makes later ones redundant, and the DC-set takes some."""
    rng = random.Random(nvars)
    full = (1 << nvars) - 1
    # Points and cubes live in the subspace of the low five variables (the
    # others 0), so that they meet often.
    low = min(nvars, 5)
    high = full & ~((1 << low) - 1)

    def literals(count):
        return [(rng.randrange(low), rng.random() < 0.5) for _ in range(count)]

    for _ in range(60):
        codes = [rng.getrandbits(low) for _ in range(rng.randint(1, 16))]
        points = [(code, full & ~code) for code in codes]
        on = _cover(nvars, points)
        cubes = [_pair(nvars, literals(rng.randint(0, 3))) for _ in range(rng.randint(1, 10))]
        cover = _cover(nvars, [(ones, zeros | high) for ones, zeros in cubes])
        dc = _cover(nvars, [_pair(nvars, literals(rng.randint(1, 3))) for _ in range(rng.randint(0, 2))])
        result = _point_irredundant(cover, on, dc)
        assert list(result) == list(reference_irredundant_care(cover, on, dc))
        scanned = reference_irredundant_points(list(cover.single_cube_containment()), points, dc)
        assert list(result) == scanned


def test_point_table_needs_minterms():
    on = Cover.from_strings(["1-0", "110"])
    assert minimize._point_table(on, Cover.empty(3)) is None


@pytest.mark.parametrize("nvars", [4, 65])
def test_point_table_dc_membership(nvars):
    rng = random.Random(nvars)
    full = (1 << nvars) - 1
    codes = [rng.getrandbits(nvars) for _ in range(30)]
    codes += codes[:5]  # duplicate points
    on = Cover.from_mask_pairs(nvars, [(code, full & ~code) for code in codes])
    dc = Cover.from_mask_pairs(
        nvars, [_pair(nvars, [(rng.randrange(nvars), rng.random() < 0.5)]) for _ in range(2)]
    )
    points, in_dc = minimize._point_table(on, dc)
    for index, code in enumerate(codes):
        assert bool(in_dc >> index & 1) == dc.covers_minterm(code)
    assert points.everything == (1 << len(codes)) - 1
