"""Tests for the ROBDD manager and symbolic reachability.

The manager section cross-checks every core operation -- ite, the derived
connectives, quantification and the one-pass relational product -- against
brute-force truth tables over small variable counts, so the symbolic
state-space backend rests on an independently verified substrate.
"""

import itertools
import random

import pytest

from repro.bdd import BDD, SymbolicNet, count_reachable_markings, isop
from repro.petrinet import Marking, explore
from repro.stg import muller_pipeline, paper_example


def test_basic_connectives():
    bdd = BDD(["a", "b", "c"])
    a, b = bdd.var("a"), bdd.var("b")
    assert bdd.conj(a, bdd.negate(a)) == bdd.FALSE
    assert bdd.disj(a, bdd.negate(a)) == bdd.TRUE
    f = bdd.disj(bdd.conj(a, b), bdd.conj(bdd.negate(a), bdd.negate(b)))
    assert bdd.evaluate(f, {"a": True, "b": True, "c": False})
    assert not bdd.evaluate(f, {"a": True, "b": False, "c": True})


def test_hash_consing_gives_canonical_nodes():
    bdd = BDD(["a", "b"])
    f = bdd.disj(bdd.var("a"), bdd.var("b"))
    g = bdd.disj(bdd.var("b"), bdd.var("a"))
    assert f == g  # same node id for the same function


def test_xor_and_implies():
    bdd = BDD(["a", "b"])
    a, b = bdd.var("a"), bdd.var("b")
    x = bdd.xor(a, b)
    assert bdd.evaluate(x, {"a": True, "b": False})
    assert not bdd.evaluate(x, {"a": True, "b": True})
    assert bdd.implies(bdd.FALSE, a) == bdd.TRUE


def test_restrict_and_quantification():
    bdd = BDD(["a", "b"])
    f = bdd.conj(bdd.var("a"), bdd.var("b"))
    assert bdd.restrict(f, "a", True) == bdd.var("b")
    assert bdd.restrict(f, "a", False) == bdd.FALSE
    assert bdd.exists(f, ["a"]) == bdd.var("b")
    assert bdd.forall(f, ["a"]) == bdd.FALSE


def test_count_solutions():
    bdd = BDD(["a", "b", "c"])
    assert bdd.count_solutions(bdd.TRUE) == 8
    assert bdd.count_solutions(bdd.FALSE) == 0
    assert bdd.count_solutions(bdd.var("a")) == 4
    f = bdd.disj(bdd.var("a"), bdd.var("b"))
    assert bdd.count_solutions(f) == 6


def test_satisfying_assignments():
    bdd = BDD(["a", "b"])
    f = bdd.conj(bdd.var("a"), bdd.negate(bdd.var("b")))
    assignments = list(bdd.satisfying_assignments(f))
    assert assignments == [{"a": True, "b": False}]


# ---------------------------------------------------------------------- #
# Brute-force oracles over <= 5 variables
# ---------------------------------------------------------------------- #
NAMES5 = ["a", "b", "c", "d", "e"]


def _truth_table(nvars, seed):
    rng = random.Random(seed)
    return [rng.randrange(2) for _ in range(1 << nvars)]


def _build(bdd, names, table):
    """BDD of a truth table (row index bit i = value of names[i])."""
    minterms = [row for row, value in enumerate(table) if value]
    return bdd.disj_all(
        bdd.cube({name: bool(row & (1 << i)) for i, name in enumerate(names)})
        for row in minterms
    )


def _rows(bdd, names, f):
    """Evaluate a BDD back into a truth table."""
    table = []
    for row in range(1 << len(names)):
        assignment = {name: bool(row & (1 << i)) for i, name in enumerate(names)}
        table.append(int(bdd.evaluate(f, assignment)))
    return table


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
def test_ite_oracle_against_truth_tables(nvars):
    names = NAMES5[:nvars]
    bdd = BDD(names)
    for seed in range(6):
        tf = _truth_table(nvars, seed)
        tg = _truth_table(nvars, seed + 100)
        th = _truth_table(nvars, seed + 200)
        f, g, h = (_build(bdd, names, t) for t in (tf, tg, th))
        expected = [(tg[i] if tf[i] else th[i]) for i in range(1 << nvars)]
        assert _rows(bdd, names, bdd.ite(f, g, h)) == expected
        assert _rows(bdd, names, bdd.conj(f, g)) == [a & b for a, b in zip(tf, tg)]
        assert _rows(bdd, names, bdd.disj(f, g)) == [a | b for a, b in zip(tf, tg)]
        assert _rows(bdd, names, bdd.xor(f, g)) == [a ^ b for a, b in zip(tf, tg)]
        assert _rows(bdd, names, bdd.negate(f)) == [1 - a for a in tf]


@pytest.mark.parametrize("nvars", [2, 3, 4, 5])
def test_quantification_oracle(nvars):
    names = NAMES5[:nvars]
    bdd = BDD(names)
    for seed in range(6):
        table = _truth_table(nvars, seed)
        f = _build(bdd, names, table)
        for count in range(1, nvars):
            quantified = names[:count]
            mask = (1 << count) - 1
            exists_rows = []
            forall_rows = []
            for row in range(1 << nvars):
                group = [table[(row & ~mask) | sub] for sub in range(1 << count)]
                exists_rows.append(int(any(group)))
                forall_rows.append(int(all(group)))
            assert _rows(bdd, names, bdd.exists(f, quantified)) == exists_rows
            assert _rows(bdd, names, bdd.forall(f, quantified)) == forall_rows


@pytest.mark.parametrize("nvars", [2, 3, 4, 5])
def test_relational_product_oracle(nvars):
    """and_exists(f, g, V) == exists(conj(f, g), V) on random functions."""
    names = NAMES5[:nvars]
    bdd = BDD(names)
    for seed in range(8):
        f = _build(bdd, names, _truth_table(nvars, seed))
        g = _build(bdd, names, _truth_table(nvars, seed + 50))
        for count in range(nvars + 1):
            for quantified in itertools.combinations(names, count):
                direct = bdd.and_exists(f, g, quantified)
                reference = bdd.exists(bdd.conj(f, g), quantified)
                assert direct == reference


def test_rename_is_substitution():
    bdd = BDD(["x", "x'", "y", "y'"])
    f = bdd.conj(bdd.var("x"), bdd.negate(bdd.var("y")))
    renamed = bdd.rename(f, {"x": "x'", "y": "y'"})
    assert renamed == bdd.conj(bdd.var("x'"), bdd.negate(bdd.var("y'")))
    # renaming only one block keeps the other untouched
    half = bdd.rename(f, {"x": "x'"})
    assert half == bdd.conj(bdd.var("x'"), bdd.negate(bdd.var("y")))


def test_rename_rejects_order_breaking_mappings():
    bdd = BDD(["x", "y", "z"])
    f = bdd.conj(bdd.var("x"), bdd.var("y"))
    with pytest.raises(ValueError):
        bdd.rename(f, {"x": "z"})  # x would cross the unmapped y
    with pytest.raises(ValueError):
        bdd.rename(f, {"x": "y"})  # collides with a support variable


def test_count_solutions_large_counts():
    names = ["v%d" % i for i in range(64)]
    bdd = BDD(names)
    assert bdd.count_solutions(bdd.TRUE) == 1 << 64
    f = bdd.var("v0")
    assert bdd.count_solutions(f) == 1 << 63
    g = bdd.disj(bdd.var("v0"), bdd.var("v1"))
    assert bdd.count_solutions(g) == 3 * (1 << 62)
    # parity of all 64 variables: exactly half the space
    parity = bdd.FALSE
    for name in names:
        parity = bdd.xor(parity, bdd.var(name))
    assert bdd.count_solutions(parity) == 1 << 63


def test_count_solutions_over_subset():
    bdd = BDD(["a", "b", "aux1", "aux2"])
    f = bdd.disj(bdd.var("a"), bdd.var("b"))
    assert bdd.count_solutions(f) == 12  # 3 * 2^2 auxiliary combinations
    assert bdd.count_solutions(f, ["a", "b"]) == 3
    assert bdd.count_solutions(f, ["a", "b", "aux1"]) == 6
    with pytest.raises(ValueError):
        bdd.count_solutions(f, ["a"])  # support not contained
    with pytest.raises(ValueError):
        bdd.count_solutions(f, ["a", "b", "nope"])  # unknown variable


def test_satisfying_assignments_over_subset():
    bdd = BDD(["a", "b", "aux"])
    f = bdd.conj(bdd.var("a"), bdd.negate(bdd.var("b")))
    assert list(bdd.satisfying_assignments(f, ["a", "b"])) == [
        {"a": True, "b": False}
    ]
    with pytest.raises(ValueError):
        list(bdd.satisfying_assignments(f, ["a"]))


def test_duplicate_variables_rejected():
    with pytest.raises(ValueError):
        BDD(["a", "b", "a"])


def test_unknown_variable_raises_key_error():
    bdd = BDD(["a"])
    with pytest.raises(KeyError):
        bdd.var("zz")
    with pytest.raises(KeyError):
        bdd.restrict(bdd.var("a"), "zz", True)


# ---------------------------------------------------------------------- #
# ISOP extraction
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("nvars", [2, 3, 4, 5])
def test_isop_respects_bounds_and_covers(nvars):
    names = NAMES5[:nvars]
    bits = {name: i for i, name in enumerate(names)}
    bdd = BDD(names)
    for seed in range(8):
        lower_table = _truth_table(nvars, seed)
        extra = _truth_table(nvars, seed + 300)
        upper_table = [max(a, b) for a, b in zip(lower_table, extra)]
        lower = _build(bdd, names, lower_table)
        upper = _build(bdd, names, upper_table)
        cubes = isop(bdd, lower, upper, bits)
        for row in range(1 << nvars):
            covered = any(
                (ones & ~row) == 0 and (zeros & row) == 0 for ones, zeros in cubes
            )
            if lower_table[row]:
                assert covered, "lower bound not covered"
            if not upper_table[row]:
                assert not covered, "cover exceeds upper bound"


def test_isop_exact_when_bounds_coincide():
    names = ["a", "b", "c"]
    bdd = BDD(names)
    f = bdd.disj(bdd.conj(bdd.var("a"), bdd.var("b")), bdd.var("c"))

    def cube_bdd(ones, zeros):
        assignment = {}
        for i, name in enumerate(names):
            if ones & (1 << i):
                assignment[name] = True
            elif zeros & (1 << i):
                assignment[name] = False
        return bdd.cube(assignment)

    cubes = isop(bdd, f, f, {name: i for i, name in enumerate(names)})
    rebuilt = bdd.disj_all(cube_bdd(ones, zeros) for ones, zeros in cubes)
    assert rebuilt == f


def test_isop_rejects_inverted_bounds():
    bdd = BDD(["a"])
    with pytest.raises(ValueError):
        isop(bdd, bdd.TRUE, bdd.var("a"), {"a": 0})


def test_symbolic_reachability_matches_explicit():
    for stg in (paper_example(), muller_pipeline(3)):
        explicit = explore(stg.net)
        symbolic = SymbolicNet(stg.net)
        assert symbolic.count_markings() == explicit.num_states
        reached = symbolic.reachable_set()
        variable_place = dict(zip(symbolic.place_vars, symbolic.places))
        symbolic_markings = {
            frozenset(variable_place[var] for var, value in assignment.items() if value)
            for assignment in symbolic.bdd.satisfying_assignments(
                reached, symbolic.place_vars
            )
        }
        assert symbolic_markings == {m.places for m in explicit.markings}
        for marking in explicit.markings:
            assignment = {
                var: marking[place] > 0 for var, place in variable_place.items()
            }
            assert symbolic.bdd.evaluate(reached, assignment)


def test_count_reachable_markings_helper():
    stg = muller_pipeline(2)
    assert count_reachable_markings(stg.net) == explore(stg.net).num_states
