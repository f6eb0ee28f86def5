"""The BDD kernel against its helper-based oracle, node for node.

:class:`repro.bdd.BDD` reads each operand's ``(level, low, high)`` tuple
once per recursive step, with the terminals stored at level ``n``.
:class:`oracles.ReferenceBDD` runs the same recursions through the
``_level_of`` / ``_cofactors`` helpers.  Both must build the same node
store: the same ids in the same creation order and the same unique
table.

(a) seeded random operation sequences over 5-8 variables, compared after
    every operation;
(b) the symbolic state space and ``sg-bdd`` synthesis of every Table 1
    spec, the Figure 6 workload's specs and parsed ``muller_pipeline(16)``,
    run once as shipped and once with the oracle swapped in.
"""

import random

import pytest

from repro import parse_g, write_g
from repro.bdd import BDD, isop
from repro.bdd import reachability
from repro.spaces import build_state_space, symbolic
from repro.stg import counterflow_pipeline, muller_pipeline, table1_suite
from repro.synthesis import synthesize

from oracles import ReferenceBDD, reference_isop

SEQUENCES = 200
CHUNKS = 10
OPERATIONS = 60


# --------------------------------------------------------------------- #
# (a) Random operation sequences
# --------------------------------------------------------------------- #
class _Pair:
    """The kernel and the oracle driven in lockstep."""

    def __init__(self, names):
        self.fast = BDD(names)
        self.ref = ReferenceBDD(names)

    def check_stores(self):
        assert self.fast._nodes == self.ref._nodes
        assert self.fast._unique == self.ref._unique

    def step(self, operation, *args):
        got = getattr(self.fast, operation)(*args)
        want = getattr(self.ref, operation)(*args)
        assert got == want, operation
        self.check_stores()
        return got


def _subset(rng, names):
    return [name for name in names if rng.random() < 0.4]


def _order_preserving_rename(rng, bdd, f, names):
    """Move some support variables one level down, onto free levels."""
    support = {bdd._level[name] for name in bdd.support(f)}
    movable = [
        level for level in sorted(support)
        if level + 1 < len(names) and level + 1 not in support
    ]
    return {names[level]: names[level + 1] for level in movable if rng.random() < 0.6}


def _random_sop(rng, pair, literals):
    """A disjunction of 2-4 random cubes of 2-3 literals each."""
    sop = BDD.FALSE
    for _ in range(rng.randint(2, 4)):
        cube = BDD.TRUE
        for literal in rng.sample(literals, rng.randint(2, 3)):
            cube = pair.step("conj", cube, literal)
        sop = pair.step("disj", sop, cube)
    return sop


def _run_sequence(seed):
    rng = random.Random(seed)
    names = ["v%d" % i for i in range(rng.randint(5, 8))]
    pair = _Pair(names)
    pool = [pair.step("var", name) for name in names]
    pool += [pair.step("negate", node) for node in pool]
    pool += [_random_sop(rng, pair, pool) for _ in range(4)]
    bit_of = {name: bit for bit, name in enumerate(names)}

    def keep(node):
        # Constants are checked like any result but not reused as operands,
        # so the sequence keeps building non-trivial functions.
        if node > BDD.TRUE:
            pool.append(node)

    for _ in range(OPERATIONS):
        pick = rng.choice
        kind = rng.randrange(14)
        if kind == 0:
            keep(pair.step("ite", pick(pool), pick(pool), pick(pool)))
        elif kind in (1, 2):
            keep(pair.step("conj", pick(pool), pick(pool)))
        elif kind == 3:
            keep(pair.step("disj", pick(pool), pick(pool)))
        elif kind == 4:
            keep(pair.step("xor", pick(pool), pick(pool)))
        elif kind == 5:
            keep(pair.step("negate", pick(pool)))
        elif kind in (6, 7):
            keep(pair.step("and_exists", pick(pool), pick(pool), _subset(rng, names)))
        elif kind == 8:
            keep(pair.step("exists", pick(pool), _subset(rng, names)))
        elif kind == 9:
            keep(pair.step("forall", pick(pool), _subset(rng, names)))
        elif kind == 10:
            keep(pair.step("restrict", pick(pool), pick(names), rng.random() < 0.5))
        elif kind == 11:
            f = pick(pool)
            mapping = _order_preserving_rename(rng, pair.fast, f, names)
            keep(pair.step("rename", f, mapping))
        elif kind == 12:
            lower = pick(pool)
            upper = pair.step("disj", lower, pick(pool))
            cubes = isop(pair.fast, lower, upper, bit_of)
            assert cubes == reference_isop(pair.ref, lower, upper, bit_of)
            pair.check_stores()
        else:
            f = pick(pool)
            assert pair.fast.count_solutions(f) == pair.ref.count_solutions(f)
            assert list(pair.fast.satisfying_assignments(f)) == list(
                pair.ref.satisfying_assignments(f)
            )
            pair.check_stores()


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_random_sequences_build_the_reference_store(chunk):
    per_chunk = SEQUENCES // CHUNKS
    for seed in range(chunk * per_chunk, (chunk + 1) * per_chunk):
        _run_sequence(seed)


def test_terminals_sit_below_every_variable():
    bdd = BDD(["a", "b", "c"])
    assert bdd._nodes == [(3, 0, 0), (3, 1, 1)]


# --------------------------------------------------------------------- #
# (b) Whole symbolic flows, shipped kernel against the oracle
# --------------------------------------------------------------------- #
def _flow_specs():
    specs = [(entry.name, entry.build) for entry in table1_suite()]
    specs += [
        ("muller_pipeline_%d" % n, lambda n=n: muller_pipeline(n)) for n in (8, 9, 10)
    ]
    specs.append(("counterflow_pipeline_4", lambda: counterflow_pipeline(4)))
    specs.append(("muller_pipeline_16", lambda: muller_pipeline(16)))
    return specs


def _symbolic_flow(text):
    space = build_state_space(parse_g(text), engine="bdd")
    implementation = synthesize(parse_g(text), method="sg-bdd").implementation
    gates = {
        gate.signal: [
            list(function.cover.cubes)
            for function in (gate.function, gate.set_function, gate.reset_function)
            if function is not None
        ]
        for gate in implementation
    }
    return space.peak_bdd_nodes, space.iterations, gates


@pytest.mark.parametrize("name, build", _flow_specs(), ids=[n for n, _ in _flow_specs()])
def test_symbolic_flow_matches_the_reference_kernel(name, build, monkeypatch):
    text = write_g(build())
    shipped = _symbolic_flow(text)
    monkeypatch.setattr(reachability, "BDD", ReferenceBDD)
    monkeypatch.setattr(symbolic, "isop", reference_isop)
    reference = _symbolic_flow(text)
    assert shipped[:2] == reference[:2]
    assert shipped[2] == reference[2]
    if name == "muller_pipeline_16":
        assert shipped[0] == 1_865
