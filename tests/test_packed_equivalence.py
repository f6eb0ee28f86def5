"""The packed engines against independent oracles.

The explicit State Graph and the closed-loop simulator run only on the
packed core (:mod:`repro.core`).  On every built-in benchmark of
``table1_suite()`` plus ``muller_pipeline(2..6)`` they must agree with
reference implementations that share no code with them
(``tests/oracles.py``): the dict-based token game of
:func:`repro.petrinet.explore` with codes replayed along its edges, and the
simulator's search on tuple codes and dict-backed markings, compared record
for record.  The two BFS
kernels (python, numpy) must also synthesise the same gates cube for cube.
"""

import pytest

from repro.boolean import Cover
from repro import kernel
from repro.kernel import HAS_NUMPY
from repro.sim import Simulator, simulate_implementation
from repro.stategraph import SignalRegions, build_state_graph, dc_set_cover
from repro.stategraph.regions import on_set_states
from repro.stg import muller_pipeline, table1_suite
from repro.stg.signals import Direction
from repro.synthesis import synthesize

from oracles import OracleGraph, exploration_record, reference_explore


def _specs():
    specs = [(entry.name, entry.build) for entry in table1_suite()]
    for stages in range(2, 7):
        specs.append(
            ("muller_pipeline_%d" % stages, lambda s=stages: muller_pipeline(s))
        )
    return specs


SPECS = _specs()
SPEC_IDS = [name for name, _build in SPECS]
SMALL = [
    (name, build)
    for name, build in SPECS
    if build().num_signals <= 12
]


@pytest.mark.parametrize("name,build", SPECS, ids=SPEC_IDS)
def test_state_graphs_identical(name, build):
    graph = build_state_graph(build())
    oracle = OracleGraph(build())
    assert graph.num_states == oracle.num_states
    assert [m.places for m in graph.markings] == [m.places for m in oracle.markings]
    assert graph.codes == oracle.codes
    assert graph.edges == oracle.edges
    for state in range(graph.num_states):
        assert graph.excited_plus_mask(state) == oracle.excited_plus[state]
        assert graph.excited_minus_mask(state) == oracle.excited_minus[state]


@pytest.mark.parametrize("name,build", SPECS, ids=SPEC_IDS)
def test_regions_and_covers_identical(name, build):
    stg = build()
    graph = build_state_graph(stg)
    oracle = OracleGraph(build())
    # The DC set is exactly the codes the walk never reaches.
    reachable = Cover(len(stg.signals), oracle.minterm_cubes(range(oracle.num_states)))
    dc = dc_set_cover(graph)
    assert not dc.intersects(reachable)
    assert dc.union(reachable).is_tautology()
    for signal in stg.implementable_signals:
        regions = SignalRegions(graph, signal)
        expected = oracle.regions(signal)
        assert regions.on_states == expected["on"]
        assert regions.off_states == expected["off"]
        assert regions.er_plus == expected["er_plus"]
        assert regions.er_minus == expected["er_minus"]
        assert set(regions.on_cover.cubes) == oracle.minterm_cubes(expected["on"])
        assert set(regions.off_cover.cubes) == oracle.minterm_cubes(expected["off"])
        assert set(regions.set_cover.cubes) == oracle.minterm_cubes(expected["er_plus"])
        assert set(regions.reset_cover.cubes) == oracle.minterm_cubes(
            expected["er_minus"]
        )


@pytest.mark.parametrize("name,build", SPECS, ids=SPEC_IDS)
def test_on_sets_match_reference_definition(name, build):
    """The mask-based on-set must equal the textbook definition computed
    directly from enabled transitions and signal values."""
    stg = build()
    graph = build_state_graph(stg)
    for signal in stg.implementable_signals:
        expected = set()
        for state in range(graph.num_states):
            value = graph.code_of(state)[stg.signal_index(signal)]
            rising = falling = False
            for transition, _target in graph.successors(state):
                label = stg.label_of(transition)
                if label is None or label.signal != signal:
                    continue
                if label.direction is Direction.PLUS:
                    rising = True
                else:
                    falling = True
            implied = (1 if rising else 0) if value == 0 else (0 if falling else 1)
            if implied:
                expected.add(state)
        assert on_set_states(graph, signal) == expected


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize(
    "name,build", SMALL, ids=[name for name, _build in SMALL]
)
def test_literal_counts_identical(name, build, monkeypatch):
    """The python and numpy BFS kernels synthesise the same gates."""
    rl = synthesize(build(), method="sg-explicit")
    monkeypatch.setattr(kernel, "HAS_NUMPY", False)
    rp = synthesize(build(), method="sg-explicit")
    assert rp.literal_count == rl.literal_count
    assert sorted(rp.implementation.gates) == sorted(rl.implementation.gates)
    for signal, gate in rp.implementation.gates.items():
        other = rl.implementation.gates[signal]
        if gate.function is not None:
            assert set(gate.function.cover.cubes) == set(other.function.cover.cubes)
        else:
            assert set(gate.set_function.cover.cubes) == set(
                other.set_function.cover.cubes
            )
            assert set(gate.reset_function.cover.cubes) == set(
                other.reset_function.cover.cubes
            )


def _assert_same_exploration(stg, implementation):
    packed = simulate_implementation(stg, implementation)
    reference = reference_explore(Simulator(stg, implementation))
    assert exploration_record(packed) == exploration_record(reference)


@pytest.mark.parametrize(
    "name,build", SMALL, ids=[name for name, _build in SMALL]
)
def test_simulator_verdicts_identical(name, build):
    stg = build()
    implementation = synthesize(stg, method="unfolding-approx").implementation
    if implementation.has_csc_conflict:
        pytest.skip("CSC conflict: nothing to simulate")
    _assert_same_exploration(stg, implementation)


def test_simulator_verdicts_identical_on_large_entries():
    """One wide benchmark exercises the packed simulator beyond SMALL."""
    entry = next(e for e in table1_suite() if e.name == "mp-forward-pkt")
    stg = entry.build()
    implementation = synthesize(stg, method="unfolding-approx").implementation
    _assert_same_exploration(stg, implementation)
