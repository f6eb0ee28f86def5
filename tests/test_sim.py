"""Tests for the event-driven simulator and conformance verifier (repro.sim).

Positive direction: every CSC-conflict-free built-in benchmark synthesises
to an implementation the simulator verifies as hazard-free, conformant and
deadlock-free -- for all three architectures.  Negative direction: seeded
defects (a spurious product term, a widened set function, a constant-one
gate) are detected as hazards, drive conflicts and conformance violations
respectively.
"""

import copy
import functools
import gc
import random
import weakref

import pytest

from repro.boolean import BooleanFunction, Cover, Cube
from repro.cli import main
from repro.core import bits_of_mask
from repro.obs import tracing
from repro.petrinet import explore
from repro.sim import (
    ARCHITECTURES,
    CircuitModel,
    RandomWalker,
    SpecEnvironment,
    Simulator,
    random_walk_trace,
    simulate_implementation,
    simulate_spec,
)
from repro.sim.simulator import fireable_events
from repro.stg import (
    SignalType,
    benchmark_by_name,
    csc_conflict_example,
    example_suite,
    figure4_example,
    muller_pipeline,
    paper_example,
    parse_g,
    table1_suite,
    write_g,
)
from repro.synthesis import METHODS, synthesize
from repro.synthesis.netlist import Gate, Implementation

from oracles import exploration_record, reference_explore, reference_walk, walk_record

# Three-architecture sweeps stay on the smaller controllers so the suite is
# quick; the memory-element flows use exact synthesis, which dominates the
# runtime on the bigger stand-ins (the simulator itself stays fast there --
# see test_simulate_larger_benchmarks_acg).
SWEEP_ENTRIES = [
    entry
    for entry in table1_suite() + example_suite()
    if entry.expected_signals <= 9 and entry.csc_clean
]
LARGER_ACG = ["nak-pa", "ram-read-sbuf", "sbuf-ram-write", "par_4.csc"]


def _acg_implementation(stg):
    return synthesize(stg, method="sg-explicit", architecture="acg").implementation


# ---------------------------------------------------------------------- #
# Positive: hazard-freedom and conformance of synthesised circuits
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("entry", SWEEP_ENTRIES, ids=lambda e: e.name)
def test_benchmarks_verify_for_all_architectures(entry):
    stg = entry.build()
    reports = simulate_spec(stg, max_states=50000)
    assert [report.architecture for report in reports] == list(ARCHITECTURES)
    for report in reports:
        assert report.ok, "%s/%s: %s" % (
            entry.name,
            report.architecture,
            "; ".join(report.describe()),
        )
        assert report.verdict() == "ok"
        assert report.exploration.num_states > 0


@pytest.mark.parametrize("name", LARGER_ACG)
def test_simulate_larger_benchmarks_acg(name):
    stg = benchmark_by_name(name).build()
    implementation = synthesize(stg, method="unfolding-approx").implementation
    result = simulate_implementation(stg, implementation)
    assert result.ok
    assert result.hazard_free and result.conformant
    assert not result.truncated


def test_exploration_counts_states_and_events():
    stg = paper_example()
    result = simulate_implementation(stg, _acg_implementation(stg))
    # The closed loop visits exactly the 8 states of the specification's
    # state graph when the circuit is correct.
    assert result.num_states == 8
    assert result.num_events_fired >= result.num_states
    assert result.elapsed >= 0


def test_state_budget_truncates():
    stg = benchmark_by_name("nowick").build()
    result = simulate_implementation(stg, _acg_implementation(stg), max_states=5)
    assert result.truncated
    assert result.verdict() == "ok(truncated)"


# ---------------------------------------------------------------------- #
# Negative: seeded defects are detected
# ---------------------------------------------------------------------- #
def test_seeded_hazard_is_detected():
    """A spurious product term makes an excitation non-persistent."""
    stg = figure4_example()
    implementation = _acg_implementation(stg)
    gate = implementation.gates["c"]
    spurious = Cube.from_string("0" * stg.num_signals)  # minterm of a stable state
    gate.function = BooleanFunction(
        gate.function.names,
        Cover(stg.num_signals, list(gate.function.cover) + [spurious]),
    )
    result = simulate_implementation(stg, implementation)
    assert not result.hazard_free
    assert result.verdict() == "hazard"
    hazard = result.hazards[0]
    assert hazard.kind == "non-persistent"
    assert hazard.signal == "c"
    assert hazard.disabled_by is not None
    assert "non-persistent" in hazard.describe()


def test_drive_conflict_is_detected():
    """A widened set function overlaps the reset function: drive conflict."""
    stg = paper_example()
    implementation = synthesize(
        stg, method="sg-explicit", architecture="c-element"
    ).implementation
    gate = implementation.gates["b"]
    gate.set_function = BooleanFunction(
        gate.set_function.names, Cover.universe(stg.num_signals)
    )
    result = simulate_implementation(stg, implementation)
    assert any(h.kind == "drive-conflict" for h in result.hazards)
    assert result.verdict() == "hazard"


def test_conformance_violation_is_detected():
    """A constant-one gate fires an output the specification forbids."""
    stg = paper_example()
    implementation = _acg_implementation(stg)
    gate = implementation.gates["b"]
    gate.function = BooleanFunction(gate.function.names, Cover.universe(stg.num_signals))
    result = simulate_implementation(stg, implementation)
    assert not result.conformant
    assert result.violations[0].signal == "b"
    assert result.violations[0].change_label == "b+"
    assert "allows no" in result.violations[0].describe()


def test_random_walk_detects_seeded_violation():
    stg = paper_example()
    implementation = _acg_implementation(stg)
    implementation.gates["b"].function = BooleanFunction(
        ["a", "b", "c"], Cover.universe(3)
    )
    trace = random_walk_trace(stg, implementation, steps=200, seed=3)
    assert not trace.ok
    assert trace.violations


def test_csc_conflicts_are_reported_not_simulated():
    stg = csc_conflict_example()
    reports = simulate_spec(stg)
    assert all(report.skipped for report in reports)
    assert all(report.verdict() == "csc-conflict" for report in reports)
    assert not any(report.ok for report in reports)

    implementation = synthesize(stg, method="sg-explicit").implementation
    assert implementation.has_csc_conflict
    with pytest.raises(ValueError):
        CircuitModel(stg, implementation)


# ---------------------------------------------------------------------- #
# Random walks
# ---------------------------------------------------------------------- #
def test_random_walk_is_deterministic():
    stg = benchmark_by_name("nowick").build()
    implementation = _acg_implementation(stg)
    first = random_walk_trace(stg, implementation, steps=500, seed=42)
    second = random_walk_trace(stg, implementation, steps=500, seed=42)
    assert first.ok
    assert first.num_steps == 500
    assert first.labels() == second.labels()
    different = random_walk_trace(stg, implementation, steps=500, seed=43)
    assert first.labels() != different.labels()


def test_random_walk_on_large_pipeline():
    """Smoke-simulate a pipeline whose closed loop is too big to enumerate."""
    stg = muller_pipeline(8)
    implementation = synthesize(stg, method="unfolding-approx").implementation
    trace = random_walk_trace(stg, implementation, steps=5000, seed=1)
    assert trace.ok
    assert trace.num_steps == 5000
    # every implementable signal actually toggled during the walk
    fired = {step.signal for step in trace.steps}
    assert set(stg.implementable_signals) <= fired


def test_walker_reuse_and_trace_metadata():
    stg = paper_example()
    walker = RandomWalker(stg, _acg_implementation(stg), seed=9)
    trace = walker.run(steps=50)
    assert trace.stg_name == "paper_example"
    assert trace.architecture == "acg"
    assert trace.seed == 9
    assert len(trace.labels()) == trace.num_steps


# ---------------------------------------------------------------------- #
# A spec that stops: terminal states are not deadlocks
# ---------------------------------------------------------------------- #
# Input a rises, output b follows, and then the spec can no longer move.
TERMINATING_G = """.inputs a
.outputs b
.graph
p0 a+
a+ p1
p1 b+
b+ p2
.marking { p0 }
.end
"""


def _same_exploration(stg, implementation, **limits):
    """The packed explore equals ``reference_explore`` record for record."""
    packed = simulate_implementation(stg, implementation, **limits)
    reference = reference_explore(Simulator(stg, implementation), **limits)
    assert exploration_record(packed) == exploration_record(reference)
    return packed


@pytest.mark.parametrize("method", METHODS)
def test_circuit_that_stops_with_its_spec_conforms(method):
    stg = parse_g(TERMINATING_G)
    implementation = synthesize(stg, method=method).implementation
    result = _same_exploration(stg, implementation)
    assert result.verdict() == "ok"
    assert not result.deadlocks
    trace = random_walk_trace(stg, implementation, steps=20)
    assert trace.num_steps == 2
    assert trace.ok and not trace.deadlocked


def test_terminating_spec_simulates_ok_on_every_architecture():
    reports = simulate_spec(parse_g(TERMINATING_G), walk_steps=20)
    assert [report.architecture for report in reports] == list(ARCHITECTURES)
    assert [report.verdict() for report in reports] == ["ok"] * len(ARCHITECTURES)


def test_stuck_gate_before_the_spec_stops_still_deadlocks():
    stg = parse_g(TERMINATING_G)
    implementation = synthesize(stg, method="sg-explicit").implementation
    gate = implementation.gates["b"]
    gate.function = BooleanFunction(gate.function.names, Cover.empty(stg.num_signals))
    result = _same_exploration(stg, implementation)
    assert result.verdict() == "deadlock"
    assert [d.describe() for d in result.deadlocks] == ["deadlock in state 10"]
    trace = random_walk_trace(stg, implementation, steps=20)
    assert trace.deadlocked and trace.num_steps == 1


# ---------------------------------------------------------------------- #
# Environment / circuit model units
# ---------------------------------------------------------------------- #
def test_environment_tracks_the_token_game():
    stg = paper_example()
    env = SpecEnvironment(stg)
    tracked = env.initial_states_packed()
    assert tracked
    changes = env.enabled_changes_packed(tracked)
    assert ("a", 1) in changes or ("c", 1) in changes
    # the input changes offered are the enabled changes of input signals
    inputs = [change[:2] for change in env.input_changes_packed(tracked)]
    assert inputs == sorted(c for c in changes if c[0] in stg.input_signals)
    # advancing through an allowed change keeps the game alive
    signal, target = sorted(changes)[0]
    advanced = env.advance_packed(tracked, signal, target)
    assert advanced
    # an impossible change empties the tracked set
    assert env.advance_packed(tracked, "b", 0) == frozenset()


def test_circuit_model_excitation_matches_implied_values():
    stg = paper_example()
    circuit = CircuitModel(stg, _acg_implementation(stg))
    word = circuit.initial_packed_code()
    assert circuit.excitation(word) == (0, 0)  # all gates stable initially
    a_bit = 1 << stg.signal_index("a")
    b_bit = 1 << stg.signal_index("b")
    raised = word ^ a_bit
    assert circuit.excitation(raised) == (b_bit, 0)
    # a's fanout: b's gate reads a, and a is an input (no gate of its own)
    assert circuit.update(raised, a_bit, 0, 0) == (b_bit, 0, 1)


def test_fanout_holds_every_reader_and_the_own_gate():
    stg = muller_pipeline(3)
    for architecture in ARCHITECTURES:
        implementation = synthesize(
            stg, method="sg-explicit", architecture=architecture
        ).implementation
        circuit = CircuitModel(stg, implementation)
        for index, signal in enumerate(stg.signals):
            expected = 0
            for other, gate in implementation.gates.items():
                reads = other == signal
                for function in (gate.function, gate.set_function, gate.reset_function):
                    if function is None or signal not in function.names:
                        continue
                    bit = 1 << function.names.index(signal)
                    reads |= any(
                        (cube.ones | cube.zeros) & bit for cube in function.cover
                    )
                if reads:
                    expected |= 1 << stg.signal_index(other)
            mask, readers = circuit.fanout[1 << index]
            assert mask == expected, (architecture, signal)
            assert sorted(bit for bit, _up, _down in readers) == [
                1 << i for i in bits_of_mask(expected)
            ]


def test_simulator_event_ordering_is_deterministic():
    stg = paper_example()
    simulator = Simulator(stg, _acg_implementation(stg))
    circuit, environment = simulator.circuit, simulator.environment
    word = circuit.initial_packed_code()
    tracked = environment.initial_states_packed()
    excited, _conflicts = circuit.excitation(word)
    events = fireable_events(circuit, environment, word, tracked, excited)
    assert events == fireable_events(circuit, environment, word, tracked, excited)
    assert events and all(not is_gate for _signal, _target, _bit, is_gate in events)


# ---------------------------------------------------------------------- #
# Counters that explain the simulator's cost
# ---------------------------------------------------------------------- #
# Gate evaluations count each code's evaluation once: every gate for the
# initial code, then one fanout per other code entered.
@pytest.mark.parametrize(
    "build,counts",
    [(paper_example, (8, 10, 8)), (lambda: muller_pipeline(3), (32, 56, 52))],
    ids=["paper_example", "muller_pipeline_3"],
)
def test_exploration_counts_events_and_gate_evaluations(build, counts):
    stg = build()
    with tracing("sim") as tracer:
        result = simulate_implementation(stg, _acg_implementation(stg))
    assert (result.num_states, result.num_events_fired, result.gate_evaluations) == counts
    span = tracer.root.find("conformance")
    assert (
        span.counters["sim_states"],
        span.counters["events_fired"],
        span.counters["gate_evaluations"],
    ) == counts


def test_conformance_span_counts_the_markings_it_tabulates():
    """The spec's first simulation tabulates its 32 markings; the second
    finds them all in the shared table."""
    stg = muller_pipeline(3)
    implementation = _acg_implementation(stg)
    tabulated = []
    for _ in range(2):
        with tracing("sim") as tracer:
            simulate_implementation(stg, implementation)
        tabulated.append(tracer.root.find("conformance").counters["markings_tabulated"])
    assert tabulated == [32, 0]


# ---------------------------------------------------------------------- #
# Differential: corrupted gates against the tuple/dict reference
# ---------------------------------------------------------------------- #
CORRUPTIONS = ("drop-literal", "drop-cube", "add-minterm", "universe")
SWEEP_BY_NAME = {entry.name: entry for entry in SWEEP_ENTRIES}


@functools.lru_cache(maxsize=None)
def _synthesised(name, architecture):
    stg = SWEEP_BY_NAME[name].build()
    implementation = synthesize(
        stg, method="sg-explicit", architecture=architecture
    ).implementation
    return stg, implementation


def _corrupt(implementation, rng, kind):
    """A copy of ``implementation`` with one gate function corrupted, or
    None when the drawn function has nothing to drop."""
    signal = rng.choice(sorted(implementation.gates))
    gate = implementation.gates[signal]
    if gate.function is not None:
        attr = "function"
    else:
        attr = rng.choice(("set_function", "reset_function"))
    function = getattr(gate, attr)
    nvars = len(function.names)
    cubes = list(function.cover)
    if kind == "drop-literal":
        candidates = [i for i, cube in enumerate(cubes) if cube.ones | cube.zeros]
        if not candidates:
            return None
        i = rng.choice(candidates)
        bit = 1 << rng.choice(bits_of_mask(cubes[i].ones | cubes[i].zeros))
        cubes[i] = Cube(nvars, cubes[i].ones & ~bit, cubes[i].zeros & ~bit)
    elif kind == "drop-cube":
        if not cubes:
            return None
        del cubes[rng.randrange(len(cubes))]
    elif kind == "add-minterm":
        cubes.append(Cube.from_minterm(nvars, rng.getrandbits(nvars)))
    else:
        cubes = list(Cover.universe(nvars))
    corrupted = copy.copy(gate)
    setattr(corrupted, attr, BooleanFunction(function.names, Cover(nvars, cubes)))
    mutant = copy.copy(implementation)
    mutant.gates = dict(implementation.gates)
    mutant.gates[signal] = corrupted
    return mutant


def _mutants(name, architecture, per_kind=2):
    stg, implementation = _synthesised(name, architecture)
    rng = random.Random("%s/%s" % (name, architecture))
    for kind in CORRUPTIONS:
        for _ in range(per_kind):
            mutant = _corrupt(implementation, rng, kind)
            if mutant is not None:
                yield stg, mutant


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("entry", SWEEP_ENTRIES, ids=lambda e: e.name)
def test_corrupted_gates_explore_like_the_reference(entry, architecture):
    verdicts = set()
    for stg, mutant in _mutants(entry.name, architecture):
        verdicts.add(_same_exploration(stg, mutant, max_states=2000).verdict())
        _same_exploration(stg, mutant, max_states=12, max_reports=3)
    assert verdicts - {"ok", "ok(truncated)"}, "no corruption was detected"


# Input a forks z+ and y+, which join at a-; input b toggles on its own.
# The outputs are declared z before y, so gate order is not name order.
FORK_G = """.inputs a b
.outputs z y
.graph
a+ z+ y+
z+ a-
y+ a-
a- z- y-
z- a+
y- a+
b+ b-
b- b+
.marking { <z-,a+> <y-,a+> <b-,b+> }
.end
"""


def test_hazards_of_one_event_follow_gate_order():
    """b+ disables both z = a b' and y = a b' at once: the explorer and the
    walker both report them in gate order, not in signal-name order."""
    stg = parse_g(FORK_G)
    implementation = Implementation(stg.name, "acg", stg.signals)
    row = "".join({"a": "1", "b": "0"}.get(signal, "-") for signal in stg.signals)
    for signal in ("z", "y"):
        implementation.add_gate(
            Gate(signal, "acg", BooleanFunction(stg.signals, Cover.from_strings([row])))
        )
    result = _same_exploration(stg, implementation)
    assert [(h.signal, h.code, h.disabled_by) for h in result.hazards[:2]] == [
        ("z", (1, 0, 0, 0), "b+"),
        ("y", (1, 0, 0, 0), "b+"),
    ]
    trace = random_walk_trace(stg, implementation, steps=40, seed=5)
    assert walk_record(trace) == walk_record(
        reference_walk(stg, implementation, steps=40, seed=5)
    )
    assert [(h.signal, h.disabled_by) for h in trace.hazards] == [
        ("z", "b+"),
        ("y", "b+"),
    ]


# After a+, dummies d1 / d2 choose one of two c+ instances: the tracked
# set holds three markings, and both c+ instances offer the same change.
DUMMY_CHOICE_G = """.inputs a c
.outputs b
.dummy d1 d2
.graph
a+ p1
p1 d1 d2
d1 p2
d2 p3
p2 c+/1
p3 c+/2
c+/1 p4
c+/2 p4
p4 b+
b+ a-
a- c-
c- b-
b- a+
.marking { <b-,a+> }
.end
"""


def test_environment_tracks_the_dummy_closure():
    stg = parse_g(DUMMY_CHOICE_G)
    env = SpecEnvironment(stg)
    initial = env.initial_states_packed()
    assert len(initial) == 1
    tracked = env.advance_packed(initial, "a", 1)
    assert len(tracked) == 3
    c_bit = 1 << stg.signal_index("c")
    assert env.input_changes_packed(tracked) == (("c", 1, c_bit, 0),)
    assert len(env.advance_packed(tracked, "c", 1)) == 1


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_dummy_specs_explore_and_walk_like_the_reference(architecture):
    stg = parse_g(DUMMY_CHOICE_G)
    implementation = synthesize(
        stg, method="sg-explicit", architecture=architecture
    ).implementation
    assert _same_exploration(stg, implementation).verdict() == "ok"
    rng = random.Random("dummy/%s" % architecture)
    mutants = [implementation]
    for kind in CORRUPTIONS:
        mutant = _corrupt(implementation, rng, kind)
        if mutant is not None:
            mutants.append(mutant)
    for mutant in mutants:
        _same_exploration(stg, mutant)
        _same_exploration(stg, mutant, max_states=4, max_reports=1)
        for seed in (0, 1):
            assert walk_record(random_walk_trace(stg, mutant, steps=60, seed=seed)) == (
                walk_record(reference_walk(stg, mutant, steps=60, seed=seed))
            )


WALK_CASES = [
    ("nowick", "acg"),
    ("paper_example", "c-element"),
    ("choice_controller", "rs-latch"),
    ("sbuf-send-pkt2", "acg"),
]


@pytest.mark.parametrize("seed", [0, 3, 42])
@pytest.mark.parametrize("name,architecture", WALK_CASES)
def test_walks_match_the_reference_walk(name, architecture, seed):
    stg, implementation = _synthesised(name, architecture)
    trace = random_walk_trace(stg, implementation, steps=300, seed=seed)
    reference = reference_walk(stg, implementation, steps=300, seed=seed)
    assert trace.ok and trace.num_steps == 300
    assert walk_record(trace) == walk_record(reference)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name,architecture", WALK_CASES)
def test_corrupted_walks_match_the_reference_walk(name, architecture, seed):
    anomalies = 0
    for stg, mutant in _mutants(name, architecture, per_kind=1):
        trace = random_walk_trace(stg, mutant, steps=120, seed=seed)
        assert walk_record(trace) == walk_record(
            reference_walk(stg, mutant, steps=120, seed=seed)
        )
        anomalies += not trace.ok
        walker = RandomWalker(stg, mutant, seed=seed)
        stopped = walker.run(steps=120, stop_on_anomaly=True)
        assert walk_record(stopped) == walk_record(
            reference_walk(stg, mutant, steps=120, seed=seed, stop_on_anomaly=True)
        )
    assert anomalies


# ---------------------------------------------------------------------- #
# One environment per spec: shared tables, rebuilt when the spec changes
# ---------------------------------------------------------------------- #
def _pipeline_spec():
    return parse_g(write_g(muller_pipeline(2)))


def test_two_simulations_of_one_spec_tabulate_each_marking_once(monkeypatch):
    stg = parse_g(write_g(muller_pipeline(3)))
    circuits = [
        _acg_implementation(stg),
        synthesize(stg, method="unfolding-approx").implementation,
    ]
    tabulated = []
    expand = SpecEnvironment._expand_packed

    def counting(environment, word):
        if word not in environment._moves:
            tabulated.append(word)
        expand(environment, word)

    monkeypatch.setattr(SpecEnvironment, "_expand_packed", counting)
    for implementation in circuits:
        _same_exploration(stg, implementation)
    environment = SpecEnvironment.of(stg)
    assert Simulator(stg, circuits[0]).environment is environment
    assert len(tabulated) == len(set(tabulated)) == explore(stg.net).num_states
    # Moves that reach the same markings share one stored successor set.
    stored = [s for moves in environment._moves.values() for s in moves.values()]
    assert len(set(map(id, stored))) == len(set(stored)) < len(stored)


def _add_input_signal(stg):
    stg.add_signal("x", SignalType.INPUT, initial=0)


def _output_becomes_input(stg):
    stg.set_signal_type("c2", SignalType.INPUT)


def _mark_after_lreq_rises(stg):
    """Start one step later, after lreq+."""
    marking = stg.net.fire(stg.initial_marking, "lreq+")
    stg.set_marking(marking.places)
    stg.set_initial_value("lreq", 1)


def _add_rack_self_loop(stg):
    """A second rack+ that leaves its place marked: the environment may
    raise rack before c2 rises."""
    (place,) = stg.net.preset("c2+").keys() & stg.net.postset("rack-").keys()
    transition = stg.add_transition("rack+/1")
    stg.add_arc(place, transition)
    stg.add_arc(transition, place)


@pytest.mark.parametrize(
    "change",
    [_output_becomes_input, _add_input_signal, _mark_after_lreq_rises, _add_rack_self_loop],
    ids=["set_signal_type", "add_signal", "set_marking", "new_transition"],
)
def test_a_changed_spec_gets_a_fresh_table(change):
    stg = _pipeline_spec()
    implementation = _acg_implementation(stg)
    _same_exploration(stg, implementation)
    stale = SpecEnvironment.of(stg)
    assert stale.num_tabulated
    change(stg)
    fresh = SpecEnvironment.of(stg)
    assert fresh is not stale and fresh.num_tabulated == 0
    after = _same_exploration(stg, implementation)
    assert SpecEnvironment.of(stg) is fresh and fresh.num_tabulated
    if change is not _add_input_signal:
        # The change shows: the stale table plays another game.
        replay = Simulator(stg, implementation)
        replay.environment = stale
        assert exploration_record(replay.explore()) != exploration_record(after)


@pytest.mark.parametrize("name,architecture", WALK_CASES)
def test_shared_tables_give_the_records_of_fresh_ones(name, architecture):
    """Corrupted circuit first and correct one second, then the reverse, on
    one spec object: each exploration, and a walk after them, equals its run
    on a copy of the spec with a table of its own."""
    stg, implementation = _synthesised(name, architecture)

    def fresh_exploration(circuit):
        return exploration_record(
            simulate_implementation(stg.copy(), circuit, max_states=2000)
        )

    for _stg, mutant in _mutants(name, architecture, per_kind=1):
        for order in ((mutant, implementation), (implementation, mutant)):
            spec = stg.copy()
            for circuit in order:
                explored = simulate_implementation(spec, circuit, max_states=2000)
                assert exploration_record(explored) == fresh_exploration(circuit)
            walk = random_walk_trace(spec, order[0], steps=120, seed=1)
            assert walk_record(walk) == walk_record(
                random_walk_trace(stg.copy(), order[0], steps=120, seed=1)
            )


def test_a_simulated_spec_is_not_kept_alive():
    stg = _pipeline_spec()
    implementation = _acg_implementation(stg)
    simulate_implementation(stg, implementation)
    random_walk_trace(stg, implementation, steps=20)
    spec = weakref.ref(stg)
    del stg
    gc.collect()
    assert spec() is None


# ---------------------------------------------------------------------- #
# CLI integration
# ---------------------------------------------------------------------- #
def test_cli_simulate_benchmark(capsys):
    assert main(["simulate", "nowick"]) == 0
    out = capsys.readouterr().out
    assert "verdict" in out
    for architecture in ARCHITECTURES:
        assert architecture in out
    assert "ok" in out


def test_cli_simulate_with_walk(capsys):
    assert main(["simulate", "paper_example", "--walk-steps", "100", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "walk_steps" in out


def test_cli_simulate_single_architecture(capsys):
    assert main(["simulate", "sendr-done", "--architectures", "acg"]) == 0
    out = capsys.readouterr().out
    assert "c-element" not in out


def test_cli_export_roundtrip(tmp_path, capsys):
    path = tmp_path / "out.g"
    assert main(["export", "nowick", "-o", str(path)]) == 0
    text = path.read_text()
    assert ".model nowick" in text
    back = parse_g(text)
    original = benchmark_by_name("nowick").build()
    assert back.signal_types == original.signal_types

    assert main(["export", "nowick"]) == 0
    assert ".model nowick" in capsys.readouterr().out


def test_cli_export_then_simulate_g_file(tmp_path):
    """export -> simulate closes the loop on a file-based spec."""
    path = tmp_path / "spec.g"
    assert main(["export", "sendr-done", "-o", str(path)]) == 0
    assert main(["simulate", str(path), "--architectures", "acg"]) == 0


def test_cli_table1_conformance_column(capsys):
    assert (
        main(["table1", "--benchmarks", "sendr-done", "--methods", "unfolding-approx"])
        == 0
    )
    out = capsys.readouterr().out
    assert "Conf" in out
    assert "ok" in out

    assert (
        main(
            [
                "table1",
                "--benchmarks",
                "sendr-done",
                "--methods",
                "unfolding-approx",
                "--no-conformance",
            ]
        )
        == 0
    )
    assert "Conf" not in capsys.readouterr().out
