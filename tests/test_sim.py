"""Tests for the event-driven simulator and conformance verifier (repro.sim).

Positive direction: every CSC-conflict-free built-in benchmark synthesises
to an implementation the simulator verifies as hazard-free, conformant and
deadlock-free -- for all three architectures.  Negative direction: seeded
defects (a spurious product term, a widened set function, a constant-one
gate) are detected as hazards, drive conflicts and conformance violations
respectively.
"""

import pytest

from repro.boolean import BooleanFunction, Cover, Cube
from repro.cli import main
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
from repro.stg import (
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

from oracles import reference_explore

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


def _same_exploration(stg, implementation):
    packed = simulate_implementation(stg, implementation)
    reference = reference_explore(Simulator(stg, implementation))
    assert packed.verdict() == reference.verdict()
    assert packed.num_states == reference.num_states
    assert [d.code for d in packed.deadlocks] == [d.code for d in reference.deadlocks]
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
    tracked = env.initial_states()
    assert tracked
    changes = env.enabled_changes(tracked)
    assert ("a", 1) in changes or ("c", 1) in changes
    # advancing through an allowed change keeps the game alive
    signal, target = sorted(changes)[0]
    advanced = env.advance(tracked, signal, target)
    assert advanced
    # an impossible change empties the tracked set
    assert env.advance(tracked, "b", 0) == frozenset()


def test_circuit_model_excitation_matches_implied_values():
    stg = paper_example()
    circuit = CircuitModel(stg, _acg_implementation(stg))
    code = circuit.initial_code()
    assert circuit.excitation(code) == {}  # all gates stable initially
    raised = circuit.fire(code, "a", 1)
    assert circuit.excitation(raised) == {"b": 1}


def test_simulator_event_ordering_is_deterministic():
    stg = paper_example()
    simulator = Simulator(stg, _acg_implementation(stg))
    code = simulator.circuit.initial_code()
    tracked = simulator.environment.initial_states()
    events = simulator.enabled_events(code, tracked)
    assert events == simulator.enabled_events(code, tracked)
    assert all(e.kind == "input" for e in events)


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
