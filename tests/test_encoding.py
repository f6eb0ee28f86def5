"""Tests for repro.encoding: conflict cores, insertion regions, resolution.

Covers the whole encoding pipeline on the non-CSC generators (the VME-bus
read-cycle controller and the round-robin arbiter family): core grouping
over packed code words, phase-labelled insertion regions, the greedy
insert-and-validate loop, the projection-conformance check, and the
end-to-end detect -> insert -> synthesise -> simulate flow the subsystem
exists for.
"""

import pytest

from repro.core import popcount
from repro.encoding import (
    apply_insertion,
    candidate_regions,
    conflict_cores,
    estimate_cost,
    fresh_signal_name,
    legal_splice_points,
    num_conflict_pairs,
    projection_conforms,
    resolve_csc,
    separation_gain,
)
from repro.sim import simulate_implementation
from repro.stategraph import build_state_graph, check_csc, check_output_persistency
from repro.stg import (
    SignalType,
    csc_arbiter,
    csc_conflict_example,
    paper_example,
    parse_g,
    vme_bus_controller,
    write_g,
)
from repro.synthesis import synthesize

NON_CSC_BUILDERS = [
    csc_conflict_example,
    vme_bus_controller,
    lambda: csc_arbiter(2),
    lambda: csc_arbiter(3),
    lambda: csc_arbiter(4),
]


# ---------------------------------------------------------------------- #
# Conflict cores
# ---------------------------------------------------------------------- #
def test_conflict_cores_match_check_csc_pairs():
    for build in NON_CSC_BUILDERS:
        graph = build_state_graph(build())
        cores = conflict_cores(graph)
        assert num_conflict_pairs(cores) == check_csc(graph).num_conflicts


def test_conflict_cores_empty_on_csc_clean_graph():
    graph = build_state_graph(paper_example())
    assert conflict_cores(graph) == []


def test_conflict_core_groups_partition_the_core():
    graph = build_state_graph(csc_arbiter(4))
    cores = conflict_cores(graph)
    assert cores, "csc_arbiter(4) must have a conflict core"
    for core in cores:
        union = 0
        for group in core.groups:
            assert union & group == 0  # groups are disjoint
            union |= group
        assert union == core.states_mask
        assert len(core.groups) >= 2
        # Every state in the core carries the core's code word.
        for state in range(graph.num_states):
            if (core.states_mask >> state) & 1:
                assert graph.packed_code_of(state) == core.code_word


def test_arbiter_core_is_n_way():
    for clients in (2, 3, 4):
        graph = build_state_graph(csc_arbiter(clients))
        cores = conflict_cores(graph)
        sizes = sorted(len(core.groups) for core in cores)
        assert sizes[-1] == clients  # the "request pending" code, n ways


def test_separation_gain_counts_cross_group_pairs():
    graph = build_state_graph(csc_conflict_example())
    (core,) = conflict_cores(graph)
    assert core.num_pairs == 1
    left, right = core.groups
    assert separation_gain(core, left) == 1
    assert separation_gain(core, right) == 1
    assert separation_gain(core, 0) == 0
    assert separation_gain(core, core.states_mask) == 0  # both inside


# ---------------------------------------------------------------------- #
# Insertion regions
# ---------------------------------------------------------------------- #
def test_legal_splice_points_exclude_input_delays():
    stg = vme_bus_controller()
    points = set(legal_splice_points(stg))
    # lds+ feeds ldtack+ (input), dtack+ feeds dsr- (input): illegal.
    assert "lds+" not in points
    assert "dtack+" not in points
    assert "lds-" not in points
    assert "dtack-" not in points
    # d- feeds dtack- and lds- (outputs): legal.
    assert "d-" in points
    assert "dsr+" in points


def test_candidate_regions_phase_labelling_is_exact():
    """The packed mask must equal a brute-force phase computation."""
    stg = vme_bus_controller()
    graph = build_state_graph(stg)
    for region in candidate_regions(graph):
        # Brute force: propagate the phase over edges until fixpoint.
        phase = {}
        changed = True
        while changed:
            changed = False
            for source, transition, target in graph.edges:
                if transition == region.t_on:
                    expect = {source: 0, target: 1}
                elif transition == region.t_off:
                    expect = {source: 1, target: 0}
                elif source in phase and target not in phase:
                    expect = {target: phase[source]}
                elif target in phase and source not in phase:
                    expect = {source: phase[target]}
                else:
                    continue
                for state, value in expect.items():
                    assert phase.get(state, value) == value, region
                    if state not in phase:
                        phase[state] = value
                        changed = True
        for state in range(graph.num_states):
            assert phase[state] == (region.mask_on >> state) & 1, region


def test_candidate_regions_alternation_required():
    """Concurrent on/off transitions are rejected by phase labelling."""
    stg = paper_example()
    graph = build_state_graph(stg)
    # b+ (from p2) and c+ (from p3) fire concurrently after a+; no region
    # may use that pair in either role.
    for region in candidate_regions(graph):
        assert {region.t_on, region.t_off} != {"b+", "c+/1"}


def test_candidate_regions_are_deterministic():
    graph = build_state_graph(csc_arbiter(3))
    first = [(r.t_on, r.t_off, r.mask_on) for r in candidate_regions(graph)]
    second = [(r.t_on, r.t_off, r.mask_on) for r in candidate_regions(graph)]
    assert first == second


def test_estimate_cost_positive():
    graph = build_state_graph(vme_bus_controller())
    regions = candidate_regions(graph)
    assert regions
    assert all(estimate_cost(graph, region) > 0 for region in regions[:4])


# ---------------------------------------------------------------------- #
# STG rewriting
# ---------------------------------------------------------------------- #
def test_apply_insertion_declares_internal_signal():
    stg = csc_conflict_example()
    graph = build_state_graph(stg)
    region = candidate_regions(graph)[0]
    rewritten = apply_insertion(stg, region, "csc0")
    assert rewritten.signal_type("csc0") is SignalType.INTERNAL
    assert "csc0" in rewritten.implementable_signals
    assert "csc0+" in rewritten.transitions
    assert "csc0-" in rewritten.transitions
    # The original is untouched.
    assert "csc0" not in stg.signals


def test_apply_insertion_rejects_existing_signal():
    stg = csc_conflict_example()
    graph = build_state_graph(stg)
    region = candidate_regions(graph)[0]
    with pytest.raises(ValueError):
        apply_insertion(stg, region, "x")


def test_fresh_signal_name_skips_taken_names():
    stg = csc_conflict_example()
    assert fresh_signal_name(stg) == "csc0"
    stg.add_signal("csc0", SignalType.INTERNAL, initial=0)
    assert fresh_signal_name(stg) == "csc1"


def test_apply_insertion_splices_on_event_boundary():
    """The new transition takes over the postset of its splice point."""
    stg = csc_conflict_example()
    graph = build_state_graph(stg)
    region = candidate_regions(graph)[0]
    rewritten = apply_insertion(stg, region, "csc0")
    old_postset = set(stg.net.postset(region.t_on))
    assert set(rewritten.net.postset("csc0+")) == old_postset
    (bridge,) = rewritten.net.postset(region.t_on)
    assert rewritten.net.place_postset(bridge) == {"csc0+"}


# ---------------------------------------------------------------------- #
# resolve_csc end to end
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "build, budget, expected_signals",
    [
        (csc_conflict_example, 3, 1),
        (vme_bus_controller, 3, 1),
        (lambda: csc_arbiter(2), 3, 1),
        (lambda: csc_arbiter(3), 3, 2),
        (lambda: csc_arbiter(4), 3, 2),
    ],
    ids=["csc_conflict", "vme_read", "arbiter2", "arbiter3", "arbiter4"],
)
def test_resolve_csc_resolves_within_budget(build, budget, expected_signals):
    stg = build()
    result = resolve_csc(stg, max_signals=budget)
    assert result.resolved
    assert result.conflicts_after == 0
    assert result.num_inserted == expected_signals
    assert check_csc(result.graph).satisfied
    # Inserted signals are internal and declared on the rewritten STG only.
    for signal in result.inserted:
        assert result.stg.signal_type(signal) is SignalType.INTERNAL
        assert signal not in stg.signals
    assert result.projection is not None and result.projection.ok


def test_resolve_csc_noop_on_clean_spec():
    stg = paper_example()
    result = resolve_csc(stg)
    assert result.resolved
    assert result.inserted == []
    assert result.stg is stg
    assert result.conflicts_before == 0


def test_resolve_csc_respects_budget():
    result = resolve_csc(csc_arbiter(8), max_signals=1)
    assert not result.resolved
    assert result.num_inserted == 1
    assert 0 < result.conflicts_after < result.conflicts_before


def test_resolve_csc_is_deterministic():
    first = resolve_csc(csc_arbiter(4), seed=7)
    second = resolve_csc(csc_arbiter(4), seed=7)
    assert first.inserted == second.inserted
    assert write_g(first.stg) == write_g(second.stg)


def test_resolve_csc_preserves_output_persistency():
    for build in NON_CSC_BUILDERS:
        result = resolve_csc(build())
        assert result.resolved
        assert check_output_persistency(result.graph) == []


def test_resolved_stgs_stay_on_packed_engine():
    # build_state_graph raises UnsafeNetError for a net the packed core
    # refuses, so a clean build proves the inserted signals kept the net
    # safe and weight-1.
    for build in NON_CSC_BUILDERS:
        result = resolve_csc(build())
        graph = build_state_graph(result.stg)
        assert graph.num_states == result.graph.num_states


def test_projection_conformance_rejects_broken_rewrite():
    """A rewrite that genuinely changes visible behaviour must be caught.

    The original alternates ``x`` and ``y`` rounds; the broken "resolution"
    answers every request with ``x``, so its second round produces ``x+``
    where the specification only allows ``y+``.
    """
    original = csc_conflict_example()
    broken = parse_g(
        """
.model broken
.inputs a
.outputs x y
.internal h
.graph
a+ x+
x+ h+
h+ a-
a- x-
x- h-
h- a+
.marking { <h-,a+> }
.initial_state a=0 x=0 y=0 h=0
"""
    )
    report = projection_conforms(original, broken, ["h"])
    assert not report.ok
    assert any("x+" in failure for failure in report.failures)
    # The hidden signal itself never triggers a failure report.
    assert not any("h" in failure.split()[0] for failure in report.failures)


# ---------------------------------------------------------------------- #
# End to end: resolve -> synthesise -> simulate
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("method", ["unfolding-approx", "sg-explicit"])
@pytest.mark.parametrize(
    "build", [vme_bus_controller, lambda: csc_arbiter(4)], ids=["vme_read", "arbiter4"]
)
def test_end_to_end_synthesis_of_resolved_specs(build, method):
    stg = build()
    result = synthesize(stg, method=method, resolve_encoding=True)
    assert result.csc_resolved
    assert 0 < result.csc_signals_added <= 3
    implementation = result.implementation
    assert implementation.csc_conflicts == []
    # Every implementable signal of the resolved spec got a cover.
    resolved_stg = result.encoding.stg
    implemented = {gate.signal for gate in implementation}
    assert implemented == set(resolved_stg.implementable_signals)
    assert implementation.total_literals > 0
    # The circuit executes hazard-free and conformant against the resolved
    # spec, and its visible behaviour projects onto the original one.
    exploration = simulate_implementation(resolved_stg, implementation)
    assert exploration.verdict() == "ok"
    projection = projection_conforms(stg, resolved_stg, result.encoding.inserted)
    assert projection.ok


def test_synthesize_without_resolution_keeps_conflicts():
    result = synthesize(vme_bus_controller(), method="sg-explicit")
    assert not result.csc_resolved
    assert result.csc_signals_added == 0
    assert result.implementation.has_csc_conflict


def test_roundtrip_of_resolved_stg_preserves_signal_kinds():
    """Satellite: .g writer/parser round-trip with inserted internal signals."""
    result = resolve_csc(vme_bus_controller())
    text = write_g(result.stg)
    assert ".internal csc0" in text
    back = parse_g(text)
    assert back.signal_type("csc0") is SignalType.INTERNAL
    assert back.input_signals == result.stg.input_signals
    assert back.output_signals == result.stg.output_signals
    assert back.internal_signals == result.stg.internal_signals
    # Behaviour survives the round trip: same reachable codes and CSC verdict.
    graph = build_state_graph(back)
    assert graph.reachable_packed_codes() == result.graph.reachable_packed_codes()
    assert check_csc(graph).satisfied
    # And the re-read STG still projects onto the original specification.
    assert projection_conforms(vme_bus_controller(), back, ["csc0"]).ok


def test_popcount_mask_bookkeeping():
    graph = build_state_graph(csc_arbiter(3))
    cores = conflict_cores(graph)
    for core in cores:
        assert core.num_states == popcount(core.states_mask)
        assert core.num_states == sum(popcount(g) for g in core.groups)
