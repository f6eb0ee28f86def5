"""Tests for State Graph construction, regions and coding checks."""

import pytest

from repro.boolean import Cover
from repro.core import MarkingCodec
from repro.petrinet import StateSpaceLimitExceeded
from repro.stategraph import (
    InconsistentSTGError,
    SignalRegions,
    StateGraph,
    build_state_graph,
    check_csc,
    check_output_persistency,
    check_usc,
    compute_regions,
    dc_set_cover,
)
from repro.stg import (
    STG,
    SignalType,
    csc_arbiter,
    csc_conflict_example,
    muller_pipeline,
    paper_example,
    table1_suite,
    vme_bus_controller,
)

from oracles import OracleGraph


def test_build_state_graph_codes_are_consistent():
    graph = build_state_graph(paper_example())
    for source, transition, target in graph.edges:
        label = graph.stg.label_of(transition)
        assert graph.codes[source][graph.stg.signal_index(label.signal)] == label.source_value
        assert graph.codes[target][graph.stg.signal_index(label.signal)] == label.target_value


def test_state_budget_enforced():
    with pytest.raises(StateSpaceLimitExceeded):
        build_state_graph(muller_pipeline(4), max_states=5)


def test_inconsistent_stg_detected():
    stg = STG("bad")
    stg.add_signal("a", SignalType.OUTPUT, initial=0)
    t1 = stg.add_transition("a+")
    t2 = stg.add_transition("a+")
    start = stg.add_place("s", tokens=1)
    stg.add_arc(start, t1)
    stg.connect(t1, t2)
    stg.add_arc(t2, stg.add_place("end"))
    with pytest.raises(InconsistentSTGError):
        build_state_graph(stg)


def test_regions_of_paper_example_signal_b():
    graph = build_state_graph(paper_example())
    regions = SignalRegions(graph, "b")
    on_codes = {"".join(map(str, graph.codes[s])) for s in regions.on_states}
    off_codes = {"".join(map(str, graph.codes[s])) for s in regions.off_states}
    assert on_codes == {"100", "110", "101", "111", "011", "001"}
    assert off_codes == {"000", "010"}
    assert regions.partition_is_complete()
    # ER(b+) are the states where b+ is enabled.
    er_codes = {"".join(map(str, graph.codes[s])) for s in regions.er_plus}
    assert er_codes == {"100", "101", "001"}


def test_dc_set_cover_is_complement_of_reachable():
    graph = build_state_graph(paper_example())
    dc = dc_set_cover(graph)
    assert dc.is_empty()  # all 8 codes of the 3-signal space are reachable

    graph2 = build_state_graph(muller_pipeline(1))
    dc2 = dc_set_cover(graph2)
    reachable = {int("".join(map(str, reversed(code))), 2) for code in graph2.codes}
    assert dc2.minterms() == set(range(2 ** 3)) - reachable


def test_compute_regions_only_for_implementable_signals():
    graph = build_state_graph(paper_example())
    regions = compute_regions(graph)
    assert set(regions) == {"b"}


def test_usc_and_csc_on_good_and_bad_examples():
    good = build_state_graph(paper_example())
    assert check_usc(good).satisfied
    assert check_csc(good).satisfied

    bad = build_state_graph(csc_conflict_example())
    assert not check_usc(bad).satisfied
    assert not check_csc(bad).satisfied
    assert check_csc(bad).num_conflicts >= 1


def test_csc_report_on_empty_graph():
    """A graph with no states has no conflicts and satisfies both checks."""
    stg = paper_example()
    empty = StateGraph(stg, MarkingCodec.for_net(stg.net))
    for report in (check_usc(empty), check_csc(empty)):
        assert report.satisfied
        assert bool(report)
        assert report.conflicts == []
        assert report.num_conflicts == 0


def test_usc_violated_but_csc_satisfied():
    """Equal codes exciting only *inputs* differently break USC, not CSC.

    Two rounds ``a+ x+ a- x-`` / ``b+ x+ b- x-`` (``a``, ``b`` inputs):
    the all-zero code is reached once exciting ``a+`` and once exciting
    ``b+``, but the implementable signal ``x`` behaves identically in both.
    """
    stg = STG("usc_only")
    stg.add_signal("a", SignalType.INPUT, initial=0)
    stg.add_signal("b", SignalType.INPUT, initial=0)
    stg.add_signal("x", SignalType.OUTPUT, initial=0)
    a_plus = stg.add_transition("a+")
    a_minus = stg.add_transition("a-")
    b_plus = stg.add_transition("b+")
    b_minus = stg.add_transition("b-")
    x_plus_a = stg.add_transition("x+")
    x_minus_a = stg.add_transition("x-")
    x_plus_b = stg.add_transition("x+")
    x_minus_b = stg.add_transition("x-")
    stg.connect(a_plus, x_plus_a)
    stg.connect(x_plus_a, a_minus)
    stg.connect(a_minus, x_minus_a)
    stg.connect(x_minus_a, b_plus)
    stg.connect(b_plus, x_plus_b)
    stg.connect(x_plus_b, b_minus)
    stg.connect(b_minus, x_minus_b)
    stg.set_marking([stg.connect(x_minus_b, a_plus)])

    graph = build_state_graph(stg)
    usc = check_usc(graph)
    csc = check_csc(graph)
    assert not usc.satisfied
    assert csc.satisfied
    assert usc.num_conflicts >= 1
    assert csc.conflicts == []


def test_conflict_pairs_reported_sorted():
    for build in (csc_conflict_example, vme_bus_controller, lambda: csc_arbiter(4)):
        graph = build_state_graph(build())
        for report in (check_usc(graph), check_csc(graph)):
            assert report.conflicts == sorted(report.conflicts)
            assert all(left < right for left, right in report.conflicts)


@pytest.mark.parametrize(
    "entry",
    [e for e in table1_suite() if e.expected_signals <= 14],
    ids=lambda e: e.name,
)
def test_conflict_sets_equal_between_packed_and_legacy(entry):
    # "legacy" is the reference walk of tests/oracles.py: conflict pairs
    # found by grouping the codes it replays.
    packed = build_state_graph(entry.build())
    oracle = OracleGraph(entry.build())
    assert check_usc(packed).conflicts == oracle.coding_conflicts(csc=False)
    assert check_csc(packed).conflicts == oracle.coding_conflicts(csc=True)


def test_conflict_sets_equal_between_packed_and_legacy_non_csc():
    for build in (csc_conflict_example, vme_bus_controller, lambda: csc_arbiter(4)):
        packed = build_state_graph(build())
        oracle = OracleGraph(build())
        usc = check_usc(packed)
        assert not usc.satisfied
        assert usc.conflicts == oracle.coding_conflicts(csc=False)
        assert check_csc(packed).conflicts == oracle.coding_conflicts(csc=True)


def test_output_persistency_violation_detected():
    # An output in structural conflict with an input: firing the input
    # disables the excited output.
    stg = STG("nonpersistent")
    stg.add_signal("i", SignalType.INPUT, initial=0)
    stg.add_signal("x", SignalType.OUTPUT, initial=0)
    p = stg.add_place("p", tokens=1)
    i_plus = stg.add_transition("i+")
    x_plus = stg.add_transition("x+")
    stg.add_arc(p, i_plus)
    stg.add_arc(p, x_plus)
    stg.add_arc(i_plus, stg.add_place("pi"))
    stg.add_arc(x_plus, stg.add_place("px"))
    graph = build_state_graph(stg)
    violations = check_output_persistency(graph)
    assert violations
    assert violations[0].disabled == "x+"


def test_implied_value_and_excited_signals():
    graph = build_state_graph(paper_example())
    initial = 0
    assert graph.signal_value(initial, "b") == 0
    assert graph.implied_value(initial, "b") == 0
    assert graph.excited_signals(initial) == {"a", "c"}
