"""Tests for the STG-unfolding segment, cuts, slices and semi-modularity."""

import pytest

from repro.core import UnsafeNetError
from repro.stategraph import build_state_graph
from repro.stg import (
    STG,
    InconsistentSTGError,
    SignalType,
    choice_controller,
    figure4_example,
    muller_pipeline,
    paper_example,
    parallel_handshake,
)
from repro.unfolding import (
    UnfoldingError,
    check_semimodularity,
    enumerate_cuts,
    initial_cut,
    off_slices,
    on_slices,
    reachable_states,
    unfold,
)


EXAMPLES = [paper_example, figure4_example, choice_controller, lambda: muller_pipeline(3)]


def test_bottom_event_represents_initial_state():
    segment = unfold(paper_example())
    bottom = segment.bottom
    assert bottom.is_bottom
    assert bottom.code == (0, 0, 0)
    assert bottom.marking == frozenset({"p1"})
    assert initial_cut(segment).marking == frozenset({"p1"})


@pytest.mark.parametrize("builder", EXAMPLES)
def test_recovered_states_equal_state_graph(builder):
    stg = builder()
    segment = unfold(stg)
    graph = build_state_graph(stg)
    recovered = reachable_states(segment)
    from_graph = {m.places: tuple(c) for m, c in zip(graph.markings, graph.codes)}
    assert recovered == from_graph


def test_segment_is_smaller_than_state_graph_for_concurrent_spec():
    stg = muller_pipeline(8)
    segment = unfold(stg)
    graph = build_state_graph(stg)
    assert segment.num_events < graph.num_states


def test_cutoffs_exist_and_are_not_extended():
    segment = unfold(paper_example())
    assert segment.cutoffs
    for cutoff in segment.cutoffs:
        for condition in cutoff.postset:
            assert not condition.consumers


def test_causality_conflict_concurrency_are_mutually_exclusive():
    segment = unfold(paper_example())
    events = segment.non_bottom_events()
    for left in events:
        for right in events:
            if left is right:
                continue
            relations = [
                segment.strictly_precedes(left, right) or segment.strictly_precedes(right, left),
                segment.in_conflict(left, right),
                segment.concurrent_events(left, right),
            ]
            assert sum(1 for r in relations if r) == 1


def test_local_configuration_and_codes():
    segment = unfold(paper_example())
    for event in segment.non_bottom_events():
        config = segment.local_configuration(event)
        assert event.eid in config
        assert 0 in config  # bottom is an ancestor of everything
        assert segment.config_code(config) == event.code


def test_minimal_excitation_cut_enables_the_event():
    segment = unfold(paper_example())
    for event in segment.non_bottom_events():
        cut = segment.minimal_excitation_cut(event)
        cut_ids = {condition.cid for condition in cut}
        assert all(condition.cid in cut_ids for condition in event.preset)


def test_first_and_next_instances():
    segment = unfold(paper_example())
    first_b = segment.first_instances("b")
    assert {e.label.label(with_index=False) for e in first_b} == {"b+"}
    for event in first_b:
        followers = segment.next_instances(event)
        assert all(f.label.signal == "b" for f in followers)
        assert all(segment.strictly_precedes(event, f) for f in followers)


def test_unfolding_rejects_unsafe_nets():
    stg = STG("unsafe")
    stg.add_signal("a", SignalType.OUTPUT, initial=0)
    plus = stg.add_transition("a+")
    p = stg.add_place("p", tokens=2)
    stg.add_arc(p, plus)
    with pytest.raises(UnsafeNetError):
        unfold(stg)


def test_unfolding_detects_inconsistency():
    stg = STG("bad")
    stg.add_signal("a", SignalType.OUTPUT, initial=0)
    t1 = stg.add_transition("a+")
    t2 = stg.add_transition("a+")
    start = stg.add_place("s", tokens=1)
    stg.add_arc(start, t1)
    stg.connect(t1, t2)
    stg.add_arc(t2, stg.add_place("end"))
    with pytest.raises(InconsistentSTGError):
        unfold(stg)


def test_event_limit():
    with pytest.raises(UnfoldingError):
        unfold(muller_pipeline(6), max_events=5)


def test_enumerate_cuts_covers_all_markings():
    stg = parallel_handshake("hs", [2, 2])
    segment = unfold(stg)
    graph = build_state_graph(stg)
    markings = {cut.marking for cut in enumerate_cuts(segment)}
    assert markings == {m.places for m in graph.markings}


def test_on_off_slices_partition_reachable_codes():
    stg = paper_example()
    segment = unfold(stg)
    graph = build_state_graph(stg)
    on_codes = set()
    for slice_ in on_slices(segment, "b"):
        on_codes |= {code for _m, code in slice_.states()}
    off_codes = set()
    for slice_ in off_slices(segment, "b"):
        off_codes |= {code for _m, code in slice_.states()}
    expected_on = {tuple(graph.codes[s]) for s in range(graph.num_states)
                   if graph.implied_value(s, "b") == 1}
    expected_off = {tuple(graph.codes[s]) for s in range(graph.num_states)
                    if graph.implied_value(s, "b") == 0}
    assert on_codes == expected_on
    assert off_codes == expected_off


def test_paper_slice_structure_for_signal_b():
    segment = unfold(paper_example())
    slices = on_slices(segment, "b")
    # Two on-set slices, one per b+ instance (Figure 3).
    assert len(slices) == 2
    per_slice = [sorted("".join(map(str, code)) for _m, code in s.states()) for s in slices]
    union = set(per_slice[0]) | set(per_slice[1])
    assert union == {"100", "110", "101", "111", "011", "001"}
    # One of the slices is the choice branch {001, 011}.
    assert ["001", "011"] in per_slice


def test_semimodularity_on_good_examples():
    for builder in EXAMPLES:
        segment = unfold(builder())
        assert check_semimodularity(segment) == []


def test_semimodularity_violation_detected():
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
    segment = unfold(stg)
    violations = check_semimodularity(segment)
    assert violations
    assert violations[0].disabled.transition == "x+"
