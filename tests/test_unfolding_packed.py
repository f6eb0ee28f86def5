"""Packed unfolding engine: equivalence with the State Graph and with the
every-cut reference walk (``tests/oracles.py``), concurrency-row
correctness, and regressions for the state-recovery bugfixes (marking-keyed
dedup, hard-coded bottom id, cut key).
"""

import pytest

from repro.stategraph import build_state_graph
from repro.stg import (
    STG,
    InconsistentSTGError,
    SignalType,
    muller_pipeline,
    paper_example,
    table1_suite,
)
from repro.synthesis import exact_signal_covers, synthesize
from repro.unfolding import (
    cut_enables,
    enumerate_cuts,
    initial_cut,
    reachable_packed_states,
    reachable_states,
    unfold,
)

from oracles import every_cut_states, reference_cut_walk


def _specs():
    specs = [(entry.name, entry.build) for entry in table1_suite()]
    for stages in range(2, 7):
        specs.append(
            ("muller_pipeline_%d" % stages, lambda s=stages: muller_pipeline(s))
        )
    return specs


SPECS = _specs()
SPEC_IDS = [name for name, _build in SPECS]
SMALL = [(name, build) for name, build in SPECS if build().num_signals <= 12]
SMALL_IDS = [name for name, _build in SMALL]


# ---------------------------------------------------------------------- #
# Unfolding / State Graph equivalence (codes included)
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name,build", SPECS, ids=SPEC_IDS)
def test_recovered_states_match_state_graph(name, build):
    stg = build()
    segment = unfold(stg)
    graph = build_state_graph(build())
    expected = {m.places: tuple(c) for m, c in zip(graph.markings, graph.codes)}
    assert reachable_states(segment) == expected


@pytest.mark.parametrize("name,build", SMALL, ids=SMALL_IDS)
def test_state_dedup_matches_legacy_reference(name, build):
    """The state-pruned walk and the every-cut reference walk recover
    identical packed states, and the pruned walk never visits more cuts."""
    segment = unfold(build())
    packed = reachable_packed_states(segment)
    assert packed == every_cut_states(segment)
    pruned_cuts = sum(1 for _ in enumerate_cuts(segment))
    all_cuts = sum(1 for _ in reference_cut_walk(segment, dedup="cut"))
    assert pruned_cuts <= all_cuts
    assert pruned_cuts == len(packed)


@pytest.mark.parametrize("name,build", SMALL, ids=SMALL_IDS)
def test_exact_covers_and_csc_match_legacy_reference(name, build):
    stg = build()
    segment = unfold(stg)
    packed_states = reachable_packed_states(segment)
    legacy_states = every_cut_states(segment)
    for signal in stg.implementable_signals:
        on_p, off_p, csc_p = exact_signal_covers(segment, signal, packed_states)
        on_l, off_l, csc_l = exact_signal_covers(segment, signal, legacy_states)
        assert set(on_p.cubes) == set(on_l.cubes)
        assert set(off_p.cubes) == set(off_l.cubes)
        assert csc_p == csc_l


@pytest.mark.parametrize("name,build", SMALL, ids=SMALL_IDS)
def test_unfolding_exact_matches_sg_explicit(name, build):
    exact = synthesize(build(), method="unfolding-exact")
    sg = synthesize(build(), method="sg-explicit")
    assert exact.literal_count == sg.literal_count
    assert sorted(exact.implementation.csc_conflicts) == sorted(
        sg.implementation.csc_conflicts
    )


# ---------------------------------------------------------------------- #
# Packed relations vs first-principles definitions
# ---------------------------------------------------------------------- #
def _reference_config_conflict(segment, left_config, right_config):
    for eid in left_config:
        for condition in segment.events[eid].preset:
            for consumer in condition.consumers:
                if consumer.eid != eid and consumer.eid in right_config:
                    return True
    for eid in right_config:
        for condition in segment.events[eid].preset:
            for consumer in condition.consumers:
                if consumer.eid != eid and consumer.eid in left_config:
                    return True
    return False


def _reference_event_conflict(segment, left, right):
    if left.eid == right.eid:
        return False
    return _reference_config_conflict(
        segment, segment.ancestors_of(left), segment.ancestors_of(right)
    )


def _reference_condition_before(segment, first, second):
    producer = second.producer
    if first in producer.preset:
        return True
    ancestors = segment.ancestors_of(producer)
    return any(consumer.eid in ancestors for consumer in first.consumers)


def _reference_concurrent_conditions(segment, left, right):
    if left is right:
        return False
    if _reference_event_conflict(segment, left.producer, right.producer):
        return False
    if _reference_condition_before(segment, left, right):
        return False
    if _reference_condition_before(segment, right, left):
        return False
    return True


REFERENCE_SPECS = [
    ("paper_example", paper_example),
    ("muller_pipeline_3", lambda: muller_pipeline(3)),
    ("nowick", next(e for e in table1_suite() if e.name == "nowick").build),
    ("mp-forward-pkt", next(e for e in table1_suite() if e.name == "mp-forward-pkt").build),
]


@pytest.mark.parametrize(
    "name,build", REFERENCE_SPECS, ids=[n for n, _b in REFERENCE_SPECS]
)
def test_concurrency_rows_match_pairwise_definition(name, build):
    segment = unfold(build())
    for left in segment.conditions:
        row = segment.co_masks[left.cid]
        for right in segment.conditions:
            expected = _reference_concurrent_conditions(segment, left, right)
            assert bool(row >> right.cid & 1) == expected
            assert segment.concurrent_conditions(left, right) == expected


@pytest.mark.parametrize(
    "name,build", REFERENCE_SPECS, ids=[n for n, _b in REFERENCE_SPECS]
)
def test_event_relations_match_definitions(name, build):
    segment = unfold(build())
    events = segment.events
    for left in events:
        for right in events:
            expected_conflict = _reference_event_conflict(segment, left, right)
            assert segment.in_conflict(left, right) == expected_conflict
            ordered = segment.precedes(left, right) or segment.precedes(right, left)
            expected_co = (
                left.eid != right.eid and not ordered and not expected_conflict
            )
            assert segment.concurrent_events(left, right) == expected_co
        for condition in segment.conditions:
            expected = (
                not segment.in_conflict(left, condition.producer)
                and not segment.condition_precedes_event(condition, left)
                and not segment.event_precedes_condition(left, condition)
            )
            if left.is_bottom:
                expected = False
            assert segment.concurrent_event_condition(left, condition) == expected


# ---------------------------------------------------------------------- #
# Regression: marking-keyed state dedup masked CSC conflicts
# ---------------------------------------------------------------------- #
def _marking_code_collision_stg():
    """One marking reachable with two binary codes (inconsistent STG).

    Each individual firing is value-consistent, so the unfolder accepts the
    specification; only state recovery can see the collision.
    """
    stg = STG("collision")
    stg.add_signal("a", SignalType.OUTPUT, initial=0)
    stg.add_signal("b", SignalType.OUTPUT, initial=0)
    p0 = stg.add_place("p0", tokens=1)
    p1 = stg.add_place("p1")
    a_plus = stg.add_transition("a+")
    b_plus = stg.add_transition("b+")
    stg.add_arc(p0, a_plus)
    stg.add_arc(p0, b_plus)
    stg.add_arc(a_plus, p1)
    stg.add_arc(b_plus, p1)
    return stg


def test_reachable_states_raises_on_marking_code_collision():
    segment = unfold(_marking_code_collision_stg())
    with pytest.raises(InconsistentSTGError, match="two codes"):
        reachable_states(segment)
    with pytest.raises(InconsistentSTGError, match="two codes"):
        reachable_packed_states(segment)


def test_collision_states_are_not_silently_collapsed():
    """Both codes of the shared marking are visible to the cut walk (the old
    ``setdefault`` kept only the first and dropped the second)."""
    segment = unfold(_marking_code_collision_stg())
    states = {
        (cut.marking, cut.code) for cut in enumerate_cuts(segment)
    }
    shared = {code for marking, code in states if marking == frozenset({"p1"})}
    assert shared == {(1, 0), (0, 1)}


# ---------------------------------------------------------------------- #
# Regression: hard-coded bottom event id in the excitation cut
# ---------------------------------------------------------------------- #
def test_bottom_excitation_cut_is_the_initial_cut():
    segment = unfold(paper_example())
    bottom = segment.bottom
    assert segment.minimal_excitation_cut_mask(bottom) == bottom.postset_mask
    assert set(segment.minimal_excitation_cut(bottom)) == set(bottom.postset)
    assert segment.excitation_code(bottom) == segment.initial_code
    assert segment.excitation_code_word(bottom) == segment.initial_code_word


# ---------------------------------------------------------------------- #
# Regression: cut identity is packed and cached; cut_enables lost the
# unused segment parameter
# ---------------------------------------------------------------------- #
def test_cut_key_is_the_packed_condition_mask():
    segment = unfold(paper_example())
    cut = initial_cut(segment)
    expected = 0
    for condition in segment.bottom.postset:
        expected |= 1 << condition.cid
    assert isinstance(cut.key, int)
    assert cut.key == expected
    assert cut.condition_mask == expected
    assert cut.conditions is cut.conditions  # decoded once, then cached
    assert set(cut.conditions) == set(segment.bottom.postset)


def test_cut_enables_is_a_mask_check():
    segment = unfold(paper_example())
    cut = initial_cut(segment)
    for condition in cut.conditions:
        for event in condition.consumers:
            expected = all(
                1 << c.cid & cut.condition_mask for c in event.preset
            )
            assert cut_enables(cut.condition_mask, event) == expected


def test_slice_states_are_deduplicated_and_packed():
    from repro.core import unpack_code
    from repro.unfolding import on_slices

    segment = unfold(paper_example())
    nsignals = len(segment.signal_table)
    for slice_ in on_slices(segment, "b"):
        packed = slice_.packed_states()
        assert len(packed) == len(set(packed))
        decoded = slice_.states()
        assert len(decoded) == len(packed)
        for (marking_word, code_word), (marking, code) in zip(packed, decoded):
            assert frozenset(segment.place_table.names_in(marking_word)) == marking
            assert unpack_code(code_word, nsignals) == code
