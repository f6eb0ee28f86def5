"""The approximate flow against reference versions.

Approximation, refinement and the unfolding queries beneath them avoid
repeated work: events carry their cut and code from the unfolder, slices
AND relation masks, parts are ``(ones, zeros)`` pair lists, the offending
parts are found by a bit-sliced check, the second tier walks each slice's
cuts once, the cut walk indexes its events by their lowest preset
condition, and the conflict test looks only at choice conditions.  Each of
these is checked here against the direct version it replaced, kept in
``tests/oracles.py``:

* :func:`~oracles.reference_approximate` and :func:`~oracles.reference_refine`
  are the paper's flow on :class:`~repro.boolean.Cover` objects, one member
  event at a time, with every code and cut walked from its configuration
  (:func:`~oracles.config_code_word`, :func:`~oracles.config_cut_mask`);
* :func:`~oracles.reference_offending_parts` compares every on/off part
  pair;
* :func:`~oracles.reference_cut_walk` scans every consumer of every
  condition of a cut;
* :func:`~oracles.reference_conflict` tests every condition both
  configurations consume;
* :func:`~oracles.reference_member_events` and the other slice loops test
  one member event at a time where a slice now ANDs relation masks.

The frontier boundary of a slice that runs into a cutoff is checked by
Definition 2.1 on every CSC-clean signal, and by the absence of any cut walk
on the CSC-clean Table 1 and Figure 6 specs.
"""

import random
from typing import List

import pytest

from repro import parse_g, write_g
from repro.obs import tracing
from repro.stg import (
    choice_controller,
    counterflow_pipeline,
    csc_arbiter,
    csc_conflict_example,
    figure4_example,
    muller_pipeline,
    paper_example,
    table1_suite,
    vme_bus_controller,
)
from repro.synthesis import (
    ApproxSignalCovers,
    CoverPart,
    approximate_signal_covers,
    covers_are_correct,
    exact_signal_covers,
    synthesize_approx_from_unfolding,
)
from repro.synthesis import unfolding_approx
from repro.synthesis.unfolding_approx import (
    _offending_parts,
    _restrict_part,
    _SliceCubes,
    refine_signal_covers,
)
from repro.unfolding import (
    Cut,
    enumerate_cuts,
    off_slices,
    on_slices,
    reachable_packed_states,
    slices_for_signal,
    unfold,
)

from oracles import (
    config_code_word,
    config_cut_mask,
    reference_approximate,
    reference_causes,
    reference_concurrent_signal_mask_with_condition,
    reference_concurrent_signal_mask_with_event,
    reference_conflict,
    reference_cut_walk,
    reference_local_config,
    reference_member_conditions,
    reference_member_events,
    reference_next_instances,
    reference_offending_parts,
    reference_refine,
    reference_union_cover,
)


def reference_flow(segment, signal):
    """A signal's reference approximation, on slices whose ``next``
    instances are first checked against the pairwise definition."""
    slices = {1: on_slices(segment, signal), 0: off_slices(segment, signal)}
    for phase_slices in slices.values():
        for slice_ in phase_slices:
            assert slice_.next_events == reference_next_instances(segment, slice_.entry, signal)
    return reference_approximate(segment, signal, slices)


# ---------------------------------------------------------------------- #
# Specs
# ---------------------------------------------------------------------- #
TABLE1 = [(entry.name, entry.build) for entry in table1_suite()]
PIPELINES = [("muller_pipeline_%d" % n, lambda n=n: muller_pipeline(n)) for n in range(2, 9)]
COUNTERFLOW3 = [("counterflow_pipeline_3", lambda: counterflow_pipeline(3))]
COVERS = TABLE1 + PIPELINES + COUNTERFLOW3
FIG6 = [("muller_pipeline_%d" % n, lambda n=n: muller_pipeline(n)) for n in (8, 9, 10)] + [
    ("counterflow_pipeline_4", lambda: counterflow_pipeline(4))
]
REFERENCE = TABLE1 + FIG6 + [("muller_pipeline_16", lambda: muller_pipeline(16))]
WALKS = (
    TABLE1
    + [("choice_controller", choice_controller)]
    + [("muller_pipeline_%d" % n, lambda n=n: muller_pipeline(n)) for n in range(2, 7)]
    + COUNTERFLOW3
)


def _ids(specs):
    return [name for name, _build in specs]


def _from_g_text(name, build):
    """The spec as the parser delivers it from its ``.g`` text."""
    return parse_g(write_g(build()), name=name)


def _same_parts(left: List[CoverPart], right: List[CoverPart]) -> bool:
    return len(left) == len(set(left)) and set(left) == set(right)


# ---------------------------------------------------------------------- #
# (a) bit-sliced offending check == all pairs
# ---------------------------------------------------------------------- #
def _random_cube(rng: random.Random, pool: List[int]):
    ones = zeros = 0
    for var in rng.sample(pool, rng.randint(0, min(len(pool), 5))):
        if rng.random() < 0.5:
            ones |= 1 << var
        else:
            zeros |= 1 << var
    return ones, zeros


def _random_parts(rng: random.Random, nvars: int, pool: List[int]) -> List[CoverPart]:
    parts = []
    for _ in range(rng.randint(0, 5)):
        cubes = [_random_cube(rng, pool) for _ in range(rng.randint(0, 4))]
        parts.append(CoverPart("mr", None, None, nvars, tuple(dict.fromkeys(cubes))))
    return parts


@pytest.mark.parametrize("nvars", [3, 64, 65, 130])
def test_bit_sliced_check_matches_all_pairs_on_random_covers(nvars):
    rng = random.Random(nvars)
    nonempty = 0
    for _ in range(300):
        # Literals come from a small pool that always holds the top
        # variable, so cubes collide often enough to give both verdicts.
        pool = sorted(set(rng.sample(range(nvars), min(nvars, 6))) | {nvars - 1})
        covers = ApproxSignalCovers(
            "x", _random_parts(rng, nvars, pool), _random_parts(rng, nvars, pool), nvars
        )
        expected = reference_offending_parts(covers)
        assert _same_parts(_offending_parts(covers), expected)
        nonempty += bool(expected)
    assert 0 < nonempty < 300


def _replace_cubes(rng: random.Random, parts: List[CoverPart], pool: List[int]) -> None:
    """Give about half the parts new cubes, as refinement does: fewer
    cubes, more cubes (new ones or another part's), an equal copy, or
    another part's very tuple."""
    for part in parts:
        roll = rng.random()
        if roll < 0.5:
            continue
        if roll < 0.6:
            part.pairs = rng.choice(parts).pairs
        elif roll < 0.65:
            part.pairs = tuple(list(part.pairs))
        elif roll < 0.8:
            part.pairs = tuple(pair for pair in part.pairs if rng.random() < 0.5)
        else:
            added = [_random_cube(rng, pool) for _ in range(rng.randint(0, 2))]
            added += rng.choice(parts).pairs
            part.pairs = tuple(dict.fromkeys(part.pairs + tuple(added)))


@pytest.mark.parametrize("nvars", [3, 64, 65, 130])
def test_bit_sliced_check_follows_cubes_replaced_between_rounds(nvars):
    """One check kept over several rounds, with cubes replaced in between,
    finds what the all-pairs comparison finds on every round: rounds that
    slice some off parts again and keep the others, columns left behind
    by a part's old cubes, and parts holding the same tuple all come up."""
    rng = random.Random(nvars)
    hidden = partial = shared = nonempty = 0
    for _ in range(100):
        pool = sorted(set(rng.sample(range(nvars), min(nvars, 6))) | {nvars - 1})
        on_parts = _random_parts(rng, nvars, pool)
        off_parts = _random_parts(rng, nvars, pool)
        covers = ApproxSignalCovers("x", on_parts, off_parts, nvars)
        for _round in range(5):
            check = covers._check
            if check is not None:
                # Some off parts are sliced again, the others keep theirs.
                kept = [check.sliced[part] is part.pairs for part in off_parts]
                partial += any(kept) and not all(kept)
            expected = reference_offending_parts(covers)
            found = _offending_parts(covers)
            assert found == [part for part in on_parts + off_parts if part in expected]
            nonempty += bool(expected)
            check = covers._check
            held = 0
            for part in off_parts:
                held |= check.bits[part]
            hidden += held != check.slices.everything
            tuples = [id(part.pairs) for part in off_parts if part.pairs]
            shared += len(tuples) != len(set(tuples))
            _replace_cubes(rng, on_parts, pool)
            _replace_cubes(rng, off_parts, pool)
    assert 0 < nonempty < 500
    assert hidden and partial and shared


def test_bit_sliced_check_on_empty_covers_and_part_lists():
    nvars = 65
    empty = CoverPart("mr", None, None, nvars, ())
    universe = CoverPart("mr", None, None, nvars, ((0, 0),))
    assert _offending_parts(ApproxSignalCovers("x", [], [], nvars)) == []
    assert _offending_parts(ApproxSignalCovers("x", [universe], [], nvars)) == []
    assert _offending_parts(ApproxSignalCovers("x", [], [universe], nvars)) == []
    assert _offending_parts(ApproxSignalCovers("x", [empty], [universe], nvars)) == []
    other = CoverPart("mr", None, None, nvars, ((0, 0),))
    both = ApproxSignalCovers("x", [empty, universe], [other, empty], nvars)
    assert _offending_parts(both) == [universe, other]


@pytest.mark.parametrize("name, build", COVERS, ids=_ids(COVERS))
def test_bit_sliced_check_matches_all_pairs_on_spec_covers(name, build):
    stg = build()
    segment = unfold(stg)
    for signal in stg.implementable_signals:
        covers = approximate_signal_covers(segment, signal)
        offending = reference_offending_parts(covers)
        assert _same_parts(_offending_parts(covers), offending), signal
        for part in offending:  # the first refinement tier
            part.pairs = _restrict_part(covers, part)
        assert _same_parts(_offending_parts(covers), reference_offending_parts(covers)), signal


# ---------------------------------------------------------------------- #
# (b) approximation and refinement == the reference flow, cube for cube
# ---------------------------------------------------------------------- #
def _cubes(parts) -> list:
    return [[(cube.ones, cube.zeros) for cube in part.cover] for part in parts]


def _kinds(parts) -> list:
    return [(part.kind, part.element) for part in parts]


COUNTERS = (
    "refinement_rounds",
    "parts_refined",
    "parts_fully_refined",
    "slices_walked",
    "cuts_enumerated",
    "csc_conflict",
)


@pytest.mark.parametrize("name, build", REFERENCE, ids=_ids(REFERENCE))
def test_refinement_matches_reference_flow(name, build):
    stg = _from_g_text(name, build)
    segment = unfold(stg)
    for signal in stg.implementable_signals:
        fast = approximate_signal_covers(segment, signal)
        slow = reference_flow(segment, signal)
        for side in ("on_parts", "off_parts"):
            assert _kinds(getattr(fast, side)) == _kinds(getattr(slow, side)), signal
            assert _cubes(getattr(fast, side)) == _cubes(getattr(slow, side)), signal
        refine_signal_covers(segment, fast)
        reference_refine(segment, slow)
        for side in ("on_parts", "off_parts"):
            assert _cubes(getattr(fast, side)) == _cubes(getattr(slow, side)), signal
        # The covers espresso sees, cube for cube and in order.
        for cover, parts in ((fast.on_cover, slow.on_parts), (fast.off_cover, slow.off_parts)):
            expected = reference_union_cover(fast.nvars, parts)
            assert [(c.ones, c.zeros) for c in cover] == [
                (c.ones, c.zeros) for c in expected
            ], signal
        for counter in COUNTERS:
            assert getattr(fast, counter) == getattr(slow, counter), (signal, counter)
        # The per-slice caches live only while the covers are built.
        assert fast._slices == {} and fast._check is None
        # Each continuing round flags some part for the first time.
        parts = len(fast.on_parts) + len(fast.off_parts)
        assert fast.refinement_rounds <= 2 * parts + 1, signal


def test_refinement_drops_the_slice_caches_when_it_raises(monkeypatch):
    stg = muller_pipeline(3)
    segment = unfold(stg)

    def fail(covers, part):
        raise RuntimeError("tier 1 failed")

    monkeypatch.setattr(unfolding_approx, "_restrict_part", fail)
    raised = 0
    for signal in stg.implementable_signals:
        covers = approximate_signal_covers(segment, signal)
        assert covers._slices
        try:
            refine_signal_covers(segment, covers)
        except RuntimeError:
            raised += 1
        assert covers._slices == {} and covers._check is None
    assert raised


@pytest.mark.parametrize("name, build", REFERENCE, ids=_ids(REFERENCE))
def test_event_codes_and_cuts_match_the_configuration_walks(name, build):
    segment = unfold(_from_g_text(name, build))
    for event in segment.events:
        config = reference_local_config(segment, event)
        assert event.local_config_mask == config, event
        cut = config_cut_mask(segment, config)
        assert segment.minimal_stable_cut_mask(event) == cut, event
        assert event.code_word == config_code_word(segment, config), event
        assert event.marking_word == segment.marking_word_of(cut), event
        causes = reference_causes(segment, event)
        assert segment.excitation_code_word(event) == config_code_word(segment, causes), event
        assert segment.minimal_excitation_cut_mask(event) == config_cut_mask(
            segment, causes
        ), event


# ---------------------------------------------------------------------- #
# (c) one walk per slice, spans per tier
# ---------------------------------------------------------------------- #
def test_one_cut_walk_per_slice_on_figure4_example():
    stg = figure4_example()
    segment = unfold(stg)
    result = synthesize_approx_from_unfolding(stg, segment=segment)
    assert result.total_slices_walked == 6
    assert result.total_parts_fully_refined == 12
    assert result.total_cuts_enumerated == 192
    references = [
        reference_refine(segment, reference_flow(segment, signal))
        for signal in stg.implementable_signals
    ]
    assert sum(covers.parts_fully_refined for covers in references) == 12
    assert sum(covers.slices_walked for covers in references) == 6
    assert sum(covers.cuts_enumerated for covers in references) == 192


def _tier_spans(span, name):
    return [child for child in span.children if child.name == name]


def test_refine_span_carries_the_refinement_counters():
    for stg in (muller_pipeline(3), figure4_example()):
        with tracing("run") as tracer:
            result = synthesize_approx_from_unfolding(stg)
        spans = tracer.root.find_all("refine")
        assert [span.attrs["signal"] for span in spans] == stg.implementable_signals
        for span in spans:
            covers = result.signal_covers[span.attrs["signal"]]
            assert span.counters == {
                "refinement_rounds": covers.refinement_rounds,
                "parts_refined": covers.parts_refined,
                "parts_fully_refined": covers.parts_fully_refined,
                "slices_walked": covers.slices_walked,
                "cuts_enumerated": covers.cuts_enumerated,
            }
            # At most one child span per tier and round, and the tiers'
            # counts add up to the signal's.
            restrict = _tier_spans(span, "restrict")
            exact = _tier_spans(span, "exact")
            assert len(restrict) + len(exact) == len(span.children)
            assert len(restrict) <= covers.refinement_rounds
            assert len(exact) <= covers.refinement_rounds
            for child in restrict:
                assert 0 <= child.counters["parts_changed"] <= child.counters["parts_restricted"]
            assert sum(child.counters["parts_changed"] for child in restrict) == (
                covers.parts_refined - covers.parts_fully_refined
            )
            assert sum(child.counters["slices_walked"] for child in exact) == (
                covers.slices_walked
            )
            assert sum(child.counters["cuts_enumerated"] for child in exact) == (
                covers.cuts_enumerated
            )
        approximate = tracer.root.find_all("approximate")
        assert [span.attrs["signal"] for span in approximate] == stg.implementable_signals
        for span in approximate:
            covers = result.signal_covers[span.attrs["signal"]]
            assert span.counters["parts"] == len(covers.on_parts) + len(covers.off_parts)
            signal = span.attrs["signal"]
            segment = result.segment
            assert span.counters["slices"] == len(on_slices(segment, signal)) + len(
                off_slices(segment, signal)
            )
        assert any(_tier_spans(span, "restrict") for span in spans)
    # figure4_example is the one that reaches the second tier.
    assert sum(len(_tier_spans(span, "exact")) for span in spans) > 0


# ---------------------------------------------------------------------- #
# (d) indexed cut walk == the consumer-scanning walk
# ---------------------------------------------------------------------- #
def _masks(cuts):
    return [cut.condition_mask for cut in cuts]


@pytest.mark.parametrize("name, build", WALKS, ids=_ids(WALKS))
def test_cut_walk_matches_reference_walk(name, build):
    stg = build()
    segment = unfold(stg)
    assert _masks(enumerate_cuts(segment)) == _masks(reference_cut_walk(segment))
    for signal in stg.implementable_signals:
        for phase in (0, 1):
            for slice_ in slices_for_signal(segment, signal, phase):
                mask = slice_.min_cut_mask
                start = Cut(segment, mask, segment.marking_word_of(mask), slice_.min_code_word)
                reference = reference_cut_walk(
                    segment, slice_.allowed_event_ids(), start, dedup="cut"
                )
                walked = _masks(slice_.cuts())
                assert walked == _masks(reference), (signal, phase, slice_.entry)


# ---------------------------------------------------------------------- #
# (e) choice-only conflict test == every shared condition
# ---------------------------------------------------------------------- #
CONFLICTS = [("choice_controller", choice_controller)] + TABLE1


@pytest.mark.parametrize("name, build", CONFLICTS, ids=_ids(CONFLICTS))
def test_conflict_matches_reference_on_every_event_pair(name, build):
    segment = unfold(build())
    conflicts = 0
    for left in segment.events:
        for right in segment.events:
            expected = reference_conflict(segment, left, right)
            assert segment.in_conflict(left, right) == expected, (left, right)
            conflicts += expected
    if name == "choice_controller":
        assert conflicts > 0


# ---------------------------------------------------------------------- #
# (f) frontier boundaries: correct covers without cut walks
# ---------------------------------------------------------------------- #
EXAMPLES = [
    ("paper_example", paper_example),
    ("figure4_example", figure4_example),
    ("choice_controller", choice_controller),
]
CLEAN = (
    TABLE1
    + [("muller_pipeline_%d" % n, lambda n=n: muller_pipeline(n)) for n in (2, 3, 4, 5, 6, 8)]
    + [("counterflow_pipeline_%d" % n, lambda n=n: counterflow_pipeline(n)) for n in (2, 3, 4)]
    + EXAMPLES
)


@pytest.mark.parametrize("name, build", CLEAN, ids=_ids(CLEAN))
def test_refined_covers_satisfy_definition_2_1(name, build):
    stg = _from_g_text(name, build)
    segment = unfold(stg)
    states = reachable_packed_states(segment)
    result = synthesize_approx_from_unfolding(stg, segment=segment)
    assert not result.implementation.csc_conflicts
    for signal, covers in result.signal_covers.items():
        on_exact, off_exact, conflict = exact_signal_covers(segment, signal, states)
        assert not conflict, signal
        assert covers_are_correct(covers.on_cover, covers.off_cover, on_exact, off_exact), signal


NO_WALKS = TABLE1 + FIG6 + [
    ("muller_pipeline_16", lambda: muller_pipeline(16)),
    ("counterflow_pipeline_8", lambda: counterflow_pipeline(8)),
]


@pytest.mark.parametrize("name, build", NO_WALKS, ids=_ids(NO_WALKS))
def test_no_slice_is_walked_on_csc_clean_specs(name, build):
    result = synthesize_approx_from_unfolding(_from_g_text(name, build))
    assert not result.implementation.csc_conflicts
    assert result.total_slices_walked == 0
    assert result.total_parts_fully_refined == 0
    assert result.total_cuts_enumerated == 0


CONFLICTING = [
    ("csc_conflict", csc_conflict_example, {"x", "y"}),
    ("vme_read", vme_bus_controller, {"d", "lds"}),
] + [
    ("csc_arbiter_%d" % n, lambda n=n: csc_arbiter(n), {"g%d" % i for i in range(n)})
    for n in (4, 6, 8)
]


@pytest.mark.parametrize(
    "name, build, expected", CONFLICTING, ids=[name for name, _b, _e in CONFLICTING]
)
def test_full_refinement_still_proves_csc_conflicts(name, build, expected):
    result = synthesize_approx_from_unfolding(_from_g_text(name, build))
    assert set(result.implementation.csc_conflicts) == expected
    assert result.total_slices_walked > 0
    assert result.total_cuts_enumerated <= 276


def test_frontier_of_muller_pipeline_8_is_one_rise_of_c8_past_the_cutoff():
    segment = unfold(muller_pipeline(8))
    [cutoff] = segment.cutoffs
    assert cutoff.transition == "rack-"
    [pseudo] = segment.frontier
    assert pseudo.transition == "c8+"
    assert sorted(c.producer.transition for c in pseudo.preset) == ["c7+", "rack-"]
    assert cutoff.postset_mask & pseudo.preset_mask
    assert pseudo not in segment.events
    # Only the off-slice entered by c8- runs into the cutoff, and the
    # pseudo-event bounds it without joining its members.
    bounded = [
        slice_
        for phase in (0, 1)
        for slice_ in slices_for_signal(segment, "c8", phase)
        if slice_.frontier_boundaries
    ]
    assert [(s.phase, s.entry.transition) for s in bounded] == [(0, "c8-")]
    assert bounded[0].next_events == []
    assert bounded[0].frontier_boundaries == [pseudo]


# ---------------------------------------------------------------------- #
# (g) relation masks == the per-event loops
# ---------------------------------------------------------------------- #
MASKS = (
    TABLE1
    + [("muller_pipeline_%d" % n, lambda n=n: muller_pipeline(n)) for n in (3, 6, 8)]
    + [("counterflow_pipeline_%d" % n, lambda n=n: counterflow_pipeline(n)) for n in (2, 4)]
    + EXAMPLES
    + [(name, build) for name, build, _expected in CONFLICTING if name != "csc_arbiter_6"]
)


@pytest.mark.parametrize("name, build", MASKS, ids=_ids(MASKS))
def test_relation_masks_match_the_relations(name, build):
    segment = unfold(build())
    events = segment.events
    for event in events:
        assert segment.descendant_mask_of(event) == sum(
            1 << other.eid for other in events if segment.precedes(event, other)
        )
    for condition in segment.conditions:
        assert segment.events_concurrent_with_condition(condition) == sum(
            1 << event.eid
            for event in events
            if segment.event_co_mask(event) >> condition.cid & 1
        )


@pytest.mark.parametrize("name, build", MASKS, ids=_ids(MASKS))
def test_slice_masks_match_the_member_loops(name, build):
    segment = unfold(build())
    nvars = len(segment.stg.signals)
    for signal in segment.stg.signals:
        for phase in (0, 1):
            for slice_ in slices_for_signal(segment, signal, phase):
                members = reference_member_events(slice_)
                assert slice_.member_events() == members
                assert slice_.member_conditions() == reference_member_conditions(
                    slice_, members
                )
                for event in segment.events:
                    assert slice_.concurrent_signal_mask_with_event(
                        event
                    ) == reference_concurrent_signal_mask_with_event(segment, members, event)
                cubes = _SliceCubes(slice_, nvars)
                for condition in segment.conditions:
                    concurrent = sum(
                        1 << member.eid
                        for member in members
                        if segment.event_co_mask(member) >> condition.cid & 1
                    )
                    assert cubes.concurrent(condition) == (
                        concurrent,
                        reference_concurrent_signal_mask_with_condition(
                            segment, members, condition
                        ),
                    )


@pytest.mark.parametrize("name, build", MASKS, ids=_ids(MASKS))
def test_trigger_exclusion_matches_the_member_loop(name, build):
    """Leaving one labelled event out of a condition's concurrent members
    (the restricted cubes' don't-cares) is one AND on the slice's masks;
    every member and boundary trigger is checked against the member loop."""
    segment = unfold(build())
    nvars = len(segment.stg.signals)
    for signal in segment.stg.signals:
        for phase in (0, 1):
            for slice_ in slices_for_signal(segment, signal, phase):
                cubes = _SliceCubes(slice_, nvars)
                members = reference_member_events(slice_)
                triggers = [event for event in members if event.signal_bit]
                triggers += [
                    c.producer
                    for boundary in cubes.boundaries
                    for c in boundary.preset
                    if c.producer.signal_bit
                ]
                for condition in slice_.member_conditions():
                    for trigger in triggers:
                        assert cubes.dont_care_without(
                            condition, trigger
                        ) == reference_concurrent_signal_mask_with_condition(
                            segment, members, condition, [trigger]
                        ), (signal, condition, trigger)
