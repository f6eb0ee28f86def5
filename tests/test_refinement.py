"""Cover refinement of the approximate flow against reference versions.

Refinement and the unfolding queries beneath it avoid repeated work: the
offending parts are found by a bit-sliced check, the second tier walks each
slice's cuts once, the cut walk indexes its events by their lowest preset
condition, and the conflict test looks only at choice conditions.  Each of
these is checked here against the direct version it replaced, kept in this
file as the oracle:

* :func:`reference_offending_parts` compares every on/off part pair;
* :func:`reference_exact_part_cover` walks a slice's cuts once per part;
* :func:`reference_refine` is the refinement loop built on those two;
* :func:`~oracles.reference_cut_walk` scans every consumer of every
  condition of a cut (in ``tests/oracles.py``, which the unfolding tests
  share);
* :func:`~oracles.reference_conflict` tests every condition both
  configurations consume;
* :func:`~oracles.reference_member_events` and the other slice loops of
  ``tests/oracles.py`` test one member event at a time where a slice now
  ANDs relation masks.

The frontier boundary of a slice that runs into a cutoff is checked by
Definition 2.1 on every CSC-clean signal, and by the absence of any cut walk
on the CSC-clean Table 1 and Figure 6 specs.
"""

import random
from typing import List, Set

import pytest

from repro import parse_g, write_g
from repro.boolean import Cover, Cube, minterm_cover
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
from repro.synthesis.unfolding_approx import (
    _offending_parts,
    _restrict_part,
    refine_signal_covers,
)
from repro.unfolding import (
    Condition,
    Cut,
    enumerate_cuts,
    reachable_packed_states,
    slices_for_signal,
    unfold,
)

from oracles import (
    reference_concurrent_signal_mask_with_condition,
    reference_concurrent_signal_mask_with_event,
    reference_conflict,
    reference_cut_walk,
    reference_member_conditions,
    reference_member_events,
)

# ---------------------------------------------------------------------- #
# Reference versions
# ---------------------------------------------------------------------- #
def reference_offending_parts(covers: ApproxSignalCovers) -> List[CoverPart]:
    """Parts whose cover intersects some part of the opposite cover, by
    comparing every on/off pair."""
    offending: List[CoverPart] = []
    for on_part in covers.on_parts:
        for off_part in covers.off_parts:
            if on_part.cover.intersects(off_part.cover):
                if on_part not in offending:
                    offending.append(on_part)
                if off_part not in offending:
                    offending.append(off_part)
    return offending


def reference_exact_part_cover(segment, part: CoverPart) -> Cover:
    """Exact codes of the part's slice states where its element is active
    and the signal has the slice's implied value, from a walk of its own."""
    slice_ = part.slice
    element = part.element
    codes: Set[int] = set()
    for cut in slice_.cuts():
        if isinstance(element, Condition):
            active = bool(cut.condition_mask >> element.cid & 1)
        else:
            active = cut.condition_mask & element.preset_mask == element.preset_mask
        if not active:
            continue
        implied = segment.implied_value_word(cut.marking_word, cut.code_word, slice_.signal)
        if implied != slice_.phase:
            continue
        codes.add(cut.code_word)
    return minterm_cover(len(segment.stg.signals), codes)


def reference_refine(segment, covers: ApproxSignalCovers):
    """The refinement loop on the reference checks; returns the covers and
    the number of slice walks it took (one per fully refined part)."""
    walks = 0
    while True:
        offending = reference_offending_parts(covers)
        if not offending:
            return covers, walks
        covers.refinement_rounds += 1
        progressed = False
        for part in offending:
            if part.restricted or part.refined:
                continue
            part.restricted = True
            restricted = _restrict_part(segment, part)
            if set(restricted.cubes) != set(part.cover.cubes):
                part.cover = restricted
                covers.parts_refined += 1
                progressed = True
        if progressed:
            continue
        for part in offending:
            if part.refined:
                continue
            part.cover = reference_exact_part_cover(segment, part)
            part.refined = True
            covers.parts_refined += 1
            walks += 1
            progressed = True
        if not progressed:
            covers.csc_conflict = True
            return covers, walks


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
def _random_parts(rng: random.Random, nvars: int, pool: List[int]) -> List[CoverPart]:
    parts = []
    for _ in range(rng.randint(0, 5)):
        cubes = []
        for _ in range(rng.randint(0, 4)):
            ones = zeros = 0
            for var in rng.sample(pool, rng.randint(0, min(len(pool), 5))):
                if rng.random() < 0.5:
                    ones |= 1 << var
                else:
                    zeros |= 1 << var
            cubes.append(Cube(nvars, ones, zeros))
        parts.append(CoverPart("mr", None, None, Cover(nvars, cubes)))
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


def test_bit_sliced_check_on_empty_covers_and_part_lists():
    nvars = 65
    empty = CoverPart("mr", None, None, Cover(nvars))
    universe = CoverPart("mr", None, None, Cover.universe(nvars))
    assert _offending_parts(ApproxSignalCovers("x", [], [], nvars)) == []
    assert _offending_parts(ApproxSignalCovers("x", [universe], [], nvars)) == []
    assert _offending_parts(ApproxSignalCovers("x", [], [universe], nvars)) == []
    assert _offending_parts(ApproxSignalCovers("x", [empty], [universe], nvars)) == []
    other = CoverPart("mr", None, None, Cover.universe(nvars))
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
            part.cover = _restrict_part(segment, part)
        assert _same_parts(_offending_parts(covers), reference_offending_parts(covers)), signal


# ---------------------------------------------------------------------- #
# (b) refinement == the reference flow, cube for cube
# ---------------------------------------------------------------------- #
def _cubes(parts: List[CoverPart]):
    return [[(cube.ones, cube.zeros) for cube in part.cover] for part in parts]


@pytest.mark.parametrize("name, build", TABLE1 + FIG6, ids=_ids(TABLE1 + FIG6))
def test_refinement_matches_reference_flow(name, build):
    stg = _from_g_text(name, build)
    segment = unfold(stg)
    for signal in stg.implementable_signals:
        fast = refine_signal_covers(segment, approximate_signal_covers(segment, signal))
        slow, walks = reference_refine(segment, approximate_signal_covers(segment, signal))
        assert _cubes(fast.on_parts) == _cubes(slow.on_parts), signal
        assert _cubes(fast.off_parts) == _cubes(slow.off_parts), signal
        assert fast.refinement_rounds == slow.refinement_rounds, signal
        assert fast.parts_refined == slow.parts_refined, signal
        assert fast.csc_conflict == slow.csc_conflict, signal
        assert fast.parts_fully_refined == walks, signal
        assert fast.slices_walked <= walks, signal
        # Each continuing round flags some part for the first time.
        parts = len(fast.on_parts) + len(fast.off_parts)
        assert fast.refinement_rounds <= 2 * parts + 1, signal


# ---------------------------------------------------------------------- #
# (c) one walk per slice
# ---------------------------------------------------------------------- #
def test_one_cut_walk_per_slice_on_figure4_example():
    stg = figure4_example()
    segment = unfold(stg)
    result = synthesize_approx_from_unfolding(stg, segment=segment)
    assert result.total_slices_walked == 6
    assert result.total_parts_fully_refined == 12
    assert result.total_cuts_enumerated == 192
    walks = sum(
        reference_refine(segment, approximate_signal_covers(segment, signal))[1]
        for signal in stg.implementable_signals
    )
    assert walks == 12


def test_refine_span_carries_the_refinement_counters():
    stg = muller_pipeline(3)
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
                for condition in segment.conditions:
                    concurrent = [
                        member
                        for member in members
                        if segment.event_co_mask(member) >> condition.cid & 1
                    ]
                    for excluded in ((), concurrent[:1], concurrent[1:]):
                        assert slice_.concurrent_signal_mask_with_condition(
                            condition, excluded
                        ) == reference_concurrent_signal_mask_with_condition(
                            segment, members, condition, excluded
                        )
