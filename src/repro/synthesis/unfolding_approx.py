"""Approximate synthesis from the STG-unfolding segment (Sections 4.2/4.3).

This is the paper's main contribution.  For every implementable signal the
on-set and off-set are approximated slice by slice without enumerating
states:

* the **excitation-region approximation** of a slice is the binary code of
  the entry instance's minimal excitation cut with every signal that has a
  concurrent instance inside the slice replaced by a don't-care;
* the **marked-region approximations** cover the rest of the slice: one cube
  per condition of the slice (sequential to the entry), again substituting
  don't-cares for concurrent-in-slice signals; conditions feeding the *next*
  instance of the signal get the restricted covers of the paper so that the
  approximation does not bleed into the opposite excitation region.  A
  slice that runs into a cutoff before the signal fires again has no
  ``next`` instance; its frontier boundaries (the instances the unfolder
  dropped past the cutoff, :attr:`~repro.unfolding.Slice.frontier_boundaries`)
  take their place.

The approximations over-cover their slices by construction (no state is
lost), so the only thing that can go wrong is that the on- and off-set
approximations intersect.  When they do, the offending approximations are
**refined**, in rounds of two tiers:

1. a marked-region part is intersected with the restricted cover of its
   condition against every ``next`` instance of its slice (no state
   enumeration);
2. following the paper's observation that complete refinement "restores the
   exact covers", a part that still offends has its cube replaced by the
   exact cover of the states of its slice in which its element is active
   (marked / enabled), obtained from a slice-local cut traversal.

If, after every offending element has been fully refined, the covers still
intersect, the specification has a CSC conflict (Section 4.3).

How refinement is computed
--------------------------
No step is repeated, and no cube differs from the direct definitions:

* The offending parts are found without comparing every on/off pair.  For
  each variable, an int mask holds the off-cubes that fix it to 1 and
  another those that fix it to 0; the off-cubes disjoint from an on-cube are
  the OR of the masks opposite its literals, so each on-cube costs O(nvars)
  int operations.
* Tier 1 restricts against the frontier boundaries where a slice has no
  ``next`` instance.  On the CSC-clean Table 1 specs and the Figure 6
  pipelines no part then reaches tier 2; tier 2 still proves every CSC
  conflict.
* Tier 2 groups the still-offending parts by slice and walks each slice's
  cuts once, testing every part's element against each cut.
* The don't-care signals of a part cost one AND per signal: a slice's
  members are one event mask, and the segment keeps per condition the mask
  of the events concurrent with it.
* Every round that continues sets ``restricted`` or ``refined`` on some part
  for the first time, so refinement ends within ``2 * |parts| + 1`` rounds
  without a cap.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..boolean import BooleanFunction, Cover, Cube, espresso, minterm_cover
from ..core import iter_set_bits
from ..obs import current_tracer
from ..stg import STG
from ..unfolding import (
    Condition,
    Event,
    FrontierEvent,
    Slice,
    UnfoldingSegment,
    off_slices,
    on_slices,
    unfold,
)
from .netlist import Gate, Implementation

Element = Union[Event, Condition]
Boundary = Union[Event, FrontierEvent]

__all__ = [
    "CoverPart",
    "ApproxSignalCovers",
    "approximate_signal_covers",
    "ApproxUnfoldingSynthesisResult",
    "synthesize_approx_from_unfolding",
]


class CoverPart:
    """One contribution to an approximated cover.

    A part is either the excitation-region approximation of a slice (kind
    ``"er"``, element = entry event) or the marked-region approximation of
    one condition of the slice (kind ``"mr"``).
    """

    def __init__(self, kind: str, slice_: Slice, element: Element, cover: Cover) -> None:
        self.kind = kind
        self.slice = slice_
        self.element = element
        self.cover = cover
        self.restricted = False
        self.refined = False

    def __repr__(self) -> str:
        return "CoverPart(%s, %s, cubes=%d%s)" % (
            self.kind,
            self.element,
            len(self.cover),
            ", refined" if self.refined else "",
        )


class ApproxSignalCovers:
    """Approximated (and possibly refined) covers of one signal.

    Refinement statistics: ``refinement_rounds`` counts the rounds that
    found offending parts, ``parts_refined`` the parts either tier changed,
    ``parts_fully_refined`` those the second tier replaced by exact covers,
    ``slices_walked`` the slice cut walks that took, and ``cuts_enumerated``
    the cuts those walks visited.
    """

    def __init__(
        self,
        signal: str,
        on_parts: List[CoverPart],
        off_parts: List[CoverPart],
        nvars: int,
    ) -> None:
        self.signal = signal
        self.on_parts = on_parts
        self.off_parts = off_parts
        self.nvars = nvars
        self.refinement_rounds = 0
        self.parts_refined = 0
        self.parts_fully_refined = 0
        self.slices_walked = 0
        self.cuts_enumerated = 0
        self.csc_conflict = False

    @property
    def on_cover(self) -> Cover:
        return _union_cover(self.nvars, self.on_parts)

    @property
    def off_cover(self) -> Cover:
        return _union_cover(self.nvars, self.off_parts)

    def __repr__(self) -> str:
        return (
            "ApproxSignalCovers(%r, on_parts=%d, off_parts=%d, rounds=%d, "
            "refined=%d, csc=%s)"
            % (
                self.signal,
                len(self.on_parts),
                len(self.off_parts),
                self.refinement_rounds,
                self.parts_refined,
                self.csc_conflict,
            )
        )


def _union_cover(nvars: int, parts: Sequence[CoverPart]) -> Cover:
    cover = Cover.empty(nvars)
    for part in parts:
        cover.extend(part.cover)
    return cover.single_cube_containment()


# ---------------------------------------------------------------------- #
# Initial approximation (Section 4.2)
# ---------------------------------------------------------------------- #
def _cube_from_word(nvars: int, code_word: int, dont_care_mask: int) -> Cube:
    """Cube of a packed code with a signal mask turned into don't-cares."""
    care = ((1 << nvars) - 1) & ~dont_care_mask
    return Cube(nvars, code_word & care, ~code_word & care)


def _er_part(stg: STG, slice_: Slice) -> Optional[CoverPart]:
    """Excitation-region cover approximation ``C*_e`` of a slice."""
    entry = slice_.entry
    if entry.is_bottom:
        # The paper: the ER cover may be empty when the entry transition is
        # the initial transition of the segment; the marked-region covers of
        # the initial conditions take over.
        return None
    nvars = len(stg.signals)
    signal_bit = slice_.segment.signal_table.bit(slice_.signal)
    dont_care = slice_.concurrent_signal_mask_with_event(entry) & ~signal_bit
    cube = _cube_from_word(nvars, slice_.min_code_word, dont_care)
    return CoverPart("er", slice_, entry, Cover(nvars, [cube]))


def _boundaries(slice_: Slice) -> List[Boundary]:
    """The instances that bound a slice's covers: its ``next`` instances,
    or its frontier boundaries when the slice runs into a cutoff first."""
    return slice_.next_events or slice_.frontier_boundaries


def _restricted_mr_cover(
    stg: STG, slice_: Slice, condition: Condition, boundaries: Sequence[Boundary]
) -> Cover:
    """Marked-region approximation of a condition restricted by boundary events.

    For every boundary event (an instance from ``next``, or a frontier
    pseudo-event beyond a cutoff) the returned cover keeps at least one of
    the boundary's trigger signals at its pre-firing value, so the cover
    cannot reach markings that enable the boundary.  This is the paper's
    restricted-cover construction (Section 4.2), also reused as the first
    refinement step (Section 4.3).
    """
    segment = slice_.segment
    nvars = len(stg.signals)
    signal_bit = segment.signal_table.bit(slice_.signal)
    producer = condition.producer
    base_code = producer.code_word
    base_config = segment.ancestor_mask_of(producer)
    cubes: List[Cube] = []
    for boundary in boundaries:
        # A trigger can only "hold the boundary back" if it is a labelled
        # instance that has not yet fired at the state the base code
        # describes; keeping its signal at the pre-firing value then excludes
        # every marking that enables the boundary.
        usable_triggers = [
            c.producer
            for c in boundary.preset
            if c.producer is not producer
            and c.producer.label is not None
            and not base_config >> c.producer.eid & 1
        ]
        if usable_triggers:
            for trigger in usable_triggers:
                dont_care = slice_.concurrent_signal_mask_with_condition(
                    condition, exclude_events=[trigger]
                ) & ~signal_bit
                cubes.append(_cube_from_word(nvars, base_code, dont_care))
            continue
        # No usable trigger.  If every input condition of the boundary is
        # already produced at the base state and can only be consumed by the
        # boundary itself, then whenever this condition is marked the
        # boundary is either enabled or has fired -- the condition cannot
        # contribute any state of this phase and is dropped.  Otherwise keep
        # the unrestricted cube (coverage first; refinement may tighten it).
        always_enabled = all(
            base_config >> c.producer.eid & 1 and len(c.consumers) == 1
            for c in boundary.preset
        )
        if not always_enabled:
            dont_care = slice_.concurrent_signal_mask_with_condition(condition)
            dont_care &= ~signal_bit
            cubes.append(_cube_from_word(nvars, base_code, dont_care))
    cover = Cover(nvars, [])
    for cube in cubes:
        cover.add(cube)
    return cover


def _mr_part(stg: STG, slice_: Slice, condition: Condition) -> CoverPart:
    """Marked-region cover approximation ``C*_mr`` of one slice condition."""
    nvars = len(stg.signals)
    feeding = [g for g in _boundaries(slice_) if condition in g.preset]
    if not feeding:
        signal_bit = slice_.segment.signal_table.bit(slice_.signal)
        dont_care = slice_.concurrent_signal_mask_with_condition(condition)
        dont_care &= ~signal_bit
        cube = _cube_from_word(nvars, condition.producer.code_word, dont_care)
        return CoverPart("mr", slice_, condition, Cover(nvars, [cube]))
    cover = _restricted_mr_cover(stg, slice_, condition, feeding)
    return CoverPart("mr", slice_, condition, cover)


def approximate_signal_covers(
    segment: UnfoldingSegment, signal: str
) -> ApproxSignalCovers:
    """Build the initial on-/off-set cover approximations of a signal."""
    stg = segment.stg
    nvars = len(stg.signals)
    on_parts: List[CoverPart] = []
    off_parts: List[CoverPart] = []
    for phase, target in ((1, on_parts), (0, off_parts)):
        slices = on_slices(segment, signal) if phase == 1 else off_slices(segment, signal)
        for slice_ in slices:
            er = _er_part(stg, slice_)
            if er is not None:
                target.append(er)
            for condition in slice_.member_conditions():
                target.append(_mr_part(stg, slice_, condition))
    return ApproxSignalCovers(signal, on_parts, off_parts, nvars)


# ---------------------------------------------------------------------- #
# Refinement (Section 4.3)
# ---------------------------------------------------------------------- #
def _refine_exactly(
    segment: UnfoldingSegment, parts: Sequence[CoverPart], covers: ApproxSignalCovers
) -> None:
    """Second refinement tier: replace every part's cover by its exact cover.

    A part's exact cover holds the codes of the slice states where the
    part's element is active (condition marked / event enabled) and the
    signal has the slice's implied value -- the limit of the paper's
    refinement procedure.  The parts are grouped by slice, and each slice's
    cuts are walked once for the whole group: a condition element is found
    among the cut's own bits, an event element by a preset test.
    """
    by_slice: Dict[Slice, List[CoverPart]] = {}
    for part in parts:
        by_slice.setdefault(part.slice, []).append(part)
    implied = segment.implied_value_word
    for slice_, group in by_slice.items():
        by_condition: Dict[int, List[int]] = {}
        by_preset: List[Tuple[int, int]] = []
        watched = 0
        for index, part in enumerate(group):
            element = part.element
            if isinstance(element, Condition):
                by_condition.setdefault(element.cid, []).append(index)
                watched |= 1 << element.cid
            else:
                by_preset.append((element.preset_mask, index))
        codes: List[Set[int]] = [set() for _ in group]
        signal, phase = slice_.signal, slice_.phase
        walked = 0
        for cut in slice_.cuts():
            walked += 1
            cut_mask = cut.condition_mask
            active = [
                index
                for cid in iter_set_bits(cut_mask & watched)
                for index in by_condition[cid]
            ]
            active.extend(
                index for preset_mask, index in by_preset if cut_mask & preset_mask == preset_mask
            )
            if not active or implied(cut.marking_word, cut.code_word, signal) != phase:
                continue
            for index in active:
                codes[index].add(cut.code_word)
        covers.slices_walked += 1
        covers.cuts_enumerated += walked
        for part, part_codes in zip(group, codes):
            part.cover = minterm_cover(covers.nvars, part_codes)
            part.refined = True
        covers.parts_refined += len(group)
        covers.parts_fully_refined += len(group)


def _restrict_part(segment: UnfoldingSegment, part: CoverPart) -> Cover:
    """First refinement tier: apply the restricted-cover construction.

    The offending part's cover is intersected with the restricted
    marked-region cover of its own element with respect to *all* boundaries
    of the slice (its ``next`` instances, or its frontier boundaries).  This
    keeps, for every boundary instance, at least one trigger signal at its
    pre-firing value, which removes the states of the opposite excitation
    region from the approximation without enumerating any cuts.
    """
    stg = segment.stg
    slice_ = part.slice
    boundaries = _boundaries(slice_)
    if not boundaries:
        return part.cover
    if not isinstance(part.element, Condition):
        # Excitation-region parts are left untouched by this tier: the entry
        # has not fired in any state they represent, so a boundary instance
        # (which causally follows the entry) cannot be enabled there.
        return part.cover
    restricted = _restricted_mr_cover(stg, slice_, part.element, boundaries)
    if restricted.is_empty():
        # The condition cannot contribute any state of this phase (every
        # marking of it enables the boundary or lies past it); drop it.
        return restricted
    return part.cover.intersect(restricted).single_cube_containment()


def refine_signal_covers(
    segment: UnfoldingSegment,
    covers: ApproxSignalCovers,
) -> ApproxSignalCovers:
    """Refine approximated covers until on/off intersection becomes empty.

    Only the offending parts (those whose cubes intersect a cube of the
    opposite cover) are refined, which is the locality argument of the paper.
    Refinement proceeds in two tiers:

    1. the cheap restricted-cover tier (no state enumeration), which removes
       the opposite excitation region from the offending approximation;
    2. full refinement of the still-offending parts: the part's cover is
       replaced by the exact codes of the slice states where its element is
       active -- the limit of the paper's iterative procedure.

    When every offending part is fully refined and the covers still
    intersect, the signal has a CSC conflict (Section 4.3).  Every round
    that continues marks some part ``restricted`` or ``refined`` for the
    first time, so the loop ends on its own.
    """
    with current_tracer().span("refine", signal=covers.signal) as span:
        while True:
            offending = _offending_parts(covers)
            if not offending:
                break
            covers.refinement_rounds += 1
            progressed = False
            # Tier 1: restricted covers (cheap, no state enumeration).
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
            # Tier 2: full refinement of the still-offending parts.
            unrefined = [part for part in offending if not part.refined]
            if not unrefined:
                covers.csc_conflict = True
                break
            _refine_exactly(segment, unrefined, covers)
        if span.live:
            span.gauge("refinement_rounds", covers.refinement_rounds)
            span.gauge("parts_refined", covers.parts_refined)
            span.gauge("parts_fully_refined", covers.parts_fully_refined)
            span.gauge("slices_walked", covers.slices_walked)
            span.gauge("cuts_enumerated", covers.cuts_enumerated)
    return covers


def _offending_parts(covers: ApproxSignalCovers) -> List[CoverPart]:
    """Parts whose cover intersects some part of the opposite cover.

    Bit-sliced over the off-cubes: bit ``k`` of ``fixes_one[v]`` (of
    ``fixes_zero[v]``) is set when off-cube ``k`` fixes variable ``v`` to 1
    (to 0).  An on-cube is disjoint from exactly the off-cubes that fix one
    of its variables to the opposite value, so the off-cubes it meets are
    the complement of an OR over its literals.  The on parts come first,
    then the off parts, each in cover order.
    """
    nvars = covers.nvars
    fixes_one = [0] * nvars
    fixes_zero = [0] * nvars
    off_masks: List[int] = []
    bit = 1
    for part in covers.off_parts:
        first = bit
        for cube in part.cover:
            for var in iter_set_bits(cube.ones):
                fixes_one[var] |= bit
            for var in iter_set_bits(cube.zeros):
                fixes_zero[var] |= bit
            bit <<= 1
        off_masks.append(bit - first)  # bits first .. bit-1: the part's cubes
    every_off = bit - 1
    offending: List[CoverPart] = []
    met = 0
    for part in covers.on_parts:
        part_met = 0
        for cube in part.cover:
            disjoint = 0
            for var in iter_set_bits(cube.ones):
                disjoint |= fixes_zero[var]
            for var in iter_set_bits(cube.zeros):
                disjoint |= fixes_one[var]
            part_met |= every_off & ~disjoint
        if part_met:
            offending.append(part)
            met |= part_met
    offending.extend(
        part for part, mask in zip(covers.off_parts, off_masks) if mask & met
    )
    return offending


# ---------------------------------------------------------------------- #
# Full synthesis flow
# ---------------------------------------------------------------------- #
class ApproxUnfoldingSynthesisResult:
    """Implementation, timing breakdown and refinement statistics."""

    def __init__(
        self,
        implementation: Implementation,
        segment: UnfoldingSegment,
        unfold_time: float,
        cover_time: float,
        minimize_time: float,
        signal_covers: Dict[str, ApproxSignalCovers],
    ) -> None:
        self.implementation = implementation
        self.segment = segment
        self.unfold_time = unfold_time
        self.cover_time = cover_time
        self.minimize_time = minimize_time
        self.signal_covers = signal_covers

    @property
    def total_time(self) -> float:
        return self.unfold_time + self.cover_time + self.minimize_time

    @property
    def total_refinement_rounds(self) -> int:
        return sum(c.refinement_rounds for c in self.signal_covers.values())

    @property
    def total_parts_refined(self) -> int:
        return sum(c.parts_refined for c in self.signal_covers.values())

    @property
    def total_parts_fully_refined(self) -> int:
        return sum(c.parts_fully_refined for c in self.signal_covers.values())

    @property
    def total_slices_walked(self) -> int:
        return sum(c.slices_walked for c in self.signal_covers.values())

    @property
    def total_cuts_enumerated(self) -> int:
        return sum(c.cuts_enumerated for c in self.signal_covers.values())

    def __repr__(self) -> str:
        return (
            "ApproxUnfoldingSynthesisResult(literals=%d, total=%.3fs, "
            "refined_parts=%d)"
            % (
                self.implementation.total_literals,
                self.total_time,
                self.total_parts_refined,
            )
        )


def synthesize_approx_from_unfolding(
    stg: STG,
    segment: Optional[UnfoldingSegment] = None,
    architecture: str = "acg",
    raise_on_csc: bool = False,
) -> ApproxUnfoldingSynthesisResult:
    """Synthesise every implementable signal with the approximate method.

    This is the flow the paper's PUNT-ACG column measures: unfolding
    construction (``unfold_time``), cover approximation + refinement
    (``cover_time``, the paper's "SynTim") and two-level minimisation
    (``minimize_time``, the paper's "EspTim").
    """
    if architecture != "acg":
        raise ValueError(
            "the approximate flow implements the atomic-complex-gate-per-signal "
            "architecture; use the exact or SG flows for %r" % architecture
        )
    t0 = time.perf_counter()
    if segment is None:
        segment = unfold(stg)
    unfold_time = time.perf_counter() - t0

    signals = stg.signals
    implementation = Implementation(stg.name, architecture, signals)
    signal_covers: Dict[str, ApproxSignalCovers] = {}
    cover_time = 0.0
    minimize_time = 0.0

    for signal in stg.implementable_signals:
        t1 = time.perf_counter()
        covers = approximate_signal_covers(segment, signal)
        covers = refine_signal_covers(segment, covers)
        signal_covers[signal] = covers
        cover_time += time.perf_counter() - t1

        if covers.csc_conflict:
            if raise_on_csc:
                raise ValueError("CSC conflict on signal %r" % signal)
            implementation.csc_conflicts.append(signal)
            continue

        t2 = time.perf_counter()
        on_cover = covers.on_cover
        off_cover = covers.off_cover
        # Expansion is blocked by the off-set approximation directly; the
        # (implicit) DC-set is everything outside the two approximations.
        minimized = espresso(on_cover, off=off_cover).cover
        minimize_time += time.perf_counter() - t2
        implementation.add_gate(
            Gate(signal, architecture, function=BooleanFunction(signals, minimized))
        )

    return ApproxUnfoldingSynthesisResult(
        implementation=implementation,
        segment=segment,
        unfold_time=unfold_time,
        cover_time=cover_time,
        minimize_time=minimize_time,
        signal_covers=signal_covers,
    )
