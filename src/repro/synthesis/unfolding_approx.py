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

* A part's cubes are a tuple of ``(ones, zeros)`` mask pairs.  Tier 1's
  intersection and single-cube containment run on the pairs, with
  :class:`~repro.boolean.Cover`'s ordering and duplicate rules
  (:func:`~repro.boolean.cover.intersect_pairs`,
  :func:`~repro.boolean.cover.single_cube_containment_pairs`); one
  :class:`~repro.boolean.Cover` per cover is built, for espresso.
* Each slice computes a member condition's concurrent member events and
  their signal mask once (one AND per signal with an instance in the
  slice).  A restricted cube leaves one trigger event out of them: its
  signal's bit is cleared only when no other of those events is an
  instance of the signal, one more AND.  The restricted cubes of a
  (condition, boundary) pair are built once, for the approximation and
  again for tier 1.  These per-slice caches live only while one signal's
  covers are built.
* The entry's excitation code, which the excitation-region cube starts
  from, is the entry's own code with its signal reverted; the unfolder
  computed that code without walking the entry's local configuration.
* The offending parts are found without comparing every on/off pair.
  Each off-cube is one column of bit slices (per variable, an int holds
  the columns that fix it to 1 and another those that fix it to 0), so
  the columns an on-cube meets are the complement of an OR over its
  literals.  A later round slices only the off parts tier 1 changed.
* Tier 1 restricts against the frontier boundaries where a slice has no
  ``next`` instance.  On the CSC-clean Table 1 specs and the Figure 6
  pipelines no part then reaches tier 2; tier 2 still proves every CSC
  conflict.
* Tier 2 groups the still-offending parts by slice and walks each slice's
  cuts once, testing every part's element against each cut.
* Every round that continues sets ``restricted`` or ``refined`` on some part
  for the first time, so refinement ends within ``2 * |parts| + 1`` rounds
  without a cap.

The object-based versions these replaced are the oracles of
``tests/oracles.py``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..boolean import BooleanFunction, Cover, espresso
from ..boolean.cover import Pair, intersect_pairs, single_cube_containment_pairs
from ..boolean.slices import CubeSlices
from ..core import iter_set_bits
from ..obs import current_tracer
from ..stg import STG, CSCConflictError
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
    "refine_signal_covers",
    "ApproxUnfoldingSynthesisResult",
    "synthesize_approx_from_unfolding",
]


class CoverPart:
    """One contribution to an approximated cover.

    A part is either the excitation-region approximation of a slice (kind
    ``"er"``, element = entry event) or the marked-region approximation of
    one condition of the slice (kind ``"mr"``).  Its cubes are ``pairs``, a
    tuple of ``(ones, zeros)`` masks with no repeats, which refinement
    replaces.  :attr:`cover` builds them into a :class:`Cover`.
    """

    __slots__ = ("kind", "slice", "element", "nvars", "pairs", "restricted", "refined")

    def __init__(
        self, kind: str, slice_: Slice, element: Element, nvars: int, pairs: Tuple[Pair, ...]
    ) -> None:
        self.kind = kind
        self.slice = slice_
        self.element = element
        self.nvars = nvars
        self.pairs = pairs
        self.restricted = False
        self.refined = False

    @property
    def cover(self) -> Cover:
        return Cover.from_mask_pairs(self.nvars, self.pairs)

    def __repr__(self) -> str:
        return "CoverPart(%s, %s, cubes=%d%s)" % (
            self.kind,
            self.element,
            len(self.pairs),
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
        # While the covers are built: each slice's cubes (_SliceCubes) and
        # the offending check's slices of the last round.
        self._slices: Dict[Slice, "_SliceCubes"] = {}
        self._check: Optional["_OffendingCheck"] = None

    def _slice_cubes(self, slice_: Slice) -> "_SliceCubes":
        cubes = self._slices.get(slice_)
        if cubes is None:
            cubes = self._slices[slice_] = _SliceCubes(slice_, self.nvars)
        return cubes

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
    """The parts' cubes, first occurrence kept, under single-cube
    containment."""
    pairs = list(dict.fromkeys(pair for part in parts for pair in part.pairs))
    return Cover.from_mask_pairs(nvars, single_cube_containment_pairs(pairs))


# ---------------------------------------------------------------------- #
# Initial approximation (Section 4.2)
# ---------------------------------------------------------------------- #
def _boundaries(slice_: Slice) -> List[Boundary]:
    """The instances that bound a slice's covers: its ``next`` instances,
    or its frontier boundaries when the slice runs into a cutoff first."""
    return slice_.next_events or slice_.frontier_boundaries


class _SliceCubes:
    """The cubes of one slice's parts, with what they share.

    A member condition's concurrent member events and their signal mask are
    computed once (:meth:`concurrent`).  Excluding one trigger event from
    them is then one AND: its signal's bit goes only when no other of those
    events is an instance of the signal.  The restricted cubes of a
    (condition, boundary) pair are built once, for the approximation and
    again for the first refinement tier.
    """

    __slots__ = ("slice", "full", "signal_bit", "boundaries", "feeds", "member",
                 "_co_events", "_instances", "_concurrent", "_restricted")

    def __init__(self, slice_: Slice, nvars: int) -> None:
        segment = slice_.segment
        self.slice = slice_
        self.member = slice_.member_mask
        self._co_events = segment.events_concurrent_with_condition
        self.full = (1 << nvars) - 1
        self.signal_bit = segment.signal_table.bit(slice_.signal)
        self.boundaries = _boundaries(slice_)
        #: the conditions some boundary consumes
        self.feeds = 0
        for boundary in self.boundaries:
            self.feeds |= boundary.preset_mask
        self._instances = segment.instance_masks()
        self._concurrent: Dict[int, Tuple[int, int]] = {}
        #: per boundary, condition id -> the restricted cubes
        self._restricted: List[Dict[int, Tuple[Pair, ...]]] = [{} for _ in self.boundaries]

    def cube(self, code_word: int, dont_care: int) -> Pair:
        """The cube of a packed code with a signal mask turned into
        don't-cares (the slice's own signal always stays a literal)."""
        care = self.full & ~(dont_care & ~self.signal_bit)
        return code_word & care, ~code_word & care

    def concurrent(self, condition: Condition) -> Tuple[int, int]:
        """The member events concurrent to a condition and their signals."""
        masks = self._concurrent.get(condition.cid)
        if masks is None:
            events = self.member & self._co_events(condition)
            masks = self._concurrent[condition.cid] = (events, self.slice.signal_mask_of(events))
        return masks

    def dont_care_without(self, condition: Condition, trigger: Event) -> int:
        """The signals of a condition's concurrent members other than one
        labelled trigger: the trigger's signal goes only when no other of
        them is an instance of it."""
        events, signals = self.concurrent(condition)
        if events & self._instances[trigger.signal_bit] == 1 << trigger.eid:
            return signals & ~trigger.signal_bit
        return signals

    def er_pairs(self) -> Tuple[Pair, ...]:
        """Excitation-region cover approximation ``C*_e`` of the slice."""
        slice_ = self.slice
        dont_care = slice_.concurrent_signal_mask_with_event(slice_.entry)
        return (self.cube(slice_.min_code_word, dont_care),)

    def mr_pairs(self, condition: Condition) -> Tuple[Pair, ...]:
        """Marked-region cover approximation ``C*_mr`` of one condition:
        restricted by the boundaries that consume it, if any."""
        if self.feeds >> condition.cid & 1:
            bit = 1 << condition.cid
            return self.restricted(
                condition,
                [
                    index
                    for index, boundary in enumerate(self.boundaries)
                    if boundary.preset_mask & bit
                ],
            )
        return (self.cube(condition.producer.code_word, self.concurrent(condition)[1]),)

    def restricted(self, condition: Condition, indices: Sequence[int]) -> Tuple[Pair, ...]:
        """Marked-region approximation of a condition restricted by the
        boundaries at ``indices``, repeats dropped in order."""
        groups = []
        for index in indices:
            known = self._restricted[index]
            cubes = known.get(condition.cid)
            if cubes is None:
                cubes = known[condition.cid] = self._restrict(condition, self.boundaries[index])
            groups.append(cubes)
        if len(groups) == 1:
            return groups[0]
        return tuple(dict.fromkeys(pair for cubes in groups for pair in cubes))

    def _restrict(self, condition: Condition, boundary: Boundary) -> Tuple[Pair, ...]:
        """The restricted cubes of a condition against one boundary event.

        For a boundary event (an instance from ``next``, or a frontier
        pseudo-event beyond a cutoff) the cubes keep at least one of the
        boundary's trigger signals at its pre-firing value, so they cannot
        reach markings that enable the boundary.  This is the paper's
        restricted-cover construction (Section 4.2), also reused as the
        first refinement step (Section 4.3).
        """
        producer = condition.producer
        base_code = producer.code_word
        base_config = producer.local_config_mask
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
            cubes = [
                self.cube(base_code, self.dont_care_without(condition, trigger))
                for trigger in usable_triggers
            ]
            return tuple(dict.fromkeys(cubes))
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
        return () if always_enabled else (self.cube(base_code, self.concurrent(condition)[1]),)


def approximate_signal_covers(
    segment: UnfoldingSegment, signal: str
) -> ApproxSignalCovers:
    """Build the initial on-/off-set cover approximations of a signal.

    The covers keep each slice's cubes (restricted cubes included) for the
    first refinement tier until :func:`refine_signal_covers` runs on them;
    covers that are never refined keep them.
    """
    nvars = len(segment.stg.signals)
    covers = ApproxSignalCovers(signal, [], [], nvars)
    with current_tracer().span("approximate", signal=signal) as span:
        slices = 0
        for phase, target in ((1, covers.on_parts), (0, covers.off_parts)):
            for slice_ in on_slices(segment, signal) if phase == 1 else off_slices(segment, signal):
                slices += 1
                cubes = covers._slice_cubes(slice_)
                entry = slice_.entry
                # The paper: the ER cover may be empty when the entry
                # transition is the initial transition of the segment; the
                # marked-region covers of the initial conditions take over.
                if not entry.is_bottom:
                    target.append(CoverPart("er", slice_, entry, nvars, cubes.er_pairs()))
                for condition in slice_.member_conditions():
                    target.append(
                        CoverPart("mr", slice_, condition, nvars, cubes.mr_pairs(condition))
                    )
        if span.live:
            span.gauge("slices", slices)
            span.gauge("parts", len(covers.on_parts) + len(covers.off_parts))
    return covers


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
    full = (1 << covers.nvars) - 1
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
            part.pairs = tuple((code, full & ~code) for code in sorted(part_codes))
            part.refined = True
        covers.parts_refined += len(group)
        covers.parts_fully_refined += len(group)


def _restrict_part(covers: ApproxSignalCovers, part: CoverPart) -> Tuple[Pair, ...]:
    """First refinement tier: apply the restricted-cover construction.

    The offending part's cubes are intersected with the restricted
    marked-region cubes of its own element with respect to *all* boundaries
    of the slice (its ``next`` instances, or its frontier boundaries).  This
    keeps, for every boundary instance, at least one trigger signal at its
    pre-firing value, which removes the states of the opposite excitation
    region from the approximation without enumerating any cuts.
    """
    if part.kind != "mr":
        # Excitation-region parts are left untouched by this tier: the entry
        # has not fired in any state they represent, so a boundary instance
        # (which causally follows the entry) cannot be enabled there.
        return part.pairs
    cubes = covers._slice_cubes(part.slice)
    if not cubes.boundaries:
        return part.pairs
    restricted = cubes.restricted(part.element, range(len(cubes.boundaries)))
    if not restricted:
        # The condition cannot contribute any state of this phase (every
        # marking of it enables the boundary or lies past it); drop it.
        return restricted
    return tuple(single_cube_containment_pairs(intersect_pairs(part.pairs, restricted)))


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
    first time, so the loop ends on its own.  Each round that runs a tier
    opens a ``restrict`` or ``exact`` child span of the signal's ``refine``
    span.  The per-slice caches are dropped when refinement ends, also when
    it raises.
    """
    tracer = current_tracer()
    with tracer.span("refine", signal=covers.signal) as span:
        try:
            _refine_rounds(segment, covers)
        finally:
            covers._slices = {}
            covers._check = None
        if span.live:
            span.gauge("refinement_rounds", covers.refinement_rounds)
            span.gauge("parts_refined", covers.parts_refined)
            span.gauge("parts_fully_refined", covers.parts_fully_refined)
            span.gauge("slices_walked", covers.slices_walked)
            span.gauge("cuts_enumerated", covers.cuts_enumerated)
    return covers


def _refine_rounds(segment: UnfoldingSegment, covers: ApproxSignalCovers) -> None:
    """The rounds of :func:`refine_signal_covers`, until no part offends
    or every offending part is fully refined."""
    tracer = current_tracer()
    while True:
        offending = _offending_parts(covers)
        if not offending:
            return
        covers.refinement_rounds += 1
        # Tier 1: restricted covers (cheap, no state enumeration).
        fresh = [part for part in offending if not (part.restricted or part.refined)]
        if fresh:
            changed = 0
            with tracer.span("restrict") as tier:
                for part in fresh:
                    part.restricted = True
                    restricted = _restrict_part(covers, part)
                    if restricted != part.pairs and set(restricted) != set(part.pairs):
                        part.pairs = restricted
                        changed += 1
                if tier.live:
                    tier.gauge("parts_restricted", len(fresh))
                    tier.gauge("parts_changed", changed)
            covers.parts_refined += changed
            if changed:
                continue
        # Tier 2: full refinement of the still-offending parts.
        unrefined = [part for part in offending if not part.refined]
        if not unrefined:
            covers.csc_conflict = True
            return
        walked, cuts = covers.slices_walked, covers.cuts_enumerated
        with tracer.span("exact") as tier:
            _refine_exactly(segment, unrefined, covers)
            if tier.live:
                tier.gauge("slices_walked", covers.slices_walked - walked)
                tier.gauge("cuts_enumerated", covers.cuts_enumerated - cuts)


class _OffendingCheck:
    """The off-cubes as bit slices, kept from one refinement round to the
    next.

    Each cube of an off part is one column of
    :class:`~repro.boolean.slices.CubeSlices` (bit ``k`` of ``one[v]`` /
    ``zero[v]`` is set when column ``k`` fixes variable ``v`` to 1 / 0), and
    an off part is the mask of its columns.  Only the off parts whose cubes
    were replaced since the last round are sliced again, as new columns;
    their old columns stay, and ``live``, the OR of the off parts' masks,
    hides them.
    """

    __slots__ = ("slices", "sliced", "bits")

    def __init__(self, nvars: int) -> None:
        self.slices = CubeSlices(nvars, [])
        #: off part -> the cubes it was sliced with, and their columns
        self.sliced: Dict[CoverPart, Tuple[Pair, ...]] = {}
        self.bits: Dict[CoverPart, int] = {}

    def reslice(self, off_parts: Sequence[CoverPart]) -> int:
        """Take in the off parts' current cubes; returns ``live``."""
        sliced, bits = self.sliced, self.bits
        new: List[Pair] = []
        start = self.slices.everything.bit_length()
        live = 0
        for part in off_parts:
            pairs = part.pairs
            if sliced.get(part) is not pairs:
                sliced[part] = pairs
                bits[part] = ((1 << len(pairs)) - 1) << (start + len(new))
                new.extend(pairs)
            live |= bits[part]
        self.slices.append(new)
        return live


def _offending_parts(covers: ApproxSignalCovers) -> List[CoverPart]:
    """Parts whose cover intersects some part of the opposite cover.

    Bit-sliced over the off-cubes (:class:`_OffendingCheck`): an on-cube
    is disjoint from exactly the off-cubes that fix one of its variables to
    the opposite value, so the off-cubes it meets are the complement of an
    OR over its literals.  Between rounds only the off parts whose cubes
    changed are sliced again.  The on parts come first, then the off
    parts, each in cover order.
    """
    check = covers._check
    if check is None:
        check = covers._check = _OffendingCheck(covers.nvars)
    live = check.reslice(covers.off_parts)
    meeting = check.slices.meeting
    offending: List[CoverPart] = []
    met = 0
    for part in covers.on_parts:
        part_met = 0
        for ones, zeros in part.pairs:
            part_met |= meeting(ones, zeros)
        part_met &= live
        if part_met:
            offending.append(part)
            met |= part_met
    bits = check.bits
    offending.extend(part for part in covers.off_parts if bits[part] & met)
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
    (``minimize_time``, the paper's "EspTim").  With ``raise_on_csc`` a
    CSC conflict raises :class:`~repro.stg.CSCConflictError` naming every
    conflicting signal, before any minimisation.
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
            implementation.csc_conflicts.append(signal)
    if implementation.csc_conflicts and raise_on_csc:
        raise CSCConflictError(implementation.csc_conflicts)

    for signal, covers in signal_covers.items():
        if covers.csc_conflict:
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
