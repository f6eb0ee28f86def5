"""Slices of the STG-unfolding segment (Section 3.3 of the paper).

A slice ``S = <c_min, C_max>`` represents a connected set of reachable
states: everything between one min-cut and a set of max-cuts.  Synthesis
uses one slice per signal-transition instance:

* for signal ``a``, every instance of ``a+`` (plus the bottom event when the
  signal starts at 1) is the *entry* of an on-set slice that runs from the
  instance's minimal excitation cut up to (but excluding) the states where
  the following ``a-`` instance becomes excited;
* off-set slices are defined symmetrically from ``a-`` instances.

The class below stores the entry event, the ``next`` instances bounding the
slice, and the membership sets (events/conditions belonging to the slice)
that drive both the exact state enumeration (Section 4.1) and the
concurrency-based cover approximation (Section 4.2).  Cuts, codes and
don't-care signal sets are carried packed (condition masks / code words /
signal masks); implied values are answered by mask-ANDing the packed cut
marking against the original net's transition presets, with no per-state
:class:`~repro.petrinet.marking.Marking` allocation.

Membership is one event mask, built from the segment's relation masks:
every event except the bottom, minus the entry's causal past and conflict
set, minus everything at or after a ``next`` instance.  The slice keeps
each signal's instances among its members, so the signals with an instance
concurrent with an event or a condition inside the slice cost one AND per
signal with an instance in the slice (:meth:`Slice.signal_mask_of`).

A slice that runs into a cutoff before the signal fires again has an empty
``next`` set.  The segment's frontier (:attr:`UnfoldingSegment.frontier`)
still shows where the signal would fire next beyond the cutoff; those
pseudo-events are the slice's :attr:`Slice.frontier_boundaries`.  They bound
the cover approximation only: they are not events of the segment, so they
take no part in membership or in cut walks.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional, Set, Tuple

from ..core import iter_set_bits, unpack_code
from ..stg.signals import Direction
from .cuts import Cut, enumerate_cuts
from .occurrence_net import Condition, Event
from .unfolder import FrontierEvent, UnfoldingSegment

__all__ = ["Slice", "on_slices", "off_slices", "slices_for_signal"]


class Slice:
    """One slice of the segment, owned by an entry instance of a signal.

    Attributes
    ----------
    segment:
        The unfolding segment.
    signal:
        The signal whose on-/off-set the slice contributes to.
    phase:
        ``1`` for an on-set slice (entry raises the signal or it is high
        initially) and ``0`` for an off-set slice.
    entry:
        The entry event (an instance of ``a+``/``a-`` or the bottom event).
    next_events:
        The ``next`` same-signal instances bounding the slice.  Empty when
        the signal does not fire again inside the segment after the entry:
        the slice runs into cutoffs or deadlocks.
    frontier_boundaries:
        Only when ``next_events`` is empty: the segment's frontier instances
        of the signal whose causal past holds the entry.  With ``next``
        empty, no later instance of the signal exists to be in that past.
        They are pseudo-events beyond a cutoff, and membership never tests
        against them.
    """

    def __init__(
        self,
        segment: UnfoldingSegment,
        signal: str,
        phase: int,
        entry: Event,
    ) -> None:
        self.segment = segment
        self.signal = signal
        self.phase = phase
        self.entry = entry
        if entry.is_bottom:
            self.next_events = segment.first_instances(signal)
        else:
            self.next_events = segment.next_instances_of_signal(entry, signal)
        self.frontier_boundaries: List[FrontierEvent] = []
        if not self.next_events:
            signal_bit = segment.signal_table.bit(signal)
            self.frontier_boundaries = [
                pseudo
                for pseudo in segment.frontier
                if pseudo.signal_bit == signal_bit and pseudo.past_mask >> entry.eid & 1
            ]
        self._member_mask: Optional[int] = None
        self._member_events: Optional[List[Event]] = None
        self._member_conditions: Optional[List[Condition]] = None
        self._instances: Optional[List[Tuple[int, int]]] = None

    # ------------------------------------------------------------------ #
    # Cuts bounding the slice
    # ------------------------------------------------------------------ #
    @property
    def min_cut_mask(self) -> int:
        """The slice's min-cut as a packed condition mask."""
        return self.segment.minimal_excitation_cut_mask(self.entry)

    @property
    def min_cut(self) -> List[Condition]:
        """The slice's min-cut (minimal excitation cut of the entry)."""
        return self.segment.conditions_in(self.min_cut_mask)

    @property
    def min_code_word(self) -> int:
        """Packed binary code of the min-cut."""
        return self.segment.excitation_code_word(self.entry)

    @property
    def min_code(self) -> Tuple[int, ...]:
        """Binary code of the min-cut."""
        return self.segment.excitation_code(self.entry)

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    @property
    def member_mask(self) -> int:
        """Event mask of the slice's member events.

        An event belongs to the slice when it is not the bottom event, not
        in the causal past of the entry, not in conflict with it, and not at
        or beyond a ``next`` instance of the signal.
        """
        if self._member_mask is None:
            segment = self.segment
            entry = self.entry
            mask = ((1 << segment.num_events) - 1) & ~(1 << segment.bottom.eid)
            if not entry.is_bottom:
                mask &= ~(segment.ancestor_mask_of(entry) | segment.conflict_mask_of(entry))
            for boundary in self.next_events:
                mask &= ~segment.descendant_mask_of(boundary)
            self._member_mask = mask
        return self._member_mask

    def member_events(self) -> List[Event]:
        """Events belonging to the slice, in ``eid`` order (see
        :attr:`member_mask`)."""
        if self._member_events is None:
            events = self.segment.events
            self._member_events = [events[eid] for eid in iter_set_bits(self.member_mask)]
        return self._member_events

    def member_conditions(self) -> List[Condition]:
        """Conditions belonging to the slice and sequential to the entry."""
        if self._member_conditions is not None:
            return self._member_conditions
        segment = self.segment
        entry = self.entry
        # Only conditions *sequential to the entry* participate in the
        # marked-region approximation (Section 4.2).
        sequential = -1 if entry.is_bottom else segment.descendant_mask_of(entry)
        # The conditions come in the iteration order of this set of event
        # ids: it fixes the order of the cover's parts, which espresso's
        # result depends on.
        member_event_ids = set(iter_set_bits(self.member_mask))
        member_event_ids.add(entry.eid)
        conditions: List[Condition] = []
        for event_id in member_event_ids:
            if sequential >> event_id & 1:
                conditions.extend(segment.events[event_id].postset)
        self._member_conditions = conditions
        return conditions

    def signal_mask_of(self, events: int) -> int:
        """Signal mask of the signals with an instance among some member
        events: one AND per signal with an instance in the slice."""
        if self._instances is None:
            member = self.member_mask
            self._instances = [
                (signal_bit, instances & member)
                for signal_bit, instances in self.segment.instance_masks().items()
                if instances & member
            ]
        signal_mask = 0
        for signal_bit, instances in self._instances:
            if instances & events:
                signal_mask |= signal_bit
        return signal_mask

    def concurrent_signal_mask_with_event(self, event: Event) -> int:
        """Signal mask of slice instances concurrent to the given event."""
        return self.signal_mask_of(
            self.member_mask & self.segment.events_concurrent_with_event(event)
        )

    # ------------------------------------------------------------------ #
    # Exact state enumeration (Section 4.1)
    # ------------------------------------------------------------------ #
    def allowed_event_ids(self) -> Set[int]:
        """Events that may fire while staying inside the slice."""
        return set(iter_set_bits(self.member_mask | (1 << self.entry.eid)))

    def cuts(self) -> Iterator[Cut]:
        """Enumerate the cuts encapsulated by the slice."""
        segment = self.segment
        mask = self.min_cut_mask
        start = Cut(
            segment,
            mask,
            segment.marking_word_of(mask),
            self.min_code_word,
        )
        return enumerate_cuts(
            segment, allowed_events=self.allowed_event_ids(), start=start
        )

    def packed_states(self) -> List[Tuple[int, int]]:
        """Packed ``(marking_word, code_word)`` states of the slice.

        The slice enumeration may reach cuts where the *next* instance of the
        signal is already excited (those belong to the opposite set); they
        are filtered out by evaluating the implied value of the signal on the
        original net, which also handles slices bounded by cutoffs.
        """
        segment = self.segment
        signal = self.signal
        phase = self.phase
        implied = segment.implied_value_word
        result: List[Tuple[int, int]] = []
        seen: Set[Tuple[int, int]] = set()
        for cut in self.cuts():
            state = (cut.marking_word, cut.code_word)
            if state in seen:
                continue
            seen.add(state)
            if implied(cut.marking_word, cut.code_word, signal) == phase:
                result.append(state)
        return result

    def states(self) -> List[Tuple[FrozenSet[str], Tuple[int, ...]]]:
        """States (marking, code) of the slice with the correct implied value."""
        segment = self.segment
        names_in = segment.place_table.names_in
        nsignals = len(segment.signal_table)
        return [
            (frozenset(names_in(marking_word)), unpack_code(code_word, nsignals))
            for marking_word, code_word in self.packed_states()
        ]

    def __repr__(self) -> str:
        return "Slice(signal=%r, phase=%d, entry=%s, next=%d)" % (
            self.signal,
            self.phase,
            self.entry,
            len(self.next_events),
        )


def slices_for_signal(
    segment: UnfoldingSegment, signal: str, phase: int
) -> List[Slice]:
    """All slices contributing to the on-set (phase=1) or off-set (phase=0)."""
    wanted_direction = Direction.PLUS if phase == 1 else Direction.MINUS
    entries: List[Event] = [
        event
        for event in segment.events_of_signal(signal)
        if event.label.direction is wanted_direction
    ]
    initial_value = segment.initial_code_word >> segment.stg.signal_index(signal) & 1
    slices = [Slice(segment, signal, phase, entry) for entry in entries]
    if initial_value == phase:
        slices.insert(0, Slice(segment, signal, phase, segment.bottom))
    return slices


def on_slices(segment: UnfoldingSegment, signal: str) -> List[Slice]:
    """On-set slice partitioning of the segment for a signal."""
    return slices_for_signal(segment, signal, 1)


def off_slices(segment: UnfoldingSegment, signal: str) -> List[Slice]:
    """Off-set slice partitioning of the segment for a signal."""
    return slices_for_signal(segment, signal, 0)
