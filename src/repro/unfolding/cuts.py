"""Cuts of the STG-unfolding segment and state recovery.

A *cut* is a maximal set of pairwise-concurrent conditions; every cut maps
onto a reachable marking of the STG and -- because the segment is complete --
every reachable marking is the image of at least one cut (Section 3.2).
This module walks the cuts of a finished segment, which is how the *exact*
synthesis path of the paper (Section 4.1) recovers binary states without
ever building the State Graph explicitly.

Everything is packed: a cut is a condition bitmask plus the packed
``(marking_word, code_word)`` state it maps to, firing an event is three
mask operations, and enabling is one AND against the event's preset mask.
A walk indexes the events it may fire by their lowest input condition once,
so a cut tries only the events keyed by one of its own conditions.

Deduplication
-------------
The unrestricted breadth-first walk prunes on the packed **state**
``(marking_word, code_word)`` rather than on cut identity; state-equivalent
cuts reached through different conditions used to be re-explored, which
blows up exponentially on choice-rich nets.  Pruning on states is exact for
segments truncated by the strict McMillan criterion: BFS depth equals
configuration size, so the first cut enqueued for a state belongs to a
*size-minimal* configuration; a size-minimal configuration contains no
cutoff event (the cutoff's companion would give a strictly smaller
same-state configuration), and the unfolder saturates possible extensions
over non-dead conditions, so every transition enabled at the state has an
event instance at that cut -- no successor state is lost.

The argument needs the whole segment walked from the initial cut, so
slice-restricted walks (``allowed_events``) and walks from a caller-supplied
``start`` cut prune on cut identity (the packed condition mask) instead.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..core import iter_set_bits, unpack_code
from ..stg import InconsistentSTGError
from .occurrence_net import Condition, Event
from .unfolder import UnfoldingSegment

__all__ = [
    "Cut",
    "initial_cut",
    "enumerate_cuts",
    "reachable_states",
    "reachable_packed_states",
    "cut_enables",
]


class Cut:
    """A cut together with its marking and binary code, all packed.

    Attributes
    ----------
    condition_mask:
        Bitmask of the cut's condition ids (the cut's canonical identity).
    marking_word:
        Packed marking over original places (bit ``i`` = place ``i`` of the
        segment's place table).
    code_word:
        Packed binary code (bit ``i`` = signal ``i``).

    ``conditions`` / ``marking`` / ``code`` decode those masks on demand.
    """

    __slots__ = ("segment", "condition_mask", "marking_word", "code_word", "_conditions")

    def __init__(
        self,
        segment: UnfoldingSegment,
        condition_mask: int,
        marking_word: int,
        code_word: int,
    ) -> None:
        self.segment = segment
        self.condition_mask = condition_mask
        self.marking_word = marking_word
        self.code_word = code_word
        self._conditions: Optional[Tuple[Condition, ...]] = None

    @property
    def conditions(self) -> Tuple[Condition, ...]:
        """The cut's conditions (decoded from the mask once, then cached)."""
        if self._conditions is None:
            self._conditions = tuple(self.segment.conditions_in(self.condition_mask))
        return self._conditions

    @property
    def marking(self) -> FrozenSet[str]:
        """The cut's marking as original place names."""
        return frozenset(self.segment.place_table.names_in(self.marking_word))

    @property
    def code(self) -> Tuple[int, ...]:
        """The cut's binary code as a tuple in ``stg.signals`` order."""
        return unpack_code(self.code_word, len(self.segment.signal_table))

    @property
    def key(self) -> int:
        """Canonical identity of the cut (the packed condition mask)."""
        return self.condition_mask

    @property
    def state_key(self) -> Tuple[int, int]:
        """The packed state the cut maps to."""
        return (self.marking_word, self.code_word)

    def __repr__(self) -> str:
        return "Cut(%s, code=%s)" % (
            sorted(condition.place for condition in self.conditions),
            "".join(map(str, self.code)),
        )


def initial_cut(segment: UnfoldingSegment) -> Cut:
    """The cut reached by the bottom event (the initial state)."""
    bottom = segment.bottom
    return Cut(
        segment,
        bottom.postset_mask,
        segment.marking_word_of(bottom.postset_mask),
        segment.initial_code_word,
    )


def cut_enables(cut_mask: int, event: Event) -> bool:
    """True if every input condition of the event belongs to the cut mask."""
    preset_mask = event.preset_mask
    return cut_mask & preset_mask == preset_mask


def _index_by_lowest_condition(
    segment: UnfoldingSegment, allowed_events: Optional[Set[int]]
) -> Tuple[Dict[int, List[Event]], int]:
    """The events a walk may fire, keyed by their lowest preset condition.

    Returns the index (events in ``eid`` order, which is the order of every
    condition's consumer list) and the mask of the conditions it keys.  A
    cut then tries only the events whose lowest input condition it holds,
    so each successor is generated once per cut.  The bottom event has no
    preset and never fires.
    """
    events = segment.events
    if allowed_events is not None:
        events = [events[eid] for eid in sorted(allowed_events)]
    index: Dict[int, List[Event]] = {}
    keyed = 0
    for event in events:
        preset_mask = event.preset_mask
        if preset_mask:
            lowest = preset_mask & -preset_mask
            keyed |= lowest
            index.setdefault(lowest.bit_length() - 1, []).append(event)
    return index, keyed


def enumerate_cuts(
    segment: UnfoldingSegment,
    allowed_events: Optional[Set[int]] = None,
    start: Optional[Cut] = None,
    max_cuts: Optional[int] = None,
) -> Iterator[Cut]:
    """Breadth-first enumeration of the cuts of the segment.

    A full walk from the initial cut yields **one representative cut per
    packed (marking, code) state**, not every cut -- state-equivalent cuts
    reached through different conditions are pruned (exactly, see the
    module docstring).  A walk given ``allowed_events`` or ``start`` prunes
    on cut identity (the packed condition mask) and yields every cut it
    reaches: the exactness argument needs BFS depth to equal configuration
    size, which only holds from the initial cut over the whole segment.

    Parameters
    ----------
    allowed_events:
        When given, only events with these ids are fired (used by the slice
        machinery to stay inside a slice).
    start:
        Starting cut; defaults to the initial cut.
    max_cuts:
        Optional safety bound.
    """
    by_state = allowed_events is None and start is None

    first = start if start is not None else initial_cut(segment)
    by_lowest, keyed = _index_by_lowest_condition(segment, allowed_events)

    queue = deque([first])
    seen: Set[object] = {first.state_key if by_state else first.condition_mask}
    produced = 0
    while queue:
        cut = queue.popleft()
        yield cut
        produced += 1
        if max_cuts is not None and produced >= max_cuts:
            return
        cut_mask = cut.condition_mask
        for cid in iter_set_bits(cut_mask & keyed):
            for event in by_lowest[cid]:
                preset_mask = event.preset_mask
                if cut_mask & preset_mask != preset_mask:
                    continue
                # Fire the event: three mask operations, and a Cut only for
                # a successor not seen before.
                condition_mask = (cut_mask & ~preset_mask) | event.postset_mask
                marking_word = (
                    cut.marking_word & ~event.preset_place_mask
                ) | event.postset_place_mask
                code_word = cut.code_word
                if event.signal_bit:
                    if event.target_value:
                        code_word |= event.signal_bit
                    else:
                        code_word &= ~event.signal_bit
                key = (marking_word, code_word) if by_state else condition_mask
                if key not in seen:
                    seen.add(key)
                    queue.append(Cut(segment, condition_mask, marking_word, code_word))


def reachable_packed_states(
    segment: UnfoldingSegment, max_cuts: Optional[int] = None
) -> Dict[int, int]:
    """Recover the packed reachable states ``{marking_word: code_word}``.

    By the completeness of the segment this is exactly the state set of the
    State Graph; it is the ground truth the exact synthesis path works from.
    A marking reached with two different binary codes violates consistent
    state assignment and raises :class:`~repro.stg.InconsistentSTGError` --
    it is never silently collapsed, which would mask CSC conflicts
    downstream.
    """
    states: Dict[int, int] = {}
    for cut in enumerate_cuts(segment, max_cuts=max_cuts):
        existing = states.get(cut.marking_word)
        if existing is None:
            states[cut.marking_word] = cut.code_word
        elif existing != cut.code_word:
            nsignals = len(segment.signal_table)
            raise InconsistentSTGError(
                "inconsistent STG: marking {%s} recovered with two codes %s / %s"
                % (
                    ", ".join(sorted(segment.place_table.names_in(cut.marking_word))),
                    "".join(map(str, unpack_code(existing, nsignals))),
                    "".join(map(str, unpack_code(cut.code_word, nsignals))),
                )
            )
    return states


def reachable_states(
    segment: UnfoldingSegment, max_cuts: Optional[int] = None
) -> Dict[FrozenSet[str], Tuple[int, ...]]:
    """Recover the reachable (marking, code) pairs from the segment.

    A decoded view of :func:`reachable_packed_states` (same exactness and
    same :class:`~repro.stg.InconsistentSTGError` on marking/code
    collisions).
    """
    packed = reachable_packed_states(segment, max_cuts=max_cuts)
    names_in = segment.place_table.names_in
    nsignals = len(segment.signal_table)
    return {
        frozenset(names_in(marking_word)): unpack_code(code_word, nsignals)
        for marking_word, code_word in packed.items()
    }
