"""Occurrence nets: the structural backbone of STG-unfolding segments.

An occurrence net is an acyclic Petri net in which every place (here called a
*condition*) has at most one producer.  The STG-unfolding segment is an
occurrence net whose conditions/events are labelled with places/transitions
of the original STG; structural relations between its nodes -- causality,
conflict and concurrency -- are what the synthesis algorithms of the paper
operate on instead of the exponential State Graph.

Packed representation
---------------------
The net keeps every derived relation as bitmask ints (see :mod:`repro.core`):

* a set of conditions is an int whose bit ``cid`` is condition ``cid``
  (cuts, co-sets, presets and postsets are all such masks);
* a set of events is an int whose bit ``eid`` is event ``eid`` (local
  configurations, ancestor, descendant and conflict sets, slice members);
* the concurrency relation is stored as one *co row* per condition
  (``co_masks[cid]`` = mask of the conditions concurrent with ``cid``),
  maintained incrementally as postsets are attached with the standard
  occurrence-net recurrence ``co(b) = (AND of co(preset)) | siblings``, so
  ``x co y`` is one AND and a co-set check is one AND per member;
* once the net is finished, each event keeps its descendant and conflict
  masks, each condition the mask of the events concurrent with it (the
  transpose of the events' co rows) and each signal the mask of its
  instances, so conflict is one shift and the signals with an instance
  concurrent with a condition inside an event set cost one AND per signal;
* every event keeps, as it is created, three masks of its local
  configuration ``[e]``: its events (``local_config_mask``), the conditions
  its events consume and the conditions they produce.  Event ids are
  topological, so each is the event's own contribution ORed with its
  input conditions' producers' masks, and the cut ``[e]`` reaches is the
  produced mask AND-NOT the consumed one, with no walk of ``[e]``;
* every condition carries the bit of its original place
  (``condition.place_bit``) in the net's :class:`~repro.core.PlaceTable`,
  so the marking of a cut is an OR over the cut mask;
* events carry their binary code and final marking packed
  (``code_word`` / ``marking_word``); the historical ``code`` tuple and
  ``marking`` frozenset survive as decoding properties.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..core import PlaceTable, SignalTable, iter_set_bits, popcount, unpack_code
from ..stg.signals import SignalTransition

__all__ = ["Condition", "Event", "OccurrenceNet"]


class Condition:
    """A place instance (condition) of the occurrence net.

    Attributes
    ----------
    cid:
        Dense integer identifier; ``1 << cid`` is the condition's bit in
        every condition mask.
    place:
        Name of the original STG place this condition is an instance of.
    place_bit:
        Bit of the original place in the net's :class:`PlaceTable` (so the
        marking of a condition set is the OR of its ``place_bit``s).
    producer:
        The event that created the condition (the bottom event for initial
        conditions).
    consumers:
        Events consuming the condition (several only when the original net
        has choice).
    """

    __slots__ = ("cid", "place", "place_bit", "producer", "consumers")

    def __init__(self, cid: int, place: str, place_bit: int, producer: "Event") -> None:
        self.cid = cid
        self.place = place
        self.place_bit = place_bit
        self.producer = producer
        self.consumers: List["Event"] = []

    def __repr__(self) -> str:
        return "Condition(%d, %s)" % (self.cid, self.place)

    def __hash__(self) -> int:
        return self.cid

    def __eq__(self, other: object) -> bool:
        return self is other


class Event:
    """A transition instance (event) of the occurrence net.

    Attributes
    ----------
    eid:
        Dense integer identifier; the *bottom* event has id 0 and
        ``1 << eid`` is the event's bit in every event mask.
    transition:
        Name of the original STG transition (``None`` for the bottom event).
    label:
        The signal transition labelling the instance (``None`` for dummies
        and for the bottom event).
    preset / postset:
        Input and output conditions; ``preset_mask`` / ``postset_mask`` are
        the same sets as condition masks and ``preset_place_mask`` /
        ``postset_place_mask`` the corresponding original-place masks.
    signal_bit / target_value:
        Bit of the labelling signal in the net's :class:`SignalTable` and
        the value the instance drives it to (``signal_bit`` is 0 for
        dummies and the bottom event), so firing updates a packed code with
        two integer ops.
    local_config_mask:
        Event mask of the local configuration ``[e]`` (always includes the
        event itself and the bottom event).
    code_word:
        Packed binary code reached by firing ``[e]`` from the initial state
        (the paper's ``sigma_[e]``); :attr:`code` decodes it to a tuple.
    marking_word:
        Packed final state of ``[e]`` over original places; :attr:`marking`
        decodes it to a frozenset of place names.
    is_cutoff:
        True when the event was declared a cutoff by the unfolder.
    """

    __slots__ = (
        "eid",
        "net",
        "transition",
        "label",
        "preset",
        "postset",
        "preset_mask",
        "postset_mask",
        "preset_place_mask",
        "postset_place_mask",
        "signal_bit",
        "target_value",
        "local_config_mask",
        "code_word",
        "marking_word",
        "is_cutoff",
    )

    def __init__(
        self,
        eid: int,
        net: "OccurrenceNet",
        transition: Optional[str],
        label: Optional[SignalTransition],
        preset: Sequence[Condition],
    ) -> None:
        self.eid = eid
        self.net = net
        self.transition = transition
        self.label = label
        self.preset: Tuple[Condition, ...] = tuple(preset)
        self.postset: Tuple[Condition, ...] = ()
        preset_mask = 0
        preset_place_mask = 0
        for condition in self.preset:
            preset_mask |= 1 << condition.cid
            preset_place_mask |= condition.place_bit
        self.preset_mask = preset_mask
        self.preset_place_mask = preset_place_mask
        self.postset_mask = 0
        self.postset_place_mask = 0
        if label is not None and net.signal_table is not None:
            self.signal_bit = net.signal_table.bit(label.signal)
            self.target_value = label.target_value
        else:
            self.signal_bit = 0
            self.target_value = 0
        self.local_config_mask = 0
        self.code_word = 0
        self.marking_word = 0
        self.is_cutoff = False

    @property
    def is_bottom(self) -> bool:
        """True for the virtual initial transition (the paper's ``bottom``)."""
        return self.eid == 0

    @property
    def size(self) -> int:
        """Size of the local configuration (used by the McMillan order)."""
        return popcount(self.local_config_mask)

    @property
    def local_config(self) -> FrozenSet[int]:
        """Event ids of the local configuration ``[e]`` as a frozenset."""
        return frozenset(iter_set_bits(self.local_config_mask))

    @property
    def code(self) -> Tuple[int, ...]:
        """Binary code of ``[e]`` decoded from :attr:`code_word`."""
        table = self.net.signal_table
        if table is None:
            return ()
        return unpack_code(self.code_word, len(table))

    @property
    def marking(self) -> FrozenSet[str]:
        """Final marking of ``[e]`` decoded from :attr:`marking_word`."""
        return frozenset(self.net.place_table.names_in(self.marking_word))

    def __repr__(self) -> str:
        name = self.transition if self.transition is not None else "<bottom>"
        return "Event(%d, %s%s)" % (self.eid, name, ", cutoff" if self.is_cutoff else "")

    def __hash__(self) -> int:
        return self.eid

    def __eq__(self, other: object) -> bool:
        return self is other


class OccurrenceNet:
    """Container for conditions and events plus the derived relations.

    The relations -- *causality* ``x <= y``, *conflict* ``x # y`` and
    *concurrency* ``x co y`` -- are kept packed:

    * per-event ancestor masks (``[e]`` as an event mask) answer causality
      with one shift, and per-event descendant masks give every event at or
      after an event;
    * per-event consumed and produced condition masks of ``[e]``, built
      with the ancestor masks as events are added, give the cut ``[e]``
      reaches with one AND-NOT;
    * per-event conflict masks answer conflict with one shift;
    * per-condition co rows (:attr:`co_masks`) answer condition concurrency
      with one AND and are maintained incrementally while the net grows;
      their transpose, per condition the mask of the events concurrent with
      it, and per-signal masks of the signals' instances turn "which
      signals have an instance in this event set concurrent with this
      condition" into one AND per signal.

    The descendant, conflict, transposed and signal masks are built together
    on first use, once the net is finished.  All three relations are exposed
    for events and for conditions (a condition is identified with its
    producer event plus itself).
    """

    def __init__(self) -> None:
        self.conditions: List[Condition] = []
        self.events: List[Event] = []
        self.place_table: PlaceTable = PlaceTable()
        self.signal_table: Optional[SignalTable] = None
        # Per-condition concurrency rows (bit cid' of co_masks[cid] == cid co cid').
        self.co_masks: List[int] = []
        # Per-event masks of the conditions consumed / produced by the
        # events of [e], indexed by eid ([e] itself is the event's
        # local_config_mask).
        self._consumed_masks: List[int] = []
        self._produced_masks: List[int] = []
        # Cached per-event masks of the conditions concurrent with the event.
        self._event_co_masks: Dict[int, int] = {}
        # Relation masks of the finished net, built together on first use:
        # per-event descendant and conflict masks, per-condition masks of the
        # events concurrent with the condition, and per-signal-bit masks of
        # the signal's instances.
        self._descendant_masks: Optional[List[int]] = None
        self._conflict_masks: List[int] = []
        self._condition_co_event_masks: List[int] = []
        self._signal_event_masks: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Construction (used by the unfolder)
    # ------------------------------------------------------------------ #
    def new_condition(self, place: str, producer: Event) -> Condition:
        place_bit = 1 << self.place_table.intern(place)
        condition = Condition(len(self.conditions), place, place_bit, producer)
        self.conditions.append(condition)
        self.co_masks.append(0)
        return condition

    def new_event(
        self,
        transition: Optional[str],
        label: Optional[SignalTransition],
        preset: Sequence[Condition],
    ) -> Event:
        event = Event(len(self.events), self, transition, label, preset)
        self.events.append(event)
        # [e] is the event plus its input conditions' producers' local
        # configurations; a producer's masks are final, because its
        # postset was attached before any of its consumers existed.
        config = 1 << event.eid
        consumed = event.preset_mask
        produced = 0
        for condition in preset:
            condition.consumers.append(event)
            producer = condition.producer.eid
            config |= self.events[producer].local_config_mask
            consumed |= self._consumed_masks[producer]
            produced |= self._produced_masks[producer]
        event.local_config_mask = config
        self._consumed_masks.append(consumed)
        self._produced_masks.append(produced)
        return event

    def attach_postset(self, event: Event, places: Iterable[str]) -> List[Condition]:
        postset = [self.new_condition(place, event) for place in places]
        event.postset = tuple(postset)
        sibling_mask = 0
        place_mask = 0
        for condition in postset:
            sibling_mask |= 1 << condition.cid
            place_mask |= condition.place_bit
        event.postset_mask = sibling_mask
        event.postset_place_mask = place_mask
        self._produced_masks[event.eid] |= sibling_mask
        # Concurrency rows: a prior condition is concurrent with the new
        # conditions exactly when it is concurrent with every input condition
        # of the event; siblings of one postset are mutually concurrent.
        if event.preset:
            co = self.co_masks
            shared = co[event.preset[0].cid]
            for condition in event.preset[1:]:
                shared &= co[condition.cid]
        else:
            shared = 0  # the bottom event has no earlier conditions
        for condition in postset:
            self.co_masks[condition.cid] = shared | (sibling_mask & ~(1 << condition.cid))
        for cid in iter_set_bits(shared):
            self.co_masks[cid] |= sibling_mask
        return postset

    # ------------------------------------------------------------------ #
    # Size / lookup
    # ------------------------------------------------------------------ #
    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def num_conditions(self) -> int:
        return len(self.conditions)

    @property
    def bottom(self) -> Event:
        """The virtual initial event."""
        return self.events[0]

    def non_bottom_events(self) -> List[Event]:
        return self.events[1:]

    def events_of_transition(self, transition: str) -> List[Event]:
        return [e for e in self.events if e.transition == transition]

    def events_of_signal(self, signal: str) -> List[Event]:
        return [e for e in self.events if e.label is not None and e.label.signal == signal]

    def conditions_in(self, mask: int) -> List[Condition]:
        """The conditions whose bits are set in a condition mask."""
        conditions = self.conditions
        return [conditions[cid] for cid in iter_set_bits(mask)]

    def marking_word_of(self, mask: int) -> int:
        """Packed original-place marking of a condition mask."""
        word = 0
        conditions = self.conditions
        for cid in iter_set_bits(mask):
            word |= conditions[cid].place_bit
        return word

    # ------------------------------------------------------------------ #
    # Causality
    # ------------------------------------------------------------------ #
    def ancestor_mask_of(self, event: Event) -> int:
        """Event mask of the local configuration ``[e]``."""
        return event.local_config_mask

    def ancestors_of(self, event: Event) -> FrozenSet[int]:
        """Event ids of the local configuration ``[e]`` as a frozenset."""
        return frozenset(iter_set_bits(event.local_config_mask))

    def consumed_mask_of(self, event: Event) -> int:
        """Mask of the conditions consumed by the events of ``[e]``."""
        return self._consumed_masks[event.eid]

    def cut_mask_of(self, event: Event) -> int:
        """The cut reached by firing ``[e]``: what its events produce and
        do not consume."""
        return self._produced_masks[event.eid] & ~self._consumed_masks[event.eid]

    def precedes(self, earlier: Event, later: Event) -> bool:
        """Causality on events: ``earlier <= later``."""
        return bool(self.ancestor_mask_of(later) >> earlier.eid & 1)

    def strictly_precedes(self, earlier: Event, later: Event) -> bool:
        return earlier.eid != later.eid and self.precedes(earlier, later)

    def condition_precedes_event(self, condition: Condition, event: Event) -> bool:
        """True when the condition is in the causal past of the event.

        A condition precedes an event when one of its consumers is an
        ancestor of the event, or when it is an input condition of the event
        itself -- both cases are covered by the consumed mask of ``[e]``,
        which includes the event's own preset.
        """
        return bool(self.consumed_mask_of(event) >> condition.cid & 1)

    def event_precedes_condition(self, event: Event, condition: Condition) -> bool:
        """True when the event is in the causal past of the condition."""
        return self.precedes(event, condition.producer)

    def descendant_mask_of(self, event: Event) -> int:
        """Event mask of the events at or after ``event`` (``event <= f``)."""
        if self._descendant_masks is None:
            self._build_relation_masks()
        return self._descendant_masks[event.eid]

    # ------------------------------------------------------------------ #
    # Conflict
    # ------------------------------------------------------------------ #
    def conflict_mask_of(self, event: Event) -> int:
        """Event mask of the events in conflict with ``event``."""
        if self._descendant_masks is None:
            self._build_relation_masks()
        return self._conflict_masks[event.eid]

    def in_conflict(self, left: Event, right: Event) -> bool:
        """Structural conflict between two events (one shift on a mask)."""
        return bool(self.conflict_mask_of(left) >> right.eid & 1)

    def conditions_in_conflict(self, left: Condition, right: Condition) -> bool:
        """Conflict between two conditions (via their producers)."""
        return self.in_conflict(left.producer, right.producer)

    # ------------------------------------------------------------------ #
    # Concurrency
    # ------------------------------------------------------------------ #
    def event_co_mask(self, event: Event) -> int:
        """Mask of the conditions concurrent with an event (cached).

        ``e co c`` holds exactly when ``c`` is concurrent with every input
        condition of ``e`` (and is not one of them), so the mask is the AND
        of the co rows of the event's preset.  The bottom event (empty
        preset) precedes everything and is concurrent with nothing.  Only
        valid once the net is fully built: rows grow while it is extended.
        """
        cached = self._event_co_masks.get(event.eid)
        if cached is not None:
            return cached
        if not event.preset:
            result = 0
        else:
            co = self.co_masks
            result = co[event.preset[0].cid]
            for condition in event.preset[1:]:
                result &= co[condition.cid]
        self._event_co_masks[event.eid] = result
        return result

    def concurrent_events(self, left: Event, right: Event) -> bool:
        """``left co right``: unordered and conflict-free."""
        if left.eid == right.eid:
            return False
        preset_mask = right.preset_mask
        if not preset_mask:  # the bottom event precedes everything
            return False
        return self.event_co_mask(left) & preset_mask == preset_mask

    def concurrent_conditions(self, left: Condition, right: Condition) -> bool:
        """Concurrency between two conditions (one AND on the co rows).

        Conditions are concurrent when neither is consumed on the causal path
        to the other and their producers are conflict-free; this is the
        standard *co* relation used to identify cuts.
        """
        return bool(self.co_masks[left.cid] >> right.cid & 1)

    def concurrent_event_condition(self, event: Event, condition: Condition) -> bool:
        """Concurrency between an event and a condition."""
        return bool(self.event_co_mask(event) >> condition.cid & 1)

    def events_concurrent_with_event(self, event: Event) -> int:
        """Event mask of the events concurrent with ``event``: those neither
        before it, after it nor in conflict with it."""
        every_event = (1 << len(self.events)) - 1
        return every_event & ~(
            self.ancestor_mask_of(event)
            | self.descendant_mask_of(event)
            | self.conflict_mask_of(event)
        )

    def events_concurrent_with_condition(self, condition: Condition) -> int:
        """Event mask of the events concurrent with ``condition``: the
        transpose of the :meth:`event_co_mask` rows."""
        if self._descendant_masks is None:
            self._build_relation_masks()
        return self._condition_co_event_masks[condition.cid]

    def instance_masks(self) -> Dict[int, int]:
        """Per signal bit, the event mask of the signal's instances (signals
        without an instance are absent)."""
        if self._descendant_masks is None:
            self._build_relation_masks()
        return self._signal_event_masks

    # ------------------------------------------------------------------ #
    # Relation masks of the finished net
    # ------------------------------------------------------------------ #
    def _build_relation_masks(self) -> None:
        """Build the descendant, conflict, condition-concurrency and signal
        masks once, on first use.  Only valid once the net is fully built.

        Event ids are topological (an event's input conditions come from
        events with smaller ids), so descendants accumulate in reverse id
        order and conflicts in id order.  ``e # f`` exactly when some event
        of ``[e]`` shares an input condition with a *different* event at or
        before ``f``: the conflict mask of ``e`` ORs the descendant masks of
        its own rivals with the conflict masks of its causes.  An event is
        concurrent with a condition unless it is at or before the condition's
        producer, in conflict with it, or at or after one of the condition's
        consumers.
        """
        events = self.events
        descendants = [0] * len(events)
        for event in reversed(events):
            mask = 1 << event.eid
            for condition in event.postset:
                for consumer in condition.consumers:
                    mask |= descendants[consumer.eid]
            descendants[event.eid] = mask
        conflicts = [0] * len(events)
        signal_masks: Dict[int, int] = {}
        for event in events:
            mask = 0
            for condition in event.preset:
                mask |= conflicts[condition.producer.eid]
                for rival in condition.consumers:
                    if rival is not event:
                        mask |= descendants[rival.eid]
            conflicts[event.eid] = mask
            if event.signal_bit:
                signal_masks[event.signal_bit] = (
                    signal_masks.get(event.signal_bit, 0) | 1 << event.eid
                )
        every_event = (1 << len(events)) - 1
        co_events: List[int] = []
        for condition in self.conditions:
            producer = condition.producer
            mask = every_event & ~(self.ancestor_mask_of(producer) | conflicts[producer.eid])
            for consumer in condition.consumers:
                mask &= ~descendants[consumer.eid]
            co_events.append(mask)
        self._descendant_masks = descendants
        self._conflict_masks = conflicts
        self._condition_co_event_masks = co_events
        self._signal_event_masks = signal_masks

    # ------------------------------------------------------------------ #
    # Co-sets
    # ------------------------------------------------------------------ #
    def is_coset_mask(self, mask: int) -> bool:
        """True when the conditions of a mask are pairwise concurrent."""
        co = self.co_masks
        for cid in iter_set_bits(mask):
            if (co[cid] | (1 << cid)) & mask != mask:
                return False
        return True

    def is_coset(self, conditions: Sequence[Condition]) -> bool:
        """True when all conditions are pairwise concurrent."""
        items = list(conditions)
        mask = 0
        for condition in items:
            mask |= 1 << condition.cid
        if popcount(mask) != len(items):
            return False  # repeated conditions are never concurrent
        return self.is_coset_mask(mask)

    def __repr__(self) -> str:
        return "OccurrenceNet(events=%d, conditions=%d)" % (
            self.num_events,
            self.num_conditions,
        )
