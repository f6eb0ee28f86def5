"""Construction of the STG-unfolding segment.

The segment is a finite prefix of the (in general infinite) branching
process of the STG, truncated at *cutoff* events: events whose firing
reaches a state -- a (marking, binary code) pair -- already reached by a
smaller local configuration (McMillan's criterion, extended with the binary
code as in the paper's reference [11]).  Like McMillan's prefix, the
construction assumes a safe, weight-1 net: the segment compiles the net
into a :class:`~repro.core.PackedNet`, which rejects arc weights above 1,
an unsafe initial marking and transitions without input or without output
places with :class:`~repro.core.UnsafeNetError`.  While the segment is
built the two general correctness criteria that can fail during
construction are checked:

* **safeness** -- a configuration reaching a marking with two tokens on a
  place raises :class:`~repro.core.UnsafeNetError`,
* **consistent state assignment** -- an event whose signal is already at the
  value the event would set it to reveals an inconsistent specification.

The third criterion, semi-modularity, is checked on the finished segment
(:mod:`repro.unfolding.semimodularity`).

The construction runs entirely on the packed core: possible extensions are
found by intersecting per-condition concurrency rows (one AND per candidate
place instead of an ``is_coset`` product check), configurations are event
masks, codes/markings are packed ints and the cutoff table is keyed on
packed ``(marking_word, code_word)`` pairs.

The frontier
------------
The unfolder never extends an output condition of a cutoff.  Once the
segment is finished it enumerates, on the same co rows, the possible
extensions it dropped for that reason and keeps them as
:class:`FrontierEvent` pseudo-events (:attr:`UnfoldingSegment.frontier`).
They tell a slice that runs into a cutoff where its signal would fire next
(see :mod:`repro.unfolding.slices`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..core import (
    PackedNet,
    SignalTable,
    UnsafeNetError,
    iter_set_bits,
    pack_code,
    popcount,
    unpack_code,
)
from ..obs import current_tracer
from ..stg import STG, InconsistentSTGError, STGError
from .occurrence_net import Condition, Event, OccurrenceNet

__all__ = ["FrontierEvent", "UnfoldingError", "UnfoldingSegment", "unfold"]


class UnfoldingError(STGError):
    """Raised when the segment cannot be constructed."""


class FrontierEvent:
    """A possible extension the unfolder dropped at a cutoff.

    Its preset holds an output condition of a cutoff, so the segment never
    grows it; it is kept as a pseudo-event over real conditions.  It has no
    event id and no co row, is not among the segment's events and never
    appears in a cut.

    Attributes
    ----------
    transition / label:
        The original STG transition and the signal transition labelling it
        (``None`` for a dummy).
    preset / preset_mask:
        Its input conditions (a co-set of the segment) as a tuple and as a
        condition mask.
    signal_bit:
        Bit of the labelling signal (0 for a dummy).
    past_mask:
        Event mask of its causal past: the union of the local
        configurations of its input conditions' producers.
    """

    __slots__ = ("transition", "label", "preset", "preset_mask", "signal_bit", "past_mask")

    def __init__(self, segment: "UnfoldingSegment", transition: str, preset_mask: int) -> None:
        self.transition = transition
        self.label = segment.stg.label_of(transition)
        self.preset: Tuple[Condition, ...] = tuple(segment.conditions_in(preset_mask))
        self.preset_mask = preset_mask
        self.signal_bit = (
            segment.signal_table.bit(self.label.signal) if self.label is not None else 0
        )
        past = 0
        for condition in self.preset:
            past |= segment.ancestor_mask_of(condition.producer)
        self.past_mask = past

    def __repr__(self) -> str:
        return "FrontierEvent(%s, %s)" % (self.transition, list(self.preset))


class UnfoldingSegment(OccurrenceNet):
    """An STG-unfolding segment (occurrence net + signal interpretation).

    Attributes
    ----------
    stg:
        The unfolded STG.
    signal_table:
        Interned signals (bit ``i`` of a packed code = signal ``i`` in
        ``stg.signals`` order).
    place_table:
        Interned original places, shared with :attr:`packed_net` so packed
        cut markings are directly comparable with packed net markings.
    packed_net:
        The compiled token game of the original net; building the segment
        raises :class:`~repro.core.UnsafeNetError` for a net
        :class:`~repro.core.PackedNet` refuses.
    initial_code / initial_code_word:
        Binary code of the initial state (assigned to the bottom event), as
        a tuple and packed.
    cutoffs:
        The cutoff events of the segment.
    frontier:
        The :class:`FrontierEvent` pseudo-events: every possible extension
        whose preset holds an output condition of a cutoff, in sorted
        ``(transition, preset_mask)`` order.
    """

    def __init__(self, stg: STG) -> None:
        super().__init__()
        self.stg = stg
        self.signal_table = SignalTable(stg.signals)
        self.packed_net = PackedNet(stg.net)
        # Share the codec's table so condition place bits line up with the
        # packed token game of the original net.
        self.place_table = self.packed_net.codec.places
        self.initial_code: Tuple[int, ...] = ()
        self.initial_code_word = 0
        self.cutoffs: List[Event] = []
        self.frontier: List[FrontierEvent] = []
        # (direction-split) per-signal transition preset masks for implied
        # value queries, built lazily.
        self._signal_presets: Dict[str, Tuple[List[int], List[int]]] = {}

    # ------------------------------------------------------------------ #
    # Configuration-level helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _config_mask(event_ids: Iterable[int]) -> int:
        mask = 0
        for eid in event_ids:
            mask |= 1 << eid
        return mask

    def config_events(self, event_ids: Iterable[int]) -> List[Event]:
        return [self.events[eid] for eid in sorted(event_ids)]

    def config_cut_mask(self, config_mask: int) -> int:
        """The cut (condition mask) reached by firing a configuration."""
        produced = 0
        consumed = 0
        events = self.events
        for eid in iter_set_bits(config_mask):
            event = events[eid]
            produced |= event.postset_mask
            consumed |= event.preset_mask
        return produced & ~consumed

    def config_cut(self, event_ids: Iterable[int]) -> List[Condition]:
        """The cut (set of conditions) reached by firing a configuration."""
        return self.conditions_in(self.config_cut_mask(self._config_mask(event_ids)))

    def config_marking_word(self, config_mask: int) -> int:
        """Packed final marking of a configuration over original places."""
        return self.marking_word_of(self.config_cut_mask(config_mask))

    def config_marking(self, event_ids: Iterable[int]) -> FrozenSet[str]:
        """Final state of a configuration mapped onto original places."""
        word = self.config_marking_word(self._config_mask(event_ids))
        return frozenset(self.place_table.names_in(word))

    def config_code_word(self, config_mask: int) -> int:
        """Packed binary code reached by firing a configuration.

        For every signal the causally last instance inside the configuration
        determines the value; instances of the same signal inside one
        configuration must be totally ordered, otherwise the specification
        is inconsistent.
        """
        code = self.initial_code_word
        by_signal: Dict[int, List[Event]] = {}
        events = self.events
        for eid in iter_set_bits(config_mask):
            event = events[eid]
            if event.signal_bit:
                by_signal.setdefault(event.signal_bit, []).append(event)
        for signal_bit, instances in by_signal.items():
            last = instances[0]
            for candidate in instances[1:]:
                if self.precedes(last, candidate):
                    last = candidate
                elif not self.precedes(candidate, last):
                    raise InconsistentSTGError(
                        "inconsistent STG: concurrent instances of signal %r "
                        "(%s and %s)"
                        % (last.label.signal if last.label else "?", last, candidate)
                    )
            if last.target_value:
                code |= signal_bit
            else:
                code &= ~signal_bit
        return code

    def config_code(self, event_ids: Iterable[int]) -> Tuple[int, ...]:
        """Binary code reached by firing a configuration, as a tuple."""
        word = self.config_code_word(self._config_mask(event_ids))
        return unpack_code(word, len(self.signal_table))

    # ------------------------------------------------------------------ #
    # Per-event cuts (Section 3.2)
    # ------------------------------------------------------------------ #
    def local_configuration(self, event: Event) -> FrozenSet[int]:
        """The local configuration ``[e]``."""
        return self.ancestors_of(event)

    def minimal_stable_cut_mask(self, event: Event) -> int:
        """``c_min_s(e)`` as a condition mask."""
        return self.config_cut_mask(self.ancestor_mask_of(event))

    def minimal_stable_cut(self, event: Event) -> List[Condition]:
        """``c_min_s(e)``: the state reached by firing ``[e]``."""
        return self.conditions_in(self.minimal_stable_cut_mask(event))

    def minimal_excitation_cut_mask(self, event: Event) -> int:
        """``c_min_e(e)`` as a condition mask."""
        bottom_mask = 1 << self.bottom.eid
        if event.is_bottom:
            return self.config_cut_mask(bottom_mask)
        causes = self.ancestor_mask_of(event) & ~(1 << event.eid)
        return self.config_cut_mask(causes)

    def minimal_excitation_cut(self, event: Event) -> List[Condition]:
        """``c_min_e(e)``: the state at which ``e`` first becomes enabled."""
        return self.conditions_in(self.minimal_excitation_cut_mask(event))

    def excitation_code_word(self, event: Event) -> int:
        """Packed binary code of ``c_min_e(e)``."""
        if event.is_bottom:
            return self.initial_code_word
        causes = self.ancestor_mask_of(event) & ~(1 << event.eid)
        return self.config_code_word(causes)

    def excitation_code(self, event: Event) -> Tuple[int, ...]:
        """Binary code of ``c_min_e(e)``."""
        return unpack_code(self.excitation_code_word(event), len(self.signal_table))

    # ------------------------------------------------------------------ #
    # Implied (next-state) values on packed states
    # ------------------------------------------------------------------ #
    def signal_preset_masks(self, signal: str) -> Tuple[List[int], List[int]]:
        """Preset masks of the signal's rising / falling net transitions."""
        cached = self._signal_presets.get(signal)
        if cached is not None:
            return cached
        pnet = self.packed_net
        plus: List[int] = []
        minus: List[int] = []
        for transition in self.stg.transitions_of_signal(signal):
            label = self.stg.label_of(transition)
            mask = pnet.presets[pnet.transition_index(transition)]
            (plus if label.target_value == 1 else minus).append(mask)
        self._signal_presets[signal] = (plus, minus)
        return plus, minus

    def implied_value_word(self, marking_word: int, code_word: int, signal: str) -> int:
        """Implied (next-state) value of a signal at a packed state.

        The implied value flips when an opposite-direction transition of the
        signal is enabled at the marking; enabledness is one mask-AND per
        candidate transition against the packed marking.
        """
        plus, minus = self.signal_preset_masks(signal)
        if code_word & self.signal_table.bit(signal):
            for preset in minus:
                if marking_word & preset == preset:
                    return 0
            return 1
        for preset in plus:
            if marking_word & preset == preset:
                return 1
        return 0

    # ------------------------------------------------------------------ #
    # Signal-instance structure (first / next of the paper)
    # ------------------------------------------------------------------ #
    def first_instances(self, signal: str) -> List[Event]:
        """``first(a)``: instances of ``a`` with no earlier instance of ``a``."""
        instances = self.events_of_signal(signal)
        result = []
        for event in instances:
            earlier = [
                other
                for other in instances
                if other is not event and self.strictly_precedes(other, event)
            ]
            if not earlier:
                result.append(event)
        return result

    def next_instances(self, event: Event) -> List[Event]:
        """``next(e)``: same-signal instances directly following ``e``.

        For the bottom event the set is ``first(a)`` for every signal is not
        meaningful; callers pass the signal explicitly via
        :meth:`next_instances_of_signal`.
        """
        if event.label is None:
            raise UnfoldingError("next() is only defined for signal-labelled events")
        return self.next_instances_of_signal(event, event.label.signal)

    def next_instances_of_signal(self, event: Event, signal: str) -> List[Event]:
        """Same-signal instances reachable from ``event`` with no instance of
        the signal in between."""
        instances = self.events_of_signal(signal)
        followers = [
            other
            for other in instances
            if other is not event and self.strictly_precedes(event, other)
        ]
        result = []
        for candidate in followers:
            intermediate = any(
                other is not candidate
                and self.strictly_precedes(event, other)
                and self.strictly_precedes(other, candidate)
                for other in followers
            )
            if not intermediate:
                result.append(candidate)
        return result

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def statistics(self) -> Dict[str, int]:
        return {
            "events": self.num_events - 1,  # exclude the bottom event
            "conditions": self.num_conditions,
            "cutoffs": len(self.cutoffs),
        }

    def __repr__(self) -> str:
        return "UnfoldingSegment(events=%d, conditions=%d, cutoffs=%d)" % (
            self.num_events - 1,
            self.num_conditions,
            len(self.cutoffs),
        )


def unfold(stg: STG, max_events: int = 20000) -> UnfoldingSegment:
    """Build the STG-unfolding segment of a (safe, consistent) STG.

    Raises :class:`~repro.core.UnsafeNetError` for a net outside the safe,
    weight-1 class, :class:`~repro.stg.InconsistentSTGError` for an event
    that violates consistent state assignment and :class:`UnfoldingError`
    past ``max_events``.

    Parameters
    ----------
    stg:
        The specification to unfold; its initial state is inferred when not
        given explicitly.
    max_events:
        Hard bound on the number of events (guards against unbounded or
        pathological specifications).
    """
    with current_tracer().span("unfold", stg=stg.name) as span:
        return _unfold(stg, max_events, span)


def _unfold(stg: STG, max_events: int, span) -> UnfoldingSegment:
    if not stg.has_complete_initial_state():
        stg.infer_initial_state()
    net = stg.net
    initial_marking = net.initial_marking
    segment = UnfoldingSegment(stg)
    segment.initial_code = stg.initial_code()
    segment.initial_code_word = pack_code(segment.initial_code)

    # Bottom event and initial conditions.
    bottom = segment.new_event(None, None, preset=())
    segment.attach_postset(bottom, sorted(initial_marking.places))
    bottom.local_config_mask = 1 << bottom.eid
    bottom.code_word = segment.initial_code_word
    bottom.marking_word = segment.marking_word_of(bottom.postset_mask)

    # Cutoff table: packed (marking_word, code_word) -> smallest |config|.
    state_sizes: Dict[Tuple[int, int], int] = {
        (bottom.marking_word, bottom.code_word): 1
    }

    dead_mask = 0  # condition mask of cutoff postsets
    seen_extensions: Set[Tuple[str, int]] = set()
    counter = itertools.count()
    queue: List[Tuple[int, int, str, int]] = []

    # Per-place mask of the condition instances of that place.
    conditions_by_place: Dict[str, int] = {}

    co_masks = segment.co_masks
    all_conditions = segment.conditions

    def register_conditions(conditions: Sequence[Condition]) -> None:
        for condition in conditions:
            conditions_by_place[condition.place] = (
                conditions_by_place.get(condition.place, 0) | (1 << condition.cid)
            )

    def extension_size(preset_mask: int) -> int:
        config = 0
        for cid in iter_set_bits(preset_mask):
            config |= segment.ancestor_mask_of(all_conditions[cid].producer)
        return popcount(config) + 1

    def emit_extension(transition: str, preset_mask: int) -> None:
        key = (transition, preset_mask)
        if key in seen_extensions:
            return
        seen_extensions.add(key)
        heapq.heappush(
            queue,
            (extension_size(preset_mask), next(counter), transition, preset_mask),
        )

    def collect_cosets(
        transition: str,
        places: Sequence[str],
        chosen_mask: int,
        allowed: int,
        emit: Callable[[str, int], None],
    ) -> None:
        """Enumerate co-sets matching the remaining preset places.

        ``allowed`` is the running intersection of the co rows of the
        conditions chosen so far, so every candidate kept is concurrent with
        all of them -- a product-then-``is_coset`` filter collapses into one
        AND per candidate.  ``emit`` receives each complete preset mask.
        """
        if not places:
            emit(transition, chosen_mask)
            return
        candidates = conditions_by_place.get(places[0], 0) & allowed
        rest = places[1:]
        for cid in iter_set_bits(candidates):
            collect_cosets(
                transition,
                rest,
                chosen_mask | (1 << cid),
                allowed & co_masks[cid],
                emit,
            )

    def push_extensions(new_conditions: Sequence[Condition]) -> None:
        """Find possible extensions involving at least one new condition."""
        for new_condition in new_conditions:
            bit = 1 << new_condition.cid
            if bit & dead_mask:
                continue
            for transition in net.place_postset(new_condition.place):
                other_places = sorted(
                    place for place in net.preset(transition)
                    if place != new_condition.place
                )
                collect_cosets(
                    transition,
                    other_places,
                    bit,
                    co_masks[new_condition.cid] & ~dead_mask,
                    emit_extension,
                )

    register_conditions(bottom.postset)
    push_extensions(bottom.postset)

    while queue:
        _size, _tie, transition, preset_mask = heapq.heappop(queue)
        preset = [all_conditions[cid] for cid in iter_set_bits(preset_mask)]
        label = stg.label_of(transition)
        event = segment.new_event(transition, label, preset)

        config_mask = 1 << event.eid
        for condition in preset:
            config_mask |= segment.ancestor_mask_of(condition.producer)
        event.local_config_mask = config_mask
        # Seed the ancestor cache so later queries are O(1).
        segment._ancestor_masks[event.eid] = config_mask

        causes_mask = config_mask & ~(1 << event.eid)
        cause_code = segment.config_code_word(causes_mask)
        if (
            event.signal_bit
            and bool(cause_code & event.signal_bit) != (label.source_value == 1)
        ):
            raise InconsistentSTGError(
                "inconsistent state assignment: instance of %s enabled while "
                "%s = %d" % (transition, label.signal, label.target_value)
            )

        if event.signal_bit:
            if event.target_value:
                event.code_word = cause_code | event.signal_bit
            else:
                event.code_word = cause_code & ~event.signal_bit
        else:
            event.code_word = cause_code

        postset_places = sorted(net.postset(transition))
        postset = segment.attach_postset(event, postset_places)
        register_conditions(postset)

        cut_mask = segment.config_cut_mask(config_mask)
        marking_word = segment.marking_word_of(cut_mask)
        if popcount(marking_word) != popcount(cut_mask):
            # Two conditions of the cut share an original place.
            raise UnsafeNetError(
                "non-safe marking reached by firing %s; only safe STGs are supported"
                % transition
            )
        event.marking_word = marking_word

        # Cutoff check (McMillan, on the packed (marking, code) pair).
        state = (marking_word, event.code_word)
        config_size = popcount(config_mask)
        known_size = state_sizes.get(state)
        if known_size is not None and known_size < config_size:
            event.is_cutoff = True
            segment.cutoffs.append(event)
        else:
            if known_size is None or config_size < known_size:
                state_sizes[state] = config_size

        if event.is_cutoff:
            dead_mask |= event.postset_mask
        else:
            push_extensions(postset)

        if segment.num_events > max_events:
            raise UnfoldingError(
                "unfolding exceeded %d events; the STG may be unbounded" % max_events
            )

        # Deterministic throttle: one progress event per 512 added events,
        # guarded so the disabled path pays one attribute check per event.
        if span.live and segment.num_events % 512 == 0:
            span.progress(segment.num_events, max_events)

    # The frontier: the extensions dropped above because their preset holds
    # a cutoff's output condition, found on the finished co rows.
    dropped: Set[Tuple[str, int]] = set()
    for cid in iter_set_bits(dead_mask):
        place = all_conditions[cid].place
        for transition in net.place_postset(place):
            other_places = sorted(p for p in net.preset(transition) if p != place)
            collect_cosets(
                transition,
                other_places,
                1 << cid,
                co_masks[cid],
                lambda *extension: dropped.add(extension),
            )
    segment.frontier = [
        FrontierEvent(segment, transition, preset_mask)
        for transition, preset_mask in sorted(dropped)
    ]

    # End-of-run gauges only: the unfolding loop itself stays untouched.
    if span.live:
        span.gauge("events", segment.num_events - 1)
        span.gauge("conditions", segment.num_conditions)
        span.gauge("cutoffs", len(segment.cutoffs))
        span.gauge("frontier", len(segment.frontier))
        span.gauge("extensions_tried", len(seen_extensions))
        span.gauge("extensions_added", segment.num_events - 1)
        span.gauge("cutoff_table", len(state_sizes))
    return segment
