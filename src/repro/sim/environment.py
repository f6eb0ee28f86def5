"""Specification-driven environment for closed-loop simulation.

The conformance game of speed-independent design pits the circuit against an
environment that behaves exactly as the STG specification allows: the
environment may produce any *input* change enabled by the specification, and
it observes every output change the circuit produces.  The circuit conforms
to the specification when no reachable interaction makes it produce an
output change the specification does not allow.

:class:`SpecEnvironment` plays the specification side of that token game
directly on the STG's Petri net -- no prebuilt State Graph is required, so
the same environment drives both exhaustive exploration of small controllers
and long random walks over large pipelines whose state graphs would be
infeasible to enumerate.  Because a trace of signal changes does not always
identify a unique marking (label splitting, dummies), the environment tracks
the *set* of markings consistent with the observed history, closed under
dummy-transition firing.

Every game move also has a *packed* twin (``*_packed`` methods) where a
marking is one int (bit ``i`` = token on place ``i``, see
:mod:`repro.core`) and a tracked set is a frozenset of ints; the exhaustive
simulator runs on this representation and only decodes for diagnostics.
The random walker and the projection-conformance check still play the
dict-backed game.  Both games need a safe, weight-1 net: building the
environment compiles a :class:`~repro.core.PackedNet`, which raises
:class:`~repro.core.UnsafeNetError` for any other net.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..core import PackedNet, UnsafeNetError
from ..petrinet import Marking
from ..stg import STG

__all__ = ["SpecEnvironment"]

TrackedStates = FrozenSet[Marking]
# Packed twin of TrackedStates: the tracked markings as bitmask ints.
PackedTracked = FrozenSet[int]


class SpecEnvironment:
    """Token-game view of the specification.

    The environment state is a frozen set of STG markings consistent with the
    signal-change trace observed so far.  ``advance`` consumes one signal
    change (input or output alike) and returns the new set; an empty result
    on an output change is exactly a conformance violation.
    """

    def __init__(self, stg: STG) -> None:
        self.stg = stg
        self.net = stg.net
        self.input_signals = frozenset(stg.input_signals)
        # marking -> [(signal, target_value, successor marking)] for labelled
        # transitions, successors through dummies handled by the closure.
        self._labelled: Dict[Marking, List[Tuple[str, int, Marking]]] = {}
        self._dummy: Dict[Marking, List[Marking]] = {}
        # Packed twin: markings as bitmask ints over the net's PlaceTable.
        self._packed_net = PackedNet(stg.net)
        self._plabelled: Dict[int, List[Tuple[str, int, int]]] = {}
        self._pdummy: Dict[int, List[int]] = {}
        self._signal_bit: Dict[str, int] = {
            signal: index for index, signal in enumerate(stg.signals)
        }

    # ------------------------------------------------------------------ #
    # Cached token game
    # ------------------------------------------------------------------ #
    def _expand(self, marking: Marking) -> None:
        if marking in self._labelled:
            return
        labelled: List[Tuple[str, int, Marking]] = []
        dummy: List[Marking] = []
        for transition in self.net.enabled_transitions(marking):
            label = self.stg.label_of(transition)
            successor = self.net.fire(marking, transition)
            if label is None:
                dummy.append(successor)
            else:
                labelled.append((label.signal, label.target_value, successor))
        self._labelled[marking] = labelled
        self._dummy[marking] = dummy

    def closure(self, markings: Iterable[Marking]) -> TrackedStates:
        """Close a set of markings under dummy-transition firing."""
        seen: Set[Marking] = set(markings)
        queue = deque(seen)
        while queue:
            marking = queue.popleft()
            self._expand(marking)
            for successor in self._dummy[marking]:
                if successor not in seen:
                    seen.add(successor)
                    queue.append(successor)
        return frozenset(seen)

    def initial_states(self) -> TrackedStates:
        """Tracked set for the start of the game."""
        return self.closure([self.net.initial_marking])

    # ------------------------------------------------------------------ #
    # Game moves
    # ------------------------------------------------------------------ #
    def enabled_changes(self, tracked: TrackedStates) -> Set[Tuple[str, int]]:
        """All signal changes enabled in some tracked marking."""
        changes: Set[Tuple[str, int]] = set()
        for marking in tracked:
            self._expand(marking)
            for signal, target, _successor in self._labelled[marking]:
                changes.add((signal, target))
        return changes

    def enabled_input_changes(
        self, tracked: TrackedStates, code: Sequence[int]
    ) -> List[Tuple[str, int]]:
        """Input changes the environment may produce, consistent with ``code``.

        Consistency filters out changes whose source value disagrees with the
        current circuit state (they cannot happen physically; in a consistent
        specification the filter is a no-op on the reachable game).
        """
        allowed: List[Tuple[str, int]] = []
        for signal, target in sorted(self.enabled_changes(tracked)):
            if signal not in self.input_signals:
                continue
            if code[self.stg.signal_index(signal)] == 1 - target:
                allowed.append((signal, target))
        return allowed

    def allows(self, tracked: TrackedStates, signal: str, target_value: int) -> bool:
        """True when the specification allows the given change now."""
        return (signal, target_value) in self.enabled_changes(tracked)

    def advance(
        self, tracked: TrackedStates, signal: str, target_value: int
    ) -> TrackedStates:
        """Tracked set after observing one signal change.

        Empty result means no tracked marking allowed the change -- for an
        output change that is a conformance violation; for inputs the caller
        only fires changes reported by :meth:`enabled_input_changes`.
        """
        successors: Set[Marking] = set()
        for marking in tracked:
            self._expand(marking)
            for spec_signal, spec_target, successor in self._labelled[marking]:
                if spec_signal == signal and spec_target == target_value:
                    successors.add(successor)
        if not successors:
            return frozenset()
        return self.closure(successors)

    # ------------------------------------------------------------------ #
    # Packed twin of the token game (markings as bitmask ints)
    # ------------------------------------------------------------------ #
    def _expand_packed(self, word: int) -> None:
        if word in self._plabelled:
            return
        pnet = self._packed_net
        labelled: List[Tuple[str, int, int]] = []
        dummy: List[int] = []
        label_of = self.stg.label_of
        transitions = pnet.transitions
        presets = pnet.presets
        postsets = pnet.postsets
        for t in range(len(transitions)):
            preset = presets[t]
            if word & preset != preset:
                continue
            remainder = word & ~preset
            postset = postsets[t]
            if remainder & postset:
                raise UnsafeNetError(
                    "firing %r from packed marking %#x is not safe"
                    % (transitions[t], word)
                )
            successor = remainder | postset
            label = label_of(transitions[t])
            if label is None:
                dummy.append(successor)
            else:
                labelled.append((label.signal, label.target_value, successor))
        self._plabelled[word] = labelled
        self._pdummy[word] = dummy

    def closure_packed(self, words: Iterable[int]) -> PackedTracked:
        """Close a set of packed markings under dummy-transition firing."""
        seen: Set[int] = set(words)
        queue = deque(seen)
        while queue:
            word = queue.popleft()
            self._expand_packed(word)
            for successor in self._pdummy[word]:
                if successor not in seen:
                    seen.add(successor)
                    queue.append(successor)
        return frozenset(seen)

    def initial_states_packed(self) -> PackedTracked:
        """Packed tracked set for the start of the game."""
        return self.closure_packed([self._packed_net.initial])

    def enabled_changes_packed(self, tracked: PackedTracked) -> Set[Tuple[str, int]]:
        """All signal changes enabled in some tracked packed marking."""
        changes: Set[Tuple[str, int]] = set()
        for word in tracked:
            self._expand_packed(word)
            for signal, target, _successor in self._plabelled[word]:
                changes.add((signal, target))
        return changes

    def enabled_input_changes_packed(
        self, tracked: PackedTracked, code_word: int
    ) -> List[Tuple[str, int]]:
        """Input changes consistent with the packed circuit code."""
        allowed: List[Tuple[str, int]] = []
        input_signals = self.input_signals
        signal_bit = self._signal_bit
        for signal, target in sorted(self.enabled_changes_packed(tracked)):
            if signal not in input_signals:
                continue
            if (code_word >> signal_bit[signal]) & 1 == 1 - target:
                allowed.append((signal, target))
        return allowed

    def advance_packed(
        self, tracked: PackedTracked, signal: str, target_value: int
    ) -> PackedTracked:
        """Packed tracked set after observing one signal change."""
        successors: Set[int] = set()
        for word in tracked:
            self._expand_packed(word)
            for spec_signal, spec_target, successor in self._plabelled[word]:
                if spec_signal == signal and spec_target == target_value:
                    successors.add(successor)
        if not successors:
            return frozenset()
        return self.closure_packed(successors)

    def __repr__(self) -> str:
        return "SpecEnvironment(%r, cached_markings=%d)" % (
            self.stg.name,
            len(self._labelled) + len(self._plabelled),
        )
