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

The game is played on packed markings: a marking is one int (bit ``i`` =
token on place ``i``, see :mod:`repro.core`) and a tracked set is a
frozenset of ints.  Each marking's moves are tabulated once, keyed by the
signal change they make, and so are the input changes it enables.  Each
distinct successor set is stored once, as a frozenset that every move
reaching it shares, so observing a change from one tracked marking returns
a stored set.  The simulator, the random walker and the
projection-conformance check all play this one game.  It needs a safe,
weight-1 net: building the environment compiles a
:class:`~repro.core.PackedNet`, which raises
:class:`~repro.core.UnsafeNetError` for any other net, and a reachable
unsafe firing raises it when its marking is first tabulated.

The tables are a function of the spec alone, so they live as long as the
spec: :meth:`SpecEnvironment.of` keeps one environment on each STG object,
and every simulation, walk and projection check of that spec shares its
tables.  The environment is rebuilt when the spec changed since it was
built; its stamp is the net object, the net's ``structural_version``
(bumped by every place, transition, arc and initial-marking change) and
the signal names and types in declaration order (``STG.add_signal`` and
``STG.set_signal_type`` do not touch the net).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..core import PackedNet, UnsafeNetError
from ..stg import STG

__all__ = ["SpecEnvironment"]

#: The tracked markings as bitmask ints.
PackedTracked = FrozenSet[int]
#: A signal change ``(signal, target_value)``.
Change = Tuple[str, int]
#: An input change with its code bit and the value ``word & bit`` must have
#: before it: ``(signal, target_value, bit, required)``.
InputChange = Tuple[str, int, int, int]

_EMPTY: PackedTracked = frozenset()


def _stamp(stg: STG) -> tuple:
    """What an environment of ``stg`` was built from: the net object, its
    structural version, and the signal names and types in order."""
    net = stg.net
    return (net, net.structural_version, tuple(stg.signal_types.items()))


class SpecEnvironment:
    """Token-game view of the specification.

    The environment state is a frozen set of packed STG markings consistent
    with the signal-change trace observed so far.  ``advance_packed``
    consumes one signal change (input or output alike) and returns the new
    set; an empty result on an output change is exactly a conformance
    violation.

    ``SpecEnvironment(stg)`` builds fresh tables; :meth:`of` returns the
    environment every simulation of ``stg`` shares.
    """

    def __init__(self, stg: STG) -> None:
        self.stg = stg
        #: What the tables were built from; :meth:`of` compares it.
        self.stamp = _stamp(stg)
        self.input_signals = frozenset(stg.input_signals)
        self._packed_net = PackedNet(stg.net)
        signal_bit = {signal: 1 << index for index, signal in enumerate(stg.signals)}
        # (index, preset, postset, change, input change) per transition; the
        # change is None for a dummy, the input change None unless an input
        # signal labels the transition.
        self._transitions: List[
            Tuple[int, int, int, Optional[Change], Optional[InputChange]]
        ] = []
        for index, transition in enumerate(self._packed_net.transitions):
            label = stg.label_of(transition)
            change = input_change = None
            if label is not None:
                signal, target = label.signal, label.target_value
                change = (signal, target)
                if signal in self.input_signals:
                    bit = signal_bit[signal]
                    input_change = (signal, target, bit, 0 if target else bit)
            self._transitions.append(
                (
                    index,
                    self._packed_net.presets[index],
                    self._packed_net.postsets[index],
                    change,
                    input_change,
                )
            )
        self._has_dummies = any(entry[3] is None for entry in self._transitions)
        # marking -> {change: successor markings}, its dummy successors and
        # its input changes, sorted.  Each distinct successor set is one
        # frozenset, shared by every move that reaches it.
        self._moves: Dict[int, Dict[Change, PackedTracked]] = {}
        self._successor_sets: Dict[PackedTracked, PackedTracked] = {}
        self._dummy: Dict[int, List[int]] = {}
        self._marking_inputs: Dict[int, Tuple[InputChange, ...]] = {}

    @classmethod
    def of(cls, stg: STG) -> "SpecEnvironment":
        """The environment shared by every simulation of ``stg``.

        It is kept on the STG object, so it lives exactly as long as the
        spec (the two reference each other, which the cycle collector
        frees), and it is rebuilt when the spec's stamp changed since.
        """
        environment = getattr(stg, "_spec_environment", None)
        if environment is None or environment.stamp != _stamp(stg):
            environment = cls(stg)
            stg._spec_environment = environment
        return environment

    @property
    def num_tabulated(self) -> int:
        """Markings whose moves are tabulated so far."""
        return len(self._moves)

    # ------------------------------------------------------------------ #
    # Cached token game
    # ------------------------------------------------------------------ #
    def _expand_packed(self, word: int) -> None:
        if word in self._moves:
            return
        moves: Dict[Change, List[int]] = {}
        dummy: List[int] = []
        inputs: List[InputChange] = []
        for index, preset, postset, change, input_change in self._transitions:
            if word & preset != preset:
                continue
            remainder = word ^ preset
            if remainder & postset:
                raise UnsafeNetError(
                    "firing %r from packed marking %#x is not safe"
                    % (self._packed_net.transitions[index], word)
                )
            successor = remainder | postset
            if change is None:
                dummy.append(successor)
                continue
            found = moves.get(change)
            if found is None:
                moves[change] = [successor]
                if input_change is not None:
                    inputs.append(input_change)
            else:
                found.append(successor)
        inputs.sort()
        interned = self._successor_sets
        for change, found in moves.items():
            successors = frozenset(found)
            moves[change] = interned.setdefault(successors, successors)
        self._moves[word] = moves
        self._dummy[word] = dummy
        self._marking_inputs[word] = tuple(inputs)

    def closure_packed(self, words: Iterable[int]) -> PackedTracked:
        """Close a set of packed markings under dummy-transition firing."""
        seen: Set[int] = set(words)
        queue = deque(seen)
        while queue:
            word = queue.popleft()
            self._expand_packed(word)
            for successor in self._dummy[word]:
                if successor not in seen:
                    seen.add(successor)
                    queue.append(successor)
        return frozenset(seen)

    def initial_states_packed(self) -> PackedTracked:
        """Packed tracked set for the start of the game."""
        return self.closure_packed([self._packed_net.initial])

    # ------------------------------------------------------------------ #
    # Game moves (every tracked marking has been tabulated)
    # ------------------------------------------------------------------ #
    def enabled_changes_packed(self, tracked: PackedTracked) -> Set[Change]:
        """All signal changes enabled in some tracked marking."""
        changes: Set[Change] = set()
        for word in tracked:
            changes.update(self._moves[word])
        return changes

    def input_changes_packed(self, tracked: PackedTracked) -> Tuple[InputChange, ...]:
        """Input changes enabled in some tracked marking, sorted by
        ``(signal, target_value)``.

        A change fires only from a code whose ``word & bit`` equals its
        ``required`` value (the signal holds the complement of the target);
        in a consistent specification that filter is a no-op on the
        reachable game.
        """
        if len(tracked) == 1:
            for word in tracked:
                return self._marking_inputs[word]
        merged: Set[InputChange] = set()
        for word in tracked:
            merged.update(self._marking_inputs[word])
        return tuple(sorted(merged))

    def advance_packed(
        self, tracked: PackedTracked, signal: str, target_value: int
    ) -> PackedTracked:
        """Packed tracked set after observing one signal change.

        Empty result means no tracked marking allowed the change -- for an
        output change that is a conformance violation; for inputs the caller
        only fires changes reported by :meth:`input_changes_packed`.
        """
        change = (signal, target_value)
        moves = self._moves
        if len(tracked) == 1:
            for word in tracked:
                successors = moves[word].get(change, _EMPTY)
        else:
            merged: Set[int] = set()
            for word in tracked:
                found = moves[word].get(change)
                if found:
                    merged.update(found)
            successors = frozenset(merged)
        if not successors:
            return _EMPTY
        if self._has_dummies:
            return self.closure_packed(successors)
        for word in successors:
            if word not in moves:
                self._expand_packed(word)
        return successors

    def __repr__(self) -> str:
        return "SpecEnvironment(%r, cached_markings=%d)" % (
            self.stg.name,
            self.num_tabulated,
        )
