"""Signal Transition Graphs.

An STG is a labelled marked Petri net ``G = <N, A, L>`` where ``A`` is a set
of signals and ``L`` labels transitions with signal changes (``a+`` / ``a-``)
or marks them as dummies.  This module wraps the Petri-net kernel with the
signal interpretation, the initial binary state and convenience constructors
(implicit places between transitions, as used by the ``.g`` format).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..core import PackedNet
from ..petrinet import Marking, PetriNet, PetriNetError
from .signals import Direction, SignalError, SignalTransition, SignalType

__all__ = ["STG", "STGError", "InconsistentSTGError"]

LabelLike = Union[str, SignalTransition, None]


class STGError(ValueError):
    """Raised for ill-formed STGs (unknown signals, missing initial values...)."""


class InconsistentSTGError(STGError):
    """Raised when the STG violates consistent state assignment.

    Every synthesis method and both state-space engines raise it for the
    same defect: a transition enabled against its signal's value, or one
    marking reached with two binary codes.
    """


class STG:
    """A Signal Transition Graph.

    The underlying Petri net is exposed as :attr:`net`; transitions of the
    net carry either a :class:`SignalTransition` label or ``None`` (dummy).
    """

    def __init__(self, name: str = "stg") -> None:
        self.name = name
        self.net = PetriNet(name)
        self._signals: Dict[str, SignalType] = {}
        self._labels: Dict[str, Optional[SignalTransition]] = {}
        self._initial_values: Dict[str, int] = {}
        self._instance_counter: Dict[str, int] = {}
        self._implicit_place_counter = 0

    # ------------------------------------------------------------------ #
    # Signals
    # ------------------------------------------------------------------ #
    def add_signal(
        self,
        signal: str,
        signal_type: SignalType = SignalType.OUTPUT,
        initial: Optional[int] = None,
    ) -> str:
        """Declare a signal.  Re-declaration with the same type is allowed."""
        existing = self._signals.get(signal)
        if existing is not None and existing is not signal_type:
            raise STGError(
                "signal %r re-declared with type %s (was %s)"
                % (signal, signal_type.value, existing.value)
            )
        self._signals[signal] = signal_type
        if initial is not None:
            self.set_initial_value(signal, initial)
        return signal

    def set_signal_type(self, signal: str, signal_type: SignalType) -> None:
        """Change the declared type of an existing signal."""
        if signal not in self._signals:
            raise STGError("unknown signal %r" % signal)
        self._signals[signal] = signal_type

    def set_initial_value(self, signal: str, value: int) -> None:
        """Set the initial binary value of a signal."""
        if signal not in self._signals:
            raise STGError("unknown signal %r" % signal)
        if value not in (0, 1):
            raise STGError("initial value of %r must be 0 or 1, got %r" % (signal, value))
        self._initial_values[signal] = value

    @property
    def signals(self) -> List[str]:
        """All declared signals in declaration order."""
        return list(self._signals)

    @property
    def signal_types(self) -> Dict[str, SignalType]:
        return dict(self._signals)

    def signals_of_type(self, *types: SignalType) -> List[str]:
        """Signals having one of the given types, in declaration order."""
        wanted = set(types)
        return [s for s, t in self._signals.items() if t in wanted]

    @property
    def input_signals(self) -> List[str]:
        return self.signals_of_type(SignalType.INPUT)

    @property
    def output_signals(self) -> List[str]:
        return self.signals_of_type(SignalType.OUTPUT)

    @property
    def internal_signals(self) -> List[str]:
        return self.signals_of_type(SignalType.INTERNAL)

    @property
    def implementable_signals(self) -> List[str]:
        """Signals the circuit must implement: outputs and internals."""
        return self.signals_of_type(SignalType.OUTPUT, SignalType.INTERNAL)

    @property
    def num_signals(self) -> int:
        return len(self._signals)

    def signal_type(self, signal: str) -> SignalType:
        if signal not in self._signals:
            raise STGError("unknown signal %r" % signal)
        return self._signals[signal]

    def signal_index(self, signal: str) -> int:
        """Position of the signal in the binary-code vector."""
        try:
            return self.signals.index(signal)
        except ValueError:
            raise STGError("unknown signal %r" % signal)

    # ------------------------------------------------------------------ #
    # Transitions, places and arcs
    # ------------------------------------------------------------------ #
    def add_transition(self, label: LabelLike, name: Optional[str] = None) -> str:
        """Add a transition labelled with a signal change (or a dummy).

        ``label`` may be a :class:`SignalTransition`, a string such as
        ``"a+"`` or ``"a-/2"``, or ``None`` for a dummy transition.  The
        Petri-net transition name defaults to the label (with an occurrence
        index appended automatically when the label is already used).
        """
        parsed: Optional[SignalTransition]
        if label is None:
            parsed = None
        elif isinstance(label, SignalTransition):
            parsed = label
        else:
            parsed = SignalTransition.parse(label)

        if parsed is not None and parsed.signal not in self._signals:
            raise STGError(
                "transition %s refers to undeclared signal %r"
                % (parsed.label(), parsed.signal)
            )

        if name is None:
            if parsed is None:
                base = "dummy"
                count = self._instance_counter.get(base, 0)
                self._instance_counter[base] = count + 1
                name = "%s/%d" % (base, count) if count else base
            else:
                base = parsed.label(with_index=False)
                if parsed.index:
                    name = parsed.label()
                else:
                    count = self._instance_counter.get(base, 0)
                    self._instance_counter[base] = count + 1
                    if count:
                        parsed = parsed.with_index(count)
                        name = parsed.label()
                    else:
                        name = base
        if self.net.has_transition(name):
            raise STGError("duplicate transition name %r" % name)
        self.net.add_transition(name)
        self._labels[name] = parsed
        return name

    def add_place(self, place: str, tokens: int = 0) -> str:
        """Add an explicit place."""
        return self.net.add_place(place, tokens)

    def add_arc(self, source: str, target: str) -> None:
        """Add an arc between a place and a transition (either direction)."""
        self.net.add_arc(source, target)

    def connect(
        self,
        source_transition: str,
        target_transition: str,
        tokens: int = 0,
        place: Optional[str] = None,
    ) -> str:
        """Create an implicit place linking two transitions.

        This mirrors the ``.g`` format convention where an arc written
        between two transitions stands for an anonymous place.
        """
        if place is None:
            place = "<%s,%s>" % (source_transition, target_transition)
            if self.net.has_place(place):
                self._implicit_place_counter += 1
                place = "%s#%d" % (place, self._implicit_place_counter)
        self.net.add_place(place, tokens)
        self.net.add_arc(source_transition, place)
        self.net.add_arc(place, target_transition)
        return place

    # ------------------------------------------------------------------ #
    # Labels
    # ------------------------------------------------------------------ #
    def label_of(self, transition: str) -> Optional[SignalTransition]:
        """The signal transition labelling a net transition (None = dummy)."""
        if transition not in self._labels:
            raise STGError("unknown transition %r" % transition)
        return self._labels[transition]

    def is_dummy(self, transition: str) -> bool:
        return self.label_of(transition) is None

    @property
    def transitions(self) -> List[str]:
        return list(self.net.transitions)

    @property
    def places(self) -> List[str]:
        return list(self.net.places)

    def transitions_of_signal(self, signal: str) -> List[str]:
        """All net transitions labelled with a change of ``signal``."""
        return [
            t
            for t in self.net.transitions
            if self._labels.get(t) is not None and self._labels[t].signal == signal
        ]

    def rising_transitions(self, signal: str) -> List[str]:
        return [
            t for t in self.transitions_of_signal(signal)
            if self._labels[t].direction is Direction.PLUS
        ]

    def falling_transitions(self, signal: str) -> List[str]:
        return [
            t for t in self.transitions_of_signal(signal)
            if self._labels[t].direction is Direction.MINUS
        ]

    def has_dummies(self) -> bool:
        """True if any transition is a dummy."""
        return any(label is None for label in self._labels.values())

    # ------------------------------------------------------------------ #
    # Initial marking and state
    # ------------------------------------------------------------------ #
    @property
    def initial_marking(self) -> Marking:
        return self.net.initial_marking

    def set_marking(self, places: Iterable[str]) -> None:
        """Set the initial marking to one token on each given place."""
        for place in self.net.places:
            self.net.set_initial_tokens(place, 0)
        for place in places:
            if not self.net.has_place(place):
                raise STGError("cannot mark unknown place %r" % place)
            self.net.set_initial_tokens(place, 1)

    @property
    def initial_values(self) -> Dict[str, int]:
        """Initial binary values of signals (possibly incomplete)."""
        return dict(self._initial_values)

    def has_complete_initial_state(self) -> bool:
        return all(signal in self._initial_values for signal in self._signals)

    def initial_code(self) -> Tuple[int, ...]:
        """Initial binary code as a tuple ordered like :attr:`signals`."""
        missing = [s for s in self._signals if s not in self._initial_values]
        if missing:
            raise STGError(
                "initial value missing for signals: %s (call infer_initial_state "
                "or set_initial_value)" % ", ".join(sorted(missing))
            )
        return tuple(self._initial_values[s] for s in self._signals)

    def infer_initial_state(self) -> Dict[str, int]:
        """Infer missing initial signal values from the specification.

        For every signal the direction of the *first* change reachable from
        the initial marking determines its initial value (a rising first
        change implies the signal starts at 0).  Signals with no transitions
        at all start at 0.  The others are found by a breadth-first search
        of the packed markings (:class:`~repro.core.PackedNet`, so a net no
        flow accepts raises :class:`~repro.core.UnsafeNetError`), which runs
        until every signal is determined or the reachable markings run out;
        a signal whose transitions are never enabled keeps 0.
        """
        undetermined = {s for s in self._signals if s not in self._initial_values}
        labelled = {label.signal for label in self._labels.values() if label is not None}
        for signal in undetermined - labelled:
            self._initial_values[signal] = 0
        undetermined &= labelled
        if undetermined:
            pnet = PackedNet(self.net)
            queue = deque([pnet.initial])
            seen = {pnet.initial}
            while queue and undetermined:
                marking = queue.popleft()
                for index in pnet.enabled_indices(marking):
                    label = self._labels.get(pnet.transitions[index])
                    if label is not None and label.signal in undetermined:
                        self._initial_values[label.signal] = label.source_value
                        undetermined.discard(label.signal)
                    successor = pnet.fire(marking, index)
                    if successor not in seen:
                        seen.add(successor)
                        queue.append(successor)
            for signal in undetermined:
                self._initial_values[signal] = 0
        return self.initial_values

    # ------------------------------------------------------------------ #
    # Binary-code helpers
    # ------------------------------------------------------------------ #
    def next_code(self, code: Sequence[int], transition: str) -> Tuple[int, ...]:
        """Binary code after firing ``transition`` from ``code``."""
        label = self.label_of(transition)
        if label is None:
            return tuple(code)
        index = self.signal_index(label.signal)
        updated = list(code)
        updated[index] = label.target_value
        return tuple(updated)

    def code_consistent_with(self, code: Sequence[int], transition: str) -> bool:
        """Check that ``transition`` may fire from ``code`` consistently.

        A rising transition requires the signal to currently be 0, a falling
        one requires 1; dummies are always consistent.
        """
        label = self.label_of(transition)
        if label is None:
            return True
        return code[self.signal_index(label.signal)] == label.source_value

    # ------------------------------------------------------------------ #
    # Miscellaneous
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None) -> "STG":
        """Deep-copy the STG."""
        clone = STG(name or self.name)
        clone.net = self.net.copy(name or self.name)
        clone._signals = dict(self._signals)
        clone._labels = dict(self._labels)
        clone._initial_values = dict(self._initial_values)
        clone._instance_counter = dict(self._instance_counter)
        clone._implicit_place_counter = self._implicit_place_counter
        return clone

    def statistics(self) -> Dict[str, int]:
        """Size statistics used in experiment reports."""
        return {
            "signals": self.num_signals,
            "inputs": len(self.input_signals),
            "outputs": len(self.output_signals) + len(self.internal_signals),
            "transitions": len(self.net.transitions),
            "places": len(self.net.places),
        }

    def __repr__(self) -> str:
        return "STG(%r, signals=%d, transitions=%d, places=%d)" % (
            self.name,
            self.num_signals,
            len(self.net.transitions),
            len(self.net.places),
        )
