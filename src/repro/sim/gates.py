"""Executable view of a synthesised gate-level implementation.

:class:`CircuitModel` turns an :class:`~repro.synthesis.netlist.Implementation`
into something the event-driven simulator can run: given the current binary
code of all signals it answers which gates are *excited* (their output value
differs from the value their function implies) and what firing one of them
does to the code.

All three architectures are supported:

* ``acg`` -- one atomic complex gate per signal; the gate is excited when
  ``f(code) != code[signal]``;
* ``c-element`` / ``rs-latch`` -- a memory element with separate set/reset
  excitation functions; the element is excited to rise when the set function
  is true and the signal is low, excited to fall when the reset function is
  true and the signal is high, and *hazardous* when both functions are true
  at once (a drive conflict).

Each gate cover is compiled once into ``(ones, zeros)`` bitmask pairs over
the *global* signal space (bit ``i`` = signal ``i``, local variable orders
remapped through the gate's permutation), so the packed simulation engine
evaluates a gate on a packed code word with two ANDs per cube
(``ones & ~word == 0 and zeros & word == 0``).  The sequence-based
``evaluate``/``excitation`` API remains for the random walker.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (synthesis -> sim)
    from ..boolean import BooleanFunction
    from ..stg import STG
    from ..synthesis.netlist import Implementation

__all__ = ["CircuitModel"]


def _remap_cover_masks(
    cover, permutation: Optional[List[int]]
) -> List[Tuple[int, int]]:
    """Compile a cover into ``(ones, zeros)`` masks over *global* signal bits.

    Gate covers are defined over the gate's own variable order; remapping
    each cube's bit positions through the permutation once at compile time
    lets the simulator evaluate gates directly on packed circuit codes.
    """
    pairs: List[Tuple[int, int]] = []
    for cube in cover:
        if permutation is None:
            pairs.append((cube.ones, cube.zeros))
            continue
        ones = 0
        mask = cube.ones
        while mask:
            low = mask & -mask
            ones |= 1 << permutation[low.bit_length() - 1]
            mask ^= low
        zeros = 0
        mask = cube.zeros
        while mask:
            low = mask & -mask
            zeros |= 1 << permutation[low.bit_length() - 1]
            mask ^= low
        pairs.append((ones, zeros))
    return pairs


class _CompiledGate:
    """One gate with its cover inputs mapped to circuit code positions.

    Each cover is additionally compiled to ``(ones, zeros)`` mask pairs in
    the global signal space so the gate can be evaluated on a packed code
    word: a cube covers the word iff ``ones & ~word == 0 and
    zeros & word == 0``.
    """

    __slots__ = (
        "signal",
        "index",
        "function",
        "set_function",
        "reset_function",
        "permutation",
        "packed_function",
        "packed_set",
        "packed_reset",
    )

    def __init__(
        self,
        signal: str,
        index: int,
        function: Optional["BooleanFunction"],
        set_function: Optional["BooleanFunction"],
        reset_function: Optional["BooleanFunction"],
        permutation: Optional[List[int]],
    ) -> None:
        self.signal = signal
        self.index = index
        self.function = function
        self.set_function = set_function
        self.reset_function = reset_function
        self.permutation = permutation
        self.packed_function = (
            _remap_cover_masks(function.cover, permutation)
            if function is not None
            else None
        )
        self.packed_set = (
            _remap_cover_masks(set_function.cover, permutation)
            if set_function is not None
            else None
        )
        self.packed_reset = (
            _remap_cover_masks(reset_function.cover, permutation)
            if reset_function is not None
            else None
        )

    def _project(self, code: Sequence[int]) -> Sequence[int]:
        if self.permutation is None:
            return code
        return [code[i] for i in self.permutation]

    def evaluate(self, code: Sequence[int]) -> Tuple[Optional[int], bool]:
        """Return ``(target_value, drive_conflict)`` for the gate in ``code``.

        ``target_value`` is the value the gate drives the signal towards
        (``None`` when a memory element holds its current value) and
        ``drive_conflict`` flags set/reset functions both true.
        """
        vector = self._project(code)
        if self.function is not None:
            return (1 if self.function.evaluate_vector(vector) else 0), False
        set_high = bool(self.set_function.evaluate_vector(vector))
        reset_high = bool(self.reset_function.evaluate_vector(vector))
        if set_high and reset_high:
            return None, True
        if set_high:
            return 1, False
        if reset_high:
            return 0, False
        return None, False

    def evaluate_packed(self, word: int) -> Tuple[Optional[int], bool]:
        """Packed-code twin of :meth:`evaluate` (``word`` bit i = signal i)."""
        if self.packed_function is not None:
            for ones, zeros in self.packed_function:
                if not (ones & ~word) and not (zeros & word):
                    return 1, False
            return 0, False
        set_high = False
        for ones, zeros in self.packed_set:
            if not (ones & ~word) and not (zeros & word):
                set_high = True
                break
        reset_high = False
        for ones, zeros in self.packed_reset:
            if not (ones & ~word) and not (zeros & word):
                reset_high = True
                break
        if set_high and reset_high:
            return None, True
        if set_high:
            return 1, False
        if reset_high:
            return 0, False
        return None, False


class CircuitModel:
    """Executable closed-circuit model of an implementation.

    The model shares the signal order of the source STG: a circuit state is
    the binary code tuple ordered like ``stg.signals``.  Input signals have
    no gate (they are driven by the environment); every output/internal
    signal must have one, so implementations with CSC conflicts are rejected.
    """

    def __init__(self, stg: "STG", implementation: "Implementation") -> None:
        if implementation.has_csc_conflict:
            raise ValueError(
                "cannot simulate %r: CSC conflicts leave signals without gates (%s)"
                % (implementation.stg_name, ", ".join(sorted(implementation.csc_conflicts)))
            )
        self.stg = stg
        self.implementation = implementation
        self.signals: List[str] = list(stg.signals)
        self._index: Dict[str, int] = {s: i for i, s in enumerate(self.signals)}
        self.input_signals = frozenset(stg.input_signals)

        missing = [s for s in stg.implementable_signals if s not in implementation.gates]
        if missing:
            raise ValueError(
                "implementation of %r has no gate for signals: %s"
                % (implementation.stg_name, ", ".join(sorted(missing)))
            )

        self._gates: List[_CompiledGate] = []
        for signal in stg.implementable_signals:
            gate = implementation.gates[signal]
            function = gate.function if gate.function is not None else gate.set_function
            names = list(function.names) if function is not None else self.signals
            if names == self.signals:
                permutation: Optional[List[int]] = None
            else:
                try:
                    permutation = [self._index[name] for name in names]
                except KeyError as exc:
                    raise ValueError(
                        "gate %r depends on unknown signal %s" % (signal, exc)
                    )
            self._gates.append(
                _CompiledGate(
                    signal,
                    self._index[signal],
                    gate.function,
                    gate.set_function,
                    gate.reset_function,
                    permutation,
                )
            )

    # ------------------------------------------------------------------ #
    # Excitation semantics
    # ------------------------------------------------------------------ #
    def excitation(self, code: Sequence[int]) -> Dict[str, int]:
        """Excited gates in ``code``: signal -> value it wants to move to."""
        excited: Dict[str, int] = {}
        for gate in self._gates:
            target, _conflict = gate.evaluate(code)
            if target is not None and target != code[gate.index]:
                excited[gate.signal] = target
        return excited

    def drive_conflicts(self, code: Sequence[int]) -> List[str]:
        """Signals whose set and reset functions are both true in ``code``."""
        return [gate.signal for gate in self._gates if gate.evaluate(code)[1]]

    def fire(self, code: Sequence[int], signal: str, target_value: int) -> Tuple[int, ...]:
        """Binary code after the given signal settles to ``target_value``."""
        updated = list(code)
        updated[self._index[signal]] = target_value
        return tuple(updated)

    def signal_index(self, signal: str) -> int:
        return self._index[signal]

    def initial_code(self) -> Tuple[int, ...]:
        """Initial circuit state (inferring missing initial values if needed)."""
        if not self.stg.has_complete_initial_state():
            self.stg.infer_initial_state()
        return self.stg.initial_code()

    # ------------------------------------------------------------------ #
    # Packed-code twins (word bit i = value of signal i)
    # ------------------------------------------------------------------ #
    def excitation_packed(self, word: int) -> Dict[str, int]:
        """Excited gates in the packed code ``word``."""
        excited: Dict[str, int] = {}
        for gate in self._gates:
            target, _conflict = gate.evaluate_packed(word)
            if target is not None and target != (word >> gate.index) & 1:
                excited[gate.signal] = target
        return excited

    def drive_conflicts_packed(self, word: int) -> List[str]:
        """Signals whose set and reset functions are both true in ``word``."""
        return [
            gate.signal for gate in self._gates if gate.evaluate_packed(word)[1]
        ]

    def fire_packed(self, word: int, signal: str, target_value: int) -> int:
        """Packed code after the given signal settles to ``target_value``."""
        bit = 1 << self._index[signal]
        return (word | bit) if target_value else (word & ~bit)

    def initial_packed_code(self) -> int:
        word = 0
        for index, value in enumerate(self.initial_code()):
            if value:
                word |= 1 << index
        return word

    def __repr__(self) -> str:
        return "CircuitModel(%r, %s, gates=%d)" % (
            self.implementation.stg_name,
            self.implementation.architecture,
            len(self._gates),
        )
