"""Executable view of a synthesised gate-level implementation.

:class:`CircuitModel` turns an :class:`~repro.synthesis.netlist.Implementation`
into something the event-driven simulator can run on packed codes (bit
``i`` of a code word = value of signal ``i``): it answers which gates are
*excited* (their output value differs from the value their function
implies) and which gates a signal change can affect.

All three architectures are supported:

* ``acg`` -- one atomic complex gate per signal; the gate is excited when
  ``f(code) != code[signal]``;
* ``c-element`` / ``rs-latch`` -- a memory element with separate set/reset
  excitation functions; the element is excited to rise when the set function
  is true and the signal is low, excited to fall when the reset function is
  true and the signal is high, and *hazardous* when both functions are true
  at once (a drive conflict).

In every architecture an excited gate drives its signal to the complement of
the signal's current bit, so a state's excitation is one int ``excited``
(bit ``i`` set when signal ``i``'s gate is excited) and its drive conflicts
are another, ``conflicts``.  Each gate cover is compiled once into
``(care, ones)`` mask pairs over the global signal space (local variable
orders remapped through the gate's permutation): a cube covers a word iff
``word & care == ones``.  The union of a gate's care masks is its support,
and ``fanout[bit]`` lists the gates that read the signal at ``bit`` plus
that signal's own gate, whose excitation depends on its own value.  Firing
one signal changes one bit, so :meth:`CircuitModel.update` re-evaluates
only that signal's fanout; the full sweep of :meth:`CircuitModel.excitation`
runs once, for the initial state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core import iter_set_bits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (synthesis -> sim)
    from ..boolean import BooleanFunction
    from ..stg import STG
    from ..synthesis.netlist import Implementation

__all__ = ["CircuitModel"]

#: A cube as ``(care, ones)`` over global signal bits.
CubeMasks = Tuple[Tuple[int, int], ...]
#: A compiled gate: ``(bit, set cubes, reset cubes)``.  A complex gate has
#: no reset cubes (``None``): it drives its signal to the value of its one
#: function.
CompiledGate = Tuple[int, CubeMasks, Optional[CubeMasks]]


def _compile_cover(
    function: "BooleanFunction", permutation: Optional[List[int]]
) -> CubeMasks:
    """Compile a cover into ``(care, ones)`` masks over *global* signal bits.

    Gate covers are defined over the gate's own variable order; remapping
    each cube's bit positions through the permutation once lets the
    simulator evaluate gates directly on packed circuit codes.
    """
    cubes = []
    for cube in function.cover:
        ones, zeros = cube.ones, cube.zeros
        if permutation is not None:
            ones = sum(1 << permutation[i] for i in iter_set_bits(ones))
            zeros = sum(1 << permutation[i] for i in iter_set_bits(zeros))
        cubes.append((ones | zeros, ones))
    return tuple(cubes)


def _support(cubes: CubeMasks) -> int:
    support = 0
    for care, _ones in cubes:
        support |= care
    return support


class CircuitModel:
    """Executable closed-circuit model of an implementation.

    The model shares the signal order of the source STG: bit ``i`` of a
    packed code is signal ``i`` of ``stg.signals``.  Input signals have no
    gate (they are driven by the environment); every output/internal signal
    must have one, so implementations with CSC conflicts are rejected.

    Attributes
    ----------
    gate_order:
        ``(bit, signal)`` of every gate in ``stg.implementable_signals``
        order, which is ascending bit order.
    gates_by_name:
        The same pairs sorted by signal name: the order in which the
        simulator offers gate events.
    fanout:
        ``bit -> (mask, gates)`` for every signal: the compiled gates whose
        excitation can change when that signal changes, and the mask of
        their bits.
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

        gates: List[CompiledGate] = []
        supports: List[int] = []
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
            bit = 1 << self._index[signal]
            if gate.function is not None:
                up = _compile_cover(gate.function, permutation)
                down = None
                support = _support(up)
            else:
                up = _compile_cover(gate.set_function, permutation)
                down = _compile_cover(gate.reset_function, permutation)
                support = _support(up) | _support(down)
            gates.append((bit, up, down))
            supports.append(support | bit)

        self.gates: Tuple[CompiledGate, ...] = tuple(gates)
        self.gate_order: List[Tuple[int, str]] = [
            (1 << self._index[signal], signal) for signal in stg.implementable_signals
        ]
        self.gates_by_name: List[Tuple[int, str]] = sorted(
            self.gate_order, key=lambda pair: pair[1]
        )
        self.fanout: Dict[int, Tuple[int, Tuple[CompiledGate, ...]]] = {}
        for index in range(len(self.signals)):
            bit = 1 << index
            readers = tuple(
                gate for gate, support in zip(gates, supports) if support & bit
            )
            mask = 0
            for reader in readers:
                mask |= reader[0]
            self.fanout[bit] = (mask, readers)

    # ------------------------------------------------------------------ #
    # Excitation semantics
    # ------------------------------------------------------------------ #
    @staticmethod
    def evaluate(word: int, gates: Sequence[CompiledGate]) -> Tuple[int, int]:
        """``(excited, conflicts)`` bits of ``gates`` in the code ``word``."""
        excited = conflicts = 0
        for bit, up, down in gates:
            for care, ones in up:
                if word & care == ones:
                    high = True
                    break
            else:
                high = False
            if down is None:
                # A complex gate drives low wherever its function is false.
                low = not high
            else:
                for care, ones in down:
                    if word & care == ones:
                        low = True
                        break
                else:
                    low = False
                if high and low:
                    conflicts |= bit
                    continue
            if word & bit:
                if low:
                    excited |= bit
            elif high:
                excited |= bit
        return excited, conflicts

    def excitation(self, word: int) -> Tuple[int, int]:
        """``(excited, conflicts)`` masks of the code ``word``, from every gate."""
        return self.evaluate(word, self.gates)

    def update(
        self, word: int, bit: int, excited: int, conflicts: int
    ) -> Tuple[int, int, int]:
        """Masks after the signal at ``bit`` changed, giving the code ``word``.

        ``excited`` and ``conflicts`` are the masks before the change; only
        the gates in the signal's fanout are evaluated again.  Returns the
        new ``(excited, conflicts)`` and the number of gates evaluated.
        When the masks before are those of ``word ^ bit``, the new ones are
        exactly ``excitation(word)``: no gate outside the fanout reads the
        bit.
        """
        mask, readers = self.fanout[bit]
        new_excited, new_conflicts = self.evaluate(word, readers)
        return (
            (excited & ~mask) | new_excited,
            (conflicts & ~mask) | new_conflicts,
            len(readers),
        )

    def gate_signals(self, mask: int) -> List[str]:
        """Signals of the gates in ``mask``, in gate order."""
        return [signal for bit, signal in self.gate_order if mask & bit]

    def signal_index(self, signal: str) -> int:
        return self._index[signal]

    def initial_code(self) -> Tuple[int, ...]:
        """Initial circuit state (inferring missing initial values if needed)."""
        if not self.stg.has_complete_initial_state():
            self.stg.infer_initial_state()
        return self.stg.initial_code()

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
            len(self.gates),
        )
