"""Diagnostic records produced by the simulator.

The simulator reports three kinds of anomaly:

* :class:`Hazard` -- a violation of speed-independence observed while
  executing the circuit: either a *non-persistent* gate excitation (an
  excited gate is disabled by another transition before it fires, i.e. the
  semi-modularity condition of Section 2.1 fails on the implementation) or a
  *drive conflict* (the set and reset excitation functions of a memory
  element are simultaneously true);
* :class:`ConformanceViolation` -- the circuit produced an output change the
  specification does not allow in any state consistent with the observed
  trace (failure of the circuit/environment token game);
* :class:`Deadlock` -- a closed-loop state with no enabled circuit or
  environment event although the specification still offers a signal change
  in some marking it tracks.  A state where the specification itself can no
  longer move is a terminal state, not a deadlock: a circuit that stops
  where its specification stops conforms.

All records carry the binary code of the state they were observed in so they
can be replayed against the State Graph.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

__all__ = ["Hazard", "ConformanceViolation", "Deadlock", "format_code"]


def format_code(code: Sequence[int]) -> str:
    """Render a binary code tuple as the usual compact bit-string."""
    return "".join(str(bit) for bit in code)


class Hazard:
    """A speed-independence violation of the executing circuit.

    Attributes
    ----------
    kind:
        ``"non-persistent"`` (an excited gate was disabled before firing) or
        ``"drive-conflict"`` (set and reset functions both true).
    signal:
        The signal whose gate is hazardous.
    code:
        Binary code of the state in which the excitation was observed.
    disabled_by:
        For non-persistence: the signal change (e.g. ``"a+"``) whose firing
        disabled the excitation.  ``None`` for drive conflicts.
    """

    __slots__ = ("kind", "signal", "code", "disabled_by")

    def __init__(
        self,
        kind: str,
        signal: str,
        code: Tuple[int, ...],
        disabled_by: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.signal = signal
        self.code = tuple(code)
        self.disabled_by = disabled_by

    def describe(self) -> str:
        if self.kind == "drive-conflict":
            return "drive conflict on %s: set and reset both high in state %s" % (
                self.signal,
                format_code(self.code),
            )
        return "non-persistent excitation of %s in state %s disabled by %s" % (
            self.signal,
            format_code(self.code),
            self.disabled_by,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hazard):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.signal == other.signal
            and self.code == other.code
            and self.disabled_by == other.disabled_by
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.signal, self.code, self.disabled_by))

    def __repr__(self) -> str:
        return "Hazard(%s)" % self.describe()


class ConformanceViolation:
    """An output change the specification does not allow.

    Attributes
    ----------
    signal:
        The output (or internal) signal the circuit changed.
    target_value:
        The value the circuit drove the signal to.
    code:
        Binary code of the state *before* the disallowed change.
    """

    __slots__ = ("signal", "target_value", "code")

    def __init__(self, signal: str, target_value: int, code: Tuple[int, ...]) -> None:
        self.signal = signal
        self.target_value = target_value
        self.code = tuple(code)

    @property
    def change_label(self) -> str:
        return "%s%s" % (self.signal, "+" if self.target_value else "-")

    def describe(self) -> str:
        return "circuit fires %s in state %s but the specification allows no %s there" % (
            self.change_label,
            format_code(self.code),
            self.change_label,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConformanceViolation):
            return NotImplemented
        return (
            self.signal == other.signal
            and self.target_value == other.target_value
            and self.code == other.code
        )

    def __hash__(self) -> int:
        return hash((self.signal, self.target_value, self.code))

    def __repr__(self) -> str:
        return "ConformanceViolation(%s)" % self.describe()


class Deadlock:
    """A closed-loop state with no enabled event where the spec could move."""

    __slots__ = ("code",)

    def __init__(self, code: Tuple[int, ...]) -> None:
        self.code = tuple(code)

    def describe(self) -> str:
        return "deadlock in state %s" % format_code(self.code)

    def __repr__(self) -> str:
        return "Deadlock(%s)" % format_code(self.code)
