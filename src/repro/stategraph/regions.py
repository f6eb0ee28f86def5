"""Excitation/quiescent regions and on/off/don't-care sets.

For a signal ``a`` the State Graph is partitioned into

* ``ER(a+)`` / ``ER(a-)`` -- excitation regions: states where the rising
  (falling) transition is enabled,
* ``QR(a=1)`` / ``QR(a=0)`` -- quiescent regions: states where the signal is
  stable at 1 (0),
* the **on-set** ``On(a) = ER(a+) u QR(a=1)`` and the **off-set**
  ``Off(a) = ER(a-) u QR(a=0)``,
* the **DC-set**: binary codes not reachable at all.

These are exactly the sets from which the atomic-complex-gate-per-signal
implementation is derived (Section 2.2), and they also provide the set/reset
excitation functions used by the C-element / RS-latch architectures.

All extraction runs on the packed representation: per-state excitation
bitmasks answer "is signal ``i`` excited" with one AND, the implied word
``(code & ~excited_minus) | (excited_plus & ~code)`` classifies all signals
of a state at once, and a packed code *is* a cube minterm, so building the
region covers needs no per-bit loops.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..boolean import Cover, Cube
from ..boolean.slices import code_complement
from ..stg.signals import Direction
from .stategraph import StateGraph

__all__ = [
    "SignalRegions",
    "excitation_region",
    "quiescent_region",
    "on_set_states",
    "off_set_states",
    "compute_regions",
    "states_to_cover",
    "dc_set_cover",
]


def _as_graph(graph) -> StateGraph:
    """Unwrap a state space to its explicit graph.

    Region extraction at *state index* granularity is inherently explicit:
    an :class:`~repro.spaces.ExplicitStateSpace` is unwrapped to its
    :class:`StateGraph`; a symbolic space has no state indices to offer and
    is rejected with a pointer to the protocol-level cover/code queries.
    """
    if isinstance(graph, StateGraph):
        return graph
    wrapped = getattr(graph, "explicit_graph", None)
    if isinstance(wrapped, StateGraph):
        return wrapped
    raise TypeError(
        "state-index regions need an explicit engine; use the StateSpace "
        "cover/code queries (on_cover, er_codes, ...) for %r" % type(graph).__name__
    )


def excitation_region(graph: StateGraph, signal: str, direction: Direction) -> Set[int]:
    """States where a transition ``signal``/``direction`` is enabled."""
    graph = _as_graph(graph)
    bit = 1 << graph.signal_table.index(signal)
    masks = (
        graph._excited_plus if direction is Direction.PLUS else graph._excited_minus
    )
    return {state for state in range(graph.num_states) if masks[state] & bit}


def quiescent_region(graph: StateGraph, signal: str, value: int) -> Set[int]:
    """States where the signal is stable at ``value``."""
    graph = _as_graph(graph)
    bit = 1 << graph.signal_table.index(signal)
    wanted = bit if value else 0
    masks = graph._excited_minus if value == 1 else graph._excited_plus
    codes = graph.packed_codes
    return {
        state
        for state in range(graph.num_states)
        if codes[state] & bit == wanted and not masks[state] & bit
    }


def on_set_states(graph: StateGraph, signal: str) -> Set[int]:
    """States whose implied next value of the signal is 1."""
    graph = _as_graph(graph)
    bit = 1 << graph.signal_table.index(signal)
    return {state for state in range(graph.num_states) if graph.implied_word(state) & bit}


def off_set_states(graph: StateGraph, signal: str) -> Set[int]:
    """States whose implied next value of the signal is 0."""
    graph = _as_graph(graph)
    bit = 1 << graph.signal_table.index(signal)
    return {
        state
        for state in range(graph.num_states)
        if not graph.implied_word(state) & bit
    }


def states_to_cover(graph: StateGraph, states: Iterable[int]) -> Cover:
    """Build the exact (minterm) cover of a set of states.

    A packed code is directly the minterm of the state's cube, so each cube
    is two masks (``ones = code``, ``zeros = ~code``) built without touching
    individual bits.
    """
    graph = _as_graph(graph)
    nvars = len(graph.signals)
    full = (1 << nvars) - 1
    packed = graph.packed_codes
    cubes = []
    seen: Set[int] = set()
    for state in states:
        code = packed[state]
        if code in seen:
            continue
        seen.add(code)
        cubes.append(Cube(nvars, code, full & ~code))
    return Cover(nvars, cubes)


def dc_set_cover(graph: StateGraph) -> Cover:
    """Cover of the unreachable binary codes (the don't-care set).

    The contract is the function: the cover holds every code no state has
    and no other.  Its cubes are primes against the reachable codes (see
    :func:`~repro.boolean.slices.code_complement`).  Espresso reads the
    DC-set only through intersection and containment tests, so it
    minimises to the same cover as with the complement's fragments, while
    it walks several times fewer cubes.
    """
    graph = _as_graph(graph)
    return code_complement(len(graph.signals), graph.reachable_packed_codes())


class SignalRegions:
    """All regions of one signal, with covers ready for synthesis."""

    def __init__(self, graph: StateGraph, signal: str) -> None:
        graph = _as_graph(graph)
        self.graph = graph
        self.signal = signal
        bit = 1 << graph.signal_table.index(signal)
        plus = graph._excited_plus
        minus = graph._excited_minus
        codes = graph.packed_codes
        er_plus: Set[int] = set()
        er_minus: Set[int] = set()
        qr_high: Set[int] = set()
        qr_low: Set[int] = set()
        for state in range(graph.num_states):
            if plus[state] & bit:
                er_plus.add(state)
            if minus[state] & bit:
                er_minus.add(state)
            if codes[state] & bit:
                if not minus[state] & bit:
                    qr_high.add(state)
            elif not plus[state] & bit:
                qr_low.add(state)
        self.er_plus = er_plus
        self.er_minus = er_minus
        self.qr_high = qr_high
        self.qr_low = qr_low
        self.on_states = er_plus | qr_high
        self.off_states = er_minus | qr_low

    @property
    def on_cover(self) -> Cover:
        """Exact cover of the on-set."""
        return states_to_cover(self.graph, sorted(self.on_states))

    @property
    def off_cover(self) -> Cover:
        """Exact cover of the off-set."""
        return states_to_cover(self.graph, sorted(self.off_states))

    @property
    def set_cover(self) -> Cover:
        """Exact cover of ER(a+), the set excitation function's on-set."""
        return states_to_cover(self.graph, sorted(self.er_plus))

    @property
    def reset_cover(self) -> Cover:
        """Exact cover of ER(a-), the reset excitation function's on-set."""
        return states_to_cover(self.graph, sorted(self.er_minus))

    def partition_is_complete(self) -> bool:
        """Every reachable state is either in the on-set or the off-set."""
        return (
            self.on_states | self.off_states == set(range(self.graph.num_states))
            and not (self.on_states & self.off_states)
        )

    def __repr__(self) -> str:
        return "SignalRegions(%r, on=%d, off=%d, er+=%d, er-=%d)" % (
            self.signal,
            len(self.on_states),
            len(self.off_states),
            len(self.er_plus),
            len(self.er_minus),
        )


def compute_regions(graph: StateGraph) -> Dict[str, SignalRegions]:
    """Compute :class:`SignalRegions` for every implementable signal."""
    return {
        signal: SignalRegions(graph, signal)
        for signal in graph.stg.implementable_signals
    }
