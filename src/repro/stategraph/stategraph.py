"""State Graph (State Transition Diagram) construction.

The State Graph of an STG is its reachability graph with a binary code
attached to every reachable marking (Section 2.1).  It is the semantic
object classic synthesis tools (SIS, Petrify) work on and the reference the
unfolding-based method must agree with; in this reproduction it powers the
"SIS-like" baseline and all ground-truth checks in the test suite.

Packed representation
---------------------
States are stored packed (see :mod:`repro.core`): the binary code of state
``s`` is one int whose bit ``i`` is the value of signal ``i`` (signal order
= ``stg.signals``), and the marking is one int whose bit ``j`` is the token
count of place ``j``.  Only safe, weight-1 nets have such markings, so
:func:`build_state_graph` compiles a :class:`~repro.core.PackedNet` first
and raises :class:`~repro.core.UnsafeNetError` for any other net, or when a
reachable firing would put a second token on a place.  Alongside the codes
the graph keeps two per-state *excitation masks* -- bit ``i`` of
``excited_plus_mask(s)`` (``excited_minus_mask(s)``) is 1 when a rising
(falling) transition of signal ``i`` is enabled in ``s`` -- which turn
region extraction and implied-value queries into single integer operations.
The tuple/dict APIs (``codes``, ``markings``, ``code_of``...) survive as
thin adapters decoding on demand, so region/CSC/unfolding consumers remain
source-compatible.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..core import (
    LazyDecodedList,
    PackedNet,
    SignalTable,
    UnsafeNetError,
    pack_code,
    unpack_code,
)
from .. import kernel
from ..obs import NULL_SPAN, current_tracer
from ..petrinet import Marking, StateSpaceLimitExceeded
from ..stg import STG, InconsistentSTGError
from ..stg.signals import Direction

__all__ = ["StateGraph", "InconsistentSTGError", "build_state_graph"]


class StateGraph:
    """Reachability graph of an STG with binary codes.

    Both backends of :func:`build_state_graph` fill this object.  The
    python loop (``_explore``) adds one state at a time
    (``_add_packed_state``) and one edge at a time (``_add_edge``), keeping
    the adjacency lists and excitation masks current as it goes.  The numpy
    kernel (:func:`repro.kernel.bitset.kernel_bfs`) adopts each BFS wave's
    new states in bulk (``_adopt_packed_states`` grows the markings, the
    codes and the marking index), keeps its edges as ``uint32`` arrays and
    sets the excitation masks once, at the end; a kernel-built graph
    creates its edge tuples and its ``_successors`` / ``_predecessors``
    lists on first use.

    Attributes
    ----------
    stg:
        The source STG.
    markings:
        Reachable markings (index 0 is the initial one), a lazy view
        decoding the packed marking words.
    codes:
        Binary code of every state as tuples ordered like ``stg.signals``
        (an adapter materialised from :attr:`packed_codes` on first use).
    packed_codes:
        Binary code of every state as one int (bit ``i`` = signal ``i``).
    edges:
        ``(source, transition, target)`` triples.
    """

    def __init__(self, stg: STG, codec) -> None:
        self.stg = stg
        self.signals: List[str] = stg.signals
        self.signal_table = SignalTable(self.signals)
        self.packed_codes: List[int] = []
        self._edges: List[Tuple[int, str, int]] = []
        # Kernel-built graphs keep edges as compact (src, transition-index,
        # tgt) uint32 arrays; tuples and adjacency dicts materialise lazily.
        self._kernel_edges: Optional[tuple] = None
        self._edges_ready = True
        self._adjacency_ready = True
        # uint64 views of codes/excitation masks, set by the numpy kernel
        # (or cached by repro.kernel.bitset.graph_arrays on first sweep).
        self._kernel_codes = None
        self._kernel_excited_plus = None
        self._kernel_excited_minus = None
        self._codec = codec
        self._packed_markings: List[int] = []
        self._marking_list = LazyDecodedList(self._packed_markings, codec.decode)
        # Packed marking word -> state index.
        self._index: Dict[int, int] = {}
        self._successors: Dict[int, List[Tuple[str, int]]] = {}
        self._predecessors: Dict[int, List[Tuple[str, int]]] = {}
        # Per-state excitation bitmasks over signal indices.
        self._excited_plus: List[int] = []
        self._excited_minus: List[int] = []
        # Direction bit of each labelled transition, cached for _add_edge.
        self._transition_bits: Dict[str, Tuple[int, int]] = {}
        self._codes_cache: Optional[List[Tuple[int, ...]]] = None
        self._code_index: Optional[Dict[int, List[int]]] = None
        # Monotonic mutation stamp: bumped by every state/edge addition so
        # derived array caches (repro.kernel.bitset.graph_arrays) invalidate
        # on *any* mutation, not just on state-count changes -- adding an
        # edge alone changes the excitation masks without adding a state.
        self._version = 0
        # Stamp the kernel arrays were captured at (-1 = never captured).
        self._kernel_version = -1

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @property
    def markings(self):
        return self._marking_list

    def _add_packed_state(self, marking_word: int, code_word: int) -> int:
        """Append one state with empty adjacency lists (the python loop)."""
        index = len(self._index)
        self._index[marking_word] = index
        self._packed_markings.append(marking_word)
        self.packed_codes.append(code_word)
        self._successors[index] = []
        self._predecessors[index] = []
        self._excited_plus.append(0)
        self._excited_minus.append(0)
        self._codes_cache = None
        self._code_index = None
        self._version += 1
        return index

    def _adopt_packed_states(self, markings: List[int], codes: List[int]) -> None:
        """Append states in bulk, numbered on from the current count.

        Only the state lists and the index grow: adjacency lists and
        excitation masks are the caller's to set.
        """
        start = len(self.packed_codes)
        self._index.update(zip(markings, range(start, start + len(markings))))
        self._packed_markings.extend(markings)
        self.packed_codes.extend(codes)
        self._codes_cache = None
        self._code_index = None
        self._version += 1

    def _transition_bit(self, transition: str) -> Tuple[int, int]:
        """``(signal_bit, is_rising)`` of a transition; ``(0, 0)`` for dummies."""
        cached = self._transition_bits.get(transition)
        if cached is None:
            label = self.stg.label_of(transition)
            if label is None:
                cached = (0, 0)
            else:
                cached = (
                    1 << self.signal_table.index(label.signal),
                    1 if label.direction is Direction.PLUS else 0,
                )
            self._transition_bits[transition] = cached
        return cached

    def _add_edge(self, source: int, transition: str, target: int) -> None:
        self._edges.append((source, transition, target))
        self._successors[source].append((transition, target))
        self._predecessors[target].append((transition, source))
        self._version += 1
        bit, rising = self._transition_bit(transition)
        if bit:
            if rising:
                self._excited_plus[source] |= bit
            else:
                self._excited_minus[source] |= bit

    def _set_kernel_edges(self, src, t_idx, tgt, transitions) -> None:
        """Adopt the kernel's compact edge arrays (uint32 each).

        Tuple edges and the adjacency dicts are rebuilt from the arrays on
        first access -- frontier/region/CSC sweeps never pay for them.
        """
        self._kernel_edges = (src, t_idx, tgt, tuple(transitions))
        self._edges_ready = False
        self._adjacency_ready = False
        self._version += 1

    def _materialise_edges(self) -> None:
        src, t_idx, tgt, names = self._kernel_edges
        self._edges = [
            (s, names[t], g)
            for s, t, g in zip(src.tolist(), t_idx.tolist(), tgt.tolist())
        ]
        self._edges_ready = True

    def _materialise_adjacency(self) -> None:
        src, t_idx, tgt, names = self._kernel_edges
        states = range(self.num_states)
        successors = {state: [] for state in states}
        predecessors = {state: [] for state in states}
        for s, t, g in zip(src.tolist(), t_idx.tolist(), tgt.tolist()):
            name = names[t]
            successors[s].append((name, g))
            predecessors[g].append((name, s))
        self._successors = successors
        self._predecessors = predecessors
        self._adjacency_ready = True

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def num_states(self) -> int:
        return len(self.packed_codes)

    @property
    def edges(self) -> List[Tuple[int, str, int]]:
        """``(source, transition, target)`` triples, in discovery order."""
        if not self._edges_ready:
            self._materialise_edges()
        return self._edges

    @property
    def num_edges(self) -> int:
        if not self._edges_ready:
            return int(self._kernel_edges[0].size)
        return len(self._edges)

    def __len__(self) -> int:
        return len(self.packed_codes)

    @property
    def codes(self) -> List[Tuple[int, ...]]:
        """All codes as tuples (materialised from the packed ints once)."""
        if self._codes_cache is None:
            nsignals = len(self.signals)
            self._codes_cache = [
                unpack_code(word, nsignals) for word in self.packed_codes
            ]
        return self._codes_cache

    def index_of(self, marking: Marking) -> Optional[int]:
        try:
            return self._index.get(self._codec.encode(marking))
        except (UnsafeNetError, KeyError):
            # Non-safe markings and unknown places are both unreachable.
            return None

    def code_of(self, state: int) -> Tuple[int, ...]:
        return unpack_code(self.packed_codes[state], len(self.signals))

    def packed_code_of(self, state: int) -> int:
        """Binary code of a state as one int (bit ``i`` = signal ``i``)."""
        return self.packed_codes[state]

    def successors(self, state: int) -> List[Tuple[str, int]]:
        """Outgoing ``(transition, target)`` pairs.

        Returns the stored list -- callers must not mutate it.
        """
        if not self._adjacency_ready:
            self._materialise_adjacency()
        return self._successors[state]

    def predecessors(self, state: int) -> List[Tuple[str, int]]:
        """Incoming ``(transition, source)`` pairs.

        Returns the stored list -- callers must not mutate it.
        """
        if not self._adjacency_ready:
            self._materialise_adjacency()
        return self._predecessors[state]

    def enabled_transitions(self, state: int) -> List[str]:
        if not self._adjacency_ready:
            self._materialise_adjacency()
        return [transition for transition, _target in self._successors[state]]

    def signal_value(self, state: int, signal: str) -> int:
        """Current binary value of a signal in a state."""
        return (self.packed_codes[state] >> self.signal_table.index(signal)) & 1

    def excited_plus_mask(self, state: int) -> int:
        """Bitmask of signals with an enabled rising transition."""
        return self._excited_plus[state]

    def excited_minus_mask(self, state: int) -> int:
        """Bitmask of signals with an enabled falling transition."""
        return self._excited_minus[state]

    def excited_signals(self, state: int) -> Set[str]:
        """Signals with an enabled transition in the state."""
        mask = self._excited_plus[state] | self._excited_minus[state]
        return set(self.signal_table.names_in(mask))

    def is_excited(self, state: int, signal: str, direction: Optional[Direction] = None) -> bool:
        """True if a transition of ``signal`` (optionally of a specific
        direction) is enabled in the state."""
        bit = 1 << self.signal_table.index(signal)
        if direction is Direction.PLUS:
            return bool(self._excited_plus[state] & bit)
        if direction is Direction.MINUS:
            return bool(self._excited_minus[state] & bit)
        return bool((self._excited_plus[state] | self._excited_minus[state]) & bit)

    def implied_word(self, state: int) -> int:
        """Packed next-state (implied) code of the whole state.

        Bit ``i`` is 1 when signal ``i`` is excited to rise or stable at 1:
        ``(code & ~excited_minus) | (excited_plus & ~code)``.
        """
        code = self.packed_codes[state]
        return (code & ~self._excited_minus[state]) | (self._excited_plus[state] & ~code)

    def implied_value(self, state: int, signal: str) -> int:
        """Next-state (implied) value of a signal.

        The implied value is 1 when the signal is excited to rise or stable
        at 1, and 0 when it is excited to fall or stable at 0.  The on-set of
        a signal is exactly the set of states whose implied value is 1.
        """
        return (self.implied_word(state) >> self.signal_table.index(signal)) & 1

    def states_with_code(self, code: Union[int, Sequence[int]]) -> List[int]:
        """All states carrying the given binary code (packed int or tuple)."""
        if self._code_index is None:
            index: Dict[int, List[int]] = {}
            for state, word in enumerate(self.packed_codes):
                index.setdefault(word, []).append(state)
            self._code_index = index
        target = code if isinstance(code, int) else pack_code(code)
        return self._code_index.get(target, [])

    def deadlock_states(self) -> List[int]:
        if not self._adjacency_ready:
            self._materialise_adjacency()
        return [i for i in range(self.num_states) if not self._successors[i]]

    def reachable_codes(self) -> Set[Tuple[int, ...]]:
        """The set of binary codes of reachable states, as tuples."""
        nsignals = len(self.signals)
        return {unpack_code(word, nsignals) for word in self.packed_codes}

    def reachable_packed_codes(self) -> Set[int]:
        """The set of binary codes of reachable states, as packed ints."""
        return set(self.packed_codes)

    def __repr__(self) -> str:
        return "StateGraph(states=%d, edges=%d, signals=%d)" % (
            self.num_states,
            self.num_edges,
            len(self.signals),
        )


def build_state_graph(
    stg: STG,
    max_states: Optional[int] = None,
) -> StateGraph:
    """Build the State Graph of an STG by breadth-first exploration.

    Raises :class:`InconsistentSTGError` when the specification violates
    consistent state assignment, :class:`~repro.core.UnsafeNetError` when
    the net is not safe and weight-1 (see :class:`~repro.core.PackedNet`)
    and :class:`StateSpaceLimitExceeded` when the optional state budget is
    hit.

    With numpy installed (:data:`repro.kernel.HAS_NUMPY`) the packed BFS
    runs over whole waves on the bitset kernel, else on the pure-python
    loop.  Both produce the same graph (state numbering, edge order,
    excitation masks); codes of any width fit the kernel's multi-word rows,
    so signal count never decides the backend.
    """
    if not stg.has_complete_initial_state():
        stg.infer_initial_state()
    build = _build_kernel if kernel.HAS_NUMPY else _build_packed
    with current_tracer().span("reachability", engine="explicit", stg=stg.name) as span:
        return build(stg, PackedNet(stg.net), max_states, span)


def _inconsistent_enabled(stg: STG, transition: str) -> InconsistentSTGError:
    label = stg.label_of(transition)
    return InconsistentSTGError(
        "inconsistent state assignment: %s enabled while %s = %d"
        % (transition, label.signal, label.target_value)
    )


def _inconsistent_codes(
    marking, existing_code: Tuple[int, ...], new_code: Tuple[int, ...]
) -> InconsistentSTGError:
    return InconsistentSTGError(
        "marking %s reached with two different codes %s / %s"
        % (
            marking,
            "".join(map(str, existing_code)),
            "".join(map(str, new_code)),
        )
    )


def _build_kernel(
    stg: STG, pnet: PackedNet, max_states: Optional[int], span=NULL_SPAN
) -> StateGraph:
    """Packed BFS on the numpy bitset kernel (identical output, wave-at-a-time)."""
    from ..kernel.bitset import kernel_bfs

    graph = StateGraph(stg, codec=pnet.codec)
    return kernel_bfs(stg, pnet, graph, max_states=max_states, span=span)


def _build_packed(
    stg: STG, pnet: PackedNet, max_states: Optional[int], span=NULL_SPAN
) -> StateGraph:
    graph = StateGraph(stg, codec=pnet.codec)
    graph._add_packed_state(pnet.initial, pack_code(stg.initial_code()))
    work = deque([(0, range(len(pnet.transitions)))])
    waves = _explore(graph, pnet, work, max_states, span)
    if span.live:
        span.gauge("states", graph.num_states)
        span.gauge("edges", graph.num_edges)
        _record_waves(span, [1] + waves, "frontier_waves", "bfs_depth")
        span.gauge("interned_markings", len(graph._index))
    return graph


def _explore(
    graph: StateGraph,
    pnet: PackedNet,
    work: deque,
    max_states: Optional[int],
    span=NULL_SPAN,
) -> List[int]:
    """Drain ``work`` breadth-first: the explicit engine's python firing rule.

    Each item of ``work`` is ``(source, candidates)``: every transition
    index in ``candidates`` that is enabled in state ``source`` fires, in
    order.  The firing checks that the signal holds its source value and
    that no place gets a second token, interns the successor marking
    (raising when a known marking arrives with another code) and records
    the edge.  A marking reached for the first time becomes a new state
    and is queued with every transition as its candidates.  The cold
    build starts from the initial state; :func:`extend_state_graph` starts
    from the spliced transitions at the surviving states.

    Returns, when ``span`` is live, the number of new states at each depth
    from the states ``graph`` held on entry (depth 1 first); else ``[]``.
    """
    stg = graph.stg
    nsignals = len(graph.signals)
    signal_index = graph.signal_table.index
    transitions = pnet.transitions
    presets = pnet.presets
    postsets = pnet.postsets
    # Dummies carry signal bit 0 and leave the code untouched.
    bits: List[int] = []
    targets: List[int] = []
    for name in transitions:
        label = stg.label_of(name)
        if label is None:
            bits.append(0)
            targets.append(0)
        else:
            bits.append(1 << signal_index(label.signal))
            targets.append(label.target_value)
    every = range(len(transitions))

    index_of = graph._index
    packed_markings = graph._packed_markings
    packed_codes = graph.packed_codes
    add_state = graph._add_packed_state
    add_edge = graph._add_edge
    # Depth of every new state, kept only while tracing: it turns into the
    # per-wave size series without touching the disabled hot path.
    live = span.live
    base = len(packed_codes)
    depths: List[int] = []
    while work:
        source, candidates = work.popleft()
        marking = packed_markings[source]
        code = packed_codes[source]
        for t in candidates:
            preset = presets[t]
            if marking & preset != preset:
                continue
            bit = bits[t]
            if bit:
                target_value = targets[t]
                if bool(code & bit) != (target_value == 0):
                    # The signal must currently hold the source value.
                    raise _inconsistent_enabled(stg, transitions[t])
                successor_code = (code | bit) if target_value else (code & ~bit)
            else:
                successor_code = code
            remainder = marking & ~preset
            postset = postsets[t]
            if remainder & postset:
                raise UnsafeNetError(
                    "firing %r from packed marking %#x is not safe"
                    % (transitions[t], marking)
                )
            successor_marking = remainder | postset
            target = index_of.get(successor_marking)
            if target is None:
                target = add_state(successor_marking, successor_code)
                if max_states is not None and len(packed_codes) > max_states:
                    raise StateSpaceLimitExceeded(max_states)
                work.append((target, every))
                if live:
                    depths.append(depths[source - base] + 1 if source >= base else 1)
                    # Deterministic throttle: one progress event per 4096
                    # states.
                    if len(packed_codes) % 4096 == 0:
                        span.progress(len(packed_codes), max_states)
            elif packed_codes[target] != successor_code:
                raise _inconsistent_codes(
                    pnet.codec.decode(successor_marking),
                    unpack_code(packed_codes[target], nsignals),
                    unpack_code(successor_code, nsignals),
                )
            add_edge(source, transitions[t], target)
    waves: List[int] = []
    for depth in depths:
        if depth > len(waves):
            waves.append(0)
        waves[depth - 1] += 1
    return waves


def _record_waves(span, waves: List[int], series: str, depth: str) -> None:
    """The per-wave size series of a BFS and its depth."""
    for size in waves:
        span.append(series, size)
    span.gauge(depth, max(len(waves) - 1, 0))
