"""Incremental State Graph maintenance for signal-insertion edits.

The CSC resolution loop edits the specification one splice at a time, and
until now every edit paid for the universe: the whole State Graph was
rebuilt from the initial marking.  :func:`extend_state_graph` instead
updates an existing graph after one :class:`~repro.spaces.InsertionEdit`,
re-exploring only the *dirty region* the splice actually perturbs.

Why the old graph survives the splice
-------------------------------------
Splicing ``x+`` after ``t_on`` (dually ``x-`` after ``t_off``) rewrites

.. code-block:: none

    t_on -> p1..pk        into        t_on -> q_on -> x+ -> p1..pk

with one fresh implicit place ``q_on``.  The rewrite is an *appending*
transformation: the rewritten STG declares the old signals first (so ``x``
is the last code bit), keeps the old places at their old indices (the
``q`` places are appended last), and leaves every old transition's preset
untouched.  Consequently, for the states of the new net in which neither
``q`` place is marked -- the **clean** states -- the packed marking word is
*exactly* an old reachable marking word, and vice versa: a clean state only
delays the causal successors of ``t_on``/``t_off``, it never enables or
disables anything else.  Its code is the old code plus the phase bit of
``x`` (1 between ``t_on`` and ``t_off`` firings), which the edit carries as
a packed mask over old state indices.

So the update is:

* **adopt** every old state as a clean survivor (marking word unchanged,
  code ORed with the phase bit) and every old edge *except* the ones
  labelled ``t_on``/``t_off`` (whose targets are now reached through the
  dirty region);
* **re-explore** only the dirty region: fire ``t_on``/``t_off`` at every
  survivor that enabled them (the splice frontier) and run the ordinary
  packed BFS from those intermediate ``q``-marked states until it drains
  back into the survivors.  The BFS interns against the combined index, so
  a dirty path rejoining a survivor with a mismatching code raises the
  same :class:`~repro.stategraph.InconsistentSTGError` a cold rebuild
  would (the phase labelling was coincidental, not causal).

The dirty BFS runs on the same backend as the full build: the
wave-at-a-time bitset kernel
(:func:`repro.kernel.bitset.kernel_incremental_bfs`) when numpy is
installed, else the pure-python loop -- only the frontier cut is ever
expanded either way.

State numbering and edge order differ from a cold rebuild (survivors keep
their old indices); every *code-level* artifact -- state/code counts,
ER/QR sets, USC/CSC reports, covers -- is identical, which is what the
equivalence suite checks.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from ..core import PackedNet, UnsafeNetError, unpack_code
from .. import kernel
from ..obs import current_tracer
from ..petrinet import StateSpaceLimitExceeded
from .stategraph import (
    InconsistentSTGError,
    StateGraph,
    _inconsistent_codes,
    _inconsistent_enabled,
)

__all__ = ["extend_state_graph"]


def _compatible(old_graph: StateGraph, edit) -> bool:
    """True when the old graph's packed words stay valid after the edit."""
    if edit.phase_mask is None:
        return False
    new_signals = edit.stg.signals
    if not new_signals or new_signals[-1] != edit.signal:
        return False
    if old_graph.signals != new_signals[:-1]:
        return False
    return True


def _adopt_survivors(
    graph: StateGraph, markings: List[int], codes: List[int]
) -> None:
    """Batch-register the old states into a fresh graph (indices preserved)."""
    graph.packed_codes.extend(codes)
    graph._packed_markings.extend(markings)
    index = graph._index
    successors = graph._successors
    predecessors = graph._predecessors
    for state, marking in enumerate(markings):
        index[marking] = state
        successors[state] = []
        predecessors[state] = []
    graph._excited_plus = [0] * len(codes)
    graph._excited_minus = [0] * len(codes)
    graph._codes_cache = None
    graph._code_index = None
    graph._version += 1


def extend_state_graph(
    old_graph: StateGraph,
    edit,
    max_states: Optional[int] = None,
) -> Optional[StateGraph]:
    """State Graph of ``edit.stg``, grown from ``old_graph`` in place of a
    cold rebuild.

    Returns ``None`` when the incremental path does not apply (no phase
    mask, non-appending rewrites) -- the caller falls back to
    :func:`~repro.stategraph.build_state_graph`.  Raises the same errors a
    cold rebuild would surface: :class:`InconsistentSTGError` for phase
    labellings the token game contradicts,
    :class:`~repro.core.UnsafeNetError` for nets
    :class:`~repro.core.PackedNet` refuses and for unsafe firings, and
    :class:`~repro.petrinet.StateSpaceLimitExceeded` over the state budget.

    The returned graph carries an ``incremental_stats`` dict
    (``survivors`` / ``states_reexplored`` / ``new_states`` /
    ``frontier_edges``) so callers can report how little of the universe
    the edit actually cost.
    """
    if not _compatible(old_graph, edit):
        return None
    stg = edit.stg
    pnet = PackedNet(stg.net)

    # The old place block must sit unchanged at the bottom of the new
    # codec so the survivors' packed marking words stay valid verbatim.
    old_places = old_graph._codec.places.names
    if pnet.codec.places.names[: len(old_places)] != old_places:
        return None

    with current_tracer().span(
        "reachability", engine="explicit", stg=stg.name, mode="incremental"
    ) as span:
        graph = _extend(old_graph, edit, pnet, max_states, span)
    return graph


def _extend(
    old_graph: StateGraph,
    edit,
    pnet: PackedNet,
    max_states: Optional[int],
    span,
) -> StateGraph:
    stg = edit.stg
    graph = StateGraph(stg, codec=pnet.codec)
    nsignals = len(graph.signals)
    x_bit = 1 << graph.signal_table.index(edit.signal)

    # ------------------------------------------------------------------ #
    # 1. Adopt the survivors: old markings verbatim, codes + phase bit.
    # ------------------------------------------------------------------ #
    old_markings = old_graph._packed_markings
    old_codes = old_graph.packed_codes
    n_old = len(old_codes)
    codes = list(old_codes)
    mask = edit.phase_mask
    while mask:
        low = mask & -mask
        codes[low.bit_length() - 1] |= x_bit
        mask ^= low
    _adopt_survivors(graph, old_markings, codes)
    if max_states is not None and n_old > max_states:
        raise StateSpaceLimitExceeded(max_states)

    # ------------------------------------------------------------------ #
    # 2. Adopt every old edge except the spliced ones; check that the
    #    phase labelling is constant along the kept edges (a cold rebuild
    #    rejects inconsistent labellings, so must the fast path).
    # ------------------------------------------------------------------ #
    t_on = edit.t_on
    t_off = edit.t_off
    add_edge = graph._add_edge
    frontier: List[Tuple[int, str]] = []
    packed_codes = graph.packed_codes
    for source, transition, target in old_graph.edges:
        if transition == t_on or transition == t_off:
            frontier.append((source, transition))
        else:
            if (packed_codes[source] ^ packed_codes[target]) & x_bit:
                raise InconsistentSTGError(
                    "inconsistent state assignment: %s fires across the "
                    "phase border of %s" % (transition, edit.signal)
                )
            add_edge(source, transition, target)

    # ------------------------------------------------------------------ #
    # 3. Seed the dirty region: fire the spliced transitions at every
    #    survivor of the frontier cut.
    # ------------------------------------------------------------------ #
    index_of = graph._index
    packed_markings = graph._packed_markings
    transitions = pnet.transitions
    presets = pnet.presets
    postsets = pnet.postsets
    signal_index = graph.signal_table.index
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

    queue = deque()
    for source, transition in frontier:
        t = pnet.transition_index(transition)
        marking = packed_markings[source]
        preset = presets[t]
        if marking & preset != preset:
            # The rewrite changed the transition's preset: not a pure
            # splice, so the survivor reuse argument does not hold.
            raise InconsistentSTGError(
                "spliced transition %s lost its enabling at a surviving "
                "state" % transition
            )
        code = packed_codes[source]
        bit = bits[t]
        if bit:
            if bool(code & bit) != (targets[t] == 0):
                raise _inconsistent_enabled(stg, transition)
            successor_code = (code | bit) if targets[t] else (code & ~bit)
        else:
            successor_code = code
        remainder = marking & ~preset
        postset = postsets[t]
        if remainder & postset:
            raise UnsafeNetError(
                "firing %r from packed marking %#x is not safe"
                % (transition, marking)
            )
        successor_marking = remainder | postset
        target = index_of.get(successor_marking)
        if target is None:
            target = graph._add_packed_state(successor_marking, successor_code)
            if max_states is not None and graph.num_states > max_states:
                raise StateSpaceLimitExceeded(max_states)
            queue.append(target)
        elif packed_codes[target] != successor_code:
            raise _inconsistent_codes(
                pnet.codec.decode(successor_marking),
                unpack_code(packed_codes[target], nsignals),
                unpack_code(successor_code, nsignals),
            )
        add_edge(source, transition, target)

    # ------------------------------------------------------------------ #
    # 4. Drain the dirty region with the ordinary packed BFS -- python
    #    loop or the numpy wave kernel, like the full build.
    # ------------------------------------------------------------------ #
    if kernel.HAS_NUMPY:
        from ..kernel.bitset import kernel_incremental_bfs

        reexplored = kernel_incremental_bfs(
            stg, pnet, graph, list(queue), max_states=max_states, span=span
        )
    else:
        reexplored = _python_dirty_bfs(
            stg, pnet, graph, queue, bits, targets, max_states
        )

    stats = {
        "survivors": n_old,
        "states_reexplored": reexplored,
        "new_states": graph.num_states - n_old,
        "frontier_edges": len(frontier),
    }
    graph.incremental_stats = stats
    if span.live:
        span.gauge("states", graph.num_states)
        span.gauge("survivors", n_old)
        span.gauge("frontier_edges", len(frontier))
        span.counter("states_reexplored", reexplored)
    return graph


def _python_dirty_bfs(
    stg,
    pnet: PackedNet,
    graph: StateGraph,
    queue,
    bits: List[int],
    targets: List[int],
    max_states: Optional[int],
) -> int:
    """Reference BFS over the dirty states only (mirrors ``_build_packed``)."""
    transitions = pnet.transitions
    presets = pnet.presets
    postsets = pnet.postsets
    ntrans = len(transitions)
    nsignals = len(graph.signals)
    index_of = graph._index
    packed_markings = graph._packed_markings
    packed_codes = graph.packed_codes
    add_edge = graph._add_edge
    reexplored = 0
    while queue:
        source = queue.popleft()
        reexplored += 1
        marking = packed_markings[source]
        code = packed_codes[source]
        for t in range(ntrans):
            preset = presets[t]
            if marking & preset != preset:
                continue
            bit = bits[t]
            if bit:
                target_value = targets[t]
                if bool(code & bit) != (target_value == 0):
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
                target = graph._add_packed_state(successor_marking, successor_code)
                if max_states is not None and graph.num_states > max_states:
                    raise StateSpaceLimitExceeded(max_states)
                queue.append(target)
            elif packed_codes[target] != successor_code:
                raise _inconsistent_codes(
                    pnet.codec.decode(successor_marking),
                    unpack_code(packed_codes[target], nsignals),
                    unpack_code(successor_code, nsignals),
                )
            add_edge(source, transitions[t], target)
    return reexplored
