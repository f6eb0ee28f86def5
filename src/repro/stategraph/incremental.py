"""Incremental State Graph maintenance for signal-insertion edits.

The CSC resolution loop edits the specification one splice at a time, and
validates each candidate on the State Graph of the edited STG.
:func:`extend_state_graph` grows that graph from the current one after one
:class:`InsertionEdit`, re-exploring only the *dirty region* the splice
actually perturbs, instead of rebuilding it from the initial marking.

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
  survivor that enabled them (the splice frontier) and let the ordinary
  packed BFS run from those intermediate ``q``-marked states until it
  drains back into the survivors.  The BFS interns against the combined
  index, so a dirty path rejoining a survivor with a mismatching code
  raises the same :class:`~repro.stategraph.InconsistentSTGError` a cold
  rebuild would (the phase labelling was coincidental, not causal).

Both steps run on the python loop of the cold build (one firing rule for
the whole explicit engine), whether or not numpy is installed: a dirty
region is a few states, too small for the numpy kernel's wave arrays to
pay for themselves.

State numbering and edge order differ from a cold rebuild (survivors keep
their old indices); every *code-level* artifact -- state/code counts,
ER/QR sets, USC/CSC reports, covers -- is identical, which is what the
equivalence suite checks.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from ..core import PackedNet
from ..obs import current_tracer
from ..petrinet import StateSpaceLimitExceeded
from .stategraph import (
    InconsistentSTGError,
    StateGraph,
    _explore,
    _record_waves,
)

__all__ = ["InsertionEdit", "extend_state_graph"]


class InsertionEdit:
    """One signal-insertion rewrite, as :func:`extend_state_graph` reads it.

    Built by :func:`repro.encoding.make_insertion_edit`.

    Attributes
    ----------
    stg:
        The rewritten STG (the edit already applied).  Its signal list is
        the source STG's signals plus ``signal`` appended last, and its
        place list is the source places plus the spliced implicit places
        appended last -- the index compatibility survivor reuse rests on.
    signal:
        Name of the inserted internal signal.
    t_on / t_off:
        The transitions after which ``signal+`` / ``signal-`` were spliced.
    phase_mask:
        Packed mask over the *source* graph's state indices: bit ``s`` is 1
        when ``signal`` holds 1 in state ``s``.  ``None`` refuses the
        incremental path.
    """

    __slots__ = ("stg", "signal", "t_on", "t_off", "phase_mask")

    def __init__(self, stg, signal: str, t_on: str, t_off: str, phase_mask=None) -> None:
        self.stg = stg
        self.signal = signal
        self.t_on = t_on
        self.t_off = t_off
        self.phase_mask = phase_mask

    def __repr__(self) -> str:
        return "InsertionEdit(%r, on=%r, off=%r)" % (self.signal, self.t_on, self.t_off)


def _compatible(old_graph: StateGraph, edit: InsertionEdit) -> bool:
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
    """Batch-register the old states into a fresh graph (indices preserved),
    with the empty adjacency lists and masks the python loop fills."""
    graph._adopt_packed_states(markings, codes)
    states = range(len(codes))
    graph._successors = {state: [] for state in states}
    graph._predecessors = {state: [] for state in states}
    graph._excited_plus = [0] * len(codes)
    graph._excited_minus = [0] * len(codes)


def extend_state_graph(
    old_graph: StateGraph,
    edit: InsertionEdit,
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
    edit: InsertionEdit,
    pnet: PackedNet,
    max_states: Optional[int],
    span,
) -> StateGraph:
    graph = StateGraph(edit.stg, codec=pnet.codec)
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
    # 3. Fire the spliced transitions at every survivor of the frontier
    #    cut, then drain the dirty region behind them, on the loop of the
    #    cold build.
    # ------------------------------------------------------------------ #
    work = deque()
    for source, transition in frontier:
        t = pnet.transition_index(transition)
        preset = pnet.presets[t]
        if graph._packed_markings[source] & preset != preset:
            # The rewrite changed the transition's preset: not a pure
            # splice, so the survivor reuse argument does not hold.
            raise InconsistentSTGError(
                "spliced transition %s lost its enabling at a surviving "
                "state" % transition
            )
        work.append((source, (t,)))
    waves = _explore(graph, pnet, work, max_states, span)

    reexplored = graph.num_states - n_old
    graph.incremental_stats = {
        "survivors": n_old,
        "states_reexplored": reexplored,
        "new_states": reexplored,
        "frontier_edges": len(frontier),
    }
    if span.live:
        span.gauge("states", graph.num_states)
        span.gauge("survivors", n_old)
        span.gauge("frontier_edges", len(frontier))
        span.counter("states_reexplored", reexplored)
        _record_waves(span, waves, "dirty_waves", "dirty_bfs_depth")
    return graph
