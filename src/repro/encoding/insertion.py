"""Signal insertion: STG rewriting and greedy region selection.

``apply_insertion`` rewrites an STG with one new internal signal whose
rising transition is spliced after ``region.t_on`` and falling transition
after ``region.t_off``.  Splicing after ``t`` is the classic event-boundary
transformation::

        t -> p1 -> u                 t -> <t,x+> -> x+ -> p1 -> u
        t -> p2 -> v      ==>                      x+ -> p2 -> v

i.e. the new transition takes over every postset place of ``t`` and a fresh
implicit place sequences it behind ``t``.  The transformation only *delays*
the causal successors of ``t`` (it can never disable an enabled transition),
keeps safe nets safe (the new place has one producer and one consumer), and
keeps the rewritten graph on the packed State Graph engine.

``choose_insertion`` ranks candidate regions greedily: most conflicting
pairs separated first, then the estimated logic cost of the new signal
(literal count of its minimised on/off covers on the current State Graph),
then lexicographic name order so runs are reproducible; a seeded RNG can
shuffle equal-cost ties.
"""

from __future__ import annotations

import hashlib
import random
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..boolean import Cover, Cube, espresso
from ..obs import current_tracer
from ..stategraph import InsertionEdit, StateGraph, dc_set_cover, states_to_cover
from ..stg import STG
from ..stg.signals import SignalType
from .conflicts import ConflictCore, separation_gain
from .regions import InsertionRegion

__all__ = [
    "apply_insertion",
    "choose_insertion",
    "estimate_cost",
    "fresh_signal_name",
    "make_insertion_edit",
]


def fresh_signal_name(stg: STG, prefix: str = "csc") -> str:
    """First ``csc<k>`` name not already declared in the STG."""
    existing = set(stg.signals)
    index = 0
    while "%s%d" % (prefix, index) in existing:
        index += 1
    return "%s%d" % (prefix, index)


#: Bounded FIFO memo for :func:`estimate_cost` espresso results, keyed on
#: ``(nvars, on-set digest, dc digest)``.  The estimate is a pure function
#: of those inputs (the off-set is their complement within the code space),
#: so hits are safe across candidates, rounds and even specifications; the
#: bound keeps long batch runs from accumulating stale graphs.
_COST_CACHE: "OrderedDict[Tuple[int, bytes, bytes], int]" = OrderedDict()
_COST_CACHE_MAX = 4096


def _cover_digest(cover: Cover) -> bytes:
    """Order-sensitive digest of a cover's cube masks."""
    nbytes = (2 * cover.nvars + 7) // 8 or 1
    digest = hashlib.blake2b(digest_size=16)
    digest.update(cover.nvars.to_bytes(4, "little"))
    for cube in cover:
        digest.update(cube.ones.to_bytes(nbytes, "little"))
        digest.update(cube.zeros.to_bytes(nbytes, "little"))
    return digest.digest()


def _cached_literal_cost(on: Cover, dc: Cover, off: Cover, dc_digest: bytes) -> int:
    key = (on.nvars, _cover_digest(on), dc_digest)
    cached = _COST_CACHE.get(key)
    obs = current_tracer()
    if cached is not None:
        _COST_CACHE.move_to_end(key)
        if obs.enabled:
            obs.current.counter("ranking_cache_hits")
        return cached
    cost = espresso(on, dc, off=off).cover.literal_count
    _COST_CACHE[key] = cost
    if len(_COST_CACHE) > _COST_CACHE_MAX:
        _COST_CACHE.popitem(last=False)
    return cost


def estimate_cost(
    graph: StateGraph,
    region: InsertionRegion,
    dc: Optional[Cover] = None,
) -> int:
    """Estimated literal cost of implementing the new signal.

    The on-set (off-set) of the signal over the *existing* states is its
    insertion region (complement); the cost estimate is the literal count of
    both covers after minimisation against the unreachable-code don't-cares
    (``dc``, computed from the graph when not supplied -- pass it in when
    ranking many candidates of the same graph).  The new signal itself is
    not in the code space yet, so this is a lower bound -- good enough to
    rank otherwise-equal candidates.

    Each minimisation passes an explicit espresso off-set built from the
    state codes: blocking set for the on-phase is the reachable codes *not*
    reached by any on-state (CSC-conflict codes shared across the split are
    excluded -- they sit inside the on cover).  As a point set that equals
    the ``complement(on + dc)`` the default path would compute per
    candidate, and espresso uses the off-set only semantically, so the
    covers are identical while the complement call disappears.  Results are
    memoised in a bounded cache keyed on the on-set/DC digests.
    """
    mask = region.mask_on
    on_states = [s for s in range(graph.num_states) if (mask >> s) & 1]
    off_states = [s for s in range(graph.num_states) if not (mask >> s) & 1]
    if dc is None:
        dc = dc_set_cover(graph)
    dc_digest = _cover_digest(dc)
    packed = graph.packed_codes
    on_codes = {packed[state] for state in on_states}
    off_codes = {packed[state] for state in off_states}
    on_cover = states_to_cover(graph, on_states)
    off_cover = states_to_cover(graph, off_states)
    nvars = on_cover.nvars
    full = (1 << nvars) - 1

    def minterms(codes: List[int]) -> Cover:
        return Cover(nvars, [Cube(nvars, code, full & ~code) for code in codes])

    block_on = minterms(sorted(off_codes - on_codes))
    block_off = minterms(sorted(on_codes - off_codes))
    cost = _cached_literal_cost(on_cover, dc, block_on, dc_digest)
    cost += _cached_literal_cost(off_cover, dc, block_off, dc_digest)
    return cost


def choose_insertion(
    graph: StateGraph,
    cores: List[ConflictCore],
    regions: List[InsertionRegion],
    rng: Optional[random.Random] = None,
) -> List[Tuple[int, InsertionRegion]]:
    """Rank candidate regions for one insertion round.

    Returns ``(gain, region)`` pairs with positive gain, best first.  The
    logic-cost estimate is only computed for the candidates tied on the
    maximal gain (it needs two espresso runs per candidate).  Both sorts
    are stable, so candidates tied on ``(gain, cost)`` keep the order the
    optional seeded ``rng`` shuffled them into -- that is exactly where the
    seed breaks ties; without an rng the deterministic
    :func:`~repro.encoding.regions.candidate_regions` name order holds.
    """
    scored: List[Tuple[int, InsertionRegion]] = []
    for region in regions:
        gain = sum(separation_gain(core, region.mask_on) for core in cores)
        if gain > 0:
            scored.append((gain, region))
    if not scored:
        return []
    if rng is not None:
        rng.shuffle(scored)
    scored.sort(key=lambda item: -item[0])
    best_gain = scored[0][0]
    head = [item for item in scored if item[0] == best_gain]
    tail = [item for item in scored if item[0] != best_gain]
    if len(head) > 1:
        # One DC-set (and digest, inside estimate_cost) shared by every
        # candidate of the round; the per-candidate espresso runs hit the
        # ranking cache for any on-set already costed.
        dc = dc_set_cover(graph)
        head.sort(key=lambda item: estimate_cost(graph, item[1], dc))
    return head + tail


def apply_insertion(stg: STG, region: InsertionRegion, signal: str) -> STG:
    """Rewrite the STG with one new internal signal for a region.

    The rewritten STG declares ``signal`` as :class:`SignalType.INTERNAL`
    with the region's initial value and splices ``signal+`` after
    ``region.t_on`` and ``signal-`` after ``region.t_off``.
    """
    if signal in stg.signals:
        raise ValueError("signal %r already declared in %r" % (signal, stg.name))
    net = stg.net
    spliced = {region.t_on: signal + "+", region.t_off: signal + "-"}

    result = STG(stg.name)
    for name, signal_type in stg.signal_types.items():
        result.add_signal(name, signal_type)
    for name, value in stg.initial_values.items():
        result.set_initial_value(name, value)
    result.add_signal(signal, SignalType.INTERNAL, initial=region.initial_value)

    for transition in stg.transitions:
        result.add_transition(stg.label_of(transition), name=transition)
    for new_label in spliced.values():
        result.add_transition(new_label, name=new_label)

    initial = net.initial_marking
    for place in stg.places:
        result.add_place(place, initial[place])

    for transition in stg.transitions:
        takeover = spliced.get(transition)
        for place, weight in net.preset(transition).items():
            result.net.add_arc(place, transition, weight)
        for place, weight in net.postset(transition).items():
            # The spliced transition takes over the original postset.
            result.net.add_arc(takeover or transition, place, weight)
        if takeover is not None:
            result.connect(transition, takeover)
    return result


def make_insertion_edit(
    stg: STG, region: InsertionRegion, signal: str
) -> InsertionEdit:
    """Apply a region's rewrite and package it as an
    :class:`~repro.stategraph.InsertionEdit`.

    The edit is what :func:`~repro.stategraph.extend_state_graph` reads to
    grow the rewritten STG's State Graph from the current one: the
    rewritten STG, the splice pair and the region's packed phase mask over
    the source graph's state indices.
    """
    return InsertionEdit(
        apply_insertion(stg, region, signal),
        signal,
        region.t_on,
        region.t_off,
        phase_mask=region.mask_on,
    )
