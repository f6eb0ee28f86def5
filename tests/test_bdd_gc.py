"""BDD storage management: GC and the saturation fixed point.

The manager's maintenance machinery must be invisible to callers: a
mark-and-sweep pass may renumber nodes but every surviving id (through the
returned remap) must denote the same Boolean function; and the saturation
fixed point -- with a GC checkpoint forced at every single firing -- must
reach exactly the states and markings of the explicit State Graph, an
independent engine, on every specification we ship.  The structural
variable order and GC alone keep the peak store of a 16-stage Muller
pipeline bounded.
"""

import itertools

import pytest

from repro.bdd.manager import BDD, _CountingCache
from repro.bdd.reachability import SymbolicNet
from repro.petrinet import StateSpaceLimitExceeded
from repro.spaces import SymbolicStateSpace
from repro.stategraph import build_state_graph
from repro.stg import muller_pipeline, table1_suite


def _specs():
    """(id, builder) pairs: the Table 1 suite plus muller 2..8."""
    pairs = [(entry.name, entry.build) for entry in table1_suite()]
    for stages in range(2, 9):
        pairs.append(
            ("muller_%d" % stages, lambda stages=stages: muller_pipeline(stages))
        )
    return pairs


SPECS = _specs()
SPEC_IDS = [spec_id for spec_id, _ in SPECS]
SPEC_BUILDERS = [builder for _, builder in SPECS]


def _assignments(names):
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


def _truth_table(bdd, f, names):
    return [bdd.evaluate(f, assignment) for assignment in _assignments(names)]


# --------------------------------------------------------------------- #
# Mark-and-sweep GC
# --------------------------------------------------------------------- #
def test_collect_garbage_shrinks_store_and_preserves_function():
    names = list("abcdef")
    bdd = BDD(names)
    f = bdd.disj(
        bdd.conj(bdd.var("a"), bdd.var("b")),
        bdd.conj(bdd.var("c"), bdd.var("d")),
    )
    # Litter the store with dead intermediates.
    for name in names:
        bdd.xor(f, bdd.var(name))
    before = bdd.num_nodes
    truth = _truth_table(bdd, f, names)
    remap = bdd.collect_garbage([f])
    assert bdd.num_nodes < before
    assert bdd.gc_runs == 1
    assert bdd.nodes_reclaimed == before - bdd.num_nodes
    f = remap[f]
    assert _truth_table(bdd, f, names) == truth
    # After a sweep everything in the store is live.
    assert bdd.num_live_nodes([f]) == bdd.num_nodes


def test_pinned_roots_survive_and_pins_nest():
    bdd = BDD(["a", "b", "c"])
    f = bdd.conj(bdd.var("a"), bdd.var("b"))
    g = bdd.conj(bdd.var("b"), bdd.var("c"))
    bdd.pin(f)
    bdd.pin(f)  # nested pin
    remap = bdd.collect_garbage()
    assert f in remap
    assert g not in remap  # unpinned internal node is swept
    f = remap[f]
    bdd.unpin(f)  # one pin left: still a root
    remap = bdd.collect_garbage()
    assert f in remap
    f = remap[f]
    bdd.unpin(f)
    remap = bdd.collect_garbage()
    assert f not in remap
    with pytest.raises(KeyError):
        bdd.unpin(f)


def test_counting_caches_survive_garbage_collection():
    bdd = BDD(list("abcd"))
    f = bdd.conj(bdd.var("a"), bdd.var("b"))
    bdd.enable_stats()
    g = bdd.disj(f, bdd.var("c"))
    before = bdd.stats()
    assert before["ite_cache_lookups"] > 0
    remap = bdd.collect_garbage([g])
    # The swapped-in counting caches keep their identity and totals; only
    # the memoised entries (now stale ids) are dropped.
    assert isinstance(bdd._ite_cache, _CountingCache)
    after = bdd.stats()
    assert after["stats_enabled"]
    assert after["ite_cache_lookups"] >= before["ite_cache_lookups"]
    assert after["ite_cache_entries"] == 0
    bdd.disj(remap[g], bdd.var("d"))
    assert bdd.stats()["ite_cache_lookups"] > after["ite_cache_lookups"]


# --------------------------------------------------------------------- #
# Saturation fixed point vs the explicit State Graph
# --------------------------------------------------------------------- #
def _explicit_counts(stg):
    """(states, distinct markings) of the explicit State Graph."""
    graph = build_state_graph(stg)
    return graph.num_states, len({marking.places for marking in graph.markings})


@pytest.mark.parametrize("builder", SPEC_BUILDERS, ids=SPEC_IDS)
def test_saturation_matches_chaining(builder):
    # Named after the chaining loop the saturation path was first checked
    # against; the explicit State Graph is the oracle now.
    stg = builder()
    saturation = SymbolicNet(stg.net, stg=stg)
    saturation.reachable_set()
    states, markings = _explicit_counts(builder())
    assert saturation.count_states() == states
    assert saturation.count_markings() == markings


@pytest.mark.parametrize("stages", [4, 6])
def test_forced_gc_mid_fixpoint(stages):
    # Force a GC-eligibility check at *every* saturation checkpoint: the
    # reached set must be unaffected no matter where in the fixed point the
    # store is rebuilt.
    stg = muller_pipeline(stages)
    states, markings = _explicit_counts(muller_pipeline(stages))

    stressed = SymbolicNet(stg.net, stg=stg)
    original = stressed._maintain

    def maintain(reached):
        stressed._gc_threshold = 0
        return original(reached)

    stressed._maintain = maintain
    stressed.reachable_set()
    assert stressed.bdd.gc_runs > 0
    assert stressed.count_states() == states
    assert stressed.count_markings() == markings


def test_saturation_respects_max_states():
    stg = muller_pipeline(6)
    engine = SymbolicNet(stg.net, stg=stg, max_states=5)
    with pytest.raises(StateSpaceLimitExceeded):
        engine.reachable_set()


def test_saturation_respects_max_iterations():
    stg = muller_pipeline(6)
    engine = SymbolicNet(stg.net, stg=stg, max_iterations=1)
    with pytest.raises(RuntimeError):
        engine.reachable_set()


# --------------------------------------------------------------------- #
# Through the state-space protocol
# --------------------------------------------------------------------- #
def test_state_space_surfaces_maintenance_counters():
    space = SymbolicStateSpace(muller_pipeline(8))
    assert space.peak_bdd_nodes >= space.num_bdd_nodes
    assert space.gc_runs >= 0
    assert space.nodes_reclaimed >= 0
    # muller_8 crosses the GC threshold, so at least one sweep must have
    # happened and reclaimed the fixpoint's intermediate results.
    assert space.gc_runs > 0
    assert space.nodes_reclaimed > 0


def test_peak_nodes_of_muller_16_stay_bounded():
    # 66,487 nodes under the structural order with GC; the bound leaves
    # 10% headroom, so a regression in either shows here first.
    assert SymbolicStateSpace(muller_pipeline(16)).peak_bdd_nodes <= 73_000
