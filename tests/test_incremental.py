"""Per-round equivalence suite for incremental State Graph maintenance.

The invariant: after every accepted signal-insertion round, the graph
``extend_state_graph`` grows from the current one is the State Graph of
the edited STG.  The suite drives real resolution rounds -- conflict
cores, legal-region enumeration, separation-gain ranking, strict
conflict-pair-reduction acceptance, exactly like ``resolve_csc`` -- across
the Table 1 suite, the VME bus controller and the ``csc_arbiter``
generators, and checks every extended graph against one family of
references per configuration:

* ``explicit-python`` (``repro.kernel.HAS_NUMPY`` patched off) and
  ``explicit-numpy``: the cold explicit build of the edited STG, on every
  protocol query, and ``OracleGraph``, the dict walker of
  ``tests/oracles.py``, state for state up to numbering.  Without numpy
  the cold build and the dirty-region drain run the same loop, so only
  the oracle is independent of it.
* ``bdd``: the symbolic engine's cold build of the edited STG, on every
  protocol query -- the cross-engine check of specs with inserted signals.

On top of the per-round equivalence this file pins the supporting
machinery: ``resolve_csc`` lands the same resolution when every in-place
extension falls back to a cold rebuild and when numpy is missing, a traced
extension records its dirty region's waves, the structural version stamps
invalidate the ``graph_arrays`` kernel cache and ``PackedNet``, and
incompatible edits fall back to a cold build instead of mis-extending.
"""

import pytest

from oracles import OracleGraph
from repro import kernel as kernel_pkg
from repro.encoding import (
    conflict_cores,
    make_insertion_edit,
    num_conflict_pairs,
    resolve_csc,
    separation_gain,
)
from repro.encoding import resolve as resolve_mod
from repro.encoding.insertion import fresh_signal_name
from repro.encoding.regions import candidate_regions
from repro.obs import tracing
from repro.spaces import ExplicitStateSpace, build_state_space
from repro.stategraph import (
    InconsistentSTGError,
    InsertionEdit,
    build_state_graph,
    extend_state_graph,
)
from repro.stg import csc_arbiter, table1_suite, vme_bus_controller, write_g
from repro.stg.signals import Direction

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(HAVE_NUMPY is False, reason="numpy not installed")


def _specs():
    """(id, builder) pairs: Table 1 + VME bus + the arbiter generators."""
    pairs = [(entry.name, entry.build) for entry in table1_suite()]
    pairs.append(("vme_read", vme_bus_controller))
    pairs.append(("csc_arbiter_4", lambda: csc_arbiter(4)))
    pairs.append(("csc_arbiter_8", lambda: csc_arbiter(8)))
    return pairs


SPECS = _specs()
BUILDERS = dict(SPECS)

# The cold builds' backend of the explicit configurations, and the symbolic
# reference configuration (the cold builds run on the default backend).
EXPLICIT_CONFIGS = [
    pytest.param("python", id="explicit-python"),
    pytest.param("numpy", id="explicit-numpy", marks=needs_numpy),
]
CONFIGS = EXPLICIT_CONFIGS + [pytest.param("bdd", id="bdd")]


@pytest.fixture
def backend(monkeypatch):
    """Select the explicit engine's cold-build backend: ``"python"``
    patches ``HAS_NUMPY`` off, anything else leaves the probe as it is."""

    def select(name):
        if name == "python":
            monkeypatch.setattr(kernel_pkg, "HAS_NUMPY", False)

    return select

# The naive "first positive-gain region" driver provably diverges on
# csc_arbiter(4) (it lacks resolve_csc's strict pair-reduction check),
# so rounds are bounded and acceptance mirrors the resolution loop.
MAX_ROUNDS = 2
MAX_CANDIDATES = 16


def _next_edit(stg, graph):
    """One resolution round's accepted edit, or ``None``.

    Mirrors ``resolve_csc``'s acceptance policy -- rank legal regions by
    separation gain against the conflict cores and accept the first that
    strictly reduces the conflicting pairs on its cold-rebuilt graph --
    without the logic-cost espresso tie-break (cost ranking is not under
    test here).  On a CSC-clean graph any consistent legal region is
    accepted: a clean spec still has to survive an insertion unchanged.
    """
    cores = conflict_cores(graph)
    regions = candidate_regions(graph)
    signal = fresh_signal_name(stg)
    if cores:
        current = num_conflict_pairs(cores)
        scored = []
        for region in regions:
            gain = sum(separation_gain(core, region.mask_on) for core in cores)
            if gain > 0:
                scored.append((gain, region))
        scored.sort(key=lambda item: -item[0])
        for _gain, region in scored[:MAX_CANDIDATES]:
            edit = make_insertion_edit(stg, region, signal)
            try:
                candidate = build_state_graph(edit.stg)
            except InconsistentSTGError:
                continue
            if num_conflict_pairs(conflict_cores(candidate)) < current:
                return edit
        return None
    for region in regions[:MAX_CANDIDATES]:
        edit = make_insertion_edit(stg, region, signal)
        try:
            build_state_graph(edit.stg)
        except InconsistentSTGError:
            continue
        return edit
    return None


def _assert_equivalent(incremental, cold, stg):
    """The incremental space answers every protocol query like the cold one."""
    assert incremental.num_states == cold.num_states
    assert incremental.num_codes == cold.num_codes
    assert incremental.reachable_code_words() == cold.reachable_code_words()
    for signal in stg.signals:
        for direction in (Direction.PLUS, Direction.MINUS):
            assert incremental.er_codes(signal, direction) == cold.er_codes(
                signal, direction
            ), (signal, direction)
            assert incremental.er_size(signal, direction) == cold.er_size(
                signal, direction
            ), (signal, direction)
        for value in (0, 1):
            assert incremental.quiescent_codes(
                signal, value
            ) == cold.quiescent_codes(signal, value), (signal, value)
        assert incremental.on_codes(signal) == cold.on_codes(signal), signal
        assert incremental.off_codes(signal) == cold.off_codes(signal), signal
        assert incremental.on_size(signal) == cold.on_size(signal), signal
        assert incremental.off_size(signal) == cold.off_size(signal), signal
    for kind in ("check_usc", "check_csc"):
        left = getattr(incremental, kind)()
        right = getattr(cold, kind)()
        assert left.satisfied == right.satisfied, kind
        assert left.num_pairs == right.num_pairs, kind
        assert left.conflict_code_words == right.conflict_code_words, kind
        assert left.conflicting_signals == right.conflicting_signals, kind
    assert incremental.signature_groups() == cold.signature_groups()


def _assert_covers_equivalent(incremental, cold, stg):
    """Both spaces' covers accept exactly the same reachable minterms."""
    words = sorted(cold.reachable_code_words())
    for signal in stg.implementable_signals:
        for kind in ("on_cover", "off_cover"):
            left = getattr(incremental, kind)(signal)
            right = getattr(cold, kind)(signal)
            for word in words:
                assert any(c.covers_minterm(word) for c in left) == any(
                    c.covers_minterm(word) for c in right
                ), (signal, kind, word)


def _assert_matches_oracle(graph, oracle):
    """The graph is the dict walker's State Graph up to state numbering:
    the same (marking, code) states, labelled edges between markings and
    excitation masks per marking."""
    markings = list(graph.markings)
    assert graph.num_states == oracle.num_states
    assert set(zip(markings, graph.codes)) == set(zip(oracle.markings, oracle.codes))
    assert graph.num_edges == len(oracle.edges)
    assert {(markings[s], t, markings[g]) for s, t, g in graph.edges} == {
        (oracle.markings[s], t, oracle.markings[g]) for s, t, g in oracle.edges
    }
    masks = {
        marking: (graph.excited_plus_mask(state), graph.excited_minus_mask(state))
        for state, marking in enumerate(markings)
    }
    assert masks == {
        marking: (plus, minus)
        for marking, plus, minus in zip(
            oracle.markings, oracle.excited_plus, oracle.excited_minus
        )
    }


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("name", [name for name, _build in SPECS])
def test_apply_insertion_matches_cold_rebuild_per_round(name, config, backend):
    backend(config)
    stg = BUILDERS[name]()
    graph = build_state_graph(stg)
    for _round in range(MAX_ROUNDS):
        # Derive the edit from the *extended* graph: its state numbering is
        # what the region phase masks index.
        edit = _next_edit(stg, graph)
        if edit is None:
            break
        grown = extend_state_graph(graph, edit)
        assert grown is not None
        space = ExplicitStateSpace(edit.stg, graph=grown)
        if config == "bdd":
            cold = build_state_space(edit.stg, engine="bdd")
        else:
            cold = build_state_space(edit.stg, engine="explicit")
            _assert_matches_oracle(grown, OracleGraph(edit.stg))
        _assert_equivalent(space, cold, edit.stg)
        _assert_covers_equivalent(space, cold, edit.stg)
        clean = not conflict_cores(graph)
        stg, graph = edit.stg, grown
        if clean:
            break  # clean spec: one survived insertion is the point


@pytest.mark.parametrize("config", EXPLICIT_CONFIGS)
def test_incremental_stats_surface(config, backend):
    """An extension reports its dirty-region size."""
    backend(config)
    stg = vme_bus_controller()
    graph = build_state_graph(stg)
    edit = _next_edit(stg, graph)
    assert edit is not None
    grown = extend_state_graph(graph, edit)
    stats = grown.incremental_stats
    assert stats["survivors"] == graph.num_states
    assert stats["new_states"] == grown.num_states - graph.num_states
    assert stats["states_reexplored"] >= stats["new_states"]
    assert stats["frontier_edges"] > 0


def test_traced_extension_records_dirty_waves():
    """The incremental reachability span splits the dirty region into BFS
    waves: they sum to the states re-explored, one per depth."""
    stg = csc_arbiter(4)
    graph = build_state_graph(stg)
    edit = _next_edit(stg, graph)
    assert edit is not None
    with tracing("extend") as tracer:
        grown = extend_state_graph(graph, edit)
    reach = tracer.root.find("reachability")
    assert reach.attrs["mode"] == "incremental"
    waves = reach.series["dirty_waves"]
    assert sum(waves) == grown.incremental_stats["states_reexplored"]
    assert sum(waves) == reach.counters["states_reexplored"] > 0
    assert len(waves) == reach.counters["dirty_bfs_depth"] + 1


@pytest.mark.parametrize(
    "name,max_signals",
    [
        pytest.param("vme_read", 3, id="vme_read"),
        pytest.param("csc_arbiter_4", 3, id="csc_arbiter_4"),
        pytest.param("csc_arbiter_8", 6, id="csc_arbiter_8"),
    ],
)
def test_resolve_csc_incremental_parity(name, max_signals, monkeypatch):
    """The accepted resolution does not depend on whether the graphs were
    extended in place or rebuilt cold (the fallback, forced here), nor on
    whether numpy built the start graph; only the cost differs.  The
    resolved ``.g`` files are byte-identical."""
    fast = resolve_csc(BUILDERS[name](), max_signals=max_signals, seed=0)
    with monkeypatch.context() as patch:
        patch.setattr(kernel_pkg, "HAS_NUMPY", False)
        python = resolve_csc(BUILDERS[name](), max_signals=max_signals, seed=0)
    assert write_g(python.stg) == write_g(fast.stg)
    assert python.rounds_incremental == fast.rounds_incremental
    assert python.states_reexplored == fast.states_reexplored
    monkeypatch.setattr(resolve_mod, "extend_state_graph", lambda *a, **k: None)
    cold = resolve_csc(BUILDERS[name](), max_signals=max_signals, seed=0)
    assert write_g(fast.stg) == write_g(cold.stg)
    assert fast.inserted == cold.inserted
    assert fast.resolved == cold.resolved
    assert fast.conflicts_before == cold.conflicts_before
    assert fast.conflicts_after == cold.conflicts_after
    assert fast.graph.num_states == cold.graph.num_states
    assert sorted(fast.graph.packed_codes) == sorted(cold.graph.packed_codes)
    # the fast path actually ran, and the cold path never claims it did
    assert fast.rounds_incremental == len(fast.inserted) > 0
    assert fast.states_reexplored is not None
    assert all(n >= 1 for n in fast.states_reexplored)
    assert cold.rounds_incremental == 0
    assert cold.states_reexplored is None


def test_extend_falls_back_on_incompatible_graphs():
    """Mask-less edits refuse the fast path."""
    stg = vme_bus_controller()
    graph = build_state_graph(stg)
    edit = _next_edit(stg, graph)
    assert edit is not None
    maskless = InsertionEdit(edit.stg, edit.signal, edit.t_on, edit.t_off, phase_mask=None)
    assert extend_state_graph(graph, maskless) is None


def test_structural_version_stamps():
    """Net mutators bump the version; PackedNet notices it is stale."""
    from repro.core import PackedNet

    stg = vme_bus_controller()
    net = stg.net
    before = net.structural_version
    pnet = PackedNet(net)
    assert not pnet.is_stale()
    net.add_place("extra_place")
    assert net.structural_version > before
    assert pnet.is_stale()
    version = net.structural_version
    net.add_transition("extra_t")
    net.add_arc("extra_place", "extra_t")
    net.set_initial_tokens("extra_place", 1)
    assert net.structural_version >= version + 3


@needs_numpy
def test_graph_arrays_refresh_after_mutation():
    """An edge-only mutation invalidates the cached kernel arrays."""
    from repro.kernel.bitset import _int_keys, graph_arrays

    stg = vme_bus_controller()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_pkg, "HAS_NUMPY", False)
        graph = build_state_graph(stg)
    codes, plus, minus = graph_arrays(graph)
    assert _int_keys(plus) == graph._excited_plus
    # splice in an edge for an already-fired transition: state 0 gains
    # the corresponding excitation bit only if the arrays are rebuilt
    _source, transition, _target = graph.edges[0]
    before = graph._version
    graph._add_edge(0, transition, 0)
    assert graph._version > before
    codes2, plus2, minus2 = graph_arrays(graph)
    assert _int_keys(plus2) == graph._excited_plus
    assert _int_keys(minus2) == graph._excited_minus
