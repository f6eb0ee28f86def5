"""The numpy bitset kernel must be a bit-identical drop-in.

With numpy installed the bitset kernel replaces the per-state Python loops
of the explicit engine -- BFS frontier expansion, excitation-mask sweeps,
the pairwise USC/CSC code joins -- with whole-frontier ``uint64`` array
operations.  These tests pin the contract down hard: across the Table 1
suite and the Muller-pipeline family the kernel build must produce the
*same graph* as the python loops run with ``HAS_NUMPY`` patched off (state
numbering, packed codes, edges, excitation masks, adjacency), the same
USC/CSC conflict lists and the same signature groups, both backends must
name the same defect on a bad spec, and ``resolve_kernel`` must report the
backend the probe picked.
"""

import pytest

import repro.kernel as kernel_mod
from repro.core import UnsafeNetError
from repro.kernel import HAS_NUMPY, resolve_kernel
from repro.petrinet import StateSpaceLimitExceeded
from repro.spaces import ExplicitStateSpace
from repro.stategraph import build_state_graph, check_csc, check_usc
from repro.stategraph.stategraph import InconsistentSTGError
from repro.stg import STG, muller_pipeline, table1_suite
from repro.stg.signals import SignalType

from oracles import assert_same_graph

requires_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")


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


# --------------------------------------------------------------------- #
# Probe / resolution
# --------------------------------------------------------------------- #
def test_resolve_kernel_auto_and_none_follow_the_probe(monkeypatch):
    assert resolve_kernel(None) == ("numpy" if HAS_NUMPY else "python")
    monkeypatch.setattr(kernel_mod, "HAS_NUMPY", False)
    assert resolve_kernel(None) == "python"


def test_resolve_kernel_unknown_rejected():
    with pytest.raises(ValueError):
        resolve_kernel("cuda")


# --------------------------------------------------------------------- #
# Graph equivalence: kernel BFS vs reference BFS
# --------------------------------------------------------------------- #
@requires_numpy
@pytest.mark.parametrize("builder", SPEC_BUILDERS, ids=SPEC_IDS)
def test_kernel_graph_identical_to_reference(builder, monkeypatch):
    vectorised = build_state_graph(builder())
    # The kernel leaves adjacency to the first query that walks the graph.
    assert not vectorised._successors and not vectorised._predecessors
    monkeypatch.setattr(kernel_mod, "HAS_NUMPY", False)
    reference = build_state_graph(builder())
    assert_same_graph(vectorised, reference)


@requires_numpy
def test_kernel_honours_max_states():
    with pytest.raises(StateSpaceLimitExceeded):
        build_state_graph(muller_pipeline(4), max_states=5)


@requires_numpy
def test_kernel_detects_inconsistent_stg():
    stg = STG("bad")
    stg.add_signal("a", SignalType.OUTPUT, initial=0)
    t1 = stg.add_transition("a+")
    t2 = stg.add_transition("a+")
    start = stg.add_place("s", tokens=1)
    stg.add_arc(start, t1)
    stg.connect(t1, t2)
    stg.add_arc(t2, stg.add_place("end"))
    with pytest.raises(InconsistentSTGError):
        build_state_graph(stg)


def _parity_spec(marked, firings):
    """Signals ``a`` and ``b`` at 0, places ``p0..p3`` (tokens on the
    space-separated ``marked``) and one transition per ``(label, source,
    target)`` firing, declared in that order."""
    stg = STG("parity")
    for signal in ("a", "b"):
        stg.add_signal(signal, SignalType.OUTPUT, initial=0)
    for place in ("p0", "p1", "p2", "p3"):
        stg.add_place(place, tokens=1 if place in marked.split() else 0)
    for label, source, target in firings:
        transition = stg.add_transition(label)
        stg.add_arc(source, transition)
        stg.add_arc(transition, target)
    return stg


A_PLUS = ("a+", "p0", "p2")  # unsafe while p2 is marked
B_MINUS = ("b-", "p1", "p3")  # enabled while b is already 0
B_PLUS = ("b+", "p1", "p3")  # unsafe while p3 is marked

#: (id, marked places, firings in declaration order, max_states, the error
#: the python loop raises).  Each pair of rows declares the same two
#: offending transitions in both orders: the first offending candidate in
#: ``(source, transition)`` order names the defect.
VERDICT_PARITY = [
    ("unsafe-first", "p0 p1 p2", [A_PLUS, B_MINUS], None, UnsafeNetError),
    ("inconsistent-first", "p0 p1 p2", [B_MINUS, A_PLUS], None, InconsistentSTGError),
    ("budget-first", "p0 p1 p3", [A_PLUS, B_PLUS], 1, StateSpaceLimitExceeded),
    ("unsafe-before-budget", "p0 p1 p3", [B_PLUS, A_PLUS], 1, UnsafeNetError),
    ("two-codes", "p0", [("a+", "p0", "p1"), ("b+", "p0", "p1")], None, InconsistentSTGError),
]


@requires_numpy
@pytest.mark.parametrize(
    "marked, firings, max_states, expected",
    [row[1:] for row in VERDICT_PARITY],
    ids=[row[0] for row in VERDICT_PARITY],
)
def test_kernel_names_the_python_loops_defect(marked, firings, max_states, expected, monkeypatch):
    errors = []
    for has_numpy in (True, False):
        monkeypatch.setattr(kernel_mod, "HAS_NUMPY", has_numpy)
        with pytest.raises(expected) as caught:
            build_state_graph(_parity_spec(marked, firings), max_states=max_states)
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]


@requires_numpy
def test_kernel_budget_counts_new_states_only(monkeypatch):
    # A deadlocked initial state is the whole graph, even at max_states=0.
    graphs = []
    for has_numpy in (True, False):
        monkeypatch.setattr(kernel_mod, "HAS_NUMPY", has_numpy)
        spec = _parity_spec("p0", [("a+", "p1", "p2")])
        graphs.append(build_state_graph(spec, max_states=0))
    assert graphs[0].num_states == 1
    assert_same_graph(*graphs)


# --------------------------------------------------------------------- #
# Coding-sweep equivalence: USC / CSC / signature groups
# --------------------------------------------------------------------- #
@requires_numpy
@pytest.mark.parametrize("builder", SPEC_BUILDERS, ids=SPEC_IDS)
def test_kernel_usc_csc_identical_to_reference(builder, monkeypatch):
    graph = build_state_graph(builder())
    usc_np = check_usc(graph)
    csc_np = check_csc(graph)
    monkeypatch.setattr(kernel_mod, "HAS_NUMPY", False)
    usc_py = check_usc(graph)
    assert usc_np.satisfied == usc_py.satisfied
    assert usc_np.conflicts == usc_py.conflicts
    csc_py = check_csc(graph)
    assert csc_np.satisfied == csc_py.satisfied
    assert csc_np.conflicts == csc_py.conflicts


@requires_numpy
@pytest.mark.parametrize("builder", SPEC_BUILDERS, ids=SPEC_IDS)
def test_kernel_signature_groups_identical_to_reference(builder, monkeypatch):
    stg = builder()
    vectorised = ExplicitStateSpace(stg).signature_groups()
    monkeypatch.setattr(kernel_mod, "HAS_NUMPY", False)
    assert vectorised == ExplicitStateSpace(stg).signature_groups()


# --------------------------------------------------------------------- #
# Cached kernel arrays
# --------------------------------------------------------------------- #
@requires_numpy
def test_kernel_arrays_cached_and_consistent():
    from repro.kernel.bitset import graph_arrays

    from repro.kernel.bitset import _int_keys

    graph = build_state_graph(muller_pipeline(4))
    first = graph_arrays(graph)
    assert first is not None
    codes, plus, minus = first
    assert codes.shape == (graph.num_states, 1)  # one uint64 word per code row
    assert _int_keys(codes) == list(graph.packed_codes)
    assert _int_keys(plus) == list(graph._excited_plus)
    assert _int_keys(minus) == list(graph._excited_minus)
    again = graph_arrays(graph)
    assert again[0] is first[0]  # cached, not rebuilt
