"""The symbolic fixed point: node-wise saturation against two oracles.

Saturation must reach exactly the states and markings of the explicit
State Graph, an independent engine, on every specification we ship.  It
must also return the very node that the level-group restart loop it
replaced (``oracles.reference_reachable_set``) returns in the same
manager -- BDDs are canonical, so equal ids mean equal sets -- on the
benchmark's specs parsed from ``.g`` text, and on seeded single-line
mutants of the Table 1 texts, where the state space must also raise the
same error under either fixed point.  The peak store of a 16-stage Muller
pipeline stays pinned.
"""

import os
import random
import sys

import pytest

from repro import parse_g, write_g
from repro.bdd.reachability import SymbolicNet
from repro.core import UnsafeNetError
from repro.petrinet import StateSpaceLimitExceeded
from repro.spaces import SymbolicStateSpace
from repro.stategraph import build_state_graph
from repro.stg import ParseError, STGError, muller_pipeline, table1_suite

from oracles import reference_reachable_set

# The benchmark's own input sets, so the oracle runs on exactly its specs.
sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "e2ebench"))
from workloads import build_workload  # noqa: E402


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
# Saturation vs the explicit State Graph
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


def test_saturation_respects_max_states():
    stg = muller_pipeline(6)
    engine = SymbolicNet(stg.net, stg=stg, max_states=5)
    with pytest.raises(StateSpaceLimitExceeded):
        engine.reachable_set()


# --------------------------------------------------------------------- #
# Saturation vs the restart loop, in one manager
# --------------------------------------------------------------------- #
def _benchmark_texts():
    """Every ``table1``, ``fig6`` and ``csc`` spec of the benchmark at
    seeds 0 and 1 (``csc`` holds parsed ``muller_pipeline(16)``), each
    text once."""
    texts = {}
    for seed in (0, 1):
        for workload in ("table1", "fig6", "csc"):
            for spec in build_workload(workload, seed).specs:
                texts.setdefault(spec.text, "%s-%d-%s" % (workload, seed, spec.name))
    return sorted((name, text) for text, name in texts.items())


BENCHMARK_TEXTS = _benchmark_texts()


@pytest.mark.parametrize(
    "text", [text for _, text in BENCHMARK_TEXTS], ids=[name for name, _ in BENCHMARK_TEXTS]
)
def test_saturation_reaches_the_restart_loops_node(text):
    stg = parse_g(text)
    engine = SymbolicNet(stg.net, stg=stg)
    assert engine.reachable_set() == reference_reachable_set(engine)


def _mutant(rng, text):
    """``text`` with one ``.graph`` line edited: drop the line, or drop,
    add or swap one of its arc targets.  An added or swapped-in target is
    another node of the same section; a line's only target is swapped
    rather than dropped."""
    lines = text.splitlines()
    start = lines.index(".graph") + 1
    stop = next(i for i in range(start, len(lines)) if lines[i].startswith("."))
    index = rng.randrange(start, stop)
    tokens = lines[index].split()
    nodes = sorted({token for line in lines[start:stop] for token in line.split()})
    kind = rng.randrange(4)
    if kind == 0:
        del lines[index]
    else:
        if kind == 1 and len(tokens) > 2:
            del tokens[rng.randrange(1, len(tokens))]
        elif kind == 2:
            tokens.append(rng.choice(nodes))
        else:
            tokens[rng.randrange(1, len(tokens))] = rng.choice(nodes)
        lines[index] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _outcome(text):
    """``(error class, message)`` of the symbolic state space, or
    ``("ok", states)``."""
    try:
        space = SymbolicStateSpace(parse_g(text))
    except (UnsafeNetError, STGError) as error:
        return type(error).__name__, str(error)
    return "ok", space.num_states


def test_mutants_reach_the_restart_loops_node_and_verdict(monkeypatch):
    saturate = SymbolicNet._saturate
    engines = []

    def checked(engine, span):
        reached = saturate(engine, span)
        assert reached == reference_reachable_set(engine)
        engines.append(engine)
        return reached

    def restart_loop(engine, span):
        return reference_reachable_set(engine)

    rng = random.Random(0)
    texts = [write_g(entry.build()) for entry in table1_suite()]
    verdicts = {}
    for _ in range(240):
        text = _mutant(rng, rng.choice(texts))
        try:
            parse_g(text)
        except ParseError:
            continue
        engines.clear()
        monkeypatch.setattr(SymbolicNet, "_saturate", checked)
        outcome = _outcome(text)
        monkeypatch.setattr(SymbolicNet, "_saturate", restart_loop)
        assert _outcome(text) == outcome, text
        monkeypatch.undo()
        if engines:
            # The one-product gate opens exactly when a witness exists.
            (engine,) = engines
            witness = engine.unsafe_witness() or engine.inconsistent_enabled_witness()
            assert engine.has_firing_defect() == (witness is not None)
        verdicts[outcome[0]] = verdicts.get(outcome[0], 0) + 1
    assert verdicts.get("ok", 0) >= 50
    assert verdicts.get("UnsafeNetError", 0) >= 50
    assert verdicts.get("InconsistentSTGError", 0) >= 1


# --------------------------------------------------------------------- #
# Through the state-space protocol
# --------------------------------------------------------------------- #
def test_peak_nodes_of_muller_16_stay_bounded():
    # 1,865 nodes under the structural order and saturation; the bound
    # leaves 10% headroom, so a regression in either shows here first.
    assert SymbolicStateSpace(muller_pipeline(16)).peak_bdd_nodes <= 2_050
