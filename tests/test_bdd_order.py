"""The symbolic engine's static variable order.

:class:`repro.bdd.reachability.SymbolicNet` orders its BDD variables by
the net's structure -- a token-flow walk refined by FORCE rounds -- so the
cost of the symbolic state space must not depend on how a ``.g`` file
happens to list its arcs.  These checks pin the order's shape (every
variable once, primed twins adjacent), its insensitivity to declaration
order (peak nodes and literals on shuffled ``.graph`` sections), and its
determinism across string-hash seeds.
"""

import os
import random
import subprocess
import sys

import pytest

import repro
from repro import parse_g, write_g
from repro.bdd import SymbolicNet
from repro.bdd.reachability import _PLACE, _PLACE_PRIMED, _SIGNAL, _SIGNAL_PRIMED
from repro.spaces import SymbolicStateSpace
from repro.stg import (
    counterflow_pipeline,
    csc_arbiter,
    muller_pipeline,
    paper_example,
    table1_suite,
)
from repro.synthesis import synthesize


def _shuffled(text, seed):
    """``.g`` text with the lines of its ``.graph`` section shuffled."""
    lines = text.splitlines()
    start = lines.index(".graph") + 1
    stop = next(i for i in range(start, len(lines)) if lines[i].startswith("."))
    body = lines[start:stop]
    random.Random(seed).shuffle(body)
    return "\n".join(lines[:start] + body + lines[stop:]) + "\n"


def _order_specs():
    specs = [entry.build() for entry in table1_suite()]
    specs += [paper_example(), muller_pipeline(6), counterflow_pipeline(3), csc_arbiter(4)]
    return specs


# --------------------------------------------------------------------- #
# (a) Shape: every variable once, each primed twin directly below it
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("stg", _order_specs(), ids=lambda stg: stg.name)
def test_order_lists_every_variable_once_with_twins_below(stg):
    order = SymbolicNet(stg.net, stg=stg).bdd.variables
    twin = {_PLACE + p: _PLACE_PRIMED + p for p in stg.net.places}
    twin.update((_SIGNAL + s, _SIGNAL_PRIMED + s) for s in stg.signals)
    assert sorted(order[::2]) == sorted(twin)
    assert order[1::2] == [twin[name] for name in order[::2]]


def test_order_without_stg_lists_places_only():
    # count_reachable_markings builds SymbolicNet(net): no signals, no twins.
    net = muller_pipeline(5).net
    order = SymbolicNet(net).bdd.variables
    assert sorted(order) == sorted(_PLACE + p for p in net.places)


# --------------------------------------------------------------------- #
# (b, c) Declaration order does not decide the cost, nor the circuit
# --------------------------------------------------------------------- #
PIPELINES = [
    ("muller_8", lambda: muller_pipeline(8)),
    ("muller_10", lambda: muller_pipeline(10)),
    ("counterflow_4", lambda: counterflow_pipeline(4)),
]


@pytest.mark.parametrize(
    "build", [b for _, b in PIPELINES], ids=[n for n, _ in PIPELINES]
)
def test_parsed_and_shuffled_specs_peak_near_the_generator_built_one(build):
    stg = build()
    built = SymbolicStateSpace(stg)
    text = write_g(stg)
    for variant in (text, _shuffled(text, 1), _shuffled(text, 2)):
        space = SymbolicStateSpace(parse_g(variant))
        assert space.num_states == built.num_states
        assert space.peak_bdd_nodes <= 1.5 * built.peak_bdd_nodes


@pytest.mark.parametrize(
    "build", [b for _, b in PIPELINES], ids=[n for n, _ in PIPELINES]
)
def test_shuffled_specs_synthesise_the_same_literal_count(build):
    text = write_g(build())
    literals = synthesize(parse_g(text), method="sg-bdd").literal_count
    for seed in (1, 2):
        shuffled = parse_g(_shuffled(text, seed))
        assert synthesize(shuffled, method="sg-bdd").literal_count == literals


# --------------------------------------------------------------------- #
# (d) Determinism across string-hash seeds
# --------------------------------------------------------------------- #
_PRINT_ORDERS = """
from repro import parse_g, write_g
from repro.bdd import SymbolicNet
from repro.stg import counterflow_pipeline, csc_arbiter, muller_pipeline
for stg in (muller_pipeline(10), counterflow_pipeline(4), csc_arbiter(6)):
    spec = parse_g(write_g(stg))
    print(" ".join(SymbolicNet(spec.net, stg=spec).bdd.variables))
    print(" ".join(SymbolicNet(spec.net).bdd.variables))
"""


def test_order_is_identical_under_different_hash_seeds():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", _PRINT_ORDERS],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 6
