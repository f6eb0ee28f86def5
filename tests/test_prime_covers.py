"""The explicit engine's don't-care and off-set covers as prime cubes.

``dc_set_cover`` expands the complement of the reachable minterms against
the reachable codes, and ``ExplicitStateSpace.off_cover`` expands the
off-set minterms against the on-set minterms plus the don't-care cover.
Their contract is the function, so each is checked against the complement
it replaced (``reference_dc_set_cover`` / ``reference_off_cover`` in
:mod:`tests.oracles`) by mutual containment, and their cubes against the
codes: every don't-care cube is prime against the reachable codes, every
off cube lies within the reachable off-codes, and a code the on-set shares
with the off-set (a CSC conflict) stays a minterm.  Espresso reads both
covers only through intersection and containment tests, so with either
pair of covers every ``sg-explicit`` gate and every resolved ``.g`` is the
same.

The graphs: the Table 1 specs of at most 14 signals, the example suite and
every graph that CSC resolution ranks candidates on for ``csc_arbiter``
4, 6 and 8.
"""

import functools

import pytest

import repro.encoding.insertion as insertion
import repro.encoding.resolve as resolve
import repro.spaces.explicit as spaces_explicit
from repro.boolean import Cover
from repro.encoding import resolve_csc
from repro.spaces import ExplicitStateSpace
from repro.stategraph import build_state_graph, dc_set_cover
from repro.stg import (
    csc_arbiter,
    example_suite,
    muller_pipeline,
    paper_example,
    table1_suite,
    write_g,
)
from repro.synthesis import synthesize

from oracles import reference_dc_set_cover, reference_off_cover

SPECS = [entry for entry in table1_suite() if entry.expected_signals <= 14]
SPECS += example_suite()
ARBITERS = [4, 6, 8]
SOURCES = [entry.name for entry in SPECS] + ["ranked:csc_arbiter_%d" % n for n in ARBITERS]
ARCHITECTURES = ["acg", "c-element", "rs-latch"]


@functools.lru_cache(maxsize=None)
def _ranked_graphs(clients):
    """Every graph ``choose_insertion`` ranks while ``csc_arbiter(clients)``
    is resolved."""
    ranked = []
    choose = resolve.choose_insertion

    def recording(graph, *args):
        ranked.append(graph)
        return choose(graph, *args)

    resolve.choose_insertion = recording
    try:
        result = resolve_csc(csc_arbiter(clients), max_signals=8)
    finally:
        resolve.choose_insertion = choose
    assert result.resolved and ranked
    return ranked


def _graphs(source):
    if source.startswith("ranked:"):
        return _ranked_graphs(int(source.rsplit("_", 1)[1]))
    entry = next(entry for entry in SPECS if entry.name == source)
    return [build_state_graph(entry.build())]


def _cube_codes(cube, nvars):
    """Every code of a cube: its ones plus each subset of its free bits."""
    free = ((1 << nvars) - 1) & ~(cube.ones | cube.zeros)
    subset = free
    while True:
        yield cube.ones | subset
        if not subset:
            return
        subset = (subset - 1) & free


@pytest.mark.parametrize("source", SOURCES)
def test_dc_cover_is_the_complement_in_primes(source):
    for graph in _graphs(source):
        dc = dc_set_cover(graph)
        reference = reference_dc_set_cover(graph)
        assert dc.equivalent(reference)
        assert len(dc) <= len(reference)
        reachable = graph.reachable_packed_codes()
        for cube in dc:
            mask = cube.ones | cube.zeros
            seen = {code & mask for code in reachable}
            # No reachable code lies in the cube ...
            assert cube.ones not in seen, cube
            # ... and one does in the half each dropped literal would add.
            low_bits = mask
            while low_bits:
                low = low_bits & -low_bits
                low_bits ^= low
                assert cube.ones ^ low in seen, (cube, low)


@pytest.mark.parametrize(
    "build", [paper_example, lambda: muller_pipeline(6)], ids=["paper_example", "muller_6"]
)
def test_full_code_space_runs_no_complement(build, monkeypatch):
    graph = build_state_graph(build())
    assert len(graph.reachable_packed_codes()) == 1 << len(graph.signals)

    def refuse(cover):
        raise AssertionError("complement run on a full code space")

    monkeypatch.setattr(Cover, "complement", refuse)
    assert dc_set_cover(graph).is_empty()


@pytest.mark.parametrize("source", SOURCES)
def test_off_cover_is_the_reachable_off_set(source):
    for graph in _graphs(source):
        space = ExplicitStateSpace(graph.stg, graph=graph)
        nvars = len(graph.signals)
        full = (1 << nvars) - 1
        for signal in graph.stg.implementable_signals:
            cover = space.off_cover(signal)
            assert cover.equivalent(reference_off_cover(space, signal)), signal
            off = space.off_codes(signal)
            for cube in cover:
                # a cube wider than the off-set must leave it: fail before
                # enumerating it
                assert 1 << (nvars - cube.num_literals) <= len(off), (signal, cube)
                assert set(_cube_codes(cube, nvars)) <= off, (signal, cube)
            pairs = {(cube.ones, cube.zeros) for cube in cover}
            for code in space.on_codes(signal) & off:
                assert (code, full & ~code) in pairs, (signal, code)


def _reference_covers(monkeypatch):
    monkeypatch.setattr(spaces_explicit, "dc_set_cover", reference_dc_set_cover)
    monkeypatch.setattr(insertion, "dc_set_cover", reference_dc_set_cover)
    monkeypatch.setattr(ExplicitStateSpace, "off_cover", reference_off_cover)


def _gates(entry):
    return [
        synthesize(entry.build(), method="sg-explicit", architecture=architecture)
        .implementation.to_text()
        for architecture in ARCHITECTURES
    ]


@pytest.mark.parametrize("entry", SPECS, ids=[entry.name for entry in SPECS])
def test_sg_explicit_gates_do_not_depend_on_the_cover_pair(entry, monkeypatch):
    prime = _gates(entry)
    _reference_covers(monkeypatch)
    assert _gates(entry) == prime


def _resolved_g(seed):
    # A ranking cost is cached under the digest of the DC cover it was
    # computed with; start cold so each pair of covers runs espresso.
    insertion._COST_CACHE.clear()
    result = resolve_csc(csc_arbiter(8), max_signals=8, seed=seed)
    assert result.resolved
    return write_g(result.stg)


@pytest.mark.parametrize("seed", [0, 1])
def test_resolved_g_does_not_depend_on_the_cover_pair(seed, monkeypatch):
    prime = _resolved_g(seed)
    _reference_covers(monkeypatch)
    assert _resolved_g(seed) == prime
    insertion._COST_CACHE.clear()
