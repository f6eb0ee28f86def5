"""Equivalence suite for the explicit vs symbolic StateSpace backends.

The symbolic engine must agree with the explicit one on every protocol
query -- state counts, per-signal on/off/excitation sets, implied values,
USC/CSC conflict reports -- across the Table 1 suite, the Muller-pipeline
family and the non-CSC generators.  On top of the equivalence checks this
file guards the tentpole property: ``method="sg-bdd"`` never builds the
explicit State Graph, and honours the caller's ``max_states`` bound (the
regression for the old ``_build_graph_via_bdd`` limit-override bug).  It
also pins the ``off_cover`` contract both engines keep -- the exact
reachable off-set, which espresso takes in place of its own complement --
and the symbolic CSC verdict that needs no pair product.
"""

import pytest

import repro.spaces.explicit as spaces_explicit
import repro.stategraph.stategraph as stategraph_module
from repro.boolean import espresso
from repro.encoding import resolve_csc
from repro.petrinet import StateSpaceLimitExceeded
from repro.spaces import (
    CodingReport,
    ExplicitStateSpace,
    SymbolicStateSpace,
    build_state_space,
)
from repro.stategraph import build_state_graph, check_csc, check_usc
from repro.stg import (
    benchmark_by_name,
    counterflow_pipeline,
    csc_arbiter,
    csc_conflict_example,
    muller_pipeline,
    parse_g,
    table1_suite,
    vme_bus_controller,
    write_g,
)
from repro.stg.signals import Direction
from repro.synthesis import synthesize, verify_implementation


def _specs():
    """(id, builder) pairs: Table 1 + muller 2..8 + non-CSC generators."""
    pairs = [(entry.name, entry.build) for entry in table1_suite()]
    for stages in range(2, 9):
        pairs.append(
            ("muller_pipeline_%d" % stages, lambda n=stages: muller_pipeline(n))
        )
    pairs.append(("vme_read", vme_bus_controller))
    pairs.append(("csc_conflict", csc_conflict_example))
    pairs.append(("csc_arbiter_4", lambda: csc_arbiter(4)))
    pairs.append(("csc_arbiter_6", lambda: csc_arbiter(6)))
    pairs.append(("csc_arbiter_8", lambda: csc_arbiter(8)))
    return pairs


SPECS = _specs()


@pytest.fixture(scope="module")
def spaces():
    """One (explicit, symbolic) space pair per spec, built once."""
    cache = {}
    for name, build in SPECS:
        stg = build()
        cache[name] = (
            build_state_space(stg, engine="explicit"),
            build_state_space(stg, engine="bdd"),
            stg,
        )
    return cache


@pytest.mark.parametrize("name", [name for name, _build in SPECS])
def test_state_and_code_counts_agree(spaces, name):
    explicit, symbolic, _stg = spaces[name]
    assert explicit.num_states == symbolic.num_states
    assert explicit.num_codes == symbolic.num_codes
    assert explicit.reachable_code_words() == symbolic.reachable_code_words()


@pytest.mark.parametrize("name", [name for name, _build in SPECS])
def test_per_signal_regions_agree(spaces, name):
    explicit, symbolic, stg = spaces[name]
    for signal in stg.signals:
        for direction in (Direction.PLUS, Direction.MINUS):
            assert explicit.er_codes(signal, direction) == symbolic.er_codes(
                signal, direction
            ), (signal, direction)
            assert explicit.er_size(signal, direction) == symbolic.er_size(
                signal, direction
            ), (signal, direction)
        for value in (0, 1):
            assert explicit.quiescent_codes(signal, value) == symbolic.quiescent_codes(
                signal, value
            ), (signal, value)
        # on/off sets are exactly the implied-value-1 / implied-value-0
        # states, so their agreement is the implied-value equivalence.
        assert explicit.on_codes(signal) == symbolic.on_codes(signal), signal
        assert explicit.off_codes(signal) == symbolic.off_codes(signal), signal
        assert explicit.on_size(signal) == symbolic.on_size(signal), signal
        assert explicit.off_size(signal) == symbolic.off_size(signal), signal


@pytest.mark.parametrize("name", [name for name, _build in SPECS])
def test_usc_csc_reports_agree(spaces, name):
    explicit, symbolic, _stg = spaces[name]
    for kind in ("check_usc", "check_csc"):
        left = getattr(explicit, kind)()
        right = getattr(symbolic, kind)()
        assert isinstance(left, CodingReport) and isinstance(right, CodingReport)
        assert left.kind == right.kind, kind
        assert left.satisfied == right.satisfied, kind
        assert left.num_pairs == right.num_pairs, kind
        assert left.conflict_code_words == right.conflict_code_words, kind
        assert left.conflicting_signals == right.conflicting_signals, kind
    assert explicit.signature_groups() == symbolic.signature_groups()


@pytest.mark.parametrize("name", [name for name, _build in SPECS])
def test_symbolic_covers_are_sound(spaces, name):
    """Symbolic covers contain the exact sets and never leak onto the
    opposite set.  The on-cover may use unreachable codes as don't cares;
    the off-cover is exact (see the next test)."""
    explicit, symbolic, stg = spaces[name]
    for signal in stg.implementable_signals:
        on = explicit.on_codes(signal)
        off = explicit.off_codes(signal)
        on_cover = symbolic.on_cover(signal)
        off_cover = symbolic.off_cover(signal)
        for word in on:
            assert any(cube.covers_minterm(word) for cube in on_cover), (
                signal,
                "on word uncovered",
                word,
            )
            # leak check: an on word outside the off cover, unless the
            # signal genuinely conflicts (then on/off overlap on the word)
            if word not in off:
                assert not any(cube.covers_minterm(word) for cube in off_cover)
        for word in off:
            assert any(cube.covers_minterm(word) for cube in off_cover)
            if word not in on:
                assert not any(cube.covers_minterm(word) for cube in on_cover)
    dc_cover = symbolic.dc_cover()
    for word in explicit.reachable_code_words():
        assert not any(cube.covers_minterm(word) for cube in dc_cover)


def _minterms(cube, nvars):
    """Every code word of a cube: its ones plus each subset of its free bits."""
    free = ((1 << nvars) - 1) & ~(cube.ones | cube.zeros)
    subset = free
    while True:
        yield cube.ones | subset
        if not subset:
            return
        subset = (subset - 1) & free


@pytest.mark.parametrize("name", [name for name, _build in SPECS])
def test_off_cover_is_the_exact_reachable_off_set(spaces, name):
    """Both engines' off-covers cover every reachable off-code and nothing
    else: no unreachable code, and no code that is only in the on-set.  On
    the conflict specs a code can be in both sets; it stays covered.

    The explicit off-cover grows each off-code to a prime against the
    on-codes and the don't-care cover, with no complement run, so it is
    checked on every spec (about 0.3 s for the 25 signals of tsbmSIBRK)."""
    explicit, symbolic, stg = spaces[name]
    nvars = len(stg.signals)
    for signal in stg.implementable_signals:
        off = explicit.off_codes(signal)
        for space in (explicit, symbolic):
            covered = set()
            for cube in space.off_cover(signal):
                free = nvars - cube.num_literals
                # a cube wider than the off-set must leave it: fail before
                # enumerating it
                assert 1 << free <= len(off), (space.engine, signal, cube)
                covered.update(_minterms(cube, nvars))
            assert covered == off, (space.engine, signal)


def test_csc_verdict_builds_no_pair_product(monkeypatch):
    """The per-signal verdict reads the on/off code sets: a CSC-clean spec
    never builds the code-equality product, and a conflicting one builds it
    only to count the pairs of ``check_csc``."""
    built = []
    pair_product = SymbolicStateSpace._pair_product

    def counted(self):
        built.append(self.stg.name)
        return pair_product(self)

    monkeypatch.setattr(SymbolicStateSpace, "_pair_product", counted)
    clean = build_state_space(benchmark_by_name("nowick").build(), engine="bdd")
    assert clean.conflicting_signals() == frozenset()
    report = clean.check_csc()
    assert report.satisfied and report.num_pairs == 0
    assert report.conflict_code_words == []
    assert clean.signature_groups() == {}
    assert built == []

    stg = vme_bus_controller()
    conflicting = build_state_space(stg, engine="bdd")
    explicit = build_state_space(stg, engine="explicit").check_csc()
    assert conflicting.conflicting_signals() == explicit.conflicting_signals
    assert built == []
    report = conflicting.check_csc()
    assert built == [stg.name]
    assert not report.satisfied
    assert report.num_pairs == explicit.num_pairs == 1
    assert report.conflict_code_words == explicit.conflict_code_words
    assert report.conflicting_signals == explicit.conflicting_signals


def _espresso_agrees(space, stg):
    """``espresso(on, dc, off=off_cover)`` equals ``espresso(on, dc)`` cube
    for cube on every non-conflicting implementable signal."""
    conflicting = space.conflicting_signals()
    dc = space.dc_cover()
    signals = [s for s in stg.implementable_signals if s not in conflicting]
    for signal in signals:
        on = space.on_cover(signal)
        given = espresso(on, dc, off=space.off_cover(signal)).cover
        assert given.cubes == espresso(on, dc).cover.cubes, (space.engine, stg.name, signal)
    return len(signals)


def _espresso_specs():
    specs = [entry.build() for entry in table1_suite()]
    specs += [parse_g(write_g(muller_pipeline(n))) for n in (8, 9, 10)]
    specs.append(counterflow_pipeline(4))
    for stg in (vme_bus_controller(), csc_arbiter(4)):
        result = resolve_csc(stg, max_signals=3)
        assert result.resolved
        specs.append(result.stg)
    return specs


def test_exact_off_cover_keeps_espresso_cube_for_cube():
    """Espresso blocks expansion with the space's exact off-cover and gives
    its own result (the cover it derives by complementing ``on + dc``), on
    the symbolic engine everywhere and on the explicit engine up to ten
    signals, where its minterm on-sets stay cheap to minimise."""
    jobs = 0
    for stg in _espresso_specs():
        jobs += _espresso_agrees(build_state_space(stg, engine="bdd"), stg)
        if stg.num_signals <= 10:
            jobs += _espresso_agrees(build_state_space(stg, engine="explicit"), stg)
    assert jobs > 250


def test_stategraph_checks_accept_spaces():
    """check_usc/check_csc dispatch on either engine's StateSpace."""
    stg = vme_bus_controller()
    for engine in ("explicit", "bdd"):
        space = build_state_space(stg, engine=engine)
        usc = check_usc(space)
        csc = check_csc(space)
        assert not csc.satisfied and csc.num_conflicts == 1
        assert not usc.satisfied
    graph_report = check_csc(build_state_graph(stg))
    assert graph_report.num_conflicts == 1


def test_conflict_cores_accept_both_engines():
    from repro.encoding import conflict_cores, num_conflict_pairs, separation_gain

    stg = csc_arbiter(4)
    explicit_cores = conflict_cores(build_state_space(stg, engine="explicit"))
    symbolic_cores = conflict_cores(build_state_space(stg, engine="bdd"))
    assert len(explicit_cores) == len(symbolic_cores) == 1
    left, right = explicit_cores[0], symbolic_cores[0]
    assert left.code_word == right.code_word
    assert left.signatures == right.signatures
    assert left.group_sizes == right.group_sizes
    assert left.num_pairs == right.num_pairs
    assert num_conflict_pairs(explicit_cores) == num_conflict_pairs(symbolic_cores)
    # mask-level scoring is explicit-only by nature
    assert right.states_mask is None
    with pytest.raises(TypeError):
        separation_gain(right, 0b1)


# ---------------------------------------------------------------------- #
# The tentpole guard: sg-bdd never materialises the explicit state list
# ---------------------------------------------------------------------- #
def test_sg_bdd_never_builds_the_state_graph(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("sg-bdd must not build the explicit State Graph")

    monkeypatch.setattr(spaces_explicit, "build_state_graph", forbidden)
    monkeypatch.setattr(stategraph_module, "build_state_graph", forbidden)
    stg = benchmark_by_name("nowick").build()
    result = synthesize(stg, method="sg-bdd")
    assert result.engine == "bdd"
    assert result.literal_count > 0
    assert result.details.state_graph is None


def test_sg_bdd_synthesis_is_verifiable():
    for name in ("nowick", "sendr-done", "rcv-setup"):
        stg = benchmark_by_name(name).build()
        result = synthesize(stg, method="sg-bdd")
        explicit = synthesize(stg, method="sg-explicit")
        assert result.literal_count == explicit.literal_count
        check = verify_implementation(stg, result.implementation)
        assert check.ok, check.errors


def test_engine_parameter_overrides_method():
    stg = benchmark_by_name("nowick").build()
    result = synthesize(stg, method="sg-explicit", engine="bdd")
    assert result.engine == "bdd"
    assert result.details.state_graph is None
    result = synthesize(stg, method="sg-bdd", engine="explicit")
    assert result.engine == "explicit"
    assert result.details.state_graph is not None


# ---------------------------------------------------------------------- #
# max_states regression: the sg-bdd path honours the caller's bound
# (the old rebuild-via-BDD path silently overrode it with the marking
# count, so the limit could never fire)
# ---------------------------------------------------------------------- #
def test_sg_bdd_honours_max_states():
    stg = muller_pipeline(6)  # 256 states
    with pytest.raises(StateSpaceLimitExceeded):
        synthesize(stg, method="sg-bdd", max_states=10)
    # a budget above the state count synthesises normally
    result = synthesize(stg, method="sg-bdd", max_states=1000)
    assert result.num_states == 256


def test_symbolic_space_max_states_bound():
    with pytest.raises(StateSpaceLimitExceeded):
        SymbolicStateSpace(muller_pipeline(6), max_states=100)
    space = SymbolicStateSpace(muller_pipeline(6), max_states=256)
    assert space.num_states == 256


def test_explicit_space_max_states_bound():
    with pytest.raises(StateSpaceLimitExceeded):
        ExplicitStateSpace(muller_pipeline(6), max_states=100)


def test_build_state_space_rejects_unknown_engine():
    with pytest.raises(ValueError):
        build_state_space(muller_pipeline(2), engine="quantum")


def test_symbolic_space_scales_past_explicit_budget():
    """The acceptance workload: CSC of muller_pipeline(16) symbolically.

    262144 states -- beyond the 200k default enumeration budget of the
    explicit engine -- checked without materialising any of them.
    """
    stg = muller_pipeline(16)
    with pytest.raises(StateSpaceLimitExceeded):
        build_state_space(stg, engine="explicit", max_states=200000)
    space = build_state_space(stg, engine="bdd")
    assert space.num_states == 262144
    assert space.check_csc().satisfied
    assert space.check_usc().satisfied


def test_symbolic_space_counts_a_parsed_48_stage_pipeline():
    """The top of the Figure 6 sweep, parsed from ``.g`` text as users hand
    it over: 2^50 states, counted and CSC-checked symbolically."""
    space = SymbolicStateSpace(parse_g(write_g(muller_pipeline(48))))
    assert space.num_states == 2 ** 50
    assert space.check_csc().satisfied
