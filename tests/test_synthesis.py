"""Integration tests: all synthesis methods produce correct, equivalent logic."""

import pickle

import pytest

from repro import parse_g, write_g
from repro.core import UnsafeNetError
from repro.spaces import ENGINES, build_state_space
from repro.stategraph import build_state_graph
from repro.stg import (
    STG,
    CSCConflictError,
    InconsistentSTGError,
    STGError,
    SignalType,
    benchmark_by_name,
    choice_controller,
    csc_conflict_example,
    figure4_example,
    muller_pipeline,
    paper_example,
    parallel_handshake,
    sequential_controller,
)
from repro.synthesis import (
    METHODS,
    approximate_signal_covers,
    covers_are_correct,
    exact_signal_covers,
    synthesize,
    synthesize_approx_from_unfolding,
    verify_implementation,
)
from repro.unfolding import unfold

EXAMPLES = [
    paper_example,
    figure4_example,
    choice_controller,
    lambda: parallel_handshake("hs", [3, 2]),
    lambda: sequential_controller("seq", 5),
    lambda: muller_pipeline(3),
]


@pytest.mark.parametrize("builder", EXAMPLES)
@pytest.mark.parametrize("method", METHODS)
def test_every_method_produces_a_correct_implementation(builder, method):
    stg = builder()
    result = synthesize(stg, method=method)
    assert not result.implementation.has_csc_conflict
    check = verify_implementation(stg, result.implementation)
    assert check.ok, check.errors


@pytest.mark.parametrize("builder", EXAMPLES)
def test_unfolding_methods_match_sg_literal_counts(builder):
    stg = builder()
    reference = synthesize(stg, method="sg-explicit").literal_count
    for method in ("unfolding-exact", "unfolding-approx"):
        assert synthesize(stg, method=method).literal_count == reference


def test_paper_example_gate_equation():
    result = synthesize(paper_example(), method="unfolding-approx")
    gate = result.implementation.gate_for("b")
    # C_On(b) minimises to a + c (Section 4.1 of the paper).
    assert gate.literal_count == 2
    assert gate.function.support() == ["a", "c"]


def test_timing_breakdown_is_reported():
    result = synthesize(paper_example(), method="unfolding-approx")
    row = result.timing_row()
    assert set(row) == {"UnfTim", "SynTim", "EspTim", "TotTim"}
    assert row["TotTim"] >= row["UnfTim"]


@pytest.mark.parametrize("method", METHODS)
def test_csc_conflict_is_detected_by_all_methods(method):
    result = synthesize(csc_conflict_example(), method=method)
    assert set(result.implementation.csc_conflicts) == {"x", "y"}
    with pytest.raises(CSCConflictError, match="CSC conflict on signals: x, y") as raised:
        synthesize(csc_conflict_example(), method=method, raise_on_csc=True)
    assert raised.value.signals == ("x", "y")
    # A typed STG error, so handlers of ValueError still catch it.
    assert isinstance(raised.value, STGError) and isinstance(raised.value, ValueError)
    assert pickle.loads(pickle.dumps(raised.value)).signals == ("x", "y")


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        synthesize(paper_example(), method="magic")


def test_exact_covers_from_segment_match_paper():
    stg = paper_example()
    segment = unfold(stg)
    on, off, conflict = exact_signal_covers(segment, "b")
    assert not conflict
    on_codes = {cube.to_string() for cube in on}
    assert on_codes == {"100", "110", "101", "111", "011", "001"}
    assert {cube.to_string() for cube in off} == {"000", "010"}


def test_approximated_covers_satisfy_definition_2_1():
    stg = paper_example()
    segment = unfold(stg)
    approx = approximate_signal_covers(segment, "b")
    on_exact, off_exact, _ = exact_signal_covers(segment, "b")
    # Before refinement the approximations must over-cover their exact sets.
    assert approx.on_cover.contains_cover(on_exact)
    assert approx.off_cover.contains_cover(off_exact)


def test_refined_covers_are_correct_for_all_outputs():
    stg = parallel_handshake("hs", [2, 2])
    segment = unfold(stg)
    result = synthesize_approx_from_unfolding(stg, segment=segment)
    for signal, covers in result.signal_covers.items():
        on_exact, off_exact, conflict = exact_signal_covers(segment, signal)
        assert not conflict
        assert covers_are_correct(covers.on_cover, covers.off_cover, on_exact, off_exact)


def test_refinement_statistics_are_exposed():
    stg = muller_pipeline(3)
    result = synthesize_approx_from_unfolding(stg)
    assert result.total_refinement_rounds == 3
    assert result.total_parts_refined == 36
    assert result.total_parts_fully_refined == 0
    assert result.total_slices_walked == 0
    assert result.total_cuts_enumerated == 0
    assert result.implementation.total_literals == 18


def test_c_element_architecture_from_sg_and_exact_unfolding():
    stg = parallel_handshake("hs", [2, 2])
    for method in ("sg-explicit", "unfolding-exact"):
        result = synthesize(stg, method=method, architecture="c-element")
        check = verify_implementation(stg, result.implementation)
        assert check.ok, check.errors
        gate = next(iter(result.implementation))
        assert gate.set_function is not None and gate.reset_function is not None


def test_approx_flow_rejects_other_architectures():
    with pytest.raises(ValueError):
        synthesize(paper_example(), method="unfolding-approx", architecture="c-element")


def test_implementation_report_rendering():
    implementation = synthesize(paper_example()).implementation
    text = implementation.to_text()
    assert "total literals" in text
    assert "b =" in text
    assert implementation.equations()


def _nowick_asn_without_input_place():
    """nowick.asn with ``req+ x0_0+ x1_0+`` rewired to ``req+ ack- x1_0+``.

    ``x0_0+`` loses its only input place, so it is always enabled and its
    second firing marks ``<x0_0+,x0_1+>`` twice.  The unfolder never adds
    an event without input conditions, so only the packed net's structural
    check keeps the unfolding methods from synthesising a circuit for it.
    """
    text = write_g(benchmark_by_name("nowick.asn").build())
    assert "req+ x0_0+ x1_0+\n" in text
    return parse_g(text.replace("req+ x0_0+ x1_0+\n", "req+ ack- x1_0+\n"))


@pytest.mark.parametrize("method", METHODS)
def test_transition_without_input_place_rejected_by_every_method(method):
    with pytest.raises(UnsafeNetError, match="x0_0\\+ has no input place"):
        synthesize(_nowick_asn_without_input_place(), method=method)


@pytest.mark.parametrize("engine", ENGINES)
def test_transition_without_input_place_rejected_by_every_engine(engine):
    with pytest.raises(UnsafeNetError, match="x0_0\\+ has no input place"):
        build_state_space(_nowick_asn_without_input_place(), engine=engine)


def _paper_example_with_sink_transition():
    """paper_example with ``c- p9`` cut down to ``c-``.

    ``c-`` loses its only output place, so its firing empties the marking.
    No condition of the unfolding segment marks the empty cut, so no
    marked-region cube of the paper's flow covers that state (a=0, b=1,
    c=0), and ``b``'s on-cover would miss it.
    """
    text = write_g(paper_example())
    assert "c- p9\n" in text
    return parse_g(text.replace("c- p9\n", "c-\n"))


@pytest.mark.parametrize("method", METHODS)
def test_transition_without_output_place_rejected_by_every_method(method):
    with pytest.raises(UnsafeNetError, match="c- has no output place"):
        synthesize(_paper_example_with_sink_transition(), method=method)


@pytest.mark.parametrize("engine", ENGINES)
def test_transition_without_output_place_rejected_by_every_engine(engine):
    with pytest.raises(UnsafeNetError, match="c- has no output place"):
        build_state_space(_paper_example_with_sink_transition(), engine=engine)


def _two_rising_transitions_in_a_row():
    """``a+`` followed by a second ``a+``: the second is enabled while ``a``
    is already 1, which violates consistent state assignment."""
    stg = STG("bad")
    stg.add_signal("a", SignalType.OUTPUT, initial=0)
    first = stg.add_transition("a+")
    second = stg.add_transition("a+")
    stg.add_arc(stg.add_place("s", tokens=1), first)
    stg.connect(first, second)
    stg.add_arc(second, stg.add_place("end"))
    return stg


@pytest.mark.parametrize("method", METHODS)
def test_inconsistent_spec_rejected_by_every_method(method):
    with pytest.raises(InconsistentSTGError, match="inconsistent state assignment"):
        synthesize(_two_rising_transitions_in_a_row(), method=method)


@pytest.mark.parametrize("engine", ENGINES)
def test_inconsistent_spec_rejected_by_every_engine(engine):
    with pytest.raises(InconsistentSTGError, match="inconsistent state assignment"):
        build_state_space(_two_rising_transitions_in_a_row(), engine=engine)


#: ``p0`` chooses ``a+`` or ``b+`` and both lead into ``p1``, so the marking
#: ``{p1}`` is reached with codes 100 and 010.  No firing is unsafe and none
#: is enabled while its signal already holds the target value.
TWO_CODES_G = """\
.inputs a b
.outputs c
.graph
p0 a+ b+
a+ p1
b+ p1
p1 c+
c+ p2
p2 c-
c- p1
.marking { p0 }
.end
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_marking_with_two_codes_rejected_by_every_engine(engine):
    with pytest.raises(InconsistentSTGError, match="two different codes"):
        build_state_space(parse_g(TWO_CODES_G), engine=engine)


@pytest.mark.parametrize("method", ["sg-explicit", "sg-bdd", "unfolding-exact"])
def test_marking_with_two_codes_rejected_by_exact_methods(method):
    with pytest.raises(InconsistentSTGError, match="two"):
        synthesize(parse_g(TWO_CODES_G), method=method)
