"""Unit tests for the STG model, the .g parser/writer and consistency."""

import random

import pytest

from repro.stg import (
    STG,
    ParseError,
    STGError,
    SignalTransition,
    SignalType,
    check_consistency,
    csc_arbiter,
    muller_pipeline,
    paper_example,
    parse_g,
    table1_suite,
    write_g,
)


def test_signal_transition_parsing():
    t = SignalTransition.parse("req+/2")
    assert t.signal == "req" and t.is_rising and t.index == 2
    assert t.label() == "req+/2"
    assert SignalTransition.parse("a-").target_value == 0
    with pytest.raises(Exception):
        SignalTransition.parse("++")


def test_signal_declaration_and_types():
    stg = STG("t")
    stg.add_signal("a", SignalType.INPUT, initial=0)
    stg.add_signal("x", SignalType.OUTPUT, initial=1)
    stg.add_signal("i", SignalType.INTERNAL, initial=0)
    assert stg.input_signals == ["a"]
    assert stg.implementable_signals == ["x", "i"]
    assert stg.initial_code() == (0, 1, 0)
    with pytest.raises(STGError):
        stg.add_signal("a", SignalType.OUTPUT)


def test_transition_for_undeclared_signal_rejected():
    stg = STG()
    with pytest.raises(STGError):
        stg.add_transition("a+")


def test_duplicate_labels_get_instance_indices():
    stg = STG()
    stg.add_signal("a", SignalType.OUTPUT)
    first = stg.add_transition("a+")
    second = stg.add_transition("a+")
    assert first == "a+"
    assert second == "a+/1"
    assert stg.label_of(second).signal == "a"
    assert stg.rising_transitions("a") == [first, second]


def test_connect_creates_implicit_place():
    stg = STG()
    stg.add_signal("a", SignalType.OUTPUT, initial=0)
    plus = stg.add_transition("a+")
    minus = stg.add_transition("a-")
    place = stg.connect(plus, minus, tokens=0)
    assert stg.net.place_preset(place) == {plus}
    assert stg.net.place_postset(place) == {minus}


def test_next_code_and_consistency_helper():
    stg = paper_example()
    code = stg.initial_code()
    assert stg.next_code(code, "a+") == (1, 0, 0)
    assert stg.code_consistent_with(code, "a+")
    assert not stg.code_consistent_with((1, 0, 0), "a+")


def test_infer_initial_state():
    stg = paper_example()
    stg.add_signal("idle", SignalType.INPUT)  # labels no transition
    stg._initial_values.clear()
    inferred = stg.infer_initial_state()
    assert inferred == {"a": 0, "b": 0, "c": 0, "idle": 0}


def _late_first_change_g() -> str:
    """14 free input toggles beside one cycle ``w0+ .. w7+ z- w0- .. w7-
    z+``, with no ``.initial_state``: ``z`` first changes 8 firings deep,
    after more than 20,000 markings in breadth-first order."""
    toggles = ["x%d" % i for i in range(14)]
    ws = ["w%d" % i for i in range(8)]
    lines = [".inputs " + " ".join(toggles + ws), ".outputs z", ".graph"]
    for x in toggles:
        lines += ["%s+ %s-" % (x, x), "%s- %s+" % (x, x)]
    cycle = [w + "+" for w in ws] + ["z-"] + [w + "-" for w in ws] + ["z+"]
    lines += ["%s %s" % pair for pair in zip(cycle, cycle[1:] + cycle[:1])]
    marked = ["<%s-,%s+>" % (x, x) for x in toggles] + ["<z+,w0+>"]
    lines += [".marking { %s }" % " ".join(marked), ".end"]
    return "\n".join(lines) + "\n"


def test_infer_initial_state_searches_until_every_signal_is_determined():
    from repro.synthesis import synthesize

    stg = parse_g(_late_first_change_g())
    inferred = stg.infer_initial_state()
    assert inferred["z"] == 1  # z falls first
    assert all(inferred[w] == 0 for w in ("w0", "w7"))
    result = synthesize(parse_g(_late_first_change_g()), method="unfolding-approx")
    assert result.literal_count == 1


def test_check_consistency_on_paper_example():
    report = check_consistency(paper_example())
    assert report.consistent
    assert report.num_states == 8


def test_check_consistency_detects_violation():
    stg = STG("bad")
    stg.add_signal("a", SignalType.OUTPUT, initial=0)
    first = stg.add_transition("a+")
    second = stg.add_transition("a+")
    place = stg.connect(first, second)
    start = stg.add_place("start", tokens=1)
    stg.add_arc(start, first)
    report = check_consistency(stg)
    assert not report.consistent


VME_LIKE = """
.model small
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.initial_state req=0 ack=0
.end
"""


def test_parse_simple_g():
    stg = parse_g(VME_LIKE)
    assert stg.name == "small"
    assert stg.input_signals == ["req"]
    assert stg.output_signals == ["ack"]
    assert len(stg.transitions) == 4
    assert stg.initial_code() == (0, 0)
    report = check_consistency(stg)
    assert report.consistent
    assert report.num_states == 4


@pytest.mark.parametrize(
    "old, new, line, cause",
    [
        (".outputs ack", ".outputs ack\n.inputs ack", 5, STGError),
        ("{ <ack-,req+> }", "{ <ack-,req+>=x }", 10, ValueError),
        ("{ <ack-,req+> }", "{ <ack-,req+> p9=x }", 10, ValueError),
        ("req=0 ack=0", "q=1", 11, STGError),
        ("req=0 ack=0", "req=z", 11, ValueError),
        ("req=0 ack=0", "req=2", 11, STGError),
    ],
    ids=["redeclared", "implicit-count", "place-count", "unknown-signal", "value-z", "value-2"],
)
def test_malformed_values_raise_parse_error_with_line(old, new, line, cause):
    text = VME_LIKE.replace(old, new)
    with pytest.raises(ParseError) as raised:
        parse_g(text)
    assert raised.value.line == line
    assert str(raised.value).startswith("line %d: " % line)
    assert type(raised.value.__cause__) is cause


# Characters and tokens a mutant may write: every kind of .g punctuation,
# half-formed markings and instance indices, and section keywords.
MUTANT_CHARACTERS = "abxz019 {}<>,=/+-~#."
MUTANT_TOKENS = ["{", "}", "<", ">", "=", "/", "+", "-", "~", "<,>", "{}",
                 "a+/x", "a+/1/2", "p0=2", "x=", ".graph", ".marking", ".end"]


def _mutant(rng, text):
    """``text`` with one edit on one line: delete or duplicate the line,
    drop, duplicate or replace one of its tokens, or overwrite one of its
    characters.  None when the drawn edit needs a token or character the
    line does not have."""
    lines = text.splitlines()
    index = rng.randrange(len(lines))
    line = lines[index]
    tokens = line.split()
    kind = rng.randrange(6)
    if kind == 0:
        del lines[index]
    elif kind == 1:
        lines.insert(index, line)
    elif kind == 2:
        if not line:
            return None
        at = rng.randrange(len(line))
        lines[index] = line[:at] + rng.choice(MUTANT_CHARACTERS) + line[at + 1:]
    else:
        if not tokens:
            return None
        at = rng.randrange(len(tokens))
        if kind == 3:
            del tokens[at]
        elif kind == 4:
            tokens.insert(at, tokens[at])
        else:
            tokens[at] = rng.choice(text.split() + MUTANT_TOKENS)
        lines[index] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_mutated_g_text_parses_or_names_the_line():
    """The parser probe: 1,000 single-edit mutants of the Table 1 specs,
    ``muller_pipeline(3)`` and ``csc_arbiter(4)`` either parse or raise a
    ParseError that names a line; no other exception escapes."""
    stgs = [entry.build() for entry in table1_suite()]
    texts = [write_g(stg) for stg in stgs + [muller_pipeline(3), csc_arbiter(4)]]
    rng = random.Random(0)
    outcomes = {"parsed": 0, "rejected": 0}
    while sum(outcomes.values()) < 1000:
        text = _mutant(rng, rng.choice(texts))
        if text is None:
            continue
        try:
            parse_g(text)
        except ParseError as error:
            assert error.line is not None, "%s\n%s" % (error, text)
            outcomes["rejected"] += 1
        else:
            outcomes["parsed"] += 1
    # Both outcomes occur, so the mutants reach past the first line.
    assert outcomes["parsed"] and outcomes["rejected"]


def test_parse_explicit_places_and_choice():
    text = """
.model choice
.inputs a b
.outputs x
.graph
p0 a+ b+
a+ x+/1
b+ x+/2
x+/1 p1
x+/2 p1
p1 x-
x- a-
x- b-
a- p0
b- p0
.marking { p0 }
.initial_state a=0 b=0 x=0
.end
"""
    stg = parse_g(text)
    assert len(stg.transitions_of_signal("x")) == 3
    assert stg.net.has_place("p0")


def test_writer_roundtrip_preserves_behaviour():
    stg = paper_example()
    text = write_g(stg)
    parsed = parse_g(text)
    assert sorted(parsed.signals) == sorted(stg.signals)
    original = check_consistency(stg)
    roundtrip = check_consistency(parsed)
    assert roundtrip.consistent
    assert roundtrip.num_states == original.num_states
    # Same set of reachable binary codes.
    original_codes = {tuple(code[stg.signal_index(s)] for s in sorted(stg.signals))
                      for code in original.codes.values()}
    roundtrip_codes = {tuple(code[parsed.signal_index(s)] for s in sorted(parsed.signals))
                       for code in roundtrip.codes.values()}
    assert original_codes == roundtrip_codes


def test_statistics():
    stats = paper_example().statistics()
    assert stats["signals"] == 3
    assert stats["places"] == 9
    assert stats["transitions"] == 8
