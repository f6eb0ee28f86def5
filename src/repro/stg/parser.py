"""Reader for the ``.g`` (astg) Signal Transition Graph format.

The ``.g`` format is the de-facto interchange format used by SIS, Petrify,
punf and Workcraft for asynchronous controller specifications, and the
benchmark names of Table 1 refer to files in this format.  The subset
implemented here covers everything those benchmarks use:

* ``.model`` / ``.name``  -- specification name,
* ``.inputs`` / ``.outputs`` / ``.internal`` / ``.dummy`` -- signal declarations,
* ``.graph`` ... ``.marking { ... }`` ... ``.end`` -- arcs and initial marking,
* transition labels ``a+``, ``a-``, ``a+/2``; explicit places; implicit places
  written as ``<a+,b->`` inside the marking,
* an optional non-standard ``.initial_state`` line giving initial signal
  values (otherwise they are inferred from the behaviour).

Every defect in the text raises :class:`ParseError` naming its source line;
a malformed value (a token count, an initial value, a re-declared or unknown
signal) keeps the underlying error as the ``ParseError``'s cause.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..obs import current_tracer
from .signals import SignalError, SignalTransition, SignalType
from .stg import STG, STGError

__all__ = ["parse_g", "parse_g_file", "ParseError"]


class ParseError(ValueError):
    """Raised when a ``.g`` description cannot be parsed.

    ``line`` is the 1-based source line of the defect (``None`` when no line
    is to blame); the message then starts with ``line N:``.
    """

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class _SourceLine:
    """Blames a source line for the errors raised inside the block.

    A ``ValueError`` without a line (one of the STG model's errors, or a
    ``ParseError`` a helper raised) leaves the block as a ``ParseError``
    naming the line.  The model's error becomes its cause; a helper's
    ``ParseError`` passes on its own cause.
    """

    __slots__ = ("number",)

    def __init__(self, number: int) -> None:
        self.number = number

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, traceback) -> bool:
        if not isinstance(exc, ValueError) or getattr(exc, "line", None) is not None:
            return False
        cause = exc.__cause__ if isinstance(exc, ParseError) else exc
        raise ParseError(str(exc), self.number) from cause


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError("%s must be an integer, got %r" % (what, text)) from exc


_SIGNAL_TYPES = {
    ".inputs": SignalType.INPUT,
    ".outputs": SignalType.OUTPUT,
    ".internal": SignalType.INTERNAL,
}


_IMPLICIT_RE = re.compile(r"^<(?P<src>[^,<>]+),(?P<dst>[^,<>]+)>$")


def parse_g_file(path: str) -> STG:
    """Parse a ``.g`` file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_g(handle.read(), name=_basename(path))


def parse_g(text: str, name: Optional[str] = None) -> STG:
    """Parse a ``.g`` description from a string."""
    with current_tracer().span("parse", source=name or "stg") as span:
        return _parse_g(text, name, span)


def _parse_g(text: str, name: Optional[str], span) -> STG:
    model_name = name or "stg"
    declarations: List[Tuple[int, str, List[str]]] = []
    graph_lines: List[Tuple[int, List[str]]] = []
    marking_tokens: List[Tuple[int, str]] = []
    initial_state_tokens: List[Tuple[int, str]] = []
    in_graph = False

    for number, line in _logical_lines(text):
        tokens = line.split()
        keyword = tokens[0]
        if keyword in (".model", ".name"):
            if len(tokens) > 1:
                model_name = tokens[1]
        elif keyword in (".inputs", ".outputs", ".internal", ".dummy"):
            declarations.append((number, keyword, tokens[1:]))
        elif keyword == ".initial_state":
            initial_state_tokens.extend((number, token) for token in tokens[1:])
        elif keyword == ".graph":
            in_graph = True
        elif keyword == ".marking":
            in_graph = False
            marking_tokens.extend((number, token) for token in _parse_marking_tokens(line))
        elif keyword == ".capacity":
            continue
        elif keyword == ".end":
            in_graph = False
        elif keyword.startswith("."):
            raise ParseError("unsupported directive %r" % keyword, number)
        else:
            if not in_graph:
                raise ParseError("arc line %r outside .graph section" % line, number)
            graph_lines.append((number, tokens))

    stg = STG(model_name)
    dummies: Set[str] = set()
    for number, keyword, names in declarations:
        signal_type = _SIGNAL_TYPES.get(keyword)
        if signal_type is None:
            dummies.update(names)
            continue
        with _SourceLine(number):
            for signal in names:
                stg.add_signal(signal, signal_type)

    node_kind: Dict[str, str] = {}
    for _number, tokens in graph_lines:
        for token in tokens:
            if token not in node_kind:
                node_kind[token] = _classify(token, stg, dummies)

    # Create transitions first (in order of appearance), then places.
    for number, tokens in graph_lines:
        with _SourceLine(number):
            for token in tokens:
                if node_kind[token] == "transition" and not stg.net.has_transition(token):
                    _add_transition(stg, token, dummies)
    for number, tokens in graph_lines:
        with _SourceLine(number):
            for token in tokens:
                if node_kind[token] == "place" and not stg.net.has_place(token):
                    stg.add_place(token)

    implicit_places: Dict[Tuple[str, str], str] = {}
    for number, tokens in graph_lines:
        with _SourceLine(number):
            source = tokens[0]
            for target in tokens[1:]:
                _add_edge(stg, source, target, node_kind, implicit_places)

    _apply_marking(stg, marking_tokens, implicit_places)
    _apply_initial_state(stg, initial_state_tokens)
    if span.live:
        span.gauge("signals", stg.num_signals)
        span.gauge("transitions", len(stg.net.transitions))
        span.gauge("places", len(stg.net.places))
    return stg


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def _basename(path: str) -> str:
    name = path.replace("\\", "/").rsplit("/", 1)[-1]
    return name[:-2] if name.endswith(".g") else name


def _logical_lines(text: str) -> List[Tuple[int, str]]:
    """The non-blank lines without comments, with their 1-based numbers."""
    lines: List[Tuple[int, str]] = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((number, line))
    return lines


def _parse_marking_tokens(line: str) -> List[str]:
    body = line[len(".marking"):].strip()
    if body.startswith("{"):
        body = body[1:]
    if body.endswith("}"):
        body = body[:-1]
    # Implicit place tokens contain commas inside <...>; protect them.
    tokens: List[str] = []
    for token in re.findall(r"<[^>]*>(?:=\d+)?|[^\s]+", body):
        token = token.strip()
        if token:
            tokens.append(token)
    return tokens


def _classify(token: str, stg: STG, dummies: Set[str]) -> str:
    if token in dummies:
        return "transition"
    try:
        transition = SignalTransition.parse(token)
    except SignalError:
        return "place"
    if transition.signal in stg.signals:
        return "transition"
    return "place"


def _add_transition(stg: STG, token: str, dummies: Set[str]) -> None:
    if token in dummies:
        stg.add_transition(None, name=token)
    else:
        stg.add_transition(SignalTransition.parse(token), name=token)


def _add_edge(
    stg: STG,
    source: str,
    target: str,
    node_kind: Dict[str, str],
    implicit_places: Dict[Tuple[str, str], str],
) -> None:
    source_kind = node_kind[source]
    target_kind = node_kind[target]
    if source_kind == "transition" and target_kind == "transition":
        place = stg.connect(source, target)
        implicit_places[(source, target)] = place
    elif source_kind != target_kind:
        stg.add_arc(source, target)
    else:
        raise ParseError("arc between two places: %r -> %r" % (source, target))


def _apply_marking(
    stg: STG,
    marking_tokens: Sequence[Tuple[int, str]],
    implicit_places: Dict[Tuple[str, str], str],
) -> None:
    marked: List[str] = []
    for number, token in marking_tokens:
        with _SourceLine(number):
            marked.extend(_marked_place(stg, token, implicit_places))
    if marked:
        counts: Dict[str, int] = {}
        for place in marked:
            counts[place] = counts.get(place, 0) + 1
        for place in stg.net.places:
            stg.net.set_initial_tokens(place, counts.get(place, 0))


def _marked_place(
    stg: STG, token: str, implicit_places: Dict[Tuple[str, str], str]
) -> List[str]:
    """The place a marking token names, repeated once per token it holds."""
    tokens_count = 1
    what = "token count in marking entry %r" % token
    if "=" in token and not token.startswith("<"):
        token, count_text = token.split("=", 1)
        tokens_count = _integer(count_text, what)
    elif token.startswith("<") and token.endswith(">") is False and "=" in token:
        token, count_text = token.rsplit("=", 1)
        tokens_count = _integer(count_text, what)
    match = _IMPLICIT_RE.match(token)
    if match:
        key = (match.group("src"), match.group("dst"))
        place = implicit_places.get(key)
        if place is None:
            raise ParseError("marking refers to unknown implicit place %r" % token)
    else:
        place = token
        if not stg.net.has_place(place):
            raise ParseError("marking refers to unknown place %r" % token)
    return [place] * tokens_count


def _apply_initial_state(stg: STG, tokens: Sequence[Tuple[int, str]]) -> None:
    for number, token in tokens:
        with _SourceLine(number):
            if "=" in token:
                signal, value = token.split("=", 1)
                signal = signal.strip()
                stg.set_initial_value(signal, _integer(value, "initial value of %r" % signal))
            elif token.startswith("!"):
                stg.set_initial_value(token[1:], 0)
            else:
                stg.set_initial_value(token, 1)
