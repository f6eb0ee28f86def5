"""The state-space protocol shared by the explicit and symbolic engines.

Every SG-style consumer of this code base -- cover extraction, CSC/USC
checking, conflict grouping, the ``sg-*`` synthesis flows, the experiment
harnesses -- needs the same small set of questions answered about the state
space of an STG:

* how many states (and how many distinct binary codes) are reachable,
* for every signal, its excitation regions / quiescent regions / on-set /
  off-set (as code sets, state counts and cube covers),
* the don't-care set (unreachable codes) as a cover,
* whether USC/CSC hold, and if not which code words and signals conflict.

:class:`StateSpace` pins down that contract.  Two engines implement it:
:class:`~repro.spaces.explicit.ExplicitStateSpace` wraps the packed
:class:`~repro.stategraph.StateGraph` (the SIS-like engine), and
:class:`~repro.spaces.symbolic.SymbolicStateSpace` answers every query from
a BDD characteristic function (the Petrify-like engine) without ever
materialising a state list.  Consumers written against the protocol run
unchanged on either backend, which is what makes the Table 1 / Figure 6
explicit-vs-symbolic comparison an apples-to-apples one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, List, Set, Tuple

from ..boolean import Cover
from ..stg.signals import Direction

__all__ = ["StateSpace", "CodingReport"]


class CodingReport:
    """Engine-independent result of a USC/CSC check.

    Unlike :class:`~repro.stategraph.csc.CSCReport` (whose conflict pairs
    are explicit state indices, meaningless for a symbolic engine), this
    report describes conflicts by their *code words* -- the packed binary
    codes carrying a conflict -- plus the number of conflicting state pairs
    and, for CSC, the implementable signals whose excitation differs
    between equal-code states.  Both engines produce directly comparable
    reports, which is what the equivalence suite checks.
    """

    def __init__(
        self,
        kind: str,
        satisfied: bool,
        num_pairs: int,
        conflict_code_words: List[int],
        conflicting_signals: FrozenSet[str] = frozenset(),
    ) -> None:
        self.kind = kind
        self.satisfied = satisfied
        self.num_pairs = num_pairs
        self.conflict_code_words = conflict_code_words
        self.conflicting_signals = conflicting_signals

    def __bool__(self) -> bool:
        return self.satisfied

    @property
    def num_conflicts(self) -> int:
        """Number of conflicting state pairs (CSCReport-compatible alias)."""
        return self.num_pairs

    def __repr__(self) -> str:
        return "CodingReport(kind=%s, satisfied=%s, pairs=%d, codes=%d)" % (
            self.kind,
            self.satisfied,
            self.num_pairs,
            len(self.conflict_code_words),
        )


class StateSpace(ABC):
    """Abstract state space of an STG (see the module docstring).

    Code sets are returned as sets of *packed code words* (bit ``i`` =
    signal ``i`` in ``stg.signals`` order), sizes are *state* counts (two
    states sharing a code count twice), and covers live in the
    ``len(stg.signals)``-variable cube space used by the minimiser.
    """

    #: "explicit" or "bdd" -- which engine answered the queries.
    engine: str = "abstract"

    def __init__(self, stg) -> None:
        self.stg = stg
        self.signals: List[str] = stg.signals

    @property
    def explicit_graph(self):
        """The underlying explicit ``StateGraph``, or ``None``.

        The one sanctioned unwrapping point for consumers that genuinely
        need per-state data (state-index regions, insertion-mask scoring,
        CSC resolution): the explicit engine returns its graph, symbolic
        engines -- which have no state list to offer -- return ``None``.
        """
        return None

    # ------------------------------------------------------------------ #
    # Size queries
    # ------------------------------------------------------------------ #
    @property
    @abstractmethod
    def num_states(self) -> int:
        """Number of reachable states (distinct markings)."""

    @property
    @abstractmethod
    def num_codes(self) -> int:
        """Number of distinct reachable binary codes."""

    @abstractmethod
    def reachable_code_words(self) -> Set[int]:
        """The reachable binary codes as packed ints.

        This *enumerates codes* (not states); symbolic backends materialise
        one word per distinct code, so it is meant for tests and small
        consumers, not for the synthesis hot path.
        """

    # ------------------------------------------------------------------ #
    # Per-signal region queries
    # ------------------------------------------------------------------ #
    @abstractmethod
    def er_codes(self, signal: str, direction: Direction) -> Set[int]:
        """Code words of the excitation region ER(signal, direction)."""

    @abstractmethod
    def quiescent_codes(self, signal: str, value: int) -> Set[int]:
        """Code words of the quiescent region QR(signal = value)."""

    @abstractmethod
    def on_codes(self, signal: str) -> Set[int]:
        """Code words of states whose implied value of ``signal`` is 1."""

    @abstractmethod
    def off_codes(self, signal: str) -> Set[int]:
        """Code words of states whose implied value of ``signal`` is 0."""

    @abstractmethod
    def er_size(self, signal: str, direction: Direction) -> int:
        """Number of *states* in ER(signal, direction)."""

    @abstractmethod
    def on_size(self, signal: str) -> int:
        """Number of *states* whose implied value of ``signal`` is 1."""

    @abstractmethod
    def off_size(self, signal: str) -> int:
        """Number of *states* whose implied value of ``signal`` is 0."""

    # ------------------------------------------------------------------ #
    # Cover extraction (what the synthesis flow consumes)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def on_cover(self, signal: str) -> Cover:
        """Cover of the signal's on-set, suitable as espresso's on input."""

    @abstractmethod
    def off_cover(self, signal: str) -> Cover:
        """Exact cover of the signal's reachable off-codes.

        It covers every code of a state whose implied value is 0 and no
        other code: no unreachable code, and no code that is only in the
        on-set.  The contract is this function, not a cube list: the
        symbolic engine returns an ISOP of it, the explicit engine prime
        cubes.  Espresso may take it as its ``off`` (blocking) set and
        reads it only through intersection tests: for a CSC-clean signal
        it is the same function as ``complement(on + dc)``, so the
        minimised cover stays the same cube for cube.
        """

    @abstractmethod
    def set_cover(self, signal: str) -> Cover:
        """Cover of ER(signal+), the set excitation function's on-set."""

    @abstractmethod
    def reset_cover(self, signal: str) -> Cover:
        """Cover of ER(signal-), the reset excitation function's on-set."""

    @abstractmethod
    def quiescent_cover(self, signal: str, value: int) -> Cover:
        """Cover of QR(signal = value), used as a set/reset don't care."""

    @abstractmethod
    def dc_cover(self) -> Cover:
        """Cover of the unreachable binary codes (the don't-care set).

        The contract is the function, not a cube list: espresso reads the
        DC-set only through intersection and containment tests, so any
        cover of these codes minimises to the same result.
        """

    # ------------------------------------------------------------------ #
    # State-coding checks
    # ------------------------------------------------------------------ #
    @abstractmethod
    def check_usc(self) -> CodingReport:
        """Unique State Coding: no two distinct states share a code."""

    @abstractmethod
    def check_csc(self) -> CodingReport:
        """Complete State Coding: equal-code states imply equal behaviour
        of the implementable signals."""

    def conflicting_signals(self) -> FrozenSet[str]:
        """Implementable signals whose excitation a CSC conflict splits."""
        return self.check_csc().conflicting_signals

    @abstractmethod
    def signature_groups(self) -> Dict[int, List[Tuple[int, int]]]:
        """CSC conflict groups: code word -> [(signature mask, #states)].

        Only code words whose states fall into at least two excitation
        signature classes are reported; groups are sorted by signature.
        This is the engine-independent input of the encoding layer's
        conflict grouping.
        """

    def __repr__(self) -> str:
        return "%s(%r, engine=%s, states=%d)" % (
            type(self).__name__,
            self.stg.name,
            self.engine,
            self.num_states,
        )
