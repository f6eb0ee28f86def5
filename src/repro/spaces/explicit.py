"""Explicit state space: the packed State Graph behind the protocol.

This engine enumerates every reachable state breadth-first (what SIS does)
and answers the protocol queries from the packed per-state code and
excitation-mask arrays of :class:`~repro.stategraph.StateGraph`.  It is the
reference implementation the symbolic engine is checked against, and the
backing of ``method="sg-explicit"``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .. import kernel
from ..boolean import Cover
from ..boolean.slices import prime_cover
from ..stategraph import (
    SignalRegions,
    StateGraph,
    build_state_graph,
    check_csc,
    check_usc,
    dc_set_cover,
    states_to_cover,
)
from ..stg.signals import Direction
from .base import CodingReport, StateSpace

__all__ = ["ExplicitStateSpace"]


class ExplicitStateSpace(StateSpace):
    """State-space protocol answered by the explicit packed State Graph."""

    engine = "explicit"

    def __init__(
        self,
        stg,
        max_states: Optional[int] = None,
        graph: Optional[StateGraph] = None,
    ) -> None:
        super().__init__(stg)
        #: The underlying explicit graph -- consumers that genuinely need
        #: per-state data (encoding resolution, simulation oracles) unwrap
        #: it; protocol-level consumers never have to.
        self.graph = graph if graph is not None else build_state_graph(
            stg, max_states=max_states
        )
        self._regions: Dict[str, SignalRegions] = {}
        self._dc: Optional[Cover] = None

    @property
    def explicit_graph(self) -> StateGraph:
        return self.graph

    # ------------------------------------------------------------------ #
    # Size queries
    # ------------------------------------------------------------------ #
    @property
    def num_states(self) -> int:
        return self.graph.num_states

    @property
    def num_codes(self) -> int:
        return len(self.graph.reachable_packed_codes())

    def reachable_code_words(self) -> Set[int]:
        return self.graph.reachable_packed_codes()

    # ------------------------------------------------------------------ #
    # Per-signal regions
    # ------------------------------------------------------------------ #
    def _signal_regions(self, signal: str) -> SignalRegions:
        regions = self._regions.get(signal)
        if regions is None:
            regions = SignalRegions(self.graph, signal)
            self._regions[signal] = regions
        return regions

    def _codes_of(self, states) -> Set[int]:
        packed = self.graph.packed_codes
        return {packed[state] for state in states}

    def _er_states(self, signal: str, direction: Direction) -> Set[int]:
        regions = self._signal_regions(signal)
        return regions.er_plus if direction is Direction.PLUS else regions.er_minus

    def er_codes(self, signal: str, direction: Direction) -> Set[int]:
        return self._codes_of(self._er_states(signal, direction))

    def quiescent_codes(self, signal: str, value: int) -> Set[int]:
        regions = self._signal_regions(signal)
        return self._codes_of(regions.qr_high if value else regions.qr_low)

    def on_codes(self, signal: str) -> Set[int]:
        return self._codes_of(self._signal_regions(signal).on_states)

    def off_codes(self, signal: str) -> Set[int]:
        return self._codes_of(self._signal_regions(signal).off_states)

    def er_size(self, signal: str, direction: Direction) -> int:
        return len(self._er_states(signal, direction))

    def on_size(self, signal: str) -> int:
        return len(self._signal_regions(signal).on_states)

    def off_size(self, signal: str) -> int:
        return len(self._signal_regions(signal).off_states)

    # ------------------------------------------------------------------ #
    # Covers
    # ------------------------------------------------------------------ #
    def on_cover(self, signal: str) -> Cover:
        return self._signal_regions(signal).on_cover

    def off_cover(self, signal: str) -> Cover:
        # Each off-code grows to a prime that takes in no on-code and no
        # unreachable code, so the cover is the exact reachable off-set with
        # no complement run.  A code the on-set shares with the off-set (a
        # CSC conflict) meets the on-set at once and stays a minterm.
        regions = self._signal_regions(signal)
        nvars = len(self.signals)
        full = (1 << nvars) - 1
        blocking = [(code, full & ~code) for code in self._codes_of(regions.on_states)]
        blocking += [(cube.ones, cube.zeros) for cube in self.dc_cover()]
        off_codes = sorted(self._codes_of(regions.off_states))
        return prime_cover(nvars, [(code, full & ~code) for code in off_codes], blocking)

    def set_cover(self, signal: str) -> Cover:
        return self._signal_regions(signal).set_cover

    def reset_cover(self, signal: str) -> Cover:
        return self._signal_regions(signal).reset_cover

    def quiescent_cover(self, signal: str, value: int) -> Cover:
        regions = self._signal_regions(signal)
        states = regions.qr_high if value else regions.qr_low
        return states_to_cover(self.graph, sorted(states))

    def dc_cover(self) -> Cover:
        if self._dc is None:
            self._dc = dc_set_cover(self.graph)
        return self._dc

    # ------------------------------------------------------------------ #
    # State-coding checks
    # ------------------------------------------------------------------ #
    def check_usc(self) -> CodingReport:
        report = check_usc(self.graph)
        return self._coding_report(report, with_signals=False)

    def check_csc(self) -> CodingReport:
        report = check_csc(self.graph)
        return self._coding_report(report, with_signals=True)

    def _coding_report(self, report, with_signals: bool) -> CodingReport:
        graph = self.graph
        packed = graph.packed_codes
        code_words = sorted({packed[left] for left, _right in report.conflicts})
        signals: FrozenSet[str] = frozenset()
        if with_signals and report.conflicts:
            implementable = set(self.stg.implementable_signals)
            conflicting: Set[str] = set()
            for left, right in report.conflicts:
                left_excited = graph.excited_signals(left) & implementable
                right_excited = graph.excited_signals(right) & implementable
                conflicting |= left_excited.symmetric_difference(right_excited)
            signals = frozenset(conflicting)
        return CodingReport(
            report.kind,
            report.satisfied,
            report.num_conflicts,
            code_words,
            signals,
        )

    def signature_groups(self) -> Dict[int, List[Tuple[int, int]]]:
        graph = self.graph
        implementable_mask = graph.signal_table.mask_of(self.stg.implementable_signals)
        if kernel.HAS_NUMPY:
            from ..kernel.bitset import (
                graph_arrays,
                packed_mask,
                signature_groups_kernel,
            )

            codes, excited_plus, excited_minus = graph_arrays(graph)
            mask = packed_mask(implementable_mask, codes.shape[1])
            signatures = (excited_plus | excited_minus) & mask
            return signature_groups_kernel(codes, signatures)
        plus = graph._excited_plus
        minus = graph._excited_minus
        by_code: Dict[int, Dict[int, int]] = {}
        for state, code in enumerate(graph.packed_codes):
            signature = (plus[state] | minus[state]) & implementable_mask
            groups = by_code.setdefault(code, {})
            groups[signature] = groups.get(signature, 0) + 1
        return {
            code: sorted(groups.items())
            for code, groups in by_code.items()
            if len(groups) > 1
        }
