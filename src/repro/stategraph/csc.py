"""State coding and output-persistency checks on the State Graph.

* **USC** (Unique State Coding): no two distinct reachable markings share a
  binary code.
* **CSC** (Complete State Coding): markings may share a code only if they
  imply the same behaviour of the non-input signals (same excited output
  signals).  CSC is the paper's architecture-independent implementability
  condition (Section 2.1): an STG satisfying the general correctness
  criteria plus CSC can be implemented as a speed-independent circuit.
* **Output persistency / semi-modularity**: an excited output signal can only
  be disabled by its own firing, never by another signal change.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .. import kernel
from .stategraph import StateGraph

__all__ = [
    "CSCReport",
    "check_usc",
    "check_csc",
    "check_output_persistency",
    "PersistencyViolation",
]


class CSCReport:
    """Result of a USC/CSC check."""

    def __init__(
        self,
        satisfied: bool,
        conflicts: List[Tuple[int, int]],
        kind: str,
    ) -> None:
        self.satisfied = satisfied
        self.conflicts = conflicts
        self.kind = kind

    def __bool__(self) -> bool:
        return self.satisfied

    @property
    def num_conflicts(self) -> int:
        return len(self.conflicts)

    def __repr__(self) -> str:
        return "CSCReport(kind=%s, satisfied=%s, conflicts=%d)" % (
            self.kind,
            self.satisfied,
            self.num_conflicts,
        )


def _as_space_report(graph, kind: str):
    """Dispatch to the state-space protocol when given a StateSpace.

    ``check_usc`` / ``check_csc`` accept either a concrete
    :class:`StateGraph` (returning the historical pair-level
    :class:`CSCReport`) or any :class:`repro.spaces.StateSpace` (returning
    its engine-independent :class:`~repro.spaces.CodingReport`, which
    exposes the same ``satisfied`` / ``num_conflicts`` surface).  The
    import is lazy because :mod:`repro.spaces` builds on this module.
    """
    from ..spaces.base import StateSpace

    if isinstance(graph, StateSpace):
        return graph.check_usc() if kind == "USC" else graph.check_csc()
    return None


def _kernel_arrays(graph):
    """uint64 graph vectors when numpy is installed, else ``None``."""
    if not kernel.HAS_NUMPY:
        return None
    from ..kernel.bitset import graph_arrays

    return graph_arrays(graph)


def check_usc(graph: StateGraph) -> CSCReport:
    """Check Unique State Coding: every reachable marking has a unique code.

    Conflict pairs are reported sorted (``(low, high)`` per pair, pairs in
    lexicographic order) so reports are deterministic and directly
    comparable across state-graph engines.  Accepts a
    :class:`~repro.spaces.StateSpace` as well (see :func:`_as_space_report`).
    With numpy installed the bitset kernel sorts the code vector once
    instead of bucketing states through a dict, emitting the identical
    conflict list.
    """
    report = _as_space_report(graph, "USC")
    if report is not None:
        return report
    arrays = _kernel_arrays(graph)
    if arrays is not None:
        from ..kernel.bitset import coding_conflict_pairs

        conflicts = coding_conflict_pairs(arrays[0])
        return CSCReport(not conflicts, conflicts, "USC")
    by_code: Dict[int, List[int]] = {}
    for state, code in enumerate(graph.packed_codes):
        by_code.setdefault(code, []).append(state)
    conflicts = []
    for states in by_code.values():
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                conflicts.append((states[i], states[j]))
    conflicts.sort()
    return CSCReport(not conflicts, conflicts, "USC")


def check_csc(graph: StateGraph) -> CSCReport:
    """Check Complete State Coding.

    Two states with equal binary codes must have the same set of excited
    *non-input* signals; otherwise the circuit cannot distinguish them and
    the STG is not implementable without additional state signals.

    States are bucketed by packed code, and the excitation signature of a
    state is its ``(excited_plus | excited_minus)`` bitmask restricted to
    implementable signals -- an int comparison instead of set algebra.
    Conflict pairs are reported sorted, like :func:`check_usc`; a
    :class:`~repro.spaces.StateSpace` argument is dispatched to the
    protocol, and with numpy installed the sweep runs over sorted runs
    of the code vector the same way.
    """
    report = _as_space_report(graph, "CSC")
    if report is not None:
        return report
    implementable_mask = graph.signal_table.mask_of(graph.stg.implementable_signals)
    arrays = _kernel_arrays(graph)
    if arrays is not None:
        from ..kernel.bitset import coding_conflict_pairs, packed_mask

        codes, excited_plus, excited_minus = arrays
        mask = packed_mask(implementable_mask, codes.shape[1])
        signatures = (excited_plus | excited_minus) & mask
        conflicts = coding_conflict_pairs(codes, signatures)
        return CSCReport(not conflicts, conflicts, "CSC")
    by_code: Dict[int, List[int]] = {}
    for state, code in enumerate(graph.packed_codes):
        by_code.setdefault(code, []).append(state)

    plus = graph._excited_plus
    minus = graph._excited_minus
    conflicts = []
    for states in by_code.values():
        if len(states) < 2:
            continue
        signatures = [
            (plus[state] | minus[state]) & implementable_mask for state in states
        ]
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                if signatures[i] != signatures[j]:
                    conflicts.append((states[i], states[j]))
    conflicts.sort()
    return CSCReport(not conflicts, conflicts, "CSC")


class PersistencyViolation:
    """An output transition disabled by another signal's firing."""

    def __init__(self, state: int, disabled: str, by: str) -> None:
        self.state = state
        self.disabled = disabled
        self.by = by

    def __repr__(self) -> str:
        return "PersistencyViolation(state=%d, %r disabled by %r)" % (
            self.state,
            self.disabled,
            self.by,
        )


def check_output_persistency(graph: StateGraph) -> List[PersistencyViolation]:
    """Check semi-modularity (output-signal persistency) on the State Graph.

    For every state and every enabled transition of an implementable signal,
    firing any *other* enabled transition must leave the output transition
    enabled (unless both transitions belong to the same signal).
    """
    stg = graph.stg
    implementable = set(stg.implementable_signals)
    violations: List[PersistencyViolation] = []
    for state in range(graph.num_states):
        successors = graph.successors(state)
        for output_transition, _target in successors:
            output_label = stg.label_of(output_transition)
            if output_label is None or output_label.signal not in implementable:
                continue
            for other_transition, other_target in successors:
                if other_transition == output_transition:
                    continue
                other_label = stg.label_of(other_transition)
                if other_label is not None and other_label.signal == output_label.signal:
                    continue
                still_enabled = any(
                    stg.label_of(t) is not None
                    and stg.label_of(t).signal == output_label.signal
                    and stg.label_of(t).direction is output_label.direction
                    for t, _ in graph.successors(other_target)
                )
                if not still_enabled:
                    violations.append(
                        PersistencyViolation(state, output_transition, other_transition)
                    )
    return violations
