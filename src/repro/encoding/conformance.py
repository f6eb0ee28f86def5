"""Projection conformance of a resolved STG against the original spec.

Signal insertion must not change the behaviour observable at the original
interface: hiding the inserted internal signals, every trace of the resolved
specification must be a trace of the original one.  This module checks that
*trace containment* directly with a simulation-style product walk: the
resolved State Graph generates events, the original specification tracks
them through its :class:`~repro.sim.environment.SpecEnvironment` (the same
packed marking-set game, on the same tables, that the simulator and the
random walker play), and inserted-signal transitions advance the resolved
side only -- they are invisible to the specification.

The walk is one-directional: it cannot detect an insertion that *removes*
behaviour (e.g. an input the environment is no longer offered).  That
direction is enforced by construction instead -- splicing only delays
transitions, and :func:`repro.encoding.regions.legal_splice_points` refuses
splice points that would delay an input transition.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional, Set, Tuple

from ..sim import SpecEnvironment
from ..stategraph import StateGraph, build_state_graph
from ..stg import STG

__all__ = ["ProjectionReport", "projection_conforms"]


class ProjectionReport:
    """Outcome of the hidden-signal trace-containment check."""

    def __init__(self, hidden: List[str]) -> None:
        self.hidden = hidden
        self.num_states = 0
        self.failures: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return "ProjectionReport(hidden=%s, states=%d, ok=%s)" % (
            self.hidden,
            self.num_states,
            self.ok,
        )


def projection_conforms(
    original: STG,
    resolved: STG,
    hidden: Iterable[str],
    resolved_graph: Optional[StateGraph] = None,
    max_reports: int = 10,
) -> ProjectionReport:
    """Check that the resolved STG, with ``hidden`` signals invisible,
    only produces behaviour the original specification allows.

    Walks the product of the resolved State Graph and the original
    specification's tracked marking sets breadth-first.  Every resolved edge
    labelled with a visible signal change must be accepted by the original
    spec (an empty tracked set is a violation -- for outputs this is
    non-conformance, for inputs it means the interface changed); hidden and
    dummy edges advance the resolved side only.
    """
    hidden_set = set(hidden)
    report = ProjectionReport(sorted(hidden_set))
    if resolved_graph is None:
        resolved_graph = build_state_graph(resolved)
    environment = SpecEnvironment.of(original)

    initial = (0, environment.initial_states_packed())
    seen: Set[Tuple[int, object]] = {initial}
    queue = deque([initial])
    while queue:
        state, tracked = queue.popleft()
        report.num_states += 1
        for transition, target in resolved_graph.successors(state):
            label = resolved.label_of(transition)
            if label is None or label.signal in hidden_set:
                new_tracked = tracked
            else:
                new_tracked = environment.advance_packed(
                    tracked, label.signal, label.target_value
                )
                if not new_tracked:
                    if len(report.failures) < max_reports:
                        report.failures.append(
                            "%s not allowed by %r after a trace reaching state %d"
                            % (label.label(), original.name, state)
                        )
                    continue
            successor = (target, new_tracked)
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return report
