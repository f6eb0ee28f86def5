"""Top-level CSC resolution loop.

``resolve_csc`` drives the whole encoding subsystem: detect conflict cores
on the packed State Graph, enumerate legal insertion regions, greedily
insert one fresh internal signal per round and update the (packed) State
Graph -- incrementally, re-exploring only the dirty region the splice
perturbs (:func:`~repro.stategraph.extend_state_graph`), with a cold
rebuild as the automatic fallback -- until Complete State Coding holds or
the signal budget is exhausted.

Every accepted insertion is *validated on the rebuilt graph*: the rewritten
STG must stay consistent (the new signal alternates), must not add output
persistency violations, and must strictly reduce the number of conflicting
state pairs -- candidates failing any check are discarded and the next best
one is tried, so a returned resolution is correct by construction, not by
heuristic.  A final projection check (:func:`projection_conforms`) asserts
the original interface behaviour is untouched with the inserted signals
hidden.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional

from ..obs import current_tracer
from ..stategraph import (
    InconsistentSTGError,
    StateGraph,
    build_state_graph,
    check_csc,
    check_output_persistency,
    extend_state_graph,
)
from ..stg import STG
from .conflicts import conflict_cores, num_conflict_pairs
from .conformance import ProjectionReport, projection_conforms
from .insertion import (
    choose_insertion,
    fresh_signal_name,
    make_insertion_edit,
)
from .regions import candidate_regions

__all__ = ["EncodingResult", "resolve_csc"]

# Per-round cap on validated candidates: validation rebuilds the State
# Graph, so only the best-ranked regions are worth the rebuild.
MAX_VALIDATIONS_PER_ROUND = 16


class EncodingResult:
    """Outcome of a :func:`resolve_csc` run.

    Attributes
    ----------
    original_stg / stg:
        The input specification and the rewritten one (identical objects
        when nothing was inserted).
    graph:
        State Graph of ``stg`` (final round).
    inserted:
        Names of the inserted internal signals, in insertion order.
    resolved:
        True when the final graph satisfies CSC and the projection check
        (when it ran) found the original interface behaviour intact.
    conflicts_before / conflicts_after:
        Number of conflicting state pairs at entry and exit.
    projection:
        Report of the hidden-signal conformance check (``None`` when nothing
        was inserted).
    elapsed:
        Wall-clock seconds spent resolving.
    rounds_incremental:
        How many accepted rounds extended the graph in place instead of
        rebuilding it (0 when the fast path never applied).
    states_reexplored:
        Per accepted incremental round, the number of dirty states the
        extension actually re-explored (``None`` when no round was
        incremental).
    """

    def __init__(
        self,
        original_stg: STG,
        stg: STG,
        graph: StateGraph,
        inserted: List[str],
        resolved: bool,
        conflicts_before: int,
        conflicts_after: int,
        projection: Optional[ProjectionReport],
        elapsed: float,
        rounds_incremental: int = 0,
        states_reexplored: Optional[List[int]] = None,
    ) -> None:
        self.original_stg = original_stg
        self.stg = stg
        self.graph = graph
        self.inserted = inserted
        self.resolved = resolved
        self.conflicts_before = conflicts_before
        self.conflicts_after = conflicts_after
        self.projection = projection
        self.elapsed = elapsed
        self.rounds_incremental = rounds_incremental
        self.states_reexplored = states_reexplored

    @property
    def num_inserted(self) -> int:
        return len(self.inserted)

    def __bool__(self) -> bool:
        return self.resolved

    def __repr__(self) -> str:
        return (
            "EncodingResult(%r, inserted=%s, conflicts=%d->%d, resolved=%s)"
            % (
                self.stg.name,
                self.inserted,
                self.conflicts_before,
                self.conflicts_after,
                self.resolved,
            )
        )


def resolve_csc(
    stg: STG,
    graph: Optional[StateGraph] = None,
    *,
    max_signals: int = 3,
    seed: int = 0,
    max_states: Optional[int] = None,
) -> EncodingResult:
    """Resolve the CSC conflicts of an STG by inserting internal signals.

    Parameters
    ----------
    stg:
        The specification; it is never mutated -- the result carries a
        rewritten copy when signals were inserted.
    graph:
        Optional prebuilt State Graph of ``stg`` (rebuilt otherwise).
    max_signals:
        Insertion budget; the loop stops early once CSC holds.
    seed:
        Seed for tie-shuffling among equally-scored candidate regions;
        runs with the same seed are fully deterministic.
    max_states:
        Optional state budget for the State Graph rebuilds.

    Every accepted insertion must not add output persistency violations,
    and the final result is checked for projection conformance against the
    original specification.

    Each validated candidate extends the current graph in place via
    :func:`~repro.stategraph.extend_state_graph`, re-exploring only the
    dirty region around the splice; when that fast path does not apply the
    candidate's graph is rebuilt cold from the initial state.  The accepted
    resolution is the same either way (the equivalence suite checks this
    per round); only the cost differs.
    """
    with current_tracer().span("csc", stage="resolve", stg=stg.name) as span:
        return _resolve_csc(stg, graph, max_signals, seed, max_states, span)


def _resolve_csc(
    stg: STG,
    graph: Optional[StateGraph],
    max_signals: int,
    seed: int,
    max_states: Optional[int],
    span,
) -> EncodingResult:
    start = time.perf_counter()
    if graph is None:
        graph = build_state_graph(stg, max_states=max_states)
    original_stg = stg
    rng = random.Random(seed)

    cores = conflict_cores(graph)
    conflicts_before = num_conflict_pairs(cores)
    baseline_violations = len(check_output_persistency(graph)) if cores else 0
    inserted: List[str] = []
    rounds_incremental = 0
    reexplored_rounds: List[int] = []

    while cores and len(inserted) < max_signals:
        span.counter("rounds")
        regions = candidate_regions(graph)
        ranked = choose_insertion(graph, cores, regions, rng)
        current_pairs = num_conflict_pairs(cores)
        signal = fresh_signal_name(stg)
        # Measure the top-ranked regions on their resulting graph and keep
        # the one that leaves the fewest conflicting pairs: the static gain
        # ignores both the intermediate states an insertion adds and the
        # conflicts the new signal's own excitation can create.  The
        # measuring graph is grown from the current one (dirty-region
        # re-exploration), or rebuilt cold when that does not apply.
        best = None  # (pairs_after, stg, graph, cores, reexplored)
        for _gain, region in ranked[:MAX_VALIDATIONS_PER_ROUND]:
            span.counter("candidates_validated")
            edit = make_insertion_edit(stg, region, signal)
            candidate_stg = edit.stg
            reexplored = None
            try:
                candidate_graph = extend_state_graph(graph, edit, max_states=max_states)
                if candidate_graph is None:
                    candidate_graph = build_state_graph(candidate_stg, max_states=max_states)
                else:
                    reexplored = candidate_graph.incremental_stats[
                        "states_reexplored"
                    ]
            except InconsistentSTGError:
                continue  # phase labelling was coincidental, not causal
            candidate_cores = conflict_cores(candidate_graph)
            pairs_after = num_conflict_pairs(candidate_cores)
            if pairs_after >= current_pairs:
                continue
            violations = check_output_persistency(candidate_graph)
            if len(violations) > baseline_violations:
                continue
            if best is None or pairs_after < best[0]:
                best = (
                    pairs_after,
                    candidate_stg,
                    candidate_graph,
                    candidate_cores,
                    reexplored,
                )
                if pairs_after == 0:
                    break
        if best is None:
            break
        _pairs, stg, graph, cores, reexplored = best
        inserted.append(signal)
        if reexplored is not None:
            rounds_incremental += 1
            reexplored_rounds.append(reexplored)
            span.counter("rounds_incremental")
            if span.live:
                span.append("states_reexplored", reexplored)

    report = check_csc(graph)
    projection: Optional[ProjectionReport] = None
    if inserted:
        projection = projection_conforms(
            original_stg, stg, inserted, resolved_graph=graph
        )
    if span.live:
        span.gauge("signals_inserted", len(inserted))
        span.gauge("conflicts_before", conflicts_before)
        span.gauge("conflicts_after", num_conflict_pairs(cores))
        span.gauge("rounds_incremental", rounds_incremental)
        span.gauge("resolved", report.satisfied and (projection is None or projection.ok))
    return EncodingResult(
        original_stg=original_stg,
        stg=stg,
        graph=graph,
        inserted=inserted,
        # A rewrite that fails the projection check changed the visible
        # interface behaviour: it must not count as a resolution.
        resolved=report.satisfied and (projection is None or projection.ok),
        conflicts_before=conflicts_before,
        conflicts_after=num_conflict_pairs(cores),
        projection=projection,
        elapsed=time.perf_counter() - start,
        rounds_incremental=rounds_incremental,
        states_reexplored=reexplored_rounds or None,
    )
