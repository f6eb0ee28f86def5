"""Experiment harnesses regenerating the paper's evaluation.

* :func:`run_table1` -- Table 1: per-benchmark timing breakdown and literal
  counts for the unfolding-based method against the SG-based baselines.
* :func:`run_figure6` -- Figure 6: synthesis time vs number of signals on the
  scalable Muller-pipeline specification, per method, with per-method size
  cut-offs (the paper's message is that the SG-based tools blow up while the
  unfolding-based flow keeps scaling).
* :func:`run_counterflow` -- the "circled dot" of Figure 6: the 34-signal
  counterflow-pipeline specification synthesised with the unfolding method.

All functions return plain data (lists of row dictionaries) so they can be
used from the pytest-benchmark harness, the CLI and EXPERIMENTS.md alike.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs import current_tracer, span_summary, tracing
from ..sim import simulate_implementation
from ..stg import BenchmarkEntry, counterflow_pipeline, muller_pipeline, table1_suite
from ..synthesis import synthesize

__all__ = [
    "Table1Row",
    "apply_engine",
    "run_table1",
    "run_figure6",
    "run_counterflow",
    "format_table",
]

DEFAULT_METHODS = ("unfolding-approx", "sg-explicit", "sg-bdd")


def apply_engine(methods: Sequence[str], engine: Optional[str]) -> Tuple[str, ...]:
    """Retarget the SG-based methods of a method list onto one engine.

    With ``engine`` given, every ``sg-*`` method is replaced by the method
    backed by that engine (``sg-explicit`` / ``sg-bdd``) and duplicates are
    dropped, so ``--engine bdd`` turns the default method list into the
    symbolic baseline uniformly instead of requiring the method name to be
    spelled out.  ``engine=None`` leaves the list untouched.
    """
    if engine is None:
        return tuple(methods)
    target = "sg-%s" % engine
    result: List[str] = []
    for method in methods:
        method = target if method.startswith("sg-") else method
        if method not in result:
            result.append(method)
    return tuple(result)


class Table1Row(dict):
    """One row of the Table 1 reproduction (a dict with fixed keys)."""


def _run_timed(task, timeout: Optional[float]) -> Tuple[Optional[object], float, str]:
    """Run a zero-argument task under an optional wall-clock budget.

    Returns ``(value, elapsed, outcome)`` with outcome ``"ok"``,
    ``"error"`` or ``"timeout"``; ``value`` is ``None`` unless ``"ok"``.

    The budget is enforced by running the task in a daemon worker thread
    and abandoning it when the deadline passes -- the thread cannot be
    killed, so an over-budget task may keep burning CPU (and skew the
    wall-clock of later tasks in the same row) until it finishes on its
    own.  Callers therefore hand the task a private copy of any shared
    state (see :func:`_synthesize_timed`), so an abandoned thread can never
    race later work.  The batch runner (:mod:`repro.flow.batch`) wraps
    whole rows in worker *processes*, where a timeout genuinely frees the
    core.
    """
    if timeout is None:
        start = time.perf_counter()
        try:
            value = task()
        except Exception:
            return None, time.perf_counter() - start, "error"
        return value, time.perf_counter() - start, "ok"

    box: Dict[str, object] = {}

    def worker() -> None:
        try:
            box["value"] = task()
        except Exception as exc:
            box["error"] = exc

    thread = threading.Thread(target=worker, daemon=True)
    start = time.perf_counter()
    thread.start()
    thread.join(timeout)
    elapsed = time.perf_counter() - start
    if thread.is_alive():
        return None, elapsed, "timeout"
    if "error" in box:
        return None, elapsed, "error"
    return box["value"], elapsed, "ok"


def _synthesize_timed(
    stg,
    method: str,
    max_states: Optional[int],
    timeout: Optional[float],
    metrics_box: Optional[Dict[str, object]] = None,
) -> Tuple[Optional[object], float, str]:
    """Run one synthesis under an optional wall-clock budget.

    With ``metrics_box`` the synthesis runs inside an observability span and
    the box gains a ``method`` -> metrics-blob entry (see
    :func:`repro.obs.span_summary`) when a tracer is active.  The blob is
    written from whichever thread ran the task, so it survives even when the
    timeout harness abandons the worker thread after the deadline.
    """
    work_stg = stg if timeout is None else stg.copy()
    if metrics_box is None:
        task = lambda: synthesize(work_stg, method=method, max_states=max_states)
    else:

        def task():
            with current_tracer().span("method", method=method) as span:
                result = synthesize(work_stg, method=method, max_states=max_states)
            if span.live:
                metrics_box[method] = span_summary(span)
            return result

    return _run_timed(task, timeout)


def _resolve_timed(
    stg,
    max_states: Optional[int],
    timeout: Optional[float],
    metrics_box: Optional[Dict[str, object]] = None,
) -> Tuple[Optional[object], float, str]:
    """Run one CSC resolution under the same wall-clock regime as synthesis.

    The resolution is shared by every method of a Table 1 row (it is
    deterministic, so re-running it per method would only burn time).
    """
    from ..encoding import resolve_csc

    work_stg = stg if timeout is None else stg.copy()
    if metrics_box is None:
        task = lambda: resolve_csc(work_stg, max_states=max_states)
    else:

        def task():
            with current_tracer().span("method", method="csc-resolve") as span:
                result = resolve_csc(work_stg, max_states=max_states)
            if span.live:
                metrics_box["csc"] = span_summary(span)
            return result

    return _run_timed(task, timeout)


def run_table1(
    entries: Optional[Sequence[BenchmarkEntry]] = None,
    methods: Sequence[str] = DEFAULT_METHODS,
    max_states: Optional[int] = 200000,
    conformance: bool = True,
    conformance_max_states: Optional[int] = 100000,
    timeout: Optional[float] = None,
    resolve_encoding: bool = False,
    engine: Optional[str] = None,
    collect_metrics: bool = False,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> List[Table1Row]:
    """Reproduce Table 1 on the benchmark suite.

    Each row reports the paper's columns for the unfolding method (UnfTim /
    SynTim / EspTim / TotTim and literal count) plus the total times and
    literal counts of the requested baseline methods.  With ``conformance``
    (the default) one synthesised implementation per row is additionally
    *executed* by the event-driven simulator and the row gains a ``Conf``
    column -- the closed-loop verdict (``ok`` / ``hazard`` /
    ``non-conformant`` / ...) -- plus ``Conf_method`` naming the method
    whose implementation was executed: ``unfolding-approx`` when present in
    ``methods`` (it supplies the headline UnfTim/LitCnt columns), otherwise
    the first method that produced a CSC-conflict-free circuit.

    ``timeout`` is a per-method wall-clock budget in seconds; a method that
    exceeds it is recorded with outcome ``"timeout"`` (distinct from
    ``"error"``) in the row's ``<method>_outcome`` column and ``None``
    totals.

    With ``resolve_encoding`` each row first runs one shared CSC resolution
    pass (:func:`repro.encoding.resolve_csc`; it is deterministic, so it is
    not repeated per method) and every method -- plus the conformance
    simulation -- works on the rewritten specification.  The row reports
    ``csc_signals_added`` (internal signals inserted, 0 for CSC-clean
    specifications), ``csc_resolved`` (whether the synthesised circuit is
    conflict-free) and ``csc_outcome`` (``ok``/``error``/``timeout`` of the
    resolution pass, which counts towards the row's aggregate outcome).
    Without it the columns are still present: ``csc_signals_added`` is 0 and
    ``csc_resolved`` reports whether the specification needed no encoding
    work.

    ``engine`` retargets the SG-based methods onto one state-space backend
    (see :func:`apply_engine`); every row reports the backend in its
    ``engine`` column, plus a per-method ``<method>_engine`` column for the
    SG methods.

    With ``collect_metrics`` every row gains ``<method>_metrics`` blobs
    (elapsed / peak RSS / subtree counters / per-phase times, see
    :func:`repro.obs.span_summary`) plus ``csc_metrics`` and
    ``conformance_metrics``; a local tracer is activated for the duration
    of the run when none is already installed (e.g. via ``--trace``).
    ``progress`` is called with the row dict after every completed method
    and again once the row is final -- the batch runner uses it to persist
    partial rows across worker-process deadlines.
    """
    if entries is None:
        entries = table1_suite()
    methods = apply_engine(methods, engine)
    own_tracer = (
        tracing("table1")
        if collect_metrics and not current_tracer().enabled
        else contextlib.nullcontext()
    )
    # The row-level engine column reflects the backends the SG methods of
    # this run actually use (e.g. "bdd/explicit" when both baselines run),
    # never a default that could contradict the per-method columns.
    sg_engines = sorted(
        {"bdd" if m == "sg-bdd" else "explicit" for m in methods if m.startswith("sg-")}
    )
    row_engine = engine or ("/".join(sg_engines) if sg_engines else None)
    rows: List[Table1Row] = []
    with own_tracer:
        obs = current_tracer()
        boxes = collect_metrics and obs.enabled
        for row_index, entry in enumerate(entries):
            # Suite-level completion for the live view (deterministic:
            # row index over suite size, recorded on the enclosing span).
            obs.current.progress(row_index, len(entries))
            with obs.span("table1_row", benchmark=entry.name):
                stg = entry.build()
                row = Table1Row(
                    benchmark=entry.name,
                    signals=stg.num_signals,
                    synthetic=entry.synthetic,
                    paper_literals=entry.paper_literals,
                    paper_total_time=entry.paper_total_time,
                )
                if row_engine is not None:
                    row["engine"] = row_engine
                metrics_box: Optional[Dict[str, object]] = {} if boxes else None
                # One shared resolution pass per row: the pass is
                # deterministic, so every method synthesises the same
                # rewritten specification (and the conformance simulation
                # runs against it too).
                encoding = None
                method_stg = stg
                if resolve_encoding:
                    encoding, _elapsed, resolve_outcome = _resolve_timed(
                        stg, max_states, timeout, metrics_box
                    )
                    row["csc_outcome"] = resolve_outcome
                    if metrics_box is not None and "csc" in metrics_box:
                        row["csc_metrics"] = metrics_box["csc"]
                    if encoding is not None and encoding.inserted:
                        method_stg = encoding.stg
                row["csc_signals_added"] = (
                    encoding.num_inserted if encoding is not None else 0
                )

                simulated: Optional[object] = None
                simulated_method: Optional[str] = None
                for method in methods:
                    result, elapsed, outcome = _synthesize_timed(
                        method_stg, method, max_states, timeout, metrics_box
                    )
                    prefix = method
                    row["%s_outcome" % prefix] = outcome
                    if metrics_box is not None and method in metrics_box:
                        row["%s_metrics" % prefix] = metrics_box[method]
                    if result is None:
                        row["%s_total" % prefix] = None
                        row["%s_literals" % prefix] = None
                        if progress is not None:
                            progress(row)
                        continue
                    if not result.implementation.has_csc_conflict and (
                        simulated is None or method == "unfolding-approx"
                    ):
                        simulated = result.implementation
                        simulated_method = method
                        row["csc_resolved"] = result.csc_resolved
                    if "csc_resolved" not in row:
                        row["csc_resolved"] = result.csc_resolved
                    if method == "unfolding-approx":
                        row["UnfTim"] = round(result.unfold_time, 4)
                        row["SynTim"] = round(result.cover_time, 4)
                        row["EspTim"] = round(result.minimize_time, 4)
                        row["TotTim"] = round(result.total_time, 4)
                        row["LitCnt"] = result.literal_count
                    row["%s_total" % prefix] = round(result.total_time, 4)
                    row["%s_literals" % prefix] = result.literal_count
                    if result.engine is not None:
                        row["%s_engine" % prefix] = result.engine
                    if progress is not None:
                        progress(row)
                if "csc_resolved" not in row:
                    # Every method failed: fall back to the resolution verdict.
                    row["csc_resolved"] = (
                        encoding.resolved if encoding is not None else False
                    )
                if conformance:
                    if simulated is None:
                        row["Conf"] = None
                    else:
                        row["Conf_method"] = simulated_method
                        with obs.span("conformance_check") as conf_span:
                            try:
                                exploration = simulate_implementation(
                                    method_stg,
                                    simulated,
                                    max_states=conformance_max_states,
                                )
                                row["Conf"] = exploration.verdict()
                                row["sim_states"] = exploration.num_states
                            except Exception as exc:
                                row["Conf"] = "error"
                                row["Conf_error"] = "%s: %s" % (
                                    type(exc).__name__,
                                    exc,
                                )
                        if boxes and conf_span.live:
                            row["conformance_metrics"] = span_summary(conf_span)
            rows.append(row)
            if progress is not None:
                progress(row)
        obs.current.progress(len(entries), len(entries))
    return rows


def run_figure6(
    stage_counts: Sequence[int] = (2, 4, 6, 8, 10, 12, 16, 20, 24),
    methods: Sequence[str] = DEFAULT_METHODS,
    method_limits: Optional[Dict[str, int]] = None,
    max_states: Optional[int] = None,
    timeout: Optional[float] = None,
    engine: Optional[str] = None,
    collect_metrics: bool = False,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> List[Dict[str, object]]:
    """Reproduce the Figure 6 scaling experiment on the Muller pipeline.

    ``method_limits`` maps a method name to the largest number of *signals*
    it is attempted on (mirroring how the paper reports SIS and Petrify
    dropping out as the specification grows); beyond the limit the method's
    entry is ``None``.  ``max_states`` bounds the reachable states of the
    SG methods (none by default: the signal limits keep the explicit engine
    small, and the symbolic one counts far more states than it builds
    nodes).  ``timeout`` is a per-method wall-clock budget, and ``engine``
    retargets the SG methods onto one backend; see :func:`run_table1`.
    The genuinely symbolic ``sg-bdd`` engine scales past the explicit
    cut-off, hence its higher default limit: the default sweep runs it, and
    the paper's flow, up to 24 stages.
    """
    if method_limits is None:
        method_limits = {"sg-explicit": 12, "sg-bdd": 26, "unfolding-exact": 14}
    methods = apply_engine(methods, engine)
    own_tracer = (
        tracing("figure6")
        if collect_metrics and not current_tracer().enabled
        else contextlib.nullcontext()
    )
    rows: List[Dict[str, object]] = []
    with own_tracer:
        obs = current_tracer()
        boxes = collect_metrics and obs.enabled
        for row_index, stages in enumerate(stage_counts):
            obs.current.progress(row_index, len(stage_counts))
            stg = muller_pipeline(stages)
            row: Dict[str, object] = {"stages": stages, "signals": stg.num_signals}
            metrics_box: Optional[Dict[str, object]] = {} if boxes else None
            with obs.span("figure6_row", stages=stages):
                for method in methods:
                    limit = method_limits.get(method)
                    if limit is not None and stg.num_signals > limit:
                        row[method] = None
                        row["%s_outcome" % method] = "skipped"
                        continue
                    result, elapsed, outcome = _synthesize_timed(
                        stg, method, max_states, timeout, metrics_box
                    )
                    row[method] = round(elapsed, 4) if result is not None else None
                    row["%s_outcome" % method] = outcome
                    if metrics_box is not None and method in metrics_box:
                        row["%s_metrics" % method] = metrics_box[method]
                    if result is not None:
                        row["%s_literals" % method] = result.literal_count
                    if progress is not None:
                        progress(row)
            rows.append(row)
            if progress is not None:
                progress(row)
        obs.current.progress(len(stage_counts), len(stage_counts))
    return rows


def run_counterflow(
    stages_per_direction: int = 15,
    method: str = "unfolding-approx",
) -> Dict[str, object]:
    """Synthesise the counterflow-pipeline stand-in (34 signals by default)."""
    stg = counterflow_pipeline(stages_per_direction)
    result, elapsed, _outcome = _synthesize_timed(stg, method, None, None)
    return {
        "signals": stg.num_signals,
        "method": method,
        "time": round(elapsed, 4) if result is not None else None,
        "literals": result.literal_count if result is not None else None,
        "segment_events": result.num_states if result is not None else None,
    }


def format_table(rows: Iterable[Dict[str, object]], columns: Sequence[str]) -> str:
    """Render rows as a fixed-width text table (used by the CLI and benches)."""
    rows = list(rows)
    widths = {c: len(c) for c in columns}
    for row in rows:
        for column in columns:
            widths[column] = max(widths[column], len(str(row.get(column, ""))))
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)
