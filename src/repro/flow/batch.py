"""Process-parallel experiment batch runner.

With the packed state core a single Table 1 row is cheap, so the wall-clock
cost of a full sweep is dominated by how many rows run *at once*.  This
module fans experiment rows out over a :class:`~concurrent.futures.ProcessPoolExecutor`
-- one worker process per row -- and merges the results back in submission
order, so ``repro-synth batch --jobs N`` produces exactly the rows of the
serial harness, N rows at a time.

Timeouts act at two levels:

* inside each worker, :func:`~repro.flow.experiments.run_table1` enforces
  the per-method budget cooperatively and records ``"timeout"`` outcomes;
* the parent additionally bounds its total wait (scaled so every method of
  every row can exhaust its cooperative budget first); a row that blows
  even that is merged as ``{"outcome": "timeout"}`` and the pool's worker
  processes are terminated, so a hung worker can never wedge the batch.

Every merged row carries an ``outcome`` key (``"ok"`` / ``"error"`` /
``"timeout"``), the aggregate of its per-method outcomes, which is what the
CI smoke gate checks.

Round-2 observability adds a heartbeat/stall watchdog on top of the same
side channel: workers piggyback a periodic beat file (pid + wall time)
next to their partial-row snapshot and register a ``faulthandler`` stack
dump on ``SIGUSR1``; the parent polls instead of blocking, emits
``heartbeat`` events into an attached :mod:`repro.obs.events` stream,
and when a worker shows no *progress evidence* (a partial-row write) for
``STALL_AFTER_SECONDS`` it captures the worker's live stack over SIGUSR1
and records a ``stalled`` diagnosis -- so a row that later blows the
parent deadline is merged with the stack that explains *why*, not a bare
``timeout``.
"""

from __future__ import annotations

import json
import os
import signal
import shutil
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Dict, List, Optional, Sequence

from ..obs import current_tracer, set_tracer
from ..stg import benchmark_by_name, table1_suite
from .experiments import DEFAULT_METHODS, run_figure6, run_table1

__all__ = [
    "run_table1_batch",
    "run_figure6_batch",
    "row_outcome",
    "write_batch_json",
]

#: Parent-side slack added to every per-row budget, covering the
#: conformance simulation and result transport (module-level so the test
#: suite can shrink it when exercising the hung-worker path).
PARENT_SLACK_SECONDS = 60.0

#: Seconds between worker heartbeat-file updates (and between the
#: parent's per-row heartbeat events).
HEARTBEAT_INTERVAL = 1.0

#: A worker with no progress evidence (no partial-row write) for this
#: long is diagnosed as stalled and has its stack captured.  Deliberately
#: generous: a legitimately slow method writes nothing mid-flight, so the
#: default sits above any single cooperative method budget CI uses.
STALL_AFTER_SECONDS = 150.0

#: Parent-side poll granularity while waiting on a row future.
_POLL_SECONDS = 0.25

#: SIGUSR1-based stack capture needs a POSIX signal set; on platforms
#: without it the watchdog still diagnoses stalls, just without a stack.
_HAS_SIGUSR1 = hasattr(signal, "SIGUSR1")


def row_outcome(row: Dict[str, object]) -> str:
    """Aggregate per-method outcomes of a row into one verdict.

    ``"error"`` dominates ``"timeout"`` dominates ``"ok"``; methods that
    were skipped by a size limit do not count against the row.  A failed
    conformance simulation (``Conf == "error"``) also marks the row.
    """
    outcomes = {
        value
        for key, value in row.items()
        if key == "outcome" or key.endswith("_outcome")
    }
    if row.get("Conf") == "error":
        outcomes.add("error")
    for verdict in ("error", "timeout"):
        if verdict in outcomes:
            return verdict
    return "ok"


def _partial_writer(path: Optional[str]) -> Optional[Callable[[Dict[str, object]], None]]:
    """Progress callback persisting row snapshots for the timeout backstop.

    Each call atomically replaces ``path`` with the row's current state
    (write to a sibling temp file, then ``os.replace``), so the parent can
    recover whatever per-method timings/metrics a deadline-blown worker had
    already collected -- a torn half-written file is impossible.
    """
    if path is None:
        return None

    def write(row: Dict[str, object]) -> None:
        tmp = path + ".tmp"
        try:
            with open(tmp, "w") as handle:
                json.dump(dict(row), handle)
            os.replace(tmp, path)
        except OSError:
            pass  # progress persistence is best-effort

    return write


def _read_partial(path: Optional[str]) -> Dict[str, object]:
    """Last persisted snapshot of a row, or an empty dict."""
    if path is None:
        return {}
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


class _WorkerObservability:
    """Worker-process half of the stall watchdog.

    Inside the worker this context manager (a) starts a daemon heartbeat
    thread that rewrites a small beat file (pid + wall time) every
    :data:`HEARTBEAT_INTERVAL`, and (b) registers a ``faulthandler``
    dump-on-``SIGUSR1`` into a per-task stack file, so the parent can
    capture the worker's live stack without cooperation from the (possibly
    wedged) compute thread.  Both halves are best-effort and platform
    gated; a worker without them just degrades to today's bare timeout.
    """

    def __init__(self, args: Dict[str, object]) -> None:
        self.beat_path = args.get("beat_path")
        self.stack_path = args.get("stack_path")
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._stack_handle = None

    def __enter__(self) -> "_WorkerObservability":
        if self.stack_path is not None and _HAS_SIGUSR1:
            try:
                import faulthandler

                self._stack_handle = open(self.stack_path, "w")
                faulthandler.register(
                    signal.SIGUSR1, file=self._stack_handle, all_threads=True
                )
            except (ImportError, OSError, ValueError, AttributeError):
                self._stack_handle = None
        if self.beat_path is not None:
            self._write_beat(0)
            self._thread = threading.Thread(
                target=self._beat_loop, name="repro-heartbeat", daemon=True
            )
            self._thread.start()
        return self

    def _beat_loop(self) -> None:
        beats = 0
        while not self._stop.wait(HEARTBEAT_INTERVAL):
            beats += 1
            self._write_beat(beats)

    def _write_beat(self, beats: int) -> None:
        tmp = self.beat_path + ".tmp"
        try:
            with open(tmp, "w") as handle:
                json.dump(
                    {"pid": os.getpid(), "time": time.time(), "beats": beats},
                    handle,
                )
            os.replace(tmp, self.beat_path)
        except OSError:
            pass  # heartbeats are best-effort, like the partial snapshots

    def __exit__(self, *exc: object) -> bool:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=HEARTBEAT_INTERVAL)
        if self._stack_handle is not None:
            try:
                import faulthandler

                faulthandler.unregister(signal.SIGUSR1)
            except (ImportError, ValueError, AttributeError):
                pass
            self._stack_handle.close()
        return False


def _table1_row_task(args: Dict[str, object]) -> Dict[str, object]:
    """Worker: one Table 1 row, addressed by benchmark name (picklable)."""
    # Forked workers inherit the parent's process-wide tracer -- including
    # any attached event stream and its open file descriptors.  Reset to
    # the no-op default: workers report through partial-row snapshots and
    # beat files, never by writing into the parent's sinks.
    set_tracer(None)
    entry = benchmark_by_name(args["name"])
    with _WorkerObservability(args):
        rows = run_table1(
            entries=[entry],
            methods=tuple(args["methods"]),
            max_states=args["max_states"],
            conformance=args["conformance"],
            conformance_max_states=args["conformance_max_states"],
            timeout=args["timeout"],
            resolve_encoding=args.get("resolve_encoding", False),
            engine=args.get("engine"),
            collect_metrics=args.get("collect_metrics", False),
            progress=_partial_writer(args.get("partial_path")),
        )
    return dict(rows[0])


def _figure6_row_task(args: Dict[str, object]) -> Dict[str, object]:
    """Worker: one Figure 6 row, addressed by stage count."""
    set_tracer(None)  # see _table1_row_task: drop any fork-inherited tracer
    with _WorkerObservability(args):
        rows = run_figure6(
            stage_counts=(args["stages"],),
            methods=tuple(args["methods"]),
            method_limits=args["method_limits"],
            max_states=args["max_states"],
            timeout=args["timeout"],
            collect_metrics=args.get("collect_metrics", False),
            progress=_partial_writer(args.get("partial_path")),
        )
    return dict(rows[0])


class _StallWatchdog:
    """Parent-process half: heartbeat aggregation + stall diagnosis.

    Progress *evidence* for a row is the mtime of its partial-row
    snapshot (a worker that is advancing finishes methods and writes
    snapshots); the beat file proves the process is alive and names its
    pid.  A live process with stale evidence is exactly the failure mode
    today's bare ``timeout`` hides -- wedged in one uncooperative call --
    so after ``stall_after`` seconds of silence the watchdog sends the
    worker ``SIGUSR1`` and collects the ``faulthandler`` dump as a
    ``stalled`` diagnosis.  Fresh evidence clears a pending diagnosis (a
    straggler that recovers is not stalled).
    """

    def __init__(
        self,
        task_args: Sequence[Dict[str, object]],
        labels: Sequence[str],
        stall_after: float,
        emitter=None,
    ) -> None:
        self.task_args = task_args
        self.labels = labels
        self.stall_after = stall_after
        self.emitter = emitter
        self.stalls: Dict[int, Dict[str, object]] = {}
        self._first_seen: Dict[int, float] = {}
        self._last_beat_event: Dict[int, float] = {}

    def _read_beat(self, index: int) -> Dict[str, object]:
        path = self.task_args[index].get("beat_path")
        if path is None:
            return {}
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return {}
        return payload if isinstance(payload, dict) else {}

    def _evidence(self, index: int, now: float) -> Optional[float]:
        """Newest progress timestamp for a row, or None if not started."""
        beat = self._read_beat(index)
        if not beat:
            return None  # worker not started (queued) -- no stall clock yet
        if index not in self._first_seen:
            self._first_seen[index] = now
        evidence = self._first_seen[index]
        partial = self.task_args[index].get("partial_path")
        if partial is not None:
            try:
                mtime = os.stat(partial).st_mtime
            except OSError:
                mtime = None
            if mtime is not None:
                # File mtimes and time.time() share a clock.
                age = time.time() - mtime
                evidence = max(evidence, now - max(0.0, age))
        return evidence

    def poll(self, pending: Sequence[int]) -> None:
        """One watchdog sweep over the not-yet-collected row indices."""
        now = time.monotonic()
        for index in pending:
            evidence = self._evidence(index, now)
            if evidence is None:
                continue
            silent_for = now - evidence
            beat = self._read_beat(index)
            if self.emitter is not None:
                last = self._last_beat_event.get(index)
                if last is None or now - last >= HEARTBEAT_INTERVAL:
                    self._last_beat_event[index] = now
                    self.emitter.emit(
                        "heartbeat",
                        "batch",
                        row=self.labels[index],
                        pid=beat.get("pid"),
                        beats=beat.get("beats"),
                        age=round(silent_for, 3),
                    )
            if silent_for <= self.stall_after:
                # Fresh evidence clears a previously recorded stall.
                self.stalls.pop(index, None)
            elif index not in self.stalls:
                self.stalls[index] = self._capture(index, beat, silent_for)

    def _capture(
        self, index: int, beat: Dict[str, object], silent_for: float
    ) -> Dict[str, object]:
        """Diagnose one stalled row: SIGUSR1 the worker, read its stack."""
        diagnosis: Dict[str, object] = {
            "diagnosis": "stalled",
            "silent_for": round(silent_for, 3),
            "pid": beat.get("pid"),
        }
        stack = self._dump_stack(index, beat.get("pid"))
        if stack:
            diagnosis["stack"] = stack
        if self.emitter is not None:
            self.emitter.emit(
                "stall",
                "batch",
                row=self.labels[index],
                silent_for=round(silent_for, 3),
                pid=beat.get("pid"),
            )
        return diagnosis

    def _dump_stack(self, index: int, pid: object) -> Optional[str]:
        path = self.task_args[index].get("stack_path")
        if path is None or not isinstance(pid, int) or not _HAS_SIGUSR1:
            return None
        try:
            os.kill(pid, signal.SIGUSR1)
        except (OSError, ProcessLookupError):
            return None
        # faulthandler writes the dump synchronously in the worker's signal
        # handler; give it a beat to land on disk.
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            text = self._read_stack(index)
            if text.strip():
                return text
            time.sleep(0.05)
        return None

    def _read_stack(self, index: int) -> str:
        path = self.task_args[index].get("stack_path")
        if path is None:
            return ""
        try:
            with open(path) as handle:
                return handle.read()
        except OSError:
            return ""

    def annotate_timeout(self, index: int, row: Dict[str, object]) -> None:
        """Fold a recorded stall diagnosis into a timed-out row.

        faulthandler writes a dump in many small writes, newest thread
        first, so the capture may have read only the heartbeat thread's
        frames.  The stack file is read again here, after the dump has had
        the whole wait since capture to land, and the longer text kept.
        """
        diagnosis = self.stalls.get(index)
        if diagnosis is not None:
            row["diagnosis"] = "stalled"
            row["stall_metrics"] = dict(diagnosis)
            stack = self._read_stack(index)
            if len(stack) > len(diagnosis.get("stack", "")):
                row["stall_metrics"]["stack"] = stack


def _run_batch(
    worker,
    task_args: Sequence[Dict[str, object]],
    placeholders: Sequence[Dict[str, object]],
    jobs: Optional[int],
    task_timeout: Optional[float],
    methods_per_row: int,
    stall_after: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Fan tasks out over a process pool, merging in submission order.

    The per-row parent-side budget leaves the in-worker cooperative
    timeouts room to fire for *every* method plus the conformance
    simulation, so a worker that is handling its budget correctly is never
    abandoned; the backstop only triggers for genuinely hung workers, and
    those are terminated so the parent always returns.

    While waiting, the parent polls a :class:`_StallWatchdog` over every
    outstanding row: heartbeat events flow into the tracer's attached
    event stream (if any), and workers silent past ``stall_after`` seconds
    (default :data:`STALL_AFTER_SECONDS`) get their stack captured so a
    later timeout merge carries a ``stalled`` diagnosis.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(task_args) or 1))
    if stall_after is None:
        stall_after = STALL_AFTER_SECONDS
    # Side channel for partial rows: workers persist row snapshots here, so
    # a parent-side deadline still recovers the timings/metrics collected
    # before the worker was abandoned (the future itself repays nothing).
    # Beat and stack files for the watchdog ride the same directory.
    partial_dir = tempfile.mkdtemp(prefix="repro-batch-")
    for index, args in enumerate(task_args):
        args["partial_path"] = os.path.join(partial_dir, "%d.json" % index)
        args["beat_path"] = os.path.join(partial_dir, "%d.beat" % index)
        args["stack_path"] = os.path.join(partial_dir, "%d.stack" % index)
    labels = [
        str(
            placeholder.get("benchmark")
            or placeholder.get("stages")
            or index
        )
        for index, placeholder in enumerate(placeholders)
    ]
    emitter = current_tracer().emitter
    watchdog = _StallWatchdog(task_args, labels, stall_after, emitter)
    batch_start = time.monotonic()
    rows: List[Dict[str, object]] = []
    deadline = None
    deadline_cap = None
    if task_timeout is not None:
        # Cooperative budget per row: one timeout per method, plus slack for
        # the conformance simulation and result transport.  Rows run jobs at
        # a time, so the whole batch must finish within `waves` such budgets.
        # Hung workers may extend the deadline (see below), but never past
        # one extra per-row budget per row, keeping the worst-case wall
        # clock linear in the batch size even when every slot is wedged.
        per_row = task_timeout * max(1, methods_per_row) + PARENT_SLACK_SECONDS
        waves = (len(task_args) + jobs - 1) // jobs
        deadline = time.monotonic() + per_row * max(1, waves)
        deadline_cap = deadline + per_row * len(task_args)
    pool = ProcessPoolExecutor(max_workers=jobs)
    hung = False
    hang_count = 0
    try:
        futures = [pool.submit(worker, args) for args in task_args]
        for index, (future, placeholder) in enumerate(zip(futures, placeholders)):
            try:
                # Poll instead of one blocking wait: each interval the
                # watchdog sweeps every outstanding row for heartbeats and
                # stalls, then the wait resumes until the row's deadline.
                while True:
                    wait = _POLL_SECONDS
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        wait = max(0.0, min(_POLL_SECONDS, remaining))
                    try:
                        row = future.result(timeout=wait)
                        break
                    except FutureTimeoutError:
                        if (
                            deadline is not None
                            and deadline - time.monotonic() <= 0
                        ):
                            raise
                        watchdog.poll(
                            [
                                i
                                for i in range(index, len(futures))
                                if not futures[i].done()
                            ]
                        )
            except FutureTimeoutError:
                hung = True
                hang_count += 1
                # Merge whatever the worker managed to persist before it was
                # abandoned: per-method timings/metrics of completed methods
                # survive even though the row as a whole timed out.
                row = dict(placeholder)
                row.update(_read_partial(task_args[index].get("partial_path")))
                row["outcome"] = "timeout"
                watchdog.annotate_timeout(index, row)
                if emitter is not None:
                    emitter.emit(
                        "row",
                        "batch",
                        row=labels[index],
                        outcome="timeout",
                        diagnosis=row.get("diagnosis"),
                        elapsed=round(time.monotonic() - batch_start, 3),
                    )
                rows.append(row)
                if deadline is not None:
                    # The hung worker burned the shared budget and its pool
                    # slot may repay nothing; re-budget the uncollected rows
                    # over the slots assumed still productive so a hang
                    # cannot cascade into healthy rows being stamped
                    # "timeout".  At least one slot is always assumed
                    # productive -- a parent-side timeout may be a straggler
                    # that recovers and keeps pulling tasks -- and the hard
                    # cap bounds the total wait when nothing recovers.
                    healthy_slots = max(1, jobs - hang_count)
                    uncollected = len(futures) - index - 1
                    waves_left = (uncollected + healthy_slots - 1) // healthy_slots
                    deadline = max(
                        deadline,
                        min(
                            time.monotonic() + per_row * max(1, waves_left),
                            deadline_cap,
                        ),
                    )
                continue
            except Exception as exc:  # worker crashed (or was killed)
                row = dict(placeholder)
                row["outcome"] = "error"
                row["error"] = "%s: %s" % (type(exc).__name__, exc)
                if emitter is not None:
                    emitter.emit(
                        "row", "batch", row=labels[index], outcome="error",
                        elapsed=round(time.monotonic() - batch_start, 3),
                    )
                rows.append(row)
                continue
            row["outcome"] = row_outcome(row)
            if emitter is not None:
                emitter.emit(
                    "row", "batch", row=labels[index],
                    outcome=row["outcome"],
                    elapsed=round(time.monotonic() - batch_start, 3),
                )
            rows.append(row)
    finally:
        shutil.rmtree(partial_dir, ignore_errors=True)
        if hung:
            # A worker blew even the generous parent budget: waiting for it
            # (as pool shutdown normally would) could block forever, so the
            # worker processes are killed outright.
            for process in list(getattr(pool, "_processes", {}).values()):
                process.terminate()
            pool.shutdown(wait=False)
        else:
            pool.shutdown(wait=True)
    return rows


def run_table1_batch(
    names: Optional[Sequence[str]] = None,
    methods: Sequence[str] = DEFAULT_METHODS,
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_states: Optional[int] = 200000,
    conformance: bool = True,
    conformance_max_states: Optional[int] = 100000,
    resolve_encoding: bool = False,
    engine: Optional[str] = None,
    collect_metrics: bool = False,
    stall_after: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Run Table 1 rows in parallel, one benchmark per worker process.

    Returns the same merged rows as the serial :func:`run_table1` (plus the
    aggregate ``outcome`` column), in suite order; ``resolve_encoding``
    threads the CSC-resolution pass (and its ``csc_signals_added`` /
    ``csc_resolved`` columns) into every worker and ``engine`` retargets
    the SG methods onto one state-space backend in every worker.
    ``collect_metrics`` activates a per-worker tracer so every row carries
    ``<method>_metrics`` blobs (see :mod:`repro.obs`).
    """
    if names is None:
        names = [entry.name for entry in table1_suite()]
    task_args = [
        {
            "name": name,
            "methods": list(methods),
            "max_states": max_states,
            "conformance": conformance,
            "conformance_max_states": conformance_max_states,
            "timeout": task_timeout,
            "resolve_encoding": resolve_encoding,
            "engine": engine,
            "collect_metrics": collect_metrics,
        }
        for name in names
    ]
    placeholders = [{"benchmark": name} for name in names]
    return _run_batch(
        _table1_row_task, task_args, placeholders, jobs, task_timeout,
        len(methods), stall_after=stall_after,
    )


def run_figure6_batch(
    stage_counts: Sequence[int] = (2, 4, 6, 8, 10, 12),
    methods: Sequence[str] = DEFAULT_METHODS,
    method_limits: Optional[Dict[str, int]] = None,
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_states: Optional[int] = None,
    collect_metrics: bool = False,
    stall_after: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Run Figure 6 rows in parallel, one stage count per worker process
    (``method_limits`` and ``max_states`` as in :func:`run_figure6`)."""
    task_args = [
        {
            "stages": stages,
            "methods": list(methods),
            "method_limits": method_limits,
            "max_states": max_states,
            "timeout": task_timeout,
            "collect_metrics": collect_metrics,
        }
        for stages in stage_counts
    ]
    placeholders = [{"stages": stages} for stages in stage_counts]
    return _run_batch(
        _figure6_row_task, task_args, placeholders, jobs, task_timeout,
        len(methods), stall_after=stall_after,
    )


def write_batch_json(path: str, kind: str, rows: Sequence[Dict[str, object]]) -> None:
    """Write merged batch rows as a machine-readable JSON document."""
    payload = {
        "kind": kind,
        "rows": [dict(row) for row in rows],
        "outcomes": {
            "ok": sum(1 for row in rows if row.get("outcome") == "ok"),
            "timeout": sum(1 for row in rows if row.get("outcome") == "timeout"),
            "error": sum(1 for row in rows if row.get("outcome") == "error"),
        },
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
