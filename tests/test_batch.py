"""Tests for the parallel experiment batch runner and the timeout outcome."""

import json
import signal
import subprocess
import sys
import time

import pytest

import repro.flow.batch as batch_module
from repro.cli import main
from repro.flow import (
    row_outcome,
    run_figure6_batch,
    run_table1,
    run_table1_batch,
)
from repro.flow.batch import _partial_writer, _read_partial, _run_batch
from repro.stg import benchmark_by_name

NAMES = ["sendr-done", "rcv-setup", "nowick"]
METHODS = ("unfolding-approx", "sg-explicit")


def _stable(row):
    """The deterministic fields of a row (times vary run to run)."""
    keys = (
        "benchmark",
        "signals",
        "LitCnt",
        "sg-explicit_literals",
        "unfolding-approx_outcome",
        "sg-explicit_outcome",
        "Conf",
        "Conf_method",
        "sim_states",
    )
    return {key: row.get(key) for key in keys}


def test_batch_matches_serial_rows():
    serial = run_table1(
        entries=[benchmark_by_name(name) for name in NAMES], methods=METHODS
    )
    parallel = run_table1_batch(names=NAMES, methods=METHODS, jobs=2)
    assert [row["benchmark"] for row in parallel] == NAMES
    assert [_stable(row) for row in parallel] == [_stable(row) for row in serial]
    assert all(row["outcome"] == "ok" for row in parallel)


def test_batch_single_job_matches_multi_job():
    one = run_table1_batch(names=NAMES[:2], methods=METHODS, jobs=1)
    two = run_table1_batch(names=NAMES[:2], methods=METHODS, jobs=2)
    assert [_stable(row) for row in one] == [_stable(row) for row in two]


def test_batch_resolve_encoding_columns():
    rows = run_table1_batch(
        names=["vme_read", "sendr-done"],
        methods=("unfolding-approx",),
        jobs=2,
        resolve_encoding=True,
    )
    vme, clean = rows
    assert vme["outcome"] == "ok"
    assert vme["csc_signals_added"] == 1
    assert vme["csc_resolved"] is True
    assert vme["Conf"] == "ok"
    assert clean["csc_signals_added"] == 0
    assert clean["csc_resolved"] is True


def test_figure6_batch_rows():
    rows = run_figure6_batch(stage_counts=(1, 2), methods=METHODS, jobs=2)
    assert [row["stages"] for row in rows] == [1, 2]
    for row in rows:
        assert row["outcome"] == "ok"
        assert row["unfolding-approx"] is not None


def test_timeout_outcome_is_distinct_from_error():
    rows = run_table1(
        entries=[benchmark_by_name("imec-master-read.csc")],
        methods=("sg-explicit",),
        timeout=0.001,
        conformance=False,
    )
    row = rows[0]
    assert row["sg-explicit_outcome"] == "timeout"
    assert row["sg-explicit_total"] is None
    assert row_outcome(row) == "timeout"


def test_row_outcome_aggregation():
    assert row_outcome({"a_outcome": "ok", "b_outcome": "ok"}) == "ok"
    assert row_outcome({"a_outcome": "ok", "b_outcome": "timeout"}) == "timeout"
    assert row_outcome({"a_outcome": "timeout", "b_outcome": "error"}) == "error"
    assert row_outcome({"a_outcome": "ok", "Conf": "error"}) == "error"
    assert row_outcome({"a_outcome": "skipped"}) == "ok"


def test_partial_writer_roundtrip(tmp_path):
    path = str(tmp_path / "0.json")
    writer = _partial_writer(path)
    writer({"benchmark": "x", "a_total": 0.5})
    writer({"benchmark": "x", "a_total": 0.5, "b_total": 0.7})
    assert _read_partial(path) == {"benchmark": "x", "a_total": 0.5, "b_total": 0.7}


def test_read_partial_tolerates_missing_and_garbage(tmp_path):
    assert _read_partial(None) == {}
    assert _read_partial(str(tmp_path / "absent.json")) == {}
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert _read_partial(str(garbage)) == {}
    non_dict = tmp_path / "list.json"
    non_dict.write_text("[1, 2]")
    assert _read_partial(str(non_dict)) == {}
    assert _partial_writer(None) is None


def _hang_after_partial(args):
    """Worker that persists a partial row, then hangs past every budget."""
    writer = _partial_writer(args.get("partial_path"))
    writer(
        {
            "benchmark": args["name"],
            "sg-explicit_total": 1.23,
            "sg-explicit_outcome": "ok",
        }
    )
    time.sleep(60)


def test_hung_worker_merges_partial_row(monkeypatch):
    monkeypatch.setattr(batch_module, "PARENT_SLACK_SECONDS", 0.5)
    rows = _run_batch(
        _hang_after_partial,
        [{"name": "slow"}],
        [{"benchmark": "slow"}],
        jobs=1,
        task_timeout=0.05,
        methods_per_row=1,
    )
    (row,) = rows
    # The row timed out as a whole, but the per-method results the worker
    # persisted before hanging survive the merge.
    assert row["outcome"] == "timeout"
    assert row["benchmark"] == "slow"
    assert row["sg-explicit_total"] == 1.23
    assert row["sg-explicit_outcome"] == "ok"


def _hang_with_observability(args):
    """Worker with the full watchdog rig: beat file + SIGUSR1 stack dump,
    one partial-row write, then a hang past every budget."""
    with batch_module._WorkerObservability(args):
        writer = _partial_writer(args.get("partial_path"))
        writer(
            {
                "benchmark": args["name"],
                "sg-explicit_total": 1.23,
                "sg-explicit_outcome": "ok",
            }
        )
        time.sleep(60)


def test_watchdog_diagnoses_hung_worker_with_stack(monkeypatch):
    import repro.obs as obs

    monkeypatch.setattr(batch_module, "PARENT_SLACK_SECONDS", 2.0)
    events = []
    stream = obs.EventStream([obs.CallbackSink(events.append)], min_interval=0.0)
    tracer = obs.Tracer("batch")
    obs.attach_stream(tracer, stream)
    with obs.tracing(tracer=tracer):
        rows = _run_batch(
            _hang_with_observability,
            [{"name": "wedged"}],
            [{"benchmark": "wedged"}],
            jobs=1,
            task_timeout=0.05,
            methods_per_row=1,
            stall_after=0.6,
        )
    (row,) = rows
    # The partial results still merge, and the timeout now carries an
    # attributable diagnosis with the worker's captured stack.
    assert row["outcome"] == "timeout"
    assert row["sg-explicit_total"] == 1.23
    assert row["diagnosis"] == "stalled"
    blob = row["stall_metrics"]
    assert blob["diagnosis"] == "stalled"
    assert blob["silent_for"] > 0.5
    assert isinstance(blob["pid"], int)
    # faulthandler dumped the worker's live stack: the hung frame is in it.
    assert "_hang_with_observability" in blob.get("stack", "")

    kinds = [event["kind"] for event in events]
    assert "heartbeat" in kinds
    assert "stall" in kinds
    assert "row" in kinds
    beat = next(event for event in events if event["kind"] == "heartbeat")
    assert beat["row"] == "wedged"
    assert isinstance(beat["pid"], int)
    stall = next(event for event in events if event["kind"] == "stall")
    assert stall["row"] == "wedged"
    assert stall["silent_for"] > 0.5
    final = next(event for event in events if event["kind"] == "row")
    assert final["outcome"] == "timeout"
    assert final["diagnosis"] == "stalled"


def test_watchdog_fresh_evidence_clears_stall(tmp_path):
    from repro.flow.batch import _StallWatchdog

    partial = tmp_path / "0.json"
    beat = tmp_path / "0.beat"
    task_args = [
        {"partial_path": str(partial), "beat_path": str(beat),
         "stack_path": None}
    ]
    # Worker alive (beat file present, pid deliberately non-int so no
    # signal is ever sent to a real process) but silent: stall records.
    beat.write_text(json.dumps({"pid": None, "time": time.time(), "beats": 1}))
    watchdog = _StallWatchdog(task_args, ["row0"], stall_after=0.2)
    watchdog.poll([0])
    assert watchdog.stalls == {}
    time.sleep(0.3)
    watchdog.poll([0])
    assert 0 in watchdog.stalls
    assert watchdog.stalls[0]["diagnosis"] == "stalled"
    # Fresh progress evidence (a partial-row write) clears the diagnosis:
    # a straggler that recovers is not stalled.
    partial.write_text(json.dumps({"benchmark": "row0"}))
    watchdog.poll([0])
    assert watchdog.stalls == {}
    row = {"outcome": "timeout"}
    watchdog.annotate_timeout(0, row)
    assert "diagnosis" not in row


# A stand-in worker whose SIGUSR1 handler writes its dump in two halves
# 0.3 s apart, like a faulthandler dump caught between two of its writes.
_TWO_HALF_DUMPER = r"""
import signal, sys, time

def dump(signum, frame):
    with open(sys.argv[1], "a") as handle:
        handle.write("first half\n")
        handle.flush()
        time.sleep(0.3)
        handle.write("second half\n")

signal.signal(signal.SIGUSR1, dump)
print("ready", flush=True)
time.sleep(60)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGUSR1"), reason="needs SIGUSR1")
def test_timed_out_row_keeps_the_whole_stack_dump(tmp_path):
    from repro.flow.batch import _StallWatchdog

    stack = tmp_path / "0.stack"
    with subprocess.Popen(
        [sys.executable, "-c", _TWO_HALF_DUMPER, str(stack)],
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        try:
            assert child.stdout.readline().strip() == "ready"
            watchdog = _StallWatchdog(
                [{"stack_path": str(stack)}], ["row0"], stall_after=0.2
            )
            # The capture returns once the file holds text: the first half.
            watchdog.stalls[0] = watchdog._capture(0, {"pid": child.pid}, 1.0)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if "second half" in stack.read_text():
                    break
                time.sleep(0.05)
            row = {"outcome": "timeout"}
            watchdog.annotate_timeout(0, row)
        finally:
            child.kill()
    assert row["diagnosis"] == "stalled"
    assert "first half" in row["stall_metrics"]["stack"]
    assert "second half" in row["stall_metrics"]["stack"]


def test_worker_observability_writes_beats(tmp_path):
    beat_path = str(tmp_path / "w.beat")
    with batch_module._WorkerObservability(
        {"beat_path": beat_path, "stack_path": str(tmp_path / "w.stack")}
    ):
        time.sleep(0.05)
        payload = json.loads(open(beat_path).read())
    assert payload["pid"] == __import__("os").getpid()
    assert payload["time"] > 0


def test_batch_collect_metrics_rows_carry_blobs():
    rows = run_table1_batch(
        names=["nowick"], methods=METHODS, jobs=1, collect_metrics=True
    )
    (row,) = rows
    assert row["outcome"] == "ok"
    for method in METHODS:
        blob = row["%s_metrics" % method]
        assert blob["elapsed"] > 0.0
        assert isinstance(blob["counters"], dict)
    assert row["conformance_metrics"]["counters"]["sim_states"] > 0


def test_cli_batch_writes_json(tmp_path, capsys):
    path = tmp_path / "batch.json"
    assert (
        main(
            [
                "batch",
                "--benchmarks",
                "sendr-done",
                "--methods",
                "unfolding-approx",
                "--jobs",
                "1",
                "--json",
                str(path),
                "--fail-on-anomaly",
            ]
        )
        == 0
    )
    payload = json.loads(path.read_text())
    assert payload["kind"] == "table1"
    assert payload["outcomes"] == {"ok": 1, "timeout": 0, "error": 0}
    assert payload["rows"][0]["benchmark"] == "sendr-done"
    assert "sendr-done" in capsys.readouterr().out
