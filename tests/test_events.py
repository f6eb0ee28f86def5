"""Tests for observability round 2: event streams, the live renderer
and the event schema."""

import io
import json
import threading

import pytest

from repro.cli import main
from repro.obs import (
    EVENT_KINDS,
    CallbackSink,
    EventStream,
    FileSink,
    NULL_SPAN,
    Tracer,
    attach_stream,
    tracing,
    validate_event,
    validate_events_file,
)
from repro.obs.schema import TraceSchemaError, main as schema_main
from repro.obs.live import LiveRenderer


def _collecting_stream(min_interval=0.0):
    events = []
    stream = EventStream([CallbackSink(events.append)], min_interval=min_interval)
    return stream, events


# ---------------------------------------------------------------------- #
# EventStream + tracer emit hooks
# ---------------------------------------------------------------------- #
def test_stream_emits_span_counter_progress_events():
    stream, events = _collecting_stream()
    tracer = Tracer("run")
    attach_stream(tracer, stream)
    with tracing(tracer=tracer) as t:
        with t.span("phase", engine="bdd") as span:
            span.counter("states", 7)
            span.progress(3, 9)
            span.append("pass_nodes", 42)
    kinds = [event["kind"] for event in events]
    assert kinds == [
        "span_open", "span_open", "counter", "progress", "series",
        "span_close", "span_close",
    ]
    assert [event["seq"] for event in events] == list(range(len(events)))
    assert all(event["t"] >= 0 for event in events)
    # Paths are slash-joined from the root.
    assert events[1]["path"] == "run/phase"
    assert events[1]["attrs"] == {"engine": "bdd"}
    assert events[3]["done"] == 3 and events[3]["total"] == 9
    # The closing event snapshots the span's counters, progress included.
    close = events[-2]
    assert close["counters"]["states"] == 7
    assert close["counters"]["progress_done"] == 3
    for event in events:
        validate_event(event)


def test_progress_records_gauges_without_stream():
    tracer = Tracer("run")
    with tracing(tracer=tracer) as t:
        with t.span("phase") as span:
            span.progress(10)
            span.progress(12, 20)
    phase = tracer.root.children[0]
    assert phase.counters["progress_done"] == 12
    assert phase.counters["progress_total"] == 20


def test_null_span_progress_is_inert():
    assert NULL_SPAN.progress(1, 2) is None
    assert NULL_SPAN.counters == {}


def test_throttle_drops_rapid_counter_events_but_not_span_events():
    stream, events = _collecting_stream(min_interval=60.0)
    tracer = Tracer("run")
    attach_stream(tracer, stream)
    with tracing(tracer=tracer) as t:
        with t.span("phase") as span:
            for _ in range(100):
                span.counter("states")
    kinds = [event["kind"] for event in events]
    # 100 counter updates collapse to the first; open/close always pass.
    assert kinds.count("counter") == 1
    assert kinds.count("span_open") == 2
    assert kinds.count("span_close") == 2
    # The trace itself keeps every increment regardless of throttling.
    assert tracer.root.children[0].counters["states"] == 100


def test_file_sink_writes_validating_jsonl(tmp_path):
    path = str(tmp_path / "events.jsonl")
    stream = EventStream([FileSink(path)], min_interval=0.0)
    tracer = Tracer("run")
    attach_stream(tracer, stream)
    with tracing(tracer=tracer) as t:
        with t.span("phase") as span:
            span.progress(1, 2)
    stream.close()
    count = validate_events_file(path)
    assert count == 5  # root open, phase open, progress, phase close, root close
    lines = [json.loads(line) for line in open(path)]
    assert [event["seq"] for event in lines] == list(range(5))


def test_stream_seq_monotonic_under_thread_contention():
    stream, events = _collecting_stream()
    tracer = Tracer("run")
    attach_stream(tracer, stream)
    errors = []

    def worker(i):
        try:
            for j in range(50):
                with tracer.span("w%d" % i) as span:
                    span.counter("ticks")
        except Exception as exc:  # pragma: no cover - diagnostic only
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    seqs = [event["seq"] for event in events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
    # 8 threads x 50 spans, opened and closed, plus the root open.
    assert sum(1 for e in events if e["kind"] == "span_open") == 401
    assert sum(1 for e in events if e["kind"] == "span_close") == 400


# ---------------------------------------------------------------------- #
# Event schema
# ---------------------------------------------------------------------- #
def test_validate_event_rejects_malformed_records():
    good = {"seq": 0, "t": 0.0, "kind": "progress", "path": "a/b"}
    validate_event(good)
    for bad in [
        {"t": 0.0, "kind": "progress", "path": "a"},          # missing seq
        {"seq": -1, "t": 0.0, "kind": "progress", "path": "a"},
        {"seq": 0, "t": -1, "kind": "progress", "path": "a"},
        {"seq": 0, "t": 0.0, "kind": "nonsense", "path": "a"},
        {"seq": 0, "t": 0.0, "kind": "progress", "path": 3},
        {"seq": 0, "t": 0.0, "kind": "progress", "path": "a", "done": "x"},
        [],
    ]:
        with pytest.raises(TraceSchemaError):
            validate_event(bad)


def test_validate_events_file_rejects_non_monotonic_seq(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(
        '{"seq": 0, "t": 0.0, "kind": "span_open", "path": "r"}\n'
        '{"seq": 0, "t": 0.1, "kind": "span_close", "path": "r"}\n'
    )
    with pytest.raises(TraceSchemaError, match="monotonic"):
        validate_events_file(str(path))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    with pytest.raises(TraceSchemaError, match="no events"):
        validate_events_file(str(empty))


def test_schema_cli_validates_mixed_trace_and_event_files(tmp_path):
    trace_path = tmp_path / "trace.json"
    tracer = Tracer("run")
    with tracing(tracer=tracer) as t:
        with t.span("phase"):
            pass
    tracer.write_json(str(trace_path))

    events_path = tmp_path / "events.jsonl"
    events_path.write_text(
        '{"seq": 0, "t": 0.0, "kind": "span_open", "path": "r"}\n'
        '{"seq": 1, "t": 0.1, "kind": "span_close", "path": "r"}\n'
    )
    assert schema_main([str(trace_path), str(events_path)]) == 0

    broken = tmp_path / "broken.jsonl"
    broken.write_text('{"seq": 0, "kind": "span_open", "path": "r"}\n')
    assert schema_main([str(trace_path), str(broken)]) == 1


# ---------------------------------------------------------------------- #
# Live renderer
# ---------------------------------------------------------------------- #
def test_live_renderer_derives_progress_and_batch_lines():
    buffer = io.StringIO()
    renderer = LiveRenderer(stream=buffer, interval=0.0, tty=False)
    stream = EventStream([renderer], min_interval=0.0)
    tracer = Tracer("run")
    attach_stream(tracer, stream)
    with tracing(tracer=tracer) as t:
        with t.span("reachability") as span:
            span.progress(512, 1024)
    stream.emit("heartbeat", "batch", row="nowick", pid=123, age=0.4)
    stream.emit("stall", "batch", row="nowick", silent_for=2.5)
    stream.emit("row", "batch", row="nowick", outcome="timeout", elapsed=3.0)
    renderer.close()
    out = buffer.getvalue()
    assert "run/reachability" in out
    assert "512/1024" in out
    assert "[beat] nowick pid=123" in out
    assert "[STALL] nowick silent for 2.5s" in out
    assert "[row] nowick outcome=timeout" in out


def test_live_renderer_tty_rewrites_in_place():
    buffer = io.StringIO()
    renderer = LiveRenderer(stream=buffer, interval=0.0, tty=True)
    renderer({"seq": 0, "t": 0.0, "kind": "span_open", "path": "a"})
    renderer({"seq": 1, "t": 0.1, "kind": "progress", "path": "a",
              "done": 1, "total": 2})
    renderer.close()
    out = buffer.getvalue()
    assert "\r" in out
    assert out.endswith("\n")


# ---------------------------------------------------------------------- #
# CLI integration
# ---------------------------------------------------------------------- #
def test_cli_table1_events_flag_writes_valid_stream(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    assert main([
        "table1", "--benchmarks", "sendr-done",
        "--methods", "sg-explicit", "--events", str(path),
    ]) == 0
    assert "# wrote events" in capsys.readouterr().out
    count = validate_events_file(str(path))
    assert count >= 5
    events = [json.loads(line) for line in open(str(path))]
    assert events[0]["kind"] == "span_open" and events[0]["path"] == "table1"
    assert events[-1]["kind"] == "span_close" and events[-1]["path"] == "table1"
    assert any(event["kind"] == "progress" for event in events)
    assert all(event["kind"] in EVENT_KINDS for event in events)
