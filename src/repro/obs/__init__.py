"""repro.obs -- zero-dependency tracing and metrics.

The observability layer of the reproduction: a nested-span :class:`Tracer`
with a thread/process-safe no-op default (instrumented code pays nothing
when tracing is off), counter/gauge hooks threaded through the explicit
BFS, the BDD engine, the unfolder and espresso, and JSON export with a
schema validator.

Round 2 adds the *live* half: :mod:`repro.obs.events` streams structured
JSONL events (span open/close, counter milestones, ``span.progress``)
into pluggable sinks while a run executes, and :mod:`repro.obs.live`
renders them as a stderr status line.

Typical use::

    from repro import obs

    with obs.tracing("table1") as tracer:
        run_table1(...)
    tracer.write_json("trace.json")

Instrumented call sites follow one pattern::

    obs = current_tracer()
    with obs.span("reachability", engine="bdd") as span:
        ...
        if span.live:            # per-iteration work only when tracing
            span.append("pass_nodes", bdd.num_nodes)
"""

from .tracer import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    peak_rss_kb,
    set_tracer,
    span_summary,
    tracing,
)
from .schema import (
    EVENT_SCHEMA,
    TRACE_SCHEMA,
    TraceSchemaError,
    validate_event,
    validate_events_file,
    validate_span,
    validate_trace,
)
from .events import (
    EVENT_KINDS,
    CallbackSink,
    EventStream,
    FileSink,
    attach_stream,
)
from .live import LiveRenderer

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "current_tracer",
    "set_tracer",
    "tracing",
    "span_summary",
    "peak_rss_kb",
    "TRACE_SCHEMA",
    "EVENT_SCHEMA",
    "TraceSchemaError",
    "validate_trace",
    "validate_span",
    "validate_event",
    "validate_events_file",
    "EVENT_KINDS",
    "EventStream",
    "FileSink",
    "CallbackSink",
    "attach_stream",
    "LiveRenderer",
]
