"""Tests for the observability layer (repro.obs).

Pins the core guarantees of the tracing contract:

* span nesting/ordering reflects the call structure;
* counter trees are deterministic across identical runs (wall times and
  RSS live outside the counters);
* every instrumented call site works -- and stays silent -- under the
  default no-op tracer;
* exported traces over the Table 1 flow validate against the schema.
"""

import json

import pytest

from repro.bdd import SymbolicNet
from repro.encoding import resolve_csc
from repro.flow import run_table1
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    TraceSchemaError,
    current_tracer,
    set_tracer,
    span_summary,
    tracing,
    validate_trace,
)
from repro.obs.schema import main as schema_main
from repro.sim import simulate_spec
from repro.stategraph import build_state_graph
from repro.stg import benchmark_by_name, csc_arbiter, muller_pipeline, write_g
from repro.stg.parser import parse_g
from repro.synthesis import synthesize
from repro.unfolding import unfold


# ---------------------------------------------------------------------- #
# Span / Tracer mechanics
# ---------------------------------------------------------------------- #
def test_span_nesting_and_ordering():
    tracer = Tracer("test")
    with tracer.span("outer", kind="demo") as outer:
        with tracer.span("first") as first:
            first.counter("hits")
        with tracer.span("second") as second:
            second.gauge("size", 7)
    tracer.finish()

    assert [child.name for child in tracer.root.children] == ["outer"]
    assert [child.name for child in outer.children] == ["first", "second"]
    assert outer.attrs == {"kind": "demo"}
    assert first.counters == {"hits": 1}
    assert second.counters == {"size": 7}
    # Children close before their parent; the parent covers them.
    assert outer.elapsed >= first.elapsed + second.elapsed - 1e-6
    assert tracer.root.elapsed >= outer.elapsed


def test_span_counter_gauge_maximum_series():
    span = Span("s")
    span.counter("n")
    span.counter("n", 4)
    span.gauge("g", 10)
    span.gauge("g", 3)
    span.maximum("m", 2)
    span.maximum("m", 9)
    span.maximum("m", 5)
    span.append("series", 1)
    span.append("series", 2)
    assert span.counters == {"n": 5, "g": 3, "m": 9}
    assert span.series == {"series": [1, 2]}


def test_find_and_walk():
    tracer = Tracer("t")
    with tracer.span("a"):
        with tracer.span("b"):
            pass
        with tracer.span("b"):
            pass
    assert tracer.root.find("b") is tracer.root.children[0].children[0]
    assert len(tracer.root.find_all("b")) == 2
    assert [span.name for span in tracer.root.walk()] == ["t", "a", "b", "b"]
    assert tracer.root.find("absent") is None


def test_tracing_context_restores_previous_tracer():
    assert current_tracer() is NULL_TRACER
    with tracing("outer") as outer_tracer:
        assert current_tracer() is outer_tracer
        inner = Tracer("inner")
        previous = set_tracer(inner)
        assert previous is outer_tracer
        assert current_tracer() is inner
        set_tracer(previous)
        assert current_tracer() is outer_tracer
    assert current_tracer() is NULL_TRACER
    # The context finished the root span.
    assert outer_tracer.root.elapsed > 0.0


def test_tracer_thread_local_stacks_under_contention():
    # Worker threads attach spans under the shared root via thread-local
    # stacks: under real contention no thread may ever see another
    # thread's span as its current one, and every span must land as a
    # direct child of the root with its own counters intact.
    import threading

    tracer = Tracer("root")
    barrier = threading.Barrier(8)
    errors = []

    def worker(i):
        try:
            barrier.wait()
            for j in range(100):
                with tracer.span("t%d" % i, iteration=j) as span:
                    assert tracer.current is span
                    span.counter("ticks")
                    with tracer.span("inner") as inner:
                        assert tracer.current is inner
                        inner.counter("ticks")
                    assert tracer.current is span
            assert tracer.current is tracer.root
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    top = [child for child in tracer.root.children]
    assert len(top) == 800
    for span in top:
        assert span.counters["ticks"] == 1
        assert len(span.children) == 1
    names = {span.name for span in top}
    assert names == {"t%d" % i for i in range(8)}


def test_null_tracer_is_inert_and_shared():
    assert current_tracer() is NULL_TRACER
    span = NULL_TRACER.span("anything", attr=1)
    assert span is NULL_SPAN
    assert span.live is False
    with span as entered:
        entered.counter("x")
        entered.gauge("y", 1)
        entered.maximum("z", 2)
        entered.append("s", 3)
    # The shared no-op span must never accumulate state.
    assert NULL_SPAN.counters == {}
    assert NULL_SPAN.series == {}
    assert NULL_SPAN.children == []


# ---------------------------------------------------------------------- #
# Instrumented call sites
# ---------------------------------------------------------------------- #
def _deterministic_tree(span):
    """The run-to-run comparable projection of a span tree."""
    return {
        "name": span.name,
        "attrs": dict(span.attrs),
        "counters": dict(span.counters),
        "series": {k: list(v) for k, v in span.series.items()},
        "children": [_deterministic_tree(child) for child in span.children],
    }


def _traced_synthesis(name="nowick"):
    stg = benchmark_by_name(name).build()
    with tracing("run") as tracer:
        synthesize(stg, method="sg-explicit")
    return tracer


def test_counters_deterministic_across_identical_runs():
    first = _traced_synthesis()
    second = _traced_synthesis()
    assert _deterministic_tree(first.root) == _deterministic_tree(second.root)


def test_explicit_bfs_span_stats():
    stg = muller_pipeline(4)
    with tracing("bfs") as tracer:
        graph = build_state_graph(stg)
    reach = tracer.root.find("reachability")
    assert reach is not None
    assert reach.attrs["engine"] == "explicit"
    assert reach.counters["states"] == graph.num_states
    assert reach.counters["edges"] == graph.num_edges
    waves = reach.series["frontier_waves"]
    assert sum(waves) == graph.num_states
    assert len(waves) == reach.counters["bfs_depth"] + 1


def test_bdd_fixpoint_span_stats():
    stg = muller_pipeline(4)
    with tracing("bdd") as tracer:
        engine = SymbolicNet(stg.net, stg)
        engine.reachable_set()
    reach = tracer.root.find("reachability")
    assert reach is not None
    assert reach.attrs["engine"] == "bdd"
    passes = reach.counters["fixpoint_passes"]
    assert passes > 0
    assert len(reach.series["pass_nodes"]) == passes
    assert reach.counters["bdd_nodes"] > 0


def test_unfold_and_synthesize_spans():
    stg = benchmark_by_name("nowick").build()
    with tracing("synth") as tracer:
        synthesize(stg, method="unfolding-approx")
    synth = tracer.root.find("synthesize")
    assert synth is not None
    unfold_span = synth.find("unfold")
    assert unfold_span is not None
    assert unfold_span.counters["events"] > 0
    assert unfold_span.counters["extensions_tried"] >= unfold_span.counters[
        "extensions_added"
    ]
    summary = span_summary(synth)
    assert summary["counters"]["espresso_calls"] > 0
    assert "unfold" in summary["phases"]


def test_csc_resolve_span_stats():
    stg = csc_arbiter(2)
    with tracing("resolve-run") as tracer:
        result = resolve_csc(stg)
    span = tracer.root.find("csc")
    assert span is not None
    assert span.attrs["stage"] == "resolve"
    assert span.counters["rounds"] >= 1
    assert span.counters["candidates_validated"] >= 1
    assert span.counters["signals_inserted"] == result.num_inserted
    assert span.counters["resolved"] is result.resolved


def test_instrumented_sites_run_under_null_tracer():
    # Every instrumented layer, untraced: must work and leave no state on
    # the shared no-op span.
    assert current_tracer() is NULL_TRACER
    stg = benchmark_by_name("nowick").build()
    parse_g(write_g(stg), name="roundtrip")
    build_state_graph(stg)
    SymbolicNet(stg.net, stg).reachable_set()
    unfold(stg)
    synthesize(stg, method="sg-explicit")
    resolve_csc(csc_arbiter(2))
    simulate_spec(stg, architectures=("acg",))
    assert NULL_SPAN.counters == {}
    assert NULL_SPAN.series == {}
    assert NULL_SPAN.children == []


# ---------------------------------------------------------------------- #
# span_summary
# ---------------------------------------------------------------------- #
def test_span_summary_sums_counters_and_phases():
    tracer = Tracer("t")
    with tracer.span("root_phase") as root_phase:
        root_phase.counter("n", 1)
        with tracer.span("child"):
            tracer.counter("n", 2)
            tracer.gauge("flag", True)
        with tracer.span("child"):
            tracer.counter("n", 3)
            tracer.gauge("label", "bdd")
    summary = span_summary(root_phase)
    assert summary["counters"]["n"] == 6
    assert summary["counters"]["flag"] is True  # bools are not summed
    assert summary["counters"]["label"] == "bdd"
    assert set(summary["phases"]) == {"child"}
    assert summary["elapsed"] == round(root_phase.elapsed, 6)


# ---------------------------------------------------------------------- #
# Trace schema
# ---------------------------------------------------------------------- #
def test_table1_trace_validates_against_schema(tmp_path):
    entries = [benchmark_by_name(name) for name in ("nowick", "rcv-setup")]
    with tracing("table1") as tracer:
        rows = run_table1(
            entries=entries,
            methods=("unfolding-approx", "sg-explicit"),
            collect_metrics=True,
        )
    doc = tracer.to_dict()
    validate_trace(doc)  # must not raise
    # Rows carry metrics blobs with the same counters the trace recorded.
    for row in rows:
        assert row["sg-explicit_metrics"]["counters"]["states"] > 0

    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    assert schema_main([str(path)]) == 0


def test_schema_rejects_malformed_documents(tmp_path):
    with tracing("small") as tracer:
        with tracer.span("x"):
            pass
    doc = tracer.to_dict()
    validate_trace(doc)

    bad_version = dict(doc)
    bad_version["version"] = 2
    with pytest.raises(TraceSchemaError):
        validate_trace(bad_version)

    bad_span = json.loads(json.dumps(doc))
    del bad_span["root"]["children"][0]["elapsed"]
    with pytest.raises(TraceSchemaError) as excinfo:
        validate_trace(bad_span)
    assert "elapsed" in str(excinfo.value)

    bad_series = json.loads(json.dumps(doc))
    bad_series["root"]["series"] = {"s": ["not-a-number"]}
    with pytest.raises(TraceSchemaError):
        validate_trace(bad_series)

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad_version))
    assert schema_main([str(path)]) == 1
