"""Experiment E1 -- Table 1 of the paper.

For every benchmark of the suite this regenerates the row the paper reports:
the timing breakdown of the unfolding-based ACG synthesis (UnfTim / SynTim /
EspTim / TotTim), its literal count, and the total time / literal count of
the SG-based baselines.  Absolute times differ from the 1997 numbers; the
claims reproduced are (i) the unfolding flow finishes on every benchmark,
(ii) its literal counts match the exact (SG-based) implementations, and
(iii) its run time is comparable on small benchmarks and better on the
larger, more concurrent ones.

Run with ``pytest benchmarks/bench_table1.py --benchmark-only``; a summary
table is printed at the end of the session.

Machine-readable mode: ``python benchmarks/bench_table1.py --json`` writes
``BENCH_table1.json`` with per-row times plus packed-engine timings
(state-graph states/sec, the ``muller_pipeline(8)`` sg-explicit end-to-end
seconds, and the unfolding engine's state-recovery rate on the
state-pruned packed walk), so the perf trajectory of the packed state
core is tracked commit over commit.  The Table 1 rows include the unfolding-exact method next to
unfolding-approx and the SG baseline.  Three encoding-layer entries ride
along: ``csc_check_states_per_sec`` (rate of the packed USC+CSC sweep on
``muller_pipeline(12)``), ``csc_resolution_largest`` (end-to-end
``resolve_csc`` on the largest non-CSC generator, ``csc_arbiter(8)``) and
``csc_incremental_resolution`` (per-round incremental State Graph
maintenance vs full rebuild across that resolution, with the dirty states
re-explored per round).  The cover engine contributes two more:
``espresso_cubes_per_sec`` (throughput of espresso over the real Table 1
cover workload) and ``csc_ranking_seconds`` (candidate ranking of one ``csc_arbiter(8)``
resolution round, cold vs served from the memoised literal-cost cache).
Two symbolic-engine entries track the ``repro.spaces`` BDD backend:
``symbolic_reachability_states_per_sec`` (characteristic-function fixed
point + symbolic USC/CSC on ``muller_pipeline(16)``, 262144 states --
beyond the explicit CI budget) and ``explicit_vs_symbolic_crossover``
(end-to-end sg-explicit vs sg-bdd seconds over the Muller family and the
stage count where the symbolic engine starts winning).  The storage-managed
fixed point adds three more: ``bdd_reorder_muller16`` (peak and allocated
node counts of the GC'd/reorderable saturation loop),
``symbolic_saturation_muller24`` (the saturation fixed point on a 67.1M
state pipeline, reachability only) and ``explicit_kernel_states_per_sec``
(the numpy-bitset BFS of the full ``muller_pipeline(16)`` graph; ``null``
without numpy).
"""

import argparse
import json
import time

import pytest

from repro.encoding import resolve_csc
from repro.flow import format_table, run_table1
from repro.obs import merge_history, stamp_report
from repro.stategraph import build_state_graph, check_csc, check_usc
from repro.stg import csc_arbiter, muller_pipeline, table1_suite
from repro.synthesis import synthesize
from repro.unfolding import reachable_packed_states, unfold

# Keep the per-row pytest-benchmark measurements to the smaller benchmarks so
# the suite completes quickly; the full Table 1 sweep runs once in the
# session-scoped summary below (and via `repro-synth table1`).
SMALL_BENCHMARKS = [
    entry for entry in table1_suite() if entry.expected_signals <= 12
]
# The very largest stand-ins (> 20 signals) are exercised through the CLI
# (`repro-synth table1`) so the pytest-benchmark run stays within minutes.
LARGE_BENCHMARKS = [
    entry for entry in table1_suite() if 12 < entry.expected_signals <= 20
]


@pytest.mark.parametrize("entry", SMALL_BENCHMARKS, ids=lambda e: e.name)
def test_table1_unfolding_acg(benchmark, entry):
    """PUNT-ACG column: unfolding-based approximate synthesis."""
    stg = entry.build()
    result = benchmark(lambda: synthesize(stg, method="unfolding-approx"))
    assert result.literal_count > 0
    assert not result.implementation.has_csc_conflict


@pytest.mark.parametrize("entry", SMALL_BENCHMARKS, ids=lambda e: e.name)
def test_table1_sg_baseline(benchmark, entry):
    """SIS-like column: explicit State Graph synthesis."""
    stg = entry.build()
    result = benchmark(lambda: synthesize(stg, method="sg-explicit"))
    assert result.literal_count > 0


@pytest.mark.parametrize("entry", LARGE_BENCHMARKS, ids=lambda e: e.name)
def test_table1_unfolding_acg_large(benchmark, entry):
    """Large benchmarks, unfolding method only (the baselines get slow)."""
    stg = entry.build()
    result = benchmark.pedantic(
        lambda: synthesize(stg, method="unfolding-approx"), rounds=1, iterations=1
    )
    assert result.literal_count > 0


def test_table1_summary_table(capsys):
    """Print the full Table 1 reproduction (one pass, no baselines > 14 sigs)."""
    entries = [e for e in table1_suite() if e.expected_signals <= 14]
    rows = run_table1(entries=entries, methods=("unfolding-approx", "sg-explicit"))
    columns = [
        "benchmark", "signals", "UnfTim", "SynTim", "EspTim", "TotTim", "LitCnt",
        "sg-explicit_total", "sg-explicit_literals", "paper_literals",
    ]
    with capsys.disabled():
        print()
        print(format_table(rows, columns))
    for row in rows:
        assert row["LitCnt"] == row["sg-explicit_literals"]


# ---------------------------------------------------------------------- #
# Machine-readable perf results (BENCH_table1.json)
# ---------------------------------------------------------------------- #
def _time_sg_explicit(stg):
    start = time.perf_counter()
    result = synthesize(stg, method="sg-explicit")
    total = time.perf_counter() - start
    build = result.unfold_time  # SG methods report graph construction here
    return {
        "seconds": round(total, 4),
        "literals": result.literal_count,
        "states": result.num_states,
        "sg_build_seconds": round(build, 4),
        "states_per_sec": round(result.num_states / build) if build > 0 else None,
    }


def _time_unfolding_recovery(stg):
    """Time packed state recovery from the segment."""
    t0 = time.perf_counter()
    segment = unfold(stg)
    unfold_seconds = time.perf_counter() - t0
    t1 = time.perf_counter()
    states = reachable_packed_states(segment)
    recover = time.perf_counter() - t1
    return {
        "seconds": round(recover, 4),
        "unfold_seconds": round(unfold_seconds, 4),
        "states": len(states),
        "segment_events": segment.num_events - 1,
        "states_per_sec": round(len(states) / recover) if recover > 0 else None,
    }


def _time_csc_check(stages=12):
    """Rate of the packed USC+CSC check on a large conflict-free graph."""
    graph = build_state_graph(muller_pipeline(stages))
    t0 = time.perf_counter()
    usc = check_usc(graph)
    csc = check_csc(graph)
    seconds = time.perf_counter() - t0
    # Both checks sweep every state once; rate counts one combined pass.
    return {
        "stages": stages,
        "states": graph.num_states,
        "seconds": round(seconds, 4),
        "states_per_sec": round(graph.num_states / seconds) if seconds > 0 else None,
        "usc_conflicts": usc.num_conflicts,
        "csc_conflicts": csc.num_conflicts,
    }


def _time_symbolic_reachability(stages=16):
    """Rate of the symbolic engine on a workload the explicit one cannot
    enumerate within the default CI budget (muller_pipeline(16), 262144
    states): characteristic-function fixed point + symbolic USC/CSC check,
    with states/sec measured against the symbolically *counted* states."""
    from repro.spaces import build_state_space

    stg = muller_pipeline(stages)
    t0 = time.perf_counter()
    space = build_state_space(stg, engine="bdd")
    states = space.num_states
    reach_seconds = time.perf_counter() - t0
    t1 = time.perf_counter()
    usc = space.check_usc()
    csc = space.check_csc()
    check_seconds = time.perf_counter() - t1
    return {
        "stages": stages,
        "states": states,
        "bdd_nodes": space.num_bdd_nodes,
        "fixpoint_passes": space.iterations,
        "reachability_seconds": round(reach_seconds, 4),
        "states_per_sec": round(states / reach_seconds) if reach_seconds > 0 else None,
        "usc_csc_seconds": round(check_seconds, 4),
        "usc_conflicts": usc.num_pairs,
        "csc_conflicts": csc.num_pairs,
    }


def _time_engine_crossover(stage_counts=(8, 10, 12, 14, 16), explicit_limit_signals=14):
    """Explicit-vs-symbolic end-to-end synthesis crossover on the Muller
    pipeline: per-stage seconds for both engines (the explicit engine is
    skipped beyond its signal limit) and the first stage count where the
    symbolic engine wins outright."""
    rows = []
    crossover = None
    for stages in stage_counts:
        stg = muller_pipeline(stages)
        row = {"stages": stages, "signals": stg.num_signals}
        t0 = time.perf_counter()
        bdd_result = synthesize(stg, method="sg-bdd", max_states=None)
        row["sg_bdd_seconds"] = round(time.perf_counter() - t0, 4)
        row["states"] = bdd_result.num_states
        if stg.num_signals <= explicit_limit_signals:
            stg = muller_pipeline(stages)
            t0 = time.perf_counter()
            synthesize(stg, method="sg-explicit", max_states=None)
            row["sg_explicit_seconds"] = round(time.perf_counter() - t0, 4)
            if crossover is None and row["sg_bdd_seconds"] < row["sg_explicit_seconds"]:
                crossover = stages
        else:
            row["sg_explicit_seconds"] = None
        rows.append(row)
    return {"rows": rows, "symbolic_wins_from_stages": crossover}


def _time_bdd_reorder(stages=16):
    """Peak BDD node count of the storage-managed saturation loop (GC
    checkpoints + sifting), next to the total it allocated: the gap is
    what the maintenance saves."""
    from repro.bdd import SymbolicNet

    stg = muller_pipeline(stages)
    t0 = time.perf_counter()
    saturation = SymbolicNet(stg.net, stg=stg)
    saturation.reachable_set()
    saturation_seconds = time.perf_counter() - t0
    peak = max(saturation.peak_nodes, saturation.bdd.num_nodes)
    return {
        "stages": stages,
        "peak_nodes_saturation": peak,
        # Total the saturation loop would have needed without GC: the
        # surviving peak plus everything the sweeps reclaimed.
        "allocated_nodes_saturation": peak + saturation.bdd.nodes_reclaimed,
        "final_nodes_saturation": saturation.bdd.num_nodes,
        "seconds_saturation": round(saturation_seconds, 4),
        "gc_runs": saturation.bdd.gc_runs,
        "nodes_reclaimed": saturation.bdd.nodes_reclaimed,
        "reorder_passes": saturation.bdd.reorder_passes,
    }


def _time_symbolic_saturation(stages=24):
    """Saturation fixed point only (no USC/CSC) on a pipeline far beyond
    any explicit budget: 67.1M states at 24 stages."""
    from repro.bdd import SymbolicNet

    stg = muller_pipeline(stages)
    t0 = time.perf_counter()
    engine = SymbolicNet(stg.net, stg=stg)
    engine.reachable_set()
    seconds = time.perf_counter() - t0
    states = engine.count_states()
    return {
        "stages": stages,
        "states": states,
        "seconds": round(seconds, 4),
        "states_per_sec": round(states / seconds) if seconds > 0 else None,
        "peak_nodes": max(engine.peak_nodes, engine.bdd.num_nodes),
        "final_nodes": engine.bdd.num_nodes,
        "gc_runs": engine.bdd.gc_runs,
        "saturation_fires": engine.saturation_fires,
    }


def _time_explicit_kernel(stages=16):
    """The numpy-bitset BFS of the full muller_pipeline graph.

    Only the graph build is timed (BFS + excitation sweeps); the numpy
    block is ``None`` when the optional extra is missing."""
    from repro.kernel import HAS_NUMPY

    numpy = None
    if HAS_NUMPY:
        stg = muller_pipeline(stages)
        t0 = time.perf_counter()
        graph = build_state_graph(stg)
        seconds = time.perf_counter() - t0
        numpy = {
            "seconds": round(seconds, 4),
            "states": graph.num_states,
            "states_per_sec": (
                round(graph.num_states / seconds) if seconds > 0 else None
            ),
        }
    return {"stages": stages, "numpy": numpy}


def _time_espresso_cover_engine(max_signals=14):
    """Espresso over the Table 1 cover workload: every implementable,
    conflict-free signal of every suite benchmark contributes its real
    ``(on_cover, dc)`` job, so the throughput tracks exactly what the
    synthesis flows feed the minimiser."""
    from repro.boolean import espresso
    from repro.spaces import build_state_space

    jobs = []
    input_cubes = 0
    for entry in table1_suite():
        if entry.expected_signals > max_signals:
            continue
        stg = entry.build()
        space = build_state_space(stg)
        conflicting = space.conflicting_signals()
        dc = space.dc_cover()
        for signal in stg.implementable_signals:
            if signal in conflicting:
                continue
            on = space.on_cover(signal)
            jobs.append((on, dc))
            input_cubes += len(on) + len(dc)

    t0 = time.perf_counter()
    literals = sum(espresso(on, dc).cover.literal_count for on, dc in jobs)
    seconds = time.perf_counter() - t0
    return {
        "jobs": len(jobs),
        "input_cubes": input_cubes,
        "seconds": round(seconds, 4),
        "cubes_per_sec": round(input_cubes / seconds) if seconds > 0 else None,
        "literals": literals,
    }


def _time_csc_ranking(clients=8):
    """Candidate-ranking cost of one CSC resolution round, cold vs cached.

    Times :func:`repro.encoding.choose_insertion` on the ``csc_arbiter``
    generator twice against a cleared literal-cost cache: the first pass
    pays every espresso cost evaluation, the second is served from the
    memoised ranking cache (``ranking_cache_hits`` counts the serves)."""
    import random

    from repro.encoding import candidate_regions, choose_insertion, conflict_cores
    from repro.encoding import insertion as insertion_mod
    from repro.obs import tracing

    stg = csc_arbiter(clients)
    graph = build_state_graph(stg)
    cores = conflict_cores(graph)
    regions = candidate_regions(graph)
    insertion_mod._COST_CACHE.clear()
    with tracing("csc_ranking") as obs:
        t0 = time.perf_counter()
        choose_insertion(graph, cores, regions, random.Random(0))
        cold = time.perf_counter() - t0
        t1 = time.perf_counter()
        choose_insertion(graph, cores, regions, random.Random(0))
        warm = time.perf_counter() - t1
        root = obs.finish()
    hits = sum(
        span.counters.get("ranking_cache_hits", 0) for span in root.walk()
    )
    return {
        "benchmark": stg.name,
        "candidate_regions": len(regions),
        "seconds": round(cold, 4),
        "cached_seconds": round(warm, 4),
        "cache_hits": hits,
        "speedup_cached": round(cold / warm, 2) if warm > 0 else None,
    }


def _time_csc_resolution(clients=8, max_signals=6):
    """End-to-end CSC resolution of the largest non-CSC generator workload."""
    stg = csc_arbiter(clients)
    result = resolve_csc(stg, max_signals=max_signals)
    return {
        "benchmark": stg.name,
        "seconds": round(result.elapsed, 4),
        "signals_added": result.num_inserted,
        "resolved": result.resolved,
        "conflicts_before": result.conflicts_before,
        "conflicts_after": result.conflicts_after,
        "states": result.graph.num_states,
        "projection_ok": result.projection.ok if result.projection else None,
    }


def _time_csc_incremental_resolution(clients=8, max_signals=6, repeats=5):
    """Incremental vs full-rebuild State Graph maintenance during resolution.

    Replays the accepted insertion sequence of a ``csc_arbiter(8)``
    resolution and times, per round, growing the current graph through the
    edit (:func:`repro.stategraph.extend_state_graph`) against rebuilding
    it from the initial state -- the work the incremental path actually
    replaces.  The end-to-end ``resolve_csc`` wall time rides along for
    context (it also includes the candidate ranking, which dominates on
    this generator).
    """
    import random

    from repro.encoding import (
        candidate_regions,
        choose_insertion,
        conflict_cores,
        fresh_signal_name,
        make_insertion_edit,
        num_conflict_pairs,
    )
    from repro.stategraph import InconsistentSTGError, extend_state_graph

    start = time.perf_counter()
    inc_result = resolve_csc(csc_arbiter(clients), max_signals=max_signals)
    resolve_incremental = time.perf_counter() - start

    stg = csc_arbiter(clients)
    graph = build_state_graph(stg)
    rng = random.Random(0)
    t_inc = t_full = 0.0
    reexplored = []
    while len(reexplored) < len(inc_result.inserted):
        cores = conflict_cores(graph)
        ranked = choose_insertion(graph, cores, candidate_regions(graph), rng)
        current = num_conflict_pairs(cores)
        signal = fresh_signal_name(stg)
        accepted = None
        for _gain, region in ranked[:16]:
            edit = make_insertion_edit(stg, region, signal)
            try:
                candidate = extend_state_graph(graph, edit)
            except InconsistentSTGError:
                continue
            if candidate is None:
                continue
            pairs = num_conflict_pairs(conflict_cores(candidate))
            if pairs >= current:
                continue
            accepted = (edit, candidate)
            if pairs == 0:
                break
        if accepted is None:
            break
        edit, candidate = accepted
        start = time.perf_counter()
        for _ in range(repeats):
            extend_state_graph(graph, edit)
        t_inc += (time.perf_counter() - start) / repeats
        start = time.perf_counter()
        for _ in range(repeats):
            build_state_graph(edit.stg)
        t_full += (time.perf_counter() - start) / repeats
        reexplored.append(candidate.incremental_stats["states_reexplored"])
        stg, graph = edit.stg, candidate

    return {
        "benchmark": "csc_arbiter_%d" % clients,
        "rounds": len(reexplored),
        "states_reexplored_per_round": reexplored,
        "final_states": graph.num_states,
        "incremental_seconds": round(t_inc, 4),
        "full_rebuild_seconds": round(t_full, 4),
        "speedup": round(t_full / t_inc, 2) if t_inc else None,
        "resolve_incremental_seconds": round(resolve_incremental, 4),
        "signals_added": inc_result.num_inserted,
        "resolved": inc_result.resolved,
    }


def collect_json(max_signals=14):
    """Measure the perf numbers the repo tracks across commits."""
    entries = [e for e in table1_suite() if e.expected_signals <= max_signals]
    rows = run_table1(
        entries=entries,
        methods=("unfolding-approx", "unfolding-exact", "sg-explicit"),
    )
    packed = _time_sg_explicit(muller_pipeline(8))
    unf_packed = _time_unfolding_recovery(muller_pipeline(12))
    report = {
        "generated_by": "benchmarks/bench_table1.py --json",
        "muller8_sg_explicit": {"packed_engine": packed},
        "muller12_unfolding_state_recovery": {"packed_state_dedup": unf_packed},
        "csc_check_states_per_sec": _time_csc_check(),
        "espresso_cubes_per_sec": _time_espresso_cover_engine(),
        "csc_ranking_seconds": _time_csc_ranking(),
        "csc_resolution_largest": _time_csc_resolution(),
        "csc_incremental_resolution": _time_csc_incremental_resolution(),
        "symbolic_reachability_states_per_sec": _time_symbolic_reachability(),
        "explicit_vs_symbolic_crossover": _time_engine_crossover(),
        "bdd_reorder_muller16": _time_bdd_reorder(),
        "symbolic_saturation_muller24": _time_symbolic_saturation(),
        "explicit_kernel_states_per_sec": _time_explicit_kernel(),
        "table1_rows": [dict(row) for row in rows],
    }
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description="Table 1 perf measurement")
    parser.add_argument("--json", action="store_true", help="write BENCH_table1.json")
    parser.add_argument("-o", "--output", default="BENCH_table1.json")
    parser.add_argument(
        "--max-signals", type=int, default=14, help="largest benchmarks to include"
    )
    args = parser.parse_args(argv)
    try:
        with open(args.output) as handle:
            existing = json.load(handle)
    except (OSError, ValueError):
        existing = None
    if not isinstance(existing, dict):
        existing = None
    report = collect_json(max_signals=args.max_signals)
    if args.json:
        # Stamp the run (ISO timestamp + git revision) and fold it into the
        # history carried by the existing report file, so `repro-synth
        # dashboard` can chart the perf evolution across commits.
        report = stamp_report(report)
        payload = merge_history(report, existing)
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            "wrote %s (%d run(s) on record)" % (args.output, len(payload["history"]))
        )
    m8 = report["muller8_sg_explicit"]
    print(
        "muller_pipeline(8) sg-explicit: packed %.3fs"
        % m8["packed_engine"]["seconds"]
    )
    unf = report["muller12_unfolding_state_recovery"]
    print(
        "muller_pipeline(12) unfolding recovery: packed %.3fs (%s states/s)"
        % (
            unf["packed_state_dedup"]["seconds"],
            unf["packed_state_dedup"]["states_per_sec"],
        )
    )
    csc = report["csc_check_states_per_sec"]
    print(
        "muller_pipeline(12) USC+CSC check: %.3fs (%s states/s)"
        % (csc["seconds"], csc["states_per_sec"])
    )
    cover = report["espresso_cubes_per_sec"]
    print(
        "table1 espresso workload (%d jobs, %d cubes): %.3fs (%s cubes/s)"
        % (cover["jobs"], cover["input_cubes"], cover["seconds"], cover["cubes_per_sec"])
    )
    ranking = report["csc_ranking_seconds"]
    print(
        "%s candidate ranking: cold %.3fs / cached %.3fs (%d cache hits)"
        % (
            ranking["benchmark"],
            ranking["seconds"],
            ranking["cached_seconds"],
            ranking["cache_hits"],
        )
    )
    incremental = report["csc_incremental_resolution"]
    print(
        "%s incremental maintenance: %.4fs vs %.4fs rebuild (%sx), "
        "reexplored/round=%s"
        % (
            incremental["benchmark"],
            incremental["incremental_seconds"],
            incremental["full_rebuild_seconds"],
            incremental["speedup"],
            incremental["states_reexplored_per_round"],
        )
    )
    resolution = report["csc_resolution_largest"]
    print(
        "%s resolve_csc: %.3fs, %d signals, resolved=%s"
        % (
            resolution["benchmark"],
            resolution["seconds"],
            resolution["signals_added"],
            resolution["resolved"],
        )
    )
    symbolic = report["symbolic_reachability_states_per_sec"]
    print(
        "muller_pipeline(%d) symbolic reachability: %.3fs (%s states/s, %d BDD "
        "nodes), USC+CSC %.3fs"
        % (
            symbolic["stages"],
            symbolic["reachability_seconds"],
            symbolic["states_per_sec"],
            symbolic["bdd_nodes"],
            symbolic["usc_csc_seconds"],
        )
    )
    crossover = report["explicit_vs_symbolic_crossover"]
    print(
        "explicit-vs-symbolic crossover: symbolic wins from %s stages"
        % crossover["symbolic_wins_from_stages"]
    )
    reorder = report["bdd_reorder_muller16"]
    print(
        "muller_pipeline(%d) BDD peak nodes: saturation %d of %d allocated "
        "(%d GC runs, %d reorder passes)"
        % (
            reorder["stages"],
            reorder["peak_nodes_saturation"],
            reorder["allocated_nodes_saturation"],
            reorder["gc_runs"],
            reorder["reorder_passes"],
        )
    )
    muller24 = report["symbolic_saturation_muller24"]
    print(
        "muller_pipeline(%d) saturation: %.3fs (%d states, peak %d nodes)"
        % (
            muller24["stages"],
            muller24["seconds"],
            muller24["states"],
            muller24["peak_nodes"],
        )
    )
    explicit_kernel = report["explicit_kernel_states_per_sec"]
    numpy_block = explicit_kernel["numpy"]
    print(
        "muller_pipeline(%d) explicit BFS: numpy %s"
        % (
            explicit_kernel["stages"],
            "%.3fs" % numpy_block["seconds"] if numpy_block else "n/a",
        )
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
