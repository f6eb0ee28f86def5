"""Command-line interface.

Examples
--------
Synthesise a ``.g`` file with the paper's method and print the equations::

    repro-synth synth controller.g --method unfolding-approx

Run the Table 1 and Figure 6 reproductions::

    repro-synth table1
    repro-synth figure6 --stages 2 4 6 8

Execute a synthesised circuit against its specification (hazard-freedom and
conformance for every architecture) and export a generated STG::

    repro-synth simulate nowick
    repro-synth export nowick -o nowick.g
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .obs import (
    EventStream,
    FileSink,
    LiveRenderer,
    Tracer,
    attach_stream,
    set_tracer,
    span_summary,
)
from .flow import (
    apply_engine,
    format_table,
    run_counterflow,
    run_figure6,
    run_figure6_batch,
    run_table1,
    run_table1_batch,
    write_batch_json,
)
from .sim import ARCHITECTURES, simulate_spec
from .stg import benchmark_by_name, parse_g_file, write_g, write_g_file
from .synthesis import METHODS, synthesize, verify_implementation

__all__ = ["main", "build_parser"]


def _add_obs_flags(command: argparse.ArgumentParser) -> None:
    """Attach the shared observability flags (see :mod:`repro.obs`)."""
    command.add_argument(
        "--trace",
        dest="trace_path",
        metavar="FILE",
        default=None,
        help="record a span trace of the run and write it as JSON",
    )
    command.add_argument(
        "--metrics",
        action="store_true",
        help="collect per-phase metrics and print an aggregate summary",
    )
    command.add_argument(
        "--events",
        dest="events_path",
        metavar="FILE",
        default=None,
        help="stream structured JSONL events (span open/close, progress, "
        "heartbeats) to this file while the run executes",
    )
    command.add_argument(
        "--live",
        action="store_true",
        help="render live progress (phase, rates, batch heartbeats) on stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-synth",
        description="Speed-independent circuit synthesis from STG-unfolding segments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesise an STG (.g file or benchmark name)")
    synth.add_argument("spec", help="path to a .g file or a built-in benchmark name")
    synth.add_argument("--method", choices=METHODS, default="unfolding-approx")
    synth.add_argument("--architecture", choices=("acg", "c-element", "rs-latch"), default="acg")
    synth.add_argument("--verify", action="store_true", help="verify against the State Graph")

    table1 = sub.add_parser("table1", help="reproduce Table 1")
    table1.add_argument("--methods", nargs="+", default=["unfolding-approx", "sg-explicit"])
    table1.add_argument("--benchmarks", nargs="*", default=None)
    table1.add_argument(
        "--engine",
        choices=("explicit", "bdd"),
        default=None,
        help="state-space backend for the SG methods (retargets any sg-* method)",
    )
    table1.add_argument(
        "--no-conformance",
        action="store_true",
        help="skip the simulator-backed conformance column",
    )
    table1.add_argument(
        "--resolve-encoding",
        action="store_true",
        help="resolve CSC conflicts by signal insertion before synthesis",
    )
    table1.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="write the rows (with metrics blobs when collected) to this JSON file",
    )
    _add_obs_flags(table1)

    fig6 = sub.add_parser("figure6", help="reproduce the Figure 6 scaling experiment")
    fig6.add_argument("--stages", nargs="+", type=int, default=[2, 4, 6, 8, 10])
    fig6.add_argument("--methods", nargs="+", default=["unfolding-approx", "sg-explicit", "sg-bdd"])
    _add_obs_flags(fig6)

    sub.add_parser("counterflow", help="synthesise the 34-signal counterflow stand-in")

    batch = sub.add_parser(
        "batch",
        help="run table1/figure6 rows in parallel worker processes",
    )
    batch.add_argument("--kind", choices=("table1", "figure6"), default="table1")
    batch.add_argument(
        "--benchmarks", nargs="*", default=None, help="table1 benchmark names (default: all)"
    )
    batch.add_argument(
        "--stages", nargs="+", type=int, default=[2, 4, 6, 8], help="figure6 stage counts"
    )
    batch.add_argument("--methods", nargs="+", default=["unfolding-approx", "sg-explicit"])
    batch.add_argument(
        "--engine",
        choices=("explicit", "bdd"),
        default=None,
        help="state-space backend for the SG methods (table1 only)",
    )
    batch.add_argument(
        "--jobs", type=int, default=None, help="worker processes (default: all cores)"
    )
    batch.add_argument(
        "--timeout", type=float, default=None, help="per-row wall-clock budget in seconds"
    )
    batch.add_argument(
        "--no-conformance",
        action="store_true",
        help="skip the simulator-backed conformance column (table1 only)",
    )
    batch.add_argument(
        "--json", dest="json_path", default=None, help="write merged rows to this JSON file"
    )
    batch.add_argument(
        "--fail-on-anomaly",
        action="store_true",
        help="exit non-zero when any row's outcome is error or timeout",
    )
    batch.add_argument(
        "--resolve-encoding",
        action="store_true",
        help="resolve CSC conflicts by signal insertion before synthesis (table1 only)",
    )
    batch.add_argument(
        "--stall-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="diagnose a worker as stalled (and capture its stack over "
        "SIGUSR1) after this long without progress evidence (default: 150)",
    )
    _add_obs_flags(batch)

    csc = sub.add_parser(
        "csc",
        help="detect CSC conflicts and resolve them by internal-signal insertion",
    )
    csc.add_argument(
        "specs", nargs="+", help="paths to .g files or built-in benchmark names"
    )
    csc.add_argument(
        "--engine",
        choices=("explicit", "bdd"),
        default="explicit",
        help="state-space backend for conflict detection (resolution, when "
        "requested, always works on the explicit graph)",
    )
    csc.add_argument(
        "--max-signals", type=int, default=3, help="insertion budget per specification"
    )
    csc.add_argument(
        "--max-states", type=int, default=None, help="reachable-state budget"
    )
    csc.add_argument(
        "--no-resolve", action="store_true", help="only report conflicts, do not insert"
    )
    csc.add_argument("--seed", type=int, default=0, help="candidate tie-break seed")
    csc.add_argument(
        "--fail-on-unresolved",
        action="store_true",
        help="exit non-zero when any specification keeps CSC conflicts",
    )
    csc.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the resolved STG as a .g file (single spec only)",
    )
    _add_obs_flags(csc)

    simulate = sub.add_parser(
        "simulate",
        help="synthesise and execute a circuit: hazard-freedom + spec conformance",
    )
    simulate.add_argument("spec", help="path to a .g file or a built-in benchmark name")
    simulate.add_argument("--method", choices=METHODS, default="unfolding-approx")
    simulate.add_argument(
        "--architectures",
        nargs="+",
        choices=ARCHITECTURES,
        default=list(ARCHITECTURES),
        help="architectures to verify (default: all three)",
    )
    simulate.add_argument(
        "--max-states",
        type=int,
        default=100000,
        help="closed-loop state budget for the exhaustive exploration",
    )
    simulate.add_argument(
        "--walk-steps",
        type=int,
        default=0,
        help="additionally run a seeded random walk of this many events",
    )
    simulate.add_argument("--seed", type=int, default=0, help="random-walk seed")
    _add_obs_flags(simulate)

    export = sub.add_parser("export", help="write a specification as a .g file")
    export.add_argument("spec", help="path to a .g file or a built-in benchmark name")
    export.add_argument("-o", "--output", default=None, help="output path (default: stdout)")

    return parser


def _load_stg(spec: str):
    if spec.endswith(".g"):
        return parse_g_file(spec)
    try:
        return benchmark_by_name(spec).build()
    except KeyError:
        raise SystemExit("unknown benchmark %r and not a .g file" % spec)


def _cmd_synth(args: argparse.Namespace) -> int:
    stg = _load_stg(args.spec)
    result = synthesize(stg, method=args.method, architecture=args.architecture)
    print(result.implementation.to_text())
    print()
    row = result.timing_row()
    print(
        "# UnfTim %.3fs  SynTim %.3fs  EspTim %.3fs  TotTim %.3fs"
        % (row["UnfTim"], row["SynTim"], row["EspTim"], row["TotTim"])
    )
    if args.verify:
        check = verify_implementation(stg, result.implementation)
        print("# verification: %s" % ("OK" if check.ok else "FAILED"))
        for error in check.errors:
            print("#   %s" % error)
        return 0 if check.ok else 1
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    entries = None
    if args.benchmarks:
        entries = [benchmark_by_name(name) for name in args.benchmarks]
    methods = apply_engine(args.methods, args.engine)
    rows = run_table1(
        entries=entries,
        methods=methods,
        conformance=not args.no_conformance,
        resolve_encoding=args.resolve_encoding,
        engine=args.engine,
        collect_metrics=args.metrics or bool(args.json_path),
    )
    columns = ["benchmark", "signals", "UnfTim", "SynTim", "EspTim", "TotTim", "LitCnt"]
    if any(method.startswith("sg-") for method in methods):
        columns.insert(2, "engine")
    for method in methods:
        if method != "unfolding-approx":
            columns += ["%s_total" % method, "%s_literals" % method]
    if args.resolve_encoding:
        columns += ["csc_signals_added", "csc_resolved"]
    if not args.no_conformance:
        columns.append("Conf")
    print(format_table(rows, columns))
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump([dict(row) for row in rows], handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("# wrote %s" % args.json_path)
    return 0


def _cmd_figure6(args: argparse.Namespace) -> int:
    rows = run_figure6(
        stage_counts=args.stages,
        methods=args.methods,
        collect_metrics=args.metrics,
    )
    columns = ["stages", "signals"] + list(args.methods)
    print(format_table(rows, columns))
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.kind == "table1":
        methods = apply_engine(args.methods, args.engine)
        rows = run_table1_batch(
            names=args.benchmarks or None,
            methods=methods,
            jobs=args.jobs,
            task_timeout=args.timeout,
            conformance=not args.no_conformance,
            resolve_encoding=args.resolve_encoding,
            engine=args.engine,
            collect_metrics=args.metrics,
            stall_after=args.stall_after,
        )
        columns = ["benchmark", "signals", "TotTim", "LitCnt"]
        if any(method.startswith("sg-") for method in methods):
            columns.insert(2, "engine")
        for method in methods:
            if method != "unfolding-approx":
                columns += ["%s_total" % method, "%s_literals" % method]
        if args.resolve_encoding:
            columns += ["csc_signals_added", "csc_resolved"]
        if not args.no_conformance:
            columns.append("Conf")
    else:
        rows = run_figure6_batch(
            stage_counts=args.stages,
            methods=args.methods,
            jobs=args.jobs,
            task_timeout=args.timeout,
            collect_metrics=args.metrics,
            stall_after=args.stall_after,
        )
        columns = ["stages", "signals"] + list(args.methods)
    columns.append("outcome")
    print(format_table(rows, columns))
    if args.json_path:
        write_batch_json(args.json_path, args.kind, rows)
        print("# wrote %s" % args.json_path)
    anomalies = [row for row in rows if row.get("outcome") != "ok"]
    if anomalies:
        for row in anomalies:
            print(
                "# anomaly: %s -> %s"
                % (row.get("benchmark", row.get("stages")), row.get("outcome"))
            )
        if args.fail_on_anomaly:
            return 1
    return 0


def _cmd_counterflow(_args: argparse.Namespace) -> int:
    row = run_counterflow()
    print(format_table([row], ["signals", "method", "time", "literals", "segment_events"]))
    return 0


def _cmd_csc(args: argparse.Namespace) -> int:
    from .encoding import resolve_csc
    from .spaces import build_state_space

    if args.output and len(args.specs) > 1:
        raise SystemExit("--output requires a single specification")
    rows = []
    unresolved = []
    for spec in args.specs:
        stg = _load_stg(spec)
        output_stg = stg
        # Conflict detection runs on the requested engine; with --engine bdd
        # the reachable set, state count and CSC verdict are all computed
        # symbolically, so specifications far beyond the explicit budget can
        # still be *checked*.
        space = build_state_space(stg, engine=args.engine, max_states=args.max_states)
        before = space.check_csc()
        row = {
            "benchmark": stg.name,
            "engine": space.engine,
            "states": space.num_states,
            "conflicts": before.num_conflicts,
        }
        if args.no_resolve or before.satisfied:
            row["resolved"] = before.satisfied
            row["inserted"] = ""
            if not before.satisfied:
                unresolved.append(stg.name)
        else:
            # Signal insertion rewrites the explicit graph; reuse the one we
            # already built when the explicit engine did the detection.
            graph = space.explicit_graph
            result = resolve_csc(
                stg,
                graph,
                max_signals=args.max_signals,
                seed=args.seed,
                max_states=args.max_states,
            )
            row["inserted"] = ",".join(result.inserted)
            row["conflicts_after"] = result.conflicts_after
            row["resolved"] = result.resolved
            row["resolved_states"] = result.graph.num_states
            row["seconds"] = round(result.elapsed, 4)
            row["rounds_inc"] = result.rounds_incremental
            if result.projection is not None and not result.projection.ok:
                for line in result.projection.failures:
                    print("# projection violation [%s]: %s" % (stg.name, line))
            if not row["resolved"]:
                unresolved.append(stg.name)
            output_stg = result.stg
        if args.output:
            # Clean / --no-resolve specs are re-serialised as loaded.
            write_g_file(output_stg, args.output)
        rows.append(row)
    columns = [
        "benchmark", "engine", "states", "conflicts", "inserted",
        "conflicts_after", "resolved_states", "rounds_inc", "seconds",
        "resolved",
    ]
    print(format_table(rows, columns))
    if args.output:
        print("# wrote %s" % args.output)
    if unresolved:
        for name in unresolved:
            print("# unresolved CSC conflicts: %s" % name)
        if args.fail_on_unresolved:
            return 1
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    stg = _load_stg(args.spec)
    reports = simulate_spec(
        stg,
        method=args.method,
        architectures=args.architectures,
        max_states=args.max_states,
        walk_steps=args.walk_steps,
        seed=args.seed,
    )
    columns = ["benchmark", "architecture", "verdict", "states", "hazards", "violations"]
    if args.walk_steps > 0:
        columns.append("walk_steps")
    print(format_table([report.row() for report in reports], columns))
    failed = False
    for report in reports:
        for line in report.describe():
            print("#   [%s] %s" % (report.architecture, line))
        if not report.ok:
            failed = True
    return 1 if failed else 0


def _cmd_export(args: argparse.Namespace) -> int:
    stg = _load_stg(args.spec)
    if args.output:
        write_g_file(stg, args.output)
    else:
        sys.stdout.write(write_g(stg))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth": _cmd_synth,
        "table1": _cmd_table1,
        "figure6": _cmd_figure6,
        "counterflow": _cmd_counterflow,
        "batch": _cmd_batch,
        "csc": _cmd_csc,
        "simulate": _cmd_simulate,
        "export": _cmd_export,
    }
    handler = handlers[args.command]
    trace_path = getattr(args, "trace_path", None)
    want_metrics = bool(getattr(args, "metrics", False))
    events_path = getattr(args, "events_path", None)
    want_live = bool(getattr(args, "live", False))
    if not (trace_path or want_metrics or events_path or want_live):
        return handler(args)
    # One process-wide tracer spans the whole command; the instrumented
    # layers (parse, reachability, covers, csc, conformance...) attach their
    # spans automatically.  Batch workers run in separate processes and
    # instead return their metrics inside the merged rows (the parent's
    # watchdog translates their beat files into heartbeat events).
    tracer = Tracer(args.command)
    stream = None
    sinks: List[object] = []
    if events_path:
        sinks.append(FileSink(events_path))
    if want_live:
        sinks.append(LiveRenderer())
    if sinks:
        stream = EventStream(sinks)
        attach_stream(tracer, stream)
    previous = set_tracer(tracer)
    try:
        status = handler(args)
    finally:
        set_tracer(previous)
        tracer.finish()
        if stream is not None:
            stream.close()
        if want_metrics:
            print("# metrics %s" % json.dumps(span_summary(tracer.root), sort_keys=True))
        if trace_path:
            tracer.write_json(trace_path)
            print("# wrote trace %s" % trace_path)
        if events_path:
            print("# wrote events %s" % events_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
