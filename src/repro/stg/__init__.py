"""Signal Transition Graphs: model, I/O, consistency, generators, benchmarks."""

from .signals import Direction, SignalError, SignalTransition, SignalType
from .stg import STG, InconsistentSTGError, STGError
from .parser import ParseError, parse_g, parse_g_file
from .writer import write_g, write_g_file
from .consistency import ConsistencyReport, check_consistency
from .generators import (
    choice_controller,
    counterflow_pipeline,
    csc_arbiter,
    csc_conflict_example,
    figure4_example,
    muller_pipeline,
    paper_example,
    parallel_handshake,
    sequential_controller,
    vme_bus_controller,
)
from .benchmarks import BenchmarkEntry, benchmark_by_name, example_suite, table1_suite

__all__ = [
    "Direction",
    "SignalError",
    "SignalTransition",
    "SignalType",
    "STG",
    "STGError",
    "InconsistentSTGError",
    "ParseError",
    "parse_g",
    "parse_g_file",
    "write_g",
    "write_g_file",
    "ConsistencyReport",
    "check_consistency",
    "choice_controller",
    "counterflow_pipeline",
    "csc_arbiter",
    "csc_conflict_example",
    "figure4_example",
    "muller_pipeline",
    "paper_example",
    "parallel_handshake",
    "sequential_controller",
    "vme_bus_controller",
    "BenchmarkEntry",
    "benchmark_by_name",
    "example_suite",
    "table1_suite",
]
