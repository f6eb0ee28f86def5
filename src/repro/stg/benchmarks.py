"""The Table 1 benchmark suite.

The paper evaluates the synthesis method on 21 standard asynchronous
controller benchmarks (Table 1).  The original ``.g`` files are not shipped
with the paper; as documented in DESIGN.md we substitute deterministic
synthetic handshake controllers whose *signal counts match the paper
exactly* (the "Sigs" column, total 228) and whose structure is
representative of the named controller class (fork/join handshakes,
sequencers, and one input-choice controller).  Every substituted entry is
flagged ``synthetic=True`` so reports can state the provenance.

The suite is the workload for experiment E1 (``repro-synth table1`` and the
``table1`` workload of ``e2ebench/run.py``) and for the ablation
experiments E4/E5.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from .generators import (
    choice_controller,
    csc_arbiter,
    csc_conflict_example,
    muller_pipeline,
    parallel_handshake,
    paper_example,
    figure4_example,
    sequential_controller,
    vme_bus_controller,
)
from .stg import STG

__all__ = ["BenchmarkEntry", "table1_suite", "benchmark_by_name", "example_suite"]


class BenchmarkEntry:
    """One row of the benchmark suite.

    Attributes
    ----------
    name:
        Benchmark name as it appears in Table 1 of the paper.
    expected_signals:
        The "Sigs" column of Table 1 (used to validate the stand-in).
    builder:
        Zero-argument callable returning the STG.
    synthetic:
        True when the STG is a synthetic stand-in rather than the original
        benchmark file.
    paper_literals:
        Literal count reported by the paper for the PUNT ACG implementation
        (the "LitCnt" column), used by EXPERIMENTS.md comparisons.
    paper_total_time:
        Total synthesis time (seconds) reported by the paper ("TotTim").
    csc_clean:
        False for specifications with CSC conflicts, which need the
        ``repro.encoding`` resolution pass before direct synthesis.
    """

    def __init__(
        self,
        name: str,
        expected_signals: int,
        builder: Callable[[], STG],
        synthetic: bool = True,
        paper_literals: Optional[int] = None,
        paper_total_time: Optional[float] = None,
        description: str = "",
        csc_clean: bool = True,
    ) -> None:
        self.name = name
        self.expected_signals = expected_signals
        self.builder = builder
        self.synthetic = synthetic
        self.paper_literals = paper_literals
        self.paper_total_time = paper_total_time
        self.description = description
        self.csc_clean = csc_clean

    def build(self) -> STG:
        """Instantiate the benchmark STG."""
        stg = self.builder()
        stg.name = self.name
        return stg

    def __repr__(self) -> str:
        return "BenchmarkEntry(%r, signals=%d, synthetic=%s)" % (
            self.name,
            self.expected_signals,
            self.synthetic,
        )


def _handshake(name: str, chains: Iterable[int]) -> Callable[[], STG]:
    chain_list = list(chains)

    def build() -> STG:
        return parallel_handshake(name, chain_list)

    return build


def _sequencer(name: str, signals: int) -> Callable[[], STG]:
    def build() -> STG:
        return sequential_controller(name, signals)

    return build


def table1_suite() -> List[BenchmarkEntry]:
    """Return the 21 benchmarks of Table 1 (synthetic stand-ins).

    Signal counts match the paper's "Sigs" column benchmark by benchmark
    (total 228).  ``paper_literals`` / ``paper_total_time`` store the paper's
    reported PUNT-ACG numbers so the harness can print paper-vs-measured.
    """
    rows = [
        # (name, sigs, builder, paper literals, paper total time)
        ("imec-master-read.csc", 18, _handshake("imec-master-read.csc", [6, 5, 5]), 83, 77.00),
        ("nowick.asn", 7, _handshake("nowick.asn", [3, 2]), 17, 0.97),
        ("nowick", 6, _handshake("nowick", [2, 2]), 15, 0.57),
        ("par_4.csc", 14, _handshake("par_4.csc", [3, 3, 3, 3]), 36, 3.63),
        ("sis-master-read.csc", 14, _handshake("sis-master-read.csc", [4, 4, 4]), 48, 5.78),
        ("tsbmSIBRK", 25, _handshake("tsbmSIBRK", [8, 8, 7]), 72, 42.70),
        ("pn_stg_example", 6, _handshake("pn_stg_example", [2, 2]), 19, 1.77),
        ("forever_ordered", 8, _sequencer("forever_ordered", 8), 20, 1.46),
        ("alloc-outbound", 9, _handshake("alloc-outbound", [4, 3]), 16, 0.85),
        ("mp-forward-pkt", 20, _handshake("mp-forward-pkt", [6, 6, 6]), 17, 0.83),
        ("nak-pa", 10, _handshake("nak-pa", [4, 4]), 20, 0.96),
        ("pe-send-ifc", 17, _handshake("pe-send-ifc", [5, 5, 5]), 68, 2.53),
        ("ram-read-sbuf", 11, _handshake("ram-read-sbuf", [5, 4]), 25, 1.08),
        ("rcv-setup", 5, _sequencer("rcv-setup", 5), 8, 0.25),
        ("sbuf-ram-write", 12, _handshake("sbuf-ram-write", [5, 5]), 23, 1.48),
        ("sbuf-read-ctl.old", 8, _handshake("sbuf-read-ctl.old", [3, 3]), 15, 0.86),
        ("sbuf-read-ctl", 8, _handshake("sbuf-read-ctl", [4, 2]), 15, 0.71),
        ("sbuf-send-ctl", 8, _handshake("sbuf-send-ctl", [2, 2, 2]), 19, 0.88),
        ("sbuf-send-pkt2", 9, _handshake("sbuf-send-pkt2", [4, 3]), 19, 0.99),
        ("sbuf-send-pkt2.yun", 9, _handshake("sbuf-send-pkt2.yun", [3, 2, 2]), 31, 1.07),
        ("sendr-done", 4, _sequencer("sendr-done", 4), 6, 0.23),
    ]
    entries = []
    for name, signals, builder, literals, total_time in rows:
        entries.append(
            BenchmarkEntry(
                name=name,
                expected_signals=signals,
                builder=builder,
                synthetic=True,
                paper_literals=literals,
                paper_total_time=total_time,
                description="synthetic stand-in matched to the paper's signal count",
            )
        )
    return entries


def example_suite() -> List[BenchmarkEntry]:
    """Small hand-written examples (not Table 1 rows) used across tests."""
    return [
        BenchmarkEntry(
            "paper_example",
            3,
            paper_example,
            synthetic=False,
            description="Figure 1 worked example (C_On(b) = a + c)",
        ),
        BenchmarkEntry(
            "figure4_example",
            7,
            figure4_example,
            synthetic=False,
            description="Figure 4 style fork/join approximation example",
        ),
        BenchmarkEntry(
            "choice_controller",
            5,
            choice_controller,
            synthetic=False,
            description="input-choice controller (non-marked-graph)",
        ),
        BenchmarkEntry(
            "csc_conflict",
            3,
            csc_conflict_example,
            synthetic=False,
            description="smallest CSC-conflicting STG (needs one state signal)",
            csc_clean=False,
        ),
        BenchmarkEntry(
            "vme_read",
            5,
            vme_bus_controller,
            synthetic=False,
            description="VME-bus read-cycle controller (classic CSC conflict)",
            csc_clean=False,
        ),
        BenchmarkEntry(
            "csc_arbiter_4",
            5,
            lambda: csc_arbiter(4),
            synthetic=False,
            description="4-client round-robin arbiter (4-way CSC conflict core)",
            csc_clean=False,
        ),
        BenchmarkEntry(
            "csc_arbiter_8",
            9,
            lambda: csc_arbiter(8),
            synthetic=False,
            description="8-client round-robin arbiter (8-way CSC conflict core)",
            csc_clean=False,
        ),
    ]


def benchmark_by_name(name: str) -> BenchmarkEntry:
    """Look up a benchmark (Table 1 rows plus the hand-written examples).

    Parameterised generator families are resolved dynamically:
    ``muller_pipeline_N`` and ``csc_arbiter_N`` (any positive ``N``) build
    the corresponding scalable specification, so CLI smoke tests can
    address sizes like ``muller_pipeline_16`` -- far beyond the default
    explicit enumeration budget, but routine for the symbolic engine --
    without a static suite entry per size.
    """
    for entry in table1_suite() + example_suite():
        if entry.name == name:
            return entry
    for prefix, family, signals_of in (
        ("muller_pipeline_", muller_pipeline, lambda n: n + 2),
        ("csc_arbiter_", csc_arbiter, lambda n: n + 1),
    ):
        if name.startswith(prefix):
            try:
                size = int(name[len(prefix):])
            except ValueError:
                break
            if size > 0:
                return BenchmarkEntry(
                    name,
                    signals_of(size),
                    lambda family=family, size=size: family(size),
                    synthetic=False,
                    description="parameterised %s family member" % prefix.rstrip("_"),
                    csc_clean=family is muller_pipeline,
                )
    raise KeyError("unknown benchmark %r" % name)
