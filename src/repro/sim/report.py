"""High-level simulation entry points and aggregate reports.

This is the API the CLI, the experiment harnesses and the test-suite use:

* :func:`simulate_implementation` -- exhaustively verify one synthesised
  implementation against its specification (hazard-freedom + conformance);
* :func:`random_walk_trace` -- run a seeded random walk over one
  implementation (smoke simulation for circuits too large to enumerate);
* :func:`simulate_spec` -- the full synthesize-and-simulate loop: synthesise
  a specification with each requested architecture and verify every result,
  returning one :class:`SimulationReport` per architecture.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from ..obs import current_tracer
from ..stg import STG
from .random_walk import RandomWalker, Trace
from .simulator import ExplorationResult, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (synthesis -> sim)
    from ..synthesis.netlist import Implementation

__all__ = [
    "SimulationReport",
    "simulate_implementation",
    "random_walk_trace",
    "simulate_spec",
    "ARCHITECTURES",
]

ARCHITECTURES = ("acg", "c-element", "rs-latch")


class SimulationReport:
    """Verdict for one architecture of one specification."""

    def __init__(
        self,
        stg_name: str,
        architecture: str,
        exploration: Optional[ExplorationResult] = None,
        walk: Optional[Trace] = None,
        csc_conflicts: Sequence[str] = (),
    ) -> None:
        self.stg_name = stg_name
        self.architecture = architecture
        self.exploration = exploration
        self.walk = walk
        self.csc_conflicts = list(csc_conflicts)

    @property
    def skipped(self) -> bool:
        """True when CSC conflicts made the implementation unexecutable."""
        return bool(self.csc_conflicts)

    @property
    def ok(self) -> bool:
        if self.skipped:
            return False
        if self.exploration is not None and not self.exploration.ok:
            return False
        if self.walk is not None and not self.walk.ok:
            return False
        return True

    def verdict(self) -> str:
        if self.skipped:
            return "csc-conflict"
        if self.exploration is not None and self.exploration.verdict() != "ok":
            verdict = self.exploration.verdict()
            if verdict != "ok(truncated)" or self.walk is None or not self.walk.ok:
                return verdict
        if self.walk is not None and not self.walk.ok:
            if self.walk.hazards:
                return "hazard"
            if self.walk.violations:
                return "non-conformant"
            return "deadlock"
        return "ok"

    def row(self) -> dict:
        """Flat dictionary for ``format_table`` style reporting."""
        row = {
            "benchmark": self.stg_name,
            "architecture": self.architecture,
            "verdict": self.verdict(),
            "states": self.exploration.num_states if self.exploration else None,
            "hazards": len(self.exploration.hazards) if self.exploration else None,
            "violations": len(self.exploration.violations) if self.exploration else None,
        }
        if self.walk is not None:
            row["walk_steps"] = self.walk.num_steps
        return row

    def describe(self) -> List[str]:
        """Anomaly detail lines (empty when everything is fine)."""
        lines: List[str] = []
        if self.skipped:
            lines.append(
                "CSC conflicts on %s: no speed-independent implementation to simulate"
                % ", ".join(sorted(self.csc_conflicts))
            )
        if self.exploration is not None:
            lines.extend(self.exploration.describe())
        if self.walk is not None:
            lines.extend(h.describe() for h in self.walk.hazards)
            lines.extend(v.describe() for v in self.walk.violations)
            if self.walk.deadlocked:
                lines.append("random walk deadlocked after %d steps" % self.walk.num_steps)
        return lines

    def __repr__(self) -> str:
        return "SimulationReport(%r, %s, verdict=%s)" % (
            self.stg_name,
            self.architecture,
            self.verdict(),
        )


def simulate_implementation(
    stg: STG,
    implementation: "Implementation",
    max_states: Optional[int] = 100000,
    max_reports: int = 25,
) -> ExplorationResult:
    """Exhaustively verify an implementation against its specification.

    Explores every interleaving of the closed circuit/environment loop and
    reports hazards (non-persistent excitations, drive conflicts),
    conformance violations and deadlocks.  See :class:`~repro.sim.simulator.Simulator`.
    The ``conformance`` span's ``markings_tabulated`` counts the spec
    markings this call added to the spec's shared move table.
    """
    with current_tracer().span("conformance", stg=stg.name) as span:
        simulator = Simulator(stg, implementation)
        tabulated = simulator.environment.num_tabulated
        result = simulator.explore(max_states=max_states, max_reports=max_reports)
        if span.live:
            span.gauge("sim_states", result.num_states)
            span.gauge("events_fired", result.num_events_fired)
            span.gauge("gate_evaluations", result.gate_evaluations)
            span.gauge(
                "markings_tabulated",
                simulator.environment.num_tabulated - tabulated,
            )
            span.gauge("ok", result.ok)
    return result


def random_walk_trace(
    stg: STG,
    implementation: "Implementation",
    steps: int = 1000,
    seed: int = 0,
    max_reports: int = 25,
) -> Trace:
    """Run one seeded random walk over an implementation (smoke simulation)."""
    walker = RandomWalker(stg, implementation, seed=seed)
    return walker.run(steps=steps, max_reports=max_reports)


def simulate_spec(
    stg: STG,
    method: str = "unfolding-approx",
    architectures: Sequence[str] = ARCHITECTURES,
    max_states: Optional[int] = 100000,
    walk_steps: int = 0,
    seed: int = 0,
) -> List[SimulationReport]:
    """Synthesise and verify a specification for each requested architecture.

    Architectures whose synthesis hits CSC conflicts are reported as skipped
    (``verdict == "csc-conflict"``) rather than raising, so benchmark sweeps
    can include unimplementable specifications.  The approximate unfolding
    flow only produces atomic complex gates, so for the memory-element
    architectures it is transparently swapped for the exact flow.
    """
    from ..synthesis import synthesize

    reports: List[SimulationReport] = []
    for architecture in architectures:
        arch_method = method
        if method == "unfolding-approx" and architecture != "acg":
            arch_method = "unfolding-exact"
        result = synthesize(stg, method=arch_method, architecture=architecture)
        implementation = result.implementation
        if implementation.has_csc_conflict:
            reports.append(
                SimulationReport(
                    stg.name,
                    architecture,
                    csc_conflicts=implementation.csc_conflicts,
                )
            )
            continue
        exploration = simulate_implementation(stg, implementation, max_states=max_states)
        walk = None
        if walk_steps > 0:
            walk = random_walk_trace(stg, implementation, steps=walk_steps, seed=seed)
        reports.append(SimulationReport(stg.name, architecture, exploration, walk))
    return reports
