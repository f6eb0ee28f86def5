"""Event-driven speed-independent simulation and conformance verification.

The :mod:`repro.sim` subsystem closes the synthesize->verify loop: it
*executes* a synthesised :class:`~repro.synthesis.netlist.Implementation`
(any of the three architectures) under speed-independent semantics -- any
excited gate may fire in any order -- against an environment that behaves
exactly as the STG specification allows.

Three engines are provided:

* :class:`Simulator` / :func:`simulate_implementation` -- exhaustive
  exploration of every interleaving, detecting hazards (non-persistent gate
  excitations, set/reset drive conflicts), conformance violations (output
  changes the specification forbids) and deadlocks;
* :class:`RandomWalker` / :func:`random_walk_trace` -- deterministic seeded
  random walks for long-run smoke simulation of circuits too large to
  enumerate (Muller pipelines, the counterflow stand-in);
* :func:`simulate_spec` -- the full synthesize-and-simulate sweep over all
  architectures, as used by ``repro-synth simulate``.

The explorer and the walker play one packed game and share one firing rule
(:func:`~repro.sim.simulator.fireable_events`).  Both are event-driven: a
closed-loop state carries its excitation as a bitmask, and firing a signal
re-evaluates only the gates that read it (:class:`CircuitModel`), while the
specification side looks each observed change up in per-marking move tables
(:class:`SpecEnvironment`), one set of tables per spec.
"""

from .hazards import ConformanceViolation, Deadlock, Hazard, format_code
from .gates import CircuitModel
from .environment import SpecEnvironment
from .simulator import ExplorationResult, Simulator
from .random_walk import RandomWalker, Trace, TraceStep
from .report import (
    ARCHITECTURES,
    SimulationReport,
    random_walk_trace,
    simulate_implementation,
    simulate_spec,
)

__all__ = [
    "ConformanceViolation",
    "Deadlock",
    "Hazard",
    "format_code",
    "CircuitModel",
    "SpecEnvironment",
    "ExplorationResult",
    "Simulator",
    "RandomWalker",
    "Trace",
    "TraceStep",
    "ARCHITECTURES",
    "SimulationReport",
    "random_walk_trace",
    "simulate_implementation",
    "simulate_spec",
]
