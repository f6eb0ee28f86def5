"""Seeded random-walk trace engine for long-run smoke simulation.

Exhaustive exploration is infeasible for large, highly concurrent circuits
(Muller pipelines, the counterflow stand-in): the number of closed-loop
states grows exponentially with the number of stages.  The random walker
executes a *single* interleaving instead -- at every step one enabled event
is drawn from a deterministic, seeded pseudo-random stream -- while still
performing the per-step hazard and conformance checks of the exhaustive
simulator.  Long walks therefore act as statistical smoke tests: they cannot
prove hazard-freedom, but they demonstrate live, conformant operation over
millions of events and reliably catch gross defects.

The walker plays the exhaustive simulator's packed game and firing rule: a
step draws from :func:`~repro.sim.simulator.fireable_events`, flips one bit
of the packed code, advances the specification's tracked markings and
re-evaluates only the fired signal's fanout.  Trace steps and anomaly
records still carry tuple codes.

Determinism: two walks with the same specification, implementation, seed and
step budget produce byte-for-byte identical traces, which makes failures
replayable from just ``(benchmark, architecture, seed)``.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, List, Tuple

from ..core import unpack_code
from ..stg import STG
from .environment import SpecEnvironment
from .gates import CircuitModel
from .hazards import ConformanceViolation, Hazard
from .simulator import change_label, fireable_events

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (synthesis -> sim)
    from ..synthesis.netlist import Implementation

__all__ = ["TraceStep", "Trace", "RandomWalker"]


class TraceStep:
    """One fired event of a walk."""

    __slots__ = ("kind", "signal", "target_value", "code")

    def __init__(self, kind: str, signal: str, target_value: int, code: Tuple[int, ...]) -> None:
        self.kind = kind
        self.signal = signal
        self.target_value = target_value
        self.code = code

    @property
    def label(self) -> str:
        return "%s%s" % (self.signal, "+" if self.target_value else "-")

    def __repr__(self) -> str:
        return "TraceStep(%s %s)" % (self.kind, self.label)


class Trace:
    """Result of one random walk."""

    def __init__(self, stg_name: str, architecture: str, seed: int) -> None:
        self.stg_name = stg_name
        self.architecture = architecture
        self.seed = seed
        self.steps: List[TraceStep] = []
        self.hazards: List[Hazard] = []
        self.violations: List[ConformanceViolation] = []
        self.deadlocked = False
        self.elapsed = 0.0

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def ok(self) -> bool:
        return not self.hazards and not self.violations and not self.deadlocked

    @property
    def steps_per_second(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.num_steps / self.elapsed

    def labels(self) -> List[str]:
        """The trace as a list of signal-change labels (``a+ b+ a- ...``)."""
        return [step.label for step in self.steps]

    def __repr__(self) -> str:
        return "Trace(%r, %s, seed=%d, steps=%d, ok=%s)" % (
            self.stg_name,
            self.architecture,
            self.seed,
            self.num_steps,
            self.ok,
        )


class RandomWalker:
    """Deterministic seeded random-walk executor.

    The walk plays the exhaustive simulator's packed game: it draws from the
    events of :func:`~repro.sim.simulator.fireable_events`, keeps the
    excitation masks incrementally with :meth:`CircuitModel.update
    <repro.sim.gates.CircuitModel.update>` and checks persistence by mask.
    The hazards of one step are reported in gate order, as the explorer
    reports those of one fired event.
    """

    def __init__(self, stg: STG, implementation: "Implementation", seed: int = 0) -> None:
        self.stg = stg
        self.implementation = implementation
        self.seed = seed
        self.circuit = CircuitModel(stg, implementation)
        self.environment = SpecEnvironment.of(stg)

    def run(self, steps: int = 1000, max_reports: int = 25, stop_on_anomaly: bool = False) -> Trace:
        """Walk up to ``steps`` events from the initial state.

        The walk ends early when no event is enabled (a deadlock unless the
        specification has stopped too), on leaving the specification (a
        conformance violation makes further spec tracking meaningless) or --
        with ``stop_on_anomaly`` -- on the first hazard.
        """
        start_time = time.perf_counter()
        rng = random.Random(self.seed)
        trace = Trace(self.stg.name, self.implementation.architecture, self.seed)
        circuit = self.circuit
        environment = self.environment
        nsignals = len(circuit.signals)

        word = circuit.initial_packed_code()
        tracked = environment.initial_states_packed()
        excited, conflicts = circuit.excitation(word)

        hazard_seen = set()

        def report_hazard(hazard: Hazard) -> None:
            if hazard not in hazard_seen and len(trace.hazards) < max_reports:
                hazard_seen.add(hazard)
                trace.hazards.append(hazard)

        for _step in range(steps):
            code = unpack_code(word, nsignals)
            if conflicts:
                for signal in circuit.gate_signals(conflicts):
                    report_hazard(Hazard("drive-conflict", signal, code))

            events = fireable_events(circuit, environment, word, tracked, excited)
            if not events:
                trace.deadlocked = bool(environment.enabled_changes_packed(tracked))
                break
            if stop_on_anomaly and not trace.ok:
                break

            signal, target_value, bit, is_gate = events[rng.randrange(len(events))]
            new_tracked = environment.advance_packed(tracked, signal, target_value)
            trace.steps.append(
                TraceStep("gate" if is_gate else "input", signal, target_value, code)
            )

            if is_gate and not new_tracked:
                if len(trace.violations) < max_reports:
                    trace.violations.append(
                        ConformanceViolation(signal, target_value, code)
                    )
                break

            word ^= bit
            new_excited, conflicts, _evaluated = circuit.update(
                word, bit, excited, conflicts
            )
            disabled = excited & ~bit & ~new_excited
            if disabled:
                label = change_label(signal, target_value)
                for other in circuit.gate_signals(disabled):
                    report_hazard(Hazard("non-persistent", other, code, label))

            tracked, excited = new_tracked, new_excited

        trace.elapsed = time.perf_counter() - start_time
        return trace
