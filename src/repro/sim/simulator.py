"""Event-driven exhaustive exploration of the closed circuit/environment loop.

The simulator executes a synthesised implementation under the
speed-independent firing rule -- *any* excited gate (and any input change the
specification's environment offers) may fire next, in any order -- and
explores every reachable interleaving.  Along the way it checks the two
properties the static cover checks cannot demonstrate:

* **hazard-freedom** (semi-modularity of the implementation): an excited
  gate must stay excited until it fires; an excitation disabled by another
  event is a potential glitch in a real circuit and is reported as a
  :class:`~repro.sim.hazards.Hazard`;
* **conformance**: every output change the circuit produces must be allowed
  by the specification in the current game state, otherwise a
  :class:`~repro.sim.hazards.ConformanceViolation` is reported.

A closed-loop state is a pair ``(code, tracked)`` of the circuit's binary
code and the set of specification markings consistent with the trace; the
exploration is a plain breadth-first search over those pairs with an
optional state budget for the experiment harnesses.

The search runs on packed states: the code is one int (bit ``i`` = signal
``i``), the tracked set is a frozenset of marking bitmasks, and gates are
evaluated on mask pairs compiled into the global signal space.  A
specification net outside the safe, weight-1 class raises
:class:`~repro.core.UnsafeNetError` when the environment compiles it, and a
reachable unsafe firing raises it during the search.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..core import unpack_code
from ..petrinet import StateSpaceLimitExceeded
from ..stg import STG
from .environment import SpecEnvironment, TrackedStates
from .gates import CircuitModel
from .hazards import ConformanceViolation, Deadlock, Hazard

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (synthesis -> sim)
    from ..synthesis.netlist import Implementation

__all__ = [
    "SimEvent",
    "ExplorationResult",
    "Simulator",
    "enabled_events",
    "disabled_excitations",
]


class SimEvent:
    """One fireable event of the closed loop.

    ``kind`` is ``"gate"`` for a circuit-driven change (output/internal
    signal settling to its excitation target) and ``"input"`` for an
    environment-driven change allowed by the specification.
    """

    __slots__ = ("kind", "signal", "target_value")

    def __init__(self, kind: str, signal: str, target_value: int) -> None:
        self.kind = kind
        self.signal = signal
        self.target_value = target_value

    @property
    def label(self) -> str:
        return "%s%s" % (self.signal, "+" if self.target_value else "-")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimEvent):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.signal == other.signal
            and self.target_value == other.target_value
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.signal, self.target_value))

    def __repr__(self) -> str:
        return "SimEvent(%s %s)" % (self.kind, self.label)


def enabled_events(
    circuit: CircuitModel,
    environment: SpecEnvironment,
    code: Tuple[int, ...],
    tracked: TrackedStates,
) -> List[SimEvent]:
    """All events fireable in a closed-loop state, deterministically ordered.

    Shared by the exhaustive simulator and the random walker so the two
    engines agree on the speed-independent firing rule.
    """
    events = [
        SimEvent("gate", signal, target)
        for signal, target in sorted(circuit.excitation(code).items())
    ]
    events.extend(
        SimEvent("input", signal, target)
        for signal, target in environment.enabled_input_changes(tracked, code)
    )
    return events


def disabled_excitations(
    excitation: Dict[str, int],
    new_excitation: Dict[str, int],
    fired_signal: str,
) -> List[Tuple[str, int]]:
    """Gate excitations that firing another event removed (persistence check).

    Semi-modularity requires every excited gate other than the fired one to
    stay excited towards the same value; each ``(signal, target)`` returned
    is a potential glitch.
    """
    return [
        (signal, target)
        for signal, target in excitation.items()
        if signal != fired_signal and new_excitation.get(signal) != target
    ]


class ExplorationResult:
    """Outcome of an exhaustive closed-loop exploration."""

    def __init__(self, stg_name: str, architecture: str) -> None:
        self.stg_name = stg_name
        self.architecture = architecture
        self.num_states = 0
        self.num_events_fired = 0
        self.hazards: List[Hazard] = []
        self.violations: List[ConformanceViolation] = []
        self.deadlocks: List[Deadlock] = []
        self.truncated = False
        self.elapsed = 0.0

    @property
    def hazard_free(self) -> bool:
        return not self.hazards

    @property
    def conformant(self) -> bool:
        return not self.violations

    @property
    def ok(self) -> bool:
        return self.hazard_free and self.conformant and not self.deadlocks

    @property
    def states_per_second(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.num_states / self.elapsed

    def verdict(self) -> str:
        """One-word summary for report tables."""
        if self.hazards:
            return "hazard"
        if self.violations:
            return "non-conformant"
        if self.deadlocks:
            return "deadlock"
        if self.truncated:
            return "ok(truncated)"
        return "ok"

    def describe(self) -> List[str]:
        """Human-readable lines for every anomaly found."""
        lines = [h.describe() for h in self.hazards]
        lines += [v.describe() for v in self.violations]
        lines += [d.describe() for d in self.deadlocks]
        return lines

    def __repr__(self) -> str:
        return "ExplorationResult(%r, %s, states=%d, verdict=%s)" % (
            self.stg_name,
            self.architecture,
            self.num_states,
            self.verdict(),
        )


class Simulator:
    """Exhaustive event-driven simulator for one implementation.

    Parameters
    ----------
    stg:
        The specification the circuit is verified against (also supplies the
        signal order and initial state).
    implementation:
        The synthesised gate-level implementation to execute.
    """

    def __init__(self, stg: STG, implementation: "Implementation") -> None:
        self.stg = stg
        self.implementation = implementation
        self.circuit = CircuitModel(stg, implementation)
        self.environment = SpecEnvironment(stg)

    # ------------------------------------------------------------------ #
    # Event computation
    # ------------------------------------------------------------------ #
    def enabled_events(
        self, code: Tuple[int, ...], tracked: TrackedStates
    ) -> List[SimEvent]:
        """All events fireable in a closed-loop state, deterministically ordered."""
        return enabled_events(self.circuit, self.environment, code, tracked)

    # ------------------------------------------------------------------ #
    # Exploration
    # ------------------------------------------------------------------ #
    def explore(
        self,
        max_states: Optional[int] = 100000,
        max_reports: int = 25,
        raise_on_limit: bool = False,
    ) -> ExplorationResult:
        """Breadth-first exploration of every reachable interleaving.

        ``max_states`` bounds the number of distinct closed-loop states; when
        the budget is hit the result is flagged ``truncated`` (or
        :class:`StateSpaceLimitExceeded` is raised with ``raise_on_limit``).
        ``max_reports`` caps each anomaly list so a broken gate on a large
        circuit does not produce millions of identical records.
        """
        import time

        start_time = time.perf_counter()
        result = ExplorationResult(self.stg.name, self.implementation.architecture)
        circuit = self.circuit
        environment = self.environment
        nsignals = len(circuit.signals)

        initial = (circuit.initial_packed_code(), environment.initial_states_packed())
        seen = {initial}
        queue = deque([initial])
        hazard_seen: Set[Hazard] = set()
        violation_seen: Set[ConformanceViolation] = set()

        while queue:
            word, tracked = queue.popleft()
            result.num_states += 1

            for signal in circuit.drive_conflicts_packed(word):
                hazard = Hazard("drive-conflict", signal, unpack_code(word, nsignals))
                if hazard not in hazard_seen and len(result.hazards) < max_reports:
                    hazard_seen.add(hazard)
                    result.hazards.append(hazard)

            excitation = circuit.excitation_packed(word)
            events = [("gate", signal, target) for signal, target in sorted(excitation.items())]
            events.extend(
                ("input", signal, target)
                for signal, target in environment.enabled_input_changes_packed(
                    tracked, word
                )
            )
            if not events:
                # A circuit that stops where its spec stops has terminated;
                # it deadlocks only if the spec could still move.
                if (
                    environment.enabled_changes_packed(tracked)
                    and len(result.deadlocks) < max_reports
                ):
                    result.deadlocks.append(Deadlock(unpack_code(word, nsignals)))
                continue

            num_gate_events = len(excitation)
            for kind, signal, target_value in events:
                new_word = circuit.fire_packed(word, signal, target_value)
                new_tracked = environment.advance_packed(tracked, signal, target_value)
                result.num_events_fired += 1

                if kind == "gate" and not new_tracked:
                    violation = ConformanceViolation(
                        signal, target_value, unpack_code(word, nsignals)
                    )
                    if (
                        violation not in violation_seen
                        and len(result.violations) < max_reports
                    ):
                        violation_seen.add(violation)
                        result.violations.append(violation)
                    # The game has left the specification; exploring further
                    # along this branch would only compound the violation.
                    continue

                # Persistence check (semi-modularity): every *other* excited
                # gate must still be excited towards the same value after the
                # fired event, otherwise the circuit can glitch.  Skip the
                # excitation recomputation when no other gate was excited.
                if num_gate_events > (1 if kind == "gate" else 0):
                    new_excitation = circuit.excitation_packed(new_word)
                    for other, _target in disabled_excitations(
                        excitation, new_excitation, signal
                    ):
                        hazard = Hazard(
                            "non-persistent",
                            other,
                            unpack_code(word, nsignals),
                            "%s%s" % (signal, "+" if target_value else "-"),
                        )
                        if (
                            hazard not in hazard_seen
                            and len(result.hazards) < max_reports
                        ):
                            hazard_seen.add(hazard)
                            result.hazards.append(hazard)

                successor = (new_word, new_tracked)
                if successor not in seen:
                    if max_states is not None and len(seen) >= max_states:
                        if raise_on_limit:
                            raise StateSpaceLimitExceeded(max_states)
                        result.truncated = True
                        continue
                    seen.add(successor)
                    queue.append(successor)

        result.elapsed = time.perf_counter() - start_time
        return result
