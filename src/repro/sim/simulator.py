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

The search is event-driven.  The code is one int (bit ``i`` = signal
``i``), the tracked set is a frozenset of marking bitmasks, and each queued
state carries its excitation as two masks (see :mod:`repro.sim.gates`):
``excited`` and the set/reset ``conflicts``.  Firing a signal flips its bit
and re-evaluates only the gates that read it; the masks are a function of
the code alone, so each code's are computed once per exploration and
looked up for every other event that enters it.  The persistence check is
one AND: ``excited & ~fired & ~new_excited`` are the excitations the event
disabled (an excited gate's target is the complement of its own bit, which
only its own firing changes).  The specification side is the spec's shared
:class:`~repro.sim.environment.SpecEnvironment`, so a second simulation of
the same spec finds its moves tabulated.  Events are offered in a fixed
order: gate events by signal name, then input changes by
``(signal, target)``; the hazards of one fired event are reported in
``stg.implementable_signals`` order.  A specification net outside the
safe, weight-1 class raises :class:`~repro.core.UnsafeNetError` when the
environment compiles it, and a reachable unsafe firing raises it during
the search.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

from ..core import unpack_code
from ..petrinet import StateSpaceLimitExceeded
from ..stg import STG
from .environment import PackedTracked, SpecEnvironment
from .gates import CircuitModel
from .hazards import ConformanceViolation, Deadlock, Hazard

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (synthesis -> sim)
    from ..synthesis.netlist import Implementation

__all__ = [
    "ExplorationResult",
    "Simulator",
    "fireable_events",
]

#: A fireable event: ``(signal, target_value, bit, is_gate)``.
Event = Tuple[str, int, int, bool]


def fireable_events(
    circuit: CircuitModel,
    environment: SpecEnvironment,
    word: int,
    tracked: PackedTracked,
    excited: int,
) -> List[Event]:
    """All events fireable in a closed-loop state, deterministically ordered.

    Gate events come first, by signal name, each driving its signal to the
    complement of its bit; input changes the specification offers and the
    code allows follow, by ``(signal, target)``.  Shared by the exhaustive
    simulator and the random walker so the two engines agree on the
    speed-independent firing rule.
    """
    events = [
        (signal, 0 if word & bit else 1, bit, True)
        for bit, signal in circuit.gates_by_name
        if excited & bit
    ]
    for signal, target, bit, required in environment.input_changes_packed(tracked):
        if word & bit == required:
            events.append((signal, target, bit, False))
    return events


def change_label(signal: str, target_value: int) -> str:
    """The usual label of a signal change (``a+`` / ``a-``)."""
    return "%s%s" % (signal, "+" if target_value else "-")


class ExplorationResult:
    """Outcome of an exhaustive closed-loop exploration.

    ``gate_evaluations`` counts the gates evaluated to keep the excitation
    masks: every gate once for the initial code, then the fired signal's
    fanout once for each other code the exploration enters.  An event
    entering a code already evaluated (a new state or a persistence check
    alike) reuses its masks and evaluates nothing.
    """

    def __init__(self, stg_name: str, architecture: str) -> None:
        self.stg_name = stg_name
        self.architecture = architecture
        self.num_states = 0
        self.num_events_fired = 0
        self.gate_evaluations = 0
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
        self.environment = SpecEnvironment.of(stg)

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
        start_time = time.perf_counter()
        result = ExplorationResult(self.stg.name, self.implementation.architecture)
        circuit = self.circuit
        environment = self.environment
        advance = environment.advance_packed
        update = circuit.update
        nsignals = len(circuit.signals)

        word = circuit.initial_packed_code()
        tracked = environment.initial_states_packed()
        excited, conflicts = circuit.excitation(word)
        evaluations = len(circuit.gates)
        # code -> (excited, conflicts): the masks depend on the code alone.
        masks = {word: (excited, conflicts)}
        num_states = 0
        num_fired = 0
        seen = {(word, tracked)}
        queue = deque([(word, tracked, excited, conflicts)])
        hazards = result.hazards
        hazard_seen: Set[Hazard] = set()
        violation_seen: Set[ConformanceViolation] = set()

        def report(hazard: Hazard) -> None:
            if hazard not in hazard_seen and len(hazards) < max_reports:
                hazard_seen.add(hazard)
                hazards.append(hazard)

        while queue:
            word, tracked, excited, conflicts = queue.popleft()
            num_states += 1

            if conflicts:
                code = unpack_code(word, nsignals)
                for signal in circuit.gate_signals(conflicts):
                    report(Hazard("drive-conflict", signal, code))

            events = fireable_events(circuit, environment, word, tracked, excited)
            if not events:
                # A circuit that stops where its spec stops has terminated;
                # it deadlocks only if the spec could still move.
                if (
                    environment.enabled_changes_packed(tracked)
                    and len(result.deadlocks) < max_reports
                ):
                    result.deadlocks.append(Deadlock(unpack_code(word, nsignals)))
                continue

            for signal, target_value, bit, is_gate in events:
                new_tracked = advance(tracked, signal, target_value)
                num_fired += 1

                if is_gate and not new_tracked:
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

                # The successor's masks are needed to queue it, and for the
                # persistence check when other gates were excited.
                new_word = word ^ bit
                successor = (new_word, new_tracked)
                fresh = successor not in seen
                others = excited & ~bit
                if not (fresh or others):
                    continue
                known = masks.get(new_word)
                if known is None:
                    # Gates outside the fired signal's fanout do not read
                    # its bit, so this is the whole excitation of new_word.
                    new_excited, new_conflicts, evaluated = update(
                        new_word, bit, excited, conflicts
                    )
                    evaluations += evaluated
                    masks[new_word] = (new_excited, new_conflicts)
                else:
                    new_excited, new_conflicts = known

                # Persistence check (semi-modularity): every *other* excited
                # gate must still be excited after the fired event, otherwise
                # the circuit can glitch.
                disabled = others & ~new_excited
                if disabled:
                    code = unpack_code(word, nsignals)
                    label = change_label(signal, target_value)
                    for other in circuit.gate_signals(disabled):
                        report(Hazard("non-persistent", other, code, label))

                if fresh:
                    if max_states is not None and len(seen) >= max_states:
                        if raise_on_limit:
                            raise StateSpaceLimitExceeded(max_states)
                        result.truncated = True
                        continue
                    seen.add(successor)
                    queue.append((new_word, new_tracked, new_excited, new_conflicts))

        result.num_states = num_states
        result.num_events_fired = num_fired
        result.gate_evaluations = evaluations
        result.elapsed = time.perf_counter() - start_time
        return result
