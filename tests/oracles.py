"""Independent reference implementations the engines are checked against.

None of these shares code with the path it checks:

* :class:`OracleGraph` -- the State Graph from the dict-based token game
  of :func:`repro.petrinet.explore`, with every code replayed along the
  walk's edges by ``stg.next_code``;
* :func:`assert_same_graph` -- two State Graphs compared query by query
  (numbering, markings, codes, edge order, excitation masks, adjacency
  and the marking index), for the two backends of the explicit engine;
* :func:`reference_cut_walk` -- a breadth-first cut walk over a segment
  that scans every consumer of every condition of each cut;
* :func:`reference_conflict` -- conflict of two local configurations,
  tested on every condition both consume;
* :func:`reference_member_events`, :func:`reference_member_conditions` and
  the two ``reference_concurrent_signal_mask_*`` loops -- slice membership
  and in-slice concurrency, one member event at a time, in place of the
  segment's relation masks;
* :func:`reference_explore` and :func:`reference_walk` -- the closed-loop
  simulator and the random walker on tuple codes and dict-backed markings:
  :class:`ReferenceCircuit` evaluates every gate on every query through
  ``BooleanFunction.evaluate_vector`` (no masks, no fanout), and
  :class:`ReferenceEnvironment` plays the specification's token game on
  :class:`~repro.petrinet.Marking` objects (no move tables);
* :func:`reference_espresso` and its pieces -- the cover engine on Cube
  objects: the textbook unate recursions for tautology and complement, a
  sharp-based REDUCE, the sequential irredundant scan, the all-kept
  single-cube-containment scan and a scalar expand scan, plus the mask
  loops the bit-sliced primitives replaced: one cube's expansion scanned
  against every off cube (:func:`reference_expand_cube`) and irredundancy
  by per-point coverage counts (:func:`reference_irredundant_points`);
* :func:`reference_dc_set_cover` and :func:`reference_off_cover` -- the
  explicit engine's don't-care and off-set covers as complements of
  minterm lists, in place of prime expansion against bit slices;
* :class:`ReferenceBDD` and :func:`reference_isop` -- the recursive BDD
  operators and the Minato-Morreale walk through the ``_level_of`` /
  ``_cofactors`` helpers, which special-case the terminals by id, in place
  of the kernel's one read of each node tuple.  ``ReferenceBDD`` inherits
  the node store, hash-consing and the connective wrappers from
  :class:`repro.bdd.BDD`, so the two must build the same store node for
  node;
* :func:`reference_reachable_set` -- the symbolic fixed point as a
  level-group restart loop over whole-set images (one relational product
  and one update conjunction per transition), in place of node-wise
  saturation.
"""

import random
from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.bdd import BDD
from repro.bdd.reachability import _PLACE, _SIGNAL
from repro.boolean import Cover, Cube, MinimizationResult
from repro.core import iter_set_bits
from repro.petrinet import Marking, StateSpaceLimitExceeded, explore
from repro.sim import ExplorationResult, Trace, TraceStep
from repro.sim.hazards import ConformanceViolation, Deadlock, Hazard
from repro.stg.signals import Direction
from repro.unfolding import Cut, initial_cut


# ---------------------------------------------------------------------- #
# State Graph: dict token game plus code replay
# ---------------------------------------------------------------------- #
class OracleGraph:
    """The State Graph of an STG from the dict walker: markings, codes,
    edges and excitation masks.

    State ``i`` is the ``i``-th marking :func:`repro.petrinet.explore`
    discovers; ``excited_plus[i]`` / ``excited_minus[i]`` have bit ``k`` set
    when a rising / falling transition of signal ``k`` leaves the state.
    """

    def __init__(self, stg) -> None:
        if not stg.has_complete_initial_state():
            stg.infer_initial_state()
        self.stg = stg
        walk = explore(stg.net)
        self.markings = list(walk.markings)
        self.edges: List[Tuple[int, str, int]] = list(walk.edges)
        codes = [None] * walk.num_states
        codes[0] = tuple(stg.initial_code())
        self.excited_plus = [0] * walk.num_states
        self.excited_minus = [0] * walk.num_states
        # BFS discovers every state through an edge from an earlier one, so
        # replaying the edges in order always starts from a known code.
        for source, transition, target in self.edges:
            code = tuple(stg.next_code(codes[source], transition))
            if codes[target] is None:
                codes[target] = code
            assert codes[target] == code, "marking reached with two codes"
            label = stg.label_of(transition)
            if label is not None:
                bit = 1 << stg.signal_index(label.signal)
                if label.direction is Direction.PLUS:
                    self.excited_plus[source] |= bit
                else:
                    self.excited_minus[source] |= bit
        self.codes: List[Tuple[int, ...]] = codes

    @property
    def num_states(self) -> int:
        return len(self.markings)

    def regions(self, signal: str) -> Dict[str, Set[int]]:
        """Textbook regions of a signal, from edge labels and codes."""
        index = self.stg.signal_index(signal)
        er_plus: Set[int] = set()
        er_minus: Set[int] = set()
        for source, transition, _target in self.edges:
            label = self.stg.label_of(transition)
            if label is not None and label.signal == signal:
                (er_plus if label.direction is Direction.PLUS else er_minus).add(source)
        states = range(self.num_states)
        qr_high = {s for s in states if self.codes[s][index] == 1 and s not in er_minus}
        qr_low = {s for s in states if self.codes[s][index] == 0 and s not in er_plus}
        return {
            "er_plus": er_plus,
            "er_minus": er_minus,
            "on": er_plus | qr_high,
            "off": er_minus | qr_low,
        }

    def minterm_cubes(self, states) -> Set[Cube]:
        """The minterm cubes of the codes of some states."""
        return {Cube.from_assignment(self.codes[state]) for state in states}

    def coding_conflicts(self, csc: bool) -> List[Tuple[int, int]]:
        """Sorted state pairs sharing a code (USC), and for CSC also
        differing in the set of excited implementable signals."""
        implementable = set(self.stg.implementable_signals)
        excited: List[Set[str]] = [set() for _ in range(self.num_states)]
        for source, transition, _target in self.edges:
            label = self.stg.label_of(transition)
            if label is not None and label.signal in implementable:
                excited[source].add(label.signal)
        by_code: Dict[Tuple[int, ...], List[int]] = {}
        for state, code in enumerate(self.codes):
            by_code.setdefault(code, []).append(state)
        conflicts = []
        for states in by_code.values():
            for i, left in enumerate(states):
                for right in states[i + 1:]:
                    if not csc or excited[left] != excited[right]:
                        conflicts.append((left, right))
        return sorted(conflicts)


def assert_same_graph(graph, reference) -> None:
    """Assert that ``graph`` is ``reference``: the same state numbering,
    markings, codes, edge order, excitation masks, successors,
    predecessors and deadlocks, and ``index_of`` finds every marking."""
    assert graph.num_states == reference.num_states
    assert list(graph.packed_codes) == list(reference.packed_codes)
    assert list(graph.markings) == list(reference.markings)
    assert graph.num_edges == reference.num_edges
    assert list(graph.edges) == list(reference.edges)
    assert graph._excited_plus == reference._excited_plus
    assert graph._excited_minus == reference._excited_minus
    for state in range(reference.num_states):
        assert graph.successors(state) == reference.successors(state)
        assert graph.predecessors(state) == reference.predecessors(state)
    assert graph.deadlock_states() == reference.deadlock_states()
    for state, marking in enumerate(reference.markings):
        assert graph.index_of(marking) == state


# ---------------------------------------------------------------------- #
# Cut walk
# ---------------------------------------------------------------------- #
def reference_cut_walk(segment, allowed_events=None, start=None, dedup="state"):
    """Breadth-first cut walk that scans every consumer of every condition of
    each cut, firing an event only from its lowest preset condition.

    ``dedup="state"`` prunes on the packed ``(marking, code)`` pair,
    ``dedup="cut"`` on the condition mask (every cut is visited).
    """
    first = start if start is not None else initial_cut(segment)

    def key(cut):
        return cut.state_key if dedup == "state" else cut.condition_mask

    queue = deque([first])
    seen = {key(first)}
    while queue:
        cut = queue.popleft()
        yield cut
        for cid in iter_set_bits(cut.condition_mask):
            for event in segment.conditions[cid].consumers:
                if allowed_events is not None and event.eid not in allowed_events:
                    continue
                preset_mask = event.preset_mask
                if preset_mask & ((1 << cid) - 1):
                    continue
                if cut.condition_mask & preset_mask != preset_mask:
                    continue
                code_word = cut.code_word
                if event.signal_bit:
                    if event.target_value:
                        code_word |= event.signal_bit
                    else:
                        code_word &= ~event.signal_bit
                successor = Cut(
                    segment,
                    (cut.condition_mask & ~preset_mask) | event.postset_mask,
                    (cut.marking_word & ~event.preset_place_mask) | event.postset_place_mask,
                    code_word,
                )
                if key(successor) not in seen:
                    seen.add(key(successor))
                    queue.append(successor)


def every_cut_states(segment) -> Dict[int, int]:
    """``{marking_word: code_word}`` over every cut of the segment."""
    states: Dict[int, int] = {}
    for cut in reference_cut_walk(segment, dedup="cut"):
        code = states.setdefault(cut.marking_word, cut.code_word)
        assert code == cut.code_word, "marking recovered with two codes"
    return states


# ---------------------------------------------------------------------- #
# Conflict and slice membership, one event at a time
# ---------------------------------------------------------------------- #
def reference_conflict(net, left, right) -> bool:
    """Conflict of two local configurations, tested on every condition both
    consume: some such condition has different consumers on the two sides."""
    if left.eid == right.eid:
        return False
    shared = net.consumed_mask_of(left) & net.consumed_mask_of(right)
    left_config = net.ancestor_mask_of(left)
    right_config = net.ancestor_mask_of(right)
    for cid in iter_set_bits(shared):
        consumers = 0
        for event in net.conditions[cid].consumers:
            consumers |= 1 << event.eid
        if consumers & left_config != consumers & right_config:
            return True
    return False


def reference_member_events(slice_) -> list:
    """A slice's events: every event tested against the entry (causal past,
    conflict) and against each ``next`` instance (at or beyond it)."""
    segment = slice_.segment
    entry = slice_.entry
    members = []
    for event in segment.non_bottom_events():
        if event is entry:
            continue
        if not entry.is_bottom:
            if segment.strictly_precedes(event, entry):
                continue
            if reference_conflict(segment, event, entry):
                continue
        if any(
            boundary is event or segment.precedes(boundary, event)
            for boundary in slice_.next_events
        ):
            continue
        members.append(event)
    return members


def reference_member_conditions(slice_, members) -> list:
    """The postsets of the entry and of the members sequential to it, in
    the iteration order of the set of their ids."""
    segment = slice_.segment
    entry = slice_.entry
    member_event_ids = {event.eid for event in members}
    member_event_ids.add(entry.eid)
    conditions = []
    for event_id in member_event_ids:
        event = segment.events[event_id]
        if not entry.is_bottom and not segment.precedes(entry, event):
            continue
        conditions.extend(event.postset)
    return conditions


def reference_concurrent_signal_mask_with_event(segment, members, event) -> int:
    """Signals of the members concurrent with an event, by the event's co
    row, one member at a time."""
    mask = 0
    for other in members:
        if not other.signal_bit or other.signal_bit & mask:
            continue
        if segment.concurrent_events(event, other):
            mask |= other.signal_bit
    return mask


def reference_concurrent_signal_mask_with_condition(
    segment, members, condition, exclude_events=()
) -> int:
    """Signals of the members (but ``exclude_events``) concurrent with a
    condition, by each member's co row."""
    excluded = {event.eid for event in exclude_events}
    mask = 0
    bit = 1 << condition.cid
    for other in members:
        if not other.signal_bit or other.eid in excluded:
            continue
        if other.signal_bit & mask:
            continue
        if segment.event_co_mask(other) & bit:
            mask |= other.signal_bit
    return mask


# ---------------------------------------------------------------------- #
# Simulator: the tuple/dict closed-loop game
# ---------------------------------------------------------------------- #
TrackedStates = FrozenSet[Marking]


class ReferenceEnvironment:
    """The specification's token game on dict-backed markings.

    Markings are :class:`repro.petrinet.Marking` objects fired by the
    general net layer; a tracked set is the frozenset of markings consistent
    with the observed trace, closed under dummy firing.
    """

    def __init__(self, stg) -> None:
        self.stg = stg
        self.net = stg.net
        self.input_signals = frozenset(stg.input_signals)
        # marking -> [(signal, target_value, successor marking)] for labelled
        # transitions; successors through dummies are handled by the closure.
        self._labelled: Dict[Marking, List[Tuple[str, int, Marking]]] = {}
        self._dummy: Dict[Marking, List[Marking]] = {}

    def _expand(self, marking: Marking) -> None:
        if marking in self._labelled:
            return
        labelled: List[Tuple[str, int, Marking]] = []
        dummy: List[Marking] = []
        for transition in self.net.enabled_transitions(marking):
            label = self.stg.label_of(transition)
            successor = self.net.fire(marking, transition)
            if label is None:
                dummy.append(successor)
            else:
                labelled.append((label.signal, label.target_value, successor))
        self._labelled[marking] = labelled
        self._dummy[marking] = dummy

    def closure(self, markings) -> TrackedStates:
        """Close a set of markings under dummy-transition firing."""
        seen: Set[Marking] = set(markings)
        queue = deque(seen)
        while queue:
            marking = queue.popleft()
            self._expand(marking)
            for successor in self._dummy[marking]:
                if successor not in seen:
                    seen.add(successor)
                    queue.append(successor)
        return frozenset(seen)

    def initial_states(self) -> TrackedStates:
        return self.closure([self.net.initial_marking])

    def enabled_changes(self, tracked: TrackedStates) -> Set[Tuple[str, int]]:
        """All signal changes enabled in some tracked marking."""
        changes: Set[Tuple[str, int]] = set()
        for marking in tracked:
            self._expand(marking)
            for signal, target, _successor in self._labelled[marking]:
                changes.add((signal, target))
        return changes

    def enabled_input_changes(self, tracked: TrackedStates, code):
        """Input changes the environment may produce, consistent with ``code``."""
        allowed: List[Tuple[str, int]] = []
        for signal, target in sorted(self.enabled_changes(tracked)):
            if signal not in self.input_signals:
                continue
            if code[self.stg.signal_index(signal)] == 1 - target:
                allowed.append((signal, target))
        return allowed

    def advance(self, tracked: TrackedStates, signal: str, target_value: int):
        """Tracked set after observing one signal change (empty: not allowed)."""
        successors: Set[Marking] = set()
        for marking in tracked:
            self._expand(marking)
            for spec_signal, spec_target, successor in self._labelled[marking]:
                if spec_signal == signal and spec_target == target_value:
                    successors.add(successor)
        if not successors:
            return frozenset()
        return self.closure(successors)


class _ReferenceGate:
    """One gate evaluated on tuple codes through ``evaluate_vector``."""

    def __init__(self, signal, index, gate, permutation) -> None:
        self.signal = signal
        self.index = index
        self.function = gate.function
        self.set_function = gate.set_function
        self.reset_function = gate.reset_function
        self.permutation = permutation

    def _project(self, code):
        if self.permutation is None:
            return code
        return [code[i] for i in self.permutation]

    def evaluate(self, code) -> Tuple[Optional[int], bool]:
        """``(target_value, drive_conflict)``; the target is ``None`` when a
        memory element holds its value."""
        vector = self._project(code)
        if self.function is not None:
            return (1 if self.function.evaluate_vector(vector) else 0), False
        set_high = bool(self.set_function.evaluate_vector(vector))
        reset_high = bool(self.reset_function.evaluate_vector(vector))
        if set_high and reset_high:
            return None, True
        if set_high:
            return 1, False
        if reset_high:
            return 0, False
        return None, False


class ReferenceCircuit:
    """The circuit's tuple-code API: every gate evaluated on every query."""

    def __init__(self, stg, implementation) -> None:
        self.stg = stg
        signals = list(stg.signals)
        index = {s: i for i, s in enumerate(signals)}
        self._index = index
        self._gates: List[_ReferenceGate] = []
        for signal in stg.implementable_signals:
            gate = implementation.gates[signal]
            function = gate.function if gate.function is not None else gate.set_function
            names = list(function.names)
            permutation = None if names == signals else [index[n] for n in names]
            self._gates.append(_ReferenceGate(signal, index[signal], gate, permutation))

    def initial_code(self) -> Tuple[int, ...]:
        if not self.stg.has_complete_initial_state():
            self.stg.infer_initial_state()
        return tuple(self.stg.initial_code())

    def excitation(self, code) -> Dict[str, int]:
        """Excited gates in ``code``: signal -> value it wants to move to."""
        excited: Dict[str, int] = {}
        for gate in self._gates:
            target, _conflict = gate.evaluate(code)
            if target is not None and target != code[gate.index]:
                excited[gate.signal] = target
        return excited

    def drive_conflicts(self, code) -> List[str]:
        """Signals whose set and reset functions are both true in ``code``."""
        return [gate.signal for gate in self._gates if gate.evaluate(code)[1]]

    def fire(self, code, signal: str, target_value: int) -> Tuple[int, ...]:
        updated = list(code)
        updated[self._index[signal]] = target_value
        return tuple(updated)


class SimEvent:
    """One fireable event: a gate (``"gate"``) or an input change (``"input"``)."""

    __slots__ = ("kind", "signal", "target_value")

    def __init__(self, kind: str, signal: str, target_value: int) -> None:
        self.kind = kind
        self.signal = signal
        self.target_value = target_value

    @property
    def label(self) -> str:
        return "%s%s" % (self.signal, "+" if self.target_value else "-")

    def __repr__(self) -> str:
        return "SimEvent(%s %s)" % (self.kind, self.label)


def enabled_events(circuit, environment, code, tracked) -> List[SimEvent]:
    """All events fireable in a closed-loop state: gate events by signal
    name, then input changes by ``(signal, target)``."""
    events = [
        SimEvent("gate", signal, target)
        for signal, target in sorted(circuit.excitation(code).items())
    ]
    events.extend(
        SimEvent("input", signal, target)
        for signal, target in environment.enabled_input_changes(tracked, code)
    )
    return events


def disabled_excitations(excitation, new_excitation, fired_signal):
    """Excitations other than the fired one that the firing removed or
    retargeted, in the order of ``excitation``."""
    return [
        (signal, target)
        for signal, target in excitation.items()
        if signal != fired_signal and new_excitation.get(signal) != target
    ]


def exploration_record(result) -> dict:
    """Everything an exploration reports, records in order, for ``==``."""
    return {
        "verdict": result.verdict(),
        "num_states": result.num_states,
        "num_events_fired": result.num_events_fired,
        "truncated": result.truncated,
        "hazards": [(h.kind, h.signal, h.code, h.disabled_by) for h in result.hazards],
        "violations": [(v.signal, v.target_value, v.code) for v in result.violations],
        "deadlocks": [d.code for d in result.deadlocks],
    }


def walk_record(trace) -> dict:
    """Everything a walk reports, step for step, for ``==``."""
    return {
        "steps": [(s.kind, s.signal, s.target_value, s.code) for s in trace.steps],
        "hazards": [(h.kind, h.signal, h.code, h.disabled_by) for h in trace.hazards],
        "violations": [(v.signal, v.target_value, v.code) for v in trace.violations],
        "deadlocked": trace.deadlocked,
    }


def reference_explore(
    simulator,
    max_states=100000,
    max_reports=25,
    raise_on_limit=False,
) -> ExplorationResult:
    """Exhaustive closed-loop exploration on tuples and dict-backed markings.

    The same breadth-first search as :meth:`repro.sim.Simulator.explore`,
    over tuple codes, :class:`ReferenceCircuit` (every gate evaluated in
    every state) and :class:`ReferenceEnvironment`.  Only ``simulator.stg``
    and ``simulator.implementation`` are read.  ``gate_evaluations`` stays
    0: the reference keeps no masks.
    """
    import time

    start_time = time.perf_counter()
    stg = simulator.stg
    result = ExplorationResult(stg.name, simulator.implementation.architecture)
    circuit = ReferenceCircuit(stg, simulator.implementation)
    environment = ReferenceEnvironment(stg)

    initial_code = circuit.initial_code()
    initial_tracked = environment.initial_states()
    initial = (initial_code, initial_tracked)
    seen: Set[Tuple[Tuple[int, ...], TrackedStates]] = {initial}
    queue = deque([initial])
    hazard_seen: Set[Hazard] = set()
    violation_seen: Set[ConformanceViolation] = set()

    while queue:
        code, tracked = queue.popleft()
        result.num_states += 1

        for signal in circuit.drive_conflicts(code):
            hazard = Hazard("drive-conflict", signal, code)
            if hazard not in hazard_seen and len(result.hazards) < max_reports:
                hazard_seen.add(hazard)
                result.hazards.append(hazard)

        events = enabled_events(circuit, environment, code, tracked)
        if not events:
            spec_moves = environment.enabled_changes(tracked)
            if spec_moves and len(result.deadlocks) < max_reports:
                result.deadlocks.append(Deadlock(code))
            continue

        # The hazards of one fired event are reported in gate order.
        excitation = circuit.excitation(code)
        for event in events:
            new_code = circuit.fire(code, event.signal, event.target_value)
            new_tracked = environment.advance(tracked, event.signal, event.target_value)
            result.num_events_fired += 1

            if event.kind == "gate" and not new_tracked:
                violation = ConformanceViolation(event.signal, event.target_value, code)
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
            # gate must still be excited towards the same value.
            for signal, _target in disabled_excitations(
                excitation, circuit.excitation(new_code), event.signal
            ):
                hazard = Hazard("non-persistent", signal, code, event.label)
                if hazard not in hazard_seen and len(result.hazards) < max_reports:
                    hazard_seen.add(hazard)
                    result.hazards.append(hazard)

            successor = (new_code, new_tracked)
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


def reference_walk(
    stg, implementation, steps=1000, seed=0, max_reports=25, stop_on_anomaly=False
) -> Trace:
    """A seeded random walk on tuples and dict-backed markings.

    The loop :class:`repro.sim.RandomWalker` ran on the dict game: the same
    draws from the same event order, the hazards of one step reported in
    gate order.
    """
    rng = random.Random(seed)
    trace = Trace(stg.name, implementation.architecture, seed)
    circuit = ReferenceCircuit(stg, implementation)
    environment = ReferenceEnvironment(stg)
    code = circuit.initial_code()
    tracked = environment.initial_states()
    hazard_seen = set()

    def report_hazard(hazard: Hazard) -> None:
        if hazard not in hazard_seen and len(trace.hazards) < max_reports:
            hazard_seen.add(hazard)
            trace.hazards.append(hazard)

    for _step in range(steps):
        for signal in circuit.drive_conflicts(code):
            report_hazard(Hazard("drive-conflict", signal, code))

        events = enabled_events(circuit, environment, code, tracked)
        if not events:
            trace.deadlocked = bool(environment.enabled_changes(tracked))
            break
        if stop_on_anomaly and not trace.ok:
            break

        event = events[rng.randrange(len(events))]
        new_code = circuit.fire(code, event.signal, event.target_value)
        new_tracked = environment.advance(tracked, event.signal, event.target_value)
        trace.steps.append(TraceStep(event.kind, event.signal, event.target_value, code))

        if event.kind == "gate" and not new_tracked:
            if len(trace.violations) < max_reports:
                trace.violations.append(
                    ConformanceViolation(event.signal, event.target_value, code)
                )
            break

        for signal, _target in disabled_excitations(
            circuit.excitation(code), circuit.excitation(new_code), event.signal
        ):
            report_hazard(Hazard("non-persistent", signal, code, event.label))

        code, tracked = new_code, new_tracked

    return trace


# ---------------------------------------------------------------------- #
# Cover engine: Cube-object recursions and espresso passes
# ---------------------------------------------------------------------- #
def select_splitting_var(cover: Cover) -> Optional[int]:
    """The variable appearing in the largest number of cubes, lowest index
    on ties."""
    counts = [0] * cover.nvars
    for cube in cover:
        for var, _value in cube.literals():
            counts[var] += 1
    best_var = None
    best_count = 0
    for var, count in enumerate(counts):
        if count > best_count:
            best_var = var
            best_count = count
    return best_var


def tautology_rec(cover: Cover) -> bool:
    """Recursive tautology check by Shannon expansion."""
    if any(cube.is_full() for cube in cover):
        return True
    if cover.is_empty():
        return False
    var = select_splitting_var(cover)
    if var is None:
        return False
    full = Cube.full(cover.nvars)
    return tautology_rec(cover.cofactor(full.with_literal(var, 1))) and tautology_rec(
        cover.cofactor(full.with_literal(var, 0))
    )


def complement_rec(cover: Cover, context: Cube) -> List[Cube]:
    """Cubes covering ``context AND NOT cover``, positive branch first."""
    if cover.is_empty():
        return [context]
    if any(cube.is_full() for cube in cover):
        return []
    var = select_splitting_var(cover)
    if var is None:
        return []
    results: List[Cube] = []
    for value in (1, 0):
        branch_context = context.cofactor(var, value)
        if branch_context is None:
            continue
        branch = cover.cofactor(Cube.full(cover.nvars).with_literal(var, value))
        results.extend(complement_rec(branch, branch_context.with_literal(var, value)))
    return results


def reference_complement(cover: Cover) -> Cover:
    return Cover(cover.nvars, complement_rec(cover, Cube.full(cover.nvars)))


def reference_contains_cube(cover: Cover, cube: Cube) -> bool:
    return tautology_rec(cover.cofactor(cube))


def reference_contains_cover(cover: Cover, other: Cover) -> bool:
    return all(reference_contains_cube(cover, cube) for cube in other)


def reference_single_cube_containment(cover: Cover) -> Cover:
    """Stable sort by literal count; drop a cube when any kept cube
    contains it."""
    kept: List[Cube] = []
    for cube in sorted(cover, key=lambda c: c.num_literals):
        if not any(other.contains(cube) for other in kept):
            kept.append(cube)
    return Cover(cover.nvars, kept)


def reference_irredundant(cover: Cover, dc: Optional[Cover] = None) -> Cover:
    cubes = list(reference_single_cube_containment(cover))
    index = 0
    while index < len(cubes):
        rest = Cover(cover.nvars, cubes[:index] + cubes[index + 1:])
        if dc is not None:
            rest = rest.union(dc)
        if reference_contains_cube(rest, cubes[index]):
            cubes.pop(index)
        else:
            index += 1
    return Cover(cover.nvars, cubes)


def reference_irredundant_care(cover: Cover, care_on: Cover, dc: Cover) -> Cover:
    """Drop, in order, each cube whose care minterms the rest plus the
    DC-set cover."""
    cubes = list(reference_single_cube_containment(cover))
    index = 0
    while index < len(cubes):
        rest = Cover(cover.nvars, cubes[:index] + cubes[index + 1:]).union(dc)
        if reference_contains_cover(rest, care_on.intersect_cube(cubes[index])):
            cubes.pop(index)
        else:
            index += 1
    return Cover(cover.nvars, cubes)


def reference_reduce(cover: Cover, dc: Cover) -> Cover:
    """Each cube shrinks to the supercube of its sharp against the reduced
    earlier cubes, the later cubes and the DC-set; a cube with an empty
    essential part is kept as it is."""
    cubes = list(cover)
    reduced: List[Cube] = []
    for index, cube in enumerate(cubes):
        rest = Cover(cover.nvars, reduced + cubes[index + 1:]).union(dc)
        essential = Cover(cover.nvars, [cube]).difference(rest)
        if essential.is_empty():
            reduced.append(cube)
            continue
        smallest = essential[0]
        for piece in essential:
            smallest = smallest.supercube(piece)
        reduced.append(smallest)
    return Cover(cover.nvars, reduced)


def reference_expand(cover: Cover, off: Cover) -> Cover:
    """Cubes by descending literal count, each freed of its literals in
    ascending variable order while it misses the off-set; grown cubes that
    a kept one contains are dropped, and kept ones a grown cube contains
    leave."""
    expanded: List[Cube] = []
    for cube in sorted(cover, key=lambda c: -c.num_literals):
        grown = cube
        for var, _value in cube.literals():
            candidate = grown.without_var(var)
            if not any(candidate.intersects(blocker) for blocker in off):
                grown = candidate
        if any(other.contains(grown) for other in expanded):
            continue
        expanded = [other for other in expanded if not grown.contains(other)]
        expanded.append(grown)
    return Cover(cover.nvars, expanded)


def reference_espresso(
    on: Cover,
    dc: Optional[Cover] = None,
    max_iterations: int = 4,
    off: Optional[Cover] = None,
) -> MinimizationResult:
    """Espresso's expand / irredundant / reduce loop from the pieces above."""
    nvars = on.nvars
    if dc is None:
        dc = Cover.empty(nvars)
    if on.is_empty():
        return MinimizationResult(Cover.empty(nvars), 0, 0)
    if off is None:
        off = reference_complement(on.union(dc))
    off = reference_single_cube_containment(off)
    current = reference_single_cube_containment(on)
    iterations = 0
    previous_cost = (len(current), current.literal_count)
    for _ in range(max_iterations):
        iterations += 1
        current = reference_expand(current, off)
        current = reference_irredundant_care(current, on, dc)
        current = reference_reduce(current, dc)
        current = reference_expand(current, off)
        current = reference_irredundant_care(current, on, dc)
        cost = (len(current), current.literal_count)
        if cost >= previous_cost:
            break
        previous_cost = cost
    if not reference_contains_cover(current.union(dc), on):
        current = reference_single_cube_containment(on)
    return MinimizationResult(current, iterations, on.literal_count)


def reference_expand_cube(ones: int, zeros: int, off_pairs) -> Tuple[int, int]:
    """One cube's expansion as a scan over the off-set: literals are tried
    lowest variable first, and one goes when no off cube meets the cube
    without it."""
    mask = ones | zeros
    while mask:
        low = mask & -mask
        mask ^= low
        cand_ones = ones & ~low
        cand_zeros = zeros & ~low
        for off_ones, off_zeros in off_pairs:
            if not ((cand_ones | off_ones) & (cand_zeros | off_zeros)):
                break  # meets the off-set: keep the literal
        else:
            ones = cand_ones
            zeros = cand_zeros
    return ones, zeros


def reference_irredundant_points(cubes: List[Cube], points, dc: Cover) -> List[Cube]:
    """Irredundancy on a care set of minterm pairs by coverage counting:
    each point counts the cubes holding it plus one when a DC cube does;
    a cube drops when every point it holds counts at least 2, and its
    points then lose one count each."""

    def held_by(ones: int, zeros: int) -> List[int]:
        return [
            index
            for index, (point_ones, point_zeros) in enumerate(points)
            if not ((ones & point_zeros) | (zeros & point_ones))
        ]

    counts = [
        0 if all((cube.ones & point_zeros) | (cube.zeros & point_ones) for cube in dc) else 1
        for point_ones, point_zeros in points
    ]
    held = [held_by(cube.ones, cube.zeros) for cube in cubes]
    for indices in held:
        for index in indices:
            counts[index] += 1
    kept: List[Cube] = []
    for cube, indices in zip(cubes, held):
        if all(counts[index] >= 2 for index in indices):
            for index in indices:
                counts[index] -= 1
        else:
            kept.append(cube)
    return kept


def _minterm_pairs(nvars: int, codes) -> List[Tuple[int, int]]:
    full = (1 << nvars) - 1
    return [(code, full & ~code) for code in codes]


def reference_dc_set_cover(graph) -> Cover:
    """The unreachable codes as the complement of the reachable minterms."""
    nvars = len(graph.signals)
    reachable = _minterm_pairs(nvars, graph.reachable_packed_codes())
    return Cover.from_mask_pairs(nvars, reachable).complement()


def reference_off_cover(space, signal: str) -> Cover:
    """The reachable off-codes as ``complement(on + dc)``, with the codes
    the on-set shares with the off-set added back as minterms."""
    nvars = len(space.signals)
    on_codes = space.on_codes(signal)
    shared = on_codes & space.off_codes(signal)
    on = Cover.from_mask_pairs(nvars, _minterm_pairs(nvars, sorted(on_codes)))
    cover = on.union(reference_dc_set_cover(space.explicit_graph)).complement()
    return cover.union(Cover.from_mask_pairs(nvars, _minterm_pairs(nvars, sorted(shared))))


# ---------------------------------------------------------------------- #
# BDD kernel: recursion through the level / cofactor helpers
# ---------------------------------------------------------------------- #
class ReferenceBDD(BDD):
    """The BDD operators as textbook recursions over two helpers.

    ``_level_of`` and ``_cofactors`` test a node against the terminal ids
    before they read its tuple, and every operator calls them once per
    operand and step.  Hash-consing goes through ``_make_node``.
    """

    def _level_of(self, node: int) -> int:
        if node in (self.FALSE, self.TRUE):
            return len(self.variables)
        return self._nodes[node][0]

    def _cofactors(self, node: int, level: int) -> Tuple[int, int]:
        if node in (self.FALSE, self.TRUE):
            return node, node
        node_level, low, high = self._nodes[node]
        if node_level == level:
            return low, high
        return node, node

    def ite(self, f: int, g: int, h: int) -> int:
        if f == self.TRUE:
            return g
        if f == self.FALSE:
            return h
        if g == h:
            return g
        if g == self.TRUE and h == self.FALSE:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = min(self._level_of(f), self._level_of(g), self._level_of(h))
        f0, f1 = self._cofactors(f, level)
        g0, g1 = self._cofactors(g, level)
        h0, h1 = self._cofactors(h, level)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self._make_node(level, low, high)
        self._ite_cache[key] = result
        return result

    def restrict(self, f: int, name: str, value: bool) -> int:
        level = self._level[name]
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if node in (self.FALSE, self.TRUE):
                return node
            cached = cache.get(node)
            if cached is not None:
                return cached
            node_level, low, high = self._nodes[node]
            if node_level > level:
                result = node
            elif node_level == level:
                result = high if value else low
            else:
                result = self._make_node(node_level, walk(low), walk(high))
            cache[node] = result
            return result

        return walk(f)

    def _quantify(self, f, names, cache, combine) -> int:
        levels = self._levels_of(names)
        if not levels:
            return f
        qid = self._quant_id(levels)

        def walk(node: int) -> int:
            if node in (self.FALSE, self.TRUE):
                return node
            key = (node, qid)
            cached = cache.get(key)
            if cached is not None:
                return cached
            level, low, high = self._nodes[node]
            if level in levels:
                result = combine(walk(low), walk(high))
            else:
                result = self._make_node(level, walk(low), walk(high))
            cache[key] = result
            return result

        return walk(f)

    def exists(self, f: int, names) -> int:
        return self._quantify(f, names, self._exists_cache, self.disj)

    def forall(self, f: int, names) -> int:
        return self._quantify(f, names, self._forall_cache, self.conj)

    def and_exists(self, f: int, g: int, names) -> int:
        levels = self._levels_of(names)
        qid = self._quant_id(levels)
        cache = self._and_exists_cache
        total = len(self.variables)

        def walk(f_node: int, g_node: int) -> int:
            if f_node == self.FALSE or g_node == self.FALSE:
                return self.FALSE
            if f_node == self.TRUE and g_node == self.TRUE:
                return self.TRUE
            if g_node < f_node:
                f_node, g_node = g_node, f_node
            key = (f_node, g_node, qid)
            cached = cache.get(key)
            if cached is not None:
                return cached
            level = min(self._level_of(f_node), self._level_of(g_node))
            if level >= total:
                return self.TRUE
            f0, f1 = self._cofactors(f_node, level)
            g0, g1 = self._cofactors(g_node, level)
            if level in levels:
                low = walk(f0, g0)
                if low == self.TRUE:
                    result = self.TRUE
                else:
                    result = self.disj(low, walk(f1, g1))
            else:
                result = self._make_node(level, walk(f0, g0), walk(f1, g1))
            cache[key] = result
            return result

        return walk(f, g)

    def rename(self, f: int, mapping: Dict[str, str]) -> int:
        level_map: Dict[int, int] = {}
        for old, new in mapping.items():
            level_map[self._level[old]] = self._level[new]
        if not level_map:
            return f
        support_levels = sorted(self._level[name] for name in self.support(f))
        transformed = [level_map.get(level, level) for level in support_levels]
        if len(set(transformed)) != len(transformed) or transformed != sorted(transformed):
            raise ValueError("rename mapping does not preserve the variable order")
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if node in (self.FALSE, self.TRUE):
                return node
            cached = cache.get(node)
            if cached is not None:
                return cached
            level, low, high = self._nodes[node]
            result = self._make_node(level_map.get(level, level), walk(low), walk(high))
            cache[node] = result
            return result

        return walk(f)


def reference_isop(bdd: ReferenceBDD, lower: int, upper: int, bit_of) -> List[Tuple[int, int]]:
    """The Minato-Morreale cover of :func:`repro.bdd.isop` through the
    helpers of :class:`ReferenceBDD`: the same cubes in the same order, and
    the same nodes created."""
    level_bit = {bdd._level[name]: bit for name, bit in bit_of.items()}
    cache: Dict[Tuple[int, int], Tuple[int, Tuple[Tuple[int, int], ...]]] = {}

    def walk(low: int, up: int):
        if low == bdd.FALSE:
            return bdd.FALSE, ()
        if up == bdd.TRUE:
            return bdd.TRUE, ((0, 0),)
        key = (low, up)
        cached = cache.get(key)
        if cached is not None:
            return cached
        level = min(bdd._level_of(low), bdd._level_of(up))
        bit = level_bit[level]
        low0, low1 = bdd._cofactors(low, level)
        up0, up1 = bdd._cofactors(up, level)
        need0 = bdd.conj(low0, bdd.negate(up1))
        need1 = bdd.conj(low1, bdd.negate(up0))
        g0, cubes0 = walk(need0, up0)
        g1, cubes1 = walk(need1, up1)
        rest = bdd.disj(
            bdd.conj(low0, bdd.negate(g0)), bdd.conj(low1, bdd.negate(g1))
        )
        gd, cubesd = walk(rest, bdd.conj(up0, up1))
        cover = bdd.disj(gd, bdd._make_node(level, g0, g1))
        cubes = (
            cubesd
            + tuple((ones, zeros | (1 << bit)) for ones, zeros in cubes0)
            + tuple((ones | (1 << bit), zeros) for ones, zeros in cubes1)
        )
        result = (cover, cubes)
        cache[key] = result
        return result

    if bdd.conj(lower, bdd.negate(upper)) != bdd.FALSE:
        raise ValueError("isop requires lower <= upper")
    return list(walk(lower, upper)[1])


# ---------------------------------------------------------------------- #
# Symbolic reachability: the level-group restart loop
# ---------------------------------------------------------------------- #
def _reference_relations(engine) -> List[Tuple[int, FrozenSet[str], int]]:
    """``(enable cube, changed variables, update cube)`` per transition of
    ``engine``, in its transition order and in its manager."""
    bdd = engine.bdd
    relations = []
    for transition in engine.transitions:
        preset = sorted(engine.net.preset(transition))
        postset = sorted(engine.net.postset(transition))
        enable = bdd.conj_all(bdd.var(_PLACE + p) for p in preset)
        changed = {_PLACE + p for p in set(preset) | set(postset)}
        update = bdd.TRUE
        for place in postset:
            update = bdd.conj(update, bdd.var(_PLACE + place))
        for place in preset:
            if place not in postset:
                update = bdd.conj(update, bdd.nvar(_PLACE + place))
        label = engine.stg.label_of(transition) if engine.stg is not None else None
        if label is not None:
            name = _SIGNAL + label.signal
            changed.add(name)
            literal = bdd.var(name) if label.target_value else bdd.nvar(name)
            update = bdd.conj(update, literal)
        relations.append((enable, frozenset(changed), update))
    return relations


def reference_image(bdd: BDD, current: int, relation) -> int:
    """Successor states of ``current`` under one transition's relation."""
    enable, changed, update = relation
    abstracted = bdd.and_exists(current, enable, changed)
    if abstracted == bdd.FALSE:
        return bdd.FALSE
    return bdd.conj(abstracted, update)


def reference_reachable_set(engine) -> int:
    """The reachable set of ``engine``'s initial state, in its manager.

    Transitions are grouped by the topmost level they change, and each
    group is fired on the whole reached set to a local fixed point, deepest
    group first; after a shallower group adds states, the round restarts
    from the deepest group, which those states may have re-enabled.  A
    round in which no group adds a state is the fixed point.  BDDs are
    canonical, so the result is the node id of ``engine.reachable_set()``
    exactly when the two sets are equal.
    """
    bdd = engine.bdd
    relations = _reference_relations(engine)
    groups: Dict[int, List[int]] = {}
    for index, (_, changed, _) in enumerate(relations):
        if changed:
            top = min(bdd._level[name] for name in changed)
            groups.setdefault(top, []).append(index)
    ordered = [groups[top] for top in sorted(groups, reverse=True)]
    reached = engine._initial
    # A group whose stamp matches the reached set's version is still
    # saturated with respect to it and is skipped.
    version = 0
    saturated = [-1] * len(ordered)
    progress = True
    while progress:
        progress = False
        for position, group in enumerate(ordered):
            if saturated[position] == version:
                continue
            fired = False
            local = True
            while local:
                local = False
                for index in group:
                    union = bdd.disj(reached, reference_image(bdd, reached, relations[index]))
                    if union != reached:
                        reached = union
                        version += 1
                        local = fired = True
            saturated[position] = version
            if fired:
                progress = True
                if position > 0:
                    break  # may have re-enabled a deeper group: restart
    return reached
