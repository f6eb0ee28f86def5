"""Symbolic reachability of safe Petri nets and STGs.

This is the substrate of the "Petrify-like" engine: markings of a safe net
are encoded as Boolean vectors (one variable per place) and, when an STG is
given, the *characteristic function* additionally tracks the binary code
(one variable per signal), so a single BDD ``R(places, signals)`` describes
the whole State Graph -- every reachable (marking, code) pair -- without
ever materialising a state list.

Engine structure
----------------
* **Partitioned transition relations** -- every transition is pre-compiled
  into ``(enable cube, changed-variable set, update cube)``; the image of a
  set ``S`` under one transition is a single relational product
  :meth:`repro.bdd.manager.BDD.and_exists` followed by one conjunction with
  the update cube.  No monolithic transition relation is ever built.
* **Structural variable ordering** -- the static order follows the net,
  not the order the ``.g`` text declares it in: a depth-first token-flow
  walk from the initially marked places seeds it (each signal enters
  beside the places of its first transition), and FORCE rounds (Aloul,
  Markov & Sakallah, GLSVLSI 2003) pull the places and the signal of every
  transition together, keeping the marking and code parts of the
  characteristic function correlated locally (the static-ordering lever of
  Pastor, Cortadella & Roig, IEEE TC 2001).  When the primed block is
  enabled, each variable's primed twin sits directly below it, so the
  current<->primed rename of the code-equality product is order-preserving.
* **Saturation fixed point** -- the partitioned relations
  are grouped by the topmost variable they touch and each group is
  saturated (fired to a local fixed point) deepest-first before shallower
  groups propagate, restarting from the deepest group whenever a shallow
  firing may have re-enabled one below it.  Firing a transition to
  exhaustion while the affected sub-BDDs are still small is the classic
  saturation lever: the intermediate BDDs stay near their final shape
  instead of ballooning per global pass.  Between group saturations the
  engine checkpoints the manager -- mark-and-sweep garbage collection once
  the store doubles past a threshold -- so peak node counts track the
  problem, not the churn.  The tests check the reached set against the
  explicit State Graph, an independent engine.

:class:`SymbolicNet` is the engine consumed by
:class:`repro.spaces.SymbolicStateSpace`; without an STG it tracks markings
only (:func:`count_reachable_markings`).  One variable per place encodes
only safe markings, so the state-space layer admits only nets
:class:`~repro.core.PackedNet` accepts.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..obs import current_tracer
from ..petrinet import PetriNet, StateSpaceLimitExceeded
from .manager import BDD

__all__ = ["SymbolicNet", "count_reachable_markings"]

_PLACE = "p:"
_PLACE_PRIMED = "p':"
_SIGNAL = "s:"
_SIGNAL_PRIMED = "s':"

#: Store-size floor for the saturation path's maintenance checkpoint.
#: GC fires when the node store outgrows the threshold, which then
#: doubles to twice the surviving store size, so maintenance cost stays
#: amortised against real growth instead of firing on every checkpoint.
_GC_THRESHOLD = 4096

#: Upper bound on FORCE rounds; the refinement usually settles far sooner.
_FORCE_ROUNDS = 50


def _force(order: List[str], edges: List[List[str]]) -> List[str]:
    """FORCE refinement (Aloul, Markov & Sakallah, GLSVLSI 2003).

    Each round places every hyperedge at the centre of gravity of its
    variables, moves every variable to the mean centre of its hyperedges
    (a variable on no hyperedge keeps its position) and re-sorts, ties
    broken by the current position.  The order with the least total span
    (sum over hyperedges of last minus first position) is returned.
    """
    incident: Dict[str, List[int]] = {name: [] for name in order}
    for index, edge in enumerate(edges):
        for name in edge:
            incident[name].append(index)

    def span(position: Dict[str, int]) -> int:
        return sum(
            max(position[n] for n in edge) - min(position[n] for n in edge)
            for edge in edges
        )

    position = {name: i for i, name in enumerate(order)}
    best, best_span = order, span(position)
    for _ in range(_FORCE_ROUNDS):
        centre = [sum(position[n] for n in edge) / len(edge) for edge in edges]
        target = {
            name: sum(centre[e] for e in incident[name]) / len(incident[name])
            if incident[name]
            else float(position[name])
            for name in order
        }
        moved = sorted(order, key=lambda name: (target[name], position[name]))
        if moved == order:
            break
        order = moved
        position = {name: i for i, name in enumerate(order)}
        cost = span(position)
        if cost < best_span:
            best, best_span = order, cost
    return best


class SymbolicNet:
    """Partitioned-relation symbolic engine for a safe net (plus STG codes).

    Parameters
    ----------
    net:
        The safe, weight-1 Petri net to explore.
    stg:
        When given, the characteristic function also tracks the binary code:
        labelled transitions toggle their signal's variable, and the primed
        variable block (for the code-equality products of the USC/CSC
        checks) is allocated.
    max_iterations:
        Bound on the number of outer saturation rounds.
    max_states:
        Optional bound on the number of reachable states; exceeding it
        raises :class:`~repro.petrinet.StateSpaceLimitExceeded` (checked by
        a symbolic count after every group saturation -- no state is ever
        enumerated).
    """

    def __init__(
        self,
        net: PetriNet,
        stg=None,
        max_iterations: Optional[int] = None,
        max_states: Optional[int] = None,
    ) -> None:
        self.net = net
        self.stg = stg
        self.max_iterations = max_iterations
        self.max_states = max_states
        self.iterations = 0
        self.saturation_fires = 0
        self.peak_nodes = 0
        self._gc_threshold = _GC_THRESHOLD
        self.places: List[str] = list(net.places)
        self.signals: List[str] = list(stg.signals) if stg is not None else []
        self.primed = stg is not None
        self.bdd = BDD(self._ordering())
        self.place_vars = [_PLACE + p for p in self.places]
        self.signal_vars = [_SIGNAL + s for s in self.signals]
        self.state_vars = self.place_vars + self.signal_vars
        self.primed_place_vars = [_PLACE_PRIMED + p for p in self.places] if self.primed else []
        self.primed_signal_vars = [_SIGNAL_PRIMED + s for s in self.signals] if self.primed else []
        self._compile_transitions()
        self._initial = self._encode_initial()
        self._reached: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Variable ordering
    # ------------------------------------------------------------------ #
    def _ordering(self) -> List[str]:
        """Structural static order, each primed twin directly below its variable.

        A depth-first token-flow walk seeds the order.  From every initially
        marked place it goes place -> consuming transitions -> their output
        places.  When a transition is first reached, its unseen input
        places, its signal (unless an earlier transition brought it in) and
        its unseen output places enter the order, and the walk descends
        into those places.  FORCE rounds (:func:`_force`) then refine the
        seed over the same hyperedges, one per transition.  Every set is
        sorted before use, so the order depends on the net's structure and
        names only -- not on the declaration order of the ``.g`` text, nor
        on string hashing.
        """
        net = self.net
        consumers = {_PLACE + p: sorted(net.place_postset(p)) for p in self.places}
        entering: Dict[str, List[str]] = {}
        for transition in sorted(net.transitions):
            label = self.stg.label_of(transition) if self.stg is not None else None
            preset = sorted(net.preset(transition))
            postset = sorted(set(net.postset(transition)).difference(preset))
            entering[transition] = (
                [_PLACE + p for p in preset]
                + ([_SIGNAL + label.signal] if label is not None else [])
                + [_PLACE + p for p in postset]
            )

        order: List[str] = []
        seen: Set[str] = set()
        reached: Set[str] = set()
        marking = net.initial_marking
        for root in sorted(_PLACE + p for p in self.places if marking[p] > 0):
            if root in seen:
                continue
            seen.add(root)
            order.append(root)
            stack = [iter(consumers[root])]
            while stack:
                transition = next(stack[-1], None)
                if transition is None:
                    stack.pop()
                    continue
                if transition in reached:
                    continue
                reached.add(transition)
                fresh = [name for name in entering[transition] if name not in seen]
                seen.update(fresh)
                order.extend(fresh)
                stack.append(
                    chain.from_iterable(consumers[n] for n in fresh if n in consumers)
                )
        rest = [_PLACE + p for p in self.places] + [_SIGNAL + s for s in self.signals]
        order.extend(sorted(name for name in rest if name not in seen))

        order = _force(order, [edge for edge in entering.values() if edge])
        if not self.primed:
            return order
        twin = {_PLACE + p: _PLACE_PRIMED + p for p in self.places}
        twin.update((_SIGNAL + s, _SIGNAL_PRIMED + s) for s in self.signals)
        return [name for unprimed in order for name in (unprimed, twin[unprimed])]

    # ------------------------------------------------------------------ #
    # Transition compilation (partitioned relations)
    # ------------------------------------------------------------------ #
    def _compile_transitions(self) -> None:
        bdd = self.bdd
        self.transitions: List[str] = list(self.net.transitions)
        self._transition_index = {t: i for i, t in enumerate(self.transitions)}
        self._enable: List[int] = []
        self._changed: List[FrozenSet[str]] = []
        self._update: List[int] = []
        self._unsafe_or: List[int] = []
        self._wrong_value: List[int] = []
        for transition in self.transitions:
            preset = sorted(self.net.preset(transition))
            postset = sorted(self.net.postset(transition))
            enable = bdd.conj_all(bdd.var(_PLACE + p) for p in preset)
            changed = {_PLACE + p for p in set(preset) | set(postset)}
            update = bdd.TRUE
            for place in postset:
                update = bdd.conj(update, bdd.var(_PLACE + place))
            for place in preset:
                if place not in postset:
                    update = bdd.conj(update, bdd.nvar(_PLACE + place))
            unsafe = bdd.disj_all(
                bdd.var(_PLACE + p) for p in postset if p not in preset
            )
            wrong = bdd.FALSE
            if self.stg is not None:
                label = self.stg.label_of(transition)
                if label is not None:
                    name = _SIGNAL + label.signal
                    changed.add(name)
                    if label.target_value:
                        update = bdd.conj(update, bdd.var(name))
                        wrong = bdd.var(name)  # firing x+ while x is already 1
                    else:
                        update = bdd.conj(update, bdd.nvar(name))
                        wrong = bdd.nvar(name)
            self._enable.append(enable)
            self._changed.append(frozenset(changed))
            self._update.append(update)
            self._unsafe_or.append(unsafe)
            self._wrong_value.append(wrong)

    def _encode_initial(self) -> int:
        assignment: Dict[str, bool] = {}
        marking = self.net.initial_marking
        for place in self.places:
            assignment[_PLACE + place] = marking[place] > 0
        if self.stg is not None:
            code = self.stg.initial_code()
            for signal, value in zip(self.signals, code):
                assignment[_SIGNAL + signal] = bool(value)
        return self.bdd.cube(assignment)

    # ------------------------------------------------------------------ #
    # Fixed point
    # ------------------------------------------------------------------ #
    def image(self, current: int, index: int) -> int:
        """Successor states of ``current`` under one transition."""
        bdd = self.bdd
        abstracted = bdd.and_exists(current, self._enable[index], self._changed[index])
        if abstracted == bdd.FALSE:
            return bdd.FALSE
        return bdd.conj(abstracted, self._update[index])

    def _check_iterations(self) -> None:
        if self.max_iterations is not None and self.iterations > self.max_iterations:
            raise RuntimeError(
                "symbolic reachability exceeded %d iterations" % self.max_iterations
            )

    def _check_states(self, reached: int) -> None:
        if (
            self.max_states is not None
            and self.bdd.count_solutions(reached, self.state_vars) > self.max_states
        ):
            raise StateSpaceLimitExceeded(self.max_states)

    def reachable_set(self) -> int:
        """BDD of all reachable states (least fixed point)."""
        if self._reached is not None:
            return self._reached
        bdd = self.bdd
        obs = current_tracer()
        if obs.enabled:
            bdd.enable_stats()
        with obs.span("reachability", engine="bdd", net=self.net.name) as span:
            reached = self._saturation_fixpoint(span)
            self._reached = reached
            if bdd.num_nodes > self.peak_nodes:
                self.peak_nodes = bdd.num_nodes
            if span.live:
                span.gauge("fixpoint_passes", self.iterations)
                span.gauge("bdd_nodes", bdd.num_nodes)
                span.gauge("bdd_variables", len(bdd.variables))
                span.gauge("peak_nodes", self.peak_nodes)
                span.counter("saturation_fires", self.saturation_fires)
                span.counter("gc_runs", bdd.gc_runs)
                span.counter("nodes_reclaimed", bdd.nodes_reclaimed)
                for key, value in bdd.stats().items():
                    if key.endswith(("_lookups", "_hits", "_entries")):
                        span.gauge(key, value)
        return reached

    # ------------------------------------------------------------------ #
    # Saturation fixed point with manager maintenance
    # ------------------------------------------------------------------ #
    def _saturation_groups(self) -> List[List[int]]:
        """Transition indices grouped by topmost touched level, deepest first.

        A transition's *top* is the smallest level among its changed
        variables -- the point closest to the root where its relational
        product starts rewriting the characteristic function.  Grouping by
        that level and saturating the deepest groups (largest top level)
        first keeps rewrites local to small sub-BDDs near the terminals
        before anything shallower stirs the function near the root.
        """
        level = self.bdd._level
        groups: Dict[int, List[int]] = {}
        for index in range(len(self.transitions)):
            top = min(level[name] for name in self._changed[index])
            groups.setdefault(top, []).append(index)
        return [groups[top] for top in sorted(groups, reverse=True)]

    def _held_ids(self) -> List[int]:
        """Every node id this engine holds across maintenance."""
        ids = [self._initial]
        ids.extend(self._enable)
        ids.extend(self._update)
        ids.extend(self._unsafe_or)
        ids.extend(self._wrong_value)
        if self._reached is not None:
            ids.append(self._reached)
        return ids

    def _collect(self, *extra: int) -> Tuple[int, ...]:
        """GC with the compiled relations as roots; rewrite all held ids."""
        remap = self.bdd.collect_garbage(self._held_ids() + list(extra))
        self._initial = remap[self._initial]
        self._enable = [remap[f] for f in self._enable]
        self._update = [remap[f] for f in self._update]
        self._unsafe_or = [remap[f] for f in self._unsafe_or]
        self._wrong_value = [remap[f] for f in self._wrong_value]
        if self._reached is not None:
            self._reached = remap[self._reached]
        return tuple(remap[f] for f in extra)

    def _maintain(self, reached: int) -> int:
        """Checkpoint the manager between group saturations.

        GC once the store outgrows the threshold; the threshold then
        doubles to twice the surviving size.
        """
        bdd = self.bdd
        if bdd.num_nodes > self.peak_nodes:
            self.peak_nodes = bdd.num_nodes
        if bdd.num_nodes <= self._gc_threshold:
            return reached
        # Rebuilding the store clears the memo caches, so only do it when a
        # decent fraction of the store is actually dead; otherwise let it
        # grow and check again at twice the size.  The threshold doubles
        # monotonically, so GC runs O(log peak) times per fixed point
        # instead of once per group saturation.
        live = bdd.num_live_nodes(self._held_ids() + [reached])
        if 4 * live <= 3 * bdd.num_nodes:
            (reached,) = self._collect(reached)
        self._gc_threshold = max(2 * self._gc_threshold, 2 * bdd.num_nodes)
        return reached

    def _saturation_fixpoint(self, span) -> int:
        """Saturate level groups deepest-first, restarting on re-enabling.

        Each group of transitions is fired to a local fixed point; when a
        group above the deepest one fires, the new states may re-enable
        transitions below it, so the round restarts from the deepest
        group.  An outer round with no firing anywhere is the global fixed
        point.  ``iterations`` counts outer rounds, ``saturation_fires``
        counts group saturations that produced new states.
        """
        bdd = self.bdd
        reached = self._initial
        groups = self._saturation_groups()
        self.iterations = 0
        self.saturation_fires = 0
        images = 0
        # ``version`` stamps every change of the reached set; a group whose
        # stamp matches is still saturated with respect to the current set
        # and is skipped without touching the manager, so restarting from
        # the deepest group costs nothing for groups nothing re-enabled.
        version = 0
        saturated = [-1] * len(groups)
        progress = True
        while progress:
            self.iterations += 1
            self._check_iterations()
            progress = False
            for position, group in enumerate(groups):
                if saturated[position] == version:
                    continue
                fired = False
                local = True
                while local:
                    local = False
                    for index in group:
                        img = self.image(reached, index)
                        images += 1
                        if img == bdd.FALSE:
                            continue
                        union = bdd.disj(reached, img)
                        if union != reached:
                            reached = union
                            version += 1
                            local = True
                            fired = True
                saturated[position] = version
                if fired:
                    progress = True
                    self.saturation_fires += 1
                    self._check_states(reached)
                    reached = self._maintain(reached)
                    if position > 0:
                        break  # may have re-enabled a deeper group: restart
            if span.live:
                # Per-round fixpoint stats: manager size after each round.
                span.append("pass_nodes", bdd.num_nodes)
        if span.live:
            span.counter("images_computed", images)
        return reached

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def count_states(self) -> int:
        """Number of reachable (marking, code) states."""
        return self.bdd.count_solutions(self.reachable_set(), self.state_vars)

    def count_markings(self) -> int:
        """Number of distinct reachable markings."""
        marking_set = self.bdd.exists(self.reachable_set(), self.signal_vars)
        return self.bdd.count_solutions(marking_set, self.place_vars)

    def enabling(self, transitions: Sequence[str]) -> int:
        """Markings enabling at least one of the given transitions, reachable
        or not: the OR of their enabling cubes over the place variables."""
        return self.bdd.disj_all(
            self._enable[self._transition_index[t]] for t in transitions
        )

    def excited(self, transitions: Sequence[str]) -> int:
        """Reachable states enabling at least one of the given transitions."""
        return self.bdd.conj(self.reachable_set(), self.enabling(transitions))

    def project_codes(self, states: int) -> int:
        """Quantify the marking away: the binary codes of a state set."""
        return self.bdd.exists(states, self.place_vars)

    def signal_var(self, signal: str) -> int:
        return self.bdd.var(_SIGNAL + signal)

    def rename_places_to_primed(self, f: int) -> int:
        return self.bdd.rename(f, {_PLACE + p: _PLACE_PRIMED + p for p in self.places})

    def rename_signals_to_primed(self, f: int) -> int:
        return self.bdd.rename(
            f, {_SIGNAL + s: _SIGNAL_PRIMED + s for s in self.signals}
        )

    def places_differ(self) -> int:
        """BDD of ``exists i . p_i != p'_i`` (marking inequality)."""
        bdd = self.bdd
        return bdd.disj_all(
            bdd.xor(bdd.var(_PLACE + p), bdd.var(_PLACE_PRIMED + p))
            for p in self.places
        )

    def signals_differ(self) -> int:
        """BDD of ``exists i . s_i != s'_i`` (code inequality)."""
        bdd = self.bdd
        return bdd.disj_all(
            bdd.xor(bdd.var(_SIGNAL + s), bdd.var(_SIGNAL_PRIMED + s))
            for s in self.signals
        )

    def signal_levels(self) -> Dict[str, int]:
        """Signal name -> bit index in ``stg.signals`` order (cube space)."""
        return {_SIGNAL + s: i for i, s in enumerate(self.signals)}

    def code_words(self, codes: int) -> Iterator[int]:
        """Enumerate a code-space BDD as packed code words."""
        for assignment in self.bdd.satisfying_assignments(codes, self.signal_vars):
            word = 0
            for index, signal in enumerate(self.signals):
                if assignment[_SIGNAL + signal]:
                    word |= 1 << index
            yield word

    # ------------------------------------------------------------------ #
    # Well-formedness witnesses (checked after the fixed point)
    # ------------------------------------------------------------------ #
    def unsafe_witness(self) -> Optional[str]:
        """Name of a transition whose firing would not be safe, if any."""
        bdd = self.bdd
        reached = self.reachable_set()
        for index, transition in enumerate(self.transitions):
            if self._unsafe_or[index] == bdd.FALSE:
                continue
            guard = bdd.conj(self._enable[index], self._unsafe_or[index])
            if bdd.and_exists(reached, guard, self.bdd.variables) != bdd.FALSE:
                return transition
        return None

    def inconsistent_enabled_witness(self) -> Optional[str]:
        """A labelled transition enabled while its signal already holds the
        target value (violating consistent state assignment), if any."""
        bdd = self.bdd
        reached = self.reachable_set()
        for index, transition in enumerate(self.transitions):
            if self._wrong_value[index] == bdd.FALSE:
                continue
            guard = bdd.conj(self._enable[index], self._wrong_value[index])
            if bdd.and_exists(reached, guard, self.bdd.variables) != bdd.FALSE:
                return transition
        return None

    def has_code_clash(self) -> bool:
        """True when some marking is reachable with two different codes."""
        if not self.primed or not self.signals:
            return False
        bdd = self.bdd
        reached = self.reachable_set()
        primed = self.rename_signals_to_primed(reached)
        clash = bdd.conj(bdd.conj(reached, primed), self.signals_differ())
        return clash != bdd.FALSE

    def __repr__(self) -> str:
        return "SymbolicNet(%r, places=%d, signals=%d, nodes=%d)" % (
            self.net.name,
            len(self.places),
            len(self.signals),
            self.bdd.num_nodes,
        )


def count_reachable_markings(net: PetriNet) -> int:
    """Count reachable markings without enumerating them explicitly."""
    return SymbolicNet(net).count_markings()
