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
  into the variables it changes, as ``(level, must be 1, new value)``
  triples sorted by level: a preset place must be marked and stays marked
  only when it is also in the postset; a postset-only place and the
  transition's signal take their new value whatever they held.  No
  monolithic transition relation is ever built.
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
* **Node-wise saturation** (Ciardo, Lüttgen & Siminiceanu, "Saturation: an
  efficient iteration strategy for symbolic state-space generation",
  TACAS 2001) -- a transition's *top* is the first level it changes, and
  it touches nothing above it.  Every node is closed, once, under the
  transitions whose top is its level or deeper: both children first, then
  the transitions whose top is the node's own level, fired to a local
  fixed point.  A transition's relational product walks only the sub-BDD
  below its top, and every node it builds there is saturated in turn, so
  no firing ever re-images the whole reached set and the intermediate
  BDDs stay close to the final one.  The tests check the reached set
  against the explicit State Graph, an independent engine, and node for
  node against the level-group restart loop that saturation replaced
  (``tests/oracles.py``).

:class:`SymbolicNet` is the engine consumed by
:class:`repro.spaces.SymbolicStateSpace`; without an STG it tracks markings
only (:func:`count_reachable_markings`).  One variable per place encodes
only safe markings, so the state-space layer admits only nets
:class:`~repro.core.PackedNet` accepts.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..obs import current_tracer
from ..petrinet import PetriNet, StateSpaceLimitExceeded
from .manager import BDD

__all__ = ["SymbolicNet", "count_reachable_markings"]

_PLACE = "p:"
_PLACE_PRIMED = "p':"
_SIGNAL = "s:"
_SIGNAL_PRIMED = "s':"

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
    max_states:
        Optional bound on the number of reachable states; exceeding it
        raises :class:`~repro.petrinet.StateSpaceLimitExceeded` (checked by
        a symbolic count of the fixed point -- no state is ever
        enumerated).
    """

    def __init__(
        self,
        net: PetriNet,
        stg=None,
        max_states: Optional[int] = None,
    ) -> None:
        self.net = net
        self.stg = stg
        self.max_states = max_states
        self.iterations = 0
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
        level = bdd._level
        self.transitions: List[str] = list(self.net.transitions)
        self._transition_index = {t: i for i, t in enumerate(self.transitions)}
        self._enable: List[int] = []
        #: Per transition: ``(level, must be 1, new value)`` of every
        #: variable it changes, sorted by level.
        self._relation: List[Tuple[Tuple[int, bool, bool], ...]] = []
        self._unsafe_or: List[int] = []
        self._wrong_value: List[int] = []
        for transition in self.transitions:
            preset = sorted(self.net.preset(transition))
            postset = set(self.net.postset(transition))
            produced = sorted(postset.difference(preset))
            enable = bdd.conj_all(bdd.var(_PLACE + p) for p in preset)
            unsafe = bdd.disj_all(bdd.var(_PLACE + p) for p in produced)
            changes = {level[_PLACE + p]: (True, p in postset) for p in preset}
            changes.update((level[_PLACE + p], (False, True)) for p in produced)
            wrong = bdd.FALSE
            if self.stg is not None:
                label = self.stg.label_of(transition)
                if label is not None:
                    name = _SIGNAL + label.signal
                    changes[level[name]] = (False, bool(label.target_value))
                    # firing x+ while x is already 1, or x- while it is 0
                    wrong = bdd.var(name) if label.target_value else bdd.nvar(name)
            self._enable.append(enable)
            self._relation.append(
                tuple((at,) + changes[at] for at in sorted(changes))
            )
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
    def reachable_set(self) -> int:
        """BDD of all reachable states (least fixed point)."""
        if self._reached is not None:
            return self._reached
        bdd = self.bdd
        obs = current_tracer()
        if obs.enabled:
            bdd.enable_stats()
        with obs.span("reachability", engine="bdd", net=self.net.name) as span:
            reached = self._saturate(span)
            if (
                self.max_states is not None
                and bdd.count_solutions(reached, self.state_vars) > self.max_states
            ):
                raise StateSpaceLimitExceeded(self.max_states)
            self._reached = reached
            if span.live:
                span.gauge("fixpoint_passes", self.iterations)
                span.gauge("bdd_nodes", bdd.num_nodes)
                span.gauge("bdd_variables", len(bdd.variables))
                for key, value in bdd.stats().items():
                    if key.endswith(("_lookups", "_hits", "_entries")):
                        span.gauge(key, value)
        return reached

    def _saturate(self, span) -> int:
        """Node-wise saturation of the initial state.

        ``saturate(f, k)`` is the closure of ``f`` under every transition
        whose top is at level ``k`` or deeper; it depends on ``k`` only
        through the first such top, which keys its memo.  ``product(f,
        index, position, k)`` is the image of ``f`` under the transition's
        changes from its ``position``-th on, closed under the transitions
        whose top is ``k`` or deeper; ``f`` already is.  At a changed level
        it follows the cofactors the change allows and puts the result on
        the branch of the new value; it passes unchanged levels through and
        returns ``f`` itself below the last change.  A union of closed sets
        is closed, so every result is memoised as its own closure too.
        Like the manager's operators, both visit low before high.

        ``iterations`` counts passes -- one sweep over the transitions of
        one level -- and the span records the store size after each.
        """
        bdd = self.bdd
        nodes = bdd._nodes
        make = bdd._make_node
        disj = bdd.disj
        relations = self._relation
        bottom = len(bdd.variables)
        by_top: Dict[int, List[int]] = {}
        for index, relation in enumerate(relations):
            if relation:
                by_top.setdefault(relation[0][0], []).append(index)
        # next_top[k]: the first level at or below k that is some
        # transition's top, ``bottom`` when there is none.
        next_top = [bottom] * (bottom + 1)
        for level in range(bottom - 1, -1, -1):
            next_top[level] = level if level in by_top else next_top[level + 1]
        closed: Dict[Tuple[int, int], int] = {}
        images: Dict[Tuple[int, int, int, int], int] = {}
        live = span.live
        passes = 0
        fired = 0

        def saturate(f: int, k: int) -> int:
            nonlocal passes, fired
            top = next_top[k]
            if f < 2 or top == bottom:
                return f
            key = (f, top)
            result = closed.get(key)
            if result is not None:
                return result
            level, low, high = nodes[f]
            if level < top:
                result = make(level, saturate(low, level + 1), saturate(high, level + 1))
            else:
                if level == top:
                    low = saturate(low, top + 1)
                    high = saturate(high, top + 1)
                else:
                    low = high = saturate(f, top + 1)
                group = by_top[top]
                growing = True
                while growing:
                    growing = False
                    for index in group:
                        _, must, new = relations[index][0]
                        if must:
                            image = product(high, index, 1, top + 1)
                        else:
                            image = disj(
                                product(low, index, 1, top + 1),
                                product(high, index, 1, top + 1),
                            )
                        fired += 1
                        if new:
                            joined = disj(high, image)
                            if joined != high:
                                high, growing = joined, True
                        else:
                            joined = disj(low, image)
                            if joined != low:
                                low, growing = joined, True
                    passes += 1
                    if live:
                        span.append("pass_nodes", len(nodes))
                result = make(top, low, high)
            closed[key] = result
            closed[(result, top)] = result
            return result

        def product(f: int, index: int, position: int, k: int) -> int:
            relation = relations[index]
            if f == 0 or position == len(relation):
                return f
            key = (f, index, position, next_top[k])
            result = images.get(key)
            if result is not None:
                return result
            at, must, new = relation[position]
            level, low, high = nodes[f]
            if level < at:
                result = make(
                    level,
                    product(low, index, position, level + 1),
                    product(high, index, position, level + 1),
                )
            else:
                if level > at:
                    low = high = f
                if must:
                    below = product(high, index, position + 1, at + 1)
                else:
                    below = disj(
                        product(low, index, position + 1, at + 1),
                        product(high, index, position + 1, at + 1),
                    )
                    closed[(below, next_top[at + 1])] = below
                result = make(at, 0, below) if new else make(at, below, 0)
            result = saturate(result, k)
            images[key] = result
            return result

        reached = saturate(self._initial, 0)
        # The two closures reference each other, so without this the memo
        # tables would outlive the call until the cycle collector ran.
        closed.clear()
        images.clear()
        self.iterations = passes
        if live:
            span.counter("images_computed", fired)
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

    def places_differ(self) -> int:
        """BDD of ``exists i . p_i != p'_i`` (marking inequality)."""
        bdd = self.bdd
        return bdd.disj_all(
            bdd.xor(bdd.var(_PLACE + p), bdd.var(_PLACE_PRIMED + p))
            for p in self.places
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
    def _enabled_with(self, index: int, condition: int) -> bool:
        """True when a reachable state enables the transition while
        ``condition`` holds."""
        bdd = self.bdd
        if condition == bdd.FALSE:
            return False
        guard = bdd.conj(self._enable[index], condition)
        return bdd.and_exists(self.reachable_set(), guard, bdd.variables) != bdd.FALSE

    def has_firing_defect(self) -> bool:
        """True when a reachable state enables an unsafe or inconsistent
        firing: one relational product per transition answers for both
        witnesses below, which then name the defect."""
        disj = self.bdd.disj
        return any(
            self._enabled_with(index, disj(unsafe, wrong))
            for index, (unsafe, wrong) in enumerate(zip(self._unsafe_or, self._wrong_value))
        )

    def unsafe_witness(self) -> Optional[str]:
        """Name of a transition whose firing would not be safe, if any."""
        return next(
            (t for i, t in enumerate(self.transitions) if self._enabled_with(i, self._unsafe_or[i])),
            None,
        )

    def inconsistent_enabled_witness(self) -> Optional[str]:
        """A labelled transition enabled while its signal already holds the
        target value (violating consistent state assignment), if any."""
        return next(
            (t for i, t in enumerate(self.transitions) if self._enabled_with(i, self._wrong_value[i])),
            None,
        )

    def has_code_clash(self) -> bool:
        """True when some marking is reachable with two different codes.

        Every reachable marking has at least one code, so this holds
        exactly when there are more reachable states than markings: two
        solution counts, with no product of the reached set and a copy.
        """
        if not self.signals:
            return False
        return self.count_states() > self.count_markings()

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
