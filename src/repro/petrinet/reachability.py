"""Explicit reachability analysis for Petri nets.

The reachability graph is the state-space substrate of the SG-based baselines
("SIS-like" synthesis) the paper compares against, and is also used by the
test suite as the ground truth the unfolding-based algorithms must agree
with.  Exploration is plain breadth-first search with an optional state
budget so experiments can record "did not finish" outcomes instead of
exhausting memory, mirroring how the paper reports tools choking on large
specifications.

The walk plays the dict-based token game on :class:`Marking` objects, so it
handles any net, including nets with arc weights above 1 and reachable
markings above 1 token per place: :func:`~repro.petrinet.validate_net`
reports their bounds from it.  The STG flows never call it; they run on the
packed token game of :class:`~repro.core.PackedNet`, which accepts only
safe, weight-1 nets.  The tests use this walk as an independent oracle for
the packed State Graph.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from .marking import Marking
from .net import PetriNet

__all__ = ["ReachabilityGraph", "StateSpaceLimitExceeded", "explore"]


class StateSpaceLimitExceeded(RuntimeError):
    """Raised when exploration exceeds the configured state budget."""

    def __init__(self, limit: int) -> None:
        super().__init__("state-space exploration exceeded %d states" % limit)
        self.limit = limit


class ReachabilityGraph:
    """The reachability graph of a marked Petri net.

    Attributes
    ----------
    net:
        The explored net.
    markings:
        List of reachable markings; index 0 is the initial marking.
    edges:
        List of ``(source_index, transition, target_index)`` triples.
    """

    def __init__(self, net: PetriNet) -> None:
        self.net = net
        self.edges: List[Tuple[int, str, int]] = []
        self._marking_list: List[Marking] = []
        self._index: Dict[Marking, int] = {}
        self._successors: Dict[int, List[Tuple[str, int]]] = {}
        self._predecessors: Dict[int, List[Tuple[str, int]]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @property
    def markings(self) -> List[Marking]:
        return self._marking_list

    def add_marking(self, marking: Marking) -> int:
        """Register a marking (idempotent) and return its index."""
        index = self._index.get(marking)
        if index is None:
            index = len(self._index)
            self._index[marking] = index
            self._marking_list.append(marking)
            self._successors[index] = []
            self._predecessors[index] = []
        return index

    def add_edge(self, source: int, transition: str, target: int) -> None:
        """Register a ``source --transition--> target`` edge."""
        self.edges.append((source, transition, target))
        self._successors[source].append((transition, target))
        self._predecessors[target].append((transition, source))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._marking_list)

    @property
    def num_states(self) -> int:
        return len(self._marking_list)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def index_of(self, marking: Marking) -> Optional[int]:
        """Index of the marking, or ``None`` if unreachable."""
        return self._index.get(marking)

    def contains(self, marking: Marking) -> bool:
        return self.index_of(marking) is not None

    def successors(self, index: int) -> List[Tuple[str, int]]:
        """Outgoing ``(transition, target)`` pairs of a state.

        Returns the stored list -- callers must not mutate it.
        """
        return self._successors[index]

    def predecessors(self, index: int) -> List[Tuple[str, int]]:
        """Incoming ``(transition, source)`` pairs of a state.

        Returns the stored list -- callers must not mutate it.
        """
        return self._predecessors[index]

    def enabled_at(self, index: int) -> List[str]:
        """Transitions enabled in the given state."""
        return [transition for transition, _target in self._successors[index]]

    def deadlocks(self) -> List[int]:
        """Indices of states with no enabled transitions."""
        return [i for i in range(self.num_states) if not self._successors[i]]

    def is_safe(self) -> bool:
        """True if every reachable marking is 1-bounded."""
        return all(marking.is_safe() for marking in self._marking_list)

    def bound(self) -> int:
        """Maximum token count of any place over all reachable markings."""
        maximum = 0
        for marking in self._marking_list:
            for _place, tokens in marking.items():
                maximum = max(maximum, tokens)
        return maximum

    def markings_enabling(self, transition: str) -> List[int]:
        """All states from which ``transition`` can fire."""
        return [
            i
            for i in range(self.num_states)
            if self.net.is_enabled(self.markings[i], transition)
        ]

    def __repr__(self) -> str:
        return "ReachabilityGraph(states=%d, edges=%d)" % (
            self.num_states,
            self.num_edges,
        )


def explore(
    net: PetriNet,
    initial: Optional[Marking] = None,
    max_states: Optional[int] = None,
) -> ReachabilityGraph:
    """Breadth-first exploration of the reachability graph.

    Parameters
    ----------
    net:
        The Petri net to explore.
    initial:
        Starting marking; defaults to the net's initial marking.
    max_states:
        Optional budget; :class:`StateSpaceLimitExceeded` is raised when more
        states than this would be generated.
    """
    start = initial if initial is not None else net.initial_marking
    graph = ReachabilityGraph(net)
    queue = deque([graph.add_marking(start)])
    explored: Set[int] = set()
    while queue:
        index = queue.popleft()
        if index in explored:
            continue
        explored.add(index)
        marking = graph.markings[index]
        for transition in net.enabled_transitions(marking):
            successor = net.fire(marking, transition)
            known = graph.contains(successor)
            target = graph.add_marking(successor)
            if max_states is not None and graph.num_states > max_states:
                raise StateSpaceLimitExceeded(max_states)
            graph.add_edge(index, transition, target)
            if not known:
                queue.append(target)
    return graph
