"""Compiled packed token game for safe Petri nets.

:class:`PackedNet` pre-compiles every transition of a weight-1 net into a
``(preset_mask, postset_mask)`` pair over the net's
:class:`~repro.core.tables.PlaceTable`.  On a packed marking ``m``:

* ``t`` is enabled        iff ``m & preset == preset``;
* firing ``t`` yields     ``(m & ~preset) | postset``;
* the firing is **unsafe** iff ``(m & ~preset) & postset != 0`` (a token
  would be produced onto an already marked place), in which case
  :class:`~repro.core.packed.UnsafeNetError` is raised.

Compiling the net is the one gate every STG flow passes: a net with an arc
weight above 1, an unsafe initial marking, a transition without input
places or a transition without output places raises
:class:`~repro.core.packed.UnsafeNetError` here, before any exploration
starts.  A transition without input places is always enabled, so it fires
again and again; the unfolder would never even add it, since it looks for
possible extensions only from new conditions.  A transition without output
places is the dual: firing it destroys tokens, and when it takes the last
ones the marking is empty -- a state that no condition of the unfolding
segment marks, so the slice-based cover approximation has no cube for it.

Self-loops (a place in both preset and postset) are handled naturally:
``(m & ~preset) | postset`` re-produces the consumed token.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from .packed import MarkingCodec, UnsafeNetError
from .tables import PlaceTable

__all__ = ["PackedNet"]


class PackedNet:
    """The token game of a safe, weight-1 net compiled to integer masks.

    Attributes
    ----------
    net:
        The source :class:`~repro.petrinet.net.PetriNet`.
    codec:
        The :class:`MarkingCodec` mapping markings to packed ints.
    transitions:
        Transition names, index-aligned with the mask arrays.
    """

    __slots__ = (
        "net",
        "codec",
        "transitions",
        "presets",
        "postsets",
        "initial",
        "structural_version",
        "_transition_index",
    )

    def __init__(self, net) -> None:
        packable, reason = _packable(net)
        if not packable:
            raise UnsafeNetError(reason)
        self.net = net
        #: The net's structural stamp at compile time; :meth:`is_stale`
        #: compares it against the live net so callers never replay the
        #: token game of a mutated net against stale masks.
        self.structural_version = getattr(net, "structural_version", 0)
        self.codec = MarkingCodec.for_net(net)
        self.transitions: Tuple[str, ...] = net.transitions
        places = self.codec.places
        self.presets: List[int] = []
        self.postsets: List[int] = []
        self._transition_index = {}
        for index, transition in enumerate(self.transitions):
            self.presets.append(places.mask_of(net.preset(transition)))
            self.postsets.append(places.mask_of(net.postset(transition)))
            self._transition_index[transition] = index
        self.initial = self.codec.encode(net.initial_marking)

    def is_stale(self) -> bool:
        """True when the source net mutated after this compile."""
        return getattr(self.net, "structural_version", 0) != self.structural_version

    # ------------------------------------------------------------------ #
    # Token game on packed markings
    # ------------------------------------------------------------------ #
    def is_enabled(self, marking: int, index: int) -> bool:
        preset = self.presets[index]
        return marking & preset == preset

    def enabled_indices(self, marking: int) -> List[int]:
        """Indices of enabled transitions, in declaration order."""
        presets = self.presets
        return [
            i for i in range(len(presets)) if marking & presets[i] == presets[i]
        ]

    def fire(self, marking: int, index: int) -> int:
        """Fire transition ``index``; raises :class:`UnsafeNetError` when the
        firing would place a second token on a marked place."""
        preset = self.presets[index]
        remainder = marking & ~preset
        postset = self.postsets[index]
        if remainder & postset:
            raise UnsafeNetError(
                "firing %r from packed marking %#x is not safe"
                % (self.transitions[index], marking)
            )
        return remainder | postset

    def transition_index(self, transition: str) -> int:
        return self._transition_index[transition]

    def __repr__(self) -> str:
        return "PackedNet(%r, places=%d, transitions=%d)" % (
            self.net.name,
            len(self.codec.places),
            len(self.transitions),
        )


def _packable(net) -> Tuple[bool, str]:
    """Check the net's structure and initial marking for the packed form.

    The net may still turn out to be non-safe during exploration; the
    per-firing safety check raises :class:`UnsafeNetError` in that case.
    """
    for transition in net.transitions:
        preset = net.preset(transition)
        if not preset:
            return False, "transition %s has no input place" % transition
        if not net.postset(transition):
            return False, "transition %s has no output place" % transition
        for place, weight in preset.items():
            if weight > 1:
                return False, "arc %s -> %s has weight %d" % (place, transition, weight)
        for place, weight in net.postset(transition).items():
            if weight > 1:
                return False, "arc %s -> %s has weight %d" % (transition, place, weight)
    if not net.initial_marking.is_safe():
        return False, "initial marking is not safe"
    return True, ""
