"""repro.spaces -- explicit and symbolic state spaces behind one protocol.

The SG-based synthesis flows, the CSC machinery and the experiment
harnesses all consume a :class:`StateSpace`:

* :class:`ExplicitStateSpace` -- the packed breadth-first State Graph
  (the SIS-like engine, ``engine="explicit"``);
* :class:`SymbolicStateSpace` -- a BDD characteristic function over
  markings x codes (the Petrify-like engine, ``engine="bdd"``), which
  answers every query -- state counts, regions, covers, USC/CSC -- without
  ever materialising the reachable state list.

:func:`build_state_space` is the single construction point the synthesis
layer and the CLI dispatch through.
"""

from typing import Optional

from .base import CodingReport, StateSpace
from .explicit import ExplicitStateSpace
from .symbolic import SymbolicStateSpace

__all__ = [
    "StateSpace",
    "CodingReport",
    "ExplicitStateSpace",
    "SymbolicStateSpace",
    "build_state_space",
    "ENGINES",
]

ENGINES = ("explicit", "bdd")


def build_state_space(
    stg,
    engine: str = "explicit",
    max_states: Optional[int] = None,
) -> StateSpace:
    """Build the state space of an STG with the requested engine.

    Both engines accept only the nets :class:`~repro.core.PackedNet`
    accepts and raise :class:`~repro.core.UnsafeNetError` for any other.
    ``max_states`` bounds the reachable-state count for both engines (the
    explicit engine raises during enumeration, the symbolic one from a
    solution count of its fixed point).
    """
    if engine == "explicit":
        return ExplicitStateSpace(stg, max_states=max_states)
    if engine == "bdd":
        return SymbolicStateSpace(stg, max_states=max_states)
    raise ValueError("unknown state-space engine %r (choose from %s)" % (engine, ENGINES))
