"""ROBDD package and symbolic reachability (the Petrify-like substrate)."""

from .manager import BDD
from .isop import isop
from .reachability import SymbolicNet, count_reachable_markings

__all__ = [
    "BDD",
    "isop",
    "SymbolicNet",
    "count_reachable_markings",
]
