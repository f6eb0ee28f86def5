"""Explicit State Graph construction, regions, and state-coding checks."""

from .stategraph import InconsistentSTGError, StateGraph, build_state_graph
from .incremental import InsertionEdit, extend_state_graph
from .regions import (
    SignalRegions,
    compute_regions,
    dc_set_cover,
    excitation_region,
    off_set_states,
    on_set_states,
    quiescent_region,
    states_to_cover,
)
from .csc import (
    CSCReport,
    PersistencyViolation,
    check_csc,
    check_output_persistency,
    check_usc,
)

__all__ = [
    "InconsistentSTGError",
    "StateGraph",
    "build_state_graph",
    "InsertionEdit",
    "extend_state_graph",
    "SignalRegions",
    "compute_regions",
    "dc_set_cover",
    "excitation_region",
    "off_set_states",
    "on_set_states",
    "quiescent_region",
    "states_to_cover",
    "CSCReport",
    "PersistencyViolation",
    "check_csc",
    "check_output_persistency",
    "check_usc",
]
