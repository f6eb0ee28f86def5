"""STG-unfolding segments: construction, cuts, slices and checks."""

from .occurrence_net import Condition, Event, OccurrenceNet
from .unfolder import FrontierEvent, UnfoldingError, UnfoldingSegment, unfold
from .cuts import (
    Cut,
    cut_enables,
    enumerate_cuts,
    initial_cut,
    reachable_packed_states,
    reachable_states,
)
from .slices import Slice, off_slices, on_slices, slices_for_signal
from .semimodularity import SemimodularityViolation, check_semimodularity

__all__ = [
    "Condition",
    "Event",
    "OccurrenceNet",
    "FrontierEvent",
    "UnfoldingError",
    "UnfoldingSegment",
    "unfold",
    "Cut",
    "cut_enables",
    "enumerate_cuts",
    "initial_cut",
    "reachable_packed_states",
    "reachable_states",
    "Slice",
    "off_slices",
    "on_slices",
    "slices_for_signal",
    "SemimodularityViolation",
    "check_semimodularity",
]
