"""Per-layer tracing at the program's public layer boundaries.

The traced pass replaces each boundary function, in the module namespace
its caller looks it up in, by a wrapper that records the call's span.  A
layer's self time is its span minus the spans of the boundaries it called;
whatever no boundary covers is reported as ``unattributed_s``.  Nothing in
the program changes, and an untraced pass installs nothing.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Name and unit of every per-layer metric, in report order.
PER_LAYER = [
    ("stg.parse_s", "s"),
    ("unfolding.unfold_s", "s"),
    ("unfolding.events", "count"),
    ("synthesis.approx_s", "s"),
    ("synthesis.refine_s", "s"),
    ("synthesis.refine_rounds", "count"),
    ("synthesis.parts_refined", "count"),
    ("boolean.espresso_s", "s"),
    ("boolean.espresso_calls", "count"),
    ("boolean.espresso_cubes_in", "count"),
    ("spaces.bdd_build_s", "s"),
    ("spaces.query_s", "s"),
    ("bdd.peak_nodes", "count"),
    ("bdd.fixpoint_passes", "count"),
    ("spaces.explicit_build_s", "s"),
    ("stategraph.states", "count"),
    ("stategraph.csc_check_s", "s"),
    ("stategraph.extend_s", "s"),
    ("stategraph.states_reexplored", "count"),
    ("encoding.regions_s", "s"),
    ("encoding.rank_s", "s"),
    ("encoding.cores_s", "s"),
    ("encoding.persistency_s", "s"),
    ("encoding.conformance_s", "s"),
    ("encoding.candidates", "count"),
    ("encoding.accept_ratio", "ratio"),
    ("sim.verify_s", "s"),
    ("sim.states", "count"),
    ("unattributed_s", "s"),
    ("trace_overhead_s", "s"),
]

#: The self-time metrics of named layers.
LAYER_TIMES = frozenset(
    name for name, unit in PER_LAYER if unit == "s"
) - {"unattributed_s", "trace_overhead_s"}


class Tracer:
    """Self time per layer metric, plus the counts read at its boundaries."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = defaultdict(int)
        self._child_time: List[float] = [0.0]

    def call(self, metric: Optional[str], fn: Callable, *args, **kwargs):
        """Run ``fn`` as a span whose self time goes to ``metric``.  A span
        without a metric still hides its time from its parent's self time,
        so its own remainder shows as unattributed."""
        self._child_time.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            children = self._child_time.pop()
            if metric is not None:
                self.values[metric] += elapsed - children
            self._child_time[-1] += elapsed

    def count(self, metric: str, amount: float = 1) -> None:
        self.values[metric] += amount

    def attributed_s(self) -> float:
        return sum(value for name, value in self.values.items() if name in LAYER_TIMES)


# ---------------------------------------------------------------------- #
# Boundary hooks: counts read off each boundary's public result
# ---------------------------------------------------------------------- #
def _unfolded(tracer: Tracer, segment) -> None:
    tracer.count("unfolding.events", segment.num_events)


def _refined(tracer: Tracer, covers) -> None:
    tracer.count("synthesis.refine_rounds", covers.refinement_rounds)
    tracer.count("synthesis.parts_refined", covers.parts_refined)


def _space_built(tracer: Tracer, space) -> None:
    if space.engine == "bdd":
        values = tracer.values
        values["bdd.peak_nodes"] = max(values["bdd.peak_nodes"], space.peak_bdd_nodes)
        tracer.count("bdd.fixpoint_passes", space.iterations)
    else:
        tracer.count("stategraph.states", space.num_states)


def _graph_built(tracer: Tracer, graph) -> None:
    tracer.count("stategraph.states", graph.num_states)


def _candidate(tracer: Tracer, _edit) -> None:
    tracer.count("encoding.candidates")


def _space_metric(args, kwargs) -> str:
    engine = kwargs.get("engine", args[1] if len(args) > 1 else "explicit")
    return "spaces.bdd_build_s" if engine == "bdd" else "spaces.explicit_build_s"


#: (module the caller looks the name up in, attribute, metric, hook).  The
#: metric may be a function of the call's arguments; ``None`` times nothing.
BOUNDARIES = [
    ("repro.synthesis.unfolding_approx", "unfold", "unfolding.unfold_s", _unfolded),
    ("repro.synthesis.unfolding_approx", "approximate_signal_covers", "synthesis.approx_s", None),
    ("repro.synthesis.unfolding_approx", "refine_signal_covers", "synthesis.refine_s", _refined),
    ("repro.synthesis.synthesizer", "synthesize_from_sg", "spaces.query_s", None),
    ("repro.synthesis.sg_synthesis", "build_state_space", _space_metric, _space_built),
    ("repro.encoding.resolve", "build_state_graph", "spaces.explicit_build_s", _graph_built),
    ("repro.encoding.resolve", "check_csc", "stategraph.csc_check_s", None),
    ("repro.encoding.resolve", "extend_state_graph", "stategraph.extend_s", None),
    ("repro.encoding.resolve", "candidate_regions", "encoding.regions_s", None),
    ("repro.encoding.resolve", "choose_insertion", "encoding.rank_s", None),
    ("repro.encoding.resolve", "conflict_cores", "encoding.cores_s", None),
    ("repro.encoding.resolve", "check_output_persistency", "encoding.persistency_s", None),
    ("repro.encoding.resolve", "projection_conforms", "encoding.conformance_s", None),
    ("repro.encoding.resolve", "make_insertion_edit", None, _candidate),
]


def _wrap(tracer: Tracer, fn: Callable, metric, hook) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = metric(args, kwargs) if callable(metric) else metric
        result = tracer.call(name, fn, *args, **kwargs)
        if hook is not None:
            hook(tracer, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Route every boundary call of the imported program through ``tracer``."""
    for module_name, attribute, metric, hook in BOUNDARIES:
        module = importlib.import_module(module_name)
        setattr(module, attribute, _wrap(tracer, getattr(module, attribute), metric, hook))

    # espresso is imported by name into every cover-producing module: wrap
    # each binding, so that every caller is timed.
    from repro.boolean.minimize import espresso

    @functools.wraps(espresso)
    def traced_espresso(on, *args, **kwargs):
        result = tracer.call("boolean.espresso_s", espresso, on, *args, **kwargs)
        tracer.count("boolean.espresso_calls")
        tracer.count("boolean.espresso_cubes_in", len(on))
        return result

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "espresso", None) is espresso:
            module.espresso = traced_espresso
