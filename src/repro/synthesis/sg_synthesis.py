"""State-space based synthesis (the "SIS-like" / "Petrify-like" baselines).

This is the conventional flow the paper compares against (Section 2):
compute the reachable state space, extract the exact on-set / off-set of
every implementable signal, use the unreachable codes as don't cares and
minimise.  Both baselines now run through the :mod:`repro.spaces` protocol,
so they share one synthesis code path and differ only in the engine that
answers the state-space queries:

* ``engine="explicit"`` -- breadth-first enumeration into the packed State
  Graph (what SIS does);
* ``engine="bdd"``      -- a genuinely symbolic flow (the Petrify-style
  baseline): reachability is a BDD fixed point over a characteristic
  function of markings x codes, CSC is decided per signal from the same
  on/off code sets the covers come from, and the signal covers are
  extracted by an ISOP pass over the code variables.  The explicit
  reachable state list is *never* materialised on this path -- which is
  exactly what the Figure 6 experiment measures when the explicit engine's
  enumeration blows up.

In the ``acg`` architecture espresso takes the space's exact off-cover as
its blocking set (:meth:`~repro.spaces.StateSpace.off_cover`) instead of
complementing ``on + dc`` itself; for a CSC-clean signal both are the same
function, so the minimised cover is the same cube for cube.

Both engines produce functionally equivalent implementations (the
equivalence suite in ``tests/test_spaces.py`` checks the underlying sets
match exactly); cube-level structure may differ because the symbolic flow
seeds espresso with ISOP covers instead of per-state minterms.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..boolean import BooleanFunction, Cover, Cube, espresso
from ..obs import current_tracer
from ..spaces import StateSpace, build_state_space
from ..stg import STG, CSCConflictError
from ..stg.signals import Direction
from .netlist import Gate, Implementation

__all__ = ["SGSynthesisResult", "synthesize_from_sg"]


class SGSynthesisResult:
    """Implementation plus the timing breakdown of the SG-based flow."""

    def __init__(
        self,
        implementation: Implementation,
        state_graph,
        build_time: float,
        cover_time: float,
        minimize_time: float,
        num_states: int,
        space: Optional[StateSpace] = None,
        engine: str = "explicit",
    ) -> None:
        self.implementation = implementation
        self.state_graph = state_graph
        self.build_time = build_time
        self.cover_time = cover_time
        self.minimize_time = minimize_time
        self.num_states = num_states
        self.space = space
        self.engine = engine

    @property
    def total_time(self) -> float:
        return self.build_time + self.cover_time + self.minimize_time

    def __repr__(self) -> str:
        return "SGSynthesisResult(engine=%s, states=%d, literals=%d, total=%.3fs)" % (
            self.engine,
            self.num_states,
            self.implementation.total_literals,
            self.total_time,
        )


def synthesize_from_sg(
    stg: STG,
    architecture: str = "acg",
    engine: str = "explicit",
    max_states: Optional[int] = None,
    raise_on_csc: bool = False,
) -> SGSynthesisResult:
    """Synthesise every implementable signal from the state space.

    Parameters
    ----------
    stg:
        Specification to synthesise.
    architecture:
        ``"acg"`` (default), ``"c-element"`` or ``"rs-latch"``.
    engine:
        ``"explicit"`` or ``"bdd"`` -- which state-space engine to use.
    max_states:
        Optional state budget, honoured by both engines (the explicit one
        raises while enumerating, the symbolic one from a solution count).
    raise_on_csc:
        When True a CSC conflict raises :class:`~repro.stg.CSCConflictError`
        naming every conflicting signal; otherwise the conflicting signals
        are recorded in ``implementation.csc_conflicts`` and skipped.
    """
    obs = current_tracer()
    start = time.perf_counter()
    space = build_state_space(stg, engine=engine, max_states=max_states)
    build_time = time.perf_counter() - start

    signals = stg.signals
    implementation = Implementation(stg.name, architecture, signals)
    dc = None
    cover_time = 0.0
    minimize_time = 0.0

    with obs.span("csc", stage="check", engine=space.engine) as csc_span:
        conflicting_signals = space.conflicting_signals()
        if csc_span.live:
            csc_span.gauge("conflicting_signals", len(conflicting_signals))
    if conflicting_signals and raise_on_csc:
        raise CSCConflictError(conflicting_signals)

    with obs.span("covers", engine=space.engine) as cover_span:
        for signal in stg.implementable_signals:
            if signal in conflicting_signals:
                implementation.csc_conflicts.append(signal)
                cover_span.counter("signals_skipped_csc")
                continue

            t0 = time.perf_counter()
            on_cover = space.on_cover(signal)
            if architecture == "acg":
                # The exact off-set blocks espresso's expansion: for a
                # CSC-clean signal it is the function complement(on + dc),
                # which espresso would otherwise rebuild from cubes.
                off_cover = space.off_cover(signal)
            else:
                set_on = space.set_cover(signal)
                reset_on = space.reset_cover(signal)
                qr_high = space.quiescent_cover(signal, 1)
                qr_low = space.quiescent_cover(signal, 0)
            cover_time += time.perf_counter() - t0

            t1 = time.perf_counter()
            if dc is None:
                dc = space.dc_cover()
            if architecture == "acg":
                minimized = espresso(on_cover, dc, off=off_cover).cover
                gate = Gate(signal, architecture, function=BooleanFunction(signals, minimized))
            else:
                # For the set (reset) excitation function the quiescent region at
                # 1 (0) is a don't care: the memory element holds the value there.
                set_dc = dc.union(qr_high)
                reset_dc = dc.union(qr_low)
                set_cover = espresso(set_on, set_dc).cover
                reset_cover = espresso(reset_on, reset_dc).cover
                gate = Gate(
                    signal,
                    architecture,
                    set_function=BooleanFunction(signals, set_cover),
                    reset_function=BooleanFunction(signals, reset_cover),
                )
            minimize_time += time.perf_counter() - t1
            implementation.add_gate(gate)
            cover_span.counter("signals_implemented")

    return SGSynthesisResult(
        implementation=implementation,
        state_graph=space.explicit_graph,
        build_time=build_time,
        cover_time=cover_time,
        minimize_time=minimize_time,
        num_states=space.num_states,
        space=space,
        engine=space.engine,
    )
