"""Unified synthesis entry point.

``synthesize(stg, method=...)`` dispatches to one of the three flows and
normalises their results into a single :class:`SynthesisResult` carrying the
timing breakdown of Table 1 (UnfTim / SynTim / EspTim / TotTim), the literal
count and diagnostic information.

Methods
-------
``"unfolding-approx"``
    The paper's contribution (PUNT ACG): STG-unfolding segment + cover
    approximation + refinement.
``"unfolding-exact"``
    Exact state recovery from the segment (Section 4.1).
``"sg-explicit"``
    The SIS-like baseline: explicit State Graph + exact covers.
``"sg-bdd"``
    The Petrify-like baseline: the fully symbolic state space
    (:class:`repro.spaces.SymbolicStateSpace`) -- reachability, CSC
    checking and cover extraction all run on the BDD characteristic
    function; the explicit state list is never materialised.

The state-space backend of the SG methods can also be chosen uniformly via
``engine="explicit" | "bdd"`` (the CLI's ``--engine`` flag), which
overrides the engine implied by the method name.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..obs import current_tracer
from ..stg import STG
from .netlist import Implementation
from .sg_synthesis import synthesize_from_sg
from .unfolding_approx import synthesize_approx_from_unfolding
from .unfolding_exact import synthesize_exact_from_unfolding

__all__ = ["SynthesisResult", "synthesize", "METHODS"]

METHODS = ("unfolding-approx", "unfolding-exact", "sg-explicit", "sg-bdd")


class SynthesisResult:
    """Normalised result of any synthesis method.

    Attributes
    ----------
    method:
        One of :data:`METHODS`.
    implementation:
        The gate-level implementation.
    unfold_time / cover_time / minimize_time:
        The paper's UnfTim / SynTim / EspTim columns.  For the SG-based
        methods ``unfold_time`` holds the state-graph construction time.
    num_states:
        Number of explicit states visited (SG methods) or recovered states /
        segment events (unfolding methods) -- a size indicator for reports.
    details:
        The method-specific result object (kept for ablation studies).
    engine:
        The state-space engine that answered the SG queries
        (``"explicit"`` / ``"bdd"``); ``None`` for the unfolding methods,
        which never build a state space.
    encoding:
        The :class:`~repro.encoding.resolve.EncodingResult` of the CSC
        resolution pass, when ``resolve_encoding`` was requested and
        conflicts were found (``None`` otherwise).
    """

    def __init__(
        self,
        method: str,
        implementation: Implementation,
        unfold_time: float,
        cover_time: float,
        minimize_time: float,
        num_states: int,
        details: object,
        encoding: object = None,
        engine: Optional[str] = None,
    ) -> None:
        self.method = method
        self.implementation = implementation
        self.unfold_time = unfold_time
        self.cover_time = cover_time
        self.minimize_time = minimize_time
        self.num_states = num_states
        self.details = details
        self.encoding = encoding
        self.engine = engine

    @property
    def csc_signals_added(self) -> int:
        """Internal signals inserted by the encoding pass (0 when off/clean)."""
        return self.encoding.num_inserted if self.encoding is not None else 0

    @property
    def csc_resolved(self) -> bool:
        """True when the synthesised circuit is free of CSC conflicts."""
        return not self.implementation.has_csc_conflict

    @property
    def total_time(self) -> float:
        return self.unfold_time + self.cover_time + self.minimize_time

    @property
    def literal_count(self) -> int:
        return self.implementation.total_literals

    def timing_row(self) -> Dict[str, float]:
        """Timing breakdown in the shape of a Table 1 row."""
        return {
            "UnfTim": self.unfold_time,
            "SynTim": self.cover_time,
            "EspTim": self.minimize_time,
            "TotTim": self.total_time,
        }

    def __repr__(self) -> str:
        return "SynthesisResult(method=%r, literals=%d, total=%.3fs)" % (
            self.method,
            self.literal_count,
            self.total_time,
        )


def synthesize(
    stg: STG,
    method: str = "unfolding-approx",
    architecture: str = "acg",
    raise_on_csc: bool = False,
    max_states: Optional[int] = None,
    resolve_encoding: bool = False,
    max_csc_signals: int = 3,
    engine: Optional[str] = None,
) -> SynthesisResult:
    """Synthesise a speed-independent implementation of an STG.

    See the module docstring for the available methods.  ``max_states``
    bounds the state space of the SG methods (both engines) so experiments
    can report "did not finish" instead of running out of memory.
    Every method accepts only the nets :class:`~repro.core.PackedNet`
    accepts (safe, weight-1, every transition with an input place) and
    raises :class:`~repro.core.UnsafeNetError` for any other.  ``engine``
    overrides the state-space backend implied by the SG method
    name (``"sg-explicit"`` + ``engine="bdd"`` runs symbolically); the
    unfolding methods ignore it.

    With ``resolve_encoding`` the specification's CSC conflicts are first
    resolved by inserting up to ``max_csc_signals`` internal state signals
    (:func:`repro.encoding.resolve_csc`); synthesis then runs on the
    rewritten STG, whose inserted signals are implemented like any other
    internal signal.  The result's ``encoding`` attribute carries the
    resolution report and ``csc_signals_added`` / ``csc_resolved`` summarise
    it.  Specifications already satisfying CSC pass through untouched.
    """
    if method not in METHODS:
        raise ValueError("unknown synthesis method %r (choose from %s)" % (method, METHODS))

    with current_tracer().span(
        "synthesize", method=method, architecture=architecture, benchmark=stg.name
    ) as span:
        encoding = None
        if resolve_encoding:
            from ..encoding import resolve_csc

            encoding = resolve_csc(
                stg, max_signals=max_csc_signals, max_states=max_states
            )
            if encoding.inserted:
                stg = encoding.stg
            elif encoding.resolved:
                encoding = None  # already CSC-clean: nothing to report

        result = _dispatch(stg, method, architecture, raise_on_csc, max_states, engine)
        result.encoding = encoding
        if span.live:
            span.gauge("literals", result.literal_count)
            span.gauge("num_states", result.num_states)
            span.gauge("csc_resolved", result.csc_resolved)
    return result


def _dispatch(
    stg: STG,
    method: str,
    architecture: str,
    raise_on_csc: bool,
    max_states: Optional[int],
    engine: Optional[str] = None,
) -> SynthesisResult:
    if method == "unfolding-approx":
        result = synthesize_approx_from_unfolding(
            stg, architecture=architecture, raise_on_csc=raise_on_csc
        )
        return SynthesisResult(
            method,
            result.implementation,
            result.unfold_time,
            result.cover_time,
            result.minimize_time,
            result.segment.num_events,
            result,
        )
    if method == "unfolding-exact":
        result = synthesize_exact_from_unfolding(
            stg, architecture=architecture, raise_on_csc=raise_on_csc
        )
        return SynthesisResult(
            method,
            result.implementation,
            result.unfold_time,
            result.cover_time,
            result.minimize_time,
            result.num_recovered_states,
            result,
        )
    if engine is None:
        engine = "bdd" if method == "sg-bdd" else "explicit"
    result = synthesize_from_sg(
        stg,
        architecture=architecture,
        engine=engine,
        max_states=max_states,
        raise_on_csc=raise_on_csc,
    )
    return SynthesisResult(
        method,
        result.implementation,
        result.build_time,
        result.cover_time,
        result.minimize_time,
        result.num_states,
        result,
        engine=result.engine,
    )
