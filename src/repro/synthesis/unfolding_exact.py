"""Exact synthesis from the STG-unfolding segment (Section 4.1).

The exact path never builds the State Graph; it recovers binary states from
the segment (every reachable state is the image of a cut of the segment) and
derives the same covers an SG-based tool would.  The paper points out that
this approach "may suffer from exponential explosion of states" -- it is the
reference the approximate path (Section 4.2/4.3) is compared against, and it
also serves as the safe fallback when refinement detects a CSC problem.

State recovery and cover extraction run entirely on packed states
(``marking_word -> code_word``, see :mod:`repro.unfolding.cuts`): implied
values are mask-ANDs of the packed marking against the original net's
transition presets, and every cover is fed to espresso as ``(ones, zeros)``
mask cubes (a packed code *is* a minterm) without tuple round-trips.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from ..boolean import BooleanFunction, Cover, espresso, minterm_cover
from ..boolean.slices import code_complement
from ..stg import STG
from ..unfolding import UnfoldingSegment, reachable_packed_states, unfold
from .netlist import Gate, Implementation

__all__ = [
    "exact_signal_covers",
    "ExactUnfoldingSynthesisResult",
    "synthesize_exact_from_unfolding",
]



def exact_signal_covers(
    segment: UnfoldingSegment,
    signal: str,
    states: Optional[Dict[int, int]] = None,
) -> Tuple[Cover, Cover, bool]:
    """Exact on/off covers of a signal recovered from the segment.

    ``states`` is the packed ``{marking_word: code_word}`` map of
    :func:`~repro.unfolding.reachable_packed_states` (recovered here when
    omitted).  Returns ``(on_cover, off_cover, csc_conflict)``.  A CSC
    conflict is present when the same binary code appears both in the
    on-set and in the off-set (two markings share a code but imply
    different values).
    """
    stg = segment.stg
    if states is None:
        states = reachable_packed_states(segment)
    nvars = len(stg.signals)
    implied = segment.implied_value_word
    on_codes = set()
    off_codes = set()
    for marking_word, code_word in states.items():
        if implied(marking_word, code_word, signal) == 1:
            on_codes.add(code_word)
        else:
            off_codes.add(code_word)
    conflict = bool(on_codes & off_codes)
    return minterm_cover(nvars, on_codes), minterm_cover(nvars, off_codes), conflict


class ExactUnfoldingSynthesisResult:
    """Implementation plus timing breakdown of the exact unfolding flow."""

    def __init__(
        self,
        implementation: Implementation,
        segment: UnfoldingSegment,
        unfold_time: float,
        cover_time: float,
        minimize_time: float,
        num_recovered_states: int,
    ) -> None:
        self.implementation = implementation
        self.segment = segment
        self.unfold_time = unfold_time
        self.cover_time = cover_time
        self.minimize_time = minimize_time
        self.num_recovered_states = num_recovered_states

    @property
    def total_time(self) -> float:
        return self.unfold_time + self.cover_time + self.minimize_time

    def __repr__(self) -> str:
        return "ExactUnfoldingSynthesisResult(states=%d, literals=%d, total=%.3fs)" % (
            self.num_recovered_states,
            self.implementation.total_literals,
            self.total_time,
        )


def synthesize_exact_from_unfolding(
    stg: STG,
    segment: Optional[UnfoldingSegment] = None,
    architecture: str = "acg",
    raise_on_csc: bool = False,
) -> ExactUnfoldingSynthesisResult:
    """Synthesise every implementable signal by exact state recovery.

    ``segment`` may be passed in when the caller already unfolded the STG
    (e.g. because it was verified first); otherwise it is built here and its
    construction time is reported as ``unfold_time``.
    """
    t0 = time.perf_counter()
    if segment is None:
        segment = unfold(stg)
    unfold_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    states = reachable_packed_states(segment)
    signals = stg.signals
    per_signal: Dict[str, Tuple[Cover, Cover, bool]] = {}
    for signal in stg.implementable_signals:
        per_signal[signal] = exact_signal_covers(segment, signal, states)
    cover_time = time.perf_counter() - t1

    implementation = Implementation(stg.name, architecture, signals)
    t2 = time.perf_counter()
    # The DC-set (unreachable codes) is signal-independent: on/off partition
    # the reachable codes for every signal, so one cover serves all of
    # them.  The ACG path avoids it entirely by blocking expansion with the
    # off-set cover directly.
    dc: Optional[Cover] = None
    nvars = len(signals)
    for signal, (on_cover, off_cover, conflict) in per_signal.items():
        if conflict:
            if raise_on_csc:
                raise ValueError("CSC conflict on signal %r" % signal)
            implementation.csc_conflicts.append(signal)
            continue
        if architecture == "acg":
            minimized = espresso(on_cover, off=off_cover).cover
            gate = Gate(signal, architecture, function=BooleanFunction(signals, minimized))
        else:
            if dc is None:
                dc = code_complement(nvars, set(states.values()))
            set_on, reset_on = _excitation_covers(segment, signal, states)
            set_dc = dc.union(_quiescent_cover(segment, signal, states, 1))
            reset_dc = dc.union(_quiescent_cover(segment, signal, states, 0))
            gate = Gate(
                signal,
                architecture,
                set_function=BooleanFunction(signals, espresso(set_on, set_dc).cover),
                reset_function=BooleanFunction(
                    signals, espresso(reset_on, reset_dc).cover
                ),
            )
        implementation.add_gate(gate)
    minimize_time = time.perf_counter() - t2

    return ExactUnfoldingSynthesisResult(
        implementation=implementation,
        segment=segment,
        unfold_time=unfold_time,
        cover_time=cover_time,
        minimize_time=minimize_time,
        num_recovered_states=len(states),
    )


def _excitation_covers(
    segment: UnfoldingSegment,
    signal: str,
    states: Dict[int, int],
) -> Tuple[Cover, Cover]:
    """Exact covers of ER(a+) and ER(a-) recovered from the segment."""
    stg = segment.stg
    nvars = len(stg.signals)
    plus_presets, minus_presets = segment.signal_preset_masks(signal)
    plus_codes = set()
    minus_codes = set()
    for marking_word, code_word in states.items():
        if any(marking_word & preset == preset for preset in plus_presets):
            plus_codes.add(code_word)
        if any(marking_word & preset == preset for preset in minus_presets):
            minus_codes.add(code_word)
    return minterm_cover(nvars, plus_codes), minterm_cover(nvars, minus_codes)


def _quiescent_cover(
    segment: UnfoldingSegment,
    signal: str,
    states: Dict[int, int],
    value: int,
) -> Cover:
    """Cover of the states where the signal is stable at ``value``."""
    stg = segment.stg
    nvars = len(stg.signals)
    bit = segment.signal_table.bit(signal)
    plus_presets, minus_presets = segment.signal_preset_masks(signal)
    opposing = minus_presets if value == 1 else plus_presets
    codes = set()
    for marking_word, code_word in states.items():
        if bool(code_word & bit) != bool(value):
            continue
        if any(marking_word & preset == preset for preset in opposing):
            continue
        codes.add(code_word)
    return minterm_cover(nvars, codes)
