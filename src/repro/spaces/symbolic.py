"""Symbolic state space: the BDD characteristic function behind the protocol.

This is the genuinely Petrify-like engine.  One BDD ``R(places, signals)``
-- computed by :class:`~repro.bdd.reachability.SymbolicNet` by node-wise
saturation over partitioned per-transition relations -- represents
every reachable (marking, code) pair, and every protocol query is answered
on it without ever enumerating a state list:

* sizes are BDD solution counts over the relevant variable blocks;
* per-signal regions are one conjunction each (``ER(a+/-)`` from the
  pre-compiled enabling cubes, quiescent regions from the signal literal
  and the negated excitation sets);
* each signal's on-set and off-set come from one implied-value function,
  ``R and ite(s, not E-, E+)`` and its complement within ``R`` (``E+/-``:
  the OR of the enabling cubes of the signal's rising / falling
  transitions), and are projected to codes once;
* covers are extracted by the Minato-Morreale ISOP pass
  (:func:`repro.bdd.isop`) over the signal variables and then handed to
  the espresso minimiser like any other cube cover.  The on-cover may
  expand into the unreachable codes; the off-cover is exact, so espresso
  takes it as its blocking set instead of complementing ``on + dc``;
* the CSC verdict is per signal: a signal conflicts exactly when its
  on-codes and off-codes meet (the implied value is the code bit XOR the
  excitation).  Only a conflicting spec, and USC, build the
  *code-equality product* ``R(p,s) and R(p',s)``, which pairs every two
  states sharing a code; marking inequality / per-signal excitation XOR
  picks out the conflicting pairs, and counts and conflict code words come
  straight from the product BDD.

Only the (typically tiny) CSC conflict groups of
:meth:`SymbolicStateSpace.signature_groups` ever enumerate concrete
markings, and only within the conflicting code words.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..boolean import Cover
from ..bdd import SymbolicNet, isop
from ..core import PackedNet, UnsafeNetError
from ..stg import InconsistentSTGError
from ..stg.signals import Direction
from .base import CodingReport, StateSpace

__all__ = ["SymbolicStateSpace"]


class SymbolicStateSpace(StateSpace):
    """State-space protocol answered by a BDD characteristic function."""

    engine = "bdd"

    def __init__(self, stg, max_states: Optional[int] = None) -> None:
        super().__init__(stg)
        if not stg.has_complete_initial_state():
            stg.infer_initial_state()
        # One BDD variable per place encodes only safe markings: the packed
        # core decides which nets qualify, exactly as for the explicit
        # engine, and raises UnsafeNetError naming the defect otherwise.
        PackedNet(stg.net)
        self._engine = SymbolicNet(stg.net, stg=stg, max_states=max_states)
        self._reached = self._engine.reachable_set()
        self._check_well_formed()
        self._exc_cache: Dict[Tuple[str, Direction], int] = {}
        self._implied_cache: Dict[str, Tuple[int, int, int]] = {}
        self._conflicting: Optional[FrozenSet[str]] = None
        self._codes_cache: Optional[int] = None
        self._pair_cache: Optional[int] = None
        self._csc_cache: Optional[CodingReport] = None
        self._usc_cache: Optional[CodingReport] = None

    def _check_well_formed(self) -> None:
        """Reject unsafe nets and inconsistent STGs like the explicit build.

        One product per transition decides whether either defect exists;
        only then do the witness scans name the first unsafe transition,
        or else the first inconsistent one, in declaration order.
        """
        engine = self._engine
        if engine.has_firing_defect():
            unsafe = engine.unsafe_witness()
            if unsafe is not None:
                raise UnsafeNetError(
                    "firing %r from a reachable marking is not safe" % unsafe
                )
            inconsistent = engine.inconsistent_enabled_witness()
            label = self.stg.label_of(inconsistent)
            raise InconsistentSTGError(
                "inconsistent state assignment: %s enabled while %s = %d"
                % (inconsistent, label.signal, label.target_value)
            )
        if engine.has_code_clash():
            raise InconsistentSTGError(
                "a marking is reachable with two different codes"
            )

    @property
    def iterations(self) -> int:
        """Passes of the symbolic fixed point, one per sweep over the
        transitions of one level (diagnostics)."""
        return self._engine.iterations

    @property
    def peak_bdd_nodes(self) -> int:
        """Allocated BDD nodes (the symbolic analogue of state count).  The
        store never shrinks, so this is also its largest size so far."""
        return self._engine.bdd.num_nodes

    # ------------------------------------------------------------------ #
    # Size queries
    # ------------------------------------------------------------------ #
    @property
    def num_states(self) -> int:
        return self._engine.count_states()

    @property
    def num_codes(self) -> int:
        bdd = self._engine.bdd
        return bdd.count_solutions(self._code_set(), self._engine.signal_vars)

    def reachable_code_words(self) -> Set[int]:
        return set(self._engine.code_words(self._code_set()))

    def _code_set(self) -> int:
        if self._codes_cache is None:
            self._codes_cache = self._engine.project_codes(self._reached)
        return self._codes_cache

    # ------------------------------------------------------------------ #
    # Per-signal region BDDs
    # ------------------------------------------------------------------ #
    def _excitation(self, signal: str, direction: Direction) -> int:
        key = (signal, direction)
        cached = self._exc_cache.get(key)
        if cached is None:
            if direction is Direction.PLUS:
                transitions = self.stg.rising_transitions(signal)
            else:
                transitions = self.stg.falling_transitions(signal)
            if transitions:
                cached = self._engine.excited(transitions)
            else:
                cached = self._engine.bdd.FALSE
            self._exc_cache[key] = cached
        return cached

    def _quiescent(self, signal: str, value: int) -> int:
        bdd = self._engine.bdd
        var = self._engine.signal_var(signal)
        literal = var if value else bdd.negate(var)
        direction = Direction.MINUS if value else Direction.PLUS
        stable = bdd.negate(self._excitation(signal, direction))
        return bdd.conj(self._reached, bdd.conj(literal, stable))

    def _implied(self, signal: str) -> Tuple[int, int, int]:
        """``(implied value, on codes, off codes)`` of one signal.

        The implied value is ``ite(s, not E-, E+)``.  Within ``R`` it holds
        on ``ER+ or QR1`` (the on-set) and fails on ``ER- or QR0`` (the
        off-set), because the build has already proved consistency: no
        rising transition is enabled while ``s = 1``, no falling one while
        ``s = 0``.  Both sets are projected to codes once; sizes, code
        sets, covers and the CSC verdict read from this cache.
        """
        cached = self._implied_cache.get(signal)
        if cached is None:
            engine = self._engine
            bdd = engine.bdd
            rising = engine.enabling(self.stg.rising_transitions(signal))
            falling = engine.enabling(self.stg.falling_transitions(signal))
            implied = bdd.ite(engine.signal_var(signal), bdd.negate(falling), rising)
            places = engine.place_vars
            cached = (
                implied,
                bdd.and_exists(self._reached, implied, places),
                bdd.and_exists(self._reached, bdd.negate(implied), places),
            )
            self._implied_cache[signal] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Code sets and sizes
    # ------------------------------------------------------------------ #
    def _words(self, states: int) -> Set[int]:
        return set(self._engine.code_words(self._engine.project_codes(states)))

    def _size(self, states: int) -> int:
        return self._engine.bdd.count_solutions(states, self._engine.state_vars)

    def er_codes(self, signal: str, direction: Direction) -> Set[int]:
        return self._words(self._excitation(signal, direction))

    def quiescent_codes(self, signal: str, value: int) -> Set[int]:
        return self._words(self._quiescent(signal, value))

    def on_codes(self, signal: str) -> Set[int]:
        return set(self._engine.code_words(self._implied(signal)[1]))

    def off_codes(self, signal: str) -> Set[int]:
        return set(self._engine.code_words(self._implied(signal)[2]))

    def er_size(self, signal: str, direction: Direction) -> int:
        return self._size(self._excitation(signal, direction))

    def on_size(self, signal: str) -> int:
        implied = self._implied(signal)[0]
        return self._size(self._engine.bdd.conj(self._reached, implied))

    def off_size(self, signal: str) -> int:
        bdd = self._engine.bdd
        implied = self._implied(signal)[0]
        return self._size(bdd.conj(self._reached, bdd.negate(implied)))

    # ------------------------------------------------------------------ #
    # Covers (ISOP extraction)
    # ------------------------------------------------------------------ #
    def _isop_cover(self, lower_codes: int, exact: bool = False) -> Cover:
        bdd = self._engine.bdd
        if exact:
            upper = lower_codes
        else:
            # Unreachable codes are don't cares: let the ISOP recursion
            # expand cubes into them so espresso is seeded with a compact
            # cover instead of one cube per minterm.
            upper = bdd.disj(lower_codes, bdd.negate(self._code_set()))
        return Cover.from_mask_pairs(
            len(self.signals),
            isop(bdd, lower_codes, upper, self._engine.signal_levels()),
        )

    def _states_cover(self, states: int) -> Cover:
        return self._isop_cover(self._engine.project_codes(states))

    def on_cover(self, signal: str) -> Cover:
        return self._isop_cover(self._implied(signal)[1])

    def off_cover(self, signal: str) -> Cover:
        return self._isop_cover(self._implied(signal)[2], exact=True)

    def set_cover(self, signal: str) -> Cover:
        return self._states_cover(self._excitation(signal, Direction.PLUS))

    def reset_cover(self, signal: str) -> Cover:
        return self._states_cover(self._excitation(signal, Direction.MINUS))

    def quiescent_cover(self, signal: str, value: int) -> Cover:
        return self._states_cover(self._quiescent(signal, value))

    def dc_cover(self) -> Cover:
        bdd = self._engine.bdd
        return self._isop_cover(bdd.negate(self._code_set()), exact=True)

    # ------------------------------------------------------------------ #
    # State-coding checks
    # ------------------------------------------------------------------ #
    def conflicting_signals(self) -> FrozenSet[str]:
        """Implementable signals whose on-codes and off-codes meet.

        Two states sharing a code carry the same code bit, so they differ in
        a signal's excitation exactly when they differ in its implied value:
        the per-signal verdict needs no pair product.
        """
        if self._conflicting is None:
            bdd = self._engine.bdd
            conflicting = set()
            for signal in self.stg.implementable_signals:
                _value, on_codes, off_codes = self._implied(signal)
                if bdd.and_exists(on_codes, off_codes, bdd.variables) != bdd.FALSE:
                    conflicting.add(signal)
            self._conflicting = frozenset(conflicting)
        return self._conflicting

    def _pair_product(self) -> int:
        """``R(p, s) and R(p', s)``: all state pairs sharing a code."""
        if self._pair_cache is None:
            engine = self._engine
            primed = engine.rename_places_to_primed(self._reached)
            self._pair_cache = engine.bdd.conj(self._reached, primed)
        return self._pair_cache

    def _pair_vars(self) -> List[str]:
        engine = self._engine
        return engine.place_vars + engine.primed_place_vars + engine.signal_vars

    def _conflict_words(self, pairs: int) -> List[int]:
        engine = self._engine
        codes = engine.bdd.exists(
            pairs, engine.place_vars + engine.primed_place_vars
        )
        return sorted(engine.code_words(codes))

    def check_usc(self) -> CodingReport:
        if self._usc_cache is None:
            engine = self._engine
            bdd = engine.bdd
            pairs = bdd.conj(self._pair_product(), engine.places_differ())
            num_pairs = bdd.count_solutions(pairs, self._pair_vars()) // 2
            self._usc_cache = CodingReport(
                "USC", pairs == bdd.FALSE, num_pairs, self._conflict_words(pairs)
            )
        return self._usc_cache

    def check_csc(self) -> CodingReport:
        """The per-signal verdict decides; only a conflict builds the pair
        product, to count the conflicting pairs and list their codes."""
        if self._csc_cache is None:
            conflicting = self.conflicting_signals()
            if not conflicting:
                self._csc_cache = CodingReport("CSC", True, 0, [])
                return self._csc_cache
            engine = self._engine
            bdd = engine.bdd
            any_diff = bdd.FALSE
            for signal in self.stg.implementable_signals:
                if signal in conflicting:
                    excited = self._excited_either(signal)
                    any_diff = bdd.disj(
                        any_diff,
                        bdd.xor(excited, engine.rename_places_to_primed(excited)),
                    )
            pairs = bdd.conj(self._pair_product(), any_diff)
            num_pairs = bdd.count_solutions(pairs, self._pair_vars()) // 2
            self._csc_cache = CodingReport(
                "CSC", False, num_pairs, self._conflict_words(pairs), conflicting
            )
        return self._csc_cache

    def _excited_either(self, signal: str) -> int:
        """Reachable states where the signal is excited in either direction."""
        return self._engine.bdd.disj(
            self._excitation(signal, Direction.PLUS),
            self._excitation(signal, Direction.MINUS),
        )

    def signature_groups(self) -> Dict[int, List[Tuple[int, int]]]:
        """Enumerate only the conflicting code words' states (usually few)."""
        report = self.check_csc()
        if report.satisfied:
            return {}
        engine = self._engine
        bdd = engine.bdd
        implementable = [
            (signal, 1 << index)
            for index, signal in enumerate(self.signals)
            if signal in set(self.stg.implementable_signals)
        ]
        excited_of = {
            signal: self._excited_either(signal) for signal, _bit in implementable
        }
        groups: Dict[int, List[Tuple[int, int]]] = {}
        for word in report.conflict_code_words:
            assignment = {
                var: bool(word & (1 << index))
                for index, var in enumerate(engine.signal_vars)
            }
            states = bdd.conj(self._reached, bdd.cube(assignment))
            by_signature: Dict[int, int] = {}
            for full in bdd.satisfying_assignments(states, engine.state_vars):
                signature = 0
                for signal, bit in implementable:
                    if bdd.evaluate(excited_of[signal], full):
                        signature |= bit
                by_signature[signature] = by_signature.get(signature, 0) + 1
            groups[word] = sorted(by_signature.items())
        return groups
