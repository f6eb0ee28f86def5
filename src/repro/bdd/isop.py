"""Irredundant sum-of-products extraction from BDDs (Minato-Morreale).

The symbolic state-space backend keeps on-sets, off-sets and don't-care
sets as BDDs over the signal variables; the two-level minimiser
(:func:`repro.boolean.minimize.espresso`) works on cube covers.  This module
bridges the two: :func:`isop` computes an irredundant cover ``C`` with
``lower <= C <= upper`` using the classic Minato-Morreale recursion, so the
espresso pass is seeded with a small cube cover instead of one cube per
minterm (the explicit engine's starting point).

Cubes are returned as ``(ones, zeros)`` bit-mask pairs over caller-chosen
bit positions, the exact shape :class:`repro.boolean.cube.Cube` stores, so
no per-bit translation is needed downstream.

Like the manager's own operators, the walk reads each operand's
``(level, low, high)`` tuple once, straight from the manager's node store:
the terminals sit at level ``n``, below every variable (the "Node layout"
of :mod:`repro.bdd.manager`), so they need no special case.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..obs import current_tracer
from .manager import BDD

__all__ = ["isop"]


def isop(bdd: BDD, lower: int, upper: int, bit_of: Dict[str, int]) -> List[Tuple[int, int]]:
    """Cubes of an irredundant SOP ``C`` with ``lower <= C <= upper``.

    Parameters
    ----------
    bdd:
        The manager both functions live in.
    lower / upper:
        BDD nodes with ``lower`` implying ``upper``; ``lower`` is the set
        that must be covered, ``upper \\ lower`` the don't-care room the
        cover may use.
    bit_of:
        Maps each variable name that may occur in the support of the two
        functions to the bit position it occupies in the output cubes
        (e.g. the signal's index in ``stg.signals``).

    Returns a list of ``(ones, zeros)`` mask pairs; the represented cover
    satisfies the bounds by construction.
    """
    level_bit: Dict[int, int] = {}
    for name, bit in bit_of.items():
        level_bit[bdd._level[name]] = bit
    cache: Dict[Tuple[int, int], Tuple[int, Tuple[Tuple[int, int], ...]]] = {}
    nodes = bdd._nodes
    # Recursion-depth high-water mark, reported when tracing is active.
    depth_stats = [0, 0]  # current depth, max depth

    def walk(low: int, up: int) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        if low == bdd.FALSE:
            return bdd.FALSE, ()
        if up == bdd.TRUE:
            return bdd.TRUE, ((0, 0),)
        key = (low, up)
        cached = cache.get(key)
        if cached is not None:
            return cached
        depth_stats[0] += 1
        if depth_stats[0] > depth_stats[1]:
            depth_stats[1] = depth_stats[0]
        low_level, low0, low1 = nodes[low]
        up_level, up0, up1 = nodes[up]
        if low_level < up_level:
            level = low_level
            up0 = up1 = up
        else:
            level = up_level
            if low_level != level:
                low0 = low1 = low
        try:
            bit = level_bit[level]
        except KeyError:
            raise ValueError(
                "isop support variable %r has no output bit"
                % bdd.variables[level]
            )
        # Minterms that can only be covered by cubes carrying the literal.
        need0 = bdd.conj(low0, bdd.negate(up1))
        need1 = bdd.conj(low1, bdd.negate(up0))
        g0, cubes0 = walk(need0, up0)
        g1, cubes1 = walk(need1, up1)
        # Whatever the literal-carrying cubes left uncovered is handled by
        # cubes free of this variable, bounded by what both branches allow.
        rest = bdd.disj(
            bdd.conj(low0, bdd.negate(g0)), bdd.conj(low1, bdd.negate(g1))
        )
        gd, cubesd = walk(rest, bdd.conj(up0, up1))
        cover = bdd.disj(gd, bdd._make_node(level, g0, g1))
        cubes = (
            cubesd
            + tuple((ones, zeros | (1 << bit)) for ones, zeros in cubes0)
            + tuple((ones | (1 << bit), zeros) for ones, zeros in cubes1)
        )
        result = (cover, cubes)
        cache[key] = result
        depth_stats[0] -= 1
        return result

    if bdd.conj(lower, bdd.negate(upper)) != bdd.FALSE:
        raise ValueError("isop requires lower <= upper")
    _cover, cubes = walk(lower, upper)
    obs = current_tracer()
    if obs.enabled:
        span = obs.current
        span.counter("isop_calls")
        span.counter("isop_cubes", len(cubes))
        span.maximum("isop_max_depth", depth_stats[1])
    return list(cubes)
