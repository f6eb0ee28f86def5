"""A small Reduced Ordered Binary Decision Diagram (ROBDD) package.

Petrify, the strongest baseline in the paper's comparison, represents the
State Graph symbolically with BDDs.  This package provides the symbolic
substrate for our "Petrify-like" baseline: a hash-consed ROBDD manager with
the classic ``ite`` (if-then-else) core, Boolean connectives, existential
quantification and satisfying-assignment enumeration.

The implementation follows Bryant's original formulation: nodes are
``(level, low, high)`` triples, terminals are ``0`` and ``1``, and every
operation is memoised on node identity.

Node layout
-----------
The two terminals are stored like any other node, as ``(n, 0, 0)`` and
``(n, 1, 1)`` with ``n = len(variables)``: one level below the last
variable, with themselves as both cofactors.  So ``_nodes[u][0]`` is the
level of every node, terminals included, and every recursive operator
reads each operand's ``(level, low, high)`` tuple once per step and takes
the top level and the cofactors straight from it, as in the ``ite`` core of
Brace, Rudell & Bryant ("Efficient implementation of a BDD package", DAC
1990).  An operand whose level is below the top level is its own cofactor;
a terminal always is.  ``ite`` and :meth:`BDD.and_exists` hash-cons their
result inline.  Every recursion visits low before high, so node ids follow
the creation order of the textbook recursion exactly.

Beyond the classic core the manager provides the three operations the
symbolic state-space backend (:mod:`repro.spaces`) is built on:

* :meth:`BDD.and_exists` -- the *relational product*
  ``exists V . (f and g)`` computed in a single recursive pass (with early
  termination on TRUE inside quantified branches) instead of building the
  conjunction first and quantifying afterwards;
* :meth:`BDD.rename` -- order-preserving variable substitution, used to
  move a characteristic function between the current and primed variable
  blocks of the code-equality product;
* :meth:`BDD.count_solutions` over a *subset* of the variables, so state
  counts are not inflated by auxiliary (primed) variables.

``exists`` / ``forall`` are likewise single recursive walks over the node
graph (one ``disj``/``conj`` per quantified node) rather than one
restrict-pair per variable, which matters when projecting 100+ place
variables out of a characteristic function.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = ["BDD"]


class _CountingCache(dict):
    """A dict that counts ``get`` lookups and hits.

    Swapped in for the manager's operation caches by :meth:`BDD.enable_stats`
    so hit rates can be reported when tracing; the default (plain ``dict``)
    caches keep the hot path entirely untouched.
    """

    __slots__ = ("lookups", "hits")

    def __init__(self, *args: object) -> None:
        super().__init__(*args)
        self.lookups = 0
        self.hits = 0

    def get(self, key, default=None):
        self.lookups += 1
        value = super().get(key, default)
        if value is not default:
            self.hits += 1
        return value


class BDD:
    """A BDD manager over a fixed, ordered set of variables."""

    FALSE = 0
    TRUE = 1

    def __init__(self, variables: Sequence[str]) -> None:
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names in BDD ordering")
        self.variables: List[str] = list(variables)
        self._level: Dict[str, int] = {name: i for i, name in enumerate(variables)}
        # Node storage: node id -> (level, low, high).  Ids 0/1 are the
        # terminals, stored one level below the last variable.
        total = len(self.variables)
        self._nodes: List[Tuple[int, int, int]] = [(total, 0, 0), (total, 1, 1)]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._var_nodes: Dict[str, int] = {}
        # Interned quantification sets: frozenset of levels -> small id, so
        # and_exists/exists results can be memoised across calls that reuse
        # the same per-transition variable sets.
        self._quant_ids: Dict[FrozenSet[int], int] = {}
        self._and_exists_cache: Dict[Tuple[int, int, int], int] = {}
        self._exists_cache: Dict[Tuple[int, int], int] = {}
        self._forall_cache: Dict[Tuple[int, int], int] = {}
        self._stats_enabled = False

    # ------------------------------------------------------------------ #
    # Statistics (opt-in, for repro.obs tracing)
    # ------------------------------------------------------------------ #
    def enable_stats(self) -> None:
        """Swap the operation caches for counting ones.

        Until this is called the caches are plain dicts and the hot path
        pays nothing; afterwards every memo lookup is counted so
        :meth:`stats` can report hit rates.  Existing cache contents are
        preserved.
        """
        if self._stats_enabled:
            return
        self._ite_cache = _CountingCache(self._ite_cache)
        self._and_exists_cache = _CountingCache(self._and_exists_cache)
        self._exists_cache = _CountingCache(self._exists_cache)
        self._forall_cache = _CountingCache(self._forall_cache)
        self._stats_enabled = True

    def stats(self) -> Dict[str, object]:
        """Node count plus per-cache lookup/hit counters.

        Cache hit counters are present only after :meth:`enable_stats`.
        """
        report: Dict[str, object] = {
            "num_nodes": self.num_nodes,
            "num_variables": len(self.variables),
            "stats_enabled": self._stats_enabled,
        }
        if self._stats_enabled:
            for name, cache in (
                ("ite", self._ite_cache),
                ("and_exists", self._and_exists_cache),
                ("exists", self._exists_cache),
                ("forall", self._forall_cache),
            ):
                report["%s_cache_entries" % name] = len(cache)
                report["%s_cache_lookups" % name] = cache.lookups
                report["%s_cache_hits" % name] = cache.hits
        return report

    # ------------------------------------------------------------------ #
    # Node management
    # ------------------------------------------------------------------ #
    def _make_node(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
            self._unique[key] = node
        return node

    def var(self, name: str) -> int:
        """BDD for a single positive literal."""
        node = self._var_nodes.get(name)
        if node is None:
            level = self._level[name]
            node = self._make_node(level, self.FALSE, self.TRUE)
            self._var_nodes[name] = node
        return node

    def nvar(self, name: str) -> int:
        """BDD for a single negative literal."""
        return self.negate(self.var(name))

    @property
    def num_nodes(self) -> int:
        """Total number of allocated nodes (including terminals)."""
        return len(self._nodes)

    # ------------------------------------------------------------------ #
    # Core: if-then-else
    # ------------------------------------------------------------------ #
    def ite(self, f: int, g: int, h: int) -> int:
        """``if f then g else h`` -- the universal BDD operation."""
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        nodes = self._nodes
        f_level, f0, f1 = nodes[f]
        g_level, g0, g1 = nodes[g]
        h_level, h0, h1 = nodes[h]
        level = f_level
        if g_level < level:
            level = g_level
        if h_level < level:
            level = h_level
        if f_level != level:
            f0 = f1 = f
        if g_level != level:
            g0 = g1 = g
        if h_level != level:
            h0 = h1 = h
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        if low == high:
            result = low
        else:
            triple = (level, low, high)
            result = self._unique.get(triple)
            if result is None:
                result = len(nodes)
                nodes.append(triple)
                self._unique[triple] = result
        self._ite_cache[key] = result
        return result

    # ------------------------------------------------------------------ #
    # Boolean connectives
    # ------------------------------------------------------------------ #
    def conj(self, f: int, g: int) -> int:
        return self.ite(f, g, self.FALSE)

    def disj(self, f: int, g: int) -> int:
        return self.ite(f, self.TRUE, g)

    def negate(self, f: int) -> int:
        return self.ite(f, self.FALSE, self.TRUE)

    def xor(self, f: int, g: int) -> int:
        return self.ite(f, self.negate(g), g)

    def implies(self, f: int, g: int) -> int:
        return self.ite(f, g, self.TRUE)

    def conj_all(self, items: Iterable[int]) -> int:
        result = self.TRUE
        for item in items:
            result = self.conj(result, item)
            if result == self.FALSE:
                break
        return result

    def disj_all(self, items: Iterable[int]) -> int:
        result = self.FALSE
        for item in items:
            result = self.disj(result, item)
            if result == self.TRUE:
                break
        return result

    # ------------------------------------------------------------------ #
    # Restriction and quantification
    # ------------------------------------------------------------------ #
    def restrict(self, f: int, name: str, value: bool) -> int:
        """Cofactor of ``f`` with respect to ``name = value``."""
        level = self._level[name]
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if node < 2:
                return node
            cached = cache.get(node)
            if cached is not None:
                return cached
            node_level, low, high = self._nodes[node]
            if node_level > level:
                result = node
            elif node_level == level:
                result = high if value else low
            else:
                result = self._make_node(node_level, walk(low), walk(high))
            cache[node] = result
            return result

        return walk(f)

    def _quant_id(self, levels: FrozenSet[int]) -> int:
        ident = self._quant_ids.get(levels)
        if ident is None:
            ident = len(self._quant_ids)
            self._quant_ids[levels] = ident
        return ident

    def _levels_of(self, names: Iterable[str]) -> FrozenSet[int]:
        return frozenset(self._level[name] for name in names)

    def exists(self, f: int, names: Iterable[str]) -> int:
        """Existentially quantify the given variables out of ``f``.

        One recursive walk over the node graph: quantified nodes collapse to
        ``low or high``, unquantified ones are rebuilt.  Results are memoised
        per (node, variable-set) across calls.
        """
        levels = self._levels_of(names)
        if not levels:
            return f
        qid = self._quant_id(levels)
        cache = self._exists_cache
        nodes = self._nodes

        def walk(node: int) -> int:
            if node < 2:
                return node
            key = (node, qid)
            cached = cache.get(key)
            if cached is not None:
                return cached
            level, low, high = nodes[node]
            if level in levels:
                result = self.disj(walk(low), walk(high))
            else:
                result = self._make_node(level, walk(low), walk(high))
            cache[key] = result
            return result

        return walk(f)

    def forall(self, f: int, names: Iterable[str]) -> int:
        """Universally quantify the given variables out of ``f``."""
        levels = self._levels_of(names)
        if not levels:
            return f
        qid = self._quant_id(levels)
        cache = self._forall_cache
        nodes = self._nodes

        def walk(node: int) -> int:
            if node < 2:
                return node
            key = (node, qid)
            cached = cache.get(key)
            if cached is not None:
                return cached
            level, low, high = nodes[node]
            if level in levels:
                result = self.conj(walk(low), walk(high))
            else:
                result = self._make_node(level, walk(low), walk(high))
            cache[key] = result
            return result

        return walk(f)

    def and_exists(self, f: int, g: int, names: Iterable[str]) -> int:
        """Relational product ``exists names . (f and g)`` in one pass.

        This is the workhorse of symbolic image computation: instead of
        materialising ``f and g`` (whose BDD can be much larger than either
        operand or the result) and quantifying afterwards, the conjunction
        and the quantification are interleaved in a single recursion, with
        early termination as soon as a quantified branch reaches TRUE.
        """
        levels = self._levels_of(names)
        qid = self._quant_id(levels)
        cache = self._and_exists_cache
        nodes = self._nodes
        unique = self._unique
        ite = self.ite

        def walk(f_node: int, g_node: int) -> int:
            if f_node == 0 or g_node == 0:
                return 0
            if f_node == 1 and g_node == 1:
                return 1
            if g_node < f_node:
                f_node, g_node = g_node, f_node  # conjunction is symmetric
            key = (f_node, g_node, qid)
            cached = cache.get(key)
            if cached is not None:
                return cached
            # At most one operand is TRUE here, so ``level`` is a variable's.
            f_level, f0, f1 = nodes[f_node]
            g_level, g0, g1 = nodes[g_node]
            if f_level < g_level:
                level = f_level
                g0 = g1 = g_node
            else:
                level = g_level
                if f_level != level:
                    f0 = f1 = f_node
            if level in levels:
                low = walk(f0, g0)
                if low == 1:
                    result = 1
                else:
                    result = ite(low, 1, walk(f1, g1))
            else:
                low = walk(f0, g0)
                high = walk(f1, g1)
                if low == high:
                    result = low
                else:
                    triple = (level, low, high)
                    result = unique.get(triple)
                    if result is None:
                        result = len(nodes)
                        nodes.append(triple)
                        unique[triple] = result
            cache[key] = result
            return result

        return walk(f, g)

    def rename(self, f: int, mapping: Dict[str, str]) -> int:
        """Substitute variables according to ``mapping`` (old name -> new).

        The mapping must be *order-preserving*: the relative level order of
        the mapped variables must equal that of their images, and no image
        level may collide with an unmapped level in the support of ``f``.
        Under that restriction (which holds by construction for the
        current/primed variable blocks used by the symbolic state space,
        where each primed variable sits directly below its twin) the
        substitution is a simple level remap on the node graph.
        """
        level_map: Dict[int, int] = {}
        for old, new in mapping.items():
            level_map[self._level[old]] = self._level[new]
        if not level_map:
            return f
        support_levels = sorted(self._level[name] for name in self.support(f))
        transformed = [level_map.get(level, level) for level in support_levels]
        if len(set(transformed)) != len(transformed) or transformed != sorted(transformed):
            raise ValueError("rename mapping does not preserve the variable order")
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if node < 2:
                return node
            cached = cache.get(node)
            if cached is not None:
                return cached
            level, low, high = self._nodes[node]
            result = self._make_node(level_map.get(level, level), walk(low), walk(high))
            cache[node] = result
            return result

        return walk(f)

    def support(self, f: int) -> List[str]:
        """Names of the variables ``f`` actually depends on, in level order."""
        seen: Set[int] = set()
        levels: Set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node < 2 or node in seen:
                continue
            seen.add(node)
            level, low, high = self._nodes[node]
            levels.add(level)
            stack.append(low)
            stack.append(high)
        return [self.variables[level] for level in sorted(levels)]

    # ------------------------------------------------------------------ #
    # Model counting / enumeration
    # ------------------------------------------------------------------ #
    def count_solutions(self, f: int, names: Optional[Iterable[str]] = None) -> int:
        """Number of satisfying assignments.

        By default the count is over *all* declared variables.  With
        ``names`` the count is over exactly that subset, which must contain
        the support of ``f`` (otherwise the count would not be well defined);
        this is how the symbolic state space counts states without the
        primed/auxiliary variable blocks inflating the result.
        """
        if names is not None:
            subset = set(names)
            missing = [name for name in self.support(f) if name not in subset]
            if missing:
                raise ValueError(
                    "count_solutions subset must contain the support "
                    "(missing %s)" % ", ".join(missing)
                )
            unknown = [name for name in subset if name not in self._level]
            if unknown:
                raise ValueError("unknown variables in subset: %s" % ", ".join(unknown))
            full = self.count_solutions(f)
            return full >> (len(self.variables) - len(subset))
        cache: Dict[int, int] = {}
        total_vars = len(self.variables)

        def walk(node: int) -> Tuple[int, int]:
            """Return (count, level) where count is over vars below level."""
            if node == self.FALSE:
                return 0, total_vars
            if node == self.TRUE:
                return 1, total_vars
            if node in cache:
                return cache[node], self._nodes[node][0]
            level, low, high = self._nodes[node]
            low_count, low_level = walk(low)
            high_count, high_level = walk(high)
            count = low_count * (1 << (low_level - level - 1)) + high_count * (
                1 << (high_level - level - 1)
            )
            cache[node] = count
            return count, level

        count, level = walk(f)
        return count * (1 << level)

    def satisfying_assignments(
        self, f: int, names: Optional[Iterable[str]] = None
    ) -> Iterator[Dict[str, bool]]:
        """Enumerate complete satisfying assignments of ``f``.

        By default assignments cover every declared variable.  With
        ``names`` only that subset is enumerated; it must contain the
        support of ``f`` (variables outside the subset would otherwise make
        the enumeration ill-defined).
        """
        total_vars = len(self.variables)
        nodes = self._nodes
        subset: Optional[Set[str]] = None
        if names is not None:
            subset = set(names)
            missing = [name for name in self.support(f) if name not in subset]
            if missing:
                raise ValueError(
                    "enumeration subset must contain the support "
                    "(missing %s)" % ", ".join(missing)
                )

        def walk(node: int, level: int, partial: Dict[str, bool]) -> Iterator[Dict[str, bool]]:
            if node == self.FALSE:
                return
            if level == total_vars:
                yield dict(partial)
                return
            name = self.variables[level]
            node_level = nodes[node][0]
            if subset is not None and name not in subset:
                # Outside the subset the function cannot depend on the
                # variable (support was checked): skip the level entirely.
                yield from walk(node, level + 1, partial)
                return
            if node_level > level:
                for value in (False, True):
                    partial[name] = value
                    yield from walk(node, level + 1, partial)
                del partial[name]
            else:
                _lvl, low, high = nodes[node]
                partial[name] = False
                yield from walk(low, level + 1, partial)
                partial[name] = True
                yield from walk(high, level + 1, partial)
                del partial[name]

        yield from walk(f, 0, {})

    def evaluate(self, f: int, assignment: Dict[str, bool]) -> bool:
        """Evaluate ``f`` under a complete variable assignment."""
        node = f
        while node > 1:
            level, low, high = self._nodes[node]
            node = high if assignment[self.variables[level]] else low
        return node == self.TRUE

    def cube(self, assignment: Dict[str, bool]) -> int:
        """BDD of a conjunction of literals, built bottom-up: one node per
        literal, from the deepest level to the shallowest."""
        result = self.TRUE
        for level, value in sorted(
            ((self._level[name], value) for name, value in assignment.items()),
            reverse=True,
        ):
            if value:
                result = self._make_node(level, self.FALSE, result)
            else:
                result = self._make_node(level, result, self.FALSE)
        return result
