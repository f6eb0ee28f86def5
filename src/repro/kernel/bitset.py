"""numpy ``uint64`` bitset kernels for the explicit-engine hot paths.

Two sweeps over every reachable state dominate explicit synthesis past ~12
pipeline stages: the BFS that builds the State Graph in
:func:`~repro.stategraph.stategraph.build_state_graph`, with the excitation
masks that label every state, and the pairwise USC/CSC code joins in
:func:`~repro.stategraph.csc.check_usc` / ``check_csc``.  This module runs
both on ``uint64`` arrays.

:func:`kernel_bfs` expands one BFS *wave* at a time: all states at one
depth, a contiguous index range since discovery order is FIFO.  Markings
and codes are lists of 1-D per-word columns (column ``w`` holds word ``w``
of every row; ``ceil(places/64)`` marking words, ``ceil(signals/64)`` code
words), so specifications of any width stay on this path.  A wave is a
fixed sequence of array operations, with no Python loop per candidate or
per state:

* a ``(wave, transitions)`` enabledness matrix, built one marking word at
  a time, whose ``nonzero()`` lists the candidates in the python loop's
  ``(source, transition)`` order;
* per candidate, the consistency and safety checks and the successor
  marking and code;
* one stable sort of the successor rows (``argsort`` for one marking word,
  ``lexsort`` for more), which puts every run of equal rows behind its
  first candidate; only the distinct rows become Python ints and meet
  ``StateGraph._index``, through ``map(dict.get, ...)``;
* new states numbered in the order of their first candidates -- the python
  loop's discovery order -- and adopted by the graph in bulk;
* one vector comparison of every candidate's code with its target's.

Each check marks the candidates it fails in one mask.  The first marked
candidate in scan order is checked again in Python, with the python loop's
precedence, to raise its error.  So state numbering, edge order,
excitation masks and every raised error match the python loop
(``repro.stategraph.stategraph._explore``) bit for bit.  Edges stay
compact ``uint32`` arrays; ``(source, transition, target)`` tuples and
adjacency lists materialise on first use, only for consumers that walk the
graph.

The USC/CSC joins sort the code rows once and compare only within runs of
equal codes, instead of bucketing every state through a Python dict.

The BFS kernel serves cold builds only.  Growing a graph after a signal
insertion (:func:`~repro.stategraph.extend_state_graph`) re-explores a few
states, which the python loop drains faster than wave arrays can be set up.
"""

from __future__ import annotations

from itertools import repeat
from operator import lshift, or_
from typing import Dict, List, Tuple

from . import numpy_or_none

__all__ = [
    "kernel_bfs",
    "graph_arrays",
    "coding_conflict_pairs",
    "signature_groups_kernel",
    "code_words",
    "packed_mask",
]

_MASK64 = (1 << 64) - 1


def _require_numpy():
    np = numpy_or_none()
    if np is None:  # pragma: no cover - callers gate on HAS_NUMPY
        raise RuntimeError("repro.kernel.bitset requires numpy")
    return np


def _words_of(value: int, nwords: int) -> List[int]:
    """Split an arbitrary-width Python int into ``nwords`` 64-bit words."""
    return [(value >> (64 * w)) & _MASK64 for w in range(nwords)]


def _column_ints(columns) -> List[int]:
    """Python ints from word-major uint64 columns (``columns[w]`` = word ``w``).

    A graph stores plain ints, as the python loop does: its marking index
    is keyed by them (so ``index_of()`` works on kernel-built graphs).  The
    words combine through ``map``, with no Python loop per value.
    """
    keys = columns[0].tolist()
    for w in range(1, len(columns)):
        keys = list(map(or_, keys, map(lshift, columns[w].tolist(), repeat(64 * w))))
    return keys


def _int_keys(rows) -> List[int]:
    """Python ints from a ``(k, words)`` uint64 row matrix."""
    return _column_ints(rows.T)


def code_words(nsignals: int) -> int:
    """Words per packed code row: ``max(1, ceil(nsignals / 64))``."""
    return max(1, (nsignals + 63) // 64)


def packed_mask(mask: int, nwords: int):
    """A Python-int bitmask as a broadcastable ``(nwords,)`` uint64 row."""
    np = _require_numpy()
    return np.array(_words_of(mask, nwords), dtype=np.uint64)


def _pack_ints(np, values, nwords):
    """``(len(values), nwords)`` uint64 matrix from a list of Python ints."""
    nbytes = 8 * nwords
    buf = b"".join(value.to_bytes(nbytes, "little") for value in values)
    rows = np.frombuffer(buf, dtype="<u8").reshape(len(values), nwords)
    return rows.astype(np.uint64, copy=False)


# ---------------------------------------------------------------------- #
# BFS frontier expansion
# ---------------------------------------------------------------------- #
def kernel_bfs(stg, pnet, graph, max_states=None, span=None):
    """Vectorised packed BFS; fills ``graph`` exactly like the python loop
    (``repro.stategraph.stategraph._explore``) of the cold build.

    Raises the same error as the python loop, at the same first offending
    ``(state, transition)`` candidate: wave order equals FIFO order, within
    a wave candidates are scanned in ``(source, transition)`` order, and one
    candidate is checked like the python loop checks it -- enabled against
    its signal's value, then unsafe, then a known marking with another code
    or a new state over ``max_states``.
    """
    np = _require_numpy()
    from ..core import pack_code

    nwords = max(1, (len(pnet.codec.places) + 63) // 64)
    cwords = code_words(len(graph.signals))
    transitions = pnet.transitions
    plus_bits, minus_bits = _signal_bits(stg, graph, transitions)
    # Word columns of the transition tables: ``pre[w][t]`` is word ``w`` of
    # transition ``t``'s preset.
    pre = _word_columns(np, pnet.presets, nwords)
    cleared = [~column for column in pre]
    post = _word_columns(np, pnet.postsets, nwords)
    plus = _word_columns(np, plus_bits, cwords)
    # A falling transition needs its signal at 1 and a rising one at 0, so
    # the minus bits are also the value each transition must see.
    minus = _word_columns(np, minus_bits, cwords)
    flip = [p | m for p, m in zip(plus, minus)]

    initial_code = pack_code(stg.initial_code())
    graph._adopt_packed_states([pnet.initial], [initial_code])
    lookup = graph._index.get
    # Codes of every state so far, one column per code word; markings only
    # of the wave being expanded (a firing's source is always in it).
    capacity = 1024
    codes = _word_columns(np, [initial_code], cwords, capacity)
    wave = _word_columns(np, [pnet.initial], nwords)

    edge_src: List = []
    edge_t: List = []
    edge_tgt: List = []
    live = span is not None and span.live
    wave_sizes = [1]
    frontier_words = 0

    lo, hi = 0, 1
    while lo < hi:
        frontier_words += (hi - lo) * nwords
        # (wave, transitions) enabledness; nonzero() lists the candidates
        # row-major, which is the python loop's (source, transition) order.
        enabled = (wave[0][:, None] & pre[0]) == pre[0]
        for w in range(1, nwords):
            enabled &= (wave[w][:, None] & pre[w]) == pre[w]
        src, t_idx = enabled.nonzero()
        ncand = src.size
        at = src + lo

        # ``bad`` marks every offending candidate: its signal does not hold
        # the source value, the firing is unsafe, or (below) its target is
        # known with another code.
        bad = np.zeros(ncand, dtype=bool)
        succ_codes = []
        for w in range(cwords):
            code = codes[w][at]
            t_flip = flip[w][t_idx]
            bad |= (code & t_flip) != minus[w][t_idx]
            succ_codes.append(code ^ t_flip)
        succ = []
        for w in range(nwords):
            remainder = wave[w][src] & cleared[w][t_idx]
            t_post = post[w][t_idx]
            bad |= (remainder & t_post) != 0
            succ.append(remainder | t_post)

        # One stable sort puts equal successor rows next to each other,
        # each run led by its first candidate; only the distinct rows
        # become Python ints and meet the index.
        order = succ[0].argsort(kind="stable") if nwords == 1 else np.lexsort(succ)
        head = np.empty(ncand, dtype=bool)
        head[:1] = True
        ordered = succ[0][order]
        np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
        for column in succ[1:]:
            ordered = column[order]
            head[1:] |= ordered[1:] != ordered[:-1]
        firsts = order[head]
        keys = _column_ints([column[firsts] for column in succ])
        ids = np.fromiter(map(lookup, keys, repeat(-1)), dtype=np.int64, count=len(keys))
        # New states are numbered in the order of their first candidates,
        # which is the python loop's discovery order.
        fresh = (ids < 0).nonzero()[0]
        new_at = firsts[fresh]
        rank = new_at.argsort()
        fresh = fresh[rank]
        new_at = new_at[rank]
        total = hi + new_at.size
        ids[fresh] = np.arange(hi, total)
        targets = np.empty(ncand, dtype=np.int64)
        targets[order] = ids[head.cumsum() - 1]

        if total > capacity:
            while capacity < total:
                capacity *= 2
            codes = [_grown(np, column, hi, capacity) for column in codes]
        for w in range(cwords):
            codes[w][hi:total] = succ_codes[w][new_at]
            # A new state's first candidate meets its own code here.
            bad |= codes[w][targets] != succ_codes[w]
        # The python loop checks the budget as each new state arrives: the
        # first new state numbered ``max_states`` or above breaks it.
        over = max_states is not None and total > max(max_states, hi)
        if over or bad.any():
            first = int(bad.argmax()) if bad.any() else ncand
            if over:
                first = min(first, int(new_at[max(max_states - hi, 0)]))
            target_code = _column_ints([column[targets[first : first + 1]] for column in codes])
            _raise_first_error(
                stg, pnet, graph, int(at[first]), int(t_idx[first]),
                target_code[0], not bad[first], max_states,
            )

        edge_src.append(at)
        edge_t.append(t_idx)
        edge_tgt.append(targets)
        if new_at.size:
            graph._adopt_packed_states(
                list(map(keys.__getitem__, fresh.tolist())),
                _column_ints([column[new_at] for column in succ_codes]),
            )
            wave_sizes.append(new_at.size)
        if live:
            # One progress event per BFS wave -- wave totals are identical
            # across identical runs, so the trace stays deterministic.
            span.progress(total, max_states)
        wave = [column[new_at] for column in succ]
        lo, hi = hi, total

    nstates = hi
    src_all = _joined(np, edge_src)
    t_all = _joined(np, edge_t)
    tgt_all = _joined(np, edge_tgt)
    graph._set_kernel_edges(src_all, t_all, tgt_all, transitions)

    excited_plus = _excitation(np, plus, src_all, t_all, nstates)
    excited_minus = _excitation(np, minus, src_all, t_all, nstates)
    graph._excited_plus = _int_keys(excited_plus)
    graph._excited_minus = _int_keys(excited_minus)
    graph._kernel_codes = np.stack([column[:nstates] for column in codes], axis=1)
    graph._kernel_excited_plus = excited_plus
    graph._kernel_excited_minus = excited_minus
    graph._kernel_version = graph._version

    if live:
        for size in wave_sizes:
            span.append("frontier_waves", size)
        span.gauge("bfs_depth", len(wave_sizes) - 1)
        span.gauge("states", nstates)
        span.gauge("edges", int(src_all.size))
        span.gauge("kernel", "numpy")
        span.counter("kernel_frontier_words", frontier_words)
        span.gauge("interned_markings", len(graph._index))
    return graph


def _signal_bits(stg, graph, transitions) -> Tuple[List[int], List[int]]:
    """Per transition, its signal's bit if it rises / if it falls (else 0)."""
    signal_index = graph.signal_table.index
    plus_bits = [0] * len(transitions)
    minus_bits = [0] * len(transitions)
    for t, name in enumerate(transitions):
        label = stg.label_of(name)
        if label is not None:
            bits = plus_bits if label.target_value else minus_bits
            bits[t] = 1 << signal_index(label.signal)
    return plus_bits, minus_bits


def _raise_first_error(stg, pnet, graph, source, t, target_code, over_budget, max_states):
    """Raise what the python loop raises at candidate ``(source, t)``.

    The checks run in the python loop's order: the signal's value, safety,
    then the budget (``over_budget``: the candidate found the state that
    broke ``max_states``) or the code ``target_code`` of a known marking.
    """
    from ..core import UnsafeNetError, unpack_code
    from ..petrinet import StateSpaceLimitExceeded
    from ..stategraph.stategraph import _inconsistent_codes, _inconsistent_enabled

    name = pnet.transitions[t]
    marking = graph._packed_markings[source]
    code = graph.packed_codes[source]
    label = stg.label_of(name)
    if label is not None:
        bit = 1 << graph.signal_table.index(label.signal)
        if bool(code & bit) != (label.target_value == 0):
            raise _inconsistent_enabled(stg, name)
        code ^= bit
    remainder = marking & ~pnet.presets[t]
    if remainder & pnet.postsets[t]:
        raise UnsafeNetError(
            "firing %r from packed marking %#x is not safe" % (name, marking)
        )
    if over_budget:
        raise StateSpaceLimitExceeded(max_states)
    nsignals = len(graph.signals)
    raise _inconsistent_codes(
        pnet.codec.decode(remainder | pnet.postsets[t]),
        unpack_code(target_code, nsignals),
        unpack_code(code, nsignals),
    )


def _word_columns(np, values, nwords, length=None):
    """Python ints as ``nwords`` uint64 columns (column ``w`` = word ``w``),
    zero-padded to ``length`` rows."""
    length = len(values) if length is None else length
    columns = []
    for w in range(nwords):
        column = np.zeros(length, dtype=np.uint64)
        column[: len(values)] = [(value >> (64 * w)) & _MASK64 for value in values]
        columns.append(column)
    return columns


def _joined(np, chunks):
    """The per-wave index arrays as one ``uint32`` array, emptying ``chunks``
    (state and transition indices stay far below ``2**32``)."""
    joined = np.concatenate(chunks, dtype=np.uint32, casting="unsafe")
    chunks.clear()
    return joined


def _grown(np, column, used, capacity):
    """``column`` copied into a longer zeroed one."""
    grown = np.zeros(capacity, dtype=np.uint64)
    grown[:used] = column[:used]
    return grown


def _excitation(np, bits, src, t_idx, nstates):
    """``(states, words)`` OR of ``bits[w][t]`` over every edge's source.

    ``src`` ascends (edges are recorded in discovery order), so each
    state's edges form one run and ``reduceat`` ORs the runs.
    """
    excited = np.zeros((nstates, len(bits)), dtype=np.uint64)
    if src.size:
        starts = np.flatnonzero(np.concatenate(([True], src[1:] != src[:-1])))
        for w, column in enumerate(bits):
            excited[src[starts], w] = np.bitwise_or.reduceat(column[t_idx], starts)
    return excited


# ---------------------------------------------------------------------- #
# USC/CSC sweeps
# ---------------------------------------------------------------------- #
def graph_arrays(graph):
    """``(codes, excited_plus, excited_minus)`` uint64 matrices of a graph.

    Each is a ``(states, code_words)`` matrix -- one row per state, codes of
    any width.  Kernel-built graphs carry them already; for reference-built
    graphs they are converted from the packed Python-int lists once and
    cached.  The cache is stamped with the graph's mutation version and
    rebuilt whenever the graph mutated since capture -- an edge alone
    changes the excitation masks without changing the state count, so a
    length check is not a staleness check.
    """
    np = _require_numpy()
    cwords = code_words(len(graph.signals))
    codes = getattr(graph, "_kernel_codes", None)
    if codes is None or getattr(graph, "_kernel_version", -1) != graph._version:
        codes = _pack_ints(np, graph.packed_codes, cwords)
        graph._kernel_codes = codes
        graph._kernel_excited_plus = _pack_ints(np, graph._excited_plus, cwords)
        graph._kernel_excited_minus = _pack_ints(np, graph._excited_minus, cwords)
        graph._kernel_version = graph._version
    return codes, graph._kernel_excited_plus, graph._kernel_excited_minus


def _row_lexsort(np, rows):
    """Stable row order of a ``(n, words)`` matrix, ascending as integers.

    ``lexsort`` takes its *last* key as primary, so the column tuple runs
    low word to high word.
    """
    return np.lexsort(tuple(rows[:, w] for w in range(rows.shape[1])))


def _row_int(row) -> int:
    """One matrix row back into a Python int."""
    value = 0
    for w, word in enumerate(row.tolist()):
        value |= word << (64 * w)
    return value


def coding_conflict_pairs(codes, signatures=None) -> List[Tuple[int, int]]:
    """Sorted conflict pairs of a code matrix, as the reference checkers emit.

    ``codes`` (and ``signatures``) are ``(states, code_words)`` row
    matrices.  Without ``signatures`` every pair of states sharing a code
    row conflicts (USC); with signature rows only same-code pairs whose
    signatures differ do (CSC).  One ``lexsort`` turns the all-pairs bucket
    join into a scan over runs of equal rows; USC-clean specs never enter
    the per-run loop at all.
    """
    np = _require_numpy()
    n = len(codes)
    pairs: List[Tuple[int, int]] = []
    if n < 2:
        return pairs
    order = _row_lexsort(np, codes)
    sorted_codes = codes[order]
    differs = (sorted_codes[1:] != sorted_codes[:-1]).any(axis=1)
    boundary = np.nonzero(differs)[0] + 1
    starts = np.concatenate((np.zeros(1, dtype=boundary.dtype), boundary))
    ends = np.concatenate((boundary, np.array([n], dtype=boundary.dtype)))
    multi = np.nonzero((ends - starts) >= 2)[0]
    for run in multi.tolist():
        s, e = int(starts[run]), int(ends[run])
        states = np.sort(order[s:e])
        length = e - s
        ii, jj = np.triu_indices(length, k=1)
        if signatures is not None:
            sig = signatures[states]
            if bool((sig == sig[0]).all()):
                continue
            keep = (sig[ii] != sig[jj]).any(axis=1)
            ii, jj = ii[keep], jj[keep]
        pairs.extend(zip(states[ii].tolist(), states[jj].tolist()))
    pairs.sort()
    return pairs


def signature_groups_kernel(codes, signatures) -> Dict[int, List[Tuple[int, int]]]:
    """Per-code signature histograms for codes with >1 distinct signature.

    Matches ``ExplicitStateSpace.signature_groups``: ``{code: [(signature,
    count), ...]}`` with the signature list ascending.  One lexsort by
    ``(code, signature)`` replaces the per-state dict-of-dict loop;
    only runs that actually conflict are materialised into Python objects.
    """
    np = _require_numpy()
    n = len(codes)
    if n == 0:
        return {}
    # Signature words are the secondary key, code words the primary --
    # lexsort's last key wins, and within each key low word precedes high.
    keys = tuple(signatures[:, w] for w in range(signatures.shape[1]))
    keys += tuple(codes[:, w] for w in range(codes.shape[1]))
    order = np.lexsort(keys)
    sorted_codes = codes[order]
    sorted_sigs = signatures[order]
    new_code = np.empty(n, dtype=bool)
    new_code[0] = True
    new_code[1:] = (sorted_codes[1:] != sorted_codes[:-1]).any(axis=1)
    new_pair = new_code.copy()
    new_pair[1:] |= (sorted_sigs[1:] != sorted_sigs[:-1]).any(axis=1)
    pair_starts = np.nonzero(new_pair)[0]
    run_of_pair = (np.cumsum(new_code) - 1)[pair_starts]
    pairs_per_run = np.bincount(run_of_pair)
    conflicting = np.nonzero(pairs_per_run > 1)[0]
    if conflicting.size == 0:
        return {}
    pair_ends = np.concatenate((pair_starts[1:], np.array([n], dtype=pair_starts.dtype)))
    keep = np.isin(run_of_pair, conflicting)
    result: Dict[int, List[Tuple[int, int]]] = {}
    for s, e in zip(pair_starts[keep].tolist(), pair_ends[keep].tolist()):
        result.setdefault(_row_int(sorted_codes[s]), []).append(
            (_row_int(sorted_sigs[s]), e - s)
        )
    return result
