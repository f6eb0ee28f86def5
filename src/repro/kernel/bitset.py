"""numpy ``uint64`` bitset kernels for the explicit-engine hot paths.

Three per-state Python-int loops dominate explicit synthesis runs past ~12
pipeline stages: BFS frontier expansion in
:func:`~repro.stategraph.stategraph.build_state_graph`, the excitation-mask
sweep that labels every state, and the pairwise USC/CSC code-comparison
joins in :func:`~repro.stategraph.csc.check_usc` / ``check_csc``.  This
module re-expresses all three over ``uint64`` matrices:

* markings live in a ``(states, words)`` matrix (``words =
  ceil(places/64)``), codes and excitation masks in ``(states,
  code_words)`` matrices (``code_words = ceil(signals/64)``), so
  arbitrarily wide specifications stay on the numpy path -- the historical
  64-signal limit is gone;
* one BFS *wave* (all states at one depth -- a contiguous index range, since
  discovery order is FIFO) is expanded in whole-frontier array ops:
  ``enabled = ((m & preset) == preset).all(axis=-1)``, ``succ = (m &
  ~preset) | postset``, with vectorised safety and consistency checks;
* candidate successors come out of ``np.nonzero`` in row-major order, i.e.
  exactly the ``(source, transition)`` order of the reference BFS, so state
  numbering, edge order, excitation masks and every raised error match the
  pure-python builder bit for bit;
* USC/CSC joins sort the code vector once and compare only within runs of
  equal codes, instead of bucketing every state through a Python dict.

The kernel fills the same :class:`~repro.stategraph.StateGraph` object the
reference builder produces; edges are kept as compact ``uint32`` arrays and
materialised into ``(source, transition, target)`` tuples / adjacency dicts
lazily, only for consumers that genuinely walk the graph.

The BFS kernel serves cold builds only.  Growing a graph after a signal
insertion (:func:`~repro.stategraph.extend_state_graph`) re-explores a few
states, which the python loop drains faster than wave arrays can be set up.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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


def _int_keys(rows) -> List[int]:
    """Recombine a ``(k, words)`` uint64 matrix into Python-int dict keys.

    The keys must be plain ints because they are interned into the same
    ``StateGraph._index`` dict the reference builder uses (so
    ``index_of()`` keeps working on kernel-built graphs).
    """
    keys = rows[:, 0].tolist()
    for w in range(1, rows.shape[1]):
        shift = 64 * w
        keys = [k | (v << shift) for k, v in zip(keys, rows[:, w].tolist())]
    return keys


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

    Raises the same errors at the same first offending ``(state,
    transition)`` as the reference builder: wave order equals FIFO order
    and within a wave candidates are scanned in ``(source position,
    transition index)`` order.
    """
    np = _require_numpy()
    from ..core import UnsafeNetError, pack_code, unpack_code
    from ..petrinet import StateSpaceLimitExceeded
    from ..stg.signals import Direction

    nsignals = len(graph.signals)
    nplaces = len(pnet.codec.places)
    nwords = max(1, (nplaces + 63) // 64)
    transitions = pnet.transitions
    ntrans = len(transitions)

    pre = np.array(
        [_words_of(m, nwords) for m in pnet.presets], dtype=np.uint64
    ).reshape(ntrans, nwords)
    post = np.array(
        [_words_of(m, nwords) for m in pnet.postsets], dtype=np.uint64
    ).reshape(ntrans, nwords)

    signal_index = graph.signal_table.index
    cwords = code_words(nsignals)
    bits = np.zeros((ntrans, cwords), dtype=np.uint64)
    target_one = np.zeros(ntrans, dtype=bool)
    labelled = np.zeros(ntrans, dtype=bool)
    rising = np.zeros(ntrans, dtype=bool)
    for t, name in enumerate(transitions):
        label = stg.label_of(name)
        if label is None:
            continue
        bits[t] = _words_of(1 << signal_index(label.signal), cwords)
        target_one[t] = label.target_value == 1
        labelled[t] = True
        rising[t] = label.direction is Direction.PLUS

    capacity = 1024
    marks = np.zeros((capacity, nwords), dtype=np.uint64)
    codes = np.zeros((capacity, cwords), dtype=np.uint64)
    marks[0] = _words_of(pnet.initial, nwords)
    initial_code = pack_code(stg.initial_code())
    codes[0] = _words_of(initial_code, cwords)
    graph._add_packed_state(pnet.initial, initial_code)

    packed_codes = graph.packed_codes
    index_of = graph._index
    add_state = graph._add_packed_state
    codec = pnet.codec

    edge_src: List = []
    edge_t: List = []
    edge_tgt: List = []
    live = span is not None and span.live
    wave_sizes = [1]
    frontier_words = 0

    lo, hi = 0, 1
    while lo < hi:
        frontier_words += (hi - lo) * nwords
        m = marks[lo:hi]
        c = codes[lo:hi]
        # (wave, ntrans) enablement; nonzero() yields candidates in
        # row-major order = the reference (source, transition) scan order.
        enabled = ((m[:, None, :] & pre[None, :, :]) == pre[None, :, :]).all(axis=2)
        src_loc, t_idx = np.nonzero(enabled)

        src_codes = c[src_loc]
        if src_loc.size:
            # An enabled labelled transition must see the source value:
            # violated exactly when the current bit already equals the target.
            cur_one = (src_codes & bits[t_idx]).any(axis=1)
            bad = labelled[t_idx] & (cur_one == target_one[t_idx])
            if bad.any():
                from ..stategraph.stategraph import _inconsistent_enabled

                first = int(np.argmax(bad))
                raise _inconsistent_enabled(stg, transitions[int(t_idx[first])])

        remainder = m[src_loc] & ~pre[t_idx]
        t_post = post[t_idx]
        unsafe = (remainder & t_post).any(axis=1)
        if unsafe.any():
            first = int(np.argmax(unsafe))
            marking = _int_keys(m[src_loc[first : first + 1]])[0]
            raise UnsafeNetError(
                "firing %r from packed marking %#x is not safe"
                % (transitions[int(t_idx[first])], marking)
            )
        succ = remainder | t_post
        t_bits = bits[t_idx]
        succ_codes = np.where(
            target_one[t_idx, None], src_codes | t_bits, src_codes & ~t_bits
        )

        # Interning is the one per-candidate Python loop left: dict get /
        # insert per candidate, in reference discovery order.
        keys = _int_keys(succ)
        code_list = _int_keys(succ_codes)
        targets: List[int] = []
        new_positions: List[int] = []
        for pos, key in enumerate(keys):
            existing = index_of.get(key)
            if existing is None:
                existing = add_state(key, code_list[pos])
                if max_states is not None and len(packed_codes) > max_states:
                    raise StateSpaceLimitExceeded(max_states)
                new_positions.append(pos)
            elif packed_codes[existing] != code_list[pos]:
                from ..stategraph.stategraph import _inconsistent_codes

                raise _inconsistent_codes(
                    codec.decode(key),
                    unpack_code(packed_codes[existing], nsignals),
                    unpack_code(code_list[pos], nsignals),
                )
            targets.append(existing)

        if src_loc.size:
            edge_src.append((src_loc + lo).astype(np.uint32))
            edge_t.append(t_idx.astype(np.uint32))
            edge_tgt.append(np.array(targets, dtype=np.uint32))

        total = len(packed_codes)
        if total > capacity:
            while capacity < total:
                capacity *= 2
            new_marks = np.zeros((capacity, nwords), dtype=np.uint64)
            new_marks[:hi] = marks[:hi]
            marks = new_marks
            new_codes = np.zeros((capacity, cwords), dtype=np.uint64)
            new_codes[:hi] = codes[:hi]
            codes = new_codes
        if new_positions:
            sel = np.array(new_positions, dtype=np.int64)
            marks[hi:total] = succ[sel]
            codes[hi:total] = succ_codes[sel]
            wave_sizes.append(total - hi)
        if live:
            # One progress event per BFS wave -- wave totals are identical
            # across identical runs, so the trace stays deterministic.
            span.progress(total, max_states)
        lo, hi = hi, total

    nstates = len(packed_codes)
    if edge_src:
        src_all = np.concatenate(edge_src)
        t_all = np.concatenate(edge_t)
        tgt_all = np.concatenate(edge_tgt)
    else:
        src_all = np.zeros(0, dtype=np.uint32)
        t_all = np.zeros(0, dtype=np.uint32)
        tgt_all = np.zeros(0, dtype=np.uint32)
    graph._set_kernel_edges(src_all, t_all, tgt_all, transitions)

    excited_plus = np.zeros((nstates, cwords), dtype=np.uint64)
    excited_minus = np.zeros((nstates, cwords), dtype=np.uint64)
    edge_labelled = labelled[t_all]
    plus_edges = edge_labelled & rising[t_all]
    minus_edges = edge_labelled & ~rising[t_all]
    np.bitwise_or.at(excited_plus, src_all[plus_edges], bits[t_all[plus_edges]])
    np.bitwise_or.at(excited_minus, src_all[minus_edges], bits[t_all[minus_edges]])
    graph._excited_plus = _int_keys(excited_plus)
    graph._excited_minus = _int_keys(excited_minus)
    graph._kernel_codes = codes[:nstates].copy()
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
