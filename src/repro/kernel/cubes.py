"""Cube-matrix kernels: covers as ``(ncubes, words)`` uint64 matrices.

PR 7 vectorised reachability; this module does the same for the two-level
cover engine that dominates ``EspTim``.  A :class:`~repro.boolean.cover.Cover`
is packed into two ``(ncubes, words)`` uint64 matrices (``ones`` / ``zeros``,
``words = ceil(nvars / 64)``) and the Espresso inner loops -- off-set
intersection sweeps, tautology/containment recursions, the bounding
difference behind REDUCE, single-cube containment and the unate-recursive
complement -- become whole-cover word operations.

Bit-identity contract: every function here that *constructs* cubes or covers
reproduces the pure-python reference exactly -- same cubes, same order, same
deterministic tie-breaks.  The predicates (tautology, containment,
emptiness) are semantic booleans, so for them only correctness matters; the
constructive paths (complement's recursion order, single-cube containment's
stable sort) replicate the reference's control flow and vectorise only the
representation-independent inner checks.  Expand has no matrix pass (see
:func:`repro.boolean.minimize._expand` for why).

The word-row helpers :func:`pack_row` and :func:`row_int` convert between
python ints and ``(words,)`` uint64 rows.

Everything assumes numpy is importable; callers gate through
:func:`repro.kernel.resolve_kernel` first.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from . import numpy_or_none

np = numpy_or_none()

__all__ = [
    "words_for",
    "pack_row",
    "row_int",
    "pack_pairs",
    "pack_cover",
    "unpack_cover",
    "literal_counts",
    "dedup_rows",
    "intersect_cube_rows",
    "cofactor_rows",
    "is_tautology_rows",
    "contains_cube_rows",
    "covered_points",
    "cover_point_matrix",
    "bounding_difference",
    "single_cube_containment_cover",
    "complement_cover",
]

_WORD = 64
_MASK64 = (1 << 64) - 1


def _require_numpy():
    if np is None:  # pragma: no cover - callers resolve the kernel first
        raise RuntimeError(
            "repro.kernel.cubes requires numpy "
            "(pip install repro-synth[kernel])"
        )
    return np


def words_for(nvars: int) -> int:
    """Number of 64-bit words needed for ``nvars`` variables (at least 1)."""
    return max(1, (nvars + _WORD - 1) // _WORD)


def pack_row(value: int, words: int):
    """Pack an arbitrary-width python int into a ``(words,)`` uint64 row."""
    _require_numpy()
    row = np.empty(words, dtype=np.uint64)
    for index in range(words):
        row[index] = (value >> (index * _WORD)) & _MASK64
    return row


def row_int(row) -> int:
    """Rebuild the python int encoded by a ``(words,)`` uint64 row."""
    value = 0
    for index in range(len(row)):
        value |= int(row[index]) << (index * _WORD)
    return value


def pack_pairs(pairs: Sequence[Tuple[int, int]], words: int):
    """Pack ``(ones, zeros)`` mask pairs into two uint64 matrices."""
    _require_numpy()
    count = len(pairs)
    if count == 0:
        empty = np.zeros((0, words), dtype=np.uint64)
        return empty, empty.copy()
    nbytes = words * 8
    ones_buf = b"".join(ones.to_bytes(nbytes, "little") for ones, _ in pairs)
    zeros_buf = b"".join(zeros.to_bytes(nbytes, "little") for _, zeros in pairs)
    ones = np.frombuffer(ones_buf, dtype="<u8").reshape(count, words)
    zeros = np.frombuffer(zeros_buf, dtype="<u8").reshape(count, words)
    return ones.astype(np.uint64, copy=False), zeros.astype(np.uint64, copy=False)


def pack_cover(cover) -> Tuple[object, object]:
    """Pack a Cover into ``(ones, zeros)`` uint64 matrices."""
    return pack_pairs([(c.ones, c.zeros) for c in cover], words_for(cover.nvars))


def unpack_cover(nvars: int, ones, zeros):
    """Rebuild a Cover from ``(ones, zeros)`` matrices, preserving row order."""
    from ..boolean.cover import Cover
    from ..boolean.cube import Cube

    cubes = [
        Cube(nvars, row_int(ones[row]), row_int(zeros[row]))
        for row in range(len(ones))
    ]
    return Cover(nvars, cubes)


# ---------------------------------------------------------------------- #
# Row-parallel primitives
# ---------------------------------------------------------------------- #
if np is not None and hasattr(np, "bitwise_count"):

    def _popcount_words(matrix):
        return np.bitwise_count(matrix)

else:  # pragma: no cover - exercised on numpy < 2.0 only
    _POP8 = None

    def _popcount_words(matrix):
        global _POP8
        if _POP8 is None:
            _POP8 = np.array(
                [bin(value).count("1") for value in range(256)], dtype=np.uint64
            )
        flat = matrix.astype("<u8", copy=False).view(np.uint8)
        return _POP8[flat].reshape(matrix.shape + (8,)).sum(axis=-1)


def literal_counts(ones, zeros):
    """Per-row literal counts (``num_literals`` for every cube at once)."""
    return (_popcount_words(ones) + _popcount_words(zeros)).sum(axis=1)


def _conflict_any(ones, zeros):
    """Per-row bool: True where ``ones & zeros`` is non-zero (empty cube)."""
    return ((ones & zeros) != 0).any(axis=1)


#: Below this many rows the recursions hand off to python-int mask pairs:
#: per-call numpy dispatch overhead beats word parallelism on tiny covers,
#: and the deep tails of the unate recursions are all tiny.
_SMALL_ROWS = 48


def rows_to_pairs(ones, zeros) -> List[Tuple[int, int]]:
    """Convert matrix rows back to python ``(ones, zeros)`` mask pairs."""
    return [
        (row_int(ones[row]), row_int(zeros[row])) for row in range(len(ones))
    ]


# -- python-int twins used below the _SMALL_ROWS threshold ---------------- #
def _split_var_pairs(nvars: int, pairs) -> Optional[int]:
    counts = [0] * nvars
    for ones, zeros in pairs:
        mask = ones | zeros
        while mask:
            low = mask & -mask
            counts[low.bit_length() - 1] += 1
            mask ^= low
    best_var = None
    best_count = 0
    for var, count in enumerate(counts):
        if count > best_count:
            best_var = var
            best_count = count
    return best_var


def _cofactor_pairs(pairs, cube_ones: int, cube_zeros: int):
    fixed = cube_ones | cube_zeros
    out = []
    seen = set()
    for ones, zeros in pairs:
        if (ones & cube_zeros) | (zeros & cube_ones):
            continue
        key = (ones & ~fixed, zeros & ~fixed)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _tautology_pairs(nvars: int, pairs) -> bool:
    # Tautology is semantic, so this recursion is free to apply the
    # classic unate reductions the constructive twins cannot: rows with a
    # literal of a unate variable never help cover the opposite half-space
    # (taut(C) == taut(C cofactored against the unate orientation)), and
    # the split variable only needs to be binate.
    while True:
        if not pairs:
            return False
        if any(ones == 0 and zeros == 0 for ones, zeros in pairs):
            return True
        or_ones = 0
        or_zeros = 0
        for ones, zeros in pairs:
            or_ones |= ones
            or_zeros |= zeros
        binate = or_ones & or_zeros
        pos_unate = or_ones & ~binate
        neg_unate = or_zeros & ~binate
        if pos_unate | neg_unate:
            pairs = [
                (ones, zeros)
                for ones, zeros in pairs
                if not ((ones & pos_unate) | (zeros & neg_unate))
            ]
            continue
        if binate == 0:
            return False
        counts = [0] * nvars
        for ones, zeros in pairs:
            mask = (ones | zeros) & binate
            while mask:
                low = mask & -mask
                counts[low.bit_length() - 1] += 1
                mask ^= low
        var = max(range(nvars), key=lambda index: counts[index])
        bit = 1 << var
        if not _tautology_pairs(nvars, _cofactor_pairs(pairs, bit, 0)):
            return False
        pairs = _cofactor_pairs(pairs, 0, bit)


def intersect_cube_rows(ones, zeros, cube_ones_row, cube_zeros_row):
    """Intersect every row with one cube, dropping empty intersections.

    Returns the surviving ``(ones, zeros)`` rows in original order.  Rows
    are *not* deduplicated -- callers that need the reference cover's
    first-occurrence dedup do it themselves; the semantic consumers
    (containment checks) do not care.
    """
    new_ones = ones | cube_ones_row
    new_zeros = zeros | cube_zeros_row
    keep = ~_conflict_any(new_ones, new_zeros)
    return new_ones[keep], new_zeros[keep]


def cofactor_rows(ones, zeros, cube_ones_row, cube_zeros_row):
    """Generalised Shannon cofactor of all rows with respect to one cube."""
    drop = (((ones & cube_zeros_row) | (zeros & cube_ones_row)) != 0).any(axis=1)
    keep = ~drop
    fixed = cube_ones_row | cube_zeros_row
    return ones[keep] & ~fixed, zeros[keep] & ~fixed


#: Below this row count ``dedup_rows`` hashes python tuples instead of
#: calling ``np.unique(axis=0)`` (whose setup cost dwarfs tiny inputs).
_SMALL_DEDUP = 64


def dedup_rows(ones, zeros):
    """First-occurrence row dedup, preserving the reference cover order."""
    count = len(ones)
    if count <= 1:
        return ones, zeros
    if count <= _SMALL_DEDUP:
        ones_list = ones.tolist()
        zeros_list = zeros.tolist()
        seen = set()
        keep: List[int] = []
        for row in range(count):
            key = (tuple(ones_list[row]), tuple(zeros_list[row]))
            if key not in seen:
                seen.add(key)
                keep.append(row)
        if len(keep) == count:
            return ones, zeros
        first = np.array(keep, dtype=np.intp)
        return ones[first], zeros[first]
    combined = np.concatenate([ones, zeros], axis=1)
    _, first = np.unique(combined, axis=0, return_index=True)
    first.sort()
    return ones[first], zeros[first]


def _occurrence_counts(ones, zeros, nvars: int):
    """Per-variable occurrence counts across all rows (bound literals)."""
    bound = (ones | zeros).astype("<u8", copy=False)
    bits = np.unpackbits(bound.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :nvars].sum(axis=0)


def _splitting_var(ones, zeros, nvars: int) -> Optional[int]:
    """Most-bound variable, lowest index on ties (mirrors the reference)."""
    counts = _occurrence_counts(ones, zeros, nvars)
    if counts.size == 0:
        return None
    best = int(np.argmax(counts))
    if int(counts[best]) == 0:
        return None
    return best


def _var_rows(nvars: int, var: int, value: int):
    """The ``(ones, zeros)`` rows of the single-literal cube ``var=value``."""
    words = words_for(nvars)
    bit_row = np.zeros(words, dtype=np.uint64)
    bit_row[var // _WORD] = np.uint64(1 << (var % _WORD))
    empty = np.zeros(words, dtype=np.uint64)
    return (bit_row, empty) if value else (empty, bit_row)


def is_tautology_rows(nvars: int, ones, zeros) -> bool:
    """Recursive tautology check over cube-matrix rows.

    Tautology is a semantic predicate, so unlike the constructive paths
    this is free to deduplicate rows for speed without affecting
    bit-identity of any cover built from the result.  Small subproblems
    (the deep tails of the recursion) run on python-int mask pairs.
    """
    while True:
        if len(ones) <= _SMALL_ROWS:
            return _tautology_pairs(nvars, rows_to_pairs(ones, zeros))
        full = ~((ones != 0).any(axis=1) | (zeros != 0).any(axis=1))
        if full.any():
            return True
        # Unate reduction (see _tautology_pairs): rows holding a literal
        # of a unate variable cannot contribute to a tautology.
        or_ones = np.bitwise_or.reduce(ones, axis=0)
        or_zeros = np.bitwise_or.reduce(zeros, axis=0)
        binate = or_ones & or_zeros
        pos_unate = or_ones & ~binate
        neg_unate = or_zeros & ~binate
        if pos_unate.any() or neg_unate.any():
            keep = (((ones & pos_unate) | (zeros & neg_unate)) == 0).all(axis=1)
            ones = ones[keep]
            zeros = zeros[keep]
            if len(ones) == 0:
                return False
            continue
        ones, zeros = dedup_rows(ones, zeros)
        var = _splitting_var(ones, zeros, nvars)
        if var is None:
            # No literals anywhere but no full cube either: defensive
            # fallback matching the reference.
            return False
        pos_ones, pos_zeros = _var_rows(nvars, var, 1)
        branch_ones, branch_zeros = cofactor_rows(ones, zeros, pos_ones, pos_zeros)
        if not is_tautology_rows(nvars, branch_ones, branch_zeros):
            return False
        neg_ones, neg_zeros = _var_rows(nvars, var, 0)
        ones, zeros = cofactor_rows(ones, zeros, neg_ones, neg_zeros)


def contains_cube_rows(nvars: int, ones, zeros, cube_ones_row, cube_zeros_row) -> bool:
    """True when the rows cover every minterm of the cube."""
    cof_ones, cof_zeros = cofactor_rows(ones, zeros, cube_ones_row, cube_zeros_row)
    return is_tautology_rows(nvars, cof_ones, cof_zeros)


def cover_point_matrix(ones, zeros, point_ones, point_zeros):
    """Full ``(nrows, npoints)`` bool matrix: row i covers point j.

    ``point`` rows must be fully-specified cubes (minterms).  Chunked over
    points to bound the temporaries on large on-sets.
    """
    nrows = len(ones)
    npoints = len(point_ones)
    words = ones.shape[1]
    out = np.zeros((nrows, npoints), dtype=bool)
    block = 512
    for start in range(0, npoints, block):
        stop = min(start + block, npoints)
        blk = slice(start, stop)
        contains = np.ones((nrows, stop - start), dtype=bool)
        for index in range(words):
            contains &= (ones[:, index, None] & ~point_ones[None, blk, index]) == 0
            contains &= (zeros[:, index, None] & ~point_zeros[None, blk, index]) == 0
        out[:, blk] = contains
    return out


def covered_points(ones, zeros, point_ones, point_zeros):
    """Per-point bool: is each fully-specified cube covered by some row?

    A minterm is a single point, so cover containment degenerates to "some
    cube contains the point" -- no tautology recursion needed.  ``point``
    rows must be fully specified (``ones | zeros`` covers the space); the
    synthesis on-sets are minterm covers, which makes this the hot path of
    the irredundant sweep.
    """
    npoints = len(point_ones)
    words = ones.shape[1]
    covered = np.zeros(npoints, dtype=bool)
    block = 512
    for start in range(0, npoints, block):
        stop = min(start + block, npoints)
        blk = slice(start, stop)
        contains = np.ones((len(ones), stop - start), dtype=bool)
        for index in range(words):
            contains &= (ones[:, index, None] & ~point_ones[None, blk, index]) == 0
            contains &= (zeros[:, index, None] & ~point_zeros[None, blk, index]) == 0
        covered[blk] = contains.any(axis=0)
    return covered


# ---------------------------------------------------------------------- #
# Espresso REDUCE: bounding box of ``context AND NOT cover``
# ---------------------------------------------------------------------- #
def bounding_difference(
    nvars: int, ctx_ones: int, ctx_zeros: int, ones, zeros
) -> Optional[Tuple[int, int]]:
    """Smallest cube covering ``context minus cover``, or None when empty.

    The reference REDUCE folds ``supercube`` over an explicit disjoint
    cover of the difference; the supercube of *any* cover of a set equals
    the set's bounding box (a variable is bound iff every minterm agrees
    on it), so recursing directly on the bounding boxes is bit-identical
    without materialising the difference cubes.
    """
    cof_ones, cof_zeros = cofactor_rows(
        ones, zeros, pack_row(ctx_ones, words_for(nvars)), pack_row(ctx_zeros, words_for(nvars))
    )
    return _bounding_rec(nvars, ctx_ones, ctx_zeros, cof_ones, cof_zeros)


def _bounding_rec(nvars, ctx_ones, ctx_zeros, ones, zeros):
    if len(ones) <= _SMALL_ROWS:
        return _bounding_pairs(nvars, ctx_ones, ctx_zeros, rows_to_pairs(ones, zeros))
    full = ~((ones != 0).any(axis=1) | (zeros != 0).any(axis=1))
    if full.any():
        return None
    ones, zeros = dedup_rows(ones, zeros)
    var = _splitting_var(ones, zeros, nvars)
    if var is None:  # pragma: no cover - defensive, mirrors the reference
        return None
    bit = 1 << var
    box = None
    for value in (1, 0):
        if value:
            if ctx_zeros & bit:
                continue
            branch_ctx = (ctx_ones | bit, ctx_zeros)
        else:
            if ctx_ones & bit:
                continue
            branch_ctx = (ctx_ones, ctx_zeros | bit)
        lit_ones, lit_zeros = _var_rows(nvars, var, value)
        branch_ones, branch_zeros = cofactor_rows(ones, zeros, lit_ones, lit_zeros)
        piece = _bounding_rec(
            nvars, branch_ctx[0], branch_ctx[1], branch_ones, branch_zeros
        )
        if piece is None:
            continue
        if box is None:
            box = piece
        else:
            box = (box[0] & piece[0], box[1] & piece[1])
        if box == (ctx_ones, ctx_zeros):
            # The box can only lose literals as pieces merge, and it is
            # bounded below by the context cube itself: once it reaches
            # the context the remaining branch cannot change it.
            return box
    return box


def _bounding_pairs(nvars, ctx_ones, ctx_zeros, pairs):
    """Python-int tail of :func:`_bounding_rec` (same recursion, no numpy).

    The box is semantic, which licenses one extra reduction the reference
    lacks: a single-literal row ``x=v`` covers the whole ``x=v`` half of
    the context, so the difference lives entirely in ``x=not v`` -- bind
    that into the context and cofactor instead of branching.
    """
    while True:
        if not pairs:
            return ctx_ones, ctx_zeros
        if any(ones == 0 and zeros == 0 for ones, zeros in pairs):
            return None
        single = None
        for ones, zeros in pairs:
            mask = ones | zeros
            if mask and not (mask & (mask - 1)):
                single = (ones, zeros, mask)
                break
        if single is None:
            break
        ones, zeros, bit = single
        if ones:
            ctx_zeros |= bit
            pairs = _cofactor_pairs(pairs, 0, bit)
        else:
            ctx_ones |= bit
            pairs = _cofactor_pairs(pairs, bit, 0)
    var = _split_var_pairs(nvars, pairs)
    if var is None:  # pragma: no cover - defensive, mirrors the reference
        return None
    bit = 1 << var
    box = None
    for value in (1, 0):
        if value:
            if ctx_zeros & bit:
                continue
            branch_ctx = (ctx_ones | bit, ctx_zeros)
        else:
            if ctx_ones & bit:
                continue
            branch_ctx = (ctx_ones, ctx_zeros | bit)
        branch = (
            _cofactor_pairs(pairs, bit, 0)
            if value
            else _cofactor_pairs(pairs, 0, bit)
        )
        piece = _bounding_pairs(nvars, branch_ctx[0], branch_ctx[1], branch)
        if piece is None:
            continue
        if box is None:
            box = piece
        else:
            box = (box[0] & piece[0], box[1] & piece[1])
        if box == (ctx_ones, ctx_zeros):
            # The box can only lose literals as pieces merge, and it is
            # bounded below by the context cube itself: once it reaches
            # the context the remaining branch cannot change it.
            return box
    return box


# ---------------------------------------------------------------------- #
# Single-cube containment (stable sort + subset sweep)
# ---------------------------------------------------------------------- #
def single_cube_containment_cover(cover):
    """Matrix twin of ``Cover.single_cube_containment`` (bit-identical).

    The reference keeps a cube iff no previously *kept* cube's literals
    are a subset of its literals.  Subset containment is transitive, so a
    cube contained by any dropped predecessor is also contained by the
    kept cube that dropped it -- meaning "contained by any earlier cube in
    the stable literal-count order" is an equivalent drop test, and that
    form vectorises as a triangular subset sweep.
    """
    from ..boolean.cover import Cover

    cubes = list(cover)
    if len(cubes) <= 1:
        return Cover(cover.nvars, cubes)
    ones, zeros = pack_cover(cover)
    counts = literal_counts(ones, zeros)
    order = np.argsort(counts, kind="stable")
    ones = ones[order]
    zeros = zeros[order]
    count = len(cubes)
    words = ones.shape[1]
    rows = np.arange(count)
    kept_rows: List[int] = []
    # Column-chunked triangular sweep: drop[i] iff some earlier cube j (in
    # the stable literal-count order) has literals that are a subset of
    # cube i's.  Chunking bounds the (count x block) uint64 temporaries on
    # minterm-sized covers.
    block = 512
    for start in range(0, count, block):
        stop = min(start + block, count)
        blk = slice(start, stop)
        contained = np.ones((count, stop - start), dtype=bool)
        for index in range(words):
            col_ones = ones[:, index]
            col_zeros = zeros[:, index]
            contained &= (col_ones[:, None] & ~col_ones[None, blk]) == 0
            contained &= (col_zeros[:, None] & ~col_zeros[None, blk]) == 0
        contained &= rows[:, None] < rows[None, blk]
        drop = contained.any(axis=0)
        kept_rows.extend(int(row) for row in np.flatnonzero(~drop) + start)
    kept = [cubes[int(order[row])] for row in kept_rows]
    return Cover(cover.nvars, kept)


# ---------------------------------------------------------------------- #
# Complement (unate-recursive, replicating the reference recursion order)
# ---------------------------------------------------------------------- #
def complement_cover(cover):
    """Matrix twin of ``Cover.complement`` (bit-identical cube order).

    Unlike the semantic predicates, the complement's *output cubes* depend
    on the recursion order, so this replicates the reference exactly:
    splitting on the most-bound variable (lowest index on ties, counted
    over the first-occurrence-deduplicated cofactor rows), positive branch
    first, each emitted cube being the accumulated branch context.
    """
    from ..boolean.cover import Cover
    from ..boolean.cube import Cube

    nvars = cover.nvars
    ones, zeros = pack_cover(cover)
    pieces: List[Tuple[int, int]] = []
    _complement_rec_rows(nvars, ones, zeros, 0, 0, pieces)
    return Cover(nvars, [Cube(nvars, o, z) for o, z in pieces])


def _complement_rec_rows(nvars, ones, zeros, ctx_ones, ctx_zeros, pieces):
    if len(ones) <= _SMALL_ROWS:
        _complement_pairs(
            nvars, rows_to_pairs(ones, zeros), ctx_ones, ctx_zeros, pieces
        )
        return
    full = ~((ones != 0).any(axis=1) | (zeros != 0).any(axis=1))
    if full.any():
        return
    var = _splitting_var(ones, zeros, nvars)
    if var is None:
        return
    bit = 1 << var
    for value in (1, 0):
        if value:
            if ctx_zeros & bit:
                continue
            branch_ctx = (ctx_ones | bit, ctx_zeros)
        else:
            if ctx_ones & bit:
                continue
            branch_ctx = (ctx_ones, ctx_zeros | bit)
        lit_ones, lit_zeros = _var_rows(nvars, var, value)
        branch_ones, branch_zeros = cofactor_rows(ones, zeros, lit_ones, lit_zeros)
        # The reference cofactor dedups rows first-occurrence; the dedup
        # feeds the next level's splitting-variable counts, so it is part
        # of the bit-identity contract here.
        branch_ones, branch_zeros = dedup_rows(branch_ones, branch_zeros)
        _complement_rec_rows(
            nvars, branch_ones, branch_zeros, branch_ctx[0], branch_ctx[1], pieces
        )


def _complement_pairs(nvars, pairs, ctx_ones, ctx_zeros, pieces):
    """Python-int tail of :func:`_complement_rec_rows` (bit-identical)."""
    if not pairs:
        pieces.append((ctx_ones, ctx_zeros))
        return
    if any(ones == 0 and zeros == 0 for ones, zeros in pairs):
        return
    var = _split_var_pairs(nvars, pairs)
    if var is None:
        return
    bit = 1 << var
    for value in (1, 0):
        if value:
            if ctx_zeros & bit:
                continue
            branch_ctx = (ctx_ones | bit, ctx_zeros)
        else:
            if ctx_ones & bit:
                continue
            branch_ctx = (ctx_ones, ctx_zeros | bit)
        branch = (
            _cofactor_pairs(pairs, bit, 0)
            if value
            else _cofactor_pairs(pairs, 0, bit)
        )
        _complement_pairs(nvars, branch, branch_ctx[0], branch_ctx[1], pieces)
