"""Vectorized byte-level string kernels over Arrow string columns.

The hot path for every scorer: instead of iterating Python rows, we view an
``pyarrow.StringArray`` as one contiguous uint8 buffer plus offsets, run
numpy rolling-hash / masking kernels over the WHOLE buffer at once, and
reduce per row with cumulative-sum segment math. This is what lets the
langid / perplexity / repetition scorers stay vectorized (SURVEY.md §2.2
spatconv analog) at 100 TB scale.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# Polynomial rolling-hash parameters (fixed => deterministic across runs).
_HASH_MULT = np.uint64(1099511628211)  # FNV-ish multiplier
_HASH_SEED = np.uint64(1469598103934665603)
_HASH_SEED_MULT = np.uint64(int(_HASH_SEED) * int(_HASH_MULT) % 2**64)


def string_view(arr: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (data, offsets, valid) views of a string column.

    data    : uint8[total_bytes] — concatenated UTF-8 payload
    offsets : int64[n_rows + 1]  — row i spans data[offsets[i]:offsets[i+1]]
    valid   : bool[n_rows]       — False where the value is null
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_large_string(arr.type):
        off_dtype = np.int64
    elif pa.types.is_string(arr.type):
        off_dtype = np.int32
    else:
        arr = arr.cast(pa.string())
        off_dtype = np.int32

    n = len(arr)
    valid = np.ones(n, dtype=bool)
    if arr.null_count:
        valid = np.asarray(arr.is_valid())

    buffers = arr.buffers()
    raw_off = np.frombuffer(buffers[1], dtype=off_dtype, count=n + 1 + arr.offset)
    offsets = raw_off[arr.offset : arr.offset + n + 1].astype(np.int64)
    data_buf = buffers[2]
    if data_buf is None:
        data = np.empty(0, dtype=np.uint8)
    else:
        data = np.frombuffer(data_buf, dtype=np.uint8, count=len(data_buf))
    # Normalize so offsets[0] == 0 for downstream segment math.
    if offsets[0] != 0:
        data = data[offsets[0] : offsets[-1]]
        offsets = offsets - offsets[0]
    else:
        data = data[: offsets[-1]]
    return data, offsets, valid


# RE2's \s, which is [\t\n\f\r ] (not \v, U+0085 or U+00A0 as in Python's re)
_RE2_SPACE = np.zeros(256, dtype=bool)
_RE2_SPACE[[9, 10, 12, 13, 32]] = True


def collapse_whitespace(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    r"""``replace_substring_regex(arr, r"\s+", " ")`` as one byte pass: every
    run of RE2 whitespace becomes one space. A byte mask is exact on UTF-8,
    whose multi-byte sequences hold no byte below 0x80. A run never crosses
    a row, and nulls stay null. Keeps the input's string type."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    data, offsets, valid = string_view(arr)
    space = _RE2_SPACE[data]
    # a whitespace byte after a whitespace byte of the same row is dropped
    drop = np.zeros(len(data), dtype=bool)
    np.logical_and(space[1:], space[:-1], out=drop[1:])
    drop[offsets[:-1][offsets[:-1] < len(data)]] = False
    gone = np.flatnonzero(drop)
    if len(gone):
        keep = np.logical_not(drop, out=drop)
        out, space = data[keep], space[keep]
    elif (data[space] == 32).all():
        return arr
    else:
        out = data.copy()
    out[space] = 32
    new_off = offsets - np.searchsorted(gone, offsets)
    large = pa.types.is_large_string(arr.type)
    validity = None
    if not valid.all():
        validity = pa.py_buffer(np.packbits(valid, bitorder="little"))
    return pa.Array.from_buffers(
        pa.large_string() if large else pa.string(), len(valid),
        [validity, pa.py_buffer(new_off.astype(np.int64 if large else np.int32)), pa.py_buffer(out)],
        null_count=int(len(valid) - valid.sum()),
    )


def rolling_ngram_hash(data: np.ndarray, n: int) -> np.ndarray:
    """uint64 hash of every length-n byte window of ``data`` (len = len(data)-n+1)."""
    size = len(data) - n + 1
    if size <= 0:
        return np.empty(0, dtype=np.uint64)
    # the first step, seed * mult + byte, starts from the bytes themselves
    h = data[:size].astype(np.uint64)
    h += _HASH_SEED_MULT
    for k in range(1, n):
        np.multiply(h, _HASH_MULT, out=h)
        np.add(h, data[k : k + size], out=h, casting="unsafe")
    return h


def multi_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Vectorized concatenation of arange(starts[i], starts[i]+counts[i]).

    int32 output (batches are bounded far below 2^31 windows): the index
    array is one of the largest intermediates in the scorer hot path —
    halving its width halves that stream's DRAM traffic."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int32)
    # int32 overflow guard (round-2 advice): large_string batches can carry
    # int64 offsets; indices >= 2^31 must fail loudly, not wrap into garbage
    hi = int((starts.astype(np.int64) + counts).max(initial=0))
    if total >= 2**31 or hi >= 2**31:
        raise ValueError(
            f"multi_arange: index range ({max(total, hi)}) exceeds int32 — "
            "batch text buffer too large; reduce batch_size"
        )
    cum = np.cumsum(counts)
    shift = np.repeat((starts - np.concatenate([[0], cum[:-1]])).astype(np.int32), counts)
    out = np.arange(total, dtype=np.int32)
    np.add(out, shift, out=out)
    return out


def segment_sum(values: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Sum values[starts[i]:ends[i]] per segment via cumsum (handles empty segs).

    values may be 1-D or 2-D (rows summed along axis 0).
    """
    if values.ndim == 1:
        csum = np.concatenate([[0], np.cumsum(values, dtype=np.float64)])
    else:
        zero = np.zeros((1, values.shape[1]), dtype=np.float64)
        csum = np.concatenate([zero, np.cumsum(values, axis=0, dtype=np.float64)])
    return csum[ends] - csum[starts]


def window_segments(offsets: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (start, end, count) into the window-hash array for n-grams.

    Row i's intra-row windows are indices [offsets[i], offsets[i+1]-n+1) into
    the rolling-hash array (clipped to be non-negative length).
    """
    starts = offsets[:-1]
    ends = np.maximum(offsets[1:] - (n - 1), starts)
    return starts, ends, (ends - starts)


def extend_ngram_hash(h: np.ndarray, data: np.ndarray, n: int) -> np.ndarray:
    """The length-n window hashes from the length-(n-1) ones ``h`` in one
    pass: equal to ``rolling_ngram_hash(data, n)``."""
    if len(h) != max(len(data) - n + 2, 0):
        raise ValueError(f"extend_ngram_hash: h is not the {n - 1}-gram hash of data")
    size = len(data) - n + 1
    if size <= 0:
        return np.empty(0, dtype=np.uint64)
    out = h[:size] * _HASH_MULT
    np.add(out, data[n - 1 :], out=out, casting="unsafe")
    return out


def straddle_windows(offsets: np.ndarray, n: int, size: int) -> np.ndarray:
    """Positions in a window array of length ``size`` whose length-n window
    crosses a row boundary: the n-1 windows that end past each row's last
    byte."""
    b = offsets[1:-1, None] - np.arange(1, n, dtype=np.int64)
    b = b.reshape(-1)
    return b[(b >= 0) & (b < size)]


def distinct_window_ratio(data: np.ndarray, offsets: np.ndarray, n: int = 4) -> np.ndarray:
    """Per-row repetition feature: 1 - distinct_ngrams / total_ngrams.

    0.0 => all n-grams distinct (low repetition); -> 1.0 for heavy repetition.
    Rows shorter than n get 0.0. Fully vectorized via one sort of
    (row_id, hash) keys.
    """
    return _distinct_ratio(rolling_ngram_hash(data, n), offsets, n)


def _distinct_ratio(h: np.ndarray, offsets: np.ndarray, n: int) -> np.ndarray:
    """distinct_window_ratio over the precomputed length-n window hashes."""
    n_rows = len(offsets) - 1
    out = np.zeros(n_rows, dtype=np.float64)
    if len(h) == 0:
        return out
    counts = window_segments(offsets, n)[2]
    if not counts.any():
        return out
    # Sort ONE composite uint64 key (row_id << 40 | hash40) instead of a
    # 2-key lexsort (~4x faster; 40-bit hash collisions within a row are
    # negligible for a repetition RATIO). Every window keeps its place: a
    # window that crosses a row boundary gets row id n_rows, whose distinct
    # count lands in a bincount bin that is dropped.
    row_id = np.repeat(np.arange(n_rows, dtype=np.uint64), np.diff(offsets))[: len(h)]
    row_id[straddle_windows(offsets, n, len(h))] = n_rows
    comp = row_id
    comp <<= np.uint64(40)
    comp |= h & np.uint64((1 << 40) - 1)
    comp.sort()
    new = np.ones(len(comp), dtype=bool)
    new[1:] = comp[1:] != comp[:-1]
    distinct = np.bincount((comp[new] >> np.uint64(40)).astype(np.int64), minlength=n_rows + 1)
    nz = counts > 0
    out[nz] = 1.0 - distinct[:n_rows][nz].astype(np.float64) / counts[nz]
    return out


def word_counts(data: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Whitespace-token count per row, vectorized over the whole buffer."""
    n_rows = len(offsets) - 1
    if len(data) == 0:
        return np.zeros(n_rows, dtype=np.int64)
    is_space = (data == 32) | (data == 10) | (data == 9) | (data == 13)
    non_space = ~is_space
    # A token starts at a non-space position whose predecessor (within the row)
    # is a space or the row start.
    prev_space = np.empty(len(data), dtype=bool)
    prev_space[0] = True
    prev_space[1:] = is_space[:-1]
    prev_space[offsets[:-1][offsets[:-1] < len(data)]] = True  # row starts
    token_start = non_space & prev_space
    csum = np.concatenate([[0], np.cumsum(token_start)])
    return (csum[offsets[1:]] - csum[offsets[:-1]]).astype(np.int64)


def char_class_counts(data: np.ndarray, offsets: np.ndarray) -> dict[str, np.ndarray]:
    """Per-row counts of byte classes: alpha, digit, punct, space, non-ascii."""
    csum = lambda m: np.concatenate([[0], np.cumsum(m)])
    seg = lambda c: (c[offsets[1:]] - c[offsets[:-1]]).astype(np.int64)
    if len(data) == 0:
        z = np.zeros(len(offsets) - 1, dtype=np.int64)
        return {k: z.copy() for k in ("alpha", "digit", "punct", "space", "non_ascii")}
    alpha = ((data >= 65) & (data <= 90)) | ((data >= 97) & (data <= 122))
    digit = (data >= 48) & (data <= 57)
    space = (data == 32) | (data == 10) | (data == 9) | (data == 13)
    non_ascii = data >= 128
    punct = ~(alpha | digit | space | non_ascii)
    return {
        "alpha": seg(csum(alpha)),
        "digit": seg(csum(digit)),
        "punct": seg(csum(punct)),
        "space": seg(csum(space)),
        "non_ascii": seg(csum(non_ascii)),
    }
