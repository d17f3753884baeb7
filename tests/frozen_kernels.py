"""Frozen copies of the flagship text kernels as they were before they were
rewritten to read the text fewer times. They are the bitwise references for
tests/test_kernels_bitwise.py and must not be edited or used by titan_ray/.

- normalize:            stages/dedup.py:_normalize_arrow
- scrub_counts:         functions/scrub.py:scrub_counts_arrow
- lm_logprobs/perplexity: functions/lm.py:CharLM.logprobs / CharLM.perplexity
- langid_detect:        functions/langid.py:detect
- distinct_window_ratio: functions/strings.py:distinct_window_ratio
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from titan_ray.functions.strings import string_view

_HASH_MULT = np.uint64(1099511628211)
_HASH_SEED = np.uint64(1469598103934665603)


def rolling_ngram_hash(data, n):
    size = len(data) - n + 1
    if size <= 0:
        return np.empty(0, dtype=np.uint64)
    h = np.full(size, _HASH_SEED, dtype=np.uint64)
    for k in range(n):
        np.multiply(h, _HASH_MULT, out=h)
        np.add(h, data[k : k + size], out=h, casting="unsafe")
    return h


def multi_arange(starts, counts):
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int32)
    cum = np.cumsum(counts)
    shift = np.repeat((starts - np.concatenate([[0], cum[:-1]])).astype(np.int32), counts)
    out = np.arange(total, dtype=np.int32)
    np.add(out, shift, out=out)
    return out


def segment_sum(values, starts, ends):
    csum = np.concatenate([[0], np.cumsum(values, dtype=np.float64)])
    return csum[ends] - csum[starts]


def window_segments(offsets, n):
    starts = offsets[:-1]
    ends = np.maximum(offsets[1:] - (n - 1), starts)
    return starts, ends, (ends - starts)


# -- stages/dedup.py:_normalize_arrow ---------------------------------------

def normalize(texts):
    if pa.types.is_large_string(getattr(texts, "type", pa.string())):
        texts = pc.cast(texts, pa.string())
    out = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(pc.utf8_lower(texts), r"\s+", " ")
    )
    return out.to_pandas().fillna("")


# -- functions/scrub.py:scrub_counts_arrow ----------------------------------

def scrub_counts(text_col):
    from titan_ray.functions.scrub import SCRUB_RULES, rule_class

    out = text_col
    for _name, pat, repl in SCRUB_RULES:
        out = pc.replace_substring_regex(out, pat, repl)
    if isinstance(out, pa.ChunkedArray):
        out = out.combine_chunks()
    n = len(out)
    n_pii = np.zeros(n, dtype=np.int32)
    n_tox = np.zeros(n, dtype=np.int32)
    changed = pc.fill_null(pc.not_equal(out, text_col), False).to_numpy(zero_copy_only=False)
    idx = np.flatnonzero(changed)
    if len(idx):
        cur = (text_col.combine_chunks() if isinstance(text_col, pa.ChunkedArray) else text_col).take(
            pa.array(idx)
        )
        pii_sub = np.zeros(len(idx), dtype=np.int64)
        tox_sub = np.zeros(len(idx), dtype=np.int64)
        for name, pat, repl in SCRUB_RULES:
            cnt = pc.count_substring_regex(cur, pat).to_numpy(zero_copy_only=False)
            if rule_class(name) == "tox":
                tox_sub += cnt
            else:
                pii_sub += cnt
            cur = pc.replace_substring_regex(cur, pat, repl)
        n_pii[idx] = pii_sub.astype(np.int32)
        n_tox[idx] = tox_sub.astype(np.int32)
    return out, n_pii, n_tox


# -- functions/lm.py:CharLM.logprobs / CharLM.perplexity --------------------

_ORDER = 3
_LM_BUCKETS = 1 << 18
_BACKOFF = 0.4


def _cond_logprob(data, n, tab, h_cache):
    log_n, log_p, c_n = tab
    size = len(data) - n + 1
    if size <= 0:
        return np.empty(0, np.float32), np.empty(0, bool)
    for k in (n, n - 1):
        if k not in h_cache:
            h_cache[k] = (rolling_ngram_hash(data, k) % _LM_BUCKETS).astype(np.int64)
    h_n = h_cache[n]
    h_p = h_cache[n - 1][:size]
    lp = log_n[h_n] - log_p[h_p]
    known = c_n[h_n]
    return lp, known


def lm_logprobs(lm, data):
    tri, bi, uni = lm.tables()
    size = len(data) - _ORDER + 1
    if size <= 0:
        return np.empty(0, dtype=np.float32)
    h_cache: dict = {}
    lp3, known3 = _cond_logprob(data, 3, tri, h_cache)
    lp2, known2 = _cond_logprob(data, 2, bi, h_cache)
    lp2 = lp2[_ORDER - 2 :][:size]
    known2 = known2[_ORDER - 2 :][:size]
    lp1 = uni[data[_ORDER - 1 :].astype(np.int64)][:size]
    out = lp3.copy()
    use2 = ~known3 & known2
    use1 = ~known3 & ~known2
    out[use2] = np.float32(np.log(_BACKOFF)) + lp2[use2]
    out[use1] = np.float32(2 * np.log(_BACKOFF)) + lp1[use1]
    return out


def perplexity(lm, texts):
    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array([t.lower() if t is not None else None for t in texts], type=pa.string())
        data, offsets, valid = string_view(texts)
    else:
        lowered = pc.utf8_lower(texts)
        data, offsets, valid = string_view(lowered)
    n_rows = len(offsets) - 1
    out = np.zeros(n_rows, dtype=np.float64)
    lp = lm_logprobs(lm, data)
    if len(lp) == 0:
        return out
    starts, ends, counts = window_segments(offsets, _ORDER)
    idx = multi_arange(starts, counts)
    if len(idx) == 0:
        return out
    g_ends = np.cumsum(counts)
    g_starts = g_ends - counts
    sums = segment_sum(lp[idx], g_starts, g_ends)
    scored = (counts > 0) & valid
    out[scored] = np.exp(-sums[scored] / counts[scored])
    return out


# -- functions/langid.py:detect ---------------------------------------------

def langid_detect(texts):
    from titan_ray.functions.langid import (
        HASH_BUCKETS,
        LANGS,
        MAX_BYTES,
        NGRAM,
        STRIDE,
        UNKNOWN,
        _QUANT,
        table,
    )

    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), type=pa.string())
    data, offsets, valid = string_view(texts)
    n_rows = len(offsets) - 1
    tab = table()
    lang_out = np.full(n_rows, UNKNOWN, dtype=object)
    conf_out = np.zeros(n_rows, dtype=np.float64)
    h = rolling_ngram_hash(data, NGRAM)
    if len(h) == 0:
        return lang_out, conf_out
    starts, ends, counts = window_segments(offsets, NGRAM)
    counts = np.minimum(counts, MAX_BYTES)
    s_counts = (counts + STRIDE - 1) // STRIDE
    idx = multi_arange(np.zeros_like(starts), s_counts) * STRIDE + np.repeat(starts, s_counts)
    if len(idx) == 0:
        return lang_out, conf_out
    gathered = tab[h[idx] & np.uint64(HASH_BUCKETS - 1)]
    g_ends = np.cumsum(s_counts)
    g_starts = (g_ends - s_counts).astype(np.int64)
    nz = s_counts > 0
    red_idx = g_starts[nz]
    sums = np.zeros((n_rows, gathered.shape[1]), dtype=np.float64)
    if len(red_idx):
        sums[nz] = np.add.reduceat(gathered, red_idx, axis=0) / _QUANT
    scored = nz & valid
    mean_lp = np.zeros_like(sums)
    mean_lp[scored] = sums[scored] / s_counts[scored, None]
    best = np.argmax(mean_lp, axis=1)
    m = mean_lp - mean_lp.max(axis=1, keepdims=True)
    ex = np.exp(m)
    conf = ex[np.arange(n_rows), best] / ex.sum(axis=1)
    lang_arr = np.asarray(LANGS, dtype=object)[best]
    lang_out[scored] = lang_arr[scored]
    conf_out[scored] = conf[scored]
    return lang_out, conf_out


# -- functions/strings.py:distinct_window_ratio -----------------------------

def distinct_window_ratio(data, offsets, n=4):
    n_rows = len(offsets) - 1
    out = np.zeros(n_rows, dtype=np.float64)
    h = rolling_ngram_hash(data, n)
    if len(h) == 0:
        return out
    starts, ends, counts = window_segments(offsets, n)
    total = int(counts.sum())
    if total == 0:
        return out
    idx = multi_arange(starts, counts)
    row_id = np.repeat(np.arange(n_rows, dtype=np.uint64), counts)
    comp = (row_id << np.uint64(40)) | (h[idx] & np.uint64((1 << 40) - 1))
    comp.sort()
    new = np.ones(len(comp), dtype=bool)
    if len(comp) > 1:
        new[1:] = comp[1:] != comp[:-1]
    distinct = np.bincount((comp[new] >> np.uint64(40)).astype(np.int64), minlength=n_rows).astype(np.float64)
    nz = counts > 0
    out[nz] = 1.0 - distinct[nz] / counts[nz]
    return out
