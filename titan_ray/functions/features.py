"""One-pass feature extraction over an Arrow string column.

Bundles langid + perplexity + heuristic text-quality features so the scorer
stage touches each batch's byte buffer a minimal number of times. This is
the engine's `spatconv` (reference: functions/misc/spatconv.r:10-17 —
project every row into the score space the checks operate in).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import langid
from .lm import CharLM, default_lm
from .strings import (
    _distinct_ratio,
    char_class_counts,
    extend_ngram_hash,
    rolling_ngram_hash,
    string_view,
    word_counts,
)

# English stopwords for the quality score (public common-word list).
STOPWORDS = (
    "the of and a to in is it you that he was for on are as with his they i at"
    " be this have from or one had by word but not what all were we when your"
    " can said there use an each which she do how their if will up other about"
).split()


def compute_core_features(texts: pa.Array | pa.ChunkedArray, lm: CharLM | None = None) -> dict[str, np.ndarray]:
    """The scorer-stage features the QC checks consume: lang, lang_conf, ppl,
    n_chars, n_words, rep_ratio. Kept minimal — this runs on every turn of a
    100 TB corpus; the extended quality features below are opt-in."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if lm is None:
        lm = default_lm()

    data, offsets, valid = string_view(texts)
    # one raw-byte rolling hash: langid's 3-grams, extended by one pass to
    # the repetition feature's 4-grams; both are done (and their hash arrays
    # freed) before the perplexity allocates its own
    h3 = rolling_ngram_hash(data, langid.NGRAM)
    lang, lang_conf = langid._detect_hashed(h3, offsets, valid)
    rep_ratio = _distinct_ratio(extend_ngram_hash(h3, data, 4), offsets, 4)
    del h3
    ppl = lm.perplexity(texts)

    n_bytes = (offsets[1:] - offsets[:-1]).astype(np.int64)
    # n_chars = UTF-8 codepoints, not bytes (continuation bytes don't count)
    cont = (data & np.uint8(0xC0)) == np.uint8(0x80)
    csum = np.concatenate([[0], np.cumsum(cont)])
    n_cont = csum[offsets[1:]] - csum[offsets[:-1]]
    n_chars = (n_bytes - n_cont).astype(np.int32)

    n_words = word_counts(data, offsets).astype(np.int32)
    return {
        "lang": lang,
        "lang_conf": lang_conf,
        "ppl": ppl,
        "n_chars": n_chars,
        "n_words": n_words,
        "rep_ratio": rep_ratio,
    }


def compute_features(texts: pa.Array | pa.ChunkedArray, lm: CharLM | None = None) -> dict[str, np.ndarray]:
    """Core features plus the extended text-quality set: punct/digit/alpha
    ratios, stopword_ratio, token_count."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    out = compute_core_features(texts, lm)

    data, offsets, _ = string_view(texts)
    n_bytes = (offsets[1:] - offsets[:-1]).astype(np.int64)
    cls = char_class_counts(data, offsets)
    denom = np.maximum(n_bytes, 1).astype(np.float64)
    out["punct_ratio"] = cls["punct"] / denom
    out["digit_ratio"] = cls["digit"] / denom
    out["alpha_ratio"] = cls["alpha"] / denom
    out["stopword_ratio"] = stopword_ratio(texts, out["n_words"])
    out["token_count"] = token_count(texts)
    return out


def stopword_ratio(texts: pa.Array, n_words: np.ndarray) -> np.ndarray:
    """Fraction of whitespace tokens that are English stopwords (vectorized
    via pyarrow count_substring over lowercased padded text)."""
    lowered = pc.utf8_lower(texts)
    # NOTE the last positional argument of binary_join_element_wise is the
    # SEPARATOR — the round-1 3-arg call made the trailing " " the separator
    # and left no trailing pad, silently missing stopwords at end-of-text
    padded = pc.binary_join_element_wise(
        pa.scalar(" "), lowered, pa.scalar(" "), "", null_handling="replace"
    )
    total = np.zeros(len(texts), dtype=np.float64)
    for w in STOPWORDS:
        c = pc.count_substring(padded, f" {w} ").to_numpy(zero_copy_only=False)
        total += np.nan_to_num(c.astype(np.float64))
    return total / np.maximum(n_words.astype(np.float64), 1.0)


_TOKEN_PATTERN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"


def token_count(texts: pa.Array) -> np.ndarray:
    """BPE-ish token count: words + numbers + individual symbols, via one
    vectorized regex count (pyarrow re2)."""
    c = pc.count_substring_regex(texts, _TOKEN_PATTERN)
    return np.nan_to_num(c.to_numpy(zero_copy_only=False).astype(np.float64)).astype(np.int32)
