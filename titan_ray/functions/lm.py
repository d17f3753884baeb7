"""KenLM-style character n-gram perplexity, hashed and vectorized.

Analog of the reference's first-guess / climatological "expected value"
machinery (reference: functions/checks/climatological_check.r:24-28 flags
values outside a climatological band; here the band is over perplexity under
a char 3-gram LM with stupid-backoff to bigrams/unigrams). Deterministic:
trained at import from the embedded English seed corpus plus the corpus
template vocabulary — clean templated English scores low, planted gibberish
scores high (FIXTURES.md §2 ge_range).

Scoring reads the lowered text bytes in a few whole-batch numpy passes: the
order-2 and order-3 window hashes (each extends the one below by one byte),
one gather of the trigram tables, backoff gathers only where the trigram is
unseen, and one float64 cumsum for the per-row sums.
"""

from __future__ import annotations

import numpy as np

from ._seed_text import SEED_CORPORA
from .strings import (
    extend_ngram_hash,
    rolling_ngram_hash,
    segment_sum,
    straddle_windows,
    string_view,
    window_segments,
)

ORDER = 3
HASH_BUCKETS = 1 << 18
_BACKOFF = 0.4  # stupid backoff weight


class CharLM:
    """Hashed char-trigram LM with stupid backoff; vectorized batch scoring."""

    def __init__(self, corpus: str | None = None):
        if corpus is None:
            corpus = SEED_CORPORA["en"]
        data = np.frombuffer(corpus.lower().encode("utf-8"), dtype=np.uint8)
        # log P(c | prev2) ≈ count(tri)/count(bi_prefix), hashed; backoff to
        # count(bi)/count(uni_prefix), then to unigram.
        self._tri_lp = self._cond_table(data, 3)
        self._bi_lp = self._cond_table(data, 2)
        uni = np.bincount(data.astype(np.int64), minlength=256).astype(np.float64)
        self._uni_lp = np.log((uni + 0.01) / (uni.sum() + 0.01 * 256)).astype(np.float32)

    def tables(self):
        """The model's numpy state, for ray.put sharing across workers."""
        return (self._tri_lp, self._bi_lp, self._uni_lp)

    @classmethod
    def from_tables(cls, tri_lp, bi_lp, uni_lp) -> "CharLM":
        """Reconstruct WITHOUT retraining from tables() output — the arrays
        may be read-only zero-copy plasma views; scoring only gathers."""
        obj = cls.__new__(cls)
        obj._tri_lp, obj._bi_lp, obj._uni_lp = tri_lp, bi_lp, uni_lp
        return obj

    def _cond_table(self, data: np.ndarray, n: int) -> np.ndarray:
        """log(count(ngram)+a) - log(count(prefix)+a*V) in a hashed table.

        float32 tables: halves the random-gather memory traffic — the scorer
        is bandwidth-bound, and table width directly bounds multi-worker
        scaling on shared-memory hosts."""
        h_n = rolling_ngram_hash(data, n) % HASH_BUCKETS
        h_p = rolling_ngram_hash(data, n - 1) % HASH_BUCKETS
        c_n = np.bincount(h_n.astype(np.int64), minlength=HASH_BUCKETS).astype(np.float64)
        c_p = np.bincount(h_p.astype(np.int64), minlength=HASH_BUCKETS).astype(np.float64)
        return (
            np.log(c_n + 0.01).astype(np.float32),
            np.log(c_p + 0.01 * 64).astype(np.float32),
            c_n > 0,
        )

    def logprobs(self, data: np.ndarray) -> np.ndarray:
        """Per-window log P(c_i | c_{i-2} c_{i-1}) for windows of length ORDER,
        with stupid backoff where the trigram is unseen.

        The order-3 hashes extend the order-2 ones by one byte, one pass
        (strings.extend_ngram_hash). The backoff terms, and the order-1 hash
        of each bigram's prefix, are computed only at the windows whose
        trigram is unseen."""
        size = len(data) - ORDER + 1
        if size <= 0:
            return np.empty(0, dtype=np.float32)
        mask = np.uint64(HASH_BUCKETS - 1)
        h2 = rolling_ngram_hash(data, 2)
        h3 = extend_ngram_hash(h2, data, 3)
        # bucket in place; buckets fit int64, whose gathers beat uint64's
        b3 = np.bitwise_and(h3, mask, out=h3).view(np.int64)
        b2 = np.bitwise_and(h2, mask, out=h2).view(np.int64)
        tri_n, tri_p, tri_seen = self._tri_lp
        out = tri_n[b3] - tri_p[b2[:size]]
        unseen = np.flatnonzero(~tri_seen[b3])
        if len(unseen):
            # window i's bigram (bytes i+1, i+2) has prefix byte i+1
            nxt = unseen + 1
            bi_n, bi_p, bi_seen = self._bi_lp
            bi = b2[nxt]
            known2 = bi_seen[bi]
            lp2 = bi_n[bi] - bi_p[(rolling_ngram_hash(data[nxt], 1) & mask).view(np.int64)]
            lp1 = self._uni_lp[data[unseen + 2]]
            out[unseen] = np.where(
                known2,
                np.float32(np.log(_BACKOFF)) + lp2,
                np.float32(2 * np.log(_BACKOFF)) + lp1,
            )
        return out

    def perplexity(self, texts) -> np.ndarray:
        """Vectorized per-row perplexity over an Arrow string array (or
        anything pa-coercible), lowercased with pyarrow's utf8_lower.

        Rows shorter than ORDER bytes or null get ppl = 0.0 (scored as
        'unscorable'; the metadata check catches empties upstream).
        Row sums are one float64 cumsum over all windows, with the ORDER-1
        windows that cross each row boundary zeroed (x + 0.0 == x, so each
        sum equals the sum over the row's own windows alone).
        """
        import pyarrow as pa
        import pyarrow.compute as pc

        if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
            texts = pa.array(list(texts), type=pa.string())
        data, offsets, valid = string_view(pc.utf8_lower(texts))
        n_rows = len(offsets) - 1
        out = np.zeros(n_rows, dtype=np.float64)
        lp = self.logprobs(data)
        if len(lp) == 0:
            return out
        starts, ends, counts = window_segments(offsets, ORDER)
        lp[straddle_windows(offsets, ORDER, len(lp))] = 0.0
        # short trailing rows start past the last window; they sum nothing
        sums = segment_sum(lp, np.minimum(starts, len(lp)), np.minimum(ends, len(lp)))
        scored = (counts > 0) & valid
        out[scored] = np.exp(-sums[scored] / counts[scored])
        return out


_LM: CharLM | None = None


def default_lm() -> CharLM:
    global _LM
    if _LM is None:
        _LM = CharLM()
    return _LM


def set_default_lm(lm: CharLM) -> None:
    """Install a prebuilt LM (e.g. reconstructed from shared plasma tables)
    as this process's default — every later default_lm() caller reads the
    one node-shared physical copy instead of training a private one."""
    global _LM
    _LM = lm
