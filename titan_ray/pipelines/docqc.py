"""Document-table operator analogs — SQL-oracle-checkable projections of the
QC battery onto the driver's `documents` table (SURVEY.md §5.5).

Each function takes ``sf_dir`` and returns a Dataset/DataFrame whose column
names match the DuckDB oracle in ``__ray_entry__.oracle_sql`` exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..exchange import bucket_exchange, sum_merge
from ..functions.features import _TOKEN_PATTERN, token_count
from ..functions.strings import char_class_counts, multi_arange, string_view


def _read(sf_dir: str, columns: list[str]):
    from ..sources.reader import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/documents.parquet", columns=columns)


def _chars(batch: pa.Table) -> np.ndarray:
    data, offsets, _ = string_view(batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"])
    n_bytes = (offsets[1:] - offsets[:-1]).astype(np.int64)
    cont = (data & np.uint8(0xC0)) == np.uint8(0x80)
    csum = np.concatenate([[0], np.cumsum(cont)])
    return (n_bytes - (csum[offsets[1:]] - csum[offsets[:-1]])).astype(np.int64)


def doc_length_stats(sf_dir: str):
    """Per-language doc count + total chars (final_decision summary analog,
    reference: final_decision.r:12-47)."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, ["text", "lang"])

    def add_len(batch: pa.Table) -> pa.Table:
        return batch.append_column("nc", pa.array(_chars(batch)))

    ds = ds.map_batches(add_len, batch_format="pyarrow")
    return ds.groupby("lang").aggregate(Count(alias_name="n_docs"), Sum("nc", alias_name="sum_chars"))


def doc_token_counts(sf_dir: str):
    """BPE-ish token count per doc (text-analysis op; vectorized re2)."""
    ds = _read(sf_dir, ["doc_id", "text"])

    def tok(batch: pa.Table) -> pa.Table:
        t = token_count(batch["text"].combine_chunks())
        return pa.table({"doc_id": batch["doc_id"], "token_count": pa.array(t.astype(np.int64))})

    return ds.map_batches(tok, batch_format="pyarrow")


def doc_char_classes(sf_dir: str):
    """Per-doc digit/alpha counts (quality-score features)."""
    ds = _read(sf_dir, ["doc_id", "text"])

    def cls(batch: pa.Table) -> pa.Table:
        text = batch["text"].combine_chunks()
        data, offsets, _ = string_view(text)
        c = char_class_counts(data, offsets)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_digit": pa.array(c["digit"]),
                "n_alpha": pa.array(c["alpha"]),
            }
        )

    return ds.map_batches(cls, batch_format="pyarrow")


def doc_quality_filter(sf_dir: str, lo: int = 20, hi: int = 2000, min_tokens: int = 5):
    """Metadata/plausibility analog over documents: keep docs with char length
    in [lo, hi] and >= min_tokens tokens (reference: metadata_check.r:20-34 +
    plausibility_test.r:7-11 range semantics)."""
    ds = _read(sf_dir, ["doc_id", "text"])

    def filt(batch: pa.Table) -> pa.Table:
        nc = _chars(batch)
        tk = token_count(batch["text"].combine_chunks())
        ok = (nc >= lo) & (nc <= hi) & (tk >= min_tokens)
        return pa.table({"doc_id": batch["doc_id"].combine_chunks().filter(pa.array(ok))})

    return ds.map_batches(filt, batch_format="pyarrow")


def doc_pattern_flag(sf_dir: str, pattern: str = "vector|stream"):
    """Blacklist semi-join analog: docs whose text matches the pattern
    (reference: read_data_to_check.r:212-222 sourceId membership)."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, ["doc_id", "text"])

    def filt(batch: pa.Table) -> pa.Table:
        hit = pc.fill_null(pc.match_substring_regex(batch["text"], pattern), False)
        return pa.table({"doc_id": batch["doc_id"].combine_chunks().filter(hit.combine_chunks() if isinstance(hit, pa.ChunkedArray) else hit)})

    return ds.map_batches(filt, batch_format="pyarrow")


def doc_scrub(sf_dir: str):
    """PII/toxicity scrub over documents (rr_windcorr analog), via the same
    vectorized pyarrow-re2 chain as the flagship ScrubStage, carrying the
    per-rule-class substitution counts (the reference's vsigma analog:
    rr_windcorr.r:199-208 keeps value + vsigma + rawvalue)."""
    from ..functions.scrub import scrub_counts_arrow

    ds = _read(sf_dir, ["doc_id", "text"])

    def scrub(batch: pa.Table) -> pa.Table:
        out, n_pii, n_tox = scrub_counts_arrow(batch["text"])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text_scrubbed": out,
                "n_scrub_pii": pa.array(n_pii.astype("int64")),
                "n_scrub_tox": pa.array(n_tox.astype("int64")),
            }
        )

    return ds.map_batches(scrub, batch_format="pyarrow")


def dedup_exact_docs(sf_dir: str, num_buckets: int = 64):
    """Exact dedup keep-first (min doc_id) per normalized text + copy count
    (reference: read_data_to_check.r:121-143 earlier-provider-wins).

    Scale shape: duplicate identity is the 128-bit siphash pair of the
    normalized text (stages/dedup.py:_hash2, also dedup_exact's
    identity), so only (doc_id, h1, h2) crosses the exchange —
    the document text never leaves the map stage. At corpus scale that
    shrinks the shuffle from the full corpus bytes to ~24 B/doc."""
    from ..stages.dedup import _hash2, _normalize_arrow

    ds = _read(sf_dir, ["doc_id", "text"])

    def bucketize(batch: pa.Table) -> pa.Table:
        h1, h2 = _hash2(_normalize_arrow(batch["text"].combine_chunks()))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "h1": pa.array(h1),
                "h2": pa.array(h2),
                "_b": pa.array((h1 % num_buckets).astype(np.int32)),
            }
        )

    def agg(t: pa.Table) -> pa.Table:
        g = t.group_by(["h1", "h2"]).aggregate([("doc_id", "min"), ("doc_id", "count")])
        return pa.table({"doc_id": g["doc_id_min"].cast(pa.int64()), "n_copies": g["doc_id_count"].cast(pa.int64())})

    return bucket_exchange(ds.map_batches(bucketize, batch_format="pyarrow"), "_b", agg)


def doc_langid(sf_dir: str):
    """Language-ID over documents (text-analysis op, SURVEY.md §2.2 spatconv
    analog). DuckDB-checkable: the quantized trigram table is persisted as
    parquet and the oracle replays the stride-4 hash -> table join -> argmax
    -> softmax scoring in SQL (langid_sql); conf rounded half-away to match
    DuckDB round()."""
    from ..functions import langid
    from ..stages.ann import round_half_away

    ds = _read(sf_dir, ["doc_id", "text"])

    def det(batch: pa.Table) -> pa.Table:
        langs, conf = langid.detect(batch["text"].combine_chunks())
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang_pred": pa.array(list(langs), type=pa.string()),
                "lang_conf": pa.array(round_half_away(conf, 6)),
            }
        )

    return ds.map_batches(det, batch_format="pyarrow")


def langid_sql() -> str:
    """DuckDB oracle for doc_langid: replay detect() exactly — stride-4
    trigram windows over the first 512 windows, the FNV-style rolling hash in
    HUGEINT mod-2^64 arithmetic, int16 table join, per-doc mean log-prob
    ((int_sum / 8.0) / n, the engine's op order), argmax with lang-ascending
    tie-break (numpy argmax = first index over the sorted LANGS), softmax
    confidence 1/sum(exp(mlp - max)) (exp(0) == 1 exactly at the argmax)."""
    from ..functions import langid

    path = langid.TABLE_PARQUET
    T = 1 << 64
    M = 1099511628211
    C1 = (1469598103934665603 * M) % T  # SEED*MULT mod 2^64, precomputed
    h = (
        f"CAST(((((CAST({C1} AS HUGEINT) + ascii(substring(text, w + 1, 1))) % {T}) * {M} "
        f"+ ascii(substring(text, w + 2, 1))) % {T} * {M} "
        f"+ ascii(substring(text, w + 3, 1))) % {T} % 65536 AS BIGINT)"
    )
    return (
        f"WITH t AS (SELECT bucket, lang, q FROM read_parquet('{path}')), "
        "d AS (SELECT doc_id, text FROM documents), "
        "pos AS (SELECT doc_id, text, "
        "unnest(generate_series(0, least(strlen(text) - 3, 511), 4)) AS w "
        "FROM d WHERE text IS NOT NULL AND strlen(text) >= 3), "
        f"hw AS (SELECT doc_id, {h} AS bucket FROM pos), "
        "sc AS (SELECT doc_id, count(*) AS n FROM hw GROUP BY doc_id), "
        "sums AS (SELECT hw.doc_id, t.lang, sum(t.q) AS sq FROM hw "
        "JOIN t ON t.bucket = hw.bucket GROUP BY hw.doc_id, t.lang), "
        "m AS (SELECT s.doc_id, s.lang, (CAST(s.sq AS DOUBLE) / 8.0) / sc.n AS mlp "
        "FROM sums s JOIN sc ON sc.doc_id = s.doc_id), "
        "mm AS (SELECT doc_id, max(mlp) AS mx FROM m GROUP BY doc_id), "
        "zs AS (SELECT m.doc_id, sum(exp(m.mlp - mm.mx)) AS z FROM m "
        "JOIN mm ON mm.doc_id = m.doc_id GROUP BY m.doc_id), "
        "best AS (SELECT doc_id, lang FROM (SELECT doc_id, lang, "
        "row_number() OVER (PARTITION BY doc_id ORDER BY mlp DESC, lang ASC) AS rn "
        "FROM m) WHERE rn = 1) "
        "SELECT d.doc_id, coalesce(b.lang, 'und') AS lang_pred, "
        "coalesce(round(1.0 / zs.z, 6), 0.0) AS lang_conf "
        "FROM d LEFT JOIN best b ON b.doc_id = d.doc_id "
        "LEFT JOIN zs ON zs.doc_id = d.doc_id"
    )


def doc_repetition(sf_dir: str):
    """Gopher-style repetition/diversity signals per document: type-token
    ratio, most-frequent-word fraction, top word-bigram fraction (the
    duplicate-text quality gates of large-scale LM corpora; complements the
    char-ngram distinct_window_ratio the flagship scorer uses). Exact —
    tokens are dictionary-encoded, then per-(doc, token[, token]) run counts
    come from one lexsort over the whole batch; no Python per row, no hash
    collisions (codes, not hashes). DuckDB-checkable (repetition_sql)."""
    import pyarrow.compute as pc

    from ..stages.ann import round_half_away

    ds = _read(sf_dir, ["doc_id", "text"])

    def rep(batch: pa.Table) -> pa.Table:
        n_rows = batch.num_rows
        words, rid = _words(batch["text"])
        codes = np.asarray(pc.dictionary_encode(words).indices, dtype=np.int64)
        n_words = np.bincount(rid, minlength=n_rows).astype(np.int64)
        order = np.lexsort((codes, rid))
        r_s, c_s = rid[order], codes[order]
        maxw = np.zeros(n_rows, dtype=np.int64)
        uniq = np.zeros(n_rows, dtype=np.int64)
        if len(r_s):
            newrun = np.ones(len(r_s), dtype=bool)
            newrun[1:] = (r_s[1:] != r_s[:-1]) | (c_s[1:] != c_s[:-1])
            starts = np.flatnonzero(newrun)
            runlen = np.diff(np.append(starts, len(r_s)))
            np.maximum.at(maxw, r_s[starts], runlen)
            uniq = np.bincount(r_s[starts], minlength=n_rows).astype(np.int64)
        # bigrams = consecutive token pairs within a row (rid is row-ordered)
        same = rid[1:] == rid[:-1] if len(rid) else np.zeros(0, dtype=bool)
        b1, b2, br = codes[:-1][same], codes[1:][same], rid[:-1][same]
        maxbg = np.zeros(n_rows, dtype=np.int64)
        if len(br):
            o2 = np.lexsort((b2, b1, br))
            rb, k1, k2 = br[o2], b1[o2], b2[o2]
            nr = np.ones(len(rb), dtype=bool)
            nr[1:] = (rb[1:] != rb[:-1]) | (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1])
            st = np.flatnonzero(nr)
            rl = np.diff(np.append(st, len(rb)))
            np.maximum.at(maxbg, rb[st], rl)
        den = np.maximum(n_words, 1).astype(np.float64)
        denb = np.maximum(n_words - 1, 1).astype(np.float64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(n_words),
                "uniq_ratio": pa.array(round_half_away(uniq / den, 6)),
                "max_word_frac": pa.array(round_half_away(maxw / den, 6)),
                "top_bigram_frac": pa.array(round_half_away(maxbg / denb, 6)),
            }
        )

    return ds.map_batches(rep, batch_format="pyarrow")


def repetition_sql() -> str:
    """DuckDB oracle for doc_repetition (token/bigram frequency replay)."""
    return (
        r"WITH tok AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS ts FROM documents), "
        "w AS (SELECT doc_id, unnest(ts) AS w, generate_subscripts(ts, 1) AS i FROM tok), "
        "wc AS (SELECT doc_id, max(c) AS maxw, count(*) AS uniq FROM "
        "(SELECT doc_id, w, count(*) AS c FROM w GROUP BY doc_id, w) GROUP BY doc_id), "
        "bg AS (SELECT a.doc_id, a.w AS w1, b.w AS w2 FROM w a "
        "JOIN w b ON b.doc_id = a.doc_id AND b.i = a.i + 1), "
        "bc AS (SELECT doc_id, max(c) AS maxbg FROM "
        "(SELECT doc_id, w1, w2, count(*) AS c FROM bg GROUP BY doc_id, w1, w2) GROUP BY doc_id) "
        "SELECT t.doc_id, CAST(len(ts) AS BIGINT) AS n_words, "
        "round(CAST(coalesce(wc.uniq, 0) AS DOUBLE) / greatest(len(ts), 1), 6) AS uniq_ratio, "
        "round(CAST(coalesce(wc.maxw, 0) AS DOUBLE) / greatest(len(ts), 1), 6) AS max_word_frac, "
        "round(CAST(coalesce(bc.maxbg, 0) AS DOUBLE) / greatest(len(ts) - 1, 1), 6) AS top_bigram_frac "
        "FROM tok t LEFT JOIN wc ON wc.doc_id = t.doc_id LEFT JOIN bc ON bc.doc_id = t.doc_id"
    )


# deterministic Bernoulli gate: keep iff (doc_id*M + S) mod 2^64 < rate*2^64.
# M odd => the map is a mod-2^64 bijection, so the gate is uniform over any
# id range; fixed constants => the sample is reproducible run-to-run and
# exactly replayable in DuckDB HUGEINT arithmetic (sample_sql).
_SAMPLE_MULT = 6364136223846793005
_SAMPLE_SEED = 1442695040888963407
# language-rebalance rates: downsample the dominant language toward parity
# (the corpus-mixing step of large-scale LM pipelines; reference analog:
# the keep/drop provider weighting of read_data_to_check.r:121-143)
SAMPLE_RATES = {"en": 0.35}


def doc_sample_rebalance(sf_dir: str, rates: dict[str, float] | None = None):
    """Language-rebalanced deterministic sampling: per-language Bernoulli
    keep-rates gated by a fixed integer hash of doc_id — no RNG state, no
    shuffle, embarrassingly parallel, and the SAME rows are kept at any
    partitioning (resumable at 100 TB). DuckDB-checkable (sample_sql)."""
    from ..functions.lut import encode

    rates = SAMPLE_RATES if rates is None else rates
    ds = _read(sf_dir, ["doc_id", "lang"])

    def samp(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = ids * np.uint64(_SAMPLE_MULT) + np.uint64(_SAMPLE_SEED)
        codes, uniq = encode(batch["lang"])
        rate_tab = np.asarray([min(rates.get(u, 1.0), 1.0) for u in uniq], dtype=np.float64)
        # exact integer thresholds (no float compare): rate >= 1 => keep all
        thr_tab = np.asarray(
            [np.uint64(int(r * (1 << 64))) if r < 1.0 else np.uint64(0) for r in rate_tab],
            dtype=np.uint64,
        )
        always = rate_tab[codes] >= 1.0
        keep = always | (h < thr_tab[codes])
        return pa.table(
            {
                "doc_id": batch["doc_id"].combine_chunks().filter(pa.array(keep)) if isinstance(batch["doc_id"], pa.ChunkedArray) else batch["doc_id"].filter(pa.array(keep)),
                "lang": batch["lang"].combine_chunks().filter(pa.array(keep)) if isinstance(batch["lang"], pa.ChunkedArray) else batch["lang"].filter(pa.array(keep)),
            }
        )

    return ds.map_batches(samp, batch_format="pyarrow")


def sample_sql(rates: dict[str, float] | None = None) -> str:
    """DuckDB oracle for doc_sample_rebalance (HUGEINT hash-gate replay)."""
    rates = SAMPLE_RATES if rates is None else rates
    two64 = 1 << 64
    cases = " ".join(
        f"WHEN '{l}' THEN CAST({int(min(r, 1.0) * two64)} AS HUGEINT)"
        for l, r in rates.items() if r < 1.0
    )
    return (
        "SELECT doc_id, lang FROM documents WHERE "
        f"(CAST(doc_id AS HUGEINT) * {_SAMPLE_MULT} + {_SAMPLE_SEED}) % {two64} "
        f"< CASE lang {cases} ELSE CAST({two64} AS HUGEINT) END"
    )


def doc_top_words(sf_dir: str, k: int = 20):
    """Global top-k word counts — the canonical combiner pattern: each batch
    pre-aggregates its token counts (dictionary-encode + bincount), so the
    groupby shuffle moves per-batch DISTINCT words, not every token (at
    100 TB that's the difference between a vocabulary-sized exchange and a
    corpus-sized one). Ties at the k-boundary break by word ascending on
    both sides. DuckDB-checkable."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(_words(batch["text"])[0])
        counts = np.bincount(
            np.asarray(enc.indices, dtype=np.int64), minlength=len(enc.dictionary)
        )
        return pa.table({"word": enc.dictionary, "n": pa.array(counts.astype(np.int64))})

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby("word").sum("n")
    agg = agg.map_batches(
        lambda b: b.rename_columns(["word", "n"]), batch_format="pyarrow"
    )
    return agg.sort(["n", "word"], descending=[True, False]).limit(k)


def doc_length_quantiles(sf_dir: str):
    """Exact distributed quantiles of doc length via a VALUE HISTOGRAM:
    lengths are bounded small ints, so per-batch partial counts + one tiny
    groupby reduce 10^12 rows to <= max_len histogram buckets; the driver
    walks the cumulative histogram (never the data) to the DuckDB
    quantile_disc positions (sorted[ceil(q*n) - 1])."""
    import math

    import pandas as pd

    ds = _read(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        nc = _chars(batch)
        uniq, cnt = np.unique(nc, return_counts=True)
        return pa.table({"len": pa.array(uniq.astype(np.int64)), "cnt": pa.array(cnt.astype(np.int64))})

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("len").sum("cnt")
        .to_pandas()  # histogram: <= distinct-length rows, not data rows
        .rename(columns={"sum(cnt)": "cnt"})
        .sort_values("len")
    )
    n = int(hist["cnt"].sum())
    cum = hist["cnt"].cumsum().to_numpy()
    lens = hist["len"].to_numpy()

    def qd(q: float) -> int:
        pos = max(math.ceil(q * n), 1)
        return int(lens[np.searchsorted(cum, pos)])

    return pd.DataFrame(
        [{"n_docs": n, "p25": qd(0.25), "p50": qd(0.5), "p75": qd(0.75),
          "p90": qd(0.9), "p99": qd(0.99)}]
    )


def doc_quality_scores(sf_dir: str):
    """Quality-score vector per document (graft brief: length/punct ratios):
    byte-class ratios + token count, rounded half-away-from-zero to 6 so the
    DuckDB oracle (integer counts -> identical doubles -> same rounding)
    hash-matches."""
    from ..functions.strings import char_class_counts, string_view
    from ..functions.features import token_count
    from ..stages.ann import round_half_away

    ds = _read(sf_dir, ["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        data, offsets, _ = string_view(texts)
        cls = char_class_counts(data, offsets)
        n_bytes = (offsets[1:] - offsets[:-1]).astype(np.int64)
        denom = np.maximum(n_bytes, 1).astype(np.float64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bytes": pa.array(n_bytes),
                "alpha_ratio": pa.array(round_half_away(cls["alpha"] / denom, 6)),
                "digit_ratio": pa.array(round_half_away(cls["digit"] / denom, 6)),
                "punct_ratio": pa.array(round_half_away(cls["punct"] / denom, 6)),
                "space_ratio": pa.array(round_half_away(cls["space"] / denom, 6)),
                "token_count": pa.array(token_count(texts).astype(np.int64)),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def doc_stopword_ratio(sf_dir: str):
    """Stopword ratio per document (graft brief: quality scoring): fraction
    of whitespace tokens that are English stopwords — engine counts via one
    padded substring scan per stopword (pyarrow re2-free count_substring);
    the DuckDB oracle replays it with replace()-difference counting (both
    count NON-OVERLAPPING occurrences left-to-right, so they agree)."""
    from ..functions.features import stopword_ratio
    from ..functions.strings import string_view, word_counts
    from ..stages.ann import round_half_away

    ds = _read(sf_dir, ["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        data, offsets, _ = string_view(texts)
        n_words = word_counts(data, offsets)
        ratio = stopword_ratio(texts, n_words.astype(np.int32))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(n_words.astype(np.int64)),
                "stopword_ratio": pa.array(round_half_away(ratio, 6)),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def stopword_sql() -> str:
    """DuckDB oracle for doc_stopword_ratio."""
    from ..functions.features import STOPWORDS

    terms = " + ".join(
        f"(strlen(p) - strlen(replace(p, ' {w} ', ''))) / {len(w) + 2}"
        for w in STOPWORDS
    )
    return (
        "WITH b AS (SELECT doc_id, concat(' ', lower(text), ' ') AS p, "
        "CAST(length(regexp_extract_all(trim(text), '\\S+')) AS BIGINT) AS n_words "
        "FROM documents) "
        f"SELECT doc_id, n_words, round(CAST({terms} AS DOUBLE) / greatest(n_words, 1), 6) "
        "AS stopword_ratio FROM b"
    )


# ---------------------------------------------------------------------------
# Benchmark decontamination (test-set n-gram overlap)
# ---------------------------------------------------------------------------
# The standard training-data hygiene step for LM corpora: flag training
# documents that share any word n-gram with a held-out benchmark/eval set so
# they can be dropped before training. The eval set here is carved
# deterministically out of the documents table (doc_id % _EVAL_MOD ==
# _EVAL_REM) — at real scale it is an external benchmark suite, which is
# SMALL by construction, so the scale shape is: build the eval n-gram set
# once, capture it in the probe UDF (Ray Data ships each UDF to the object
# store once), and stream the 10^12-row training side through a stateless
# map_batches with a sorted-array membership probe. No shuffle at all — the
# only cross-node traffic is the one broadcast.
DECONTAM_N = 3        # words per gram (real pipelines use 8-13; the synthetic
                      # corpus needs 3 for a non-trivial overlap surface)
_EVAL_MOD, _EVAL_REM = 100, 7
# broadcast bound on the eval side: 100M unique uint64 gram hashes = 800 MB
# in every worker's heap — already generous for a benchmark suite; beyond
# this the operator refuses rather than silently materializing more.
MAX_EVAL_GRAMS = 100_000_000

_WORD_HASH_MULT = np.uint64(1099511628211)
_WORD_HASH_SEED = np.uint64(1469598103934665603)


def _words(texts) -> tuple[pa.Array, np.ndarray]:
    """(words, row_id): every word of every row of ``texts`` (a string Array
    or ChunkedArray), in row order, and the int64 row index of each.

    The one word rule of the doc operators: a word is a maximal run of
    non-whitespace, with whitespace as RE2's ``\\s`` = ``[\\t\\n\\f\\r ]``
    (so ``\\v``, U+0085 and U+00A0 are word characters) — the SQL twins'
    ``regexp_extract_all(text, '\\S+')``. Splitting on ``\\s+`` leaves ""
    pieces at the row edges and for an empty or all-whitespace row; they are
    dropped. A null row has no words. ``words`` keeps the input's string
    type."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lst = pc.split_pattern_regex(texts, r"\s+")
    off = np.asarray(lst.offsets, dtype=np.int64)
    rid = np.repeat(np.arange(len(texts), dtype=np.int64), off[1:] - off[:-1])
    values = lst.values
    keep = pc.not_equal(values, "").fill_null(False)
    return values.filter(keep), rid[np.asarray(keep)]


def _word_gram_hashes(texts: pa.Array, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(gram_hash uint64, row_id int64) of every word n-gram of every row.

    Words are ``_words``' '\\S+' runs. Each word gets a variable-length FNV
    hash (vectorized across all words, loop over char position only), then n
    consecutive word hashes chain into one gram hash. Collision-free in
    practice (64-bit over vocabulary-sized sets); the SQL oracle joins the
    literal gram strings, so the driver gate would surface any collision as
    a mismatch."""
    values, rid = _words(texts)
    nw = len(rid)
    if nw < n:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)

    data, woff, _ = string_view(values)
    starts = woff[:-1]
    lens = woff[1:] - starts
    h = np.full(nw, _WORD_HASH_SEED, dtype=np.uint64)
    for j in range(int(lens.max(initial=0))):
        m = lens > j
        hm = h[m] * _WORD_HASH_MULT
        np.add(hm, data[starts[m] + j], out=hm, casting="unsafe")
        h[m] = hm

    size = nw - n + 1
    g = np.full(size, _WORD_HASH_SEED, dtype=np.uint64)
    for k in range(n):
        np.multiply(g, _WORD_HASH_MULT, out=g)
        np.add(g, h[k : k + size], out=g)
    ok = rid[n - 1 :] == rid[: size]   # gram must not cross a row boundary
    return g[ok], rid[:size][ok]


def doc_decontaminate(sf_dir: str, n: int = DECONTAM_N):
    """(doc_id, n_contaminated) for every NON-eval document sharing >= 1 word
    n-gram with the eval slice; n_contaminated = count of distinct
    contaminated grams. DuckDB-checkable (decontam_sql)."""
    ds = _read(sf_dir, ["doc_id", "text"])

    def eval_grams(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        sel = did % _EVAL_MOD == _EVAL_REM
        if not sel.any():
            return pa.table({"gram": pa.array(np.empty(0, dtype=np.uint64))})
        g, _ = _word_gram_hashes(batch["text"].combine_chunks().filter(pa.array(sel))
                                 if isinstance(batch["text"], pa.ChunkedArray)
                                 else batch["text"].filter(pa.array(sel)), n)
        return pa.table({"gram": pa.array(np.unique(g))})

    # eval/benchmark side is small by construction -> driver collect +
    # broadcast. ENFORCED, not assumed (round-3 verdict item 8): the
    # collect is of unique gram hashes only, and a config change that
    # silently grew the eval slice past broadcast size must fail loudly.
    ev = ds.map_batches(eval_grams, batch_format="pyarrow").to_pandas()["gram"]
    eval_unique = np.unique(ev.to_numpy(dtype=np.uint64))
    if len(eval_unique) > MAX_EVAL_GRAMS:
        raise ValueError(
            f"doc_decontaminate: eval slice produced {len(eval_unique)} unique "
            f"{n}-grams > MAX_EVAL_GRAMS={MAX_EVAL_GRAMS}; the broadcast "
            "probe assumes a small eval set — shrink the eval selector or "
            "switch to a hash_join on gram"
        )

    def hits(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        sel = did % _EVAL_MOD != _EVAL_REM
        did = did[sel]
        texts = (batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray)
                 else batch["text"]).filter(pa.array(sel))
        g, rid = _word_gram_hashes(texts, n)
        if len(g) == 0 or len(eval_unique) == 0:
            return pa.table({"doc_id": pa.array(np.empty(0, dtype=did.dtype)),
                             "n_contaminated": pa.array(np.empty(0, dtype=np.int64))})
        order = np.lexsort((g, rid))
        rs, gs = rid[order], g[order]
        first = np.ones(len(rs), dtype=bool)
        first[1:] = (rs[1:] != rs[:-1]) | (gs[1:] != gs[:-1])
        rs, gs = rs[first], gs[first]           # distinct (row, gram)
        hit = np.searchsorted(eval_unique, gs)
        hit = (hit < len(eval_unique)) & (eval_unique[np.minimum(hit, len(eval_unique) - 1)] == gs)
        cnt = np.bincount(rs[hit], minlength=len(did))
        m = cnt > 0
        return pa.table({"doc_id": pa.array(did[m]),
                         "n_contaminated": pa.array(cnt[m].astype(np.int64))})

    return ds.map_batches(hits, batch_format="pyarrow")


def decontam_sql(n: int = DECONTAM_N) -> str:
    """DuckDB oracle for doc_decontaminate: literal gram-string join."""
    hi = n - 1
    return (
        r"WITH words AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS w FROM documents), "
        f"g AS (SELECT doc_id, array_to_string(w[CAST(i AS BIGINT):CAST(i+{hi} AS BIGINT)], ' ') AS gram "
        f"FROM words, unnest(range(1, len(w) - {hi - 1})) AS t(i)), "
        f"eval AS (SELECT DISTINCT gram FROM g WHERE doc_id % {_EVAL_MOD} = {_EVAL_REM}), "
        "hits AS (SELECT g.doc_id, count(DISTINCT g.gram) AS n_contaminated "
        f"FROM g JOIN eval USING (gram) WHERE g.doc_id % {_EVAL_MOD} <> {_EVAL_REM} GROUP BY g.doc_id) "
        "SELECT doc_id, n_contaminated FROM hits"
    )


def doc_top_tfidf(sf_dir: str):
    """(doc_id, top_word, score): each document's highest-TF-IDF word.

    Two-pass shape: pass 1 computes document frequency per word with
    per-batch partials (vocabulary-sized groupby, not token-sized — the
    doc_top_words combiner pattern) and captures the df table in pass 2's UDF;
    pass 2 streams documents, computes per-doc term frequencies and takes
    the argmax of tf * N / df with ties broken by word ascending. For a
    vocabulary beyond broadcast size swap the broadcast for
    stages.joins.hash_join on word — the big (doc, word, tf) side then
    shuffles once; semantics unchanged.

    The idf here is the RAW inverse document frequency N/df, not ln(N/df):
    +,*,/ are exactly specified by IEEE-754, so engine and DuckDB produce
    bit-identical doubles and the driver's value hash is stable; DuckDB's
    ln() differs from numpy's by 1 ulp on these inputs (measured), which
    would make a log-damped score unverifiable bit-for-bit."""
    import pyarrow.compute as pc

    from ..stages.ann import round_half_away

    ds = _read(sf_dir, ["doc_id", "text"])
    n_docs = ds.count()  # parquet metadata, no scan

    def _doc_word_counts(batch: pa.Table):
        """(doc_idx, word pa.Array, tf) distinct-per-doc word runs."""
        words, rid = _words(batch["text"])
        enc = pc.dictionary_encode(words)
        codes = np.asarray(enc.indices, dtype=np.int64)
        if len(rid) == 0:
            return np.empty(0, np.int64), enc.dictionary, np.empty(0, np.int64), np.empty(0, np.int64)
        order = np.lexsort((codes, rid))
        r_s, c_s = rid[order], codes[order]
        first = np.ones(len(r_s), dtype=bool)
        first[1:] = (r_s[1:] != r_s[:-1]) | (c_s[1:] != c_s[:-1])
        starts = np.flatnonzero(first)
        tf = np.diff(np.append(starts, len(r_s))).astype(np.int64)
        return r_s[starts], enc.dictionary, c_s[starts], tf

    def df_partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        _, dictionary, codes, _ = _doc_word_counts(batch)
        if len(codes) == 0:
            return pa.table({"word": pa.array([], type=pa.string()),
                             "df": pa.array([], type=pa.int64()),
                             "_b": pa.array([], type=pa.int32())})
        cnt = np.bincount(codes, minlength=len(dictionary))
        m = cnt > 0
        words = dictionary.filter(pa.array(m))
        hb = pd.util.hash_array(words.to_numpy(zero_copy_only=False)) % 64
        return pa.table({"word": words,
                         "df": pa.array(cnt[m].astype(np.int64)),
                         "_b": pa.array(hb.astype(np.int32))})

    df_tbl = (
        bucket_exchange(ds.map_batches(df_partial, batch_format="pyarrow"), "_b", sum_merge(["word"], ["df"]))
        .to_pandas()  # vocabulary-sized, the documented broadcast bound
    )

    def top(batch: pa.Table) -> pa.Table:
        import pandas as pd

        rows, dictionary, codes, tf = _doc_word_counts(batch)
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        if len(rows) == 0:
            return pa.table({"doc_id": pa.array(np.empty(0, did.dtype)),
                             "top_word": pa.array([], type=pa.string()),
                             "score": pa.array(np.empty(0, np.float64))})
        g = pd.DataFrame({"doc_id": did[rows], "word": dictionary.take(pa.array(codes)).to_pandas(), "tf": tf})
        g = g.merge(df_tbl, on="word", how="left")  # every word exists in df
        g["score"] = (g["tf"].to_numpy() * float(n_docs)) / g["df"].to_numpy()
        g = g.sort_values(["doc_id", "score", "word"], ascending=[True, False, True], kind="mergesort")
        g = g.drop_duplicates("doc_id", keep="first")
        return pa.table({"doc_id": pa.array(g["doc_id"].to_numpy()),
                         "top_word": pa.array(g["word"].tolist(), type=pa.string()),
                         "score": pa.array(round_half_away(g["score"].to_numpy(), 6))})

    return ds.map_batches(top, batch_format="pyarrow")


def tfidf_sql() -> str:
    """DuckDB oracle for doc_top_tfidf (IEEE-exact linear-idf score)."""
    return (
        r"WITH w AS (SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS word FROM documents), "
        "tf AS (SELECT doc_id, word, count(*) AS tf FROM w GROUP BY doc_id, word), "
        "df AS (SELECT word, count(DISTINCT doc_id) AS df FROM w GROUP BY word), "
        "n AS (SELECT count(*) AS n FROM documents), "
        "s AS (SELECT tf.doc_id, tf.word, CAST(tf.tf * n.n AS DOUBLE) / df.df AS score "
        "FROM tf JOIN df USING (word), n), "
        "r AS (SELECT doc_id, word, score, "
        "row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, word) AS rn FROM s) "
        "SELECT doc_id, word AS top_word, round(score, 6) AS score FROM r WHERE rn = 1"
    )


def doc_quality_classifier(sf_dir: str):
    """Model-based quality filter (graft brief: DCLM/fastText-classifier
    analog; reference: climatological_check.r learns a band, here a learned
    separating hyperplane): per-doc logistic-regression logit over byte-class
    + token features, keep = logit > 0. Weights are trained deterministically
    at import from embedded seed text (functions/classifier.py) and baked
    into the SQL oracle as literals — the logit is IEEE-exact on both sides.

    Scale shape: stateless map_batches (the model is a 6-float vector,
    closure-captured — nothing to broadcast); one pass, no shuffle."""
    from ..functions import classifier
    from ..stages.ann import round_half_away

    w = classifier.weights()
    ds = _read(sf_dir, ["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        lg = classifier.logits(texts, w)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "logit": pa.array(round_half_away(lg, 6)),
                "keep": pa.array((lg > 0.0).astype(np.int32)),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def classifier_sql() -> str:
    """DuckDB oracle for doc_quality_classifier (bit-exact logit replay)."""
    from ..functions import classifier

    return (
        f"WITH l AS ({classifier.logit_sql()}) "
        "SELECT doc_id, round(logit, 6) AS logit, "
        "CAST(logit > 0.0 AS INTEGER) AS keep FROM l"
    )


def doc_quantile_filter(sf_dir: str, q: float = 0.25):
    """Per-language quantile quality cut: drop every document whose char
    count is BELOW its language's q-th exact quantile (quantile_disc:
    sorted[ceil(q*n) - 1]) — the 'trim the bottom quartile within each
    stratum' curation step.

    Distributed shape: the quantile is computed from a per-(lang, len)
    VALUE HISTOGRAM (per-batch partial counts -> one tiny groupby — the
    reduction is to n_langs x distinct-lengths rows, never data rows), the
    driver walks each language's cumulative histogram to the threshold, and
    the thresholds (a dict of n_langs ints) ride into a stateless filter
    pass by closure. Two streaming passes, no wide shuffle.
    """
    import math

    ds = _read(sf_dir, ["doc_id", "lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        nc = _chars(batch)
        df = pd.DataFrame({"lang": batch["lang"].to_pandas(), "len": nc})
        g = df.groupby(["lang", "len"], sort=False).size().reset_index(name="cnt")
        return pa.table({"lang": pa.array(g["lang"]), "len": pa.array(g["len"].to_numpy()),
                         "cnt": pa.array(g["cnt"].to_numpy().astype(np.int64))})

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "len"]).sum("cnt")
        .to_pandas()  # <= n_langs x distinct-lengths rows
        .rename(columns={"sum(cnt)": "cnt"})
    )
    thr = {}
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("len")
        n = int(g["cnt"].sum())
        pos = max(math.ceil(q * n), 1)
        thr[lang] = int(g["len"].to_numpy()[np.searchsorted(g["cnt"].cumsum().to_numpy(), pos)])

    def keep(batch: pa.Table) -> pa.Table:
        import pandas as pd

        nc = _chars(batch)
        t = pd.Series(batch["lang"].to_pandas()).map(thr).to_numpy()
        mask = nc >= t
        return pa.table({"doc_id": batch["doc_id"].filter(pa.array(mask)),
                         "lang": batch["lang"].filter(pa.array(mask)),
                         "n_chars": pa.array(nc[mask])})

    return ds.map_batches(keep, batch_format="pyarrow")


def quantile_filter_sql(q: float = 0.25) -> str:
    """DuckDB replay: per-language quantile_disc threshold + the >= filter
    (quantile_disc is exactly sorted[ceil(q*n) - 1], the rule the engine's
    histogram walk implements)."""
    return (
        "WITH t AS (SELECT doc_id, lang, length(text) AS n_chars FROM documents), "
        f"thr AS (SELECT lang, quantile_disc(n_chars, {q!r}) AS p FROM t GROUP BY lang) "
        "SELECT t.doc_id, t.lang, CAST(t.n_chars AS BIGINT) AS n_chars "
        "FROM t JOIN thr ON thr.lang = t.lang WHERE t.n_chars >= thr.p"
    )


TOKEN_SHARD_BUDGET = 4096   # tokens per output shard (a training-seq pack)
TOKEN_SHARD_RANGE = 128     # doc_ids per order-preserving scan bucket


def doc_token_shards(sf_dir: str, budget: int = TOKEN_SHARD_BUDGET,
                     bucket_range: int = TOKEN_SHARD_RANGE):
    """Token-budget shard assignment for a training export (the sequence-
    packing sharding step): documents in doc_id order fill shards of
    ``budget`` tokens; a doc's shard is floor(exclusive-prefix-tokens /
    budget). This is a DISTRIBUTED PREFIX SUM (scan), done in two streaming
    passes with only O(n_buckets) driver state:

    1. pass 1 sums token counts per order-preserving range bucket
       (doc_id // bucket_range) — per-batch partials, driver combines the
       tiny per-bucket totals and takes their exclusive prefix;
    2. pass 2 groups each bucket, sorts by doc_id, and adds the bucket's
       broadcast offset to the in-bucket exclusive cumsum.

    Scale note: pick ``bucket_range`` so n_docs / bucket_range stays in the
    1e5–1e6 range — the offsets array is the only driver-side state. The
    narrow (doc_id, token_count, bucket) intermediate is materialized once
    so the two passes don't re-tokenize the text (it is ~1000x smaller than
    the input text column).
    """
    ds = _read(sf_dir, ["doc_id", "text"])

    def tok(batch: pa.Table) -> pa.Table:
        t = token_count(batch["text"].combine_chunks()).astype(np.int64)
        did = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"doc_id": pa.array(did), "token_count": pa.array(t),
                         "_b": pa.array(did // bucket_range)})

    counted = ds.map_batches(tok, batch_format="pyarrow").materialize()

    def btot(batch: pa.Table) -> pa.Table:
        b = batch["_b"].to_numpy(zero_copy_only=False)
        t = batch["token_count"].to_numpy(zero_copy_only=False)
        ub, inv = np.unique(b, return_inverse=True)
        s = np.zeros(len(ub), dtype=np.int64)
        np.add.at(s, inv, t)
        return pa.table({"_b": pa.array(ub), "tok": pa.array(s)})

    parts = counted.map_batches(btot, batch_format="pyarrow").to_pandas()
    tot = parts.groupby("_b")["tok"].sum().sort_index()
    buckets = tot.index.to_numpy()
    offs = (tot.cumsum() - tot).to_numpy()  # exclusive prefix per bucket (tiny)

    def per_bucket(t: pa.Table) -> pa.Table:
        b, did, tc = (t[c].to_numpy() for c in ("_b", "doc_id", "token_count"))
        o = np.lexsort((did, b))
        b, did, tc = b[o], did[o], tc[o]
        excl = np.cumsum(tc) - tc  # exclusive over the block ...
        first = np.r_[True, b[1:] != b[:-1]]
        # ... rebased to each bucket's start, plus the bucket's offset
        cum = offs[np.searchsorted(buckets, b)] + excl - excl[first][np.cumsum(first) - 1]
        return pa.table({"doc_id": did, "token_count": tc, "shard": (cum // budget).astype(np.int64)})

    return bucket_exchange(counted, "_b", per_bucket)


def token_shards_sql(budget: int = TOKEN_SHARD_BUDGET) -> str:
    """DuckDB replay: the same exclusive running token total over doc_id
    order, integer-divided by the budget."""
    return (
        f"WITH t AS (SELECT doc_id, CAST(length(regexp_extract_all(text, '{_TOKEN_PATTERN}')) AS BIGINT) "
        "AS token_count FROM documents), "
        # CAST: a windowed sum over BIGINT yields HUGEINT -> float in pandas
        "c AS (SELECT doc_id, token_count, CAST(coalesce(sum(token_count) OVER "
        "(ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS prev FROM t) "
        f"SELECT doc_id, token_count, prev // {budget} AS shard FROM c"
    )


# ---------------------------------------------------------------------------
# Corpus-trained bigram LM fluency (CCNet-style perplexity-filter analog of
# the flagship's char-LM ppl score — reference: the climatological band in
# functions/checks/climatological_check.r learns "expected" values from the
# data; here the expectation is a word-bigram model trained on the corpus
# itself). Integer-exact so the DuckDB replay hash-matches: each bigram
# contributes floor(LM_SCALE * c(w1,w2) / c(w1)) — integer division, so the
# per-doc sum is order-independent (no IEEE addition-order hazard).
# ---------------------------------------------------------------------------

LM_SCALE = 1_000_000
# broadcast bound for the two count tables (vocabulary-sized, like the
# tfidf df broadcast); beyond this switch to stages.joins.hash_join on the
# gram hash — semantics unchanged, one extra narrow shuffle.
MAX_LM_VOCAB = 50_000_000


def _sorted_count_lookup(u_sorted: np.ndarray, c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """counts for hashes ``g`` via searchsorted into the broadcast table
    (every scored gram exists in the table — trained on the same corpus)."""
    return c[np.searchsorted(u_sorted, g)]


def _lm_fluency_joined(ds, cnt_ds, _texts, num_buckets: int = 64):
    """Distributed scoring path for doc_lm_fluency above the broadcast
    bound: per-bigram-position rows (doc_id, h1, h2) probe the distributed
    (kind, h, c) count table via two stages.joins.hash_join exchanges, the
    integer terms partial-sum per batch, and a doc_id-bucketed merge (plus
    row-local zero base rows so 0-bigram docs survive) reassembles exactly
    the broadcast path's rows — both paths bit-identical (integer division,
    order-independent sums; unit: tests/test_docqc_ops.py)."""
    from ..stages.joins import hash_join

    def positions(batch: pa.Table) -> pa.Table:
        texts = _texts(batch)
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        n_rows = len(did)
        g1, r1 = _word_gram_hashes(texts, 1)
        g2, r2 = _word_gram_hashes(texts, 2)
        n_big = np.bincount(r2, minlength=n_rows).astype(np.int64)
        counts1 = np.bincount(r1, minlength=n_rows)
        starts1 = np.cumsum(counts1) - counts1
        idx = multi_arange(starts1.astype(np.int64), n_big)  # bigram j ~ unigram j
        return pa.table(
            {
                "doc_id": pa.array(did[r2]),
                "h1": pa.array(g1.view(np.int64)[idx]),
                "h2": pa.array(g2.view(np.int64)),
            }
        )

    def base_rows(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        z = np.zeros(len(did), dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(did),
                "fluency_sum": pa.array(z),
                "n_bigrams": pa.array(z),
                "_b": pa.array((did % num_buckets).astype(np.int32)),
            }
        )

    def rename_uni(batch: pa.Table) -> pa.Table:
        return pa.table({"h1": batch["h"], "c": batch["c"]})

    def rename_big(batch: pa.Table) -> pa.Table:
        return pa.table({"h2": batch["h"], "c": batch["c"]})

    uni = cnt_ds.filter(expr="kind == 1").map_batches(rename_uni, batch_format="pyarrow")
    big = cnt_ds.filter(expr="kind == 2").map_batches(rename_big, batch_format="pyarrow")
    pos = ds.map_batches(positions, batch_format="pyarrow")
    j1 = hash_join(pos, uni, on="h1", right_cols=("c",))

    def carry_c1(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch["doc_id"], "h2": batch["h2"], "c1": batch["r_c"]}
        )

    j2 = hash_join(j1.map_batches(carry_c1, batch_format="pyarrow"), big,
                   on="h2", right_cols=("c",))

    def partial(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        c1 = batch["c1"].to_numpy(zero_copy_only=False).astype(np.int64)
        c2 = batch["r_c"].to_numpy(zero_copy_only=False).astype(np.int64)
        assert int(c2.max(initial=0)) * LM_SCALE < 2**63, "LM_SCALE overflow"
        terms = (LM_SCALE * c2) // c1
        u, inv = np.unique(did, return_inverse=True)
        fl = np.zeros(len(u), dtype=np.int64)  # int64 accumulate — exact
        np.add.at(fl, inv, terms)
        return pa.table(
            {
                "doc_id": pa.array(u),
                "fluency_sum": pa.array(fl),
                "n_bigrams": pa.array(np.bincount(inv, minlength=len(u)).astype(np.int64)),
                "_b": pa.array((u % num_buckets).astype(np.int32)),
            }
        )

    both = j2.map_batches(partial, batch_format="pyarrow").union(
        ds.map_batches(base_rows, batch_format="pyarrow"))
    return bucket_exchange(both, "_b", sum_merge(["doc_id"], ["fluency_sum", "n_bigrams"]))


def doc_lm_fluency(sf_dir: str, max_vocab: int = MAX_LM_VOCAB):
    """(doc_id, fluency_sum, n_bigrams) under a corpus-trained bigram LM.

    Pass 1 counts unigrams and bigrams (64-bit word-gram hashes, per-batch
    np.unique partials -> one vocabulary-sized groupby -> tables captured
    in the scoring UDF; the SQL oracle joins literal gram strings, so a hash
    collision would surface as a driver-gate mismatch). Pass 2 streams documents and sums
    floor(LM_SCALE * c2(w_i, w_{i+1}) / c1(w_i)) over bigram positions —
    high = made of common continuations, low = rare/gibberish transitions.
    """
    ds = _read(sf_dir, ["doc_id", "text"])

    def _texts(batch: pa.Table) -> pa.Array:
        t = batch["text"]
        return t.combine_chunks() if isinstance(t, pa.ChunkedArray) else t

    def counts_partial(batch: pa.Table) -> pa.Table:
        texts = _texts(batch)
        g1, _ = _word_gram_hashes(texts, 1)
        g2, _ = _word_gram_hashes(texts, 2)
        u1, c1 = np.unique(g1, return_counts=True)
        u2, c2 = np.unique(g2, return_counts=True)
        h = np.concatenate([u1, u2]).view(np.int64)
        return pa.table(
            {
                "kind": pa.array(np.concatenate([np.full(len(u1), 1), np.full(len(u2), 2)]).astype(np.int32)),
                "h": pa.array(h),
                "c": pa.array(np.concatenate([c1, c2]).astype(np.int64)),
                "_b": pa.array((h % 64).astype(np.int32)),
            }
        )

    # vocabulary-sized count table, materialized ONCE (small relative to the
    # corpus: distinct grams, not gram occurrences) so the path decision
    # below doesn't recompute the counting pass
    cnt_ds = (
        bucket_exchange(ds.map_batches(counts_partial, batch_format="pyarrow"),
                        "_b", sum_merge(["kind", "h"], ["c"]))
        .materialize()
    )
    if cnt_ds.count() > max_vocab:
        # distributed fallback (round-4 verdict item 2): above the broadcast
        # bound the per-position gram stream probes the DISTRIBUTED count
        # table via two hash_joins on the gram hash — same integer math,
        # bit-identical output, two extra narrow shuffles instead of an
        # unbounded driver collect.
        return _lm_fluency_joined(ds, cnt_ds, _texts)
    cnt = cnt_ds.to_pandas()
    tables = {}
    for kind in (1, 2):
        part = cnt[cnt["kind"] == kind]
        h = part["h"].to_numpy(dtype=np.int64)
        c = part["c"].to_numpy(dtype=np.int64)
        order = np.argsort(h, kind="stable")
        tables[kind] = (h[order], c[order])
    # promote to Python int before multiplying: np.int64 * LM_SCALE wraps
    # silently at ~9.2e12 max counts (round-4 advice item 2)
    assert int(tables[2][1].max(initial=0)) * LM_SCALE < 2**63, "LM_SCALE overflow"
    uni, big = tables[1], tables[2]

    def score(batch: pa.Table) -> pa.Table:
        texts = _texts(batch)
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        n_rows = len(did)
        g1, r1 = _word_gram_hashes(texts, 1)
        g2, r2 = _word_gram_hashes(texts, 2)
        fluency = np.zeros(n_rows, dtype=np.int64)
        n_big = np.bincount(r2, minlength=n_rows).astype(np.int64)
        if len(g2):
            counts1 = np.bincount(r1, minlength=n_rows)
            starts1 = np.cumsum(counts1) - counts1
            # bigram j of a row pairs with unigram j (both row-major)
            idx = multi_arange(starts1.astype(np.int64), n_big)
            terms = (LM_SCALE * _sorted_count_lookup(big[0], big[1], g2.view(np.int64))) \
                // _sorted_count_lookup(uni[0], uni[1], g1.view(np.int64)[idx])
            nz = n_big > 0
            red = (np.cumsum(n_big) - n_big)[nz]
            fluency[nz] = np.add.reduceat(terms, red)
        return pa.table(
            {
                "doc_id": pa.array(did),
                "fluency_sum": pa.array(fluency),
                "n_bigrams": pa.array(n_big),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def lm_fluency_sql() -> str:
    """DuckDB oracle for doc_lm_fluency: literal-word count tables, same
    integer division (// on BIGINT), LEFT JOIN keeps 0-bigram docs."""
    return (
        r"WITH words AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS w FROM documents), "
        "tok AS (SELECT doc_id, w[CAST(i AS BIGINT)] AS w1, w[CAST(i + 1 AS BIGINT)] AS w2 "
        "FROM words, unnest(range(1, len(w) + 1)) t(i)), "
        "uni AS (SELECT w1 AS wd, count(*) AS c FROM tok GROUP BY 1), "
        "big AS (SELECT w1, w2, count(*) AS c FROM tok WHERE w2 IS NOT NULL GROUP BY 1, 2), "
        f"sc AS (SELECT tok.doc_id, sum(({LM_SCALE} * big.c) // uni.c) AS s, count(*) AS nb "
        "FROM tok JOIN uni ON uni.wd = tok.w1 "
        "JOIN big ON big.w1 = tok.w1 AND big.w2 = tok.w2 "
        "WHERE tok.w2 IS NOT NULL GROUP BY tok.doc_id) "
        "SELECT d.doc_id, CAST(coalesce(sc.s, 0) AS BIGINT) AS fluency_sum, "
        "coalesce(sc.nb, 0) AS n_bigrams FROM documents d LEFT JOIN sc USING (doc_id)"
    )


# ---------------------------------------------------------------------------
# Deterministic train/val/test hash split (standard training-data prep:
# membership must be a pure function of the id so re-runs, resumes and
# incremental ingests agree; Fibonacci hashing spreads sequential ids)
# ---------------------------------------------------------------------------

SPLIT_MULT = 11400714819323198485  # floor(2^64 / golden ratio), odd
SPLIT_BUCKETS = 100
SPLIT_TEST_LT = 1   # bucket 0         -> test  (1%)
SPLIT_VAL_LT = 6    # buckets 1..5     -> val   (5%)


def doc_hash_split(sf_dir: str):
    """(doc_id, bucket, split): bucket = (doc_id * SPLIT_MULT mod 2^64)
    mod 100; stateless map_batches, no shuffle, no driver state — the
    assignment is reproducible row-local at any scale."""

    def assign(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        bucket = ((did.astype(np.uint64) * np.uint64(SPLIT_MULT)) % np.uint64(SPLIT_BUCKETS)).astype(np.int64)
        split = np.where(bucket < SPLIT_TEST_LT, "test",
                         np.where(bucket < SPLIT_VAL_LT, "val", "train"))
        return pa.table(
            {
                "doc_id": pa.array(did),
                "bucket": pa.array(bucket),
                "split": pa.array(split.tolist(), type=pa.string()),
            }
        )

    return _read(sf_dir, ["doc_id"]).map_batches(assign, batch_format="pyarrow")


def hash_split_sql() -> str:
    """DuckDB replay of doc_hash_split in HUGEINT mod-2^64 arithmetic."""
    T = 1 << 64
    return (
        f"WITH h AS (SELECT doc_id, CAST((CAST(doc_id AS HUGEINT) * {SPLIT_MULT}) "
        f"% {T} % {SPLIT_BUCKETS} AS BIGINT) AS bucket FROM documents) "
        f"SELECT doc_id, bucket, CASE WHEN bucket < {SPLIT_TEST_LT} THEN 'test' "
        f"WHEN bucket < {SPLIT_VAL_LT} THEN 'val' ELSE 'train' END AS split FROM h"
    )


SOURCE_QUOTA_N = 10   # kept docs per source in the driver query


def doc_source_quota(sf_dir: str, per_source: int = SOURCE_QUOTA_N):
    """Per-source quota — the crawl pipeline's domain-cap primitive (e.g.
    per-domain document caps before dedup): keep the ``per_source`` docs
    with the SMALLEST doc_id in each source, drop the rest. Returns the
    surviving (doc_id, source) rows.

    Distributed shape (the doc_quantile_filter two-pass threshold
    pattern): pass 1 reduces every batch to at most ``per_source``
    (source, doc_id) rows per source (vectorized partial top-N — one
    lexsort per batch, no Python loop); a source-keyed merge reduces each
    source's partials to ONE threshold row (the Nth-smallest doc_id);
    the driver collects only n_sources rows and pass 2 is a stateless
    broadcast filter ``doc_id <= thr[source]``. No wide shuffle; driver
    state is n_sources ints.

    Partitioning note: per-source merge groups hold at most
    per_source x n_blocks rows (narrow int64 pairs) — bounded by block
    count, not data rows; for very hot sources raise the merge's bucket
    fanout or pre-merge per shard.
    """
    ds = _read(sf_dir, ["doc_id", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch["source"].to_pandas(), dtype=object)
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((did, src))
        s_sorted, d_sorted = src[order], did[order]
        new = np.r_[True, s_sorted[1:] != s_sorted[:-1]]
        starts = np.flatnonzero(new)
        rank = np.arange(len(s_sorted)) - starts[(np.cumsum(new) - 1)]
        keep = rank < per_source
        return pa.table(
            {
                "source": pa.array(s_sorted[keep], type=pa.string()),
                "doc_id": pa.array(d_sorted[keep]),
            }
        )

    def per_source_thr(t: pa.Table) -> pa.Table:
        # each source's per_source-th smallest doc_id (or its largest)
        src = np.asarray(t["source"].to_pandas(), dtype=object)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((did, src))
        s_sorted, d_sorted = src[order], did[order]
        starts = np.flatnonzero(np.r_[True, s_sorted[1:] != s_sorted[:-1]])
        last = np.minimum(starts + per_source, np.r_[starts[1:], len(order)]) - 1
        return pa.table({"source": pa.array(s_sorted[last], type=pa.string()),
                         "thr": pa.array(d_sorted[last])})

    # n_sources rows
    thr_df = bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                             "source", per_source_thr).to_pandas()
    thr = dict(zip(thr_df["source"], thr_df["thr"]))

    def keep(batch: pa.Table) -> pa.Table:
        import pandas as pd

        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        t = pd.Series(np.asarray(batch["source"].to_pandas(), dtype=object)).map(thr).to_numpy()
        mask = pa.array(did <= t)
        return pa.table(
            {"doc_id": batch["doc_id"].filter(mask), "source": batch["source"].filter(mask)}
        )

    return ds.map_batches(keep, batch_format="pyarrow")


def source_quota_sql(per_source: int = SOURCE_QUOTA_N) -> str:
    """DuckDB replay: row_number per source ordered by doc_id — identical
    to the engine's Nth-smallest-doc_id threshold because doc_id is
    globally unique."""
    return (
        "SELECT doc_id, source FROM ("
        "SELECT doc_id, source, row_number() OVER "
        "(PARTITION BY source ORDER BY doc_id) AS rn FROM documents) "
        f"WHERE rn <= {per_source}"
    )


PPL_BIN = 1 << 14   # fluency-score bin width for the bucket histogram


def doc_ppl_buckets(sf_dir: str, num_buckets: int = 64):
    """CCNet-style perplexity buckets: label every document head / middle /
    tail by its corpus-LM fluency TERCILE within its own language (CCNet
    partitions crawl text by per-language LM perplexity thirds; fluency is
    our integer perplexity analog — high fluency = head).

    Composition of existing machinery, all integer-exact:
      1. per-doc (fluency_sum, n_bigrams) from the corpus-trained bigram
         LM (doc_lm_fluency);
      2. lang joined on via the generic stages.joins.hash_join (doc->lang
         is corpus-sized — never broadcast);
      3. scaled integer score q = (1000*s) // max(nb,1), binned to
         q // PPL_BIN so the per-(lang, bin) histogram stays bounded
         (<= n_langs x 61k rows at ANY corpus size);
      4. per-lang tercile thresholds from the cumulative histogram
         (quantile_disc rule: sorted[ceil(q*n)-1], same walk as
         doc_quantile_filter), broadcast as n_langs dicts into a
         stateless labeling pass.
    """
    import math

    from ..stages.joins import hash_join

    sc = doc_lm_fluency(sf_dir)
    lang_ds = _read(sf_dir, ["doc_id", "lang"])
    joined = hash_join(sc, lang_ds, on="doc_id", right_cols=("lang",),
                       num_buckets=num_buckets)

    def to_bin(batch: pa.Table) -> pa.Table:
        s = batch["fluency_sum"].to_numpy(zero_copy_only=False)
        nb = batch["n_bigrams"].to_numpy(zero_copy_only=False)
        q = (1000 * s) // np.maximum(nb, 1)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["r_lang"],
                "bin": pa.array((q // PPL_BIN).astype(np.int64)),
            }
        )

    binned = joined.map_batches(to_bin, batch_format="pyarrow")

    def hist_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["lang", "bin"]).aggregate([("bin", "count")])
        return pa.table({"lang": g["lang"], "bin": g["bin"],
                         "cnt": g["bin_count"].cast(pa.int64())})

    hist = (
        binned.map_batches(hist_partial, batch_format="pyarrow")
        .groupby(["lang", "bin"]).sum("cnt")
        .to_pandas()  # <= n_langs x (max_q / PPL_BIN) rows, corpus-size-free
        .rename(columns={"sum(cnt)": "cnt"})
    )
    thr = {}
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("bin")
        cum = g["cnt"].cumsum().to_numpy()
        n = int(cum[-1])
        bins = g["bin"].to_numpy()
        t1 = int(bins[np.searchsorted(cum, max(math.ceil(n / 3), 1))])
        t2 = int(bins[np.searchsorted(cum, max(math.ceil(2 * n / 3), 1))])
        thr[lang] = (t1, t2)

    def label(batch: pa.Table) -> pa.Table:
        import pandas as pd

        langs = pd.Series(np.asarray(batch["lang"].to_pandas(), dtype=object))
        t1 = langs.map({k: v[0] for k, v in thr.items()}).to_numpy()
        t2 = langs.map({k: v[1] for k, v in thr.items()}).to_numpy()
        b = batch["bin"].to_numpy(zero_copy_only=False)
        bucket = np.where(b <= t1, "tail", np.where(b <= t2, "middle", "head"))
        return batch.append_column("bucket", pa.array(bucket.tolist(), type=pa.string()))

    return binned.map_batches(label, batch_format="pyarrow")


def ppl_buckets_sql() -> str:
    """DuckDB replay: the lm_fluency_sql score core + the same integer
    binning + per-lang quantile_disc(1/3, 2/3) thresholds."""
    return (
        r"WITH words AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS w FROM documents), "
        "tok AS (SELECT doc_id, w[CAST(i AS BIGINT)] AS w1, w[CAST(i + 1 AS BIGINT)] AS w2 "
        "FROM words, unnest(range(1, len(w) + 1)) t(i)), "
        "uni AS (SELECT w1 AS wd, count(*) AS c FROM tok GROUP BY 1), "
        "big AS (SELECT w1, w2, count(*) AS c FROM tok WHERE w2 IS NOT NULL GROUP BY 1, 2), "
        f"sc AS (SELECT tok.doc_id, sum(({LM_SCALE} * big.c) // uni.c) AS s, count(*) AS nb "
        "FROM tok JOIN uni ON uni.wd = tok.w1 "
        "JOIN big ON big.w1 = tok.w1 AND big.w2 = tok.w2 "
        "WHERE tok.w2 IS NOT NULL GROUP BY tok.doc_id), "
        "b AS (SELECT d.doc_id, d.lang, "
        f"CAST(((1000 * coalesce(sc.s, 0)) // greatest(coalesce(sc.nb, 0), 1)) // {PPL_BIN} AS BIGINT) AS bin "
        "FROM documents d LEFT JOIN sc USING (doc_id)), "
        "thr AS (SELECT lang, quantile_disc(bin, 1.0/3) AS t1, "
        "quantile_disc(bin, 2.0/3) AS t2 FROM b GROUP BY lang) "
        "SELECT b.doc_id, b.lang, b.bin, CASE WHEN b.bin <= thr.t1 THEN 'tail' "
        "WHEN b.bin <= thr.t2 THEN 'middle' ELSE 'head' END AS bucket "
        "FROM b JOIN thr USING (lang)"
    )


# ---------------------------------------------------------------------------
# Gopher-style composite quality-rule filter (Rae et al. 2021, appendix A1.1)
# ---------------------------------------------------------------------------
# The published rule set keeps a document only if EVERY heuristic passes:
# word count in range, mean word length in range, enough distinct stopwords
# present (plus symbol/bullet/ellipsis ratios that are degenerate on this
# all-lowercase-word synthetic corpus and therefore omitted). Thresholds are
# re-fit to the synthetic corpus distribution so every rule cuts
# non-trivially (probed at sf0.01: n_words p5/p95 = 20/90, mean word length
# p5/p95 = 3.9/5.1). Reference analog: the same composite first-flag-wins
# algebra as plausibility_test.r:7-11 + metadata_check.r:20-34, applied as
# one AND-chain. Scale shape: stateless single-pass map_batches over Arrow
# byte buffers — no shuffle, no driver state, trivially resumable at 10^12
# rows; the stopword scan is 50 vectorized count_substring passes over the
# padded buffer (same kernel the green doc_stopword_ratio row uses).
GOPHER_WC_LO, GOPHER_WC_HI = 20, 90          # word-count band
GOPHER_MWL_LO, GOPHER_MWL_HI = 3.9, 5.1      # mean-word-length band
GOPHER_MIN_STOP = 2                          # distinct stopwords required


def gopher_rule_arrays(
    texts: pa.Array,
    wc_lo: int = GOPHER_WC_LO,
    wc_hi: int = GOPHER_WC_HI,
    mwl_lo: float = GOPHER_MWL_LO,
    mwl_hi: float = GOPHER_MWL_HI,
    min_stop: int = GOPHER_MIN_STOP,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(n_words, mean_word_len, n_stop_distinct, keep) per text — the
    Gopher rule kernel, shared by doc_gopher_filter and doc_quality_auc
    (identical IEEE ops over identical integers on both consumers)."""
    import pyarrow.compute as pc

    from ..functions.features import STOPWORDS
    from ..functions.strings import word_counts

    data, offsets, _ = string_view(texts)
    n_words = word_counts(data, offsets)
    n_space = char_class_counts(data, offsets)["space"]
    n_bytes = (offsets[1:] - offsets[:-1]).astype(np.int64)
    mwl = (n_bytes - n_space).astype(np.float64) / np.maximum(n_words, 1).astype(np.float64)
    padded = pc.binary_join_element_wise(
        pa.scalar(" "), pc.utf8_lower(texts), pa.scalar(" "), "", null_handling="replace"
    )
    n_stop = np.zeros(len(texts), dtype=np.int64)
    for w in STOPWORDS:
        c = pc.count_substring(padded, f" {w} ").to_numpy(zero_copy_only=False)
        n_stop += (np.nan_to_num(c.astype(np.float64)) > 0).astype(np.int64)
    keep = (
        (n_words >= wc_lo) & (n_words <= wc_hi)
        & (mwl >= mwl_lo) & (mwl <= mwl_hi)
        & (n_stop >= min_stop)
    ).astype(np.int64)
    return n_words, mwl, n_stop, keep


def doc_gopher_filter(
    sf_dir: str,
    wc_lo: int = GOPHER_WC_LO,
    wc_hi: int = GOPHER_WC_HI,
    mwl_lo: float = GOPHER_MWL_LO,
    mwl_hi: float = GOPHER_MWL_HI,
    min_stop: int = GOPHER_MIN_STOP,
):
    """Gopher quality rules per document: word count in [wc_lo, wc_hi], mean
    word length in [mwl_lo, mwl_hi], >= min_stop DISTINCT stopwords present.
    Emits the per-rule inputs plus the composite keep verdict so downstream
    stages (and the DuckDB oracle, gopher_sql) can audit which rule fired.
    Band comparisons run on the UNROUNDED doubles on both sides (identical
    IEEE ops over identical integers), so the verdict hash-matches; the
    reported mean_word_len is rounded to 6 for the value hash."""
    from ..stages.ann import round_half_away

    ds = _read(sf_dir, ["doc_id", "text"])

    def rules(batch: pa.Table) -> pa.Table:
        texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        n_words, mwl, n_stop, keep = gopher_rule_arrays(
            texts, wc_lo, wc_hi, mwl_lo, mwl_hi, min_stop
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(n_words.astype(np.int64)),
                "mean_word_len": pa.array(round_half_away(mwl, 6)),
                "n_stop_distinct": pa.array(n_stop),
                "keep": pa.array(keep),
            }
        )

    return ds.map_batches(rules, batch_format="pyarrow")


def gopher_sql(
    wc_lo: int = GOPHER_WC_LO,
    wc_hi: int = GOPHER_WC_HI,
    mwl_lo: float = GOPHER_MWL_LO,
    mwl_hi: float = GOPHER_MWL_HI,
    min_stop: int = GOPHER_MIN_STOP,
) -> str:
    """DuckDB oracle for doc_gopher_filter: same padded-presence stopword
    scan (contains over ' w '), same integer word/space counts, same double
    division (ASCII precondition shared with doc_quality_scores' oracle)."""
    from ..functions.features import STOPWORDS

    pres = " + ".join(
        f"CASE WHEN contains(p, ' {w} ') THEN 1 ELSE 0 END" for w in STOPWORDS
    )
    return (
        "WITH b AS (SELECT doc_id, concat(' ', lower(text), ' ') AS p, "
        r"CAST(length(regexp_extract_all(trim(text), '\S+')) AS BIGINT) AS n_words, "
        "strlen(text) - CAST(length(regexp_replace(text, '[^ \t\n\r]', '', 'g')) AS BIGINT) AS n_nonspace "
        "FROM documents), "
        f"c AS (SELECT doc_id, n_words, CAST({pres} AS BIGINT) AS n_stop_distinct, "
        "CAST(n_nonspace AS DOUBLE) / greatest(n_words, 1) AS mwl FROM b) "
        "SELECT doc_id, n_words, round(mwl, 6) AS mean_word_len, n_stop_distinct, "
        f"CAST(CASE WHEN n_words BETWEEN {wc_lo} AND {wc_hi} "
        f"AND mwl >= {mwl_lo} AND mwl <= {mwl_hi} "
        f"AND n_stop_distinct >= {min_stop} THEN 1 ELSE 0 END AS BIGINT) AS keep "
        "FROM c"
    )


# ---------------------------------------------------------------------------
# Per-document unigram entropy (lexical-diversity quality signal)
# ---------------------------------------------------------------------------
# Shannon entropy of the within-document word distribution — the standard
# lexical-diversity gate (low entropy = template/boilerplate/repetition;
# complements doc_repetition's max-frequency signals). Determinism design:
# floating sums over per-word terms are ORDER-DEPENDENT, and Ray and DuckDB
# group in different orders, so the entropy is computed in integer
# "nano-nats": ilog(c) = floor(ln(c)*1e9 + 0.5) (libm log on both sides),
# s = sum(c * ilog(c)) is an EXACT int64 sum (order-free), and
# H_nano = ilog(n) - s // n is exact integer math end-to-end. Scale shape:
# stateless single-pass map_batches (one lexsort per batch, the
# doc_repetition kernel) — no shuffle, no driver state.
ENTROPY_SCALE = 1_000_000_000


def doc_unigram_entropy(sf_dir: str):
    """Per-doc unigram Shannon entropy in integer nano-nats (exact) plus the
    double view rounded to 6. DuckDB-checkable (entropy_sql)."""
    import math

    import pyarrow.compute as pc

    from ..stages.ann import round_half_away

    ds = _read(sf_dir, ["doc_id", "text"])

    def ent(batch: pa.Table) -> pa.Table:
        n_rows = batch.num_rows
        words, rid = _words(batch["text"])
        codes = np.asarray(pc.dictionary_encode(words).indices, dtype=np.int64)
        n_words = np.bincount(rid, minlength=n_rows).astype(np.int64)
        s = np.zeros(n_rows, dtype=np.int64)
        if len(rid):
            order = np.lexsort((codes, rid))
            r_s, c_s = rid[order], codes[order]
            newrun = np.ones(len(r_s), dtype=bool)
            newrun[1:] = (r_s[1:] != r_s[:-1]) | (c_s[1:] != c_s[:-1])
            starts = np.flatnonzero(newrun)
            runlen = np.diff(np.append(starts, len(r_s)))
            m = int(max(n_words.max(initial=0), 1))
            # libm log (math.log), NOT np.log: numpy's SIMD log can differ
            # from DuckDB's std::log in the last ulp; libm == libm holds
            ilog = np.array(
                [0, 0] + [math.floor(math.log(i) * ENTROPY_SCALE + 0.5) for i in range(2, m + 1)],
                dtype=np.int64,
            )
            np.add.at(s, r_s[starts], runlen * ilog[runlen])
            h_nano = np.where(n_words > 0, ilog[np.maximum(n_words, 1)] - s // np.maximum(n_words, 1), 0)
        else:
            h_nano = np.zeros(n_rows, dtype=np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(n_words),
                "entropy_nano": pa.array(h_nano.astype(np.int64)),
                "entropy": pa.array(round_half_away(h_nano / float(ENTROPY_SCALE), 6)),
            }
        )

    return ds.map_batches(ent, batch_format="pyarrow")


def entropy_sql() -> str:
    """DuckDB oracle for doc_unigram_entropy: the same nano-nat integer
    pipeline (floor(ln(c)*1e9 + 0.5) per count, exact BIGINT sum, integer
    division), so group ordering cannot perturb the hash."""
    k = ENTROPY_SCALE
    return (
        r"WITH w AS (SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w FROM documents), "
        "c AS (SELECT doc_id, w, count(*) AS c FROM w GROUP BY doc_id, w), "
        f"e AS (SELECT doc_id, sum(c) AS n, sum(c * CAST(floor(ln(c) * {k} + 0.5) AS BIGINT)) AS s "
        "FROM c GROUP BY doc_id) "
        "SELECT d.doc_id, CAST(coalesce(e.n, 0) AS BIGINT) AS n_words, "
        f"CAST(CASE WHEN e.n > 0 THEN CAST(floor(ln(e.n) * {k} + 0.5) AS BIGINT) - s // e.n "
        "ELSE 0 END AS BIGINT) AS entropy_nano, "
        f"round(CAST(CASE WHEN e.n > 0 THEN CAST(floor(ln(e.n) * {k} + 0.5) AS BIGINT) - s // e.n "
        f"ELSE 0 END AS DOUBLE) / {k}, 6) AS entropy "
        "FROM documents d LEFT JOIN e USING (doc_id)"
    )


# ---------------------------------------------------------------------------
# Corpus-level PMI collocations (Church & Hanks 1990)
# ---------------------------------------------------------------------------
# Top-k word-bigram collocations by pointwise mutual information — the
# classic corpus-analysis op for phrase mining / tokenizer vocab curation.
# PMI = ln(c12 * N / (c1 * c2)) is rank-equivalent to the SCALED INTEGER
# score (PMI_SCALE * c12 * N) // (c1 * c2), so the whole ranking is exact
# integer math (no float, no log) and replays bit-identically in DuckDB
# HUGEINT. Scale shape: ONE pass emits per-batch pre-aggregated unigram AND
# bigram partial counts (dictionary-encode + bincount — the doc_top_words
# combiner), ONE vocabulary-sized groupby merges them, the min-count filter
# shrinks candidates to the collocation set, and two stages.joins.hash_join
# exchanges attach c1/c2 — nothing corpus-sized crosses the wire and the
# driver never materializes anything but the final top-k.
PMI_SCALE = 1_000_000
PMI_MIN_COUNT = 5
PMI_TOP_K = 30


def doc_pmi_collocations(sf_dir: str, k: int = PMI_TOP_K, min_count: int = PMI_MIN_COUNT):
    """Top-k bigram collocations by integer-scaled PMI, ties broken by
    (w1, w2) ascending. DuckDB-checkable (pmi_sql)."""
    import pyarrow.compute as pc

    from ..stages.joins import hash_join

    ds = _read(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        w, rid = _words(batch["text"])
        out_kind, out_key, out_n = [], [], []
        if len(w):
            enc = pc.dictionary_encode(w)
            cnt = np.bincount(np.asarray(enc.indices, dtype=np.int64), minlength=len(enc.dictionary))
            out_kind.append(np.zeros(len(enc.dictionary), dtype=np.int8))
            out_key.append(enc.dictionary.cast(pa.string()))
            out_n.append(cnt.astype(np.int64))
        if len(w) > 1:
            same = rid[1:] == rid[:-1]
            pairs = pc.binary_join_element_wise(
                w.slice(0, len(w) - 1).cast(pa.string()), w.slice(1).cast(pa.string()), " "
            ).filter(pa.array(same))
            if len(pairs):
                enc2 = pc.dictionary_encode(pairs)
                cnt2 = np.bincount(np.asarray(enc2.indices, dtype=np.int64), minlength=len(enc2.dictionary))
                out_kind.append(np.ones(len(enc2.dictionary), dtype=np.int8))
                out_key.append(enc2.dictionary.cast(pa.string()))
                out_n.append(cnt2.astype(np.int64))
        if not out_kind:
            return pa.table({"kind": pa.array([], pa.int8()), "key": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        return pa.table(
            {
                "kind": pa.array(np.concatenate(out_kind)),
                "key": pa.concat_arrays(out_key),
                "n": pa.array(np.concatenate(out_n)),
            }
        )

    # vocabulary-sized after the combiner groupby — materializing it (NOT
    # the corpus) lets the three consumers below reuse one computation
    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["kind", "key"])
        .sum("n")
        .map_batches(lambda b: b.rename_columns(["kind", "key", "n"]), batch_format="pyarrow")
        .materialize()
    )

    def kind_only(kind: int, names: tuple[str, str]):
        def fn(batch: pa.Table) -> pa.Table:
            b = batch.filter(pc.equal(batch["kind"], kind))
            return pa.table({names[0]: b["key"], names[1]: b["n"]})

        return fn

    uni = agg.map_batches(kind_only(0, ("key", "n")), batch_format="pyarrow")
    n_total = int(uni.sum("n"))

    def to_cand(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(batch["kind"], 1), pc.greater_equal(batch["n"], min_count))
        b = batch.filter(m)
        parts = pc.split_pattern(b["key"], " ")
        return pa.table(
            {
                "w1": pc.list_element(parts, 0),
                "w2": pc.list_element(parts, 1),
                "c12": b["n"],
            }
        )

    cand = agg.map_batches(to_cand, batch_format="pyarrow")
    uni1 = agg.map_batches(kind_only(0, ("w1", "c")), batch_format="pyarrow")
    uni2 = agg.map_batches(kind_only(0, ("w2", "c")), batch_format="pyarrow")
    j1 = hash_join(cand, uni1, "w1", ("c",)).map_batches(
        lambda b: b.rename_columns(["w1", "w2", "c12", "c1"]), batch_format="pyarrow"
    )
    j = hash_join(j1, uni2, "w2", ("c",))

    def score(batch: pa.Table) -> pa.Table:
        c12 = np.asarray(batch["c12"], dtype=np.int64)
        c1 = np.asarray(batch["c1"], dtype=np.int64)
        c2 = np.asarray(batch["r_c"], dtype=np.int64)
        if len(c12):
            # promote to Python int: np.int64 * PMI_SCALE wraps silently
            assert int(c12.max()) * PMI_SCALE * n_total < 2**63, "PMI_SCALE overflow"
        s = (PMI_SCALE * c12 * n_total) // (c1 * c2)
        return pa.table(
            {"w1": batch["w1"], "w2": batch["w2"], "c12": pa.array(c12),
             "pmi_scaled": pa.array(s.astype(np.int64))}
        )

    return j.map_batches(score, batch_format="pyarrow").sort(
        ["pmi_scaled", "w1", "w2"], descending=[True, False, False]
    ).limit(k)


def pmi_sql(k: int = PMI_TOP_K, min_count: int = PMI_MIN_COUNT) -> str:
    """DuckDB oracle for doc_pmi_collocations: HUGEINT replay of the exact
    integer PMI ranking (same scale, same floor division, same tie order)."""
    return (
        r"WITH tok AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS ts FROM documents), "
        "t AS (SELECT doc_id, unnest(ts) AS w, generate_subscripts(ts, 1) AS i FROM tok), "
        "uni AS (SELECT w, count(*) AS c FROM t GROUP BY w), "
        "tot AS (SELECT sum(c) AS n FROM uni), "
        "bg AS (SELECT a.w AS w1, b.w AS w2, count(*) AS c12 FROM t a "
        "JOIN t b ON b.doc_id = a.doc_id AND b.i = a.i + 1 GROUP BY 1, 2) "
        "SELECT bg.w1, bg.w2, CAST(bg.c12 AS BIGINT) AS c12, "
        f"CAST((CAST({PMI_SCALE} AS HUGEINT) * bg.c12 * tot.n) // "
        "(CAST(u1.c AS HUGEINT) * u2.c) AS BIGINT) AS pmi_scaled "
        "FROM bg, tot "
        "JOIN uni u1 ON u1.w = bg.w1 JOIN uni u2 ON u2.w = bg.w2 "
        f"WHERE bg.c12 >= {min_count} "
        f"ORDER BY pmi_scaled DESC, bg.w1, bg.w2 LIMIT {k}"
    )


# ---------------------------------------------------------------------------
# BM25 text retrieval (Robertson & Walker 1994 / Okapi)
# ---------------------------------------------------------------------------
# Top-k documents for a bag-of-words query under a RATIONAL BM25 variant:
# k1 = 6/5 and b = 3/4 are folded into pure integer arithmetic, avgdl is the
# floored corpus mean, and the log-IDF is replaced by its rank-preserving
# rational core (2N - 2df + 1) / (2df + 1) — so every per-term contribution
# is one exact integer floor-division
#   floor(S * (2N-2df+1) * 22*A*f / ((2df+1) * (10*A*f + 3*A + 9*dl)))
# (derivation: tf_part = f*(k1+1)/(f + k1*(1 - b + b*dl/A)) with k1=6/5,
# b=3/4 multiplied through by 10*A) and the per-doc score is an order-free
# integer sum that replays bit-identically in DuckDB HUGEINT.
# Scale shape: ONE pass over the corpus emits a narrow stream — one global
# (n_docs, n_tokens) partial per batch plus one row per (doc, query-term)
# hit; df/N/avgdl are |Q|-sized / scalar aggregates over that stream; the
# score pass touches only candidate docs and the driver sees top-k rows.
BM25_SCALE = 10_000
BM25_QUERY = ("hash", "join", "merge", "stream")
BM25_TOP_K = 20


def doc_bm25_topk(sf_dir: str, query: tuple[str, ...] = BM25_QUERY, k: int = BM25_TOP_K):
    """Top-k (doc_id, bm25_scaled) for a fixed term query; ties broken by
    doc_id ascending. Docs with zero query-term hits score 0 and are not
    returned (standard BM25 candidate semantics). DuckDB-checkable
    (bm25_sql). Reference analog: the 'value vs expected climatology' band
    of functions/checks/climatological_check.r recast as corpus-relative
    term salience."""
    import pyarrow.compute as pc
    import ray

    assert all(t.isalnum() for t in query), "query terms must be plain words"
    nq = len(query)
    ds = _read(sf_dir, ["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        n_rows = batch.num_rows
        w, rid = _words(batch["text"])
        dl = np.bincount(rid, minlength=n_rows).astype(np.int64)

        ti = pc.index_in(w, pa.array(list(query)))
        tmask = np.asarray(pc.is_valid(ti))
        out_doc = np.empty(0, dtype=np.int64)
        out_ti = np.empty(0, dtype=np.int64)
        out_f = np.empty(0, dtype=np.int64)
        out_dl = np.empty(0, dtype=np.int64)
        if tmask.any():
            tiv = np.asarray(ti.cast(pa.int64()).fill_null(0))[tmask]
            ridq = rid[tmask]
            ukey, f = np.unique(ridq * nq + tiv, return_counts=True)
            urow = ukey // nq
            out_doc, out_ti = did[urow], ukey % nq
            out_f, out_dl = f.astype(np.int64), dl[urow]
        # kind-0 stats row: f = token total, dl = docs with >=1 token (the
        # corpus N/avgdl convention BM25 uses; zero-token docs are inert)
        return pa.table(
            {
                "kind": pa.array(np.concatenate([[0], np.ones(len(out_doc), dtype=np.int8)]).astype(np.int8)),
                "doc_id": pa.array(np.concatenate([[0], out_doc])),
                "ti": pa.array(np.concatenate([[-1], out_ti])),
                "f": pa.array(np.concatenate([[int(dl.sum())], out_f])),
                "dl": pa.array(np.concatenate([[int(np.count_nonzero(dl))], out_dl])),
            }
        )

    # narrow (stats + candidate) stream, materialized ONCE — its three
    # consumers (corpus scalars, df, score) never re-touch the corpus text
    narrow = ds.map_batches(partial, batch_format="pyarrow").materialize()
    stats = narrow.filter(expr="kind == 0")
    tl = int(stats.sum("f") or 0)
    n_docs = int(stats.sum("dl") or 0)
    cand = narrow.filter(expr="kind == 1")
    if n_docs == 0 or cand.count() == 0:
        return ray.data.from_arrow(
            pa.table({"doc_id": pa.array([], pa.int64()),
                      "bm25_scaled": pa.array([], pa.int64())})
        )
    avgdl = tl // n_docs
    df_rows = cand.groupby("ti").count().take_all()     # |Q|-sized
    df_arr = np.zeros(nq, dtype=np.int64)
    for r in df_rows:
        df_arr[int(r["ti"])] = int(r["count()"])

    # overflow guard for the int64 numerator (promote to Python int — the
    # np.int64 product would wrap silently); DuckDB side is HUGEINT-exact
    assert BM25_SCALE * (2 * n_docs + 1) * 22 * max(avgdl, 1) * max(
        int(cand.max("f")), 1
    ) < 2**63, "BM25_SCALE overflow"

    def score(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        ti = batch["ti"].to_numpy(zero_copy_only=False)
        f = batch["f"].to_numpy(zero_copy_only=False).astype(np.int64)
        dl = batch["dl"].to_numpy(zero_copy_only=False).astype(np.int64)
        df = df_arr[ti]
        num = BM25_SCALE * (2 * n_docs - 2 * df + 1) * 22 * avgdl * f
        den = (2 * df + 1) * (10 * avgdl * f + 3 * avgdl + 9 * dl)
        s = num // den
        return pa.table(
            {
                "doc_id": pa.array(did),
                "bm25_scaled": pa.array(s),
                "_b": pa.array((did % 64).astype(np.int32)),
            }
        )

    return (
        bucket_exchange(cand.map_batches(score, batch_format="pyarrow"),
                        "_b", sum_merge(["doc_id"], ["bm25_scaled"]))
        .sort(["bm25_scaled", "doc_id"], descending=[True, False])
        .limit(k)
    )


def bm25_sql(query: tuple[str, ...] = BM25_QUERY, k: int = BM25_TOP_K) -> str:
    """DuckDB oracle for doc_bm25_topk: the same rational-BM25 integer
    ranking in HUGEINT (same floored avgdl, same per-term floor division,
    same tie order)."""
    terms = ", ".join(f"'{t}'" for t in query)
    return (
        r"WITH tok AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS ts FROM documents), "
        "t AS (SELECT doc_id, unnest(ts) AS w FROM tok), "
        "dl AS (SELECT doc_id, count(*) AS dl FROM t GROUP BY doc_id), "
        "g AS (SELECT count(*) AS n, sum(dl) // count(*) AS a FROM dl), "
        f"f AS (SELECT doc_id, w, count(*) AS f FROM t WHERE w IN ({terms}) GROUP BY 1, 2), "
        "df AS (SELECT w, count(*) AS df FROM f GROUP BY w), "
        "s AS (SELECT f.doc_id, "
        f"SUM((CAST({BM25_SCALE} AS HUGEINT) * (2*g.n - 2*df.df + 1) * 22 * g.a * f.f) // "
        "((2*df.df + 1) * (10*g.a*f.f + 3*g.a + 9*dl.dl))) AS sc "
        "FROM f JOIN df USING (w) JOIN dl USING (doc_id) CROSS JOIN g GROUP BY 1) "
        "SELECT doc_id, CAST(sc AS BIGINT) AS bm25_scaled FROM s "
        f"ORDER BY sc DESC, doc_id LIMIT {k}"
    )


# ---------------------------------------------------------------------------
# Per-language vocabulary size (COUNT DISTINCT at scale / Heaps' law input)
# ---------------------------------------------------------------------------

def doc_vocab_size(sf_dir: str, num_buckets: int = 64):
    """(lang, n_types, n_tokens): distinct-word and total-word counts per
    language — the distributed COUNT(DISTINCT) primitive (tokenizer-vocab
    sizing / Heaps'-law curves). Words are 64-bit FNV hashes; the SQL oracle
    counts the literal strings, so a collision would surface as a driver-
    gate mismatch (same convention as doc_lm_fluency).

    Scale shape: per-batch np.unique collapses each batch to its LOCAL
    (lang, word-hash) vocabulary before the exchange; ONE bucket-keyed
    exchange on hash % B co-locates every occurrence of a (lang, word), so
    the per-bucket distinct count is final and the last merge sums
    |langs| x B tiny partials."""
    import pandas as pd
    import pyarrow.compute as pc

    ds = _read(sf_dir, ["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        g1, rid = _word_gram_hashes(texts, 1)
        lang_codes, lang_uniq = pd.factorize(batch["lang"].to_pandas())
        lc = lang_codes[rid].astype(np.int64)
        # kind-0 rows: per-lang token-count partials
        tok = np.bincount(lc[lc >= 0], minlength=len(lang_uniq)).astype(np.int64) \
            if len(lc) else np.zeros(len(lang_uniq), dtype=np.int64)
        # kind-1 rows: batch-local distinct (lang, hash) pairs
        h = g1.view(np.int64)
        m = lc >= 0                      # null lang rows excluded both sides
        pairs = np.unique(np.stack([lc[m], h[m]]), axis=1) if m.any() else np.empty((2, 0), dtype=np.int64)
        langs0 = pa.array(lang_uniq, type=pa.string())
        return pa.table(
            {
                "kind": pa.array(np.concatenate([np.zeros(len(lang_uniq), dtype=np.int8),
                                                 np.ones(pairs.shape[1], dtype=np.int8)])),
                "lang": pa.concat_arrays([langs0, langs0.take(pa.array(pairs[0]))]),
                "h": pa.array(np.concatenate([np.zeros(len(lang_uniq), dtype=np.int64), pairs[1]])),
                "n": pa.array(np.concatenate([tok, np.zeros(pairs.shape[1], dtype=np.int64)])),
                "_b": pa.array(
                    np.concatenate([
                        np.full(len(lang_uniq), num_buckets, dtype=np.int64),  # stats bucket
                        (pairs[1] % num_buckets + num_buckets) % num_buckets,  # word bucket
                    ]).astype(np.int32)
                ),
            }
        )

    def merge(t: pa.Table) -> pa.Table:
        # token partials (kind 0, all in the stats bucket) sum per lang; word
        # rows (kind 1) count their distinct (lang, hash) pairs per lang
        tok = pc.equal(t["kind"], 0)
        n_tok = t.filter(tok).group_by("lang").aggregate([("n", "sum")])
        n_typ = (t.filter(pc.invert(tok)).group_by(["lang", "h"]).aggregate([])
                 .group_by("lang").aggregate([("h", "count")]))
        return pa.concat_tables([
            pa.table({"lang": n_tok["lang"].cast(pa.string()),
                      "n_types": pa.array(np.zeros(n_tok.num_rows, dtype=np.int64)), "n_tokens": n_tok["n_sum"]}),
            pa.table({"lang": n_typ["lang"].cast(pa.string()), "n_types": n_typ["h_count"],
                      "n_tokens": pa.array(np.zeros(n_typ.num_rows, dtype=np.int64))}),
        ])

    out = (
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "_b", merge)
        .groupby("lang")
        .sum(["n_types", "n_tokens"])
    )
    # a lang whose every doc is empty has no words in the SQL view — drop
    # its zero row to match COUNT-over-unnest semantics
    return out.map_batches(
        lambda b: b.rename_columns(["lang", "n_types", "n_tokens"]),
        batch_format="pyarrow",
    ).filter(expr="n_tokens > 0")


def vocab_size_sql() -> str:
    """DuckDB oracle for doc_vocab_size (literal-string distinct counts)."""
    return (
        r"WITH t AS (SELECT lang, unnest(regexp_extract_all(text, '\S+')) AS w "
        "FROM documents WHERE lang IS NOT NULL) "
        "SELECT lang, count(DISTINCT w) AS n_types, count(*) AS n_tokens "
        "FROM t GROUP BY lang"
    )


# ---------------------------------------------------------------------------
# Snapshot diff (incremental-ingest primitive)
# ---------------------------------------------------------------------------

def corpus_diff(sf_dir: str, num_buckets: int = 64):
    """Diff two corpus snapshots by doc_id + 128-bit content hash; emit
    (doc_id, status) with status in {'added', 'removed', 'changed'} — the
    incremental-ingest primitive (what changed since the last crawl?).

    The gate derives both snapshots deterministically from the documents
    table: snapshot A = doc_id % 3 != 0; snapshot B = doc_id % 5 != 0 with
    text amended (' v2' suffix) where doc_id % 7 == 0 — so added, removed
    and changed are all exercised. Identity is the siphash pair of the
    text (stages/dedup.py:_hash2); the SQL twin FULL-OUTER-joins the
    literal strings, so a collision would surface as a gate mismatch.

    Scale shape: each snapshot collapses to (doc_id, side, h1, h2) at the
    read — the corpus text never crosses the wire — then ONE doc-bucket
    exchange co-locates both sides of every doc_id and the per-bucket
    kernel is sorted-array set algebra (intersect1d / searchsorted)."""
    import pyarrow.compute as pc

    from ..stages.dedup import _hash2

    def side_fn(side: int, amend: bool):
        def fn(batch: pa.Table) -> pa.Table:
            did = batch["doc_id"].to_numpy(zero_copy_only=False)
            keep = did % 3 != 0 if side == 0 else did % 5 != 0
            b = batch.filter(pa.array(keep))
            did = did[keep]
            texts = b["text"].combine_chunks() if isinstance(b["text"], pa.ChunkedArray) else b["text"]
            if amend:
                m = pa.array(did % 7 == 0)
                amended = pc.binary_join_element_wise(texts, pa.scalar("v2"), " ")
                texts = pc.if_else(m, amended, texts)
            h1, h2 = _hash2(texts.to_pandas())
            return pa.table(
                {
                    "doc_id": pa.array(did),
                    "side": pa.array(np.full(len(did), side, dtype=np.int8)),
                    "h1": pa.array(h1),
                    "h2": pa.array(h2),
                    "_b": pa.array((did % num_buckets).astype(np.int32)),
                }
            )

        return fn

    a = _read(sf_dir, ["doc_id", "text"]).map_batches(side_fn(0, False), batch_format="pyarrow")
    b = _read(sf_dir, ["doc_id", "text"]).map_batches(side_fn(1, True), batch_format="pyarrow")

    def per_bucket(t: pa.Table) -> pa.Table:
        side = t["side"].to_numpy(zero_copy_only=False)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        h1 = t["h1"].to_numpy(zero_copy_only=False)
        h2 = t["h2"].to_numpy(zero_copy_only=False)
        ma, mb = side == 0, side == 1
        oa, ob = np.argsort(did[ma], kind="stable"), np.argsort(did[mb], kind="stable")
        da, db = did[ma][oa], did[mb][ob]
        common, ia, ib = np.intersect1d(da, db, assume_unique=True, return_indices=True)
        removed = da[~np.isin(da, db, assume_unique=True)]
        added = db[~np.isin(db, da, assume_unique=True)]
        diff = (h1[ma][oa][ia] != h1[mb][ob][ib]) | (h2[ma][oa][ia] != h2[mb][ob][ib])
        changed = common[diff]
        return pa.table(
            {
                "doc_id": pa.array(
                    np.concatenate([added, removed, changed]).astype(np.int64)
                ),
                "status": pa.array(
                    ["added"] * len(added) + ["removed"] * len(removed) + ["changed"] * len(changed),
                    type=pa.string(),
                ),
            }
        )

    return (
        bucket_exchange(a.union(b), "_b", per_bucket)
    )


def corpus_diff_sql() -> str:
    """DuckDB oracle for corpus_diff (FULL OUTER JOIN over literal text)."""
    return (
        "WITH a AS (SELECT doc_id, text FROM documents WHERE doc_id % 3 <> 0), "
        "b AS (SELECT doc_id, CASE WHEN doc_id % 7 = 0 THEN text || ' v2' "
        "ELSE text END AS text FROM documents WHERE doc_id % 5 <> 0) "
        "SELECT coalesce(a.doc_id, b.doc_id) AS doc_id, "
        "CASE WHEN a.doc_id IS NULL THEN 'added' "
        "WHEN b.doc_id IS NULL THEN 'removed' ELSE 'changed' END AS status "
        "FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id "
        "WHERE a.doc_id IS NULL OR b.doc_id IS NULL OR a.text <> b.text"
    )


# ---------------------------------------------------------------------------
# Cross-table centroid aggregate (documents x embeddings)
# ---------------------------------------------------------------------------

CENTROID_SCALE = 1_000_000


def embedding_lang_centroids(sf_dir: str, num_buckets: int = 64):
    """Per-language embedding centroid sums: (lang, dim, sum_q, n) where q =
    floor(component * 1e6) in exact int64 — the cross-table enrichment shape
    (vector table joined to metadata, then reduced), e.g. per-language mean
    embeddings for drift monitoring.

    Scale shape: a FUSED co-partition join + partial reduce — both tables
    bucket by id hash (embeddings carry their vectors exactly once across
    ONE exchange; documents contribute only (doc_id, lang), ~10 B/row), and
    the per-bucket kernel attaches lang via searchsorted then collapses
    immediately to |langs| x d int64 partials, so the second exchange is
    tiny. Components are cast float32 -> float64 exactly before scaling, so
    the DuckDB CAST(x AS DOUBLE) replay is bit-identical; `dim` is 1-based
    (generate_subscripts convention)."""
    from ..sources.reader import read_parquet_clean

    emb = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    docs = _read(sf_dir, ["doc_id", "lang"])

    def emb_side(batch: pa.Table) -> pa.Table:
        vid = batch["vec_id"].to_numpy(zero_copy_only=False)
        e = batch["embedding"]
        if isinstance(e, pa.ChunkedArray):
            e = e.combine_chunks()
        return pa.table(
            {
                "vec_id": pa.array(vid),
                "lang": pa.nulls(len(vid), pa.string()),
                "embedding": e,
                "_b": pa.array((vid % num_buckets).astype(np.int32)),
            }
        )

    def doc_side(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "vec_id": pa.array(did),
                "lang": batch["lang"],
                "embedding": pa.nulls(len(did), pa.list_(pa.float32())),
                "_b": pa.array((did % num_buckets).astype(np.int32)),
            }
        )

    def per_bucket(t: pa.Table) -> pa.Table:
        import pandas as pd
        import pyarrow.compute as pc

        empty = pa.table({"lang": pa.array([], pa.string()),
                          "dim": pa.array([], pa.int64()),
                          "sum_q": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64())})
        e_col = t["embedding"]
        if isinstance(e_col, pa.ChunkedArray):
            e_col = e_col.combine_chunks()
        is_doc = np.asarray(pc.is_valid(t["lang"]))
        vid = t["vec_id"].to_numpy(zero_copy_only=False)
        dids = vid[is_doc]
        if len(dids) == 0:
            return empty
        langs = t["lang"].to_pandas().to_numpy(dtype=object)[is_doc]
        o = np.argsort(dids, kind="stable")
        dids, langs = dids[o], langs[o]
        emb_rows = np.flatnonzero(~is_doc)
        vids = vid[emb_rows]
        pos = np.minimum(np.searchsorted(dids, vids), len(dids) - 1)
        hit = dids[pos] == vids                          # inner-join semantics
        emb_rows = emb_rows[hit]
        lang_of = langs[pos[hit]]
        sub = e_col.take(pa.array(emb_rows))
        off = np.asarray(sub.offsets, dtype=np.int64)
        counts = off[1:] - off[:-1]
        vals = np.asarray(sub.values, dtype=np.float64)   # f32 -> f64 exact
        if len(vals) == 0:
            return empty
        q = np.floor(vals * CENTROID_SCALE).astype(np.int64)
        lc, lu = pd.factorize(np.repeat(lang_of, counts))
        dim = (np.arange(len(vals), dtype=np.int64)
               - np.repeat(off[:-1], counts) + 1)         # 1-based
        d_max = int(dim.max())
        key = lc.astype(np.int64) * d_max + (dim - 1)
        sums = np.zeros(len(lu) * d_max, dtype=np.int64)
        np.add.at(sums, key, q)                           # exact int64
        cnts = np.bincount(key, minlength=len(lu) * d_max).astype(np.int64)
        nz = np.flatnonzero(cnts)
        return pa.table(
            {
                "lang": pa.array(np.asarray(lu, dtype=object).take(nz // d_max), type=pa.string()),
                "dim": pa.array(nz % d_max + 1),
                "sum_q": pa.array(sums[nz]),
                "n": pa.array(cnts[nz]),
            }
        )

    both = emb.map_batches(emb_side, batch_format="pyarrow").union(
        docs.map_batches(doc_side, batch_format="pyarrow"))
    out = (
        bucket_exchange(both, "_b", per_bucket)
        .groupby(["lang", "dim"])
        .sum(["sum_q", "n"])
    )
    return out.map_batches(
        lambda b: b.rename_columns(["lang", "dim", "sum_q", "n"]),
        batch_format="pyarrow",
    )


def lang_centroids_sql() -> str:
    """DuckDB oracle for embedding_lang_centroids."""
    return (
        "WITH e AS (SELECT vec_id, unnest(embedding) AS x, "
        "generate_subscripts(embedding, 1) AS dim FROM embeddings), "
        "j AS (SELECT d.lang, e.dim, "
        f"CAST(floor(CAST(e.x AS DOUBLE) * {CENTROID_SCALE}) AS BIGINT) AS q "
        "FROM e JOIN documents d ON d.doc_id = e.vec_id) "
        "SELECT lang, CAST(dim AS BIGINT) AS dim, CAST(sum(q) AS BIGINT) AS sum_q, "
        "count(*) AS n FROM j GROUP BY lang, dim"
    )


# ---------------------------------------------------------------------------
# Cross-document n-gram novelty (the inverse of the dup-span signal)
# ---------------------------------------------------------------------------

NOVELTY_N = 3


def doc_ngram_novelty(sf_dir: str, n: int = NOVELTY_N, num_buckets: int = 64):
    """(doc_id, n_uniq, n_gram, novelty_milli): of each document's DISTINCT
    word n-grams, how many appear in NO other document — high novelty =
    original text, low = boilerplate (the complement of doc_dup_spans,
    reduced to a per-doc score a quality filter can threshold).

    Scale shape: per-batch distinct (doc, gram-hash) pairs -> exchange 1
    keyed by gram bucket (df per gram is final within its bucket, so the
    unique-flag is decided there and immediately RE-collapsed to per-doc
    partials) -> exchange 2 keyed by doc bucket merges partials with the
    zero base rows. Both exchanges carry ~16 B/row; floors are integer, so
    the DuckDB replay (literal gram strings) is exact."""
    ds = _read(sf_dir, ["doc_id", "text"])

    def pairs(batch: pa.Table) -> pa.Table:
        texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        g, rid = _word_gram_hashes(texts, n)
        h = g.view(np.int64)
        key = np.unique(np.stack([did[rid], h]), axis=1)  # per-doc distinct
        return pa.table(
            {
                "doc_id": pa.array(key[0]),
                "h": pa.array(key[1]),
                "_b": pa.array(((key[1] % num_buckets + num_buckets) % num_buckets).astype(np.int32)),
            }
        )

    def per_gram_bucket(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        h = t["h"].to_numpy(zero_copy_only=False)
        o = np.argsort(h, kind="stable")
        hs, ds_ = h[o], did[o]
        new = np.r_[True, hs[1:] != hs[:-1]]
        gid = np.cumsum(new) - 1
        df = np.bincount(gid)
        uniq = (df[gid] == 1).astype(np.int64)
        # collapse to per-doc partials before exchange 2
        u, inv = np.unique(ds_, return_inverse=True)
        n_uniq = np.zeros(len(u), dtype=np.int64)
        np.add.at(n_uniq, inv, uniq)
        n_gram = np.bincount(inv, minlength=len(u)).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(u),
                "n_uniq": pa.array(n_uniq),
                "n_gram": pa.array(n_gram),
                "_b2": pa.array((u % num_buckets).astype(np.int32)),
            }
        )

    def base(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        z = np.zeros(len(did), dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(did),
                "n_uniq": pa.array(z),
                "n_gram": pa.array(z),
                "_b2": pa.array((did % num_buckets).astype(np.int32)),
            }
        )

    def merge(t: pa.Table) -> pa.Table:
        g = t.group_by("doc_id").aggregate([("n_uniq", "sum"), ("n_gram", "sum")])
        nu = g["n_uniq_sum"].to_numpy(zero_copy_only=False)
        ng = g["n_gram_sum"].to_numpy(zero_copy_only=False)
        nov = np.where(ng > 0, (1000 * nu) // np.maximum(ng, 1), 0).astype(np.int64)
        return pa.table(
            {
                "doc_id": g["doc_id"],
                "n_uniq": pa.array(nu),
                "n_gram": pa.array(ng),
                "novelty_milli": pa.array(nov),
            }
        )

    grams = bucket_exchange(ds.map_batches(pairs, batch_format="pyarrow"), "_b", per_gram_bucket)
    return bucket_exchange(grams.union(_read(sf_dir, ["doc_id"]).map_batches(base, batch_format="pyarrow")),
                           "_b2", merge)


def ngram_novelty_sql(n: int = NOVELTY_N) -> str:
    """DuckDB oracle for doc_ngram_novelty (literal gram strings)."""
    hi = n - 1
    return (
        r"WITH words AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS w FROM documents), "
        f"g AS (SELECT DISTINCT doc_id, array_to_string(w[CAST(i AS BIGINT):CAST(i+{hi} AS BIGINT)], ' ') AS gram "
        f"FROM words, unnest(range(1, len(w) - {hi - 1})) AS t(i)), "
        "df AS (SELECT gram, count(*) AS df FROM g GROUP BY gram), "
        "s AS (SELECT g.doc_id, count(*) AS n_gram, "
        "sum(CASE WHEN df.df = 1 THEN 1 ELSE 0 END) AS n_uniq "
        "FROM g JOIN df USING (gram) GROUP BY 1) "
        "SELECT d.doc_id, coalesce(CAST(s.n_uniq AS BIGINT), 0) AS n_uniq, "
        "coalesce(CAST(s.n_gram AS BIGINT), 0) AS n_gram, "
        "CAST(coalesce((1000 * s.n_uniq) // s.n_gram, 0) AS BIGINT) AS novelty_milli "
        "FROM documents d LEFT JOIN s USING (doc_id)"
    )


# ---------------------------------------------------------------------------
# Global percentile rank WITHOUT a global sort (histogram-CDF broadcast)
# ---------------------------------------------------------------------------

def doc_length_percentile(sf_dir: str):
    """(doc_id, n_chars, pct_milli): each document's global percent_rank by
    text length in integer milli-units — pct = floor(1000 * (rank-1)
    / (N-1)) with rank() (min-rank) tie semantics, i.e. exactly DuckDB's
    percent_rank scaled and floored.

    Scale shape: the global window never sorts the data — lengths are
    bounded small ints, so a value histogram (doc_length_quantiles
    machinery) reduces 10^12 rows to <= max_len buckets; its EXCLUSIVE
    prefix sum IS the rank-1 function, broadcast to a stateless second
    pass. Two tiny aggregates + two streaming passes, zero shuffles."""
    ds = _read(sf_dir, ["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        nc = _chars(batch)
        uniq, cnt = np.unique(nc, return_counts=True)
        return pa.table({"len": pa.array(uniq.astype(np.int64)), "cnt": pa.array(cnt.astype(np.int64))})

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("len").sum("cnt")
        .to_pandas()   # <= distinct-length rows, never data rows
        .rename(columns={"sum(cnt)": "cnt"})
        .sort_values("len")
    )
    n = int(hist["cnt"].sum())
    lens = hist["len"].to_numpy()
    below = np.concatenate([[0], hist["cnt"].cumsum().to_numpy()[:-1]])  # rank-1

    def rank(batch: pa.Table) -> pa.Table:
        nc = _chars(batch).astype(np.int64)
        r = below[np.searchsorted(lens, nc)]
        pct = (1000 * r) // max(n - 1, 1)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars": pa.array(nc),
                "pct_milli": pa.array(pct.astype(np.int64)),
            }
        )

    return ds.map_batches(rank, batch_format="pyarrow")


def length_percentile_sql() -> str:
    """DuckDB oracle for doc_length_percentile (rank window, same floor)."""
    return (
        "SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars, "
        "CAST((1000 * (rank() OVER (ORDER BY length(text)) - 1)) "
        "// greatest(count(*) OVER () - 1, 1) AS BIGINT) AS pct_milli "
        "FROM documents"
    )


# ---------------------------------------------------------------------------
# Deterministic bottom-k uniform sample (priority sampling by fixed hash)
# ---------------------------------------------------------------------------

BOTTOMK_K = 100


def doc_bottomk_sample(sf_dir: str, k: int = BOTTOMK_K):
    """The ``k`` docs with the SMALLEST value of the bijective mix
    h(doc_id) = (doc_id * MULT + SEED) mod 2^64 — a deterministic uniform
    k-sample of the corpus (bottom-k / priority sampling, the classic
    mergeable-sample primitive): h is a fixed bijection of doc_id, so the
    sample is identical under any partitioning, merges across shards by a
    plain k-way min, and stays consistent under incremental ingest (a new
    doc enters iff its h beats the current k-th smallest — no resampling).
    The inspect-1000-random-docs tool every corpus pipeline needs, without
    RNG state (the doc_sample_rebalance gate generalized from a rate to an
    exact count).

    Scale shape: each batch reduces to its k smallest (doc_id, h) rows via
    np.argpartition (no batch sort); the driver merges <= k x n_blocks
    candidate rows — k-bounded by construction, never data-sized. The
    reference's random-thinning analog is the sampling branch of its
    read stage (read_data_to_check.r:121-143 keeps one row per duplicate
    neighbourhood); DuckDB twin: ORDER BY h LIMIT k."""
    ds = _read(sf_dir, ["doc_id"])

    def partial(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        h = did.astype(np.uint64) * np.uint64(_SAMPLE_MULT) + np.uint64(_SAMPLE_SEED)
        if len(h) > k:
            idx = np.argpartition(h, k)[:k]
            did, h = did[idx], h[idx]
        return pa.table({"doc_id": pa.array(did), "h": pa.array(h)})

    cand = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    order = np.lexsort((cand["doc_id"].to_numpy(), cand["h"].to_numpy()))[:k]
    return cand.iloc[order].reset_index(drop=True)[["doc_id", "h"]]


def bottomk_sample_sql(k: int = BOTTOMK_K) -> str:
    """DuckDB replay of doc_bottomk_sample (HUGEINT mod-2^64 mix)."""
    two64 = 1 << 64
    return (
        f"SELECT doc_id, CAST((CAST(doc_id AS HUGEINT) * {_SAMPLE_MULT} + "
        f"{_SAMPLE_SEED}) % {two64} AS UBIGINT) AS h "
        f"FROM documents ORDER BY h, doc_id LIMIT {k}"
    )


# ---------------------------------------------------------------------------
# Count-Min Sketch word frequencies (Cormode & Muthukrishnan 2005)
# ---------------------------------------------------------------------------

CMS_DEPTH = 4          # d pairwise-independent rows
CMS_LOG2_WIDTH = 10    # w = 1024 buckets per row (gate-sized; widen at scale)
# fixed odd multipliers / offsets per row; the bucket of a word in row r is
# the TOP log2(w) bits of (h * A_r + B_r) mod 2^64. A_r are 32-bit odd
# constants (xxhash/Knuth primes) so the SQL twin's HUGEINT product stays
# under 2^96 — INT128 would overflow with 64-bit multipliers.
_CMS_A = (2654435761, 2246822519, 3266489917, 668265263)
_CMS_B = (9618706967345529057, 1794715362263372909, 6364136223846793005, 2135587011510693171)
# fixed probe lexicon: the corpus-jargon words the gate reports estimates
# for (a CMS answers point queries — the candidate list is the caller's)
CMS_PROBE_WORDS = (
    "table", "row", "value", "hash", "scan", "sort", "merge", "batch",
    "key", "agg", "window", "part", "fast", "slow", "line", "spark",
    "the", "a", "pipeline", "quantile",
)


def doc_cms_wordcounts(sf_dir: str, num_buckets: int = 64):
    """(word, est) — Count-Min Sketch upper-bound frequency estimates for
    the fixed probe lexicon over all corpus words: est(w) = min over d rows
    of sketch[r][bucket_r(w)]. The sketch is a d x w int64 matrix — the
    bounded-memory substitute for a full word-count table when the
    vocabulary itself is too large to shuffle (the scale path behind
    doc_top_words' exact combiner). Estimates are exact upper bounds:
    est >= true count always, with overestimates only from bucket
    collisions — entirely deterministic here (fixed row constants), so the
    DuckDB twin replays the sketch bit-for-bit from the literal words.

    Scale shape: each batch bincounts its words into a LOCAL d x w partial
    (the only thing emitted — d*w rows max per batch, corpus-size
    independent); one bucket-keyed exchange sums partials per (row,
    bucket); the driver collects exactly d*w final cells and answers the
    probe queries from the in-memory matrix. No word ever crosses the
    exchange."""
    ds = _read(sf_dir, ["text"])
    depth, width = CMS_DEPTH, 1 << CMS_LOG2_WIDTH
    shift = np.uint64(64 - CMS_LOG2_WIDTH)

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        g1, _ = _word_gram_hashes(texts, 1)
        rows, buckets, counts = [], [], []
        for r in range(depth):
            b = ((g1 * np.uint64(_CMS_A[r]) + np.uint64(_CMS_B[r])) >> shift).astype(np.int64)
            c = np.bincount(b, minlength=width).astype(np.int64)
            nz = np.flatnonzero(c)
            rows.append(np.full(len(nz), r, dtype=np.int64))
            buckets.append(nz.astype(np.int64))
            counts.append(c[nz])
        rr = np.concatenate(rows)
        bb = np.concatenate(buckets)
        return pa.table(
            {
                "r": pa.array(rr),
                "bucket": pa.array(bb),
                "c": pa.array(np.concatenate(counts)),
                "_b": pa.array(((rr << CMS_LOG2_WIDTH | bb) % num_buckets).astype(np.int32)),
            }
        )

    cells = (
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                        "_b", sum_merge(["r", "bucket"], ["c"]))
        .to_pandas()   # exactly <= d x w rows by construction
    )
    sketch = np.zeros((depth, width), dtype=np.int64)
    sketch[cells["r"].to_numpy(), cells["bucket"].to_numpy()] = cells["c"].to_numpy()

    words = list(CMS_PROBE_WORDS)
    h = np.full(len(words), _WORD_HASH_SEED, dtype=np.uint64)
    maxlen = max(len(w) for w in words)
    for j in range(maxlen):
        m = np.asarray([len(w) > j for w in words])
        hm = h[m] * _WORD_HASH_MULT
        np.add(hm, np.asarray([ord(w[j]) for w in words if len(w) > j], dtype=np.uint64),
               out=hm, casting="unsafe")
        h[m] = hm
    # _word_gram_hashes chains even a 1-gram once more (g = SEED*MULT + h);
    # the probe must hash through the identical chain to hit the same buckets
    chain = np.uint64((int(_WORD_HASH_SEED) * int(_WORD_HASH_MULT)) % (1 << 64))
    np.add(h, chain, out=h, casting="unsafe")
    est = np.min(
        np.stack([
            sketch[r, ((h * np.uint64(_CMS_A[r]) + np.uint64(_CMS_B[r])) >> shift).astype(np.int64)]
            for r in range(depth)
        ]),
        axis=0,
    )
    import pandas as pd

    return pd.DataFrame({"word": words, "est": est.astype(np.int64)})


def cms_wordcounts_sql() -> str:
    """DuckDB replay of doc_cms_wordcounts: the word FNV chain via
    list_reduce in HUGEINT mod-2^64, the per-row affine mix, the top-bit
    bucket fold, the d x w summed sketch, and the min-over-rows probe —
    the entire sketch replayed exactly from the literal words."""
    two64 = 1 << 64
    width_div = 1 << (64 - CMS_LOG2_WIDTH)
    chain = (int(_WORD_HASH_SEED) * int(_WORD_HASH_MULT)) % two64
    fnv = (
        "(({chain} + list_reduce(list_prepend(CAST({seed} AS HUGEINT), "
        "list_transform(range(1, length(w)+1), i -> CAST(ascii(substr(w, i, 1)) AS HUGEINT))), "
        "(h, b) -> (h * {mult} + b) % {two64})) % {two64})"
    ).format(seed=int(_WORD_HASH_SEED), mult=int(_WORD_HASH_MULT), two64=two64, chain=chain)
    rows = ", ".join(
        f"(({fnv} * {_CMS_A[r]} + {_CMS_B[r]}) % {two64}) // {width_div}" for r in range(CMS_DEPTH)
    )
    probes = ", ".join(f"'{w}'" for w in CMS_PROBE_WORDS)
    return (
        rf"WITH words AS (SELECT unnest(regexp_extract_all(text, '\S+')) AS w FROM documents), "
        f"hashed AS (SELECT w, unnest([{rows}]) AS bucket, "
        f"unnest(range(0, {CMS_DEPTH})) AS r FROM words), "
        "sketch AS (SELECT r, bucket, count(*) AS c FROM hashed GROUP BY r, bucket), "
        f"probe AS (SELECT w, unnest([{rows}]) AS bucket, "
        f"unnest(range(0, {CMS_DEPTH})) AS r FROM (SELECT unnest([{probes}]) AS w)) "
        "SELECT probe.w AS word, CAST(min(coalesce(sketch.c, 0)) AS BIGINT) AS est "
        "FROM probe LEFT JOIN sketch ON probe.r = sketch.r AND probe.bucket = sketch.bucket "
        "GROUP BY probe.w"
    )


# ---------------------------------------------------------------------------
# HyperLogLog register sketch (Flajolet et al. 2007) for per-language
# distinct-word counting at sketch cost
# ---------------------------------------------------------------------------

HLL_P = 8                     # 2^p = 256 registers per language
_HLL_RANK_BITS = 54           # rank over the LOW 54 bits (BIGINT-safe in SQL)
# avalanche finalizer (xorshift-multiply, SplitMix64 shape) applied before
# register/rank extraction: the word FNV chain pushes byte differences
# upward only ~40 bits per step and is affine in the input bytes, so
# sequential vocabularies would otherwise correlate in the TOP register
# bits (observed: +24% cardinality bias). Both multipliers are public
# constants < 2^63 (xorshift64*/xxhash) so the SQL twin's HUGEINT products
# stay inside INT128; the xors/shifts replay in native UBIGINT.
_HLL_FIN_K1 = 0x2545F4914F6CDD1D
_HLL_FIN_K2 = 0x27D4EB2F165667C5


def _hll_finalize(h: np.ndarray) -> np.ndarray:
    z = h.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_HLL_FIN_K1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_HLL_FIN_K2)
    z ^= z >> np.uint64(31)
    return z


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Exact vectorized bit length of uint64 values (0 -> 0). float log2
    would misround near 2^53+ boundaries; this is a 6-step binary search."""
    x = x.copy()
    bl = np.zeros(len(x), dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = (x >> np.uint64(s)) > 0
        bl[m] += s
        x[m] >>= np.uint64(s)
    bl[x > 0] += 1
    return bl


def doc_vocab_hll(sf_dir: str, num_buckets: int = 64):
    """(lang, register, max_rank): the HyperLogLog register table over each
    language's word-hash stream — the mergeable bounded-memory substitute
    for doc_vocab_size's exact COUNT(DISTINCT) when even the distinct
    vocabulary is too large to exchange. register = top HLL_P bits of the
    word hash; rank = leading-zero count of the low _HLL_RANK_BITS bits
    + 1 (54 bits so the SQL twin's bin() replay stays inside BIGINT). The
    registers ARE the sketch: unions across shards/runs are plain per-cell
    max (tested), and hll_estimate() turns them into the cardinality
    estimate. The twin replays register + rank bit-exactly from the
    literal words via the same FNV chain.

    Scale shape: each batch collapses to <= n_langs x 2^p local register
    maxima (np.maximum-reduceat over a lexsort); ONE bucket-keyed exchange
    (register % B — all partials of a cell co-locate) makes per-cell max
    final. Nothing word-sized ever crosses the wire."""
    import pandas as pd

    ds = _read(sf_dir, ["lang", "text"])
    mask = np.uint64((1 << _HLL_RANK_BITS) - 1)
    reg_shift = np.uint64(64 - HLL_P)

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        g1, rid = _word_gram_hashes(texts, 1)
        lang_codes, lang_uniq = pd.factorize(batch["lang"].to_pandas())
        lc = lang_codes[rid].astype(np.int64)
        m = lc >= 0
        h = _hll_finalize(g1[m])
        lc = lc[m]
        reg = (h >> reg_shift).astype(np.int64)
        rank = (_HLL_RANK_BITS + 1) - _bit_length_u64(h & mask)
        key = lc << np.int64(HLL_P) | reg
        order = np.argsort(key, kind="stable")
        ks, rs = key[order], rank[order]
        new = np.r_[True, ks[1:] != ks[:-1]]
        starts = np.flatnonzero(new)
        mx = np.maximum.reduceat(rs, starts) if len(rs) else np.empty(0, dtype=np.int64)
        ku = ks[starts] if len(ks) else np.empty(0, dtype=np.int64)
        regs = ku & ((1 << HLL_P) - 1)
        return pa.table(
            {
                "lang": pa.array(lang_uniq, type=pa.string()).take(pa.array(ku >> HLL_P)),
                "register": pa.array(regs),
                "max_rank": pa.array(mx),
                "_b": pa.array((regs % num_buckets).astype(np.int32)),
            }
        )

    def merge(t: pa.Table) -> pa.Table:
        g = t.group_by(["lang", "register"]).aggregate([("max_rank", "max")])
        return pa.table(
            {"lang": g["lang"], "register": g["register"], "max_rank": g["max_rank_max"]}
        )

    return (
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "_b", merge)
    )


def hll_estimate(registers: "pd.DataFrame") -> dict[str, float]:
    """Cardinality estimate per language from doc_vocab_hll's register
    table (standard HLL: alpha_m * m^2 / sum 2^-M[j], with the small-range
    linear-counting correction). Driver-side arithmetic over <= n_langs x
    2^p rows — diagnostics, not part of the hash-checked surface."""
    m = 1 << HLL_P
    alpha = 0.7213 / (1 + 1.079 / m)
    out: dict[str, float] = {}
    for lang, part in registers.groupby("lang"):
        regs = np.zeros(m, dtype=np.int64)
        regs[part["register"].to_numpy()] = part["max_rank"].to_numpy()
        est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
        zeros = int((regs == 0).sum())
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)
        out[str(lang)] = float(est)
    return out


def vocab_hll_sql() -> str:
    """DuckDB replay of doc_vocab_hll: same chained word FNV in HUGEINT,
    register = top bits, rank = 55 - bit_length(low 54 bits) computed
    exactly via bin() string length."""
    two64 = 1 << 64
    chain = (int(_WORD_HASH_SEED) * int(_WORD_HASH_MULT)) % two64
    fnv = (
        "(({chain} + list_reduce(list_prepend(CAST({seed} AS HUGEINT), "
        "list_transform(range(1, length(w)+1), i -> CAST(ascii(substr(w, i, 1)) AS HUGEINT))), "
        "(h, b) -> (h * {mult} + b) % {two64})) % {two64})"
    ).format(seed=int(_WORD_HASH_SEED), mult=int(_WORD_HASH_MULT), two64=two64, chain=chain)
    reg_div = 1 << (64 - HLL_P)
    rank_mod = 1 << _HLL_RANK_BITS
    top = _HLL_RANK_BITS + 1
    return (
        rf"WITH t AS (SELECT lang, unnest(regexp_extract_all(text, '\S+')) AS w "
        "FROM documents WHERE lang IS NOT NULL), "
        f"h0 AS (SELECT lang, CAST({fnv} AS UBIGINT) AS u0 FROM t), "
        "h1 AS (SELECT lang, xor(u0, u0 >> 30) AS u1 FROM h0), "
        f"h2 AS (SELECT lang, CAST((CAST(u1 AS HUGEINT) * {_HLL_FIN_K1}) % {two64} AS UBIGINT) AS u2 FROM h1), "
        "h3 AS (SELECT lang, xor(u2, u2 >> 27) AS u3 FROM h2), "
        f"h4 AS (SELECT lang, CAST((CAST(u3 AS HUGEINT) * {_HLL_FIN_K2}) % {two64} AS UBIGINT) AS u4 FROM h3), "
        "h AS (SELECT lang, CAST(xor(u4, u4 >> 31) AS HUGEINT) AS hv FROM h4), "
        f"r AS (SELECT lang, CAST(hv // {reg_div} AS BIGINT) AS register, "
        f"CASE WHEN hv % {rank_mod} = 0 THEN {top} "
        f"ELSE {top} - length(ltrim(bin(CAST(hv % {rank_mod} AS BIGINT)), '0')) END AS rank "
        "FROM h) "
        "SELECT lang, register, CAST(max(rank) AS BIGINT) AS max_rank "
        "FROM r GROUP BY lang, register"
    )


BOTTOMK_PER_LANG = 10


def doc_bottomk_per_lang(sf_dir: str, k: int = BOTTOMK_PER_LANG):
    """Per-language bottom-k sample: for every lang, the ``k`` docs with the
    smallest h(doc_id) — doc_bottomk_sample stratified by group, i.e. the
    deterministic 'inspect k random docs from EVERY language' primitive
    (rebalanced-eyeball sets, per-stratum eval slices). Same mergeable
    bottom-k invariant per stratum.

    Scale shape: each batch reduces to <= k rows per lang present (one
    lexsort + rank-within-group, no Python loop); the exchange then
    carries only the pre-reduced candidate stream into one tiny
    lang-keyed exchange whose per-block final pass re-applies the same
    selection. DuckDB twin: row_number() OVER (PARTITION BY lang ORDER BY
    h, doc_id) <= k."""
    import pandas as pd

    ds = _read(sf_dir, ["doc_id", "lang"])

    def topk(did: np.ndarray, lang: np.ndarray, h: np.ndarray):
        codes, uniq = pd.factorize(lang)
        order = np.lexsort((did, h, codes))
        cs = codes[order]
        new = np.r_[True, cs[1:] != cs[:-1]]
        starts = np.flatnonzero(new)
        rank = np.arange(len(order)) - starts[np.cumsum(new) - 1]
        keep = order[(rank < k) & (cs >= 0)]
        return did[keep], lang[keep], h[keep]

    def partial(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        h = did.astype(np.uint64) * np.uint64(_SAMPLE_MULT) + np.uint64(_SAMPLE_SEED)
        lang = np.asarray(batch["lang"].to_pandas(), dtype=object)
        d, l, hh = topk(did, lang, h)
        return pa.table(
            {"doc_id": pa.array(d), "lang": pa.array(l, type=pa.string()), "h": pa.array(hh)}
        )

    # the final pass re-applies the same selection (h is a function of doc_id)
    return bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "lang", partial)


def bottomk_per_lang_sql(k: int = BOTTOMK_PER_LANG) -> str:
    """DuckDB replay of doc_bottomk_per_lang."""
    two64 = 1 << 64
    return (
        "SELECT doc_id, lang, h FROM ("
        f"SELECT doc_id, lang, CAST((CAST(doc_id AS HUGEINT) * {_SAMPLE_MULT} + "
        f"{_SAMPLE_SEED}) % {two64} AS UBIGINT) AS h, "
        "row_number() OVER (PARTITION BY lang ORDER BY "
        f"(CAST(doc_id AS HUGEINT) * {_SAMPLE_MULT} + {_SAMPLE_SEED}) % {two64}, doc_id) AS rn "
        f"FROM documents WHERE lang IS NOT NULL) WHERE rn <= {k}"
    )


# ---------------------------------------------------------------------------
# Distributed least-squares fit (model fitting as aggregation)
# ---------------------------------------------------------------------------

def doc_linreg_words_chars(sf_dir: str):
    """One-row OLS fit of n_words ~ n_chars over the whole corpus — model
    fitting expressed as a distributed aggregation: the normal-equation
    moments (n, Σx, Σy, Σxy, Σx²) are exact integer partial sums (the same
    associativity trick as the kmeans int64 partials), and the closed-form
    slope/intercept are evaluated from them in exact scaled-integer
    arithmetic — floor(1000 * (nΣxy − ΣxΣy) / (nΣx² − Σx²)) — identically
    in the engine (Python bigint) and the SQL twin (HUGEINT), so even the
    fitted coefficients hash-match bit-for-bit.

    Scale shape: one streaming pass, each batch reduces to a single
    5-int row; the driver folds n_batches tiny rows. Zero shuffles; the
    moment vector is the entire cross-worker state (this is how any
    GLM/linear probe fits at 100 TB: moments or gradients as combiner
    aggregates, solve driver-side)."""
    import pandas as pd

    ds = _read(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        x = _chars(batch)                                  # n_chars per doc
        _, rid = _word_gram_hashes(
            batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"], 1
        )
        y = np.bincount(rid, minlength=batch.num_rows).astype(np.int64)
        return pa.table(
            {
                "n": pa.array([batch.num_rows]),
                "sx": pa.array([int(x.sum())]),
                "sy": pa.array([int(y.sum())]),
                "sxy": pa.array([int((x * y).sum())]),
                "sxx": pa.array([int((x * x).sum())]),
            }
        )

    m = ds.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    n, sx, sy, sxy, sxx = (int(m[c]) for c in ("n", "sx", "sy", "sxy", "sxx"))

    def tdiv(a: int, b: int) -> int:
        # DuckDB's integer // truncates toward zero; Python's floors — match
        # DuckDB so a negative slope/intercept still hash-matches the twin
        return -((-a) // b) if (a < 0) != (b < 0) else a // b

    det = n * sxx - sx * sx
    slope_milli = tdiv(1000 * (n * sxy - sx * sy), det) if det else 0
    intercept_milli = tdiv(1000 * sy - slope_milli * sx, n) if n else 0
    return pd.DataFrame(
        {
            "n": [np.int64(n)], "sx": [np.int64(sx)], "sy": [np.int64(sy)],
            "sxy": [np.int64(sxy)], "sxx": [np.int64(sxx)],
            "slope_milli": [np.int64(slope_milli)],
            "intercept_milli": [np.int64(intercept_milli)],
        }
    )


def linreg_sql() -> str:
    """DuckDB replay of doc_linreg_words_chars (HUGEINT moments + the same
    floor-division closed form)."""
    return (
        r"WITH d AS (SELECT CAST(length(text) AS HUGEINT) AS x, "
        r"CAST(length(regexp_extract_all(text, '\S+')) AS HUGEINT) AS y FROM documents), "
        "m AS (SELECT count(*)::HUGEINT AS n, sum(x) AS sx, sum(y) AS sy, "
        "sum(x*y) AS sxy, sum(x*x) AS sxx FROM d) "
        "SELECT CAST(n AS BIGINT) AS n, CAST(sx AS BIGINT) AS sx, CAST(sy AS BIGINT) AS sy, "
        "CAST(sxy AS BIGINT) AS sxy, CAST(sxx AS BIGINT) AS sxx, "
        "CAST((1000 * (n*sxy - sx*sy)) // (n*sxx - sx*sx) AS BIGINT) AS slope_milli, "
        "CAST((1000 * sy - ((1000 * (n*sxy - sx*sy)) // (n*sxx - sx*sx)) * sx) // n AS BIGINT) AS intercept_milli "
        "FROM m"
    )


def doc_explode_tokens(sf_dir: str):
    """(doc_id, pos, token): the corpus exploded to one row per token with
    its 1-based position — the flat_map/unnest surface (row count EXPANDS
    through the operator; every other doc op contracts). Downstream of
    this shape: token-level labeling, span extraction, per-position
    alignment. Stateless, shuffle-free, embarrassingly parallel.

    DuckDB twin: unnest(regexp_extract_all) + generate_subscripts."""
    ds = _read(sf_dir, ["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        values, rid = _words(batch["text"])
        # 1-based token position within each row, counted over KEPT tokens
        new = np.r_[True, rid[1:] != rid[:-1]] if len(rid) else np.empty(0, dtype=bool)
        starts = np.flatnonzero(new)
        pos = (np.arange(len(rid)) - starts[np.cumsum(new) - 1] + 1) if len(rid) else np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(did[rid]),
                "pos": pa.array(pos.astype(np.int64)),
                "token": values,
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


def explode_tokens_sql() -> str:
    """DuckDB replay of doc_explode_tokens."""
    return (
        r"SELECT doc_id, CAST(generate_subscripts(l, 1) AS BIGINT) AS pos, "
        r"unnest(l) AS token FROM "
        r"(SELECT doc_id, regexp_extract_all(text, '\S+') AS l FROM documents)"
    )


# ---------------------------------------------------------------------------
# Bloom-filter membership sketch (the third classic sketch, after CMS and
# HLL): bounded-memory set membership for blocklist/decontamination probes
# ---------------------------------------------------------------------------

BLOOM_LOG2_M = 16                 # m = 65536 bits (8 KiB broadcast)
BLOOM_K = 3                       # hash functions
# per-hash 32-bit odd multipliers (xxhash primes; HUGEINT-safe, same
# convention as the CMS rows) + offsets; position_j(w) = top log2(m) bits
# of (fnv1(w) * A_j + B_j) mod 2^64
_BLOOM_A = (2654435761, 2246822519, 3266489917)
_BLOOM_B = (1609587929392839161, 9650029242287828579, 2870177450012600261)


def _bloom_positions(h: np.ndarray) -> np.ndarray:
    """(k, n) bit positions for chained word hashes h (uint64)."""
    shift = np.uint64(64 - BLOOM_LOG2_M)
    return np.stack([
        ((h * np.uint64(_BLOOM_A[j]) + np.uint64(_BLOOM_B[j])) >> shift).astype(np.int64)
        for j in range(BLOOM_K)
    ])


def doc_bloom_probe(sf_dir: str, num_buckets: int = 64):
    """(doc_id, n_hits): for every NON-eval document, how many of its
    DISTINCT words test positive against a Bloom filter built from the
    eval slice's vocabulary — doc_decontaminate's membership probe
    swapped from an exact gram broadcast to the bounded-memory sketch
    (the filter is 2^16 bits regardless of eval size; false positives are
    deterministic given the fixed hash constants, so the SQL twin —
    which replays the k affine position chains and the bit set exactly —
    hash-matches bit-for-bit, false positives included).

    Scale shape: the build side collapses each batch to its distinct bit
    positions (<= m rows), one bucket-keyed exchange dedups them, and the
    driver broadcasts ONE packed uint64 array (8 KiB) into a stateless
    streaming probe. Zero data-sized shuffles."""
    ds = _read(sf_dir, ["doc_id", "text"])

    def build_partial(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        sel = did % _EVAL_MOD == _EVAL_REM
        if not sel.any():
            e = np.empty(0, dtype=np.int64)
            return pa.table({"pos": pa.array(e), "_b": pa.array(e.astype(np.int32))})
        texts = batch.filter(pa.array(sel))["text"]
        g1, _ = _word_gram_hashes(
            texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts, 1
        )
        pos = np.unique(_bloom_positions(g1).reshape(-1))
        return pa.table({"pos": pa.array(pos), "_b": pa.array((pos % num_buckets).astype(np.int32))})

    def merge(t: pa.Table) -> pa.Table:
        return pa.table({"pos": pa.array(np.unique(t["pos"].to_numpy(zero_copy_only=False)))})

    pos = (
        bucket_exchange(ds.map_batches(build_partial, batch_format="pyarrow"), "_b", merge)
        .to_pandas()["pos"].to_numpy()   # <= m distinct bit positions
    )
    bits = np.zeros(1 << (BLOOM_LOG2_M - 6), dtype=np.uint64)   # packed 2^16 bits
    # bitwise_or.at (not fancy |=): repeated word indices must all land
    np.bitwise_or.at(bits, pos >> 6, np.uint64(1) << (pos.astype(np.uint64) & np.uint64(63)))

    def probe(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        sel = did % _EVAL_MOD != _EVAL_REM
        bt = batch.filter(pa.array(sel))
        texts = bt["text"].combine_chunks() if isinstance(bt["text"], pa.ChunkedArray) else bt["text"]
        g1, rid = _word_gram_hashes(texts, 1)
        n_rows = bt.num_rows
        if len(g1):
            # distinct words per doc (membership is per TYPE, not token)
            key = np.stack([rid, g1.view(np.int64)])
            uniq = np.unique(key, axis=1)
            rid_u, h_u = uniq[0], uniq[1].view(np.uint64)
            p = _bloom_positions(h_u)
            hit = np.ones(len(h_u), dtype=bool)
            for j in range(BLOOM_K):
                hit &= (bits[p[j] >> 6] >> (p[j].astype(np.uint64) & np.uint64(63))) & np.uint64(1) > 0
            n_hits = np.bincount(rid_u[hit], minlength=n_rows).astype(np.int64)
        else:
            n_hits = np.zeros(n_rows, dtype=np.int64)
        return pa.table(
            {
                "doc_id": bt["doc_id"],
                "n_hits": pa.array(n_hits),
            }
        )

    return ds.map_batches(probe, batch_format="pyarrow")


def bloom_probe_sql() -> str:
    """DuckDB replay of doc_bloom_probe: the chained word FNV, the k affine
    position mixes, the distinct bit-position set from the eval slice, and
    the all-k membership test per distinct (doc, word)."""
    two64 = 1 << 64
    chain = (int(_WORD_HASH_SEED) * int(_WORD_HASH_MULT)) % two64
    fnv = (
        "(({chain} + list_reduce(list_prepend(CAST({seed} AS HUGEINT), "
        "list_transform(range(1, length(w)+1), i -> CAST(ascii(substr(w, i, 1)) AS HUGEINT))), "
        "(h, b) -> (h * {mult} + b) % {two64})) % {two64})"
    ).format(seed=int(_WORD_HASH_SEED), mult=int(_WORD_HASH_MULT), two64=two64, chain=chain)
    div = 1 << (64 - BLOOM_LOG2_M)
    poss = ", ".join(
        f"((hv * {_BLOOM_A[j]} + {_BLOOM_B[j]}) % {two64}) // {div}" for j in range(BLOOM_K)
    )
    return (
        rf"WITH t AS (SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w FROM documents), "
        f"h AS (SELECT DISTINCT doc_id, {fnv} AS hv FROM t), "
        f"p AS (SELECT doc_id, hv, unnest([{poss}]) AS pos, "
        f"unnest(range(0, {BLOOM_K})) AS j FROM h), "
        f"bits AS (SELECT DISTINCT pos FROM p WHERE doc_id % {_EVAL_MOD} = {_EVAL_REM}), "
        f"probe AS (SELECT doc_id, hv, count(*) = {BLOOM_K} AS hit "
        "FROM p LEFT JOIN bits USING (pos) "
        f"WHERE doc_id % {_EVAL_MOD} <> {_EVAL_REM} AND bits.pos IS NOT NULL "
        "GROUP BY doc_id, hv HAVING count(*) = " + str(BLOOM_K) + ") "
        f"SELECT d.doc_id, CAST(coalesce(n.c, 0) AS BIGINT) AS n_hits FROM "
        f"(SELECT doc_id FROM documents WHERE doc_id % {_EVAL_MOD} <> {_EVAL_REM}) d "
        "LEFT JOIN (SELECT doc_id, count(*) AS c FROM probe GROUP BY doc_id) n USING (doc_id)"
    )


LENPROP_LOG2_DENOM = 10    # keep probability = min(1, n_chars / 1024)


def doc_sample_lenprop(sf_dir: str, log2_denom: int = LENPROP_LOG2_DENOM):
    """Length-proportional deterministic sample: keep a doc with
    probability min(1, n_chars / 2^d) — importance sampling by size (the
    token-budget-weighted selection primitive: long docs are rarer and
    carry more tokens, so a size-biased subsample preserves token mass
    better than a uniform one). The gate is EXACT integer math: keep iff
    top-d bits of h(doc_id) < n_chars, i.e. h/2^64 < n_chars/2^d with no
    float anywhere — same h as doc_bottomk_sample, so it inherits the
    partition-invariance and incremental-ingest consistency. Stateless,
    shuffle-free. DuckDB twin: hv // 2^(64-d) < length(text)."""
    ds = _read(sf_dir, ["doc_id", "text"])
    shift = np.uint64(64 - log2_denom)

    def samp(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        nc = _chars(batch)
        h = did.astype(np.uint64) * np.uint64(_SAMPLE_MULT) + np.uint64(_SAMPLE_SEED)
        keep = (h >> shift).astype(np.int64) < nc
        return pa.table(
            {
                "doc_id": pa.array(did[keep]),
                "n_chars": pa.array(nc[keep].astype(np.int64)),
            }
        )

    return ds.map_batches(samp, batch_format="pyarrow")


def sample_lenprop_sql(log2_denom: int = LENPROP_LOG2_DENOM) -> str:
    """DuckDB replay of doc_sample_lenprop."""
    two64 = 1 << 64
    div = 1 << (64 - log2_denom)
    return (
        f"SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars FROM documents "
        f"WHERE (CAST(doc_id AS HUGEINT) * {_SAMPLE_MULT} + {_SAMPLE_SEED}) % {two64} "
        f"// {div} < length(text)"
    )


def doc_normalize(sf_dir: str):
    """(doc_id, text_norm): canonical text normalization — lowercase +
    whitespace runs collapsed to single spaces + trimmed — the
    value-mutating cleanup map every ingest runs before hashing/dedup
    (the scrub stage's shape without the rule chain; reference analog:
    the value-rescale map at read, read_data_to_check.r:83-84).
    Stateless streaming pass, Arrow kernels only (utf8_lower +
    regex replace), zero shuffles."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, ["doc_id", "text"])

    def norm(batch: pa.Table) -> pa.Table:
        t = batch["text"]
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        t = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(pc.utf8_lower(t), r"\s+", " ")
        )
        return pa.table({"doc_id": batch["doc_id"], "text_norm": t})

    return ds.map_batches(norm, batch_format="pyarrow")


def normalize_sql() -> str:
    """DuckDB replay of doc_normalize."""
    return (
        r"SELECT doc_id, trim(regexp_replace(lower(text), '\s+', ' ', 'g')) "
        "AS text_norm FROM documents"
    )


# ---------------------------------------------------------------------------
# Inverted index build (the IR artifact behind BM25 / decontam probes)
# ---------------------------------------------------------------------------

INDEX_MIN_DF = 5


def doc_inverted_index(sf_dir: str, min_df: int = INDEX_MIN_DF,
                       num_buckets: int = 64):
    """(term, df, cf, postings): the classic inverted index over the
    corpus — per term, document frequency, collection frequency, and the
    full posting list serialized as 'doc:tf,doc:tf,...' in doc_id order.
    doc_bm25_topk consumes df/tf implicitly per query; this MATERIALIZES
    the reusable index artifact itself (what a search/decontam service
    would ship).

    Scale shape: the documents table holds one row per doc, so each
    (term, doc, tf) triple is FINAL at the batch that contains the doc —
    no partial merge, just per-batch tokenize + local (term, doc) counts.
    ONE term-bucket exchange co-locates every posting of a term; inside a
    bucket, df/cf and the doc-ordered posting string are per-term final,
    and the min_df gate is decidable locally. Posting strings are the
    term's df entries long — vocabulary-distributed rows, never a
    corpus-sized driver object.

    The DuckDB twin (inverted_index_sql) replays tokenize -> unnest ->
    string_agg(ORDER BY doc_id) over the literal strings — exact string
    equality, so the gate hash-matches."""
    import pandas as pd
    import pyarrow.compute as pc

    ds = _read(sf_dir, ["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        words, rid = _words(batch["text"])
        words = words.to_numpy(zero_copy_only=False)
        if not len(rid):
            return pa.table({"term": pa.array([], type=pa.string()),
                             "doc_id": pa.array([], type=pa.int64()),
                             "tf": pa.array([], type=pa.int64()),
                             "_b": pa.array([], type=pa.int32())})
        codes, uniq_words = pd.factorize(words)
        key = codes.astype(np.int64) * len(doc) + rid
        ukey, tf = np.unique(key, return_counts=True)
        wi = (ukey // len(doc)).astype(np.int64)
        di = doc[(ukey % len(doc)).astype(np.int64)]
        terms = uniq_words[wi]
        b = (pd.util.hash_array(terms.astype(object)) % num_buckets).astype(np.int32)
        return pa.table(
            {
                "term": pa.array(terms, type=pa.string()),
                "doc_id": pa.array(di),
                "tf": pa.array(tf.astype(np.int64)),
                "_b": pa.array(b),
            }
        )

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.sort_by([("term", "ascending"), ("doc_id", "ascending")])
        term = t["term"].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, term[1:] != term[:-1]])
        ends = np.r_[starts[1:], len(term)]
        cf = np.add.reduceat(t["tf"].to_numpy(), starts).astype(np.int64)
        keep = ends - starts >= min_df
        starts, ends, cf = starts[keep], ends[keep], cf[keep]
        part = pc.binary_join_element_wise(pc.cast(t["doc_id"], pa.string()),
                                           pc.cast(t["tf"], pa.string()), ":").to_pylist()
        return pa.table(
            {
                "term": pa.array(term[starts], type=pa.string()),
                "df": pa.array((ends - starts).astype(np.int64)),
                "cf": pa.array(cf),
                "postings": pa.array([",".join(part[s_:e_]) for s_, e_ in zip(starts, ends)], type=pa.string()),
            }
        )

    return bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "_b", per_bucket)


def inverted_index_sql(min_df: int = INDEX_MIN_DF) -> str:
    """DuckDB replay of doc_inverted_index (literal-string terms)."""
    return (
        r"WITH t AS (SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w "
        "FROM documents), "
        "tf AS (SELECT w, doc_id, count(*) AS tf FROM t GROUP BY w, doc_id) "
        "SELECT w AS term, CAST(count(*) AS BIGINT) AS df, "
        "CAST(sum(tf) AS BIGINT) AS cf, "
        "string_agg(doc_id || ':' || tf, ',' ORDER BY doc_id) AS postings "
        f"FROM tf GROUP BY w HAVING count(*) >= {min_df}"
    )


# ---------------------------------------------------------------------------
# C4-style cross-document segment dedup (value-mutating, with reassembly)
# ---------------------------------------------------------------------------
# The C4 / RefinedWeb cleanup step the surface still lacked: drop every
# REPEATED fixed-width word segment corpus-wide (first occurrence by
# (doc_id, seg_idx) survives) and REASSEMBLE the surviving text — unlike
# doc_dup_spans, which only MARKS duplicated n-gram runs, this mutates the
# value, so the output is a cleaned corpus, not a signal column. Reference
# analog: the value-mutating scrub contract of rr_windcorr (SURVEY.md §2.7)
# applied to cross-document state instead of a rule chain.
SEG_W = 10                       # words per segment (trailing segment shorter)
_MAX_SEG_IDX = 1 << 20           # composite winner key = doc_id * 2^20 + seg_idx
# broadcast bound on the winner table (distinct segments): 5M entries =
# two int64 arrays = 80 MB per worker heap; above it the operator degrades
# to the distributed join path (same pattern as dedup_near/lm_fluency).
MAX_SEG_WINNERS_BROADCAST = 5_000_000


def _segments_of(texts: pa.Array, w: int):
    """Vectorized fixed-width word segmentation of every row.

    Returns (words, wrid, wcounts, g, srid, sidx, slen, sstart): the
    empty-filtered word array + its row ids / per-row counts, and per
    segment a 64-bit FNV chain over its words' hashes (the grouping key —
    two segments share g iff they share the word sequence, modulo 64-bit
    collisions, which the driver gate would surface as a hash mismatch
    since the SQL oracle groups by the literal segment string), the row,
    the within-row segment index, length and first-word offset."""
    n_rows = len(texts)
    words, wrid = _words(texts)
    wcounts = np.bincount(wrid, minlength=n_rows).astype(np.int64)

    # per-word FNV (same construction as _word_gram_hashes)
    data, woff, _ = string_view(words)
    starts = woff[:-1]
    lens = woff[1:] - starts
    nw = len(wrid)
    h = np.full(nw, _WORD_HASH_SEED, dtype=np.uint64)
    for j in range(int(lens.max(initial=0))):
        m = lens > j
        hm = h[m] * _WORD_HASH_MULT
        np.add(hm, data[starts[m] + j], out=hm, casting="unsafe")
        h[m] = hm

    n_segs = (wcounts + w - 1) // w
    srid = np.repeat(np.arange(n_rows, dtype=np.int64), n_segs)
    sidx = multi_arange(np.zeros(len(n_segs), dtype=np.int64), n_segs)
    row_start = np.cumsum(wcounts) - wcounts
    sstart = row_start[srid] + sidx * w
    slen = np.minimum(w, wcounts[srid] - sidx * w)
    g = np.full(len(srid), _WORD_HASH_SEED, dtype=np.uint64)
    for k in range(w):
        m = slen > k
        gm = g[m] * _WORD_HASH_MULT
        np.add(gm, h[sstart[m] + k], out=gm, casting="unsafe")
        g[m] = gm
    return words, wrid, wcounts, g, srid, sidx, slen, sstart


def _reassemble(batch: pa.Table, w: int, keep_seg_fn):
    """Shared reassembly kernel: recompute segments of a document batch,
    keep those keep_seg_fn(g, composite_key) approves, join the surviving
    words back to single-space text. Output rows with >= 1 kept segment."""
    import pyarrow.compute as pc

    did = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    words, wrid, wcounts, g, srid, sidx, slen, sstart = _segments_of(batch["text"], w)
    n_rows = len(did)
    composite = did[srid] * _MAX_SEG_IDX + sidx
    keep = keep_seg_fn(g, composite)
    kw = np.zeros(len(wrid), dtype=bool)
    kw[multi_arange(sstart[keep], slen[keep])] = True
    kept_per_row = np.bincount(wrid[kw], minlength=n_rows)
    offsets = np.concatenate([[0], np.cumsum(kept_per_row)]).astype(np.int32)
    lst = pa.ListArray.from_arrays(pa.array(offsets), words.filter(pa.array(kw)))
    joined = pc.binary_join(lst, " ")
    n_kept = np.bincount(srid[keep], minlength=n_rows).astype(np.int64)
    n_segs_row = np.bincount(srid, minlength=n_rows).astype(np.int64)
    nz = n_kept > 0
    return pa.table(
        {
            "doc_id": pa.array(did[nz]),
            "text_dedup": joined.filter(pa.array(nz)),
            "n_kept": pa.array(n_kept[nz]),
            "n_segs": pa.array(n_segs_row[nz]),
        }
    )


def doc_segment_dedup(sf_dir: str, w: int = SEG_W, num_buckets: int = 64,
                      max_broadcast: int = MAX_SEG_WINNERS_BROADCAST):
    """(doc_id, text_dedup, n_kept, n_segs): C4-style global segment-level
    dedup. Text is split into fixed windows of ``w`` words; a segment
    survives iff it is the corpus-wide FIRST occurrence of its word
    sequence (min (doc_id, seg_idx)); surviving segments re-join to the
    cleaned text. Documents whose every segment loses disappear (C4 drops
    them too).

    Scale shape: pass 1 ships only (segment_hash, composite_key) partials —
    per-batch local min per hash first, so the 64-way hash-bucket exchange
    carries at most one 16-byte entry per distinct segment per batch; a
    per-bucket min yields the winner table. Pass 2: winner table counted —
    under ``max_broadcast`` it is captured in the UDF and a stateless
    map_batches reassembles (text never crosses the wire); above it, the per-segment
    stream probes the winners via stages.joins.hash_join on the hash and
    the kept (doc_id, seg_idx) pairs co-partition with the documents on a
    doc-bucket exchange (text crosses exactly one exchange). Both paths are
    bit-identical (unit-tested, same contract as dedup_clusters)."""
    ds = _read(sf_dir, ["doc_id", "text"])

    def winner_partial(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        assert did.max(initial=0) < (1 << 42), "doc_id overflows composite key"
        _, _, _, g, srid, sidx, _, _ = _segments_of(batch["text"], w)
        assert len(sidx) == 0 or sidx.max() < _MAX_SEG_IDX, "seg_idx overflows composite key"
        key = did[srid] * _MAX_SEG_IDX + sidx
        hv = g.view(np.int64)
        order = np.lexsort((key, hv))
        hs, ks = hv[order], key[order]
        first = np.ones(len(hs), dtype=bool)
        first[1:] = hs[1:] != hs[:-1]
        return pa.table(
            {
                "h": pa.array(hs[first]),
                "key": pa.array(ks[first]),
                "_b": pa.array((hs[first] % num_buckets).astype(np.int32)),
            }
        )

    def bucket_min(t: pa.Table) -> pa.Table:
        hv = t["h"].to_numpy(zero_copy_only=False)
        key = t["key"].to_numpy(zero_copy_only=False)
        order = np.lexsort((key, hv))
        hs, ks = hv[order], key[order]
        first = np.ones(len(hs), dtype=bool)
        first[1:] = hs[1:] != hs[:-1]
        return pa.table({"h": pa.array(hs[first]), "wkey": pa.array(ks[first])})

    winners = (
        bucket_exchange(ds.map_batches(winner_partial, batch_format="pyarrow"), "_b", bucket_min)
        .materialize()
    )

    if winners.count() <= max_broadcast:
        wtab = winners.to_pandas()
        wh = wtab["h"].to_numpy(dtype=np.int64)
        wk = wtab["wkey"].to_numpy(dtype=np.int64)
        order = np.argsort(wh, kind="stable")
        bh, bk = wh[order], wk[order]

        def keep_broadcast(g: np.ndarray, composite: np.ndarray) -> np.ndarray:
            hv = g.view(np.int64)
            idx = np.searchsorted(bh, hv)
            idx_safe = np.clip(idx, 0, max(len(bh) - 1, 0))
            found = (idx < len(bh)) & (len(bh) > 0)
            found &= bh[idx_safe] == hv
            # a segment absent from the winner table cannot exist (every
            # segment elected a winner); keep defensively if it happens
            return ~found | (bk[idx_safe] == composite)

        return ds.map_batches(
            lambda b: _reassemble(b, w, keep_broadcast), batch_format="pyarrow"
        )

    # distributed fallback: probe winners by hash, co-partition kept pairs
    # with the documents on a doc-bucket exchange (text crosses once)
    from ..stages.joins import hash_join

    def seg_stream(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        _, _, _, g, srid, sidx, _, _ = _segments_of(batch["text"], w)
        return pa.table(
            {
                "doc_id": pa.array(did[srid]),
                "seg_idx": pa.array(sidx),
                "h": pa.array(g.view(np.int64)),
            }
        )

    segs = ds.map_batches(seg_stream, batch_format="pyarrow")
    joined = hash_join(segs, winners, on="h", right_cols=("wkey",),
                       num_buckets=num_buckets)

    def kept_pairs(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        sidx = batch["seg_idx"].to_numpy(zero_copy_only=False)
        wkey = batch["r_wkey"].to_numpy(zero_copy_only=False)
        keep = did * _MAX_SEG_IDX + sidx == wkey
        return pa.table(
            {
                "doc_id": pa.array(did[keep]),
                "seg_idx": pa.array(sidx[keep]),
                "text": pa.nulls(int(keep.sum()), type=pa.string()),
                "_side": pa.array(np.full(int(keep.sum()), 1, dtype=np.int8)),
                "_b": pa.array((did[keep] % num_buckets).astype(np.int32)),
            }
        )

    def doc_side(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(did)
        return pa.table(
            {
                "doc_id": pa.array(did),
                "seg_idx": pa.array(np.full(n, -1, dtype=np.int64)),
                "text": batch["text"],
                "_side": pa.array(np.zeros(n, dtype=np.int8)),
                "_b": pa.array((did % num_buckets).astype(np.int32)),
            }
        )

    unioned = joined.map_batches(kept_pairs, batch_format="pyarrow").union(
        ds.map_batches(doc_side, batch_format="pyarrow")
    )

    def per_bucket(t: pa.Table) -> pa.Table:
        side = t["_side"].to_numpy(zero_copy_only=False)
        docs = t.filter(pa.array(side == 0)).select(["doc_id", "text"])
        pairs = t.filter(pa.array(side == 1))
        pk = (
            pairs["doc_id"].to_numpy(zero_copy_only=False) * _MAX_SEG_IDX
            + pairs["seg_idx"].to_numpy(zero_copy_only=False)
        )
        pk = np.sort(pk)

        def keep_member(g: np.ndarray, composite: np.ndarray) -> np.ndarray:
            idx = np.searchsorted(pk, composite)
            idx_safe = np.clip(idx, 0, max(len(pk) - 1, 0))
            return (idx < len(pk)) & (len(pk) > 0) & (pk[idx_safe] == composite)

        return _reassemble(docs, w, keep_member)

    return bucket_exchange(unioned, "_b", per_bucket)


def segment_dedup_sql(w: int = SEG_W) -> str:
    """DuckDB replay of doc_segment_dedup (groups by the literal segment
    string; the engine's 64-bit segment hash stands in for it, so any
    collision surfaces as a driver-gate hash mismatch)."""
    return (
        r"WITH w AS (SELECT doc_id, "
        r"list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS ws "
        "FROM documents), "
        "s AS (SELECT doc_id, CAST(g AS BIGINT) AS seg_idx, "
        f"array_to_string(ws[CAST(g*{w}+1 AS BIGINT) : CAST(g*{w}+{w} AS BIGINT)], ' ') AS seg "
        f"FROM w, UNNEST(range(CAST(ceil(len(ws)/{w}.0) AS BIGINT))) AS t(g)), "
        "r AS (SELECT doc_id, seg_idx, seg, "
        f"min(doc_id * {_MAX_SEG_IDX} + seg_idx) OVER (PARTITION BY seg) AS wkey, "
        "count(*) OVER (PARTITION BY doc_id) AS n_segs FROM s) "
        "SELECT doc_id, string_agg(seg, ' ' ORDER BY seg_idx) AS text_dedup, "
        "count(*) AS n_kept, CAST(max(n_segs) AS BIGINT) AS n_segs "
        f"FROM r WHERE doc_id * {_MAX_SEG_IDX} + seg_idx = wkey GROUP BY doc_id"
    )


# ---------------------------------------------------------------------------
# Pareto skyline (dominance frontier) — the anti-chain machine class: no
# aggregate, no window, no join reproduces it; the result is the set of
# rows not dominated by any other row. Reference analog: TITAN's "best
# observation wins inside a neighbourhood" election generalized to a global
# multi-criteria election (titan.r plausibility/priority interplay).
# ---------------------------------------------------------------------------


def _skyline2d_mask(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Boolean mask of the 2-D Pareto frontier: maximize ``u``, minimize
    ``c``.  q dominates p iff q.u >= p.u and q.c <= p.c with at least one
    strict; ties (identical points) do not dominate each other, so every
    duplicate of a frontier point survives — the exact NOT EXISTS semantics
    of the SQL twin.  One lexsort + grouped min + running min: O(n log n).
    """
    if len(u) == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((c, -u))          # u desc, c asc within equal u
    us, cs = u[order], c[order]
    grp_new = np.r_[True, us[1:] != us[:-1]]
    gid = np.cumsum(grp_new) - 1
    gmin = cs[np.flatnonzero(grp_new)]   # per-u-group min c (c asc in group)
    # min c over all STRICTLY greater u = cummin of gmin shifted one group
    prev = np.r_[np.int64(2**62), np.minimum.accumulate(gmin)[:-1]]
    ok = (cs < prev[gid]) & (cs == gmin[gid])
    mask = np.zeros(len(u), dtype=bool)
    mask[order[ok]] = True
    return mask


def doc_skyline(sf_dir: str):
    """Documents on the Pareto frontier of (token_count maximize,
    n_chars minimize) — the densest-information-per-byte frontier, the
    skyline/dominance primitive (curation shortlists, "no strictly better
    document exists" gates).

    Scale shape: the skyline operator is ASSOCIATIVE under union —
    skyline(A ∪ B) = skyline(skyline(A) ∪ skyline(B)) — so each batch
    collapses to its LOCAL frontier first (vectorized lexsort kernel,
    never O(n²)) and only frontier candidates reach the driver; for n
    random points the expected 2-D frontier is O(log n) per batch, and the
    final pass re-runs the same kernel over ≤ Σ local frontiers. The
    candidate count is logged so a pathological anti-chain corpus is
    visible, and nothing text-sized crosses the exchange — each candidate
    is 3 int64s."""
    import logging

    ds = _read(sf_dir, ["doc_id", "text", "n_chars"])

    def local_frontier(batch: pa.Table) -> pa.Table:
        texts = batch["text"].combine_chunks() if isinstance(
            batch["text"], pa.ChunkedArray) else batch["text"]
        tc = token_count(texts).astype(np.int64)
        nc = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = _skyline2d_mask(tc, nc)
        return pa.table(
            {
                "doc_id": batch["doc_id"].combine_chunks().take(pa.array(np.flatnonzero(keep))) if isinstance(batch["doc_id"], pa.ChunkedArray) else batch["doc_id"].take(pa.array(np.flatnonzero(keep))),
                "token_count": pa.array(tc[keep]),
                "n_chars": pa.array(nc[keep]),
            }
        )

    cand = ds.map_batches(local_frontier, batch_format="pyarrow").to_pandas()
    logging.getLogger("titan_ray.docqc").info(
        "doc_skyline: %d frontier candidates collected", len(cand)
    )
    u = cand["token_count"].to_numpy(dtype=np.int64)
    c = cand["n_chars"].to_numpy(dtype=np.int64)
    keep = _skyline2d_mask(u, c)
    return cand.loc[keep].reset_index(drop=True)


def skyline_sql() -> str:
    """DuckDB replay: literal NOT EXISTS dominance over the same two
    integer dimensions (quadratic in SQL — the point of the engine's
    associative local-frontier shape)."""
    return (
        f"WITH d AS (SELECT doc_id, CAST(length(regexp_extract_all(text, "
        f"'{_TOKEN_PATTERN}')) AS BIGINT) AS token_count, n_chars "
        "FROM documents) "
        "SELECT doc_id, token_count, n_chars FROM d p WHERE NOT EXISTS ("
        "SELECT 1 FROM d q WHERE q.token_count >= p.token_count "
        "AND q.n_chars <= p.n_chars AND (q.token_count > p.token_count "
        "OR q.n_chars < p.n_chars))"
    )


def doc_compression_ratio(sf_dir: str, level: int = 6):
    """(doc_id, raw_bytes, zlib_bytes, ratio_milli): per-document zlib
    compression ratio in integer milli-units — the Gopher-family
    redundancy/quality signal (highly compressible text = repetitive
    boilerplate or degenerate generation; incompressible = possibly
    binary/garbled). floor(1000 * compressed / max(raw, 1)), level fixed
    so the byte counts are deterministic for a given zlib.

    No SQL twin (DuckDB has no zlib surface) -> rows-only in the driver
    gate; the pytest oracle recomputes per-doc with the stdlib directly.
    Scale shape: stateless per-batch map (zlib is a per-string C call —
    the one row loop is inside the codec, not Python arithmetic), no
    shuffle, no driver state.
    """
    import zlib

    ds = _read(sf_dir, ["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        texts = batch["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        raw = np.empty(len(texts), dtype=np.int64)
        comp = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts.to_pylist()):
            b = (t or "").encode("utf-8", "surrogatepass")
            raw[i] = len(b)
            comp[i] = len(zlib.compress(b, level))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "raw_bytes": pa.array(raw),
                "zlib_bytes": pa.array(comp),
                "ratio_milli": pa.array((1000 * comp) // np.maximum(raw, 1)),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def doc_simpson_diversity(sf_dir: str, num_buckets: int = 64):
    """(lang, simpson_num, n_tokens): per-language vocabulary concentration
    as EXACT integer moments — Simpson's index numerator sum_w c_w*(c_w-1)
    and the token total (the index itself is num / (N*(N-1)); emitting the
    integer pieces keeps the oracle bit-exact, the OLS/variance
    convention). Low num/N^2 = diverse vocabulary, high = a few words
    dominate — a corpus-health signal the entropy op approximates but
    cannot hash-check (logs); the second moment CAN.

    Scale shape: the top_words combiner (per-batch (lang, word) dictionary
    counts — per-batch DISTINCT words cross the wire, not tokens) + ONE
    word-hash-bucket exchange; each (lang, word)'s global count finishes
    inside its bucket (the second moment is NOT associative over partial
    counts, so the moment is taken only after the per-bucket sum), and
    buckets emit |langs| partial rows. Driver merges <= B x |langs| rows.
    """
    import pandas as pd
    import pyarrow.compute as pc

    ds = _read(sf_dir, ["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        langs = np.asarray(batch["lang"].to_pandas(), dtype=object)
        words, rid = _words(batch["text"])
        enc = pc.dictionary_encode(words)
        widx = np.asarray(enc.indices, dtype=np.int64)
        lu, lcode = np.unique(langs, return_inverse=True)
        lrow = lcode[rid]
        nv = len(enc.dictionary)
        comb = lrow * nv + widx
        cnt = np.bincount(comb, minlength=len(lu) * nv)
        nz = np.flatnonzero(cnt)
        words = enc.dictionary.take(pa.array(nz % nv))
        # deterministic cross-process hash (Python hash() is per-process
        # seeded and would split a word across buckets)
        wh = pd.util.hash_array(np.asarray(words.to_pylist(), dtype=object))
        return pa.table(
            {
                "lang": pa.array(lu[nz // nv], type=pa.string()),
                "word": words,
                "n": pa.array(cnt[nz].astype(np.int64)),
                "_b": pa.array((wh % num_buckets).astype(np.int32)),
            }
        )

    def moments(t: pa.Table) -> pa.Table:
        g = t.group_by(["lang", "word"]).aggregate([("n", "sum")])
        lang = np.asarray(g["lang"].to_pandas(), dtype=object)
        c = g["n_sum"].to_numpy(zero_copy_only=False)
        assert c.max(initial=0) < 3_037_000_499, "simpson second moment overflow"
        lu, inv = np.unique(lang, return_inverse=True)
        # EXACT int64 accumulation (bincount weights are float64 and lose
        # exactness above 2^53); int(sum) of the python-object path would
        # be exact but slow — np.add.at on int64 is both
        num = np.zeros(len(lu), dtype=np.int64)
        tot = np.zeros(len(lu), dtype=np.int64)
        np.add.at(num, inv, c * (c - 1))
        np.add.at(tot, inv, c)
        return pa.table(
            {
                "lang": pa.array(lu, type=pa.string()),
                "simpson_num": pa.array(num),
                "n_tokens": pa.array(tot),
            }
        )

    parts = (
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "_b", moments)
        .to_pandas()   # <= num_buckets x |langs| rows
    )
    if parts.empty:
        return pd.DataFrame({"lang": pd.Series(dtype=object),
                             "simpson_num": pd.Series(dtype=np.int64),
                             "n_tokens": pd.Series(dtype=np.int64)})
    out = parts.groupby("lang", as_index=False)[["simpson_num", "n_tokens"]].sum()
    out["simpson_num"] = out["simpson_num"].astype(np.int64)
    out["n_tokens"] = out["n_tokens"].astype(np.int64)
    return out.sort_values("lang").reset_index(drop=True)


def simpson_sql() -> str:
    """DuckDB replay of doc_simpson_diversity (exact second moment of the
    per-(lang, word) count table)."""
    return (
        r"WITH w AS (SELECT lang, unnest(regexp_extract_all(text, '\S+')) AS word "
        "FROM documents), "
        "c AS (SELECT lang, word, count(*) AS c FROM w GROUP BY lang, word) "
        "SELECT lang, CAST(sum(c*(c-1)) AS BIGINT) AS simpson_num, "
        "CAST(sum(c) AS BIGINT) AS n_tokens FROM c GROUP BY lang"
    )


FNV_OFF = np.uint64(1469598103934665603)
FNV_M = np.uint64(1099511628211)


def corpus_checksum(sf_dir: str):
    """(n_docs, checksum): an ORDER-INSENSITIVE whole-corpus content
    checksum — the sum mod 2^64 of each document's byte-chain hash
    h_0 = OFF, h_{i+1} = h_i * M + b_i (the winnowing/simhash FNV chain,
    whole-doc length) — the migration-validation primitive: two pipelines
    (or two copies of a corpus, or pre/post a rewrite that must be a
    no-op) agree iff (n_docs, checksum) agree, with no sort, no pairwise
    compare, and one 16-byte partial per batch crossing the wire.

    The sequential chain vectorizes as a polynomial: h(doc) =
    OFF*M^n + sum_i b_i * M^(n-1-i) (mod 2^64 via native uint64 wrap), so
    the kernel is one power-table gather + one reduceat per batch — no
    per-byte Python. The SQL twin builds M^k with a recursive CTE and
    replays the same polynomial per position (ASCII corpora: substring ==
    byte, the winnow_sql convention).

    Scale shape: embarrassingly parallel per-batch partials, a single
    one-row driver merge. Zero shuffles.
    """
    import pandas as pd

    from ..functions.strings import string_view

    ds = _read(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        data, offsets, valid = string_view(texts)
        offsets = offsets.astype(np.int64)
        n = (offsets[1:] - offsets[:-1])
        max_n = int(n.max(initial=0))
        pw = np.empty(max_n + 1, dtype=np.uint64)
        pw[0] = np.uint64(1)
        with np.errstate(over="ignore"):     # wraparound mod 2**64 is the hash
            for k in range(1, max_n + 1):    # max-doc-len iterations, not rows
                pw[k] = pw[k - 1] * FNV_M
        # exponent of byte at global index g in doc d: (end_d - 1) - g
        ends = np.repeat(offsets[1:], n)
        with np.errstate(over="ignore"):
            contrib = data.astype(np.uint64) * pw[ends - 1 - np.arange(len(data), dtype=np.int64)]
            starts = offsets[:-1]
            per_doc = np.zeros(len(n), dtype=np.uint64)
            nz = n > 0
            sums = np.add.reduceat(contrib, starts[nz]) if nz.any() else np.array([], dtype=np.uint64)
            per_doc[nz] = sums
            per_doc += pw[n] * FNV_OFF       # the OFF * M^n head term
            per_doc[~valid] = np.uint64(0)   # nulls contribute nothing
        return pa.table(
            {
                "checksum_part": pa.array([int(per_doc.sum(dtype=np.uint64))], type=pa.uint64()),
                "n_docs": pa.array([int(valid.sum())], type=pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    total = 0
    for v in parts["checksum_part"].to_numpy(dtype=np.uint64):
        total = (total + int(v)) % (1 << 64)
    signed = total - (1 << 64) if total >= (1 << 63) else total
    return pd.DataFrame({"n_docs": pd.Series([int(parts["n_docs"].sum())], dtype=np.int64),
                         "checksum": pd.Series([signed], dtype=np.int64)})


def corpus_checksum_sql() -> str:
    """DuckDB replay of corpus_checksum: recursive-CTE power table M^k mod
    2^64, per-position polynomial terms, HUGEINT mod-2^64 sums, signed
    BIGINT two's-complement mapping (the simhash_sql convention)."""
    T = 1 << 64
    M = 1099511628211
    OFF = 1469598103934665603
    return (
        "WITH RECURSIVE pw(k, v) AS ("
        "SELECT 0, CAST(1 AS HUGEINT) UNION ALL "
        f"SELECT k + 1, (v * {M}) % {T} FROM pw "
        "WHERE k < (SELECT COALESCE(max(strlen(text)), 0) FROM documents)), "
        "pos AS (SELECT doc_id, text, strlen(text) AS n, "
        "unnest(generate_series(1, strlen(text))) AS p FROM documents "
        "WHERE text IS NOT NULL), "
        "terms AS (SELECT pos.doc_id, "
        "(CAST(ascii(substring(pos.text, p, 1)) AS HUGEINT) * pw.v) % "
        f"{T} AS t FROM pos JOIN pw ON pw.k = pos.n - pos.p), "
        "heads AS (SELECT d.doc_id, "
        f"(CAST({OFF} AS HUGEINT) * pw.v) % {T} AS h "
        "FROM documents d JOIN pw ON pw.k = strlen(d.text) "
        "WHERE d.text IS NOT NULL), "
        f"tsum AS (SELECT doc_id, sum(t) % {T} AS st FROM terms GROUP BY doc_id), "
        "per_doc AS (SELECT h.doc_id, "
        f"(h.h + COALESCE(s.st, 0)) % {T} AS hd "
        "FROM heads h LEFT JOIN tsum s ON s.doc_id = h.doc_id), "
        f"tot AS (SELECT sum(hd) % {T} AS u, count(*) AS n FROM per_doc) "
        "SELECT CAST(n AS BIGINT) AS n_docs, "
        f"CAST(CASE WHEN u >= {1 << 63} THEN u - {T} ELSE u END AS BIGINT) AS checksum "
        "FROM tot"
    )


# ---------------------------------------------------------------------------
# Sparse all-pairs cosine similarity (the inverted-index / DIMSUM class)
# ---------------------------------------------------------------------------
# All document pairs whose TERM-FREQUENCY vectors are near-parallel — the
# exact sparse-vector analog of embedding_neardup (dense) and the verified
# complement of minhash (set-based): tf-weighted, so burstiness counts.
# The dot products are assembled TERM-AT-A-TIME inside word buckets
# (Zadeh & Goel's DIMSUM / classic inverted-index all-pairs shape): each
# word contributes f_a*f_b partials only for the docs that contain it, so
# work is sum_w C(df_w, 2) — bounded per word by the hot-word prune — and
# nothing doc-pair-dense ever materializes for the (overwhelming) majority
# of pairs that share no vocabulary.

COS_TAU2_E6 = 980_000   # keep pairs with cos^2 >= 0.98  (cos >= ~0.98995)
COS_MAX_DF = 100_000    # hot-word prune: words in more docs than this are
                        # dropped from the similarity (the DIMSUM dampening
                        # analog, exact + SQL-mirrored; no-op at gate scale)


def doc_cosine_pairs(sf_dir: str, tau2_e6: int = COS_TAU2_E6,
                     max_df: int = COS_MAX_DF, num_buckets: int = 64):
    """(doc_a, doc_b, dot, cos2_e6): unordered doc pairs with
    cos^2(tf_a, tf_b) >= tau2_e6/1e6 over df-pruned word tf vectors,
    cos2_e6 = floor(1e6 * dot^2 / (|a|^2 |b|^2)) — EXACT integer math,
    no sqrt, so the SQL twin hash-matches bit-for-bit.

    Machine class the surface lacked: sparse ALL-PAIRS similarity via
    term-partitioned partial dot products. Reference analog: the SCT's
    'too mutually consistent' station-pair screen (sct_resistant.r)
    recast as content-vector parallelism.

    Scale shape: ONE text pass emits batch-final (word-hash, doc, f)
    triples (each doc lives in one row, so tf is final at the map);
    one word-bucket exchange computes df, prunes hot words (counted +
    logged), and expands per-word triu pair partials bounded by
    C(max_df, 2); one pair-bucket exchange collapses partials to final
    dots; norms ride the same bucket stream as kind-0 rows; the two
    norm attachments are stages.joins.hash_join exchanges over the
    PAIR-sized (not corpus-sized) stream. Words are 64-bit FNV hashes;
    the SQL twin joins literal strings (collision -> visible mismatch,
    doc_vocab_size convention)."""
    import logging

    import pyarrow.compute as pc

    from ..stages.joins import hash_join

    ds = _read(sf_dir, ["doc_id", "text"])

    def tf_partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        h, rid = _word_gram_hashes(texts, 1)
        empty = pa.table({"h": pa.array([], pa.int64()),
                          "doc_id": pa.array([], pa.int64()),
                          "f": pa.array([], pa.int64()),
                          "_b": pa.array([], pa.int32())})
        if len(h) == 0:
            return empty
        did = batch["doc_id"].to_numpy(zero_copy_only=False)[rid]
        hs = h.view(np.int64)
        order = np.lexsort((did, hs))
        hs, did = hs[order], did[order]
        new = np.r_[True, (hs[1:] != hs[:-1]) | (did[1:] != did[:-1])]
        starts = np.flatnonzero(new)
        f = np.diff(np.r_[starts, len(hs)]).astype(np.int64)
        uh, ud = hs[starts], did[starts]
        return pa.table(
            {
                "h": pa.array(uh),
                "doc_id": pa.array(ud),
                "f": pa.array(f),
                "_b": pa.array(((uh % num_buckets + num_buckets) % num_buckets).astype(np.int32)),
            }
        )

    def word_bucket(t: pa.Table) -> pa.Table:
        h = t["h"].to_numpy(zero_copy_only=False)
        doc = t["doc_id"].to_numpy(zero_copy_only=False)
        f = t["f"].to_numpy(zero_copy_only=False)
        order = np.lexsort((doc, h))
        h, doc, f = h[order], doc[order], f[order]
        new = np.r_[True, h[1:] != h[:-1]]
        starts = np.flatnonzero(np.r_[new, True])
        df = np.diff(starts)
        hot = df > max_df
        if hot.any():
            logging.getLogger("titan_ray.docqc").warning(
                "cosine_pairs: %d words above max_df=%d pruned from the "
                "similarity (SQL twin applies the same HAVING bound)",
                int(hot.sum()), max_df)
        kept_rows = np.repeat(~hot, df)
        out_a = [doc[kept_rows]]                      # kind-0: norm partials
        out_b = [np.full(int(kept_rows.sum()), -1, dtype=np.int64)]
        out_v = [f[kept_rows] * f[kept_rows]]
        for i in range(len(df)):                      # vocab-sized loop, not row-sized
            if hot[i] or df[i] < 2:
                continue
            lo, m = starts[i], int(df[i])
            ia, ib = np.triu_indices(m, k=1)
            out_a.append(doc[lo + ia])                # doc ids sorted within run -> a < b
            out_b.append(doc[lo + ib])
            out_v.append(f[lo + ia] * f[lo + ib])
        kind = np.concatenate([np.zeros(len(out_a[0]), dtype=np.int8)]
                              + [np.ones(len(x), dtype=np.int8) for x in out_a[1:]])
        a = np.concatenate(out_a); b = np.concatenate(out_b); v = np.concatenate(out_v)
        b2 = ((a * 2654435761 + b * 40503) % num_buckets + num_buckets) % num_buckets
        return pa.table({"kind": pa.array(kind), "a": pa.array(a), "b": pa.array(b),
                         "v": pa.array(v.astype(np.int64)),
                         "_b2": pa.array(b2.astype(np.int32))})

    def pair_bucket(t: pa.Table) -> pa.Table:
        kind = t["kind"].to_numpy(zero_copy_only=False)
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a, kind))
        kind, a, b, v = kind[order], a[order], b[order], v[order]
        new = np.r_[True, (kind[1:] != kind[:-1]) | (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
        starts = np.flatnonzero(new)
        sums = np.add.reduceat(v, starts)
        return pa.table({"kind": pa.array(kind[starts]), "a": pa.array(a[starts]),
                         "b": pa.array(b[starts]), "v": pa.array(sums.astype(np.int64))})

    words = bucket_exchange(ds.map_batches(tf_partial, batch_format="pyarrow"), "_b", word_bucket)
    agg = bucket_exchange(words, "_b2", pair_bucket).materialize()  # pair-sized, reused by both splits
    if agg.schema() is None or agg.count() == 0:      # everything df-pruned
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64()),
                         "dot": pa.array([], pa.int64()),
                         "cos2_e6": pa.array([], pa.int64())})

    def norms_only(t: pa.Table) -> pa.Table:
        x = t.filter(pc.equal(t["kind"], 0))
        return pa.table({"doc_a": x["a"], "n2": x["v"]})

    def dots_only(t: pa.Table) -> pa.Table:
        x = t.filter(pc.equal(t["kind"], 1))
        return pa.table({"doc_a": x["a"], "doc_b": x["b"], "dot": x["v"]})

    norms = agg.map_batches(norms_only, batch_format="pyarrow")
    dots = agg.map_batches(dots_only, batch_format="pyarrow")
    j1 = hash_join(dots, norms, "doc_a", ("n2",)).map_batches(
        lambda t: t.rename_columns(["doc_a", "doc_b", "dot", "n2a"]), batch_format="pyarrow")
    norms_b = norms.map_batches(
        lambda t: t.rename_columns(["doc_b", "n2"]), batch_format="pyarrow")
    j2 = hash_join(j1, norms_b, "doc_b", ("n2",))

    def gate(t: pa.Table) -> pa.Table:
        dot = t["dot"].to_numpy(zero_copy_only=False)
        na = t["n2a"].to_numpy(zero_copy_only=False)
        nb = t["r_n2"].to_numpy(zero_copy_only=False)
        if len(dot):
            # promote to Python int: np.int64 * 1e6 wraps silently
            assert 1_000_000 * int(dot.max()) ** 2 < 2**63, "cos scale overflow"
            assert tau2_e6 * int(na.max()) * int(nb.max()) < 2**63, "cos gate overflow"
        num = 1_000_000 * dot * dot
        den = na * nb
        keep = num >= tau2_e6 * den
        return pa.table({"doc_a": t["doc_a"].take(pa.array(np.flatnonzero(keep))),
                         "doc_b": t["doc_b"].take(pa.array(np.flatnonzero(keep))),
                         "dot": pa.array(dot[keep]),
                         "cos2_e6": pa.array((num[keep] // den[keep]).astype(np.int64))})

    return j2.map_batches(gate, batch_format="pyarrow")


def cosine_pairs_sql(tau2_e6: int = COS_TAU2_E6, max_df: int = COS_MAX_DF) -> str:
    """DuckDB replay of doc_cosine_pairs: literal-word inverted-index
    self-join with the identical df prune and integer cross-multiplied
    threshold (HUGEINT, same floor)."""
    return (
        r"WITH t AS (SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w "
        "FROM documents), "
        "tf AS (SELECT doc_id, w, count(*) AS f FROM t GROUP BY 1, 2), "
        f"keep AS (SELECT w FROM tf GROUP BY w HAVING count(*) <= {max_df}), "
        "tf2 AS (SELECT tf.* FROM tf JOIN keep USING (w)), "
        "nrm AS (SELECT doc_id, sum(f*f) AS n2 FROM tf2 GROUP BY doc_id), "
        "dot AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, sum(a.f*b.f) AS dot "
        "FROM tf2 a JOIN tf2 b ON a.w = b.w AND a.doc_id < b.doc_id GROUP BY 1, 2) "
        "SELECT doc_a, doc_b, CAST(dot AS BIGINT) AS dot, "
        "CAST((1000000 * CAST(dot AS HUGEINT) * dot) // (na.n2 * nb.n2) AS BIGINT) AS cos2_e6 "
        "FROM dot JOIN nrm na ON na.doc_id = dot.doc_a "
        "JOIN nrm nb ON nb.doc_id = dot.doc_b "
        f"WHERE 1000000 * CAST(dot AS HUGEINT) * dot >= {tau2_e6} * na.n2 * nb.n2"
    )


# ---------------------------------------------------------------------------
# Spearman rank correlation (the rank-transform statistic class)
# ---------------------------------------------------------------------------

def doc_spearman(sf_dir: str):
    """(lang, n_docs, rho): Spearman rank correlation between text length
    and token count per language — Pearson over MIN-RANK (SQL rank())
    transforms of both columns, the scale-free monotone-association
    signal behind quality-feature sanity dashboards (reference analog:
    the dim-vs-value consistency screens of test_titan_ta_sct.r recast
    rank-wise).

    Machine class the surface lacked: the RANK TRANSFORM as an input to
    a downstream aggregate. Ranking never sorts the data: both columns
    are bounded small ints, so per-(lang, value) histograms (the
    doc_length_percentile machinery, one per column) reduce 10^12 rows
    to vocabulary-sized tables whose exclusive prefix sums ARE rank-1;
    a stateless second pass looks ranks up via searchsorted and emits
    six exact-int64 moment partials per (lang, batch). The driver sees
    |langs| rows of moments and finishes the Pearson algebra in
    arbitrary-precision Python ints; the only float is the final
    round(num / sqrt(denx*deny), 6), IEEE-identical to the HUGEINT->
    DOUBLE twin. Per-lang count bound: sum(rank^2) <= n^3 must fit
    int64 (n < ~2.1M per lang per the assert; beyond that the partials
    need the corpus_checksum two-limb trick)."""
    import pandas as pd

    from ..stages.ann import round_half_away

    ds = _read(sf_dir, ["lang", "text"])

    def hist_partial(batch: pa.Table) -> pa.Table:
        lang_codes, lang_uniq = pd.factorize(batch["lang"].to_pandas())
        x = _chars(batch).astype(np.int64)
        y = token_count(batch["text"].combine_chunks()).astype(np.int64)
        out_k, out_l, out_v, out_c = [], [], [], []
        for kind, col in ((0, x), (1, y)):
            # per (lang, value) counts without a per-lang loop
            stack = np.stack([lang_codes.astype(np.int64), col])
            uniq, cnt = np.unique(stack, axis=1, return_counts=True)
            out_k.append(np.full(uniq.shape[1], kind, dtype=np.int8))
            out_l.append(uniq[0])
            out_v.append(uniq[1])
            out_c.append(cnt.astype(np.int64))
        langs = pa.array(lang_uniq, type=pa.string())
        return pa.table(
            {
                "kind": pa.array(np.concatenate(out_k)),
                "lang": langs.take(pa.array(np.concatenate(out_l))),
                "val": pa.array(np.concatenate(out_v)),
                "cnt": pa.array(np.concatenate(out_c)),
            }
        )

    hist = (
        ds.map_batches(hist_partial, batch_format="pyarrow")
        .groupby(["kind", "lang", "val"]).sum("cnt")
        .to_pandas()    # <= 2 x |langs| x distinct-values rows, never data rows
        .rename(columns={"sum(cnt)": "cnt"})
        .sort_values(["kind", "lang", "val"])
    )
    lut: dict[tuple[int, str], tuple[np.ndarray, np.ndarray]] = {}
    max_n = 0
    for (kind, lang), g in hist.groupby(["kind", "lang"], sort=False):
        vals = g["val"].to_numpy()
        below = np.concatenate([[0], g["cnt"].cumsum().to_numpy()[:-1]])
        lut[(int(kind), lang)] = (vals, below)
        max_n = max(max_n, int(g["cnt"].sum()))
    assert max_n ** 3 < 2**63, "spearman rank-moment overflow (two-limb partials needed)"

    def moments(batch: pa.Table) -> pa.Table:
        lang = batch["lang"].to_pandas().to_numpy(dtype=object)
        x = _chars(batch).astype(np.int64)
        y = token_count(batch["text"].combine_chunks()).astype(np.int64)
        codes, uniq = pd.factorize(lang)
        rows = {"lang": [], "n": [], "sx": [], "sy": [], "sxx": [], "syy": [], "sxy": []}
        for li, lv in enumerate(uniq):          # |langs|-sized loop, not row-sized
            m = codes == li
            vx, bx = lut[(0, lv)]
            vy, by = lut[(1, lv)]
            rx = bx[np.searchsorted(vx, x[m])] + 1   # min-rank == SQL rank()
            ry = by[np.searchsorted(vy, y[m])] + 1
            rows["lang"].append(lv)
            rows["n"].append(np.int64(m.sum()))
            rows["sx"].append(rx.sum()); rows["sy"].append(ry.sum())
            rows["sxx"].append((rx * rx).sum()); rows["syy"].append((ry * ry).sum())
            rows["sxy"].append((rx * ry).sum())
        return pa.table({k: pa.array(v if k == "lang" else np.asarray(v, dtype=np.int64),
                                     type=pa.string() if k == "lang" else pa.int64())
                         for k, v in rows.items()})

    agg = (
        ds.map_batches(moments, batch_format="pyarrow")
        .groupby("lang")
        .sum(["n", "sx", "sy", "sxx", "syy", "sxy"])
        .to_pandas()    # |langs| rows
    )
    out = []
    for _, r in agg.iterrows():
        n, sx, sy = int(r["sum(n)"]), int(r["sum(sx)"]), int(r["sum(sy)"])
        sxx, syy, sxy = int(r["sum(sxx)"]), int(r["sum(syy)"]), int(r["sum(sxy)"])
        num = n * sxy - sx * sy                 # exact Python-int algebra
        den = (n * sxx - sx * sx) * (n * syy - sy * sy)
        rho = float(round_half_away(np.float64(num / np.sqrt(float(den))), 6))
        out.append({"lang": r["lang"], "n_docs": np.int64(n), "rho": rho})
    return pd.DataFrame(out)


def spearman_sql() -> str:
    """DuckDB replay of doc_spearman: rank() windows then the identical
    HUGEINT Pearson algebra with one final double division."""
    tok = _TOKEN_PATTERN
    return (
        "WITH v AS (SELECT lang, CAST(length(text) AS BIGINT) AS x, "
        f"CAST(length(regexp_extract_all(text, '{tok}')) AS BIGINT) AS y FROM documents), "
        "r AS (SELECT lang, "
        "CAST(rank() OVER (PARTITION BY lang ORDER BY x) AS BIGINT) AS rx, "
        "CAST(rank() OVER (PARTITION BY lang ORDER BY y) AS BIGINT) AS ry FROM v), "
        "m AS (SELECT lang, CAST(count(*) AS HUGEINT) AS n, "
        "CAST(sum(rx) AS HUGEINT) AS sx, CAST(sum(ry) AS HUGEINT) AS sy, "
        "CAST(sum(rx*rx) AS HUGEINT) AS sxx, CAST(sum(ry*ry) AS HUGEINT) AS syy, "
        "CAST(sum(rx*ry) AS HUGEINT) AS sxy FROM r GROUP BY lang) "
        "SELECT lang, CAST(n AS BIGINT) AS n_docs, "
        "round(CAST(n*sxy - sx*sy AS DOUBLE) / "
        "sqrt(CAST((n*sxx - sx*sx) * (n*syy - sy*sy) AS DOUBLE)), 6) AS rho FROM m"
    )


# ---------------------------------------------------------------------------
# Priority sampling (Duffield, Lund & Thorup 2007) — weight-proportional
# k-sample with unbiased subset-sum estimation
# ---------------------------------------------------------------------------

PRIORITY_K = 100


def doc_priority_sample(sf_dir: str, k: int = PRIORITY_K):
    """(doc_id, n_chars, q, est_w) — the k docs with the LARGEST priority
    q_i = w_i / u_i, where w_i = max(1, n_chars) is the doc's length weight
    and u_i in (0,1] is the deterministic uniform u_i = (h(doc_id)+1)/2^64
    (same bijective mix h as doc_bottomk_sample). This is Duffield-Lund-
    Thorup priority sampling: a weight-proportional sample WITHOUT
    replacement in one pass, whose per-item estimator est_w = max(w_i, tau)
    with tau = the (k+1)-th largest priority is UNBIASED for any subset-sum
    of the weights — the primitive behind "sample 1k docs but still estimate
    total token mass per slice exactly in expectation". Complements the
    uniform bottom-k sample (doc_bottomk_sample) and the Bernoulli
    length-proportional gate (doc_sample_lenprop): fixed sample SIZE and
    weight-proportional inclusion at once.

    Determinism/exactness: u is built from h by integer->double CAST
    (round-to-nearest, identical in numpy and DuckDB), +1.0, and division
    by the exact power of two 2^64 — every op is a correctly-rounded IEEE
    double op, so q = w/u and est_w = max(w, tau) are bit-identical to the
    SQL twin. Ties in q break by doc_id on both sides.

    Scale shape: each batch reduces to its k+1 largest (q, doc_id) rows via
    a batch-local lexsort (the same total order as the global one, so the
    global top-(k+1) survives local pruning); the driver merges <= (k+1) x
    n_blocks candidate rows, takes the global top-(k+1), reads tau off row
    k+1, and emits the top k. Driver state is k-bounded by construction.
    Reference analog: the thinning branch of the read stage
    (read_data_to_check.r:121-143) picks representatives uniformly; this is
    the weighted generalization a token-budget pipeline needs."""
    ds = _read(sf_dir, ["doc_id", "text"])
    two64 = float(1 << 64)

    def partial(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        w = np.maximum(_chars(batch), 1).astype(np.int64)
        h = did.astype(np.uint64) * np.uint64(_SAMPLE_MULT) + np.uint64(_SAMPLE_SEED)
        u = (h.astype(np.float64) + 1.0) / two64
        q = w.astype(np.float64) / u
        order = np.lexsort((did, -q))[: k + 1]
        return pa.table(
            {
                "doc_id": pa.array(did[order]),
                "n_chars": pa.array(w[order]),
                "q": pa.array(q[order]),
            }
        )

    cand = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    order = np.lexsort(
        (cand["doc_id"].to_numpy(), -cand["q"].to_numpy())
    )[: k + 1]
    top = cand.iloc[order].reset_index(drop=True)
    tau = float(top["q"].iloc[k]) if len(top) > k else 0.0
    out = top.iloc[:k].copy()
    out["est_w"] = np.maximum(out["n_chars"].to_numpy().astype(np.float64), tau)
    return out[["doc_id", "n_chars", "q", "est_w"]]


def priority_sample_sql(k: int = PRIORITY_K) -> str:
    """DuckDB replay of doc_priority_sample: the identical HUGEINT mix ->
    double CAST -> q = w/u, ranked by (q DESC, doc_id), tau read off row
    k+1 by a scalar subquery."""
    two64 = 1 << 64
    return (
        "WITH pri AS (SELECT doc_id, "
        "CAST(GREATEST(length(text), 1) AS BIGINT) AS n_chars, "
        "CAST(GREATEST(length(text), 1) AS DOUBLE) / "
        f"((CAST(CAST((CAST(doc_id AS HUGEINT) * {_SAMPLE_MULT} + {_SAMPLE_SEED}) "
        f"% {two64} AS UBIGINT) AS DOUBLE) + 1.0) / {float(two64)!r}) AS q "
        "FROM documents), "
        "ranked AS (SELECT *, row_number() OVER (ORDER BY q DESC, doc_id) AS rn FROM pri) "
        "SELECT doc_id, n_chars, q, "
        f"GREATEST(CAST(n_chars AS DOUBLE), (SELECT q FROM ranked WHERE rn = {k + 1})) AS est_w "
        f"FROM ranked WHERE rn <= {k}"
    )


# ---------------------------------------------------------------------------
# Dataset reconciliation (FULL OUTER join shape)
# ---------------------------------------------------------------------------

RECONCILE_MIN_CHARS = 200   # docs side: quality-passing length gate
RECONCILE_DROP_LABEL = 0    # embeddings side: label-0 cluster excluded


def doc_embedding_reconcile(sf_dir: str, min_chars: int = RECONCILE_MIN_CHARS,
                            drop_label: int = RECONCILE_DROP_LABEL,
                            num_buckets: int = 64):
    """(id, n_chars, norm_q, status) — reconcile the quality-passing slice
    of ``documents`` against the kept slice of ``embeddings`` by id: the
    FULL OUTER join shape (both unmatched sides survive). This is the
    coverage-audit every multi-artifact corpus needs — which passing docs
    have no usable embedding ('doc_only'), which embeddings are orphaned
    by the text-side filter ('emb_only') — and neither an inner nor a
    one-sided outer join can answer both questions in one pass.

    norm_q is the exact-integer quantized squared norm (sum of
    round_half_away(x * 2^15)^2 — the stages/cluster quantization, so the
    DuckDB twin replays it bit-identically). Scale shape: both inputs
    collapse to narrow (id, scalar) streams at the read, then ONE
    co-partitioning exchange through stages.joins.hash_join(join_type=
    'full outer'); the per-bucket merge is Acero's coalesced-key full
    outer join, never a broadcast."""
    import pyarrow.compute as pc

    from ..sources.reader import read_parquet_clean
    from ..stages.cluster import _batch_embeddings, quantize
    from ..stages.joins import hash_join

    docs = _read(sf_dir, ["doc_id", "n_chars"])

    def doc_side(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater_equal(batch["n_chars"], min_chars))
        return pa.table({"id": t["doc_id"], "n_chars": t["n_chars"]})

    emb = read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                             columns=["vec_id", "embedding", "label"])

    def emb_side(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.not_equal(batch["label"], drop_label))
        if t.num_rows == 0:
            return pa.table({"id": pa.array([], pa.int64()),
                             "norm_q": pa.array([], pa.int64())})
        q = quantize(_batch_embeddings(t))
        return pa.table({
            "id": t["vec_id"],
            "norm_q": pa.array(np.einsum("ij,ij->i", q, q)),
        })

    joined = hash_join(
        docs.map_batches(doc_side, batch_format="pyarrow"),
        emb.map_batches(emb_side, batch_format="pyarrow"),
        on="id", right_cols=("norm_q",), num_buckets=num_buckets,
        join_type="full outer",
    )

    def status(batch: pa.Table) -> pa.Table:
        d_null = pc.is_null(batch["n_chars"]).to_numpy(zero_copy_only=False)
        e_null = pc.is_null(batch["r_norm_q"]).to_numpy(zero_copy_only=False)
        st = np.where(d_null, "emb_only", np.where(e_null, "doc_only", "both"))
        return pa.table({
            "id": batch["id"],
            "n_chars": batch["n_chars"],
            "norm_q": batch["r_norm_q"],
            "status": pa.array(st.astype(object)),
        })

    return joined.map_batches(status, batch_format="pyarrow")


def reconcile_sql(min_chars: int = RECONCILE_MIN_CHARS,
                  drop_label: int = RECONCILE_DROP_LABEL) -> str:
    """DuckDB replay of doc_embedding_reconcile: the same two filtered
    narrow sides FULL OUTER joined, key coalesced, identical quantization."""
    from ..stages.cluster import QUANT_SCALE

    return (
        f"WITH d AS (SELECT doc_id AS id, n_chars FROM documents "
        f"WHERE n_chars >= {min_chars}), "
        "e AS (SELECT vec_id AS id, CAST(sum(xq * xq) AS BIGINT) AS norm_q "
        "FROM (SELECT vec_id, "
        f"CAST(round(CAST(unnest(embedding) AS DOUBLE) * {QUANT_SCALE!r}) AS BIGINT) AS xq "
        f"FROM embeddings WHERE label <> {drop_label}) GROUP BY vec_id) "
        "SELECT COALESCE(d.id, e.id) AS id, d.n_chars, e.norm_q, "
        "CASE WHEN d.id IS NULL THEN 'emb_only' "
        "WHEN e.id IS NULL THEN 'doc_only' ELSE 'both' END AS status "
        "FROM d FULL OUTER JOIN e ON d.id = e.id"
    )


# ---------------------------------------------------------------------------
# Chi-squared independence test (contingency-table statistic)
# ---------------------------------------------------------------------------

CHI2_SCALE = 1_000_000   # per-cell term emitted in exact integer micro-units


def doc_chi2_independence(sf_dir: str):
    """(lang, source, n_obs, chi2_term_micro) — the FULL lang x source
    contingency grid (zero cells included: they carry expected-count mass,
    omitting them understates the statistic) with each cell's exact
    Pearson chi-squared contribution in integer micro-units:

        term = (CHI2_SCALE * (N*O - R*C)^2) // (N * R * C)

    — the cross-multiplied form of (O - E)^2 / E with E = R*C/N, one floor
    division per cell, so the statistic Σ term is reproducible to the bit
    regardless of partial/merge order. The statistical-test class: unlike
    every grouped aggregate on the surface, the per-cell value couples a
    row margin, a column margin, and the global total.

    Scale shape: one pass of per-batch crosstab partials collapsing into
    an enum-sized (|langs| x |sources| <= ~1e4 cells) groupby exchange;
    the driver holds ONLY that grid and does the margin algebra in
    arbitrary-precision Python ints ((N*O - R*C)^2 overflows int64 past
    N ~ 3e9 rows — the spearman/moments convention)."""
    import itertools

    import pandas as pd

    ds = _read(sf_dir, ["lang", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({"lang": batch["lang"].to_pandas(),
                           "source": batch["source"].to_pandas()})
        g = df.groupby(["lang", "source"], sort=False).size().reset_index(name="cnt")
        return pa.table({"lang": pa.array(g["lang"]), "source": pa.array(g["source"]),
                         "cnt": pa.array(g["cnt"].to_numpy().astype(np.int64))})

    grid = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "source"]).sum("cnt")
        .to_pandas()   # enum-sized
        .rename(columns={"sum(cnt)": "cnt"})
    )
    obs = {(l, s): int(c) for l, s, c in
           zip(grid["lang"], grid["source"], grid["cnt"])}
    langs = sorted({k[0] for k in obs})
    sources = sorted({k[1] for k in obs})
    R = {l: sum(obs.get((l, s), 0) for s in sources) for l in langs}
    C = {s: sum(obs.get((l, s), 0) for l in langs) for s in sources}
    N = sum(R.values())
    rows = []
    for l, s in itertools.product(langs, sources):
        o = obs.get((l, s), 0)
        dev = N * o - R[l] * C[s]
        rows.append((l, s, o, (CHI2_SCALE * dev * dev) // (N * R[l] * C[s])))
    return pd.DataFrame(rows, columns=["lang", "source", "n_obs",
                                       "chi2_term_micro"])


def chi2_sql() -> str:
    """DuckDB replay of doc_chi2_independence: margins as CTEs, the full
    grid as a CROSS JOIN (zero cells via LEFT JOIN), the identical HUGEINT
    cross-multiplied floor division."""
    return (
        "WITH o AS (SELECT lang, source, count(*) AS o FROM documents "
        "GROUP BY 1, 2), "
        "r AS (SELECT lang, CAST(sum(o) AS HUGEINT) AS r FROM o GROUP BY 1), "
        "c AS (SELECT source, CAST(sum(o) AS HUGEINT) AS c FROM o GROUP BY 1), "
        "n AS (SELECT CAST(sum(o) AS HUGEINT) AS n FROM o) "
        "SELECT r.lang, c.source, CAST(COALESCE(o.o, 0) AS BIGINT) AS n_obs, "
        f"CAST(({CHI2_SCALE} * (n.n * COALESCE(o.o, 0) - r.r * c.c) "
        "* (n.n * COALESCE(o.o, 0) - r.r * c.c)) // (n.n * r.r * c.c) "
        "AS BIGINT) AS chi2_term_micro "
        "FROM r CROSS JOIN c CROSS JOIN n "
        "LEFT JOIN o ON o.lang = r.lang AND o.source = c.source"
    )


# ---------------------------------------------------------------------------
# Collocation mining (lift / PMI-monotone association score)
# ---------------------------------------------------------------------------

LIFT_SCALE = 1_000_000
LIFT_MINSUP = 5          # bigram support floor (prunes the hapax tail)


def doc_collocations(sf_dir: str, minsup: int = LIFT_MINSUP,
                     num_buckets: int = 64):
    """(w1, w2, c12, lift_micro) — word bigrams with support >= ``minsup``
    scored by corpus lift

        lift = N * c(w1,w2) / (c(w1) * c(w2)),

    emitted as floor(LIFT_SCALE * N * c12 / (c1 * c2)) — exp(PMI) up to
    the bigram/unigram normalizer, and PMI is monotone in it, so ranking
    or thresholding on lift_micro IS ranking by PMI without a single
    logarithm leaving integer arithmetic. The association-mining class:
    collocations ('new york') score high because the pair outruns both
    margins; frequent-but-independent pairs score ~LIFT_SCALE.

    Scale shape: one text pass of per-batch (unigram, bigram) string-count
    partials -> vocabulary-sized bucket merges (hash(w1) keyed, the
    doc_lm_fluency restructure); the support filter prunes INSIDE the
    merge so only qualifying bigrams reach the two narrow margin
    hash_joins (on w1 then w2, each vocabulary-sized, never broadcast).
    N is one scalar aggregate. The final lift is computed per surviving
    row in arbitrary-precision Python ints (N * c12 * LIFT_SCALE clears
    int64 past ~3e9 tokens; survivors are the minsup-pruned head, so the
    object-dtype pass is bounded — the events_value_gmd convention)."""
    import pandas as pd
    import pyarrow.compute as pc

    from ..stages.joins import hash_join

    ds = _read(sf_dir, ["text"])

    def obj_words(batch: pa.Table):
        w, rid = _words(batch["text"])
        return np.asarray(w, dtype=object), rid

    def uni_partial(batch: pa.Table) -> pa.Table:
        w, _ = obj_words(batch)
        u, c = np.unique(w, return_counts=True)
        bk = (pd.util.hash_array(u.astype(object)) % num_buckets).astype(np.int32)
        return pa.table({"wd": pa.array(u, pa.string()),
                         "c": pa.array(c.astype(np.int64)),
                         "_b": pa.array(bk)})

    def big_partial(batch: pa.Table) -> pa.Table:
        w, rid = obj_words(batch)
        if len(w) < 2:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "c12": pa.array([], pa.int64()),
                             "_b": pa.array([], pa.int32())})
        m = rid[1:] == rid[:-1]
        df = pd.DataFrame({"w1": w[:-1][m], "w2": w[1:][m]})
        g = df.groupby(["w1", "w2"], sort=False).size().reset_index(name="c12")
        bk = (pd.util.hash_array(g["w1"].to_numpy(dtype=object)) % num_buckets).astype(np.int32)
        return pa.table({"w1": pa.array(g["w1"], pa.string()),
                         "w2": pa.array(g["w2"], pa.string()),
                         "c12": pa.array(g["c12"].to_numpy().astype(np.int64)),
                         "_b": pa.array(bk)})

    def merge_big(t: pa.Table) -> pa.Table:
        g = t.group_by(["w1", "w2"]).aggregate([("c12", "sum")])
        g = g.filter(pc.greater_equal(g["c12_sum"], minsup))   # prune in-merge
        return pa.table({"w1": g["w1"], "w2": g["w2"], "c12": g["c12_sum"]})

    uni = (
        bucket_exchange(ds.map_batches(uni_partial, batch_format="pyarrow"), "_b", sum_merge(["wd"], ["c"]))
        .materialize()   # vocabulary-sized: feeds N + both margin joins
    )
    n_tokens = int(uni.sum("c") or 0)
    big = bucket_exchange(ds.map_batches(big_partial, batch_format="pyarrow"), "_b", merge_big)
    j1 = hash_join(big, uni.map_batches(
        lambda t: pa.table({"w1": t["wd"], "c": t["c"]}), batch_format="pyarrow"),
        on="w1", right_cols=("c",), num_buckets=num_buckets)
    j2 = hash_join(j1.map_batches(
        lambda t: pa.table({"w1": t["w1"], "w2": t["w2"], "c12": t["c12"],
                            "c1": t["r_c"]}), batch_format="pyarrow"),
        uni.map_batches(
            lambda t: pa.table({"w2": t["wd"], "c": t["c"]}), batch_format="pyarrow"),
        on="w2", right_cols=("c",), num_buckets=num_buckets)

    def lift(batch: pa.Table) -> pa.Table:
        c12 = batch["c12"].to_numpy(zero_copy_only=False)
        c1 = batch["c1"].to_numpy(zero_copy_only=False)
        c2 = batch["r_c"].to_numpy(zero_copy_only=False)
        # survivor-sized arbitrary-precision pass (see docstring)
        lm = np.fromiter(
            ((LIFT_SCALE * n_tokens * int(a)) // (int(b) * int(c))
             for a, b, c in zip(c12, c1, c2)),
            dtype=np.int64, count=len(c12))
        return pa.table({"w1": batch["w1"], "w2": batch["w2"],
                         "c12": batch["c12"], "lift_micro": pa.array(lm)})

    return j2.map_batches(lift, batch_format="pyarrow")


def collocations_sql(minsup: int = LIFT_MINSUP) -> str:
    """DuckDB replay of doc_collocations: literal-string gram counts, the
    identical HUGEINT floor division."""
    return (
        r"WITH words AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS w "
        "FROM documents), "
        "tok AS (SELECT doc_id, w[CAST(i AS BIGINT)] AS w1, "
        "w[CAST(i + 1 AS BIGINT)] AS w2 "
        "FROM words, unnest(range(1, len(w) + 1)) t(i)), "
        "uni AS (SELECT w1 AS wd, CAST(count(*) AS HUGEINT) AS c FROM tok GROUP BY 1), "
        "n AS (SELECT CAST(sum(c) AS HUGEINT) AS n FROM uni), "
        "big AS (SELECT w1, w2, CAST(count(*) AS HUGEINT) AS c12 FROM tok "
        f"WHERE w2 IS NOT NULL GROUP BY 1, 2 HAVING count(*) >= {minsup}) "
        "SELECT big.w1, big.w2, CAST(big.c12 AS BIGINT) AS c12, "
        f"CAST(({LIFT_SCALE} * n.n * big.c12) // (u1.c * u2.c) AS BIGINT) AS lift_micro "
        "FROM big CROSS JOIN n "
        "JOIN uni u1 ON u1.wd = big.w1 JOIN uni u2 ON u2.wd = big.w2"
    )


# ---------------------------------------------------------------------------
# Training-mix stride interleave (deterministic source-weighted ordering)
# ---------------------------------------------------------------------------

MIX_STRIDE = 720720          # LCM(1..16): integer emission times for small weights
MIX_RANGE = TOKEN_SHARD_RANGE


def _mix_weight_py(source) -> int:
    return 1 + len(source) % 3


def doc_mix_interleave(sf_dir: str, bucket_range: int = MIX_RANGE):
    """(doc_id, source, src_rank, mix_key) — the deterministic data-mixing
    order for a weighted multi-source training run: doc r (0-based, doc_id
    order within its source) of source s is emitted at stride-scheduling
    time

        mix_key = ((r + 1) * MIX_STRIDE) // w(s),   w(s) = 1 + len(s) % 3,

    so sorting by (mix_key, source, doc_id) interleaves sources in exact
    proportion to their weights at every prefix (the low-discrepancy
    stride schedule, Waldspurger-style) — heavier sources recur more
    often, no RNG, and membership of any doc's position is a pure function
    of (source, rank), so resumes and incremental re-exports agree.

    Scale shape: the token-shards DISTRIBUTED SCAN machinery pointed at a
    per-source ordinal instead of a token prefix — pass 1 counts docs per
    (source, doc_id-range bucket) and the driver keeps only the
    |sources| x n_buckets exclusive-prefix grid; pass 2 is one bucket
    exchange where each doc adds its in-bucket per-source cumcount to the
    broadcast offset. int64 bound: (n_docs_per_source + 1) * MIX_STRIDE
    < 2^63 holds to ~1.2e13 docs per source."""
    import pandas as pd

    ds = _read(sf_dir, ["doc_id", "source"])

    def narrow(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"doc_id": pa.array(did), "source": batch["source"],
                         "_b": pa.array(did // bucket_range)})

    slim = ds.map_batches(narrow, batch_format="pyarrow").materialize()

    def counts(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({"source": batch["source"].to_pandas(),
                           "_b": batch["_b"].to_numpy(zero_copy_only=False)})
        g = df.groupby(["source", "_b"], sort=False).size().reset_index(name="n")
        return pa.table({"source": pa.array(g["source"]),
                         "_b": pa.array(g["_b"].to_numpy()),
                         "n": pa.array(g["n"].to_numpy().astype(np.int64))})

    parts = slim.map_batches(counts, batch_format="pyarrow").to_pandas()
    tot = parts.groupby(["source", "_b"])["n"].sum().sort_index()
    # per-source exclusive prefix across ascending buckets (tiny grid)
    off = tot.groupby(level=0).cumsum() - tot
    off = off.to_dict()

    def per_bucket(t: pa.Table) -> pa.Table:
        b = t["_b"].to_numpy()
        did = t["doc_id"].to_numpy()
        src = np.asarray(t["source"].to_pandas(), dtype=object)
        o = np.lexsort((did, src, b))
        b, did, src = b[o], did[o], src[o]
        starts = np.flatnonzero(np.r_[True, (b[1:] != b[:-1]) | (src[1:] != src[:-1])])
        new = np.zeros(len(o), dtype=bool)
        new[starts] = True
        run = np.cumsum(new) - 1
        # each (source, bucket) run: the broadcast offset plus the in-run rank
        base = np.array([off[(s_, int(b_))] for s_, b_ in zip(src[starts], b[starts])], dtype=np.int64)
        w = np.array([_mix_weight_py(s_) for s_ in src[starts]], dtype=np.int64)
        r = base[run] + np.arange(len(o)) - starts[run]
        return pa.table({"doc_id": pa.array(did), "source": pa.array(src, type=pa.string()),
                         "src_rank": pa.array(r), "mix_key": pa.array(((r + 1) * MIX_STRIDE) // w[run])})

    return bucket_exchange(slim, "_b", per_bucket)


def mix_interleave_sql() -> str:
    """DuckDB replay of doc_mix_interleave: row_number per source, the
    identical stride floor division."""
    return (
        "WITH r AS (SELECT doc_id, source, "
        "row_number() OVER (PARTITION BY source ORDER BY doc_id) - 1 AS r "
        "FROM documents) "
        "SELECT doc_id, source, r AS src_rank, "
        f"((r + 1) * {MIX_STRIDE}) // (1 + length(source) % 3) AS mix_key "
        "FROM r"
    )


# ---------------------------------------------------------------------------
# Percent rank within partition (whole-partition rank window)
# ---------------------------------------------------------------------------

PR_SCALE = 1_000_000


def doc_percent_rank(sf_dir: str):
    """(doc_id, lang, n_chars, pr_micro) — every document's percent rank
    of n_chars WITHIN its language, floor-scaled to micro-units:
    pr = (min_rank - 1) / (n_lang - 1), the SQL percent_rank() window.
    The whole-partition rank-window class: unlike the frame windows
    (sliding sum/distinct/median) the rank couples each row to its ENTIRE
    partition, and unlike the quantile cuts the output is per-row.

    Scale shape: ranking WITHOUT sorting the data (the doc_spearman
    machinery) — one enum-sized (lang, n_chars) histogram exchange (length
    is bounded, so the value domain is enum-sized even when rows aren't),
    the driver holds only that grid, and a broadcast CDF turns pass 2 into
    a stateless vectorized searchsorted. min_rank(v) = 1 + #smaller; the
    floor division is exact integers end to end."""
    import pandas as pd

    ds = _read(sf_dir, ["doc_id", "lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({"lang": batch["lang"].to_pandas(),
                           "v": batch["n_chars"].to_numpy(zero_copy_only=False)})
        g = df.groupby(["lang", "v"], sort=False).size().reset_index(name="cnt")
        return pa.table({"lang": pa.array(g["lang"]), "v": pa.array(g["v"].to_numpy()),
                         "cnt": pa.array(g["cnt"].to_numpy().astype(np.int64))})

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "v"]).sum("cnt")
        .to_pandas()   # enum-sized: |langs| x |distinct lengths|
        .rename(columns={"sum(cnt)": "cnt"})
    )
    cdf = {}
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("v")
        c = g["cnt"].to_numpy(dtype=np.int64)
        # smaller[i] = #values strictly below v_i; n = partition size
        cdf[lang] = (g["v"].to_numpy(dtype=np.int64),
                     np.concatenate([[0], np.cumsum(c)[:-1]]), int(c.sum()))

    def score(batch: pa.Table) -> pa.Table:
        langs = np.asarray(batch["lang"].to_pandas(), dtype=object)
        v = batch["n_chars"].to_numpy(zero_copy_only=False)
        pr = np.zeros(len(v), dtype=np.int64)
        for lang in np.unique(langs):
            vals, smaller, n = cdf[lang]
            m = langs == lang
            if n <= 1:
                continue
            idx = np.searchsorted(vals, v[m])
            pr[m] = (smaller[idx] * PR_SCALE) // (n - 1)
        return pa.table({"doc_id": batch["doc_id"], "lang": batch["lang"],
                         "n_chars": batch["n_chars"], "pr_micro": pa.array(pr)})

    return ds.map_batches(score, batch_format="pyarrow")


def percent_rank_sql() -> str:
    """DuckDB replay of doc_percent_rank: the identical floor-scaled
    (rank()-1)/(n-1) windows."""
    return (
        "SELECT doc_id, lang, n_chars, "
        "CASE WHEN count(*) OVER (PARTITION BY lang) <= 1 THEN 0 ELSE "
        f"((rank() OVER (PARTITION BY lang ORDER BY n_chars) - 1) * {PR_SCALE}) "
        "// (count(*) OVER (PARTITION BY lang) - 1) END AS pr_micro "
        "FROM documents"
    )


# ---------------------------------------------------------------------------
# 2D convex hull per language (geometric frontier)
# ---------------------------------------------------------------------------


def _hull_chain(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Andrew monotone chain with STRICT turns (collinear boundary points
    dropped) over distinct lexsorted points; returns selected indices.
    The loop is over the candidate frontier, whose size is bounded by the
    distinct value domain, not by row count."""
    n = len(x)
    if n <= 2:
        return np.arange(n)

    def half(idx):
        out: list[int] = []
        for i in idx:
            while len(out) >= 2:
                ax, ay = x[out[-2]], y[out[-2]]
                bx, by = x[out[-1]], y[out[-1]]
                if (bx - ax) * (y[i] - ay) - (by - ay) * (x[i] - ax) <= 0:
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    order = np.lexsort((y, x))
    lower = half(order)
    upper = half(order[::-1])
    return np.unique(np.concatenate([lower, upper]))


def doc_hull_points(sf_dir: str):
    """(lang, x, y) — the convex-hull VERTICES of each language's distinct
    (n_chars, token-count) point cloud: the geometric frontier class.
    doc_skyline's dominance frontier is the axis-aligned quarter of this;
    the hull is extreme in EVERY direction — the outlier boundary a 2D
    QC scatter gates on (points inside the hull are linear mixtures of
    observed extremes; vertices are the extremes themselves).

    Hulls merge ASSOCIATIVELY (hull(A∪B) = hull(hull(A)∪hull(B))), so the
    shape is skyline's: per-batch local hulls over per-lang DISTINCT
    points (frontier size is value-domain-bounded, not row-bounded), one
    enum-keyed lang exchange of frontier points only, a final chain per
    lang. Strict turns drop collinear boundary points — exactly the twin's
    extreme-EDGE characterization ((p,q) is a hull edge iff every other
    point is strictly left or collinear-between; vertices = edge
    endpoints, plus single-point languages). Integer cross products
    end to end — exact at any coordinate scale below 2^31."""
    ds = _read(sf_dir, ["lang", "n_chars", "text"])

    def local_hull(batch: pa.Table) -> pa.Table:
        nc = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        ch = token_count(
            batch["text"].combine_chunks()
            if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        ).astype(np.int64)
        langs = np.asarray(batch["lang"].to_pandas(), dtype=object)
        out_l, out_x, out_y = [], [], []
        for lang in np.unique(langs):
            m = langs == lang
            pts = np.unique(np.stack([nc[m], ch[m]]), axis=1)
            sel = _hull_chain(pts[0], pts[1])
            out_l.append(np.full(len(sel), lang, dtype=object))
            out_x.append(pts[0][sel])
            out_y.append(pts[1][sel])
        if not out_l:
            return pa.table({"lang": pa.array([], pa.string()),
                             "x": pa.array([], pa.int64()),
                             "y": pa.array([], pa.int64())})
        return pa.table({"lang": pa.array(np.concatenate(out_l), pa.string()),
                         "x": pa.array(np.concatenate(out_x)),
                         "y": pa.array(np.concatenate(out_y))})

    def merge_hull(t: pa.Table) -> pa.Table:
        langs = np.asarray(t["lang"].to_pandas(), dtype=object)
        x = t["x"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        out_l, out_x, out_y = [], [], []
        for lang in np.unique(langs):
            m = langs == lang
            pts = np.unique(np.stack([x[m], y[m]]), axis=1)
            sel = _hull_chain(pts[0], pts[1])
            out_l.append(np.full(len(sel), lang, dtype=object))
            out_x.append(pts[0][sel])
            out_y.append(pts[1][sel])
        return pa.table({"lang": pa.array(np.concatenate(out_l), pa.string()),
                         "x": pa.array(np.concatenate(out_x)),
                         "y": pa.array(np.concatenate(out_y))})

    return bucket_exchange(ds.map_batches(local_hull, batch_format="pyarrow"), "lang", merge_hull)


def hull_sql() -> str:
    """DuckDB replay of doc_hull_points via the extreme-edge
    characterization: ordered pair (p, q) is a hull edge iff every other
    point r of the language satisfies cross(p,q,r) > 0 OR (collinear AND
    between p and q); vertices = DISTINCT edge endpoints, plus languages
    with a single distinct point."""
    return (
        "WITH pts AS (SELECT DISTINCT lang, CAST(n_chars AS BIGINT) AS x, "
        f"CAST(length(regexp_extract_all(text, '{_TOKEN_PATTERN}')) AS BIGINT) AS y "
        "FROM documents), "
        "edge AS (SELECT p.lang, p.x AS px, p.y AS py, q.x AS qx, q.y AS qy "
        "FROM pts p JOIN pts q ON q.lang = p.lang "
        "AND (p.x <> q.x OR p.y <> q.y) "
        "WHERE NOT EXISTS (SELECT 1 FROM pts r WHERE r.lang = p.lang "
        "AND (r.x <> p.x OR r.y <> p.y) AND (r.x <> q.x OR r.y <> q.y) "
        "AND NOT ((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x) > 0 "
        "OR ((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x) = 0 "
        "AND r.x BETWEEN LEAST(p.x, q.x) AND GREATEST(p.x, q.x) "
        "AND r.y BETWEEN LEAST(p.y, q.y) AND GREATEST(p.y, q.y))))), "
        "verts AS (SELECT lang, px AS x, py AS y FROM edge "
        "UNION SELECT lang, qx, qy FROM edge "
        "UNION SELECT lang, x, y FROM pts WHERE lang IN "
        "(SELECT lang FROM pts GROUP BY lang HAVING count(*) = 1)) "
        "SELECT DISTINCT lang, x, y FROM verts"
    )


# ---------------------------------------------------------------------------
# Dictionary term scan (multi-pattern substring counting)
# ---------------------------------------------------------------------------

TERM_LIST = ("scan", "table", "fast", "slow", "customer")


def doc_term_hits(sf_dir: str, terms: tuple[str, ...] = TERM_LIST):
    """(term, n_docs, n_hits) — non-overlapping substring occurrence counts
    of a fixed term dictionary across the corpus: the multi-pattern scan
    class (badword lists, compliance dictionaries, product-name audits —
    K patterns against every document in one pass, where pattern_flag runs
    ONE regex as a gate and scrub rewrites). Non-overlapping left-to-right
    counting is exactly str.count == Arrow count_substring == the twin's
    (length - length(replace)) / length(term) identity.

    Scale shape: one text pass; per batch, K vectorized Arrow
    count_substring kernels (K is dictionary-sized — for thousands of
    patterns swap in an Aho-Corasick actor pool, same partial shape);
    partials are K-row (term, docs, hits) tables merged in one tiny
    groupby. Driver holds K rows."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        rows = []
        for term in terms:
            c = pc.count_substring(texts, term).to_numpy(zero_copy_only=False)
            rows.append((term, int((c > 0).sum()), int(c.sum())))
        return pa.table({"term": pa.array([r[0] for r in rows]),
                         "n_docs": pa.array(np.array([r[1] for r in rows], dtype=np.int64)),
                         "n_hits": pa.array(np.array([r[2] for r in rows], dtype=np.int64))})

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("term").sum(["n_docs", "n_hits"])
        .to_pandas()   # K rows
        .rename(columns={"sum(n_docs)": "n_docs", "sum(n_hits)": "n_hits"})
    )
    return out.sort_values("term").reset_index(drop=True)


def term_hits_sql(terms: tuple[str, ...] = TERM_LIST) -> str:
    """DuckDB replay of doc_term_hits: the replace-based non-overlapping
    count identity per (doc, term), aggregated."""
    vals = ", ".join(f"('{t}')" for t in terms)
    return (
        f"WITH t(term) AS (VALUES {vals}), "
        "h AS (SELECT d.doc_id, t.term, "
        "(length(d.text) - length(replace(d.text, t.term, ''))) "
        "// length(t.term) AS hits FROM documents d CROSS JOIN t) "
        "SELECT term, CAST(count(*) FILTER (hits > 0) AS BIGINT) AS n_docs, "
        "CAST(sum(hits) AS BIGINT) AS n_hits FROM h GROUP BY term ORDER BY term"
    )


# ---------------------------------------------------------------------------
# Filter disagreement audit (set symmetric difference of two keep-sets)
# ---------------------------------------------------------------------------


def doc_filter_disagreement(sf_dir: str, num_buckets: int = 64):
    """(doc_id, kept_by) — the SYMMETRIC DIFFERENCE of two independent
    quality filters' keep-sets: docs the length/token gate keeps but the
    Gopher rules reject ('quality_only') and vice versa ('gopher_only').
    The filter-calibration audit every pipeline migration needs — the
    disagreement set is what a reviewer samples before swapping filters —
    and the set-algebra class (EXCEPT both ways in one pass): built as
    ONE full-outer co-partitioned hash_join of the two keep-sets with
    presence markers, keeping rows where exactly one side exists. Both
    inputs are narrow (doc_id) streams computed by the registered filter
    operators themselves, so this audits the REAL filters, not copies."""
    import pyarrow.compute as pc

    from ..stages.joins import hash_join

    q = doc_quality_filter(sf_dir).map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"],
                            "qk": pa.array(np.ones(t.num_rows, dtype=np.int8))}),
        batch_format="pyarrow")

    def g_side(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["keep"], 1))   # keep is an int64 0/1 verdict
        return pa.table({"doc_id": t["doc_id"],
                         "gk": pa.array(np.ones(t.num_rows, dtype=np.int8))})

    g = doc_gopher_filter(sf_dir).map_batches(g_side, batch_format="pyarrow")
    j = hash_join(q, g, on="doc_id", right_cols=("gk",),
                  num_buckets=num_buckets, join_type="full outer")

    def disagree(t: pa.Table) -> pa.Table:
        qn = pc.is_null(t["qk"])
        gn = pc.is_null(t["r_gk"])
        t = t.filter(pc.or_(qn, gn))
        gn = pc.is_null(t["r_gk"]).to_numpy(zero_copy_only=False)
        kept_by = np.where(gn, "quality_only", "gopher_only").astype(object)
        return pa.table({"doc_id": t["doc_id"], "kept_by": pa.array(kept_by)})

    return j.map_batches(disagree, batch_format="pyarrow")


def filter_disagreement_sql() -> str:
    """DuckDB replay: FULL OUTER of the two keep-set twins, exactly-one-
    side-null rows labeled."""
    q = ("SELECT doc_id FROM documents WHERE length(text) BETWEEN 20 AND 2000 "
         f"AND length(regexp_extract_all(text, '{_TOKEN_PATTERN}')) >= 5")
    g = f"SELECT doc_id FROM ({gopher_sql()}) WHERE keep = 1"
    return (
        f"WITH q AS ({q}), g AS ({g}) "
        "SELECT COALESCE(q.doc_id, g.doc_id) AS doc_id, "
        "CASE WHEN g.doc_id IS NULL THEN 'quality_only' "
        "ELSE 'gopher_only' END AS kept_by "
        "FROM q FULL OUTER JOIN g ON q.doc_id = g.doc_id "
        "WHERE q.doc_id IS NULL OR g.doc_id IS NULL"
    )


# ---------------------------------------------------------------------------
# Exact distributed ROC-AUC of the learned quality classifier against the
# Gopher rule labels — the classifier-calibration eval a curation pipeline
# runs before trusting a model-based filter (DCLM-style classifier vs
# heuristic rules). AUC is a two-class RANK statistic: with ties handled by
# the midrank convention,
#   AUC = [ Σ_s np(s)·NN(<s) + np(s)·nn(s)/2 ] / (P·N)
# over distinct scores s. Everything is exact integers: the 6-decimal logit
# becomes an int64 score, the numerator is kept DOUBLED (num2 = 2·P·N·AUC)
# and emitted as base-1e18 limbs (int64-safe past 10^12 rows, the OLS limb
# convention).
#
# Scale shape: scores and labels are both ROW-LOCAL (one stateless pass);
# per-batch partials collapse to batch-distinct (score, np, nn) rows keyed
# by a fixed VALUE-RANGE bucket (monotone in score, data-independent), so
# ONE exchange co-locates every occurrence of a score; each bucket's
# contribution and (pos, neg) totals are bucket-final, and the driver folds
# 64 bucket rows (never the score table) with exact Python-int cross-bucket
# terms. The distinct-score table is VALUE-DOMAIN-bounded (6-decimal logits
# in a fixed band), not corpus-sized — the percent_rank argument.
# ---------------------------------------------------------------------------

AUC_SCALE = 1_000_000           # 6-decimal logit -> exact int64 score
_AUC_LO, _AUC_HI, _AUC_B = -32_000_000, 32_000_000, 64


def doc_quality_auc(sf_dir: str):
    """One row: (n_pos, n_neg, auc_num2_lo, auc_num2_hi, auc) — exact
    midrank ROC-AUC of classifier logit vs Gopher keep label. DuckDB twin:
    quality_auc_sql (global rank window over the same integer scores)."""
    from ..functions import classifier
    from ..stages.ann import round_half_away

    ds = _read(sf_dir, ["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table({"s": pa.array([], type=pa.int64()),
                          "np": pa.array([], type=pa.int64()),
                          "nn": pa.array([], type=pa.int64()),
                          "_b": pa.array([], type=pa.int32())})
        if batch.num_rows == 0:
            return empty
        texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        lg = classifier.logits(texts)
        s = np.rint(round_half_away(lg, 6) * AUC_SCALE).astype(np.int64)
        _, _, _, keep = gopher_rule_arrays(texts)
        pos = keep == 1
        uniq, inv = np.unique(s, return_inverse=True)
        np_c = np.bincount(inv[pos], minlength=len(uniq)).astype(np.int64)
        nn_c = np.bincount(inv[~pos], minlength=len(uniq)).astype(np.int64)
        b = np.clip((uniq - _AUC_LO) * _AUC_B // (_AUC_HI - _AUC_LO), 0, _AUC_B - 1)
        return pa.table({"s": pa.array(uniq), "np": pa.array(np_c),
                         "nn": pa.array(nn_c), "_b": pa.array(b.astype(np.int32))})

    def bucket_row(t: pa.Table) -> pa.Table:
        # one row per value-range bucket: its (pos, neg) totals and its
        # within-bucket doubled numerator (buckets are monotone in score)
        s = t["s"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(s, return_inverse=True)
        P = np.zeros(len(u), dtype=np.int64)
        N = np.zeros(len(u), dtype=np.int64)
        np.add.at(P, inv, t["np"].to_numpy(zero_copy_only=False))
        np.add.at(N, inv, t["nn"].to_numpy(zero_copy_only=False))
        bu = np.empty(len(u), dtype=np.int64)
        bu[inv] = t["_b"].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, bu[1:] != bu[:-1]])
        Po, No = P.astype(object), N.astype(object)  # exact Python ints (limb emission)
        below = np.cumsum(No) - No
        below -= np.repeat(below[starts], np.diff(np.r_[starts, len(u)]))
        num2 = np.add.reduceat(2 * Po * below + Po * No, starts)
        return pa.table({
            "b": pa.array(bu[starts], type=pa.int64()),
            "pos": pa.array(np.add.reduceat(P, starts), type=pa.int64()),
            "neg": pa.array(np.add.reduceat(N, starts), type=pa.int64()),
            "num2_lo": pa.array([int(x) % 10**18 for x in num2], type=pa.int64()),
            "num2_hi": pa.array([int(x) // 10**18 for x in num2], type=pa.int64()),
        })

    # <= _AUC_B rows, never the score table
    rows = bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "_b", bucket_row).take_all()
    rows.sort(key=lambda r: r["b"])
    num2, below, p_tot, n_tot = 0, 0, 0, 0
    for r in rows:
        num2 += int(r["num2_hi"]) * 10**18 + int(r["num2_lo"]) + 2 * int(r["pos"]) * below
        below += int(r["neg"])
        p_tot += int(r["pos"])
        n_tot += int(r["neg"])
    if p_tot and n_tot:
        auc = float(round_half_away(
            np.array([float(num2) / float(2 * p_tot * n_tot)]), 6)[0])
    else:
        auc = None
    return pa.table({
        "n_pos": pa.array([p_tot], type=pa.int64()),
        "n_neg": pa.array([n_tot], type=pa.int64()),
        "auc_num2_lo": pa.array([num2 % 10**18], type=pa.int64()),
        "auc_num2_hi": pa.array([num2 // 10**18], type=pa.int64()),
        "auc": pa.array([auc], type=pa.float64()),
    })


def quality_auc_sql() -> str:
    """DuckDB replay of doc_quality_auc: the same integer scores ranked by
    one global window, HUGEINT numerator split into the same limbs."""
    from ..functions import classifier

    return (
        f"WITH l AS ({classifier.logit_sql()}), "
        f"g AS (SELECT doc_id, keep FROM ({gopher_sql()}) gq), "
        "t AS (SELECT CAST(round(round(l.logit, 6) * 1000000) AS BIGINT) AS s, "
        "g.keep FROM l JOIN g USING (doc_id)), "
        "h AS (SELECT s, CAST(sum(CASE WHEN keep = 1 THEN 1 ELSE 0 END) AS HUGEINT) AS np, "
        "CAST(sum(CASE WHEN keep = 0 THEN 1 ELSE 0 END) AS HUGEINT) AS nn FROM t GROUP BY s), "
        "c AS (SELECT np, nn, sum(nn) OVER (ORDER BY s ROWS BETWEEN UNBOUNDED "
        "PRECEDING AND CURRENT ROW) - nn AS below FROM h), "
        "a AS (SELECT CAST(coalesce(sum(np), 0) AS HUGEINT) AS p, "
        "CAST(coalesce(sum(nn), 0) AS HUGEINT) AS n, "
        "CAST(coalesce(sum(2 * np * below + np * nn), 0) AS HUGEINT) AS num2 FROM c) "
        "SELECT CAST(p AS BIGINT) AS n_pos, CAST(n AS BIGINT) AS n_neg, "
        "CAST(num2 % 1000000000000000000 AS BIGINT) AS auc_num2_lo, "
        "CAST(num2 // 1000000000000000000 AS BIGINT) AS auc_num2_hi, "
        "CASE WHEN p * n = 0 THEN NULL ELSE "
        "round(CAST(num2 AS DOUBLE) / CAST(2 * p * n AS DOUBLE), 6) END AS auc "
        "FROM a"
    )


# ---------------------------------------------------------------------------
# Cross-split contamination audit — the check every platform runs right
# after sharding: how many of the VAL slice's word n-grams also occur in
# the TRAIN slice of the SAME deterministic hash split (doc_hash_split)?
# Composition of two session operators with a big x big twist: unlike
# doc_decontaminate (tiny eval slice, counted broadcast), BOTH sides here
# are corpus-scale, so the gram streams CO-PARTITION through one
# gram-hash-bucket exchange instead of any broadcast.
# ---------------------------------------------------------------------------


def doc_split_leakage(sf_dir: str, n: int = DECONTAM_N, num_buckets: int = 64):
    """(doc_id, n_grams, n_leaked, leaked) for every val doc with >= 1
    word n-gram: distinct-gram totals and how many also appear anywhere in
    the train slice (train-vs-val is the pair that corrupts model
    selection; the 1% test slice is audited the same way at release time).

    Scale shape: split assignment is row-local (the hash-split multiply);
    per-batch partials emit batch-DISTINCT train gram hashes and per-doc
    DISTINCT val (doc, gram) pairs — a doc's grams live in one batch, so
    val pairs are globally distinct for free. ONE bucket exchange on
    gram-hash co-locates both sides; per-bucket sorted np.isin marks the
    leaks; a val-doc-sized groupby sums the per-bucket partials. Engine
    joins 64-bit FNV gram hashes, the twin joins literal gram strings — a
    collision would surface as a driver-gate mismatch (lm_fluency
    convention)."""

    ds = _read(sf_dir, ["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table({"kind": pa.array([], type=pa.int8()),
                          "h": pa.array([], type=pa.int64()),
                          "doc_id": pa.array([], type=pa.int64()),
                          "_b": pa.array([], type=pa.int32())})
        if batch.num_rows == 0:
            return empty
        texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        did = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = ((did.astype(np.uint64) * np.uint64(SPLIT_MULT))
                  % np.uint64(SPLIT_BUCKETS)).astype(np.int64)
        g, rid = _word_gram_hashes(texts, n)
        if len(g) == 0:
            return empty
        h = g.view(np.int64)
        side = bucket[rid]                      # split bucket per gram row
        is_tr = side >= SPLIT_VAL_LT
        is_va = (side >= SPLIT_TEST_LT) & (side < SPLIT_VAL_LT)
        tr_h = np.unique(h[is_tr])
        va = np.unique(np.stack([did[rid[is_va]], h[is_va]]), axis=1) \
            if is_va.any() else np.empty((2, 0), dtype=np.int64)
        kind = np.concatenate([np.zeros(len(tr_h), dtype=np.int8),
                               np.ones(va.shape[1], dtype=np.int8)])
        hh = np.concatenate([tr_h, va[1]])
        dd = np.concatenate([np.zeros(len(tr_h), dtype=np.int64), va[0]])
        return pa.table({
            "kind": pa.array(kind),
            "h": pa.array(hh),
            "doc_id": pa.array(dd),
            "_b": pa.array(((hh % num_buckets + num_buckets) % num_buckets).astype(np.int32)),
        })

    def per_bucket(t: pa.Table) -> pa.Table:
        kind = t["kind"].to_numpy(zero_copy_only=False)
        h = t["h"].to_numpy(zero_copy_only=False)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        tr = np.unique(h[kind == 0])
        vm = kind == 1
        if not vm.any():
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "g": pa.array([], type=pa.int64()),
                             "l": pa.array([], type=pa.int64())})
        vd, vh = did[vm], h[vm]                 # globally distinct pairs
        hit = np.isin(vh, tr).astype(np.int64)
        u, inv = np.unique(vd, return_inverse=True)
        gtot = np.bincount(inv, minlength=len(u)).astype(np.int64)
        ltot = np.zeros(len(u), dtype=np.int64)
        np.add.at(ltot, inv, hit)
        return pa.table({"doc_id": pa.array(u), "g": pa.array(gtot),
                         "l": pa.array(ltot)})

    agg = (
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "_b", per_bucket)
        .groupby("doc_id")
        .sum(["g", "l"])
    )

    def finish(b: pa.Table) -> pa.Table:
        leaked = b["sum(l)"].to_numpy(zero_copy_only=False) > 0
        return pa.table({"doc_id": b["doc_id"], "n_grams": b["sum(g)"],
                         "n_leaked": b["sum(l)"], "leaked": pa.array(leaked)})

    return agg.map_batches(finish, batch_format="pyarrow")


def split_leakage_sql(n: int = DECONTAM_N) -> str:
    """DuckDB replay of doc_split_leakage: literal gram-string LEFT JOIN
    across the replayed HUGEINT hash split."""
    hi = n - 1
    T = 1 << 64
    return (
        f"WITH sp AS (SELECT doc_id, CAST((CAST(doc_id AS HUGEINT) * {SPLIT_MULT}) "
        f"% {T} % {SPLIT_BUCKETS} AS BIGINT) AS bucket FROM documents), "
        r"words AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS w FROM documents), "
        f"g AS (SELECT doc_id, array_to_string(w[CAST(i AS BIGINT):CAST(i+{hi} AS BIGINT)], ' ') AS gram "
        f"FROM words, unnest(range(1, len(w) - {hi - 1})) AS t(i)), "
        f"tr AS (SELECT DISTINCT gram FROM g JOIN sp USING (doc_id) WHERE bucket >= {SPLIT_VAL_LT}), "
        f"va AS (SELECT DISTINCT doc_id, gram FROM g JOIN sp USING (doc_id) "
        f"WHERE bucket >= {SPLIT_TEST_LT} AND bucket < {SPLIT_VAL_LT}) "
        "SELECT va.doc_id, count(*)::BIGINT AS n_grams, "
        "count(tr.gram)::BIGINT AS n_leaked, count(tr.gram) > 0 AS leaked "
        "FROM va LEFT JOIN tr USING (gram) GROUP BY va.doc_id"
    )


# ---------------------------------------------------------------------------
# Greedy set cover — coverage-maximizing document selection (the submodular
# data-pruning heuristic: pick the k docs that together cover the most
# distinct word n-grams; each round's winner is the doc with the largest
# MARGINAL gain). The iterate(aggregate -> global argmax -> broadcast)
# class with SET semantics: unlike BPE's pair-count rewrite, the broadcast
# state here is the covered-gram set itself.
# ---------------------------------------------------------------------------

SETCOVER_K = 8
MAX_COVERED_GRAMS = 5_000_000  # driver/broadcast bound: k * grams-per-doc


def doc_set_cover(sf_dir: str, k: int = SETCOVER_K, n: int = DECONTAM_N):
    """(round, doc_id, gain, covered_total): the greedy cover trajectory.
    Rounds stop early when no document adds an uncovered gram (a chosen
    doc's grams are all covered, so it can never win twice — no explicit
    exclusion list needed on either side).

    Scale shape: k corpus passes (the BPE-trainer precedent). Per pass,
    each batch computes per-doc distinct gram hashes (a doc is ONE row, so
    per-doc totals are batch-local), masks the broadcast covered set
    (sorted int64 array, bound into each round's UDF, bounded by
    MAX_COVERED_GRAMS = k x grams-per-doc), and emits its LOCAL top-1 —
    the driver folds <= num_blocks (doc_id, gain) rows. The winner's gram
    set comes from ONE predicate-pushdown parquet read of that doc_id.
    Engine grams are 64-bit FNV hashes, the twin joins literal gram
    strings (lm_fluency convention); the per-round `gain ==
    newly-covered` assert doubles as an in-engine collision detector."""
    import pandas as pd
    import pyarrow.parquet as pq_mod

    ds = _read(sf_dir, ["doc_id", "text"])
    covered = np.empty(0, dtype=np.int64)
    rounds: list[tuple[int, int, int, int]] = []

    def doc_grams(texts: pa.Array) -> np.ndarray:
        g, _ = _word_gram_hashes(texts, n)
        return np.unique(g.view(np.int64))

    for r in range(1, k + 1):
        assert len(covered) <= MAX_COVERED_GRAMS, (
            f"doc_set_cover: covered set {len(covered)} exceeds the broadcast "
            f"bound {MAX_COVERED_GRAMS}; lower k or partition the universe")

        def top1(batch: pa.Table, cov=covered) -> pa.Table:
            empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                              "gain": pa.array([], type=pa.int64())})
            if batch.num_rows == 0:
                return empty
            texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
            did = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            g, rid = _word_gram_hashes(texts, n)
            if len(g) == 0:
                return empty
            pr = np.unique(np.stack([rid, g.view(np.int64)]), axis=1)
            keep = ~np.isin(pr[1], cov)
            cnt = np.bincount(pr[0][keep].astype(np.intp), minlength=batch.num_rows)
            if not cnt.any():
                return empty
            best_gain = cnt.max()
            best_doc = did[cnt == best_gain].min()   # tie -> smallest doc_id
            return pa.table({"doc_id": pa.array([best_doc]),
                             "gain": pa.array([int(best_gain)], type=pa.int64())})

        local = ds.map_batches(top1, batch_format="pyarrow").to_pandas()
        if len(local) == 0:
            break
        local = local.sort_values(["gain", "doc_id"], ascending=[False, True])
        best_doc = int(local.iloc[0]["doc_id"])
        best_gain = int(local.iloc[0]["gain"])
        t = pq_mod.read_table(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"],
                              filters=[("doc_id", "==", best_doc)])
        new = np.setdiff1d(doc_grams(t["text"].combine_chunks()), covered)
        assert len(new) == best_gain, (
            f"doc_set_cover: gain {best_gain} != newly covered {len(new)} "
            "(gram-hash collision or non-atomic doc rows)")
        covered = np.union1d(covered, new)
        rounds.append((r, best_doc, best_gain, len(covered)))

    return pd.DataFrame(rounds, columns=["round", "doc_id", "gain", "covered_total"]).astype("int64")


def set_cover_sql(k: int = SETCOVER_K, n: int = DECONTAM_N) -> str:
    """DuckDB replay of doc_set_cover: the k greedy rounds unrolled as
    chained CTEs over literal gram strings (the BPE-twin shape) — each
    round a NOT-IN-covered count, an ORDER BY gain DESC, doc_id LIMIT 1
    pick, and a covered-set UNION.

    Every CTE is MATERIALIZED: each round reads the previous round's
    covered set, so inlined CTEs re-expand the whole chain per reference
    (exponential in k — the default k=8 ran DuckDB out of 12.5 GiB at
    sf0.01). Materializing evaluates each once; the result is the same."""
    hi = n - 1
    parts = [
        r"WITH words AS MATERIALIZED (SELECT doc_id, regexp_extract_all(text, '\S+') AS w FROM documents), "
        f"g AS MATERIALIZED (SELECT DISTINCT doc_id, array_to_string(w[CAST(i AS BIGINT):CAST(i+{hi} AS BIGINT)], ' ') AS gram "
        f"FROM words, unnest(range(1, len(w) - {hi - 1})) AS t(i)), "
        "c0 AS MATERIALIZED (SELECT gram FROM g WHERE 1 = 0)"
    ]
    for r in range(1, k + 1):
        parts.append(
            f"g{r} AS MATERIALIZED (SELECT doc_id, count(*)::BIGINT AS gain FROM g "
            f"WHERE gram NOT IN (SELECT gram FROM c{r - 1}) GROUP BY doc_id)")
        parts.append(
            f"p{r} AS MATERIALIZED (SELECT doc_id, gain FROM g{r} ORDER BY gain DESC, doc_id LIMIT 1)")
        parts.append(
            f"c{r} AS MATERIALIZED (SELECT gram FROM c{r - 1} UNION "
            f"SELECT g.gram FROM g JOIN p{r} USING (doc_id))")
    selects = [
        f"SELECT {r}::BIGINT AS round, doc_id, gain, "
        f"(SELECT count(*)::BIGINT FROM c{r}) AS covered_total FROM p{r}"
        for r in range(1, k + 1)
    ]
    return ", ".join(parts) + " " + " UNION ALL ".join(selects)


# ---------------------------------------------------------------------------
# Fractional-epoch data mixing — the training-recipe replication step
# (upsample curated sources, downsample bulk web; e.g. "wiki 2.4 epochs,
# web 0.6"): every doc is emitted floor(e) times plus one more iff its
# deterministic hash gate clears the fractional part. A row-GENERATING
# transform (fan-out), the inverse of sampling — no shuffle at all.
# ---------------------------------------------------------------------------

MIX_MULT = 14029467366897019727        # fixed odd 64-bit multiplier, independent
THR_TENTH = (1 << 64) // 10            # of SPLIT_MULT so gates don't correlate


def _source_epoch_tenths(source_num: np.ndarray) -> np.ndarray:
    """Default mixing recipe keyed on the source id: (K mod 4 + 1) * 0.6
    epochs = 0.6 / 1.2 / 1.8 / 2.4 in exact TENTHS (6/12/18/24), covering
    sub-1 downsampling and >2 upsampling in one table."""
    return ((source_num % 4) + 1) * 6


def doc_epoch_mix(sf_dir: str):
    """(doc_id, source, epoch) with one row per replica: reps =
    tenths // 10 + (hash-gate < tenths % 10 in 64-bit space). Fully
    row-local — epoch fan-out inside map_batches via np.repeat, no
    exchange, deterministic across runs and block layouts. The gate
    threshold is DEFINED as frac_tenths * floor(2^64 / 10) so numpy
    uint64 and the HUGEINT twin compute bit-identical comparisons."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, ["doc_id", "source"])

    def expand(batch: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                          "source": pa.array([], type=pa.string()),
                          "epoch": pa.array([], type=pa.int64())})
        if batch.num_rows == 0:
            return empty
        did = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        srcnum = pc.cast(pc.utf8_slice_codeunits(batch["source"], 3, 32),
                         pa.int64()).to_numpy(zero_copy_only=False)
        tenths = _source_epoch_tenths(srcnum)
        base = tenths // 10
        frac = tenths % 10
        h = did.astype(np.uint64) * np.uint64(MIX_MULT)   # mod 2^64 implicit
        reps = base + (h < frac.astype(np.uint64) * np.uint64(THR_TENTH))
        total = int(reps.sum())
        if total == 0:
            return empty
        rep_doc = np.repeat(np.arange(len(did)), reps)
        ends = np.cumsum(reps)
        epoch = np.arange(total, dtype=np.int64) - np.repeat(ends - reps, reps) + 1
        return pa.table({
            "doc_id": pa.array(did[rep_doc]),
            "source": batch["source"].take(pa.array(rep_doc)),
            "epoch": pa.array(epoch),
        })

    return ds.map_batches(expand, batch_format="pyarrow")


def epoch_mix_sql() -> str:
    """DuckDB replay of doc_epoch_mix: the same tenths recipe and HUGEINT
    hash gate, fanned out with unnest(range(1, reps+1))."""
    T = 1 << 64
    return (
        "WITH r AS (SELECT doc_id, source, "
        "((CAST(substr(source, 4) AS BIGINT) % 4) + 1) * 6 AS tenths, "
        f"(CAST(doc_id AS HUGEINT) * {MIX_MULT}) % {T} AS h FROM documents), "
        "e AS (SELECT doc_id, source, tenths // 10 + "
        f"CASE WHEN h < CAST(tenths % 10 AS HUGEINT) * {THR_TENTH} THEN 1 ELSE 0 END AS reps FROM r) "
        "SELECT doc_id, source, CAST(t.i AS BIGINT) AS epoch "
        "FROM e, unnest(range(1, reps + 1)) AS t(i)"
    )


# ---------------------------------------------------------------------------
# Cross-group vocabulary similarity — the language-pair (or source-pair)
# distinct-set Jaccard matrix: how much do two slices' vocabularies
# overlap? Group-to-group set similarity, NOT doc-to-doc (setjoin_pairs):
# the exchange is vocabulary-sized and the result is enum^2-sized.
# ---------------------------------------------------------------------------


def lang_vocab_jaccard(sf_dir: str, num_buckets: int = 64):
    """(lang_a, lang_b, n_a, n_b, n_common, jaccard) for every language
    pair sharing >= 1 distinct word (lang_a < lang_b lexically; jaccard
    rounded half-away to 6).

    Scale shape: per-batch distinct (lang, word-hash) pairs; ONE exchange
    keyed on word-hash bucket; per bucket the lang set of each word turns
    into pair counts via <= n_langs shifted run-compares (no per-word
    Python loop) and diagonal (lang, lang) rows carry per-lang distinct
    totals; the final groupby merges enum^2-sized partials and the finish
    is a <= |langs|^2-row driver fold. Engine joins word hashes, the twin
    joins literal words (lm_fluency convention)."""
    from ..stages.ann import round_half_away

    ds = _read(sf_dir, ["doc_id", "lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table({"lang": pa.array([], type=pa.string()),
                          "h": pa.array([], type=pa.int64()),
                          "_b": pa.array([], type=pa.int32())})
        if batch.num_rows == 0:
            return empty
        texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        g, rid = _word_gram_hashes(texts, 1)
        if len(g) == 0:
            return empty
        lang = batch["lang"].to_numpy(zero_copy_only=False)
        lcode, uniq = pd_factorize_stable(lang)
        pairs = np.unique(np.stack([lcode[rid].astype(np.int64), g.view(np.int64)]), axis=1)
        return pa.table({
            "lang": pa.array(uniq[pairs[0]]),
            "h": pa.array(pairs[1]),
            "_b": pa.array(((pairs[1] % num_buckets + num_buckets) % num_buckets).astype(np.int32)),
        })

    def per_bucket(t: pa.Table) -> pa.Table:
        lang = t["lang"].to_numpy(zero_copy_only=False)
        h = t["h"].to_numpy(zero_copy_only=False)
        lcode, uniq = pd_factorize_stable(lang)
        hl = np.unique(np.stack([h, lcode.astype(np.int64)]), axis=1)  # dedup cross-batch
        hh, ll = hl[0], hl[1]   # sorted by (h, lcode): runs share a word
        out_a, out_b = [ll], [ll]          # diagonal seeds (totals)
        max_run = int(np.bincount(np.unique(hh, return_inverse=True)[1]).max(initial=0))
        for s in range(1, max_run):
            same = hh[s:] == hh[:-s]
            if not same.any():
                break
            out_a.append(ll[:-s][same])    # lcode ascending within run ->
            out_b.append(ll[s:][same])     # a < b for free
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        key = a * np.int64(1 << 16) + b
        uk, inv = np.unique(key, return_inverse=True)
        cnt = np.bincount(inv, minlength=len(uk)).astype(np.int64)
        ka, kb = (uk >> np.int64(16)).astype(np.intp), (uk & np.int64(0xFFFF)).astype(np.intp)
        return pa.table({"lang_a": pa.array(uniq[ka]), "lang_b": pa.array(uniq[kb]),
                         "cnt": pa.array(cnt)})

    agg = (bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "_b", per_bucket)
           .groupby(["lang_a", "lang_b"])
           .sum("cnt"))
    df = agg.to_pandas()    # <= |langs|^2 rows
    totals = {r["lang_a"]: int(r["sum(cnt)"]) for _, r in df.iterrows()
              if r["lang_a"] == r["lang_b"]}
    off = df[df["lang_a"] != df["lang_b"]]
    import pandas as pd
    na = off["lang_a"].map(totals).astype(np.int64)
    nb = off["lang_b"].map(totals).astype(np.int64)
    common = off["sum(cnt)"].astype(np.int64)
    jac = round_half_away((common / (na + nb - common)).to_numpy(), 6)
    return pd.DataFrame({
        "lang_a": off["lang_a"].to_numpy(), "lang_b": off["lang_b"].to_numpy(),
        "n_a": na.to_numpy(), "n_b": nb.to_numpy(),
        "n_common": common.to_numpy(), "jaccard": jac,
    }).sort_values(["lang_a", "lang_b"]).reset_index(drop=True)


def pd_factorize_stable(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factorize to codes ORDERED BY VALUE (np.unique), so within-run
    ascending codes mean ascending lang strings — the a < b invariant."""
    uniq, codes = np.unique(arr, return_inverse=True)
    return codes, uniq


def lang_vocab_jaccard_sql() -> str:
    """DuckDB replay over literal words."""
    return (
        r"WITH w0 AS (SELECT lang, unnest(regexp_extract_all(text, '\S+')) AS word "
        "FROM documents), "
        "w AS (SELECT DISTINCT lang, word FROM w0), "
        "sz AS (SELECT lang, count(*)::BIGINT AS n FROM w GROUP BY lang), "
        "ix AS (SELECT a.lang AS lang_a, b.lang AS lang_b, count(*)::BIGINT AS n_common "
        "FROM w a JOIN w b ON a.word = b.word AND a.lang < b.lang GROUP BY 1, 2) "
        "SELECT lang_a, lang_b, za.n AS n_a, zb.n AS n_b, n_common, "
        "round(CAST(n_common AS DOUBLE) / (za.n + zb.n - n_common), 6) AS jaccard "
        "FROM ix JOIN sz za ON za.lang = lang_a JOIN sz zb ON zb.lang = lang_b"
    )


# ---------------------------------------------------------------------------
# Next-fit sequence packing — pack docs into fixed-capacity context windows
# WITHOUT splitting (the complement of doc_token_shards, which splits):
# walk the corpus in doc_id order keeping a running fill; a doc that would
# overflow the window closes it and opens the next. The recurrence
# f' = (f>0 and f+t>C) ? t : f+t is NON-ASSOCIATIVE (no prefix-sum or
# linearization exists), but its state domain is finite — so each block
# tabulates its transfer function over ALL C+1 possible incoming fills in
# parallel (the function-composition scan), the driver folds num_blocks
# tiny tables sequentially, and a second parallel pass emits per-doc
# assignments from each block's now-known incoming state.
# ---------------------------------------------------------------------------

PACK_CAPACITY = 256   # tokens per context window


def doc_pack_bins(sf_dir: str, capacity: int = PACK_CAPACITY):
    """(doc_id, tok, bin_id, bin_offset) under next-fit packing in doc_id
    order. tok = max(1, whitespace words) — empty docs occupy one pad
    token, which also makes every fill >= capacity behave identically
    (any next doc overflows), so the tabulation domain clamps to
    [0, capacity] EXACTLY, not approximately.

    Scale shape: one narrow (doc_id, tok) stream -> ONE sort exchange ->
    materialize (blocks are then frozen, so both passes see identical
    slices with batch_size=None). Pass 1: each block simulates all C+1
    incoming fills at once (row loop over the block x a (C+1)-wide numpy
    state — the finite-domain parallel-scan trick). Driver fold: O(blocks)
    table lookups. Pass 2: per-block span walk (searchsorted per BIN, not
    per row) emits assignments. Twin: recursive CTE walking rn+1 (the
    events_ewma convention)."""
    ds = _read(sf_dir, ["doc_id", "text"])
    return _pack_tok_stream(ds.map_batches(_toks_batch, batch_format="pyarrow"),
                            capacity)


def _toks_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, tok) with tok = max(1, whitespace words)."""
    if batch.num_rows == 0:
        return pa.table({"doc_id": pa.array([], type=pa.int64()),
                         "tok": pa.array([], type=pa.int64())})
    texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
    g, rid = _word_gram_hashes(texts, 1)
    cnt = np.bincount(rid, minlength=batch.num_rows) if len(g) else np.zeros(batch.num_rows, dtype=np.int64)
    return pa.table({"doc_id": batch["doc_id"],
                     "tok": pa.array(np.maximum(cnt, 1).astype(np.int64))})


def _pack_tok_stream(narrow, capacity: int):
    """Next-fit packing of a (doc_id, tok) Dataset (the function-tabulation
    scan; see doc_pack_bins). Shared by doc_pack_bins and the pretrain
    corpus-build composition."""
    snarrow = narrow.sort("doc_id").materialize()
    C = capacity

    def transfer(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"first_doc": pa.array([], type=pa.int64()),
                             "g": pa.array([], type=pa.list_(pa.int64())),
                             "nb": pa.array([], type=pa.list_(pa.int64()))})
        t = batch["tok"].to_numpy(zero_copy_only=False)
        F = np.arange(C + 1, dtype=np.int64)
        N = np.zeros(C + 1, dtype=np.int64)
        for ti in t:
            nb = (F > 0) & (F + ti > C)
            N += nb
            F = np.where(nb, ti, F + ti)
        return pa.table({
            "first_doc": pa.array([batch["doc_id"][0].as_py()], type=pa.int64()),
            "g": pa.array([F.tolist()], type=pa.list_(pa.int64())),
            "nb": pa.array([N.tolist()], type=pa.list_(pa.int64())),
        })

    tables = snarrow.map_batches(transfer, batch_size=None,
                                 batch_format="pyarrow").to_pandas()
    tables = tables.sort_values("first_doc").reset_index(drop=True)
    state: dict[int, tuple[int, int]] = {}
    f, b = 0, 0
    for _, row in tables.iterrows():
        state[int(row["first_doc"])] = (f, b)
        idx = min(f, C)
        b += int(row["nb"][idx])
        f = int(row["g"][idx])

    def assign(batch: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                          "tok": pa.array([], type=pa.int64()),
                          "bin_id": pa.array([], type=pa.int64()),
                          "bin_offset": pa.array([], type=pa.int64())})
        if batch.num_rows == 0:
            return empty
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        t = batch["tok"].to_numpy(zero_copy_only=False).astype(np.int64)
        f0, b0 = state[int(did[0])]
        n = len(t)
        prefix = np.cumsum(t)
        out_bin = np.empty(n, dtype=np.int64)
        out_off = np.empty(n, dtype=np.int64)
        i, f, binno = 0, int(min(f0, C)), int(b0)
        while i < n:
            base = int(prefix[i - 1]) if i > 0 else 0
            j = int(np.searchsorted(prefix, C - f + base, side="right"))
            if j == i:
                if f == 0:          # lone oversized doc gets its own window
                    j = i + 1
                else:               # current window full -> close it
                    binno += 1
                    f = 0
                    continue
            out_off[i:j] = f + prefix[i:j] - base - t[i:j]
            out_bin[i:j] = binno
            f += int(prefix[j - 1]) - base
            i = j
            if i < n:
                binno += 1
                f = 0
        return pa.table({"doc_id": pa.array(did), "tok": pa.array(t),
                         "bin_id": pa.array(out_bin),
                         "bin_offset": pa.array(out_off)})

    return snarrow.map_batches(assign, batch_size=None, batch_format="pyarrow")


def pack_bins_sql(capacity: int = PACK_CAPACITY) -> str:
    """DuckDB replay of doc_pack_bins: the literal next-fit walk as a
    recursive CTE joining rn -> rn + 1."""
    C = capacity
    return (
        r"WITH RECURSIVE t AS (SELECT doc_id, "
        r"greatest(len(regexp_extract_all(text, '\S+')), 1)::BIGINT AS tok FROM documents), "
        "ord AS (SELECT doc_id, tok, row_number() OVER (ORDER BY doc_id) AS rn FROM t), "
        "pack AS ("
        "SELECT rn, doc_id, tok, 0::BIGINT AS bin_id, 0::BIGINT AS bin_offset, tok AS fill "
        "FROM ord WHERE rn = 1 "
        "UNION ALL "
        "SELECT o.rn, o.doc_id, o.tok, "
        f"CASE WHEN p.fill + o.tok > {C} THEN p.bin_id + 1 ELSE p.bin_id END, "
        f"CASE WHEN p.fill + o.tok > {C} THEN 0::BIGINT ELSE p.fill END, "
        f"CASE WHEN p.fill + o.tok > {C} THEN o.tok ELSE p.fill + o.tok END "
        "FROM pack p JOIN ord o ON o.rn = p.rn + 1) "
        "SELECT doc_id, tok, bin_id, bin_offset FROM pack"
    )


# ---------------------------------------------------------------------------
# End-to-end pretraining corpus build — the composition a platform actually
# runs, chained as ONE streaming pipeline: Gopher quality gate -> eval-slice
# + train-split gates (row-local) -> exact dedup keep-first (narrow
# exchange + counted dup-map broadcast) -> decontamination drop (eval-gram
# broadcast probe) -> next-fit context-window packing (the tabulation
# scan). Every stage reuses the already-verified kernel of its standalone
# operator; the SQL twin composes the standalone twins as chained CTEs.
# ---------------------------------------------------------------------------

MAX_BUILD_DUP_MAP = 2_000_000  # distinct duplicated texts the driver may broadcast


def doc_pretrain_build(sf_dir: str, capacity: int = PACK_CAPACITY,
                       n: int = DECONTAM_N, num_buckets: int = 64):
    """(doc_id, tok, bin_id, bin_offset) for the packed TRAIN corpus:
    Gopher-passing, non-eval, train-split, first-copy-per-normalized-text,
    uncontaminated docs packed into fixed windows in doc_id order.

    Stage order is part of the contract (dedup runs among gate survivors,
    so a duplicate whose first copy was gate-dropped keeps its earliest
    SURVIVING copy): gates -> dedup -> decontam -> pack. Scale shape: the
    gates are row-local; dedup moves only (doc_id, h1, h2) and broadcasts
    the counted dup map (count > MAX_BUILD_DUP_MAP raises toward the
    full-row shuffle of stages/dedup.py:dedup_exact); the eval-gram probe
    is the enforced-bound decontaminate broadcast; packing is the
    finite-domain scan. The corpus text crosses the wire ZERO times."""
    import pandas as pd

    from ..stages.dedup import _hash2, _normalize_arrow

    ds = _read(sf_dir, ["doc_id", "text"])

    # --- eval-gram set over the FULL corpus (decontaminate convention) ---
    def eval_grams(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        sel = did % _EVAL_MOD == _EVAL_REM
        if not sel.any():
            return pa.table({"gram": pa.array(np.empty(0, dtype=np.uint64))})
        texts = (batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray)
                 else batch["text"]).filter(pa.array(sel))
        g, _ = _word_gram_hashes(texts, n)
        return pa.table({"gram": pa.array(np.unique(g))})

    ev = ds.map_batches(eval_grams, batch_format="pyarrow").to_pandas()["gram"]
    eval_unique = np.unique(ev.to_numpy(dtype=np.uint64))
    if len(eval_unique) > MAX_EVAL_GRAMS:
        raise ValueError(
            f"doc_pretrain_build: eval slice produced {len(eval_unique)} unique "
            f"grams > MAX_EVAL_GRAMS={MAX_EVAL_GRAMS}")

    # --- stage A: row-local gates (gopher keep, non-eval, train split) ---
    def gates(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        _, _, _, keep = gopher_rule_arrays(texts)
        did = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = ((did.astype(np.uint64) * np.uint64(SPLIT_MULT))
                  % np.uint64(SPLIT_BUCKETS)).astype(np.int64)
        m = keep.astype(bool) & (did % _EVAL_MOD != _EVAL_REM) & (bucket >= SPLIT_VAL_LT)
        return batch.filter(pa.array(m))

    survivors = ds.map_batches(gates, batch_format="pyarrow")

    # --- stage B: exact dedup keep-first among survivors (narrow) ---
    def hash_narrow(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "h1": pa.array([], type=pa.int64()),
                             "h2": pa.array([], type=pa.int64()),
                             "_b": pa.array([], type=pa.int32())})
        h1, h2 = _hash2(_normalize_arrow(batch["text"].combine_chunks()
                                         if isinstance(batch["text"], pa.ChunkedArray)
                                         else batch["text"]))
        return pa.table({"doc_id": batch["doc_id"],
                         "h1": pa.array(h1), "h2": pa.array(h2),
                         "_b": pa.array((h1 % num_buckets).astype(np.int32))})

    def dup_groups(t: pa.Table) -> pa.Table:
        g = t.group_by(["h1", "h2"]).aggregate([("doc_id", "min"), ("doc_id", "count")])
        g = g.filter(pc.greater(g["doc_id_count"], 1))
        return pa.table({"h1": g["h1"], "h2": g["h2"], "keep_doc": g["doc_id_min"].cast(pa.int64())})

    dups = bucket_exchange(survivors.map_batches(hash_narrow, batch_format="pyarrow"),
                           "_b", dup_groups).to_pandas()
    if len(dups) > MAX_BUILD_DUP_MAP:
        raise ValueError(
            f"doc_pretrain_build: dup map {len(dups)} rows > "
            f"{MAX_BUILD_DUP_MAP}; stage B needs a full-row hash-bucket "
            "shuffle like stages.dedup.dedup_exact instead of a broadcast dup map")

    # --- stages B-drop + C (decontam) fused: one row-local pass ---
    def drop_and_probe(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "tok": pa.array([], type=pa.int64())})
        texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        did = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(dups):
            h1, h2 = _hash2(_normalize_arrow(texts))
            df = pd.DataFrame({"h1": h1, "h2": h2, "doc_id": did})
            merged = df.merge(dups, on=["h1", "h2"], how="left")
            keep = (merged["keep_doc"].isna()
                    | (merged["keep_doc"] == merged["doc_id"])).to_numpy()
        else:   # no duplicate group survived the gates (empty map is
            keep = np.ones(batch.num_rows, dtype=bool)  # float-typed)
        g, rid = _word_gram_hashes(texts, n)
        if len(g) and len(eval_unique):
            pos = np.searchsorted(eval_unique, g)
            hit = (pos < len(eval_unique)) & (eval_unique[np.minimum(pos, len(eval_unique) - 1)] == g)
            contaminated = np.zeros(batch.num_rows, dtype=bool)
            np.logical_or.at(contaminated, rid[hit], True)
            keep &= ~contaminated
        sub = batch.filter(pa.array(keep))
        return _toks_batch(sub)

    narrow = survivors.map_batches(drop_and_probe, batch_format="pyarrow")
    return _pack_tok_stream(narrow, capacity)


def pretrain_build_sql(capacity: int = PACK_CAPACITY, n: int = DECONTAM_N) -> str:
    """DuckDB replay of doc_pretrain_build: the standalone twins chained —
    gopher gates + split/eval filters, min-doc_id dedup over survivors,
    gram-join decontamination, recursive next-fit pack."""
    from ..functions.features import STOPWORDS

    C = capacity
    hi = n - 1
    T = 1 << 64
    pres = " + ".join(
        f"CASE WHEN contains(p, ' {w} ') THEN 1 ELSE 0 END" for w in STOPWORDS
    )
    return (
        "WITH RECURSIVE gb AS (SELECT doc_id, text, concat(' ', lower(text), ' ') AS p, "
        r"CAST(length(regexp_extract_all(trim(text), '\S+')) AS BIGINT) AS n_words, "
        "strlen(text) - CAST(length(regexp_replace(text, '[^ \t\n\r]', '', 'g')) AS BIGINT) AS n_nonspace "
        "FROM documents), "
        f"gc AS (SELECT doc_id, text, n_words, CAST({pres} AS BIGINT) AS n_stop, "
        "CAST(n_nonspace AS DOUBLE) / greatest(n_words, 1) AS mwl FROM gb), "
        "keepers AS (SELECT doc_id, text FROM gc "
        f"WHERE n_words BETWEEN {GOPHER_WC_LO} AND {GOPHER_WC_HI} "
        f"AND mwl >= {GOPHER_MWL_LO} AND mwl <= {GOPHER_MWL_HI} AND n_stop >= {GOPHER_MIN_STOP} "
        f"AND doc_id % {_EVAL_MOD} <> {_EVAL_REM} "
        f"AND CAST((CAST(doc_id AS HUGEINT) * {SPLIT_MULT}) % {T} % {SPLIT_BUCKETS} AS BIGINT) >= {SPLIT_VAL_LT}), "
        "firsts AS (SELECT min(doc_id) AS kdoc FROM keepers "
        r"GROUP BY trim(regexp_replace(lower(text), '\s+', ' ', 'g'))), "
        "k2 AS (SELECT doc_id, text FROM keepers WHERE doc_id IN (SELECT kdoc FROM firsts)), "
        r"words_all AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS w FROM documents), "
        f"g_all AS (SELECT doc_id, array_to_string(w[CAST(i AS BIGINT):CAST(i+{hi} AS BIGINT)], ' ') AS gram "
        f"FROM words_all, unnest(range(1, len(w) - {hi - 1})) AS t(i)), "
        f"ev AS (SELECT DISTINCT gram FROM g_all WHERE doc_id % {_EVAL_MOD} = {_EVAL_REM}), "
        "contam AS (SELECT DISTINCT g_all.doc_id FROM g_all JOIN ev USING (gram) "
        f"WHERE g_all.doc_id % {_EVAL_MOD} <> {_EVAL_REM}), "
        "k3 AS (SELECT doc_id, text FROM k2 WHERE doc_id NOT IN (SELECT doc_id FROM contam)), "
        r"tt AS (SELECT doc_id, greatest(len(regexp_extract_all(text, '\S+')), 1)::BIGINT AS tok FROM k3), "
        "ord AS (SELECT doc_id, tok, row_number() OVER (ORDER BY doc_id) AS rn FROM tt), "
        "pack AS ("
        "SELECT rn, doc_id, tok, 0::BIGINT AS bin_id, 0::BIGINT AS bin_offset, tok AS fill "
        "FROM ord WHERE rn = 1 "
        "UNION ALL "
        "SELECT o.rn, o.doc_id, o.tok, "
        f"CASE WHEN p.fill + o.tok > {C} THEN p.bin_id + 1 ELSE p.bin_id END, "
        f"CASE WHEN p.fill + o.tok > {C} THEN 0::BIGINT ELSE p.fill END, "
        f"CASE WHEN p.fill + o.tok > {C} THEN o.tok ELSE p.fill + o.tok END "
        "FROM pack p JOIN ord o ON o.rn = p.rn + 1) "
        "SELECT doc_id, tok, bin_id, bin_offset FROM pack"
    )
