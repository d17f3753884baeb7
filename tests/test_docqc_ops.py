"""Edge-case tests for the round-3 document operators (repetition signals,
rebalanced sampling, dedup clusters) — engine vs DuckDB on a tiny synthetic
documents table with degenerate rows the sf corpora don't contain."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def edge_docs(tmp_path_factory):
    d = tmp_path_factory.mktemp("edge_docs")
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4, 5, 6], type=pa.int64()),
            "text": pa.array(
                [
                    "a a a a",                      # one word repeated
                    "one",                          # single word, no bigram
                    "",                             # empty
                    "  leading and   trailing  ",   # irregular whitespace
                    "x y x y x y z",                # repeated bigram
                    "all words here are unique",    # no repetition
                    "a b a b c a",                  # mixed
                ]
            ),
            "lang": pa.array(["en", "en", "de", "en", "fr", "en", "zh"]),
            "source": pa.array(["s"] * 7),
            "n_chars": pa.array([7, 3, 0, 27, 13, 25, 11], type=pa.int64()),
        }
    )
    pq.write_table(tbl, d / "documents.parquet")
    return str(d)


def _compare(sf_dir, query_fn, sql):
    from tools.check_contract import to_pandas, value_hash

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'")
    eng = to_pandas(query_fn(sf_dir))
    ora = con.sql(sql).df()
    assert len(eng) == len(ora)
    assert sorted(map(str.lower, eng.columns)) == sorted(map(str.lower, ora.columns))
    assert value_hash(eng) == value_hash(ora)
    return eng


def test_doc_repetition_edge_cases(ray_session, edge_docs):
    from titan_ray.pipelines.docqc import doc_repetition, repetition_sql

    eng = _compare(edge_docs, doc_repetition, repetition_sql()).set_index("doc_id")
    assert eng.loc[0, "max_word_frac"] == 1.0      # 'a a a a'
    assert eng.loc[0, "top_bigram_frac"] == 1.0    # 3/3 bigrams 'a a'
    assert eng.loc[1, "n_words"] == 1 and eng.loc[1, "top_bigram_frac"] == 0.0
    assert eng.loc[2, "n_words"] == 0 and eng.loc[2, "uniq_ratio"] == 0.0
    assert eng.loc[3, "n_words"] == 3              # whitespace runs collapse
    assert eng.loc[4, "top_bigram_frac"] == 0.5    # 'x y' 3 of 6 bigrams
    assert eng.loc[5, "uniq_ratio"] == 1.0 and eng.loc[5, "max_word_frac"] == 0.2


def test_doc_sample_rebalance_edge_cases(ray_session, edge_docs):
    from titan_ray.pipelines.docqc import doc_sample_rebalance, sample_sql

    eng = _compare(edge_docs, doc_sample_rebalance, sample_sql())
    # non-en rows are never dropped (rate 1.0)
    assert set(eng.loc[eng.lang != "en", "doc_id"]) == {2, 4, 6}


def test_doc_sample_rebalance_deterministic_and_rate(ray_session):
    """Keep decisions depend only on doc_id (partition-invariant) and the
    realized rate converges to the configured one."""
    from titan_ray.pipelines.docqc import (
        _SAMPLE_MULT,
        _SAMPLE_SEED,
        SAMPLE_RATES,
    )

    ids = np.arange(200_000, dtype=np.uint64)
    h = ids * np.uint64(_SAMPLE_MULT) + np.uint64(_SAMPLE_SEED)
    thr = np.uint64(int(SAMPLE_RATES["en"] * (1 << 64)))
    rate = float((h < thr).mean())
    assert abs(rate - SAMPLE_RATES["en"]) < 0.01


def test_doc_top_words_edge_cases(ray_session, edge_docs):
    """Combiner-pattern top-k word counts vs DuckDB, including the tie-break
    (count desc, word asc) on the tiny corpus where most counts collide."""
    from titan_ray.pipelines.docqc import doc_top_words

    sql = (
        r"WITH w AS (SELECT unnest(regexp_extract_all(text, '\S+')) AS word "
        "FROM documents) SELECT word, count(*) AS n FROM w "
        "GROUP BY word ORDER BY n DESC, word LIMIT 20"
    )
    eng = _compare(edge_docs, doc_top_words, sql)
    assert eng.iloc[0]["word"] == "a" and eng.iloc[0]["n"] == 7


def test_doc_length_quantiles_edge_cases(ray_session, edge_docs):
    """Histogram-walk quantiles reproduce DuckDB quantile_disc exactly
    (sorted[ceil(q*n)-1]) on a 7-row table where every position matters."""
    from titan_ray.pipelines.docqc import doc_length_quantiles

    sql = (
        "SELECT count(*) AS n_docs, "
        "quantile_disc(length(text), 0.25) AS p25, "
        "quantile_disc(length(text), 0.5) AS p50, "
        "quantile_disc(length(text), 0.75) AS p75, "
        "quantile_disc(length(text), 0.9) AS p90, "
        "quantile_disc(length(text), 0.99) AS p99 FROM documents"
    )
    eng = _compare(edge_docs, doc_length_quantiles, sql)
    row = eng.iloc[0]
    lens = sorted([7, 3, 0, 26, 13, 25, 11])  # true len(text) per row
    import math
    for q, col in [(0.25, "p25"), (0.5, "p50"), (0.75, "p75"), (0.9, "p90"), (0.99, "p99")]:
        assert row[col] == lens[max(math.ceil(q * 7), 1) - 1]


def test_doc_decontaminate_edge_cases(ray_session, tmp_path):
    """Decontamination against a fixture with known overlaps: doc 7 is the
    eval doc; 100 copies its 3-gram, 101 shares no gram, 102 contains two
    distinct contaminated grams, 103 matches only across a line boundary
    (still one gram — \\s+ split), and an eval-eval overlap stays excluded."""
    from titan_ray.pipelines.docqc import doc_decontaminate, decontam_sql

    tbl = pa.table(
        {
            "doc_id": pa.array([7, 107, 100, 101, 102, 103], type=pa.int64()),
            "text": pa.array(
                [
                    "alpha beta gamma delta",        # eval: grams abg, bgd
                    "zeta eta theta",                # eval: gram zet-eta-theta
                    "x alpha beta gamma y",          # hit: 1 gram (abg)
                    "alpha gamma beta",              # no shared gram
                    "alpha beta gamma delta extra",  # hit: 2 grams (abg, bgd)
                    "q zeta\neta   theta",           # hit: 1 gram, odd whitespace
                ]
            ),
        }
    )
    d = tmp_path / "decon"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")
    eng = _compare(str(d), doc_decontaminate, decontam_sql()).set_index("doc_id")
    assert set(eng.index) == {100, 102, 103}
    assert eng.loc[100, "n_contaminated"] == 1
    assert eng.loc[102, "n_contaminated"] == 2
    assert eng.loc[103, "n_contaminated"] == 1


def test_doc_decontaminate_eval_bound_enforced(ray_session, tmp_path, monkeypatch):
    """The eval-slice broadcast bound is enforced, not assumed: an eval side
    exceeding MAX_EVAL_GRAMS unique grams raises instead of materializing."""
    import pytest
    from titan_ray.pipelines import docqc

    tbl = pa.table(
        {
            "doc_id": pa.array([7, 100], type=pa.int64()),
            "text": pa.array(["alpha beta gamma delta epsilon", "x alpha beta gamma y"]),
        }
    )
    d = tmp_path / "decon_bound"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")
    monkeypatch.setattr(docqc, "MAX_EVAL_GRAMS", 2)  # eval doc 7 has 3 grams
    with pytest.raises(ValueError, match="MAX_EVAL_GRAMS"):
        docqc.doc_decontaminate(str(d))


def test_doc_top_tfidf_edge_cases(ray_session, edge_docs):
    """Linear-idf argmax with word tie-break; empty doc excluded. Expected
    values derived by hand: N=7, df('a')=2, df of doc-5 words = 1 each."""
    from titan_ray.pipelines.docqc import doc_top_tfidf, tfidf_sql

    eng = _compare(edge_docs, doc_top_tfidf, tfidf_sql()).set_index("doc_id")
    assert 2 not in eng.index                      # empty doc has no words
    assert eng.loc[0, "top_word"] == "a" and eng.loc[0, "score"] == 14.0  # 4*7/2
    assert eng.loc[5, "top_word"] == "all" and eng.loc[5, "score"] == 7.0  # tie -> word asc
    assert eng.loc[6, "top_word"] == "b" and eng.loc[6, "score"] == 14.0  # 2*7/1 beats 3*7/2


def test_quality_classifier_parity_and_separation(ray_session, edge_docs):
    from titan_ray.functions import classifier
    from titan_ray.pipelines.docqc import classifier_sql, doc_quality_classifier

    _compare(edge_docs, doc_quality_classifier, classifier_sql())

    # the learned band: clean English positive, junk shapes negative
    clean = pa.array([
        "The quick brown fox jumps over the lazy dog near the river bank.",
        "Data pipelines filter and score documents before model training.",
    ])
    junk = pa.array([
        "000###//1234!!%%==5678==%%!!4321//###000",
        "wordswithoutanyspacesatallrunningtogetherforever" * 3,
        " ".join("atomizedcharactershavetinytokens"),
    ])
    assert (classifier.logits(clean) > 0).all()
    assert (classifier.logits(junk) < 0).all()


def test_classifier_training_deterministic():
    from titan_ray.functions.classifier import train_weights

    w1, w2 = train_weights(), train_weights()
    assert (w1 == w2).all()
    assert len(w1) == 8


def test_doc_token_shards_scan(ray_session):
    from titan_ray.pipelines.docqc import doc_token_shards, token_shards_sql

    sf = "/root/testdata/sf0.001"
    eng = _compare(sf, doc_token_shards, token_shards_sql()).sort_values("doc_id")
    # the scan invariants: shards are monotone in doc order, and every
    # shard boundary is exactly where the exclusive prefix crosses a
    # multiple of the budget
    t = eng["token_count"].to_numpy()
    import numpy as np

    prev = np.concatenate([[0], np.cumsum(t)[:-1]])
    assert (eng["shard"].to_numpy() == prev // 4096).all()
    assert (np.diff(eng["shard"].to_numpy()) >= 0).all()

    # a different bucket_range must give the identical assignment (the
    # partitioning is an implementation detail, not a semantic)
    alt = (
        doc_token_shards(sf, bucket_range=7)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (alt["shard"].to_numpy() == eng["shard"].reset_index(drop=True).to_numpy()).all()


def test_doc_quantile_filter(ray_session):
    import numpy as np

    from titan_ray.pipelines.docqc import doc_quantile_filter, quantile_filter_sql

    sf = "/root/testdata/sf0.001"
    eng = _compare(sf, doc_quantile_filter, quantile_filter_sql())
    # every language lost at most a quarter of its docs (quantile_disc at
    # q=0.25 keeps >= 75%, ties can only keep more)
    import duckdb

    con = duckdb.connect()
    tot = con.sql(
        f"SELECT lang, count(*) n FROM '{sf}/documents.parquet' GROUP BY lang"
    ).df().set_index("lang")["n"]
    kept = eng.groupby("lang").size()
    for lang, n in tot.items():
        assert kept.get(lang, 0) >= int(np.ceil(0.75 * n)) - 1
        assert kept.get(lang, 0) < n or n == 1


def test_doc_length_stats_oracle(ray_session, edge_docs):
    """Retired from the driver roster (50-entry window) but still
    oracle-parity-checked here."""
    from titan_ray.pipelines.docqc import doc_length_stats

    import __ray_entry__ as entry

    sql = entry.oracle_sql().get("doc_length_stats")
    assert sql, "doc_length_stats SQL should stay registered for this test"
    _compare(edge_docs, doc_length_stats, sql)


def test_doc_lm_fluency_oracle(ray_session, edge_docs):
    from titan_ray.pipelines.docqc import LM_SCALE, doc_lm_fluency, lm_fluency_sql

    eng = _compare(edge_docs, doc_lm_fluency, lm_fluency_sql()).set_index("doc_id")
    assert (eng["n_bigrams"] == 0).any()         # short/empty docs carried
    # 'a a a a': 3 bigrams 'a a' (count 3); unigram 'a' appears >= 4 times
    # overall, so each term = SCALE*3 // c1('a') and the sum is 3 * that
    row0 = eng.loc[0]
    assert row0["n_bigrams"] == 3 and row0["fluency_sum"] % 3 == 0
    assert 0 < row0["fluency_sum"] <= 3 * LM_SCALE


def test_doc_lm_fluency_join_fallback_identical(ray_session, edge_docs):
    """Above max_vocab the hash_join path must be bit-identical to the
    broadcast path (round-4 verdict item 2; mirrors the dedup_clusters
    both-paths unit)."""
    from titan_ray.pipelines.docqc import doc_lm_fluency, lm_fluency_sql

    joined = _compare(edge_docs, lambda d: doc_lm_fluency(d, max_vocab=2), lm_fluency_sql())
    broadcast = doc_lm_fluency(edge_docs).to_pandas()
    key = ["doc_id"]
    assert joined.sort_values(key).reset_index(drop=True).equals(
        broadcast.sort_values(key)[joined.columns].reset_index(drop=True)
    )


def test_doc_lm_fluency_sf0001(ray_session):
    from titan_ray.pipelines.docqc import doc_lm_fluency, lm_fluency_sql

    eng = _compare("/root/testdata/sf0.001", doc_lm_fluency, lm_fluency_sql())
    # common-continuation docs score strictly higher than they would under
    # a uniform model; sanity: scores vary across docs
    assert eng["fluency_sum"].nunique() > 1


def test_doc_hash_split_oracle(ray_session, edge_docs):
    from titan_ray.pipelines.docqc import doc_hash_split, hash_split_sql

    eng = _compare(edge_docs, doc_hash_split, hash_split_sql())
    assert set(eng["split"]).issubset({"train", "val", "test"})


def test_doc_split_leakage_edge_cases(ray_session, tmp_path):
    """Cross-split contamination: doc 97/105/113 are val (buckets 1..5 under
    the Fibonacci split), 1..4 are train, 1652 is test. 97 shares one 3-gram
    with train doc 1; 105 shares none (its only overlap is with TEST doc
    1652, which must not count as leakage); 113 shares two distinct grams
    with two different train docs. Val docs with <3 words emit no row."""
    from titan_ray.pipelines.docqc import doc_split_leakage, split_leakage_sql

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 97, 105, 113, 1652, 121],
                               type=pa.int64()),
            "text": pa.array(
                [
                    "alpha beta gamma delta",     # train: grams abg, bgd
                    "p q r s",                    # train
                    "one two three four",         # train
                    "unrelated words entirely here",  # train
                    "x alpha beta gamma y",       # val: leak 1 gram (abg) of 3
                    "zeta eta theta iota",        # val: overlaps only test doc
                    "alpha beta gamma one two three",  # val: 2 leaks of 4
                    "zeta eta theta",             # test: must NOT mark 105
                    "zz",                         # val: <3 words -> no row
                ]
            ),
        }
    )
    d = tmp_path / "leak"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")
    eng = _compare(str(d), doc_split_leakage, split_leakage_sql()).set_index("doc_id")
    assert set(eng.index) == {97, 105, 113}
    assert eng.loc[97, "n_grams"] == 3 and eng.loc[97, "n_leaked"] == 1
    assert eng.loc[105, "n_leaked"] == 0 and not eng.loc[105, "leaked"]
    assert eng.loc[113, "n_grams"] == 4 and eng.loc[113, "n_leaked"] == 2
    assert bool(eng.loc[113, "leaked"])


def test_doc_split_leakage_partition_invariant(ray_session):
    """Same answer at 1 block and many blocks: per-batch distinct partials
    must not depend on how the read splits the corpus."""
    from titan_ray.pipelines.docqc import doc_split_leakage

    sf = "/root/testdata/sf0.001"
    base = doc_split_leakage(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)

    import ray as _ray
    import titan_ray.pipelines.docqc as docqc

    ds = _ray.data.read_parquet(f"{sf}/documents.parquet",
                                columns=["doc_id", "text"]).repartition(17)
    orig = docqc._read
    try:
        docqc._read = lambda _sf, _cols: ds
        many = doc_split_leakage(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    finally:
        docqc._read = orig
    pd.testing.assert_frame_equal(base, many)


def test_doc_hash_split_proportions(ray_session):
    from titan_ray.pipelines.docqc import doc_hash_split, hash_split_sql

    eng = _compare("/root/testdata/sf0.01", doc_hash_split, hash_split_sql())
    frac = eng["split"].value_counts(normalize=True)
    assert frac.get("train", 0) > 0.85
    assert 0 < frac.get("val", 0) < 0.12
    # determinism: same assignment on a re-run
    again = doc_hash_split("/root/testdata/sf0.01").to_pandas()
    assert again.sort_values("doc_id")["split"].tolist() == \
        eng.sort_values("doc_id")["split"].tolist()


def test_doc_source_quota(ray_session, tmp_path):
    """Per-source quota: SQL row_number parity at sf0.001, the
    fewer-than-N source keeps everything, and the result is
    partition-invariant (threshold pass, not per-block top-N)."""
    from titan_ray.pipelines.docqc import doc_source_quota, source_quota_sql

    eng = _compare("/root/testdata/sf0.001", doc_source_quota, source_quota_sql())
    # every surviving source has at most N rows
    assert eng.groupby("source").size().max() <= 10

    # tiny planted table: srcA has 3 docs (< N=2? use per_source=2),
    # srcB has 5 — exercise the short-source branch and block invariance
    tbl = pa.table(
        {
            "doc_id": pa.array([7, 3, 11, 20, 22, 24, 21, 23], type=pa.int64()),
            "text": pa.array(["x"] * 8),
            "lang": pa.array(["en"] * 8),
            "source": pa.array(["A", "A", "A", "B", "B", "B", "B", "B"]),
            "n_chars": pa.array([1] * 8, type=pa.int64()),
        }
    )
    d = tmp_path / "quota_docs"
    d.mkdir()
    pq.write_table(tbl, str(d / "documents.parquet"))

    got = {}
    for parts in (1, 4):
        import ray.data as rd

        from titan_ray.pipelines import docqc as m

        orig = m._read
        m._read = lambda sf, cols, _t=tbl: rd.from_arrow(_t.select(cols)).repartition(parts)
        try:
            out = doc_source_quota(str(d), per_source=2).to_pandas()
        finally:
            m._read = orig
        got[parts] = set(zip(out["source"], out["doc_id"]))
    assert got[1] == got[4] == {("A", 3), ("A", 7), ("B", 20), ("B", 21)}


def test_doc_ppl_buckets(ray_session):
    """CCNet-style per-lang fluency terciles: SQL parity at sf0.001, every
    lang split ~in thirds, and thresholds are per-language (a lang's head
    cut does not leak into another's)."""
    from titan_ray.pipelines.docqc import doc_ppl_buckets, ppl_buckets_sql

    eng = _compare("/root/testdata/sf0.001", doc_ppl_buckets, ppl_buckets_sql())
    per = eng.groupby(["lang", "bucket"]).size().unstack(fill_value=0)
    assert set(per.columns) <= {"head", "middle", "tail"}
    # tercile rule: within each lang no bucket exceeds ~60% (ties can skew
    # small langs but not collapse the split)
    frac = per.div(per.sum(axis=1), axis=0)
    assert (frac.max(axis=1) < 0.8).all()


def test_doc_gopher_filter(ray_session, edge_docs):
    from titan_ray.pipelines.docqc import doc_gopher_filter, gopher_sql

    # degenerate rows (empty, single-word, irregular whitespace) all fall
    # below the word-count band and must be dropped, hash-identically to SQL
    eng = _compare(edge_docs, doc_gopher_filter, gopher_sql()).set_index("doc_id")
    assert (eng["keep"] == 0).all()
    assert eng.loc[2, "n_words"] == 0 and eng.loc[2, "mean_word_len"] == 0.0
    assert eng.loc[3, "n_words"] == 3          # irregular whitespace collapses
    assert eng.loc[5, "n_stop_distinct"] == 2  # 'all' + 'are'

    # real corpus: hash-green and every rule cuts non-trivially
    eng = _compare("/root/testdata/sf0.001", doc_gopher_filter, gopher_sql())
    kept = int(eng["keep"].sum())
    assert 0 < kept < len(eng)
    wc_fail = ((eng["n_words"] < 20) | (eng["n_words"] > 90)).sum()
    mwl_fail = ((eng["mean_word_len"] < 3.9) | (eng["mean_word_len"] > 5.1)).sum()
    st_fail = (eng["n_stop_distinct"] < 2).sum()
    assert wc_fail > 0 and mwl_fail > 0 and st_fail > 0


def test_doc_unigram_entropy(ray_session, edge_docs):
    from titan_ray.pipelines.docqc import doc_unigram_entropy, entropy_sql

    eng = _compare(edge_docs, doc_unigram_entropy, entropy_sql()).set_index("doc_id")
    assert eng.loc[0, "entropy_nano"] == 0          # 'a a a a' — one type
    assert eng.loc[1, "entropy_nano"] == 0          # single word
    assert eng.loc[2, "entropy_nano"] == 0          # empty
    # 'all words here are unique' — 5 uniform types: H = ln(5)
    import math
    assert eng.loc[5, "entropy_nano"] == math.floor(math.log(5) * 1e9 + 0.5)

    eng = _compare("/root/testdata/sf0.001", doc_unigram_entropy, entropy_sql())
    assert (eng["entropy_nano"] >= 0).all()
    assert eng["entropy"].nunique() > 100           # non-degenerate signal


def test_doc_pmi_collocations(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import doc_pmi_collocations, pmi_sql

    # PMI = c12*N/(c1*c2): a *rare* perfect pair (both words occur only in
    # the collocation, exactly min_count times) scores N/c12 — strictly
    # above frequent perfect pairs and far above 'the X' chains.
    d = tmp_path / "pmi"
    d.mkdir()
    rows = []
    for i in range(5):
        rows.append("the dog zyx qwv the cat")       # planted rare pair
    for i in range(75):
        rows.append("the dog the cat the bird the fish")
    tbl = pa.table({
        "doc_id": pa.array(range(80), type=pa.int64()),
        "text": pa.array(rows),
    })
    pq.write_table(tbl, d / "documents.parquet")
    eng = _compare(str(d), doc_pmi_collocations, pmi_sql())
    top = eng.iloc[0]
    assert (top["w1"], top["w2"]) == ("zyx", "qwv")

    # real corpus: hash-green with a full top-30 board
    eng = _compare("/root/testdata/sf0.001", doc_pmi_collocations, pmi_sql())
    assert len(eng) == 30
    assert eng["pmi_scaled"].is_monotonic_decreasing


def test_doc_bm25_topk(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import bm25_sql, doc_bm25_topk

    # doc 0: dense in rare term 'hash' and short -> top; doc 1: one hit in a
    # long doc -> lower; doc 2: hits only ubiquitous 'stream' -> lowest;
    # doc 3: no hits -> absent; doc 4: empty (inert for N/avgdl)
    d = tmp_path / "bm25"
    d.mkdir()
    rows = [
        "hash hash join x",
        "hash " + "y " * 40 + "z",
        "stream a b c",
        "p q r s",
        "",
    ] + ["stream w w w"] * 10          # make 'stream' high-df
    tbl = pa.table({
        "doc_id": pa.array(range(len(rows)), type=pa.int64()),
        "text": pa.array(rows),
    })
    pq.write_table(tbl, d / "documents.parquet")
    eng = _compare(str(d), doc_bm25_topk, bm25_sql())
    assert eng.iloc[0]["doc_id"] == 0                  # tf-dense short doc wins
    assert 3 not in set(eng["doc_id"])                 # no query hits -> absent
    assert 4 not in set(eng["doc_id"])
    s = eng.set_index("doc_id")["bm25_scaled"]
    assert s[0] > s[1] > s[2]                          # df + length norm order

    # real corpus: hash-green
    eng = _compare("/root/testdata/sf0.001", doc_bm25_topk, bm25_sql())
    assert len(eng) > 0
    assert eng["bm25_scaled"].is_monotonic_decreasing


def test_doc_vocab_size(ray_session, edge_docs, tmp_path):
    from titan_ray.pipelines.docqc import doc_vocab_size, vocab_size_sql

    # edge fixture: 'de' lang has ONLY the empty doc -> no row (unnest
    # semantics); per-lang type/token counts hash-match DuckDB
    eng = _compare(edge_docs, doc_vocab_size, vocab_size_sql()).set_index("lang")
    assert "de" not in eng.index
    assert eng.loc["en", "n_types"] == len(
        set("a a a a one leading and trailing all words here are unique".split())
    )
    assert eng.loc["fr", "n_types"] == 3 and eng.loc["fr", "n_tokens"] == 7

    # real corpus, multi-block: exchange-level dedup correctness
    eng = _compare("/root/testdata/sf0.001", doc_vocab_size, vocab_size_sql())
    assert (eng["n_types"] <= eng["n_tokens"]).all()


def test_corpus_diff(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import corpus_diff, corpus_diff_sql

    # ids picked so all three statuses fire: 3 -> B only (added), 5 -> A
    # only (removed), 7/14 -> both with B's text amended (changed), 1/2 ->
    # both unchanged (absent), 15 -> neither snapshot
    d = tmp_path / "diff"
    d.mkdir()
    ids = [1, 2, 3, 5, 7, 14, 15]
    tbl = pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": pa.array([f"text {i}" for i in ids]),
    })
    pq.write_table(tbl, d / "documents.parquet")
    eng = _compare(str(d), corpus_diff, corpus_diff_sql()).set_index("doc_id")
    assert eng.loc[3, "status"] == "added"
    assert eng.loc[5, "status"] == "removed"
    assert eng.loc[7, "status"] == "changed"
    assert eng.loc[14, "status"] == "changed"
    assert set(eng.index) == {3, 5, 7, 14}

    # real corpus, multi-block
    eng = _compare("/root/testdata/sf0.001", corpus_diff, corpus_diff_sql())
    assert set(eng["status"]) == {"added", "removed", "changed"}


def test_embedding_lang_centroids(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.docqc import embedding_lang_centroids, lang_centroids_sql
    import duckdb

    def compare(d):
        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS SELECT * FROM '{d}/documents.parquet'")
        con.sql(f"CREATE VIEW embeddings AS SELECT * FROM '{d}/embeddings.parquet'")
        eng = to_pandas(embedding_lang_centroids(d))
        ora = con.sql(lang_centroids_sql()).df()
        assert len(eng) == len(ora)
        assert value_hash(eng) == value_hash(ora)
        return eng

    # planted: 2 langs, 2 dims, one unmatched vec (inner-join drop)
    d = tmp_path / "cent"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array(["a", "b", "c"]),
        "lang": pa.array(["en", "en", "fr"]),
    }), d / "documents.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array([0, 1, 2, 9], type=pa.int64()),
        "embedding": pa.array([[0.5, -0.25], [0.5, 0.75], [1.0, 0.0], [9.0, 9.0]],
                              type=pa.list_(pa.float32())),
    }), d / "embeddings.parquet")
    eng = compare(str(d)).set_index(["lang", "dim"])
    assert eng.loc[("en", 1), "sum_q"] == 1_000_000 and eng.loc[("en", 1), "n"] == 2
    assert eng.loc[("en", 2), "sum_q"] == 500_000
    assert eng.loc[("fr", 1), "sum_q"] == 1_000_000 and eng.loc[("fr", 1), "n"] == 1
    assert ("9.0" not in str(eng))          # vec 9 dropped (no doc)

    eng = compare("/root/testdata/sf0.001")
    assert len(eng) == eng["lang"].nunique() * 64


def test_online_dedup_index(ray_session, tmp_path):
    """Shared-mutable-index pattern (raw-actor escape hatch): duplicates
    planted ACROSS the two simulated crawls (odd ids ingest first, even
    second) — only a persistent cross-run index can catch those; min-id
    semantics make the racy execution deterministic and SQL-replayable."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import duckdb

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.state.dedup_index import online_dedup_docs, online_dedup_sql

    d = tmp_path / "didx"
    d.mkdir()
    # text 'dup A': ids 3 (crawl 1) and 2 (crawl 2) -> min 2 survives;
    # text 'dup B': ids 5 and 7 (both crawl 1) -> min 5; singletons pass
    tbl = pa.table({
        "doc_id": pa.array([2, 3, 5, 7, 8, 11], type=pa.int64()),
        "text": pa.array(["dup A", "dup A", "dup B", "dup B", "solo x", "solo y"]),
    })
    pq.write_table(tbl, d / "documents.parquet")
    eng = to_pandas(online_dedup_docs(str(d), num_shards=3))
    assert sorted(eng["doc_id"]) == [2, 5, 8, 11]
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{d}/documents.parquet'")
    assert value_hash(eng) == value_hash(con.sql(online_dedup_sql()).df())

    # real corpus parity at sf0.001
    eng = to_pandas(online_dedup_docs("/root/testdata/sf0.001"))
    con2 = duckdb.connect()
    con2.sql("CREATE VIEW documents AS SELECT * FROM '/root/testdata/sf0.001/documents.parquet'")
    ora = con2.sql(online_dedup_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_doc_ngram_novelty(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import doc_ngram_novelty, ngram_novelty_sql

    # doc 0/1 share 'a b c' (their only gram -> not unique); doc 2 is all
    # fresh; doc 3 too short for any 3-gram
    d = tmp_path / "nov"
    d.mkdir()
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array(["a b c", "a b c", "x y z w", "p q"]),
    })
    pq.write_table(tbl, d / "documents.parquet")
    eng = _compare(str(d), doc_ngram_novelty, ngram_novelty_sql()).set_index("doc_id")
    assert eng.loc[0, "novelty_milli"] == 0 and eng.loc[0, "n_gram"] == 1
    assert eng.loc[2, "novelty_milli"] == 1000 and eng.loc[2, "n_uniq"] == 2
    assert eng.loc[3, "n_gram"] == 0 and eng.loc[3, "novelty_milli"] == 0

    # real corpus, multi-block: df decided inside gram buckets
    eng = _compare("/root/testdata/sf0.001", doc_ngram_novelty, ngram_novelty_sql())
    assert len(eng) == 500
    assert eng["novelty_milli"].between(0, 1000).all()


def test_doc_length_percentile(ray_session, edge_docs):
    from titan_ray.pipelines.docqc import doc_length_percentile, length_percentile_sql

    eng = _compare(edge_docs, doc_length_percentile, length_percentile_sql()).set_index("doc_id")
    assert eng.loc[2, "pct_milli"] == 0           # empty doc = shortest
    assert eng["pct_milli"].max() == 1000         # unique max -> (7-1)/(7-1)

    eng = _compare("/root/testdata/sf0.001", doc_length_percentile, length_percentile_sql())
    assert eng["pct_milli"].between(0, 1000).all()


def test_doc_bottomk_sample(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import doc_bottomk_sample, bottomk_sample_sql

    # real corpus: hash-green vs ORDER BY hash LIMIT k
    eng = _compare("/root/testdata/sf0.001", doc_bottomk_sample, bottomk_sample_sql())
    assert len(eng) == 100
    assert eng["h"].is_monotonic_increasing

    # mergeability/consistency: the sample of a SUPERSET corpus restricted
    # to the subset's ids equals the subset's own sample prefix — the
    # bottom-k invariant that makes incremental ingest consistent
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    for d, n in ((d1, 500), (d2, 1000)):
        d.mkdir()
        pq.write_table(
            pa.table({"doc_id": pa.array(range(n), type=pa.int64()),
                      "text": pa.array(["x"] * n)}),
            d / "documents.parquet",
        )
    s1 = doc_bottomk_sample(str(d1), k=20)
    s2 = doc_bottomk_sample(str(d2), k=20)
    sub = [h for h, i in zip(s2["h"], s2["doc_id"]) if i < 500]
    assert list(s1["h"])[: len(sub)] == sub


def test_doc_cms_wordcounts(ray_session, tmp_path):
    import duckdb as _duck
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import (
        CMS_PROBE_WORDS,
        cms_wordcounts_sql,
        doc_cms_wordcounts,
    )

    # real corpus: the full sketch replays bit-for-bit in DuckDB
    eng = _compare("/root/testdata/sf0.001", doc_cms_wordcounts, cms_wordcounts_sql())
    # CMS guarantee: est is an UPPER bound of the true count, per probe word
    con = _duck.connect()
    con.sql("CREATE VIEW documents AS SELECT * FROM '/root/testdata/sf0.001/documents.parquet'")
    true = dict(con.sql(
        r"SELECT w, count(*) FROM (SELECT unnest(regexp_extract_all(text, '\S+')) AS w "
        "FROM documents) GROUP BY w"
    ).fetchall())
    est = eng.set_index("word")["est"]
    for w in CMS_PROBE_WORDS:
        assert int(est[w]) >= int(true.get(w, 0))

    # planted: a corpus of two probe words at known counts -> est exact
    # (no collisions possible among two occupied buckets per row)
    d = tmp_path / "cms"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1], type=pa.int64()),
                  "text": pa.array(["table table table", "hash"])}),
        d / "documents.parquet",
    )
    eng = doc_cms_wordcounts(str(d)).set_index("word")["est"]
    assert eng["table"] == 3 and eng["hash"] == 1
    assert eng["spark"] == 0          # absent probe word -> empty buckets


def test_doc_vocab_hll(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import (
        HLL_P,
        _bit_length_u64,
        doc_vocab_hll,
        hll_estimate,
        vocab_hll_sql,
    )

    # exact bit-length kernel vs Python int.bit_length on the boundaries
    xs = np.array([0, 1, 2, 3, (1 << 53) - 1, 1 << 53, (1 << 54) - 1, (1 << 63)],
                  dtype=np.uint64)
    assert list(_bit_length_u64(xs)) == [int(x).bit_length() for x in xs.tolist()]

    # real corpus: register table replays bit-for-bit in DuckDB
    eng = _compare("/root/testdata/sf0.001", doc_vocab_hll, vocab_hll_sql())
    assert (eng["register"] < (1 << HLL_P)).all()
    assert (eng["max_rank"] >= 1).all()

    # accuracy on a synthetic 3000-type vocabulary: HLL with m=256 has
    # ~6.5% stderr; assert a generous 20% band
    d = tmp_path / "hll"
    d.mkdir()
    texts = [" ".join(f"w{i}" for i in range(j * 30, j * 30 + 30)) for j in range(100)]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(100), type=pa.int64()),
                  "text": pa.array(texts),
                  "lang": pa.array(["en"] * 100)}),
        d / "documents.parquet",
    )
    regs = doc_vocab_hll(str(d)).to_pandas()
    est = hll_estimate(regs)["en"]
    assert 0.8 * 3000 < est < 1.2 * 3000

    # mergeability: union of two half-corpus register tables == whole-corpus
    # registers (per-cell max is the sketch's merge)
    da, db = tmp_path / "ha", tmp_path / "hb"
    for dd, lo, hi in ((da, 0, 50), (db, 50, 100)):
        dd.mkdir()
        pq.write_table(
            pa.table({"doc_id": pa.array(range(lo, hi), type=pa.int64()),
                      "text": pa.array(texts[lo:hi]),
                      "lang": pa.array(["en"] * (hi - lo))}),
            dd / "documents.parquet",
        )
    import pandas as pd

    merged = (
        pd.concat([doc_vocab_hll(str(da)).to_pandas(), doc_vocab_hll(str(db)).to_pandas()])
        .groupby(["lang", "register"], as_index=False)["max_rank"].max()
    )
    whole = regs.sort_values(["lang", "register"]).reset_index(drop=True)
    merged = merged.sort_values(["lang", "register"]).reset_index(drop=True)
    assert whole.equals(merged[whole.columns.tolist()])


def test_doc_bottomk_per_lang(ray_session):
    from titan_ray.pipelines.docqc import (
        BOTTOMK_PER_LANG,
        bottomk_per_lang_sql,
        doc_bottomk_per_lang,
    )

    eng = _compare("/root/testdata/sf0.001", doc_bottomk_per_lang, bottomk_per_lang_sql())
    # exactly k per language (every lang has >= k docs at this sf)
    assert (eng.groupby("lang").size() == BOTTOMK_PER_LANG).all()
    # the per-lang sample is the restriction of the global hash order:
    # within a lang, kept h values are that lang's k smallest
    for _lang, part in eng.groupby("lang"):
        assert part["h"].is_monotonic_increasing or sorted(part["h"]) == part["h"].tolist()


def test_doc_linreg_words_chars(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import doc_linreg_words_chars, linreg_sql

    eng = _compare("/root/testdata/sf0.001", doc_linreg_words_chars, linreg_sql())
    row = eng.iloc[0]
    # identity check against the closed form recomputed from the moments
    n, sx, sy, sxy, sxx = (int(row[c]) for c in ("n", "sx", "sy", "sxy", "sxx"))
    det = n * sxx - sx * sx
    assert row["slope_milli"] == (1000 * (n * sxy - sx * sy)) // det  # positive here
    # slope is ~1/avg-word-length: strictly between 0 and 1000 milli
    assert 0 < row["slope_milli"] < 1000

    # planted NEGATIVE slope: longer texts with fewer words — engine must
    # truncate toward zero exactly like DuckDB's // (not Python floor)
    d = tmp_path / "lr"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array(["a b c d e", "aaaaaaaaaa bbbbbbbbbb", "cccccccccccccccccccccccccc"]),
    }), d / "documents.parquet")
    out = _compare(str(d), doc_linreg_words_chars, linreg_sql())
    assert out.iloc[0]["slope_milli"] < 0


def test_doc_explode_tokens(ray_session, edge_docs):
    from titan_ray.pipelines.docqc import doc_explode_tokens, explode_tokens_sql

    # edge fixture: whitespace runs, leading/trailing space, empty doc —
    # positions count KEPT tokens only, 1-based, matching unnest ordinality
    eng = _compare(edge_docs, doc_explode_tokens, explode_tokens_sql())
    g = eng[eng["doc_id"] == 3].sort_values("pos")
    assert g["pos"].tolist() == list(range(1, len(g) + 1))
    assert 2 not in set(eng["doc_id"])          # empty doc -> zero rows

    eng = _compare("/root/testdata/sf0.001", doc_explode_tokens, explode_tokens_sql())
    assert (eng["pos"] >= 1).all()


def test_doc_bloom_probe(ray_session, tmp_path):
    import duckdb as _duck
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import (
        _EVAL_MOD,
        _EVAL_REM,
        bloom_probe_sql,
        doc_bloom_probe,
    )

    # real corpus: the whole sketch (hash chains, bit set, all-k test)
    # replays bit-for-bit, false positives included
    eng = _compare("/root/testdata/sf0.001", doc_bloom_probe, bloom_probe_sql())
    assert (eng["doc_id"] % _EVAL_MOD != _EVAL_REM).all()

    # Bloom guarantee: NO false negatives — every word actually in the
    # eval vocabulary must test positive. Planted: doc 7 is eval with
    # words {alpha beta}; doc 1 shares them (n_hits >= 2), doc 2 shares
    # none of the eval vocab (n_hits >= 0, usually 0 at this fill rate).
    d = tmp_path / "bloom"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([_EVAL_REM, 1, 2], type=pa.int64()),
        "text": pa.array(["alpha beta", "alpha beta gamma", "zeta eta"]),
    }), d / "documents.parquet")
    out = _compare(str(d), doc_bloom_probe, bloom_probe_sql()).set_index("doc_id")
    assert out.loc[1, "n_hits"] >= 2       # no false negatives
    assert out.loc[2, "n_hits"] <= 2       # fp possible but bounded by vocab


def test_doc_sample_lenprop(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import doc_sample_lenprop, sample_lenprop_sql

    eng = _compare("/root/testdata/sf0.001", doc_sample_lenprop, sample_lenprop_sql())
    # size-biased: the kept set's mean length exceeds the corpus mean
    import duckdb as _duck

    con = _duck.connect()
    con.sql("CREATE VIEW documents AS SELECT * FROM '/root/testdata/sf0.001/documents.parquet'")
    corpus_mean = con.sql("SELECT avg(length(text)) FROM documents").fetchone()[0]
    assert eng["n_chars"].mean() > corpus_mean

    # docs at/above the denominator are kept with probability 1
    d = tmp_path / "lp"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(50), type=pa.int64()),
        "text": pa.array(["x" * 2000] * 50),
    }), d / "documents.parquet")
    out = _compare(str(d), doc_sample_lenprop, sample_lenprop_sql())
    assert len(out) == 50


def test_doc_pagerank(ray_session, tmp_path):
    import duckdb as _duck

    from titan_ray.stages.graph import (
        PR_BASE,
        PR_DAMP_NUM,
        PR_ITERS,
        PR_R,
        doc_pagerank,
        pagerank_from_pairs,
        pagerank_sql,
    )

    # planted star: center 0 <-> leaves 1..5; brute-force integer reference
    pairs = pa.table({"doc_a": pa.array([0] * 5, type=pa.int64()),
                      "doc_b": pa.array([1, 2, 3, 4, 5], type=pa.int64())})
    eng = pagerank_from_pairs(pairs, iters=3).to_pandas().set_index("doc_id")["rank_nano"]

    import numpy as _np
    deg = {0: 5, **{i: 1 for i in range(1, 6)}}
    r = {v: PR_R for v in deg}
    for _ in range(3):
        c = {v: r[v] // deg[v] for v in deg}
        nxt = {}
        nxt[0] = PR_BASE + (PR_DAMP_NUM * sum(c[i] for i in range(1, 6))) // 1000
        for i in range(1, 6):
            nxt[i] = PR_BASE + (PR_DAMP_NUM * c[0]) // 1000
        r = nxt
    assert dict(eng) == r
    assert eng[0] > eng[1]                     # hub centrality

    # real corpus: the K-round join/aggregate loop replays bit-for-bit in
    # the unrolled-CTE twin over the same persisted candidate list
    eng = doc_pagerank("/root/testdata/sf0.001").to_pandas()
    con = _duck.connect()
    ora = con.sql(pagerank_sql(0.001)).df()
    from tools.check_contract import value_hash
    assert len(eng) == len(ora) and value_hash(eng) == value_hash(ora)


def test_doc_normalize(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import doc_normalize, normalize_sql

    d = tmp_path / "norm"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array(["  Hello\tWORLD  x ", "AbC"]),
    }), d / "documents.parquet")
    out = _compare(str(d), doc_normalize, normalize_sql()).set_index("doc_id")
    assert out.loc[0, "text_norm"] == "hello world x"
    assert out.loc[1, "text_norm"] == "abc"

    _compare("/root/testdata/sf0.001", doc_normalize, normalize_sql())


def test_graph_triangles(ray_session):
    import duckdb as _duck
    import ray.data as rd

    from titan_ray.stages.graph import (
        graph_triangles,
        triangles_from_pairs,
        triangles_sql,
    )

    # planted: 4-clique {1,2,3,4} (4 triangles, each node in C(3,2)=3) +
    # star 10<->{11,12,13} (no closure) + one pendant edge
    cl = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    star = [(10, 11), (10, 12), (10, 13)]
    pend = [(20, 21)]
    pairs = pa.table({
        "doc_a": pa.array([p[0] for p in cl + star + pend], type=pa.int64()),
        "doc_b": pa.array([p[1] for p in cl + star + pend], type=pa.int64()),
    })
    out = triangles_from_pairs(rd.from_arrow(pairs)).to_pandas()
    got = dict(zip(out["doc_id"], out["n_triangles"]))
    assert got == {1: 3, 2: 3, 3: 3, 4: 3}   # star/pendant close nothing

    # real corpus: engine == three-way-self-join twin over the same parquet
    eng = graph_triangles("/root/testdata/sf0.001").to_pandas()
    con = _duck.connect()
    ora = con.sql(triangles_sql(0.001)).df()
    from tools.check_contract import value_hash
    assert len(eng) == len(ora) and value_hash(eng) == value_hash(ora)


def test_doc_inverted_index(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import doc_inverted_index, inverted_index_sql

    # planted: exact postings, doc order, tf, and the min_df gate
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([7, 3, 5], type=pa.int64()),
        "text": pa.array(["b a a", "a b", "a  rare"]),
    }), d / "documents.parquet")
    out = _compare(str(d), lambda s: doc_inverted_index(s, min_df=2),
                   inverted_index_sql(min_df=2)).set_index("term")
    assert out.loc["a", "postings"] == "3:1,5:1,7:2"   # doc-ordered, tf exact
    assert out.loc["a", "df"] == 3 and out.loc["a", "cf"] == 4
    assert out.loc["b", "postings"] == "3:1,7:1"
    assert "rare" not in out.index                     # df=1 < min_df

    # real corpus vs the string_agg twin
    _compare("/root/testdata/sf0.001", doc_inverted_index, inverted_index_sql())


def test_graph_bfs_depth(ray_session):
    import duckdb as _duck

    from titan_ray.stages.graph import bfs_sql, graph_bfs_depth

    # real corpus: K relax rounds == the unrolled min-merge CTE twin
    eng = graph_bfs_depth("/root/testdata/sf0.001").to_pandas()
    con = _duck.connect()
    ora = con.sql(bfs_sql(0.001)).df()
    from tools.check_contract import value_hash
    assert len(eng) == len(ora) and len(eng) > 0
    assert value_hash(eng) == value_hash(ora)
    # BFS invariants: seeds at 0, monotone frontier shrink past dist 1
    vc = eng["dist"].value_counts()
    assert 0 in vc.index and vc.loc[0] > 0
    assert eng["dist"].max() <= 4 and eng["dist"].min() == 0


def test_graph_kcore(ray_session):
    import duckdb as _duck

    from titan_ray.stages.graph import KCORE_K, graph_kcore, kcore_sql

    # real corpus: the unrolled peel rounds == the chained HAVING+join twin
    eng = graph_kcore("/root/testdata/sf0.001").to_pandas()
    con = _duck.connect()
    ora = con.sql(kcore_sql(0.001)).df()
    from tools.check_contract import value_hash
    assert len(eng) == len(ora) and len(eng) > 0
    assert value_hash(eng) == value_hash(ora)
    # k-core invariant: every surviving node keeps >= k neighbours INSIDE
    # the surviving subgraph (this is what one HAVING pass cannot give)
    assert (eng["core_deg"] >= KCORE_K).all()
    # fixpoint reached within the round budget: one extra round is a no-op
    # (checked in the twin — the engine's early exit makes its rounds=7
    # literally the same job)
    ora7 = con.sql(kcore_sql(0.001, rounds=7)).df()
    assert value_hash(ora7) == value_hash(ora)
    # peeling is genuinely iterative here: round 1 alone over-keeps
    ora1 = con.sql(kcore_sql(0.001, rounds=1)).df()
    assert len(ora1) > len(ora)


def test_doc_segment_dedup_oracle(ray_session, edge_docs):
    """C4-style segment dedup: SQL parity on the edge corpus (empty docs,
    whitespace runs, sub-width docs) + on sf0.001, and the broadcast /
    distributed join-back paths are bit-identical."""
    from titan_ray.pipelines.docqc import doc_segment_dedup, segment_dedup_sql

    eng = _compare(edge_docs, doc_segment_dedup, segment_dedup_sql())
    # the empty doc (doc_id 2) has no segments and must disappear
    assert 2 not in set(eng["doc_id"])
    # every other doc here is under one segment wide and unique -> kept whole
    assert (eng["n_kept"] == eng["n_segs"]).all()


def test_doc_segment_dedup_paths_identical(ray_session):
    from titan_ray.pipelines.docqc import doc_segment_dedup, segment_dedup_sql

    sf = "/root/testdata/sf0.001"
    eng = _compare(sf, doc_segment_dedup, segment_dedup_sql())
    # the sf corpus repeats seeded sentences across docs -> real dedup
    assert int(eng["n_kept"].sum()) < int(eng["n_segs"].sum())
    dist = doc_segment_dedup(sf, max_broadcast=0).to_pandas()
    key = ["doc_id"]
    assert dist.sort_values(key).reset_index(drop=True).equals(
        eng.sort_values(key)[dist.columns].reset_index(drop=True)
    )


def test_doc_segment_dedup_first_occurrence_wins(ray_session, tmp_path):
    """A segment duplicated across docs survives only at min (doc_id,
    seg_idx); a doc that is ENTIRELY duplicate text disappears."""
    import pyarrow.parquet as pq

    words = " ".join(f"w{i}" for i in range(10))     # exactly one segment
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "text": pa.array(
                [
                    words + " unique tail zero",      # segment 0 + short tail
                    words,                            # pure duplicate -> drops
                    "fresh content only here",        # untouched
                ]
            ),
            "lang": pa.array(["en"] * 3),
            "source": pa.array(["s"] * 3),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    from titan_ray.pipelines.docqc import doc_segment_dedup, segment_dedup_sql

    eng = _compare(str(tmp_path), doc_segment_dedup, segment_dedup_sql()).set_index("doc_id")
    assert list(eng.index) == [0, 2]
    assert eng.loc[0, "text_dedup"] == words + " unique tail zero"
    assert eng.loc[2, "text_dedup"] == "fresh content only here"


def test_doc_skyline(ray_session, tmp_path, edge_docs):
    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.docqc import _skyline2d_mask, doc_skyline, skyline_sql

    # kernel tie semantics: identical points both survive; equal-c at
    # higher u dominates (strict in u); equal-u at lower c dominates
    u = np.array([5, 5, 3, 3, 4], dtype=np.int64)
    c = np.array([10, 10, 10, 9, 9], dtype=np.int64)
    # (5,10)x2: frontier duplicates. (3,10): dominated by (5,10) and (4,9).
    # (3,9): dominated by (4,9). (4,9): frontier.
    assert _skyline2d_mask(u, c).tolist() == [True, True, False, False, True]

    # edge corpus: frontier = docs {0,1,2,4,6}; hash-identical to NOT EXISTS
    eng = _compare(edge_docs, doc_skyline, skyline_sql())
    assert sorted(eng["doc_id"].tolist()) == [0, 1, 2, 4, 6]

    # real corpus: hash-green (asserted inside _compare), frontier strict
    eng = _compare("/root/testdata/sf0.001", doc_skyline, skyline_sql())
    assert 0 < len(eng)
    # every pair on the returned frontier is mutually non-dominated
    uu = eng["token_count"].to_numpy()
    cc = eng["n_chars"].to_numpy()
    assert _skyline2d_mask(uu.astype(np.int64), cc.astype(np.int64)).all()


def test_doc_compression_ratio(ray_session, tmp_path):
    import zlib

    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas
    from titan_ray.pipelines.docqc import doc_compression_ratio

    texts = ["abc " * 200,                  # highly repetitive -> low ratio
             "the quick brown fox jumps",   # short natural text
             "",                            # empty -> raw 0, ratio 0/1
             "纯Unicode多字节文本" * 3]       # multi-byte utf-8
    t = pa.table({
        "doc_id": pa.array(list(range(len(texts))), type=pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "documents.parquet")
    eng = to_pandas(doc_compression_ratio(str(d))).set_index("doc_id").sort_index()
    for i, txt in enumerate(texts):
        b = txt.encode("utf-8")
        assert eng.loc[i, "raw_bytes"] == len(b)
        assert eng.loc[i, "zlib_bytes"] == len(zlib.compress(b, 6))
        assert eng.loc[i, "ratio_milli"] == (1000 * len(zlib.compress(b, 6))) // max(len(b), 1)
    # the repetitive doc compresses far better than the short natural one
    assert eng.loc[0, "ratio_milli"] < eng.loc[1, "ratio_milli"]


def test_doc_simpson_diversity(ray_session, tmp_path):
    import duckdb
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.docqc import doc_simpson_diversity, simpson_sql

    # planted: en has counts {a:3, b:1} -> num = 3*2 + 0 = 6, N = 4;
    # fr has {x:2, y:2} -> num = 2 + 2 = 4, N = 4
    t = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array(["a a b", "a", "x y  x y"]),
        "lang": pa.array(["en", "en", "fr"]),
        "source": pa.array(["s"] * 3),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "documents.parquet")
    eng = to_pandas(doc_simpson_diversity(str(d))).set_index("lang")
    assert eng.loc["en"].to_dict() == {"simpson_num": 6, "n_tokens": 4}
    assert eng.loc["fr"].to_dict() == {"simpson_num": 4, "n_tokens": 4}

    # real corpus vs the second-moment twin
    SF = "/root/testdata/sf0.001"
    eng = to_pandas(doc_simpson_diversity(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.sql(simpson_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_corpus_checksum(ray_session, tmp_path):
    import duckdb
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.docqc import corpus_checksum, corpus_checksum_sql

    OFF, M, T = 1469598103934665603, 1099511628211, 1 << 64

    def chain(s: str) -> int:
        h = OFF
        for b in s.encode():
            h = (h * M + b) % T
        return h

    # planted: the vectorized polynomial == the sequential chain; empty doc
    # hashes to OFF; the total is order-insensitive (sum mod 2^64)
    texts = ["abc", "", "hello world", "abc"]
    t = pa.table({
        "doc_id": pa.array(list(range(len(texts))), type=pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "documents.parquet")
    eng = to_pandas(corpus_checksum(str(d)))
    want = sum(chain(s) for s in texts) % T
    want = want - T if want >= (1 << 63) else want
    assert eng.iloc[0].to_dict() == {"n_docs": 4, "checksum": want}
    assert chain("") == OFF

    # real corpus vs the recursive-CTE polynomial twin
    SF = "/root/testdata/sf0.001"
    eng = to_pandas(corpus_checksum(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.sql(corpus_checksum_sql()).df()
    assert len(eng) == len(ora) == 1
    assert value_hash(eng) == value_hash(ora)

    # the invariance that makes it a migration validator: a shuffled copy
    # of the same corpus checksums identically
    rng = np.random.default_rng(7)
    perm = rng.permutation(len(texts))
    t2 = pa.table({
        "doc_id": pa.array(list(range(len(texts))), type=pa.int64()),
        "text": pa.array([texts[i] for i in perm]),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
    })
    d2 = tmp_path / "sf2"
    d2.mkdir()
    pq.write_table(t2, d2 / "documents.parquet")
    eng2 = to_pandas(corpus_checksum(str(d2)))
    assert eng2.iloc[0]["checksum"] == want


def test_doc_cosine_pairs(ray_session, tmp_path):
    """Sparse all-pairs tf cosine: planted exact-duplicate pair found at
    cos2_e6 = 1e6, a 0.64-cosine pair gated out; the df prune kills the
    whole similarity when every word is hot; SQL parity on the corpus."""
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.docqc import cosine_pairs_sql, doc_cosine_pairs

    t = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array(["a a b", "a a b", "a b b"]),
        "lang": pa.array(["en"] * 3),
        "source": pa.array(["s"] * 3),
        "n_chars": pa.array([5, 5, 5], type=pa.int64()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "documents.parquet")
    eng = to_pandas(doc_cosine_pairs(str(d)))
    assert eng[["doc_a", "doc_b", "dot", "cos2_e6"]].values.tolist() == [[0, 1, 5, 1_000_000]]
    # every word hot under max_df=1 -> pruned on BOTH sides -> empty
    assert len(to_pandas(doc_cosine_pairs(str(d), max_df=1))) == 0

    SF = "/root/testdata/sf0.001"
    eng = to_pandas(doc_cosine_pairs(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.sql(cosine_pairs_sql()).df()
    assert len(eng) == len(ora) and len(eng) > 0
    assert value_hash(eng) == value_hash(ora)


def test_doc_spearman(ray_session, tmp_path):
    """Rank-transform statistic: a perfectly monotone lang gives rho=1.0,
    an anti-monotone one rho=-1.0 (tie-free closed form), then SQL parity
    on the corpus including min-rank tie semantics."""
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import doc_spearman, spearman_sql
    from tools.check_contract import value_hash

    # en: longer text <-> more tokens (monotone); fr: the word count FALLS
    # as byte length rises (padding with one ever-longer token)
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4, 5], type=pa.int64()),
        "text": pa.array(["a", "a b", "a b c",
                          "w w w", "www ww", "wwwwwww"]),
        "lang": pa.array(["en", "en", "en", "fr", "fr", "fr"]),
        "source": pa.array(["s"] * 6),
        "n_chars": pa.array([1, 3, 5, 5, 5, 7], type=pa.int64()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "documents.parquet")
    eng = doc_spearman(str(d)).set_index("lang")
    assert eng.loc["en", "rho"] == 1.0
    assert eng.loc["fr", "rho"] == -1.0

    SF = "/root/testdata/sf0.001"
    eng = doc_spearman(SF)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.sql(spearman_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_doc_priority_sample(ray_session):
    """Priority sampling: exactly k rows, SQL-twin hash parity, the
    estimator floors at tau, and long docs are over-represented vs the
    uniform bottom-k sample (the point of weighting by length)."""
    import duckdb

    from titan_ray.pipelines.docqc import (
        doc_priority_sample, priority_sample_sql)
    from tools.check_contract import value_hash

    SF = "/root/testdata/sf0.001"
    eng = doc_priority_sample(SF, k=50)
    assert len(eng) == 50
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.sql(priority_sample_sql(k=50)).df()
    assert value_hash(eng) == value_hash(ora)
    tau = eng["est_w"].min()
    assert (eng["est_w"] >= tau).all()
    assert ((eng["est_w"] == tau) | (eng["est_w"] == eng["n_chars"])).all()
    # weight-proportional: sampled docs are longer on average than corpus
    mean_all = con.sql("SELECT avg(length(text)) FROM documents").fetchone()[0]
    assert eng["n_chars"].mean() > mean_all


def test_doc_embedding_reconcile(ray_session, tmp_path):
    """FULL OUTER reconciliation: all three statuses planted, key coalesced
    from either side, exact quantized norms; SQL parity on the real corpus."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import doc_embedding_reconcile, reconcile_sql
    from tools.check_contract import to_pandas, value_hash

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": pa.array(["x" * 30, "y" * 30, "short"]),
        "lang": pa.array(["en"] * 3),
        "source": pa.array(["s"] * 3),
        "n_chars": pa.array([30, 30, 5], type=pa.int64()),
    }), d / "documents.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array([2, 3, 4], type=pa.int64()),
        "embedding": pa.array([[0.5, -0.5], [1.0, 0.0], [0.25, 0.25]],
                              type=pa.list_(pa.float32())),
        "label": pa.array([1, 1, 1], type=pa.int32()),
    }), d / "embeddings.parquet")
    out = to_pandas(doc_embedding_reconcile(str(d), min_chars=10)).set_index("id")
    # doc 1 passes the gate but has no embedding; doc 2 matches vec 2;
    # doc 3 fails the gate so vec 3 is orphaned; vec 4 has no doc at all
    assert out.loc[1, "status"] == "doc_only"
    assert out.loc[2, "status"] == "both"
    assert out.loc[3, "status"] == "emb_only"
    assert out.loc[4, "status"] == "emb_only"
    assert out.loc[2, "norm_q"] == 2 * 16384 ** 2   # round(0.5*2^15)^2 * 2
    assert pa.compute.is_null(pa.array([out.loc[4, "n_chars"]]))[0].as_py() \
        or out.loc[4:4, "n_chars"].isna().all()

    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{d}/{t}.parquet'")
    ora = con.sql(reconcile_sql(min_chars=10)).df()
    assert value_hash(out.reset_index()) == value_hash(ora)
    con.close()

    SF = "/root/testdata/sf0.001"
    eng = to_pandas(doc_embedding_reconcile(SF))
    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    ora = con.sql(reconcile_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)
    # both unmatched classes genuinely occur on the real corpus
    assert {"doc_only", "emb_only", "both"} <= set(eng["status"])


def test_doc_chi2_independence(ray_session, tmp_path):
    """2x2 grid with a zero cell, hand-computed chi2 = 3.0 exactly; SQL
    parity on the planted grid and the real corpus."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import chi2_sql, doc_chi2_independence
    from tools.check_contract import to_pandas, value_hash

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(6), type=pa.int64()),
        "text": pa.array(["t"] * 6),
        "lang": pa.array(["a", "a", "a", "a", "b", "b"]),
        "source": pa.array(["x", "x", "x", "y", "y", "y"]),
        "n_chars": pa.array([1] * 6, type=pa.int64()),
    }), d / "documents.parquet")
    out = to_pandas(doc_chi2_independence(str(d))).set_index(["lang", "source"])
    # E = [[2,2],[1,1]]: terms .5, .5, 1 (zero cell!), 1 -> chi2 = 3.0
    assert len(out) == 4                         # zero cell (b,x) present
    assert out.loc[("b", "x"), "n_obs"] == 0
    assert out.loc[("a", "x"), "chi2_term_micro"] == 500_000
    assert out.loc[("b", "x"), "chi2_term_micro"] == 1_000_000
    assert out["chi2_term_micro"].sum() == 3_000_000
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{d}/documents.parquet'")
    ora = con.sql(chi2_sql()).df()
    assert value_hash(out.reset_index()) == value_hash(ora)
    con.close()

    SF = "/root/testdata/sf0.001"
    eng = to_pandas(doc_chi2_independence(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.sql(chi2_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)


def test_doc_collocations(ray_session, tmp_path):
    """Planted corpus: 'new york' collocates (always together), 'the cat'
    is frequent but independent; exact lift values; SQL parity."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import collocations_sql, doc_collocations
    from tools.check_contract import to_pandas, value_hash

    d = tmp_path / "sf"
    d.mkdir()
    # 4 docs: "new york" x2 per doc (8 tokens), plus "the" & "cat" scattered
    texts = ["new york new york", "new york the cat", "the cat new york",
             "cat the new york"]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(4), type=pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 4),
        "source": pa.array(["s"] * 4),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    }), d / "documents.parquet")
    out = to_pandas(doc_collocations(str(d), minsup=2)).set_index(["w1", "w2"])
    # N = 16 tokens; c(new)=c(york)=5, c12(new,york)=5
    # lift(new,york) = 16*5/(5*5) = 3.2 -> 3_200_000
    assert out.loc[("new", "york"), "c12"] == 5
    assert out.loc[("new", "york"), "lift_micro"] == 3_200_000
    # "the cat": c(the)=3, c(cat)=3, c12=2 -> 16*2/(3*3) = 3.555..
    assert out.loc[("the", "cat"), "lift_micro"] == (16 * 2 * 1_000_000) // 9
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{d}/documents.parquet'")
    ora = con.sql(collocations_sql(minsup=2)).df()
    assert value_hash(out.reset_index()) == value_hash(ora)
    con.close()

    SF = "/root/testdata/sf0.001"
    eng = to_pandas(doc_collocations(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.sql(collocations_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)


def test_doc_mix_interleave(ray_session, tmp_path):
    """Stride schedule: weight-2 source emits 2 docs per weight-1 source's
    1 in every prefix; ranks per source are doc_id-ordered; SQL parity."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import (
        MIX_STRIDE,
        doc_mix_interleave,
        mix_interleave_sql,
    )
    from tools.check_contract import to_pandas, value_hash

    d = tmp_path / "sf"
    d.mkdir()
    # 'aa' -> w = 1 + 2%3 = 3; 'abcd' -> w = 1 + 4%3 = 2
    pq.write_table(pa.table({
        "doc_id": pa.array([5, 1, 9, 2, 7, 4], type=pa.int64()),
        "text": pa.array(["t"] * 6),
        "lang": pa.array(["en"] * 6),
        "source": pa.array(["aa", "aa", "aa", "abcd", "abcd", "abcd"]),
        "n_chars": pa.array([1] * 6, type=pa.int64()),
    }), d / "documents.parquet")
    out = to_pandas(doc_mix_interleave(str(d), bucket_range=4)).set_index("doc_id")
    # ranks follow doc_id order within source, across range buckets
    assert out.loc[1, "src_rank"] == 0 and out.loc[5, "src_rank"] == 1 \
        and out.loc[9, "src_rank"] == 2
    assert out.loc[2, "src_rank"] == 0 and out.loc[4, "src_rank"] == 1 \
        and out.loc[7, "src_rank"] == 2
    assert out.loc[1, "mix_key"] == MIX_STRIDE // 3
    assert out.loc[2, "mix_key"] == MIX_STRIDE // 2
    # stride fairness: in the first w_total emissions each source appears
    # w_s times (3 of 'aa', 2 of 'abcd' among the 5 smallest keys)
    first5 = out.sort_values(["mix_key", "source"]).head(5)["source"].tolist()
    assert first5.count("aa") == 3 and first5.count("abcd") == 2
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{d}/documents.parquet'")
    ora = con.sql(mix_interleave_sql()).df()
    assert value_hash(out.reset_index()) == value_hash(ora)
    con.close()

    SF = "/root/testdata/sf0.001"
    eng = to_pandas(doc_mix_interleave(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.sql(mix_interleave_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)


def test_graph_mst(ray_session):
    """Boruvka forest == the cut-property twin (unique under the strict
    (w64, a, b) order); spanning invariants: |forest| = n_nodes - n_comps,
    acyclic, and every forest edge is a candidate edge."""
    import duckdb
    import numpy as np

    from titan_ray.stages.graph import graph_mst, mst_sql
    from titan_ray.stages.neardup import clusters_from_pairs, verified_pairs
    import pyarrow.parquet as pq
    from titan_ray.stages.neardup import ensure_candidates
    from tools.check_contract import value_hash

    sf = "/root/testdata/sf0.001"
    eng = graph_mst(sf)
    con = duckdb.connect()
    ora = con.sql(mst_sql(0.001)).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)

    # spanning-forest size: edges = nodes - components (of the candidate graph)
    cand = pq.read_table(ensure_candidates(sf)).to_pandas()
    comps = clusters_from_pairs(cand[["doc_a", "doc_b"]]).to_pandas()
    n_nodes = comps["doc_id"].nunique()
    n_comps = comps["cluster_id"].nunique()
    assert len(eng) == n_nodes - n_comps
    # every forest edge is a candidate edge
    ce = set(zip(cand["doc_a"], cand["doc_b"]))
    assert all((a, b) in ce for a, b in zip(eng["doc_a"], eng["doc_b"]))
    # acyclic: union-find over the forest never sees a cycle
    parent = {}
    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    for a, b in zip(eng["doc_a"], eng["doc_b"]):
        ra, rb = find(a), find(b)
        assert ra != rb, "cycle in MST output"
        parent[ra] = rb


def test_doc_percent_rank(ray_session, tmp_path):
    """Percent rank within language: min-rank ties, single-doc partition
    guard, exact floor scaling; SQL parity."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import doc_percent_rank, percent_rank_sql
    from tools.check_contract import to_pandas, value_hash

    d = tmp_path / "sf"
    d.mkdir()
    # lang a: lengths 10, 20, 20, 30 -> pr 0, 1/3, 1/3, 1 (min-rank ties)
    # lang b: single doc -> pr 0 (guarded n-1 division)
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
        "text": pa.array(["t"] * 5),
        "lang": pa.array(["a", "a", "a", "a", "b"]),
        "source": pa.array(["s"] * 5),
        "n_chars": pa.array([10, 20, 20, 30, 7], type=pa.int64()),
    }), d / "documents.parquet")
    out = to_pandas(doc_percent_rank(str(d))).set_index("doc_id")
    assert out.loc[0, "pr_micro"] == 0
    assert out.loc[1, "pr_micro"] == 1_000_000 // 3
    assert out.loc[2, "pr_micro"] == 1_000_000 // 3
    assert out.loc[3, "pr_micro"] == 1_000_000
    assert out.loc[4, "pr_micro"] == 0
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{d}/documents.parquet'")
    ora = con.sql(percent_rank_sql()).df()
    assert value_hash(out.reset_index()) == value_hash(ora)
    con.close()

    SF = "/root/testdata/sf0.001"
    eng = to_pandas(doc_percent_rank(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.sql(percent_rank_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)


def test_doc_hull_points(ray_session, tmp_path):
    """Convex hull: interior + edge-midpoint points dropped, all-collinear
    language reduces to endpoints, single-point language kept; SQL parity.
    y = token count ('x ' * y gives y single-letter tokens)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import doc_hull_points, hull_sql
    from tools.check_contract import to_pandas, value_hash

    d = tmp_path / "sf"
    d.mkdir()
    # lang a: unit square corners (0,0)(0,2)(2,0)(2,2) as (n_chars, len),
    # midpoint (1,0) on an edge and center (1,1) inside -> both dropped
    # lang b: collinear (0,0)(1,1)(2,2) -> endpoints only
    # lang c: single point
    pts = [("a", 0, 0), ("a", 0, 2), ("a", 2, 0), ("a", 2, 2), ("a", 1, 0),
           ("a", 1, 1), ("b", 0, 0), ("b", 1, 1), ("b", 2, 2), ("c", 5, 3)]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(pts)), type=pa.int64()),
        "text": pa.array(["x " * y for _, _, y in pts]),
        "lang": pa.array([l for l, _, _ in pts]),
        "source": pa.array(["s"] * len(pts)),
        "n_chars": pa.array([x for _, x, _ in pts], type=pa.int64()),
    }), d / "documents.parquet")
    out = to_pandas(doc_hull_points(str(d)))
    got = {(l, x, y) for l, x, y in zip(out["lang"], out["x"], out["y"])}
    assert got == {("a", 0, 0), ("a", 0, 2), ("a", 2, 0), ("a", 2, 2),
                   ("b", 0, 0), ("b", 2, 2), ("c", 5, 3)}
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{d}/documents.parquet'")
    ora = con.sql(hull_sql()).df()
    assert value_hash(out) == value_hash(ora)
    con.close()

    SF = "/root/testdata/sf0.001"
    eng = to_pandas(doc_hull_points(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.sql(hull_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)


def test_doc_term_hits(ray_session, tmp_path):
    """Dictionary scan: non-overlapping counts (str.count == replace
    identity), zero-hit terms kept with 0s; SQL parity."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.docqc import doc_term_hits, term_hits_sql
    from tools.check_contract import to_pandas, value_hash

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array(["aaa scanscan table", "no match"]),
        "lang": pa.array(["en"] * 2),
        "source": pa.array(["s"] * 2),
        "n_chars": pa.array([18, 8], type=pa.int64()),
    }), d / "documents.parquet")
    out = to_pandas(doc_term_hits(str(d), terms=("aa", "scan", "zzz"))).set_index("term")
    assert out.loc["aa", "n_hits"] == 1          # non-overlapping in "aaa"
    assert out.loc["scan", "n_hits"] == 2 and out.loc["scan", "n_docs"] == 1
    assert out.loc["zzz", "n_hits"] == 0 and out.loc["zzz", "n_docs"] == 0
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{d}/documents.parquet'")
    ora = con.sql(term_hits_sql(terms=("aa", "scan", "zzz"))).df()
    assert value_hash(out.reset_index()) == value_hash(ora)
    con.close()

    SF = "/root/testdata/sf0.001"
    eng = to_pandas(doc_term_hits(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.sql(term_hits_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)
    assert (eng["n_hits"] > 0).any()


def test_doc_filter_disagreement(ray_session):
    """Symmetric difference of the two real filters' keep-sets: every row
    is in exactly one keep-set, and the engine == the FULL OUTER twin."""
    import duckdb

    from titan_ray.pipelines.docqc import (
        doc_filter_disagreement,
        doc_gopher_filter,
        doc_quality_filter,
        filter_disagreement_sql,
    )
    from tools.check_contract import to_pandas, value_hash

    SF = "/root/testdata/sf0.001"
    eng = to_pandas(doc_filter_disagreement(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.sql(filter_disagreement_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)
    # cross-check against the operators themselves
    qs = set(to_pandas(doc_quality_filter(SF))["doc_id"])
    gf = to_pandas(doc_gopher_filter(SF))
    gs = set(gf[gf["keep"] == 1]["doc_id"])
    want_q = qs - gs
    want_g = gs - qs
    got_q = set(eng[eng["kept_by"] == "quality_only"]["doc_id"])
    got_g = set(eng[eng["kept_by"] == "gopher_only"]["doc_id"])
    assert got_q == want_q and got_g == want_g


def test_doc_set_cover_edge_cases(ray_session, tmp_path):
    """Greedy trajectory on a planted universe: doc 2 wins round 1 (4
    trigrams), round 2 is a three-way gain-2 tie broken to the smallest
    doc_id (1), doc 3 is a strict subset of doc 1 so its gain hits 0 and it
    can never be picked, and the k=5 run STOPS at 4 rows when nothing
    uncovered remains (the early-stop path both sides must share)."""
    from titan_ray.pipelines.docqc import doc_set_cover, set_cover_sql

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
        "text": pa.array([
            "a b c d e",      # {abc bcd cde}
            "a b c x y z",    # {abc bcx cxy xyz} -> round-1 winner
            "a b c d",        # {abc bcd} subset of doc 1
            "p q r s",        # {pqr qrs}
            "t u v w",        # {tuv uvw}
        ]),
    })
    d = tmp_path / "cover"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")
    eng = _compare(str(d), lambda sf: doc_set_cover(sf, k=5), set_cover_sql(k=5))
    eng = eng.sort_values("round").reset_index(drop=True)
    assert eng["doc_id"].tolist() == [2, 1, 4, 5]
    assert eng["gain"].tolist() == [4, 2, 2, 2]
    assert eng["covered_total"].tolist() == [4, 6, 8, 10]


def test_doc_set_cover_twin_default_k_bounded_memory(ray_session):
    """The SQL twin at the default k over the gate corpus: each round reads
    the previous covered set, so inlined CTEs re-expand the whole chain per
    round. Materialized, it finishes well inside a 1 GB DuckDB limit and a
    60 s watchdog, and hash-matches the engine."""
    import threading

    from __ray_entry__ import GATE_SF_DIR
    from titan_ray.pipelines.docqc import SETCOVER_K, doc_set_cover, set_cover_sql
    from tools.check_contract import to_pandas, value_hash

    con = duckdb.connect()
    con.sql("SET memory_limit='1GB'")
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{GATE_SF_DIR}/documents.parquet'")
    watchdog = threading.Timer(60, con.interrupt)
    watchdog.start()
    try:
        ora = con.sql(set_cover_sql()).df()
    finally:
        watchdog.cancel()
    eng = to_pandas(doc_set_cover(GATE_SF_DIR))
    assert len(eng) == len(ora) == SETCOVER_K
    assert value_hash(eng) == value_hash(ora)


def test_graph_kcore_twin_bounded_memory(ray_session):
    """The peel-round twin on the gate corpus: inlined, each round's CTEs
    re-expand every earlier round and ran DuckDB out of 1.8 GiB.
    Materialized, it finishes inside a 1 GB DuckDB limit and a 60 s
    watchdog, and hash-matches the engine."""
    import threading

    from __ray_entry__ import GATE_SF, GATE_SF_DIR
    from titan_ray.stages.graph import graph_kcore, kcore_sql
    from tools.check_contract import to_pandas, value_hash

    eng = to_pandas(graph_kcore(GATE_SF_DIR))   # persists the candidate pairs
    con = duckdb.connect()
    con.sql("SET memory_limit='1GB'")
    watchdog = threading.Timer(60, con.interrupt)
    watchdog.start()
    try:
        ora = con.sql(kcore_sql(GATE_SF)).df()
    finally:
        watchdog.cancel()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)


def test_doc_set_cover_partition_invariant(ray_session):
    """The per-batch local top-1 fold must not depend on block layout."""
    import ray as _ray
    import titan_ray.pipelines.docqc as docqc
    from titan_ray.pipelines.docqc import doc_set_cover

    sf = "/root/testdata/sf0.001"
    base = doc_set_cover(sf, k=3)
    ds = _ray.data.read_parquet(f"{sf}/documents.parquet",
                                columns=["doc_id", "text"]).repartition(23)
    orig = docqc._read
    try:
        docqc._read = lambda _sf, _cols: ds
        many = doc_set_cover(sf, k=3)
    finally:
        docqc._read = orig
    pd.testing.assert_frame_equal(base.reset_index(drop=True),
                                  many.reset_index(drop=True))


def test_doc_epoch_mix_edge_cases(ray_session, tmp_path):
    """Deterministic fractional-epoch replication: reps recomputed
    independently with Python ints must match row-for-row; epochs number
    1..reps; a sub-1-epoch doc whose gate misses is ABSENT."""
    from titan_ray.pipelines.docqc import (
        MIX_MULT, THR_TENTH, doc_epoch_mix, epoch_mix_sql)

    doc_ids = list(range(20)) + [60, 64]           # 60/64: 0.6-epoch gate MISS
    sources = [f"src{i % 8}" for i in doc_ids]     # tenths 6/12/18/24 cycle
    tbl = pa.table({
        "doc_id": pa.array(doc_ids, type=pa.int64()),
        "text": pa.array(["x"] * len(doc_ids)),
        "source": pa.array(sources),
    })
    d = tmp_path / "mix"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")
    eng = _compare(str(d), doc_epoch_mix, epoch_mix_sql())

    def expected_reps(did, src):
        k = int(src[3:])
        tenths = (k % 4 + 1) * 6
        h = (did * MIX_MULT) % (1 << 64)
        return tenths // 10 + (1 if h < (tenths % 10) * THR_TENTH else 0)

    exp = {d_: expected_reps(d_, s) for d_, s in zip(doc_ids, sources)}
    got = eng.groupby("doc_id")["epoch"].agg(["count", "max", "min"])
    for did, reps in exp.items():
        if reps == 0:
            assert did not in got.index
        else:
            assert got.loc[did, "count"] == reps == got.loc[did, "max"]
            assert got.loc[did, "min"] == 1
    assert any(r == 0 for r in exp.values())       # the drop path is real
    assert any(r >= 2 for r in exp.values())       # and so is upsampling


def test_lang_vocab_jaccard_edge_cases(ray_session, tmp_path):
    """Planted vocabularies: en/de share {b, c} (J = 2/4), fr shares
    nothing and so appears in NO pair row; per-lang distinct totals count
    words once however often they repeat."""
    from titan_ray.pipelines.docqc import lang_vocab_jaccard, lang_vocab_jaccard_sql

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "lang": pa.array(["en", "en", "de", "fr"]),
        "text": pa.array([
            "a b c a b",        # en: {a,b,c}
            "c a",              # en dup words -> still {a,b,c}
            "b c d",            # de: {b,c,d}
            "x x x",            # fr: {x}
        ]),
    })
    d = tmp_path / "lvj"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")
    eng = _compare(str(d), lang_vocab_jaccard, lang_vocab_jaccard_sql())
    assert len(eng) == 1
    row = eng.iloc[0]
    assert (row["lang_a"], row["lang_b"]) == ("de", "en")
    assert row["n_a"] == 3 and row["n_b"] == 3 and row["n_common"] == 2
    assert row["jaccard"] == 0.5


def test_doc_pack_bins_edge_cases(ray_session, tmp_path):
    """Next-fit walk on a planted sequence (C=10): exact fit closes at the
    boundary without waste, an oversized doc gets a window ALONE (entering
    only when the current window closes), and an empty doc costs one pad
    token."""
    from titan_ray.pipelines.docqc import doc_pack_bins, pack_bins_sql
    from tools.check_contract import to_pandas

    # tokens: 4, 6 (fits exactly), 3, 15 (oversize), 2, 1(empty), 8
    texts = ["a b c d", "a b c d e f", "a b c", " ".join(["w"] * 15),
             "a b", "", "a b c d e f g h"]
    tbl = pa.table({"doc_id": pa.array(list(range(7)), type=pa.int64()),
                    "text": pa.array(texts)})
    d = tmp_path / "pack"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")
    eng = _compare(str(d), lambda sf: doc_pack_bins(sf, capacity=10),
                   pack_bins_sql(capacity=10)).sort_values("doc_id").reset_index(drop=True)
    assert eng["tok"].tolist() == [4, 6, 3, 15, 2, 1, 8]
    # bin walk: [4,6]=10 exact | [3] then 15 overflows -> [15] alone | [2,1] then 8 overflows -> [8]
    assert eng["bin_id"].tolist() == [0, 0, 1, 2, 3, 3, 4]
    assert eng["bin_offset"].tolist() == [0, 4, 0, 0, 0, 2, 0]


def test_doc_pack_bins_partition_invariant(ray_session):
    """The tabulation scan must be exact under ANY block layout: 1 block
    and 29 blocks give identical assignments (block boundaries change
    which incoming fills the transfer tables are evaluated at)."""
    import ray as _ray
    import titan_ray.pipelines.docqc as docqc
    from titan_ray.pipelines.docqc import doc_pack_bins

    sf = "/root/testdata/sf0.001"
    base = doc_pack_bins(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    ds = _ray.data.read_parquet(f"{sf}/documents.parquet",
                                columns=["doc_id", "text"]).repartition(29)
    orig = docqc._read
    try:
        docqc._read = lambda _sf, _cols: ds
        many = doc_pack_bins(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    finally:
        docqc._read = orig
    pd.testing.assert_frame_equal(base, many)
    # packing is tight: every window except possibly per-run tails is full
    # enough that total windows <= ceil(total tokens / C) * 2 (sanity)
    import math
    assert base["bin_id"].max() + 1 <= 2 * math.ceil(base["tok"].sum() / 256)


def test_doc_pretrain_build_edge_cases(ray_session, tmp_path):
    """Every stage of the composition fires on a planted corpus: doc 2 is a
    byte-duplicate of doc 1 (dedup keeps 1 — exercising the non-empty dup
    map), doc 3 shares the 3-gram 'canary gram alpha' with eval doc 107
    (decontam drop), doc 5 fails the Gopher word-count gate, doc 97 is
    val-split, doc 107 is the eval slice itself — leaving exactly docs
    {1, 4} packed into one window."""
    from titan_ray.pipelines.docqc import doc_pretrain_build, pretrain_build_sql

    T = ("the table value merge sorts batch window filter stream group query "
         "scans joins a hashing column vector parts order small rows big data lines")
    U = ("a window merge value table sorts canary gram alpha filter batch stream "
         "the query scans group joins order parts rows small big lines data")
    V = ("the batch value table merge window sorts filter stream group query "
         "scans joins order parts rows small big data lines a column vector hash")
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 97, 107], type=pa.int64()),
        "text": pa.array([T, T, U, V, "tiny doc here", V,
                          "eval holdout canary gram alpha probe"]),
    })
    d = tmp_path / "build"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")
    eng = _compare(str(d), doc_pretrain_build, pretrain_build_sql()) \
        .sort_values("doc_id").reset_index(drop=True)
    assert eng["doc_id"].tolist() == [1, 4]
    assert eng["bin_id"].tolist() == [0, 0]          # both fit one window
    assert eng["bin_offset"].tolist() == [0, 24]     # next-fit order
