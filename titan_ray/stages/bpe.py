"""Distributed BPE tokenizer training — the canonical LLM tokenizer job
(Sennrich et al. 2016: iterative greedy byte-pair merges over a word-
frequency vocabulary), expressed Ray-Data-first and bit-replayable in SQL.

Reference analog: TITAN's iterative flag-cascade loop (titan.r:245-312)
re-runs a battery over shrinking state until quiescence; BPE is the same
ITERATE(aggregate -> global argmax -> broadcast rewrite) machine over the
corpus vocabulary — the one iterative class the surface lacked (pagerank /
kmeans / kcore iterate join+aggregate; BPE's round couples every row to a
single global argmax decision that then MUTATES every row).

Semantics (exact, deterministic):
  words   = regexp_extract_all(lower(text), '[a-z]+')   over documents.text
  vocab   = (word, count) — the classic BPE working set: merges operate on
            the vocabulary-sized table, never the corpus
  round r = count adjacent symbol pairs weighted by word count; the merge
            rule is the (count DESC, left ASC, right ASC) argmax; rewrite
            every word greedily LEFT-TO-RIGHT NON-OVERLAPPING ('aaaa' with
            rule (a,a) -> 'aa','aa'; 'aaaaa' -> 'aa','aa','a')
  output  = (merge_rank 1..k, lhs, rhs, pair_count) — the learned merge
            table, the artifact a tokenizer ships.

Scale shape: ONE corpus-sized pass builds per-batch (word, count) partials
(dictionary-encode + bincount — batch-DISTINCT words cross the exchange,
not tokens), merged in a word-hash bucket exchange. Every round after that
touches only the vocabulary-sized symbol table: per-batch pair-count
partials -> pair-hash bucket exchange (per-bucket sums are GLOBAL-final
because equal pairs always hash to the same bucket) -> per-block top-1 ->
the driver reduces <= num_buckets candidate rows (never the pair table) ->
the 2-string rule broadcasts in the closure and a vectorized map_batches
rewrite produces the next vocab. K rounds = K vocab-sized exchanges.
int64 bound: pair counts <= total corpus words (~1.3e11 at 10^12 turns),
far inside int64.

SQL twin (bpe_sql): the K rounds unrolled as chained CTEs (power-iteration
convention, stages/graph.py); the greedy rewrite replays as a recursive
iterated-FIRST-OCCURRENCE replace — merging the leftmost occurrence until
none remain equals greedy left-to-right (a merged symbol can never recreate
the pattern: 'ab' matches neither 'a' nor 'b'), verified for the a==b
overlap family in tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..exchange import bucket_exchange

BPE_K = 8              # merge rounds learned
BPE_BUCKETS = 16       # pair/word hash-bucket fan-out of each exchange

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def _fnv64(values: pa.Array) -> np.ndarray:
    """Vectorized FNV-1a over a string array (loop over char position only,
    bounded by max word length). Used ONLY as a partition key — results are
    order-free sums/argmaxes, so any deterministic hash works."""
    from ..functions.strings import string_view

    if len(values) == 0:
        return np.empty(0, dtype=np.uint64)
    data, off, _ = string_view(values)
    starts = off[:-1].astype(np.int64)
    lens = (off[1:] - off[:-1]).astype(np.int64)
    h = np.full(len(lens), _FNV_OFFSET, dtype=np.uint64)
    for i in range(int(lens.max(initial=0))):
        m = lens > i
        h[m] = (h[m] ^ data[starts[m] + i].astype(np.uint64)) * _FNV_PRIME
    return h


def _tokens(batch_col) -> pa.Array:
    col = batch_col.combine_chunks() if isinstance(batch_col, pa.ChunkedArray) else batch_col
    return col


def _split_words(texts: pa.Array) -> pa.Array:
    """Lowercase-alpha word stream == regexp_extract_all(lower(text),'[a-z]+')."""
    import pyarrow.compute as pc

    low = pc.utf8_lower(texts)
    clean = pc.replace_substring_regex(low, "[^a-z]+", " ")
    lst = pc.split_pattern(clean, " ")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    values = lst.values
    keep = pc.not_equal(values, "").fill_null(False)
    return values.filter(keep)


def build_vocab(sf_dir: str, num_buckets: int = BPE_BUCKETS):
    """(sym, cnt) vocabulary Dataset: sym = ' c h a r s ' (space-marked
    symbol sequence, initially one char per symbol), cnt = corpus word
    frequency. One corpus pass; the exchange carries batch-distinct words."""
    import pyarrow.compute as pc

    from ..sources.reader import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        words = _split_words(_tokens(batch["text"]))
        if len(words) == 0:
            return pa.table({"word": pa.array([], type=pa.string()),
                             "cnt": pa.array([], type=pa.int64()),
                             "_b": pa.array([], type=pa.int32())})
        enc = pc.dictionary_encode(words)
        counts = np.bincount(np.asarray(enc.indices, dtype=np.int64),
                             minlength=len(enc.dictionary)).astype(np.int64)
        vocab = enc.dictionary
        b = (_fnv64(vocab) % np.uint64(num_buckets)).astype(np.int32)
        return pa.table({"word": vocab, "cnt": pa.array(counts), "_b": pa.array(b)})

    def merge(t: pa.Table) -> pa.Table:
        g = t.group_by("word").aggregate([("cnt", "sum")])
        words = g["word"].to_numpy(zero_copy_only=False).astype("U")
        sym = np.char.add(np.char.add(" ", np.char.join(" ", words)), " ")
        return pa.table({"sym": pa.array(sym.tolist(), type=pa.string()),
                         "cnt": g["cnt_sum"]})

    return (
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "_b", merge)
        .materialize()  # vocabulary-sized working set for the merge rounds
    )


def _sym_view(sym_col) -> tuple[np.ndarray, np.ndarray]:
    """Flatten space-marked symbol strings to (token array, word-offset
    array): tokens of word w are tok[off[w]:off[w+1]]."""
    import pyarrow.compute as pc

    lst = pc.split_pattern(_tokens(sym_col), " ")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    values = lst.values
    keep = np.asarray(pc.not_equal(values, "").fill_null(False))
    off0 = np.asarray(lst.offsets, dtype=np.int64)
    # per-word kept-token counts -> offsets over the filtered token stream
    kept_cum = np.concatenate([[0], np.cumsum(keep.astype(np.int64))])
    off = kept_cum[off0]
    tok = values.filter(pa.array(keep))
    return np.asarray(tok, dtype=object), off


def _pair_partial(batch: pa.Table, num_buckets: int) -> pa.Table:
    """Per-batch weighted adjacent-pair counts over the symbol table."""
    import pyarrow.compute as pc

    empty = pa.table({"a": pa.array([], type=pa.string()),
                      "b": pa.array([], type=pa.string()),
                      "c": pa.array([], type=pa.int64()),
                      "_b": pa.array([], type=pa.int32())})
    if batch.num_rows == 0:
        return empty
    tok, off = _sym_view(batch["sym"])
    cnt = batch["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    nt = len(tok)
    if nt < 2:
        return empty
    wid = np.repeat(np.arange(batch.num_rows, dtype=np.int64), off[1:] - off[:-1])
    within = wid[:-1] == wid[1:]
    if not within.any():
        return empty
    ai = np.nonzero(within)[0]
    # encode both sides against ONE batch-local dictionary -> int pair code
    toks_pa = pa.array(tok, type=pa.string())
    enc = pc.dictionary_encode(toks_pa)
    codes = np.asarray(enc.indices, dtype=np.int64)
    v = len(enc.dictionary)
    pcode = codes[ai] * v + codes[ai + 1]
    w = cnt[wid[ai]]
    uniq, inv = np.unique(pcode, return_inverse=True)
    tot = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(tot, inv, w)
    a_arr = enc.dictionary.take(pa.array(uniq // v))
    b_arr = enc.dictionary.take(pa.array(uniq % v))
    bkey = ((_fnv64(a_arr) * _FNV_PRIME) ^ _fnv64(b_arr)) % np.uint64(num_buckets)
    return pa.table({"a": a_arr, "b": b_arr, "c": pa.array(tot),
                     "_b": pa.array(bkey.astype(np.int32))})


def _bucket_top1(t: pa.Table) -> pa.Table:
    """Per-bucket global-final pair totals -> the bucket's best rule by
    (count DESC, a ASC, b ASC)."""
    g = t.group_by(["a", "b"]).aggregate([("c", "sum")])
    if g.num_rows == 0:
        return pa.table({"a": pa.array([], type=pa.string()),
                         "b": pa.array([], type=pa.string()),
                         "c": pa.array([], type=pa.int64())})
    import pyarrow.compute as pc

    idx = pc.sort_indices(
        g, sort_keys=[("c_sum", "descending"), ("a", "ascending"), ("b", "ascending")]
    )
    top = g.take(idx[:1])
    return pa.table({"a": top["a"], "b": top["b"], "c": top["c_sum"]})


def _merge_rule(batch: pa.Table, a: str, b: str) -> pa.Table:
    """Greedy left-to-right non-overlapping rewrite of (a, b) -> a+b."""
    if batch.num_rows == 0:
        return pa.table({"sym": pa.array([], type=pa.string()),
                         "cnt": pa.array([], type=pa.int64())})
    tok, off = _sym_view(batch["sym"])
    wid = np.repeat(np.arange(batch.num_rows, dtype=np.int64), off[1:] - off[:-1])
    match = np.zeros(len(tok), dtype=bool)
    if len(tok) >= 2:
        match[:-1] = (tok[:-1] == a) & (tok[1:] == b) & (wid[:-1] == wid[1:])
    p = np.nonzero(match)[0]
    if len(p):
        # overlap runs (only possible when a == b): keep alternate positions
        # starting at each run head == greedy left-to-right
        start = np.concatenate([[True], p[1:] != p[:-1] + 1])
        run_id = np.cumsum(start) - 1
        run_head = p[start]
        keep = ((p - run_head[run_id]) % 2) == 0
        kept = p[keep]
        tok = tok.copy()
        tok[kept] = a + b
        drop = np.zeros(len(tok), dtype=bool)
        drop[kept + 1] = True
        tok_kept = tok[~drop]
        per_word = np.diff(off) - np.bincount(wid[kept + 1], minlength=batch.num_rows) \
            if len(kept) else np.diff(off)
        new_off = np.concatenate([[0], np.cumsum(per_word)])
    else:
        tok_kept, new_off = tok, off
    lst = pa.ListArray.from_arrays(pa.array(new_off, type=pa.int32()),
                                   pa.array(tok_kept, type=pa.string()))
    import pyarrow.compute as pc

    joined = pc.binary_join(lst, " ")
    sym = pc.binary_join_element_wise(pa.array([""] * batch.num_rows), joined,
                                      pa.array([""] * batch.num_rows), " ")
    return pa.table({"sym": sym, "cnt": batch["cnt"]})


def _train(sf_dir: str, k: int, num_buckets: int):
    """Shared trainer: returns (merge rows, final vocab Dataset after all k
    rewrites). doc_bpe_merges reports the rules; doc_bpe_encode also uses
    the final symbol table (word -> token count) to encode the corpus."""
    vocab = build_vocab(sf_dir, num_buckets=num_buckets)
    ranks: list[int] = []
    lhs: list[str] = []
    rhs: list[str] = []
    counts: list[int] = []
    for r in range(1, k + 1):
        pairs = vocab.map_batches(lambda t: _pair_partial(t, num_buckets), batch_format="pyarrow")
        # <= one candidate row per shuffled block, never the pair table
        tops = bucket_exchange(pairs, "_b", _bucket_top1).take_all()
        if not tops:
            raise ValueError(
                f"doc_bpe_merges: corpus exhausted after {r - 1} merge rounds "
                f"(k={k}); need a corpus with at least k mergeable pairs"
            )
        best = min(tops, key=lambda row: (-row["c"], row["a"], row["b"]))
        a, b, c = best["a"], best["b"], int(best["c"])
        ranks.append(r)
        lhs.append(a)
        rhs.append(b)
        counts.append(c)
        vocab = vocab.map_batches(
            lambda t, _a=a, _b=b: _merge_rule(t, _a, _b), batch_format="pyarrow"
        ).materialize()  # vocabulary-sized state per round
    merges = pa.table({
        "merge_rank": pa.array(ranks, type=pa.int64()),
        "lhs": pa.array(lhs, type=pa.string()),
        "rhs": pa.array(rhs, type=pa.string()),
        "pair_count": pa.array(counts, type=pa.int64()),
    })
    return merges, vocab


def doc_bpe_merges(sf_dir: str, k: int = BPE_K, num_buckets: int = BPE_BUCKETS):
    """Learn the first ``k`` BPE merge rules over documents.text.

    Returns (merge_rank int64, lhs, rhs, pair_count int64) — k rows."""
    merges, _ = _train(sf_dir, k, num_buckets)
    return merges


def doc_bpe_encode(sf_dir: str, k: int = BPE_K, num_buckets: int = BPE_BUCKETS,
                   join_buckets: int = 64):
    """Tokenizer APPLICATION — encode the corpus under the learned merge
    table and report per-doc fertility: (doc_id, n_words, n_bpe_tokens).

    The trained symbol table IS the encoder: after the k rewrites every
    vocabulary word carries its final token count, so encoding the corpus
    is a join, not a re-tokenization — per-batch DISTINCT (doc_id,
    word-hash, multiplicity) triples co-partition with the vocabulary's
    (word-hash, token-count) rows through ONE stages.joins.hash_join
    exchange (narrow: 24 B/word occurrence class, never the text), then a
    doc-sized groupby sums words and tokens. Words are 64-bit FNV hashes on
    the wire; the SQL twin joins the literal strings, so a collision would
    surface as a driver-gate mismatch (doc_vocab_size convention). Docs
    with zero [a-z]+ words emit no row on either side (inner-join
    semantics, documented)."""
    import pyarrow.compute as pc

    from ..sources.reader import read_parquet_clean
    from .joins import hash_join

    _, vocab = _train(sf_dir, k, num_buckets)

    def vstats(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"h": pa.array([], type=pa.int64()),
                             "n_tok": pa.array([], type=pa.int64())})
        sym = _tokens(t["sym"])
        word = pc.replace_substring(sym, " ", "")
        # ' a b ' has n_tok + 1 separators
        n_tok = pc.subtract(pc.count_substring(sym, " "), 1)
        return pa.table({"h": pa.array(_fnv64(word).view(np.int64)),
                         "n_tok": pc.cast(n_tok, pa.int64())})

    vt = vocab.map_batches(vstats, batch_format="pyarrow")

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def doc_words(batch: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                          "h": pa.array([], type=pa.int64()),
                          "c": pa.array([], type=pa.int64())})
        if batch.num_rows == 0:
            return empty
        texts = _tokens(batch["text"])
        low = pc.utf8_lower(texts)
        clean = pc.replace_substring_regex(low, "[^a-z]+", " ")
        lst = pc.split_pattern(clean, " ")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        values = lst.values
        off = np.asarray(lst.offsets, dtype=np.int64)
        rid = np.repeat(np.arange(batch.num_rows, dtype=np.int64), off[1:] - off[:-1])
        keep = np.asarray(pc.not_equal(values, "").fill_null(False))
        values, rid = values.filter(pa.array(keep)), rid[keep]
        if len(rid) == 0:
            return empty
        enc = pc.dictionary_encode(values)
        codes = np.asarray(enc.indices, dtype=np.int64)
        v = len(enc.dictionary)
        pcode = rid * v + codes
        uniq, cnt = np.unique(pcode, return_counts=True)
        hv = _fnv64(enc.dictionary).view(np.int64)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"doc_id": pa.array(doc_ids[uniq // v]),
                         "h": pa.array(hv[uniq % v]),
                         "c": pa.array(cnt.astype(np.int64))})

    stream = ds.map_batches(doc_words, batch_format="pyarrow")
    joined = hash_join(stream, vt, on="h", right_cols=("n_tok",),
                       num_buckets=join_buckets)

    def weigh(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False)
        nt = t["r_n_tok"].to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": t["doc_id"], "w": t["c"],
                         "t": pa.array((c * nt).astype(np.int64))})

    agg = joined.map_batches(weigh, batch_format="pyarrow").groupby("doc_id").sum(["w", "t"])
    return agg.map_batches(
        lambda b: pa.table({"doc_id": b["doc_id"], "n_words": b["sum(w)"],
                            "n_bpe_tokens": b["sum(t)"]}),
        batch_format="pyarrow",
    )


def _chain_ctes(k: int, last_rewrite: bool) -> list[str]:
    """The k merge rounds as chained CTEs (power-iteration convention); the
    greedy rewrite is a recursive iterated-first-occurrence replace per
    round. ``last_rewrite`` controls whether round k's rewrite (needed only
    when the final symbol table is observed) is emitted."""
    ctes = [
        "w AS (SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word "
        "FROM documents)",
        "v0 AS MATERIALIZED (SELECT ' ' || array_to_string(regexp_extract_all(word, "
        "'[a-z]'), ' ') || ' ' AS s, CAST(count(*) AS BIGINT) AS cnt "
        "FROM w GROUP BY word)",
    ]
    for r in range(1, k + 1):
        prev = f"v{r - 1}"
        pat = f"(SELECT ' '||a||' '||b||' ' FROM b{r})"
        rep = f"(SELECT ' '||a||b||' ' FROM b{r})"
        ctes.append(
            f"x{r} AS (SELECT cnt, l, unnest(generate_series(1, len(l)-1)) AS i "
            f"FROM (SELECT str_split(trim(s), ' ') AS l, cnt FROM {prev}))"
        )
        ctes.append(
            f"p{r} AS (SELECT l[i] AS a, l[i+1] AS b, CAST(sum(cnt) AS BIGINT) AS c "
            f"FROM x{r} GROUP BY 1, 2)"
        )
        ctes.append(
            f"b{r} AS MATERIALIZED (SELECT a, b, c FROM p{r} "
            f"ORDER BY c DESC, a ASC, b ASC LIMIT 1)"
        )
        if r < k or last_rewrite:
            ctes.append(
                f"m{r} AS (SELECT s, cnt FROM {prev} UNION ALL "
                f"SELECT substr(s, 1, pos-1) || {rep} || "
                f"substr(s, pos + (SELECT length(' '||a||' '||b||' ') FROM b{r})), cnt "
                f"FROM (SELECT s, cnt, instr(s, {pat}) AS pos FROM m{r}) q "
                f"WHERE pos > 0)"
            )
            ctes.append(
                f"v{r} AS MATERIALIZED (SELECT s, cnt FROM m{r} "
                f"WHERE instr(s, {pat}) = 0)"
            )
    return ctes


def bpe_sql(k: int = BPE_K) -> str:
    """DuckDB replay of doc_bpe_merges: the learned rule table."""
    ctes = _chain_ctes(k, last_rewrite=False)
    finals = [
        f"SELECT {r} AS merge_rank, a AS lhs, b AS rhs, c AS pair_count FROM b{r}"
        for r in range(1, k + 1)
    ]
    return "WITH RECURSIVE " + ", ".join(ctes) + " " + " UNION ALL ".join(finals)


def bpe_encode_sql(k: int = BPE_K) -> str:
    """DuckDB replay of doc_bpe_encode: the final symbol table joins the
    literal word stream (the engine joins 64-bit FNV hashes — a collision
    would surface here as a gate mismatch)."""
    ctes = _chain_ctes(k, last_rewrite=True)
    ctes.append(
        f"vt AS (SELECT replace(s, ' ', '') AS word, "
        f"len(str_split(trim(s), ' ')) AS n_tok FROM v{k})"
    )
    ctes.append(
        "wd AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) "
        "AS word FROM documents)"
    )
    return (
        "WITH RECURSIVE " + ", ".join(ctes) +
        " SELECT wd.doc_id, CAST(count(*) AS BIGINT) AS n_words, "
        "CAST(sum(v.n_tok) AS BIGINT) AS n_bpe_tokens "
        "FROM wd JOIN vt v USING(word) GROUP BY wd.doc_id"
    )
