"""The doc operators' one word rule, ``docqc._words``, on the texts the
driver tables lack: control whitespace, U+0085 and U+00A0, runs and edges of
whitespace, empty, all-whitespace and null rows. Checked against DuckDB's
``regexp_extract_all(text, '\\S+')``, against the split-and-drop form each
operator used to restate, and end to end through doc_repetition and
doc_unigram_entropy against their twins."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from titan_ray.pipelines.docqc import _words

TEXTS = [
    "a\tb", "a\nb", "a\rb", "a\fb",
    "a\vb",                   # \v is not RE2 \s: one word
    "a\u0085b", "a\u00a0b",   # nor are NEL and NBSP
    "  lead", "trail  ", " \t\n both \r\f ", "run  of\t\t\twhite \n\n space",
    "",
    " \t\n\r\f ",
    "x y x y",
    " \u0085 \v",        # all word characters but the space
]


def _column(kind: str):
    """TEXTS plus a null row, as a string Array, a two-chunk ChunkedArray or
    a large_string Array."""
    arr = pa.array([*TEXTS[:6], None, *TEXTS[6:]], pa.string())
    if kind == "chunked":
        return pa.chunked_array([arr.slice(0, 7), arr.slice(7)])
    if kind == "large":
        return arr.cast(pa.large_string())
    return arr


def _split_and_drop(texts) -> tuple[list, list]:
    """The hand-rolled form every operator restated before ``_words``."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lst = pc.split_pattern_regex(texts, r"\s+")
    off = np.asarray(lst.offsets, dtype=np.int64)
    rid = np.repeat(np.arange(len(texts), dtype=np.int64), off[1:] - off[:-1])
    keep = np.asarray(pc.not_equal(lst.values, "").fill_null(False))
    return lst.values.filter(pa.array(keep)).to_pylist(), rid[keep].tolist()


@pytest.mark.parametrize("kind", ["string", "chunked", "large"])
def test_words_is_regexp_extract_all(kind):
    texts = _column(kind)
    words, rid = _words(texts)
    assert rid.dtype == np.int64
    got = (words.to_pylist(), rid.tolist())

    t = pa.table({"i": pa.array(np.arange(len(texts))), "text": texts})
    con = duckdb.connect()
    con.register("t", t)
    rows = con.sql(r"WITH x AS (SELECT i, regexp_extract_all(text, '\S+') AS ws FROM t) "
                   "SELECT i, unnest(ws) AS w, generate_subscripts(ws, 1) AS k FROM x "
                   "ORDER BY i, k").fetchall()
    assert got == ([w for _, w, _ in rows], [i for i, _, _ in rows])
    assert got == _split_and_drop(texts)

    by_row = {i: [w for j, w in zip(rid.tolist(), words.to_pylist()) if j == i]
              for i in range(len(texts))}
    src = texts.to_pylist()
    assert by_row[src.index("a\tb")] == ["a", "b"]
    assert by_row[src.index("a\vb")] == ["a\vb"]
    assert by_row[src.index("a\u0085b")] == ["a\u0085b"]
    assert by_row[src.index("a\u00a0b")] == ["a\u00a0b"]
    assert by_row[src.index(" \t\n both \r\f ")] == ["both"]
    assert by_row[src.index("")] == [] and by_row[src.index(" \t\n\r\f ")] == []
    assert by_row[src.index(None)] == []


def test_codes_without_the_empty_entry_keep_the_word_order():
    """doc_repetition and doc_unigram_entropy used to dictionary-encode the
    split pieces before dropping the "" ones, so their codes counted a ""
    entry. Numbered over the words alone, each code only shifts down past
    that entry: the same words share a code, and the (row, code) order the
    kernels sort by is unchanged."""
    texts = _column("string")
    lst = pc.split_pattern_regex(texts, r"\s+")
    keep = np.asarray(pc.not_equal(lst.values, "").fill_null(False))
    assert not keep.all()  # the "" pieces are there to drop
    old = np.asarray(pc.dictionary_encode(lst.values).indices, dtype=np.int64)[keep]
    words, rid = _words(texts)
    new = np.asarray(pc.dictionary_encode(words).indices, dtype=np.int64)
    pairs = np.unique(np.stack([old, new]), axis=1)
    assert pairs.shape[1] == len(np.unique(old)) == len(np.unique(new))
    assert np.array_equal(np.lexsort((old, rid)), np.lexsort((new, rid)))


@pytest.mark.parametrize("op, twin", [("doc_repetition", "repetition_sql"),
                                      ("doc_unigram_entropy", "entropy_sql")])
def test_operator_matches_twin_on_planted_whitespace(ray_session, tmp_path, op, twin):
    """The null row is left out: the twins give it NULL counts, not 0."""
    from titan_ray.pipelines import docqc
    from tools.check_contract import to_pandas, value_hash

    n = len(TEXTS)
    pq.write_table(pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                             "text": pa.array(TEXTS, pa.string())}),
                   tmp_path / "documents.parquet")
    eng = to_pandas(getattr(docqc, op)(str(tmp_path)))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'")
    ora = con.sql(getattr(docqc, twin)()).df()
    assert len(eng) == len(ora) == n
    assert value_hash(eng) == value_hash(ora)
