"""bucket_exchange and the invariant it rests on.

The flagship's two exchanges run their kernel once per shuffled block, over
every bucket the block holds, instead of once per bucket. That is correct
only if the kernels are key-composable: one call over the union of whole
buckets gives the same rows as one call per bucket. These tests pin that
property on a fixture with every awkward key the engine meets, then check
the flagship end to end across block layouts and against the serial oracle,
the operators ported off ``map_groups`` across block layouts and against
their DuckDB twins, and that no ``map_groups`` call comes back.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from titan_ray.config import QCConfig
from titan_ray.corpus import MEGA_CONV_ID, generate_corpus
from titan_ray.oracle.serial import oracle_qc
from titan_ray.pipelines.qc import ScoreChain, build_qc_pipeline
from titan_ray.stages.conv import NULL_CONV_KEY, run_conv_checks_arrow
from titan_ray.schema import narrow_strings
from titan_ray.stages.dedup import (
    _norm_and_rank,
    _normalize_arrow,
    add_dedup_bucket,
    dedup_bucket_arrow,
    dedup_exact,
)
from titan_ray.stages.rowwise import metadata_check, seed_lists

CONV_BUCKETS = 16  # few buckets, so each holds several windows


def _widen(t: pa.Table) -> pa.Table:
    """Every string column as large_string (what Ray's polars sort emits)."""
    return pa.table({
        n: pc.cast(t[n], pa.large_string()) if pa.types.is_string(t.schema.field(n).type) else t[n]
        for n in t.column_names
    })


def _by_key(t: pa.Table, key: str) -> list[pa.Table]:
    """One table per key value, in key order (what map_groups hands out)."""
    keys = t[key].to_numpy(zero_copy_only=False)
    return [t.filter(pa.array(keys == k)) for k in np.unique(keys)]


def _sorted_frame(t: pa.Table) -> pd.DataFrame:
    t = t.sort_by([(c, "ascending") for c in t.column_names])
    return t.to_pandas()


def _assert_composable(kernel, t: pa.Table, key: str) -> None:
    parts = _by_key(t, key)
    assert len(parts) >= 6
    per_key = pa.concat_tables([kernel(p) for p in parts])
    # contiguous runs of whole keys, as a range-partitioned sort cuts them
    cuts = np.array_split(np.arange(len(parts)), 3)
    blocks = pa.concat_tables([kernel(pa.concat_tables([parts[i] for i in c])) for c in cuts])
    one = kernel(pa.concat_tables(parts))
    want = _sorted_frame(per_key)
    assert len(want) > 0
    pd.testing.assert_frame_equal(_sorted_frame(blocks), want, check_exact=True)
    pd.testing.assert_frame_equal(_sorted_frame(one), want, check_exact=True)


def _copies(t: pa.Table, i: int, null_ts: bool = False) -> list[pa.Table]:
    """A byte-identical copy and a case variant of row ``i`` (same
    normalized text, tied rank position), optionally with a null ts."""
    row = t.slice(i, 1)
    if null_ts:
        row = row.set_column(t.column_names.index("ts"), "ts", pa.nulls(1, t.schema.field("ts").type))
    upper = row.set_column(t.column_names.index("text"), "text", pc.utf8_upper(row["text"]))
    return [row, upper]


@pytest.fixture(scope="module")
def corpus() -> pa.Table:
    """Labeled corpus with a 1.6k-turn mega conversation, null conv_ids,
    negative turn_idx, empty and null texts and planted duplicates, plus a
    byte-identical copy and a case variant of two rows: of one as is, and
    of one with a null ts (which ranks after every timed row)."""
    t = generate_corpus(600, seed=7)
    return pa.concat_tables([t, *_copies(t, 40), *_copies(t, 41, null_ts=True)])


@pytest.fixture(scope="module")
def salted(corpus) -> pa.Table:
    cfg = QCConfig()
    b = metadata_check(seed_lists(corpus, cfg=cfg), cfg=cfg)
    return ScoreChain(cfg, CONV_BUCKETS)(b)


def test_fixture_has_the_awkward_keys(corpus, salted):
    keys = salted["conv_key"].to_pylist()
    assert sum(k.startswith(MEGA_CONV_ID + "#") for k in set(keys)) >= 3  # salted windows
    assert (~salted["is_core"].to_numpy(zero_copy_only=False)).sum() > 0  # halo rows
    assert any(k.startswith(NULL_CONV_KEY) for k in keys)
    assert pc.sum(pc.equal(corpus["text"], "")).as_py() > 0
    norm = _normalize_arrow(corpus["text"])
    assert norm[norm != ""].duplicated().sum() > 0
    assert pc.min(corpus["turn_idx"]).as_py() < 0
    null_ts = corpus.filter(pc.is_null(corpus["ts"]))["text"]
    assert null_ts.length() >= 2 and len(set(_normalize_arrow(null_ts))) == 1


@pytest.mark.parametrize("wide", [False, True], ids=["string", "large_string"])
def test_conv_kernel_is_key_composable(salted, wide):
    t = _widen(salted) if wide else salted
    _assert_composable(lambda g: run_conv_checks_arrow(g, cfg=QCConfig()), t, "bucket")


@pytest.mark.parametrize("wide", [False, True], ids=["string", "large_string"])
def test_dedup_kernel_is_key_composable(corpus, wide):
    t = add_dedup_bucket(_widen(corpus) if wide else corpus)
    assert dedup_bucket_arrow(t).num_rows < t.num_rows
    _assert_composable(dedup_bucket_arrow, t, "_dd_bucket")


def _reference_keep_first(t: pa.Table) -> pa.Table:
    """The keep-first kernel before the 128-bit hash: an object argsort on
    the rank string, then the first row per normalized text, plus every
    empty text."""
    norm, rank = _norm_and_rank(t)
    norm = norm.to_numpy(dtype=object)
    order = np.argsort(rank.to_numpy(dtype=object), kind="stable")
    _, first_pos = np.unique(norm[order], return_index=True)
    keep = norm[order] == ""
    keep[first_pos] = True
    return t.take(pa.array(np.sort(order[keep])))


@pytest.mark.parametrize("wide", [False, True], ids=["string", "large_string"])
def test_dedup_kernel_keeps_the_reference_rows(corpus, wide):
    """add_dedup_bucket + dedup_bucket_arrow keep exactly the rows the
    normalized-text kernel keeps, in the same order."""
    t = _widen(corpus) if wide else corpus
    want = narrow_strings(_reference_keep_first(t))
    got = dedup_bucket_arrow(add_dedup_bucket(t))
    assert got.num_rows < t.num_rows
    assert got.equals(want)


def test_dedup_map_runs_in_batches(ray_session, small_corpus):
    """The dedup map runs in batch_size batches, so the sort sees a few
    block-sized inputs, not the input's 29 small blocks."""
    import math

    import ray.data as rd

    bs = QCConfig().batch_size
    out = dedup_exact(rd.from_arrow(small_corpus).repartition(29), batch_size=bs).materialize()
    assert out.num_blocks() <= math.ceil(small_corpus.num_rows / bs) + 1


def test_bucket_exchange_runs_once_per_block(ray_session):
    """fn sees whole keys, and is called once per shuffled block."""
    import ray.data as rd

    from titan_ray.exchange import bucket_exchange

    ds = rd.from_arrow(pa.table({"k": pa.array(np.arange(400) % 40), "v": pa.array(np.arange(400))}))

    def fn(t: pa.Table) -> pa.Table:
        g = t.group_by("k").aggregate([("v", "count")])
        call = np.random.default_rng().integers(1 << 62)  # one id per call
        return g.append_column("call", pa.array(np.full(g.num_rows, call)))

    out = bucket_exchange(ds.repartition(5), "k", fn).to_pandas()
    assert sorted(out["k"]) == list(range(40))  # no key split across blocks
    assert (out["v_count"] == 10).all()
    assert 1 <= out["call"].nunique() <= 5  # per block, not per key


def test_map_between_exchanges_runs_tasks_concurrently(ray_session):
    """A map between two exchanges runs more than one task at a time.

    With Ray Data's per-operator CPU reservation on, the map, the sort
    behind it and the map after that sort each hold a slice of the 4 CPUs,
    and the map between them got a budget of one task: its 0.3 s calls ran
    back to back. ``import titan_ray`` switches that reservation off."""
    import gc
    import os
    import time

    import ray.data as rd
    from ray.data import DataContext

    import titan_ray  # noqa: F401
    from titan_ray.exchange import bucket_exchange

    assert DataContext.get_current().op_resource_reservation_enabled is False
    gc.collect()  # drop actors an earlier test left holding a CPU

    def record(t: pa.Table) -> pa.Table:
        start = time.time()
        time.sleep(0.3)
        return pa.table({"k": [t["k"][0].as_py()], "pid": [os.getpid()],
                         "start": [start], "end": [time.time()]})

    blocks = [pa.table({"k": pa.array((np.arange(100) + 100 * i) % 16)}) for i in range(8)]
    ds = bucket_exchange(rd.from_arrow(blocks), "k", lambda t: t)
    ds = ds.map_batches(record, batch_format="pyarrow", batch_size=None)
    out = bucket_exchange(ds, "k", lambda t: t).to_pandas()
    spans = sorted(zip(out["start"], out["end"]))
    assert len(spans) >= 4
    assert any(b[0] < a[1] for a, b in zip(spans, spans[1:]))


KEY = ["conv_id", "turn_idx", "ts", "text"]


def test_flagship_block_layout_invariant_and_oracle_equal(ray_session, small_corpus):
    """build_qc_pipeline(dedup=True) at 1, 7 and 29 input blocks, over a
    corpus with a byte-identical copy and a case variant of a row:
    identical sorted output, equal to the serial oracle."""
    import ray.data as rd

    cfg = QCConfig(dedup=True)
    t = pa.concat_tables([small_corpus, *_copies(small_corpus, 40)])
    outs = []
    for blocks in (1, 7, 29):
        ds = rd.from_arrow(t).repartition(blocks)
        outs.append(_sorted_frame(pa.Table.from_pandas(build_qc_pipeline(ds, cfg).to_pandas(),
                                                       preserve_index=False)))
    for other in outs[1:]:
        pd.testing.assert_frame_equal(other, outs[0], check_exact=True)

    eng = outs[0].sort_values(KEY, na_position="last").reset_index(drop=True)
    ora = oracle_qc(t, cfg).sort_values(KEY, na_position="last").reset_index(drop=True)
    # every column the oracle computes (the engine adds n_chars/n_words/rep_ratio)
    pd.testing.assert_frame_equal(eng[list(ora.columns)], ora, check_exact=True)


# Sites allowed to call ``map_groups`` in titan_ray/, as
# {(path, enclosing top-level function): reason}. Every keyed exchange runs
# through exchange.bucket_exchange; a site joins this list only if its
# kernel must see exactly one group and cannot be made key-composable.
MAP_GROUPS_ALLOWED: dict[tuple[str, str], str] = {}

# Sites allowed to call ``ray.put`` in titan_ray/, same shape. A driver-side
# table reaches tasks by capture in the map_batches UDF, which Ray Data puts
# in the object store once per operator; a hand-rolled put plus a ray.get per
# batch only repeats that work.
RAY_PUT_ALLOWED: dict[tuple[str, str], str] = {
    ("titan_ray/stages/scorer.py", "shared_model_refs"):
        "one model-table put per Ray session, shared by every plan that scores "
        "(qcperf's harness reads it too)",
}


def _scan(match) -> set[tuple[str, str]]:
    """{(path, enclosing top-level function)} of every AST node in
    titan_ray/ for which ``match(node)`` holds."""
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    found = set()
    for path in sorted((root / "titan_ray").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if match(node):
                    found.add((str(path.relative_to(root)), getattr(top, "name", "<module>")))
    return found


def _method_call(node, name: str) -> bool:
    import ast

    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == name


def test_no_second_exchange_idiom():
    """No ``.map_groups(`` call in titan_ray/ outside MAP_GROUPS_ALLOWED."""
    found = _scan(lambda n: _method_call(n, "map_groups"))
    assert found <= set(MAP_GROUPS_ALLOWED), sorted(found - set(MAP_GROUPS_ALLOWED))


def test_no_hand_rolled_broadcast():
    """No ``ray.put(`` (under any ``ray`` alias) in titan_ray/ outside
    RAY_PUT_ALLOWED."""
    import ast

    found = _scan(lambda n: _method_call(n, "put") and isinstance(n.func.value, ast.Name)
                  and n.func.value.id.lstrip("_") == "ray")
    assert found <= set(RAY_PUT_ALLOWED), sorted(found - set(RAY_PUT_ALLOWED))


def test_no_actor_pool_concurrency():
    """No ``concurrency=`` in titan_ray/, as a call keyword or a parameter:
    every map_batches stage is a stateless task map."""
    import ast

    def match(n) -> bool:
        if isinstance(n, ast.Call):
            return any(k.arg == "concurrency" for k in n.keywords)
        if isinstance(n, ast.arguments):
            return any(a.arg == "concurrency" for a in n.args + n.kwonlyargs)
        return False

    assert not _scan(match), sorted(_scan(match))


def test_one_word_rule():
    """No ``split_pattern_regex`` call in titan_ray/ outside ``docqc._words``:
    every doc operator takes its words from the one tokenizer."""
    found = _scan(lambda n: _method_call(n, "split_pattern_regex"))
    assert found <= {("titan_ray/pipelines/docqc.py", "_words")}, sorted(found)


def test_one_user_bucket_rule():
    """No ``bit_wise_and`` call in titan_ray/ outside
    ``events._user_buckets``: every events exchange takes its bucket, and
    its power-of-two guard, from the one helper."""
    found = _scan(lambda n: _method_call(n, "bit_wise_and"))
    assert found <= {("titan_ray/pipelines/events.py", "_user_buckets")}, sorted(found)


@pytest.mark.parametrize("name", ["events_buddy", "events_sessions", "events_pivot",
                                  "events_topk_users", "events_twap", "events_hourly"])
def test_user_bucket_count_is_a_power_of_two(name):
    """A mask over 48 buckets would fill only 16 of them: the operator
    refuses the count before it reads anything."""
    from titan_ray.pipelines import events

    with pytest.raises(ValueError, match="power of two"):
        getattr(events, name)("/nonexistent", num_buckets=48)


def test_no_unread_local_import():
    """No function-local import in titan_ray/ binds a name its function
    (nested functions included) never reads."""
    import ast

    def match(fn) -> bool:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        return any((a.asname or a.name.split(".")[0]) not in read
                   for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))
                   for a in n.names)

    assert not _scan(match), sorted(_scan(match))


def test_captured_ndarray_arrives_read_only(ray_session):
    """What capture instead of ray.put rests on: Ray Data puts each
    map_batches UDF in the object store, so an ndarray captured in it
    arrives in the worker read-only, a zero-copy view of the stored object,
    exactly as ray.get(ray.put(x)) would return it."""
    import ray.data as rd

    table = np.arange(1 << 16, dtype=np.int64)

    def probe(batch: pa.Table) -> pa.Table:
        return pa.table({"writeable": pa.array([table.flags.writeable] * batch.num_rows),
                         "total": pa.array([int(table.sum())] * batch.num_rows)})

    out = rd.range(8, override_num_blocks=2).map_batches(probe, batch_format="pyarrow").to_pandas()
    assert len(out) == 8
    assert not out["writeable"].any()
    assert (out["total"] == int(table.sum())).all()


# --- the ported operators under two block layouts -------------------------


def _sf_dir() -> str:
    """The sf0.001 query tables (next to the contract gate's sf0.01)."""
    import os

    from __ray_entry__ import GATE_SF_DIR

    return os.path.join(os.path.dirname(GATE_SF_DIR), "sf0.001")


def _layout_cases() -> dict:
    """name -> (operator thunk over the sf0.001 tables, DuckDB twin or None)."""
    import ray.data as rd

    from qcperf.workloads import doc_twins
    from titan_ray.corpus import generate_corpus
    from titan_ray.pipelines import docqc, events, qc_battery, relational
    from titan_ray.stages import ann, bpe, cluster, dedup, graph, neardup

    sf = _sf_dir()
    twins = doc_twins()
    cases = {name: (lambda op=getattr(docqc, name, None) or getattr(events, name): op(sf),
                    twins.get(name))
             for name in ("dedup_exact_docs", "doc_vocab_size", "doc_decontaminate",
                          "doc_ngram_novelty", "doc_cms_wordcounts", "corpus_diff",
                          "events_buddy")}
    for name, sql in (("doc_token_shards", docqc.token_shards_sql()),
                      ("doc_mix_interleave", docqc.mix_interleave_sql()),
                      ("doc_quality_auc", docqc.quality_auc_sql()),
                      ("doc_source_quota", docqc.source_quota_sql()),
                      ("doc_hull_points", docqc.hull_sql()),
                      ("doc_bottomk_per_lang", docqc.bottomk_per_lang_sql()),
                      ("doc_inverted_index", docqc.inverted_index_sql())):
        cases[name] = (lambda op=getattr(docqc, name): op(sf), sql)
    for name, sql in (("doc_repetition", docqc.repetition_sql()),
                      ("doc_top_tfidf", docqc.tfidf_sql()),
                      ("doc_unigram_entropy", docqc.entropy_sql()),
                      ("doc_pmi_collocations", docqc.pmi_sql()),
                      ("doc_bm25_topk", docqc.bm25_sql()),
                      ("doc_simpson_diversity", docqc.simpson_sql()),
                      ("doc_collocations", docqc.collocations_sql()),
                      ("doc_segment_dedup", docqc.segment_dedup_sql()),
                      ("events_sessions", events.sessions_sql()),
                      ("events_cumsum", events.cumsum_sql()),
                      ("events_ewma", events.ewma_sql()),
                      ("events_streaks", events.streaks_sql()),
                      ("events_window_median", events.window_median_sql()),
                      ("events_out_of_order", events.out_of_order_sql())):
        cases[name] = (lambda op=getattr(docqc, name, None) or getattr(events, name): op(sf), sql)
    cases.update({
        "events_funnel": (lambda: events.events_funnel(sf), events.funnel_sql()),
        "events_value_gmd": (lambda: events.events_value_gmd(sf), events.value_gmd_sql()),
        "events_asof": (lambda: events.events_asof(sf), None),           # joins.asof_join
        "events_range": (lambda: events.events_range(sf), None),         # joins.range_join
        "tpch_sole_returner": (lambda: relational.tpch_sole_returner(sf),
                               relational.sole_returner_sql()),
        "doc_bpe_merges": (lambda: bpe.doc_bpe_merges(sf, k=4), bpe.bpe_sql(k=4)),
        "embedding_mutual_nn": (lambda: ann.embedding_mutual_nn(sf), ann.mutual_nn_sql()),
        "embedding_neardup_lsh": (lambda: ann.embedding_neardup_lsh(sf), None),
        "semantic_dedup": (lambda: cluster.semantic_dedup(sf), cluster.semantic_dedup_sql(sf)),
        "conv_role_transitions": (lambda: qc_battery.conv_role_transitions(sf),
                                  qc_battery.role_transitions_sql(0.001)),
        # its twin replays the minhash sketch in SQL: minutes, not seconds
        "minhash_lsh_candidates": (lambda: neardup.minhash_lsh_candidates(sf), None),
        "ngram_jaccard_allpairs": (lambda: neardup.ngram_jaccard_allpairs(sf), None),
        "graph_triangles": (lambda: graph.triangles_from_pairs(
            neardup.minhash_lsh_candidates(sf).materialize()), None),
        "dedup_near": (lambda: dedup.dedup_near(rd.from_arrow(generate_corpus(600, seed=7))), None),
    })
    return cases


LAYOUT_CASES = ("dedup_exact_docs", "doc_vocab_size", "doc_decontaminate", "doc_ngram_novelty",
                "doc_cms_wordcounts", "corpus_diff", "events_buddy", "doc_token_shards",
                "doc_mix_interleave", "doc_quality_auc", "doc_source_quota", "doc_hull_points",
                "doc_bottomk_per_lang", "doc_inverted_index", "events_funnel", "events_value_gmd",
                "events_asof", "events_range", "tpch_sole_returner", "doc_bpe_merges",
                "embedding_mutual_nn", "embedding_neardup_lsh", "semantic_dedup",
                "conv_role_transitions", "minhash_lsh_candidates", "ngram_jaccard_allpairs",
                "graph_triangles", "dedup_near", "doc_repetition", "doc_top_tfidf",
                "doc_unigram_entropy", "doc_pmi_collocations", "doc_bm25_topk",
                "doc_simpson_diversity", "doc_collocations", "doc_segment_dedup",
                "events_sessions", "events_cumsum", "events_ewma", "events_streaks",
                "events_window_median", "events_out_of_order")


@pytest.fixture(scope="module")
def sf_tables():
    import os

    import duckdb

    sf = _sf_dir()
    if not os.path.exists(os.path.join(sf, "documents.parquet")):
        pytest.skip("sf0.001 query tables absent")
    con = duckdb.connect()
    for name in ("customer", "supplier", "part", "orders", "lineitem", "nation", "region",
                 "events", "documents", "embeddings"):
        con.sql(f"CREATE VIEW {name} AS SELECT * FROM '{sf}/{name}.parquet'")
    return con


@pytest.mark.parametrize("name", LAYOUT_CASES)
def test_ported_sites_block_layout_invariant(ray_session, sf_tables, monkeypatch, name):
    """Each ported operator gives the same value hash with every bucket in
    one shuffled block and with 29 blocks, and its DuckDB twin's hash."""
    import importlib

    import titan_ray.exchange as exchange
    from tools.check_contract import to_pandas, value_hash

    real = exchange.bucket_exchange
    modules = [importlib.import_module(f"titan_ray.{m}") for m in (
        "pipelines.docqc", "pipelines.events", "pipelines.qc_battery", "pipelines.relational",
        "stages.ann", "stages.bpe", "stages.cluster", "stages.dedup", "stages.graph",
        "stages.joins", "stages.neardup")]
    op, sql = _layout_cases()[name]
    hashes = []
    for blocks in (1, 29):
        def laid_out(ds, key, fn, blocks=blocks, **kw):
            return real(ds.repartition(blocks), key, fn, **kw)

        for m in modules:
            monkeypatch.setattr(m, "bucket_exchange", laid_out)
        out = to_pandas(op())
        monkeypatch.undo()
        assert len(out) > 0
        hashes.append(value_hash(out))
    assert hashes[0] == hashes[1]
    if sql is not None:
        assert hashes[0] == value_hash(sf_tables.sql(sql).df())
