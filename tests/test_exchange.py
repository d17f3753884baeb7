"""bucket_exchange and the invariant it rests on.

The flagship's two exchanges run their kernel once per shuffled block, over
every bucket the block holds, instead of once per bucket. That is correct
only if the kernels are key-composable: one call over the union of whole
buckets gives the same rows as one call per bucket. These tests pin that
property on a fixture with every awkward key the engine meets, then check
the flagship end to end across block layouts and against the serial oracle.
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
from titan_ray.stages.dedup import _normalize_arrow, add_dedup_bucket, dedup_bucket_arrow
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


@pytest.fixture(scope="module")
def corpus() -> pa.Table:
    """Labeled corpus with a 1.6k-turn mega conversation, null conv_ids,
    empty and null texts and planted duplicates, plus one byte-identical
    copy and one case variant of a row (same normalized text, tied rank
    position)."""
    t = generate_corpus(600, seed=7)
    row = t.slice(40, 1)
    upper = row.set_column(t.column_names.index("text"), "text", pc.utf8_upper(row["text"]))
    return pa.concat_tables([t, row, upper])


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


@pytest.mark.parametrize("wide", [False, True], ids=["string", "large_string"])
def test_conv_kernel_is_key_composable(salted, wide):
    t = _widen(salted) if wide else salted
    _assert_composable(lambda g: run_conv_checks_arrow(g, cfg=QCConfig()), t, "bucket")


@pytest.mark.parametrize("wide", [False, True], ids=["string", "large_string"])
def test_dedup_kernel_is_key_composable(corpus, wide):
    t = add_dedup_bucket(_widen(corpus) if wide else corpus)
    assert dedup_bucket_arrow(t).num_rows < t.num_rows
    _assert_composable(dedup_bucket_arrow, t, "_dd_bucket")


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


KEY = ["conv_id", "turn_idx", "ts", "text"]


def test_flagship_block_layout_invariant_and_oracle_equal(ray_session, small_corpus):
    """build_qc_pipeline(dedup=True) at 1, 7 and 29 input blocks: identical
    sorted output, equal to the serial oracle."""
    import ray.data as rd

    cfg = QCConfig(dedup=True)
    outs = []
    for blocks in (1, 7, 29):
        ds = rd.from_arrow(small_corpus).repartition(blocks)
        outs.append(_sorted_frame(pa.Table.from_pandas(build_qc_pipeline(ds, cfg).to_pandas(),
                                                       preserve_index=False)))
    for other in outs[1:]:
        pd.testing.assert_frame_equal(other, outs[0], check_exact=True)

    eng = outs[0].sort_values(KEY, na_position="last").reset_index(drop=True)
    ora = oracle_qc(small_corpus, cfg).sort_values(KEY, na_position="last").reset_index(drop=True)
    # every column the oracle computes (the engine adds n_chars/n_words/rep_ratio)
    pd.testing.assert_frame_equal(eng[list(ora.columns)], ora, check_exact=True)
