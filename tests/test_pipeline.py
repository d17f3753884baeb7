"""End-to-end conformance: Ray pipeline vs the serial oracle (SURVEY.md §5).

Mirrors the reference's e2e pattern (reference: test/test_titan_ta_sct.r —
run the battery, compare flags against planted ground truth), with the
added distributed-correctness assertions the reference never needed:
identical results under different block counts, and F1 vs planted labels.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from titan_ray.config import QCConfig
from titan_ray.corpus import MEGA_CONV_ID, generate_corpus
from titan_ray.oracle.serial import oracle_qc
from titan_ray.pipelines.qc import build_qc_pipeline

KEY = ["conv_id", "turn_idx"]


def _run_engine(table: pa.Table, cfg: QCConfig, blocks: int = 8) -> pd.DataFrame:
    import ray.data as rd

    ds = rd.from_arrow(table).repartition(blocks)
    out = build_qc_pipeline(ds, cfg).to_pandas()
    return out.sort_values(KEY, na_position="last").reset_index(drop=True)


@pytest.fixture(scope="module")
def engine_and_oracle(ray_session, small_corpus):
    cfg = QCConfig(dedup=True)
    eng = _run_engine(small_corpus, cfg)
    ora = oracle_qc(small_corpus, cfg).sort_values(KEY, na_position="last").reset_index(drop=True)
    return eng, ora


def test_row_parity(engine_and_oracle):
    eng, ora = engine_and_oracle
    assert len(eng) == len(ora)
    assert eng["conv_id"].fillna("@").tolist() == ora["conv_id"].fillna("@").tolist()


def test_flag_parity_exact(engine_and_oracle):
    eng, ora = engine_and_oracle
    assert (eng["dqcflag"].to_numpy() == ora["dqcflag"].to_numpy()).all()


def test_scrubbed_text_exact(engine_and_oracle):
    eng, ora = engine_and_oracle
    assert eng["text_scrubbed"].fillna("@").tolist() == ora["text_scrubbed"].fillna("@").tolist()


def test_scrub_counts_parity(engine_and_oracle):
    """The vsigma-analog scrub metadata (per-rule-class substitution counts)
    matches the serial oracle exactly, and is consistent with the text:
    counts are nonzero iff the scrub changed the row."""
    eng, ora = engine_and_oracle
    for col in ("n_scrub_pii", "n_scrub_tox"):
        assert eng[col].to_numpy().tolist() == ora[col].to_numpy().tolist(), col
    changed = eng["text_scrubbed"].fillna("@") != eng["text"].fillna("@")
    total = eng["n_scrub_pii"] + eng["n_scrub_tox"]
    assert ((total > 0) == changed).all()
    assert int(total.sum()) > 0


def test_sctpog_parity(engine_and_oracle):
    eng, ora = engine_and_oracle
    assert np.allclose(eng["sctpog"].fillna(-9), ora["sctpog"].fillna(-9), atol=1e-12)


def test_f1_vs_planted_labels(engine_and_oracle):
    """The BASELINE gate: keep/drop F1 >= 0.99 vs planted ge labels."""
    eng, _ = engine_and_oracle
    drop_labels = ["ge_meta", "ge_range", "ge_buddy", "ge_dual", "ge_iso", "ge_black"]
    truth = eng[drop_labels].any(axis=1) & ~eng["is_keeplist"]
    pred = ~eng["keep"]
    scored = ~eng["is_keeplist"]
    tp = int((truth & pred & scored).sum())
    fp = int((~truth & pred & scored).sum())
    fn = int((truth & ~pred & scored).sum())
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 >= 0.99, (tp, fp, fn)


def test_pii_scrubbed(engine_and_oracle):
    eng, _ = engine_and_oracle
    pii = eng[eng["ge_pii"]]
    assert len(pii) > 0
    assert (pii["text_scrubbed"] != pii["text"]).all()
    clean = eng[~eng[[c for c in eng.columns if c.startswith("ge_")]].any(axis=1)]
    assert (clean["text_scrubbed"] == clean["text"]).mean() == 1.0


def test_block_count_invariance(ray_session, small_corpus):
    """Same corpus, different partitioning => byte-identical sorted output
    (SURVEY.md §5.4)."""
    cfg = QCConfig(dedup=True)
    a = _run_engine(small_corpus, cfg, blocks=3)
    b = _run_engine(small_corpus, cfg, blocks=17)
    for col in ("dqcflag", "keep", "text_scrubbed", "lang", "ppl"):
        assert a[col].fillna(-1 if a[col].dtype != object else "@").tolist() == \
               b[col].fillna(-1 if b[col].dtype != object else "@").tolist(), col


def test_mega_conversation_salted_and_checked(engine_and_oracle):
    """The planted mega-conversation (> window W) must be split, checked, and
    re-emitted with exactly one row per turn and window-parity with the oracle."""
    eng, ora = engine_and_oracle
    m_eng = eng[eng["conv_id"] == MEGA_CONV_ID]
    m_ora = ora[ora["conv_id"] == MEGA_CONV_ID]
    assert len(m_eng) == len(m_ora) > QCConfig().window  # bigger than one window
    # uniqueness among real turn positions (meta plants may share turn_idx=-1)
    assert m_eng.loc[m_eng["turn_idx"] >= 0, "turn_idx"].is_unique
    assert (m_eng["dqcflag"].to_numpy() == m_ora["dqcflag"].to_numpy()).all()


def test_passthrough_columns_preserved(engine_and_oracle):
    """dataopt analog (reference write_output.r:41-45): extra input columns
    (tool, ts, labels) survive untouched."""
    eng, _ = engine_and_oracle
    for col in ("tool", "ts", "role"):
        assert col in eng.columns
    assert set(c for c in eng.columns if c.startswith("ge_")) == {
        "ge_meta", "ge_range", "ge_buddy", "ge_dual", "ge_iso", "ge_black",
        "ge_pii", "ge_dup", "ge_zdem",
    }


def test_no_dedup_keeps_all_rows(ray_session):
    cfg = QCConfig(dedup=False)
    t = generate_corpus(800, seed=7, mega=False)
    eng = _run_engine(t, cfg, blocks=4)
    assert len(eng) == t.num_rows


def test_all_optional_checks_parity(ray_session, small_corpus):
    """Every check enabled at once (zdem/ccrrt/sct_fg/dual_fg + prio +
    fgt ensemble): Ray engine == oracle exactly, and results invariant to
    the bucket count (per-window convergence freezing — bucket co-residency
    must never change flags)."""
    cfg = QCConfig(
        dedup=True, enable_zdem=True, enable_ccrrt=True, enable_sct_fg=True,
        enable_dual_fg=True, fgt_ensemble=3,
        prio={"user": 1, "assistant": 0, "tool": 0, "system": 2},
    )
    eng_a = _run_engine(small_corpus, cfg, blocks=5)
    eng_b = _run_engine(small_corpus, cfg, blocks=19)
    ora = oracle_qc(small_corpus, cfg).sort_values(KEY, na_position="last").reset_index(drop=True)
    assert (eng_a["dqcflag"].to_numpy() == ora["dqcflag"].to_numpy()).all()
    assert (eng_a["dqcflag"].to_numpy() == eng_b["dqcflag"].to_numpy()).all()


def test_duplicate_turn_idx_parity(ray_session):
    """Re-ingested data: duplicate (conv_id, turn_idx) rows (dedup off) —
    engine must still use pure TURN-distance neighbourhoods (oracle _neigh),
    not row-position distance (ADVICE r1: widened positional window)."""
    t = generate_corpus(900, seed=11, mega=False)
    df = t.to_pandas()
    # duplicate every 3rd row with a perturbed ts and slightly different text
    dup = df.iloc[::3].copy()
    dup["ts"] = dup["ts"] + pd.Timedelta(seconds=1)
    dup["text"] = dup["text"] + " extra"
    both = pd.concat([df, dup], ignore_index=True)
    table = pa.Table.from_pandas(both, preserve_index=False)
    cfg = QCConfig(dedup=False)
    eng = _run_engine(table, cfg, blocks=7)
    ora = oracle_qc(table, cfg).sort_values(
        ["conv_id", "turn_idx", "ts", "text"], na_position="last"
    ).reset_index(drop=True)
    eng = eng.sort_values(
        ["conv_id", "turn_idx", "ts", "text"], na_position="last"
    ).reset_index(drop=True)
    assert len(eng) == len(ora)
    assert (eng["dqcflag"].to_numpy() == ora["dqcflag"].to_numpy()).all()


def test_dedup_exact_tie_single_survivor(ray_session):
    """Full duplicates with identical (conv_id, turn_idx, ts) and identical
    normalized text: dedup_exact and the oracle keep exactly ONE
    (ADVICE r1)."""
    from titan_ray.stages.dedup import dedup_exact
    import ray.data as rd

    t = generate_corpus(600, seed=13, mega=False)
    df = t.to_pandas()
    # two case-variant copies (same normalized text) at the same position,
    # plus one byte-identical copy
    tie = df.iloc[[10]].copy()
    tie["text"] = tie["text"].str.upper()
    byte_copy = df.iloc[[10]].copy()
    both = pd.concat([df, tie, byte_copy], ignore_index=True)
    table = pa.Table.from_pandas(both, preserve_index=False)

    cfg = QCConfig(dedup=True)
    ora = oracle_qc(table, cfg)
    assert len(ora) == len(df) - int(df["ge_dup"].sum())  # planted dups + ties collapsed

    out = dedup_exact(rd.from_arrow(table).repartition(1)).to_pandas()
    assert len(out) == len(ora)
    # the surviving copy is the oracle's (min content-hash) choice
    k = out[(out["conv_id"] == df.loc[10, "conv_id"]) & (out["turn_idx"] == df.loc[10, "turn_idx"])]
    ko = ora[(ora["conv_id"] == df.loc[10, "conv_id"]) & (ora["turn_idx"] == df.loc[10, "turn_idx"])]
    assert len(k) == 1 and len(ko) == 1
    assert k["text"].iloc[0] == ko["text"].iloc[0]


def test_dedup_near_drops_near_duplicates(ray_session):
    """Epsilon-tolerance dedup at read (duplicate_check analog): a turn that
    is a near-copy (one changed word) of an earlier turn is dropped; the
    first-ranked copy and unrelated turns survive."""
    import ray.data as rd

    from titan_ray.stages.dedup import dedup_near

    t = generate_corpus(700, seed=31, mega=False)
    df = t.to_pandas()
    # plant near-dups: copy 10 clean turns into OTHER conversations with one
    # appended word (same normalized prefix => jaccard >> 0.5)
    clean = df[~df[[c for c in df.columns if c.startswith("ge_")]].any(axis=1)]
    src = clean.iloc[:10]
    near = df.iloc[-10:].copy()
    near["text"] = (src["text"].to_numpy() + " tail")
    both = pd.concat([df.iloc[:-10], near], ignore_index=True)
    ds = rd.from_arrow(pa.Table.from_pandas(both, preserve_index=False)).repartition(4)
    out = dedup_near(ds, threshold=0.5).to_pandas()
    # each planted near-pair loses exactly its higher-ranked member; the
    # original copies survive
    survivors = set(zip(out["conv_id"], out["turn_idx"]))
    for _, row in src.iterrows():
        assert (row["conv_id"], row["turn_idx"]) in survivors
    assert len(out) <= len(both) - 8  # at least 8 of the 10 near-copies caught
    # determinism across partitionings
    out2 = dedup_near(
        rd.from_arrow(pa.Table.from_pandas(both, preserve_index=False)).repartition(11),
        threshold=0.5,
    ).to_pandas()
    assert sorted(zip(out["conv_id"].fillna("@"), out["turn_idx"])) == \
           sorted(zip(out2["conv_id"].fillna("@"), out2["turn_idx"]))


def test_dedup_near_join_fallback_identical(ray_session):
    """Above max_broadcast_pairs the hash_join membership path must keep
    exactly the same rows as the broadcast path (round-4 verdict item 3)."""
    import ray.data as rd

    from titan_ray.stages.dedup import dedup_near

    t = generate_corpus(700, seed=31, mega=False)
    df = t.to_pandas()
    clean = df[~df[[c for c in df.columns if c.startswith("ge_")]].any(axis=1)]
    src = clean.iloc[:10]
    near = df.iloc[-10:].copy()
    near["text"] = (src["text"].to_numpy() + " tail")
    both = pa.Table.from_pandas(pd.concat([df.iloc[:-10], near], ignore_index=True),
                                preserve_index=False)
    wide = dedup_near(rd.from_arrow(both).repartition(4), threshold=0.5).to_pandas()
    forced = dedup_near(rd.from_arrow(both).repartition(4), threshold=0.5,
                        max_broadcast_pairs=1).to_pandas()
    key = lambda d: sorted(zip(d["conv_id"].fillna("@"), d["turn_idx"]))
    assert len(forced) < len(both)  # the fallback actually dropped near-dups
    assert key(wide) == key(forced)


def test_dedup_near_engine_oracle_parity(ray_session):
    """dedup_near=True: full pipeline engine == serial oracle row-for-row."""
    import ray.data as rd
    from titan_ray.pipelines.qc import build_qc_pipeline

    t = generate_corpus(1100, seed=33, mega=False)
    cfg = QCConfig(dedup=True, dedup_near=True)
    ora = oracle_qc(t, cfg).sort_values(KEY, na_position="last").reset_index(drop=True)
    eng = build_qc_pipeline(rd.from_arrow(t).repartition(6), cfg).to_pandas()
    eng = eng.sort_values(KEY, na_position="last").reset_index(drop=True)
    assert len(eng) == len(ora)
    assert (eng["dqcflag"].to_numpy() == ora["dqcflag"].to_numpy()).all()


def test_shared_model_refs_parity(ray_session, small_corpus):
    """Actors fed the node-shared plasma tables score bit-identically to
    actors that train private copies (stages/scorer.shared_model_refs)."""
    import ray.data as rd

    from titan_ray.stages.scorer import Scorer, shared_model_refs

    refs = shared_model_refs()
    assert refs is not None  # ray is up => the shared path must engage
    ds = rd.from_arrow(small_corpus)
    kw = dict(batch_format="pyarrow", batch_size=512, concurrency=(1, 2))
    shared = (
        ds.map_batches(Scorer, fn_constructor_kwargs={"model_refs": refs}, **kw)
        .to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    private = (
        ds.map_batches(Scorer, **kw)
        .to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(shared, private)


def test_large_string_blocks_flow_through(ray_session):
    """Blocks with large_string columns (as emitted by Ray's polars-backed
    sort, DataContext.use_polars_sort) flow through the dedup and conv
    kernels identically to narrow-string blocks (schema.narrow_strings)."""
    import pyarrow.compute as pc

    from titan_ray.schema import narrow_strings
    from titan_ray.stages.dedup import dedup_bucket_arrow

    t = generate_corpus(400, seed=21, mega=False)
    big = pa.table(
        {
            name: (
                pc.cast(t[name], pa.large_string())
                if pa.types.is_string(t.schema.field(name).type)
                else t[name]
            )
            for name in t.column_names
        }
    )
    assert pa.types.is_large_string(big.schema.field("text").type)
    narrowed = narrow_strings(big)
    assert narrowed.schema == t.schema
    out_big = dedup_bucket_arrow(big)
    out_small = dedup_bucket_arrow(t)
    assert out_big.num_rows == out_small.num_rows
    assert out_big.cast(out_small.schema).equals(out_small)
