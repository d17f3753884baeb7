"""Driver-battery parity: parallel conv mode + SQL oracle vs engine stages.

The contract gate (tools/check_contract.py) proves the full battery at
sf0.01; these tests pin the semantics on hand-crafted edge rows and on the
engine/oracle pair so regressions localize.
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from titan_ray.config import QCConfig
from titan_ray.corpus import generate_corpus
from titan_ray.oracle.serial import oracle_qc
from titan_ray.pipelines.qc_battery import _base_ctes, _rowwise_case, battery_config
from titan_ray.stages.rowwise import (
    climatological_check,
    final_decision,
    metadata_check,
    plausibility_check,
    seed_lists,
)

KEY = ["conv_id", "turn_idx"]


def _edge_scored_table() -> pa.Table:
    """Hand-built scored rows hitting every rowwise CASE branch and its
    precedence interactions (999>901>501>990>502>0)."""
    rows = [
        # conv, turn, role, text, keeplist, lang, conf, ppl, expect
        ("c1", 0, "user", "a fine clean turn", False, "en", 0.9, 30.0, 0),
        ("c1", 1, "user", None, False, "und", 0.0, 1e9, 901),          # null text
        (None, 2, "user", "text ok", False, "en", 0.9, 30.0, 901),     # null conv
        ("c1", -1, "user", "text ok", False, "en", 0.9, 30.0, 901),    # neg turn
        ("c1", 3, "user", "", False, "und", 0.0, 1.0, 901),            # too short
        ("c1", 4, "user", "x" * 40000, False, "en", 0.9, 30.0, 901),   # too long
        ("c1", 5, "user", "BLOCKLISTED_TOKEN here", False, "en", 0.9, 30.0, 999),
        ("c1", 6, "user", "BLOCKLISTED_TOKEN kept?", True, "en", 0.9, 30.0, 999),  # black beats keep
        ("c1", 7, "user", "gibberish", False, "und", 0.1, 500.0, 501),  # low conf
        ("c1", 8, "user", "kept but implausible", True, "und", 0.1, 500.0, 501),  # plaus beats keep
        ("c1", 9, "user", "kept and fine", True, "en", 0.9, 30.0, 990),
        ("c1", 10, "user", "kept high ppl", True, "en", 0.9, 5000.0, 990),  # clim can't flag keep
        ("c1", 11, "user", "english high ppl", False, "en", 0.9, 5000.0, 502),
        ("c1", 12, "user", "russian fine", False, "ru", 0.9, 30000.0, 0),  # wide ru band
        ("c1", 13, "user", "unknown lang", False, "xx", 0.9, 1e5, 0),   # default band
        ("c1", 14, "user", "BLOCKLISTED_TOKEN " + "y" * 40000, False, "en", 0.9, 30.0, 999),  # black beats meta
    ]
    cols = list(zip(*rows))
    return pa.table(
        {
            "conv_id": pa.array(cols[0], type=pa.string()),
            "turn_idx": pa.array(cols[1], type=pa.int32()),
            "role": pa.array(cols[2], type=pa.string()),
            "text": pa.array(cols[3], type=pa.string()),
            "tool": pa.array([""] * len(rows), type=pa.string()),
            "ts": pa.array([0] * len(rows), type=pa.timestamp("us")),
            "is_keeplist": pa.array(cols[4]),
            "lang": pa.array(cols[5], type=pa.string()),
            "lang_conf": pa.array(cols[6], type=pa.float64()),
            "ppl": pa.array(cols[7], type=pa.float64()),
            "qscore": pa.array(np.log1p(np.asarray(cols[7], dtype=np.float64))),
        }
    ), [r[-1] for r in rows]


def test_rowwise_case_sql_matches_stages(tmp_path):
    """The generated DuckDB CASE == the engine's seed/meta/plaus/clim/final
    stage chain, branch by branch."""
    cfg = battery_config()
    table, expect = _edge_scored_table()

    b = seed_lists(table, cfg=cfg)
    b = metadata_check(b, cfg=cfg)
    b = plausibility_check(b, cfg=cfg)
    b = climatological_check(b, cfg=cfg)
    b = final_decision(b)
    eng = b["dqcflag"].to_numpy(zero_copy_only=False)
    assert eng.tolist() == expect

    p = tmp_path / "scored.parquet"
    pq.write_table(table, p)
    sql = f"SELECT {_rowwise_case(cfg)} AS dqcflag FROM read_parquet('{p}')"
    ora = duckdb.sql(sql).df()["dqcflag"].to_numpy()
    assert ora.tolist() == expect


def test_parallel_mode_engine_oracle_parity(ray_session, small_corpus):
    """conv_mode='parallel': Ray engine == serial oracle row-for-row, and
    invariant to block count (the SQL-checkable battery's engine side)."""
    import ray.data as rd

    cfg = QCConfig(dedup=True, conv_mode="parallel")
    ora = oracle_qc(small_corpus, cfg).sort_values(KEY, na_position="last").reset_index(drop=True)
    from titan_ray.pipelines.qc import build_qc_pipeline

    for blocks in (4, 13):
        ds = rd.from_arrow(small_corpus).repartition(blocks)
        eng = build_qc_pipeline(ds, cfg).to_pandas()
        eng = eng.sort_values(KEY, na_position="last").reset_index(drop=True)
        assert len(eng) == len(ora)
        assert (eng["dqcflag"].to_numpy() == ora["dqcflag"].to_numpy()).all(), blocks


def test_parallel_vs_cascade_differ_only_downstream(ray_session):
    """Sanity: parallel mode is a *documented* semantic variant — first-pass
    flags agree with cascade's first pass; cascade may add more via
    iteration/sequencing, never fewer rowwise flags."""
    t = generate_corpus(1200, seed=5, mega=False)
    ora_par = oracle_qc(t, QCConfig(dedup=True, conv_mode="parallel"))
    ora_cas = oracle_qc(t, QCConfig(dedup=True, conv_mode="cascade"))
    rowwise = {0, 990, 999, 901, 501, 502}
    a = ora_par["dqcflag"].to_numpy()
    b = ora_cas["dqcflag"].to_numpy()
    # rowwise codes identical between modes
    ra, rb = np.isin(a, [999, 901, 501, 502, 990]), np.isin(b, [999, 901, 501, 502, 990])
    assert (a[ra] == b[ra]).all() and (ra == rb).all()


def _kernel_df(q, lang=None):
    n = len(q)
    return pd.DataFrame(
        {
            "conv_key": ["c1#0"] * n,
            "conv_id": ["c1"] * n,
            "turn_idx": np.arange(n, dtype=np.int32),
            "ts": pd.to_datetime(np.arange(n), unit="s"),
            "role": ["user"] * n,
            "lang": lang if lang is not None else ["en"] * n,
            "qscore": np.asarray(q, dtype=np.float64),
            "dqcflag": np.full(n, -1, dtype=np.int32),
            "is_core": [True] * n,
        }
    )


def test_sct_trend_background_catches_drift():
    """A linearly drifting conversation: one off-trend turn is invisible to
    the flat median background but flagged by the Theil-Sen trend variant
    (reference argparser_sct.r:13-16 VerticalProfile/TheilSen)."""
    from titan_ray.stages.conv import run_conv_checks

    q = 0.2 * np.arange(24)
    q[10] += 1.5  # off the local trend, inside the global spread
    base = dict(
        dedup=False, enable_dual=False, enable_fgt=False, enable_buddy=False,
        enable_isolation=False,
    )
    med = run_conv_checks(_kernel_df(q), QCConfig(**base, sct_background="median"))
    trend = run_conv_checks(_kernel_df(q), QCConfig(**base, sct_background="trend"))
    med = med.sort_values("turn_idx").reset_index(drop=True)
    trend = trend.sort_values("turn_idx").reset_index(drop=True)
    assert (med["dqcflag"] == -1).all()          # median background misses it
    assert trend.loc[10, "dqcflag"] == 1          # trend flags exactly it
    assert (trend.drop(index=10)["dqcflag"] == -1).all()


def test_buddy_admissible_band_gates_flags():
    """Admissible value band (buddy.r:69-83): a z-outlier inside the band is
    NOT flaggable; outside it is."""
    from titan_ray.stages.conv import run_conv_checks

    q = np.full(20, 2.0)
    q[7] = 3.6  # z = 1.6/0.35 = 4.57 > 3
    base = dict(
        dedup=False, enable_dual=False, enable_fgt=False, enable_sct=False,
        enable_isolation=False,
    )
    plain = run_conv_checks(_kernel_df(q), QCConfig(**base)).sort_values("turn_idx")
    banded = run_conv_checks(
        _kernel_df(q), QCConfig(**base, buddy_adm_delta=2.0)
    ).sort_values("turn_idx")
    assert plain.reset_index(drop=True).loc[7, "dqcflag"] == 10
    assert (banded["dqcflag"] == -1).all()       # |3.6-2.0| < delta 2.0 -> inadmissible


def test_buddy_boxcox_formula():
    """boxcox matches the reference formulas (statistics_util.r:101-107)."""
    from titan_ray.functions.scalars import boxcox

    x = np.array([0.25, 1.0, 4.0])
    assert np.allclose(boxcox(x, 0.0), np.log(x))
    assert np.allclose(boxcox(x, 0.5), (np.sqrt(x) - 1.0) / 0.5)


def test_multitest_trend_boxcox_band_parity(ray_session, small_corpus):
    """Engine == serial oracle with every new knob on at once: multi-test
    vectors for buddy+sct, Theil-Sen background, Box-Cox, admissible band —
    and invariance to block count."""
    import ray.data as rd
    from titan_ray.pipelines.qc import build_qc_pipeline

    cfg = QCConfig(
        dedup=True,
        buddy_tests=((4, 2.5, 2.5, 2), (8, 3.0, 3.0, 3)),
        sct_tests=((6, 4.0, 3), (12, 3.5, 5)),
        sct_background="trend",
        buddy_boxcox=0.5,
        buddy_adm_delta=0.2,
        buddy_adm_fact=0.1,
    )
    ora = oracle_qc(small_corpus, cfg).sort_values(KEY, na_position="last").reset_index(drop=True)
    for blocks in (5, 17):
        ds = rd.from_arrow(small_corpus).repartition(blocks)
        eng = build_qc_pipeline(ds, cfg).to_pandas().sort_values(KEY, na_position="last").reset_index(drop=True)
        assert len(eng) == len(ora)
        assert (eng["dqcflag"].to_numpy() == ora["dqcflag"].to_numpy()).all(), blocks


def test_fgt_lapse_rate_adjustment(ray_session, small_corpus):
    """Lapse-rate analog (fgt.r:262-264): with gamma set, the fgt expectation
    shifts with turn length; engine == oracle under the knob."""
    import ray.data as rd
    from titan_ray.pipelines.qc import build_qc_pipeline

    cfg = QCConfig(dedup=True, fgt_t=2.0, fgt_len_gamma=0.002, fgt_len_ref=150.0)
    ora = oracle_qc(small_corpus, cfg).sort_values(KEY, na_position="last").reset_index(drop=True)
    ds = rd.from_arrow(small_corpus).repartition(7)
    eng = build_qc_pipeline(ds, cfg).to_pandas().sort_values(KEY, na_position="last").reset_index(drop=True)
    assert (eng["dqcflag"].to_numpy() == ora["dqcflag"].to_numpy()).all()
    assert (eng["dqcflag"].to_numpy() == 11).sum() > 0  # knob actually bites


def test_lapse_adjust_formula():
    from titan_ray.functions.scalars import lapse_adjust

    out = lapse_adjust(np.array([10.0]), np.array([1500.0]), gamma=-0.0065, z_ref=500.0)
    assert np.allclose(out, 10.0 - 0.0065 * 1000.0)


# ---------------------------------------------------------------------------
# round-3 additions: fgt member ensemble, SCT eps2/corep, cascade SQL oracle,
# langid SQL oracle
# ---------------------------------------------------------------------------


def test_fgt_member_ensemble_majority_vote():
    """Member-level fgt ensemble (fgt.r:335-343): each member tests against
    its OWN background mu_k = mu + sd*spread*u_k; majority-vote semantics —
    a deviation flagged by only a minority of members does not flag."""
    from titan_ray.stages.conv import run_conv_checks

    base = dict(enable_dual=False, enable_buddy=False, enable_sct=False,
                enable_isolation=False, fgt_t=2.0,
                fgt_ref={"user": (2.0, 0.5)})
    # dev = |q - mu_k|; members at mu_k = 2.0 + 0.5*0.25*{-1,0,1} = {1.875, 2.0, 2.125}
    # q = 3.1: devs {1.225, 1.1, 0.975} vs t*sd = 1.0 -> votes 2/3 => flag
    # q = 3.05: devs {1.175, 1.05, 0.925} -> votes 2/3 => flag
    # q = 2.99: devs {1.115, 0.99, 0.865} -> votes 1/3 => no flag
    q = [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.1, 3.05, 2.99]
    out = run_conv_checks(_kernel_df(q), QCConfig(**base, fgt_ensemble=3))
    flags = out.sort_values("turn_idx")["dqcflag"].to_numpy()
    assert flags[6] == 11 and flags[7] == 11 and flags[8] == -1
    # ensemble=1 reduces exactly to the single test (round-2 verdict item 9):
    # q=2.99 has dev 0.99 < t*sd=1.0 -> unflagged there too
    out1 = run_conv_checks(_kernel_df(q), QCConfig(**base, fgt_ensemble=1))
    single = out1.sort_values("turn_idx")["dqcflag"].to_numpy()
    assert (single[6:] == np.array([11, 11, -1])).all()


def test_sct_eps2_corep_emitted_and_weighted():
    """corep = z^2 * eps2/(1+eps2) for judged rows (sct_resistant.r:158-188
    / read_data_to_check.r:281-290 analog); sct_weighted shrinks the test
    statistic so borderline outliers stop flagging."""
    from titan_ray.stages.conv import run_conv_checks

    base = dict(enable_dual=False, enable_buddy=False, enable_fgt=False,
                enable_isolation=False)
    q = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.1, 0.9, 1.0, 9.0]
    out = run_conv_checks(_kernel_df(q), QCConfig(**base))
    out = out.sort_values("turn_idx").reset_index(drop=True)
    judged = ~out["sctpog"].isna()
    assert judged.any()
    w = 0.5 / 1.5  # default eps2 0.5
    assert np.allclose(out.loc[judged, "corep"], out.loc[judged, "sctpog"] * w)
    assert out["dqcflag"].iloc[-1] == 1  # the planted outlier flags unweighted
    # weighted: pog = z^2*w vs t^2 — same outlier now needs z^2 > 3*t^2
    out_w = run_conv_checks(
        _kernel_df(q), QCConfig(**base, sct_weighted=True, sct_eps2_default=0.5)
    ).sort_values("turn_idx").reset_index(drop=True)
    jw = ~out_w["sctpog"].isna()
    assert np.allclose(out_w.loc[jw, "sctpog"], out_w.loc[jw, "corep"])  # pog==corep when weighted


def test_sct_weighted_engine_oracle_parity(ray_session, small_corpus):
    """sct_weighted + per-role eps2: Ray engine == serial oracle exactly."""
    import ray.data as rd
    from titan_ray.pipelines.qc import build_qc_pipeline

    cfg = QCConfig(dedup=True, sct_weighted=True, sct_t=2.0,
                   sct_eps2={"tool": 0.8, "system": 0.3})
    ora = oracle_qc(small_corpus, cfg).sort_values(KEY, na_position="last").reset_index(drop=True)
    ds = rd.from_arrow(small_corpus).repartition(9)
    eng = build_qc_pipeline(ds, cfg).to_pandas().sort_values(KEY, na_position="last").reset_index(drop=True)
    assert (eng["dqcflag"].to_numpy() == ora["dqcflag"].to_numpy()).all()
    e = eng["corep"].fillna(-9).to_numpy()
    o = ora["corep"].fillna(-9).to_numpy()
    assert np.allclose(e, o, atol=1e-12)


def test_cascade_sql_parity_small():
    """The unrolled cascade oracle (round-2 verdict item 2): DuckDB replay of
    the ITERATIVE mode == engine flags at sf0.001 (the real gate runs at
    sf0.01; tools/check_contract.py covers that path)."""
    import duckdb as _dd

    from titan_ray.pipelines import qc_battery

    pytest.importorskip("ray")
    import ray

    if not ray.is_initialized():
        pytest.skip("needs the session fixture")
    sf_dir = "/root/testdata/sf0.001"
    if not __import__("os").path.isdir(sf_dir):
        pytest.skip("testdata absent")
    qc_battery.ensure_scored(sf_dir)
    eng = qc_battery.qc_full_cascade(sf_dir).to_pandas()
    eng = eng.sort_values(["conv_id", "turn_idx", "role"], na_position="last").reset_index(drop=True)
    ora = _dd.connect().execute(qc_battery.cascade_sql(0.001)).df()
    ora = ora.sort_values(["conv_id", "turn_idx", "role"], na_position="last").reset_index(drop=True)
    assert len(eng) == len(ora)
    assert (eng["dqcflag"].to_numpy() == ora["dqcflag"].to_numpy()).all()
    assert (eng["keep"].to_numpy() == ora["keep"].to_numpy()).all()


def test_langid_sql_parity_small(ray_session):
    """doc_langid's DuckDB oracle (round-2 verdict item 8): hash + table join
    + argmax + softmax replayed in SQL == engine at sf0.001."""
    import duckdb as _dd
    import os

    from titan_ray.functions.langid import ensure_table_parquet
    from titan_ray.pipelines import docqc

    sf_dir = "/root/testdata/sf0.001"
    if not os.path.isdir(sf_dir):
        pytest.skip("testdata absent")
    ensure_table_parquet()
    eng = docqc.doc_langid(sf_dir).to_pandas().sort_values("doc_id").reset_index(drop=True)
    con = _dd.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')")
    ora = con.execute(docqc.langid_sql()).df().sort_values("doc_id").reset_index(drop=True)
    assert len(eng) == len(ora)
    assert (eng["lang_pred"].to_numpy() == ora["lang_pred"].to_numpy()).all()
    assert (eng["lang_conf"].to_numpy() == ora["lang_conf"].to_numpy()).all()


def test_multi_arange_overflow_guard():
    from titan_ray.functions.strings import multi_arange

    with pytest.raises(ValueError):
        multi_arange(np.array([2**31], dtype=np.int64), np.array([4], dtype=np.int64))


def test_asof_tiebreak_deterministic(ray_session):
    """Duplicate right-side (by, on): tiebreak picks the max-tiebreak row
    regardless of arrival order (round-2 advice item 4)."""
    import ray.data as rd

    from titan_ray.stages.joins import asof_join

    left = pa.table({"event_id": [1], "user_id": [7], "ts_us": [100]})
    right = pa.table(
        {"event_id": [10, 12, 11], "user_id": [7, 7, 7], "ts_us": [90, 90, 90], "vm": [1, 2, 3]}
    )
    out = asof_join(
        rd.from_arrow(left), rd.from_arrow(right), by="user_id", on="ts_us",
        value_cols=("event_id", "vm"), tiebreak="event_id",
    ).to_pandas()
    assert len(out) == 1 and out["r_event_id"].iloc[0] == 12  # max event_id among ties


def test_sct_adaptive_radius_parity(ray_session, small_corpus):
    """Adaptive sct neighbourhood (kth-closest horizontal-scale analog,
    argparser_sct.r): engine == serial oracle exactly under the knob."""
    import ray.data as rd
    from titan_ray.pipelines.qc import build_qc_pipeline

    # sct-only at a tight threshold so the adaptive restriction actually
    # changes outcomes (at the default cascade dual/buddy fire first and
    # the knob is a no-op on this corpus — verified)
    base = dict(dedup=True, sct_t=2.0, enable_dual=False, enable_buddy=False,
                enable_fgt=False)
    cfg = QCConfig(**base, sct_adaptive_k=4, sct_min_radius=2)
    ora = oracle_qc(small_corpus, cfg).sort_values(KEY, na_position="last").reset_index(drop=True)
    eng = build_qc_pipeline(rd.from_arrow(small_corpus).repartition(8), cfg).to_pandas()
    eng = eng.sort_values(KEY, na_position="last").reset_index(drop=True)
    assert (eng["dqcflag"].to_numpy() == ora["dqcflag"].to_numpy()).all()
    # non-vacuous: the adaptive knob flips flags vs the fixed radius here
    fixed = oracle_qc(small_corpus, QCConfig(**base)).sort_values(
        KEY, na_position="last").reset_index(drop=True)
    assert (fixed["dqcflag"].to_numpy() != ora["dqcflag"].to_numpy()).any()


def test_sct_adaptive_radius_kernel():
    """Kernel-level check of the kth-closest-neighbour clamp
    (argparser_sct.r --kth_closest_obs_horizontal_scale.sct): a row whose
    k nearest usable neighbours sit within distance d keeps ONLY neighbours
    at |dt| <= clamp(d, rmin, rmax); a row with < k neighbours keeps all."""
    from titan_ray.stages.conv import _adaptive_restrict, _neighbour_matrix

    # two dense runs separated by a turn gap: t = 0..4, then 10..13
    t = np.array([0, 1, 2, 3, 4, 10, 11, 12, 13], dtype=np.int64)
    q = np.arange(9, dtype=np.float64) + 1.0
    ok = np.ones(9, dtype=bool)
    grp = np.zeros(9, dtype=np.int64)
    m, adt = _neighbour_matrix(q, ok, grp, t, r=6, return_dt=True)
    out = _adaptive_restrict(m, adt, k=2, rmin=1, rmax=6)

    def kept(i):
        row = out[i]
        return sorted(v for v in row[~np.isnan(row)])

    # row t=4 (idx 4): neighbour dts {1,2,3,4,6}; 2nd-closest = 2 -> keep
    # only t=2,3 (values 3.0, 4.0) — the dt=6 run and dt=3,4 rows drop.
    assert kept(4) == [3.0, 4.0]
    # row t=0 (idx 0): dts {1,2,3,4}; 2nd-closest = 2 -> keep t=1,2.
    assert kept(0) == [2.0, 3.0]
    # interior dense row t=2 (idx 2): 2nd-closest = 1... clamped UP to
    # rmin=1 -> keep both dt=1 neighbours only.
    assert kept(2) == [2.0, 4.0]
    # a row with fewer than k usable neighbours keeps the full radius
    ok2 = ok.copy()
    ok2[:] = False
    ok2[[4, 5]] = True  # t=4 has exactly one usable neighbour (t=10, dt=6)
    m2, adt2 = _neighbour_matrix(q, ok2, grp, t, r=6, return_dt=True)
    out2 = _adaptive_restrict(m2, adt2, k=2, rmin=1, rmax=6)
    row4 = out2[4]
    assert sorted(v for v in row4[~np.isnan(row4)]) == [6.0]  # t=10 kept


def test_qc_conv_summary_consistency(ray_session):
    """Per-conversation summary: n_flagged + n_kept == n_turns everywhere,
    max_flag 0 iff nothing flagged, and totals agree with qc_flag_counts."""
    from titan_ray.pipelines.qc_battery import qc_conv_summary, qc_flag_counts

    sf = "/root/testdata/sf0.001"
    s = qc_conv_summary(sf).to_pandas()
    assert (s["n_flagged"] + s["n_kept"] == s["n_turns"]).all()
    assert ((s["max_flag"] == 0) <= (s["n_flagged"] == 0)).all()
    fc = qc_flag_counts(sf).to_pandas()
    assert int(s["n_turns"].sum()) == int(fc["n_turns"].sum())
    kept_fc = int(fc.loc[fc["dqcflag"].isin([0, 990]), "n_turns"].sum())
    assert int(s["n_kept"].sum()) == kept_fc


def test_conv_role_transitions(ray_session):
    """Role-transition counts: engine (bucket exchange + lexsort kernel) vs
    the DuckDB LEAD-window oracle, hash-exact; sanity: total transitions ==
    sum over conversations of (len - 1)."""
    import duckdb

    from titan_ray.pipelines.qc_battery import (
        conv_role_transitions,
        role_transitions_sql,
    )
    from tools.check_contract import to_pandas, value_hash

    sf = "/root/testdata/sf0.001"
    eng = to_pandas(conv_role_transitions(sf))
    ora = duckdb.sql(role_transitions_sql(0.001)).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)
    n_expected = duckdb.sql(
        "SELECT CAST(sum(c - 1) AS BIGINT) FROM (SELECT count(*) AS c FROM "
        "read_parquet('/tmp/titan_ray_corpus/sf0.001/*.parquet') "
        "WHERE conv_id IS NOT NULL AND role IS NOT NULL GROUP BY conv_id)"
    ).fetchone()[0]
    assert int(eng["n"].sum()) == int(n_expected)


def test_events_twap(ray_session, tmp_path):
    """TWAP: planted stream — value 2.0 held 10 s then 4.0 held 30 s gives
    twap 3.5; single-event users drop; SQL parity on the corpus."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.events import events_twap, twap_sql
    from tools.check_contract import to_pandas, value_hash

    us = 1_000_000
    t = pa.table({
        "event_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "ts": pa.array([0, 10 * us, 40 * us, 5 * us], type=pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2], type=pa.int64()),
        "event_type": pa.array(["x"] * 4),
        "value": pa.array([2.0, 4.0, 9.9, 7.0]),
        "props": pa.array([""] * 4),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_twap(str(d)))
    assert eng["user_id"].tolist() == [1]      # user 2 has one event
    assert eng["wv_sum"].tolist() == [2000 * 10 + 4000 * 30]
    assert eng["dt_sum"].tolist() == [40]
    assert eng["twap_milli"].tolist() == [3500.0]

    SF = "/root/testdata/sf0.001"
    eng = to_pandas(events_twap(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(twap_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)


def test_events_value_gmd(ray_session, tmp_path):
    """Gini mean difference: planted values [1,2,4] -> sum|diff| = 1+3+2=6
    (milli 6000); tie handling via duplicated value; SQL parity."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.events import events_value_gmd, value_gmd_sql
    from tools.check_contract import to_pandas, value_hash

    t = pa.table({
        "event_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
        "ts": pa.array([0] * 5, type=pa.timestamp("us")),
        "user_id": pa.array([1] * 5, type=pa.int64()),
        "event_type": pa.array(["a", "a", "a", "b", "b"]),
        "value": pa.array([1.0, 2.0, 4.0, 3.0, 3.0]),
        "props": pa.array([""] * 5),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_value_gmd(str(d))).set_index("event_type")
    assert eng.loc["a", "gmd_sum"] == 6000      # |1-2|+|1-4|+|2-4| in milli
    assert eng.loc["b", "gmd_sum"] == 0         # tied pair
    assert eng.loc["a", "gmd_milli"] == 2000.0

    SF = "/root/testdata/sf0.001"
    eng = to_pandas(events_value_gmd(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(value_gmd_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)


def test_events_window_median(ray_session, tmp_path):
    """Sliding lower median: ragged heads, duplicate-timestamp tie break by
    event_id, users shorter than the frame; SQL parity on the real corpus."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.events import events_window_median, window_median_sql
    from tools.check_contract import to_pandas, value_hash

    # user 1: values 5,1,3,2 at ts 0,0,1,2 (two ts-ties broken by event_id)
    # user 2: single event (frame of one)
    t = pa.table({
        "event_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
        "ts": pa.array([0, 0, 1, 2, 0], type=pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 1, 2], type=pa.int64()),
        "event_type": pa.array(["a"] * 5),
        "value": pa.array([5.0, 1.0, 3.0, 2.0, 7.0]),
        "props": pa.array([""] * 5),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_window_median(str(d), k=3)).set_index("event_id")
    # frames (ordered ts, event_id): [5]->5, [5,1]->1 (lower), [5,1,3]->3,
    # [1,3,2]->2, user 2 [7]->7
    assert eng.loc[0, "med_win"] == 5.0
    assert eng.loc[1, "med_win"] == 1.0
    assert eng.loc[2, "med_win"] == 3.0
    assert eng.loc[3, "med_win"] == 2.0
    assert eng.loc[4, "med_win"] == 7.0
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    ora = con.sql(window_median_sql(k=3)).df()
    assert value_hash(eng.reset_index()) == value_hash(ora)
    con.close()

    SF = "/root/testdata/sf0.001"
    eng = to_pandas(events_window_median(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(window_median_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)


def test_events_throttle(ray_session, tmp_path):
    """Greedy cooldown chain: skipped events don't reset the clock, ties at
    a kept instant all count, per-user independence; SQL parity."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.events import events_throttle, throttle_sql
    from tools.check_contract import to_pandas, value_hash

    d = tmp_path / "sf"
    d.mkdir()
    # user 1 at ts 0, 5, 12, 12, 13, 30 with cooldown 10:
    # kept 0 (skip 5), kept 12 (x2 tie), skip 13, kept 30. user 2: single.
    us = [0, 5, 12, 12, 13, 30, 2]
    pq.write_table(pa.table({
        "event_id": pa.array(range(7), type=pa.int64()),
        "ts": pa.array(us, type=pa.timestamp("us")),
        "user_id": pa.array([1] * 6 + [2], type=pa.int64()),
        "event_type": pa.array(["a"] * 7),
        "value": pa.array([0.0] * 7),
        "props": pa.array([""] * 7),
    }), d / "events.parquet")
    eng = to_pandas(events_throttle(str(d), cooldown_us=10)).sort_values(
        ["user_id", "ts_us"]).reset_index(drop=True)
    assert eng[eng["user_id"] == 1]["ts_us"].tolist() == [0, 12, 30]
    assert eng[(eng["user_id"] == 1) & (eng["ts_us"] == 12)]["n_events"].iloc[0] == 2
    assert eng[eng["user_id"] == 2]["ts_us"].tolist() == [2]
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    ora = con.sql(throttle_sql(cooldown_us=10)).df()
    assert value_hash(eng) == value_hash(ora)
    con.close()

    SF = "/root/testdata/sf0.001"
    eng = to_pandas(events_throttle(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(throttle_sql()).df()
    assert len(eng) == len(ora) > 0
    # throttling must actually drop something at the default cooldown
    n_instants = con.sql("SELECT count(*) FROM (SELECT DISTINCT user_id, ts FROM events)").fetchone()[0]
    assert len(eng) < n_instants
    assert value_hash(eng) == value_hash(ora)


def test_events_ols_slope(ray_session, tmp_path):
    """OLS slope: planted y = 2x + 1 recovers slope 2.0 exactly (milli y,
    second x); negative slope truncates toward zero like the twin; limb
    reconstruction is exact; SQL parity on the real corpus."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.events import (
        OLS_BASE_S,
        _limbs3,
        events_ols_slope,
        ols_slope_sql,
    )
    from tools.check_contract import to_pandas, value_hash

    v = 123456789012345678901
    assert sum(l * 10**(9 * i) for i, l in enumerate(_limbs3(v))) == v

    d = tmp_path / "sf"
    d.mkdir()
    # type a: y = 2x + 1 at x = 0..4 s after base -> slope 2.0 = 2_000_000
    # type b: y = -x -> slope -1.0 = -1_000_000 (negative truncation path)
    xs = np.arange(5, dtype=np.int64)
    ts = (OLS_BASE_S + xs) * 1_000_000
    pq.write_table(pa.table({
        "event_id": pa.array(range(10), type=pa.int64()),
        "ts": pa.array(np.concatenate([ts, ts]), type=pa.timestamp("us")),
        "user_id": pa.array([1] * 10, type=pa.int64()),
        "event_type": pa.array(["a"] * 5 + ["b"] * 5),
        "value": pa.array(np.concatenate([2.0 * xs + 1.0, -1.0 * xs])),
        "props": pa.array([""] * 10),
    }), d / "events.parquet")
    eng = to_pandas(events_ols_slope(str(d))).set_index("event_type")
    # y is in MILLI units: slope milli-y per second = 2000 -> micro 2_000_000_000
    assert eng.loc["a", "slope_micro"] == 2000 * 1_000_000
    assert eng.loc["b", "slope_micro"] == -1000 * 1_000_000
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    ora = con.sql(ols_slope_sql()).df()
    assert value_hash(eng.reset_index()) == value_hash(ora)
    con.close()

    SF = "/root/testdata/sf0.001"
    eng = to_pandas(events_ols_slope(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(ols_slope_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)
