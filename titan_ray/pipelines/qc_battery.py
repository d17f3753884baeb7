"""Driver-checkable flagship battery: the QC pipeline as DuckDB-green rows.

Round-1 verdict item #1: the heart of the engine (seed/metadata/
plausibility/climatological + the conversation-local checks) had no driver
verification because the flagship consumes an engine-generated corpus with
engine-trained scorer models — not SQL-derivable. The split that fixes it:

1. A *scored corpus* parquet is written once per scale factor: the flagship
   prefix (read -> exact dedup -> scorer) persists (conv_id, turn_idx, role,
   text, tool, ts, is_keeplist, lang, lang_conf, ppl, qscore). Both sides of
   the driver's gate read the SAME file — the engine recomputes the scores
   through the full Ray pipeline and must land on identical rows; the DuckDB
   oracle expresses every check as ANSI SQL over the stored columns.
2. The check battery runs in ``conv_mode="parallel"`` (config.py): each
   conversation-local check's mask is computed from the SAME pre-conv flag
   state in a single pass, applied first-flag-wins in reference order
   (titan.r:209-257). That mode is deterministic, partition-invariant and
   exactly expressible in SQL (self-joins + median/MAD per neighbourhood).
   The iterative cascade mode remains the flagship default, verified by the
   serial oracle + planted-label F1 (tests/test_pipeline.py) AND, since
   round 3, by its own DuckDB row (qc_full_cascade / cascade_sql: the
   iteration unrolled pass-by-pass as materialized state CTEs).

Engine/SQL parity invariants the SQL builders rely on (documented, tested):
- post-dedup rows are unique on (conv_id, turn_idx) for usable/testable
  rows, so "exclude self" == "exclude equal turn_idx";
- strlen() in DuckDB is BYTES, matching pc.binary_length;
- float thresholds are emitted with repr() (round-trip exact).

Reference semantics: titan.r:115-263, argparser_qccodes.r.
"""

from __future__ import annotations

import math
import os
import re

import pyarrow as pa

from ..config import QCConfig
from ..corpus import corpus_path_for_sf
from ..exchange import bucket_exchange
from ..schema import (
    CODE_BUDDY,
    CODE_DUAL_FG,
    CODE_FGT,
    CODE_ISOLATION,
    CODE_SCT,
    CODE_SCT_DUAL,
    CODE_SCT_FG,
)

SCORES_ROOT = "/tmp/titan_ray_scores"
SCORES_VERSION = "v4"  # bump when scorer/dedup/corpus semantics change (v4: carry ge_* truth labels for the metrics oracle)

# planted ground-truth labels the conformance scorecard (qc_metrics) judges
# against — carried through the sidecar so the DuckDB oracle can replay the
# contingency aggregation over the same rows the engine scores
GE_COLS = ["ge_meta", "ge_range", "ge_buddy", "ge_dual", "ge_iso", "ge_black"]

SCORE_COLS = [
    "conv_id", "turn_idx", "role", "text", "tool", "ts",
    "is_keeplist", "lang", "lang_conf", "ppl", "qscore",
    *GE_COLS,
]

OUT_COLS = ["conv_id", "turn_idx", "role", "dqcflag", "keep"]


def battery_config() -> QCConfig:
    """The single config both the engine runners and the SQL builders use."""
    return QCConfig(dedup=True, conv_mode="parallel")


def cascade_config() -> QCConfig:
    """The flagship DEFAULT semantics (conv_mode="cascade": checks run in
    reference order seeing each other's flags, buddy/sct iterating to
    convergence, titan.r:209-257) — same config entry()/_qc_dataset uses;
    cascade_sql() unrolls it pass-by-pass for the DuckDB gate."""
    return QCConfig(dedup=True, conv_mode="cascade")


def _sf_of(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", os.path.basename(os.path.normpath(sf_dir)))
    return float(m.group(1)) if m else 0.001


def scores_dir(sf: float) -> str:
    return os.path.join(SCORES_ROOT, f"sf{sf:g}")


def ensure_scored(sf_dir: str) -> str:
    """Write (once) the scored-corpus parquet for this scale factor: the
    flagship prefix read -> dedup -> scorer, narrowed to SCORE_COLS."""
    import ray.data as rd

    from ..stages.dedup import dedup_exact
    from ..stages.scorer import score_batch, shared_model_refs

    from ..corpus import corpus_fingerprint

    sf = _sf_of(sf_dir)
    out = scores_dir(sf)
    marker = os.path.join(out, "_SUCCESS")
    corpus_path_for_sf(sf)  # ensure the corpus (and its marker) exists first
    stamp = f"{SCORES_VERSION} sf={sf:g} corpus=({corpus_fingerprint(sf)})"
    if os.path.exists(marker) and open(marker).read().strip() == stamp:
        return out
    import shutil

    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)
    cfg = battery_config()
    ds = rd.read_parquet(corpus_path_for_sf(sf))
    ds = dedup_exact(ds)
    ds = ds.map_batches(
        score_batch, fn_kwargs={"model_refs": shared_model_refs()},
        batch_format="pyarrow", batch_size=cfg.batch_size,
    )
    ds = ds.map_batches(lambda b: b.select(SCORE_COLS), batch_format="pyarrow")
    ds.write_parquet(out)
    with open(marker, "w") as f:
        f.write(stamp + "\n")
    return out


def _battery_result(sf_dir: str, cfg: QCConfig):
    """Full flagship pipeline (parallel conv mode) over the raw corpus,
    projected to the driver-comparable columns.

    The oracle-side scored-corpus sidecar is NOT produced here (round-2
    verdict item 1: an in-query ensure_scored double-ran the read->dedup->
    scorer prefix inside every measured battery query) — oracle_sql()
    provisions it before the SQL runs."""
    import ray.data as rd

    from .qc import build_qc_pipeline

    ds = rd.read_parquet(corpus_path_for_sf(_sf_of(sf_dir)))
    out = build_qc_pipeline(ds, cfg)
    return out.map_batches(lambda b: b.select(OUT_COLS), batch_format="pyarrow")


def qc_transcripts(sf_dir: str):
    """Per-turn flags/keep from the FULL battery (seed -> metadata -> scorer
    -> plausibility -> climatological -> dual/fgt/buddy/sct/isolation ->
    final), single-pass parallel conv mode — DuckDB-oracle-checkable."""
    return _battery_result(sf_dir, battery_config())


def qc_flag_counts(sf_dir: str):
    """Flag histogram per role — final_decision's summary-counts analog
    (reference: final_decision.r:12-47)."""
    from ray.data.aggregate import Count

    ds = _battery_result(sf_dir, battery_config())
    return ds.groupby(["role", "dqcflag"]).aggregate(Count(alias_name="n_turns"))


def qc_conv_summary(sf_dir: str):
    """Per-conversation QC summary — the downstream consumer surface (keep
    rate per conversation): n_turns, n_flagged, n_kept (flags 0/990 kept,
    final_decision.r:12-47 keep rule), max_flag. One narrow groupby over
    (conv_id + three ints); group count = n_conversations."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Max, Sum

    ds = _battery_result(sf_dir, battery_config())

    def narrow(b: pa.Table) -> pa.Table:
        flag = b["dqcflag"]
        kept = pc.or_(pc.equal(flag, 0), pc.equal(flag, 990))
        return pa.table(
            {
                "conv_id": b["conv_id"],
                "flagged": pc.cast(pc.invert(kept), pa.int64()),
                "kept": pc.cast(kept, pa.int64()),
                "flag": pc.cast(flag, pa.int64()),
            }
        )

    return (
        ds.map_batches(narrow, batch_format="pyarrow")
        .groupby("conv_id")
        .aggregate(
            Count(alias_name="n_turns"),
            Sum("flagged", alias_name="n_flagged"),
            Sum("kept", alias_name="n_kept"),
            Max("flag", alias_name="max_flag"),
        )
    )


# the standalone fgt query uses a tighter threshold than the battery's 8.0
# so the driver row exercises actual flags (same constant feeds its SQL)
FGT_T_SINGLE = 3.0


def _single_check(sf_dir: str, check: str, code: int):
    """Battery with ONLY `check` enabled among the conv checks; returns the
    (conv_id, turn_idx) rows that check flags (schema-stable when empty)."""
    import pandas as pd

    cfg = battery_config()
    for c in ("dual", "fgt", "buddy", "sct", "isolation"):
        setattr(cfg, f"enable_{c}", c == check)
    if check == "fgt":
        cfg.fgt_t = FGT_T_SINGLE
    ds = _battery_result(sf_dir, cfg)
    out = ds.filter(expr=f"dqcflag == {code}").map_batches(
        lambda b: b.select(["conv_id", "turn_idx"]), batch_format="pyarrow"
    )
    df = out.to_pandas()
    if df.shape[1] == 0:  # zero surviving blocks lose the schema
        df = pd.DataFrame(
            {"conv_id": pd.Series(dtype=object), "turn_idx": pd.Series(dtype="int32")}
        )
    return df


def qc_conv_buddy(sf_dir: str):
    """Buddy check (code 10; reference buddy.r:97-210), single pass."""
    return _single_check(sf_dir, "buddy", CODE_BUDDY)


def qc_conv_sct(sf_dir: str):
    """SCT MedianOuterCircle analog (code 1; sct_resistant.r:107-247)."""
    return _single_check(sf_dir, "sct", CODE_SCT)


def qc_conv_dual(sf_dir: str):
    """Dichotomous-event check (code 3; sct_dual_r.r:112-130)."""
    return _single_check(sf_dir, "dual", CODE_SCT_DUAL)


def qc_conv_fgt(sf_dir: str):
    """First-guess test vs broadcast role expectation (code 11; fgt.r:267-289)."""
    return _single_check(sf_dir, "fgt", CODE_FGT)


def qc_conv_isolation(sf_dir: str):
    """Isolation check (code 800; isolation.r:25-28)."""
    return _single_check(sf_dir, "isolation", CODE_ISOLATION)


# fixed positional lists for the driver query (conversations c1..c8 exist at
# every scale factor; a position absent from the corpus simply matches no row)
POSITIONAL_BLACK = tuple((f"c{i:08d}", 3) for i in range(1, 9))
POSITIONAL_KEEP = tuple((f"c{i:08d}", 4) for i in range(1, 9))


def positional_config() -> QCConfig:
    cfg = battery_config()
    cfg.positional_blacklist = POSITIONAL_BLACK
    cfg.positional_keeplist = POSITIONAL_KEEP
    for c in ("dual", "fgt", "buddy", "sct", "isolation"):
        setattr(cfg, f"enable_{c}", False)
    return cfg


def qc_full_cascade(sf_dir: str):
    """Per-turn flags/keep from the flagship DEFAULT mode: the iterative
    cascade (reference semantics, titan.r:209-257) — DuckDB-checkable via
    cascade_sql()'s pass-by-pass unroll (round-2 verdict item 2)."""
    return _battery_result(sf_dir, cascade_config())


def optional_config() -> QCConfig:
    """The four opt-in checks ON, the five default conv checks OFF — so the
    driver row's flags are attributable to exactly the optional machinery:
    ccrrt (301, titan.r:150-154), check_z_against_dem (902, titan.r:186-187),
    sct_fg_dual (4, titan.r:232-238), sct_fg (2, titan.r:209-215)."""
    cfg = battery_config()
    for c in ("dual", "fgt", "buddy", "sct", "isolation"):
        setattr(cfg, f"enable_{c}", False)
    cfg.enable_ccrrt = True
    cfg.enable_zdem = True
    cfg.enable_sct_fg = True
    cfg.enable_dual_fg = True
    return cfg


def qc_optional_checks(sf_dir: str):
    """Per-turn flags/keep with ONLY the opt-in checks enabled — the last
    SURVEY §2 operators without a driver-hash-checked path (round-4 verdict
    item 4). Parallel conv mode; oracled by optional_sql()."""
    return _battery_result(sf_dir, optional_config())


# per-role eps2 for the SCT-scores driver row — exercises the per-role
# error-ratio path (reference --eps2.sct is per-provider, titan.r:115-122)
SCT_SCORES_EPS2 = {"tool": 0.8, "system": 0.3}


def sct_scores_config() -> QCConfig:
    cfg = battery_config()
    for c in ("dual", "fgt", "buddy", "isolation"):
        setattr(cfg, f"enable_{c}", False)
    cfg.sct_eps2 = SCT_SCORES_EPS2
    return cfg


def qc_sct_scores(sf_dir: str):
    """SCT score outputs for every judged row: sctpog (z²) and corep
    (z² · eps2/(1+eps2), the coefficient-of-representativeness analog —
    reference sct_resistant.r:158-188 / read_data_to_check.r:281-290),
    rounded to 5 as write_output.r:67 does. DuckDB replays the weighted-z
    arithmetic over the scored corpus."""
    import numpy as np

    from ..stages.ann import round_half_away

    cfg = sct_scores_config()
    import ray.data as rd

    from .qc import build_qc_pipeline

    ds = rd.read_parquet(corpus_path_for_sf(_sf_of(sf_dir)))
    out = build_qc_pipeline(ds, cfg)

    def proj(b: pa.Table) -> pa.Table:
        pog = b["sctpog"].to_numpy(zero_copy_only=False)
        sub = b.select(["conv_id", "turn_idx", "sctpog", "corep"]).filter(
            pa.array(~np.isnan(pog))
        )
        return pa.table(
            {
                "conv_id": sub["conv_id"],
                "turn_idx": sub["turn_idx"],
                "sctpog": pa.array(round_half_away(
                    sub["sctpog"].to_numpy(zero_copy_only=False), 5)),
                "corep": pa.array(round_half_away(
                    sub["corep"].to_numpy(zero_copy_only=False), 5)),
            }
        )

    return out.map_batches(proj, batch_format="pyarrow")


def qc_positional_lists(sf_dir: str):
    """Positionally-keyed black/keep lists (reference
    read_data_to_check.r:99-119): broadcast (conv_id, turn_idx) sets seed
    codes 999/990 — returns every seeded row (term + positional)."""
    import pandas as pd

    ds = _battery_result(sf_dir, positional_config())
    out = ds.filter(expr="dqcflag == 999 or dqcflag == 990").map_batches(
        lambda b: b.select(["conv_id", "turn_idx", "dqcflag"]), batch_format="pyarrow"
    )
    df = out.to_pandas()
    if df.shape[1] == 0:
        df = pd.DataFrame(
            {"conv_id": pd.Series(dtype=object), "turn_idx": pd.Series(dtype="int32"),
             "dqcflag": pd.Series(dtype="int32")}
        )
    return df


# ---------------------------------------------------------------------------
# DuckDB SQL builders (generated from the same QCConfig constants)
# ---------------------------------------------------------------------------

def _clim_case(cfg: QCConfig) -> str:
    """(ppl outside per-lang band) as SQL, skipping vacuous ±inf bounds."""
    arms = []
    for lng, (lo, hi) in sorted(cfg.clim_bands.items()):
        if lng == "und":
            continue
        parts = []
        if lo > 0 and not math.isinf(lo):
            parts.append(f"ppl < {lo!r}")
        if not math.isinf(hi):
            parts.append(f"ppl > {hi!r}")
        arms.append(f"WHEN '{lng}' THEN ({' OR '.join(parts) or 'FALSE'})")
    # default band = cfg.clim_bands['und'] = (0, inf) -> never flags
    return "CASE coalesce(lang, 'und') " + " ".join(arms) + " ELSE FALSE END"


def _pos_in(positions) -> str:
    vals = ", ".join(f"'{c}#{t}'" for c, t in positions)
    # NULL conv_id -> concat NULL -> never IN (matches engine semantics)
    return f"concat(conv_id, '#', CAST(turn_idx AS VARCHAR)) IN ({vals})"


def _rowwise_case(cfg: QCConfig) -> str:
    black = "|".join(re.escape(t) for t in cfg.blacklist_terms).replace("'", "''")
    black_arm = f"(text IS NOT NULL AND regexp_matches(text, '{black}'))"
    if cfg.positional_blacklist:
        black_arm += f" OR {_pos_in(cfg.positional_blacklist)}"
    keep_arm = "is_keeplist"
    if cfg.positional_keeplist:
        keep_arm += f" OR {_pos_in(cfg.positional_keeplist)}"
    meta_arm = (
        "text IS NULL OR conv_id IS NULL OR turn_idx IS NULL OR turn_idx < 0 "
        f"OR strlen(text) < {cfg.min_chars} OR strlen(text) > {cfg.max_chars}"
    )
    plaus_arm = f"lang_conf < {cfg.conf_min!r} OR ppl > {cfg.ppl_hard_max!r}"
    if cfg.enable_ccrrt or cfg.enable_zdem:
        # optional row-wise checks run AFTER metadata, BEFORE plausibility
        # (flagship order, pipelines/registry.py:flagship_spec) and — unlike metadata/
        # plausibility — cannot flag keep-listed rows (testable_mask), so
        # the keep arm must close the row before they are considered while
        # plausibility still gets its flags_keeplisted look first.
        opt = ""
        if cfg.enable_ccrrt:
            opt += f"WHEN coalesce(role, '') = 'tool' AND qscore > {cfg.ccrrt_tmax!r} THEN 301 "
        if cfg.enable_zdem:
            opt += "WHEN (coalesce(role, '') = 'tool') <> (coalesce(tool, '') <> '') THEN 902 "
        return (
            "CASE "
            f"WHEN {black_arm} THEN 999 "
            f"WHEN {meta_arm} THEN 901 "
            f"WHEN ({keep_arm}) AND ({plaus_arm}) THEN 501 "
            f"WHEN {keep_arm} THEN 990 "
            f"{opt}"
            f"WHEN {plaus_arm} THEN 501 "
            f"WHEN {_clim_case(cfg)} THEN 502 "
            "ELSE 0 END"
        )
    return (
        "CASE "
        f"WHEN {black_arm} THEN 999 "
        f"WHEN {meta_arm} THEN 901 "
        f"WHEN {plaus_arm} THEN 501 "
        f"WHEN {keep_arm} THEN 990 "
        f"WHEN {_clim_case(cfg)} THEN 502 "
        "ELSE 0 END"
    )


def _fgt_mu_sd(cfg: QCConfig) -> tuple[str, str]:
    dmu, dsd = 1.9, 0.6  # engine default for unknown roles (config.py fgt_ref)
    mu = " ".join(
        f"WHEN '{r}' THEN {ms[0]!r}" for r, ms in sorted(cfg.fgt_ref.items())
    )
    sd = " ".join(
        f"WHEN '{r}' THEN {ms[1]!r}" for r, ms in sorted(cfg.fgt_ref.items())
    )
    return (
        f"CASE coalesce(role, '') {mu} ELSE {dmu!r} END",
        f"CASE coalesce(role, '') {sd} ELSE {dsd!r} END",
    )


def _base_ctes(cfg: QCConfig, scores_rel: str) -> str:
    """s/f/u/tgt: scored rows, row-wise flags, usable set, testable set."""
    return (
        f"s AS (SELECT * FROM {scores_rel}), "
        f"f AS (SELECT conv_id, turn_idx, role, lang, qscore, {_rowwise_case(cfg)} AS dqcflag FROM s), "
        "u AS (SELECT conv_id, turn_idx, qscore, lang FROM f WHERE dqcflag = 0 OR dqcflag = 990), "
        "tgt AS (SELECT conv_id, turn_idx, role, qscore, lang FROM f WHERE dqcflag = 0)"
    )


def _robust_cte(name: str, r: int, min_cnt: int, cond: str, sigma_min: float) -> str:
    """Median/MAD robust-z neighbourhood check as three CTEs ending in
    `{name}` = flagged (conv_id, turn_idx). `cond` may use z and cnt."""
    pairs = (
        f"{name}_p AS (SELECT t.conv_id, t.turn_idx, t.qscore AS q, u.qscore AS nq "
        "FROM tgt t JOIN u ON u.conv_id = t.conv_id "
        f"AND u.turn_idx <> t.turn_idx AND abs(u.turn_idx - t.turn_idx) <= {r})"
    )
    med = (
        f"{name}_m AS (SELECT conv_id, turn_idx, q, median(nq) AS med, count(*) AS cnt "
        f"FROM {name}_p GROUP BY conv_id, turn_idx, q)"
    )
    mad = (
        f"{name}_d AS (SELECT p.conv_id, p.turn_idx, median(abs(p.nq - m.med)) AS mad "
        f"FROM {name}_p p JOIN {name}_m m ON m.conv_id = p.conv_id AND m.turn_idx = p.turn_idx "
        "GROUP BY p.conv_id, p.turn_idx)"
    )
    fin = (
        f"{name} AS (SELECT m.conv_id, m.turn_idx FROM {name}_m m "
        f"JOIN {name}_d d ON d.conv_id = m.conv_id AND d.turn_idx = m.turn_idx "
        f"WHERE m.cnt >= {min_cnt} AND ({cond}))"
    )
    z = f"((m.q - m.med) / greatest(1.4826 * d.mad, {sigma_min!r}))"
    return ", ".join([pairs, med, mad, fin]).replace("__Z__", z)


def _buddy_cte(cfg: QCConfig) -> str:
    return _robust_cte(
        "chk_buddy", cfg.r_buddy, cfg.buddy_min,
        f"__Z__ > {cfg.buddy_tpos!r} OR __Z__ < -{cfg.buddy_tneg!r}", cfg.sigma_min,
    )


def _sct_cte(cfg: QCConfig) -> str:
    return _robust_cte(
        "chk_sct", cfg.r_sct, cfg.sct_min,
        f"abs(__Z__) > {cfg.sct_t!r}", cfg.sigma_min,
    )


def _dual_cte(cfg: QCConfig) -> str:
    return (
        "chk_dual_p AS (SELECT t.conv_id, t.turn_idx, "
        "(t.lang IS NULL OR t.lang <> 'en') AS ev, "
        "CAST(u.lang IS NULL OR u.lang <> 'en' AS INT) AS nev "
        "FROM tgt t JOIN u ON u.conv_id = t.conv_id "
        f"AND u.turn_idx <> t.turn_idx AND abs(u.turn_idx - t.turn_idx) <= {cfg.r_dual}), "
        "chk_dual AS (SELECT conv_id, turn_idx FROM chk_dual_p "
        f"GROUP BY conv_id, turn_idx, ev HAVING count(*) >= {cfg.dual_min} "
        f"AND ((ev AND avg(nev) < {1.0 - cfg.dual_thr!r}) "
        f"OR (NOT ev AND avg(nev) > {cfg.dual_thr!r})))"
    )


def _fgt_cte(cfg: QCConfig, t: float | None = None) -> str:
    mu, sd = _fgt_mu_sd(cfg)
    t = cfg.fgt_t if t is None else t
    return (
        "chk_fgt AS (SELECT conv_id, turn_idx FROM tgt "
        f"WHERE abs(qscore - ({mu})) > {t!r} * ({sd}))"
    )


def _iso_cte(cfg: QCConfig) -> str:
    return (
        "chk_iso AS (SELECT t.conv_id, t.turn_idx FROM tgt t "
        "LEFT JOIN u ON u.conv_id = t.conv_id "
        f"AND u.turn_idx <> t.turn_idx AND abs(u.turn_idx - t.turn_idx) <= {cfg.r_iso} "
        f"GROUP BY t.conv_id, t.turn_idx HAVING count(u.conv_id) < {cfg.n_iso})"
    )


def _dual_fg_cte(cfg: QCConfig) -> str:
    """Dichotomous check vs an external prior (code 4; reference
    sct_fg_dual_r.r:33-39): own event state disagrees with the broadcast
    prior AND the neighbourhood sides with the prior."""
    prior_event = "TRUE" if cfg.dual_fg_prior > 0.5 else "FALSE"
    return (
        "chk_dfg_p AS (SELECT t.conv_id, t.turn_idx, "
        "(t.lang IS NULL OR t.lang <> 'en') AS ev, "
        "CAST(u.lang IS NULL OR u.lang <> 'en' AS INT) AS nev "
        "FROM tgt t JOIN u ON u.conv_id = t.conv_id "
        f"AND u.turn_idx <> t.turn_idx AND abs(u.turn_idx - t.turn_idx) <= {cfg.r_dual}), "
        "chk_dfg AS (SELECT conv_id, turn_idx FROM chk_dfg_p "
        f"GROUP BY conv_id, turn_idx, ev HAVING count(*) >= {cfg.dual_min} "
        f"AND ev <> {prior_event} "
        f"AND abs(avg(nev) - {cfg.dual_fg_prior!r}) < {1.0 - cfg.dual_thr!r})"
    )


def _sct_fg_cte(cfg: QCConfig) -> str:
    """SCT vs external first-guess centre (code 2; reference
    sct_fg_resistant.r:136-163): deviation of qscore from the broadcast
    per-role expectation, normalized by the LOCAL robust spread (MAD of the
    usable neighbours within r_sct)."""
    mu, _ = _fgt_mu_sd(cfg)
    mu = mu.replace("coalesce(role", "coalesce(m.role")
    pairs = (
        "chk_sfg_p AS (SELECT t.conv_id, t.turn_idx, t.role, t.qscore AS q, u.qscore AS nq "
        "FROM tgt t JOIN u ON u.conv_id = t.conv_id "
        f"AND u.turn_idx <> t.turn_idx AND abs(u.turn_idx - t.turn_idx) <= {cfg.r_sct})"
    )
    med = (
        "chk_sfg_m AS (SELECT conv_id, turn_idx, role, q, median(nq) AS med, count(*) AS cnt "
        "FROM chk_sfg_p GROUP BY conv_id, turn_idx, role, q)"
    )
    mad = (
        "chk_sfg_d AS (SELECT p.conv_id, p.turn_idx, median(abs(p.nq - m.med)) AS mad "
        "FROM chk_sfg_p p JOIN chk_sfg_m m ON m.conv_id = p.conv_id AND m.turn_idx = p.turn_idx "
        "GROUP BY p.conv_id, p.turn_idx)"
    )
    fin = (
        "chk_sfg AS (SELECT m.conv_id, m.turn_idx FROM chk_sfg_m m "
        "JOIN chk_sfg_d d ON d.conv_id = m.conv_id AND d.turn_idx = m.turn_idx "
        f"WHERE m.cnt >= {cfg.sct_min} AND "
        f"abs((m.q - ({mu})) / greatest(1.4826 * d.mad, {cfg.sigma_min!r})) > {cfg.sct_fg_t!r})"
    )
    return ", ".join([pairs, med, mad, fin])


def optional_sql(sf: float = 0.01) -> str:
    """DuckDB oracle for qc_optional_checks: the extended rowwise case
    (999/901/501-keep/990/301/902/501/502) plus the two optional conv
    checks applied first-flag-wins in engine order (dual_fg=4 before
    sct_fg=2, conv.py kernel order)."""
    cfg = optional_config()
    rel = f"read_parquet('{scores_dir(sf)}/*.parquet')"
    base = _base_ctes(cfg, rel)
    return (
        f"WITH {base}, {_dual_fg_cte(cfg)}, {_sct_fg_cte(cfg)}, res AS ("
        "SELECT f.conv_id, f.turn_idx, f.role, "
        "CASE WHEN f.dqcflag <> 0 THEN f.dqcflag "
        f"WHEN cdf.turn_idx IS NOT NULL THEN {CODE_DUAL_FG} "
        f"WHEN csf.turn_idx IS NOT NULL THEN {CODE_SCT_FG} "
        "ELSE 0 END AS dqcflag FROM f "
        "LEFT JOIN chk_dfg cdf ON cdf.conv_id = f.conv_id AND cdf.turn_idx = f.turn_idx "
        "LEFT JOIN chk_sfg csf ON csf.conv_id = f.conv_id AND csf.turn_idx = f.turn_idx) "
        "SELECT conv_id, turn_idx, role, dqcflag, "
        "(dqcflag = 0 OR dqcflag = 990) AS keep FROM res"
    )


def battery_sql(sf: float = 0.01) -> dict[str, str]:
    """DuckDB oracle SQL for every battery query, over the scored-corpus
    parquet (written by ensure_scored before the engine side runs)."""
    cfg = battery_config()
    rel = f"read_parquet('{scores_dir(sf)}/*.parquet')"
    base = _base_ctes(cfg, rel)
    all_ctes = ", ".join(
        [base, _dual_cte(cfg), _fgt_cte(cfg), _buddy_cte(cfg), _sct_cte(cfg), _iso_cte(cfg)]
    )
    # first-flag-wins in reference order (titan.r:209-257):
    # rowwise -> dual(3) -> fgt(11) -> buddy(10) -> sct(1) -> isolation(800)
    final = (
        f"WITH {all_ctes}, res AS ("
        "SELECT f.conv_id, f.turn_idx, f.role, "
        "CASE WHEN f.dqcflag <> 0 THEN f.dqcflag "
        "WHEN cd.turn_idx IS NOT NULL THEN 3 "
        "WHEN cf.turn_idx IS NOT NULL THEN 11 "
        "WHEN cb.turn_idx IS NOT NULL THEN 10 "
        "WHEN cs.turn_idx IS NOT NULL THEN 1 "
        "WHEN ci.turn_idx IS NOT NULL THEN 800 "
        "ELSE 0 END AS dqcflag "
        "FROM f "
        "LEFT JOIN chk_dual cd ON cd.conv_id = f.conv_id AND cd.turn_idx = f.turn_idx "
        "LEFT JOIN chk_fgt cf ON cf.conv_id = f.conv_id AND cf.turn_idx = f.turn_idx "
        "LEFT JOIN chk_buddy cb ON cb.conv_id = f.conv_id AND cb.turn_idx = f.turn_idx "
        "LEFT JOIN chk_sct cs ON cs.conv_id = f.conv_id AND cs.turn_idx = f.turn_idx "
        "LEFT JOIN chk_iso ci ON ci.conv_id = f.conv_id AND ci.turn_idx = f.turn_idx)"
    )
    single = {
        "qc_conv_dual": _dual_cte(cfg) + " SELECT conv_id, turn_idx FROM chk_dual",
        "qc_conv_fgt": _fgt_cte(cfg, FGT_T_SINGLE) + " SELECT conv_id, turn_idx FROM chk_fgt",
        "qc_conv_buddy": _buddy_cte(cfg) + " SELECT conv_id, turn_idx FROM chk_buddy",
        "qc_conv_sct": _sct_cte(cfg) + " SELECT conv_id, turn_idx FROM chk_sct",
        "qc_conv_isolation": _iso_cte(cfg) + " SELECT conv_id, turn_idx FROM chk_iso",
    }
    out = {
        "qc_transcripts": (
            final + " SELECT conv_id, turn_idx, role, dqcflag, "
            "(dqcflag = 0 OR dqcflag = 990) AS keep FROM res"
        ),
        "qc_flag_counts": (
            final + " SELECT role, dqcflag, count(*) AS n_turns "
            "FROM res GROUP BY role, dqcflag"
        ),
        # round-5: per-conversation summary — the downstream consumer view
        "qc_conv_summary": (
            final + " SELECT conv_id, count(*) AS n_turns, "
            "CAST(sum(CASE WHEN dqcflag NOT IN (0, 990) THEN 1 ELSE 0 END) AS BIGINT) AS n_flagged, "
            "CAST(sum(CASE WHEN dqcflag IN (0, 990) THEN 1 ELSE 0 END) AS BIGINT) AS n_kept, "
            "CAST(max(dqcflag) AS BIGINT) AS max_flag "
            "FROM res GROUP BY conv_id"
        ),
    }
    for name, tail in single.items():
        out[name] = f"WITH {base}, {tail}"
    pos_base = _base_ctes(positional_config(), rel)
    out["qc_positional_lists"] = (
        f"WITH {pos_base} SELECT conv_id, turn_idx, dqcflag FROM f "
        "WHERE dqcflag = 999 OR dqcflag = 990"
    )
    out["qc_full_cascade"] = cascade_sql(sf)
    out["qc_optional_checks"] = optional_sql(sf)
    out["qc_sct_scores"] = sct_scores_sql(sf)
    out["qc_metrics"] = metrics_sql(sf)
    return out


# ---------------------------------------------------------------------------
# cascade-mode oracle: the iterative reference semantics unrolled pass-by-pass
# ---------------------------------------------------------------------------

_STATE_COLS = "conv_id, turn_idx, role, qscore, w, f0, gt, kl"


def _robust_pass(name: str, prev: str, r: int, min_cnt: int, cond: str,
                 sigma_min: float, code: int) -> str:
    """One buddy/sct convergence pass as four CTEs: pairs (usable neighbours
    under the halo rule), median, MAD, hits; plus the next state CTE.

    The halo rule (matches the engine kernel + serial oracle exactly): a
    neighbour u of target t contributes with its LIVE cascade state when it
    is core in t's window (u.w = t.w) and with its frozen POST-ROWWISE state
    (f0) otherwise — halo copies in the engine never receive conv flags, so
    cross-window neighbours stay usable even after their own core copy is
    flagged in the adjacent window."""
    usable = f"(CASE WHEN u.w = t.w THEN u.fc ELSE u.f0 END) IN (0, 990)"
    pairs = (
        f"{name}_p AS MATERIALIZED (SELECT t.conv_id, t.turn_idx, t.qscore AS q, u.qscore AS nq "
        f"FROM {prev} t JOIN {prev} u ON u.conv_id = t.conv_id "
        f"AND u.turn_idx <> t.turn_idx AND abs(u.turn_idx - t.turn_idx) <= {r} "
        f"AND {usable} WHERE t.fc = 0)"
    )
    med = (
        f"{name}_m AS MATERIALIZED (SELECT conv_id, turn_idx, q, median(nq) AS med, count(*) AS cnt "
        f"FROM {name}_p GROUP BY conv_id, turn_idx, q)"
    )
    mad = (
        f"{name}_d AS MATERIALIZED (SELECT p.conv_id, p.turn_idx, median(abs(p.nq - m.med)) AS mad "
        f"FROM {name}_p p JOIN {name}_m m ON m.conv_id = p.conv_id AND m.turn_idx = p.turn_idx "
        "GROUP BY p.conv_id, p.turn_idx)"
    )
    z = f"((m.q - m.med) / greatest(1.4826 * d.mad, {sigma_min!r}))"
    hits = (
        f"{name}_h AS MATERIALIZED (SELECT m.conv_id, m.turn_idx FROM {name}_m m "
        f"JOIN {name}_d d ON d.conv_id = m.conv_id AND d.turn_idx = m.turn_idx "
        f"WHERE m.cnt >= {min_cnt} AND ({cond.replace('__Z__', z)}))"
    )
    state = (
        f"{name} AS MATERIALIZED (SELECT {', '.join('p.' + c.strip() for c in _STATE_COLS.split(','))}, "
        f"CASE WHEN p.fc = 0 AND h.turn_idx IS NOT NULL THEN {code} ELSE p.fc END AS fc "
        f"FROM {prev} p LEFT JOIN {name}_h h "
        "ON h.conv_id = p.conv_id AND h.turn_idx = p.turn_idx)"
    )
    return ", ".join([pairs, med, mad, hits, state])


def cascade_sql(sf: float = 0.01, cfg: QCConfig | None = None) -> str:
    """DuckDB oracle for the ITERATIVE cascade mode (round-2 verdict item 2):
    dual -> fgt -> buddy×buddy_iters -> sct×sct_iters -> isolation, each pass
    consuming the previous pass's flags, unrolled as chained state CTEs.
    Idempotence makes the fixed unroll exact: a pass that finds nothing new
    leaves the state unchanged, so engine-side early convergence (global or
    per-window freezing) computes the same fixpoint the full unroll does."""
    cfg = cfg or cascade_config()
    # guard: the builder supports exactly the default cascade surface; any
    # extension (multi-tests, prio, boxcox, trend, weighted sct, doit) must
    # extend the SQL too rather than silently diverge
    assert not (cfg.buddy_tests or cfg.sct_tests or cfg.prio or cfg.doit), "cascade_sql: unsupported config"
    assert cfg.buddy_boxcox is None and cfg.buddy_adm_delta is None, "cascade_sql: unsupported config"
    assert cfg.sct_background == "median" and not cfg.sct_weighted, "cascade_sql: unsupported config"
    assert cfg.fgt_ensemble <= 1 and cfg.fgt_len_gamma == 0.0, "cascade_sql: unsupported config"
    assert not (cfg.enable_dual_fg or cfg.enable_sct_fg or cfg.enable_zdem or cfg.enable_ccrrt)
    rel = f"read_parquet('{scores_dir(sf)}/*.parquet')"
    W = cfg.window
    ctes = [
        f"s AS MATERIALIZED (SELECT * FROM {rel})",
        # post-rowwise state + the salting window id (engine: max(turn,0)//W)
        f"fr AS MATERIALIZED (SELECT conv_id, turn_idx, role, lang, qscore, "
        f"greatest(coalesce(turn_idx, 0), 0) // {W} AS w, "
        f"{_rowwise_case(cfg)} AS f0, "
        f"({' OR '.join(GE_COLS)}) AS gt, is_keeplist AS kl FROM s)",
    ]
    # ---- dual (one two-phase pass over the post-rowwise state) ----
    ctes.append(
        "d_p AS MATERIALIZED (SELECT t.conv_id, t.turn_idx, "
        "(t.lang IS NULL OR t.lang <> 'en') AS ev, "
        "CAST(u.lang IS NULL OR u.lang <> 'en' AS INT) AS nev "
        "FROM fr t JOIN fr u ON u.conv_id = t.conv_id "
        f"AND u.turn_idx <> t.turn_idx AND abs(u.turn_idx - t.turn_idx) <= {cfg.r_dual} "
        "AND u.f0 IN (0, 990) WHERE t.f0 = 0)"
    )
    ctes.append(
        "d_h AS MATERIALIZED (SELECT conv_id, turn_idx FROM d_p "
        f"GROUP BY conv_id, turn_idx, ev HAVING count(*) >= {cfg.dual_min} "
        f"AND ((ev AND avg(nev) < {1.0 - cfg.dual_thr!r}) "
        f"OR (NOT ev AND avg(nev) > {cfg.dual_thr!r})))"
    )
    ctes.append(
        f"c1 AS MATERIALIZED (SELECT {', '.join('fr.' + c.strip() for c in _STATE_COLS.split(','))}, "
        "CASE WHEN fr.f0 <> 0 THEN fr.f0 WHEN h.turn_idx IS NOT NULL THEN 3 ELSE 0 END AS fc "
        "FROM fr LEFT JOIN d_h h ON h.conv_id = fr.conv_id AND h.turn_idx = fr.turn_idx)"
    )
    # ---- fgt (no neighbours; sees dual's flags) ----
    mu, sd = _fgt_mu_sd(cfg)
    ctes.append(
        f"c2 AS MATERIALIZED (SELECT {_STATE_COLS}, "
        f"CASE WHEN fc <> 0 THEN fc WHEN abs(qscore - ({mu})) > {cfg.fgt_t!r} * ({sd}) "
        "THEN 11 ELSE 0 END AS fc FROM c1)"
    )
    # ---- buddy passes ----
    prev = "c2"
    bcond = f"__Z__ > {cfg.buddy_tpos!r} OR __Z__ < -{cfg.buddy_tneg!r}"
    for k in range(1, cfg.buddy_iters + 1):
        ctes.append(_robust_pass(f"b{k}", prev, cfg.r_buddy, cfg.buddy_min,
                                 bcond, cfg.sigma_min, CODE_BUDDY))
        prev = f"b{k}"
    # ---- sct passes ----
    scond = f"abs(__Z__) > {cfg.sct_t!r}"
    for k in range(1, cfg.sct_iters + 1):
        ctes.append(_robust_pass(f"t{k}", prev, cfg.r_sct, cfg.sct_min,
                                 scond, cfg.sigma_min, CODE_SCT))
        prev = f"t{k}"
    # ---- isolation (sees every prior flag) ----
    ctes.append(
        f"i_h AS MATERIALIZED (SELECT t.conv_id, t.turn_idx FROM {prev} t "
        f"LEFT JOIN {prev} u ON u.conv_id = t.conv_id "
        f"AND u.turn_idx <> t.turn_idx AND abs(u.turn_idx - t.turn_idx) <= {cfg.r_iso} "
        "AND (CASE WHEN u.w = t.w THEN u.fc ELSE u.f0 END) IN (0, 990) "
        f"WHERE t.fc = 0 GROUP BY t.conv_id, t.turn_idx HAVING count(u.conv_id) < {cfg.n_iso})"
    )
    ctes.append(
        f"res AS MATERIALIZED (SELECT p.conv_id, p.turn_idx, p.role, p.gt, p.kl, "
        f"CASE WHEN p.fc = 0 AND h.turn_idx IS NOT NULL THEN {CODE_ISOLATION} ELSE p.fc END AS dqcflag "
        f"FROM {prev} p LEFT JOIN i_h h ON h.conv_id = p.conv_id AND h.turn_idx = p.turn_idx)"
    )
    return (
        "WITH " + ", ".join(ctes) +
        " SELECT conv_id, turn_idx, role, dqcflag, "
        "(dqcflag = 0 OR dqcflag = 990) AS keep FROM res"
    )


def metrics_sql(sf: float = 0.01, cfg: QCConfig | None = None) -> str:
    """DuckDB oracle for qc_metrics: the cascade-mode per-row flags (the
    same chain cascade_sql emits — gt/kl truth bits ride the state CTEs so
    re-ingestion rows that share (conv_id, turn_idx) keep their own labels)
    aggregated into contingency cells, then the reference's scorecard
    formulas (test_titan_ta_sct.r:10-18) with the exact operation order of
    functions/scalars.metrics_from_cells so every double is bit-identical."""
    full = cascade_sql(sf, cfg)
    body = full[: full.rindex(" SELECT conv_id")]  # "WITH <all ctes>"
    cells = (
        "cells AS (SELECT "
        "CAST(sum(CASE WHEN NOT keep AND gt THEN 1 ELSE 0 END) AS DOUBLE) AS a, "
        "CAST(sum(CASE WHEN NOT keep AND NOT gt THEN 1 ELSE 0 END) AS DOUBLE) AS b, "
        "CAST(sum(CASE WHEN keep AND gt THEN 1 ELSE 0 END) AS DOUBLE) AS c, "
        "CAST(sum(CASE WHEN keep AND NOT gt THEN 1 ELSE 0 END) AS DOUBLE) AS d "
        "FROM (SELECT (dqcflag = 0 OR dqcflag = 990) AS keep, gt FROM res WHERE NOT kl))"
    )
    # op order mirrors metrics_from_cells exactly: n = a+b+c+d (left-assoc),
    # ar = (a+b)*(a+c)/n, denom_ets = a+b+c-ar; zero denominators -> 0.0
    m = (
        "m AS (SELECT *, a + b + c + d AS n FROM cells), "
        "m2 AS (SELECT *, CASE WHEN n <> 0 THEN (a + b) * (a + c) / n ELSE 0.0 END AS ar FROM m)"
    )
    metric = {
        "acc": "CASE WHEN n <> 0 THEN (a + d) / n ELSE 0.0 END",
        "ets": "CASE WHEN a + b + c - ar <> 0 THEN (a - ar) / (a + b + c - ar) ELSE 0.0 END",
        "f1": "CASE WHEN 2 * a + b + c <> 0 THEN 2 * a / (2 * a + b + c) ELSE 0.0 END",
        "pod": "CASE WHEN a + c <> 0 THEN a / (a + c) ELSE 0.0 END",
        "pofa": "CASE WHEN a + b <> 0 THEN b / (a + b) ELSE 0.0 END",
        "precision": "CASE WHEN a + b <> 0 THEN a / (a + b) ELSE 0.0 END",
        "recall": "CASE WHEN a + c <> 0 THEN a / (a + c) ELSE 0.0 END",
    }
    rows = " UNION ALL ".join(
        f"SELECT '{k}' AS metric, round({v}, 6) AS value FROM m2" for k, v in metric.items()
    )
    return f"{body}, {cells}, {m} {rows}"


def sct_scores_sql(sf: float = 0.01) -> str:
    """DuckDB oracle for qc_sct_scores: the sct robust-z CTE chain emitting
    round(z², 5) AS sctpog and round(z² · eps2/(1+eps2), 5) AS corep per
    judged row, with eps2 resolved per role (weights precomputed as exact
    repr() constants so engine/SQL share identical double multiplications)."""
    cfg = sct_scores_config()
    rel = f"read_parquet('{scores_dir(sf)}/*.parquet')"
    base = _base_ctes(cfg, rel)
    # the pairs/median/MAD chain (chk_sct_p/m/d) from the parallel battery
    chain = _robust_cte(
        "chk_sct", cfg.r_sct, cfg.sct_min, f"abs(__Z__) > {cfg.sct_t!r}", cfg.sigma_min
    )
    w_arms = " ".join(
        f"WHEN '{r}' THEN {e / (1.0 + e)!r}"
        for r, e in sorted(cfg.sct_eps2.items())
    )
    dflt = cfg.sct_eps2_default / (1.0 + cfg.sct_eps2_default)
    w_case = f"CASE coalesce(f.role, '') {w_arms} ELSE {dflt!r} END"
    z = f"((m.q - m.med) / greatest(1.4826 * d.mad, {cfg.sigma_min!r}))"
    return (
        f"WITH {base}, {chain} "
        f"SELECT m.conv_id, m.turn_idx, round({z} * {z}, 5) AS sctpog, "
        f"round(({z} * {z}) * ({w_case}), 5) AS corep "
        "FROM chk_sct_m m "
        "JOIN chk_sct_d d ON d.conv_id = m.conv_id AND d.turn_idx = m.turn_idx "
        "JOIN f ON f.conv_id = m.conv_id AND f.turn_idx = m.turn_idx "
        f"WHERE m.cnt >= {cfg.sct_min}"
    )


# ---------------------------------------------------------------------------
# Role-transition matrix (the LEAD-window shape)
# ---------------------------------------------------------------------------

def conv_role_transitions(sf_dir: str):
    """(role, next_role, n) Markov transition counts within conversations
    ordered by turn_idx — the per-conversation sequential view a routing /
    agent-analysis consumer reads off the corpus (reference analog: the
    within-neighbourhood ordering that buddy/sct iterate in titan.r's conv
    loop, reduced to its transition statistics).

    Scale shape: only (conv_id, turn_idx, role) crosses ONE bucket-keyed
    exchange (deterministic siphash conv bucket, 64 keys — same exchange
    discipline as the flagship conv shuffle); the per-bucket kernel is a
    factorize + lexsort + vectorized adjacent-compare; the final merge is a
    |roles|^2-sized groupby. Rows with null conv_id/role are excluded on
    both sides (the LEAD partition over nulls is not well-defined)."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data as rd

    ds = rd.read_parquet(
        corpus_path_for_sf(_sf_of(sf_dir)), columns=["conv_id", "turn_idx", "role"]
    )

    def bucketize(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(b["conv_id"]), pc.is_valid(b["role"]))
        b = b.filter(m)
        hv = pd.util.hash_array(b["conv_id"].to_pandas().to_numpy(dtype=object))
        return b.append_column("_b", pa.array((hv % 64).astype(np.int32)))

    def per_bucket(t: pa.Table) -> pa.Table:
        conv = pd.factorize(t["conv_id"].to_pandas())[0]
        ti = t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        roles, runiq = pd.factorize(t["role"].to_pandas())
        # order by (turn_idx, role): the corpus plants duplicate
        # (conv_id, turn_idx) rows, and under a bare turn_idx order LEAD is
        # ambiguous on the ties; with role as tiebreaker any remaining
        # permutation is between identical keys and cannot change the
        # transition sequence. Role codes are appearance-ordered, so map
        # them to lexicographic rank first (SQL compares the strings).
        nr0 = len(runiq)
        rank = np.empty(nr0, dtype=np.int64)
        rank[np.argsort(runiq)] = np.arange(nr0)
        order = np.lexsort((rank[roles], ti, conv))
        cs, rs = conv[order], roles[order]
        adj = cs[1:] == cs[:-1]
        nr = len(runiq)
        key = rs[:-1][adj] * nr + rs[1:][adj]
        uk, n = np.unique(key, return_counts=True)
        return pa.table(
            {
                "role": pa.array(runiq.take(uk // nr)),
                "next_role": pa.array(runiq.take(uk % nr)),
                "n": pa.array(n.astype(np.int64)),
            }
        )

    return (
        bucket_exchange(ds.map_batches(bucketize, batch_format="pyarrow"), "_b", per_bucket)
        .groupby(["role", "next_role"])
        .sum("n")
        .map_batches(
            lambda b: b.rename_columns(["role", "next_role", "n"]),
            batch_format="pyarrow",
        )
    )


def role_transitions_sql(sf: float = 0.01) -> str:
    """DuckDB oracle for conv_role_transitions (LEAD window, same null
    exclusions)."""
    rel = f"read_parquet('{corpus_path_for_sf(sf)}/*.parquet')"
    return (
        f"WITH src AS (SELECT conv_id, turn_idx, role FROM {rel} "
        "WHERE conv_id IS NOT NULL AND role IS NOT NULL), "
        "s AS (SELECT role, lead(role) OVER "
        "(PARTITION BY conv_id ORDER BY turn_idx, role) AS next_role FROM src) "
        "SELECT role, next_role, count(*) AS n FROM s "
        "WHERE next_role IS NOT NULL GROUP BY role, next_role"
    )
