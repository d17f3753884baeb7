"""Serial single-process oracle for the QC battery.

Mirrors the reference's conformance pattern (reference:
test/test_titan_ta_sct.r:8-21 — run the pipeline, compare flags against
ground truth): a deliberately naive, loop-based re-implementation of every
check with the SAME windowed semantics as the Ray engine. The engine must
match it row-for-row (flags exactly; text_scrubbed byte-exactly). Scorer
outputs (lang/ppl/...) are shared inputs, not re-derived — the oracle
validates the CHECK and SHUFFLE logic, which is what distribution can break.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import QCConfig
from ..functions.features import compute_features
from ..functions.scrub import Scrubber
from ..schema import (
    CODE_BLACKLIST,
    CODE_BUDDY,
    CODE_CCRRT,
    CODE_CLIM,
    CODE_DUAL_FG,
    CODE_FGT,
    CODE_ISOLATION,
    CODE_KEEP,
    CODE_NOMETA,
    CODE_PLAUS,
    CODE_SCT,
    CODE_SCT_DUAL,
    CODE_SCT_FG,
    CODE_ZDEM,
)

UNFLAGGED = -1
# RE2's \s (as in DuckDB and pyarrow regexes): narrower than Python's \s,
# which also matches \v, U+0085, U+00A0 and the other Unicode spaces
_RE2_SPACE_RUN = re.compile(r"[\t\n\f\r ]+")


def _doit(cfg: QCConfig, check: str, role) -> int:
    return cfg.doit.get(check, {}).get(role if role is not None else "", 1) if cfg.doit.get(check) else 1


def oracle_qc(table: pa.Table, cfg: QCConfig | None = None) -> pd.DataFrame:
    cfg = cfg or QCConfig()
    df = table.to_pandas()

    # ---- dedup (keep first by conv_id, turn_idx, ts; full ties broken by
    # the same deterministic content hash the engine ranks use) ----
    if cfg.dedup:
        sep = "\x01"
        content = (
            df["text"].fillna("\x00")
            + sep + (df["role"].fillna("\x00") if "role" in df.columns else "\x00")
            + sep + (df["tool"].fillna("\x00") if "tool" in df.columns else "\x00")
        )
        df = df.assign(_chash=pd.util.hash_array(content.to_numpy(dtype=object)))
        order = df.sort_values(["conv_id", "turn_idx", "ts", "_chash"], kind="mergesort", na_position="last")
        seen: set[str] = set()
        keep_rows = []
        for i, txt in zip(order.index, order["text"]):
            # the engine's normalization: collapse runs of RE2 \s only,
            # then trim str.isspace() (what utf8_trim_whitespace trims)
            norm = _RE2_SPACE_RUN.sub(" ", txt.lower()).strip() if isinstance(txt, str) else ""
            if norm and norm in seen:
                continue
            seen.add(norm)
            keep_rows.append(i)
        df = df.loc[sorted(keep_rows)].drop(columns=["_chash"])
    df = df.reset_index(drop=True)

    # ---- NEAR dedup (epsilon-radius duplicate_check analog): same
    # minhash/LSH candidacy + exact-Jaccard verify the engine uses, run
    # serially; drop the higher-ranked member of each verified pair ----
    if getattr(cfg, "dedup_near", False):
        from ..stages.dedup import _norm_and_rank
        from ..stages.neardup import SHINGLE, band_hashes, minhash_signatures

        tbl = pa.Table.from_pandas(df, preserve_index=False)
        norm, rank = _norm_and_rank(tbl)
        norm_np = norm.to_numpy(dtype=object)
        rank_np = rank.to_numpy(dtype=object)
        sig = band_hashes(minhash_signatures(pa.array(list(norm_np), type=pa.string())))
        cand = set()
        for b in range(sig.shape[1]):
            buckets: dict[int, list[int]] = {}
            for i, h in enumerate(sig[:, b]):
                buckets.setdefault(int(h), []).append(i)
            for rows_ in buckets.values():
                if len(rows_) < 2:
                    continue
                if len(rows_) <= 256:
                    for x in range(len(rows_)):
                        for y in range(x + 1, len(rows_)):
                            cand.add((rows_[x], rows_[y]))
                else:
                    # oversized bucket -> star pairs vs the lowest-ranked
                    # member (mirrors _bucket_pairs' cap fallback)
                    anchor = min(rows_, key=lambda i: rank_np[i])
                    for y in rows_:
                        if y != anchor:
                            cand.add((anchor, y))
        shingle_sets = [
            {norm_np[i][j : j + SHINGLE] for j in range(max(len(norm_np[i]) - SHINGLE + 1, 0))}
            for i in range(len(norm_np))
        ]
        drop_ranks = set()
        for i, j in cand:
            si, sj = shingle_sets[i], shingle_sets[j]
            u = len(si | sj)
            if u and len(si & sj) / u > cfg.dedup_near_threshold:
                drop_ranks.add(max(rank_np[i], rank_np[j]))
        df = df[~pd.Series(rank_np).isin(drop_ranks).to_numpy()].reset_index(drop=True)

    n = len(df)
    flags = np.full(n, UNFLAGGED, dtype=np.int32)

    # ---- seeding: blacklist (terms + positions) then keeplist ----
    black_re = re.compile("|".join(re.escape(t) for t in cfg.blacklist_terms)) if cfg.blacklist_terms else None
    black_pos = set(cfg.positional_blacklist)
    keep_pos = set(cfg.positional_keeplist)

    def _pos(i):
        c = df["conv_id"].iloc[i]
        return (c, int(df["turn_idx"].iloc[i])) if isinstance(c, str) else None

    for i in range(n):
        t = df["text"].iloc[i]
        if (black_re is not None and isinstance(t, str) and black_re.search(t)) or (
            black_pos and _pos(i) in black_pos
        ):
            flags[i] = CODE_BLACKLIST
    for i in range(n):
        if flags[i] != UNFLAGGED:
            continue
        kl = bool(df[cfg.keeplist_col].iloc[i]) if cfg.keeplist_col and cfg.keeplist_col in df.columns else False
        if kl or (keep_pos and _pos(i) in keep_pos):
            flags[i] = CODE_KEEP

    # ---- metadata (may overwrite 990) ----
    for i in range(n):
        t = df["text"].iloc[i]
        nb = len(t.encode("utf-8")) if isinstance(t, str) else None
        bad = (
            not isinstance(t, str)
            or pd.isna(df["conv_id"].iloc[i])
            or int(df["turn_idx"].iloc[i]) < 0
            or nb < cfg.min_chars
            or nb > cfg.max_chars
        )
        if bad and flags[i] in (UNFLAGGED, CODE_KEEP):
            flags[i] = CODE_NOMETA

    # ---- scores (shared scorer functions) ----
    feats = compute_features(pa.array(df["text"].tolist(), type=pa.string()))
    lang = feats["lang"]
    conf = feats["lang_conf"]
    ppl = feats["ppl"]
    q = np.log1p(ppl)

    # ---- ccrrt 301 (optional): tool-output qscore plausibility; runs
    # BEFORE zdem, matching the reference order (titan.r:150-154 vs :187) ----
    if cfg.enable_ccrrt:
        for i in range(n):
            if flags[i] != UNFLAGGED or _doit(cfg, "ccrrt", df["role"].iloc[i]) != 1:
                continue
            if df["role"].iloc[i] == "tool" and q[i] > cfg.ccrrt_tmax:
                flags[i] = CODE_CCRRT

    # ---- zdem 902 (optional): stated role/tool metadata must agree ----
    if cfg.enable_zdem:
        for i in range(n):
            if flags[i] != UNFLAGGED or _doit(cfg, "zdem", df["role"].iloc[i]) != 1:
                continue
            role_i = df["role"].iloc[i] if isinstance(df["role"].iloc[i], str) else ""
            tool_i = df["tool"].iloc[i] if isinstance(df["tool"].iloc[i], str) else ""
            if (role_i == "tool") != (tool_i != ""):
                flags[i] = CODE_ZDEM

    # ---- plausibility (may overwrite 990) ----
    for i in range(n):
        if flags[i] not in (UNFLAGGED, CODE_KEEP):
            continue
        if _doit(cfg, "plausibility", df["role"].iloc[i]) != 1:
            continue
        if conf[i] < cfg.conf_min or ppl[i] > cfg.ppl_hard_max:
            flags[i] = CODE_PLAUS

    # ---- climatological ----
    default_band = cfg.clim_bands.get("und", (0.0, float("inf")))
    for i in range(n):
        if flags[i] != UNFLAGGED or _doit(cfg, "climatological", df["role"].iloc[i]) != 1:
            continue
        lo, hi = cfg.clim_bands.get(lang[i], default_band)
        if ppl[i] < lo or ppl[i] > hi:
            flags[i] = CODE_CLIM

    # ---- conversation-local checks, window by window ----
    sctpog = np.full(n, np.nan)
    corep_arr = np.full(n, np.nan)
    conv_key = df["conv_id"].fillna("__null__")
    pre_flags = flags.copy()  # halo rows participate with pre-stage flags
    order = np.lexsort((df["ts"].to_numpy(), df["turn_idx"].to_numpy(), conv_key.to_numpy()))
    W, H = cfg.window, cfg.halo
    for _, conv_rows in pd.Series(order).groupby(conv_key.to_numpy()[order], sort=False):
        rows = conv_rows.to_numpy()
        tvals = df["turn_idx"].to_numpy()[rows]
        windows = np.unique(np.maximum(tvals, 0) // W)
        for w in windows:
            core = rows[np.maximum(tvals, 0) // W == w]
            lo_edge, hi_edge = w * W - H, (w + 1) * W + H
            part = rows[(tvals >= lo_edge) & (tvals < hi_edge)]
            is_core = np.isin(part, core)
            lflags = pre_flags[part].copy()
            lflags[is_core] = flags[part][is_core]
            lt = df["turn_idx"].to_numpy()[part].astype(np.int64)
            lq = q[part]
            lroles = df["role"].fillna("").to_numpy()[part]
            llang = lang[part]
            lnch = feats["n_chars"][part].astype(np.float64)
            lpog = np.full(len(part), np.nan)
            lcorep = np.full(len(part), np.nan)
            _window_checks(cfg, lflags, is_core, lt, lq, lroles, llang, lpog, lnch, lcorep)
            flags[part[is_core]] = lflags[is_core]
            sctpog[part[is_core]] = lpog[is_core]
            corep_arr[part[is_core]] = lcorep[is_core]

    # ---- final + scrub ----
    flags = np.where(flags == UNFLAGGED, 0, flags)
    keep = (flags == 0) | (flags == CODE_KEEP)
    scr = Scrubber()
    df["lang"] = lang
    df["lang_conf"] = conf
    df["ppl"] = ppl
    df["qscore"] = q
    df["dqcflag"] = flags.astype(np.int32)
    df["keep"] = keep
    df["sctpog"] = sctpog
    df["corep"] = corep_arr
    scrubbed = [scr.scrub_one_with_counts(t if isinstance(t, str) else None) for t in df["text"]]
    df["text_scrubbed"] = [s[0] for s in scrubbed]
    df["n_scrub_pii"] = np.asarray([s[1] for s in scrubbed], dtype=np.int32)
    df["n_scrub_tox"] = np.asarray([s[2] for s in scrubbed], dtype=np.int32)
    return df


def _neigh(i: int, lt: np.ndarray, r: int, ok: np.ndarray) -> list[int]:
    return [j for j in range(len(lt)) if j != i and ok[j] and abs(lt[j] - lt[i]) <= r]


def _window_checks(cfg, lflags, is_core, lt, lq, lroles, llang, lpog, lnch=None, lcorep=None) -> None:
    m = len(lflags)
    parallel = cfg.conv_mode == "parallel"
    state = lflags.copy() if parallel else lflags  # frozen snapshot in parallel mode

    def usable(check):
        return np.asarray(
            [state[j] in (UNFLAGGED, CODE_KEEP) and _doit(cfg, check, lroles[j]) >= 1 for j in range(m)]
        )

    def testable(check, j):
        return state[j] == UNFLAGGED and _doit(cfg, check, lroles[j]) == 1 and is_core[j]

    def apply(rows, code):
        for j in rows:
            if lflags[j] == UNFLAGGED:
                lflags[j] = code

    ev = np.asarray([l != "en" for l in llang])

    # dual_fg (code 4, optional): own event vs the external prior
    if cfg.enable_dual_fg:
        ok = usable("dual_fg")
        new = []
        prior_event = cfg.dual_fg_prior > 0.5
        for i in range(m):
            if not testable("dual_fg", i):
                continue
            nb = _neigh(i, lt, cfg.r_dual, ok)
            if len(nb) < cfg.dual_min:
                continue
            frac = float(np.mean(ev[nb]))
            if (bool(ev[i]) != prior_event) and abs(frac - cfg.dual_fg_prior) < (1.0 - cfg.dual_thr):
                new.append(i)
        apply(new, CODE_DUAL_FG)

    # dual (single two-phase pass)
    if cfg.enable_dual:
        ok = usable("sct_dual")
        new = []
        for i in range(m):
            if not testable("sct_dual", i):
                continue
            nb = _neigh(i, lt, cfg.r_dual, ok)
            if len(nb) < cfg.dual_min:
                continue
            frac = float(np.mean(ev[nb]))
            if (ev[i] and frac < 1.0 - cfg.dual_thr) or (not ev[i] and frac > cfg.dual_thr):
                new.append(i)
        apply(new, CODE_SCT_DUAL)

    # fgt (member-level ensemble: one background per member, majority vote —
    # reference fgt.r:335-343)
    if cfg.enable_fgt:
        if cfg.fgt_ensemble <= 1:
            draws = [0.0]
            needed = 1
        else:
            import numpy as _np

            draws = list(_np.linspace(-1.0, 1.0, cfg.fgt_ensemble))
            needed = (cfg.fgt_ensemble + 1) // 2
        new = []
        for i in range(m):
            if not testable("fgt", i):
                continue
            mu, sd = cfg.fgt_ref.get(lroles[i], (1.9, 0.6))
            if cfg.fgt_len_gamma != 0.0 and lnch is not None:
                mu = mu + cfg.fgt_len_gamma * (lnch[i] - cfg.fgt_len_ref)
            if cfg.fgt_ensemble <= 1:
                votes = 1 if abs(lq[i] - mu) > cfg.fgt_t * sd else 0
            else:
                votes = sum(
                    1 for u in draws
                    if abs(lq[i] - (mu + sd * cfg.fgt_member_spread * u)) > cfg.fgt_t * sd
                )
            if votes >= needed:
                new.append(i)
        apply(new, CODE_FGT)

    # buddy (iterate, multi-test per pass; priority-restricted first pass;
    # optional Box-Cox + admissible value band)
    if cfg.enable_buddy:
        from ..functions.scalars import boxcox

        bq = boxcox(lq, cfg.buddy_boxcox) if cfg.buddy_boxcox is not None else lq
        btests = cfg.buddy_tests or ((cfg.r_buddy, cfg.buddy_tpos, cfg.buddy_tneg, cfg.buddy_min),)
        for it in range(1 if parallel else cfg.buddy_iters):
            any_new = False
            for (br, btpos, btneg, bmin) in btests:
                ok = usable("buddy")
                new = []
                for i in range(m):
                    if not testable("buddy", i):
                        continue
                    nb = _neigh(i, lt, br, ok)
                    if it == 0 and cfg.prio:
                        my_p = cfg.prio.get(lroles[i], 0)
                        nb = [j for j in nb if cfg.prio.get(lroles[j], 0) >= my_p]
                    if len(nb) < bmin:
                        continue
                    med = float(np.median(bq[nb]))
                    mad = float(np.median(np.abs(bq[nb] - med)))
                    sigma = max(1.4826 * mad, cfg.sigma_min)
                    z = (bq[i] - med) / sigma
                    if not (z > btpos or z < -btneg):
                        continue
                    if cfg.buddy_adm_delta is not None:
                        half = max(cfg.buddy_adm_delta, cfg.buddy_adm_fact * abs(med))
                        lo, hi = max(med - half, 0.0), med + half
                        if lo <= bq[i] <= hi:
                            continue
                    new.append(i)
                if new:
                    any_new = True
                    apply(new, CODE_BUDDY)
            if not any_new:
                break

    # sct_fg (code 2, optional): external centre, local robust spread
    if cfg.enable_sct_fg:
        for _ in range(1 if parallel else cfg.sct_iters):
            ok = usable("sct_fg")
            new = []
            for i in range(m):
                if not testable("sct_fg", i):
                    continue
                nb = _neigh(i, lt, cfg.r_sct, ok)
                if len(nb) < cfg.sct_min:
                    continue
                mu, _sd = cfg.fgt_ref.get(lroles[i], (1.9, 0.6))
                med = float(np.median(lq[nb]))
                mad = float(np.median(np.abs(lq[nb] - med)))
                sigma = max(1.4826 * mad, cfg.sigma_min)
                if abs((lq[i] - mu) / sigma) > cfg.sct_fg_t:
                    new.append(i)
            if not new:
                break
            apply(new, CODE_SCT_FG)

    # sct (iterate, multi-test per pass; median or Theil-Sen trend
    # background; sctpog kept + corep = z^2 * eps2/(1+eps2))
    if cfg.enable_sct:
        stests = cfg.sct_tests or ((cfg.r_sct, cfg.sct_t, cfg.sct_min),)
        for _ in range(1 if parallel else cfg.sct_iters):
            any_new = False
            for (sr, st, smin) in stests:
                ok = usable("sct")
                new = []
                for i in range(m):
                    if not testable("sct", i):
                        continue
                    nb = _neigh(i, lt, sr, ok)
                    if cfg.sct_adaptive_k and cfg.sct_background != "trend":
                        # adaptive radius: clamp to the kth-closest usable
                        # neighbour distance (kth_closest_obs_horizontal_scale)
                        dts = sorted(abs(int(lt[j]) - int(lt[i])) for j in nb)
                        kd = dts[cfg.sct_adaptive_k - 1] if len(dts) >= cfg.sct_adaptive_k else sr
                        r_i = min(max(kd, cfg.sct_min_radius), sr)
                        nb = [j for j in nb if abs(lt[j] - lt[i]) <= r_i]
                    if len(nb) < smin:
                        continue
                    if cfg.sct_background == "trend":
                        dts = lt[nb] - lt[i]
                        slopes = [
                            (lq[nb[a]] - lq[nb[b]]) / (dts[a] - dts[b])
                            for a in range(len(nb)) for b in range(a + 1, len(nb))
                            if dts[a] != dts[b]
                        ]
                        slope = float(np.median(slopes)) if slopes else 0.0
                        bg = float(np.median(lq[nb] - slope * dts))
                        resid = lq[nb] - (bg + slope * dts)
                        mad = float(np.median(np.abs(resid)))
                    else:
                        bg = float(np.median(lq[nb]))
                        mad = float(np.median(np.abs(lq[nb] - bg)))
                    sigma = max(1.4826 * mad, cfg.sigma_min)
                    z = (lq[i] - bg) / sigma
                    eps2 = cfg.sct_eps2.get(lroles[i], cfg.sct_eps2_default)
                    w = eps2 / (1.0 + eps2)
                    lpog[i] = (z * z) * w if cfg.sct_weighted else z * z
                    if lcorep is not None:
                        lcorep[i] = (z * z) * w
                    flagged = ((z * z) * w > st * st) if cfg.sct_weighted else (abs(z) > st)
                    if flagged:
                        new.append(i)
                if new:
                    any_new = True
                    apply(new, CODE_SCT)
            if not any_new:
                break

    # isolation
    if cfg.enable_isolation:
        ok = usable("isolation")
        new = []
        for i in range(m):
            if not testable("isolation", i):
                continue
            if len(_neigh(i, lt, cfg.r_iso, ok)) < cfg.n_iso:
                new.append(i)
        apply(new, CODE_ISOLATION)
