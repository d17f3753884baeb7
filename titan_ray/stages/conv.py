"""Conversation-local checks: dual, fgt, buddy, SCT, isolation — one shuffle.

Design (SURVEY.md §2.3 / §4):

1. **Salt** (stateless map_batches): every row gets ``conv_key =
   conv_id + '#' + (turn_idx // W)``. Mega-conversations (> W turns) thus
   split into windows; rows within ``halo`` of a window edge are ALSO
   emitted into the adjacent window with ``is_core = False`` so every core
   row sees its full ±radius neighbourhood. Small conversations never
   duplicate. This replaces Ray's inability to split a group — skew from
   10^6-turn conversations is bounded at W + 2·halo rows per group.

2. **Bucket** the windows by hash into ``num_buckets`` values and run ONE
   ``exchange.bucket_exchange`` on ``bucket``: a sort co-locates each
   bucket in one block, and the check kernel runs ONCE per shuffled block,
   vectorized across every window the block holds, with
   conversation-boundary masking (no per-bucket or per-conversation Python
   dispatch). The kernel is key-composable: windows never see each other's
   rows, so a block of many buckets gives the same rows as one call each.

Check semantics (engine-defined, oracle-matched; reference kernels are in
the external titanlib — we re-implement their *shape*):

- **dual** (code 3; reference: sct_dual_r.r:112-130): binary event =
  (lang != 'en'); flag a testable row whose event disagrees with >
  ``dual_thr`` of its usable neighbours within ±r_dual.
- **fgt** (code 11; reference: fgt.r:267-289): |qscore − ref(role).mean| >
  t · ref(role).sd against the broadcast first-guess table.
- **buddy** (code 10; reference: buddy.r:97-210): iterate ≤ buddy_iters:
  z = (q − median(neigh)) / max(1.4826·MAD, sigma_min) over usable
  neighbours within ±r_buddy (self excluded); flag z > tpos or z < −tneg
  with ≥ buddy_min neighbours; newly flagged rows leave the usable set.
- **sct** (code 1; reference: sct_resistant.r:107-247 with
  background_elab_type = MedianOuterCircle, argparser_sct.r:13-16): same
  skeleton over the wider ±r_sct window, score sctpog = z² kept.
- **isolation** (code 800; reference: isolation.r:25-28): < n_iso usable
  neighbours within ±r_iso.

First-flag-wins order inside the kernel: dual → fgt → buddy → sct →
isolation (reference: titan.r:209-257). Only CORE rows are ever flagged;
halo rows participate with their pre-stage flags (doit=2 semantics).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import QCConfig
from ..functions.lut import encode as lut_encode, lut, lut_pair
from ..schema import (
    CODE_KEEP as CODE_KEEP_INT,
    CODE_BUDDY,
    CODE_DUAL_FG,
    CODE_FGT,
    CODE_ISOLATION,
    CODE_SCT,
    CODE_SCT_DUAL,
    CODE_SCT_FG,
)
from .flags import UNFLAGGED, testable_mask, usable_mask

NULL_CONV_KEY = "__null__"


# ---------------------------------------------------------------------------
# stage 1: salting (stateless, vectorized)
# ---------------------------------------------------------------------------

def salt_batch(batch: pa.Table, cfg: QCConfig, num_buckets: int = 128) -> pa.Table:
    """Add conv_key / bucket / is_core; emit halo duplicates for window edges."""
    conv = pc.coalesce(batch["conv_id"], pa.scalar(NULL_CONV_KEY))
    t = pc.max_element_wise(
        pc.coalesce(batch["turn_idx"], pa.scalar(0, type=pa.int32())),
        pa.scalar(0, type=pa.int32()),
    )
    w = pc.divide(t, pa.scalar(cfg.window, type=pa.int32()))
    pos = pc.subtract(t, pc.multiply(w, pa.scalar(cfg.window, type=pa.int32())))

    def keyed(tbl: pa.Table, conv_a, w_a, core: bool) -> pa.Table:
        key = pc.binary_join_element_wise(conv_a, pc.cast(w_a, pa.string()), "#")
        tbl = tbl.append_column("conv_key", key)
        tbl = tbl.append_column("is_core", pa.array(np.full(tbl.num_rows, core)))
        # deterministic across processes (pandas siphash with fixed key) —
        # python's builtin hash() is salted per process and would break
        # reproducible partitioning.
        hv = pd.util.hash_array(key.to_pandas().to_numpy(dtype=object))
        tbl = tbl.append_column("bucket", pa.array((hv % num_buckets).astype(np.int32)))
        return tbl

    out = [keyed(batch, conv, w, True)]
    # halo into the previous window (rows near the lower edge, window > 0)
    lo_mask = pc.and_(pc.less(pos, cfg.halo), pc.greater(w, 0))
    if pc.any(lo_mask).as_py():
        idx = np.flatnonzero(lo_mask.to_numpy(zero_copy_only=False))
        sub = batch.take(idx)
        out.append(keyed(sub, conv.take(idx), pc.subtract(w.take(idx), 1), False))
    # halo into the next window (rows near the upper edge)
    hi_mask = pc.greater_equal(pos, cfg.window - cfg.halo)
    if pc.any(hi_mask).as_py():
        idx = np.flatnonzero(hi_mask.to_numpy(zero_copy_only=False))
        sub = batch.take(idx)
        out.append(keyed(sub, conv.take(idx), pc.add(w.take(idx), 1), False))
    return pa.concat_tables(out)


# ---------------------------------------------------------------------------
# stage 2: vectorized windowed kernels (shared by the block kernel below)
# ---------------------------------------------------------------------------

def _sliding(vals: np.ndarray, r: int) -> np.ndarray:
    """(n, 2r+1) view with NaN padding; column r is self."""
    n = len(vals)
    padded = np.full(n + 2 * r, np.nan)
    padded[r : r + n] = vals
    return np.lib.stride_tricks.sliding_window_view(padded, 2 * r + 1)


def _dup_multiplicity(grp: np.ndarray, t: np.ndarray) -> int:
    """Max number of rows sharing one (grp, turn_idx) pair (sorted input).

    1 for the normal unique-(conv_id, turn_idx) case; > 1 after re-ingestion
    without dedup. Used to widen the positional sliding window so that pure
    TURN-distance neighbours (the serial oracle's _neigh semantics) are never
    excluded by row-position distance."""
    n = len(t)
    if n < 2:
        return 1
    same = (grp[1:] == grp[:-1]) & (t[1:] == t[:-1])
    if not same.any():
        return 1
    # longest run of consecutive `same` + 1 = max multiplicity
    padded = np.concatenate(([False], same, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return int((edges[1::2] - edges[::2]).max()) + 1


def _pos_radius(r: int, dup: int, n: int) -> int:
    """Positional radius covering every row within TURN distance r when each
    turn value occurs at most `dup` times: (r+1)*dup - 1 positions."""
    R = (r + 1) * dup - 1
    R = min(R, max(n - 1, 1))
    if R > 4096:
        raise ValueError(
            f"duplicate (conv_id, turn_idx) multiplicity {dup} widens the "
            f"neighbour window to {R} positions — run dedup before the "
            "conversation checks (re-ingested corpus?)"
        )
    return R


def _neighbour_matrix(
    q: np.ndarray, ok: np.ndarray, grp: np.ndarray, t: np.ndarray, r: int, dup: int = 1,
    return_dt: bool = False,
):
    """(n, 2R+1) of usable neighbour values; NaN where out-of-conv,
    out-of-TURN-radius, not usable, or self. Rows must be sorted by (grp, t).

    Neighbourhood is pure turn distance |Δturn_idx| <= r (matching the serial
    oracle's _neigh and the reference's metric radius, statistics_util.r:50);
    the positional window is widened by the duplicate multiplicity so rows
    sharing a turn_idx are still seen (self excluded by POSITION only —
    duplicate rows at the same turn are legitimate buddies of each other).

    return_dt: also return the |Δturn| matrix (NaN where the value is NaN) —
    used by the adaptive-radius restriction."""
    R = _pos_radius(r, dup, len(q))
    vals = np.where(ok, q, np.nan)
    m = _sliding(vals, R).copy()
    m[:, R] = np.nan  # exclude self (reference: statistics_util.r:50-55)
    gm = _sliding(grp.astype(np.float64), R)
    tm = _sliding(t.astype(np.float64), R)
    adt = np.abs(tm - t[:, None])
    bad = (gm != grp[:, None]) | (adt > r)
    m[bad] = np.nan
    if return_dt:
        return m, np.where(np.isnan(m), np.nan, adt)
    return m


def _adaptive_restrict(m: np.ndarray, adt: np.ndarray, k: int, rmin: int, rmax: int) -> np.ndarray:
    """Clamp each row's neighbourhood to the distance of its kth-closest
    usable neighbour (reference: argparser_sct.r
    --kth_closest_obs_horizontal_scale.sct — the decorrelation length adapts
    to local density, clamped to [min, max horizontal scale]). Rows with
    fewer than k neighbours keep the full radius."""
    ds = np.sort(adt, axis=1)  # NaN sorts last
    cnt = np.sum(~np.isnan(adt), axis=1)
    col = min(k, ds.shape[1]) - 1
    kd = np.where(cnt >= k, ds[:, col], float(rmax))
    r_i = np.clip(kd, float(rmin), float(rmax))
    with np.errstate(invalid="ignore"):
        keep = adt <= r_i[:, None]
    return np.where(keep, m, np.nan)


def _range_count_sum(
    vals: np.ndarray, ok: np.ndarray, grp: np.ndarray, t: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """(cnt, vsum): per row, the count of USABLE rows and the sum of their
    ``vals`` within TURN distance r in the same grp, self (by position)
    excluded. Rows must be sorted by (grp, t). Exact for 0/1-valued ``vals``
    (integer sums in float64). Replaces the (n, 2R+1) neighbour matrix for
    checks that only need counts/sums (dual, isolation) — O(n log n) binary
    search + cumsum instead of O(n·R) matrix traffic, and immune to the
    duplicate-multiplicity window widening."""
    n = len(t)
    if n == 0:
        z = np.zeros(0)
        return z, z
    big = np.int64(int(t.max(initial=0)) + int(r) + 2)
    key = grp * big + t
    lo = np.searchsorted(key, grp * big + (t - r), side="left")
    hi = np.searchsorted(key, grp * big + (t + r), side="right")
    okf = ok.astype(np.float64)
    v = vals * okf
    ccnt = np.concatenate([[0.0], np.cumsum(okf)])
    csum = np.concatenate([[0.0], np.cumsum(v)])
    cnt = (ccnt[hi] - ccnt[lo]) - okf
    vsum = (csum[hi] - csum[lo]) - v
    return cnt, vsum


def _nanmed(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise median ignoring NaN via one sort (NaNs sort last) — bitwise
    identical to np.nanmedian (verified) and ~25x faster on the narrow
    windows the conv checks use; the conv stage's dominant kernel."""
    cnt = np.sum(~np.isnan(m), axis=1)
    srt = np.sort(m, axis=1)
    i = np.arange(len(m))
    lo = srt[i, np.maximum((cnt - 1) // 2, 0)]
    hi = srt[i, np.maximum(cnt // 2, 0)]
    med = 0.5 * (lo + hi)
    med[cnt == 0] = np.nan
    return med, cnt


def _robust_z(q: np.ndarray, m: np.ndarray, sigma_min: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(z, count, sigma, median) of q vs the neighbour matrix (median/MAD)."""
    med, cnt = _nanmed(m)
    mad, _ = _nanmed(np.abs(m - med[:, None]))
    sigma = np.maximum(1.4826 * mad, sigma_min)
    z = np.where(cnt > 0, (q - med) / sigma, 0.0)
    return np.nan_to_num(z), cnt, sigma, med


def _trend_z(q: np.ndarray, ok: np.ndarray, grp: np.ndarray, t: np.ndarray, r: int,
             dup: int, sigma_min: float) -> tuple[np.ndarray, np.ndarray]:
    """(z, count) vs a Theil-Sen local-trend background (reference
    argparser_sct.r:13-16 VerticalProfile/TheilSen analogs): per row, fit a
    robust line q ~ turn_idx over the usable neighbours (median of pairwise
    slopes, median intercept), normalize the leave-one-out deviation by the
    MAD of the neighbour residuals. ~ (2R+1 choose 2) slope columns per row
    — bounded by the salting window, vectorized."""
    R = _pos_radius(r, dup, len(q))
    vals = np.where(ok, q, np.nan)
    m = _sliding(vals, R).copy()
    m[:, R] = np.nan
    gm = _sliding(grp.astype(np.float64), R)
    tm = _sliding(t.astype(np.float64), R)
    bad = (gm != grp[:, None]) | (np.abs(tm - t[:, None]) > r)
    m[bad] = np.nan
    dt = tm - t[:, None]
    dt = np.where(np.isnan(m), np.nan, dt)
    cols = m.shape[1]
    if cols > 129:  # ~8.3k slope pairs/row; beyond this the pair matrix OOMs
        raise ValueError(
            f"trend background with a {cols}-position window (duplicate "
            "multiplicity too high) — run dedup before the conversation checks"
        )
    ia, ib = np.triu_indices(cols, k=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ddt = dt[:, ia] - dt[:, ib]
        slopes = np.where(ddt != 0, (m[:, ia] - m[:, ib]) / ddt, np.nan)
    slope, _ = _nanmed(slopes)
    slope = np.nan_to_num(slope)  # no valid pair -> flat background
    bg, _ = _nanmed(m - slope[:, None] * dt)
    resid = m - (bg[:, None] + slope[:, None] * dt)
    mad, _ = _nanmed(np.abs(resid))
    cnt = np.sum(~np.isnan(m), axis=1)
    sigma = np.maximum(1.4826 * np.nan_to_num(mad), sigma_min)
    z = np.where(cnt > 0, (q - np.nan_to_num(bg)) / sigma, 0.0)
    return np.nan_to_num(z), cnt


def run_conv_checks_arrow(tbl: pa.Table, cfg: QCConfig) -> pa.Table:
    """Arrow-native block kernel: converts ONLY the narrow check columns to
    numpy (turn_idx/ts/qscore/flags/lang[/role]); the wide payload (text,
    passthrough) is reordered once with a single take() — no pandas
    round-trip of the full rows (measured ~2x on the group stage)."""
    from ..schema import narrow_strings

    tbl = narrow_strings(tbl)  # polars-backed sort emits large_string
    n = tbl.num_rows
    conv_key = tbl["conv_key"].combine_chunks() if isinstance(tbl["conv_key"], pa.ChunkedArray) else tbl["conv_key"]
    enc = pc.dictionary_encode(conv_key)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    grp0 = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    t0 = tbl["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    ts0 = tbl["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False) if isinstance(tbl["ts"], pa.ChunkedArray) else tbl["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    order = np.lexsort((ts0, t0, grp0))
    tbl = tbl.take(pa.array(order))

    flags = tbl["dqcflag"].to_numpy(zero_copy_only=False).astype(np.int32).copy()
    q = tbl["qscore"].to_numpy(zero_copy_only=False).astype(np.float64)
    t = t0[order]
    grp = grp0[order]
    core = tbl["is_core"].to_numpy(zero_copy_only=False).astype(bool)
    lang_arr = tbl["lang"]
    event_np = pc.fill_null(pc.not_equal(lang_arr, "en"), True).to_numpy(zero_copy_only=False).astype(bool)
    # role dictionary-encode once (C++); per-role tables (doit/fgt_ref/prio)
    # are looked up over the unique set only — no per-row Python
    rcodes, runiq = lut_encode(tbl["role"])
    if cfg.fgt_len_gamma != 0.0 and "n_chars" in tbl.column_names:
        nchars = tbl["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
    else:
        nchars = None
    sctpog = np.full(n, np.nan)
    corep = np.full(n, np.nan)

    # hard-flagged rows (901/999/501/502/...) are neither usable nor testable
    # by ANY conv check — run the kernel on the live rows only; inert rows
    # pass through untouched. Besides the work saved, this keeps degenerate
    # co-keyed groups (e.g. the shared null-conv_id key, where hundreds of
    # dead rows share a turn_idx) from widening the duplicate window.
    act = (flags == UNFLAGGED) | (flags == CODE_KEEP_INT)
    if n and act.all():  # an empty table skips the kernel
        flags, sctpog, corep = _conv_kernel(
            cfg, flags, q, t, grp, core, rcodes, runiq, event_np, sctpog, corep, nchars
        )
    elif act.any():
        ai = np.flatnonzero(act)
        f2, p2, c2 = _conv_kernel(
            cfg, flags[ai].copy(), q[ai], t[ai], grp[ai], core[ai], rcodes[ai], runiq,
            event_np[ai], sctpog[ai].copy(), corep[ai].copy(),
            None if nchars is None else nchars[ai],
        )
        flags[ai] = f2
        sctpog[ai] = p2
        corep[ai] = c2

    keep_idx = np.flatnonzero(core)
    out = tbl.take(pa.array(keep_idx))
    out = out.set_column(out.column_names.index("dqcflag"), "dqcflag", [pa.array(flags[keep_idx], type=pa.int32())])
    for name, arr in (("sctpog", sctpog), ("corep", corep)):
        if name in out.column_names:
            out = out.set_column(out.column_names.index(name), name, [pa.array(arr[keep_idx])])
        else:
            out = out.append_column(name, pa.array(arr[keep_idx]))
    return out


def run_conv_checks(df: pd.DataFrame, cfg: QCConfig) -> pd.DataFrame:
    """pandas wrapper over the arrow kernel (tests / oracle-style callers)."""
    tbl = pa.Table.from_pandas(df, preserve_index=False)
    out = run_conv_checks_arrow(tbl, cfg)
    res = out.to_pandas()
    return res.drop(columns=[c for c in ("bucket",) if c in res.columns])


def _conv_kernel(cfg: QCConfig, flags, q, t, grp, core, rcodes, runiq, event_np, sctpog, corep, nchars=None):
    """The check battery over sorted, conv-masked arrays (shared by the arrow
    fast path and the pandas wrapper). Roles arrive dictionary-encoded
    (rcodes into runiq); all per-role tables gather via unique-set LUTs.

    conv_mode="cascade": reference semantics — live flag state, iteration.
    conv_mode="parallel": every mask is computed from the SAME pre-conv
    state and applied first-flag-wins in reference order, single pass —
    the SQL-expressible mode the driver's DuckDB oracle checks."""
    n = len(flags)
    dup = _dup_multiplicity(grp, t)
    parallel = cfg.conv_mode == "parallel"
    # in cascade mode `state` IS `flags` (live); in parallel it is a frozen
    # snapshot of the pre-conv flags
    state = flags.copy() if parallel else flags

    _doit_cache: dict[str, np.ndarray] = {}

    def doit_vec(check: str) -> np.ndarray:
        got = _doit_cache.get(check)
        if got is None:
            table = cfg.doit.get(check)
            got = lut(rcodes, runiq, table, 1, np.int8) if table else np.ones(n, dtype=np.int8)
            _doit_cache[check] = got
        return got

    def testable(check: str) -> np.ndarray:
        return testable_mask(state, doit_vec(check)) & core

    def usable(check: str) -> np.ndarray:
        return usable_mask(state, doit_vec(check))

    def apply(mask: np.ndarray, code: int) -> np.ndarray:
        """First-flag-wins application; returns the rows newly flagged."""
        hit = mask & (flags == UNFLAGGED)
        flags[hit] = code
        return hit

    # ---- dual_fg (code 4, optional; reference: sct_fg_dual_r.r:33-39 —
    # dichotomous check against an external event prior) ----
    event = event_np.astype(np.float64)
    if cfg.enable_dual_fg:
        cnt, esum = _range_count_sum(event, usable("dual_fg"), grp, t, cfg.r_dual)
        frac = esum / np.maximum(cnt, 1)
        own = event > 0.5
        prior_event = cfg.dual_fg_prior > 0.5
        # own state disagrees with the external prior AND the neighbourhood
        # sides with the prior
        disagree = (own != prior_event) & (np.abs(frac - cfg.dual_fg_prior) < (1.0 - cfg.dual_thr))
        mask = testable("dual_fg") & (cnt >= cfg.dual_min) & disagree
        apply(mask, CODE_DUAL_FG)

    # ---- dual (code 3) ----
    if cfg.enable_dual:
        cnt, esum = _range_count_sum(event, usable("sct_dual"), grp, t, cfg.r_dual)
        frac = esum / np.maximum(cnt, 1)
        own = event > 0.5
        disagree = np.where(own, frac < 1.0 - cfg.dual_thr, frac > cfg.dual_thr)
        mask = testable("sct_dual") & (cnt >= cfg.dual_min) & disagree
        apply(mask, CODE_SCT_DUAL)

    # ---- fgt (code 11), ensemble-voted (reference: fgt.r:335-343) ----
    if cfg.enable_fgt:
        mu, sd = lut_pair(rcodes, runiq, cfg.fgt_ref, (1.9, 0.6))
        if cfg.fgt_len_gamma != 0.0 and nchars is not None:
            # lapse-rate analog: expectation adjusted by turn length
            # (reference fgt.r:262-264)
            from ..functions.scalars import lapse_adjust

            mu = lapse_adjust(mu, nchars, cfg.fgt_len_gamma, cfg.fgt_len_ref)
        if cfg.fgt_ensemble <= 1:
            votes = (np.abs(q - mu) > cfg.fgt_t * sd).astype(np.int32)
            needed = 1
        else:
            # member-level backgrounds (reference fgt.r:335-343 runs the test
            # once per first-guess member): mu_k = mu + sd*spread*u_k with
            # deterministic draws u_k in [-1, 1]; majority vote
            draws = np.linspace(-1.0, 1.0, cfg.fgt_ensemble)
            votes = sum(
                (np.abs(q - (mu + sd * cfg.fgt_member_spread * u)) > cfg.fgt_t * sd).astype(np.int32)
                for u in draws
            )
            needed = (cfg.fgt_ensemble + 1) // 2
        mask = testable("fgt") & (votes >= needed)
        apply(mask, CODE_FGT)

    # ---- buddy (code 10), iterate to convergence; priority-restricted
    # first pass (reference: buddy.r:64,112-115,142 — round 1 compares a row
    # only against buddies of >= its own priority) ----
    if cfg.enable_buddy:
        from ..functions.scalars import boxcox

        prio = lut(rcodes, runiq, cfg.prio, 0, np.int32) if cfg.prio else None
        # optional Box-Cox symmetrization of the checked value
        # (reference buddy.r:87-93)
        bq = boxcox(q, cfg.buddy_boxcox) if cfg.buddy_boxcox is not None else q
        # multi-test vectors: N sub-tests per pass, flags updating between
        # them (reference buddy.r:32-52); scalar params = single test
        btests = cfg.buddy_tests or ((cfg.r_buddy, cfg.buddy_tpos, cfg.buddy_tneg, cfg.buddy_min),)
        # convergence is tracked PER WINDOW (grp): a window with no new flags
        # in a pass is frozen — otherwise iteration count (and thus the
        # pass-indexed prio rule) would depend on which windows share a
        # bucket, making results partitioning-dependent; the serial oracle
        # iterates per window. Parallel mode = exactly one pass.
        n_grps = int(grp.max()) + 1 if n else 0
        active = np.ones(n_grps, dtype=bool)
        for it in range(1 if parallel else cfg.buddy_iters):
            had = np.zeros(n_grps, dtype=bool)
            any_new = False
            # later passes touch only still-ACTIVE windows (convergence is
            # per window, so selecting whole windows keeps neighbourhoods
            # intact; rows are grp-sorted). This makes pass 2+ nearly free —
            # the matrices/medians are the conv stage's dominant cost.
            sel = None if it == 0 else np.flatnonzero(active[grp])
            if sel is not None and len(sel) == 0:
                break
            for (br, btpos, btneg, bmin) in btests:
                ok = usable("buddy")
                if sel is None:
                    s_q, s_ok, s_grp, s_t = bq, ok, grp, t
                else:
                    s_q, s_ok, s_grp, s_t = bq[sel], ok[sel], grp[sel], t[sel]
                m = _neighbour_matrix(s_q, s_ok, s_grp, s_t, br, dup)
                if it == 0 and prio is not None:
                    pm = _sliding(np.where(ok, prio, -(2**30)).astype(np.float64), _pos_radius(br, dup, n))
                    m = np.where(pm >= prio[:, None], m, np.nan)
                z, cnt, _, med = _robust_z(s_q, m, cfg.sigma_min)
                tst = testable("buddy") if sel is None else testable("buddy")[sel]
                mask = tst & (cnt >= bmin) & ((z > btpos) | (z < -btneg))
                if cfg.buddy_adm_delta is not None:
                    # admissible VALUE band around the background (reference
                    # buddy.r:69-83, RR-style asymmetric clamp at 0): only
                    # deviations outside it are flaggable
                    half = np.maximum(cfg.buddy_adm_delta, cfg.buddy_adm_fact * np.abs(med))
                    lo = np.maximum(np.nan_to_num(med) - half, 0.0)
                    hi = np.nan_to_num(med) + half
                    mask &= (s_q < lo) | (s_q > hi)
                if mask.any():
                    any_new = True
                    gmask = mask if sel is None else np.zeros(n, dtype=bool)
                    if sel is not None:
                        gmask[sel[mask]] = True
                    hit = apply(gmask, CODE_BUDDY)
                    had[grp[hit]] = True
            if not any_new:
                break
            active &= had

    # ---- sct_fg (code 2, optional; reference: sct_fg_resistant.r:136-163 —
    # SCT with the external field as background): deviation from the
    # broadcast first-guess centre, normalized by the LOCAL robust spread ----
    if cfg.enable_sct_fg:
        mu, _ = lut_pair(rcodes, runiq, cfg.fgt_ref, (1.9, 0.6))
        n_grps = int(grp.max()) + 1 if n else 0
        active = np.ones(n_grps, dtype=bool)
        for _ in range(1 if parallel else cfg.sct_iters):
            m = _neighbour_matrix(q, usable("sct_fg"), grp, t, cfg.r_sct, dup)
            med, cnt = _nanmed(m)
            mad, _ = _nanmed(np.abs(m - med[:, None]))
            sigma = np.maximum(1.4826 * np.nan_to_num(mad), cfg.sigma_min)
            z = (q - mu) / sigma
            mask = testable("sct_fg") & active[grp] & (cnt >= cfg.sct_min) & (np.abs(z) > cfg.sct_fg_t)
            if not mask.any():
                break
            hit = apply(mask, CODE_SCT_FG)
            had = np.zeros(n_grps, dtype=bool)
            had[grp[hit]] = True
            active &= had

    # ---- sct (code 1), iterate; keep sctpog (+ corep, the coefficient-of-
    # representativeness analog: z² · eps2/(1+eps2), reference
    # sct_resistant.r:158-188 / read_data_to_check.r:281-290) ----
    if cfg.enable_sct:
        # per-role obs-to-background error-ratio weight w = eps2/(1+eps2)
        eps2 = lut(rcodes, runiq, cfg.sct_eps2, cfg.sct_eps2_default)
        ew = eps2 / (1.0 + eps2)
        stests = cfg.sct_tests or ((cfg.r_sct, cfg.sct_t, cfg.sct_min),)
        n_grps = int(grp.max()) + 1 if n else 0
        active = np.ones(n_grps, dtype=bool)
        for it in range(1 if parallel else cfg.sct_iters):
            had = np.zeros(n_grps, dtype=bool)
            any_new = False
            sel = None if it == 0 else np.flatnonzero(active[grp])
            if sel is not None and len(sel) == 0:
                break
            for (sr, st, smin) in stests:
                ok = usable("sct")
                if sel is None:
                    s_q, s_ok, s_grp, s_t, s_w = q, ok, grp, t, ew
                else:
                    s_q, s_ok, s_grp, s_t, s_w = q[sel], ok[sel], grp[sel], t[sel], ew[sel]
                if cfg.sct_background == "trend":
                    z, cnt = _trend_z(s_q, s_ok, s_grp, s_t, sr, dup, cfg.sigma_min)
                elif cfg.sct_adaptive_k:
                    m, adt = _neighbour_matrix(s_q, s_ok, s_grp, s_t, sr, dup, return_dt=True)
                    m = _adaptive_restrict(m, adt, cfg.sct_adaptive_k, cfg.sct_min_radius, sr)
                    z, cnt, _, _ = _robust_z(s_q, m, cfg.sigma_min)
                else:
                    m = _neighbour_matrix(s_q, s_ok, s_grp, s_t, sr, dup)
                    z, cnt, _, _ = _robust_z(s_q, m, cfg.sigma_min)
                tst = testable("sct") if sel is None else testable("sct")[sel]
                judged = tst & (cnt >= smin)
                # pog: the test statistic (z² unweighted; OI-shrunk z²·w when
                # sct_weighted); corep always carries z²·w for judged rows
                pog = (z * z) * s_w if cfg.sct_weighted else z * z
                if sel is None:
                    sctpog = np.where(judged, pog, sctpog)
                    corep = np.where(judged, (z * z) * s_w, corep)
                else:
                    upd = sel[judged]
                    sctpog[upd] = pog[judged]
                    corep[upd] = ((z * z) * s_w)[judged]
                if cfg.sct_weighted:
                    mask = judged & (pog > st * st)
                else:
                    mask = judged & (np.abs(z) > st)
                if mask.any():
                    any_new = True
                    gmask = mask if sel is None else np.zeros(n, dtype=bool)
                    if sel is not None:
                        gmask[sel[mask]] = True
                    hit = apply(gmask, CODE_SCT)
                    had[grp[hit]] = True
            if not any_new:
                break
            active &= had

    # ---- isolation (code 800) ----
    if cfg.enable_isolation:
        cnt, _ = _range_count_sum(np.zeros(n), usable("isolation"), grp, t, cfg.r_iso)
        mask = testable("isolation") & (cnt < cfg.n_iso)
        apply(mask, CODE_ISOLATION)

    return flags, sctpog, corep
