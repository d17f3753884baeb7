"""Typed pipeline configuration — the engine's argparser analog.

The reference merges ~200 CLI flags with R config files
(reference: functions/IO/argparser.r:85-110); here a dataclass with
per-role `doit` vectors (reference: functions/IO/argparser_doit.r:4 —
0 = invisible, 1 = used+testable, 2 = used as buddy but never flagged)
and per-language climatological bands (the month-vector analog,
reference: functions/IO/argparser_climatcheck.r:2-11).
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _default_clim_bands() -> dict[str, tuple[float, float]]:
    # per-language perplexity bands under the English-trained char LM —
    # the analog of TITAN's month-indexed climatological min/max vectors.
    return {
        "en": (1.2, 150.0),
        "de": (1.2, 2000.0),
        "fr": (1.2, 2000.0),
        "es": (1.2, 2000.0),
        "it": (1.2, 2000.0),
        "pt": (1.2, 2000.0),
        "nl": (1.2, 2000.0),
        "ru": (1.2, 50000.0),
        "zh": (1.2, 50000.0),
        "und": (0.0, float("inf")),
    }


def _default_fgt_ref() -> dict[str, tuple[float, float]]:
    # first-guess expectation per role: (mean qscore, sd) — broadcast lookup,
    # the analog of the external background field (reference:
    # functions/checks/fgt.r:262-289).
    return {
        "user": (1.9, 0.6),
        "assistant": (1.9, 0.6),
        "system": (1.9, 0.6),
        "tool": (2.2, 0.8),
    }


@dataclass
class QCConfig:
    # ---- metadata check (901; reference: metadata_check.r:20-34) ----
    min_chars: int = 1
    max_chars: int = 32_768

    # ---- plausibility (501; reference: plausibility_test.r:7-11) ----
    conf_min: float = 0.30
    ppl_hard_max: float = 1e6

    # ---- climatological (502) ----
    clim_bands: dict[str, tuple[float, float]] = field(default_factory=_default_clim_bands)

    # ---- conversation-local checks ----
    window: int = 512          # salting window W (mega-conversation split)
    halo: int = 16             # overlap; must be >= every radius below
    r_buddy: int = 8           # neighbour radius in turn positions
    buddy_tpos: float = 3.0
    buddy_tneg: float = 3.0
    buddy_min: int = 3         # min usable neighbours to judge
    buddy_iters: int = 5       # convergence passes (reference i.buddy=10 cap)
    sigma_min: float = 0.35    # MAD floor for the z denominator
    # multi-test vectors (reference buddy.r:32-52: N sub-tests per check,
    # each with its own radius/thresholds, run IN ORDER inside every
    # convergence pass — flags update between sub-tests). Empty = use the
    # scalar params above as the single test.
    buddy_tests: tuple[tuple[int, float, float, int], ...] = ()  # (r, tpos, tneg, min)
    # Box-Cox transform of qscore before buddy deviations (reference
    # buddy.r:87-93, statistics_util.r:101-107; lambda=0.5 default there)
    buddy_boxcox: float | None = None
    # admissible deviation band in VALUE space (reference buddy.r:69-83):
    # a row is flaggable only if its (transformed) qscore falls OUTSIDE
    # [max(bg - max(delta, fact*bg), 0), bg + max(delta, fact*bg)] around
    # the local background — the RR-style asymmetric clamped-at-0 band.
    buddy_adm_delta: float | None = None
    buddy_adm_fact: float = 0.0
    r_sct: int = 12
    sct_t: float = 3.5
    sct_min: int = 5
    sct_iters: int = 5
    sct_tests: tuple[tuple[int, float, int], ...] = ()  # (r, t, min)
    # SCT optimal-interpolation machinery (reference sct_resistant.r:158-188
    # passes a per-provider obs-to-background error ratio eps2 into the OI
    # solve; argparser_sct.r --eps2.sct, default 0.5). Scalar-OI analog at
    # the obs location: the analysis shrinks the deviation by
    # w = eps2/(1+eps2); corep (coefficient of representativeness,
    # read_data_to_check.r:281-290, rounded to 5 at write_output.r:67)
    # = cvres*ares/sigma^2 = z^2 * w, ALWAYS emitted for judged rows.
    # sct_weighted=True additionally uses pog = z^2 * w as the test
    # statistic (flag pog > sct_t^2) instead of |z| > sct_t.
    sct_eps2: dict[str, float] = field(default_factory=dict)  # per-role
    sct_eps2_default: float = 0.5
    sct_weighted: bool = False
    # adaptive neighbourhood (reference argparser_sct.r
    # --kth_closest_obs_horizontal_scale.sct with min/max_horizontal_scale
    # clamps): restrict each row's sct window to the distance of its
    # kth-closest usable neighbour, clamped to [sct_min_radius, r_sct].
    # None = fixed radius (default). Median background only.
    sct_adaptive_k: int | None = None
    sct_min_radius: int = 2
    # SCT background (reference argparser_sct.r:13-16 background_elab_type):
    # "median" = MedianOuterCircle analog; "trend" = Theil-Sen robust linear
    # fit of qscore vs turn_idx over the neighbourhood (VerticalProfile/
    # TheilSen analog) — catches drifting conversations the flat median
    # background misses.
    sct_background: str = "median"
    r_dual: int = 8
    dual_thr: float = 0.75     # required agreeing-neighbour fraction
    dual_min: int = 4
    r_iso: int = 10
    n_iso: int = 2             # min usable neighbours (reference default n.iso=10
                               # at station scale; 2 at conversation scale)

    # ---- fgt (11) ----
    fgt_ref: dict[str, tuple[float, float]] = field(default_factory=_default_fgt_ref)
    fgt_t: float = 8.0
    # lapse-rate analog (reference fgt.r:262-264: adjust the background for
    # elevation): adjust the role expectation by turn length before the
    # deviation test — mu' = mu + gamma * (n_chars - len_ref)
    fgt_len_gamma: float = 0.0
    fgt_len_ref: float = 200.0

    # ---- conversation-check execution mode ----
    # "cascade" (default): reference semantics — checks run in order
    # dual -> fgt -> buddy -> sct -> isolation, each seeing the flags of the
    # previous ones, buddy/sct iterating to convergence (titan.r:209-257).
    # "parallel": every check's mask is computed from the SAME pre-conv flag
    # state in a single pass, then applied first-flag-wins in reference
    # order. Deterministic, partition-invariant, and expressible in ANSI SQL
    # (the driver's DuckDB oracle mode); cascade remains the flagship mode.
    conv_mode: str = "cascade"

    # per-conv-check toggles (reference boolean flags, titan.r:140-256)
    enable_dual: bool = True
    enable_fgt: bool = True
    enable_buddy: bool = True
    enable_sct: bool = True
    enable_isolation: bool = True

    # ---- optional checks (reference toggles, titan.r:140-256) ----
    enable_zdem: bool = False     # 902: stated metadata vs derived (dem analog)
    enable_ccrrt: bool = False    # 301: cross-signal tool-output plausibility
    ccrrt_tmax: float = 3.0       # qscore cap for role=='tool' rows
    enable_sct_fg: bool = False   # 2: SCT vs external (first-guess) centre
    sct_fg_t: float = 4.0
    enable_dual_fg: bool = False  # 4: dichotomous check vs external prior
    dual_fg_prior: float = 0.0    # expected event rate (non-English fraction)

    # ---- doit: per-check per-role {0,1,2}; missing => 1 ----
    doit: dict[str, dict[str, int]] = field(default_factory=dict)
    # per-role priority (reference: buddy.r:64,112-115 — in the FIRST buddy
    # pass a row is only compared against buddies of >= its own priority);
    # missing => 0 (all equal => no restriction)
    prio: dict[str, int] = field(default_factory=dict)
    # fgt ensemble voting (reference: fgt.r:335-343 — the test runs once per
    # first-guess MEMBER, each with its own background field, and flags where
    # >= half the members flag). Member-level analog: member k's background
    # is mu_k = mu + sd * fgt_member_spread * u_k with deterministic draws
    # u_k = linspace(-1, 1, N) (distinct per-member (mu, sd) backgrounds, not
    # perturbed thresholds); ensemble=1 => u=[0] => exactly the single test.
    fgt_ensemble: int = 1
    fgt_member_spread: float = 0.25

    # ---- source-side transforms (read_data_to_check analogs) ----
    role_affine: dict[str, tuple[float, float]] = field(default_factory=dict)  # qscore = off + fac*qscore per role
    impute_role_default: str | None = None   # fill null role before metadata (read_dem fill analog)

    # ---- lists / scrub ----
    keeplist_col: str | None = "is_keeplist"
    blacklist_terms: tuple[str, ...] = ("BLOCKLISTED_TOKEN", "DO_NOT_TRAIN")
    # positionally-keyed lists (reference read_data_to_check.r:99-119 —
    # exact lon/lat epsilon-join): broadcast (conv_id, turn_idx) sets;
    # matching rows get 999 / 990 at seed time
    positional_blacklist: tuple[tuple[str, int], ...] = ()
    positional_keeplist: tuple[tuple[str, int], ...] = ()

    # ---- dedup at read (reference: read_data_to_check.r:121-143, opt-in) ----
    dedup: bool = False
    # NEAR-duplicate removal at read (the epsilon-radius analog of the
    # reference's duplicate_check): MinHash/LSH + exact-Jaccard verify over
    # normalized turn text; keeps the first-ranked copy of each near-pair
    dedup_near: bool = False
    dedup_near_threshold: float = 0.5
    # the one dedup is "shuffle" (stages.dedup.dedup_exact, a full-row
    # hash-bucket shuffle); the flagship's dedup step rejects any other
    # value. Kept so existing configs still load.
    dedup_strategy: str = "shuffle"

    # ---- execution knobs ----
    batch_size: int = 4096
    # NOT read by the engine: the scorer and scrub stages are plain task maps
    # (per-process model cache, stages/scorer.cached_scorer) that Ray sizes
    # to the free CPUs. Kept so existing configs and callers still load.
    scorer_concurrency: int | tuple[int, int] = (1, 8)

    def doit_for(self, check: str, roles) -> "object":
        """Vector of doit values for ``roles`` (numpy object/str array) —
        factorized lookup over the unique role set, no per-row dict .get."""
        import numpy as np
        import pandas as pd

        table = self.doit.get(check, {})
        if not table:
            return np.ones(len(roles), dtype=np.int8)
        codes, uniq = pd.factorize(np.asarray(roles, dtype=object))
        vals = np.asarray([table.get(u, 1) for u in uniq], dtype=np.int8)
        if not len(vals):
            return np.ones(len(roles), dtype=np.int8)
        # factorize marks null roles as -1 -> default doit 1
        return np.where(codes >= 0, vals[np.maximum(codes, 0)], np.int8(1))
