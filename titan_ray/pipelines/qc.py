"""The flagship QC pipeline — reference: titan.r:103-269, recast Ray-Data-first.

One Dataset, streaming end-to-end; the only all-to-all exchanges are the
optional dedup bucket shuffle and the single conv-bucket shuffle feeding ALL
conversation-local checks (SURVEY.md §3.4). Both are
``exchange.bucket_exchange``: a sort on the bucket column, then ONE
vectorized kernel call per shuffled block (dedup_bucket_arrow,
run_conv_checks_arrow), not one per bucket. Stage order = reference check
order (titan.r:115-263), first-flag-wins.
"""

from __future__ import annotations

from functools import partial

import pyarrow as pa

from ..config import QCConfig
from ..exchange import bucket_exchange
from ..stages.conv import run_conv_checks_arrow, salt_batch
from ..stages.dedup import dedup_broadcast, dedup_exact, dedup_near
from ..stages.rowwise import (
    ccrrt_check,
    climatological_check,
    final_decision,
    metadata_check,
    plausibility_check,
    seed_lists,
    zdem_check,
)
from ..stages.scorer import cached_scorer, shared_model_refs
from ..stages.scrub_stage import scrub_batch
from ..sources.reader import affine_rescale_qscore, impute_defaults, project_output
from ..sources.reader import read_parquet_clean

HELPER_COLS = ("conv_key", "is_core", "bucket")


def _drop_helpers(batch: pa.Table) -> pa.Table:
    keep = [c for c in batch.column_names if c not in HELPER_COLS]
    return batch.select(keep)


class ScoreChain:
    """Scorer + post-score rowwise checks + conv-bucket salting in ONE
    callable, so the flagship runs them as one map feeding the conv shuffle.

    Cheap to build: the Scorer comes from the per-process cache
    (stages.scorer.cached_scorer), so the flagship builds one ScoreChain per
    batch inside a plain task map (``score_chain``). No actor pool: task
    workers are reused across executions, hold no CPU slot between them, and
    the flagship runs at any CPU count, one included."""

    def __init__(self, cfg: QCConfig, num_buckets: int, model_refs=None):
        # with model_refs, zero-copy views of the ONE node-shared plasma copy
        # (see stages.scorer.shared_model_refs)
        self.scorer = cached_scorer(model_refs)
        self.cfg = cfg
        self.num_buckets = num_buckets

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        b = self.scorer(batch)
        if cfg.role_affine:
            b = affine_rescale_qscore(b, role_affine=cfg.role_affine)
        # ccrrt (301) runs BEFORE check_z_against_dem (902), matching the
        # reference order (titan.r:150-154 before titan.r:187)
        if cfg.enable_ccrrt:
            b = ccrrt_check(b, cfg=cfg)
        if cfg.enable_zdem:
            b = zdem_check(b, cfg=cfg)
        b = plausibility_check(b, cfg=cfg)
        b = climatological_check(b, cfg=cfg)
        return salt_batch(b, cfg=cfg, num_buckets=self.num_buckets)


def score_chain(batch: pa.Table, cfg: QCConfig, num_buckets: int, model_refs=None) -> pa.Table:
    return ScoreChain(cfg, num_buckets, model_refs)(batch)


def post_conv(batch: pa.Table) -> pa.Table:
    """Everything after the conv shuffle, stateless: drop the shuffle
    helpers -> final decision -> scrub -> output projection."""
    return project_output(scrub_batch(final_decision(_drop_helpers(batch))))


def build_qc_pipeline(ds, cfg: QCConfig | None = None, num_buckets: int = 128):
    """ds: Dataset with the transcript input schema (extra columns pass
    through untouched — the reference's dataopt passthrough,
    write_output.r:41-45). Returns the lazy scored+flagged+scrubbed Dataset."""
    cfg = cfg or QCConfig()

    if cfg.dedup_near:
        # dedup_near consumes the upstream dataset three times (candidates,
        # drop set, final filter). dedup_broadcast's residual cross-batch
        # multi-keep is batching-dependent, so its output could differ
        # between those executions (round-2 advice item 3): force the
        # deterministic full-row shuffle and materialize ONCE so all three
        # passes read the same blocks instead of recomputing the prefix.
        if cfg.dedup:
            ds = dedup_exact(ds)
        ds = ds.materialize()
        ds = dedup_near(ds, threshold=cfg.dedup_near_threshold)
    elif cfg.dedup:
        ds = dedup_broadcast(ds) if cfg.dedup_strategy == "broadcast" else dedup_exact(ds)

    if cfg.impute_role_default is not None:
        ds = ds.map_batches(
            partial(impute_defaults, role_default=cfg.impute_role_default),
            batch_format="pyarrow", batch_size=cfg.batch_size,
        )
    ds = ds.map_batches(partial(seed_lists, cfg=cfg), batch_format="pyarrow", batch_size=cfg.batch_size)
    ds = ds.map_batches(partial(metadata_check, cfg=cfg), batch_format="pyarrow", batch_size=cfg.batch_size)
    # ONE map: score -> affine -> (ccrrt/zdem) -> plausibility ->
    # climatological -> salt (see ScoreChain) feeding straight into the ONE
    # conversation-local shuffle (dual, fgt, buddy, sct, isolation)
    ds = ds.map_batches(
        score_chain,
        fn_kwargs={"cfg": cfg, "num_buckets": num_buckets, "model_refs": shared_model_refs()},
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
    )
    ds = bucket_exchange(ds, "bucket", partial(run_conv_checks_arrow, cfg=cfg))
    ds = ds.map_batches(post_conv, batch_format="pyarrow", batch_size=cfg.batch_size)
    return ds


def run_qc(input_path: str, output_path: str | None = None, cfg: QCConfig | None = None, **read_kwargs):
    """Read parquet → QC → (optionally) write partitioned parquet."""
    import ray.data as rd

    ds = read_parquet_clean(input_path, **read_kwargs)
    out = build_qc_pipeline(ds, cfg)
    if output_path is not None:
        out.write_parquet(output_path)
        return None
    return out
