"""The flagship QC pipeline — reference: titan.r:103-269, recast Ray-Data-first.

One Dataset, streaming end-to-end. Its steps are listed once, in
``registry.flagship_spec``; ``build_qc_pipeline`` composes them. The only
all-to-all exchanges are the optional dedup bucket shuffle and the single
conv-bucket shuffle feeding ALL conversation-local checks (SURVEY.md §3.4).
Both are ``exchange.bucket_exchange``: a sort on the bucket column, then ONE
vectorized kernel call per shuffled block (dedup_bucket_arrow,
run_conv_checks_arrow), not one per bucket. Ray Data fuses the task maps
between them, so the plan is (dedup sort) -> one map -> conv sort -> one
map. Stage order = reference check order (titan.r:115-263), first-flag-wins.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import QCConfig
from ..stages.conv import salt_batch
from ..stages.rowwise import ccrrt_check, climatological_check, plausibility_check, zdem_check
from ..stages.scorer import cached_scorer
from ..sources.reader import affine_rescale_qscore, read_parquet_clean
from .registry import build_pipeline_from_spec

HELPER_COLS = ("conv_key", "is_core", "bucket")


def _drop_helpers(batch: pa.Table) -> pa.Table:
    keep = [c for c in batch.column_names if c not in HELPER_COLS]
    return batch.select(keep)


class ScoreChain:
    """Scorer + post-score rowwise checks + conv-bucket salting in ONE
    callable: the flagship's steps from ``scorer`` through the salt of
    ``conv_checks`` applied to one batch, for callers that want a salted
    batch without a Dataset. The engine runs these as separate registry
    steps, which Ray fuses into one task map.

    Cheap to build: the Scorer comes from the per-process cache
    (stages.scorer.cached_scorer)."""

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


def build_qc_pipeline(ds, cfg: QCConfig | None = None, num_buckets: int = 128):
    """ds: Dataset with the transcript input schema (extra columns pass
    through untouched — the reference's dataopt passthrough,
    write_output.r:41-45). Returns the lazy scored+flagged+scrubbed Dataset
    of ``registry.flagship_spec(cfg)``, salted into ``num_buckets`` conv
    buckets."""
    return build_pipeline_from_spec(ds, cfg or QCConfig(), num_buckets=num_buckets)


def run_qc(input_path: str, output_path: str | None = None, cfg: QCConfig | None = None, **read_kwargs):
    """Read parquet → QC → (optionally) write partitioned parquet."""
    ds = read_parquet_clean(input_path, **read_kwargs)
    out = build_qc_pipeline(ds, cfg)
    if output_path is not None:
        out.write_parquet(output_path)
        return None
    return out
