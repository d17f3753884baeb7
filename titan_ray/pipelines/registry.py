"""User-extension surface: a typed, ordered check registry (SURVEY.md §2.8).

The reference's extension surface is config-driven R files merged over CLI
defaults (reference: functions/IO/argparser.r:85-110) with per-check toggles
(titan.r:140-256). Engine equivalent: checks register as named callables
``(Dataset, QCConfig) -> Dataset``; a pipeline spec is an ordered list of
step names (+ per-step overrides); custom checks plug in via ``register``.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from typing import Any

_REGISTRY: dict[str, Callable] = {}


def register(name: str):
    def deco(fn):
        _REGISTRY[name] = fn
        return fn

    return deco


def registered() -> dict[str, Callable]:
    _ensure_builtin()
    return dict(_REGISTRY)


def _ensure_builtin() -> None:
    if "metadata" in _REGISTRY:
        return
    from ..exchange import bucket_exchange
    from ..stages import rowwise
    from ..stages.conv import run_conv_checks_arrow, salt_batch
    from ..stages.dedup import dedup_broadcast, dedup_exact, dedup_near
    from ..stages.scorer import score_batch, shared_model_refs
    from ..stages.scrub_stage import scrub_batch
    from .qc import _drop_helpers
    from ..sources.reader import affine_rescale_qscore, impute_defaults, project_output

    def _map(fn):
        def step(ds, cfg):
            return ds.map_batches(partial(fn, cfg=cfg), batch_format="pyarrow", batch_size=cfg.batch_size)

        return step

    _REGISTRY.update(
        {
            "dedup": lambda ds, cfg: (
                dedup_broadcast(ds) if cfg.dedup_strategy == "broadcast" else dedup_exact(ds)
            ),
            "dedup_near": lambda ds, cfg: dedup_near(ds, threshold=cfg.dedup_near_threshold),
            "impute": lambda ds, cfg: ds.map_batches(
                partial(impute_defaults, role_default=cfg.impute_role_default),
                batch_format="pyarrow", batch_size=cfg.batch_size,
            ),
            "seed_lists": _map(rowwise.seed_lists),
            "metadata": _map(rowwise.metadata_check),
            "scorer": lambda ds, cfg: ds.map_batches(
                score_batch, fn_kwargs={"model_refs": shared_model_refs()},
                batch_format="pyarrow", batch_size=cfg.batch_size,
            ),
            "affine": lambda ds, cfg: ds.map_batches(
                partial(affine_rescale_qscore, role_affine=cfg.role_affine),
                batch_format="pyarrow", batch_size=cfg.batch_size,
            ),
            "zdem": _map(rowwise.zdem_check),
            "ccrrt": _map(rowwise.ccrrt_check),
            "plausibility": _map(rowwise.plausibility_check),
            "climatological": _map(rowwise.climatological_check),
            "conv_checks": lambda ds, cfg: bucket_exchange(
                ds.map_batches(
                    partial(salt_batch, cfg=cfg, num_buckets=128),
                    batch_format="pyarrow", batch_size=cfg.batch_size,
                ),
                "bucket", partial(run_conv_checks_arrow, cfg=cfg),
            ).map_batches(_drop_helpers, batch_format="pyarrow", batch_size=cfg.batch_size),
            "final": lambda ds, cfg: ds.map_batches(
                rowwise.final_decision, batch_format="pyarrow", batch_size=cfg.batch_size
            ),
            "scrub": lambda ds, cfg: ds.map_batches(
                scrub_batch, batch_format="pyarrow", batch_size=cfg.batch_size,
            ),
            "project_output": lambda ds, cfg: ds.map_batches(
                project_output, batch_format="pyarrow", batch_size=cfg.batch_size
            ),
        }
    )


DEFAULT_SPEC: tuple[str, ...] = (
    "seed_lists", "metadata", "scorer", "plausibility", "climatological",
    "conv_checks", "final", "scrub", "project_output",
)


def build_pipeline_from_spec(ds, cfg, spec: tuple[str, ...] = DEFAULT_SPEC):
    """Compose a pipeline from an ordered list of registered step names —
    a custom check is one ``@register("my_check")`` away."""
    _ensure_builtin()
    for name in spec:
        if name not in _REGISTRY:
            raise KeyError(f"unknown pipeline step {name!r}; registered: {sorted(_REGISTRY)}")
        ds = _REGISTRY[name](ds, cfg)
    return ds
