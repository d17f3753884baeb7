"""The flagship's one plan and the user-extension surface (SURVEY.md §2.8).

The reference runs ONE fixed sequence of checks; its config, merged from R
files over CLI defaults (reference: functions/IO/argparser.r:85-110), only
switches checks on or off (titan.r:103-269). Engine equivalent: every step
is a registered callable ``(Dataset, QCConfig) -> Dataset``, a pipeline spec
is an ordered tuple of step names, and ``flagship_spec(cfg)`` is the only
list of the flagship's steps. ``build_pipeline_from_spec`` composes a spec;
``pipelines.qc.build_qc_pipeline`` is that call on the flagship spec. Each
step is its own map: Ray Data fuses consecutive task maps, so the flagship
runs as (dedup sort) -> one fused map -> conv sort -> one fused map. Custom
checks plug in via ``register``.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from ..config import QCConfig
from ..exchange import bucket_exchange
from ..sources.reader import affine_rescale_qscore, impute_defaults, project_output
from ..stages import rowwise
from ..stages.conv import run_conv_checks_arrow, salt_batch
from ..stages.dedup import dedup_exact, dedup_near
from ..stages.scorer import score_batch, shared_model_refs
from ..stages.scrub_stage import scrub_batch

_REGISTRY: dict[str, Callable] = {}


def register(name: str):
    def deco(fn):
        _REGISTRY[name] = fn
        return fn

    return deco


def registered() -> dict[str, Callable]:
    return dict(_REGISTRY)


def _map(ds, cfg, fn, /, **kwargs):
    return ds.map_batches(partial(fn, **kwargs), batch_format="pyarrow", batch_size=cfg.batch_size)


def _check(fn):
    """A row-wise check that reads the whole config."""
    return lambda ds, cfg: _map(ds, cfg, fn, cfg=cfg)


def _dedup(ds, cfg):
    if cfg.dedup_strategy != "shuffle":
        raise ValueError(
            f"dedup_strategy={cfg.dedup_strategy!r}: the only dedup is 'shuffle' "
            "(stages.dedup.dedup_exact)"
        )
    return dedup_exact(ds)


def _conv_checks(ds, cfg, num_buckets: int = 128):
    """Salt into ``num_buckets`` conv buckets, run every conversation-local
    check (dual, fgt, buddy, sct, isolation) in ONE bucket exchange, then
    drop the shuffle helper columns."""
    from .qc import _drop_helpers  # qc imports this module

    ds = _map(ds, cfg, salt_batch, cfg=cfg, num_buckets=num_buckets)
    ds = bucket_exchange(ds, "bucket", partial(run_conv_checks_arrow, cfg=cfg))
    return _map(ds, cfg, _drop_helpers)


_REGISTRY.update(
    {
        "dedup": _dedup,
        "dedup_near": lambda ds, cfg: dedup_near(ds, threshold=cfg.dedup_near_threshold),
        "impute": lambda ds, cfg: _map(ds, cfg, impute_defaults, role_default=cfg.impute_role_default),
        "seed_lists": _check(rowwise.seed_lists),
        "metadata": _check(rowwise.metadata_check),
        "scorer": lambda ds, cfg: ds.map_batches(
            score_batch, fn_kwargs={"model_refs": shared_model_refs()},
            batch_format="pyarrow", batch_size=cfg.batch_size,
        ),
        "affine": lambda ds, cfg: _map(ds, cfg, affine_rescale_qscore, role_affine=cfg.role_affine),
        "ccrrt": _check(rowwise.ccrrt_check),
        "zdem": _check(rowwise.zdem_check),
        "plausibility": _check(rowwise.plausibility_check),
        "climatological": _check(rowwise.climatological_check),
        "conv_checks": _conv_checks,
        "final": lambda ds, cfg: _map(ds, cfg, rowwise.final_decision),
        "scrub": lambda ds, cfg: _map(ds, cfg, scrub_batch),
        "project_output": lambda ds, cfg: _map(ds, cfg, project_output),
    }
)

# reference check order (titan.r:115-263), first-flag-wins; ccrrt (301)
# runs BEFORE check_z_against_dem (902), as titan.r:150-154 before :187
_FLAGSHIP: tuple[str, ...] = (
    "dedup", "dedup_near", "impute", "seed_lists", "metadata", "scorer", "affine",
    "ccrrt", "zdem", "plausibility", "climatological", "conv_checks", "final",
    "scrub", "project_output",
)


def flagship_spec(cfg: QCConfig) -> tuple[str, ...]:
    """The flagship's ordered step names under ``cfg``: the config only
    drops the steps its six toggles switch off."""
    off = {
        "dedup": not cfg.dedup,
        "dedup_near": not cfg.dedup_near,
        "impute": cfg.impute_role_default is None,
        "affine": not cfg.role_affine,
        "ccrrt": not cfg.enable_ccrrt,
        "zdem": not cfg.enable_zdem,
    }
    return tuple(s for s in _FLAGSHIP if not off.get(s, False))


DEFAULT_SPEC: tuple[str, ...] = flagship_spec(QCConfig())


def build_pipeline_from_spec(ds, cfg, spec: tuple[str, ...] | None = None, num_buckets: int = 128):
    """Compose a pipeline from an ordered tuple of registered step names
    (default ``flagship_spec(cfg)``) — a custom check is one
    ``@register("my_check")`` away. ``num_buckets`` is the conv bucket count
    the built-in ``conv_checks`` step salts into."""
    for name in flagship_spec(cfg) if spec is None else spec:
        if name not in _REGISTRY:
            raise KeyError(f"unknown pipeline step {name!r}; registered: {sorted(_REGISTRY)}")
        step = _REGISTRY[name]
        if step is _conv_checks:
            step = partial(step, num_buckets=num_buckets)
        ds = step(ds, cfg)
    return ds
