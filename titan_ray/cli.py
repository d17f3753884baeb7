"""CLI entry point — the engine's `titan.r` analog.

`python -m titan_ray --input DIR --output DIR [--config a.json b.json ...]`

Config handling mirrors the reference's argparser (reference:
functions/IO/argparser.r:85-110 — config files merged over CLI defaults,
LATER FILES OVERRIDE EARLIER): each --config is a JSON object of QCConfig
field overrides, applied in order; unknown keys error loudly. Tuple-typed
fields accept JSON lists.

Owns its Ray session (the one place besides bench.py and the test fixture
that may init Ray — __ray_entry__ and the library never do).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .config import QCConfig


def _coerce(value, template):
    """JSON -> dataclass field shape (lists -> tuples, nested lists too)."""
    if isinstance(template, tuple) or (isinstance(value, list)):
        return tuple(_coerce(v, None) for v in value) if isinstance(value, list) else value
    return value


def load_config(paths: list[str]) -> QCConfig:
    cfg = QCConfig()
    fields = {f.name for f in dataclasses.fields(QCConfig)}
    for path in paths:
        with open(path) as f:
            overrides = json.load(f)
        if not isinstance(overrides, dict):
            raise SystemExit(f"{path}: config must be a JSON object")
        for key, val in overrides.items():
            if key not in fields:
                raise SystemExit(f"{path}: unknown QCConfig field {key!r}")
            setattr(cfg, key, _coerce(val, getattr(cfg, key)))
    return cfg


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="titan_ray",
        description="Transcript QC battery: read parquet -> score -> flag -> "
        "conversation checks -> scrub -> write parquet",
    )
    p.add_argument("--input", required=True, help="input parquet dir/file(s)")
    p.add_argument("--output", required=True, help="output parquet dir")
    p.add_argument("--config", nargs="*", default=[], help="JSON config overrides, later wins")
    p.add_argument("--num-cpus", type=int, default=None, help="local ray.init num_cpus")
    p.add_argument("--summary", action="store_true", help="print per-role flag histogram")
    args = p.parse_args(argv)

    import ray

    own_session = not ray.is_initialized()
    if own_session:
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    try:
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        import ray.data as rd

        from .pipelines.qc import build_qc_pipeline

        cfg = load_config(args.config)
        ds = rd.read_parquet(args.input)
        out = build_qc_pipeline(ds, cfg)
        if args.summary:
            from ray.data.aggregate import Count

            out.write_parquet(args.output)
            hist = (
                rd.read_parquet(args.output)
                .groupby(["role", "dqcflag"])
                .aggregate(Count(alias_name="n_turns"))
                .to_pandas()
                .sort_values(["role", "dqcflag"])
            )
            # final_decision.r:12-47 summary-print analog
            print(hist.to_string(index=False))
        else:
            out.write_parquet(args.output)
        return 0
    finally:
        if own_session:  # never tear down an embedding process's session
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
