"""The traced run: per-layer spans and counts, taken from benchmark code.

The engine carries no instrumentation. Instead the traced execution composes
the flagship the way ``titan_ray.pipelines.qc.build_qc_pipeline`` does, with
a ``materialize()`` and a span around each layer (Ray fuses the dedup group
stage, the row-wise maps and the ScoreChain actor into one operator, and its
stats are empty after ``write_parquet``, so its own summary cannot attribute
time). A serial pass then times each layer's public functions in-process on
the same rows and takes the per-layer counts at the same boundaries. Both
compositions must reproduce the untraced output digest, so drift between
this mirror and ``build_qc_pipeline`` fails the run.

Spans carry name, start, end and parent; they stay in memory and are
written once, at the end. A layer's self time is its duration minus the part
its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DEDUP_BUCKETS = 256  # dedup_exact's default
NUM_BUCKETS = 128    # build_qc_pipeline's and run_qc_resumable's default

# Time inside the traced execution not covered by any layer span (the root
# span's self time) may be at most this share of the traced wall time.
UNATTRIBUTED_TOLERANCE = 0.05

TRANSCRIPT_LAYERS = (
    "reader.wall_s", "reader.rows", "reader.bytes",
    "dedup.wall_s", "dedup.kernel_s", "dedup.rows_dropped", "dedup.shuffled_bytes", "dedup.useful_ratio",
    "rowwise.kernel_s", "rowwise.rows_flagged",
    "scorer.wall_s", "scorer.kernel_s", "scorer.chars",
    "conv.shuffle_wall_s", "conv.kernel_s", "conv.windows", "conv.halo_rows", "conv.halo_ratio",
    "conv.bucket_skew", "conv.shuffled_bytes",
    "scrub.wall_s", "scrub.kernel_s", "scrub.rows_rewritten",
    "write.wall_s", "write.bytes",
    "lineage.partitions", "lineage.partition_wall_s", "lineage.self_s", "lineage.skipped",
    "lineage.resume_s",
)
TRACE_TOTALS = ("trace.wall_s", "trace.unattributed_s", "orchestration_s", "tracing_overhead_s")
# the untimed step before each execution (see harness.settle): CPU slots that
# finished executions' actors still hold (mean over the run's executions)
# and the seconds spent collecting them
SETTLE = ("settle.slots_held", "settle.wait_s")


def per_layer_names(doc_ops) -> list[str]:
    docops = [f"docops.{op}.{m}" for op in doc_ops for m in ("wall_s", "rows_out")]
    return [*TRANSCRIPT_LAYERS, *docops, *TRACE_TOTALS, *SETTLE]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_skew")):
        return "ratio"
    if name.endswith("chars"):
        return "chars"
    return "count"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add_parent(self, name: str, start: float, end: float, parent: int) -> dict:
        """Insert a span known only after the fact (a lineage partition,
        bounded by manifest timestamps) and adopt the spans of ``parent``
        whose midpoint falls inside it."""
        rec = {"id": len(self.spans), "name": name, "parent": parent, "start": start, "end": end}
        for s in self.spans:
            if s["parent"] == parent and start <= (s["start"] + s["end"]) / 2 < end:
                s["parent"] = rec["id"]
        self.spans.append(rec)
        return rec

    def self_time(self, rec: dict) -> float:
        kids = sorted((max(s["start"], rec["start"]), min(s["end"], rec["end"]))
                      for s in self.spans if s["parent"] == rec["id"])
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in kids:
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        return (rec["end"] - rec["start"]) - covered

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def dump(self, path: Path, extra: dict) -> None:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [{**s, "start": s["start"] - t0, "end": s["end"] - t0,
                  "self_s": self.self_time(s)} for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": spans}, indent=1))


# ---------------------------------------------------------------------------
# staged transcript composition (mirror of build_qc_pipeline)
# ---------------------------------------------------------------------------

def check_mirrored_config(cfg) -> None:
    """The staged mirror covers the configuration the benchmark runs."""
    if (not cfg.dedup or cfg.dedup_near or cfg.dedup_strategy != "shuffle"
            or cfg.impute_role_default is not None or cfg.role_affine
            or cfg.enable_ccrrt or cfg.enable_zdem):
        raise ValueError("the traced composition mirrors only the benchmark's QCConfig")


def staged_qc(ds, cfg, num_buckets: int, tr: Tracer, captured: list):
    """build_qc_pipeline, one materialized layer at a time."""
    from functools import partial

    from titan_ray.pipelines.qc import ScoreChain, _drop_helpers
    from titan_ray.sources.reader import project_output
    from titan_ray.stages.conv import run_conv_checks_arrow
    from titan_ray.stages.dedup import dedup_exact
    from titan_ray.stages.rowwise import final_decision, metadata_check, seed_lists
    from titan_ray.stages.scorer import shared_model_refs
    from titan_ray.stages.scrub_stage import ScrubStage

    check_mirrored_config(cfg)
    bs = cfg.batch_size
    with tr.span("reader"):
        ds = ds.materialize()
    captured.append(ds)
    with tr.span("dedup"):
        ds = dedup_exact(ds).materialize()
    with tr.span("rowwise"):
        ds = (ds.map_batches(partial(seed_lists, cfg=cfg), batch_format="pyarrow", batch_size=bs)
              .map_batches(partial(metadata_check, cfg=cfg), batch_format="pyarrow", batch_size=bs)
              .materialize())
    with tr.span("scorer"):
        ds = ds.map_batches(
            ScoreChain,
            fn_constructor_kwargs={"cfg": cfg, "num_buckets": num_buckets,
                                   "model_refs": shared_model_refs()},
            batch_format="pyarrow", batch_size=bs, concurrency=cfg.scorer_concurrency,
        ).materialize()
    with tr.span("conv"):
        ds = (ds.groupby("bucket").map_groups(partial(run_conv_checks_arrow, cfg=cfg), batch_format="pyarrow")
              .map_batches(_drop_helpers, batch_format="pyarrow", batch_size=bs)
              .materialize())
    with tr.span("rowwise"):
        ds = ds.map_batches(final_decision, batch_format="pyarrow", batch_size=bs).materialize()
    with tr.span("scrub"):
        ds = (ds.map_batches(ScrubStage, batch_format="pyarrow", batch_size=bs,
                             concurrency=cfg.scorer_concurrency)
              .map_batches(project_output, batch_format="pyarrow", batch_size=bs)
              .materialize())
    return ds


def traced_write(ds, tr: Tracer):
    """Give a materialized dataset a write_parquet that records a span."""
    plain = ds.write_parquet

    def write_parquet(path, *args, **kwargs):
        with tr.span("write"):
            return plain(path, *args, **kwargs)

    ds.write_parquet = write_parquet
    return ds


# ---------------------------------------------------------------------------
# serial pass: each layer's functions in-process on the same rows
# ---------------------------------------------------------------------------

def _batches(t: pa.Table, size: int):
    return [t.slice(i, size) for i in range(0, t.num_rows, size)]


def _groups(t: pa.Table, col: str) -> list[pa.Table]:
    keys = t[col].to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    t, keys = t.take(pa.array(order)), keys[order]
    cuts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1), len(keys)]
    return [t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])]


def _concat(parts: list[pa.Table]) -> pa.Table:
    return pa.concat_tables(parts, promote_options="default")


class SerialPass:
    """Accumulates kernel seconds and counts over one or more partitions."""

    def __init__(self, cfg, num_buckets: int):
        from titan_ray.pipelines.qc import ScoreChain
        from titan_ray.stages.scorer import shared_model_refs
        from titan_ray.stages.scrub_stage import ScrubStage

        check_mirrored_config(cfg)
        self.cfg, self.num_buckets = cfg, num_buckets
        self.chain = ScoreChain(cfg, num_buckets, model_refs=shared_model_refs())
        self.scrub = ScrubStage()
        self.kernel = {k: 0.0 for k in ("dedup", "rowwise", "scorer", "conv", "scrub")}
        self.counts = {k: 0 for k in ("reader.rows", "reader.bytes", "dedup.rows_dropped",
                                      "dedup.shuffled_bytes", "rowwise.rows_flagged", "scorer.chars",
                                      "conv.windows", "conv.halo_rows", "conv.core_rows",
                                      "conv.shuffled_bytes", "scrub.rows_rewritten")}
        self.bucket_skew = 0.0
        self.outputs: list[pa.Table] = []

    def _timed(self, layer: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.kernel[layer] += time.perf_counter() - t0
        return out

    def run(self, table: pa.Table) -> None:
        from titan_ray.pipelines.qc import _drop_helpers
        from titan_ray.sources.reader import project_output
        from titan_ray.stages.conv import run_conv_checks_arrow, salt_batch
        from titan_ray.stages.dedup import add_dedup_bucket, dedup_bucket_arrow
        from titan_ray.stages.rowwise import (
            climatological_check, final_decision, metadata_check, plausibility_check, seed_lists,
        )

        cfg, bs, c = self.cfg, self.cfg.batch_size, self.counts
        table = table.combine_chunks()
        c["reader.rows"] += table.num_rows
        c["reader.bytes"] += table.nbytes

        # dedup_exact: bucket column (map side), keep-first per bucket group
        bucketed = _concat([self._timed("dedup", add_dedup_bucket, b, DEDUP_BUCKETS) for b in _batches(table, bs)])
        c["dedup.shuffled_bytes"] += bucketed.nbytes
        deduped = _concat([self._timed("dedup", dedup_bucket_arrow, g) for g in _groups(bucketed, "_dd_bucket")])
        c["dedup.rows_dropped"] += table.num_rows - deduped.num_rows

        # seed/meta, then ScoreChain's parts: scorer | post-score row checks | salt
        salted = []
        for b in _batches(deduped, bs):
            b = self._timed("rowwise", lambda x: metadata_check(seed_lists(x, cfg=cfg), cfg=cfg), b)
            c["scorer.chars"] += int(pc.sum(pc.utf8_length(b["text"])).as_py() or 0)
            b = self._timed("scorer", self.chain.scorer, b)
            b = self._timed("rowwise", lambda x: climatological_check(plausibility_check(x, cfg=cfg), cfg=cfg), b)
            flags = b["dqcflag"].to_numpy(zero_copy_only=False)
            c["rowwise.rows_flagged"] += int(((flags != -1) & (flags != 990)).sum())
            salted.append(self._timed("conv", salt_batch, b, cfg=cfg, num_buckets=self.num_buckets))
        salted = _concat(salted)
        core = salted["is_core"].to_numpy(zero_copy_only=False)
        c["conv.halo_rows"] += int((~core).sum())
        c["conv.core_rows"] += int(core.sum())
        c["conv.windows"] += len(pc.unique(salted["conv_key"]))
        c["conv.shuffled_bytes"] += salted.nbytes
        sizes = np.bincount(salted["bucket"].to_numpy(zero_copy_only=False), minlength=self.num_buckets)
        self.bucket_skew = max(self.bucket_skew, float(sizes.max() / sizes.mean()))
        checked = _concat([self._timed("conv", lambda g: _drop_helpers(run_conv_checks_arrow(g, cfg=cfg)), g)
                           for g in _groups(salted, "bucket")])

        final = _concat([self._timed("rowwise", final_decision, b) for b in _batches(checked, bs)])
        out = _concat([self._timed("scrub", lambda x: project_output(self.scrub(x)), b)
                       for b in _batches(final, bs)])
        c["scrub.rows_rewritten"] += int(pc.sum(pc.cast(
            pc.fill_null(pc.not_equal(out["text_scrubbed"], out["text"]), False), pa.int64())).as_py() or 0)
        self.outputs.append(out)

    def metrics(self) -> dict:
        c = self.counts
        return {
            "reader.rows": c["reader.rows"], "reader.bytes": c["reader.bytes"],
            "dedup.kernel_s": self.kernel["dedup"], "dedup.rows_dropped": c["dedup.rows_dropped"],
            "dedup.shuffled_bytes": c["dedup.shuffled_bytes"],
            "dedup.useful_ratio": c["dedup.rows_dropped"] / max(c["reader.rows"], 1),
            "rowwise.kernel_s": self.kernel["rowwise"], "rowwise.rows_flagged": c["rowwise.rows_flagged"],
            "scorer.kernel_s": self.kernel["scorer"], "scorer.chars": c["scorer.chars"],
            "conv.kernel_s": self.kernel["conv"], "conv.windows": c["conv.windows"],
            "conv.halo_rows": c["conv.halo_rows"],
            "conv.halo_ratio": c["conv.halo_rows"] / max(c["conv.core_rows"], 1),
            "conv.bucket_skew": self.bucket_skew, "conv.shuffled_bytes": c["conv.shuffled_bytes"],
            "scrub.kernel_s": self.kernel["scrub"], "scrub.rows_rewritten": c["scrub.rows_rewritten"],
        }

    def output(self) -> pa.Table:
        return _concat(self.outputs)

    def kernel_total(self) -> float:
        return sum(self.kernel.values())


# ---------------------------------------------------------------------------
# traced executions per workload
# ---------------------------------------------------------------------------

def traced_transcripts(wl, out: Path, tr: Tracer) -> tuple[dict, list[pa.Table]]:
    """One traced execution of a transcript workload. Returns the layer
    metrics that come from spans and each execution's input rows as read
    (the serial pass adds the rest from those)."""
    import ray

    import titan_ray.pipelines.qc as qc_mod
    from titan_ray.sources.reader import read_parquet_clean
    from titan_ray.state.lineage import manifest_path, run_qc_resumable

    captured: list = []
    m: dict = {}
    with tr.span("execution") as root:
        if not wl.clustered:
            ds = staged_qc(read_parquet_clean(str(wl.in_dir)), wl.cfg, NUM_BUCKETS, tr, captured)
            traced_write(ds, tr).write_parquet(str(out))
        else:
            plain = qc_mod.build_qc_pipeline

            def build(ds, cfg=None, num_buckets=NUM_BUCKETS):
                return traced_write(staged_qc(ds, cfg, num_buckets, tr, captured), tr)

            offset = time.time() - time.perf_counter()
            start = time.perf_counter()
            qc_mod.build_qc_pipeline = build  # run_qc_resumable imports it per call
            try:
                summary = run_qc_resumable(str(wl.in_dir), str(out), wl.cfg, files_per_partition=wl.fpp)
            finally:
                qc_mod.build_qc_pipeline = plain
    if wl.clustered:
        for i in range(summary["partitions"]):
            end = json.loads(Path(manifest_path(str(out), i)).read_text())["completed_at_unix"] - offset
            tr.add_parent("lineage.partition", start, end, root["id"])
            start = end
        parts = tr.named("lineage.partition")
        with tr.span("lineage.resume"):
            resumed = run_qc_resumable(str(wl.in_dir), str(out), wl.cfg, files_per_partition=wl.fpp)
        m.update({
            "lineage.partitions": summary["partitions"],
            "lineage.partition_wall_s": statistics.median(p["end"] - p["start"] for p in parts),
            "lineage.self_s": sum(tr.self_time(p) for p in parts),
            "lineage.skipped": resumed["skipped"],
            "lineage.resume_s": tr.total("lineage.resume"),
        })
    m.update({
        "reader.wall_s": tr.total("reader"), "dedup.wall_s": tr.total("dedup"),
        "scorer.wall_s": tr.total("scorer"), "conv.shuffle_wall_s": tr.total("conv"),
        "scrub.wall_s": tr.total("scrub"), "write.wall_s": tr.total("write"),
    })
    return m, [pa.concat_tables(ray.get(ds.to_arrow_refs())) for ds in captured]


def traced_docs(wl, out: Path, tr: Tracer) -> tuple[dict, list[pa.Table]]:
    import ray.data as rd

    from titan_ray.sources.reader import read_parquet_clean

    m: dict = {}
    with tr.span("execution"):
        with tr.span("reader"):
            tables = [read_parquet_clean(str(wl.in_dir / f"{t}.parquet")).materialize()
                      for t in ("documents", "events")]
        for name, fn in wl.ops().items():
            with tr.span(f"docops.{name}"):
                res = fn(str(wl.in_dir))
                if isinstance(res, rd.Dataset):
                    res = res.materialize()
            m[f"docops.{name}.wall_s"] = tr.total(f"docops.{name}")
            m[f"docops.{name}.rows_out"] = res.count() if isinstance(res, rd.Dataset) else len(res)
            with tr.span("write"):
                wl.write_result(res, out / name)
    m["reader.wall_s"] = tr.total("reader")
    m["reader.rows"] = sum(t.count() for t in tables)
    m["reader.bytes"] = sum(t.size_bytes() for t in tables)
    m["write.wall_s"] = tr.total("write")
    return m, []
