"""Per-partition lineage + checkpoint-resumable runs (north_rule requirement).

The reference has no fault tolerance (reference: functions/misc/misc_util.r:3-11
`boom()` quits on any error; debug save.image snapshots only,
check_z_against_dem.r:36). At 10^12-turn scale a run WILL be interrupted, so
the engine writes output one input-partition at a time:

    out_dir/
      part-00000/          <- parquet files for partition 0 (atomic rename)
      _lineage/part-00000.json   <- manifest: inputs, row counts, flag histo

A manifest is written only AFTER its partition's data is durably on disk,
so on resume a partition is skipped iff its manifest exists — no torn
outputs, even after a power loss. The order: write part-XXXXX.tmp, fsync
each of its files and then the directory, rename it to part-XXXXX, fsync
out_dir; then write the manifest's tmp file, fsync it, rename it, fsync
_lineage/. Partition = group of input files, so skipping needs no input
scan.
"""

from __future__ import annotations

import json
import os
import shutil
import time

ENGINE_VERSION = "titan_ray-r2"


def _partition_inputs(input_dir: str, files_per_partition: int) -> list[list[str]]:
    files = sorted(
        os.path.join(input_dir, f)
        for f in os.listdir(input_dir)
        if f.endswith(".parquet")
    )
    return [files[i : i + files_per_partition] for i in range(0, len(files), files_per_partition)]


def _fsync(path: str) -> None:
    """fsync a file or a directory (a directory's fsync makes the renames
    and new entries in it durable)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_tree(root: str) -> None:
    """fsync every file under ``root``, then each directory, deepest first."""
    for dirpath, _dirs, files in os.walk(root, topdown=False):
        for name in files:
            _fsync(os.path.join(dirpath, name))
        _fsync(dirpath)


def manifest_path(out_dir: str, part: int) -> str:
    return os.path.join(out_dir, "_lineage", f"part-{part:05d}.json")


def run_qc_resumable(
    input_dir: str,
    out_dir: str,
    cfg=None,
    files_per_partition: int = 4,
    num_buckets: int = 128,
) -> dict:
    """Run the QC pipeline partition-by-partition, skipping completed ones.

    Returns a summary {partitions, skipped, rows, seconds}. Each partition is
    an independent Dataset execution => a killed run loses at most one
    partition of work. NOTE: dedup and conversation-local checks operate
    WITHIN a partition — the corpus layout must keep a conversation's turns
    in one partition (true for the shard-by-conversation-range writer,
    corpus.write_corpus), mirroring the salting contract in SURVEY.md §4.
    """
    import ray.data as rd

    from ..config import QCConfig
    from ..pipelines.qc import build_qc_pipeline

    cfg = cfg or QCConfig()
    os.makedirs(os.path.join(out_dir, "_lineage"), exist_ok=True)
    parts = _partition_inputs(input_dir, files_per_partition)
    t_start = time.time()
    skipped = 0
    total_rows = 0

    for i, files in enumerate(parts):
        mpath = manifest_path(out_dir, i)
        if os.path.exists(mpath):
            with open(mpath) as f:
                m = json.load(f)
            # a manifest only covers THIS partition if the input file list
            # matches exactly — resuming with a different files_per_partition
            # must re-run, not silently skip (verified failure mode) — and
            # only if the ENGINE version matches: resuming after an engine
            # upgrade must not mix old- and new-semantics partitions
            if m.get("inputs") == files and m.get("engine_version") == ENGINE_VERSION:
                total_rows += m["rows"]
                skipped += 1
                continue
        part_dir = os.path.join(out_dir, f"part-{i:05d}")
        tmp_dir = part_dir + ".tmp"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        shutil.rmtree(part_dir, ignore_errors=True)

        ds = build_qc_pipeline(rd.read_parquet(files), cfg, num_buckets=num_buckets)
        ds.write_parquet(tmp_dir)

        # flag histogram from the written partition (small scan, local files)
        import pyarrow.dataset as pads
        import pyarrow.compute as pac

        written = pads.dataset(tmp_dir)
        flags = written.to_table(columns=["dqcflag"])["dqcflag"]
        histo = {
            str(k.as_py()): v.as_py()
            for k, v in zip(*pac.value_counts(flags).flatten())
        }
        rows = len(flags)

        _fsync_tree(tmp_dir)
        os.replace(tmp_dir, part_dir)  # atomic on one filesystem
        _fsync(out_dir)
        manifest = {
            "partition": i,
            "inputs": files,
            "rows": rows,
            "flag_histogram": histo,
            "engine_version": ENGINE_VERSION,
            "completed_at_unix": time.time(),
        }
        tmp_manifest = mpath + ".tmp"
        with open(tmp_manifest, "w") as f:
            json.dump(manifest, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_manifest, mpath)
        _fsync(os.path.dirname(mpath))
        total_rows += rows

    return {
        "partitions": len(parts),
        "skipped": skipped,
        "rows": total_rows,
        "seconds": round(time.time() - t_start, 2),
    }
