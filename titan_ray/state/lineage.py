"""Per-partition lineage + checkpoint-resumable runs (north_rule requirement).

The reference has no fault tolerance (reference: functions/misc/misc_util.r:3-11
`boom()` quits on any error; debug save.image snapshots only,
check_z_against_dem.r:36). At 10^12-turn scale a run WILL be interrupted, so
the engine writes output one input-partition at a time:

    out_dir/
      part-00000/          <- parquet files for partition 0 (atomic rename)
      _lineage/part-00000.json   <- manifest: inputs, input and output row
                                    counts, flag histo

A manifest is written only AFTER its partition's data is durably on disk,
so on resume a partition is skipped iff its manifest exists — no torn
outputs, even after a power loss. The order: write part-XXXXX.tmp, fsync
each of its files and then the directory, rename it to part-XXXXX, fsync
out_dir; then write the manifest's tmp file, fsync it, rename it, fsync
_lineage/. Partition = group of input files, so skipping needs no input
scan.

Up to ``INFLIGHT_PARTITIONS`` partitions execute at once, but they are
committed (the steps above) strictly in partition order, so the committed
partitions always form a prefix and a killed run loses at most
``INFLIGHT_PARTITIONS`` partitions of work.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from ray.data.datasource import BlockBasedFileDatasink

ENGINE_VERSION = "titan_ray-r2"

# Double buffering: one partition's execution leaves CPUs idle in its two
# sort barriers, its ramp-up and its write tail, and the next partition's
# read and scoring fill them. Two covers those phases; each partition past
# the first adds another execution's memory and another partition a kill
# can lose (at most INFLIGHT_PARTITIONS, since commits stay in order).
INFLIGHT_PARTITIONS = 2


class _ParquetSink(BlockBasedFileDatasink):
    """One parquet file per write task, with pyarrow's default writer
    options (what ``Dataset.write_parquet`` writes).

    Build it on the calling thread: its constructor resolves the output
    path, and Ray Data's path resolution is not thread-safe. Its HTTP
    filesystem probe imports ``fsspec.implementations.http`` and catches
    only ``ModuleNotFoundError``; without aiohttp a second thread can find
    that module half-imported and get an ``ImportError`` instead.
    """

    def __init__(self, path: str):
        super().__init__(path, file_format="parquet")

    def write_block_to_file(self, block, file) -> None:
        import pyarrow.parquet as pq

        pq.write_table(block.to_arrow(), file)


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


def _part_dir(out_dir: str, part: int) -> str:
    return os.path.join(out_dir, f"part-{part:05d}")


def _commit(out_dir: str, part: int, files: list[str]) -> int:
    """Make partition ``part``'s written ``.tmp`` directory durable, rename
    it into place, then write its manifest. Returns its row count."""
    import pyarrow.compute as pac
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    part_dir = _part_dir(out_dir, part)
    tmp_dir = part_dir + ".tmp"
    # the sink removes the directory of a partition that yields no rows;
    # such a partition commits as an empty part-XXXXX with rows 0
    os.makedirs(tmp_dir, exist_ok=True)
    written = pads.dataset(tmp_dir)
    histo, rows = {}, 0
    if written.files:
        # flag histogram from the written partition (small scan, local files)
        flags = written.to_table(columns=["dqcflag"])["dqcflag"]
        histo = {
            str(k.as_py()): v.as_py()
            for k, v in zip(*pac.value_counts(flags).flatten())
        }
        rows = len(flags)

    _fsync_tree(tmp_dir)
    os.replace(tmp_dir, part_dir)  # atomic on one filesystem
    _fsync(out_dir)
    mpath = manifest_path(out_dir, part)
    manifest = {
        "partition": part,
        "inputs": files,
        # from the input footers; only the dedup steps remove rows, so
        # input_rows - rows is what dedup (exact and near) removed here
        "input_rows": sum(pq.read_metadata(f).num_rows for f in files),
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
    return rows


def run_qc_resumable(
    input_dir: str,
    out_dir: str,
    cfg=None,
    files_per_partition: int = 4,
    num_buckets: int = 128,
) -> dict:
    """Run the QC pipeline partition-by-partition, skipping completed ones.

    Returns a summary {partitions, skipped, rows, seconds}. Each partition is
    an independent Dataset execution. Up to ``INFLIGHT_PARTITIONS`` of them
    run at once; the main thread builds each one's Dataset and sink, a
    worker thread only writes it, and the main thread commits them in
    partition order. So the committed partitions are always a prefix, and a
    killed run loses at most ``INFLIGHT_PARTITIONS`` partitions of work. On
    an error no new partition starts, the in-flight ones finish, only the
    partitions before the failed one are committed, and the first error is
    re-raised. NOTE: dedup and conversation-local checks operate WITHIN a
    partition — the corpus layout must keep a conversation's turns in one
    partition (true for the shard-by-conversation-range writer,
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

    todo: deque = deque()  # (index, files) without a valid manifest
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
        todo.append((i, files))

    inflight: deque = deque()  # (index, files, write future), index order
    failed_at, error = len(parts), None
    with ThreadPoolExecutor(INFLIGHT_PARTITIONS, thread_name_prefix="lineage") as pool:
        while True:
            while (todo and error is None and len(inflight) < INFLIGHT_PARTITIONS
                   and not any(f.done() and f.exception() for _, _, f in inflight)):
                i, files = todo.popleft()
                part_dir = _part_dir(out_dir, i)
                shutil.rmtree(part_dir + ".tmp", ignore_errors=True)
                shutil.rmtree(part_dir, ignore_errors=True)
                try:
                    # path resolution (read and sink) stays on this thread
                    ds = build_qc_pipeline(rd.read_parquet(files), cfg, num_buckets=num_buckets)
                    inflight.append((i, files, pool.submit(ds.write_datasink,
                                                           _ParquetSink(part_dir + ".tmp"))))
                except BaseException as e:
                    failed_at, error = i, e
            if not inflight:
                break
            i, files, write = inflight.popleft()
            try:
                write.result()
                if i < failed_at:
                    total_rows += _commit(out_dir, i, files)
            except BaseException as e:
                failed_at, error = min(failed_at, i), error or e
    if error is not None:
        raise error

    return {
        "partitions": len(parts),
        "skipped": skipped,
        "rows": total_rows,
        "seconds": round(time.time() - t_start, 2),
    }
