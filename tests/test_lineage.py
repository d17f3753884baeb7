"""Checkpoint/resume: per-partition manifests, atomic output, skip-on-resume
(SURVEY.md §4 checkpoint row; the reference has none — boom() quits)."""

import json
import os
import shutil

import pytest

from titan_ray.config import QCConfig
from titan_ray.corpus import write_corpus
from titan_ray.state.lineage import INFLIGHT_PARTITIONS, manifest_path, run_qc_resumable


def _setup(tmp_path):
    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    write_corpus(inp, 2000, seed=9, shards=8, mega=False)
    return inp, out


def test_resume_skips_completed_partitions(ray_session, tmp_path):
    inp, out = _setup(tmp_path)
    cfg = QCConfig()
    s1 = run_qc_resumable(inp, out, cfg, files_per_partition=2)
    assert s1["partitions"] == 4 and s1["skipped"] == 0
    assert os.path.isdir(os.path.join(out, "part-00003"))

    # simulate a killed run: delete one partition's manifest + data
    os.remove(manifest_path(out, 2))
    shutil.rmtree(os.path.join(out, "part-00002"))

    s2 = run_qc_resumable(inp, out, cfg, files_per_partition=2)
    assert s2["skipped"] == 3              # only the missing one re-ran
    assert s2["rows"] == s1["rows"]
    assert os.path.isdir(os.path.join(out, "part-00002"))


def test_manifest_contents(ray_session, tmp_path):
    """Each manifest names its inputs and counts rows in and out; with
    dedup on, input_rows - rows is the oracle's dedup removal count."""
    import pyarrow.parquet as pq

    from titan_ray.oracle.serial import oracle_qc

    inp, out = _setup(tmp_path)
    cfg = QCConfig(dedup=True)
    s = run_qc_resumable(inp, out, cfg, files_per_partition=4)
    for i in range(s["partitions"]):
        with open(manifest_path(out, i)) as f:
            m = json.load(f)
        assert m["rows"] > 0
        assert "0" in m["flag_histogram"]
        assert len(m["inputs"]) == 4
        assert m["engine_version"].startswith("titan_ray")
        table = pq.ParquetDataset(m["inputs"]).read()
        assert m["input_rows"] == table.num_rows
        removed = table.num_rows - len(oracle_qc(table, cfg))
        assert removed > 0
        assert m["input_rows"] - m["rows"] == removed


def test_no_tmp_dirs_left(ray_session, tmp_path):
    inp, out = _setup(tmp_path)
    run_qc_resumable(inp, out, QCConfig(), files_per_partition=4)
    assert not [d for d in os.listdir(out) if d.endswith(".tmp")]


def test_fsync_before_manifest_rename(ray_session, tmp_path, monkeypatch):
    """Every data file of a partition, its directory and the manifest's tmp
    file are fsynced before the manifest is renamed into place, so a
    manifest never names output a power loss could tear."""
    inp, out = _setup(tmp_path)
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.path.realpath(f"/proc/self/fd/{fd}")))
        real_fsync(fd)

    def replace(src, dst, *args, **kwargs):
        events.append(("replace", os.path.realpath(src), os.path.realpath(dst)))
        real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    s = run_qc_resumable(inp, out, QCConfig(), files_per_partition=4)
    monkeypatch.undo()
    assert s["partitions"] == 2

    out = os.path.realpath(out)
    for i in range(s["partitions"]):
        mpath = manifest_path(out, i)
        at = events.index(("replace", mpath + ".tmp", mpath))
        synced = {e[1] for e in events[:at] if e[0] == "fsync"}
        part_dir = os.path.join(out, f"part-{i:05d}")
        data = [os.path.join(part_dir + ".tmp", f) for f in os.listdir(part_dir)]
        assert data and set(data) <= synced
        assert {part_dir + ".tmp", out, mpath + ".tmp"} <= synced
        assert ("fsync", os.path.dirname(mpath)) in events[at:]


# ---------------------------------------------------------------------------
# overlapped partitions: identical output, in-order prefix commit

N_PARTS = 8
FAIL = 3


def _frame(paths):
    import pandas as pd

    return pd.concat([pd.read_parquet(p) for p in paths], ignore_index=True)


def _part_dirs(out: str) -> list[str]:
    return sorted(os.path.join(out, d) for d in os.listdir(out) if d.startswith("part-"))


def _manifest(out: str, i: int) -> dict:
    with open(manifest_path(out, i)) as fh:
        return json.load(fh)


def _histogram(frame) -> dict:
    return {str(k): int(v) for k, v in frame["dqcflag"].value_counts().items()}


@pytest.fixture(scope="module")
def eight_parts(ray_session, tmp_path_factory):
    """An 8-file corpus and one uninterrupted run over 8 one-file partitions."""
    root = tmp_path_factory.mktemp("lineage8")
    inp, out = str(root / "corpus"), str(root / "out")
    write_corpus(inp, 1600, seed=13, shards=N_PARTS, mega=False)
    s = run_qc_resumable(inp, out, QCConfig(dedup=True), files_per_partition=1)
    assert s["partitions"] == N_PARTS and s["skipped"] == 0
    return inp, out


def test_overlapped_partitions_match_one_execution_each(eight_parts, tmp_path):
    """Every part-XXXXX equals build_qc_pipeline over that partition's files
    alone, in two runs into fresh directories (the repeat catches a race
    between concurrent path resolutions), and the manifests add up."""
    import ray.data as rd

    from titan_ray.pipelines.qc import build_qc_pipeline
    from tools.check_contract import value_hash

    inp, first = eight_parts
    second = str(tmp_path / "again")
    run_qc_resumable(inp, second, QCConfig(dedup=True), files_per_partition=1)
    files = sorted(os.path.join(inp, f) for f in os.listdir(inp))
    for i, f in enumerate(files):
        ref = build_qc_pipeline(rd.read_parquet([f]), QCConfig(dedup=True)).to_pandas()
        for out in (first, second):
            got = _frame([os.path.join(out, f"part-{i:05d}")])
            assert value_hash(got) == value_hash(ref), (out, i)
            m = _manifest(out, i)
            assert m["inputs"] == [f] and m["rows"] == len(ref)
            assert m["flag_histogram"] == _histogram(ref)
    for out in (first, second):
        total = sum(_manifest(out, i)["rows"] for i in range(N_PARTS))
        assert total == len(_frame(_part_dirs(out)))


@pytest.mark.parametrize("where", ["build", "execute"])
def test_failed_partition_commits_prefix_then_resumes(eight_parts, tmp_path, monkeypatch, where):
    """Partition 3 of 8 fails while it is built (main thread) or while it
    executes (worker thread). The call re-raises; only partitions 0-2 are
    committed, each naming complete data; no partition past the in-flight
    window was started; a second call re-runs exactly partitions 3-7 and
    the final output equals an uninterrupted run's."""
    import titan_ray.pipelines.qc as qc_mod
    from tools.check_contract import value_hash

    inp, clean = eight_parts
    out = str(tmp_path / "out")
    files = sorted(os.path.join(inp, f) for f in os.listdir(inp))
    started = []
    plain = qc_mod.build_qc_pipeline

    def boom(batch):
        raise RuntimeError("injected partition failure")

    def build(ds, cfg=None, num_buckets=128):
        part = files.index(ds.input_files()[0])
        started.append(part)
        if part == FAIL and where == "build":
            raise RuntimeError("injected partition failure")
        ds = plain(ds, cfg, num_buckets=num_buckets)
        if part == FAIL and where == "execute":
            ds = ds.map_batches(boom, batch_format="pyarrow")
        return ds

    monkeypatch.setattr(qc_mod, "build_qc_pipeline", build)
    with pytest.raises(Exception, match="injected partition failure"):
        run_qc_resumable(inp, out, QCConfig(dedup=True), files_per_partition=1)

    done = sorted(int(f[5:10]) for f in os.listdir(os.path.join(out, "_lineage")))
    assert done == list(range(FAIL))
    for i in done:
        m = _manifest(out, i)
        got = _frame([os.path.join(out, f"part-{i:05d}")])
        assert m["rows"] == len(got) > 0
        assert m["flag_histogram"] == _histogram(got)
    assert not [d for d in os.listdir(out) if d.startswith("part-") and not d.endswith(".tmp")
                and int(d[5:10]) >= FAIL]
    if where == "build":
        assert started == list(range(FAIL + 1))
    else:
        assert started == list(range(len(started)))
        assert len(started) <= FAIL + INFLIGHT_PARTITIONS

    started.clear()
    where = None  # the resumed run injects nothing
    s = run_qc_resumable(inp, out, QCConfig(dedup=True), files_per_partition=1)
    assert s["skipped"] == FAIL and started == list(range(FAIL, N_PARTS))
    assert not [d for d in os.listdir(out) if d.endswith(".tmp")]
    assert value_hash(_frame(_part_dirs(out))) == value_hash(_frame(_part_dirs(clean)))


def test_empty_partition_commits_and_resumes(ray_session, tmp_path):
    """A partition whose input has no rows commits as an empty part-XXXXX
    (rows 0, empty histogram) instead of failing the run: Ray's sink
    removes the empty output directory before the commit scans it."""
    import pyarrow.parquet as pq

    src, inp, out = str(tmp_path / "src"), str(tmp_path / "corpus"), str(tmp_path / "out")
    write_corpus(src, 400, seed=5, shards=2, mega=False)
    a, b = sorted(os.path.join(src, f) for f in os.listdir(src))
    os.makedirs(inp)
    shutil.copy(a, os.path.join(inp, "a.parquet"))
    pq.write_table(pq.read_table(a).slice(0, 0), os.path.join(inp, "b.parquet"))
    shutil.copy(b, os.path.join(inp, "c.parquet"))

    s1 = run_qc_resumable(inp, out, QCConfig(), files_per_partition=1)
    assert s1["partitions"] == 3 and s1["skipped"] == 0
    ms = [_manifest(out, i) for i in range(3)]
    assert ms[1]["rows"] == 0 and ms[1]["flag_histogram"] == {}
    assert ms[0]["rows"] > 0 and ms[2]["rows"] > 0
    assert os.listdir(os.path.join(out, "part-00001")) == []
    written = [d for d in _part_dirs(out) if os.listdir(d)]
    assert s1["rows"] == sum(m["rows"] for m in ms) == len(_frame(written))
    assert not [d for d in os.listdir(out) if d.endswith(".tmp")]

    s2 = run_qc_resumable(inp, out, QCConfig(), files_per_partition=1)
    assert s2["skipped"] == 3 and s2["rows"] == s1["rows"]


KILL_AT = 2

_KILL_SCRIPT = """
import os, signal, sys
import ray
ray.init(address=sys.argv[1], logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from titan_ray.config import QCConfig
from titan_ray.state import lineage
inp, out, k = sys.argv[2], sys.argv[3], int(sys.argv[4])
target, rename = lineage._part_dir(out, k), os.replace

def replace(src, dst):
    rename(src, dst)
    if dst == target:  # partition k is in place; its manifest is not written
        os.kill(os.getpid(), signal.SIGKILL)

os.replace = replace
lineage.run_qc_resumable(inp, out, QCConfig(dedup=True), files_per_partition=1)
"""


def test_sigkill_between_rename_and_manifest_resumes(eight_parts, tmp_path):
    """A driver SIGKILLed after partition k's rename and before its manifest
    leaves part-k without a manifest; a resumed run rebuilds part-k, skips
    the committed prefix, and its output equals an uninterrupted run's."""
    import signal
    import subprocess
    import sys

    import ray

    from tools.check_contract import value_hash

    inp, clean = eight_parts
    out = str(tmp_path / "out")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [repo, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _KILL_SCRIPT, ray.get_runtime_context().gcs_address, inp, out,
         str(KILL_AT)],
        cwd=repo, env=env, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr[-2000:]
    killed = os.path.join(out, f"part-{KILL_AT:05d}")
    assert os.path.isdir(killed) and not os.path.exists(manifest_path(out, KILL_AT))
    assert all(os.path.exists(manifest_path(out, i)) for i in range(KILL_AT))
    before = set(os.listdir(killed))  # file names carry each write's uuid

    s = run_qc_resumable(inp, out, QCConfig(dedup=True), files_per_partition=1)
    assert s["skipped"] == KILL_AT and s["partitions"] == N_PARTS
    assert os.path.exists(manifest_path(out, KILL_AT))
    after = set(os.listdir(killed))
    assert after and not before & after  # part-k was rebuilt, not kept
    assert _manifest(out, KILL_AT)["rows"] == len(_frame([killed]))
    assert not [d for d in os.listdir(out) if d.endswith(".tmp")]
    assert value_hash(_frame(_part_dirs(out))) == value_hash(_frame(_part_dirs(clean)))
