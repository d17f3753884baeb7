"""Checkpoint/resume: per-partition manifests, atomic output, skip-on-resume
(SURVEY.md §4 checkpoint row; the reference has none — boom() quits)."""

import json
import os
import shutil

from titan_ray.config import QCConfig
from titan_ray.corpus import write_corpus
from titan_ray.state.lineage import manifest_path, run_qc_resumable


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
    inp, out = _setup(tmp_path)
    run_qc_resumable(inp, out, QCConfig(), files_per_partition=4)
    with open(manifest_path(out, 0)) as f:
        m = json.load(f)
    assert m["rows"] > 0
    assert "0" in m["flag_histogram"]
    assert len(m["inputs"]) == 4
    assert m["engine_version"].startswith("titan_ray")


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
