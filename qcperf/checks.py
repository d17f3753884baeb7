"""The benchmark's own tests: `python3 -m pytest qcperf/checks.py -q` from the
repo root. The file name keeps them out of a bare `pytest` run's default
discovery, so the repository's own suite does not start their Ray clusters.

The smokes run the real command at ``--size tiny`` (each starts its own Ray
cluster, so expect ~30 s apiece); the rest need no Ray.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

from qcperf import harness, run, traced, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, timeout=240):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "qcperf/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (n, traced.unit_of(n)) for n in traced.per_layer_names(workloads.DOC_OPS)]
    assert SPEC["command"] == ["python3", "qcperf/run.py"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke(workload, trace, monkeypatch):
    monkeypatch.setenv(harness.RUN_MARK, f"smoke-{workload}-{trace}-{os.getpid()}")
    res = _result(_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                         "--trace", trace, "--size", "tiny"))
    assert harness.marked_pids() == []  # every process the run started has ended
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 2
    names = [m["name"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]]
    assert list(res["metrics"]) == names
    for m in SPEC["per_layer" if trace == "1" else "end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_planted_wrong_output_fails_the_check():
    res = _result(_bench("--workload", "scattered_oneshot", "--seed", "5", "--seconds", "1",
                         "--trace", "0", "--size", "tiny", "--plant-fault"))
    assert res["correct"] is False and res["failed"] >= 1


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "qcperf", tmp_path / "qcperf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "scattered_oneshot", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_table_digest_is_order_insensitive_and_value_sensitive():
    import pandas as pd

    df = pd.DataFrame({"a": [1, 2, 3], "b": ["x", None, "z"]})
    assert workloads.table_digest(df) == workloads.table_digest(df.iloc[::-1])
    assert workloads.table_digest(df) != workloads.table_digest(df.assign(a=[1, 2, 4]))


def test_drop_f1_scores_dedup_per_group_and_catches_a_wrong_keep():
    from titan_ray.config import QCConfig
    from titan_ray.corpus import generate_corpus
    from titan_ray.oracle.serial import oracle_qc

    inp = generate_corpus(900, seed=3, mega=False)
    out = pa.Table.from_pandas(oracle_qc(inp, QCConfig(dedup=True)), preserve_index=False)
    zeros_in, zeros_out = np.zeros(inp.num_rows, dtype=int), np.zeros(out.num_rows, dtype=int)
    assert out.num_rows < inp.num_rows  # dedup removed planted copies
    assert workloads.drop_f1(inp, zeros_in, out, zeros_out) == 1.0

    flagged = np.flatnonzero(~out["keep"].to_numpy(zero_copy_only=False))
    keep = out["keep"].to_numpy(zero_copy_only=False).copy()
    keep[flagged[0]] = True
    wrong = out.set_column(out.column_names.index("keep"), "keep", pa.array(keep))
    assert workloads.drop_f1(inp, zeros_in, wrong, zeros_out) < 1.0


def test_conv_clustered_share():
    conv = np.asarray(["a", "a", "b", None, "b", "c", "c"], dtype=object)
    assert workloads.conv_clustered_share(conv, np.zeros(7, dtype=int)) == 1.0
    assert workloads.conv_clustered_share(conv, np.asarray([0, 1, 1, 1, 1, 1, 1])) == 4 / 6


def test_tracer_self_time_and_adoption():
    tr = traced.Tracer()
    with tr.span("execution") as root:
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
    part = tr.add_parent("part", root["start"], root["end"], root["id"])
    assert {s["name"] for s in tr.spans if s["parent"] == part["id"]} == {"a", "b"}
    assert 0 <= tr.self_time(root) <= root["end"] - root["start"]
    assert tr.self_time(root) == pytest.approx(0.0, abs=1e-9)  # part covers it all
