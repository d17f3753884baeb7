"""tools/check_contract.py's chunked runs and engine_hash baselines."""

import json
import os
import subprocess
import sys

import pytest

from tools.check_contract import hash_diffs, load_results

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_load_results_from_out_file_and_captured_stdout(tmp_path):
    res = {"a": {"engine_hash": "x", "ok": True}, "b": {"error": "E", "ok": False}}
    out = tmp_path / "out.json"
    out.write_text(json.dumps(res, indent=1))
    captured = tmp_path / "stdout.txt"
    captured.write_text("a log line {not json}\n" + json.dumps(res, indent=1) + "\n1/2 ok\n")
    assert load_results(str(out)) == res
    assert load_results(str(captured)) == res


def test_hash_diffs_covers_only_this_runs_queries():
    base = {"a": {"engine_hash": "1"}, "b": {"engine_hash": "2"}, "gone": {"engine_hash": "3"}}
    now = {"a": {"engine_hash": "1"}, "b": {"engine_hash": "9"}, "new": {"engine_hash": "4"},
           "failed": {"error": "E"}}
    assert hash_diffs(now, base) == ["b: 2 -> 9", "new: None -> 4", "failed: None -> None"]


def test_hash_diffs_reports_baseline_queries_missing_from_a_full_run():
    base = {"a": {"engine_hash": "1"}, "gone": {"engine_hash": "3"}}
    now = {"a": {"engine_hash": "1"}}
    assert hash_diffs(now, base, full_run=True) == ["gone: 3 -> None"]
    assert hash_diffs(now, base) == []


def test_chunked_run_merges_and_diffs_baseline(tmp_path):
    """--chunk 1 runs each query in its own process; the merged results are
    written, printed, and diffed against a baseline with one other hash."""
    from __ray_entry__ import GATE_SF_DIR

    sf = os.path.join(os.path.dirname(GATE_SF_DIR), "sf0.001")
    if not os.path.exists(os.path.join(sf, "documents.parquet")):
        pytest.skip("sf0.001 query tables absent")
    names = ["doc_vocab_size", "corpus_diff"]
    out, base = tmp_path / "run.json", tmp_path / "base.json"
    base.write_text(json.dumps({"doc_vocab_size": {"engine_hash": "old"}}))
    tool = os.path.join(ROOT, "tools", "check_contract.py")
    run = subprocess.run([sys.executable, tool, sf, *names, "--chunk", "1", "--out", str(out),
                          "--baseline", str(base)], capture_output=True, text=True, timeout=600)
    assert run.returncode == 1, run.stderr[-2000:]
    res = load_results(str(out))
    assert list(res) == names and all(r["ok"] and r["engine_hash"] for r in res.values())
    captured = tmp_path / "stdout.txt"
    captured.write_text(run.stdout)
    assert load_results(str(captured)) == res
    diffs = [ln for ln in run.stdout.splitlines() if ln.startswith("engine_hash differs")]
    assert diffs == [f"engine_hash differs: doc_vocab_size: old -> {res['doc_vocab_size']['engine_hash']}",
                     f"engine_hash differs: corpus_diff: None -> {res['corpus_diff']['engine_hash']}"]
