"""CLI entry (titan.r analog) + config merge semantics."""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_config_merge_last_wins(tmp_path):
    from titan_ray.cli import load_config

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"min_chars": 5, "buddy_tpos": 2.0}))
    b.write_text(json.dumps({"buddy_tpos": 4.0, "buddy_tests": [[4, 2.5, 2.5, 2]]}))
    cfg = load_config([str(a), str(b)])
    assert cfg.min_chars == 5
    assert cfg.buddy_tpos == 4.0            # later file overrides earlier
    assert cfg.buddy_tests == ((4, 2.5, 2.5, 2),)  # JSON lists -> tuples


def test_config_unknown_key_errors(tmp_path):
    import pytest

    from titan_ray.cli import load_config

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_knob": 1}))
    with pytest.raises(SystemExit):
        load_config([str(bad)])


def test_cli_end_to_end(tmp_path):
    """`python -m titan_ray` over a small corpus: runs, writes parquet with
    the full output schema, honors a config override."""
    from titan_ray.corpus import write_corpus

    inp = tmp_path / "in"
    outp = tmp_path / "out"
    write_corpus(str(inp), 800, seed=9, shards=2, mega=False)
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"dedup": True, "blacklist_terms": ["BLOCKLISTED_TOKEN"]}))
    r = subprocess.run(
        [sys.executable, "-m", "titan_ray", "--input", str(inp), "--output", str(outp),
         "--config", str(cfgf), "--num-cpus", "4"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    t = pq.read_table(str(outp))
    assert t.num_rows > 0
    for col in ("conv_id", "turn_idx", "dqcflag", "keep", "text_scrubbed"):
        assert col in t.column_names
    assert (np.asarray(t["dqcflag"]) == 999).sum() > 0  # blacklist applied


def test_cli_one_cpu_matches_four(tmp_path):
    """The flagship has no actor pools, so it completes on ONE Ray CPU, and
    its output equals a 4-CPU run's (order-insensitive value hash)."""
    from titan_ray.corpus import write_corpus
    from tools.check_contract import value_hash

    inp = tmp_path / "in"
    write_corpus(str(inp), 600, seed=5, shards=2, mega=False)
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"dedup": True}))
    digests = []
    for n in (1, 4):
        outp = tmp_path / f"out{n}"
        r = subprocess.run(
            [sys.executable, "-m", "titan_ray", "--input", str(inp), "--output", str(outp),
             "--config", str(cfgf), "--num-cpus", str(n)],
            cwd=REPO, capture_output=True, text=True, timeout=300,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        t = pq.read_table(str(outp))
        assert t.num_rows > 0
        digests.append(value_hash(t.to_pandas()))
    assert digests[0] == digests[1]
