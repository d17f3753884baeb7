"""A small CPU budget must not deadlock the engine.

Each case starts its own Ray at 1 or 2 logical CPUs in a subprocess and
runs one query under a deadline: a hang fails the test instead of stalling
the suite. Ray Data runs without its per-operator CPU reservation (see
``titan_ray.tune_ray_data``), which also drops that reservation's
small-cluster safeguard, so the flagship with both of its sort barriers is
run here at both sizes.
"""

import json
import os
import subprocess
import sys

import duckdb
import pandas as pd

from titan_ray.state.dedup_index import online_dedup_sql
from tools.check_contract import value_hash

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = "/root/testdata/sf0.001"
DEADLINE_S = 180

_SCRIPT = """
import json, sys
import ray
ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import ray.data as rd
from titan_ray.config import QCConfig
from titan_ray.corpus import generate_corpus
from titan_ray.pipelines.qc import build_qc_pipeline
from titan_ray.state.dedup_index import online_dedup_docs

query = sys.argv[2]
if query == "flagship":
    ds = rd.from_arrow(generate_corpus(1200, seed=7)).repartition(6)
    out = build_qc_pipeline(ds, QCConfig(dedup=True)).count()
else:
    out = online_dedup_docs(sys.argv[3]).to_pandas()["doc_id"].tolist()
print(json.dumps(out))
ray.shutdown()
"""


def _run(num_cpus: int, *args: str):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [REPO, os.environ.get("PYTHONPATH")])))
    r = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(num_cpus), *args],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=DEADLINE_S,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    return json.loads(r.stdout.strip().splitlines()[-1])


def test_flagship_completes_on_one_and_two_cpus():
    """Both sorts and every map of the flagship finish at 1 and 2 CPUs,
    with the same row count."""
    counts = [_run(n, "flagship") for n in (1, 2)]
    assert counts[0] > 0
    assert counts[0] == counts[1]


def test_online_dedup_docs_one_cpu():
    """The dedup index's shard actors reserve no CPU, so the ingest tasks
    run on a 1-CPU Ray; the result still equals the DuckDB twin."""
    eng = pd.DataFrame({"doc_id": _run(1, "online_dedup", SF)})
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.sql(online_dedup_sql()).df()
    assert len(eng) == len(ora) == 500
    assert value_hash(eng) == value_hash(ora)
