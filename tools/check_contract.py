"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf and compare against oracle_sql() via DuckDB
(row count + schema + order-insensitive value hash). Each query's JSON
entry carries the engine's value hash (engine_hash), so two versions'
digests compare by diffing two runs."""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pandas as pd

DUCKDB_MEMORY_LIMIT = "4GB"


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def value_hash(df: pd.DataFrame) -> str:
    import hashlib

    df = df[sorted(df.columns)]
    rows = df.astype(str).agg("|".join, axis=1).sort_values().tolist()
    return hashlib.md5("\n".join(rows).encode()).hexdigest()


def main(sf_dir: str, only: list[str] | None = None):
    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    # a cap, so one twin cannot starve the host: a twin that needs more
    # fails as that query's OutOfMemoryException
    con.sql(f"SET memory_limit='{DUCKDB_MEMORY_LIMIT}'")
    for name in ("region", "nation", "customer", "supplier", "part", "orders",
                 "lineitem", "events", "documents", "embeddings"):
        p = f"{sf_dir}/{name}.parquet"
        if os.path.exists(p):
            con.sql(f"CREATE VIEW {name} AS SELECT * FROM '{p}'")

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    if only:
        qs = {k: v for k, v in qs.items() if k in only}
    results = {}
    for name, fn in qs.items():
        res = results[name] = {}
        try:
            eng = to_pandas(fn(sf_dir))
            eng_hash = res["engine_hash"] = value_hash(eng)
            res["rows"] = len(eng)
            if name not in sqls:
                res.update(mode="rows_only", ok=True)
                continue
            ora = con.sql(sqls[name]).df()
            ok_rows = len(eng) == len(ora)
            ok_schema = sorted(map(str.lower, eng.columns)) == sorted(map(str.lower, ora.columns))
            ok_hash = eng_hash == value_hash(ora) if ok_rows and ok_schema else False
            res.update(oracle_rows=len(ora), schema=ok_schema, hash=ok_hash,
                       ok=ok_rows and ok_schema and ok_hash)
        except Exception as e:
            res.update(error=f"{type(e).__name__}: {str(e)[:200]}", ok=False)
    print(json.dumps(results, indent=1, default=str))
    n_ok = sum(1 for r in results.values() if r.get("ok"))
    print(f"{n_ok}/{len(results)} ok")
    ray.shutdown()


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01",
         only=sys.argv[2:] or None)
