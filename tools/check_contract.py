"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf and compare against oracle_sql() via DuckDB
(row count + schema + order-insensitive value hash). Each query's JSON
entry carries the engine's value hash (engine_hash).

    python tools/check_contract.py [SF_DIR] [QUERY ...] [--chunk N]
        [--out FILE] [--baseline FILE]

``--chunk N`` runs each chunk of at most N queries in its own subprocess
(and so its own Ray session) and merges their results. ``--out FILE``
writes the results JSON to FILE. ``--baseline FILE`` reads an earlier
run's results (an ``--out`` file, or its captured stdout) and prints every
query whose engine_hash differs, and, when no QUERY is named, every
baseline query this run lacks; the exit status is then 1 if any does."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

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


def check(sf_dir: str, only: list[str] | None = None) -> dict:
    """{query: result} for every registered query (or those in ``only``),
    in one Ray session."""
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
    ray.shutdown()
    return results


def check_chunked(sf_dir: str, only: list[str] | None, chunk: int) -> dict:
    """check() over chunks of at most ``chunk`` queries, each in its own
    subprocess; a chunk whose process dies marks its queries as errors."""
    import __ray_entry__ as entrymod

    names = [n for n in entrymod.queries() if not only or n in only]
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for start in range(0, len(names), chunk):
            part = names[start:start + chunk]
            out = os.path.join(tmp, f"chunk{start}.json")
            # the child's report goes to stderr; the merged one to stdout
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), sf_dir, *part,
                                   "--out", out], stdout=sys.stderr)
            got = load_results(out) if os.path.exists(out) else {}
            for n in part:
                results[n] = got.get(n) or {
                    "error": f"chunk process exited with status {proc.returncode}", "ok": False}
    return results


def load_results(path: str) -> dict:
    """Results JSON from an ``--out`` file or from a run's captured stdout
    (whose JSON object starts at the first line that is a lone ``{``)."""
    with open(path) as f:
        text = f.read()
    start = 0 if text.startswith("{") else text.index("\n{\n") + 1
    return json.JSONDecoder().raw_decode(text, start)[0]


def hash_diffs(results: dict, baseline: dict, full_run: bool = False) -> list[str]:
    """One line per query of ``results`` whose engine_hash differs from the
    baseline's (a query without a hash on either side counts as differing).
    For a full run (no query subset), every baseline query missing from
    ``results`` differs too, as ``<hash> -> None``."""
    old = {n: r.get("engine_hash") for n, r in baseline.items()}
    diffs = [f"{n}: {old.get(n)} -> {r.get('engine_hash')}" for n, r in results.items()
             if r.get("engine_hash") is None or r.get("engine_hash") != old.get(n)]
    if full_run:
        diffs += [f"{n}: {h} -> None" for n, h in old.items() if n not in results]
    return diffs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    from __ray_entry__ import GATE_SF_DIR

    ap.add_argument("sf_dir", nargs="?", default=GATE_SF_DIR)
    ap.add_argument("queries", nargs="*", help="only these queries (default: all)")
    ap.add_argument("--chunk", type=int, default=0,
                    help="run each chunk of at most N queries in its own subprocess")
    ap.add_argument("--out", help="also write the results JSON to this file")
    ap.add_argument("--baseline", help="print queries whose engine_hash differs from this run's")
    args = ap.parse_args(argv)
    if args.chunk < 0:
        ap.error("--chunk must be at least 0 (0: one session for all queries)")
    only = args.queries or None
    results = (check_chunked(args.sf_dir, only, args.chunk) if args.chunk
               else check(args.sf_dir, only))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1, default=str)
    print(json.dumps(results, indent=1, default=str))
    n_ok = sum(1 for r in results.values() if r.get("ok"))
    print(f"{n_ok}/{len(results)} ok")
    if args.baseline:
        diffs = hash_diffs(results, load_results(args.baseline), full_run=only is None)
        for line in diffs:
            print(f"engine_hash differs: {line}")
        print(f"{len(diffs)} engine_hash differ from {args.baseline}")
        return 1 if diffs else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
