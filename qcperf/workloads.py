"""The three workloads: seeded input generation, one execution, and the
checks every execution's output must pass.

The program sees only the generated Parquet files. Each workload exposes
``execute(out)`` (one timed execution against the program's public entry
points), ``fingerprint(out)`` (what every execution must reproduce) and
``reference_checks(out)`` (independent checks run once per run on the
reference execution: serial oracle, planted-label F1, SQL twins).
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# Input sizes. "full" is the benchmark of record; "tiny" is for the
# benchmark's own smoke tests only.
SIZES = {
    "full": {"scattered_turns": 20_000, "clustered_turns": 24_000, "shards": 6,
             "files_per_partition": 2, "docs": 3_000, "events": 60_000,
             "oracle_convs": 24},
    "tiny": {"scattered_turns": 1_200, "clustered_turns": 1_200, "shards": 4,
             "files_per_partition": 2, "docs": 300, "events": 3_000,
             "oracle_convs": 6},
}

DIGEST_COLS = ("conv_id", "turn_idx", "dqcflag", "keep", "text_scrubbed")
# planted labels whose rows the flagship must drop (flag or dedup-remove);
# ge_pii rows are scrubbed and kept, ge_zdem needs the optional 902 check
DROP_LABELS = ("ge_meta", "ge_range", "ge_buddy", "ge_dual", "ge_iso", "ge_black", "ge_dup")
MIN_DROP_F1 = 0.99

DOC_OPS = ("dedup_exact_docs", "doc_vocab_size", "doc_decontaminate", "doc_ngram_novelty",
           "doc_cms_wordcounts", "corpus_diff", "events_buddy")


def doc_twins() -> dict[str, str]:
    """DuckDB references for the doc operators: the program's SQL twin where
    it exposes a builder, else the operator's definition restated as in
    ``__ray_entry__.oracle_sql()``, which is not called here: it provisions
    caches outside the checkout. doc_cms_wordcounts has no
    twin here: its DuckDB replay alone takes ~15 s at this size."""
    from titan_ray.pipelines import docqc, events

    return {
        "dedup_exact_docs": (
            "SELECT min(doc_id) AS doc_id, count(*) AS n_copies FROM documents "
            "GROUP BY trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))"
        ),
        "doc_vocab_size": docqc.vocab_size_sql(),
        "doc_decontaminate": docqc.decontam_sql(),
        "doc_ngram_novelty": docqc.ngram_novelty_sql(),
        "corpus_diff": docqc.corpus_diff_sql(),
        "events_buddy": (
            "WITH w AS (SELECT event_id, user_id, CAST(round(value*1000) AS BIGINT) AS vm, "
            "sum(CAST(round(value*1000) AS BIGINT)) OVER win AS sm, count(*) OVER win AS cnt "
            "FROM events WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id "
            f"ROWS BETWEEN {events.WINDOW} PRECEDING AND {events.WINDOW} FOLLOWING)) "
            f"SELECT event_id, user_id FROM w WHERE cnt - 1 >= {events.MIN_NEIGH} "
            f"AND abs(vm*(cnt-1) - (sm - vm)) > {events.DEV_MILLI}*(cnt-1)"
        ),
    }


def qc_config():
    from titan_ray.config import QCConfig

    # fixed (not autoscaling) pools of one actor each: the same plan on
    # every host, and no pool can starve the shuffle of the 4 logical CPUs
    return QCConfig(dedup=True, scorer_concurrency=1)


def table_digest(df: pd.DataFrame) -> str:
    """Order-insensitive digest of a frame's rows (values as strings, so a
    dtype change alone does not count as a different result)."""
    df = df[sorted(df.columns)].astype(str)
    h = np.sort(pd.util.hash_pandas_object(df, index=False).to_numpy())
    return f"{hashlib.blake2b(h.tobytes(), digest_size=12).hexdigest()}:{len(h)}"


def read_parquet_dir(path: Path, columns=None) -> pa.Table:
    files = sorted(p for p in Path(path).rglob("*.parquet") if "_lineage" not in p.parts)
    if not files:
        raise FileNotFoundError(f"no parquet output under {path}")
    return pa.concat_tables(
        [pq.read_table(f, columns=columns).replace_schema_metadata(None) for f in files],
        promote_options="default",
    )


def _write_shards(table: pa.Table, in_dir: Path, bounds) -> None:
    in_dir.mkdir(parents=True, exist_ok=True)
    for s in range(len(bounds) - 1):
        pq.write_table(table.slice(bounds[s], bounds[s + 1] - bounds[s]),
                       in_dir / f"part-{s:05d}.parquet")


def conv_clustered_share(conv_ids: np.ndarray, shard_of_row: np.ndarray) -> float:
    """Share of rows (non-null conv_id) whose conversation forms ONE
    contiguous run in one shard — the input property a map-side conv path
    depends on (0% when rows are scattered, 100% in corpus-writer order)."""
    ok = np.asarray([c is not None for c in conv_ids])
    codes, _ = pd.factorize(conv_ids[ok])
    shard = shard_of_row[ok]
    new_run = np.ones(len(codes), dtype=bool)
    new_run[1:] = (codes[1:] != codes[:-1]) | (shard[1:] != shard[:-1])
    runs = np.bincount(codes[new_run], minlength=codes.max(initial=-1) + 1)
    return float((runs[codes] == 1).mean()) if len(codes) else 0.0


def oracle_norm(texts) -> pd.Series:
    """The serial oracle's dedup identity (lower, collapse whitespace, strip),
    in Arrow kernels. Generated text holds only ASCII whitespace, where re2's
    and Python's ``\\s`` agree."""
    texts = pc.fill_null(texts, "")
    return pc.utf8_trim_whitespace(
        pc.replace_substring_regex(pc.utf8_lower(texts), r"\s+", " ")).to_pandas()


# ---------------------------------------------------------------------------
# transcript workloads
# ---------------------------------------------------------------------------

class Transcripts:
    """Shared generator and checks for the two transcript workloads."""

    name = ""
    clustered = False

    def __init__(self, work: Path, seed: int, size: str):
        from titan_ray.corpus import MEGA_CONV_ID, generate_corpus

        sz = SIZES[size]
        self.seed = seed
        self.cfg = qc_config()
        self.oracle_convs = sz["oracle_convs"]
        self.in_dir = work / "input"
        n_turns = sz["clustered_turns" if self.clustered else "scattered_turns"]
        table = generate_corpus(n_turns, seed=seed)
        n = table.num_rows
        shards = sz["shards"]
        if self.clustered:
            # cut only at conversation starts (turn_idx == 0 marks every
            # start; planted metadata errors never sit at turn 0), so each
            # lineage partition holds whole conversations
            starts = np.flatnonzero(table["turn_idx"].to_numpy(zero_copy_only=False) == 0)
            want = np.linspace(0, n, shards + 1)[1:-1]
            cuts = starts[np.minimum(np.searchsorted(starts, want), len(starts) - 1)]
            bounds = np.unique(np.concatenate([[0], cuts, [n]]))
        else:
            table = table.take(pa.array(np.random.default_rng(seed).permutation(n)))
            bounds = np.linspace(0, n, shards + 1).astype(int)
        _write_shards(table, self.in_dir, bounds)
        self.table = table
        self.shard_of_row = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        self.fpp = sz["files_per_partition"]
        self.n_partitions = -(-(len(bounds) - 1) // self.fpp) if self.clustered else 1
        self.rows = n
        text = table["text"]
        self.text_bytes = int(pc.sum(pc.binary_length(text)).as_py() or 0)
        conv = table["conv_id"].to_numpy(zero_copy_only=False)
        self.sizes = {
            "turns": n,
            "text_bytes": self.text_bytes,
            "mega_turns": int((conv == MEGA_CONV_ID).sum()),
            "shards": len(bounds) - 1,
            "partitions": self.n_partitions,
            "conv_clustered_share": round(conv_clustered_share(conv, self.shard_of_row), 4),
        }

    def fingerprint(self, out: Path) -> str:
        return table_digest(read_parquet_dir(out, list(DIGEST_COLS)).to_pandas())

    def dedup_scope(self) -> np.ndarray:
        """Per input row, the execution whose dedup can see it."""
        return np.zeros(self.rows, dtype=int)

    def read_scoped(self, out: Path) -> tuple[pa.Table, np.ndarray]:
        t = read_parquet_dir(out)
        return t, np.zeros(t.num_rows, dtype=int)

    def reference_checks(self, out: Path) -> dict:
        result, out_scope = self.read_scoped(out)
        f1 = drop_f1(self.table, self.dedup_scope(), result, out_scope)
        mismatch = self._oracle_mismatch(result)
        return {"drop_f1": f1, "oracle_sample": mismatch or "ok",
                "ok": f1 >= MIN_DROP_F1 and mismatch is None}

    def plant_fault(self, out: Path) -> None:
        """Test hook: flip one output row's flag in place."""
        f = sorted(p for p in out.rglob("*.parquet") if "_lineage" not in p.parts)[0]
        t = pq.read_table(f)
        flags = t["dqcflag"].to_numpy(zero_copy_only=False).copy()
        flags[0] = 0 if flags[0] != 0 else 10
        t = t.set_column(t.column_names.index("dqcflag"), "dqcflag", pa.array(flags, type=pa.int32()))
        pq.write_table(t, f)

    # -- serial oracle on a seeded sample of whole conversations --------------

    def _oracle_mismatch(self, result: pa.Table) -> str | None:
        from titan_ray.corpus import MEGA_CONV_ID
        from titan_ray.oracle.serial import oracle_qc

        conv = self.table["conv_id"].to_pandas()
        ids = np.unique(conv.dropna().to_numpy(dtype=object))
        ids = ids[ids != MEGA_CONV_ID]
        rng = np.random.default_rng(self.seed + 1)
        picks = set(rng.choice(ids, min(self.oracle_convs, len(ids)), replace=False)) | {MEGA_CONV_ID}
        # dedup is global to one execution (one lineage partition when
        # clustered): give the oracle every row that could win a sampled
        # row's dedup tie, i.e. all rows with the same normalized text
        scope = self.dedup_scope()
        norm = oracle_norm(self.table["text"])
        in_sample = conv.isin(picks).to_numpy()
        frames = []
        for s in np.unique(scope[in_sample]):
            here = scope == s
            texts = set(norm[in_sample & here]) - {""}
            sub = self.table.filter(pa.array(here & (in_sample | norm.isin(texts).to_numpy())))
            frames.append(oracle_qc(sub, self.cfg))
        ora = pd.concat(frames)
        ora = ora[ora["conv_id"].isin(picks)]
        eng = result.to_pandas()
        eng = eng[eng["conv_id"].isin(picks)]
        key = ["conv_id", "turn_idx", "ts", "text"]
        ora = ora.sort_values(key, na_position="last", kind="mergesort").reset_index(drop=True)
        eng = eng.sort_values(key, na_position="last", kind="mergesort").reset_index(drop=True)
        if len(ora) != len(eng):
            return f"row count {len(eng)} != oracle {len(ora)}"
        for col in ("dqcflag", "keep", "text_scrubbed"):
            a = eng[col].astype(object).where(eng[col].notna(), None).tolist()
            b = ora[col].astype(object).where(ora[col].notna(), None).tolist()
            if a != b:
                return f"{col} differs from the serial oracle"
        return None


def drop_f1(inp: pa.Table, inp_scope: np.ndarray, out: pa.Table, out_scope: np.ndarray) -> float:
    """F1 of dropped turns (flagged, or removed by dedup) against the planted
    labels; keep-listed rows are not scored.

    Flags are scored per output row against the flag-class labels. Dedup
    removals are scored per duplicate group: a ``ge_dup`` row copies a random
    clean row, earlier or later, and keep-first may keep either copy, so each
    planted group (same normalized text within one dedup scope) owes exactly
    size - 1 removals. Removed rows are counted, not identified: removed =
    input rows - output rows, per group and per label class."""
    flag_labels = [c for c in DROP_LABELS if c != "ge_dup"]

    def frame(t: pa.Table, scope: np.ndarray) -> pd.DataFrame:
        truth = np.zeros(t.num_rows, dtype=bool)
        for c in flag_labels:
            truth |= t[c].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"scope": scope, "norm": oracle_norm(t["text"]), "truth": truth,
                           "dup": t["ge_dup"].to_numpy(zero_copy_only=False)})
        if "keep" in t.column_names:
            df["keep"] = t["keep"].to_numpy(zero_copy_only=False)
        return df[~t["is_keeplist"].to_numpy(zero_copy_only=False)]

    fi, fo = frame(inp, inp_scope), frame(out, out_scope)
    planted = fi.loc[fi["dup"] & (fi["norm"] != ""), ["scope", "norm"]].drop_duplicates()
    gi = fi.merge(planted, on=["scope", "norm"], how="left", indicator=True)["_merge"].eq("both").to_numpy()
    go = fo.merge(planted, on=["scope", "norm"], how="left", indicator=True)["_merge"].eq("both").to_numpy()
    n_in = fi[gi].groupby(["scope", "norm"]).size()
    n_out = fo[go].groupby(["scope", "norm"]).size().reindex(n_in.index, fill_value=0)
    owed, removed = n_in - 1, n_in - n_out
    tp = int(np.minimum(removed, owed).sum())
    fp = int((removed - owed).clip(lower=0).sum())
    fn = int((owed - removed).clip(lower=0).sum())

    dropped = ~fo["keep"].to_numpy()
    truth = fo["truth"].to_numpy()
    tp += int((truth & dropped).sum())
    fp += int((~truth & dropped).sum())
    fn += int((truth & ~dropped).sum())

    ti, to = fi["truth"].to_numpy()[~gi], fo["truth"].to_numpy()[~go]
    tp += int(ti.sum() - to.sum())          # labeled rows removed outside groups
    fp += int((~ti).sum() - (~to).sum())    # unlabeled rows removed outside groups
    return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0


class ScatteredOneshot(Transcripts):
    """Rows permuted across shards; one build_qc_pipeline -> write_parquet."""

    name = "scattered_oneshot"
    clustered = False

    def execute(self, out: Path) -> dict:
        from titan_ray.pipelines.qc import build_qc_pipeline
        from titan_ray.sources.reader import read_parquet_clean

        t0 = time.perf_counter()
        build_qc_pipeline(read_parquet_clean(str(self.in_dir)), self.cfg).write_parquet(str(out))
        return {"partition_s": [time.perf_counter() - t0]}


class ClusteredResumable(Transcripts):
    """Corpus-writer order, shards cut at conversation starts, run through
    run_qc_resumable partition by partition with lineage manifests."""

    name = "clustered_resumable"
    clustered = True

    def execute(self, out: Path) -> dict:
        from titan_ray.state.lineage import manifest_path, run_qc_resumable

        t0 = time.time()
        summary = run_qc_resumable(str(self.in_dir), str(out), self.cfg,
                                   files_per_partition=self.fpp)
        if summary["partitions"] != self.n_partitions or summary["skipped"]:
            raise RuntimeError(f"unexpected lineage summary {summary}")
        ends = [json.loads(Path(manifest_path(str(out), i)).read_text())["completed_at_unix"]
                for i in range(summary["partitions"])]
        return {"partition_s": [float(x) for x in np.diff([t0, *ends])]}

    def dedup_scope(self) -> np.ndarray:
        # run_qc_resumable dedups within a lineage partition, by contract
        return self.shard_of_row // self.fpp

    def read_scoped(self, out: Path) -> tuple[pa.Table, np.ndarray]:
        parts = [read_parquet_dir(out / f"part-{i:05d}") for i in range(self.n_partitions)]
        return pa.concat_tables(parts), np.repeat(np.arange(len(parts)), [p.num_rows for p in parts])

    def reference_checks(self, out: Path) -> dict:
        checks = super().reference_checks(out)
        # cross-partition duplicates survive by contract: shown, not gated
        result = read_parquet_dir(out)
        checks["drop_f1_corpus_scope"] = drop_f1(self.table, np.zeros(self.rows, dtype=int),
                                                 result, np.zeros(result.num_rows, dtype=int))
        rows = result.num_rows
        man = [json.loads(p.read_text()) for p in sorted((out / "_lineage").glob("*.json"))]
        manifests_ok = len(man) == self.n_partitions and sum(m["rows"] for m in man) == rows
        checks["manifests"] = "ok" if manifests_ok else "manifest rows or count wrong"
        checks["ok"] = checks["ok"] and manifests_ok
        return checks


# ---------------------------------------------------------------------------
# document / event operators
# ---------------------------------------------------------------------------

# Every parameter of the `documents`/`events` generator is fitted to the
# repository's sf0.1 test tables (5,000 documents, 100,000 events; see
# TESTDATA.md); the benchmark scales both row counts by the same factor.
# The measured statistic is given next to each parameter.
DOC_VOCAB = np.asarray(  # the same 30 words, each 3.3% +- 0.1% of all words
    "spark window merge table column vector stream value data small join filter big "
    "group hash customer sort order slow line part fast row the agg key query a scan batch".split(),
    dtype=object,
)
DOC_WORDS = (10, 100)       # uniform; words per doc min/p5/p50/p95/max = 10/14/54/94/100
NEAR_DUP_SHARE = 0.05       # 250 docs (5%) are another doc's text + " dup"
EXACT_DUP_SHARE = 0.0016    # 8 docs (0.16%) are byte-identical copies of another
DOC_LANGS = (["en", "zh", "es", "fr", "de"], [0.41, 0.15, 0.15, 0.15, 0.14])  # 41/15/15/15/14%
DOC_SOURCES = 20            # 20 distinct sources
EVENTS_PER_USER = 100_000 / 1_500  # per-user events p5/p95 = 53/81: uniform user draw
EVENT_VALUE_MEAN = 50.0     # exponential: mean/sd/p50/p95 = 49.9/49.6/34.8/149.2, 2 decimals
EVENT_DAYS = 30             # ts uniform over 30 days from 2024-01-01
EVENT_TYPES = np.asarray(["signup", "purchase", "view", "click", "error"], dtype=object)


class DocOperators:
    """A fixed sweep of registered docqc/events operators that use the
    bucket-exchange and counted-broadcast idioms, over seeded `documents`
    and `events` tables; each result is written as Parquet."""

    name = "doc_operators"

    def __init__(self, work: Path, seed: int, size: str):
        sz = SIZES[size]
        rng = np.random.default_rng(seed)
        self.in_dir = work / "input"
        self.in_dir.mkdir(parents=True, exist_ok=True)
        n_docs, n_events = sz["docs"], sz["events"]

        lo, hi = DOC_WORDS
        n_words = rng.integers(lo, hi + 1, n_docs)
        words = DOC_VOCAB[rng.integers(0, len(DOC_VOCAB), int(n_words.sum()))]
        offs = np.concatenate([[0], np.cumsum(n_words)])
        texts = [" ".join(words[offs[i]:offs[i + 1]]) for i in range(n_docs)]
        # near duplicates (distinct sources, so no two of them are equal) and
        # planted exact copies of an earlier doc; ascending, so every source
        # already holds its final text
        n_near = round(NEAR_DUP_SHARE * n_docs)
        n_exact = max(2, round(EXACT_DUP_SHARE * n_docs))
        picked = rng.permutation(np.arange(1, n_docs))
        near, copies = picked[:n_near], np.sort(picked[n_near:n_near + n_exact])
        sources = rng.choice(picked[n_near + n_exact:], n_near, replace=False)
        for d, src in zip(near, sources):
            texts[d] = texts[src] + " dup"
        for d in copies:
            texts[d] = texts[int(rng.integers(0, d))]
        self.planted_copies = set(int(d) for d in copies)
        docs = pa.table({
            "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(rng.choice(DOC_LANGS[0], n_docs, p=DOC_LANGS[1]), type=pa.string()),
            "source": pa.array([f"src{i % DOC_SOURCES}" for i in range(n_docs)], type=pa.string()),
            "n_chars": pa.array(np.asarray([len(t) for t in texts], dtype=np.int64)),
        })
        base = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
        ts = np.sort(base + rng.integers(0, EVENT_DAYS * 86_400_000_000, n_events))
        n_users = max(1, round(n_events / EVENTS_PER_USER))
        events = pa.table({
            "event_id": pa.array(np.arange(n_events, dtype=np.int64)),
            "ts": pa.array(ts.astype("datetime64[us]"), type=pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, n_users, n_events).astype(np.int64)),
            "event_type": pa.array(EVENT_TYPES[rng.integers(0, 5, n_events)], type=pa.string()),
            "value": pa.array(np.round(rng.exponential(EVENT_VALUE_MEAN, n_events), 2)),
            "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n_events)], type=pa.string()),
        })
        pq.write_table(docs, self.in_dir / "documents.parquet")
        pq.write_table(events, self.in_dir / "events.parquet")
        self.rows = n_docs + n_events
        self.text_bytes = int(pc.sum(pc.binary_length(docs["text"])).as_py())
        self.sizes = {"docs": n_docs, "events": n_events, "text_bytes": self.text_bytes,
                      "users": n_users, "near_duplicate_docs": n_near,
                      "planted_duplicate_docs": len(self.planted_copies), "operators": len(DOC_OPS)}

    @staticmethod
    def ops() -> dict:
        import __ray_entry__

        reg = __ray_entry__.queries()
        return {name: reg[name] for name in DOC_OPS}

    @staticmethod
    def write_result(res, out: Path) -> None:
        if isinstance(res, pd.DataFrame):
            out.mkdir(parents=True)
            pq.write_table(pa.Table.from_pandas(res, preserve_index=False), out / "part-0.parquet")
        else:
            res.write_parquet(str(out))

    def execute(self, out: Path) -> dict:
        # no lineage: the whole sweep is the unit of work a kill loses
        t0 = time.perf_counter()
        for name, fn in self.ops().items():
            self.write_result(fn(str(self.in_dir)), out / name)
        return {"partition_s": [time.perf_counter() - t0]}

    def fingerprint(self, out: Path) -> str:
        return "|".join(f"{name}={table_digest(read_parquet_dir(out / name).to_pandas())}"
                        for name in DOC_OPS)

    def reference_checks(self, out: Path) -> dict:
        import duckdb

        con = duckdb.connect()
        try:
            for t in ("documents", "events"):
                con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{self.in_dir / t}.parquet'")
            twins = {}
            for name, sql in doc_twins().items():
                eng = read_parquet_dir(out / name).to_pandas()
                ora = con.sql(sql).df()
                eng.columns = [c.lower() for c in eng.columns]
                ora.columns = [c.lower() for c in ora.columns]
                if sorted(eng.columns) != sorted(ora.columns) or table_digest(eng) != table_digest(ora):
                    twins[name] = "differs from its SQL twin"
        finally:
            con.close()
        kept = set(read_parquet_dir(out / "dedup_exact_docs", ["doc_id"])["doc_id"].to_pylist())
        dropped = set(range(self.sizes["docs"])) - kept
        tp = len(dropped & self.planted_copies)
        fp, fn = len(dropped - self.planted_copies), len(self.planted_copies - dropped)
        f1 = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0
        return {"drop_f1": f1, "sql_twins": twins or "ok",
                "ok": not twins and f1 >= MIN_DROP_F1}

    def plant_fault(self, out: Path) -> None:
        """Test hook: drop one row from one operator's written result."""
        f = sorted((out / "dedup_exact_docs").rglob("*.parquet"))[0]
        t = pq.read_table(f)
        pq.write_table(t.slice(1), f)


WORKLOADS = {w.name: w for w in (ScatteredOneshot, ClusteredResumable, DocOperators)}
