"""Online (cross-run) dedup index — the shared-MUTABLE-index pattern.

Every other dedup in this engine is a batch operator: it reshuffles the
whole input, which is the right shape when the corpus arrives at once. An
INCREMENTAL ingest (crawl N+1 arriving after crawl N is already written)
can't reshuffle history; it needs an index that outlives a single Dataset
pipeline. That is the one semantics `ray.data` cannot express — state
mutated by many concurrent map tasks and queried later — so this module is
the engine's one deliberate drop to raw Ray actors (the escape hatch the
design doc reserves for exactly this case; everything else stays Dataset).

Design:
- ``DedupIndex`` = ``num_shards`` actors, each owning a dict from the
  128-bit content-hash pair (the siphash pair of
  stages/dedup.py:_hash2) to the MIN doc id seen so far. Hash-partitioning by
  h1 % shards makes every merge shard-local; shards scale horizontally and
  on a real cluster spread across nodes (``scheduling_strategy="SPREAD"``).
- ``offer`` is called from INSIDE ``map_batches`` tasks: each task groups
  its batch's hashes by shard and fires one ``merge`` per shard. Merging
  min() is commutative + associative, so the result is deterministic under
  any batch arrival order — which is what makes the operator oracle-able
  even though execution is racy by construction.
- ``drain`` streams each shard's (h1, h2, doc_id) table back; the union of
  shard drains IS the deduped corpus manifest for the next run.

Memory at scale: one entry per DISTINCT content (24 B packed key + int).
That is the irreducible cost of online exact dedup; it shards across the
cluster, and a 100 TB corpus with ~10^10 distinct docs needs ~100 shard
actors at ~3 GB each — a knob, not a wall.

Reference analog: the duplicate-station pre-check at read
(read_data_to_check.r:232-244) recast as persistent cross-batch state.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray


@ray.remote(num_cpus=0.25)
class DedupShard:
    """One shard: {(h1<<64)|h2 -> min doc_id}. Batch-dict ops only."""

    def __init__(self) -> None:
        self._m: dict[int, int] = {}

    def merge(self, h1: np.ndarray, h2: np.ndarray, ids: np.ndarray) -> int:
        m = self._m
        for k1, k2, v in zip(h1.tolist(), h2.tolist(), ids.tolist()):
            k = (k1 << 64) | (k2 & 0xFFFFFFFFFFFFFFFF)
            cur = m.get(k)
            if cur is None or v < cur:
                m[k] = v
        return len(m)

    def drain(self) -> pa.Table:
        n = len(self._m)
        h1 = np.empty(n, dtype=np.int64)
        h2 = np.empty(n, dtype=np.int64)
        ids = np.empty(n, dtype=np.int64)
        for i, (k, v) in enumerate(self._m.items()):
            h1[i] = np.int64(np.uint64((k >> 64) & 0xFFFFFFFFFFFFFFFF))
            h2[i] = np.int64(np.uint64(k & 0xFFFFFFFFFFFFFFFF))
            ids[i] = v
        return pa.table({"h1": pa.array(h1), "h2": pa.array(h2),
                         "doc_id": pa.array(ids)})

    def size(self) -> int:
        return len(self._m)


class DedupIndex:
    """Sharded online dedup index (min-doc_id-per-content semantics)."""

    def __init__(self, num_shards: int = 8):
        self.num_shards = num_shards
        # SPREAD so shards land on distinct nodes on a real cluster
        self.shards = [
            DedupShard.options(scheduling_strategy="SPREAD").remote()
            for _ in range(num_shards)
        ]

    def offer(self, h1: np.ndarray, h2: np.ndarray, ids: np.ndarray) -> None:
        """Route one batch's hashes to their shards (called inside tasks)."""
        sh = (h1 % self.num_shards + self.num_shards) % self.num_shards
        refs = []
        for s in np.unique(sh):
            m = sh == s
            refs.append(self.shards[int(s)].merge.remote(h1[m], h2[m], ids[m]))
        ray.get(refs)   # backpressure: a task finishes only when absorbed

    def drain(self):
        """All shards' (h1, h2, doc_id) as one Ray Dataset."""
        import ray.data as rd

        tables = ray.get([s.drain.remote() for s in self.shards])
        return rd.from_arrow(tables)

    def size(self) -> int:
        return int(sum(ray.get([s.size.remote() for s in self.shards])))


def online_dedup_ingest(ds, index: DedupIndex, text_col: str = "text",
                        id_col: str = "doc_id") -> int:
    """Stream a Dataset into the index; returns rows ingested. Safe to call
    repeatedly (successive crawls) — the index keeps the global min id per
    distinct content across ALL calls."""
    from ..stages.dedup import _hash2

    def absorb(batch: pa.Table) -> pa.Table:
        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        h1, h2 = _hash2(texts.to_pandas())
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        index.offer(h1, h2, ids)
        return pa.table({"n": pa.array([len(ids)], type=pa.int64())})

    counts = ds.map_batches(absorb, batch_format="pyarrow")
    return int(counts.sum("n") or 0)


def online_dedup_docs(sf_dir: str, num_shards: int = 8):
    """Gate query: ingest the documents table in two separate pipeline runs
    (odd ids, then even ids — simulating two crawls against ONE persistent
    index) and return the surviving manifest as (doc_id) — the min doc_id
    per distinct text. min() is order-free, so the result is deterministic
    under Ray's racy batch arrival and replays exactly in SQL."""
    from ..pipelines.docqc import _read

    index = DedupIndex(num_shards)
    base = _read(sf_dir, ["doc_id", "text"])

    def parity_filter(p: int):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(ids % 2 == p))

        return fn

    for parity in (1, 0):   # two "crawls"
        crawl = base.map_batches(parity_filter(parity), batch_format="pyarrow")
        online_dedup_ingest(crawl, index)
    out = index.drain().select_columns(["doc_id"])
    return out


def online_dedup_sql() -> str:
    """DuckDB oracle: min doc_id per distinct text (literal-string groups;
    an engine-side hash collision would surface as a gate mismatch)."""
    return (
        "SELECT CAST(min(doc_id) AS BIGINT) AS doc_id "
        "FROM documents GROUP BY text"
    )
