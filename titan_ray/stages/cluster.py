"""Distributed k-means over the embedding column — the semantic-clustering
stage of a curation pipeline (SemDeDup-style: cluster, then prune/balance
within clusters).

Recast of the reference's station-grouping ideas (reference:
functions/checks/isolation.r groups stations by spatial proximity; here
proximity is embedding distance) as iterative Lloyd over Ray Data:

- Embeddings are QUANTIZED to integers (round(x * 2**15)) and centroids are
  re-rounded to integers every iteration, so every distance is an exact
  int64 sum — deterministic regardless of batch order / parallelism, and
  bit-replayable in SQL (list_zip + list_sum over BIGINTs).
- Each Lloyd iteration is one streaming pass: map_batches computes, per
  batch, the k x (d+1) partial sums/counts (int64 — order-free exact), the
  driver combines the tiny partials and re-derives centroids. Nothing wide
  ever shuffles; the centroid matrix (k x d ints) rides into tasks by
  closure capture.
- At 10^12-row scale the per-iteration re-read streams from storage; T is
  fixed and small. Init = the first k rows in storage order
  (deterministic; limit() pushes down, no shuffle).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..exchange import bucket_exchange
from ..sources.reader import read_parquet_clean
from .ann import round_half_away

QUANT_SCALE = 32768.0  # 2**15: |x| <= 1 embeddings stay well inside int32


def quantize(emb: np.ndarray) -> np.ndarray:
    """float32/64 (n, d) -> int64: round_half_away(CAST(x AS DOUBLE)*2^15),
    the exact op DuckDB's round(CAST(x AS DOUBLE)*32768.0) performs."""
    return round_half_away(emb.astype(np.float64) * QUANT_SCALE, 0).astype(np.int64)


def _batch_embeddings(batch: pa.Table) -> np.ndarray:
    col = batch["embedding"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(len(col), -1)


def _assign(q: np.ndarray, cent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cluster_id, dist2) per row; exact int64 math, first-min tie-break."""
    # dist2[i,j] = |q_i|^2 - 2 q_i.c_j + |c_j|^2, all int64 (|q|,|c| <= 2^15
    # per coord, d=64 => |dot| <= 64 * 2^30 = 2^36 — no overflow)
    qq = np.einsum("ij,ij->i", q, q)
    cc = np.einsum("ij,ij->i", cent, cent)
    d2 = qq[:, None] - 2 * (q @ cent.T) + cc[None, :]
    cid = np.argmin(d2, axis=1)  # first (lowest cid) wins ties, as the SQL does
    return cid.astype(np.int32), d2[np.arange(len(q)), cid]


def kmeans_fit(ds, k: int = 8, iters: int = 4) -> np.ndarray:
    """Lloyd iterations over a Dataset with an ``embedding`` column; returns
    the (k, d) int64 centroid matrix."""
    # init: first k rows in storage order (files sorted lexicographically,
    # rows in file order — deterministic, and limit() pushes down to the
    # first block: no shuffle, no full read)
    init = ds.limit(k).to_pandas()["embedding"]
    cent = quantize(np.stack(init.to_numpy()))

    for _ in range(iters):
        c = cent  # captured in the UDF (k x d ints), which runs before cent is rebound

        def partial(batch: pa.Table) -> pa.Table:
            q = quantize(_batch_embeddings(batch))
            cid, _ = _assign(q, c)
            sums = np.zeros((len(c), q.shape[1]), dtype=np.int64)
            np.add.at(sums, cid, q)
            counts = np.bincount(cid, minlength=len(c)).astype(np.int64)
            return pa.table(
                {
                    "cid": pa.array(np.arange(len(c), dtype=np.int32)),
                    "count": pa.array(counts),
                    "sum": pa.array(list(sums), type=pa.list_(pa.int64())),
                }
            )

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        counts = parts.groupby("cid")["count"].sum()
        sums = np.zeros_like(cent)
        for cid_val, grp in parts.groupby("cid"):
            sums[cid_val] = np.sum(np.stack(grp["sum"].to_numpy()), axis=0)
        new = cent.copy()  # empty clusters keep their old centroid
        for j in range(len(cent)):
            n = int(counts.get(j, 0))
            if n > 0:
                # integer centroid: round_half_away(sum/n) — exact int sums,
                # one exact double division, the same rounding SQL applies
                new[j] = round_half_away(sums[j] / float(n), 0).astype(np.int64)
        cent = new
    return cent


def embedding_kmeans(sf_dir: str, k: int = 8, iters: int = 4):
    """Queries() entry: fit on the embeddings table, persist centroids for
    the SQL oracle, return (vec_id, cluster, dist) — dist the exact int64
    squared distance in quantized space."""
    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    cent = kmeans_fit(ds, k=k, iters=iters)
    _persist_centroids(sf_dir, cent)

    def assign(batch: pa.Table) -> pa.Table:
        q = quantize(_batch_embeddings(batch))
        cid, dist = _assign(q, cent)
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "cluster": pa.array(cid),
                "dist": pa.array(dist),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def centroids_path(sf_dir: str) -> str:
    import hashlib

    tag = hashlib.sha1(sf_dir.encode()).hexdigest()[:12]
    return f"/tmp/titan_ray_kmeans/{tag}/centroids.parquet"


def _persist_centroids(sf_dir: str, cent: np.ndarray) -> None:
    import os

    import pyarrow.parquet as pq

    path = centroids_path(sf_dir)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tbl = pa.table(
        {
            "cid": pa.array(np.arange(len(cent), dtype=np.int32)),
            "qc": pa.array(list(cent), type=pa.list_(pa.int64())),
        }
    )
    pq.write_table(tbl, path)


def kmeans_sql(sf_dir: str) -> str:
    """DuckDB replay of the ASSIGNMENT against the engine-persisted
    centroids: same quantization, exact int64 distances, same (dist, cid)
    tie-break. (The Lloyd fit itself is iterative/model-internal — what the
    oracle certifies is that the published cluster assignment is exactly
    argmin over the published centroids.)"""
    path = centroids_path(sf_dir)
    return (
        "WITH q AS (SELECT vec_id, list_transform(embedding, "
        f"x -> CAST(round(CAST(x AS DOUBLE) * {QUANT_SCALE!r}) AS BIGINT)) AS qe "
        "FROM embeddings), "
        f"c AS (SELECT cid, qc FROM '{path}'), "
        # CAST: list_sum over BIGINTs yields HUGEINT, which pandas converts
        # to float64 and breaks exact integer comparison downstream
        "d AS (SELECT vec_id, cid, CAST(list_sum(list_transform(list_zip(qe, qc), "
        "p -> (p[1] - p[2]) * (p[1] - p[2]))) AS BIGINT) AS dist FROM q CROSS JOIN c), "
        "r AS (SELECT vec_id, cid, dist, "
        "row_number() OVER (PARTITION BY vec_id ORDER BY dist, cid) AS rn FROM d) "
        "SELECT vec_id, CAST(cid AS INTEGER) AS cluster, dist FROM r WHERE rn = 1"
    )


def semantic_dedup(sf_dir: str, k: int = 8, iters: int = 4, threshold: float = 0.45):
    """SemDeDup-style semantic deduplication: cluster the embedding space,
    then prune near-duplicates WITHIN each cluster — the pairwise comparison
    is confined to cluster members, so the all-pairs cost is O(k·(n/k)²)
    instead of O(n²), with one similarity matrix per cluster.

    Drop rule (deterministic, SQL-replayable): a vector is dropped when ANY
    lower-vec_id member of its cluster has cosine similarity (rounded half
    away to 4 decimals, the same contract embedding_neardup uses) strictly
    above ``threshold`` — the greedy keep-lowest-id rule, applied against
    all lower ids rather than only kept ones (no chaining), which keeps the
    oracle a single anti-join instead of a recursion.

    Scale shape: one narrow (vec_id, cluster, embedding) shuffle groups each
    cluster onto one task; at 100 TB ``k`` grows with n (SemDeDup uses
    k ≈ sqrt(n)) so per-group matrices stay bounded. A cross-cluster near-dup
    pair is missed by design — that is SemDeDup's documented approximation.

    Returns kept rows as (vec_id, cluster).
    """
    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    cent = kmeans_fit(ds, k=k, iters=iters)
    _persist_centroids(sf_dir, cent)

    def assign(batch: pa.Table) -> pa.Table:
        q = quantize(_batch_embeddings(batch))
        cid, _ = _assign(q, cent)
        return batch.append_column("cluster", pa.array(cid))

    def prune(t: pa.Table) -> pa.Table:
        # all pairs within each cluster (never across): one matrix per cluster
        cl = t["cluster"].to_numpy()
        order = np.lexsort((t["vec_id"].to_numpy(), cl))
        bounds = np.flatnonzero(np.r_[True, cl[order][1:] != cl[order][:-1], True])
        emb = _batch_embeddings(t)
        keep = np.zeros(t.num_rows, dtype=bool)
        for s_, e_ in zip(bounds[:-1], bounds[1:]):
            rows = order[s_:e_]
            m = emb[rows].astype(np.float64)
            norm = np.sqrt(np.einsum("ij,ij->i", m, m))
            n = m / np.maximum(norm, 1e-300)[:, None]
            s = round_half_away(n @ n.T, 4)
            # drop j when any i<j has sim > threshold: strict lower triangle
            keep[rows] = ~np.tril(s > threshold, k=-1).any(axis=1)
        kept = pa.array(order[keep[order]])
        return pa.table({"vec_id": t["vec_id"].take(kept), "cluster": t["cluster"].take(kept)})

    return bucket_exchange(ds.map_batches(assign, batch_format="pyarrow"), "cluster", prune)


def semantic_dedup_sql(sf_dir: str, threshold: float = 0.45) -> str:
    """DuckDB replay: assignment against the persisted centroids (exact int
    argmin, as kmeans_sql) + the greedy lower-id cosine drop rule as an
    anti-join over same-cluster pairs."""
    path = centroids_path(sf_dir)
    cos = (
        "round(list_dot_product(n1.e, n2.e) / "
        "(sqrt(list_dot_product(n1.e, n1.e)) * sqrt(list_dot_product(n2.e, n2.e))), 4)"
    )
    return (
        "WITH q AS (SELECT vec_id, list_transform(embedding, "
        f"x -> CAST(round(CAST(x AS DOUBLE) * {QUANT_SCALE!r}) AS BIGINT)) AS qe "
        "FROM embeddings), "
        f"c AS (SELECT cid, qc FROM '{path}'), "
        "d AS (SELECT vec_id, cid, CAST(list_sum(list_transform(list_zip(qe, qc), "
        "p -> (p[1] - p[2]) * (p[1] - p[2]))) AS BIGINT) AS dist FROM q CROSS JOIN c), "
        "r AS (SELECT vec_id, cid, row_number() OVER (PARTITION BY vec_id ORDER BY dist, cid) AS rn FROM d), "
        "a AS (SELECT vec_id, CAST(cid AS INTEGER) AS cluster FROM r WHERE rn = 1), "
        "n AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings), "
        "p AS (SELECT a2.vec_id AS v FROM a a1 JOIN a a2 "
        "ON a1.cluster = a2.cluster AND a1.vec_id < a2.vec_id "
        "JOIN n n1 ON n1.vec_id = a1.vec_id JOIN n n2 ON n2.vec_id = a2.vec_id "
        f"WHERE {cos} > {threshold!r}) "
        "SELECT a.vec_id, a.cluster FROM a WHERE a.vec_id NOT IN (SELECT v FROM p)"
    )


def ensure_centroids(sf_dir: str) -> str:
    """Provision the SQL-oracle sidecar (fit + persist) if missing; needs
    Ray initialised. The fit is deterministic, so re-running is idempotent."""
    import os

    path = centroids_path(sf_dir)
    if not os.path.exists(path):
        embedding_kmeans(sf_dir)  # fit is eager; persists centroids
    return path


# ---------------------------------------------------------------------------
# Product quantization (PQ) — the standard ANN compression codebook
# (Jegou et al. 2011, public literature): split the embedding into M
# subspaces, k-means each subspace, store each vector as M small codes.
# Same integer-exact discipline as embedding_kmeans, so the published code
# assignment replays bit-identically in SQL against the persisted codebooks.
# ---------------------------------------------------------------------------

PQ_M = 16         # subspaces (64-dim embeddings -> 4 dims each)
PQ_K = 256        # centroids per subspace (codes are exactly one byte);
                  # sized for near-uniform spherical data — measured
                  # recall@10 vs exact L2 on the synthetic table:
                  # 4x16 bits 0.1, 8x64 0.4, 16x256 0.8
PQ_SAMPLE = 4096  # bounded deterministic training sample (first rows in
                  # storage order; PQ codebooks are standardly sample-trained)


def _lloyd_int(X: np.ndarray, k: int, iters: int) -> np.ndarray:
    """In-memory Lloyd over an int64 matrix with the exact rounding rules of
    kmeans_fit (init = first k rows, integer re-rounded centroids, empty
    clusters keep their centroid). Used only on the BOUNDED training sample."""
    cent = X[:k].copy()
    for _ in range(iters):
        cid, _ = _assign(X, cent)
        new = cent.copy()
        for j in range(k):
            mask = cid == j
            n = int(mask.sum())
            if n > 0:
                new[j] = round_half_away(X[mask].sum(axis=0) / float(n), 0).astype(np.int64)
        cent = new
    return cent


def pq_path(sf_dir: str) -> str:
    import hashlib

    tag = hashlib.sha1(sf_dir.encode()).hexdigest()[:12]
    return f"/tmp/titan_ray_kmeans/{tag}/pq_codebooks.parquet"


def embedding_pq(sf_dir: str, m: int = PQ_M, k: int = PQ_K, iters: int = 4,
                 sample: int = PQ_SAMPLE):
    """Queries() entry: train per-subspace codebooks on a bounded sample
    (ONE limit() read — never a full pass per subspace), persist them for
    the SQL oracle, then stream the full table through one assignment pass
    emitting (vec_id, code0..code{m-1}, dist) — dist is the exact int64
    PQ reconstruction error (sum of per-subspace squared distances in
    quantized space).

    Scale: training cost is O(sample x d) on the driver; the assignment is
    a stateless map_batches with the m x k x (d/m) int codebook captured by
    closure. Nothing shuffles."""
    import os

    import pyarrow.parquet as pq_

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    samp = quantize(np.stack(ds.limit(sample).to_pandas()["embedding"].to_numpy()))
    d = samp.shape[1]
    if d % m:
        raise ValueError(f"embedding dim {d} not divisible by m={m}")
    dsub = d // m
    books = [
        _lloyd_int(np.ascontiguousarray(samp[:, s * dsub:(s + 1) * dsub]), k, iters)
        for s in range(m)
    ]

    path = pq_path(sf_dir)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq_.write_table(
        pa.table(
            {
                "sub": pa.array(np.repeat(np.arange(m, dtype=np.int32), k)),
                "cid": pa.array(np.tile(np.arange(k, dtype=np.int32), m)),
                "qc": pa.array([list(b[j]) for b in books for j in range(k)],
                               type=pa.list_(pa.int64())),
            }
        ),
        path,
    )

    def assign(batch: pa.Table) -> pa.Table:
        q = quantize(_batch_embeddings(batch))
        cols = {"vec_id": batch["vec_id"]}
        total = np.zeros(len(q), dtype=np.int64)
        for s in range(m):
            cid, d2 = _assign(np.ascontiguousarray(q[:, s * dsub:(s + 1) * dsub]), books[s])
            cols[f"code{s}"] = pa.array(cid)
            total += d2
        cols["dist"] = pa.array(total)
        return pa.table(cols)

    return ds.map_batches(assign, batch_format="pyarrow")


def pq_sql(sf_dir: str, m: int = PQ_M, dsub: int = 64 // PQ_M) -> str:
    """DuckDB replay of the PQ ASSIGNMENT against the persisted codebooks:
    per (vec_id, sub) exact int64 argmin (dist, cid tie-break), pivoted to
    code columns + the summed reconstruction error. Like kmeans_sql, the
    sample-trained fit is model-internal; the oracle certifies the
    published codes are exactly argmin over the published codebooks."""
    path = pq_path(sf_dir)
    codes = ", ".join(
        f"CAST(max(CASE WHEN sub = {s} THEN cid END) AS INTEGER) AS code{s}"
        for s in range(m)
    )
    return (
        "WITH q AS (SELECT vec_id, list_transform(embedding, "
        f"x -> CAST(round(CAST(x AS DOUBLE) * {QUANT_SCALE!r}) AS BIGINT)) AS qe "
        "FROM embeddings), "
        f"c AS (SELECT sub, cid, qc FROM '{path}'), "
        "d AS (SELECT vec_id, sub, cid, CAST(list_sum(list_transform("
        f"list_zip(list_slice(qe, sub * {dsub} + 1, (sub + 1) * {dsub}), qc), "
        "p -> (p[1] - p[2]) * (p[1] - p[2]))) AS BIGINT) AS dist "
        "FROM q CROSS JOIN c), "
        "r AS (SELECT vec_id, sub, cid, dist, row_number() OVER "
        "(PARTITION BY vec_id, sub ORDER BY dist, cid) AS rn FROM d) "
        f"SELECT vec_id, {codes}, CAST(sum(dist) AS BIGINT) AS dist "
        "FROM r WHERE rn = 1 GROUP BY vec_id"
    )


def ensure_pq(sf_dir: str) -> str:
    """Provision the PQ SQL-oracle sidecar (train + persist codebooks) if
    missing; needs Ray initialised. Deterministic, idempotent."""
    import os

    path = pq_path(sf_dir)
    if not os.path.exists(path):
        embedding_pq(sf_dir)  # training is eager; persists codebooks
    return path


def ann_topk_pq(sf_dir: str, k: int = 10, vec_id: int = 0, m: int = PQ_M):
    """ADC (asymmetric distance computation) top-k over the PQ codebooks —
    the classic compressed-index ANN scan (Jegou et al. 2011): the query
    stays unquantized-to-codes; per subspace a k-entry LUT of exact int64
    squared distances query-to-centroid is precomputed, and each vector's
    approximate distance is the sum of its m code LUT entries. One
    streaming pass + a k-row sort; the LUT (m x k ints) rides by closure.

    Everything is exact int64 (quantized space), so the DuckDB oracle
    (ann_topk_pq_sql) reproduces the ranking bit-for-bit."""
    from .ann import query_vector

    ensure_pq(sf_dir)
    import pyarrow.parquet as pq_

    book = pq_.read_table(pq_path(sf_dir))
    subs = book["sub"].to_numpy(zero_copy_only=False)
    cids = book["cid"].to_numpy(zero_copy_only=False)
    qcs = np.stack([np.asarray(x) for x in book["qc"].to_pylist()]).astype(np.int64)
    n_k = int(cids.max()) + 1
    dsub = qcs.shape[1]

    q = quantize(query_vector(sf_dir, vec_id)[None, :])[0]
    books, luts = [], []
    for s in range(m):
        cent = qcs[subs == s][np.argsort(cids[subs == s])]
        books.append(cent)
        diff = cent - q[s * dsub:(s + 1) * dsub][None, :]
        luts.append(np.einsum("ij,ij->i", diff, diff))  # exact int64

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def adc(batch: pa.Table) -> pa.Table:
        qm = quantize(_batch_embeddings(batch))
        total = np.zeros(len(qm), dtype=np.int64)
        for s in range(m):
            cid, _ = _assign(np.ascontiguousarray(qm[:, s * dsub:(s + 1) * dsub]), books[s])
            total += luts[s][cid]
        return pa.table({"vec_id": batch["vec_id"], "dist": pa.array(total)})

    return ds.map_batches(adc, batch_format="pyarrow").sort(["dist", "vec_id"]).limit(k)


def ann_topk_pq_sql(sf_dir: str, k: int = 10, vec_id: int = 0,
                    m: int = PQ_M, dsub: int = 64 // PQ_M) -> str:
    """DuckDB replay of the ADC scan: per-vector per-subspace argmin code
    (the pq_sql rule), joined to the per-(sub, cid) exact query-to-centroid
    distance, summed and top-k'd with the same (dist, vec_id) order."""
    path = pq_path(sf_dir)
    return (
        "WITH q AS (SELECT vec_id, list_transform(embedding, "
        f"x -> CAST(round(CAST(x AS DOUBLE) * {QUANT_SCALE!r}) AS BIGINT)) AS qe "
        "FROM embeddings), "
        f"qv AS (SELECT qe FROM q WHERE vec_id = {vec_id}), "
        f"c AS (SELECT sub, cid, qc FROM '{path}'), "
        "cd AS (SELECT c.sub, c.cid, CAST(list_sum(list_transform("
        f"list_zip(list_slice(qv.qe, c.sub * {dsub} + 1, (c.sub + 1) * {dsub}), c.qc), "
        "p -> (p[1] - p[2]) * (p[1] - p[2]))) AS BIGINT) AS qdist FROM c, qv), "
        "d AS (SELECT vec_id, sub, cid, CAST(list_sum(list_transform("
        f"list_zip(list_slice(qe, sub * {dsub} + 1, (sub + 1) * {dsub}), qc), "
        "p -> (p[1] - p[2]) * (p[1] - p[2]))) AS BIGINT) AS dist "
        "FROM q CROSS JOIN c), "
        "r AS (SELECT vec_id, sub, cid, row_number() OVER "
        "(PARTITION BY vec_id, sub ORDER BY dist, cid) AS rn FROM d), "
        "a AS (SELECT r.vec_id, CAST(sum(cd.qdist) AS BIGINT) AS dist "
        "FROM r JOIN cd ON cd.sub = r.sub AND cd.cid = r.cid "
        "WHERE r.rn = 1 GROUP BY r.vec_id) "
        f"SELECT vec_id, dist FROM a ORDER BY dist, vec_id LIMIT {k}"
    )


# ---------------------------------------------------------------------------
# IVF-PQ (IVFADC, Jegou et al. 2011): coarse k-means cells + ONE shared PQ
# codebook over cell RESIDUALS — the standard billion-scale ANN index.
# Coarse centroids are the SAME persisted integer centroids the
# embedding_kmeans oracle certifies; residuals stay int64, so the full
# probe -> residual-code -> ADC ranking replays bit-exactly in SQL.
# ---------------------------------------------------------------------------


def ivfpq_path(sf_dir: str) -> str:
    import hashlib

    tag = hashlib.sha1(sf_dir.encode()).hexdigest()[:12]
    return f"/tmp/titan_ray_kmeans/{tag}/ivfpq_codebooks.parquet"


def _train_ivfpq(sf_dir: str, ds, cent: np.ndarray, m: int, k: int,
                 iters: int, sample: int) -> list[np.ndarray]:
    """Shared residual codebooks from a bounded deterministic sample."""
    import os

    import pyarrow.parquet as pq_

    samp = quantize(np.stack(ds.limit(sample).to_pandas()["embedding"].to_numpy()))
    cid, _ = _assign(samp, cent)
    res = samp - cent[cid]
    dsub = samp.shape[1] // m
    books = [
        _lloyd_int(np.ascontiguousarray(res[:, s * dsub:(s + 1) * dsub]), k, iters)
        for s in range(m)
    ]
    path = ivfpq_path(sf_dir)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq_.write_table(
        pa.table(
            {
                "sub": pa.array(np.repeat(np.arange(m, dtype=np.int32), k)),
                "cid": pa.array(np.tile(np.arange(k, dtype=np.int32), m)),
                "qc": pa.array([list(b[j]) for b in books for j in range(k)],
                               type=pa.list_(pa.int64())),
            }
        ),
        path,
    )
    return books


def ann_topk_ivfpq(sf_dir: str, k: int = 10, vec_id: int = 0, n_probe: int = 6,
                   m: int = PQ_M, pq_k: int = PQ_K, iters: int = 4,
                   sample: int = PQ_SAMPLE):
    """IVF-ADC top-k: probe the ``n_probe`` coarse cells nearest the query
    (exact int64 distance, cid tie-break), and within probed cells rank by
    the ADC sum over RESIDUAL codes — per probed cell the query residual
    yields an m x pq_k LUT of exact distances, each vector costs m LUT
    gathers. One streaming pass; the coarse matrix + codebooks + LUTs ride
    by closure (n_probe x m x pq_k ints).

    Approximation comes ONLY from the probe cut and the residual
    quantization — both deterministic — so the DuckDB oracle
    (ann_topk_ivfpq_sql) reproduces the ranking bit-for-bit."""
    import pyarrow.parquet as pq_

    from .ann import query_vector

    ensure_centroids(sf_dir)
    cent = np.stack(
        [np.asarray(x) for x in pq_.read_table(centroids_path(sf_dir))["qc"].to_pylist()]
    ).astype(np.int64)
    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    books = _train_ivfpq(sf_dir, ds, cent, m, pq_k, iters, sample)
    dsub = cent.shape[1] // m

    q = quantize(query_vector(sf_dir, vec_id)[None, :])[0]
    qd = np.einsum("ij,ij->i", cent - q[None, :], cent - q[None, :])
    probe = np.lexsort((np.arange(len(cent)), qd))[:n_probe]  # (dist, cid) order
    luts = {}
    for cell in probe:
        qr = q - cent[cell]
        luts[int(cell)] = [
            np.einsum("ij,ij->i", b - qr[s * dsub:(s + 1) * dsub][None, :],
                      b - qr[s * dsub:(s + 1) * dsub][None, :])
            for s, b in enumerate(books)
        ]
    probe_set = set(int(c) for c in probe)

    def adc(batch: pa.Table) -> pa.Table:
        qm = quantize(_batch_embeddings(batch))
        cid, _ = _assign(qm, cent)
        mask = np.isin(cid, probe)
        if not mask.any():
            return pa.table({"vec_id": pa.array([], type=pa.int64()),
                             "dist": pa.array([], type=pa.int64())})
        qm, cid = qm[mask], cid[mask]
        res = qm - cent[cid]
        total = np.zeros(len(qm), dtype=np.int64)
        probe_sorted = np.sort(probe)
        cell_pos = np.searchsorted(probe_sorted, cid)
        for s in range(m):
            code, _ = _assign(np.ascontiguousarray(res[:, s * dsub:(s + 1) * dsub]), books[s])
            # gather the per-cell query LUT entry for each vector's code
            lut_rows = np.stack([luts[int(c)][s] for c in probe_sorted])
            total += lut_rows[cell_pos, code]
        return pa.table({"vec_id": batch["vec_id"].filter(pa.array(mask)),
                         "dist": pa.array(total)})

    return ds.map_batches(adc, batch_format="pyarrow").sort(["dist", "vec_id"]).limit(k)


def ann_topk_ivfpq_sql(sf_dir: str, k: int = 10, vec_id: int = 0,
                       n_probe: int = 6, m: int = PQ_M,
                       dsub: int = 64 // PQ_M) -> str:
    """DuckDB replay of the IVF-ADC scan: coarse argmin assignment (the
    kmeans_sql rule) against the SAME persisted centroids, probe = top
    n_probe cells by exact query distance, residual per-subspace argmin
    codes against the persisted residual codebooks, summed query-LUT
    distances, same (dist, vec_id) top-k."""
    cpath = centroids_path(sf_dir)
    path = ivfpq_path(sf_dir)
    sq = "p -> (p[1] - p[2]) * (p[1] - p[2])"
    return (
        "WITH q AS (SELECT vec_id, list_transform(embedding, "
        f"x -> CAST(round(CAST(x AS DOUBLE) * {QUANT_SCALE!r}) AS BIGINT)) AS qe "
        "FROM embeddings), "
        f"qv AS (SELECT qe FROM q WHERE vec_id = {vec_id}), "
        f"co AS (SELECT cid, qc FROM '{cpath}'), "
        f"pqc AS (SELECT sub, cid, qc FROM '{path}'), "
        # probe cells: top n_probe coarse cells by exact distance to the query
        "pr AS (SELECT cid AS cell, qc AS cqc FROM ("
        "SELECT co.cid, co.qc, row_number() OVER (ORDER BY "
        f"CAST(list_sum(list_transform(list_zip(qv.qe, co.qc), {sq})) AS BIGINT), co.cid) AS rn "
        f"FROM co, qv) WHERE rn <= {n_probe}), "
        # coarse assignment of every vector (kmeans argmin rule)
        "a AS (SELECT vec_id, cell, cqc FROM ("
        "SELECT q.vec_id, co.cid AS cell, co.qc AS cqc, row_number() OVER "
        "(PARTITION BY q.vec_id ORDER BY "
        f"CAST(list_sum(list_transform(list_zip(q.qe, co.qc), {sq})) AS BIGINT), co.cid) AS rn "
        "FROM q CROSS JOIN co) WHERE rn = 1), "
        # residuals of vectors whose cell is probed
        "rv AS (SELECT a.vec_id, a.cell, list_transform(list_zip(q.qe, a.cqc), "
        "p -> p[1] - p[2]) AS re FROM a JOIN q USING (vec_id) "
        "JOIN pr ON pr.cell = a.cell), "
        # query residual per probed cell
        "rq AS (SELECT pr.cell, list_transform(list_zip(qv.qe, pr.cqc), "
        "p -> p[1] - p[2]) AS re FROM pr, qv), "
        # per-(vector, subspace) residual code
        "d AS (SELECT rv.vec_id, rv.cell, pqc.sub, pqc.cid, "
        f"CAST(list_sum(list_transform(list_zip(list_slice(rv.re, pqc.sub * {dsub} + 1, "
        f"(pqc.sub + 1) * {dsub}), pqc.qc), {sq})) AS BIGINT) AS dist "
        "FROM rv CROSS JOIN pqc), "
        "r2 AS (SELECT vec_id, cell, sub, cid, row_number() OVER "
        "(PARTITION BY vec_id, sub ORDER BY dist, cid) AS rn FROM d), "
        # query-LUT distance per (cell, sub, cid)
        "cd AS (SELECT rq.cell, pqc.sub, pqc.cid, "
        f"CAST(list_sum(list_transform(list_zip(list_slice(rq.re, pqc.sub * {dsub} + 1, "
        f"(pqc.sub + 1) * {dsub}), pqc.qc), {sq})) AS BIGINT) AS qdist "
        "FROM rq CROSS JOIN pqc), "
        "f AS (SELECT r2.vec_id, CAST(sum(cd.qdist) AS BIGINT) AS dist "
        "FROM r2 JOIN cd ON cd.cell = r2.cell AND cd.sub = r2.sub AND cd.cid = r2.cid "
        "WHERE r2.rn = 1 GROUP BY r2.vec_id) "
        f"SELECT vec_id, dist FROM f ORDER BY dist, vec_id LIMIT {k}"
    )


def ensure_ivfpq(sf_dir: str) -> str:
    """Provision the IVF-PQ oracle sidecars (coarse centroids + residual
    codebooks) if missing; needs Ray initialised. Deterministic."""
    import os

    path = ivfpq_path(sf_dir)
    if not os.path.exists(path):
        ann_topk_ivfpq(sf_dir)  # trains + persists; also ensures centroids
    return path


# ---------------------------------------------------------------------------
# Power iteration: dominant eigenvector of the embedding Gram matrix
# (the distributed-matrix-moment + iterative-eigensolve class — PCA's core)
# ---------------------------------------------------------------------------

POWER_ITERS = 64
POWER_SCALE = 1_000_000   # eigenvector components renormalized to |v| <= 1e6


def embedding_power_iteration(sf_dir: str, iters: int = POWER_ITERS):
    """(dim, v_scaled): the dominant eigenvector of the UNCENTERED Gram
    matrix G = sum_rows x x^T over 2^15-quantized embeddings, after
    ``iters`` exact-integer power iterations — the distributed core of
    PCA / spectral embedding (reference analog: the SCT's leading-mode
    background fit, sct_resistant.r, as a corpus-level direction).

    Machine class the surface lacked: a distributed MATRIX moment (d x d
    second-moment aggregate) feeding an ITERATIVE eigensolve. The data
    pass is one map_batches emitting per-batch X^T X upper triangles as
    (i, j, v) int64 partials — d(d+1)/2 = 2,080 rows per batch, summed by
    a vocabulary-sized groupby; rows never leave their block and the
    driver holds only the d x d table. The eigensolve runs driver-side in
    ARBITRARY-PRECISION Python ints (matvec then renormalize to
    POWER_SCALE via explicit truncate-toward-zero division), so after K
    iterations the integer vector is bit-identical to the unrolled
    HUGEINT CTE twin regardless of convergence. Sign convention: whatever
    the all-ones start converges to — deterministic both sides.

    Gram partial bound: |G_ij| <= n_rows * (2^15 * max|x|)^2; int64 holds
    to ~8e8 rows at max|x| ~ 3 — above that lower QUANT_SCALE (the
    eigensolve itself never overflows: Python ints / HUGEINT)."""
    import pandas as pd

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["embedding"])

    iu_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def gram_partial(batch: pa.Table) -> pa.Table:
        x = quantize(_batch_embeddings(batch))
        d = x.shape[1]
        g = x.T @ x
        if d not in iu_cache:
            iu_cache[d] = np.triu_indices(d)
        ii, jj = iu_cache[d]
        return pa.table({"i": pa.array(ii.astype(np.int64)),
                         "j": pa.array(jj.astype(np.int64)),
                         "v": pa.array(g[ii, jj].astype(np.int64))})

    gram = (
        ds.map_batches(gram_partial, batch_format="pyarrow")
        .groupby(["i", "j"]).sum("v")
        .to_pandas()    # d(d+1)/2 rows, never data rows
    )
    d = int(gram["i"].max()) + 1
    G = [[0] * d for _ in range(d)]
    for i, j, v in zip(gram["i"], gram["j"], gram["sum(v)"]):
        G[int(i)][int(j)] = int(v)
        G[int(j)][int(i)] = int(v)

    S = POWER_SCALE
    v = [S] * d
    for _ in range(iters):
        w = [sum(G[i][j] * v[j] for j in range(d)) for i in range(d)]
        m = max(abs(x) for x in w)
        # truncate-toward-zero renorm, mirrored by the CASE in the twin
        v = [(abs(x) * S) // m * (1 if x >= 0 else -1) for x in w]

    return pd.DataFrame({"dim": np.arange(1, d + 1, dtype=np.int64),
                         "v_scaled": np.asarray(v, dtype=np.int64)})


def power_iteration_sql(iters: int = POWER_ITERS) -> str:
    """DuckDB replay of embedding_power_iteration: the Gram via a
    subscript self-join, then ``iters`` unrolled HUGEINT matvec +
    renormalize CTEs with the identical truncate-toward-zero division."""
    S = POWER_SCALE
    parts = [
        "WITH q AS (SELECT vec_id, generate_subscripts(embedding, 1) AS i, "
        f"CAST(round(CAST(unnest(embedding) AS DOUBLE) * {QUANT_SCALE}) AS BIGINT) AS xq "
        "FROM embeddings), "
        "g AS MATERIALIZED (SELECT a.i AS i, b.i AS j, CAST(sum(a.xq * b.xq) AS HUGEINT) AS g "
        "FROM q a JOIN q b ON a.vec_id = b.vec_id GROUP BY 1, 2), "
        f"v0 AS (SELECT DISTINCT i AS j, CAST({S} AS HUGEINT) AS val FROM g)",
    ]
    for k in range(1, iters + 1):
        parts.append(
            f"w{k} AS MATERIALIZED (SELECT g.i, sum(g.g * v.val) AS w FROM g "
            f"JOIN v{k - 1} v ON v.j = g.j GROUP BY 1), "
            f"m{k} AS (SELECT max(abs(w)) AS m FROM w{k}), "
            f"v{k} AS MATERIALIZED (SELECT i AS j, CASE WHEN w < 0 "
            f"THEN -(((-w) * {S}) // m) ELSE (w * {S}) // m END AS val "
            f"FROM w{k}, m{k})"
        )
    return (", ".join(parts)
            + f" SELECT j AS dim, CAST(val AS BIGINT) AS v_scaled FROM v{iters}")


# ---------------------------------------------------------------------------
# Exact DBSCAN over embeddings (the density-clustering class)
# ---------------------------------------------------------------------------

DBSCAN_EPS2 = 1_400_000_000  # squared eps on 2^15-quantized coords (~0.2% pair density)
DBSCAN_MINPTS = 3            # core = self + >= 2 eps-neighbours


def embedding_dbscan(sf_dir: str, eps2: int = DBSCAN_EPS2, min_pts: int = DBSCAN_MINPTS):
    """(vec_id, label, is_core): exact DBSCAN — core points (>= min_pts
    rows incl. self within sqrt(eps2) quantized Euclidean), clusters =
    connected components of core points under eps-adjacency labelled by
    their MIN vec_id, borders adopt the MIN label among their core
    neighbours, noise = -1. The density-clustering machine class: unlike
    kmeans (global Voronoi) or semantic_dedup (within-cell prune) it has
    no fixed k and discovers arbitrary-shape clusters.

    Scale shape: the eps-graph is built exactly like embedding_neardup's
    exact path — the quantized matrix captured in the UDF, each batch
    emits its own adjacency rows from one int64 matmul (the documented
    scale path swaps the broadcast for LSH/IVF blocking); per-row core
    decisions are batch-local-final. The edge list is the SMALL side by
    the eps-sparsity premise of DBSCAN itself: components reuse the
    dedup_clusters machinery — driver union-find under MAX_CLUSTER_PAIRS,
    distributed min-label propagation above it. The final labelling is a
    stateless broadcast pass; nothing data-sized sits on the driver beyond
    the counted edge list. Exact int64 distances -> the recursive-CTE
    transitive-closure twin hash-matches bit-for-bit."""
    import pandas as pd
    import pyarrow.parquet as pq

    from .neardup import MAX_CLUSTER_PAIRS, _clusters_labelprop, _clusters_unionfind

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    col = t["embedding"].combine_chunks()
    X = quantize(col.flatten().to_numpy(zero_copy_only=False).reshape(len(col), -1))
    all_ids = t["vec_id"].to_numpy()
    rr = np.einsum("ij,ij->i", X, X)

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def edges(batch: pa.Table) -> pa.Table:
        xb = quantize(_batch_embeddings(batch))
        bid = batch["vec_id"].to_numpy(zero_copy_only=False)
        qq = np.einsum("ij,ij->i", xb, xb)
        d2 = qq[:, None] + rr[None, :] - 2 * (xb @ X.T)
        m = (d2 <= eps2) & (bid[:, None] != all_ids[None, :])
        ai, bj = np.nonzero(m)
        return pa.table({"a": pa.array(bid[ai].astype(np.int64)),
                         "b": pa.array(all_ids[bj].astype(np.int64))})

    # directed adjacency, each row's own edges — the small side by premise
    edf = ds.map_batches(edges, batch_format="pyarrow").to_pandas()
    a = edf["a"].to_numpy()
    b = edf["b"].to_numpy()
    nodes, deg = (np.unique(a, return_counts=True) if len(a)
                  else (np.empty(0, np.int64), np.empty(0, np.int64)))
    core_ids = nodes[deg >= min_pts - 1]
    core_set = np.sort(core_ids)
    a_core = np.isin(a, core_set)
    b_core = np.isin(b, core_set)
    cc = edf[a_core & b_core & (a < b)].rename(columns={"a": "doc_a", "b": "doc_b"})
    comp = (_clusters_unionfind(cc) if len(cc) <= MAX_CLUSTER_PAIRS
            else _clusters_labelprop(cc)).to_pandas()
    lbl = dict(zip(comp["doc_id"].astype(int), comp["cluster_id"].astype(int)))
    for v in core_ids:                       # isolated cores: singleton clusters
        lbl.setdefault(int(v), int(v))
    # borders: min core-neighbour label (noise stays -1)
    bm = (~a_core) & b_core
    if bm.any():
        bl = pd.DataFrame({"v": a[bm], "l": [lbl[int(x)] for x in b[bm]]})
        for v, l in bl.groupby("v")["l"].min().items():
            lbl[int(v)] = int(l)
    vs = np.sort(np.fromiter(lbl.keys(), dtype=np.int64, count=len(lbl)))
    ls = np.asarray([lbl[int(v)] for v in vs], dtype=np.int64)

    def label(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)

        def lookup(keys: np.ndarray, vals: np.ndarray | None, miss: int) -> tuple[np.ndarray, np.ndarray]:
            if len(keys) == 0:
                z = np.zeros(len(ids), bool)
                return np.full(len(ids), miss, dtype=np.int64), z
            pos = np.minimum(np.searchsorted(keys, ids), len(keys) - 1)
            hit = keys[pos] == ids
            out = np.where(hit, vals[pos] if vals is not None else 0, miss)
            return out.astype(np.int64), hit

        lab, _ = lookup(vs, ls, -1)
        _, isc = lookup(core_set, None, 0)
        return pa.table({"vec_id": pa.array(ids.astype(np.int64)),
                         "label": pa.array(lab),
                         "is_core": pa.array(isc)})

    return ds.map_batches(label, batch_format="pyarrow")


def dbscan_sql(eps2: int = DBSCAN_EPS2, min_pts: int = DBSCAN_MINPTS) -> str:
    """DuckDB replay of embedding_dbscan: exact quantized eps-graph via a
    subscript self-join, recursive-CTE transitive closure over core-core
    edges (the dedup_clusters twin pattern), min-label border adoption."""
    return (
        "WITH RECURSIVE q AS (SELECT vec_id, generate_subscripts(embedding, 1) AS i, "
        f"CAST(round(CAST(unnest(embedding) AS DOUBLE) * {QUANT_SCALE}) AS BIGINT) AS xq "
        "FROM embeddings), "
        "d AS MATERIALIZED (SELECT a.vec_id AS va, b.vec_id AS vb FROM q a "
        "JOIN q b ON a.i = b.i AND a.vec_id <> b.vec_id "
        f"GROUP BY 1, 2 HAVING sum((a.xq - b.xq) * (a.xq - b.xq)) <= {eps2}), "
        f"core AS MATERIALIZED (SELECT va AS v FROM d GROUP BY va HAVING count(*) + 1 >= {min_pts}), "
        "ce AS MATERIALIZED (SELECT va AS a, vb AS b FROM d "
        "WHERE va IN (SELECT v FROM core) AND vb IN (SELECT v FROM core)), "
        "reach AS (SELECT a, b FROM ce "
        "UNION SELECT r.a, s.b FROM reach r JOIN ce s ON s.a = r.b), "
        "node AS (SELECT v AS a, v AS b FROM core UNION SELECT a, b FROM reach), "
        "lbl AS (SELECT a AS v, min(b) AS lbl FROM node GROUP BY a), "
        "border AS (SELECT d.va AS v, min(l.lbl) AS lbl FROM d "
        "JOIN lbl l ON l.v = d.vb "
        "WHERE d.va NOT IN (SELECT v FROM core) GROUP BY d.va) "
        "SELECT e.vec_id, "
        "CAST(coalesce(cl.lbl, bl.lbl, -1) AS BIGINT) AS label, "
        "(cl.v IS NOT NULL) AS is_core "
        "FROM (SELECT DISTINCT vec_id FROM embeddings) e "
        "LEFT JOIN lbl cl ON cl.v = e.vec_id "
        "LEFT JOIN border bl ON bl.v = e.vec_id"
    )
