"""Distributed PageRank over the near-duplicate candidate graph — the
canonical ITERATIVE distributed algorithm (join + aggregate per round),
expressed Ray-Data-first and bit-replayable in SQL.

Graph: the persisted LSH candidate pairs (stages/neardup.ensure_candidates
— the same artifact the exact-Jaccard oracle reads), symmetrized. Rank of
a doc in this graph = centrality inside its duplicate neighbourhood: high
rank marks template/boilerplate hubs that near-dup many documents — a
drop-priority signal pairwise dedup doesn't expose (reference analog: the
duplicate_check neighbourhood in read_data_to_check.r:121-143 flags pairs;
this ranks the whole neighbourhood structure).

Exactness: damped power iteration in scaled-integer arithmetic — rank is
int nano-units (R = 1e9), each round is
    r'(v) = floor(0.15 * R) + (850 * Σ_{u→v} floor(r(u) / deg(u))) // 1000
— floor divisions and integer sums only, so any partial/merge order gives
the identical result and the DuckDB twin (the K rounds unrolled as chained
CTEs over the same parquet) hash-matches bit-for-bit.

Scale shape: the honest PageRank loop — the static edge list (with
out-degree folded in once) is co-partitioned with the node-sized rank
table via ONE hash_join per round, contributions collapse in a groupby(dst)
sum, and each round's rank table is materialized node-sized state. K rounds
= K join+aggregate exchanges; nothing is ever driver-sized. int64 bound:
contributions sum to <= R * in_deg(v) * 850 — promote R down or the sums to
HUGEINT-style split accumulation past in-degrees of ~1e7.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..exchange import bucket_exchange, sum_merge

PR_R = 1_000_000_000          # rank scale (nano-units)
PR_DAMP_NUM = 850             # damping 0.85 as the rational 850/1000
PR_BASE = (1000 - PR_DAMP_NUM) * PR_R // 1000
PR_ITERS = 5


def doc_pagerank(sf_dir: str, iters: int = PR_ITERS, num_buckets: int = 64):
    """(doc_id, rank_nano) for every node of the symmetrized candidate
    graph after ``iters`` damped integer power-iteration rounds."""
    import pyarrow.parquet as pq

    from .neardup import ensure_candidates

    return pagerank_from_pairs(pq.read_table(ensure_candidates(sf_dir)),
                               iters=iters, num_buckets=num_buckets)


def pagerank_from_pairs(pairs, iters: int = PR_ITERS, num_buckets: int = 64):
    """PageRank kernel over an undirected pair list (doc_a, doc_b) —
    a pa.Table or a Dataset of pairs; the symmetrized edge list, the
    out-degree table, and the deg-folded edges are ALL built distributed
    (per-batch partials + one node-bucket exchange + one hash_join), so no
    stage of the setup is driver-sized (round-5: the previous driver-numpy
    edge build capped the operator at driver RAM)."""
    import ray.data as rd

    from .joins import hash_join

    if isinstance(pairs, pa.Table):
        pairs = rd.from_arrow(pairs)

    def sym(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy(zero_copy_only=False)
        b = batch["doc_b"].to_numpy(zero_copy_only=False)
        return pa.table({"s": pa.array(np.concatenate([a, b])),
                         "d": pa.array(np.concatenate([b, a]))})

    edges0 = pairs.map_batches(sym, batch_format="pyarrow")

    def deg_partial(batch: pa.Table) -> pa.Table:
        u, c = np.unique(batch["s"].to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"s": pa.array(u), "deg": pa.array(c.astype(np.int64)),
                         "_b": pa.array((u % num_buckets).astype(np.int32))})

    deg = (
        bucket_exchange(edges0.map_batches(deg_partial, batch_format="pyarrow"),
                        "_b", sum_merge(["s"], ["deg"]))
        .materialize()   # node-sized
    )
    edges = (
        hash_join(edges0, deg, on="s", right_cols=("deg",), num_buckets=num_buckets)
        .map_batches(
            lambda t: pa.table({"s": t["s"], "d": t["d"], "deg": t["r_deg"]}),
            batch_format="pyarrow",
        )
        .materialize()   # static across rounds: edge-sized, out-deg folded in
    )
    ranks = deg.map_batches(
        lambda t: pa.table(
            {"s": t["s"], "r": pa.array(np.full(t.num_rows, PR_R, dtype=np.int64))}
        ),
        batch_format="pyarrow",
    ).materialize()

    def contrib(batch: pa.Table) -> pa.Table:
        c = batch["r_r"].to_numpy(zero_copy_only=False) // batch["deg"].to_numpy(zero_copy_only=False)
        return pa.table({"d": batch["d"], "c": pa.array(c)})

    def finish(batch: pa.Table) -> pa.Table:
        s = batch["sum(c)"].to_numpy(zero_copy_only=False)
        r = PR_BASE + (PR_DAMP_NUM * s) // 1000
        return pa.table({"s": batch["d"], "r": pa.array(r.astype(np.int64))})

    for _ in range(iters):
        joined = hash_join(edges, ranks, on="s", right_cols=("r",), num_buckets=num_buckets)
        ranks = (
            joined.map_batches(contrib, batch_format="pyarrow")
            .groupby("d")
            .sum("c")
            .map_batches(finish, batch_format="pyarrow")
            .materialize()   # node-sized state per round, never driver-sized
        )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["s"], "rank_nano": batch["r"]})

    return ranks.map_batches(rename, batch_format="pyarrow")


def pagerank_sql(sf: float = 0.01, iters: int = PR_ITERS) -> str:
    """DuckDB replay: the K rounds unrolled as chained CTEs over the same
    persisted candidate parquet (neardup_sql convention)."""
    from .neardup import candidates_path

    path = candidates_path(sf)
    ctes = [
        f"pairs AS (SELECT doc_a, doc_b FROM read_parquet('{path}'))",
        "edges AS (SELECT doc_a AS s, doc_b AS d FROM pairs "
        "UNION ALL SELECT doc_b, doc_a FROM pairs)",
        "deg AS (SELECT s, count(*) AS deg FROM edges GROUP BY s)",
        f"r0 AS (SELECT s AS v, CAST({PR_R} AS HUGEINT) AS r FROM deg)",
    ]
    for k in range(1, iters + 1):
        ctes.append(
            f"r{k} AS (SELECT e.d AS v, "
            f"{PR_BASE} + ({PR_DAMP_NUM} * sum(r{k-1}.r // deg.deg)) // 1000 AS r "
            f"FROM edges e JOIN deg USING (s) JOIN r{k-1} ON r{k-1}.v = e.s "
            "GROUP BY e.d)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT v AS doc_id, CAST(r AS BIGINT) AS rank_nano FROM r{iters}"
    )

# ---------------------------------------------------------------------------
# Triangle counting (graph motif / clustering structure)
# ---------------------------------------------------------------------------
#
# The second graph primitive after PageRank: per-node triangle counts over
# the same candidate graph. A document sitting in many triangles belongs to
# a densely inter-duplicated clique (a template family whose members all
# near-dup EACH OTHER), vs. a star hub (high PageRank, zero triangles) that
# chains otherwise-unrelated docs — the two structures want different dedup
# policies (drop the whole clique vs. keep the hub, drop spokes). Reference
# analog: the duplicate_check neighbourhood (read_data_to_check.r:121-143)
# flags pairs; this classifies the neighbourhood's SHAPE.

_TRI_MIX = np.uint64(0x9E3779B97F4A7C15)   # Fibonacci mixing for pair buckets


def graph_triangles(sf_dir: str, num_buckets: int = 64):
    """(doc_id, n_triangles) for every node of the canonical candidate
    graph that closes at least one triangle.

    Exact node-iterator algorithm, two narrow exchanges, no driver state:

    1. wedge generation — canonical edges (a < b, distinct, the persisted
       LSH candidate list) bucket by a % B so every edge of a low endpoint
       co-locates; per bucket, each node's higher-neighbour list emits all
       C(deg,2) ordered wedges (a; b < c). Wedge volume is Σ deg² bounded
       upstream by the LSH bucket caps (oversized buckets become stars,
       neardup.py), so no per-node cap is needed here — a star's wedges
       exist but close only where its spokes really are pairwise-similar.
    2. closure test — wedges and the edge list itself meet in a pair-hash
       bucket ((b*φ + c) % B); a per-bucket vectorized inner merge keeps
       wedges whose (b, c) is an edge. Each triangle a < b < c is produced
       exactly once (at its minimum vertex), and credits all three corners.
    3. per-node sum — (doc, 1-per-corner) partials collapse batch-locally,
       then one node-keyed groupby makes counts final.

    The DuckDB twin (triangles_sql) replays the same enumeration as a
    three-way self-join over the identical persisted parquet — exact
    integer counts, so the driver gate hash-matches bit-for-bit."""
    import ray.data as rd

    from .neardup import ensure_candidates

    path = ensure_candidates(sf_dir)
    return triangles_from_pairs(
        rd.read_parquet(path, columns=["doc_a", "doc_b"]), num_buckets=num_buckets
    )


def triangles_from_pairs(edges, num_buckets: int = 64):
    """Triangle-count kernel over a canonical (doc_a < doc_b, distinct)
    edge Dataset; see graph_triangles for the full shape."""

    def _pair_bucket(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        h = u.astype(np.uint64) * _TRI_MIX + v.astype(np.uint64)
        return (h % np.uint64(num_buckets)).astype(np.int32)

    def edge_rows(batch: pa.Table) -> pa.Table:
        u = batch["doc_a"].to_numpy(zero_copy_only=False)
        v = batch["doc_b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "u": pa.array(u), "v": pa.array(v),
                "ctr": pa.array(np.zeros(len(u), dtype=np.int64)),
                "kind": pa.array(np.zeros(len(u), dtype=np.int8)),
                "_pb": pa.array(_pair_bucket(u, v)),
            }
        )

    def lo_bucket(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy(zero_copy_only=False)
        # fresh table (not append_column): drops the parquet pandas schema
        # metadata so downstream unions see one hashable schema
        return pa.table(
            {
                "doc_a": pa.array(a),
                "doc_b": pa.array(batch["doc_b"].to_numpy(zero_copy_only=False)),
                "_b": pa.array((a % num_buckets).astype(np.int32)),
            }
        )

    def wedges(t: pa.Table) -> pa.Table:
        x = t["doc_a"].to_numpy(zero_copy_only=False)
        y = t["doc_b"].to_numpy(zero_copy_only=False)
        order = np.lexsort((y, x))
        x, y = x[order], y[order]
        uniq, start, counts = np.unique(x, return_index=True, return_counts=True)
        outs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # loop over distinct DEGREES (not nodes): all size-s adjacency
        # lists emit their C(s,2) wedges in one fancy-index broadcast
        for s in np.unique(counts):
            if s < 2:
                continue
            sel = counts == s
            st = start[sel]
            i0, i1 = np.triu_indices(int(s), 1)
            b = y[st[:, None] + i0[None, :]].ravel()
            c = y[st[:, None] + i1[None, :]].ravel()
            a = np.repeat(uniq[sel], len(i0))
            outs.append((a, b, c))
        if not outs:
            return pa.table(
                {
                    "u": pa.array([], type=pa.int64()), "v": pa.array([], type=pa.int64()),
                    "ctr": pa.array([], type=pa.int64()), "kind": pa.array([], type=pa.int8()),
                    "_pb": pa.array([], type=pa.int32()),
                }
            )
        a = np.concatenate([o[0] for o in outs])
        b = np.concatenate([o[1] for o in outs])
        c = np.concatenate([o[2] for o in outs])
        return pa.table(
            {
                "u": pa.array(b), "v": pa.array(c), "ctr": pa.array(a),
                "kind": pa.array(np.ones(len(a), dtype=np.int8)),
                "_pb": pa.array(_pair_bucket(b, c)),
            }
        )

    wedge_ds = bucket_exchange(edges.map_batches(lo_bucket, batch_format="pyarrow"), "_b", wedges)
    edge_ds = edges.map_batches(edge_rows, batch_format="pyarrow")

    def close(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        e = t.filter(pc.equal(t["kind"], 0)).select(["u", "v"])
        w = t.filter(pc.equal(t["kind"], 1)).select(["u", "v", "ctr"])
        m = w.join(e, keys=["u", "v"], join_type="inner")
        docs = np.concatenate([m[c].to_numpy() for c in ("ctr", "u", "v")]).astype(np.int64)
        du, dc = np.unique(docs, return_counts=True)
        return pa.table({"doc_id": pa.array(du), "n": pa.array(dc.astype(np.int64))})

    out = (
        bucket_exchange(wedge_ds.union(edge_ds), "_pb", close)
        .groupby("doc_id")
        .sum("n")
    )
    return out.map_batches(
        lambda b: b.rename_columns(["doc_id", "n_triangles"]), batch_format="pyarrow"
    )


def triangles_sql(sf: float = 0.01) -> str:
    """DuckDB replay of graph_triangles: the canonical three-way self-join
    (a < b < c once per triangle) over the same persisted candidate list,
    corners credited via UNION ALL."""
    from .neardup import candidates_path

    path = candidates_path(sf)
    return (
        f"WITH pairs AS (SELECT doc_a, doc_b FROM read_parquet('{path}')), "
        "tri AS (SELECT e1.doc_a AS a, e1.doc_b AS b, e2.doc_b AS c "
        "FROM pairs e1 JOIN pairs e2 ON e2.doc_a = e1.doc_b "
        "JOIN pairs e3 ON e3.doc_a = e1.doc_a AND e3.doc_b = e2.doc_b), "
        "m AS (SELECT a AS doc_id FROM tri UNION ALL SELECT b FROM tri "
        "UNION ALL SELECT c FROM tri) "
        "SELECT doc_id, CAST(count(*) AS BIGINT) AS n_triangles FROM m GROUP BY doc_id"
    )


# ---------------------------------------------------------------------------
# Multi-source BFS depth (frontier iteration)
# ---------------------------------------------------------------------------

BFS_HUB_DEG = 4    # seed set: nodes with degree >= this (template hubs)
BFS_ITERS = 4


def graph_bfs_depth(sf_dir: str, hub_deg: int = BFS_HUB_DEG,
                    iters: int = BFS_ITERS, num_buckets: int = 64):
    """(doc_id, dist): hop distance from the nearest HUB (degree >=
    ``hub_deg``) for every node within ``iters`` hops, over the symmetrized
    candidate graph — multi-source BFS, the third canonical iterative
    graph shape after PageRank (value propagation) and components (label
    propagation). Distance-to-hub stratifies a duplicate neighbourhood:
    dist 0 = the template cores, dist 1 = their direct variants, deeper =
    chain-connected drift.

    Scale shape: same loop skeleton as pagerank_from_pairs — the static
    edge list co-partitions with the node-sized distance table via ONE
    hash_join per round; relaxed distances merge with a groupby-min; K
    rounds = K narrow exchanges, state never driver-sized. Exact integer
    min-semantics, so round order is irrelevant and the unrolled-CTE twin
    (bfs_sql) hash-matches."""
    import ray.data as rd

    from .joins import hash_join
    from .neardup import ensure_candidates

    pairs = rd.read_parquet(ensure_candidates(sf_dir), columns=["doc_a", "doc_b"])

    def sym(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy(zero_copy_only=False)
        b = batch["doc_b"].to_numpy(zero_copy_only=False)
        return pa.table({"s": pa.array(np.concatenate([a, b])),
                         "d": pa.array(np.concatenate([b, a]))})

    edges = pairs.map_batches(sym, batch_format="pyarrow").materialize()

    def deg_partial(batch: pa.Table) -> pa.Table:
        u, c = np.unique(batch["s"].to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"s": pa.array(u), "deg": pa.array(c.astype(np.int64)),
                         "_b": pa.array((u % num_buckets).astype(np.int32))})

    dists = (
        bucket_exchange(edges.map_batches(deg_partial, batch_format="pyarrow"),
                        "_b", sum_merge(["s"], ["deg"]))
        .filter(expr=f"deg >= {hub_deg}")
        .map_batches(
            lambda t: pa.table(
                {"s": t["s"], "dist": pa.array(np.zeros(t.num_rows, dtype=np.int64))}
            ),
            batch_format="pyarrow",
        )
        .materialize()   # the seed frontier (node-sized)
    )

    def relax(batch: pa.Table) -> pa.Table:
        return pa.table({"s": batch["d"],
                         "dist": pa.array(batch["r_dist"].to_numpy(zero_copy_only=False) + 1)})

    for _ in range(iters):
        relaxed = hash_join(edges, dists, on="s", right_cols=("dist",),
                            num_buckets=num_buckets).map_batches(relax, batch_format="pyarrow")
        dists = (
            dists.union(relaxed)
            .groupby("s")
            .min("dist")
            .map_batches(
                lambda t: pa.table({"s": t["s"], "dist": t["min(dist)"]}),
                batch_format="pyarrow",
            )
            .materialize()   # node-sized state per round
        )

    return dists.map_batches(
        lambda t: pa.table({"doc_id": t["s"], "dist": t["dist"]}),
        batch_format="pyarrow",
    )


def bfs_sql(sf: float = 0.01, hub_deg: int = BFS_HUB_DEG,
            iters: int = BFS_ITERS) -> str:
    """DuckDB replay of graph_bfs_depth: the K relax rounds unrolled as
    chained min-merge CTEs (pagerank_sql convention)."""
    from .neardup import candidates_path

    path = candidates_path(sf)
    ctes = [
        f"pairs AS (SELECT doc_a, doc_b FROM read_parquet('{path}'))",
        "edges AS (SELECT doc_a AS s, doc_b AS d FROM pairs "
        "UNION ALL SELECT doc_b, doc_a FROM pairs)",
        "deg AS (SELECT s, count(*) AS deg FROM edges GROUP BY s)",
        f"r0 AS (SELECT s AS v, CAST(0 AS BIGINT) AS dist FROM deg WHERE deg >= {hub_deg})",
    ]
    for k in range(1, iters + 1):
        ctes.append(
            f"r{k} AS (SELECT v, min(dist) AS dist FROM ("
            f"SELECT v, dist FROM r{k-1} "
            f"UNION ALL SELECT e.d AS v, r.dist + 1 AS dist "
            f"FROM edges e JOIN r{k-1} r ON r.v = e.s) GROUP BY v)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT v AS doc_id, dist FROM r{iters}"
    )


# ---------------------------------------------------------------------------
# k-core decomposition (iterative peeling) — the fourth iterative graph
# shape: SHRINKING-subgraph fixpoint (vs. PageRank's value propagation,
# components' label propagation, BFS's frontier relax)
# ---------------------------------------------------------------------------

KCORE_K = 3
KCORE_ROUNDS = 6   # peel rounds; the gate graph reaches its fixpoint in 5


def graph_kcore(sf_dir: str, k: int = KCORE_K, rounds: int = KCORE_ROUNDS,
                num_buckets: int = 64):
    """(doc_id, core_deg) — the nodes surviving ``rounds`` rounds of
    degree-< k peeling over the symmetrized candidate graph, with their
    degree INSIDE the surviving subgraph. Iterated to fixpoint this is the
    k-core: the maximal subgraph where every node keeps >= k neighbours —
    the dense heart of a template family, as opposed to nodes that only
    LOOK well-connected because of peel-away chains (a node of degree 10
    whose neighbours all die leaves the core; one HAVING pass cannot see
    that — peeling is genuinely iterative, the gate graph shrinks
    405 -> 289 -> 265 -> 258 -> 257 over its five effective rounds).

    Scale shape: each round is degree-count (per-batch unique partials +
    one node-bucket exchange, node-sized) then BOTH-endpoint survival
    filtering as two co-partitioned hash_joins (edge-sized, never
    broadcast) — the PageRank loop's machinery with a shrinking edge set
    instead of an evolving rank table. Fixed ``rounds`` keeps the DuckDB
    twin expressible as unrolled CTEs (the bfs_sql/pagerank_sql
    convention); convergence inside the budget makes truncated == true
    k-core. Reference analog: titan.r's buddy re-iteration (flagged
    stations leave the neighbour pool and the check re-runs,
    titan.r:262-287) — the same remove-and-recheck fixpoint, here on
    graph degree."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from .joins import hash_join
    from .neardup import ensure_candidates

    pairs = rd.from_arrow(pq.read_table(ensure_candidates(sf_dir)))

    def sym(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy(zero_copy_only=False)
        b = batch["doc_b"].to_numpy(zero_copy_only=False)
        return pa.table({"s": pa.array(np.concatenate([a, b])),
                         "d": pa.array(np.concatenate([b, a]))})

    edges = pairs.map_batches(sym, batch_format="pyarrow").materialize()

    def deg_partial(batch: pa.Table) -> pa.Table:
        u, c = np.unique(batch["s"].to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"s": pa.array(u), "deg": pa.array(c.astype(np.int64)),
                         "_b": pa.array((u % num_buckets).astype(np.int32))})

    def degrees(e):
        return bucket_exchange(e.map_batches(deg_partial, batch_format="pyarrow"),
                               "_b", sum_merge(["s"], ["deg"]))

    def survivors(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.filter(pc.greater_equal(t["deg"], k)).select(["s"])

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["s"], "core_deg": batch["deg"]})

    for _ in range(rounds):
        deg = degrees(edges).materialize()   # node-sized
        alive = deg.map_batches(survivors, batch_format="pyarrow").materialize()
        if alive.count() == deg.count():
            # fixpoint: no node peels, so every remaining round is the
            # identity — this degree table IS degrees of the final edge
            # set. Early exit keeps truncated == true k-core bit-identical
            # (survivor count is monotone, equal count => equal set) and
            # caps the cost at (fixpoint + 1) degree exchanges regardless
            # of the round budget.
            return deg.map_batches(rename, batch_format="pyarrow")
        # both-endpoint survival: two co-partitioned semi-joins (survivors
        # are unique per node, so inner == semi)
        e1 = hash_join(edges, alive, on="s", right_cols=(), num_buckets=num_buckets)
        e1 = e1.map_batches(
            lambda t: pa.table({"s": t["d"], "d": t["s"]}), batch_format="pyarrow"
        )
        e2 = hash_join(e1, alive, on="s", right_cols=(), num_buckets=num_buckets)
        edges = e2.map_batches(
            lambda t: pa.table({"s": t["d"], "d": t["s"]}), batch_format="pyarrow"
        ).materialize()   # edge-sized, shrinking

    return degrees(edges).map_batches(rename, batch_format="pyarrow")


def kcore_sql(sf: float = 0.01, k: int = KCORE_K,
              rounds: int = KCORE_ROUNDS) -> str:
    """DuckDB replay of graph_kcore: the peel rounds unrolled as chained
    HAVING + double-semi-join CTEs over the same persisted pairs.

    Every CTE is MATERIALIZED: each round reads the previous round's edges
    twice (its HAVING and its join) and its survivors twice, so inlined
    CTEs re-expand the whole chain of earlier rounds per reference (at
    sf0.01 that ran DuckDB out of 1.8 GiB). Materializing evaluates each
    once; the result is the same."""
    from .neardup import candidates_path

    path = candidates_path(sf)
    ctes = [
        f"pairs AS MATERIALIZED (SELECT doc_a, doc_b FROM read_parquet('{path}'))",
        "e0 AS MATERIALIZED (SELECT doc_a AS s, doc_b AS d FROM pairs "
        "UNION ALL SELECT doc_b, doc_a FROM pairs)",
    ]
    for r in range(1, rounds + 1):
        ctes.append(
            f"a{r} AS MATERIALIZED (SELECT s FROM e{r-1} GROUP BY s HAVING count(*) >= {k})"
        )
        ctes.append(
            f"e{r} AS MATERIALIZED (SELECT e.s, e.d FROM e{r-1} e "
            f"JOIN a{r} x ON x.s = e.s JOIN a{r} y ON y.s = e.d)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT s AS doc_id, CAST(count(*) AS BIGINT) AS core_deg "
          f"FROM e{rounds} GROUP BY s"
    )


# ---------------------------------------------------------------------------
# Minimum spanning forest (Boruvka) — the fifth iterative graph shape:
# COMPONENT COARSENING with per-component min-edge election (vs value
# propagation, label propagation, frontier relax, subgraph peeling)
# ---------------------------------------------------------------------------

MST_ROUNDS = 32                      # components at least halve per round:
                                     # 32 rounds covers 2^32-node components
MST_MULT_A = 6364136223846793005     # PCG64 multiplier (priority-sample idiom)
MST_MULT_B = 1442695040888963407     # PCG64 increment, reused as second mixer


def _mst_w64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deterministic uint64 edge weight (a*MA + b*MB mod 2^64): a pure
    function of the pair ids, replayable in SQL as HUGEINT % 2^64. The
    election tie-breaks by (w, a, b), so the effective order is strictly
    total and the minimum spanning forest is UNIQUE — which is what lets
    the DuckDB twin verify via the cut property instead of replaying the
    rounds."""
    with np.errstate(over="ignore"):     # wraparound mod 2**64 IS the weight
        return (a.astype(np.uint64) * np.uint64(MST_MULT_A)
                + b.astype(np.uint64) * np.uint64(MST_MULT_B))


def graph_mst(sf_dir: str, rounds: int = MST_ROUNDS, num_buckets: int = 64):
    """(doc_a, doc_b, w_mod) — the unique minimum spanning FOREST of the
    near-duplicate candidate graph under the deterministic strict edge
    order (w64, a, b): for each duplicate family, the lightest skeleton of
    verification edges that keeps it connected — the minimal audit set a
    reviewer walks to confirm a family, where the full candidate graph is
    quadratic in family size but the forest is linear.

    Boruvka rounds, each with exactly the PageRank loop's machinery:
    (1) two co-partitioned hash_joins label every edge endpoint with its
    component; (2) intra-component edges are PRUNED (components only ever
    merge, so they can never matter again — the edge set shrinks like
    k-core's); (3) each component ELECTS its minimum cross edge inside one
    component-bucket exchange (np.lexsort on (uint64 w, a, b), first per
    component); (4) elected edges coarsen the component graph through
    clusters_from_pairs — the SAME union-find-under-cap / distributed
    min-label-propagation machinery dedup_clusters uses — and the new
    labels re-attach via one LEFT OUTER hash_join (no broadcast). Early
    exit when no cross edge remains. Elected edges per round and the
    final forest are candidate-list-sized driver state (<= nodes - 1 —
    the same class as the candidate artifact every neardup op already
    reads).

    Reference analog: the duplicate_check neighbourhood (read_data_to_
    check.r:121-143) flags pairs; the forest is the cheapest connected
    certificate of each flagged family."""
    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from .joins import hash_join
    from .neardup import clusters_from_pairs, ensure_candidates

    tbl = pq.read_table(ensure_candidates(sf_dir))
    a0 = tbl["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
    b0 = tbl["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
    if len(a0) == 0:
        return pd.DataFrame({"doc_a": pd.Series(dtype=np.int64),
                             "doc_b": pd.Series(dtype=np.int64),
                             "w_mod": pd.Series(dtype=np.int64)})
    w0 = _mst_w64(a0, b0)
    edges = rd.from_arrow(pa.table({
        "a": pa.array(a0), "b": pa.array(b0),
        "w": pa.array(w0.view(np.int64)),     # uint64 bit pattern
    })).materialize()
    nodes = np.unique(np.concatenate([a0, b0]))
    comp = rd.from_arrow(pa.table({"v": pa.array(nodes),
                                   "comp": pa.array(nodes)})).materialize()

    def _as_key(t: pa.Table, key: str) -> pa.Table:
        return pa.table({key: t["v"], "comp": t["comp"]})

    forest: list[pd.DataFrame] = []
    for _ in range(rounds):
        e1 = hash_join(edges,
                       comp.map_batches(lambda t: _as_key(t, "a"), batch_format="pyarrow"),
                       on="a", right_cols=("comp",), num_buckets=num_buckets)
        e1 = e1.map_batches(
            lambda t: pa.table({"a": t["a"], "b": t["b"], "w": t["w"],
                                "ca": t["r_comp"]}), batch_format="pyarrow")
        e2 = hash_join(e1,
                       comp.map_batches(lambda t: _as_key(t, "b"), batch_format="pyarrow"),
                       on="b", right_cols=("comp",), num_buckets=num_buckets)

        def cross_only(t: pa.Table) -> pa.Table:
            keep = pc.not_equal(t["ca"], t["r_comp"])
            t = t.filter(keep)
            return pa.table({"a": t["a"], "b": t["b"], "w": t["w"],
                             "ca": t["ca"], "cb": t["r_comp"]})

        cross = e2.map_batches(cross_only, batch_format="pyarrow").materialize()
        if cross.count() == 0:
            break

        def emit(t: pa.Table) -> pa.Table:
            two = pa.concat_tables([
                pa.table({"comp": t["ca"], "a": t["a"], "b": t["b"],
                          "w": t["w"], "ca": t["ca"], "cb": t["cb"]}),
                pa.table({"comp": t["cb"], "a": t["a"], "b": t["b"],
                          "w": t["w"], "ca": t["ca"], "cb": t["cb"]}),
            ])
            bk = (two["comp"].to_numpy(zero_copy_only=False) % num_buckets).astype(np.int32)
            return two.append_column("_b", pa.array(bk))

        def elect(t: pa.Table) -> pa.Table:
            c = t["comp"].to_numpy(zero_copy_only=False)
            a = t["a"].to_numpy(zero_copy_only=False)
            b = t["b"].to_numpy(zero_copy_only=False)
            w = t["w"].to_numpy(zero_copy_only=False).view(np.uint64)
            order = np.lexsort((b, a, w, c))
            first = np.r_[True, c[order][1:] != c[order][:-1]]
            sel = order[first]
            return pa.table({"a": pa.array(a[sel]), "b": pa.array(b[sel]),
                             "w": t["w"].take(pa.array(sel)),
                             "ca": t["ca"].take(pa.array(sel)),
                             "cb": t["cb"].take(pa.array(sel))})

        elected = (
            bucket_exchange(cross.map_batches(emit, batch_format="pyarrow"), "_b", elect)
            .to_pandas()                      # <= #active components rows
            .drop_duplicates(subset=["a", "b"])
        )
        forest.append(elected[["a", "b", "w"]])
        labels = clusters_from_pairs(
            elected.rename(columns={"ca": "doc_a", "cb": "doc_b"})[["doc_a", "doc_b"]]
        ).to_pandas()
        relabel = rd.from_arrow(pa.table({
            "comp": pa.array(labels["doc_id"].to_numpy(dtype=np.int64)),
            "new": pa.array(labels["cluster_id"].to_numpy(dtype=np.int64)),
        }))
        comp = hash_join(comp, relabel, on="comp", right_cols=("new",),
                         num_buckets=num_buckets, join_type="left outer")
        comp = comp.map_batches(
            lambda t: pa.table({
                "v": t["v"],
                "comp": pc.if_else(pc.is_null(t["r_new"]), t["comp"], t["r_new"]),
            }), batch_format="pyarrow").materialize()
        edges = cross.map_batches(
            lambda t: t.select(["a", "b", "w"]), batch_format="pyarrow"
        ).materialize()
    else:
        raise RuntimeError(
            f"graph_mst: {rounds} Boruvka rounds did not converge — "
            f"a component deeper than 2^{rounds} nodes (raise rounds)")

    out = pd.concat(forest, ignore_index=True) if forest else pd.DataFrame(
        {"a": pd.Series(dtype=np.int64), "b": pd.Series(dtype=np.int64),
         "w": pd.Series(dtype=np.int64)})
    w_mod = (out["w"].to_numpy().view(np.uint64) % np.uint64(1_000_000_000)).astype(np.int64)
    return pd.DataFrame({"doc_a": out["a"].to_numpy(dtype=np.int64),
                         "doc_b": out["b"].to_numpy(dtype=np.int64),
                         "w_mod": w_mod}).sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def mst_sql(sf: float = 0.01) -> str:
    """DuckDB twin of graph_mst via the CUT PROPERTY instead of replaying
    the rounds: under a strict total edge order the minimum spanning
    forest is unique, and edge e belongs to it iff its endpoints are NOT
    connected by strictly-lighter edges (lighter = (w, a, b) lexicographic,
    w the identical HUGEINT mod-2^64 mix). One recursive CTE grows, for
    every edge simultaneously, the set of nodes reachable from its 'a'
    endpoint through lighter edges; e survives iff its 'b' endpoint is
    never reached."""
    from .neardup import candidates_path

    path = candidates_path(sf)
    two64 = 1 << 64
    w = (f"CAST((CAST(doc_a AS HUGEINT) * {MST_MULT_A} "
         f"+ CAST(doc_b AS HUGEINT) * {MST_MULT_B}) % {two64} AS HUGEINT)")
    return f"""
WITH RECURSIVE
e AS (SELECT doc_a AS a, doc_b AS b, {w} AS w
      FROM read_parquet('{path}')),
sym AS (SELECT a AS u, b AS v, w, a, b FROM e
        UNION ALL SELECT b, a, w, a, b FROM e),
reach AS (
  SELECT e.a AS ea, e.b AS eb, e.w AS ew, e.a AS node FROM e
  UNION
  SELECT r.ea, r.eb, r.ew, s.v
  FROM reach r JOIN sym s ON s.u = r.node
  WHERE s.w < r.ew OR (s.w = r.ew AND (s.a < r.ea OR (s.a = r.ea AND s.b < r.eb)))
)
SELECT e.a AS doc_a, e.b AS doc_b,
       CAST(e.w % 1000000000 AS BIGINT) AS w_mod
FROM e
WHERE NOT EXISTS (SELECT 1 FROM reach r
                  WHERE r.ea = e.a AND r.eb = e.b AND r.node = e.b)
ORDER BY doc_a, doc_b
"""
