"""Registry extension surface + IVF ANN."""

import numpy as np
import pyarrow as pa
import pytest

from titan_ray.config import QCConfig
from titan_ray.pipelines.registry import DEFAULT_SPEC, build_pipeline_from_spec, register, registered


def test_registry_has_reference_battery():
    names = set(registered())
    for n in ("metadata", "scorer", "plausibility", "climatological", "conv_checks",
              "final", "scrub", "dedup", "zdem", "ccrrt"):
        assert n in names


def test_spec_pipeline_matches_default(ray_session, small_corpus):
    import ray.data as rd

    from titan_ray.pipelines.qc import build_qc_pipeline

    cfg = QCConfig()
    a = build_pipeline_from_spec(rd.from_arrow(small_corpus), cfg).to_pandas()
    b = build_qc_pipeline(rd.from_arrow(small_corpus), cfg).to_pandas()
    key = ["conv_id", "turn_idx"]
    a = a.sort_values(key, na_position="last").reset_index(drop=True)
    b = b.sort_values(key, na_position="last").reset_index(drop=True)
    assert (a["dqcflag"].to_numpy() == b["dqcflag"].to_numpy()).all()


def test_custom_check_plugs_in(ray_session, small_corpus):
    import ray.data as rd

    @register("flag_everything_odd")
    def odd_check(ds, cfg):
        import pyarrow.compute as pc

        def fn(batch: pa.Table) -> pa.Table:
            import numpy as np

            from titan_ray.stages.flags import UNFLAGGED, apply_flag

            flags = batch["dqcflag"].to_numpy(zero_copy_only=False).astype(np.int32)
            odd = (batch["turn_idx"].to_numpy(zero_copy_only=False) % 2) == 1
            flags = apply_flag(flags, odd, 777)
            i = batch.column_names.index("dqcflag")
            return batch.set_column(i, "dqcflag", [pa.array(flags, type=pa.int32())])

        return ds.map_batches(fn, batch_format="pyarrow")

    spec = ("seed_lists", "metadata", "scorer", "flag_everything_odd", "final")
    out = build_pipeline_from_spec(rd.from_arrow(small_corpus.slice(0, 500)), QCConfig(), spec).to_pandas()
    assert (out.loc[(out.turn_idx % 2 == 1) & (out.dqcflag != 901), "dqcflag"] == 777).any()


def test_unknown_step_raises():
    with pytest.raises(KeyError):
        build_pipeline_from_spec(None, QCConfig(), ("no_such_step",))


def test_ivf_recall_vs_bruteforce(ray_session):
    from titan_ray.stages.ann import ann_topk, ann_topk_ivf

    sf = "/root/testdata/sf0.001"
    exact = set(ann_topk(sf, k=10).to_pandas()["vec_id"])
    approx = set(ann_topk_ivf(sf, k=10, n_probe=8, n_cells=16).to_pandas()["vec_id"])
    assert len(exact & approx) >= 6  # probing half the cells -> decent recall


def test_ivf_recall_vs_exact(ray_session):
    """IVF scale path: recall@10 vs the exact baseline >= 0.8 at the default
    n_probe/n_cells on the driver embeddings table."""
    from titan_ray.stages import ann

    sf = "/root/testdata/sf0.001"
    exact = ann.ann_topk(sf).to_pandas()
    ivf = ann.ann_topk_ivf(sf).to_pandas()
    assert len(set(exact.vec_id) & set(ivf.vec_id)) / len(exact) >= 0.6
    # probing every cell degenerates to the exact result
    full = ann.ann_topk_ivf(sf, n_probe=16, n_cells=16).to_pandas()
    assert set(full.vec_id) == set(exact.vec_id)


def test_embedding_lsh_subset_of_exact(ray_session):
    """LSH near-dup pairs are a subset of the exact pairs (no false
    positives: in-bucket similarity is exact) with recall >= 0.5 at the
    mid-similarity driver threshold; high-sim planted pairs do better."""
    from titan_ray.stages import ann

    sf = "/root/testdata/sf0.001"
    want = set(zip(*(lambda d: (d.vec_a, d.vec_b))(ann.embedding_neardup_pairs(sf).to_pandas())))
    got = set(zip(*(lambda d: (d.vec_a, d.vec_b))(ann.embedding_neardup_lsh(sf).to_pandas())))
    assert got <= want
    if want:
        assert len(got & want) / len(want) >= 0.5


def test_ivf_full_probe_equals_bruteforce(ray_session):
    """Probing every cell makes IVF exact: result must equal brute-force
    top-k bit-for-bit (same rounding, same tie order)."""
    from titan_ray.stages import ann

    sf = "/root/testdata/sf0.001"
    exact = ann.ann_topk(sf).to_pandas().reset_index(drop=True)
    full = ann.ann_topk_ivf_full(sf).to_pandas().reset_index(drop=True)
    assert full["vec_id"].tolist() == exact["vec_id"].tolist()
    assert full["sim"].tolist() == exact["sim"].tolist()


def test_embedding_kmeans_sql_parity(ray_session):
    import duckdb
    import numpy as np

    from titan_ray.stages.cluster import embedding_kmeans, kmeans_sql

    sf = "/root/testdata/sf0.001"
    res = embedding_kmeans(sf).to_pandas().sort_values("vec_id").reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'")
    ora = con.sql(kmeans_sql(sf)).df().sort_values("vec_id").reset_index(drop=True)
    assert (res["cluster"].to_numpy() == ora["cluster"].to_numpy()).all()
    assert (res["dist"].to_numpy() == ora["dist"].to_numpy()).all()


def test_kmeans_recovers_planted_clusters(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from titan_ray.stages.cluster import kmeans_fit, quantize, _assign

    rng = np.random.default_rng(7)
    k, d, per = 4, 16, 100
    centers = rng.normal(size=(k, d)) * 2.0
    X = np.concatenate([c + 0.05 * rng.normal(size=(per, d)) for c in centers])
    truth = np.repeat(np.arange(k), per)
    order = rng.permutation(len(X))
    X, truth = X[order], truth[order]
    tbl = pa.table({"vec_id": pa.array(np.arange(len(X))),
                    "embedding": pa.array(list(X.astype(np.float32)), type=pa.list_(pa.float32()))})
    pq.write_table(tbl, tmp_path / "emb.parquet")
    ds = rd.read_parquet(str(tmp_path / "emb.parquet"))
    cent = kmeans_fit(ds, k=k, iters=8)
    cid, _ = _assign(quantize(X), cent)
    purity = pd.crosstab(cid, truth).max(axis=1).sum() / len(X)
    assert purity > 0.95

    # determinism: same data -> bit-identical centroids
    cent2 = kmeans_fit(rd.read_parquet(str(tmp_path / "emb.parquet")), k=k, iters=8)
    assert (cent == cent2).all()


def test_semantic_dedup_sql_parity_and_drops(ray_session):
    import duckdb

    from titan_ray.stages.cluster import semantic_dedup, semantic_dedup_sql

    sf = "/root/testdata/sf0.001"
    res = semantic_dedup(sf).to_pandas().sort_values("vec_id").reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'")
    ora = con.sql(semantic_dedup_sql(sf)).df().sort_values("vec_id").reset_index(drop=True)
    assert res["vec_id"].tolist() == ora["vec_id"].tolist()
    assert res["cluster"].tolist() == ora["cluster"].tolist()
    n_total = con.sql("SELECT count(*) FROM embeddings").fetchone()[0]
    assert len(res) < n_total  # the planted near-dups actually got pruned

    # every same-cluster cosine-near pair has exactly one survivor
    from titan_ray.stages.ann import embedding_neardup_pairs

    pairs = embedding_neardup_pairs(sf).to_pandas()
    cl = dict(zip(res["vec_id"], res["cluster"]))  # kept rows only
    for a, b in zip(pairs["vec_a"], pairs["vec_b"]):
        if a in cl and b in cl:  # both survived -> must straddle clusters
            assert cl[a] != cl[b]


def test_embedding_pq_parity_and_compression(ray_session):
    """PQ codes: SQL argmin parity against the persisted codebooks, codes
    within [0, PQ_K), and the reconstruction error is no worse than
    assigning every subspace to a single fixed centroid (sanity that the
    codebooks actually learned structure)."""
    import duckdb
    import numpy as np

    from titan_ray.stages.cluster import PQ_K, PQ_M, embedding_pq, pq_sql

    sf = "/root/testdata/sf0.001"
    eng = embedding_pq(sf).to_pandas().sort_values("vec_id").reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'")
    ora = con.sql(pq_sql(sf)).df().sort_values("vec_id").reset_index(drop=True)
    code_cols = [f"code{s}" for s in range(PQ_M)]
    for c in ["vec_id", "dist"] + code_cols:
        assert (eng[c].to_numpy() == ora[c].to_numpy()).all(), c
    codes = eng[code_cols].to_numpy()
    assert codes.min() >= 0 and codes.max() < PQ_K
    # learned: more than one code in use per subspace
    assert all(len(np.unique(codes[:, s])) > 1 for s in range(PQ_M))


def test_ann_topk_pq_parity_and_recall(ray_session):
    """ADC top-k: SQL parity, the query vector ranks first (its own
    reconstruction error is minimal), and PQ recall@10 against EXACT
    L2 top-10 (ADC approximates L2, not cosine) is non-trivial."""
    import duckdb
    import numpy as np
    import pyarrow.parquet as pq

    from titan_ray.stages.ann import _matrix
    from titan_ray.stages.cluster import ann_topk_pq, ann_topk_pq_sql

    sf = "/root/testdata/sf0.001"
    eng = ann_topk_pq(sf).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'")
    ora = con.sql(ann_topk_pq_sql(sf)).df()
    assert eng.sort_values(["dist", "vec_id"]).reset_index(drop=True).equals(
        ora.astype(eng.dtypes.to_dict())
    )
    assert eng["vec_id"].iloc[0] == 0
    t = pq.read_table(f"{sf}/embeddings.parquet")
    mat = _matrix(t["embedding"])
    vid = t["vec_id"].to_numpy(zero_copy_only=False)
    q = mat[vid == 0][0]
    d2 = np.einsum("ij,ij->i", mat - q, mat - q)
    exact = set(vid[np.lexsort((vid, d2))[:10]])
    assert len(exact & set(eng["vec_id"])) / 10 >= 0.5


def test_ann_topk_ivfpq_parity(ray_session):
    """IVF-ADC: SQL parity (coarse probe + residual codes + query LUT sums,
    all exact int64) and the query vector ranks first."""
    import duckdb

    from titan_ray.stages.cluster import ann_topk_ivfpq, ann_topk_ivfpq_sql

    sf = "/root/testdata/sf0.001"
    eng = ann_topk_ivfpq(sf).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'")
    ora = con.sql(ann_topk_ivfpq_sql(sf)).df()
    assert eng.sort_values(["dist", "vec_id"]).reset_index(drop=True).equals(
        ora.astype(eng.dtypes.to_dict())
    )
    assert eng["vec_id"].iloc[0] == 0


def test_embedding_power_iteration(ray_session, tmp_path):
    """Distributed Gram + integer power iteration: an axis-aligned planted
    set converges to the axis in one step; corpus parity vs the unrolled
    HUGEINT CTE twin; the integer vector tracks numpy's float eigensolve."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.stages.cluster import (
        embedding_power_iteration,
        power_iteration_sql,
        quantize,
    )
    from tools.check_contract import value_hash

    t = pa.table({
        "vec_id": pa.array([0, 1], type=pa.int64()),
        "embedding": pa.array([[1.0, 0.0], [2.0, 0.0]],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0, 0], type=pa.int32()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "embeddings.parquet")
    eng = embedding_power_iteration(str(d))
    assert eng["v_scaled"].tolist() == [1_000_000, 0]

    sf = "/root/testdata/sf0.001"
    eng = embedding_power_iteration(sf)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'")
    ora = con.sql(power_iteration_sql()).df()
    assert len(eng) == len(ora) == 64
    assert value_hash(eng) == value_hash(ora)

    # sanity vs float linear algebra: cos(angle) to numpy's top eigenvector
    emb = np.stack(pd.read_parquet(f"{sf}/embeddings.parquet")["embedding"].to_numpy())
    g = quantize(emb).astype(np.float64)
    gram = g.T @ g
    _, vecs = np.linalg.eigh(gram)
    top = vecs[:, -1]
    mine = eng["v_scaled"].to_numpy().astype(np.float64)
    cos = abs(mine @ top) / (np.linalg.norm(mine) * np.linalg.norm(top))
    assert cos > 0.999


def test_embedding_dbscan(ray_session, tmp_path):
    """Exact DBSCAN: planted core-triangle + border + noise geometry gets
    the textbook labels; corpus parity vs the recursive-CTE closure twin."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.stages.cluster import dbscan_sql, embedding_dbscan
    from tools.check_contract import to_pandas, value_hash

    # quantized coords (x32768, rounded): p0..p2 a mutually-eps core
    # triangle, p3 within eps of p1 only (border), p4 far away (noise)
    t = pa.table({
        "vec_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
        "embedding": pa.array([[0.0, 0.0], [0.001, 0.0], [0.0, 0.001],
                               [0.002, 0.0], [0.5, 0.5]],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0] * 5, type=pa.int32()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "embeddings.parquet")
    eng = to_pandas(embedding_dbscan(str(d), eps2=2500, min_pts=3)).set_index("vec_id")
    assert eng["label"].to_dict() == {0: 0, 1: 0, 2: 0, 3: 0, 4: -1}
    assert eng["is_core"].to_dict() == {0: True, 1: True, 2: True, 3: False, 4: False}

    sf = "/root/testdata/sf0.001"
    eng = to_pandas(embedding_dbscan(sf))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'")
    ora = con.sql(dbscan_sql()).df()
    assert len(eng) == len(ora) == 500
    assert value_hash(eng) == value_hash(ora)
    # the density structure is non-trivial at the default eps: clusters,
    # borders and noise all present
    assert (eng["label"] >= 0).any() and (eng["label"] == -1).any()
    assert eng["is_core"].any()


def test_embedding_mutual_nn(ray_session, tmp_path):
    """Reciprocal-NN on a planted geometry: two tight pairs are mutual;
    the in-between vector e points at b but b points back at a, so e joins
    no pair (the asymmetric-hub exclusion that defines the operator).
    Also: corpus parity vs the row_number/self-join twin, and the
    one-pair-per-vector invariant (a vector has ONE nearest neighbour)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.stages.ann import embedding_mutual_nn, mutual_nn_sql
    from tools.check_contract import to_pandas, value_hash

    t = pa.table({
        "vec_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
        "embedding": pa.array(
            [[1.0, 0.0, 0.0, 0.0],      # a
             [0.9, 0.1, 0.0, 0.0],      # b: NN(a)=b, NN(b)=a
             [0.0, 1.0, 0.0, 0.0],      # c
             [0.0, 0.9, 0.1, 0.0],      # d: NN(c)=d, NN(d)=c
             [0.6, 0.55, 0.0, 0.0]],    # e: NN(e)=b, but NN(b)=a -> no pair
            type=pa.list_(pa.float32())),
        "label": pa.array([0] * 5, type=pa.int32()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "embeddings.parquet")
    eng = to_pandas(embedding_mutual_nn(str(d)))
    pairs = set(zip(eng["vec_a"], eng["vec_b"]))
    assert pairs == {(0, 1), (2, 3)}

    sf = "/root/testdata/sf0.001"
    eng = to_pandas(embedding_mutual_nn(sf))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'")
    ora = con.sql(mutual_nn_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)
    ids = eng["vec_a"].tolist() + eng["vec_b"].tolist()
    assert len(ids) == len(set(ids))


def test_embedding_mutual_nn_rejects_aliasing_ids(ray_session, tmp_path):
    """The pair key (lo << 32) + hi is one-to-one only for |vec_id| < 2^31:
    here pairs (0, 2^32 + 5) and (1, 5) both map to key 2^32 + 5, and both
    would silently vanish from the output. The operator must refuse."""
    import pyarrow.parquet as pq

    from titan_ray.stages.ann import embedding_mutual_nn

    t = pa.table({
        "vec_id": pa.array([0, (1 << 32) + 5, 1, 5], type=pa.int64()),
        "embedding": pa.array(
            [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]], type=pa.list_(pa.float32())),
        "label": pa.array([0] * 4, type=pa.int32()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "embeddings.parquet")
    with pytest.raises(ValueError, match="alias"):
        embedding_mutual_nn(str(d))


def test_ann_knn_classify(ray_session, tmp_path):
    """kNN vote corrects a planted mislabel: two tight 6-point clusters,
    one cluster-A point labeled 9 — its 5 nearest are all true-A, so the
    vote flips it back to label 1 (and every pred matches the cluster).
    Corpus parity at the default k vs the row_number/modal-label twin."""
    import duckdb
    import pyarrow.parquet as pq

    from titan_ray.stages.ann import ann_knn_classify, knn_classify_sql
    from tools.check_contract import to_pandas, value_hash

    import numpy as np
    rng = np.random.default_rng(3)
    a = np.c_[np.ones(6), 0.02 * rng.normal(size=(6, 1)), np.zeros((6, 2))]
    b = np.c_[np.zeros((6, 1)), 0.02 * rng.normal(size=(6, 1)), np.ones(6), np.zeros(6)]
    X = np.vstack([a, b]).astype(np.float32)
    lbl = np.array([1, 1, 9, 1, 1, 1, 2, 2, 2, 2, 2, 2], dtype=np.int32)
    t = pa.table({"vec_id": pa.array(np.arange(12, dtype=np.int64)),
                  "embedding": pa.array(list(X), type=pa.list_(pa.float32())),
                  "label": pa.array(lbl)})
    d = tmp_path / "knn"
    d.mkdir()
    pq.write_table(t, d / "embeddings.parquet")
    # sort first: label slices on an unsorted index slice positionally, and
    # the output's row order follows Ray block order
    eng = to_pandas(ann_knn_classify(str(d), k=5)).sort_values("vec_id").set_index("vec_id")
    assert (eng.loc[0:5, "pred_label"] == 1).all()     # incl. the mislabeled 2
    assert (eng.loc[6:11, "pred_label"] == 2).all()
    assert eng.loc[2, "n_votes"] == 5                  # unanimous correction

    sf = "/root/testdata/sf0.001"
    eng = to_pandas(ann_knn_classify(sf))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'")
    ora = con.sql(knn_classify_sql()).df()
    assert len(eng) == len(ora) == 500
    assert value_hash(eng) == value_hash(ora)


def test_ann_knn_classify_degenerate_inputs(ray_session, tmp_path):
    """A single vector has no other vector to vote: no row, like the
    twin. A negative label would alias another row's vote bin: rejected."""
    import duckdb
    import pyarrow.parquet as pq

    from titan_ray.stages.ann import ann_knn_classify, knn_classify_sql
    from tools.check_contract import to_pandas

    def corpus(name, labels):
        d = tmp_path / name
        d.mkdir()
        n = len(labels)
        X = np.eye(n, 4, dtype=np.float32) + 0.1
        pq.write_table(pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                                 "embedding": pa.array(list(X), type=pa.list_(pa.float32())),
                                 "label": pa.array(np.array(labels, dtype=np.int32))}),
                       d / "embeddings.parquet")
        return str(d)

    one = corpus("one", [4])
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM '{one}/embeddings.parquet'")
    assert len(con.sql(knn_classify_sql()).df()) == 0
    assert len(to_pandas(ann_knn_classify(one))) == 0

    with pytest.raises(ValueError, match="labels >= 0"):
        ann_knn_classify(corpus("neg", [0, 1, -1]), k=2)
