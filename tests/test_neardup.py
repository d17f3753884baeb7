"""Near-dup suite + multimodal plumbing tests."""

import numpy as np
import pyarrow as pa

from titan_ray.stages.neardup import (
    band_hashes,
    hamming_distance,
    minhash_signatures,
    simhash_signatures,
)
from titan_ray.stages.multimodal import MediaDecodeStage, media_features, synth_media_table


NEAR_A = "the quick brown fox jumps over the lazy dog near the river bank today"
NEAR_B = "the quick brown fox jumps over the lazy dog near the river bank now"
FAR = "completely different content about data pipelines and streaming engines"


def test_minhash_similarity_ordering():
    sig = minhash_signatures(pa.array([NEAR_A, NEAR_B, FAR]))
    est_near = (sig[0] == sig[1]).mean()
    est_far = (sig[0] == sig[2]).mean()
    assert est_near > 0.6 > est_far


def test_minhash_deterministic():
    a = minhash_signatures(pa.array([NEAR_A]))
    b = minhash_signatures(pa.array([NEAR_A]))
    assert (a == b).all()


def test_band_hashes_candidates():
    sig = minhash_signatures(pa.array([NEAR_A, NEAR_B, FAR]))
    bh = band_hashes(sig)
    assert (bh[0] == bh[1]).sum() >= 1      # near pair shares a band
    assert (bh[0] == bh[2]).sum() == 0      # far pair shares none


def test_simhash_hamming():
    sh = simhash_signatures(pa.array([NEAR_A, NEAR_B, FAR]))
    assert hamming_distance(sh[:1], sh[1:2])[0] < 10
    assert hamming_distance(sh[:1], sh[2:3])[0] > 15


def test_short_rows_get_empty_signatures():
    sig = minhash_signatures(pa.array(["ab", None]))
    assert (sig == np.iinfo(np.uint64).max).all()


def test_media_decode_stage_direct():
    stage = MediaDecodeStage(feature_dim=4)
    out = stage(synth_media_table(8))
    assert out.column_names == ["media_id", "kind", "n_bytes", "features"]
    assert len(out["features"][0].as_py()) == 4


def test_media_decode_all_kinds_real():
    """All three kinds decode for real (WAV / PPM / Y4M): fake=False
    processes the full synthetic table, and only a foreign container
    raises ValueError on the real path."""
    import pytest

    t = synth_media_table(32)
    stage = MediaDecodeStage(fake=False)
    assert stage(t).num_rows == t.num_rows
    foreign = pa.table(
        {
            "media_id": pa.array([0], type=pa.int64()),
            "kind": pa.array(["video"]),
            "payload": pa.array([b"\x00\x01\x02 not a container"], type=pa.binary()),
        }
    )
    with pytest.raises(ValueError):
        stage(foreign)
    assert MediaDecodeStage(fake=True)(foreign).num_rows == 1  # digest fallback


def test_media_decode_quarantine_path():
    """quarantine=True: corrupt/foreign rows survive with a non-null
    quarantine_reason and null features; clean rows decode normally with a
    null reason (round-4 verdict item 8)."""
    t = synth_media_table(8)
    mixed = pa.table(
        {
            "media_id": pa.array([100, 101], type=pa.int64()),
            "kind": pa.array(["video", "image"]),
            "payload": pa.array(
                [b"\x00\x01\x02 not a container", b"P6 truncated"], type=pa.binary()
            ),
        }
    )
    stage = MediaDecodeStage(fake=False, quarantine=True)
    good = stage(t)
    assert "quarantine_reason" in good.column_names
    assert good["quarantine_reason"].null_count == good.num_rows  # all clean
    bad = stage(mixed)
    assert bad.num_rows == 2
    assert bad["quarantine_reason"].null_count == 0
    assert bad["features"].null_count == 2


def test_y4m_codec_roundtrip_features_resize():
    """The pure-numpy Y4M codec: encode -> parse roundtrips bit-exactly
    (C420 and mono), video features are the documented frame statistics,
    and y4m_resize snaps to the chroma grid with nearest-gather planes."""
    from titan_ray.stages.multimodal import (
        parse_y4m, resize_planes, video_features, y4m_bytes, y4m_resize,
    )

    rng = np.random.default_rng(9)
    y = rng.integers(0, 256, (3, 8, 12), dtype=np.uint8)
    u = rng.integers(0, 256, (3, 4, 6), dtype=np.uint8)
    v = rng.integers(0, 256, (3, 4, 6), dtype=np.uint8)
    payload = y4m_bytes(y, u, v, fps=(30, 1))
    y2, u2, v2, fps = parse_y4m(payload)
    assert (y2 == y).all() and (u2 == u).all() and (v2 == v).all() and fps == (30, 1)
    mono = y4m_bytes(y, fps=(25, 1))
    ym, um, vm, _ = parse_y4m(mono)
    assert (ym == y).all() and um is None and vm is None
    f = video_features(payload, 8)
    yf = y.astype(np.float64)
    assert f[0] == 3.0 and f[1] == 12.0 and f[2] == 8.0 and f[3] == 30.0
    assert f[4] == yf.mean()
    # luma std is the exact-integer-sums form (SQL-replayable); it equals
    # np.std to float tolerance but is defined as sqrt((s2 - s*s/n)/n)
    assert abs(f[5] - yf.std()) < 1e-9
    assert f[6] == np.abs(np.diff(yf, axis=0)).mean()
    assert f[7] == u.astype(np.float64).mean()
    small, nw, nh = y4m_resize(payload, 6, 6)
    assert (nw, nh) == (6, 4)  # aspect fit 12x8 -> 6x4, even for C420
    ys, us, vs, _ = parse_y4m(small)
    assert (ys == resize_planes(y, 6, 4)).all()
    assert (us == resize_planes(u, 3, 2)).all() and (vs == resize_planes(v, 3, 2)).all()
    unchanged, w0, h0 = y4m_resize(payload, 64, 64)
    assert unchanged == payload and (w0, h0) == (12, 8)


def test_y4m_frame_sampler_extracts_decodable_frames():
    """FrameSampleStage emits standalone single-frame Y4M payloads with
    frame-rate timestamps; each decodes via video_features."""
    from titan_ray.stages.multimodal import FrameSampleStage, parse_y4m, y4m_bytes

    rng = np.random.default_rng(4)
    nf = 7
    y = rng.integers(0, 256, (nf, 4, 6), dtype=np.uint8)
    u = rng.integers(0, 256, (nf, 2, 3), dtype=np.uint8)
    v = rng.integers(0, 256, (nf, 2, 3), dtype=np.uint8)
    batch = pa.table(
        {
            "media_id": pa.array([1], type=pa.int64()),
            "kind": pa.array(["video"]),
            "payload": pa.array([y4m_bytes(y, u, v, fps=(25, 1))], type=pa.binary()),
            "width": pa.array([6], type=pa.int32()),
            "height": pa.array([4], type=pa.int32()),
            "duration_ms": pa.array([nf * 40], type=pa.int32()),
        }
    )
    out = FrameSampleStage(n_frames=4)(batch)
    assert out.num_rows == 4
    # evenly spaced over 7 frames: source indices 0, 2, 4, 6 at 40 ms each
    assert out["frame_ts_ms"].to_pylist() == [0, 80, 160, 240]
    for j, src in enumerate([0, 2, 4, 6]):
        yj, uj, vj, fps = parse_y4m(out["frame"][j].as_py())
        assert yj.shape == (1, 4, 6) and fps == (25, 1)
        assert (yj[0] == y[src]).all() and (uj[0] == u[src]).all()


def test_wav_codec_roundtrip_and_features():
    """The pure-numpy WAV codec: encode -> parse roundtrips bit-exactly, and
    decode emits the documented sample statistics for a known fixture."""
    from titan_ray.stages.multimodal import parse_wav, wav_bytes, wav_features

    samples = np.asarray([0, 1000, -1000, 2000, -2000, 0, 500, -500], dtype=np.int16)
    payload = wav_bytes(samples, sample_rate=8000)
    back, rate = parse_wav(payload)
    assert rate == 8000
    assert (back == samples).all()
    f = wav_features(payload, 8)
    assert f[0] == 8.0                      # n_samples
    assert f[1] == 8000.0                   # sample_rate
    assert f[2] == float(samples.astype(np.float64).mean())
    assert f[4] == 2000.0                   # peak
    assert 0.0 < f[5] <= 1.0                # zero-crossing rate
    x = samples.astype(np.float64)
    assert f[6] == float(np.mean(x[:4] ** 2)) and f[7] == float(np.mean(x[4:] ** 2))


def test_media_audio_features_are_sample_stats(ray_session):
    """Audio rows in the media pipeline carry REAL WAV payloads and their
    features are decoded sample statistics (n_samples, rate first)."""
    t = synth_media_table(24)
    out = media_features(t, batch_size=8).to_pandas()
    aud = out[out["kind"] == "audio"]
    assert len(aud) > 0
    for f in aud["features"]:
        assert f[0] == 2048.0   # payload_bytes // 2 samples
        assert f[1] == 8000.0   # sample rate
        assert f[4] <= 32767.0 and f[3] > 0  # peak within int16, rms positive


def test_media_features_query_matches_duckdb_replay(ray_session):
    """Round-5: the driver-facing media_features query is value-hash
    checkable — every WAV/PPM/Y4M feature is an exact int64 sum over
    payload bytes + one float expression, and the DuckDB oracle
    (media_features_sql) replays it BIT-IDENTICALLY from hex(payload)."""
    import duckdb

    from titan_ray.stages.multimodal import (
        ensure_media_table,
        media_features_query,
        media_features_sql,
    )

    sf_dir = "/root/testdata/sf0.001"
    eng = (
        media_features_query(sf_dir)
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    path = ensure_media_table(sf_dir)
    ora = (
        duckdb.sql(media_features_sql(path))
        .df()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    assert len(eng) == len(ora) > 0
    assert sorted(eng.columns) == sorted(ora.columns)
    for c in ["media_id", "kind", "n_bytes"] + [f"f{i}" for i in range(8)]:
        assert (eng[c].to_numpy() == ora[c].to_numpy()).all(), c
    # all payloads are well-formed by construction: nothing quarantined
    assert eng["quarantine_reason"].isna().all()
    assert ora["quarantine_reason"].isna().all()


def test_media_features_pipeline(ray_session):
    out = media_features(synth_media_table(32), batch_size=8).to_pandas()
    assert len(out) == 32
    # deterministic digest features
    out2 = media_features(synth_media_table(32), batch_size=4).to_pandas()
    a = out.sort_values("media_id").reset_index(drop=True)
    b = out2.sort_values("media_id").reset_index(drop=True)
    assert (a["features"].map(tuple) == b["features"].map(tuple)).all()


def _brute_jaccard(texts, thr):
    """Test oracle: exact full-shingle Jaccard over ALL pairs (set-based)."""
    sets = [
        {texts[i][j : j + 5] for j in range(len(texts[i]) - 4)} for i in range(len(texts))
    ]
    out = []
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            u = len(sets[i] | sets[j])
            jac = len(sets[i] & sets[j]) / u if u else 0.0
            if jac > thr:
                out.append((i, j, round(jac, 4)))
    return out


def test_lsh_verify_matches_bruteforce(ray_session, tmp_path):
    """minhash LSH candidates -> exact verify == brute-force all-pairs exact
    Jaccard on a corpus with planted near-dups (the scale path loses
    nothing at high similarity)."""
    import pyarrow.parquet as pq
    from titan_ray.stages import neardup

    rng = np.random.default_rng(3)
    # wide vocabulary => random docs share little; planted dups sit ~0.95
    words = [f"w{i:03d}x{i % 7}" for i in range(800)]
    texts = [
        " ".join(words[k] for k in rng.integers(0, len(words), 30)) for _ in range(40)
    ]
    # plant 6 near-dup pairs: copy with a one-word change
    for i in range(6):
        t = texts[i].split()
        t[5] = "changed"
        texts.append(" ".join(t))
    sf_dir = tmp_path / "sf0.5"
    sf_dir.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts)}),
        sf_dir / "documents.parquet",
    )
    neardup.NEARDUP_ROOT = str(tmp_path / "cands")  # isolate cache
    got = neardup.ngram_jaccard_pairs(str(sf_dir), 0.5).to_pandas()
    want = _brute_jaccard(texts, 0.5)
    assert sorted(zip(got["doc_a"], got["doc_b"])) == [(a, b) for a, b, _ in want]
    assert len(want) >= 6
    # dedup drops exactly the doc_b side of each verified pair
    kept = neardup.minhash_dedup_docs(str(sf_dir), 0.5).to_pandas()
    assert len(kept) == len(texts) - len({b for _, b, _ in want})


def test_media_resize_and_frame_sample(ray_session):
    from titan_ray.stages.multimodal import media_pipeline, synth_media_table

    t = synth_media_table(24, seed=7)
    out = media_pipeline(t, batch_size=8).to_pandas()
    n_video = sum(1 for k in t["kind"].to_pylist() if k == "video")
    # videos fan out to 4 frames, images/audio to 1
    assert len(out) == n_video * 4 + (24 - n_video)
    assert out.groupby("media_id")["frame_idx"].max().max() == 3
    # deterministic across runs/batch sizes
    out2 = media_pipeline(t, batch_size=3).to_pandas()
    a = out.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)
    b = out2.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)
    assert (a["features"].map(tuple) == b["features"].map(tuple)).all()


def test_ngram_jaccard_allpairs_matches_bruteforce(ray_session, tmp_path):
    """The distributed inverted-index all-pairs path == brute force when no
    shingle exceeds the common-shingle cap (46 docs < cap)."""
    import pyarrow.parquet as pq
    from titan_ray.stages import neardup

    rng = np.random.default_rng(5)
    words = [f"q{i:03d}z{i % 5}" for i in range(700)]
    texts = [" ".join(words[k] for k in rng.integers(0, len(words), 25)) for _ in range(40)]
    for i in range(6):
        t = texts[i].split()
        t[3] = "other"
        texts.append(" ".join(t))
    sf_dir = tmp_path / "sf0.6"
    sf_dir.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts)}),
        sf_dir / "documents.parquet",
    )
    got = neardup.ngram_jaccard_allpairs(str(sf_dir), 0.5).to_pandas()
    want = _brute_jaccard(texts, 0.5)
    got = got.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert list(zip(got["doc_a"], got["doc_b"])) == [(a, b) for a, b, _ in want]
    assert np.allclose(got["jaccard"], [j for _, _, j in want], atol=1e-4)


def test_winnow_fingerprints_brute_oracle(ray_session):
    """Winnowing fingerprints == a brute-force python winnow (min k-gram
    hash per W-window, distinct per doc) on real docs, and the guarantee
    holds: two docs sharing a long substring share a fingerprint."""
    import os

    from titan_ray.stages.neardup import doc_winnow_fingerprints

    sf_dir = "/root/testdata/sf0.001"
    if not os.path.isdir(sf_dir):
        import pytest

        pytest.skip("testdata absent")
    import pyarrow.parquet as pq

    eng = doc_winnow_fingerprints(sf_dir).to_pandas()
    docs = pq.read_table(f"{sf_dir}/documents.parquet").to_pandas().head(3)
    SEED, M, T = 1469598103934665603, 1099511628211, 1 << 64
    for _, r in docs.iterrows():
        t = r["text"].encode()
        hs = []
        for p in range(len(t) - 4):
            h = SEED
            for b in t[p : p + 5]:
                h = (h * M + b) % T
            hs.append(h)
        fps = {min(hs[j - 7 : j + 1]) for j in range(7, len(hs))}
        want = sorted(np.array(sorted(fps), dtype=np.uint64).view(np.int64))
        got = sorted(eng[eng["doc_id"] == r["doc_id"]]["fp"])
        assert want == got


def test_dedup_clusters_transitive(ray_session, tmp_path, monkeypatch):
    """Connected components merge chains pairwise dedup can't: a~b and b~c
    above threshold but a~c below => one size-3 cluster keyed by min id."""
    import pyarrow.parquet as pq
    from titan_ray.stages import neardup

    rng = np.random.default_rng(11)
    words = [f"w{i:03d}x{i % 7}" for i in range(800)]
    texts = [
        " ".join(words[k] for k in rng.integers(0, len(words), 30)) for _ in range(20)
    ]
    # chain: a = b with the first 4 words replaced, c = b with the last 4
    b = texts[3].split()
    a = ["qa1", "qa2", "qa3", "qa4"] + b[4:]
    c = b[:-4] + ["qc1", "qc2", "qc3", "qc4"]
    texts.extend([" ".join(a), " ".join(c)])  # ids 20, 21; b is id 3
    sf_dir = tmp_path / "sf0.7"
    sf_dir.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts)}),
        sf_dir / "documents.parquet",
    )
    monkeypatch.setattr(neardup, "NEARDUP_ROOT", str(tmp_path / "cands"))
    thr = 0.7
    want = _brute_jaccard(texts, thr)
    pairs = {(p[0], p[1]) for p in want}
    assert (3, 20) in pairs and (3, 21) in pairs and (20, 21) not in pairs
    out = neardup.dedup_clusters(str(sf_dir), thr).to_pandas().set_index("doc_id")
    assert set(out.index) >= {3, 20, 21}
    assert out.loc[20, "cluster_id"] == 3 and out.loc[21, "cluster_id"] == 3
    assert out.loc[3, "cluster_size"] == 3


def test_clusters_labelprop_matches_unionfind(ray_session):
    """The distributed min-label-propagation fallback (taken above
    MAX_CLUSTER_PAIRS) produces clusters identical to the union-find fast
    path: a planted 12-node chain (diameter 11 — multiple propagation
    rounds), a 3-clique, an isolated pair, all interleaved with noise ids."""
    import pandas as pd
    from titan_ray.stages import neardup

    chain = [(i * 10 + 5, (i + 1) * 10 + 5) for i in range(11)]  # 5-15-...-115
    clique = [(2, 7), (2, 9), (7, 9)]
    pair = [(200, 300)]
    edges = pd.DataFrame(chain + clique + pair, columns=["doc_a", "doc_b"])
    fast = neardup.clusters_from_pairs(edges).to_pandas()
    slow = neardup.clusters_from_pairs(edges, max_pairs=3).to_pandas()
    pd.testing.assert_frame_equal(fast, slow)
    got = fast.set_index("doc_id")
    assert got.loc[115, "cluster_id"] == 5 and got.loc[115, "cluster_size"] == 12
    assert got.loc[9, "cluster_id"] == 2 and got.loc[9, "cluster_size"] == 3
    assert got.loc[300, "cluster_id"] == 200 and got.loc[300, "cluster_size"] == 2


def test_ppm_codec_roundtrip_and_features():
    """The pure-numpy PPM codec: encode -> parse roundtrips bit-exactly
    (including comment/whitespace header variants) and image features are
    the documented pixel statistics."""
    from titan_ray.stages.multimodal import image_features, parse_ppm, ppm_bytes

    rng = np.random.default_rng(3)
    px = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
    payload = ppm_bytes(px)
    assert (parse_ppm(payload) == px).all()
    # header with comment + extra whitespace
    alt = b"P6\n# a comment\n  7  5\n255\n" + px.tobytes()
    assert (parse_ppm(alt) == px).all()
    f = image_features(payload, 8)
    assert f[0] == 7.0 and f[1] == 5.0
    assert f[2] == float(px[..., 0].astype(np.float64).mean())
    # pixel std is the exact-integer-sums form (SQL-replayable)
    assert abs(f[5] - float(px.astype(np.float64).std())) < 1e-9


def test_resize_nearest_kernel():
    from titan_ray.stages.multimodal import resize_nearest

    px = np.arange(4 * 6 * 3, dtype=np.uint8).reshape(4, 6, 3)
    out = resize_nearest(px, 3, 2)
    assert out.shape == (2, 3, 3)
    # nearest-neighbour index map: rows [0,2], cols [0,2,4]
    assert (out == px[np.ix_([0, 2], [0, 2, 4])]).all()


def test_media_resize_really_resamples_images(ray_session):
    """Image rows above the target box come back with a REAL resampled PPM
    payload whose pixels equal the nearest-neighbour kernel output."""
    from titan_ray.stages.multimodal import (
        MediaResizeStage,
        parse_ppm,
        resize_nearest,
        synth_media_table,
    )

    t = synth_media_table(32, seed=11)
    stage = MediaResizeStage(max_w=20, max_h=20)
    out = stage(t)
    kinds = t["kind"].to_pylist()
    for i, k in enumerate(kinds):
        if k != "image":
            continue
        w, h = t["width"][i].as_py(), t["height"][i].as_py()
        nw, nh = out["width"][i].as_py(), out["height"][i].as_py()
        scale = min(1.0, 20 / max(w, 1), 20 / max(h, 1))
        assert nw == max(int(w * scale), 1) and nh == max(int(h * scale), 1)
        src = parse_ppm(t["payload"][i].as_py())
        got = parse_ppm(out["payload"][i].as_py())
        if (nw, nh) != (w, h):
            assert (got == resize_nearest(src, nw, nh)).all()
        else:
            assert (got == src).all()


def test_media_image_features_are_pixel_stats(ray_session):
    """Image rows in the media pipeline decode their PPM payloads: the first
    two features are the true pixel dimensions from the payload header."""
    t = synth_media_table(24)
    out = media_features(t, batch_size=8).to_pandas()
    img = out[out["kind"] == "image"]
    assert len(img) > 0
    w = {m: t["width"][i].as_py() for i, m in enumerate(t["media_id"].to_pylist())}
    h = {m: t["height"][i].as_py() for i, m in enumerate(t["media_id"].to_pylist())}
    for mid, f in zip(img["media_id"], img["features"]):
        assert f[0] == float(w[mid]) and f[1] == float(h[mid])
        assert 0.0 <= f[2] <= 255.0  # mean R in range


def _docs_dir(tmp_path, texts):
    import pyarrow.parquet as pq

    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["s"] * len(texts)),
            "n_chars": pa.array([len(t) if t else 0 for t in texts], type=pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    return str(tmp_path)


def _lsh_compare(sf_dir):
    import duckdb

    from titan_ray.stages.neardup import minhash_lsh_candidates, minhash_lsh_sql
    from tools.check_contract import to_pandas, value_hash

    eng = to_pandas(minhash_lsh_candidates(sf_dir))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'")
    ora = con.sql(minhash_lsh_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)
    return eng


def test_minhash_lsh_sql_oracle_edge_docs(ray_session, tmp_path):
    """SQL replay matches the engine on short/NULL docs (all-max signature
    constant-bucket branch) plus ordinary near/far docs."""
    sf_dir = _docs_dir(
        tmp_path, [NEAR_A, NEAR_B, FAR, "ab", "", None, "xy", NEAR_A + " extra tail words"]
    )
    eng = _lsh_compare(sf_dir)
    pairs = set(map(tuple, eng[["doc_a", "doc_b"]].to_numpy()))
    assert (0, 1) in pairs                      # near pair bucketed together
    assert not {(0, 2), (1, 2)} & pairs         # far doc not a candidate
    # all four short/NULL docs share the all-max signature bucket
    assert {(3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)} <= pairs


def test_minhash_lsh_sql_oracle_star_cap(ray_session, tmp_path):
    """A band bucket larger than MAX_BAND_BUCKET degrades to star pairs
    against the minimum doc_id — in the engine AND the SQL replay."""
    from titan_ray.stages.neardup import MAX_BAND_BUCKET

    n = MAX_BAND_BUCKET + 20
    sf_dir = _docs_dir(tmp_path, [NEAR_A] * n + [FAR])
    eng = _lsh_compare(sf_dir)
    pairs = set(map(tuple, eng[["doc_a", "doc_b"]].to_numpy()))
    # star, not clique: every identical doc pairs with anchor 0 only
    assert {(0, i) for i in range(1, n)} == pairs


def test_doc_dup_spans_planted(ray_session, tmp_path):
    """Two docs share one 30-char substring -> max_run = 30 - K + 1 for
    both; an unrelated doc is absent; engine == DuckDB replay."""
    import duckdb

    from titan_ray.stages.neardup import DUP_SPAN_K, doc_dup_spans, dup_spans_sql
    from tools.check_contract import to_pandas, value_hash

    shared = "S" * 10 + "HARED-SEGMENT-0123456789"  # 34 chars
    assert len(shared) == 34
    # distinct flanking chars so the duplicated region is exactly `shared`
    sf_dir = _docs_dir(
        tmp_path,
        [
            "prefix_one." + shared + "!suffix_alpha",
            "other-lead:" + shared + "?tail/omega",
            "completely unrelated text with no overlap at all",
        ],
    )
    eng = to_pandas(doc_dup_spans(sf_dir)).set_index("doc_id").sort_index()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'")
    ora = con.sql(dup_spans_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng.reset_index()) == value_hash(ora)
    assert set(eng.index) == {0, 1}
    assert (eng["max_run"] == len(shared) - DUP_SPAN_K + 1).all()
    assert (eng["n_dup_grams"] == len(shared) - DUP_SPAN_K + 1).all()


def test_doc_dup_spans_sf0001(ray_session):
    import duckdb

    from titan_ray.stages.neardup import doc_dup_spans, dup_spans_sql
    from tools.check_contract import to_pandas, value_hash

    sf_dir = "/root/testdata/sf0.001"
    eng = to_pandas(doc_dup_spans(sf_dir))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'")
    ora = con.sql(dup_spans_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_levenshtein_kernel_and_pairs(ray_session):
    import duckdb

    import numpy as np

    from tools.check_contract import value_hash
    from titan_ray.stages.neardup import (
        _levenshtein_block,
        edit_distance_sql,
        neardup_edit_distance,
    )

    # kernel vs classic DP on planted + random byte strings (incl. empties)
    def ref(a, b):
        dp = list(range(len(b) + 1))
        for i in range(1, len(a) + 1):
            prev, dp[0] = dp[0], i
            for j in range(1, len(b) + 1):
                cur = dp[j]
                dp[j] = min(dp[j] + 1, dp[j - 1] + 1, prev + (a[i - 1] != b[j - 1]))
                prev = cur
        return dp[len(b)]

    import random

    random.seed(7)
    pairs = [("kitten", "sitting"), ("", "xyz"), ("xyz", ""), ("aa", "aa")]
    pairs += [("".join(random.choice("abc") for _ in range(random.randint(0, 15))),
               "".join(random.choice("abc") for _ in range(random.randint(0, 15))))
              for _ in range(30)]
    la = np.array([len(a) for a, _ in pairs], dtype=np.int64)
    lb = np.array([len(b) for _, b in pairs], dtype=np.int64)
    A = np.zeros((len(pairs), max(la.max(), 1)), dtype=np.uint8)
    B = np.zeros((len(pairs), max(lb.max(), 1)), dtype=np.uint8)
    for i, (a, b) in enumerate(pairs):
        A[i, : len(a)] = np.frombuffer(a.encode(), dtype=np.uint8)
        B[i, : len(b)] = np.frombuffer(b.encode(), dtype=np.uint8)
    got = list(_levenshtein_block(A, la, B, lb))
    assert got == [ref(a, b) for a, b in pairs]

    # full operator vs DuckDB levenshtein over the persisted pair list
    sf_dir = "/root/testdata/sf0.001"
    eng = neardup_edit_distance(sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'")
    ora = con.sql(edit_distance_sql(0.001)).df()
    assert len(eng) == len(ora) and value_hash(eng) == value_hash(ora)
    assert (eng["sim_milli"] <= 1000).all() and (eng["edit_dist"] >= 0).all()


def test_media_scene_cuts(ray_session):
    """Frame-pair SAD over real Y4M decode == the hex byte-walk twin, and a
    planted two-frame clip with a known luma delta lands exactly."""
    import duckdb
    import numpy as np
    import ray.data as rd

    from titan_ray.stages.multimodal import (
        ensure_media_table,
        media_scene_cuts,
        parse_y4m,
        scene_cuts_sql,
        y4m_bytes,
    )
    from tools.check_contract import value_hash

    # planted: 4x4 C420 clip, frame2 = frame1 + 7 everywhere -> sad = 112
    y = np.stack([np.full((4, 4), 100, np.uint8), np.full((4, 4), 107, np.uint8)])
    u = np.full((2, 2, 2), 128, np.uint8)
    v = np.full((2, 2, 2), 128, np.uint8)
    payload = y4m_bytes(y, u, v)
    yy, _, _, _ = parse_y4m(payload)
    assert int(np.abs(yy[1].astype(int) - yy[0].astype(int)).sum()) == 112

    sf = "/root/testdata/sf0.001"
    eng = media_scene_cuts(sf).to_pandas()
    con = duckdb.connect()
    ora = con.sql(scene_cuts_sql(ensure_media_table(sf))).df()
    assert len(eng) == len(ora) and len(eng) > 0
    assert value_hash(eng) == value_hash(ora)


def test_neardup_containment(ray_session, tmp_path):
    """Asymmetric containment: a short doc fully embedded in a long one
    scores ~1.0 even where Jaccard is tiny; engine == least-size twin."""
    import duckdb
    import pyarrow.parquet as pq

    from titan_ray.stages.neardup import (
        containment_sql,
        neardup_containment,
        verify_candidate_pairs,
    )
    from tools.check_contract import value_hash

    # planted: doc 1 is a verbatim slice of doc 0 (an 80-char core inside
    # 400 chars of distinct filler) -> containment ~1, jaccard far below
    import pandas as pd
    core = "the quick brown fox jumps over the lazy dog while the cat watches from the fence"
    filler = " ".join(f"w{i}x{i * 7 % 91}" for i in range(60))
    pairs = pd.DataFrame({"doc_a": [0], "doc_b": [1]})
    d = tmp_path / "sf0.5017"     # unique sf key so the candidate cache misses
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array([filler + " " + core, core]),
    }), d / "documents.parquet")
    cont = verify_candidate_pairs(str(d), pairs, 0.5, score="containment")
    jac = verify_candidate_pairs(str(d), pairs, 0.0, score="jaccard")
    assert len(cont) == 1 and cont.iloc[0]["containment"] > 0.95
    assert jac.iloc[0]["jaccard"] < 0.5

    # real corpus vs the SQL twin over the persisted candidate list
    eng = neardup_containment("/root/testdata/sf0.001").to_pandas()
    con = duckdb.connect()
    con.sql("CREATE VIEW documents AS SELECT * FROM "
            "'/root/testdata/sf0.001/documents.parquet'")
    ora = con.sql(containment_sql(0.001)).df()
    assert len(eng) == len(ora) and len(eng) > 0
    assert value_hash(eng) == value_hash(ora)


def test_doc_setjoin_pairs(ray_session, tmp_path):
    """AllPairs prefix-filter join is COMPLETE: planted near-identical pair
    found with exact intersection/union; disjoint doc excluded; corpus
    parity vs the unconditioned SQL self-join."""
    import duckdb
    import pyarrow.parquet as pq

    from titan_ray.stages.neardup import doc_setjoin_pairs, setjoin_sql
    from tools.check_contract import value_hash

    # docs 1/2 share 9 of 10 words -> 8 of 9 bigrams shared... construct
    # explicitly: 1 and 2 differ in the LAST word only; 3 is disjoint
    base = "alpha beta gamma delta epsilon zeta eta theta iota"
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "lang": pa.array(["en"] * 3),
        "source": pa.array(["s"] * 3),
        "text": pa.array([base + " kappa", base + " lambda", "one two three four"]),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "documents.parquet")
    eng = doc_setjoin_pairs(str(d))
    # 9 bigrams each, 8 shared: J = 8/10 = 0.8 >= 3/5
    assert eng[["doc_a", "doc_b", "n_inter", "n_union"]].values.tolist() == [[1, 2, 8, 10]]

    SF = "/root/testdata/sf0.001"
    eng = doc_setjoin_pairs(SF)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.sql(setjoin_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)


def test_media_audio_energy(ray_session):
    """Windowed energy/zero-crossings over real WAV decode == the hex
    byte-walk twin; a planted square wave lands exactly."""
    import duckdb
    import numpy as np

    from titan_ray.stages.multimodal import (
        ensure_media_table,
        audio_energy_sql,
        media_audio_energy,
        parse_wav,
        wav_bytes,
    )
    from tools.check_contract import value_hash

    # planted: 512 samples alternating +1000/-1000 -> per-256-window energy
    # = 256e6 exactly, zero crossings = 255 (every in-window neighbour pair)
    sq = np.tile([1000, -1000], 256).astype(np.int16)
    s, rate = parse_wav(wav_bytes(sq))
    assert (s == sq).all() and rate == 8000
    x = s[:512].astype(np.int64).reshape(2, 256)
    assert (x * x).sum(axis=1).tolist() == [256_000_000, 256_000_000]
    neg = x < 0
    assert (neg[:, 1:] != neg[:, :-1]).sum(axis=1).tolist() == [255, 255]

    sf = "/root/testdata/sf0.001"
    eng = media_audio_energy(sf).to_pandas()
    con = duckdb.connect()
    ora = con.sql(audio_energy_sql(ensure_media_table(sf))).df()
    assert len(eng) == len(ora) and len(eng) > 0
    assert value_hash(eng) == value_hash(ora)
    # full windows only: every clip's window count is n_samples // 256
    assert (eng.groupby("media_id")["win_idx"].max() >= 0).all()


def test_dhash_one_gradient_and_invariance():
    """dHash properties on constructed pixels: a left-to-right brightening
    gradient sets every horizontal comparison bit; identical images hash
    identically; a lightly-noised copy stays Hamming-near while an inverted
    image is Hamming-far."""
    import numpy as np

    from titan_ray.stages.multimodal import _dhash_one

    h, w = 16, 18
    grad = np.tile(np.linspace(0, 255, w, dtype=np.uint8)[None, :, None], (h, 1, 3))
    hi, lo = _dhash_one(grad)
    assert hi == lo == 0xFFFFFFFF  # every right cell strictly brighter

    rng = np.random.default_rng(7)
    base = rng.integers(0, 256, (32, 40, 3)).astype(np.uint8)
    assert _dhash_one(base.copy()) == _dhash_one(base)

    def ham(a, b):
        return bin(((a[0] ^ b[0]) << 32) | (a[1] ^ b[1])).count("1")

    noised = np.clip(base.astype(np.int16) + rng.integers(-4, 5, base.shape), 0, 255).astype(np.uint8)
    inverted = (255 - base.astype(np.int16)).astype(np.uint8)
    assert ham(_dhash_one(base), _dhash_one(noised)) <= 12
    assert ham(_dhash_one(base), _dhash_one(inverted)) >= 40


def test_media_image_dhash_matches_duckdb_replay(ray_session):
    import duckdb

    from titan_ray.stages.multimodal import (
        ensure_media_table,
        image_dhash_sql,
        media_image_dhash,
    )
    from tools.check_contract import to_pandas, value_hash

    sf_dir = "/root/testdata/sf0.001"
    eng = to_pandas(media_image_dhash(sf_dir))
    path = ensure_media_table(sf_dir)
    ora = duckdb.sql(image_dhash_sql(path)).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)
    # halves are 32-bit by construction
    assert eng["dhash_hi"].between(0, 2**32 - 1).all()
    assert eng["dhash_lo"].between(0, 2**32 - 1).all()


def test_sorted_neighbors_edge_cases(ray_session, tmp_path):
    """Merge/purge adjacency on a planted sort order: identical texts give
    lcp == full length, a shared 24-byte prefix survives min_lcp=20, an
    unrelated neighbor doesn't, and equal texts tie-break by doc_id (7
    before 9, so the identical pair is (7,9) and (9, next))."""
    import duckdb
    import pyarrow.parquet as pq

    from titan_ray.stages.neardup import neardup_sorted_neighbors, sorted_neighbors_sql
    from tools.check_contract import to_pandas, value_hash

    shared = "the quick brown fox jump"          # 24 bytes
    tbl = pa.table({
        "doc_id": pa.array([9, 7, 3, 5], type=pa.int64()),
        "text": pa.array([
            shared + "ed over the lazy dog",     # sorts next to its twin
            shared + "ed over the lazy dog",     # identical -> lcp = 44
            shared + "s high",                   # lcp 24+ with the twins
            "zzz completely elsewhere",          # lcp 0 with predecessor
        ]),
    })
    d = tmp_path / "snm"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")
    eng = to_pandas(neardup_sorted_neighbors(str(d))).sort_values(
        ["doc_a", "doc_b"]).reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{d}/documents.parquet'")
    ora = con.sql(sorted_neighbors_sql()).df()
    assert value_hash(eng) == value_hash(ora)
    got = {(a, b): l for a, b, l in eng.itertuples(index=False)}
    assert got == {(7, 9): 44, (9, 3): 24}       # twins full-length; 'jumpe|s' diverges at byte 24


def test_sorted_neighbors_boundary_stitch(ray_session, tmp_path):
    """Pairs split across sort slices are still found: a 40-doc common-prefix
    run repartitioned into 16 tiny blocks yields exactly 39 adjacent pairs
    regardless of layout (boundary pairs = slice edges)."""
    import pyarrow.parquet as pq

    from titan_ray.stages.neardup import neardup_sorted_neighbors
    from tools.check_contract import to_pandas

    n = 40
    tbl = pa.table({
        "doc_id": pa.array(list(range(n)), type=pa.int64()),
        "text": pa.array([f"common prefix twenty-four! doc {i:03d}" for i in range(n)]),
    })
    d = tmp_path / "snmb"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")

    import titan_ray.stages.neardup as nd
    import ray.data as rd

    orig = nd._read_docs
    try:
        nd._read_docs = lambda sf: rd.read_parquet(
            f"{sf}/documents.parquet", columns=["doc_id", "text"]).repartition(16)
        eng = to_pandas(neardup_sorted_neighbors(str(d)))
    finally:
        nd._read_docs = orig
    assert len(eng) == n - 1
    assert (eng["lcp"] >= 27).all()


def _dense_adjacent_lcp(texts: pa.Array) -> np.ndarray:
    """The rows x longest-text NUL-padded matrix form of the adjacent LCP."""
    from titan_ray.functions.strings import multi_arange, string_view

    data, off, _ = string_view(texts)
    n = len(off) - 1
    lens = (off[1:] - off[:-1]).astype(np.int64)
    mat = np.zeros((n, int(lens.max())), dtype=np.uint8)
    mat[np.repeat(np.arange(n), lens), multi_arange(np.zeros(n, dtype=np.int64), lens)] = \
        data[multi_arange(off[:-1].astype(np.int64), lens)]
    mis = mat[:-1] != mat[1:]
    return np.where(mis.any(axis=1), mis.argmax(axis=1), np.minimum(lens[:-1], lens[1:]))


def test_adjacent_lcp_bounded_memory():
    """One 256 KB text among ~200 short ones: the windowed LCP equals the
    dense form, and its peak allocation stays far below the dense matrix
    (201 x 256 KB, over 50 MB)."""
    import random
    import tracemalloc

    from titan_ray.stages.neardup import _adjacent_lcp

    rng = random.Random(3)
    words = ["alpha", "beta", "gamma", "delta", "data", "date", "dog", "do"]
    short = [" ".join(rng.choice(words) for _ in range(rng.randint(0, 12))) for _ in range(200)]
    long_text = ("data " * 52_429)[:262_144]
    texts = pa.array(sorted(short + [long_text, long_text[:1000], long_text[:1000]]))

    tracemalloc.start()
    try:
        got = _adjacent_lcp(texts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = _dense_adjacent_lcp(texts)
    assert (want >= 1000).sum() >= 2  # long shared prefixes are exercised
    np.testing.assert_array_equal(got, want)
    assert peak < 8 << 20, peak
