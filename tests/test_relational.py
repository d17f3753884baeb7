"""Generic hash_join operator + TPC-H-analog query tests (engine vs DuckDB)."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _join_fixture():
    import ray.data as rd

    left = pa.table(
        {
            "k": pa.array([1, 1, 2, 3, 5], type=pa.int64()),
            "lv": pa.array([10, 11, 20, 30, 50], type=pa.int64()),
            "ts": pa.array(
                np.array(["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04", "2020-01-05"],
                         dtype="datetime64[us]")
            ),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, 2, 2, 4], type=pa.int64()),
            "rv": pa.array([100, 200, 201, 400], type=pa.int64()),
            "tag": pa.array(["a", "b", "c", "d"]),
        }
    )
    return rd.from_arrow(left), rd.from_arrow(right)


def test_hash_join_inner_semantics(ray_session):
    """Many-to-many expansion, unmatched keys dropped on both sides."""
    from titan_ray.stages.joins import hash_join

    lds, rds = _join_fixture()
    out = hash_join(lds, rds, on="k", right_cols=("rv", "tag"), num_buckets=8).to_pandas()
    out = out.sort_values(["k", "lv", "r_rv"]).reset_index(drop=True)
    # k=1: 2 left x 1 right; k=2: 1 x 2; k=3/5 unmatched left; k=4 unmatched right
    assert out["k"].tolist() == [1, 1, 2, 2]
    assert out["r_rv"].tolist() == [100, 100, 200, 201]
    assert out["r_tag"].tolist() == ["a", "a", "b", "c"]


def test_hash_join_preserves_dtypes(ray_session):
    """int64 stays int64 (no float64 degradation from the null padding) and
    timestamps survive the union + bucket round trip."""
    from titan_ray.stages.joins import hash_join

    lds, rds = _join_fixture()
    out = hash_join(lds, rds, on="k", right_cols=("rv",), num_buckets=8).to_pandas()
    assert str(out["k"].dtype) == "int64"
    assert str(out["lv"].dtype) == "int64"
    assert str(out["r_rv"].dtype) == "int64"
    assert str(out["ts"].dtype).startswith("datetime64")


def test_hash_join_no_matches(ray_session):
    """Disjoint key sets -> typed empty result, no schema explosion."""
    import ray.data as rd

    from titan_ray.stages.joins import hash_join

    left = rd.from_arrow(pa.table({"k": pa.array([1, 2], type=pa.int64()),
                                   "lv": pa.array([1, 2], type=pa.int64())}))
    right = rd.from_arrow(pa.table({"k": pa.array([7, 8], type=pa.int64()),
                                    "rv": pa.array([70, 80], type=pa.int64())}))
    out = hash_join(left, right, on="k", right_cols=("rv",), num_buckets=4)
    # dataset-level schema is typed even when every block is empty
    # (to_pandas() on an all-empty dataset drops columns — Ray quirk)
    assert out.schema().names == ["k", "lv", "r_rv"]
    assert out.count() == 0


@pytest.mark.parametrize("name", ["tpch_pricing", "tpch_revenue_by_nation"])
def test_tpch_queries_match_duckdb(ray_session, name):
    from titan_ray.pipelines import relational as rel
    from tools.check_contract import to_pandas, value_hash

    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "nation"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    qf = getattr(rel, name)
    sql = rel.pricing_sql() if name == "tpch_pricing" else rel.revenue_sql()
    eng = to_pandas(qf(SF))
    ora = con.sql(sql).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)


def test_hash_join_matches_duckdb_on_lineitem_orders(ray_session):
    """The raw join row multiset (projected) equals DuckDB's inner join."""
    from titan_ray.pipelines.relational import read_parquet_clean
    from titan_ray.stages.joins import hash_join

    def lp(b):
        return b.select(["l_orderkey", "l_linenumber"]).rename_columns(["okey", "ln"])

    def op(b):
        return b.select(["o_orderkey", "o_custkey"]).rename_columns(["okey", "ck"])

    line = read_parquet_clean(f"{SF}/lineitem.parquet",
                              columns=["l_orderkey", "l_linenumber"]).map_batches(
        lp, batch_format="pyarrow")
    orders = read_parquet_clean(f"{SF}/orders.parquet",
                                columns=["o_orderkey", "o_custkey"]).map_batches(
        op, batch_format="pyarrow")
    eng = hash_join(line, orders, on="okey", right_cols=("ck",)).to_pandas()
    con = duckdb.connect()
    ora = con.sql(
        f"SELECT l_orderkey AS okey, l_linenumber AS ln, o_custkey AS r_ck "
        f"FROM '{SF}/lineitem.parquet' JOIN '{SF}/orders.parquet' "
        "ON l_orderkey = o_orderkey"
    ).df()
    key = ["okey", "ln", "r_ck"]
    eng = eng[key].sort_values(key).reset_index(drop=True)
    ora = ora[key].sort_values(key).reset_index(drop=True)
    ora["ln"] = ora["ln"].astype(eng["ln"].dtype)
    pd.testing.assert_frame_equal(eng, ora)


def test_events_topk_users_parity_and_ties(ray_session):
    """Heavy-hitter top-k: DuckDB row_number parity at sf0.001 and the
    deterministic (count DESC, user_id ASC) tie rule on a planted table."""
    from titan_ray.pipelines import events as m
    from titan_ray.pipelines.events import events_topk_users, topk_users_sql

    eng = events_topk_users(SF).sort_values(
        ["event_type", "n", "user_id"], ascending=[True, False, True]
    ).reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(topk_users_sql()).df()
    pd.testing.assert_frame_equal(eng, ora.astype(eng.dtypes.to_dict()))

    # planted ties: users 1,2,3 each have 2 'a' events; k=2 must keep 1,2
    import ray.data as rd
    import tempfile, os
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "event_id": pa.array(range(8), type=pa.int64()),
            "ts": pa.array(np.full(8, "2020-01-01", dtype="datetime64[us]")),
            "user_id": pa.array([3, 3, 1, 1, 2, 2, 9, 9], type=pa.int64()),
            "event_type": pa.array(["a"] * 6 + ["b"] * 2),
            "value": pa.array([0.0] * 8),
            "props": pa.array(["{}"] * 8),
        }
    )
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "events.parquet"))
        out = events_topk_users(d, k=2)
    got = set(zip(out["event_type"], out["user_id"], out["n"]))
    assert got == {("a", 1, 2), ("a", 2, 2), ("b", 9, 2)}


def test_events_sliding_rate(ray_session, tmp_path):
    """Trailing RANGE-frame rate: DuckDB window parity at sf0.001, plus a
    planted table covering frame edges (exactly-W-old included, W+1 excluded,
    duplicate-ts peers counted regardless of order, users isolated)."""
    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import events_sliding_rate, sliding_rate_sql

    eng = to_pandas(events_sliding_rate(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(sliding_rate_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)

    import pyarrow.parquet as pq

    W = 600_000_000
    base = 1_700_000_000_000_000
    t = pa.table(
        {
            "event_id": pa.array(range(7), type=pa.int64()),
            "user_id": pa.array([1, 1, 1, 1, 1, 2, 2], type=pa.int64()),
            "ts": pa.array(
                [base, base + W, base + W + 1, base + 2 * W + 2,
                 base + 2 * W + 2,            # duplicate ts (peer rows)
                 base, base + 1],
                type=pa.timestamp("us"),
            ),
            "event_type": pa.array(["a"] * 7),
            "value": pa.array([0.0] * 7),
            "props": pa.array([""] * 7),
        }
    )
    d = tmp_path / "ev"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_sliding_rate(str(d))).set_index("event_id")["n_win"]
    assert eng[0] == 1          # nothing before
    assert eng[1] == 2          # event 0 is exactly W old -> included
    assert eng[2] == 2          # event 0 now W+1 old -> excluded; event 1 in
    assert eng[3] == 2 and eng[4] == 2   # ts-peers count each other
    assert eng[5] == 1 and eng[6] == 2   # user 2 isolated from user 1
    con2 = duckdb.connect()
    con2.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    ora = con2.sql(sliding_rate_sql()).df()
    assert value_hash(eng.reset_index()) == value_hash(ora)


def test_tpch_shipping_topk(ray_session):
    """Q3-shape 3-table join + top-k: engine vs DuckDB hash parity and the
    revenue-desc/orderkey tie order."""
    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.relational import tpch_shipping_topk, shipping_topk_sql

    eng = to_pandas(tpch_shipping_topk(SF))
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    ora = con.sql(shipping_topk_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)
    assert eng["revenue_1e4"].is_monotonic_decreasing


def test_events_funnel(ray_session, tmp_path):
    """Sequential funnel: DuckDB parity at sf0.001 plus a planted table
    covering ordering gates (B before A doesn't convert; equal ts does)."""
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import events_funnel, funnel_sql

    eng = to_pandas(events_funnel(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(funnel_sql()).df()
    assert value_hash(eng) == value_hash(ora)
    s = eng.set_index("stage")["n_users"]
    assert s[1] >= s[2] >= s[3] > 0      # funnel monotone, non-trivial

    # planted: u1 full funnel; u2 click BEFORE signup (no stage-2);
    # u3 click at the SAME ts as signup (>= gate -> converts); u4 signup only
    base = 1_700_000_000_000_000
    t = pa.table({
        "event_id": pa.array(range(9), type=pa.int64()),
        "ts": pa.array([base, base + 1, base + 2,
                        base + 1, base,
                        base, base,
                        base, base], type=pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2, 2, 3, 3, 4, 5], type=pa.int64()),
        "event_type": pa.array(["signup", "click", "purchase",
                                "signup", "click",
                                "signup", "click",
                                "signup", "purchase"]),
        "value": pa.array([0.0] * 9),
        "props": pa.array([""] * 9),
    })
    d = tmp_path / "fun"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_funnel(str(d))).set_index("stage")["n_users"]
    assert eng[1] == 4           # users 1,2,3,4 signed up (5 never did)
    assert eng[2] == 2           # u1 and u3 (equal-ts gate); u2 clicked early
    assert eng[3] == 1           # only u1 purchased after clicking
    con2 = duckdb.connect()
    con2.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    assert value_hash(eng.reset_index()) == value_hash(con2.sql(funnel_sql()).df())


def test_events_retention(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import events_retention, retention_sql, WEEK_US

    eng = to_pandas(events_retention(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(retention_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)
    assert (eng["week_offset"] >= 0).all()

    # planted: u1 weeks 0,2 of its cohort; u2 week 1 only; u3 same cohort
    # week as u1 (cells aggregate across users)
    w0 = (1_700_000_000_000_000 // WEEK_US) * WEEK_US
    t = pa.table({
        "event_id": pa.array(range(5), type=pa.int64()),
        "ts": pa.array([w0, w0 + 2 * WEEK_US, w0 + WEEK_US, w0 + 10, w0 + 10],
                       type=pa.timestamp("us")),
        "user_id": pa.array([1, 1, 2, 3, 3], type=pa.int64()),
        "event_type": pa.array(["click"] * 5),
        "value": pa.array([0.0] * 5),
        "props": pa.array([""] * 5),
    })
    d = tmp_path / "ret"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_retention(str(d)))
    cells = {(r.cohort_week, r.week_offset): r.n_users for r in eng.itertuples()}
    wk0 = w0 // WEEK_US
    assert cells[(wk0, 0)] == 2          # u1 + u3 in cohort week 0
    assert cells[(wk0, 2)] == 1          # u1 retained at offset 2
    assert cells[(wk0 + 1, 0)] == 1      # u2's own cohort
    con2 = duckdb.connect()
    con2.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    assert value_hash(eng) == value_hash(con2.sql(retention_sql()).df())


def test_events_rollup(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import events_rollup, rollup_sql

    # real corpus: hash-green vs GROUP BY ROLLUP
    eng = to_pandas(events_rollup(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(rollup_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)

    # the three levels reconcile: cells sum to their type subtotal, type
    # subtotals sum to the grand total
    cells = eng[(eng["event_type"] != "ALL") & (eng["hour"] >= 0)]
    subs = eng[(eng["event_type"] != "ALL") & (eng["hour"] == -1)].set_index("event_type")
    total = eng[eng["event_type"] == "ALL"].iloc[0]
    for t, part in cells.groupby("event_type"):
        assert part["n"].sum() == subs.loc[t, "n"]
        assert part["value_milli"].sum() == subs.loc[t, "value_milli"]
    assert subs["n"].sum() == total["n"]
    assert subs["value_milli"].sum() == total["value_milli"]

    # planted: negative values floor toward -inf identically on both sides
    t = pa.table({
        "event_id": pa.array([0, 1], type=pa.int64()),
        "ts": pa.array([3_600_000_000, 3_600_000_001], type=pa.timestamp("us")),
        "user_id": pa.array([1, 2], type=pa.int64()),
        "event_type": pa.array(["x", "x"]),
        "value": pa.array([-1.2345, 2.5]),
        "props": pa.array(["", ""]),
    })
    d = tmp_path / "roll"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_rollup(str(d)))
    cell = eng[(eng["event_type"] == "x") & (eng["hour"] == 1)].iloc[0]
    assert cell["value_milli"] == -1235 + 2500      # floor(-1234.5), floor(2500.0)
    con2 = duckdb.connect()
    con2.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    assert value_hash(eng) == value_hash(con2.sql(rollup_sql()).df())


def test_tpch_cust_no_orders(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.relational import (
        cust_no_orders_sql,
        tpch_cust_no_orders,
    )

    # gate-scale parity (sf0.001 has no dormant customers — empty there by
    # data, exercised via the planted fixture below instead)
    sf01 = "/root/testdata/sf0.01"
    eng = to_pandas(tpch_cust_no_orders(sf01))
    con = duckdb.connect()
    for t in ("customer", "orders"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf01}/{t}.parquet'")
    ora = con.sql(cust_no_orders_sql()).df()
    assert len(eng) > 0 and len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)

    # planted: u1 rich+dormant (kept), u2 rich+recent order (anti-joined
    # away), u3 poor+dormant (below-average gate), u4 rich, old order only
    # (kept — the date window is what makes it an anti-join, not a NOT IN)
    d = tmp_path / "q22"
    d.mkdir()
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], type=pa.int64()),
        "c_name": pa.array(["a", "b", "c", "d"]),
        "c_nationkey": pa.array([7, 7, 8, 9], type=pa.int32()),
        "c_acctbal": pa.array([900.0, 800.0, 10.0, 700.0]),
        "c_mktsegment": pa.array(["x"] * 4),
    }), d / "customer.parquet")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([10, 11], type=pa.int64()),
        "o_custkey": pa.array([2, 4], type=pa.int64()),
        "o_orderstatus": pa.array(["O", "O"]),
        "o_totalprice": pa.array([1.0, 1.0]),
        "o_orderdate": pa.array([np.datetime64("1998-05-01", "us"),
                                 np.datetime64("1996-01-01", "us")]),
        "o_orderpriority": pa.array(["1", "1"]),
    }), d / "orders.parquet")
    out = to_pandas(tpch_cust_no_orders(str(d))).set_index("nationkey")
    assert 7 in out.index and out.loc[7, "n_cust"] == 1          # u1 only
    assert out.loc[7, "total_bal_cents"] == 90000
    assert 8 not in out.index                                     # u3 below avg
    assert 9 in out.index and out.loc[9, "total_bal_cents"] == 70000  # u4 kept
    con2 = duckdb.connect()
    for t in ("customer", "orders"):
        con2.sql(f"CREATE VIEW {t} AS SELECT * FROM '{d}/{t}.parquet'")
    assert value_hash(out.reset_index()) == value_hash(con2.sql(cust_no_orders_sql()).df())


def test_hash_join_left_outer(ray_session):
    """Unmatched LEFT rows survive with null r_ columns (same many-to-many
    expansion as inner for matched keys); parity vs DuckDB LEFT JOIN."""
    from tools.check_contract import value_hash
    from titan_ray.stages.joins import hash_join

    lds, rds = _join_fixture()
    out = hash_join(lds, rds, on="k", right_cols=("rv", "tag"), num_buckets=8,
                    join_type="left outer").to_pandas()
    out = out.sort_values(["k", "lv", "r_rv"]).reset_index(drop=True)
    # k=1: 2x1, k=2: 1x2, k=3 and k=5 survive padded, k=4 right-only dropped
    assert out["k"].tolist() == [1, 1, 2, 2, 3, 5]
    assert out["r_rv"].tolist()[:4] == [100, 100, 200, 201]
    assert out["r_rv"].isna().tolist() == [False, False, False, False, True, True]
    assert str(out["ts"].dtype).startswith("datetime64")

    con = duckdb.connect()
    con.sql("CREATE TABLE l (k BIGINT, lv BIGINT); INSERT INTO l VALUES (1,10),(1,11),(2,20),(3,30),(5,50)")
    con.sql("CREATE TABLE r (k BIGINT, rv BIGINT, tag VARCHAR); INSERT INTO r VALUES (1,100,'a'),(2,200,'b'),(2,201,'c'),(4,400,'d')")
    ora = con.sql("SELECT l.k, l.lv, r.rv AS r_rv, r.tag AS r_tag FROM l LEFT JOIN r USING (k)").df()
    assert value_hash(out[["k", "lv", "r_rv", "r_tag"]]) == value_hash(ora)

    # empty right side: all left rows pad (the r==0 bucket branch)
    import ray.data as rd
    left = rd.from_arrow(pa.table({"k": pa.array([1, 2], type=pa.int64()),
                                   "lv": pa.array([1, 2], type=pa.int64())}))
    right = rd.from_arrow(pa.table({"k": pa.array([], type=pa.int64()),
                                    "rv": pa.array([], type=pa.int64())}))
    out = hash_join(left, right, on="k", right_cols=("rv",), num_buckets=4,
                    join_type="left outer").to_pandas()
    assert len(out) == 2 and out["r_rv"].isna().all()


def test_events_value_stats(ray_session):
    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import events_value_stats, value_stats_sql

    eng = to_pandas(events_value_stats(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(value_stats_sql()).df()
    assert value_hash(eng) == value_hash(ora)
    # identity: var_micro recomputed from the moments; nonneg by Cauchy-Schwarz
    for r in eng.itertuples():
        assert r.var_micro == (r.n * r.s2 - r.s * r.s) // (r.n * r.n)
        assert r.var_micro >= 0


def test_events_props_extract(ray_session):
    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import events_props_extract, props_extract_sql

    eng = to_pandas(events_props_extract(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(props_extract_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_events_gapfill(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import events_gapfill, gapfill_sql

    # planted: user 1 active at hours {2, 5} -> dense grid 2..5 with zero
    # rows at 3 and 4; user 2 a single hour -> exactly one row
    us = 3_600_000_000
    t = pa.table({
        "event_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "ts": pa.array([2 * us, 2 * us + 7, 5 * us, 9 * us], type=pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2], type=pa.int64()),
        "event_type": pa.array(["x"] * 4),
        "value": pa.array([0.0] * 4),
        "props": pa.array([""] * 4),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_gapfill(str(d))).sort_values(["user_id", "hour"])
    assert list(map(tuple, eng.to_numpy())) == [
        (1, 2, 2), (1, 3, 0), (1, 4, 0), (1, 5, 1), (2, 9, 1),
    ]

    # real corpus: hash-green vs the generate_series twin
    eng = to_pandas(events_gapfill(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(gapfill_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_events_cube(ray_session):
    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import cube_sql, events_cube

    eng = to_pandas(events_cube(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(cube_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)

    # the 8 grouping sets reconcile: every coarser set sums the finest
    cells = eng[(eng["event_type"] != "ALL") & (eng["dow"] >= 0) & (eng["hod"] >= 0)]
    total = eng[(eng["event_type"] == "ALL") & (eng["dow"] == -1) & (eng["hod"] == -1)]
    assert len(total) == 1 and total.iloc[0]["n"] == cells["n"].sum()
    by_dow = eng[(eng["event_type"] == "ALL") & (eng["dow"] >= 0) & (eng["hod"] == -1)]
    assert by_dow["n"].sum() == total.iloc[0]["n"]
    got = cells.groupby("dow")["n"].sum().to_dict()
    assert got == by_dow.set_index("dow")["n"].to_dict()


def test_events_pivot(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import events_pivot, pivot_sql

    # planted: absent (user, type) combos are zero; columns named by value
    t = pa.table({
        "event_id": pa.array([0, 1, 2], type=pa.int64()),
        "ts": pa.array([0, 1, 2], type=pa.timestamp("us")),
        "user_id": pa.array([1, 1, 2], type=pa.int64()),
        "event_type": pa.array(["a", "b", "a"]),
        "value": pa.array([0.0] * 3),
        "props": pa.array([""] * 3),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_pivot(str(d))).sort_values("user_id").reset_index(drop=True)
    assert list(eng.columns) == ["user_id", "a", "b"]
    assert eng.loc[0].tolist() == [1, 1, 1] and eng.loc[1].tolist() == [2, 1, 0]

    # real corpus vs the native PIVOT twin
    eng = to_pandas(events_pivot(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(pivot_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_events_user_profile(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import events_user_profile, user_profile_sql

    # planted: distinct-type count, min/max, and negative-value floor
    t = pa.table({
        "event_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "ts": pa.array([5, 1, 9, 4], type=pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2], type=pa.int64()),
        "event_type": pa.array(["a", "b", "a", "c"]),
        "value": pa.array([1.5, -1.2345, 0.0, 2.0]),
        "props": pa.array([""] * 4),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_user_profile(str(d))).set_index("user_id")
    assert eng.loc[1].tolist() == [3, 2, 1, 9, 1500 + (-1235) + 0]
    assert eng.loc[2].tolist() == [1, 1, 4, 4, 2000]

    # real corpus vs the fused-aggregate twin
    eng = to_pandas(events_user_profile(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(user_profile_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_events_cumsum(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import cumsum_sql, events_cumsum

    # planted: per-user rebase and (ts, event_id) tie-break order
    t = pa.table({
        "event_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
        "ts": pa.array([1, 1, 2, 1, 3], type=pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2, 2], type=pa.int64()),
        "event_type": pa.array(["x"] * 5),
        "value": pa.array([1.0, 2.0, 4.0, 10.0, 0.5]),
        "props": pa.array([""] * 5),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_cumsum(str(d))).set_index("event_id")["cum_milli"]
    assert eng.to_dict() == {0: 1000, 1: 3000, 2: 7000, 3: 10000, 4: 10500}

    # real corpus vs the window twin
    eng = to_pandas(events_cumsum(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(cumsum_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_tpch_top_lineitem(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.relational import top_lineitem_sql, tpch_top_lineitem

    # planted: revenue argmax with a tie broken by the lower line number
    t = pa.table({
        "l_orderkey": pa.array([1, 1, 1, 2, 2], type=pa.int64()),
        "l_partkey": pa.array([0] * 5, type=pa.int64()),
        "l_suppkey": pa.array([0] * 5, type=pa.int64()),
        "l_linenumber": pa.array([1, 2, 3, 1, 2], type=pa.int32()),
        "l_quantity": pa.array([1.0] * 5),
        "l_extendedprice": pa.array([10.0, 20.0, 20.0, 5.0, 5.0]),
        "l_discount": pa.array([0.0, 0.0, 0.0, 0.10, 0.0]),
        "l_tax": pa.array([0.0] * 5),
        "l_returnflag": pa.array(["N"] * 5),
        "l_linestatus": pa.array(["O"] * 5),
        "l_shipdate": pa.array([0] * 5, type=pa.timestamp("us")),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "lineitem.parquet")
    eng = to_pandas(tpch_top_lineitem(str(d))).set_index("l_orderkey")
    assert eng.loc[1, "l_linenumber"] == 2          # tie 20.0/20.0 -> line 2
    assert eng.loc[2, "l_linenumber"] == 2          # 500*100 > 500*90
    assert eng.loc[2, "revenue_1e4"] == 500 * 100

    # real corpus vs the row_number twin
    eng = to_pandas(tpch_top_lineitem(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW lineitem AS SELECT * FROM '{SF}/lineitem.parquet'")
    ora = con.sql(top_lineitem_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_events_out_of_order(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import events_out_of_order, out_of_order_sql

    # planted: arrival order (event_id) disagrees with ts for events 2, 4;
    # lateness measured against the running per-user max, not the previous
    # row (event 4 is 7us behind the high-water mark set by event 1)
    t = pa.table({
        "event_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
        "ts": pa.array([10, 20, 15, 21, 13], type=pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 1, 1], type=pa.int64()),
        "event_type": pa.array(["x"] * 5),
        "value": pa.array([0.0] * 5),
        "props": pa.array([""] * 5),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_out_of_order(str(d))).set_index("event_id")
    assert eng["lateness_us"].to_dict() == {0: 0, 1: 0, 2: 5, 3: 0, 4: 8}
    assert eng["is_late"].to_dict() == {0: False, 1: False, 2: True, 3: False, 4: True}

    # real corpus vs the shifted-window-max twin
    eng = to_pandas(events_out_of_order(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(out_of_order_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_tpch_min_cost_supplier(ray_session, tmp_path):
    """Q2-shape correlated-min decorrelation: ALL tied suppliers emitted,
    duplicates collapsed, SQL parity on the planted table and the corpus."""
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.relational import (
        min_cost_supplier_sql,
        tpch_min_cost_supplier,
    )

    # part 1: suppliers 10 and 20 TIE at the min (both emitted), supplier 30
    # above it (dropped); supplier 10 hits the min twice (collapsed to one
    # row). part 2: single supplier.
    t = pa.table({
        "l_partkey": pa.array([1, 1, 1, 1, 2], type=pa.int64()),
        "l_suppkey": pa.array([10, 20, 30, 10, 40], type=pa.int64()),
        "l_extendedprice": pa.array([5.0, 5.0, 7.5, 5.0, 9.99]),
    })
    d = tmp_path / "q2"
    d.mkdir()
    pq.write_table(t, d / "lineitem.parquet")
    eng = to_pandas(tpch_min_cost_supplier(str(d))).sort_values(
        ["l_partkey", "l_suppkey"]
    ).reset_index(drop=True)
    assert eng.values.tolist() == [[1, 10, 500], [1, 20, 500], [2, 40, 999]]

    eng = to_pandas(tpch_min_cost_supplier(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW lineitem AS SELECT * FROM '{SF}/lineitem.parquet'")
    ora = con.sql(min_cost_supplier_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_events_value_median_refinement(ray_session):
    """Distributed exact selection: SQL parity across quantiles, and the
    adaptive bracket converges through MULTIPLE refinement passes when the
    final-exact threshold is tight (exact_below=8 forces ~log_256 walks)."""
    from tools.check_contract import value_hash
    from titan_ray.pipelines.events import events_value_median, value_median_sql

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    for q in (0.25, 0.5, 0.99):
        eng = events_value_median(SF, q=q)
        ora = con.sql(value_median_sql(q)).df()
        assert value_hash(eng) == value_hash(ora), q
    # tight bracket: same exact answer through many more passes
    tight = events_value_median(SF, q=0.5, exact_below=8)
    wide = events_value_median(SF, q=0.5)
    assert tight.values.tolist() == wide.values.tolist()


def test_events_cooccurrence(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import cooccurrence_sql, events_cooccurrence

    # planted: repeated (user, type) rows collapse to DISTINCT before the
    # pair count; single-type users emit no pairs; pair order is binary
    # string order (type_a < type_b)
    t = pa.table({
        "event_id": pa.array(list(range(8)), type=pa.int64()),
        "ts": pa.array([1] * 8, type=pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 1, 2, 2, 3, 3], type=pa.int64()),
        "event_type": pa.array(
            ["view", "click", "view", "click",     # u1: {click, view} (dups)
             "view", "purchase",                   # u2: {purchase, view}
             "view", "view"]),                     # u3: {view} — no pair
        "value": pa.array([0.0] * 8),
        "props": pa.array([""] * 8),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_cooccurrence(str(d)))
    got = {(r.type_a, r.type_b): r.n_users for r in eng.itertuples()}
    assert got == {("click", "view"): 1, ("purchase", "view"): 1}

    # real corpus vs the self-join twin
    eng = to_pandas(events_cooccurrence(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(cooccurrence_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_events_window_distinct(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import (
        events_window_distinct,
        window_distinct_sql,
    )

    # planted: duplicate timestamps are RANGE peers (both included in each
    # other's frame); the frame drops a type once it ages past W; distinct
    # collapses repeats of the same type inside the frame
    W = 100  # microseconds
    t = pa.table({
        "event_id": pa.array([0, 1, 2, 3, 4, 5], type=pa.int64()),
        "ts": pa.array([0, 0, 50, 200, 250, 250], type=pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 1, 1, 2], type=pa.int64()),
        "event_type": pa.array(["a", "b", "b", "c", "c", "a"]),
        "value": pa.array([0.0] * 6),
        "props": pa.array([""] * 6),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_window_distinct(str(d), window_us=W)) \
        .set_index("event_id")["n_types_win"]
    # e0/e1 at ts=0: peers {a,b} -> 2 each. e2 at 50: {a,b} still in frame
    # -> 2. e3 at 200: frame [100,200] -> only itself {c} -> 1. e4/e5 at
    # 250: u1 frame [150,250] = {c,c} -> 1; u2 has only itself -> 1.
    assert eng.to_dict() == {0: 2, 1: 2, 2: 2, 3: 1, 4: 1, 5: 1}

    # real corpus vs the windowed-DISTINCT twin
    eng = to_pandas(events_window_distinct(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(window_distinct_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_events_top_paths(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import events_top_paths, top_paths_sql

    # planted: ts tie broken by event_id; short-history users keep a short
    # path ('a' != 'a>a>a'); path order is the ORDERED prefix, not a set
    t = pa.table({
        "event_id": pa.array([0, 1, 2, 3, 4, 5, 6, 7], type=pa.int64()),
        "ts": pa.array([5, 5, 10, 99, 1, 2, 3, 1], type=pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 1, 2, 2, 2, 3], type=pa.int64()),
        "event_type": pa.array(["b", "a", "c", "zzz",   # u1: b(id0)>a>c
                                "c", "a", "b",          # u2: c>a>b
                                "a"]),                  # u3: a
        "value": pa.array([0.0] * 8),
        "props": pa.array([""] * 8),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_top_paths(str(d)))
    got = dict(zip(eng["path"], eng["n_users"]))
    assert got == {"b>a>c": 1, "c>a>b": 1, "a": 1}

    # real corpus vs the string_agg twin
    eng = to_pandas(events_top_paths(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(top_paths_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_events_interval_coverage(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import (
        events_interval_coverage,
        interval_coverage_sql,
    )

    # planted: value SECONDS -> exact-us durations; overlapping intervals
    # merge into one run; a zero-duration event is its own (empty) run; a
    # CONTAINED interval adds neither coverage nor a run; negative values
    # clamp to empty
    t = pa.table({
        "event_id": pa.array(list(range(7)), type=pa.int64()),
        "ts": pa.array([0, 50_000, 300_000,      # u1
                        0, 20_000,               # u2
                        0, 10_000], type=pa.timestamp("us")),  # u3
        "user_id": pa.array([1, 1, 1, 2, 2, 3, 3], type=pa.int64()),
        "event_type": pa.array(["x"] * 7),
        "value": pa.array([0.1, 0.1, 0.0,        # u1: [0,100k]+[50k,150k] merge; zero run
                           0.01, 0.01,           # u2: two disjoint 10k runs
                           0.1, -1.0]),          # u3: [0,100k]; negative -> empty run
        "props": pa.array([""] * 7),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_interval_coverage(str(d))).set_index("user_id")
    assert eng.loc[1].to_dict() == {"covered_us": 150_000, "n_runs": 2, "n_events": 3}
    assert eng.loc[2].to_dict() == {"covered_us": 20_000, "n_runs": 2, "n_events": 2}
    assert eng.loc[3].to_dict() == {"covered_us": 100_000, "n_runs": 1, "n_events": 2}

    # real corpus vs the grouped-cummax window twin
    eng = to_pandas(events_interval_coverage(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(interval_coverage_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_simhash_neardup_pairs(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.stages.neardup import simhash_neardup_pairs, simhash_pairs_sql

    # planted: exact duplicates are hamming-0 pairs; a one-char edit of a
    # long text stays within the ball; unrelated texts (~32-bit distance)
    # never pair
    base = "the quick brown fox jumps over the lazy dog " * 12
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array([base, base,
                          base.replace("lazy", "hazy", 1),
                          "completely different content about ray data engines " * 10]),
        "lang": pa.array(["en"] * 4),
        "source": pa.array(["s"] * 4),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "documents.parquet")
    eng = to_pandas(simhash_neardup_pairs(str(d)))
    got = {(r.doc_a, r.doc_b): r.hamming for r in eng.itertuples()}
    assert got[(0, 1)] == 0
    assert (2, 3) not in got and (0, 3) not in got and (1, 3) not in got

    # real corpus vs the UNBLOCKED O(n^2) bit_count self-join (valid oracle
    # because bands > max_hamming makes the engine's blocking exhaustive)
    eng = to_pandas(simhash_neardup_pairs(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.sql(simhash_pairs_sql()).df()
    assert len(eng) == len(ora)
    if len(ora):
        assert value_hash(eng) == value_hash(ora)


def test_tpch_order_priority(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.relational import (
        order_priority_sql,
        tpch_order_priority,
    )

    # planted: o1 in-window with a returned line -> counted; o2 in-window,
    # lines but none returned -> dropped; o3 returned line but outside the
    # window -> dropped; o4 in-window, no lines at all -> dropped
    orders = pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4], type=pa.int64()),
        "o_custkey": pa.array([1, 1, 1, 1], type=pa.int64()),
        "o_orderstatus": pa.array(["O"] * 4),
        "o_totalprice": pa.array([1.0] * 4),
        "o_orderdate": pa.array(
            np.array(["1996-02-01", "1996-03-01", "1995-01-01", "1996-04-01"],
                     dtype="datetime64[us]")),
        "o_orderpriority": pa.array(["1-URGENT", "2-HIGH", "1-URGENT", "5-LOW"]),
    })
    line = pa.table({
        "l_orderkey": pa.array([1, 1, 2, 3], type=pa.int64()),
        "l_partkey": pa.array([0] * 4, type=pa.int64()),
        "l_suppkey": pa.array([0] * 4, type=pa.int64()),
        "l_linenumber": pa.array([1, 2, 1, 1], type=pa.int64()),
        "l_quantity": pa.array([1.0] * 4),
        "l_extendedprice": pa.array([1.0] * 4),
        "l_discount": pa.array([0.0] * 4),
        "l_tax": pa.array([0.0] * 4),
        "l_returnflag": pa.array(["R", "N", "N", "R"]),
        "l_linestatus": pa.array(["O"] * 4),
        "l_shipdate": pa.array(np.array(["1996-02-05"] * 4, dtype="datetime64[us]")),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(orders, d / "orders.parquet")
    pq.write_table(line, d / "lineitem.parquet")
    eng = to_pandas(tpch_order_priority(str(d)))
    assert dict(zip(eng["o_orderpriority"], eng["order_count"])) == {"1-URGENT": 1}

    # real corpus vs the EXISTS twin
    eng = to_pandas(tpch_order_priority(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW orders AS SELECT * FROM '{SF}/orders.parquet'")
    con.sql(f"CREATE VIEW lineitem AS SELECT * FROM '{SF}/lineitem.parquet'")
    ora = con.sql(order_priority_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_events_streaks(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import events_streaks, streaks_sql

    # planted: u1 has runs a,a,a | b | a,a -> max 3 'a'; u2 ties 2-2
    # between 'x' (earlier) and 'y' -> earliest run wins; u3 single event
    t = pa.table({
        "event_id": pa.array(list(range(11)), type=pa.int64()),
        "ts": pa.array([1, 2, 3, 4, 5, 6,          # u1
                        1, 2, 3, 4,                # u2
                        9], type=pa.timestamp("us")),  # u3
        "user_id": pa.array([1] * 6 + [2] * 4 + [3], type=pa.int64()),
        "event_type": pa.array(["a", "a", "a", "b", "a", "a",
                                "x", "x", "y", "y",
                                "z"]),
        "value": pa.array([0.0] * 11),
        "props": pa.array([""] * 11),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_streaks(str(d))).set_index("user_id")
    assert eng.loc[1].to_dict() == {"max_streak": 3, "streak_type": "a"}
    assert eng.loc[2].to_dict() == {"max_streak": 2, "streak_type": "x"}
    assert eng.loc[3].to_dict() == {"max_streak": 1, "streak_type": "z"}

    # real corpus vs the islands twin
    eng = to_pandas(events_streaks(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(streaks_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_tpch_cust_order_dist(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.relational import (
        cust_order_dist_sql,
        tpch_cust_order_dist,
    )

    # planted: c1 has 2 orders, c2 has 1, c3 has 0 (LEFT semantics keep it)
    cust = pa.table({"c_custkey": pa.array([1, 2, 3], type=pa.int64())})
    orders = pa.table({
        "o_orderkey": pa.array([10, 11, 12], type=pa.int64()),
        "o_custkey": pa.array([1, 1, 2], type=pa.int64()),
        "o_orderstatus": pa.array(["O"] * 3),
        "o_totalprice": pa.array([1.0] * 3),
        "o_orderdate": pa.array(np.array(["1996-02-01"] * 3, dtype="datetime64[us]")),
        "o_orderpriority": pa.array(["1-URGENT"] * 3),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(cust, d / "customer.parquet")
    pq.write_table(orders, d / "orders.parquet")
    eng = to_pandas(tpch_cust_order_dist(str(d)))
    assert dict(zip(eng["c_count"], eng["custdist"])) == {0: 1, 1: 1, 2: 1}

    # real corpus vs the Q13 LEFT-join twin
    eng = to_pandas(tpch_cust_order_dist(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW customer AS SELECT * FROM '{SF}/customer.parquet'")
    con.sql(f"CREATE VIEW orders AS SELECT * FROM '{SF}/orders.parquet'")
    ora = con.sql(cust_order_dist_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_tpch_small_qty_revenue(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.relational import (
        small_qty_revenue_sql,
        tpch_small_qty_revenue,
    )

    # planted: part 1 has qty {1, 10, 10} -> avg 7, 0.2*avg = 1.4: the
    # qty-1 line (price 5.00) passes; part 2 has one line (qty == avg,
    # never < 0.2*avg) -> dropped
    line = pa.table({
        "l_orderkey": pa.array([1, 1, 2, 3], type=pa.int64()),
        "l_partkey": pa.array([1, 1, 1, 2], type=pa.int64()),
        "l_suppkey": pa.array([0] * 4, type=pa.int64()),
        "l_linenumber": pa.array([1, 2, 1, 1], type=pa.int64()),
        "l_quantity": pa.array([1.0, 10.0, 10.0, 4.0]),
        "l_extendedprice": pa.array([5.0, 100.0, 100.0, 40.0]),
        "l_discount": pa.array([0.0] * 4),
        "l_tax": pa.array([0.0] * 4),
        "l_returnflag": pa.array(["N"] * 4),
        "l_linestatus": pa.array(["O"] * 4),
        "l_shipdate": pa.array(np.array(["1996-02-05"] * 4, dtype="datetime64[us]")),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(line, d / "lineitem.parquet")
    eng = to_pandas(tpch_small_qty_revenue(str(d)))
    assert eng.iloc[0].to_dict() == {"revenue_cents": 500, "n_lines": 1}

    # real corpus vs the decorrelated-AVG twin
    eng = to_pandas(tpch_small_qty_revenue(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW lineitem AS SELECT * FROM '{SF}/lineitem.parquet'")
    ora = con.sql(small_qty_revenue_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)


def test_tpch_small_qty_revenue_paths_identical(ray_session):
    """Broadcast and co-partition paths agree bit-for-bit (lowered cap
    forces the fallback)."""
    from tools.check_contract import to_pandas
    from titan_ray.pipelines.relational import tpch_small_qty_revenue

    a = to_pandas(tpch_small_qty_revenue(SF))
    b = to_pandas(tpch_small_qty_revenue(SF, max_broadcast_parts=1))
    assert a.iloc[0].to_dict() == b.iloc[0].to_dict()


def test_events_value_quartiles(ray_session):
    """Shared-scan multi-target selection: per-group p25/p50/p75/p95 match
    DuckDB quantile_disc, and a tiny num_bins forces multiple shared
    refinement passes without changing the exact answers."""
    from tools.check_contract import value_hash
    from titan_ray.pipelines.events import (
        events_value_quartiles,
        value_quartiles_sql,
    )

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    eng = events_value_quartiles(SF)
    ora = con.sql(value_quartiles_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)
    # tiny bins -> many passes, same exact result (allow the deeper walk)
    tight = events_value_quartiles(SF, num_bins=4, max_passes=32)
    assert tight.reset_index(drop=True).values.tolist() == \
        eng.reset_index(drop=True).values.tolist()


def test_events_value_mad(ray_session):
    """Dependent selection: exact MAD matches the DuckDB quantile_disc
    pair, including the driver-held scalar handoff between stages."""
    from tools.check_contract import value_hash
    from titan_ray.pipelines.events import events_value_mad, value_mad_sql

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    eng = events_value_mad(SF)
    ora = con.sql(value_mad_sql()).df()
    assert value_hash(eng) == value_hash(ora)
    # MAD is a genuine second stage: it differs from the plain median
    row = eng.iloc[0]
    assert row["mad_vm"] != row["median_vm"]


def test_events_cusum_alarms(ray_session, tmp_path):
    """CUSUM recurrence: planted drift run matches the direct max-clipped
    recursion (linearization correctness), then SQL parity on the corpus."""
    import pyarrow.parquet as pq

    from tools.check_contract import to_pandas, value_hash
    from titan_ray.pipelines.events import cusum_sql, events_cusum_alarms

    # planted: k=1.0, h=2.5 — direct recurrence gives S =
    # [0, 2000, 4000, 3200, 2400, 5400] (the max(0,·) clip binds at t=1)
    t = pa.table({
        "event_id": pa.array([0, 1, 2, 3, 4, 5], type=pa.int64()),
        "ts": pa.array([10, 20, 30, 40, 50, 60], type=pa.timestamp("us")),
        "user_id": pa.array([1] * 6, type=pa.int64()),
        "event_type": pa.array(["x"] * 6),
        "value": pa.array([0.5, 3.0, 3.0, 0.2, 0.2, 4.0]),
        "props": pa.array([""] * 6),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    eng = to_pandas(events_cusum_alarms(str(d), k_milli=1000, h_milli=2500)).set_index("event_id")
    assert eng["s_milli"].to_dict() == {0: 0, 1: 2000, 2: 4000, 3: 3200, 4: 2400, 5: 5400}
    assert eng["is_alarm"].to_dict() == {0: False, 1: False, 2: True, 3: True, 4: False, 5: True}

    # real corpus vs the stacked-window twin (default k/h)
    eng = to_pandas(events_cusum_alarms(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    ora = con.sql(cusum_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)
    # the clip and the alarm must both actually bind on the corpus
    assert (eng["s_milli"] == 0).any() and eng["is_alarm"].any()


def test_tpch_topn_lineitems(ray_session, tmp_path):
    """Grouped top-N: planted 4-line order keeps exactly 3 ranked lines
    (tie broken to the lower line number); SQL parity on the corpus."""
    import pyarrow.parquet as pq

    from titan_ray.pipelines.relational import topn_lineitems_sql, tpch_topn_lineitems
    from tools.check_contract import to_pandas, value_hash

    t = pa.table({
        "l_orderkey": pa.array([1, 1, 1, 1, 2], type=pa.int64()),
        "l_linenumber": pa.array([1, 2, 3, 4, 1], type=pa.int32()),
        "l_extendedprice": pa.array([10.0, 40.0, 40.0, 20.0, 7.0]),
        "l_discount": pa.array([0.0, 0.0, 0.0, 0.0, 0.0]),
        "l_quantity": pa.array([1.0] * 5),
        "l_returnflag": pa.array(["N"] * 5),
        "l_linestatus": pa.array(["O"] * 5),
        "l_shipdate": pa.array([0] * 5, type=pa.timestamp("us")),
        "l_partkey": pa.array([1] * 5, type=pa.int64()),
        "l_suppkey": pa.array([1] * 5, type=pa.int64()),
        "l_tax": pa.array([0.0] * 5),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "lineitem.parquet")
    eng = to_pandas(tpch_topn_lineitems(str(d))).sort_values(
        ["l_orderkey", "rn"]).reset_index(drop=True)
    assert eng[["l_orderkey", "rn", "l_linenumber"]].values.tolist() == [
        [1, 1, 2], [1, 2, 3], [1, 3, 4], [2, 1, 1]]

    eng = to_pandas(tpch_topn_lineitems(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW lineitem AS SELECT * FROM '{SF}/lineitem.parquet'")
    ora = con.sql(topn_lineitems_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora)
    # n > 1 actually binds: some order contributes a rank-3 row
    assert (eng["rn"] == 3).any()


def test_tpch_part_revenue_share(ray_session, tmp_path):
    """Share-of-total HAVING: planted table where one part holds >1/2 of
    revenue survives a denom=2 gate and the others don't; SQL parity."""
    import pyarrow.parquet as pq

    from titan_ray.pipelines.relational import (
        part_revenue_share_sql, tpch_part_revenue_share)
    from tools.check_contract import to_pandas, value_hash

    t = pa.table({
        "l_orderkey": pa.array([1, 2, 3, 4], type=pa.int64()),
        "l_partkey": pa.array([7, 7, 8, 9], type=pa.int64()),
        "l_suppkey": pa.array([1] * 4, type=pa.int64()),
        "l_linenumber": pa.array([1] * 4, type=pa.int32()),
        "l_quantity": pa.array([1.0] * 4),
        "l_extendedprice": pa.array([60.0, 10.0, 20.0, 10.0]),
        "l_discount": pa.array([0.0] * 4),
        "l_tax": pa.array([0.0] * 4),
        "l_returnflag": pa.array(["N"] * 4),
        "l_linestatus": pa.array(["O"] * 4),
        "l_shipdate": pa.array([0] * 4, type=pa.timestamp("us")),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "lineitem.parquet")
    eng = to_pandas(tpch_part_revenue_share(str(d), denom=2))
    assert eng["l_partkey"].tolist() == [7]     # 70 of 100 total

    eng = to_pandas(tpch_part_revenue_share(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW lineitem AS SELECT * FROM '{SF}/lineitem.parquet'")
    ora = con.sql(part_revenue_share_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)
    # at a threshold above the mean share (1/n_parts) the gate must bind
    # both ways: some parts excluded, some kept
    n_parts = con.sql("SELECT count(DISTINCT l_partkey) FROM lineitem").fetchone()[0]
    tight = to_pandas(tpch_part_revenue_share(SF, denom=n_parts - 1))
    assert 0 < len(tight) < n_parts
    ora_t = con.sql(part_revenue_share_sql(denom=n_parts - 1)).df()
    assert value_hash(tight) == value_hash(ora_t)


def test_tpch_sole_returner(ray_session, tmp_path):
    """Q21 machine: planted orders — sole returner in a multi-supplier
    order counts; solo-supplier orders and shared-blame orders don't."""
    import pyarrow.parquet as pq

    from titan_ray.pipelines.relational import (
        sole_returner_sql, tpch_sole_returner)
    from tools.check_contract import to_pandas, value_hash

    # order 1: supp 1 returns, supp 2 doesn't   -> supp 1 counts
    # order 2: supp 1 returns, no other supplier -> no count (EXISTS fails)
    # order 3: supp 1 and supp 2 both return     -> no count (NOT EXISTS fails)
    ok = [1, 1, 2, 3, 3]
    sk = [1, 2, 1, 1, 2]
    rf = ["R", "N", "R", "R", "R"]
    t = pa.table({
        "l_orderkey": pa.array(ok, type=pa.int64()),
        "l_partkey": pa.array([1] * 5, type=pa.int64()),
        "l_suppkey": pa.array(sk, type=pa.int64()),
        "l_linenumber": pa.array([1, 2, 1, 1, 2], type=pa.int32()),
        "l_quantity": pa.array([1.0] * 5),
        "l_extendedprice": pa.array([1.0] * 5),
        "l_discount": pa.array([0.0] * 5),
        "l_tax": pa.array([0.0] * 5),
        "l_returnflag": pa.array(rf),
        "l_linestatus": pa.array(["O"] * 5),
        "l_shipdate": pa.array([0] * 5, type=pa.timestamp("us")),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "lineitem.parquet")
    eng = to_pandas(tpch_sole_returner(str(d)))
    assert eng[["suppkey", "n_orders"]].values.tolist() == [[1, 1]]

    eng = to_pandas(tpch_sole_returner(SF))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW lineitem AS SELECT * FROM '{SF}/lineitem.parquet'")
    ora = con.sql(sole_returner_sql()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)


def test_tpch_fk_audit(ray_session, tmp_path):
    """FK audit: planted orphans are counted by rows AND distinct keys;
    the clean corpus returns all zeros; SQL parity on both."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from titan_ray.pipelines.relational import FK_EDGES, fk_audit_sql, tpch_fk_audit
    from tools.check_contract import to_pandas, value_hash

    # planted mini-schema: lineitem rows 2+1 pointing at two missing orders,
    # one order pointing at a missing customer; everything else intact
    d = tmp_path / "sf"
    d.mkdir()
    src = "/root/testdata/sf0.001"
    for t in ("part", "supplier", "customer", "nation", "region"):
        pq.write_table(pq.read_table(f"{src}/{t}.parquet"), d / f"{t}.parquet")
    orders = pq.read_table(f"{src}/orders.parquet")
    li = pq.read_table(f"{src}/lineitem.parquet")
    # corrupt: 3 lineitem rows -> orderkeys -1 (x2) and -2; 1 order -> custkey -7
    ok = li["l_orderkey"].to_numpy(zero_copy_only=False).copy()
    ok[0] = ok[1] = -1
    ok[2] = -2
    li = li.set_column(li.column_names.index("l_orderkey"), "l_orderkey",
                       pa.array(ok, type=pa.int64()))
    ck = orders["o_custkey"].to_numpy(zero_copy_only=False).copy()
    ck[0] = -7
    orders = orders.set_column(orders.column_names.index("o_custkey"), "o_custkey",
                               pa.array(ck, type=pa.int64()))
    pq.write_table(li, d / "lineitem.parquet")
    pq.write_table(orders, d / "orders.parquet")

    eng = to_pandas(tpch_fk_audit(str(d))).set_index("fk")
    assert eng.loc["lineitem.l_orderkey->orders.o_orderkey", "n_orphan_rows"] == 3
    assert eng.loc["lineitem.l_orderkey->orders.o_orderkey", "n_orphan_keys"] == 2
    assert eng.loc["orders.o_custkey->customer.c_custkey", "n_orphan_rows"] == 1
    assert eng.loc["customer.c_nationkey->nation.n_nationkey", "n_orphan_rows"] == 0
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "supplier", "part", "nation", "region"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{d}/{t}.parquet'")
    ora = con.sql(fk_audit_sql()).df()
    assert value_hash(eng.reset_index()) == value_hash(ora)
    con.close()

    eng = to_pandas(tpch_fk_audit(src))
    assert (eng["n_orphan_rows"] == 0).all()   # the generated schema is clean
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "supplier", "part", "nation", "region"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{src}/{t}.parquet'")
    ora = con.sql(fk_audit_sql()).df()
    assert len(eng) == len(FK_EDGES) == len(ora)
    assert value_hash(eng) == value_hash(ora)


@pytest.mark.parametrize("name", ["tpch_top_lineitem", "tpch_min_cost_supplier",
                                  "tpch_topn_lineitems"])
def test_bucket_count_need_not_be_a_power_of_two(ray_session, name):
    """These operators bucket with ``%``, so 48 buckets give the same rows
    as 64."""
    from titan_ray.pipelines import relational
    from tools.check_contract import to_pandas, value_hash

    op = getattr(relational, name)
    a, b = (to_pandas(op(SF, num_buckets=n)) for n in (48, 64))
    assert len(a) == len(b) > 0
    assert value_hash(a) == value_hash(b)
