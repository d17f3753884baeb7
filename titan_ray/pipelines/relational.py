"""Relational/analytical queries over the TPC-H-ish tables — the general
query surface of the engine (big-table aggregate, big x big equi-join, small
-side broadcast), expressed Ray-Data-first with EXACT integer money math.

Money is carried as integers (cents, and cents x discount-percent = 1e-4
dollar units) so distributed partial sums are associative and match DuckDB
bit-for-bit regardless of summation order (same float-determinism strategy
as pipelines/events.py; SURVEY.md §4).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..exchange import bucket_exchange, sum_merge
from ..sources.reader import read_parquet_clean
from ..stages.ann import round_half_away

PRICING_CUTOFF = "2000-12-01"      # l_shipdate <= cutoff (TPC-H Q1 shape)
REVENUE_YEAR = 1997                # o_orderdate year filter (Q5 shape)


def _cents(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Exact integer cents from a double price column: round-half-away of
    x*100 — the same double op DuckDB's round(x*100) performs."""
    x = arr.to_numpy(zero_copy_only=False)
    return round_half_away(x * 100.0, 0).astype(np.int64)


def _disc_1e4(batch: pa.Table) -> np.ndarray:
    """Discounted price in 1e-4 dollar units: cents * (100 - disc_pct),
    integer all the way (disc_pct = round(l_discount*100))."""
    cents = _cents(batch["l_extendedprice"])
    pct = round_half_away(
        batch["l_discount"].to_numpy(zero_copy_only=False) * 100.0, 0
    ).astype(np.int64)
    return cents * (100 - pct)


def tpch_pricing(sf_dir: str):
    """Pricing summary (TPC-H Q1 analog): per (returnflag, linestatus) exact
    integer sums over the filtered lineitem. The canonical big-aggregate
    shape: per-batch pandas partials (a handful of groups) -> a tiny groupby
    shuffle of group-count x batch-count rows, never the data."""
    from ray.data.aggregate import Sum

    ds = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_shipdate"],
    )
    cutoff = np.datetime64(PRICING_CUTOFF, "us")

    def partial(batch: pa.Table) -> pa.Table:
        keep = batch["l_shipdate"].to_numpy(zero_copy_only=False) <= cutoff
        batch = batch.filter(pa.array(keep))
        qty = round_half_away(
            batch["l_quantity"].to_numpy(zero_copy_only=False), 0
        ).astype(np.int64)
        g = pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"].to_pandas(),
                "l_linestatus": batch["l_linestatus"].to_pandas(),
                "sum_qty": qty,
                "sum_base_cents": _cents(batch["l_extendedprice"]),
                "sum_disc_1e4": _disc_1e4(batch),
                "n_rows": np.ones(batch.num_rows, dtype=np.int64),
            }
        )
        out = g.groupby(["l_returnflag", "l_linestatus"], sort=False, as_index=False).sum()
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_base_cents", alias_name="sum_base_cents"),
            Sum("sum_disc_1e4", alias_name="sum_disc_1e4"),
            Sum("n_rows", alias_name="n_rows"),
        )
    )
    return agg


def pricing_sql() -> str:
    return (
        "SELECT l_returnflag, l_linestatus, "
        "CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty, "
        "CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_base_cents, "
        "CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT) "
        "    * (100 - CAST(round(l_discount*100) AS BIGINT))) AS BIGINT) AS sum_disc_1e4, "
        "count(*) AS n_rows "
        f"FROM lineitem WHERE l_shipdate <= TIMESTAMP '{PRICING_CUTOFF}' "
        "GROUP BY l_returnflag, l_linestatus"
    )


def tpch_revenue_by_nation(sf_dir: str, year: int = REVENUE_YEAR):
    """Revenue per nation (TPC-H Q5 shape): lineitem JOIN orders AND the
    customer join are both big x big exchanges -> stages.joins.hash_join
    (each side crosses the wire once). Customer is NOT a broadcastable star
    dimension — it grows linearly with the fact tables (round-3 verdict
    item 2) — so only the 25-row nation table is read driver-side and
    broadcast. The custkey side of the second join is pre-aggregated
    per batch (custkey partial revenue sums), so the second shuffle moves
    at most one row per (batch, distinct custkey), not one per lineitem."""
    from ..stages.joins import hash_join

    line = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def line_prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"okey": batch["l_orderkey"], "disc_1e4": pa.array(_disc_1e4(batch))}
        )

    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def orders_prep(batch: pa.Table) -> pa.Table:
        yr = pc.year(batch["o_orderdate"]).to_numpy(zero_copy_only=False)
        batch = batch.filter(pa.array(yr == year))
        return pa.table({"okey": batch["o_orderkey"], "o_custkey": batch["o_custkey"]})

    joined = hash_join(
        line.map_batches(line_prep, batch_format="pyarrow"),
        orders.map_batches(orders_prep, batch_format="pyarrow"),
        on="okey",
        right_cols=("o_custkey",),
    )

    # per-batch partial revenue per custkey: shrinks the second join's
    # left side to (ckey, partial sum) rows before it crosses the wire
    def per_cust_partial(batch: pa.Table) -> pa.Table:
        g = pd.DataFrame(
            {
                "ckey": batch["r_o_custkey"].to_numpy(zero_copy_only=False),
                "revenue_1e4": batch["disc_1e4"].to_numpy(zero_copy_only=False),
            }
        ).groupby("ckey", sort=False, as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    rev_by_cust = joined.map_batches(per_cust_partial, batch_format="pyarrow")

    # ONLY nation (25 rows, constant cardinality) is read driver-side and
    # folded into the streaming customer read as a nationkey -> name LUT
    import pyarrow.parquet as pq

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas().sort_values("n_nationkey")
    nkeys, nnames = nation["n_nationkey"].to_numpy(), nation["n_name"].to_numpy()

    cust = read_parquet_clean(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )

    def cust_prep(batch: pa.Table) -> pa.Table:
        nk = batch["c_nationkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "ckey": batch["c_custkey"],
                "n_name": pa.array(nnames[np.searchsorted(nkeys, nk)]),
            }
        )

    with_nation = hash_join(
        rev_by_cust,
        cust.map_batches(cust_prep, batch_format="pyarrow"),
        on="ckey",
        right_cols=("n_name",),
    )

    from ray.data.aggregate import Sum

    agg = (
        with_nation.map_batches(
            lambda b: pa.table({"n_name": b["r_n_name"], "revenue_1e4": b["revenue_1e4"]}),
            batch_format="pyarrow",
        )
        .groupby("n_name")
        .aggregate(Sum("revenue_1e4", alias_name="revenue_1e4"))
    )
    return agg


def revenue_sql(year: int = REVENUE_YEAR) -> str:
    return (
        "SELECT n_name, "
        "CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT) "
        "    * (100 - CAST(round(l_discount*100) AS BIGINT))) AS BIGINT) AS revenue_1e4 "
        "FROM lineitem "
        "JOIN orders ON l_orderkey = o_orderkey "
        "JOIN customer ON o_custkey = c_custkey "
        "JOIN nation ON c_nationkey = n_nationkey "
        f"WHERE year(o_orderdate) = {year} "
        "GROUP BY n_name"
    )


# ---------------------------------------------------------------------------
# TPC-H Q3 shape: segment-filtered 3-table join + top-k
# ---------------------------------------------------------------------------

Q3_SEGMENT = "BUILDING"
Q3_DATE = "1998-06-15"
Q3_TOP_K = 10


def tpch_shipping_topk(sf_dir: str, segment: str = Q3_SEGMENT,
                       date: str = Q3_DATE, k: int = Q3_TOP_K):
    """Top-k unshipped orders by revenue (TPC-H Q3 shape): customer
    (segment filter) JOIN orders (date filter) JOIN lineitem (date filter),
    grouped by (orderkey, orderdate), exact integer money, ties broken by
    orderkey. Three-table plan: BOTH joins are big x big hash_join
    exchanges (customer scales with the facts — never broadcast); lineitem
    pre-aggregates revenue per orderkey per batch BEFORE its join, so the
    widest exchange moves (okey, partial) pairs, not line items; the final
    aggregate is order-cardinality and the driver sees k rows."""
    from ray.data.aggregate import Sum

    from ..stages.joins import hash_join

    d64 = np.datetime64(date, "us")

    cust = read_parquet_clean(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )

    def cust_prep(batch: pa.Table) -> pa.Table:
        seg = batch["c_mktsegment"]
        b = batch.filter(pc.equal(seg, segment))
        return pa.table({"ckey": b["c_custkey"],
                         "one": pa.array(np.ones(b.num_rows, dtype=np.int8))})

    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def orders_prep(batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False)
        b = batch.filter(pa.array(od < d64))
        odc = b["o_orderdate"]
        if isinstance(odc, pa.ChunkedArray):
            odc = odc.combine_chunks()
        return pa.table({"ckey": b["o_custkey"], "okey": b["o_orderkey"],
                         "odate_us": odc.cast(pa.int64())})

    # join 1: orders x segment customers (semi-join via inner hash_join)
    seg_orders = hash_join(
        orders.map_batches(orders_prep, batch_format="pyarrow"),
        cust.map_batches(cust_prep, batch_format="pyarrow"),
        on="ckey",
        right_cols=("one",),
    ).map_batches(
        lambda b: pa.table({"okey": b["okey"], "odate_us": b["odate_us"]}),
        batch_format="pyarrow",
    )

    line = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def line_prep(batch: pa.Table) -> pa.Table:
        sd = batch["l_shipdate"].to_numpy(zero_copy_only=False)
        b = batch.filter(pa.array(sd > d64))
        g = pd.DataFrame(
            {"okey": b["l_orderkey"].to_numpy(zero_copy_only=False),
             "revenue_1e4": _disc_1e4(b)}
        ).groupby("okey", sort=False, as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    # join 2: per-order revenue partials x qualifying orders
    joined = hash_join(
        line.map_batches(line_prep, batch_format="pyarrow"),
        seg_orders,
        on="okey",
        right_cols=("odate_us",),
    )

    agg = (
        joined.map_batches(
            lambda b: pa.table({"okey": b["okey"], "odate_us": b["r_odate_us"],
                                "revenue_1e4": b["revenue_1e4"]}),
            batch_format="pyarrow",
        )
        .groupby(["okey", "odate_us"])
        .aggregate(Sum("revenue_1e4", alias_name="revenue_1e4"))
        .sort(["revenue_1e4", "okey"], descending=[True, False])
        .limit(k)
    )
    return agg


def shipping_topk_sql(segment: str = Q3_SEGMENT, date: str = Q3_DATE,
                      k: int = Q3_TOP_K) -> str:
    return (
        "SELECT l_orderkey AS okey, "
        "CAST(epoch_us(o_orderdate) AS BIGINT) AS odate_us, "
        "CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT) "
        "    * (100 - CAST(round(l_discount*100) AS BIGINT))) AS BIGINT) AS revenue_1e4 "
        "FROM customer JOIN orders ON c_custkey = o_custkey "
        "JOIN lineitem ON l_orderkey = o_orderkey "
        f"WHERE c_mktsegment = '{segment}' "
        f"AND o_orderdate < TIMESTAMP '{date}' "
        f"AND l_shipdate > TIMESTAMP '{date}' "
        "GROUP BY 1, 2 "
        f"ORDER BY revenue_1e4 DESC, okey LIMIT {k}"
    )


# ---------------------------------------------------------------------------
# Q22 shape: ANTI-join (customers with no orders)
# ---------------------------------------------------------------------------

DORMANT_SINCE = "1998-01-01"       # anti-side date window (dormancy cutoff)


def tpch_cust_no_orders(sf_dir: str, since: str = DORMANT_SINCE,
                        num_buckets: int = 64):
    """Dormant-high-value-customer query (TPC-H Q22 anti-join shape): per
    nation, the count and total balance of customers whose balance is
    ABOVE the average positive balance AND who have placed NO orders since
    ``since`` — the canonical ANTI-join the inner hash_join family doesn't
    cover (reference analog: the blacklist membership drop is the same
    not-in-set shape, read_data_to_check.r:94-119). Money is exact integer
    cents; the above-average gate is the integer cross-multiply
    bal * n > sum (no float division).

    Scale shape: pass 1 reduces customers to ONE (sum, count) row via
    per-batch partials (driver holds two ints); pass 2 tags candidate
    customers (narrow payload: custkey, nationkey, bal) and per-batch
    DISTINCT order custkeys, co-partitions both by custkey % B, and each
    bucket drops customers present on the order side with one sorted
    np.isin — the anti-join never leaves the bucket. The final per-nation
    rollup sums B x |nations| partial rows, never the data."""
    cutoff = np.datetime64(since, "us")
    cust = read_parquet_clean(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_acctbal"],
    )

    def bal_partial(batch: pa.Table) -> pa.Table:
        bal = _cents(batch["c_acctbal"])
        m = bal > 0
        return pa.table({"s": pa.array([int(bal[m].sum())]), "n": pa.array([int(m.sum())])})

    parts = cust.map_batches(bal_partial, batch_format="pyarrow").to_pandas()
    s_tot, n_tot = int(parts["s"].sum()), int(parts["n"].sum())

    def cust_side(batch: pa.Table) -> pa.Table:
        nk = batch["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        bal = _cents(batch["c_acctbal"])
        # above-average gate, exact integers: bal/1 > s/n  <=>  bal*n > s
        m = bal * n_tot > s_tot
        ck = batch["c_custkey"].to_numpy(zero_copy_only=False)[m]
        return pa.table(
            {
                "custkey": pa.array(ck),
                "side": pa.array(np.zeros(len(ck), dtype=np.int8)),
                "nationkey": pa.array(nk[m]),
                "bal": pa.array(bal[m]),
                "_b": pa.array((ck % num_buckets).astype(np.int32)),
            }
        )

    def order_side(batch: pa.Table) -> pa.Table:
        recent = batch["o_orderdate"].to_numpy(zero_copy_only=False) >= cutoff
        ck = np.unique(batch["o_custkey"].to_numpy(zero_copy_only=False)[recent])
        return pa.table(
            {
                "custkey": pa.array(ck),
                "side": pa.array(np.ones(len(ck), dtype=np.int8)),
                "nationkey": pa.array(np.zeros(len(ck), dtype=np.int64)),
                "bal": pa.array(np.zeros(len(ck), dtype=np.int64)),
                "_b": pa.array((ck % num_buckets).astype(np.int32)),
            }
        )

    orders = read_parquet_clean(f"{sf_dir}/orders.parquet",
                                columns=["o_custkey", "o_orderdate"])
    both = cust.map_batches(cust_side, batch_format="pyarrow").union(
        orders.map_batches(order_side, batch_format="pyarrow")
    )

    def anti(t: pa.Table) -> pa.Table:
        side = t["side"].to_numpy(zero_copy_only=False)
        ck = t["custkey"].to_numpy(zero_copy_only=False)
        have = np.unique(ck[side == 1])
        keep = (side == 0) & ~np.isin(ck, have)
        nk = t["nationkey"].to_numpy(zero_copy_only=False)[keep]
        bal = t["bal"].to_numpy(zero_copy_only=False)[keep]
        u, inv = np.unique(nk, return_inverse=True)
        return pa.table(
            {
                "nationkey": pa.array(u),
                "n_cust": pa.array(np.bincount(inv).astype(np.int64)),
                "total_bal_cents": pa.array(np.bincount(inv, weights=bal).astype(np.int64)),
            }
        )

    parts = (
        bucket_exchange(both, "_b", anti)
        .to_pandas()   # <= num_buckets x |nations| partial rows
    )
    if parts.empty:   # all buckets empty -> Ray yields a column-less frame
        return pd.DataFrame({"nationkey": pd.Series(dtype=np.int64),
                             "n_cust": pd.Series(dtype=np.int64),
                             "total_bal_cents": pd.Series(dtype=np.int64)})
    out = parts.groupby("nationkey", as_index=False)[["n_cust", "total_bal_cents"]].sum()
    out["n_cust"] = out["n_cust"].astype(np.int64)
    out["total_bal_cents"] = out["total_bal_cents"].astype(np.int64)
    return out.sort_values("nationkey").reset_index(drop=True)


def cust_no_orders_sql(since: str = DORMANT_SINCE) -> str:
    """DuckDB replay of tpch_cust_no_orders (NOT EXISTS anti-join over the
    date window, integer cross-multiplied above-average gate)."""
    return (
        "WITH c AS (SELECT c_custkey, CAST(c_nationkey AS BIGINT) AS nationkey, "
        "CAST(round(c_acctbal * 100) AS BIGINT) AS bal FROM customer), "
        "agg AS (SELECT sum(bal) AS s, count(*) AS n FROM c WHERE bal > 0), "
        "cand AS (SELECT c.* FROM c, agg WHERE c.bal * agg.n > agg.s) "
        "SELECT nationkey, CAST(count(*) AS BIGINT) AS n_cust, "
        "CAST(sum(bal) AS BIGINT) AS total_bal_cents FROM cand "
        "WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = cand.c_custkey "
        f"AND o.o_orderdate >= DATE '{since}') "
        "GROUP BY nationkey ORDER BY nationkey"
    )


# ---------------------------------------------------------------------------
# Argmax row per group (top-1 line per order)
# ---------------------------------------------------------------------------

def tpch_top_lineitem(sf_dir: str, num_buckets: int = 64):
    """(l_orderkey, l_linenumber, revenue_1e4): the single highest-revenue
    line of every order (revenue = exact integer cents x (100 - disc_pct);
    ties break to the lowest line number) — the ARGMAX-ROW-PER-GROUP shape
    (row_number() = 1), which plain aggregates can't express because the
    winner's OTHER columns must ride along with the max.

    Scale shape: argmax is associative, so each batch keeps only its local
    winner per order (one lexsort + first-per-group), the ONE orderkey-
    bucket exchange moves winners not lineitems, and the per-bucket rerun
    of the same kernel is final. The deterministic tie-break makes the
    result partition-invariant and the window twin hash-matches."""
    from ..sources.reader import read_parquet_clean

    ds = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount"],
    )

    def _winners(ok: np.ndarray, ln: np.ndarray, rev: np.ndarray) -> tuple:
        order = np.lexsort((ln, -rev, ok))
        ok_s = ok[order]
        first = np.r_[True, ok_s[1:] != ok_s[:-1]]
        keep = order[first]
        return ok[keep], ln[keep], rev[keep]

    def partial(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        ln = batch["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        rev = _disc_1e4(batch)
        ok, ln, rev = _winners(ok, ln, rev)
        return pa.table(
            {
                "l_orderkey": pa.array(ok),
                "l_linenumber": pa.array(ln),
                "revenue_1e4": pa.array(rev),
                "_b": pa.array((ok % num_buckets).astype(np.int32)),
            }
        )

    def per_bucket(t: pa.Table) -> pa.Table:
        ok, ln, rev = _winners(
            t["l_orderkey"].to_numpy(zero_copy_only=False),
            t["l_linenumber"].to_numpy(zero_copy_only=False),
            t["revenue_1e4"].to_numpy(zero_copy_only=False),
        )
        return pa.table(
            {
                "l_orderkey": pa.array(ok),
                "l_linenumber": pa.array(ln),
                "revenue_1e4": pa.array(rev),
            }
        )

    return (
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "_b", per_bucket)
    )


def top_lineitem_sql() -> str:
    """DuckDB replay of tpch_top_lineitem (row_number window, same exact
    integer revenue)."""
    return (
        "WITH l AS (SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber, "
        "CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev FROM lineitem), "
        "r AS (SELECT *, row_number() OVER (PARTITION BY l_orderkey "
        "ORDER BY rev DESC, l_linenumber) AS rn FROM l) "
        "SELECT l_orderkey, l_linenumber, rev AS revenue_1e4 FROM r WHERE rn = 1"
    )


def tpch_min_cost_supplier(sf_dir: str, num_buckets: int = 64):
    """(l_partkey, l_suppkey, min_price_cents): every supplier selling a
    part at that part's corpus-wide MINIMUM price — the TPC-H Q2 shape
    (correlated scalar min subquery), decorrelated: aggregate once, join
    the detail stream back against its own aggregate, emit ALL tied rows
    (unlike tpch_top_lineitem's argmax, which elects exactly one winner).

    Scale shape: exactly TWO narrow exchanges and no generic join. Pass 1
    elects per-part global mins via per-batch min partials + one
    partkey-bucket exchange. Pass 2 re-buckets per-batch-DISTINCT
    (part, supplier, local_min_cents) triples on the same key and unions
    them with the mins, so one co-partition groupby puts a part's mins row
    and all its candidate suppliers in the same group; the per-bucket
    filter + distinct is final — lineitem detail never crosses the wire,
    only collapsed triples."""
    from ..sources.reader import read_parquet_clean

    ds = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    )

    def min_partial(batch: pa.Table) -> pa.Table:
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        cents = _cents(batch["l_extendedprice"])
        order = np.lexsort((cents, pk))
        pk_s, c_s = pk[order], cents[order]
        first = np.r_[True, pk_s[1:] != pk_s[:-1]]
        return pa.table(
            {
                "l_partkey": pa.array(pk_s[first]),
                "min_price_cents": pa.array(c_s[first]),
                "_b": pa.array((pk_s[first] % num_buckets).astype(np.int32)),
            }
        )

    def bucket_min(t: pa.Table) -> pa.Table:
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        c = t["min_price_cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((c, pk))
        pk_s, c_s = pk[order], c[order]
        first = np.r_[True, pk_s[1:] != pk_s[:-1]]
        n = int(first.sum())
        return pa.table(
            {
                "l_partkey": pa.array(pk_s[first]),
                "l_suppkey": pa.array(np.full(n, -1, dtype=np.int64)),
                "min_price_cents": pa.array(c_s[first]),
                "_side": pa.array(np.ones(n, dtype=np.int8)),
                "_b": pa.array((pk_s[first] % num_buckets).astype(np.int32)),
            }
        )

    mins = bucket_exchange(ds.map_batches(min_partial, batch_format="pyarrow"), "_b", bucket_min)

    def cand_partial(batch: pa.Table) -> pa.Table:
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = _cents(batch["l_extendedprice"])
        # local min per (part, supplier): a pair whose local min exceeds the
        # part's global min is filtered in the bucket; the exchange carries
        # at most one triple per distinct pair per batch
        order = np.lexsort((cents, sk, pk))
        pk_s, sk_s, c_s = pk[order], sk[order], cents[order]
        first = np.r_[True, (pk_s[1:] != pk_s[:-1]) | (sk_s[1:] != sk_s[:-1])]
        return pa.table(
            {
                "l_partkey": pa.array(pk_s[first]),
                "l_suppkey": pa.array(sk_s[first]),
                "min_price_cents": pa.array(c_s[first]),
                "_side": pa.array(np.zeros(int(first.sum()), dtype=np.int8)),
                "_b": pa.array((pk_s[first] % num_buckets).astype(np.int32)),
            }
        )

    unioned = ds.map_batches(cand_partial, batch_format="pyarrow").union(mins)

    def per_bucket(t: pa.Table) -> pa.Table:
        side = t["_side"].to_numpy(zero_copy_only=False)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False)
        c = t["min_price_cents"].to_numpy(zero_copy_only=False)
        m = side == 1
        mpk, mc = pk[m], c[m]
        order = np.argsort(mpk, kind="stable")
        mpk, mc = mpk[order], mc[order]
        cpk, csk, cc = pk[~m], sk[~m], c[~m]
        idx = np.searchsorted(mpk, cpk)
        idx_safe = np.clip(idx, 0, max(len(mpk) - 1, 0))
        hit = (len(mpk) > 0) & (idx < len(mpk))
        hit &= mpk[idx_safe] == cpk
        keep = hit & (cc == mc[idx_safe])
        cpk, csk, cmc = cpk[keep], csk[keep], mc[idx_safe][keep]
        # distinct (part, supplier) across this bucket's batches — lexsort +
        # run flags, no composite key (a pk*2^32+sk composite would overflow
        # int64 at extreme-scale partkeys)
        order2 = np.lexsort((csk, cpk))
        cpk, csk, cmc = cpk[order2], csk[order2], cmc[order2]
        first = np.r_[True, (cpk[1:] != cpk[:-1]) | (csk[1:] != csk[:-1])] if len(cpk) else np.zeros(0, dtype=bool)
        return pa.table(
            {
                "l_partkey": pa.array(cpk[first]),
                "l_suppkey": pa.array(csk[first]),
                "min_price_cents": pa.array(cmc[first]),
            }
        )

    return (
        bucket_exchange(unioned, "_b", per_bucket)
    )


def min_cost_supplier_sql() -> str:
    """DuckDB replay of tpch_min_cost_supplier (decorrelated min subquery,
    all ties emitted, same exact integer cents)."""
    return (
        "WITH m AS (SELECT l_partkey, "
        "min(CAST(round(l_extendedprice * 100) AS BIGINT)) AS min_price_cents "
        "FROM lineitem GROUP BY l_partkey) "
        "SELECT DISTINCT l.l_partkey, CAST(l.l_suppkey AS BIGINT) AS l_suppkey, "
        "m.min_price_cents FROM lineitem l JOIN m ON l.l_partkey = m.l_partkey "
        "AND CAST(round(l.l_extendedprice * 100) AS BIGINT) = m.min_price_cents"
    )


Q4_FROM, Q4_TO = "1996-01-01", "1997-01-01"


def tpch_order_priority(sf_dir: str, date_from: str = Q4_FROM,
                        date_to: str = Q4_TO, num_buckets: int = 64):
    """(o_orderpriority, order_count): orders inside a date window that
    HAVE at least one returned lineitem (l_returnflag = 'R'), counted per
    priority — the TPC-H Q4 SEMI-join shape (EXISTS), the positive
    complement of tpch_cust_no_orders' anti-join: membership keeps rather
    than drops. (The driver's lineitem table carries no commit/receipt
    dates, so the Q4 late-delivery predicate is recast onto the returned
    flag — same machine, same EXISTS decorrelation.)

    Scale shape mirrors the anti-join exactly: per-batch DISTINCT returned
    orderkeys (narrow int64s) + date-pruned order rows co-partition by
    orderkey % B in ONE exchange; each bucket keeps order rows present in
    the key set via one sorted np.isin and pre-collapses to per-priority
    counts, so the driver merges <= B x |priorities| partial rows.
    """
    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    line = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_returnflag"],
    )
    lo = np.datetime64(date_from, "us")
    hi = np.datetime64(date_to, "us")

    def order_side(batch: pa.Table) -> pa.Table:
        d = batch["o_orderdate"].to_numpy(zero_copy_only=False)
        m = (d >= lo) & (d < hi)
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False)[m]
        prio = batch["o_orderpriority"].to_numpy(zero_copy_only=False)[m]
        return pa.table(
            {
                "orderkey": pa.array(ok),
                "side": pa.array(np.zeros(len(ok), dtype=np.int8)),
                "prio": pa.array(prio, type=pa.string()),
                "_b": pa.array((ok % num_buckets).astype(np.int32)),
            }
        )

    def line_side(batch: pa.Table) -> pa.Table:
        rf = batch["l_returnflag"].to_numpy(zero_copy_only=False)
        ok = np.unique(batch["l_orderkey"].to_numpy(zero_copy_only=False)[rf == "R"])
        return pa.table(
            {
                "orderkey": pa.array(ok),
                "side": pa.array(np.ones(len(ok), dtype=np.int8)),
                "prio": pa.array([""] * len(ok), type=pa.string()),
                "_b": pa.array((ok % num_buckets).astype(np.int32)),
            }
        )

    both = orders.map_batches(order_side, batch_format="pyarrow").union(
        line.map_batches(line_side, batch_format="pyarrow")
    )

    def semi(t: pa.Table) -> pa.Table:
        side = t["side"].to_numpy(zero_copy_only=False)
        ok = t["orderkey"].to_numpy(zero_copy_only=False)
        have = np.unique(ok[side == 1])
        keep = (side == 0) & np.isin(ok, have)
        prio = t["prio"].to_numpy(zero_copy_only=False)[keep]
        u, cnt = np.unique(prio, return_counts=True)
        return pa.table(
            {
                "o_orderpriority": pa.array(u, type=pa.string()),
                "order_count": pa.array(cnt.astype(np.int64)),
            }
        )

    parts = (
        bucket_exchange(both, "_b", semi)
        .to_pandas()   # <= num_buckets x |priorities| partial rows
    )
    if parts.empty:
        return pd.DataFrame({"o_orderpriority": pd.Series(dtype=object),
                             "order_count": pd.Series(dtype=np.int64)})
    out = parts.groupby("o_orderpriority", as_index=False)["order_count"].sum()
    out["order_count"] = out["order_count"].astype(np.int64)
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def order_priority_sql(date_from: str = Q4_FROM, date_to: str = Q4_TO) -> str:
    """DuckDB replay of tpch_order_priority (EXISTS semi-join, Q4 shape)."""
    return (
        "SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS order_count "
        f"FROM orders WHERE o_orderdate >= DATE '{date_from}' "
        f"AND o_orderdate < DATE '{date_to}' AND EXISTS ("
        "SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey "
        "AND l_returnflag = 'R') GROUP BY o_orderpriority"
    )


def tpch_cust_order_dist(sf_dir: str, num_buckets: int = 64):
    """(c_count, custdist): the distribution of per-customer order counts,
    ZERO-order customers included — the TPC-H Q13 histogram-of-aggregates
    class: a second GROUP BY over the VALUE of a first keyed aggregate
    (LEFT-join semantics — the outer side survives with count 0), which
    neither the plain aggregates nor the joins above compose into.

    Scale shape: per-batch partial order counts per custkey (narrow
    (custkey, n) int64 pairs) union customer keys, ONE custkey % B
    co-partition; each bucket sums partials per key, zero-fills customers
    with no orders, and pre-collapses to (c_count, n_cust) partials, so
    the driver merges <= B x |distinct counts| rows — the data rows never
    leave the buckets.
    """
    cust = read_parquet_clean(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    orders = read_parquet_clean(f"{sf_dir}/orders.parquet", columns=["o_custkey"])

    def cust_side(batch: pa.Table) -> pa.Table:
        ck = batch["c_custkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "custkey": pa.array(ck),
                "n": pa.array(np.zeros(len(ck), dtype=np.int64)),
                "side": pa.array(np.zeros(len(ck), dtype=np.int8)),
                "_b": pa.array((ck % num_buckets).astype(np.int32)),
            }
        )

    def order_side(batch: pa.Table) -> pa.Table:
        u, cnt = np.unique(batch["o_custkey"].to_numpy(zero_copy_only=False),
                           return_counts=True)
        return pa.table(
            {
                "custkey": pa.array(u),
                "n": pa.array(cnt.astype(np.int64)),
                "side": pa.array(np.ones(len(u), dtype=np.int8)),
                "_b": pa.array((u % num_buckets).astype(np.int32)),
            }
        )

    both = cust.map_batches(cust_side, batch_format="pyarrow").union(
        orders.map_batches(order_side, batch_format="pyarrow")
    )

    def hist(t: pa.Table) -> pa.Table:
        side = t["side"].to_numpy(zero_copy_only=False)
        ck = t["custkey"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        cust_keys = ck[side == 0]
        u, inv = np.unique(ck, return_inverse=True)
        per_key = np.bincount(inv, weights=n).astype(np.int64)
        # LEFT semantics: only customer-side keys produce a row; order
        # counts for keys with no customer row (none in a consistent DB)
        # are dropped, zero-order customers get per_key 0
        is_cust = np.zeros(len(u), dtype=bool)
        is_cust[np.searchsorted(u, np.unique(cust_keys))] = True
        counts = per_key[is_cust]
        cu, cc = np.unique(counts, return_counts=True)
        return pa.table(
            {
                "c_count": pa.array(cu),
                "custdist": pa.array(cc.astype(np.int64)),
            }
        )

    parts = (
        bucket_exchange(both, "_b", hist)
        .to_pandas()   # <= num_buckets x |distinct counts| partial rows
    )
    if parts.empty:
        return pd.DataFrame({"c_count": pd.Series(dtype=np.int64),
                             "custdist": pd.Series(dtype=np.int64)})
    out = parts.groupby("c_count", as_index=False)["custdist"].sum()
    out["custdist"] = out["custdist"].astype(np.int64)
    return out.sort_values("c_count").reset_index(drop=True)


def cust_order_dist_sql() -> str:
    """DuckDB replay of tpch_cust_order_dist (Q13 LEFT-join two-level
    aggregation)."""
    return (
        "SELECT c_count, CAST(count(*) AS BIGINT) AS custdist FROM ("
        "SELECT c.c_custkey, CAST(count(o.o_custkey) AS BIGINT) AS c_count "
        "FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey "
        "GROUP BY c.c_custkey) GROUP BY c_count"
    )


MAX_Q17_BROADCAST_PARTS = 5_000_000


def tpch_small_qty_revenue(sf_dir: str, num_buckets: int = 64,
                           max_broadcast_parts: int = MAX_Q17_BROADCAST_PARTS):
    """(revenue_cents, n_lines): total extended price (exact cents) and
    count of lineitems whose quantity is BELOW 20% of their part's average
    quantity — the TPC-H Q17 correlated-AVG-subquery shape: a scalar
    aggregate per key joined back as an INEQUALITY gate on the detail rows
    (tpch_min_cost_supplier decorrelates a correlated MIN with an equality
    join-back; the mean gate needs the integer cross-multiply qty*5*n <
    sum to stay float-free: qty < 0.2 * sum/n  <=>  5*qty*n < sum).

    Scale shape: ONLY the vocabulary-sized aggregate crosses the wire —
    per-batch (partkey, n, sum_qty_centi) partials (per-batch DISTINCT
    partkeys, not lines) merge in one partkey-bucket exchange; the part
    table is then COUNTED: at or below ``max_broadcast_parts`` it
    broadcasts (sorted arrays + searchsorted) and the 6x-larger detail
    stream is gated STATELESSLY with no shuffle at all; above the bound
    both sides co-partition by partkey % B (dedup_near's counted-
    fallback pattern — both paths bit-identical, unit-tested at a lowered
    cap). Driver merges B one-row partials either way.
    """
    import logging

    line = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )

    def agg_partial(batch: pa.Table) -> pa.Table:
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        qty = _cents(batch["l_quantity"])     # centi-units, exact
        u, inv = np.unique(pk, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        sq = np.zeros(len(u), dtype=np.int64)
        np.add.at(sq, inv, qty)
        return pa.table(
            {
                "partkey": pa.array(u),
                "n": pa.array(n),
                "sq": pa.array(sq),
                "_b": pa.array((u % num_buckets).astype(np.int32)),
            }
        )

    agg_ds = (
        # batch_size=None => whole-block batches: the combiner collapses a
        # block's lines to its DISTINCT parts (Ray's 1024-row default would
        # emit ~one partial row per line, nullifying the pre-aggregation)
        bucket_exchange(line.map_batches(agg_partial, batch_format="pyarrow", batch_size=None),
                        "_b", sum_merge(["partkey"], ["n", "sq"]))
        .materialize()   # vocabulary-sized: distinct parts, not lines
    )

    def final(parts: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "revenue_cents": pd.Series([int(parts["revenue_cents"].sum())], dtype=np.int64),
                "n_lines": pd.Series([int(parts["n_lines"].sum())], dtype=np.int64),
            }
        )

    if agg_ds.count() <= max_broadcast_parts:
        adf = agg_ds.to_pandas()
        pk_s = adf["partkey"].to_numpy(dtype=np.int64)
        order = np.argsort(pk_s, kind="stable")
        keys, n, sq = (pk_s[order], adf["n"].to_numpy(dtype=np.int64)[order],
                       adf["sq"].to_numpy(dtype=np.int64)[order])

        def gate_stream(batch: pa.Table) -> pa.Table:
            pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
            qty = _cents(batch["l_quantity"])
            price = _cents(batch["l_extendedprice"])
            i = np.searchsorted(keys, pk)   # every line's part exists
            assert qty.max(initial=0) * 5 * n.max(initial=0) < 2**62, "q17 cross-multiply overflow"
            keep = qty * 5 * n[i] < sq[i]
            return pa.table(
                {
                    "revenue_cents": pa.array([int(price[keep].sum())]),
                    "n_lines": pa.array([int(keep.sum())]),
                }
            )

        return final(line.map_batches(gate_stream, batch_format="pyarrow").to_pandas())

    logging.getLogger("titan_ray.relational").warning(
        "q17: %d distinct parts exceed the broadcast bound %d -> "
        "co-partition fallback", agg_ds.count(), max_broadcast_parts)

    def det_side(batch: pa.Table) -> pa.Table:
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "partkey": pa.array(pk),
                "n": pa.array(_cents(batch["l_quantity"])),       # qty slot
                "sq": pa.array(_cents(batch["l_extendedprice"])),  # price slot
                "side": pa.array(np.ones(len(pk), dtype=np.int8)),
                "_b": pa.array((pk % num_buckets).astype(np.int32)),
            }
        )

    def agg_side(batch: pa.Table) -> pa.Table:
        pk = batch["partkey"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "side", pa.array(np.zeros(batch.num_rows, dtype=np.int8))
        ).append_column("_b", pa.array((pk % num_buckets).astype(np.int32)))

    both = agg_ds.map_batches(agg_side, batch_format="pyarrow").union(
        line.map_batches(det_side, batch_format="pyarrow")
    )

    def gate(t: pa.Table) -> pa.Table:
        side = t["side"].to_numpy(zero_copy_only=False)
        pk = t["partkey"].to_numpy(zero_copy_only=False)
        a = t["n"].to_numpy(zero_copy_only=False)
        b = t["sq"].to_numpy(zero_copy_only=False)
        agg = side == 0
        u = np.unique(pk[agg])
        pos = np.searchsorted(u, pk)
        n = np.zeros(len(u), dtype=np.int64)
        sq = np.zeros(len(u), dtype=np.int64)
        n[pos[agg]] = a[agg]
        sq[pos[agg]] = b[agg]
        det = ~agg
        di = pos[det]
        qty, price = a[det], b[det]
        assert qty.max(initial=0) * 5 * n.max(initial=0) < 2**62, "q17 cross-multiply overflow"
        keep = qty * 5 * n[di] < sq[di]
        return pa.table(
            {
                "revenue_cents": pa.array([int(price[keep].sum())]),
                "n_lines": pa.array([int(keep.sum())]),
            }
        )

    parts = (
        bucket_exchange(both, "_b", gate)
        .to_pandas()   # num_buckets rows
    )
    return final(parts)


def small_qty_revenue_sql() -> str:
    """DuckDB replay of tpch_small_qty_revenue (decorrelated AVG gate,
    integer cross-multiply, exact cents)."""
    return (
        "WITH a AS (SELECT l_partkey, CAST(count(*) AS BIGINT) AS n, "
        "sum(CAST(round(l_quantity * 100) AS BIGINT)) AS sq "
        "FROM lineitem GROUP BY l_partkey) "
        "SELECT CAST(COALESCE(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT))"
        ", 0) AS BIGINT) AS revenue_cents, CAST(count(*) AS BIGINT) AS n_lines "
        "FROM lineitem l JOIN a ON a.l_partkey = l.l_partkey "
        "WHERE CAST(round(l.l_quantity * 100) AS BIGINT) * 5 * a.n < a.sq"
    )


# ---------------------------------------------------------------------------
# Grouped top-N (the bounded-rank-per-group class, N > 1)
# ---------------------------------------------------------------------------

TOPN_PER_ORDER = 3


def tpch_topn_lineitems(sf_dir: str, n: int = TOPN_PER_ORDER, num_buckets: int = 64):
    """(l_orderkey, rn, l_linenumber, revenue_1e4): the top-``n`` highest-
    revenue lines of every order with their in-group rank — the grouped
    TOP-N class (row_number() <= n). tpch_top_lineitem is its n=1 argmax
    special case; n > 1 is its own machine because the local prune must
    keep a bounded PREFIX per group, not a single winner, and the final
    rank is re-derived after the merge.

    Scale shape: per-group top-n is associative (the global top-n of a
    union is contained in the union of local top-n's), so each batch
    keeps <= n rows per order via one lexsort + a vectorized per-group
    cumcount; the ONE orderkey-bucket exchange moves at most n rows per
    (order, batch); the per-bucket rerun of the same kernel is final and
    emits rn. Deterministic tie-break (revenue DESC, linenumber ASC) ->
    partition-invariant, window twin hash-matches."""
    ds = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount"],
    )

    def _topn(ok: np.ndarray, ln: np.ndarray, rev: np.ndarray) -> tuple:
        order = np.lexsort((ln, -rev, ok))
        ok_s = ok[order]
        new = np.r_[True, ok_s[1:] != ok_s[:-1]]
        # vectorized per-group cumcount: position - position-of-group-start
        idx = np.arange(len(ok_s))
        start = idx[new][np.cumsum(new) - 1]
        rn = idx - start + 1
        keep = rn <= n
        sel = order[keep]
        return ok[sel], ln[sel], rev[sel], rn[keep].astype(np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        ln = batch["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        rev = _disc_1e4(batch)
        ok, ln, rev, _ = _topn(ok, ln, rev)
        return pa.table(
            {
                "l_orderkey": pa.array(ok),
                "l_linenumber": pa.array(ln),
                "revenue_1e4": pa.array(rev),
                "_b": pa.array((ok % num_buckets).astype(np.int32)),
            }
        )

    def per_bucket(t: pa.Table) -> pa.Table:
        ok, ln, rev, rn = _topn(
            t["l_orderkey"].to_numpy(zero_copy_only=False),
            t["l_linenumber"].to_numpy(zero_copy_only=False),
            t["revenue_1e4"].to_numpy(zero_copy_only=False),
        )
        return pa.table(
            {
                "l_orderkey": pa.array(ok),
                "rn": pa.array(rn),
                "l_linenumber": pa.array(ln),
                "revenue_1e4": pa.array(rev),
            }
        )

    return (
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "_b", per_bucket)
    )


def topn_lineitems_sql(n: int = TOPN_PER_ORDER) -> str:
    """DuckDB replay of tpch_topn_lineitems (row_number <= n, same exact
    integer revenue and tie order)."""
    return (
        "WITH l AS (SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber, "
        "CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev FROM lineitem), "
        "r AS (SELECT *, CAST(row_number() OVER (PARTITION BY l_orderkey "
        "ORDER BY rev DESC, l_linenumber) AS BIGINT) AS rn FROM l) "
        f"SELECT l_orderkey, rn, l_linenumber, rev AS revenue_1e4 FROM r WHERE rn <= {n}"
    )


# ---------------------------------------------------------------------------
# Share-of-total threshold (TPC-H Q11 shape) — aggregate filtered against a
# GLOBAL aggregate of the same pass
# ---------------------------------------------------------------------------

SHARE_DENOM = 2000     # keep parts with revenue > total_revenue / SHARE_DENOM


def tpch_part_revenue_share(sf_dir: str, denom: int = SHARE_DENOM,
                            num_buckets: int = 64):
    """(l_partkey, revenue_1e4) — parts whose discounted revenue exceeds
    1/denom of the WHOLE corpus revenue (TPC-H Q11's value-fraction HAVING
    recast onto lineitem/partkey). The distinguishing machine: the filter
    threshold is itself an aggregate of the same data, so the query is two
    chained aggregates — a per-key one and a global scalar — not a join.

    Scale shape: per-batch pandas partials collapse each block to its
    distinct-partkey revenue sums (the only thing shuffled — one narrow
    exchange keyed by partkey-hash bucket); the per-part table (|parts|
    rows, dimension-sized, << lineitem) is materialized ONCE and reused for
    both the global total (a tiny Sum aggregate — the driver holds exactly
    one scalar) and the threshold filter (stateless map over the same
    blocks, exact integer cross-multiply rev * denom > total — no float
    fraction). The lineitem fact table crosses the wire zero times.
    Reference analog: the fraction-of-global acceptance bound in the SCT
    battery (titan.r:209-215 scales per-station thresholds off a global
    sigma); DuckDB twin: GROUP BY HAVING sum*denom > (SELECT sum ...)."""
    from ray.data.aggregate import Sum

    ds = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        g = pd.DataFrame(
            {
                "l_partkey": batch["l_partkey"].to_numpy(zero_copy_only=False),
                "revenue_1e4": _disc_1e4(batch),
            }
        ).groupby("l_partkey", sort=False, as_index=False).sum()
        g["_b"] = (g["l_partkey"].to_numpy() % num_buckets).astype(np.int32)
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    per_part = (
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                        "_b", sum_merge(["l_partkey"], ["revenue_1e4"]))
        .materialize()     # dimension-sized; reused by both passes below
    )
    total = int(per_part.aggregate(Sum("revenue_1e4"))["sum(revenue_1e4)"])

    def keep(t: pa.Table) -> pa.Table:
        rev = t["revenue_1e4"].to_numpy(zero_copy_only=False)
        # exact integer compare; rev * denom stays < 2^63 at gate scale and
        # the SQL twin carries the same product in HUGEINT
        return t.filter(pa.array(rev.astype(object) * denom > total))

    return per_part.map_batches(keep, batch_format="pyarrow")


def part_revenue_share_sql(denom: int = SHARE_DENOM) -> str:
    """DuckDB replay of tpch_part_revenue_share (HUGEINT cross-multiply
    against the scalar-subquery total)."""
    rev = ("CAST(round(l_extendedprice * 100) AS BIGINT) * "
           "(100 - CAST(round(l_discount * 100) AS BIGINT))")
    return (
        f"SELECT l_partkey, CAST(sum({rev}) AS BIGINT) AS revenue_1e4 "
        "FROM lineitem GROUP BY l_partkey "
        f"HAVING CAST(sum({rev}) AS HUGEINT) * {denom} > "
        f"(SELECT CAST(sum({rev}) AS HUGEINT) FROM lineitem)"
    )


# ---------------------------------------------------------------------------
# Sole-returner suppliers (TPC-H Q21 shape) — correlated EXISTS + NOT EXISTS
# over other rows of the same order, decorrelated to grouped distinct counts
# ---------------------------------------------------------------------------


def tpch_sole_returner(sf_dir: str, num_buckets: int = 64):
    """(suppkey, n_orders) — for each supplier, the number of multi-supplier
    orders where it was the ONLY supplier with a returned ('R') line.
    TPC-H Q21's machine on our schema: a correlated EXISTS (another supplier
    participates in the order) AND NOT EXISTS (another supplier also
    returned) — the classic blame-assignment query.

    Decorrelation: both existentials are facts about the ORDER group, so
    per order it needs only (n_distinct_suppliers, n_distinct_returning
    suppliers) — the pair of subqueries collapses to two grouped distinct
    counts and a row-local gate (is_r AND n_supp > 1 AND n_r_supp == 1),
    no self-join. Scale shape: each batch first reduces to its distinct
    (orderkey, suppkey) pairs with a per-pair returned-flag max (pandas
    groupby — at most one row per distinct pair per batch crosses the
    wire); ONE orderkey-bucket exchange co-locates each order; per bucket
    the pair set is re-deduped across batches, run-length boundaries give
    both distinct counts vectorized, and the surviving sole-returner rows
    collapse to per-supplier order counts — a second, supplier-sized
    exchange merges those. Reference analog: the buddy check's "event is
    flagged only if its neighbours aren't" logic (titan.r:262-287);
    DuckDB twin: the literal correlated EXISTS/NOT EXISTS pair."""
    ds = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_returnflag"],
    )

    def pairs(batch: pa.Table) -> pa.Table:
        g = pd.DataFrame(
            {
                "orderkey": batch["l_orderkey"].to_numpy(zero_copy_only=False),
                "suppkey": batch["l_suppkey"].to_numpy(zero_copy_only=False),
                "is_r": (batch["l_returnflag"].to_numpy(zero_copy_only=False) == "R").astype(np.int64),
            }
        ).groupby(["orderkey", "suppkey"], sort=False, as_index=False).max()
        g["_b"] = (g["orderkey"].to_numpy() % num_buckets).astype(np.int32)
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    def per_bucket(t: pa.Table) -> pa.Table:
        ok = t["orderkey"].to_numpy(zero_copy_only=False)
        sk = t["suppkey"].to_numpy(zero_copy_only=False)
        ir = t["is_r"].to_numpy(zero_copy_only=False)
        order = np.lexsort((sk, ok))
        ok, sk, ir = ok[order], sk[order], ir[order]
        # re-dedup (orderkey, suppkey) across batches: max of is_r per run
        new = np.empty(len(ok), dtype=bool)
        new[0:1] = True
        new[1:] = (ok[1:] != ok[:-1]) | (sk[1:] != sk[:-1])
        starts = np.flatnonzero(new)
        ok, sk = ok[starts], sk[starts]
        ir = np.maximum.reduceat(ir, starts) if len(starts) else ir[:0]
        # per-order distinct-supplier and returning-supplier counts
        new_ord = np.empty(len(ok), dtype=bool)
        new_ord[0:1] = True
        new_ord[1:] = ok[1:] != ok[:-1]
        ostarts = np.flatnonzero(new_ord)
        n_supp = np.diff(np.r_[ostarts, len(ok)])
        n_r = np.add.reduceat(ir, ostarts) if len(ostarts) else ir[:0]
        gid = np.cumsum(new_ord) - 1
        keep = (ir == 1) & (n_supp[gid] > 1) & (n_r[gid] == 1)
        g = pd.DataFrame({"suppkey": sk[keep]}).groupby(
            "suppkey", sort=False, as_index=False
        ).size().rename(columns={"size": "n_orders"})
        g["n_orders"] = g["n_orders"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    per_supp = bucket_exchange(ds.map_batches(pairs, batch_format="pyarrow"), "_b", per_bucket)
    per_supp = per_supp.map_batches(
        lambda t: t.append_column(
            "_s", pa.array((t["suppkey"].to_numpy(zero_copy_only=False) % num_buckets).astype(np.int32))
        ),
        batch_format="pyarrow",
    )
    return bucket_exchange(per_supp, "_s", sum_merge(["suppkey"], ["n_orders"]))


def sole_returner_sql() -> str:
    """DuckDB replay of tpch_sole_returner (literal correlated pair)."""
    return (
        "SELECT l1.l_suppkey AS suppkey, "
        "CAST(count(DISTINCT l1.l_orderkey) AS BIGINT) AS n_orders "
        "FROM lineitem l1 WHERE l1.l_returnflag = 'R' "
        "AND EXISTS (SELECT 1 FROM lineitem l2 WHERE l2.l_orderkey = l1.l_orderkey "
        "AND l2.l_suppkey <> l1.l_suppkey) "
        "AND NOT EXISTS (SELECT 1 FROM lineitem l3 WHERE l3.l_orderkey = l1.l_orderkey "
        "AND l3.l_suppkey <> l1.l_suppkey AND l3.l_returnflag = 'R') "
        "GROUP BY l1.l_suppkey"
    )


# ---------------------------------------------------------------------------
# Referential-integrity audit (FK orphan counts across the whole schema)
# ---------------------------------------------------------------------------

FK_EDGES = (
    # (fact table, fk column, dim table, pk column)
    ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ("orders", "o_custkey", "customer", "c_custkey"),
    ("customer", "c_nationkey", "nation", "n_nationkey"),
    ("supplier", "s_nationkey", "nation", "n_nationkey"),
    ("nation", "n_regionkey", "region", "r_regionkey"),
)


def tpch_fk_audit(sf_dir: str, num_buckets: int = 64):
    """(fk, n_orphan_rows, n_orphan_keys) — the whole-schema referential-
    integrity audit: for every FK edge, how many fact rows (and how many
    distinct key values) reference a dimension key that does not exist.
    The first query a data platform runs after any ingest/migration; a
    healthy warehouse returns all zeros, and a non-zero row pinpoints the
    broken edge. Exercises EVERY anti-join in one pass.

    Scale shape per edge: the fact side collapses to per-batch DISTINCT
    (key, n_rows) partials — only distinct keys with their multiplicities
    cross the wire, never fact rows — co-partitioned with the dimension's
    distinct keys by key % B; each bucket drops present keys with one
    sorted np.isin (the tpch_cust_no_orders anti shape). The final result
    is |FK_EDGES| rows."""
    out_rows = []
    for fact, fk, dim, pk in FK_EDGES:
        f = read_parquet_clean(f"{sf_dir}/{fact}.parquet", columns=[fk])
        d = read_parquet_clean(f"{sf_dir}/{dim}.parquet", columns=[pk])

        def fact_side(batch: pa.Table, fk=fk) -> pa.Table:
            k, c = np.unique(
                batch[fk].to_numpy(zero_copy_only=False).astype(np.int64),
                return_counts=True)
            return pa.table({
                "key": pa.array(k), "n": pa.array(c.astype(np.int64)),
                "side": pa.array(np.zeros(len(k), dtype=np.int8)),
                "_b": pa.array((k % num_buckets).astype(np.int32)),
            })

        def dim_side(batch: pa.Table, pk=pk) -> pa.Table:
            k = np.unique(batch[pk].to_numpy(zero_copy_only=False).astype(np.int64))
            return pa.table({
                "key": pa.array(k),
                "n": pa.array(np.zeros(len(k), dtype=np.int64)),
                "side": pa.array(np.ones(len(k), dtype=np.int8)),
                "_b": pa.array((k % num_buckets).astype(np.int32)),
            })

        def anti(t: pa.Table) -> pa.Table:
            side = t["side"].to_numpy(zero_copy_only=False)
            k = t["key"].to_numpy(zero_copy_only=False)
            n = t["n"].to_numpy(zero_copy_only=False)
            have = np.unique(k[side == 1])
            miss = (side == 0) & ~np.isin(k, have)
            # distinct keys may repeat across fact batches — collapse
            mk, inv = np.unique(k[miss], return_inverse=True)
            rows = np.bincount(inv, weights=n[miss]).astype(np.int64) \
                if len(mk) else np.array([], dtype=np.int64)
            return pa.table({
                "n_rows": pa.array([int(rows.sum())], type=pa.int64()),
                "n_keys": pa.array([len(mk)], type=pa.int64()),
            })

        both = f.map_batches(fact_side, batch_format="pyarrow").union(
            d.map_batches(dim_side, batch_format="pyarrow"))
        parts = bucket_exchange(both, "_b", anti).to_pandas()  # <= num_buckets rows per edge
        out_rows.append((f"{fact}.{fk}->{dim}.{pk}",
                         int(parts["n_rows"].sum()), int(parts["n_keys"].sum())))
    return pd.DataFrame(out_rows, columns=["fk", "n_orphan_rows", "n_orphan_keys"]) \
        .sort_values("fk").reset_index(drop=True)


def fk_audit_sql() -> str:
    """DuckDB replay of tpch_fk_audit: one NOT-IN aggregate per FK edge,
    UNION ALL'd."""
    parts = []
    for fact, fk, dim, pk in FK_EDGES:
        parts.append(
            f"SELECT '{fact}.{fk}->{dim}.{pk}' AS fk, "
            f"CAST(count(*) AS BIGINT) AS n_orphan_rows, "
            f"CAST(count(DISTINCT {fk}) AS BIGINT) AS n_orphan_keys "
            f"FROM {fact} WHERE {fk} NOT IN (SELECT {pk} FROM {dim})"
        )
    return " UNION ALL ".join(parts) + " ORDER BY fk"
