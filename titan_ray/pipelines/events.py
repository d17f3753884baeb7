"""Event-stream operator analogs over the driver's `events` table.

The buddy/isolation checks projected onto an ordered keyed stream — SQL-
oracle-checkable because the z-style deviation is computed in EXACT integer
arithmetic (value scaled to milli-units), so Ray and DuckDB agree bit-for-bit
(no float-summation-order hazard; SURVEY.md §4 float-determinism note).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ..exchange import bucket_exchange, sum_merge
from ..sources.reader import read_parquet_clean

WINDOW = 3          # +/- rows around each event (per user, ts order)
DEV_MILLI = 2000    # deviation threshold in milli-units (2.0)
MIN_NEIGH = 3       # require >= 3 neighbours in frame
ISO_MIN = 55        # users with < 55 events are "isolated" (driver events table: min≈49/user)


def _vm(batch: pa.Table) -> np.ndarray:
    v = batch["value"].to_numpy(zero_copy_only=False)
    return np.floor(np.abs(v) * 1000.0 + 0.5).astype(np.int64) * np.sign(v).astype(np.int64)


def _user_buckets(num_buckets: int, key: str = "user_id"):
    """The bucket key of the events exchanges. Returns ``with_bucket(t)``:
    ``t`` with ``_b = t[key] & (num_buckets - 1)`` appended as int32.

    ``key`` is user_id, so one user's rows share a bucket (events_rollup
    alone buckets its hour cells). The mask equals ``key % num_buckets``,
    for a negative key too, only when num_buckets is a power of two; any
    other count would silently use fewer buckets than it names, so it is
    refused here, when the operator is built."""
    if num_buckets <= 0 or num_buckets & (num_buckets - 1):
        raise ValueError(f"num_buckets must be a power of two, got {num_buckets}")
    mask = num_buckets - 1

    def with_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("_b", pc.cast(pc.bit_wise_and(t[key], mask), pa.int32()))

    return with_bucket


def _user_order(t: pa.Table, *by: str) -> tuple[np.ndarray, dict, np.ndarray]:
    """A reduce kernel's block as user streams: (order, keys, new_user).

    ``order`` is the stable row order of ``t`` by (user_id, *by), so rows
    equal on every key keep their block order. ``keys`` maps user_id and
    each name in ``by`` to that column as numpy, in block order; a timestamp
    column sorts, and is returned, as its int64 microseconds. ``new_user``
    is in sorted order, True at the first row of each user. The event
    operators' stream order is (user_id, ts, event_id): event_id breaks
    same-timestamp ties, as the twins' ``ORDER BY ts, event_id`` does."""
    names = ("user_id", *by)
    keys = {}
    for c in names:
        col = t[c]
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.int64())
        keys[c] = col.to_numpy()
    order = np.lexsort([keys[c] for c in reversed(names)])
    u = keys["user_id"][order]
    new_user = np.empty(len(u), dtype=bool)
    new_user[:1] = True
    new_user[1:] = u[1:] != u[:-1]
    return order, keys, new_user


def events_hourly(sf_dir: str, num_buckets: int = 64):
    """Tumbling-window aggregate: per (user_id, hour) count + exact milli-sum.

    Scale shape: per-batch Arrow group_by collapses the event stream to
    (user, hour) partials BEFORE the exchange (each user's events are
    clustered in time, so partials are ~events/hours_per_batch smaller),
    then one bucket-keyed exchange (user_id % B co-locates every partial of
    a user; B distinct keys keep Ray's sort-shuffle a cheap B-way exchange
    instead of a full sort over the raw composite key) merges them with an
    exact int64 sum."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch["ts"], unit="hour")
        t = pa.table({"user_id": batch["user_id"], "hour": hour, "vm": pa.array(_vm(batch))})
        g = t.group_by(["user_id", "hour"]).aggregate([("vm", "count"), ("vm", "sum")])
        return with_b(pa.table({"user_id": g["user_id"], "hour": g["hour"],
                                "n_events": g["vm_count"], "sum_vm": g["vm_sum"]}))

    return bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                           "_b", sum_merge(["user_id", "hour"], ["n_events", "sum_vm"]))


def events_buddy(sf_dir: str, num_buckets: int = 64):
    """Buddy check on an ordered stream: flag events whose value deviates from
    the mean of the +/-WINDOW row frame (self excluded) by > DEV_MILLI.

    Exact integer test: |vm*(cnt-1) - (sum - vm)| > DEV_MILLI*(cnt-1)
    (reference: buddy.r:145-177 deviation-vs-local-background shape)."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"])

    def bucketize(batch: pa.Table) -> pa.Table:
        return with_b(pa.table({"event_id": batch["event_id"], "user_id": batch["user_id"],
                                "ts": batch["ts"], "vm": pa.array(_vm(batch))}))

    # Arrow in/out + one lexsort (round-4 verdict minor: no pandas
    # round-trip inside the shuffle stage)
    def per_bucket(t: pa.Table) -> pa.Table:
        order, k, new_u = _user_order(t, "ts", "event_id")
        eid, uid = k["event_id"], k["user_id"]
        vm = t["vm"].to_numpy(zero_copy_only=False)[order]
        n = len(order)
        csum = np.concatenate([[0], np.cumsum(vm)])
        idx = np.arange(n)
        # frame [i-W, i+W] clipped to this user's contiguous row range
        starts = np.flatnonzero(new_u)
        gi = np.cumsum(new_u) - 1
        u_start = starts[gi]
        u_len = (np.r_[starts[1:], n] - starts)[gi]
        lo = np.maximum(idx - WINDOW, u_start)
        hi = np.minimum(idx + WINDOW, u_start + u_len - 1)
        cnt = hi - lo + 1
        s = csum[hi + 1] - csum[lo]
        neigh = cnt - 1
        dev = np.abs(vm * neigh - (s - vm))
        flag = (neigh >= MIN_NEIGH) & (dev > DEV_MILLI * neigh)
        keep = order[flag]
        return pa.table({"event_id": pa.array(eid[keep]), "user_id": pa.array(uid[keep])})

    ds = ds.map_batches(bucketize, batch_format="pyarrow")
    return bucket_exchange(ds, "_b", per_bucket)


def buddy_sql() -> str:
    """DuckDB replay of events_buddy: the same +/-WINDOW ROWS frame."""
    return (
        "WITH w AS ("
        "  SELECT event_id, user_id,"
        "    CAST(round(value*1000) AS BIGINT) AS vm,"
        "    sum(CAST(round(value*1000) AS BIGINT)) OVER win AS sm,"
        "    count(*) OVER win AS cnt"
        "  FROM events"
        "  WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id "
        f"                 ROWS BETWEEN {WINDOW} PRECEDING AND {WINDOW} FOLLOWING)"
        ") SELECT event_id, user_id FROM w "
        f"WHERE cnt - 1 >= {MIN_NEIGH} "
        f"AND abs(vm*(cnt-1) - (sm - vm)) > {DEV_MILLI}*(cnt-1)"
    )


def events_isolation(sf_dir: str):
    """Isolation analog: events of users with < ISO_MIN events total
    (reference: isolation.r:25-28). Small-side aggregate broadcast back as a
    filter — no second shuffle of the big table."""
    with_b = _user_buckets(64)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["event_id", "user_id"])

    # Per-batch partial counts shrink the exchange to (users x batches)
    # rows; the bucket-keyed merge avoids a full sort over raw user_id.
    def partial(batch: pa.Table) -> pa.Table:
        return with_b(batch.group_by("user_id").aggregate([("user_id", "count")]))

    def merge(t: pa.Table) -> pa.Table:
        # emit ONLY the lonely users (n < ISO_MIN) — the driver collect is
        # the isolated-user set, not the full per-user count table, so the
        # broadcast stays small even when the user population scales
        g = t.group_by("user_id").aggregate([("user_id_count", "sum")])
        keep = pc.less(g["user_id_count_sum"], ISO_MIN)
        return pa.table({"user_id": g.filter(keep)["user_id"]})

    lonely_arr = np.sort(
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "_b", merge)
        .to_pandas()["user_id"]
        .to_numpy(dtype=np.int64)
    )

    def filt(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        mask = pa.array(np.isin(uid, lonely_arr) if len(lonely_arr) else np.zeros(len(uid), bool))
        return pa.table({"event_id": batch["event_id"].combine_chunks().filter(mask)})

    return ds.map_batches(filt, batch_format="pyarrow")


def events_extent(sf_dir: str):
    """Domain-extent aggregate: global min/max over ts and milli-value plus
    row count (reference: read_data_to_check.r:234-249 computes the domain
    extent at read; one-row result, no driver-side scan)."""
    from ray.data.aggregate import Count, Max, Min

    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"ts": batch["ts"], "vm": pa.array(_vm(batch))})

    ds = ds.map_batches(prep, batch_format="pyarrow")
    row = ds.aggregate(
        Min("ts", alias_name="ts_min"),
        Max("ts", alias_name="ts_max"),
        Min("vm", alias_name="vm_min"),
        Max("vm", alias_name="vm_max"),
        Count(alias_name="n_rows"),
    )
    return pd.DataFrame([row])


SESSION_GAP_US = 30 * 60 * 1_000_000  # 30-minute inactivity gap


def events_sessions(sf_dir: str, num_buckets: int = 64):
    """Session windows: per user, split the ts-ordered event stream at gaps
    > 30 min; emit (user_id, session_id, n_events, sum_vm). The guide's
    streaming-shaped pattern: partition by key, sort within partition,
    sessionize with vectorized gap cumsum per shuffled block — exact-integer
    sums so the DuckDB window-function oracle matches bit-for-bit."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"])

    def bucketize(batch: pa.Table) -> pa.Table:
        return with_b(pa.table({"event_id": batch["event_id"], "user_id": batch["user_id"],
                                "ts": batch["ts"], "vm": pa.array(_vm(batch))}))

    # Arrow in/out; sessions are CONTIGUOUS runs after the (user, ts,
    # event) lexsort, so per-session size/sum are reduceat over run starts
    # (round-4 verdict minor: no pandas round-trip inside the shuffle stage)
    def per_bucket(t: pa.Table) -> pa.Table:
        order, k, new_user = _user_order(t, "ts", "event_id")
        uid, ts = k["user_id"][order], k["ts"][order]
        vm = t["vm"].to_numpy(zero_copy_only=False)[order]
        n = len(order)
        gap = np.empty(n, dtype=bool)
        gap[0] = False
        gap[1:] = (ts[1:] - ts[:-1]) > SESSION_GAP_US
        brk = (~new_user) & gap
        # session_id restarts at 0 per user: cumsum of breaks minus the
        # cumulative break count at each user's first row
        cum = np.cumsum(brk)
        user_base = np.where(new_user, cum, 0)
        base = np.maximum.accumulate(user_base)
        sess = (cum - base).astype(np.int64)
        starts = np.flatnonzero(new_user | brk)
        return pa.table(
            {
                "user_id": pa.array(uid[starts]),
                "session_id": pa.array(sess[starts]),
                "n_events": pa.array(np.diff(np.r_[starts, n]).astype(np.int64)),
                "sum_vm": pa.array(np.add.reduceat(vm, starts).astype(np.int64)),
            }
        )

    ds = ds.map_batches(bucketize, batch_format="pyarrow")
    return bucket_exchange(ds, "_b", per_bucket)


def sessions_sql() -> str:
    """DuckDB replay of events_sessions: lag() gap breaks, running sum."""
    return (
        "WITH d AS ("
        "  SELECT user_id, ts, event_id, CAST(round(value*1000) AS BIGINT) AS vm,"
        "    CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)"
        "         > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk"
        "  FROM events"
        "), s AS ("
        "  SELECT user_id, vm,"
        "    CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id"
        "                        ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id"
        "  FROM d"
        ") SELECT user_id, session_id, count(*) AS n_events, "
        "CAST(sum(vm) AS BIGINT) AS sum_vm FROM s GROUP BY user_id, session_id"
    )


def _events_sides(sf_dir: str):
    """(left, right) = odd / even event_id halves of the events table with an
    integer-microsecond `ts_us` join key (exact comparisons, no float/tz
    hazard)."""
    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "ts_us": batch["ts"].cast(pa.int64()) if not isinstance(batch["ts"], pa.ChunkedArray)
                else batch["ts"].combine_chunks().cast(pa.int64()),
                "vm": pa.array(_vm(batch)),
            }
        )

    def side(parity: int):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch["event_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(ids % 2 == parity))

        return fn

    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"])
    ds = ds.map_batches(prep, batch_format="pyarrow")
    left = ds.map_batches(side(1), batch_format="pyarrow")
    right = ds.map_batches(side(0), batch_format="pyarrow")
    return left, right


def events_asof(sf_dir: str):
    """As-of join (custom operator Ray Data lacks; stages/joins.py): every
    odd-id event joined to the most recent even-id event of the same user at
    or before it. Inner semantics = DuckDB ASOF JOIN (the SQL oracle)."""
    from ..stages.joins import asof_join

    left, right = _events_sides(sf_dir)
    # tiebreak makes the engine deterministic under duplicate (user_id, ts);
    # the DuckDB ASOF oracle is only defined when such ties are absent
    # (verified for the driver events table), so parity is unaffected
    out = asof_join(left, right, by="user_id", on="ts_us",
                    value_cols=("event_id", "vm"), tiebreak="event_id")
    return out.map_batches(
        lambda b: b.select(["event_id", "user_id", "r_event_id", "r_vm"]),
        batch_format="pyarrow",
    )


RANGE_LO_US = 1                    # strictly after the left event...
RANGE_HI_US = 10 * 60 * 1_000_000  # ...within 10 minutes


def events_range(sf_dir: str):
    """Range join (custom operator): (odd, even) event pairs of the same
    user with 0 < ts(even) - ts(odd) <= 10 min."""
    from ..stages.joins import range_join

    left, right = _events_sides(sf_dir)
    out = range_join(
        left, right, by="user_id", on="ts_us",
        lo=RANGE_LO_US, hi=RANGE_HI_US, right_cols=("event_id",),
    )
    return out.map_batches(
        lambda b: b.select(["event_id", "user_id", "r_event_id"]), batch_format="pyarrow"
    )


TOPK_USERS = 5


def events_topk_users(sf_dir: str, k: int = TOPK_USERS, num_buckets: int = 64):
    """Heavy hitters: the top-``k`` users by event count within every
    event_type (ties broken by smaller user_id — fully deterministic, the
    same rule the SQL oracle's row_number ORDER BY encodes).

    Distributed shape: per-batch Arrow group_by pre-aggregates
    (event_type, user_id) partial counts — the only thing that crosses the
    exchange is the pre-aggregated pair stream, bucketed by
    user_id & (num_buckets - 1) so each bucket merge is bounded; the final
    per-type top-k reduces bucket winners (≤ k per type per bucket) in one
    tiny driver-side pass over n_types x num_buckets x k rows.
    """
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["event_type", "user_id"]).aggregate([("user_id", "count")])
        return with_b(pa.table({"event_type": g["event_type"], "user_id": g["user_id"],
                                "n": g["user_id_count"].cast(pa.int64())}))

    def merge_bucket(t: pa.Table) -> pa.Table:
        # sum partials per (type, user), then keep each type's local top-k
        g = t.group_by(["event_type", "user_id"]).aggregate([("n", "sum")])
        df = pa.table(
            {"event_type": g["event_type"], "user_id": g["user_id"], "n": g["n_sum"]}
        )
        et = np.asarray(df["event_type"].to_pandas(), dtype=object)
        uid = df["user_id"].to_numpy(zero_copy_only=False)
        n = df["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((uid, -n, et))
        new = np.r_[True, et[order][1:] != et[order][:-1]]
        starts = np.flatnonzero(new)
        rank = np.arange(len(order)) - starts[np.cumsum(new) - 1]
        keep = np.sort(order[rank < k])
        return df.take(pa.array(keep))

    cand = (
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "_b", merge_bucket)
        .to_pandas()  # <= n_types x num_buckets x k rows
    )
    # each user lives in exactly ONE bucket (keyed by user hash), so bucket
    # counts are final — the driver pass only selects, never re-sums
    cand = cand.sort_values(["event_type", "n", "user_id"],
                            ascending=[True, False, True], kind="mergesort")
    out = cand.groupby("event_type", sort=False).head(k).reset_index(drop=True)
    return out[["event_type", "user_id", "n"]]


def topk_users_sql(k: int = TOPK_USERS) -> str:
    """DuckDB replay: row_number per type over (count DESC, user_id)."""
    return (
        "SELECT event_type, user_id, n FROM ("
        "SELECT event_type, user_id, count(*) AS n, row_number() OVER "
        "(PARTITION BY event_type ORDER BY count(*) DESC, user_id) AS rn "
        "FROM events GROUP BY event_type, user_id) "
        f"WHERE rn <= {k} ORDER BY event_type, n DESC, user_id"
    )


# ---------------------------------------------------------------------------
# Sliding-window rate (RANGE BETWEEN INTERVAL frame)
# ---------------------------------------------------------------------------

SLIDE_WINDOW_US = 600_000_000          # 10 minutes, integer microseconds


def events_sliding_rate(sf_dir: str, window_us: int = SLIDE_WINDOW_US,
                        num_buckets: int = 64):
    """Per event: how many of the SAME user's events fall in the trailing
    ``window_us`` frame [ts - W, ts] — the rate-limiter / burst-detection
    primitive, i.e. the one window shape (RANGE BETWEEN INTERVAL ... AND
    CURRENT ROW) the sessions/hourly/topk family doesn't cover. RANGE frames
    include ts-peers regardless of row order, so the result is well-defined
    under duplicate timestamps with no tiebreaker needed.

    Scale shape: narrow (event_id, user_id, ts) stream through ONE
    bucket-keyed exchange (user_id % B, so a user's events co-locate); the
    per-bucket kernel is fully vectorized — sort by (user, ts), lift each
    user's relative timestamps onto disjoint int64 ranges separated by more
    than W, then TWO whole-bucket np.searchsorted calls give every frame
    boundary at once (no per-user Python loop)."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "ts"])

    def bucketize(batch: pa.Table) -> pa.Table:
        return with_b(batch.select(["event_id", "user_id", "ts"]))

    def per_bucket(t: pa.Table) -> pa.Table:
        order, k, new = _user_order(t, "ts")
        eid, ts = t["event_id"].to_numpy(zero_copy_only=False)[order], k["ts"][order]
        rel = ts - ts.min()
        # user index 0..n_users-1 in sorted order
        uidx = np.cumsum(new) - 1
        stride = int(rel.max()) + window_us + 1
        # isolation guard: uidx * stride must stay exact in int64 (at this
        # bound a bucket holds ~9e18/stride users; shrink the bucket count
        # or the window if a real deployment ever trips it)
        assert int(uidx[-1]) * stride < 2**63, "sliding-rate stride overflow"
        adj = rel + uidx * stride
        hi = np.searchsorted(adj, adj, side="right")
        lo = np.searchsorted(adj, adj - window_us, side="left")
        return pa.table(
            {
                "event_id": pa.array(eid),
                "n_win": pa.array((hi - lo).astype(np.int64)),
            }
        )

    return (
        bucket_exchange(ds.map_batches(bucketize, batch_format="pyarrow"), "_b", per_bucket)
    )


def sliding_rate_sql(window_us: int = SLIDE_WINDOW_US) -> str:
    """DuckDB replay of events_sliding_rate: the same RANGE-INTERVAL frame."""
    return (
        "SELECT event_id, CAST(count(*) OVER (PARTITION BY user_id ORDER BY ts "
        f"RANGE BETWEEN INTERVAL {window_us} MICROSECONDS PRECEDING AND CURRENT ROW) "
        "AS BIGINT) AS n_win FROM events"
    )


# ---------------------------------------------------------------------------
# Conversion funnel (sequential-pattern aggregate)
# ---------------------------------------------------------------------------

FUNNEL_STAGES = ("signup", "click", "purchase")


def events_funnel(sf_dir: str, stages: tuple[str, ...] = FUNNEL_STAGES,
                  num_buckets: int = 64):
    """(stage, n_users): how many users completed each prefix of the
    ordered funnel — stage k counts users whose first stage-k event occurs
    AT/AFTER their first qualifying stage-(k-1) event (first-touch, min-
    based, so the result is order-free deterministic). The sequential-
    pattern aggregate every product-analytics pipeline needs.

    Scale shape: the stream is filtered to funnel types and collapsed to
    (user, type, ts) rows; ONE user-bucket exchange co-locates each user's
    rows; the per-bucket kernel is pandas C-vectorized (per-stage
    conditional groupby-min chain); a user lives in exactly one bucket, so
    per-bucket stage counts are final and the last merge sums
    |stages| x B tiny rows."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["user_id", "ts", "event_type"])

    def bucketize(batch: pa.Table) -> pa.Table:
        ti = pc.index_in(batch["event_type"], pa.array(list(stages)))
        keep = pc.is_valid(ti)
        b = batch.filter(keep)
        ts = b["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        return with_b(pa.table({"user_id": b["user_id"], "ts_us": ts.cast(pa.int64()),
                                "ti": pc.cast(ti.filter(keep), pa.int32())}))

    def per_bucket(t: pa.Table) -> pa.Table:
        uid, ts, ti = (t[c].to_numpy() for c in ("user_id", "ts_us", "ti"))
        out_n = np.zeros(len(stages), dtype=np.int64)
        pu = pt = None   # previous stage's users (sorted) and first-touch ts
        for k in range(len(stages)):
            u, s = uid[ti == k], ts[ti == k]
            if pu is not None:   # gate: the user touched stage k-1 at or before
                i = np.minimum(np.searchsorted(pu, u), max(len(pu) - 1, 0))
                ok = (pu[i] == u) & (s >= pt[i]) if len(pu) else np.zeros(len(u), bool)
                u, s = u[ok], s[ok]
            o = np.lexsort((s, u))
            u, s = u[o], s[o]
            first = np.ones(len(u), dtype=bool)
            first[1:] = u[1:] != u[:-1]
            pu, pt = u[first], s[first]
            out_n[k] = len(pu)
        return pa.table({"stage": np.arange(1, len(stages) + 1, dtype=np.int64), "n_users": out_n})

    return (
        bucket_exchange(ds.map_batches(bucketize, batch_format="pyarrow"), "_b", per_bucket)
        .groupby("stage")
        .sum("n_users")
        .map_batches(lambda b: b.rename_columns(["stage", "n_users"]),
                     batch_format="pyarrow")
    )


def funnel_sql(stages: tuple[str, ...] = FUNNEL_STAGES) -> str:
    """DuckDB replay of events_funnel (chained conditional min joins)."""
    ctes, prev = [], None
    for k, t in enumerate(stages, 1):
        if prev is None:
            ctes.append(
                f"s{k} AS (SELECT user_id, min(ts) AS t FROM events "
                f"WHERE event_type = '{t}' GROUP BY 1)"
            )
        else:
            ctes.append(
                f"s{k} AS (SELECT e.user_id, min(e.ts) AS t FROM events e "
                f"JOIN {prev} p ON p.user_id = e.user_id "
                f"WHERE e.event_type = '{t}' AND e.ts >= p.t GROUP BY 1)"
            )
        prev = f"s{k}"
    sel = " UNION ALL ".join(
        f"SELECT {k} AS stage, (SELECT count(*) FROM s{k}) AS n_users"
        for k in range(1, len(stages) + 1)
    )
    return "WITH " + ", ".join(ctes) + " " + sel


# ---------------------------------------------------------------------------
# Retention cohort matrix
# ---------------------------------------------------------------------------

WEEK_US = 7 * 86_400 * 1_000_000


def events_retention(sf_dir: str, num_buckets: int = 64):
    """(cohort_week, week_offset, n_users): the weekly retention matrix —
    users grouped by the epoch-week of their FIRST event, counted in every
    later week they were active. Weeks are integer epoch-microsecond floor
    divisions, so the matrix replays exactly in SQL.

    Scale shape: per-batch distinct (user, week) collapse, ONE user-bucket
    exchange; a user lives in one bucket, so per-bucket (cohort, offset)
    cell counts are final and the merge sums |weeks|^2 x B tiny rows."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def bucketize(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        wk = np.asarray(ts.cast(pa.int64())) // WEEK_US
        key = np.unique(np.stack([uid, wk]), axis=1)     # batch-local distinct
        return with_b(pa.table({"user_id": pa.array(key[0]), "wk": pa.array(key[1])}))

    def per_bucket(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        wk = t["wk"].to_numpy(zero_copy_only=False)
        # cross-batch distinct, already sorted by (user, week)
        key = np.unique(np.stack([uid, wk]), axis=1)
        uid, wk = key[0], key[1]
        first = np.r_[True, uid[1:] != uid[:-1]]
        cohort = wk[first][np.cumsum(first) - 1]         # each row's user min-week
        cell = np.stack([cohort, wk - cohort])
        uc, n = np.unique(cell, axis=1, return_counts=True)
        return pa.table(
            {
                "cohort_week": pa.array(uc[0]),
                "week_offset": pa.array(uc[1]),
                "n_users": pa.array(n.astype(np.int64)),
            }
        )

    return (
        bucket_exchange(ds.map_batches(bucketize, batch_format="pyarrow"), "_b", per_bucket)
        .groupby(["cohort_week", "week_offset"])
        .sum("n_users")
        .map_batches(lambda b: b.rename_columns(["cohort_week", "week_offset", "n_users"]),
                     batch_format="pyarrow")
    )


def retention_sql() -> str:
    """DuckDB replay of events_retention."""
    return (
        f"WITH w AS (SELECT DISTINCT user_id, "
        f"CAST(epoch_us(ts) // {WEEK_US} AS BIGINT) AS wk FROM events), "
        "c AS (SELECT user_id, min(wk) AS cw FROM w GROUP BY 1) "
        "SELECT c.cw AS cohort_week, w.wk - c.cw AS week_offset, "
        "count(*) AS n_users FROM w JOIN c USING (user_id) GROUP BY 1, 2"
    )


# ---------------------------------------------------------------------------
# Hierarchical ROLLUP aggregate (OLAP cube slice)
# ---------------------------------------------------------------------------

def events_rollup(sf_dir: str, num_buckets: int = 64):
    """GROUP BY ROLLUP (event_type, hour): event count + value sum at every
    level of the hierarchy — finest (type, hour) cells, per-type subtotals,
    and the grand total — in ONE pass over the data (the OLAP rollup
    primitive; the reference's summary stage prints exactly this shape of
    per-provider + overall flag tallies, titan.r:254-263). Values sum as
    exact integer millis (floor(value * 1000)) so the result is
    hash-identical to the SQL twin regardless of summation order; rollup
    coordinates surface as 'ALL' / -1, never NULL, so the row set is
    hash-comparable.

    Scale shape: a per-batch Arrow group_by collapses each batch to its
    local (type, hour) cells before the exchange; ONE bucket-keyed exchange
    (hour % B — every partial of a cell lands in its bucket) makes
    per-cell sums final; the subtotal and total levels re-aggregate the
    CELL table (n_types x n_hours rows, corpus-size independent) on the
    driver, never the data."""
    with_b = _user_buckets(num_buckets, key="hour")
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        hour = ts.cast(pa.int64()).to_numpy(zero_copy_only=False) // 3600_000_000
        vm = np.floor(batch["value"].to_numpy(zero_copy_only=False) * 1000.0).astype(np.int64)
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "hour": pa.array(hour),
                "vm": pa.array(vm),
            }
        )
        g = t.group_by(["event_type", "hour"]).aggregate([("vm", "sum"), ("vm", "count")])
        return with_b(pa.table({"event_type": g["event_type"], "hour": g["hour"],
                                "value_milli": g["vm_sum"].cast(pa.int64()),
                                "n": g["vm_count"].cast(pa.int64())}))

    cells = (
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                        "_b", sum_merge(["event_type", "hour"], ["n", "value_milli"]))
        .to_pandas()   # n_types x n_hours rows — the CUBE, not the data
    )
    sub = (
        cells.groupby("event_type", as_index=False)[["n", "value_milli"]].sum()
        .assign(hour=np.int64(-1))
    )
    total = pd.DataFrame(
        {"event_type": ["ALL"], "hour": np.int64(-1),
         "n": [cells["n"].sum()], "value_milli": [cells["value_milli"].sum()]}
    )
    out = pd.concat([cells, sub, total], ignore_index=True)
    out["n"] = out["n"].astype(np.int64)
    out["value_milli"] = out["value_milli"].astype(np.int64)
    return out[["event_type", "hour", "n", "value_milli"]]


def rollup_sql() -> str:
    """DuckDB replay of events_rollup (GROUP BY ROLLUP, sentinel coords)."""
    return (
        "WITH e AS (SELECT event_type, "
        "epoch_us(ts) // 3600000000 AS hour, "
        "CAST(floor(value * 1000) AS BIGINT) AS vm FROM events) "
        "SELECT coalesce(event_type, 'ALL') AS event_type, "
        "coalesce(hour, -1) AS hour, CAST(count(*) AS BIGINT) AS n, CAST(sum(vm) AS BIGINT) AS value_milli "
        "FROM e GROUP BY ROLLUP (event_type, hour)"
    )


# ---------------------------------------------------------------------------
# Distributed variance (second-moment aggregate)
# ---------------------------------------------------------------------------

def events_value_stats(sf_dir: str):
    """Per event_type: n, sum, sum-of-squares and the exact population
    variance in micro-units — the distributed-variance primitive (the
    reference's per-check summary statistics shape, titan.r:254-263),
    computed from associative integer moments so any partial/merge order
    gives the identical result: var_micro = floor((n·Σv² − (Σv)²) / n²)
    with v in integer millis (round-half-away, the _vm convention).

    Scale shape: per-batch Arrow group_by collapses each batch to
    |types| 3-int rows; the driver folds types x batches tiny partials.
    Moment magnitudes: Σv² grows as rows x vm² — int64 holds ~9.2e18, so
    at vm ~ 1e5 the int64 partial bound is ~1e9 rows per TYPE; above that
    promote the merge to Python bigints driver-side (the per-batch
    partials stay bounded by batch size regardless)."""
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        vm = _vm(batch)
        t = pa.table({"event_type": batch["event_type"], "vm": pa.array(vm),
                      "vm2": pa.array(vm * vm)})
        g = t.group_by("event_type").aggregate([("vm", "sum"), ("vm2", "sum"), ("vm", "count")])
        return pa.table(
            {
                "event_type": g["event_type"],
                "n": g["vm_count"].cast(pa.int64()),
                "s": g["vm_sum"].cast(pa.int64()),
                "s2": g["vm2_sum"].cast(pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby("event_type", as_index=False)[["n", "s", "s2"]].sum()
    # exact integer closed form, Python bigint (no int64 overflow in n*s2)
    var = [
        (int(n) * int(s2) - int(s) * int(s)) // (int(n) * int(n)) if n else 0
        for n, s, s2 in zip(out["n"], out["s"], out["s2"])
    ]
    out["var_micro"] = np.asarray(var, dtype=np.int64)
    for c in ("n", "s", "s2"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


def value_stats_sql() -> str:
    """DuckDB replay of events_value_stats (HUGEINT moments, same floor)."""
    return (
        "WITH e AS (SELECT event_type, CAST(round(value * 1000) AS HUGEINT) AS vm FROM events), "
        "m AS (SELECT event_type, count(*)::HUGEINT AS n, sum(vm) AS s, sum(vm*vm) AS s2 "
        "FROM e GROUP BY event_type) "
        "SELECT event_type, CAST(n AS BIGINT) AS n, CAST(s AS BIGINT) AS s, "
        "CAST(s2 AS BIGINT) AS s2, "
        "CAST((n*s2 - s*s) // (n*n) AS BIGINT) AS var_micro "
        "FROM m ORDER BY event_type"
    )


# ---------------------------------------------------------------------------
# Semi-structured field extraction (the ETL parse step)
# ---------------------------------------------------------------------------

def events_props_extract(sf_dir: str):
    """(event_id, k_val): the integer field ``k`` parsed out of the JSON
    ``props`` column — the semi-structured-payload parse step every event
    pipeline runs before it can aggregate on payload fields (the
    reference's configurable-column read is the flat-file version of
    this, read_data_to_check.r:31-66). Vectorized Arrow regex capture,
    stateless, zero shuffles; rows whose props carry no integer k
    surface as NULL (parse errors are data, not exceptions).

    DuckDB twin: json_extract — two independent parsers agreeing on
    every row is the check."""
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["event_id", "props"])

    def parse(batch: pa.Table) -> pa.Table:
        p = batch["props"]
        if isinstance(p, pa.ChunkedArray):
            p = p.combine_chunks()
        m = pc.extract_regex(p, r'"k":\s*(?P<v>-?\d+)')
        v = pc.struct_field(m, "v")
        return pa.table(
            {
                "event_id": batch["event_id"],
                "k_val": pc.cast(v, pa.int64()),
            }
        )

    return ds.map_batches(parse, batch_format="pyarrow")


def props_extract_sql() -> str:
    """DuckDB replay via its native JSON parser."""
    return (
        "SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) AS k_val "
        "FROM events"
    )


# ---------------------------------------------------------------------------
# Gap-fill: densify each user's hourly series (dimension generation)
# ---------------------------------------------------------------------------

def events_gapfill(sf_dir: str, num_buckets: int = 64):
    """(user_id, hour, n_events) over each user's COMPLETE hourly range —
    missing hours materialize as zero rows. The dimension-GENERATION
    primitive (rows the input doesn't contain): regular time grids for
    downstream window math, the stream analog of the reference gridding
    its scattered observations onto the full DEM raster (grid points with
    no nearby obs still get a row).

    Scale shape: per-batch Arrow group_by collapses events to (user, hour)
    partials before the ONE user-bucket exchange; inside a bucket the
    kernel finalizes counts, derives each user's [min, max] hour span, and
    scatters the observed counts into an arange-generated dense grid — all
    reduceat/repeat vector ops, no Python loop, nothing driver-sized.
    Output volume is Σ_user span_u (bounded by users x corpus timespan in
    hours), generated inside the buckets and streamed straight out."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        hour = ts.cast(pa.int64()).to_numpy(zero_copy_only=False) // 3600_000_000
        t = pa.table({"user_id": batch["user_id"], "hour": pa.array(hour)})
        g = t.group_by(["user_id", "hour"]).aggregate([("hour", "count")])
        return with_b(pa.table({"user_id": g["user_id"], "hour": g["hour"],
                                "n": g["hour_count"].cast(pa.int64())}))

    def per_bucket(t: pa.Table) -> pa.Table:
        order, k, _ = _user_order(t, "hour")
        u, h = k["user_id"][order], k["hour"][order]
        n = t["n"].to_numpy(zero_copy_only=False)[order]
        # finalize the per-(user, hour) counts (partials from many batches)
        first = np.concatenate([[True], (u[1:] != u[:-1]) | (h[1:] != h[:-1])])
        idx = np.flatnonzero(first)
        ns = np.add.reduceat(n, idx)
        uu, hh = u[idx], h[idx]
        # per-user span boundaries (uu still user-sorted, hours ascending)
        ustart = np.concatenate([[True], uu[1:] != uu[:-1]])
        uidx = np.flatnonzero(ustart)
        users = uu[uidx]
        seg_len = np.diff(np.concatenate([uidx, [len(uu)]]))
        mn = hh[uidx]
        mx = hh[uidx + seg_len - 1]
        spans = mx - mn + 1
        off = np.concatenate([[0], np.cumsum(spans)])
        tot = int(off[-1])
        g = np.repeat(np.arange(len(users)), spans)
        hours = mn[g] + (np.arange(tot, dtype=np.int64) - off[:-1][g])
        out_n = np.zeros(tot, dtype=np.int64)
        urow = np.repeat(np.arange(len(users)), seg_len)
        out_n[off[:-1][urow] + (hh - mn[urow])] = ns
        return pa.table(
            {
                "user_id": pa.array(users[g]),
                "hour": pa.array(hours),
                "n_events": pa.array(out_n),
            }
        )

    return (
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "_b", per_bucket)
    )


def gapfill_sql() -> str:
    """DuckDB replay of events_gapfill (generate_series over each user's
    [min, max] hour, observed counts left-joined in, gaps as zero)."""
    return (
        "WITH e AS (SELECT user_id, epoch_us(ts) // 3600000000 AS h FROM events), "
        "c AS (SELECT user_id, h, count(*) AS n FROM e GROUP BY user_id, h), "
        "b AS (SELECT user_id, min(h) AS mn, max(h) AS mx FROM e GROUP BY user_id), "
        "hrs AS (SELECT user_id, unnest(generate_series(mn, mx)) AS h FROM b) "
        "SELECT hrs.user_id, hrs.h AS hour, CAST(coalesce(c.n, 0) AS BIGINT) AS n_events "
        "FROM hrs LEFT JOIN c USING (user_id, h)"
    )


# ---------------------------------------------------------------------------
# CUBE: all 2^d grouping sets in one pass
# ---------------------------------------------------------------------------

def events_cube(sf_dir: str, num_buckets: int = 64):
    """GROUP BY CUBE (event_type, dow, hod): count + exact milli-value sum
    at ALL 8 grouping sets — the full OLAP cube over type x day-of-week x
    hour-of-day (rollup's generalization: every subset of the dims, not
    just the prefix hierarchy). Sentinels: 'ALL' / -1, never NULL, so the
    row set hash-compares.

    Scale shape (same as events_rollup): per-batch Arrow group_by collapses
    each batch to LOCAL finest cells before the ONE bucket-keyed exchange;
    the 7 coarser grouping sets re-aggregate the CELL table (at most
    n_types x 7 x 24 rows, corpus-size independent) on the driver — the
    cube derives from the cells, never from the data."""
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        hour = ts.cast(pa.int64()).to_numpy(zero_copy_only=False) // 3600_000_000
        # epoch day 0 = Thursday; ISO dow (Mon=1..Sun=7) matches DuckDB
        dow = ((hour // 24 + 3) % 7 + 1).astype(np.int64)
        hod = (hour % 24).astype(np.int64)
        vm = np.floor(batch["value"].to_numpy(zero_copy_only=False) * 1000.0).astype(np.int64)
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "dow": pa.array(dow),
                "hod": pa.array(hod),
                "vm": pa.array(vm),
            }
        )
        g = t.group_by(["event_type", "dow", "hod"]).aggregate(
            [("vm", "sum"), ("vm", "count")]
        )
        b = ((g["dow"].to_numpy(zero_copy_only=False) * 24
              + g["hod"].to_numpy(zero_copy_only=False)) % num_buckets)
        return pa.table(
            {
                "event_type": g["event_type"],
                "dow": g["dow"],
                "hod": g["hod"],
                "value_milli": g["vm_sum"].cast(pa.int64()),
                "n": g["vm_count"].cast(pa.int64()),
                "_b": pa.array(b.astype(np.int32)),
            }
        )

    cells = (
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                        "_b", sum_merge(["event_type", "dow", "hod"], ["n", "value_milli"]))
        .to_pandas()   # <= n_types x 7 x 24 rows — the cube, not the data
    )
    dims = ["event_type", "dow", "hod"]
    sentinel = {"event_type": "ALL", "dow": np.int64(-1), "hod": np.int64(-1)}
    levels = []
    for mask in range(8):          # bit i set -> dim i kept
        keep = [d for i, d in enumerate(dims) if mask >> i & 1]
        if len(keep) == 3:
            lv = cells.copy()
        elif keep:
            lv = cells.groupby(keep, as_index=False)[["n", "value_milli"]].sum()
        else:
            lv = pd.DataFrame({"n": [cells["n"].sum()],
                               "value_milli": [cells["value_milli"].sum()]})
        for d in dims:
            if d not in keep:
                lv[d] = sentinel[d]
        levels.append(lv[dims + ["n", "value_milli"]])
    out = pd.concat(levels, ignore_index=True)
    for c in ("dow", "hod", "n", "value_milli"):
        out[c] = out[c].astype(np.int64)
    return out


def cube_sql() -> str:
    """DuckDB replay of events_cube (GROUP BY CUBE, sentinel coords)."""
    return (
        "WITH e AS (SELECT event_type, isodow(ts) AS dow, hour(ts) AS hod, "
        "CAST(floor(value * 1000) AS BIGINT) AS vm FROM events) "
        "SELECT coalesce(event_type, 'ALL') AS event_type, "
        "coalesce(dow, -1) AS dow, coalesce(hod, -1) AS hod, "
        "CAST(count(*) AS BIGINT) AS n, CAST(sum(vm) AS BIGINT) AS value_milli "
        "FROM e GROUP BY CUBE (event_type, dow, hod)"
    )


# ---------------------------------------------------------------------------
# PIVOT: long -> wide (one column per category value)
# ---------------------------------------------------------------------------

def events_pivot(sf_dir: str, num_buckets: int = 64):
    """PIVOT events ON event_type USING count(*) GROUP BY user_id — the
    long-to-wide reshape: one row per user, one int64 column PER EVENT TYPE
    holding that user's count (absent combinations are 0). The feature-
    table build every ML pipeline ends with (per-entity behaviour vector);
    reference analog: the per-provider flag-count summary pivoted to one
    row per provider (titan.r:254-263).

    Scale shape: a cheap first pass discovers the category set (per-batch
    distinct -> vocabulary-sized driver list, broadcast into the closure —
    categories are low-cardinality by definition of a sensible pivot; a
    guard raises past MAX_PIVOT_COLS rather than building a degenerate
    10^6-column table). The main pass collapses each batch to (user, type)
    count partials, then ONE user-bucket exchange scatters each user's
    counts into the fixed wide row — per-bucket-final, nothing driver-
    sized. Output columns are named by the category values themselves
    (DuckDB PIVOT convention), so the twin hash-matches."""
    MAX_PIVOT_COLS = 10_000
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def type_partial(batch: pa.Table) -> pa.Table:
        u = np.unique(batch["event_type"].to_numpy(zero_copy_only=False).astype(object))
        return pa.table({"event_type": pa.array(u.astype(str))})

    types = sorted(
        ds.map_batches(type_partial, batch_format="pyarrow")
        .unique("event_type")
    )
    if len(types) > MAX_PIVOT_COLS:
        raise ValueError(
            f"events_pivot: {len(types)} categories exceed MAX_PIVOT_COLS="
            f"{MAX_PIVOT_COLS}; pivot on a bounded-cardinality column"
        )
    t_index = {t: i for i, t in enumerate(types)}

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["user_id", "event_type"]).aggregate([("event_type", "count")])
        return with_b(pa.table({"user_id": g["user_id"], "event_type": g["event_type"],
                                "n": g["event_type_count"].cast(pa.int64())}))

    def per_bucket(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        ty = t["event_type"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        users, uidx = np.unique(u, return_inverse=True)
        ci = np.array([t_index[x] for x in ty], dtype=np.int64)
        wide = np.zeros((len(users), len(types)), dtype=np.int64)
        np.add.at(wide, (uidx, ci), n)   # partials from many batches sum
        cols = {"user_id": pa.array(users)}
        for j, name in enumerate(types):
            cols[name] = pa.array(wide[:, j])
        return pa.table(cols)

    return (
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "_b", per_bucket)
    )


def pivot_sql() -> str:
    """DuckDB replay of events_pivot (native PIVOT)."""
    return "PIVOT events ON event_type USING count(*) GROUP BY user_id"


# ---------------------------------------------------------------------------
# Fused per-entity profile (the ML feature-table multi-aggregate)
# ---------------------------------------------------------------------------

def events_user_profile(sf_dir: str, num_buckets: int = 64):
    """One row per user with count, distinct-type count, first/last event
    time and exact milli-value sum — five aggregates of different classes
    (count, COUNT DISTINCT, min, max, sum) FUSED into one exchange: the
    per-entity profile build that precedes model training, done in a
    single pass instead of five.

    Scale shape: each batch collapses to (user, type) grain carrying all
    the partials (count/min/max/sum), so the COUNT DISTINCT rides the same
    rows as the scalar aggregates; ONE user-bucket exchange makes
    everything final (distinct type count = per-user distinct keys in the
    bucket). Rows crossing the wire: users x types x batches, corpus-size
    independent per batch."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["user_id", "event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        us = ts.cast(pa.int64())
        vm = np.floor(batch["value"].to_numpy(zero_copy_only=False) * 1000.0).astype(np.int64)
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "event_type": batch["event_type"],
                "us": us,
                "vm": pa.array(vm),
            }
        )
        g = t.group_by(["user_id", "event_type"]).aggregate(
            [("us", "count"), ("us", "min"), ("us", "max"), ("vm", "sum")]
        )
        return with_b(pa.table({"user_id": g["user_id"], "event_type": g["event_type"],
                                "n": g["us_count"].cast(pa.int64()), "mn": g["us_min"],
                                "mx": g["us_max"], "sm": g["vm_sum"].cast(pa.int64())}))

    def per_bucket(t: pa.Table) -> pa.Table:
        # collapse batch partials to (user, type) grain, then to user grain
        g = t.group_by(["user_id", "event_type"]).aggregate(
            [("n", "sum"), ("mn", "min"), ("mx", "max"), ("sm", "sum")]
        )
        f = g.group_by("user_id").aggregate(
            [("n_sum", "sum"), ("event_type", "count"),
             ("mn_min", "min"), ("mx_max", "max"), ("sm_sum", "sum")]
        )
        return pa.table(
            {
                "user_id": f["user_id"],
                "n_events": f["n_sum_sum"].cast(pa.int64()),
                "n_types": f["event_type_count"].cast(pa.int64()),
                "first_us": f["mn_min_min"],
                "last_us": f["mx_max_max"],
                "sum_milli": f["sm_sum_sum"].cast(pa.int64()),
            }
        )

    return (
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "_b", per_bucket)
    )


def user_profile_sql() -> str:
    """DuckDB replay of events_user_profile."""
    return (
        "SELECT user_id, CAST(count(*) AS BIGINT) AS n_events, "
        "CAST(count(DISTINCT event_type) AS BIGINT) AS n_types, "
        "epoch_us(min(ts)) AS first_us, epoch_us(max(ts)) AS last_us, "
        "CAST(sum(CAST(floor(value * 1000) AS BIGINT)) AS BIGINT) AS sum_milli "
        "FROM events GROUP BY user_id"
    )


# ---------------------------------------------------------------------------
# Cumulative sum (unbounded-preceding window frame)
# ---------------------------------------------------------------------------

def events_cumsum(sf_dir: str, num_buckets: int = 64):
    """(event_id, user_id, cum_milli): running exact-integer value total
    per user in (ts, event_id) order — SUM(...) OVER (PARTITION BY user
    ORDER BY ts ROWS UNBOUNDED PRECEDING), the classic prefix-sum window
    (balance/usage accumulation). Complements events_sliding_rate's
    bounded trailing frame with the unbounded one.

    Scale shape: one user-bucket exchange; inside a bucket ONE lexsort
    over (user, ts, event_id) then a single np.cumsum with per-user rebase
    (subtract the running total at each user's first row) — whole-bucket
    vectorized, no per-user loop. Milli-scaling makes the sum exact int64,
    so any partition order gives the identical result and the window twin
    hash-matches."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "ts", "value"])

    def bucketize(batch: pa.Table) -> pa.Table:
        vm = np.floor(batch["value"].to_numpy(zero_copy_only=False) * 1000.0).astype(np.int64)
        return with_b(pa.table({"event_id": batch["event_id"], "user_id": batch["user_id"],
                                "ts": batch["ts"], "vm": pa.array(vm)}))

    def per_bucket(t: pa.Table) -> pa.Table:
        order, k, new_u = _user_order(t, "ts", "event_id")
        u_s, vm_s = k["user_id"][order], t["vm"].to_numpy(zero_copy_only=False)[order]
        csum = np.cumsum(vm_s)
        # running total just BEFORE each user's first row, spread per row
        base = np.where(new_u, csum - vm_s, 0)
        base = base[np.flatnonzero(new_u)][np.cumsum(new_u) - 1]
        cum = csum - base
        return pa.table(
            {
                "event_id": pa.array(k["event_id"][order]),
                "user_id": pa.array(u_s),
                "cum_milli": pa.array(cum.astype(np.int64)),
            }
        )

    return (
        bucket_exchange(ds.map_batches(bucketize, batch_format="pyarrow"), "_b", per_bucket)
    )


def cumsum_sql() -> str:
    """DuckDB replay of events_cumsum (window prefix sum)."""
    return (
        "SELECT event_id, user_id, "
        "CAST(sum(CAST(floor(value * 1000) AS BIGINT)) OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT) AS cum_milli "
        "FROM events"
    )


# ---------------------------------------------------------------------------
# Out-of-order detection (the streaming watermark primitive)
# ---------------------------------------------------------------------------

def events_out_of_order(sf_dir: str, num_buckets: int = 64):
    """(event_id, user_id, lateness_us, is_late): for each event, how far
    its timestamp sits BEHIND the running per-user maximum over earlier
    arrivals (arrival order = event_id), and whether it is late at all —
    the watermark / late-data primitive every streaming ingest needs
    (reference analog: metadata_check's stale-timestamp screen,
    titan.r:117-121, lifted from a static bound to the per-stream high-
    water mark).

    Scale shape: one user-bucket exchange; inside a bucket a single sort
    by (user, event_id) and a per-user running-max (grouped cummax, C-
    vectorized) — no Python loop, nothing driver-sided. Exact int64
    microsecond arithmetic, so the window twin hash-matches."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "ts"])

    def bucketize(batch: pa.Table) -> pa.Table:
        return with_b(batch.select(["event_id", "user_id", "ts"]))

    def per_bucket(t: pa.Table) -> pa.Table:
        order, k, new_u = _user_order(t, "event_id")
        eid, u_s = k["event_id"][order], k["user_id"][order]
        us_s = t["ts"].cast(pa.int64()).to_numpy()[order]
        # running max over PRECEDING rows only: cummax shifted one row down
        # within each user (first arrival has no watermark -> lateness 0)
        cm = pd.Series(us_s).groupby(pd.Series(u_s), sort=False).cummax().to_numpy()
        prev = np.empty_like(cm)
        prev[1:] = cm[:-1]
        prev[new_u] = us_s[new_u]   # no watermark before the first arrival
        late = np.maximum(prev - us_s, 0)
        return pa.table(
            {
                "event_id": pa.array(eid),
                "user_id": pa.array(u_s),
                "lateness_us": pa.array(late.astype(np.int64)),
                "is_late": pa.array(late > 0),
            }
        )

    return (
        bucket_exchange(ds.map_batches(bucketize, batch_format="pyarrow"), "_b", per_bucket)
    )


def out_of_order_sql() -> str:
    """DuckDB replay of events_out_of_order (shifted window max)."""
    return (
        "WITH w AS (SELECT event_id, user_id, epoch_us(ts) AS us, "
        "max(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY event_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS hwm FROM events) "
        "SELECT event_id, user_id, "
        "CAST(greatest(coalesce(hwm - us, 0), 0) AS BIGINT) AS lateness_us, "
        "coalesce(hwm - us, 0) > 0 AS is_late FROM w"
    )


def events_value_median(sf_dir: str, q: float = 0.5, num_bins: int = 256,
                        exact_below: int = 4096, max_passes: int = 8):
    """(n, median_vm): the EXACT q-th order statistic (quantile_disc rule:
    sorted[ceil(q*n) - 1]) of the integer-milli event value — over an
    UNBOUNDED value domain, where the bounded-histogram trick behind
    doc_length_quantiles / doc_quantile_filter does not apply.

    Machine class the surface lacked: driver-COORDINATED adaptive
    refinement (distributed selection). Pass 0 streams (min, max, count)
    partials; each refinement pass histograms the current [lo, hi] bracket
    into ``num_bins`` equal-width bins plus a below-bracket count, the
    driver walks the tiny cumulative histogram to re-bracket the target
    rank, and the loop repeats until the bracket is narrow enough for one
    exact per-value count. Convergence: bracket width shrinks x num_bins
    per pass, so passes = ceil(log_256(range)) + 1 — a 2^63 domain is 8
    streaming scans of ONE pruned int64 column, each reducing to <= 257
    rows per batch; nothing data-sized ever reaches the driver."""
    import pandas as pd

    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["value"])

    def extent_partial(batch: pa.Table) -> pa.Table:
        vm = _vm(batch)
        if len(vm) == 0:
            return pa.table({"lo": pa.array([], type=pa.int64()),
                             "hi": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        return pa.table({"lo": pa.array([int(vm.min())]),
                         "hi": pa.array([int(vm.max())]),
                         "n": pa.array([np.int64(len(vm))])})

    ext = ds.map_batches(extent_partial, batch_format="pyarrow").to_pandas()
    if ext.empty or ext["n"].sum() == 0:
        return pd.DataFrame([{"n": np.int64(0), "median_vm": np.int64(0)}])
    n = int(ext["n"].sum())
    lo, hi = int(ext["lo"].min()), int(ext["hi"].max())
    rank = max(1, int(np.ceil(q * n)))  # 1-based target rank: ceil(q*n)

    def hist_pass(lo_: int, hi_: int, width: int):
        def partial(batch: pa.Table) -> pa.Table:
            vm = _vm(batch)
            below = np.int64((vm < lo_).sum())
            sel = vm[(vm >= lo_) & (vm <= hi_)]
            b = (sel - lo_) // width
            cnt = np.bincount(b, minlength=0).astype(np.int64)
            nz = np.nonzero(cnt)[0]
            bins = np.concatenate([[-1], nz]).astype(np.int64)
            cs = np.concatenate([[below], cnt[nz]]).astype(np.int64)
            keep = cs != 0
            return pa.table({"bin": pa.array(bins[keep]), "cnt": pa.array(cs[keep])})

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        return parts.groupby("bin")["cnt"].sum()  # <= num_bins+1 rows

    passes = 0
    while hi - lo + 1 > exact_below:
        assert passes < max_passes, "selection bracket failed to converge"
        width = (hi - lo) // num_bins + 1
        agg = hist_pass(lo, hi, width)
        below = int(agg.get(-1, 0))
        t = rank - below
        cum = 0
        for b in sorted(k for k in agg.index if k >= 0):
            cum += int(agg[b])
            if cum >= t:
                lo, hi = lo + int(b) * width, min(hi, lo + (int(b) + 1) * width - 1)
                break
        passes += 1

    # exact per-value count inside the final bracket (width 1 bins)
    agg = hist_pass(lo, hi, 1)
    below = int(agg.get(-1, 0))
    t = rank - below
    cum = 0
    med = lo
    for b in sorted(k for k in agg.index if k >= 0):
        cum += int(agg[b])
        if cum >= t:
            med = lo + int(b)
            break
    return pd.DataFrame([{"n": np.int64(n), "median_vm": np.int64(med)}])


def value_median_sql(q: float = 0.5) -> str:
    """DuckDB replay of events_value_median."""
    return (
        "SELECT count(*) AS n, "
        f"quantile_disc(CAST(round(value*1000) AS BIGINT), {q}) AS median_vm "
        "FROM events"
    )


# ---------------------------------------------------------------------------
# Market-basket co-occurrence (frequent-itemset support) — the itemset
# machine class: for every unordered pair of event types, how many users
# emitted BOTH. Order-free set co-occurrence, the complement of
# conv_role_transitions' ordered bigrams and graph_triangles' closure.
# ---------------------------------------------------------------------------


def events_cooccurrence(sf_dir: str, num_buckets: int = 64):
    """(type_a, type_b, n_users) for every unordered event-type pair with
    type_a < type_b (binary string order — the SQL join predicate), counting
    users whose stream contains both types.

    Scale shape: per-batch Arrow group_by collapses the stream to DISTINCT
    (user_id, event_type) partials before the exchange — event volume never
    crosses the wire, only ≤ n_users × n_types pairs.  ONE user-bucket
    groupby co-locates each user's whole type set, so per-bucket pair
    supports are over disjoint user populations; the driver merge sums
    ≤ num_buckets × C(n_types, 2) tiny rows (n_types is a catalogue-sized
    enum — 5 in the driver tables, bounded ~100s in practice; the pair
    stream is C(n_types,2) ints per bucket, never user-sized)."""
    from ..functions.strings import multi_arange

    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        return with_b(batch.group_by(["user_id", "event_type"]).aggregate([]))

    def bucket_pairs(t: pa.Table) -> pa.Table:
        # re-distinct across batch partials, then emit each user's sorted
        # type-code pairs: np.unique sorts the row pairs, so each user's
        # codes are ascending — pair (i, j>i) satisfies type_a < type_b
        # because codes come from the sorted type vocabulary
        types, codes = np.unique(
            np.asarray(t["event_type"].to_pandas(), dtype=object),
            return_inverse=True)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        uc = np.unique(np.stack([uid, codes.astype(np.int64)]), axis=1)
        u, code = uc[0], uc[1]
        seg_new = np.r_[True, u[1:] != u[:-1]]
        seg_id = np.cumsum(seg_new) - 1
        ends = np.r_[np.flatnonzero(seg_new)[1:], len(u)]  # per-seg end idx
        n = len(u)
        reps = (ends[seg_id] - np.arange(n) - 1).astype(np.int64)
        a = np.repeat(np.arange(n), reps)                   # first of pair
        b = multi_arange((np.arange(n) + 1).astype(np.int64), reps)
        if len(a) == 0:
            return pa.table({"type_a": pa.array([], type=pa.string()),
                             "type_b": pa.array([], type=pa.string()),
                             "n_users": pa.array([], type=pa.int64())})
        pair_key = code[a] * len(types) + code[b]
        keys, counts = np.unique(pair_key, return_counts=True)
        ta = types[(keys // len(types)).astype(np.int64)]
        tb = types[(keys % len(types)).astype(np.int64)]
        return pa.table(
            {
                "type_a": pa.array(ta, type=pa.string()),
                "type_b": pa.array(tb, type=pa.string()),
                "n_users": pa.array(counts.astype(np.int64)),
            }
        )

    part = (
        bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"), "_b", bucket_pairs)
        .to_pandas()  # <= num_buckets x C(n_types, 2) rows
    )
    out = (
        part.groupby(["type_a", "type_b"], sort=False, as_index=False)["n_users"]
        .sum()
    )
    return out


def cooccurrence_sql() -> str:
    """DuckDB replay: distinct (user, type) self-join with type_a < type_b."""
    return (
        "WITH ut AS (SELECT DISTINCT user_id, event_type FROM events) "
        "SELECT a.event_type AS type_a, b.event_type AS type_b, "
        "count(*) AS n_users FROM ut a JOIN ut b ON a.user_id = b.user_id "
        "AND a.event_type < b.event_type GROUP BY 1, 2"
    )


def events_window_distinct(sf_dir: str, window_us: int = SLIDE_WINDOW_US,
                           num_buckets: int = 64):
    """Per event: how many DISTINCT event types the SAME user emitted in the
    trailing ``window_us`` RANGE frame [ts - W, ts] — the windowed
    COUNT(DISTINCT) class: unlike the sliding count/sum, distinct is not
    subtractable, so no prefix-difference of one array reproduces it.

    Scale shape: same narrow stream + ONE user-bucket exchange as
    events_sliding_rate; the per-bucket kernel factorizes the type
    catalogue (enum-sized — 5 in the driver tables, bounded ~100s in
    practice) and loops over TYPES, not rows: one per-type prefix-count
    array + the two whole-bucket searchsorted frame boundaries turn each
    type into a vectorized presence test, O(n_types) passes of O(rows)
    work and O(rows) scratch — never an O(rows x types) matrix. RANGE
    frames include ts-peers regardless of row order, and the boundaries
    are value-based, so the result is well-defined under duplicate
    timestamps with no tiebreaker."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "ts", "event_type"])

    def bucketize(batch: pa.Table) -> pa.Table:
        return with_b(batch.select(["event_id", "user_id", "ts", "event_type"]))

    def per_bucket(t: pa.Table) -> pa.Table:
        types, codes = np.unique(
            np.asarray(t["event_type"].to_pandas(), dtype=object),
            return_inverse=True)
        order, k, new = _user_order(t, "ts")
        eid = t["event_id"].to_numpy(zero_copy_only=False)[order]
        ts, codes = k["ts"][order], codes[order]
        rel = ts - ts.min()
        uidx = np.cumsum(new) - 1
        stride = int(rel.max()) + window_us + 1
        assert int(uidx[-1]) * stride < 2**63, "window-distinct stride overflow"
        adj = rel + uidx * stride
        hi = np.searchsorted(adj, adj, side="right")
        lo = np.searchsorted(adj, adj - window_us, side="left")
        n = np.zeros(len(eid), dtype=np.int64)
        for tcode in range(len(types)):          # catalogue-sized loop
            pref = np.r_[0, np.cumsum(codes == tcode)]
            n += pref[hi] > pref[lo]             # type present in frame?
        return pa.table({"event_id": pa.array(eid), "n_types_win": pa.array(n)})

    return (
        bucket_exchange(ds.map_batches(bucketize, batch_format="pyarrow"), "_b", per_bucket)
    )


def window_distinct_sql(window_us: int = SLIDE_WINDOW_US) -> str:
    """DuckDB replay: count(DISTINCT) over the same RANGE-INTERVAL frame."""
    return (
        "SELECT event_id, CAST(count(DISTINCT event_type) OVER ("
        "PARTITION BY user_id ORDER BY ts "
        f"RANGE BETWEEN INTERVAL {window_us} MICROSECONDS PRECEDING AND CURRENT ROW) "
        "AS BIGINT) AS n_types_win FROM events"
    )


MEDIAN_FRAME_ROWS = 8   # trailing ROWS frame width for the sliding median


def events_window_median(sf_dir: str, k: int = MEDIAN_FRAME_ROWS,
                         num_buckets: int = 64):
    """Per event: the LOWER MEDIAN (quantile_disc 0.5 — an existing
    element, so doubles compare bit-exactly with no arithmetic) of
    ``value`` over the same user's trailing ``k``-row frame
    [ROWS k-1 PRECEDING .. CURRENT ROW], ordered by (ts, event_id) — the
    robust-smoothing window. Third non-subtractable window class: the
    sliding count/sum is a prefix difference, windowed DISTINCT is a
    presence test, but an ORDER STATISTIC depends on the ranking of the
    whole frame — evicting one value can move the median anywhere.

    Scale shape: the narrow (event_id, user_id, ts, value) stream + ONE
    user-bucket exchange (the events_window_distinct convention). The
    per-bucket kernel never loops rows: full frames (user-relative
    position >= k-1, never crossing a user boundary) come from ONE
    sliding_window_view + axis-1 sort — O(rows · k log k) with O(rows·k)
    scratch bounded by small constant k; the k-1 ragged head positions
    (one row per user per length) are each ONE gathered (users × j)
    matrix sort. ROWS frames need a total order under duplicate
    timestamps — event_id breaks ties, exactly the twin's ORDER BY."""
    assert k >= 1
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "ts", "value"])

    def bucketize(batch: pa.Table) -> pa.Table:
        return with_b(batch.select(["event_id", "user_id", "ts", "value"]))

    def per_bucket(t: pa.Table) -> pa.Table:
        order, keys, new = _user_order(t, "ts", "event_id")
        eid, val = keys["event_id"][order], t["value"].to_numpy(zero_copy_only=False)[order]
        starts = np.nonzero(new)[0]
        pos = np.arange(len(eid)) - np.repeat(starts, np.diff(np.r_[starts, len(eid)]))
        out = np.empty(len(eid), dtype=np.float64)
        full = pos >= k - 1
        if full.any():                     # frames wholly inside one user
            sw = np.lib.stride_tricks.sliding_window_view(val, k)
            rows = np.nonzero(full)[0]
            out[rows] = np.sort(sw[rows - (k - 1)], axis=1)[:, (k - 1) // 2]
        for j in range(1, min(k, int(pos.max()) + 2)):   # ragged heads
            rows = np.nonzero(pos == j - 1)[0]           # <= one per user
            if not len(rows):
                continue
            frames = val[rows[:, None] - np.arange(j - 1, -1, -1)[None, :]]
            out[rows] = np.sort(frames, axis=1)[:, (j - 1) // 2]
        return pa.table({"event_id": pa.array(eid), "med_win": pa.array(out)})

    return (
        bucket_exchange(ds.map_batches(bucketize, batch_format="pyarrow"), "_b", per_bucket)
    )


def window_median_sql(k: int = MEDIAN_FRAME_ROWS) -> str:
    """DuckDB replay: quantile_disc(0.5) over the same ROWS frame."""
    return (
        "SELECT event_id, quantile_disc(value, 0.5) OVER ("
        "PARTITION BY user_id ORDER BY ts, event_id "
        f"ROWS BETWEEN {k - 1} PRECEDING AND CURRENT ROW) "
        "AS med_win FROM events"
    )


PATH_K = 3          # first-K event types form the path signature


def events_top_paths(sf_dir: str, k: int = PATH_K, num_buckets: int = 64):
    """(path, n_users): the frequency histogram of each user's ordered
    first-``k`` event-type sequence ('signup>click>purchase') — the
    sequence-pattern-mining class: the funnel gates unordered first-touch
    mins and the transition matrix sees only bigrams; this is the full
    ordered prefix as a value.

    Scale shape: per-batch local first-k pruning (rank-within-user via one
    lexsort — the first k of a union is the first k of each side's first
    k, so the prune is ASSOCIATIVE and event volume never crosses the
    wire: ≤ k rows per (user, batch)); ONE user-bucket exchange
    co-locates each user's survivors; inside a bucket users collapse to
    base-(n_types+1) integer path keys (sentinel 0 pads users with < k
    events, so 'a' ≠ 'a>a'), np.unique counts them, and ONLY the ≤
    (n_types+1)^k distinct keys are decoded to strings — per-bucket
    output is catalogue-sized, the driver merge sums B × |paths| tiny
    rows. Ties inside a timestamp break by event_id (the SQL ORDER BY)."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "ts", "event_type"])

    def first_k_local(batch: pa.Table) -> pa.Table:
        batch = batch.select(["event_id", "user_id", "ts", "event_type"])
        order, _, new = _user_order(batch, "ts", "event_id")
        starts = np.flatnonzero(new)
        rank = np.arange(len(order)) - starts[np.cumsum(new) - 1]
        return with_b(batch.take(pa.array(np.sort(order[rank < k]))))

    def bucket_paths(t: pa.Table) -> pa.Table:
        types, codes = np.unique(
            np.asarray(t["event_type"].to_pandas(), dtype=object),
            return_inverse=True)
        order, _, new = _user_order(t, "ts", "event_id")
        c = codes[order].astype(np.int64)
        uidx = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        rank = np.arange(len(order)) - starts[uidx]
        base = len(types) + 1
        # key = sum over positions of (code+1) * base^(k-1-rank); sentinel 0
        m = rank < k
        weights = base ** (k - 1 - rank[m])
        key = np.zeros(int(uidx[-1]) + 1, dtype=np.int64)
        np.add.at(key, uidx[m], (c[m] + 1) * weights)
        ukeys, counts = np.unique(key, return_counts=True)
        # decode the catalogue-sized distinct keys to path strings
        paths = []
        for kk in ukeys:
            digs = []
            for p in range(k - 1, -1, -1):
                d = (kk // base**p) % base
                if d > 0:
                    digs.append(str(types[d - 1]))
            paths.append(">".join(digs))
        return pa.table({"path": pa.array(paths, pa.string()),
                         "n_users": pa.array(counts.astype(np.int64))})

    part = (
        bucket_exchange(ds.map_batches(first_k_local, batch_format="pyarrow"), "_b", bucket_paths)
        .to_pandas()  # <= num_buckets x (n_types+1)^k rows
    )
    return part.groupby("path", sort=False, as_index=False)["n_users"].sum()


def top_paths_sql(k: int = PATH_K) -> str:
    """DuckDB replay: row_number first-k prefix, ordered string_agg, count."""
    return (
        "SELECT path, count(*) AS n_users FROM ("
        "SELECT user_id, string_agg(event_type, '>' ORDER BY ts, event_id) AS path "
        "FROM (SELECT user_id, ts, event_id, event_type, row_number() OVER ("
        "PARTITION BY user_id ORDER BY ts, event_id) AS rn FROM events) "
        f"WHERE rn <= {k} GROUP BY user_id) GROUP BY path"
    )


def events_interval_coverage(sf_dir: str, num_buckets: int = 64):
    """(user_id, covered_us, n_runs, n_events): total length of the UNION of
    each user's event intervals [ts, ts + value seconds], overlaps merged —
    the interval-union machine class: unlike every windowed/sessionized
    aggregate above, the quantity is defined over the merged geometry of
    ranges, not over rows, so neither a frame nor a gap threshold expresses
    it. `n_runs` counts the disjoint merged runs (a session analog where the
    session is defined by range overlap, not inter-arrival gap).

    Scale shape: one narrow projection (user_id, start_us, end_us, event_id
    — durations in EXACT integer microseconds via the shared milli-scaling,
    negatives clamped to empty) + ONE user-bucket exchange; the per-bucket
    kernel is one lexsort + a per-user running max of interval ends
    (maximum.accumulate over group-offset values — no Python loop) + one
    reduceat. Nothing user-catalogue-sized ever reaches the driver.
    """
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "ts", "value"])

    def bucketize(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        s = ts.cast(pa.int64()).to_numpy(zero_copy_only=False)
        dur = np.maximum(_vm(batch), 0) * 1000  # value sec -> exact us
        return with_b(pa.table({"event_id": batch["event_id"], "user_id": batch["user_id"],
                                "s": pa.array(s), "e": pa.array(s + dur)}))

    def per_bucket(t: pa.Table) -> pa.Table:
        order, k, new = _user_order(t, "s", "e", "event_id")
        uid, s, e = k["user_id"][order], k["s"][order], k["e"][order]
        uidx = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        # per-user cummax of e without a loop: offset each user's values into
        # a disjoint band, accumulate globally, then strip the band. Values
        # are made small relative to int64 by rebasing on the bucket min.
        base = s.min()
        e_rel = e - base
        stride = int(e_rel.max()) + 1
        assert int(uidx[-1]) * stride < 2**62, "interval-coverage stride overflow"
        cm = np.maximum.accumulate(uidx * stride + e_rel) - uidx * stride
        prev = np.empty_like(cm)
        prev[1:] = cm[:-1]
        prev[starts] = np.iinfo(np.int64).min  # no predecessor in user
        s_rel = s - base
        run_start = s_rel > prev  # group starts qualify via the sentinel
        contrib = e_rel - np.maximum(s_rel, prev)
        contrib[run_start] = (e_rel - s_rel)[run_start]
        np.maximum(contrib, 0, out=contrib)
        return pa.table(
            {
                "user_id": pa.array(uid[starts]),
                "covered_us": pa.array(np.add.reduceat(contrib, starts)),
                "n_runs": pa.array(np.add.reduceat(run_start.astype(np.int64), starts)),
                "n_events": pa.array(np.diff(np.r_[starts, len(uid)]).astype(np.int64)),
            }
        )

    return (
        bucket_exchange(ds.map_batches(bucketize, batch_format="pyarrow"), "_b", per_bucket)
    )


def interval_coverage_sql() -> str:
    """DuckDB replay: grouped cummax over the previous rows of the same
    (s, e, event_id) order, gap/overlap CASE, exact integer us."""
    return (
        "WITH iv AS (SELECT user_id, event_id, epoch_us(ts) AS s, "
        "epoch_us(ts) + GREATEST(CAST(floor(abs(value)*1000 + 0.5) AS BIGINT)"
        " * CAST(sign(value) AS BIGINT), 0) * 1000 AS e FROM events), "
        "w AS (SELECT user_id, s, e, max(e) OVER (PARTITION BY user_id "
        "ORDER BY s, e, event_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 "
        "PRECEDING) AS pm FROM iv) "
        "SELECT user_id, "
        "CAST(sum(CASE WHEN pm IS NULL OR s > pm THEN e - s "
        "WHEN e > pm THEN e - pm ELSE 0 END) AS BIGINT) AS covered_us, "
        "CAST(sum(CASE WHEN pm IS NULL OR s > pm THEN 1 ELSE 0 END) AS BIGINT) AS n_runs, "
        "CAST(count(*) AS BIGINT) AS n_events "
        "FROM w GROUP BY user_id"
    )


def events_streaks(sf_dir: str, num_buckets: int = 64):
    """(user_id, max_streak, streak_type): each user's LONGEST run of
    consecutive identical event types in (ts, event_id) order, with the
    type that achieved it (ties -> the earliest run) — the gaps-and-islands
    class on VALUE CHANGES: sessions cut runs by inter-arrival gaps and
    dup-spans by content hashes; this cuts by adjacent-value inequality,
    the row_number-difference island construction.

    Scale shape: ONE user-bucket exchange of the narrow (user, ts,
    event_id, type) stream; the per-bucket kernel is one lexsort + one
    run-boundary diff (runs = rows where user or type changes) + one
    argmax-per-user lexsort over the RUN table (<= rows, usually far
    fewer). Nothing reaches the driver."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "ts", "event_type"])

    def bucketize(batch: pa.Table) -> pa.Table:
        return with_b(batch.select(["event_id", "user_id", "ts", "event_type"]))

    def per_bucket(t: pa.Table) -> pa.Table:
        types, codes = np.unique(
            np.asarray(t["event_type"].to_pandas(), dtype=object),
            return_inverse=True)
        order, k, new_user = _user_order(t, "ts", "event_id")
        uid, codes = k["user_id"][order], codes[order]
        new_run = new_user.copy()
        new_run[1:] |= codes[1:] != codes[:-1]
        starts = np.flatnonzero(new_run)
        run_len = np.diff(np.r_[starts, len(uid)]).astype(np.int64)
        run_uid = uid[starts]
        run_code = codes[starts]
        # argmax per user: longest first, earliest (per-user time-ordered
        # position) breaks ties
        o2 = np.lexsort((starts, -run_len, run_uid))
        first = np.r_[True, run_uid[o2][1:] != run_uid[o2][:-1]]
        w = o2[first]
        return pa.table(
            {
                "user_id": pa.array(run_uid[w]),
                "max_streak": pa.array(run_len[w]),
                "streak_type": pa.array(types[run_code[w]], type=pa.string()),
            }
        )

    return (
        bucket_exchange(ds.map_batches(bucketize, batch_format="pyarrow"), "_b", per_bucket)
    )


def streaks_sql() -> str:
    """DuckDB replay: the row_number-difference island construction, argmax
    run per user with earliest-run tie-break."""
    return (
        "WITH o AS (SELECT user_id, event_type, "
        "row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn, "
        "row_number() OVER (PARTITION BY user_id, event_type ORDER BY ts, event_id) AS rn2 "
        "FROM events), "
        "runs AS (SELECT user_id, event_type, count(*) AS len, min(rn) AS pos "
        "FROM o GROUP BY user_id, event_type, rn - rn2) "
        "SELECT user_id, CAST(len AS BIGINT) AS max_streak, "
        "event_type AS streak_type FROM ("
        "SELECT *, row_number() OVER (PARTITION BY user_id "
        "ORDER BY len DESC, pos) AS r FROM runs) WHERE r = 1"
    )


# ---------------------------------------------------------------------------
# Shared-scan multi-selection and dependent selection — two compositions of
# the distributed-selection machine events_value_median introduced:
#   * events_value_quartiles: K exact order statistics PER GROUP, all
#     brackets refined inside the SAME streaming pass (one scan serves
#     |groups| x |quantiles| selections, instead of one scan each);
#   * events_value_mad: the median absolute deviation — a SECOND selection
#     whose value transform depends on the FIRST selection's result
#     (nested order statistics; not expressible as one histogram pass).
# Reference analog: the per-provider admissible bands in titan.r are
# quantile cuts over each provider's value stream — at scale that is
# exactly the grouped multi-quantile shape.
# ---------------------------------------------------------------------------


def _rank_from_hist(agg, rank: int, lo: int, width: int):
    """Walk a merged (bin -> count) histogram (bin -1 = below-bracket) and
    return the sub-bracket [lo', hi'] containing the 1-based target rank."""
    below = int(agg.get(-1, 0))
    t = rank - below
    cum = 0
    for b in sorted(k for k in agg.index if k >= 0):
        cum += int(agg[b])
        if cum >= t:
            return lo + int(b) * width, lo + (int(b) + 1) * width - 1
    raise AssertionError("rank outside bracket")  # pragma: no cover


def events_value_quartiles(sf_dir: str, qs=(0.25, 0.5, 0.75, 0.95),
                           num_bins: int = 256, max_passes: int = 8):
    """One row per event_type: count plus the EXACT p25/p50/p75/p95 of the
    integer-milli value (quantile_disc rule sorted[ceil(q*n)-1]).

    Machine class: SHARED-SCAN multi-target selection. Every still-open
    (group, quantile) bracket is refined by the SAME map_batches pass —
    each batch emits, per target, a below-bracket count plus <=256 in-
    bracket bin counts keyed by target id; the driver merges the tiny
    (tid, bin) table and re-brackets all targets at once. Passes are
    bounded by the WIDEST bracket (ceil(log_256(range)) + 1), not by the
    number of targets, so |groups| x |quantiles| exact quantiles cost the
    same number of corpus scans as ONE median. Nothing data-sized reaches
    the driver: pass partials are <= targets x 257 rows per batch."""
    import pandas as pd

    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_type", "value"])

    def extent_partial(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch["event_type"].to_pandas(), dtype=object)
        vm = _vm(batch)
        types, codes = np.unique(et, return_inverse=True)
        lo = np.full(len(types), np.iinfo(np.int64).max, dtype=np.int64)
        hi = np.full(len(types), np.iinfo(np.int64).min, dtype=np.int64)
        np.minimum.at(lo, codes, vm)
        np.maximum.at(hi, codes, vm)
        n = np.bincount(codes, minlength=len(types)).astype(np.int64)
        return pa.table({"g": pa.array(types, type=pa.string()),
                         "lo": pa.array(lo), "hi": pa.array(hi),
                         "n": pa.array(n)})

    ext = ds.map_batches(extent_partial, batch_format="pyarrow").to_pandas()
    if ext.empty:
        cols = {"event_type": pd.Series([], dtype=object),
                "n": pd.Series([], dtype=np.int64)}
        for q in qs:
            cols[f"p{int(q * 100)}_vm"] = pd.Series([], dtype=np.int64)
        return pd.DataFrame(cols)
    gext = ext.groupby("g").agg(lo=("lo", "min"), hi=("hi", "max"),
                                n=("n", "sum"))

    # one target per (group, quantile): [g, q, rank, lo, hi, result]
    targets = []
    for g, row in gext.iterrows():
        for q in qs:
            rank = max(1, int(np.ceil(q * int(row["n"]))))
            targets.append({"g": g, "q": q, "rank": rank,
                            "lo": int(row["lo"]), "hi": int(row["hi"]),
                            "done": None})

    def hist_pass(open_targets):
        """ONE scan refining every open target; spec is a tiny broadcast
        (|groups| x |quantiles| entries) captured in the task closure."""
        spec = [(t["g"], t["lo"], t["hi"],
                 (t["hi"] - t["lo"]) // num_bins + 1) for t in open_targets]

        def partial(batch: pa.Table) -> pa.Table:
            et = np.asarray(batch["event_type"].to_pandas(), dtype=object)
            vm = _vm(batch)
            tids, bins, cnts = [], [], []
            for tid, (g, lo_, hi_, width) in enumerate(spec):
                gv = vm[et == g]
                below = np.int64((gv < lo_).sum())
                sel = gv[(gv >= lo_) & (gv <= hi_)]
                cnt = np.bincount((sel - lo_) // width).astype(np.int64)
                nz = np.nonzero(cnt)[0]
                b = np.concatenate([[-1], nz]).astype(np.int64)
                c = np.concatenate([[below], cnt[nz]]).astype(np.int64)
                keep = c != 0
                tids.append(np.full(int(keep.sum()), tid, dtype=np.int64))
                bins.append(b[keep])
                cnts.append(c[keep])
            if not tids:
                return pa.table({"tid": pa.array([], type=pa.int64()),
                                 "bin": pa.array([], type=pa.int64()),
                                 "cnt": pa.array([], type=pa.int64())})
            return pa.table({"tid": pa.array(np.concatenate(tids)),
                             "bin": pa.array(np.concatenate(bins)),
                             "cnt": pa.array(np.concatenate(cnts))})

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        return parts.groupby(["tid", "bin"])["cnt"].sum(), spec

    # refine until every bracket fits in one width-1 histogram (<= num_bins
    # values), so the closing pass pins all targets exactly in one scan
    passes = 0
    while True:
        open_t = [t for t in targets
                  if t["done"] is None and t["hi"] - t["lo"] + 1 > num_bins]
        if not open_t:
            break
        assert passes < max_passes, "selection brackets failed to converge"
        agg, spec = hist_pass(open_t)
        for tid, t in enumerate(open_t):
            lo2, hi2 = _rank_from_hist(agg.loc[tid], t["rank"],
                                       spec[tid][1], spec[tid][3])
            t["lo"], t["hi"] = lo2, min(t["hi"], hi2)
        passes += 1

    # final exact pass: every bracket <= num_bins wide -> width 1 for all
    open_t = [t for t in targets if t["done"] is None]
    if open_t:
        agg, spec = hist_pass(open_t)
        for tid, t in enumerate(open_t):
            lo2, _ = _rank_from_hist(agg.loc[tid], t["rank"],
                                     spec[tid][1], spec[tid][3])
            t["done"] = lo2

    rows = {}
    for t in targets:
        r = rows.setdefault(t["g"], {"event_type": t["g"],
                                     "n": np.int64(gext.loc[t["g"], "n"])})
        r[f"p{int(t['q'] * 100)}_vm"] = np.int64(t["done"])
    return pd.DataFrame(sorted(rows.values(), key=lambda r: r["event_type"]))


def value_quartiles_sql(qs=(0.25, 0.5, 0.75, 0.95)) -> str:
    """DuckDB replay of events_value_quartiles."""
    cols = ", ".join(
        f"quantile_disc(vm, {q}) AS p{int(q * 100)}_vm" for q in qs)
    return (
        "SELECT event_type, count(*) AS n, " + cols +
        " FROM (SELECT event_type, CAST(round(value*1000) AS BIGINT) AS vm "
        "FROM events) GROUP BY event_type ORDER BY event_type"
    )


def events_value_mad(sf_dir: str, num_bins: int = 256,
                     exact_below: int = 4096, max_passes: int = 8):
    """(n, median_vm, mad_vm): the exact median absolute deviation of the
    integer-milli event value — median over |vm - median(vm)|.

    Machine class: DEPENDENT selection — the second selection's value
    transform (absolute deviation) is a function of the first selection's
    RESULT, so the two cannot share a scan; this is the minimal form of
    iterative statistics (trimmed/winsorized moments, Tukey fences) where
    each stage re-streams the corpus under a driver-held scalar from the
    previous stage. Both stages are the bounded-pass histogram-refinement
    selection (passes = ceil(log_256(range)) + 1 each); the only state
    carried between them is ONE int64."""
    import pandas as pd

    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["value"])

    def select_rank(transform, q: float):
        def extent(batch: pa.Table) -> pa.Table:
            x = transform(_vm(batch))
            if len(x) == 0:
                return pa.table({"lo": pa.array([], type=pa.int64()),
                                 "hi": pa.array([], type=pa.int64()),
                                 "n": pa.array([], type=pa.int64())})
            return pa.table({"lo": pa.array([int(x.min())]),
                             "hi": pa.array([int(x.max())]),
                             "n": pa.array([np.int64(len(x))])})

        ext = ds.map_batches(extent, batch_format="pyarrow").to_pandas()
        n = int(ext["n"].sum())
        if n == 0:
            return 0, 0
        lo, hi = int(ext["lo"].min()), int(ext["hi"].max())
        rank = max(1, int(np.ceil(q * n)))

        def hist(lo_, hi_, width):
            def partial(batch: pa.Table) -> pa.Table:
                x = transform(_vm(batch))
                below = np.int64((x < lo_).sum())
                sel = x[(x >= lo_) & (x <= hi_)]
                cnt = np.bincount((sel - lo_) // width).astype(np.int64)
                nz = np.nonzero(cnt)[0]
                b = np.concatenate([[-1], nz]).astype(np.int64)
                c = np.concatenate([[below], cnt[nz]]).astype(np.int64)
                keep = c != 0
                return pa.table({"bin": pa.array(b[keep]),
                                 "cnt": pa.array(c[keep])})

            parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
            return parts.groupby("bin")["cnt"].sum()

        passes = 0
        while hi - lo + 1 > exact_below:
            assert passes < max_passes, "selection bracket failed to converge"
            width = (hi - lo) // num_bins + 1
            lo, hi2 = _rank_from_hist(hist(lo, hi, width), rank, lo, width)
            hi = min(hi, hi2)
            passes += 1
        med, _ = _rank_from_hist(hist(lo, hi, 1), rank, lo, 1)
        return n, med

    n, med = select_rank(lambda vm: vm, 0.5)
    _, mad = select_rank(lambda vm: np.abs(vm - med), 0.5)
    return pd.DataFrame([{"n": np.int64(n), "median_vm": np.int64(med),
                          "mad_vm": np.int64(mad)}])


def value_mad_sql() -> str:
    """DuckDB replay of events_value_mad (dependent quantile_disc pair)."""
    return (
        "WITH v AS (SELECT CAST(round(value*1000) AS BIGINT) AS vm "
        "FROM events), m AS (SELECT quantile_disc(vm, 0.5) AS med FROM v) "
        "SELECT count(*) AS n, max(m.med) AS median_vm, "
        "quantile_disc(abs(v.vm - m.med), 0.5) AS mad_vm FROM v, m"
    )


# ---------------------------------------------------------------------------
# CUSUM changepoint / drift detection (the sequential-recurrence class)
# ---------------------------------------------------------------------------

CUSUM_K_MILLI = 60_000    # drift allowance (60.0, above the corpus mean ~49.6)
CUSUM_H_MILLI = 300_000   # alarm threshold on the accumulated excess (300.0)


def events_cusum_alarms(sf_dir: str, k_milli: int = CUSUM_K_MILLI,
                        h_milli: int = CUSUM_H_MILLI, num_buckets: int = 64):
    """(event_id, user_id, s_milli, is_alarm): the one-sided CUSUM drift
    statistic S_t = max(0, S_{t-1} + vm_t - k) per user in (ts, event_id)
    order, alarming when the accumulated excess over the drift allowance k
    crosses h — the classic sequential changepoint detector (Page 1954),
    i.e. the streaming analog of the reference's persistent-bias screen
    (sct_resistant.r's chi-vs-expected accumulation recast per stream).

    Machine class the surface lacked: a NON-ASSOCIATIVE sequential
    recurrence (max-clipped accumulation) — neither a window frame
    aggregate nor a plain prefix sum expresses it directly. It LINEARIZES
    exactly via prefix extremes: with c_t = sum_{j<=t}(vm_j - k),
    S_t = c_t - min(0, min_{j<=t} c_j), so the kernel is one grouped
    cumsum plus one grouped cummin — both whole-bucket vectorized.

    Scale shape: one user-bucket exchange; inside a bucket a single
    lexsort then two C-vectorized grouped scans; no per-user loop, no
    driver state. Exact int64 milli arithmetic -> the nested-window SQL
    twin hash-matches bit-for-bit."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "ts", "value"])

    def bucketize(batch: pa.Table) -> pa.Table:
        vm = np.floor(batch["value"].to_numpy(zero_copy_only=False) * 1000.0).astype(np.int64)
        return with_b(pa.table({"event_id": batch["event_id"], "user_id": batch["user_id"],
                                "ts": batch["ts"], "y": pa.array(vm - k_milli)}))

    def per_bucket(t: pa.Table) -> pa.Table:
        order, k, new_u = _user_order(t, "ts", "event_id")
        u_s, y_s = k["user_id"][order], t["y"].to_numpy(zero_copy_only=False)[order]
        csum = np.cumsum(y_s)
        base = np.where(new_u, csum - y_s, 0)
        base = base[np.flatnonzero(new_u)][np.cumsum(new_u) - 1]
        c = csum - base                      # per-user prefix sum of (vm - k)
        gmin = pd.Series(c).groupby(pd.Series(u_s), sort=False).cummin().to_numpy()
        s = c - np.minimum(gmin, 0)          # S_t = c_t - min(0, min prefix c)
        return pa.table(
            {
                "event_id": pa.array(k["event_id"][order]),
                "user_id": pa.array(u_s),
                "s_milli": pa.array(s.astype(np.int64)),
                "is_alarm": pa.array(s > h_milli),
            }
        )

    return (
        bucket_exchange(ds.map_batches(bucketize, batch_format="pyarrow"), "_b", per_bucket)
    )


def cusum_sql(k_milli: int = CUSUM_K_MILLI, h_milli: int = CUSUM_H_MILLI) -> str:
    """DuckDB replay of events_cusum_alarms: the same linearization as two
    stacked window passes (prefix sum, then prefix min of that sum)."""
    return (
        "WITH d AS (SELECT event_id, user_id, ts, "
        f"CAST(floor(value * 1000) AS BIGINT) - {k_milli} AS y FROM events), "
        "c AS (SELECT event_id, user_id, ts, "
        "sum(y) OVER (PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS c FROM d), "
        "s AS (SELECT event_id, user_id, c - least(0, "
        "min(c) OVER (PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)) AS s FROM c) "
        f"SELECT event_id, user_id, CAST(s AS BIGINT) AS s_milli, s > {h_milli} AS is_alarm FROM s"
    )


# ---------------------------------------------------------------------------
# Time-weighted average (TWAP) — the hold-until-next-observation integral
# ---------------------------------------------------------------------------


def events_twap(sf_dir: str, num_buckets: int = 64):
    """(user_id, wv_sum, dt_sum, twap_milli) — per user, the time-weighted
    average of `value` under hold-last semantics: each observation is worth
    value x (time until the NEXT observation), i.e. the integral of the
    user's step function divided by its span. The metering/pricing
    primitive (TWAP / time-in-state) that a plain AVG gets wrong whenever
    observations are irregular.

    Exactness: value is carried in exact milli units (same _vm as every
    events op), dt in whole seconds (integer floor-division of the
    microsecond delta — deterministic in both engines), and the integral
    is the int64 sum of milli x seconds products; the final twap_milli is
    ONE IEEE double division of two exact integers, so it is bit-identical
    to the SQL twin. Same-timestamp neighbours are ordered by event_id on
    both sides (dt pairing is order-sensitive at ties).

    Scale shape: identical to events_sessions — ONE user-bucket exchange of
    (event_id, user_id, ts, vm) narrow rows; per bucket a lexsort puts each
    user's stream contiguous, the shifted-difference gives dt vectorized,
    and reduceat over user run starts emits one row per user. Users with a
    single event (or zero elapsed time) have no integral and are dropped,
    as in the twin's HAVING. Reference analog: the time-interpolation step
    of the first-guess read (read_fgs.r:51-66 holds each field until the
    next valid time)."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )

    def bucketize(batch: pa.Table) -> pa.Table:
        return with_b(pa.table({"event_id": batch["event_id"], "user_id": batch["user_id"],
                                "ts": batch["ts"], "vm": pa.array(_vm(batch))}))

    def per_bucket(t: pa.Table) -> pa.Table:
        order, k, new_user = _user_order(t, "ts", "event_id")
        uid, ts = k["user_id"][order], k["ts"][order]
        vm = t["vm"].to_numpy(zero_copy_only=False)[order]
        n = len(order)
        dt = np.zeros(n, dtype=np.int64)
        dt[:-1] = (ts[1:] - ts[:-1]) // 1_000_000
        dt[np.r_[new_user[1:], True]] = 0   # a user's last event holds no interval
        starts = np.flatnonzero(new_user)
        wv = np.add.reduceat(vm * dt, starts)
        dts = np.add.reduceat(dt, starts)
        keep = dts > 0
        wv, dts, u = wv[keep], dts[keep], uid[starts][keep]
        return pa.table(
            {
                "user_id": pa.array(u),
                "wv_sum": pa.array(wv),
                "dt_sum": pa.array(dts),
                "twap_milli": pa.array(wv.astype(np.float64) / dts.astype(np.float64)),
            }
        )

    ds = ds.map_batches(bucketize, batch_format="pyarrow")
    return bucket_exchange(ds, "_b", per_bucket)


def twap_sql() -> str:
    """DuckDB replay of events_twap: lead() window -> integer products ->
    one double division."""
    return (
        "WITH o AS (SELECT user_id, "
        "CAST(floor(abs(value) * 1000 + 0.5) AS BIGINT) * CAST(sign(value) AS BIGINT) AS vm, "
        "(lead(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) "
        "- epoch_us(ts)) // 1000000 AS dt FROM events), "
        "s AS (SELECT user_id, CAST(sum(vm * dt) AS BIGINT) AS wv_sum, "
        "CAST(sum(dt) AS BIGINT) AS dt_sum FROM o WHERE dt IS NOT NULL "
        "GROUP BY user_id HAVING sum(dt) > 0) "
        "SELECT user_id, wv_sum, dt_sum, "
        "CAST(wv_sum AS DOUBLE) / CAST(dt_sum AS DOUBLE) AS twap_milli FROM s"
    )


# ---------------------------------------------------------------------------
# Gini mean difference — exact pairwise dispersion WITHOUT pairing
# ---------------------------------------------------------------------------


def events_value_gmd(sf_dir: str, num_buckets: int = 64):
    """(event_type, n, gmd_sum, gmd_milli) — per event type, the EXACT sum
    of |x_i - x_j| over all C(n,2) value pairs (Gini mean difference, the
    L-statistic behind the Gini coefficient), computed WITHOUT forming a
    single pair: for sorted x, sum_{i<j} |x_i - x_j| = sum_i (2i - n - 1)
    x_(i), and that rank-weighted sum needs only the per-(type, value)
    HISTOGRAM — a run of c copies of v occupying positions F+1..F+c
    contributes v * (2*(c*F + c*(c+1)/2) - c*(n+1)), ties falling out
    because equal values share a coefficient sum. The quadratic statistic
    at linear cost — the same ranking-without-sorting-the-data trick as
    doc_spearman, driving a dispersion moment instead of a correlation.

    Scale shape: per-batch (type, value_milli) count partials (at most one
    row per distinct value per batch crosses the wire) -> ONE
    (type,value)-hash bucket exchange merges the histogram -> a per-TYPE
    exchange computes the rank-weighted sum per type over
    distinct-value-sized groups with exact arbitrary-precision integer
    products (object dtype — the twin carries the same products in
    HUGEINT). The driver never holds the histogram. gmd_milli =
    gmd_sum / C(n,2) is the single IEEE division, bit-identical to the
    twin's."""
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        g = pd.DataFrame(
            {"event_type": batch["event_type"].to_pandas(), "x": _vm(batch),
             "c": np.ones(batch.num_rows, dtype=np.int64)}
        ).groupby(["event_type", "x"], sort=False, as_index=False).sum()
        # bucket by (type, value) hash so the histogram merge is narrow
        th = pd.util.hash_pandas_object(g["event_type"], index=False).to_numpy(dtype=np.uint64)
        g["_b"] = ((th ^ g["x"].to_numpy().astype(np.uint64)) % num_buckets).astype(np.int32)
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    def per_type(t: pa.Table) -> pa.Table:
        out_ty, out_n, out_s = [], [], []
        types, code = np.unique(t["event_type"].to_numpy(zero_copy_only=False), return_inverse=True)
        for i, ty in enumerate(types):
            v = t["x"].to_numpy()[code == i]
            c = t["c"].to_numpy()[code == i]
            order = np.argsort(v, kind="stable")
            v, c = v[order].astype(object), c[order].astype(object)
            n = int(c.sum())
            F = np.concatenate([[0], np.cumsum(c)[:-1]])
            contrib = v * (2 * (c * F + c * (c + 1) // 2) - c * (n + 1))
            out_ty.append(ty)
            out_n.append(n)
            out_s.append(int(contrib.sum()))
        return pa.table(
            {
                "event_type": pa.array(out_ty, type=pa.string()),
                "n": pa.array(np.asarray(out_n, dtype=np.int64)),
                "gmd_sum": pa.array(np.asarray(out_s, dtype=np.int64)),
                "gmd_milli": pa.array(
                    np.asarray(out_s, dtype=np.float64)
                    / np.asarray([x * (x - 1) / 2 for x in out_n], dtype=np.float64)
                ),
            }
        )

    hist = bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                           "_b", sum_merge(["event_type", "x"], ["c"]))
    return bucket_exchange(hist, "event_type", per_type)


def value_gmd_sql() -> str:
    """DuckDB replay of events_value_gmd: rank windows + HUGEINT
    rank-weighted sum + one double division."""
    return (
        "WITH v AS (SELECT event_type, "
        "CAST(floor(abs(value) * 1000 + 0.5) AS BIGINT) * CAST(sign(value) AS BIGINT) AS x "
        "FROM events), "
        "r AS (SELECT event_type, CAST(x AS HUGEINT) AS x, "
        "CAST(row_number() OVER (PARTITION BY event_type ORDER BY x) AS HUGEINT) AS rn, "
        "CAST(count(*) OVER (PARTITION BY event_type) AS HUGEINT) AS n FROM v) "
        "SELECT event_type, CAST(max(n) AS BIGINT) AS n, "
        "CAST(sum((2 * rn - n - 1) * x) AS BIGINT) AS gmd_sum, "
        "CAST(CAST(sum((2 * rn - n - 1) * x) AS BIGINT) AS DOUBLE) / "
        "CAST(max(n) * (max(n) - 1) // 2 AS DOUBLE) AS gmd_milli "
        "FROM r GROUP BY event_type"
    )


# ---------------------------------------------------------------------------
# Throttle / debounce (greedy cooldown selection — rate limiting)
# ---------------------------------------------------------------------------

THROTTLE_US = 1_800_000_000   # 30-minute cooldown, integer microseconds


def events_throttle(sf_dir: str, cooldown_us: int = THROTTLE_US,
                    num_buckets: int = 64):
    """(user_id, ts_us, n_events) — the GREEDY cooldown chain per user:
    the first event instant is kept, then the next kept instant is the
    earliest one >= kept + cooldown, recursively (notification throttling,
    alert debouncing, crawl politeness). The greedy-sequential-selection
    class: kept_{i+1} depends on kept_i through an argmin over the data,
    so no window frame, prefix scan, or CUSUM-style prefix-extreme
    linearization reproduces it — it is a pointer CHAIN.

    Scale shape: one user-bucket exchange (the events_window_distinct
    convention, distinct instants per user inside the bucket); the
    per-bucket kernel walks ALL users' chains simultaneously — each
    iteration advances every still-active user with ONE vectorized
    searchsorted over the stride-adjusted timestamp array (the adjustment
    confines each probe to its own user's segment), so the loop count is
    max kept-per-user (duration/cooldown bounded), each costing
    O(active · log rows), with zero per-row Python. Ties at a kept instant
    are all kept (the instant is the unit; n_events counts them). The
    DuckDB twin materializes every instant's cooldown successor with one
    scalar subquery, then replays the chain as a recursive pointer walk."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["user_id", "ts"])

    def bucketize(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        return with_b(pa.table({"user_id": batch["user_id"], "ts_us": ts.cast(pa.int64())}))

    def per_bucket(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts_us"].to_numpy(zero_copy_only=False)
        # distinct (user, instant) with multiplicity
        key = np.stack([uid, ts])
        uq, counts = np.unique(key, axis=1, return_counts=True)
        u, s = uq[0], uq[1]
        # already lexsorted by (u, s) from np.unique
        new = np.r_[True, u[1:] != u[:-1]]
        starts = np.nonzero(new)[0]
        seg_end = np.r_[starts[1:], len(u)]
        uidx = np.cumsum(new) - 1
        rel = s - s.min()
        stride = int(rel.max()) + cooldown_us + 1
        assert int(uidx[-1]) * stride < 2**63, "throttle stride overflow"
        adj = rel + uidx * stride
        ends = seg_end[uidx]                     # each row's segment end
        cur = starts.copy()                      # every user's first instant
        kept_idx = [cur.copy()]
        while True:
            nxt = np.searchsorted(adj, adj[cur] + cooldown_us, side="left")
            alive = nxt < ends[cur]              # stays in the same segment
            if not alive.any():
                break
            cur = nxt[alive]
            kept_idx.append(cur.copy())
        sel = np.concatenate(kept_idx)
        return pa.table({"user_id": pa.array(u[sel]),
                         "ts_us": pa.array(s[sel]),
                         "n_events": pa.array(counts[sel].astype(np.int64))})

    return (
        bucket_exchange(ds.map_batches(bucketize, batch_format="pyarrow"), "_b", per_bucket)
    )


def throttle_sql(cooldown_us: int = THROTTLE_US) -> str:
    """DuckDB replay of events_throttle: per-instant cooldown successors
    via a scalar subquery, the chain via a recursive pointer walk (joins
    only in the recursive term — no aggregates, as DuckDB requires)."""
    return f"""
WITH RECURSIVE
e AS (SELECT user_id AS u, epoch_us(ts) AS t, count(*) AS n
      FROM events GROUP BY 1, 2),
nxt AS (SELECT a.u, a.t,
               (SELECT min(b.t) FROM e b
                WHERE b.u = a.u AND b.t >= a.t + {cooldown_us}) AS nx
        FROM e a),
kept AS (
  SELECT u, min(t) AS t FROM e GROUP BY u
  UNION ALL
  SELECT k.u, n.nx FROM kept k
  JOIN nxt n ON n.u = k.u AND n.t = k.t
  WHERE n.nx IS NOT NULL
)
SELECT k.u AS user_id, k.t AS ts_us, CAST(e.n AS BIGINT) AS n_events
FROM kept k JOIN e ON e.u = k.u AND e.t = k.t
"""


# ---------------------------------------------------------------------------
# Grouped OLS regression slope (exact-rational fit via limb accumulation)
# ---------------------------------------------------------------------------

OLS_BASE_S = 1577836800    # 2020-01-01 epoch seconds: re-zeros x
OLS_SCALE = 1_000_000
_LIMB = 1_000_000_000      # base-1e9 limbs keep every partial int64-safe


def _limbs3(v: int) -> tuple[int, int, int]:
    q, l0 = divmod(int(v), _LIMB)
    l2, l1 = divmod(q, _LIMB)
    return l0, l1, l2


def events_ols_slope(sf_dir: str):
    """(event_type, n, slope_micro) — the exact ordinary-least-squares
    slope of value (milli-ints, the _vm convention) against event time
    (whole seconds re-zeroed at 2020-01-01) per event type, floor-scaled:

        slope = (n*Sxy - Sx*Sy) / (n*Sxx - Sx^2),

    truncated toward zero at micro precision (sign handled explicitly on
    both sides, the power-iteration division convention). The regression-
    fit class: a RATIO of moment combinations, not a single aggregate.

    Scale shape — SPLIT ACCUMULATION: Sxx per batch overflows int64 past
    ~10^4 rows of epoch-scale x^2, so each per-batch moment is computed
    in exact Python ints and emitted as three base-1e9 LIMBS; limbs sum
    int64-safely through one enum-sized groupby exchange (each limb sum
    stays < 1e9 * n_batches), and the driver reconstructs the exact
    moments from |types| rows of limbs in arbitrary precision. This is
    the accumulation pattern the PageRank docstring prescribes past
    int64 bounds, demonstrated end-to-end. HUGEINT twin (n*Sxy clears
    128 bits to ~1e38-scale corpora)."""
    import pandas as pd

    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_type", "ts", "value"])

    moment_cols = ("n", "sx", "sy", "sxy", "sxx")

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        x = (ts.cast(pa.int64()).to_numpy(zero_copy_only=False)
             // 1_000_000 - OLS_BASE_S)
        y = _vm(batch)
        types = np.asarray(batch["event_type"].to_pandas(), dtype=object)
        rows = []
        for t in np.unique(types):
            m = types == t
            xs, ys = x[m], y[m]
            # first moments are int64-safe per batch; the second-order
            # sums are NOT (x*y ~ 1e14, x*x ~ 4e16 per row) — object-dtype
            # dots run the products in exact Python ints
            xo = xs.astype(object)
            mom = (int(m.sum()), int(xs.sum()), int(ys.sum()),
                   int(np.dot(xo, ys.astype(object))), int(np.dot(xo, xo)))
            row = {"event_type": t}
            for name, v in zip(moment_cols, mom):
                for i, limb in enumerate(_limbs3(v)):
                    row[f"{name}{i}"] = limb
            rows.append(row)
        df = pd.DataFrame(rows)
        return pa.Table.from_pandas(df, preserve_index=False)

    limb_cols = [f"{n}{i}" for n in moment_cols for i in range(3)]
    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type").sum(limb_cols)
        .to_pandas()   # |types| rows
    )
    out = []
    for _, r in agg.iterrows():
        mom = {}
        for name in moment_cols:
            mom[name] = sum(int(r[f"sum({name}{i})"]) * _LIMB ** i for i in range(3))
        n, sx, sy, sxy, sxx = (mom[c] for c in moment_cols)
        num = (n * sxy - sx * sy) * OLS_SCALE
        den = n * sxx - sx * sx
        if den == 0:
            slope = 0
        else:
            sign = -1 if (num < 0) != (den < 0) else 1
            slope = sign * (abs(num) // abs(den))
        out.append((r["event_type"], n, slope))
    return pd.DataFrame(out, columns=["event_type", "n", "slope_micro"]) \
        .sort_values("event_type").reset_index(drop=True)


def ols_slope_sql() -> str:
    """DuckDB replay of events_ols_slope: HUGEINT moments, identical
    truncate-toward-zero scaled division."""
    S = OLS_SCALE
    return (
        "WITH e AS (SELECT event_type, "
        f"CAST(epoch_us(ts) // 1000000 - {OLS_BASE_S} AS HUGEINT) AS x, "
        "CAST(floor(abs(value)*1000 + 0.5) AS HUGEINT) "
        "* CAST(sign(value) AS HUGEINT) AS y FROM events), "
        "m AS (SELECT event_type, CAST(count(*) AS HUGEINT) AS n, "
        "sum(x) AS sx, sum(y) AS sy, sum(x*y) AS sxy, sum(x*x) AS sxx "
        "FROM e GROUP BY 1) "
        "SELECT event_type, CAST(n AS BIGINT) AS n, "
        "CAST(CASE WHEN n*sxx - sx*sx = 0 THEN 0 ELSE "
        f"CASE WHEN ((n*sxy - sx*sy) < 0) <> ((n*sxx - sx*sx) < 0) "
        f"THEN -((abs(n*sxy - sx*sy) * {S}) // abs(n*sxx - sx*sx)) "
        f"ELSE (abs(n*sxy - sx*sy) * {S}) // abs(n*sxx - sx*sx) END END "
        "AS BIGINT) AS slope_micro "
        "FROM m ORDER BY event_type"
    )


# ---------------------------------------------------------------------------
# Per-user EWMA smoother in truncated integer arithmetic — the BOUNDED-STATE
# NUMERIC RECURRENCE class: y_i = (A*y_{i-1} + (S-A)*x_i) // S truncates at
# EVERY step, so unlike the cumsum window (linear), CUSUM (linearized via
# prefix extremes) or the throttle chain (argmin pointer), no closed form or
# scan reproduces it — state must actually flow through the sequence. The
# streaming anomaly-baseline primitive (alert smoothing, rate baselining).
# Exactness: inputs are nonnegative integer micro-units, so numpy floor
# division and DuckDB HUGEINT truncating division agree step for step.
# ---------------------------------------------------------------------------

EWMA_NUM = 875      # decay 0.875 as the rational 875/1000
EWMA_DEN = 1000


def events_ewma(sf_dir: str, num_buckets: int = 64):
    """(event_id, user_id, ewma_q) — the running EWMA of round(value*1e6)
    per user in (ts, event_id) order, exact integer micro-units.

    Scale shape: one user-bucket exchange; the per-bucket kernel advances
    ALL users' recurrences simultaneously — one lexsort, then a loop over
    CHAIN POSITION (not rows): round r updates every user owning an r-th
    event with one vectorized gather/scatter, so the Python loop count is
    max events-per-user in the bucket, each costing O(active users). The
    DuckDB twin walks the same chains with a join-only recursive CTE
    (row_number successor join, the throttle-twin convention)."""
    with_b = _user_buckets(num_buckets)
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "ts", "value"])

    def bucketize(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        xq = np.rint(v * 1_000_000).astype(np.int64)
        return with_b(pa.table({"event_id": batch["event_id"], "user_id": batch["user_id"],
                                "ts": batch["ts"], "xq": pa.array(xq)}))

    def per_bucket(t: pa.Table) -> pa.Table:
        xq = t["xq"].to_numpy(zero_copy_only=False)
        assert (xq >= 0).all(), "events_ewma requires nonnegative values " \
            "(floor/truncating division parity)"
        order, k, new = _user_order(t, "ts", "event_id")
        uid, eid, xq = k["user_id"][order], k["event_id"][order], xq[order]
        starts = np.nonzero(new)[0]
        seg_len = np.diff(np.r_[starts, len(uid)])
        y = xq.copy()                      # position 0: y = x
        r = 1
        while True:
            active = seg_len > r           # users owning an r-th event
            if not active.any():
                break
            idx = starts[active] + r
            y[idx] = (EWMA_NUM * y[idx - 1] + (EWMA_DEN - EWMA_NUM) * xq[idx]) // EWMA_DEN
            r += 1
        return pa.table({"event_id": pa.array(eid), "user_id": pa.array(uid),
                         "ewma_q": pa.array(y)})

    return (
        bucket_exchange(ds.map_batches(bucketize, batch_format="pyarrow"), "_b", per_bucket)
    )


def ewma_sql() -> str:
    """DuckDB replay of events_ewma: join-only recursive chain walk over
    row_number successors, HUGEINT truncating division (== floor on the
    nonnegative domain)."""
    return (
        "WITH RECURSIVE e AS ("
        "SELECT event_id, user_id, "
        "CAST(round(value * 1000000) AS HUGEINT) AS xq, "
        "row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn "
        "FROM events), "
        "r AS ("
        "SELECT event_id, user_id, rn, xq AS y FROM e WHERE rn = 1 "
        "UNION ALL "
        f"SELECT e.event_id, e.user_id, e.rn, "
        f"({EWMA_NUM} * r.y + {EWMA_DEN - EWMA_NUM} * e.xq) // {EWMA_DEN} "
        "FROM r JOIN e ON e.user_id = r.user_id AND e.rn = r.rn + 1) "
        "SELECT event_id, user_id, CAST(y AS BIGINT) AS ewma_q FROM r"
    )
