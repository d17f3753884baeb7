"""Custom join operators Ray Data lacks: as-of join and range join.

The reference has no relational joins (SURVEY.md §2.4) — these are the
"custom operator" additions the graft brief calls for, built as
compositions of map_batches + one co-partitioning shuffle:

1. Both sides are bucketed by hash(by-key) — ONE narrow-keyed shuffle each,
   tagged with a side column and unioned so one bucket exchange
   (exchange.bucket_exchange) co-locates matching keys.
2. Inside each shuffled block the kernel sorts both sides and resolves
   matches vectorized (np.searchsorted per as-of; interval difference for
   range) — no Python loop over rows.

Partitioning assumption (documented per brief): all rows of one `by` key
fit in one bucket group. Keys are users/conversations (bounded cardinality
per key); for pathological hot keys, pre-aggregate or salt upstream.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..exchange import bucket_exchange


def _sides(t: pa.Table, by: str):
    """(left rows, right rows, left group ids, right group ids) of one
    shuffled block; group ids number the distinct ``by`` values."""
    lmask = t["_side"].to_numpy(zero_copy_only=False) == 0
    _, codes = np.unique(t[by].to_numpy(zero_copy_only=False), return_inverse=True)
    codes = codes.astype(np.int64)
    l = t.drop_columns(["_side", "_b"]).filter(pa.array(lmask))
    return l, t.filter(pa.array(~lmask)), codes[lmask], codes[~lmask]


def _emit(l: pa.Table, r: pa.Table, li, ri, right_cols: tuple[str, ...]) -> pa.Table:
    """Left rows ``li`` with right rows ``ri``'s ``right_cols`` as r_<col>
    (typed even when empty: no schema-mismatch RefBundle warnings)."""
    out = l.take(pa.array(li, type=pa.int64()))
    for c in right_cols:
        out = out.append_column(f"r_{c}", r[c].take(pa.array(ri, type=pa.int64())))
    return out


def _bucketed_union(left, right, by: str, num_buckets: int):
    """Tag sides, bucket by hash(by), union — one narrow shuffle feeds the
    per-bucket kernel."""
    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            key = batch[by].to_numpy(zero_copy_only=False)
            b = (pd.util.hash_array(np.ascontiguousarray(key)) % num_buckets).astype(np.int32)
            batch = batch.append_column("_side", pa.array(np.full(batch.num_rows, side, dtype=np.int8)))
            return batch.append_column("_b", pa.array(b))

        return fn

    lds = left.map_batches(tag(0), batch_format="pyarrow")
    rds = right.map_batches(tag(1), batch_format="pyarrow")
    return lds.union(rds)


def asof_join(left, right, by: str, on: str, value_cols: tuple[str, ...],
              num_buckets: int = 64, direction: str = "backward",
              tiebreak: str | None = None):
    """INNER as-of join: every LEFT row that has a RIGHT row of the same
    `by` key with right.on <= left.on (direction="backward"; "forward" =
    earliest right.on >= left.on) gets the closest such row's `value_cols`
    as r_<col>; unmatched left rows are dropped (DuckDB `ASOF JOIN`
    semantics — the oracle the driver checks).

    Ties on equal right-side (by, on): pass ``tiebreak`` (a right column,
    e.g. an event id) to pick the max-tiebreak row deterministically
    (backward; min for forward) regardless of group arrival order. Without
    it, unique (by, on) on the right is a documented precondition of the
    SQL-checked queries — DuckDB ASOF picks an arbitrary tied row, so parity
    is only defined when there are no ties (round-2 advice item 4)."""
    assert direction in ("backward", "forward")

    # Whole-bucket vectorized kernel (round-5): instead of a Python loop
    # over `by` groups, ONE composite-key searchsorted resolves every left
    # row at once. Key = gid * K + rank(on), where gid is the factorized
    # group id, rank() maps on-values to dense ranks over the bucket's
    # value union, and K > max rank — so keys of different groups never
    # interleave and a match landing outside the left row's group is
    # detected by a single gid comparison.
    def per_bucket(t: pa.Table) -> pa.Table:
        l, r, gl, gr = _sides(t, by)
        lon = l[on].to_numpy()
        ron_raw = r[on].to_numpy()
        if tiebreak is not None:
            tb = r[tiebreak].to_numpy()
            r_order = np.lexsort((tb, ron_raw, gr))
        else:
            r_order = np.lexsort((ron_raw, gr))
        gr_s = gr[r_order]
        ron = ron_raw[r_order]
        uniq = np.unique(np.concatenate([ron_raw, lon]))
        K = np.int64(len(uniq) + 1)
        rkey = gr_s * K + np.searchsorted(uniq, ron)
        lkey = gl * K + np.searchsorted(uniq, lon)
        if direction == "backward":
            # last right with on <= left.on (ties: max tiebreak — the sort
            # put it last within equal (gid, on))
            matched = np.searchsorted(rkey, lkey, side="right") - 1
            hit = matched >= 0
        else:
            # first right with on >= left.on (ties: min tiebreak)
            matched = np.searchsorted(rkey, lkey, side="left")
            hit = matched < len(rkey)
        if not len(rkey):
            return _emit(l, r, [], [], value_cols)
        hit &= gr_s[np.clip(matched, 0, len(rkey) - 1)] == gl  # match from the left row's group
        return _emit(l, r, np.flatnonzero(hit), r_order[matched[hit]], value_cols)

    return bucket_exchange(_bucketed_union(left, right, by, num_buckets), "_b", per_bucket)


def range_join(left, right, by: str, on: str, lo, hi, right_cols: tuple[str, ...],
               num_buckets: int = 64, max_matches_per_row: int = 1000):
    """Emit (left row, right row) pairs of the same `by` key with
    right.on - left.on in [lo, hi]. Equivalent SQL: inner join with
    `r.on BETWEEN l.on + lo AND l.on + hi`.

    Fan-out guard: a left row matching more than `max_matches_per_row`
    right rows raises (interval too wide for the key density) — explicit,
    not silent truncation."""

    # Whole-bucket vectorized kernel (round-5, same composite-key shape as
    # asof_join): gid * K + rank(on) keys make the interval lookups a pair
    # of searchsorteds over the WHOLE bucket — group separation is free
    # because distinct gids occupy disjoint key ranges.
    def per_bucket(t: pa.Table) -> pa.Table:
        l, r, gl, gr = _sides(t, by)
        lon = l[on].to_numpy()
        ron_raw = r[on].to_numpy()
        r_order = np.lexsort((ron_raw, gr))
        gr_s = gr[r_order]
        ron = ron_raw[r_order]
        uniq = np.unique(np.concatenate([ron_raw, lon + lo, lon + hi]))
        K = np.int64(len(uniq) + 1)
        rkey = gr_s * K + np.searchsorted(uniq, ron)
        starts = np.searchsorted(rkey, gl * K + np.searchsorted(uniq, lon + lo, side="left"))
        ends = np.searchsorted(rkey, gl * K + np.searchsorted(uniq, lon + hi, side="right"))
        counts = ends - starts
        if counts.max(initial=0) > max_matches_per_row:
            raise ValueError(
                f"range_join fan-out {int(counts.max())} exceeds "
                f"max_matches_per_row={max_matches_per_row}"
            )
        from ..functions.strings import multi_arange

        li = np.repeat(np.arange(l.num_rows), counts)
        return _emit(l, r, li, r_order[multi_arange(starts, counts)], right_cols)

    return bucket_exchange(_bucketed_union(left, right, by, num_buckets), "_b", per_bucket)


def hash_join(left, right, on: str, right_cols: tuple[str, ...], num_buckets: int = 64,
              join_type: str = "inner"):
    """Generic equi-join for two LARGE datasets (``join_type`` "inner",
    "left outer" — unmatched left rows survive with null r_ columns, the
    enrich-with-optional-side shape — or "full outer" — unmatched rows of
    BOTH sides survive, the key coalesced across sides, null-padded
    opposite columns: the reconciliation/audit shape): both sides are tagged,
    null-padded to one unified schema, bucketed by hash(on) and unioned, so a
    single narrow co-partitioning shuffle feeds a per-block Arrow hash
    join. Right columns come back as r_<col>.

    Scale notes: each side moves across the wire exactly once (the one
    groupby shuffle); the per-bucket merge is C-vectorized. Skewed join keys
    concentrate in one bucket — salt upstream or pre-aggregate if a single
    key's rows exceed a bucket's memory. For a SMALL right side do NOT use
    this: capture it in the map_batches UDF, look it up per batch, and skip
    the shuffle entirely.

    Schema discovery calls .schema() on both inputs, which may execute one
    upstream block per side (bounded, build-time only)."""
    lsch = left.schema()
    rsch = right.schema()
    ltypes = dict(zip(lsch.names, lsch.types))
    rtypes = dict(zip(rsch.names, rsch.types))
    if on not in ltypes or on not in rtypes:
        raise ValueError(f"join key {on!r} must exist on both sides")
    left_cols = list(lsch.names)
    out_rcols = [f"r_{c}" for c in right_cols]
    all_cols = left_cols + out_rcols

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            arrs = []
            for c in left_cols:
                if side == 0:
                    arrs.append(batch[c])
                else:
                    arrs.append(batch[on] if c == on else pa.nulls(n, type=ltypes[c]))
            for rc, oc in zip(out_rcols, right_cols):
                arrs.append(batch[oc] if side == 1 else pa.nulls(n, type=rtypes[oc]))
            key = batch[on].to_numpy(zero_copy_only=False)
            b = (pd.util.hash_array(np.ascontiguousarray(key)) % num_buckets).astype(np.int32)
            arrs.append(pa.array(np.full(n, side, dtype=np.int8)))
            arrs.append(pa.array(b))
            return pa.table(dict(zip(all_cols + ["_side", "_b"], arrs)))

        return fn

    out_schema = pa.schema(
        [(c, ltypes[c]) for c in left_cols]
        + [(rc, rtypes[oc]) for rc, oc in zip(out_rcols, right_cols)]
    )

    # Arrow end-to-end: the per-bucket merge is pyarrow's Acero hash join —
    # no pandas round-trip, int64 never degrades to float64, and NULL join
    # keys do not match (ANSI inner-join semantics, unlike pandas' NaN==NaN
    # merge; join keys here are non-null by construction anyway).
    def per_bucket(t: pa.Table) -> pa.Table:
        side = t["_side"].to_numpy(zero_copy_only=False)
        l = t.filter(pa.array(side == 0)).select(left_cols)
        r = t.filter(pa.array(side == 1)).select([on] + out_rcols)
        if l.num_rows == 0:
            if join_type != "full outer" or r.num_rows == 0:
                return out_schema.empty_table()
            pad = [
                (r[on] if c == on else pa.nulls(r.num_rows, type=ltypes[c]))
                for c in left_cols
            ] + [r[rc] for rc in out_rcols]
            return pa.table(dict(zip(out_schema.names, pad))).cast(out_schema)
        if r.num_rows == 0:
            if join_type == "inner":
                return out_schema.empty_table()
            pad = [l[c] for c in left_cols] + [
                pa.nulls(l.num_rows, type=rtypes[oc]) for oc in right_cols
            ]
            return pa.table(dict(zip(out_schema.names, pad))).cast(out_schema)
        merged = l.combine_chunks().join(r.combine_chunks(), keys=on, join_type=join_type)
        return merged.select(out_schema.names).cast(out_schema)

    ds = left.map_batches(tag(0), batch_format="pyarrow").union(
        right.map_batches(tag(1), batch_format="pyarrow")
    )
    return bucket_exchange(ds, "_b", per_bucket)
