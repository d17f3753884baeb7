"""events_ewma: truncated-integer EWMA recurrence vs a pure-Python walk and
the DuckDB recursive-chain replay; and every ordered events operator with a
twin, on the same fixture, against that twin."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_events(tmp_path, rows):
    # stored out of event_id order, so only the event_id tiebreak orders ties
    rows = [rows[i] for i in np.random.default_rng(1).permutation(len(rows))]
    tbl = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
            "user_id": pa.array([r[2] for r in rows], type=pa.int64()),
            # runs of two, so streaks and paths see type changes
            "event_type": pa.array(["abc"[r[0] // 2 % 3] for r in rows], type=pa.string()),
            "value": pa.array([r[3] for r in rows], type=pa.float64()),
            "props": pa.array(["{}"] * len(rows), type=pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    return str(tmp_path)


def _fixture():
    rng = np.random.default_rng(5)
    rows, eid = [], 0
    for u in range(7):
        for i in range(int(rng.integers(1, 30))):
            # same-ts ties for two users exercise the (ts, event_id) order;
            # one of them has a negative id, which the bucket mask must place
            ts = int(rng.integers(0, 10)) * 1_000_000 if u < 2 else eid * 777_000
            uid = -u if u == 1 else u
            rows.append((eid, ts, uid, float(np.round(rng.uniform(0.01, 500.0), 2))))
            eid += 1
    return rows


def test_ewma_matches_python_walk(ray_session, tmp_path):
    from titan_ray.pipelines.events import EWMA_DEN, EWMA_NUM, events_ewma

    rows = _fixture()
    sf_dir = _write_events(tmp_path, rows)
    got = {r["event_id"]: r["ewma_q"] for r in events_ewma(sf_dir).take_all()}

    by_user = {}
    for eid, ts, u, v in sorted(rows, key=lambda r: (r[2], r[1], r[0])):
        xq = int(np.rint(v * 1_000_000))
        if u not in by_user:
            by_user[u] = xq
        else:
            by_user[u] = (EWMA_NUM * by_user[u] + (EWMA_DEN - EWMA_NUM) * xq) // EWMA_DEN
        assert got[eid] == by_user[u], eid
    assert len(got) == len(rows)


def test_ewma_sql_oracle_and_partition_invariance(ray_session, tmp_path):
    import duckdb

    from titan_ray.pipelines.events import events_ewma, ewma_sql
    from tools.check_contract import to_pandas, value_hash

    sf_dir = _write_events(tmp_path, _fixture())
    eng = to_pandas(events_ewma(sf_dir))
    eng2 = to_pandas(events_ewma(sf_dir, num_buckets=4))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{sf_dir}/events.parquet'")
    ora = con.sql(ewma_sql()).df()
    assert len(eng) == len(ora)
    assert value_hash(eng) == value_hash(ora) == value_hash(eng2)


# every ordered events operator with a SQL twin: name -> twin builder
ORDERED_TWINS = {
    "buddy": "buddy_sql", "sessions": "sessions_sql", "cumsum": "cumsum_sql",
    "window_median": "window_median_sql", "streaks": "streaks_sql",
    "cusum_alarms": "cusum_sql", "twap": "twap_sql", "throttle": "throttle_sql",
    "ewma": "ewma_sql", "top_paths": "top_paths_sql", "out_of_order": "out_of_order_sql",
    "sliding_rate": "sliding_rate_sql",
}


@pytest.fixture(scope="module")
def events_dir(tmp_path_factory):
    return _write_events(tmp_path_factory.mktemp("ordered_events"), _fixture())


@pytest.mark.parametrize("num_buckets", [64, 4])
@pytest.mark.parametrize("name", sorted(ORDERED_TWINS))
def test_ordered_operator_matches_twin(ray_session, events_dir, name, num_buckets):
    """The (user_id, ts, event_id) order under same-ts ties and a negative
    user_id, which the driver events tables have neither of."""
    import duckdb

    from titan_ray.pipelines import events
    from tools.check_contract import to_pandas, value_hash

    eng = to_pandas(getattr(events, f"events_{name}")(events_dir, num_buckets=num_buckets))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{events_dir}/events.parquet'")
    ora = con.sql(getattr(events, ORDERED_TWINS[name])()).df()
    assert len(eng) == len(ora) > 0
    assert value_hash(eng) == value_hash(ora)
