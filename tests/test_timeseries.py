"""Micro edge cases for the timeseries shapes: frame resets at group
boundaries, pivot zero-fill, gap-fill zeros, and cube sentinel
consistency."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _ts(s):
    return np.datetime64(s, "us")


@pytest.fixture()
def ev_dir(tmp_path):
    """Two users: u1 has 4 clicks an hour apart (values 1,2,3,4 ->
    moving sums 1,3,6,9); u2 has one purchase 3 hours later (frame
    resets: sum 5).  Hours 0,1,2,3 and 5 are occupied; hour 4 is a gap."""
    tmp = str(tmp_path)
    base = _ts("2024-01-01T00:30:00")
    h = np.timedelta64(1, "h")
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "ts": pa.array([base, base + h, base + 2 * h, base + 3 * h,
                        base + 5 * h]),
        "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
        "event_type": ["click", "click", "click", "click", "purchase"],
        "value": pa.array([1.0, 2.0, 3.0, 4.0, 5.0]),
    })
    pq.write_table(t, os.path.join(tmp, "events.parquet"))
    return tmp


def test_moving_sum_frame_and_reset(ray_session, ev_dir):
    from engine.timeseries import q_events_moving_sum
    out = q_events_moving_sum(ev_dir).to_pandas() \
        .sort_values("event_id", ignore_index=True)
    assert out["moving_value_milli"].tolist() == [1000, 3000, 6000,
                                                  9000, 5000]


def test_pivot_zero_fill(ray_session, ev_dir):
    from engine.timeseries import q_events_pivot
    out = q_events_pivot(ev_dir).to_pandas() \
        .sort_values("user_id", ignore_index=True)
    assert out["click_cnt"].tolist() == [4, 0]
    assert out["purchase_cnt"].tolist() == [0, 1]
    assert out["purchase_value_milli"].tolist() == [0, 5000]
    assert out["view_cnt"].tolist() == [0, 0]


def test_resample_fills_the_gap_hour(ray_session, ev_dir):
    from engine.timeseries import q_events_resample_gapfill
    out = q_events_resample_gapfill(ev_dir)
    # 6 hours (00..05) x 5 types
    assert out.num_rows == 30
    df = out.to_pandas()
    clicks = df[df.event_type == "click"].sort_values("hour_us")
    assert clicks["cnt"].tolist() == [1, 1, 1, 1, 0, 0]
    purch = df[df.event_type == "purchase"].sort_values("hour_us")
    assert purch["cnt"].tolist() == [0, 0, 0, 0, 0, 1]


def test_cube_sentinels_consistent(ray_session, ev_dir):
    """The (ALL, -1) grand total equals the sum of the base grid; each
    one-dimension rollup sums its slice."""
    from engine.timeseries import q_events_cube
    df = q_events_cube(ev_dir).to_pandas()
    grand = df[(df.event_type == "ALL") & (df.day_us == -1)]
    assert grand["cnt"].tolist() == [5]
    assert grand["value_milli"].tolist() == [15000]
    per_type = df[(df.event_type != "ALL") & (df.day_us == -1)]
    assert per_type.set_index("event_type")["cnt"].to_dict() == {
        "click": 4, "purchase": 1}
    base = df[(df.event_type != "ALL") & (df.day_us != -1)]
    assert base["cnt"].sum() == 5


def test_embedding_unnest_skips_null_entries_with_spans():
    """A null embedding whose offsets still span values (legal, non-canonical
    Arrow) unnests to no rows, like DuckDB's unnest(NULL), and the rows
    after it keep their own positions and values."""
    import duckdb
    from engine.timeseries import SQL_EMBEDDING_UNNEST, _unnest_embeddings
    values = pa.array(np.arange(1, 13) / 8.0, pa.float32())
    emb = pa.ListArray.from_arrays(
        pa.array([0, 3, 7, 9, 12], pa.int32()), values,
        mask=pa.array([False, True, False, False]))
    assert emb.null_count == 1 and emb.offsets[2].as_py() == 7
    embeddings = pa.table({"vec_id": pa.array([10, 11, 12, 13], pa.int64()),
                           "embedding": emb})
    got = _unnest_embeddings(embeddings)
    want = duckdb.sql(SQL_EMBEDDING_UNNEST).arrow()
    key = ["vec_id", "pos"]
    assert got.sort_by([(k, "ascending") for k in key]).to_pylist() == \
        want.sort_by([(k, "ascending") for k in key]).to_pylist()
    assert 11 not in got["vec_id"].to_pylist()
    assert got.num_rows == 3 + 2 + 3
