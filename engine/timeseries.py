"""Time-series / reshaping operator shapes over the events log — the
four SQL shapes the registry didn't yet carry as first-class plans:

* ``q_events_pivot`` — PIVOT: one wide row per user with a (count,
  value-sum) column pair per event type.  Per-batch partials reduce to
  (user, type, cnt, sum) quads, ONE user-keyed exchange co-locates each
  user, and the fold emits the wide row vectorized — column count is
  fixed by the type vocabulary, never by data.
* ``q_events_moving_sum`` — a bounded WINDOW FRAME (ROWS BETWEEN 2
  PRECEDING AND CURRENT ROW): the running-totals exchange plus a
  shifted-cumsum subtraction per partition; group boundaries reset the
  frame exactly.
* ``q_events_resample_gapfill`` — resample to an hourly grid with
  gap FILLING: per-batch (type, hour) count partials fold driver-side
  (bounded by types x wall-clock hours — a TIME bound, independent of
  row count), then the dense grid materializes the zeros.
* ``q_events_cube`` — GROUPING SETS (CUBE over type x day): the same
  partial rows serve all four grouping sets, folded driver-side over
  the types x days grid; NULL group keys are COALESCEd to sentinels on
  both sides so the value gate never compares NULLs.

The reference has no time-series layer (its aggregates are per-packet
counts, src/parser.py); these are beyond-reference shapes for the
training-data pipeline family.  All money/value math is integer
(milli-units), timestamps are int64 microseconds, and every expression
is written identically in the DuckDB oracles.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from engine.io import read_parquet_clean

EVENT_TYPES = ("click", "error", "purchase", "signup", "view")
_HOUR_US = 3_600_000_000
_DAY_US = 24 * _HOUR_US


def _table(sf_dir: str, name: str):
    return read_parquet_clean(os.path.join(sf_dir, f"{name}.parquet"))


def _nrows(sf_dir: str, name: str) -> int:
    return pq.read_metadata(os.path.join(sf_dir, f"{name}.parquet")).num_rows


def _i64(col) -> np.ndarray:
    return pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False)


def _milli(col) -> np.ndarray:
    return np.floor(col.to_numpy(zero_copy_only=False) * 1000.0
                    + 0.5).astype(np.int64)


def _type_code(col) -> np.ndarray:
    code = pc.cast(pc.fill_null(
        pc.index_in(col, value_set=pa.array(list(EVENT_TYPES))), -1),
        pa.int64()).to_numpy(zero_copy_only=False)
    assert (code >= 0).all(), \
        "event_type outside the fixed pivot vocabulary"
    return code


# ---------------------------------------------------------------------------
# PIVOT: one wide row per user
# ---------------------------------------------------------------------------

def pivot_fold_block(t: pa.Table) -> pa.Table:
    """Per user-partition: scatter the (user, type, cnt, sum) partials
    into the wide layout — one vectorized np.add.at per measure."""
    names = []
    for ty in EVENT_TYPES:
        names += [f"{ty}_cnt", f"{ty}_value_milli"]
    schema = pa.schema([("user_id", pa.int64())]
                       + [(n, pa.int64()) for n in names])
    if t.num_rows == 0:
        return schema.empty_table()
    user = t["user_id"].to_numpy(zero_copy_only=False)
    code = t["code"].to_numpy(zero_copy_only=False)
    cnt = t["cnt"].to_numpy(zero_copy_only=False)
    val = t["val_milli"].to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(user, return_inverse=True)
    k = len(EVENT_TYPES)
    C = np.zeros((len(uniq), k), dtype=np.int64)
    V = np.zeros((len(uniq), k), dtype=np.int64)
    np.add.at(C, (inv, code), cnt)
    np.add.at(V, (inv, code), val)
    cols = {"user_id": pa.array(uniq)}
    for j, ty in enumerate(EVENT_TYPES):
        cols[f"{ty}_cnt"] = pa.array(C[:, j])
        cols[f"{ty}_value_milli"] = pa.array(V[:, j])
    return pa.table(cols)


def q_events_pivot(sf_dir: str):
    """PIVOT the events log to one row per user with per-event-type
    (count, value-sum-milli) column pairs.  Per-batch partials group to
    (user, type) quads first, so the exchange carries at most
    |users-in-batch| x |types| rows; output rows = users — a streaming
    Dataset, never a driver set."""
    from engine.stages import hash_group_exchange

    def partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "code": pa.array(_type_code(t["event_type"])),
            "v": pa.array(_milli(t["value"]))}), ["user_id", "code"]) \
            .aggregate([([], "count_all"), ("v", "sum")])
        return pa.table({"user_id": g["user_id"], "code": g["code"],
                         "cnt": pc.cast(g["count_all"], pa.int64()),
                         "val_milli": pc.cast(g["v_sum"], pa.int64())})

    def ds():
        return _table(sf_dir, "events").select_columns(
            ["user_id", "event_type", "value"]) \
            .map_batches(partial, batch_format="pyarrow", batch_size=None)

    return hash_group_exchange(
        ds, ["user_id"], pivot_fold_block, collect=False,
        rows_hint=max(1, _nrows(sf_dir, "events") // 4))


def _pivot_sql() -> str:
    cols = []
    for ty in EVENT_TYPES:
        cols.append(f"sum(CASE WHEN event_type = '{ty}' THEN 1 ELSE 0 "
                    f"END)::BIGINT AS {ty}_cnt")
        cols.append(f"sum(CASE WHEN event_type = '{ty}' THEN "
                    f"CAST(floor(value*1000.0 + 0.5) AS BIGINT) ELSE 0 "
                    f"END)::BIGINT AS {ty}_value_milli")
    return ("SELECT user_id::BIGINT AS user_id, " + ", ".join(cols)
            + " FROM events GROUP BY 1 ORDER BY 1")


SQL_EVENTS_PIVOT = _pivot_sql()


# ---------------------------------------------------------------------------
# bounded window frame: moving sum over the last 3 rows per user
# ---------------------------------------------------------------------------

_FRAME = 3          # current row + 2 preceding


def moving_sum_block(t: pa.Table) -> pa.Table:
    """Per user-partition: ROWS BETWEEN 2 PRECEDING AND CURRENT ROW sum
    via one cumsum and a frame-shifted subtraction; group starts reset
    the frame (each row subtracts either the prefix 3 back or its own
    group's base)."""
    schema = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                        ("moving_value_milli", pa.int64())])
    n = t.num_rows
    if n == 0:
        return schema.empty_table()
    user = t["user_id"].to_numpy(zero_copy_only=False)
    eid = t["event_id"].to_numpy(zero_copy_only=False)
    ts = _i64(t["ts"])
    v = _milli(t["value"])
    order = np.lexsort((eid, ts, user))
    user, eid, v = user[order], eid[order], v[order]
    new_g = np.empty(n, dtype=bool)
    new_g[0] = True
    new_g[1:] = user[1:] != user[:-1]
    starts = np.flatnonzero(new_g)
    grp = np.cumsum(new_g) - 1
    local = np.arange(n) - starts[grp]
    cs = np.concatenate(([0], np.cumsum(v)))      # cs[i+1] = sum v[:i+1]
    lo = np.where(local >= _FRAME, np.arange(n) - _FRAME + 1, starts[grp])
    moving = cs[np.arange(n) + 1] - cs[lo]
    return pa.table({"event_id": pa.array(eid),
                     "user_id": pa.array(user),
                     "moving_value_milli": pa.array(moving)})


def q_events_moving_sum(sf_dir: str):
    """Per-user moving sum of ``value`` over the last ``_FRAME`` rows
    ordered by (ts, event_id) — the bounded-window-frame shape.  Same
    single-exchange plan as ``q_events_running_totals``; output is one
    row per event, kept streaming."""
    from engine.stages import hash_group_exchange

    return hash_group_exchange(
        lambda: _table(sf_dir, "events").select_columns(
            ["event_id", "user_id", "ts", "value"]),
        ["user_id"], moving_sum_block, collect=False,
        rows_hint=_nrows(sf_dir, "events"))


SQL_EVENTS_MOVING_SUM = """
SELECT event_id::BIGINT AS event_id, user_id::BIGINT AS user_id,
       (sum(CAST(floor(value*1000.0 + 0.5) AS BIGINT)) OVER (
            PARTITION BY user_id ORDER BY ts, event_id
            ROWS BETWEEN 2 PRECEDING AND CURRENT ROW))::BIGINT
           AS moving_value_milli
FROM events
"""


# ---------------------------------------------------------------------------
# resample to an hourly grid with gap filling
# ---------------------------------------------------------------------------

def q_events_resample_gapfill(sf_dir: str):
    """Hourly event counts per type with missing hours filled as ZERO
    over the corpus's [min, max] hour range.  One scan: per-batch
    (type, hour) count partials — the driver fold and the dense grid are
    bounded by |types| x wall-clock HOURS (a time bound, independent of
    row count; a century is <1M hours), so densification is driver-side
    by design, not a scale compromise."""
    from engine.pipeline import collect_tables

    def partial(t: pa.Table) -> pa.Table:
        hour = (_i64(t["ts"]) // _HOUR_US) * _HOUR_US
        g = pa.TableGroupBy(pa.table({
            "code": pa.array(_type_code(t["event_type"])),
            "hour_us": pa.array(hour)}), ["code", "hour_us"]) \
            .aggregate([([], "count_all")])
        return pa.table({"code": g["code"], "hour_us": g["hour_us"],
                         "cnt": pc.cast(g["count_all"], pa.int64())})

    parts = [x for x in collect_tables(
        _table(sf_dir, "events").select_columns(["event_type", "ts"])
        .map_batches(partial, batch_format="pyarrow", batch_size=None))
        if x.num_columns]
    acc: dict = {}
    lo, hi = None, None
    for t in parts:
        for c, h, n in zip(t["code"].to_pylist(), t["hour_us"].to_pylist(),
                           t["cnt"].to_pylist()):
            acc[(c, h)] = acc.get((c, h), 0) + int(n)
            lo = h if lo is None else min(lo, h)
            hi = h if hi is None else max(hi, h)
    if lo is None:
        return pa.table({"event_type": pa.array([], type=pa.string()),
                         "hour_us": pa.array([], type=pa.int64()),
                         "cnt": pa.array([], type=pa.int64())})
    hours = np.arange(lo, hi + _HOUR_US, _HOUR_US, dtype=np.int64)
    types, hs, cnts = [], [], []
    for c, ty in enumerate(EVENT_TYPES):
        for h in hours:
            types.append(ty)
            hs.append(int(h))
            cnts.append(acc.get((c, int(h)), 0))
    return pa.table({"event_type": pa.array(types, type=pa.string()),
                     "hour_us": pa.array(hs, type=pa.int64()),
                     "cnt": pa.array(cnts, type=pa.int64())})


SQL_EVENTS_RESAMPLE_GAPFILL = """
WITH c AS (
    SELECT event_type, date_trunc('hour', ts) AS h, count(*)::BIGINT AS cnt
    FROM events GROUP BY 1, 2),
b AS (SELECT min(h) AS lo, max(h) AS hi FROM c),
grid AS (
    SELECT t.event_type, g.h
    FROM (SELECT DISTINCT event_type FROM events) t
    CROSS JOIN (SELECT unnest(generate_series(lo, hi, INTERVAL 1 HOUR))
                    AS h FROM b) g)
SELECT grid.event_type, epoch_us(grid.h)::BIGINT AS hour_us,
       coalesce(cnt, 0)::BIGINT AS cnt
FROM grid LEFT JOIN c ON c.event_type = grid.event_type AND c.h = grid.h
ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# CUBE grouping sets over (event_type, day)
# ---------------------------------------------------------------------------

_CUBE_ALL_TYPE = "ALL"
_CUBE_ALL_DAY = np.int64(-1)


def q_events_cube(sf_dir: str):
    """CUBE(event_type, day): all four grouping sets of (count,
    value-sum) in one pass.  The SAME per-batch (type, day) partials
    serve every set — the driver folds the base grid (|types| x |days|,
    time-bounded) and derives the three coarser sets from it, so the
    cube costs one scan and no extra exchange.  NULL group keys become
    the '{ALL}' / -1 sentinels on BOTH sides (the gate never compares
    NULLs)."""
    from engine.pipeline import collect_tables

    def partial(t: pa.Table) -> pa.Table:
        day = (_i64(t["ts"]) // _DAY_US) * _DAY_US
        g = pa.TableGroupBy(pa.table({
            "code": pa.array(_type_code(t["event_type"])),
            "day_us": pa.array(day),
            "v": pa.array(_milli(t["value"]))}), ["code", "day_us"]) \
            .aggregate([([], "count_all"), ("v", "sum")])
        return pa.table({"code": g["code"], "day_us": g["day_us"],
                         "cnt": pc.cast(g["count_all"], pa.int64()),
                         "val_milli": pc.cast(g["v_sum"], pa.int64())})

    parts = [x for x in collect_tables(
        _table(sf_dir, "events").select_columns(
            ["event_type", "ts", "value"])
        .map_batches(partial, batch_format="pyarrow", batch_size=None))
        if x.num_columns]
    base: dict = {}
    for t in parts:
        for c, d, n, v in zip(t["code"].to_pylist(),
                              t["day_us"].to_pylist(),
                              t["cnt"].to_pylist(),
                              t["val_milli"].to_pylist()):
            prev = base.get((c, d), (0, 0))
            base[(c, d)] = (prev[0] + int(n), prev[1] + int(v))
    out: dict = {}
    for (c, d), (n, v) in base.items():
        for key in ((EVENT_TYPES[c], d), (EVENT_TYPES[c], int(_CUBE_ALL_DAY)),
                    (_CUBE_ALL_TYPE, d),
                    (_CUBE_ALL_TYPE, int(_CUBE_ALL_DAY))):
            prev = out.get(key, (0, 0))
            out[key] = (prev[0] + n, prev[1] + v)
    rows = sorted(out.items())
    return pa.table({
        "event_type": pa.array([r[0][0] for r in rows], type=pa.string()),
        "day_us": pa.array([r[0][1] for r in rows], type=pa.int64()),
        "cnt": pa.array([r[1][0] for r in rows], type=pa.int64()),
        "value_milli": pa.array([r[1][1] for r in rows],
                                type=pa.int64())})


SQL_EVENTS_CUBE = f"""
SELECT coalesce(event_type, '{_CUBE_ALL_TYPE}') AS event_type,
       coalesce(epoch_us(date_trunc('day', ts)), -1)::BIGINT AS day_us,
       count(*)::BIGINT AS cnt,
       sum(CAST(floor(value*1000.0 + 0.5) AS BIGINT))::BIGINT
           AS value_milli
FROM events
GROUP BY CUBE (event_type, date_trunc('day', ts))
ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# UNPIVOT / melt: wide measure columns -> long (measure, value) rows
# ---------------------------------------------------------------------------

_MELT_MEASURES = ("quantity", "extendedprice", "discount", "tax")


def q_lineitem_unpivot(sf_dir: str):
    """UNPIVOT — the inverse reshaping of ``q_events_pivot``: lineitem's
    four measure columns melt into (orderkey, linenumber, measure,
    cents) long rows.  A pure stateless ``map_batches`` that emits 4x
    rows per batch by column concatenation (no exchange, no driver
    state; output block size is bounded by 4x the input block), so it
    streams at any scale."""

    def melt(t: pa.Table) -> pa.Table:
        n = t.num_rows
        okey = pc.cast(t["l_orderkey"], pa.int64())
        lnum = pc.cast(t["l_linenumber"], pa.int64())
        cents = [np.floor(t[f"l_{m}"].to_numpy(zero_copy_only=False)
                          * 100.0 + 0.5).astype(np.int64)
                 for m in _MELT_MEASURES]
        return pa.table({
            "l_orderkey": pa.concat_arrays([okey.combine_chunks()] * 4),
            "l_linenumber": pa.concat_arrays([lnum.combine_chunks()] * 4),
            "measure": pa.array(np.repeat(np.array(_MELT_MEASURES), n),
                                type=pa.string()),
            "cents": pa.array(np.concatenate(cents))})

    return read_parquet_clean(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax"]) \
        .map_batches(melt, batch_format="pyarrow")


SQL_LINEITEM_UNPIVOT = """
SELECT l_orderkey::BIGINT AS l_orderkey,
       l_linenumber::BIGINT AS l_linenumber, m.measure,
       CAST(floor(CASE m.measure
                  WHEN 'quantity'      THEN l_quantity
                  WHEN 'extendedprice' THEN l_extendedprice
                  WHEN 'discount'      THEN l_discount
                  ELSE l_tax END * 100.0 + 0.5) AS BIGINT) AS cents
FROM lineitem CROSS JOIN (
  SELECT unnest(['quantity', 'extendedprice', 'discount', 'tax'])
      AS measure) m
"""


# ---------------------------------------------------------------------------
# UNNEST with ordinality: list<float> column -> (id, pos, value) rows
# ---------------------------------------------------------------------------

_UNNEST_K = 8


def _unnest_embeddings(t: pa.Table) -> pa.Table:
    """One block of :func:`q_embedding_unnest`."""
    col = t["embedding"].combine_chunks()
    vid = pc.cast(t["vec_id"], pa.int64()).to_numpy(zero_copy_only=False)
    offs = col.offsets.to_numpy(zero_copy_only=False)
    lens = np.diff(offs).astype(np.int64)
    # flatten() skips the values a null entry's offsets still span, and
    # unnest(NULL) yields no rows: a null entry has length 0
    lens[col.is_null().to_numpy(zero_copy_only=False)] = 0
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    starts = np.concatenate(([0], np.cumsum(lens[:-1]))) \
        if len(lens) else np.array([], dtype=np.int64)
    pos = np.arange(len(flat), dtype=np.int64) - np.repeat(starts, lens)
    keep = pos < _UNNEST_K
    return pa.table({
        "vec_id": pa.array(np.repeat(vid, lens)[keep]),
        "pos": pa.array(pos[keep]),
        "val_micro": pa.array(
            np.floor(flat[keep] * 1_000_000.0 + 0.5).astype(np.int64))})


def q_embedding_unnest(sf_dir: str):
    """UNNEST of the embedding ``list<float>`` column with ordinality
    (first ``_UNNEST_K`` components): the list-column explode every
    token-array engine needs, done zero-copy from the Arrow list layout
    — values come from ``ListArray.flatten()``, positions from pure
    offset arithmetic (arange minus repeated starts), no per-row Python.
    A stateless map; output bounded by K x input rows per block."""
    return read_parquet_clean(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"]) \
        .map_batches(_unnest_embeddings, batch_format="pyarrow")


SQL_EMBEDDING_UNNEST = """
WITH u AS (
  SELECT vec_id::BIGINT AS vec_id,
         generate_subscripts(embedding, 1) - 1 AS pos,
         unnest(embedding) AS val
  FROM embeddings)
SELECT vec_id, pos::BIGINT AS pos,
       CAST(floor(CAST(val AS DOUBLE)*1000000.0 + 0.5) AS BIGINT)
           AS val_micro
FROM u WHERE pos < 8
"""
