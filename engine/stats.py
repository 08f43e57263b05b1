"""Second-moment sufficient statistics: exact distributed variance,
covariance, correlation and regression aggregates.

The classic decomposable-aggregate family the registry lacked: every
statistic here is a sum of per-row integer terms, so the distributed plan
is always ONE column-pruned ``map_batches`` of per-batch partials plus a
driver fold in Python bigints — no shuffle, no sort, no group co-location
(the :func:`engine.robust.q_value_outliers` recipe, generalized).  The
reference's aggregate layer (src/parser.py summary counts) has no second
moments; these extend the profiling family that robust.py / sketch.py
started.

Exactness contract (the repo-wide rule — see engine/queries.py): NO float
math anywhere on the gated path.  Values quantize to integer cents /
percent once (``floor(v*100 + 0.5)``, the relational2/robust rule), every
sum is an integer, and wide sums are emitted as base-10^18 limb pairs
(``*_hi``, ``*_lo``) so a 10^12-row corpus cannot overflow int64 while
DuckDB mirrors the split with nonneg HUGEINT ``//`` / ``%`` (truncating
division == floor division for nonnegative operands — signed quantities
here are only the FIRST moments, which fit int64 outright).

Per-row squared terms can overflow a single-BATCH int64 sum long before
the global sum matters (262k-row blocks x (10^7 cents)^2 = 2.6e19 > 2^63),
so the per-batch kernel splits each x^2 term into base-10^9 limbs FIRST
and sums the limbs separately (sum_hi <= 262k x 10^5, sum_lo <= 262k x
10^9 — both comfortably int64); the driver recombines ``10^9 * hi + lo``
in bigints.  This is the linalg.py hi/lo-partial trick in decimal radix.

Consumers derive variance / Pearson r / OLS slope from the sufficient
statistics as exact rationals: var = (n*sxx - sx^2) / n^2,
cov = (n*sxy - sx*sy) / n^2, r^2 = cov^2 / (varx*vary),
slope = (n*sxy - sx*sy) / (n*sxx - sx^2) — tests/test_stats.py checks the
derived floats against DuckDB's corr()/regr_slope()/var_pop() at 1e-12.

Scale: driver state is O(groups); data transfer is O(groups x batches)
partial rows.  Nothing here materializes, shuffles or co-locates rows.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from engine.io import read_parquet_clean
from engine.pipeline import collect_tables

DEC18 = 10 ** 18          # output limb radix (fits int64, HUGEINT-safe)
DEC9 = 10 ** 9            # per-batch term-split radix for squared terms


def _read(sf_dir: str, table: str, columns):
    return read_parquet_clean(os.path.join(sf_dir, f"{table}.parquet"),
                              columns=columns)


def _cents(col) -> np.ndarray:
    v = col.to_numpy(zero_copy_only=False)
    return np.floor(v * 100.0 + 0.5).astype(np.int64)


def _limbs(total: int) -> tuple[int, int]:
    """Nonnegative bigint -> (hi, lo) base-10^18 limbs, both int64."""
    assert total >= 0
    return total // DEC18, total % DEC18


# driver-state introspection (the simsearch/robust LAST_* precedent):
# filled by every _fold_rows call so tests can assert the documented
# O(groups x batches) driver-input bound instead of trusting docstrings
LAST_STATS: dict = {}


def _fold_rows(ds, key_cols: tuple[str, ...]) -> dict:
    """Collect per-batch partial tables and fold every non-key column
    into Python bigints per key — O(groups x batches) driver input."""
    acc: dict = {}
    fold_rows = batches = 0
    for b in collect_tables(ds):
        if not b.num_columns:
            continue
        batches += 1
        fold_rows += b.num_rows
        names = b.column_names
        vals = [c for c in names if c not in key_cols]
        for r in b.to_pylist():
            k = tuple(r[c] for c in key_cols)
            prev = acc.get(k)
            if prev is None:
                acc[k] = {c: int(r[c]) for c in vals}
            else:
                for c in vals:
                    prev[c] += int(r[c])
    LAST_STATS.clear()
    LAST_STATS.update({"fold_rows": fold_rows, "batches": batches,
                       "groups": len(acc)})
    return acc


# ---------------------------------------------------------------------------
# per-type variance sufficient statistics over the event log
# ---------------------------------------------------------------------------

def _sq_limb_partial(group_col: str, cents: np.ndarray,
                     keys) -> pa.Table:
    """Per-batch (n, s1, s2-in-base-10^9-limbs) partials per group key."""
    sq = cents * cents                       # < 2^62 per term by contract
    g = pa.TableGroupBy(pa.table({
        group_col: keys, "c": pa.array(cents),
        "q_hi": pa.array(sq // DEC9), "q_lo": pa.array(sq % DEC9)}),
        [group_col]).aggregate([([], "count_all"), ("c", "sum"),
                                ("q_hi", "sum"), ("q_lo", "sum")])
    return pa.table({group_col: g[group_col],
                     "n": pc.cast(g["count_all"], pa.int64()),
                     "s1": pc.cast(g["c_sum"], pa.int64()),
                     "q_hi": pc.cast(g["q_hi_sum"], pa.int64()),
                     "q_lo": pc.cast(g["q_lo_sum"], pa.int64())})


def q_value_moments_by_type(sf_dir: str):
    """Per-event-type count / sum / sum-of-squares of value cents — the
    variance sufficient statistics as one partial map + driver bigint
    fold.  s2 is emitted as base-10^18 limbs (module docstring)."""

    def partial(t: pa.Table) -> pa.Table:
        return _sq_limb_partial("event_type", _cents(t["value"]),
                                t["event_type"])

    acc = _fold_rows(
        _read(sf_dir, "events", ["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow", batch_size=None),
        ("event_type",))
    rows = []
    for (etype,), m in sorted(acc.items()):
        s2 = DEC9 * m["q_hi"] + m["q_lo"]
        hi, lo = _limbs(s2)
        rows.append((etype, m["n"], m["s1"], hi, lo))
    return pa.table({
        "event_type": pa.array([r[0] for r in rows], type=pa.string()),
        "n": pa.array([r[1] for r in rows], type=pa.int64()),
        "s1": pa.array([r[2] for r in rows], type=pa.int64()),
        "s2_hi": pa.array([r[3] for r in rows], type=pa.int64()),
        "s2_lo": pa.array([r[4] for r in rows], type=pa.int64())})


SQL_VALUE_MOMENTS_BY_TYPE = """
WITH c AS (
  SELECT event_type, CAST(floor(value*100.0 + 0.5) AS BIGINT) AS cents
  FROM events),
m AS (
  SELECT event_type, count(*)::BIGINT AS n, sum(cents)::BIGINT AS s1,
         sum(cents::HUGEINT * cents::HUGEINT) AS s2
  FROM c GROUP BY event_type)
SELECT event_type, n, s1,
       CAST(s2 // 1000000000000000000 AS BIGINT) AS s2_hi,
       CAST(s2 %  1000000000000000000 AS BIGINT) AS s2_lo
FROM m
"""


# ---------------------------------------------------------------------------
# per-flag correlation / regression sufficient statistics over lineitem
# ---------------------------------------------------------------------------

def q_corr_price_discount(sf_dir: str):
    """Per-returnflag raw second-moment sufficient statistics over
    (x = extendedprice cents, y = discount percent): n, sx, sy, sxx,
    syy, sxy — everything Pearson r / OLS slope / covariance need,
    integer-exact.  x-bearing sums ride as 10^18 limbs; y-bearing sums
    fit int64 at any scale (y <= 100, so syy <= 10^4 n and sy <= 10^2 n
    stay under 2^63 past 10^14 rows).  One pruned map, no shuffle."""

    def partial(t: pa.Table) -> pa.Table:
        x = _cents(t["l_extendedprice"])
        y = np.floor(t["l_discount"].to_numpy(zero_copy_only=False)
                     * 100.0 + 0.5).astype(np.int64)
        xx = x * x
        g = pa.TableGroupBy(pa.table({
            "l_returnflag": t["l_returnflag"],
            "x": pa.array(x), "y": pa.array(y),
            "xx_hi": pa.array(xx // DEC9), "xx_lo": pa.array(xx % DEC9),
            "yy": pa.array(y * y), "xy": pa.array(x * y)}),
            ["l_returnflag"]).aggregate(
                [([], "count_all"), ("x", "sum"), ("y", "sum"),
                 ("xx_hi", "sum"), ("xx_lo", "sum"), ("yy", "sum"),
                 ("xy", "sum")])
        return pa.table({
            "l_returnflag": g["l_returnflag"],
            "n": pc.cast(g["count_all"], pa.int64()),
            "sx": pc.cast(g["x_sum"], pa.int64()),
            "sy": pc.cast(g["y_sum"], pa.int64()),
            "xx_hi": pc.cast(g["xx_hi_sum"], pa.int64()),
            "xx_lo": pc.cast(g["xx_lo_sum"], pa.int64()),
            "syy": pc.cast(g["yy_sum"], pa.int64()),
            "sxy": pc.cast(g["xy_sum"], pa.int64())})

    acc = _fold_rows(
        _read(sf_dir, "lineitem",
              ["l_returnflag", "l_extendedprice", "l_discount"])
        .map_batches(partial, batch_format="pyarrow", batch_size=None),
        ("l_returnflag",))
    rows = []
    for (flag,), m in sorted(acc.items()):
        sxx = DEC9 * m["xx_hi"] + m["xx_lo"]
        sx_hi, sx_lo = _limbs(m["sx"])
        sxx_hi, sxx_lo = _limbs(sxx)
        sxy_hi, sxy_lo = _limbs(m["sxy"])
        rows.append((flag, m["n"], sx_hi, sx_lo, m["sy"],
                     sxx_hi, sxx_lo, m["syy"], sxy_hi, sxy_lo))
    cols = ["l_returnflag", "n", "sx_hi", "sx_lo", "sy",
            "sxx_hi", "sxx_lo", "syy", "sxy_hi", "sxy_lo"]
    types = [pa.string()] + [pa.int64()] * 9
    return pa.table({c: pa.array([r[i] for r in rows], type=ty)
                     for i, (c, ty) in enumerate(zip(cols, types))})


SQL_CORR_PRICE_DISCOUNT = """
WITH c AS (
  SELECT l_returnflag,
         CAST(floor(l_extendedprice*100.0 + 0.5) AS BIGINT) AS x,
         CAST(floor(l_discount*100.0 + 0.5) AS BIGINT) AS y
  FROM lineitem),
m AS (
  SELECT l_returnflag, count(*)::BIGINT AS n,
         sum(x::HUGEINT) AS sx, sum(y)::BIGINT AS sy,
         sum(x::HUGEINT * x::HUGEINT) AS sxx,
         sum(y*y)::BIGINT AS syy,
         sum(x::HUGEINT * y::HUGEINT) AS sxy
  FROM c GROUP BY l_returnflag)
SELECT l_returnflag, n,
       CAST(sx  // 1000000000000000000 AS BIGINT) AS sx_hi,
       CAST(sx  %  1000000000000000000 AS BIGINT) AS sx_lo,
       sy,
       CAST(sxx // 1000000000000000000 AS BIGINT) AS sxx_hi,
       CAST(sxx %  1000000000000000000 AS BIGINT) AS sxx_lo,
       syy,
       CAST(sxy // 1000000000000000000 AS BIGINT) AS sxy_hi,
       CAST(sxy %  1000000000000000000 AS BIGINT) AS sxy_lo
FROM m
"""


# ---------------------------------------------------------------------------
# per-nation account-balance moments (moments after a broadcast join)
# ---------------------------------------------------------------------------

def q_acctbal_moments_by_nation(sf_dir: str):
    """Per-nation count / sum / sum-of-squares of customer balance cents:
    the moments kernel composed with a broadcast dimension join (nation is
    25 rows — a driver dict shipped in the closure, the stages.py enrich
    recipe).  acctbal is SIGNED, so s1 is a plain int64 column (first
    moments cannot outgrow int64: |s1| <= 10^6 cents x 10^12 rows < 2^63
    only past 10^12 rows x $10k — the docstring bound); s2 is nonneg and
    rides the standard 10^18 limbs."""
    import pyarrow.parquet as pq
    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                        columns=["n_nationkey", "n_name"])  # 25-row dim:
    # a driver-side parquet read, not a Ray job (and immune to the
    # empty-block schema-loss quirk an empty Dataset.to_pandas has)
    name_of = dict(zip(nat["n_nationkey"].to_pylist(),
                       nat["n_name"].to_pylist()))

    known = pa.array(list(name_of), type=pa.int64())

    def partial(t: pa.Table) -> pa.Table:
        keys = pc.cast(t["c_nationkey"], pa.int64())
        # the oracle's inner join drops customers whose key is null or not
        # in nation
        matched = pc.is_in(keys, value_set=known)
        t, keys = t.filter(matched), keys.filter(matched)
        cents = _cents(t["c_acctbal"])
        nk = keys.to_numpy(zero_copy_only=False)
        # vectorized key -> name: factorize the small key domain once
        uniq, inv = np.unique(nk, return_inverse=True)
        names = pa.array([name_of[int(k)] for k in uniq],
                         type=pa.string())
        return _sq_limb_partial(
            "n_name", cents,
            pc.take(names, pa.array(inv, type=pa.int64())))

    acc = _fold_rows(
        _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])
        .map_batches(partial, batch_format="pyarrow", batch_size=None),
        ("n_name",))
    rows = []
    for (name,), m in sorted(acc.items()):
        hi, lo = _limbs(DEC9 * m["q_hi"] + m["q_lo"])
        rows.append((name, m["n"], m["s1"], hi, lo))
    return pa.table({
        "n_name": pa.array([r[0] for r in rows], type=pa.string()),
        "n": pa.array([r[1] for r in rows], type=pa.int64()),
        "s1": pa.array([r[2] for r in rows], type=pa.int64()),
        "s2_hi": pa.array([r[3] for r in rows], type=pa.int64()),
        "s2_lo": pa.array([r[4] for r in rows], type=pa.int64())})


SQL_ACCTBAL_MOMENTS_BY_NATION = """
WITH c AS (
  SELECT n.n_name, CAST(floor(c_acctbal*100.0 + 0.5) AS BIGINT) AS cents
  FROM customer JOIN nation n ON c_nationkey = n_nationkey),
m AS (
  SELECT n_name, count(*)::BIGINT AS n, sum(cents)::BIGINT AS s1,
         sum(cents::HUGEINT * cents::HUGEINT) AS s2
  FROM c GROUP BY n_name)
SELECT n_name, n, s1,
       CAST(s2 // 1000000000000000000 AS BIGINT) AS s2_hi,
       CAST(s2 %  1000000000000000000 AS BIGINT) AS s2_lo
FROM m
"""


# ---------------------------------------------------------------------------
# derived-statistic helpers (consumers + tests; NOT on the gated path)
# ---------------------------------------------------------------------------

def derive_var_pop(n: int, s1: int, s2: int) -> float:
    """Population variance from exact integer moments (float only at the
    final division)."""
    return (n * s2 - s1 * s1) / (n * n) if n else float("nan")


def derive_corr(n: int, sx: int, sy: int, sxx: int, syy: int,
                sxy: int) -> float:
    """Pearson r from exact integer sufficient statistics."""
    cov_n = n * sxy - sx * sy
    vx_n = n * sxx - sx * sx
    vy_n = n * syy - sy * sy
    d = vx_n * vy_n
    return cov_n / (d ** 0.5) if d > 0 else float("nan")


def derive_slope(n: int, sx: int, sy: int, sxx: int, sxy: int) -> float:
    """OLS slope of y on x from exact integer sufficient statistics."""
    den = n * sxx - sx * sx
    return (n * sxy - sx * sy) / den if den else float("nan")


# ---------------------------------------------------------------------------
# exact grouped mode (most frequent value per group)
# ---------------------------------------------------------------------------

def mode_candidates_block(t: pa.Table) -> pa.Table:
    """(event_type, cents)-partition kernel: finish the global count of
    every (type, value) pair that landed here (co-location by the PAIR
    makes per-partition sums global) and emit only each type's local
    argmax candidate — O(types) rows per partition back to the driver."""
    empty = pa.schema([("event_type", pa.string()),
                       ("cents", pa.int64()),
                       ("cnt", pa.int64())]).empty_table()
    if t.num_rows == 0:
        return empty
    g = pa.TableGroupBy(t, ["event_type", "cents"]) \
        .aggregate([("cnt", "sum")])
    et = g["event_type"].to_numpy(zero_copy_only=False)
    cents = g["cents"].to_numpy(zero_copy_only=False)
    cnt = g["cnt_sum"].to_numpy(zero_copy_only=False)
    # per type: max count, tie -> smallest value (sort by (type, -cnt,
    # cents) and take group starts)
    order = np.lexsort((cents, -cnt, et))
    et, cents, cnt = et[order], cents[order], cnt[order]
    starts = np.flatnonzero(np.r_[True, et[1:] != et[:-1]])
    return pa.table({
        "event_type": pa.array(et[starts], type=pa.string()),
        "cents": pa.array(cents[starts], type=pa.int64()),
        "cnt": pa.array(cnt[starts], type=pa.int64())})


def q_mode_value_by_type(sf_dir: str):
    """Exact per-type MODE of value cents (tie -> smallest value): per-
    batch (type, cents) count partials pre-shrink each batch to its
    distinct pairs, ONE exchange keyed on the PAIR completes the counts
    (so the plan is safe for unbounded value domains — no driver-side
    count dictionary), each partition returns only its per-type argmax
    candidate, and the driver folds O(types x partitions) rows."""
    from engine.stages import hash_group_exchange

    def partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(
            pa.table({"event_type": t["event_type"],
                      "cents": pa.array(_cents(t["value"]))}),
            ["event_type", "cents"]).aggregate([([], "count_all")])
        return pa.table({"event_type": g["event_type"],
                         "cents": g["cents"],
                         "cnt": pc.cast(g["count_all"], pa.int64())})

    import pyarrow.parquet as pq
    nrows = pq.read_metadata(
        os.path.join(sf_dir, "events.parquet")).num_rows
    df = hash_group_exchange(
        lambda: _read(sf_dir, "events", ["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow", batch_size=None),
        ["event_type", "cents"], mode_candidates_block, collect=True,
        rows_hint=max(1, nrows // 8))
    if df.empty or "cents" not in df.columns:
        import pandas as pd
        return pd.DataFrame({"event_type": pd.Series([], dtype="object"),
                             "mode_cents": pd.Series([], dtype="int64"),
                             "n_mode": pd.Series([], dtype="int64")})
    # driver fold: max count per type, tie -> smallest value
    df = df.sort_values(["event_type", "cnt", "cents"],
                        ascending=[True, False, True], ignore_index=True)
    df = df.drop_duplicates("event_type", keep="first", ignore_index=True)
    out = df.rename(columns={"cents": "mode_cents", "cnt": "n_mode"})
    out["mode_cents"] = out["mode_cents"].astype("int64")
    out["n_mode"] = out["n_mode"].astype("int64")
    return out[["event_type", "mode_cents", "n_mode"]]


SQL_MODE_VALUE_BY_TYPE = """
WITH c AS (
  SELECT event_type, CAST(floor(value*100.0 + 0.5) AS BIGINT) AS cents
  FROM events),
g AS (
  SELECT event_type, cents, count(*)::BIGINT AS cnt
  FROM c GROUP BY 1, 2),
r AS (
  SELECT *, row_number() OVER (PARTITION BY event_type
                               ORDER BY cnt DESC, cents ASC) AS rn
  FROM g)
SELECT event_type, cents AS mode_cents, cnt AS n_mode
FROM r WHERE rn = 1
"""
