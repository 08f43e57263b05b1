"""Data-reconciliation audit operators: order-independent content
checksums for verifying that two copies of a table (two pipeline runs,
two storage systems, a migration source and target) hold identical rows
WITHOUT sorting or co-locating either side.

The per-row digest folds into a per-group SUM, which is commutative, so
the checksum is invariant to row order, block layout and partitioning —
two 100 TB tables compare by exchanging O(groups) rows.  This
complements ``q_fk_violations`` (relational.py) on the pipeline-audit
shelf: that checks referential structure, this checks content equality.

Two regimes, the repo's standard dual-path pattern (corpus_split /
kmv_distinct precedent):

* ``q_table_checksum`` — GATE-COMPAT digest: md5 of a canonical
  ``field|field|...`` rendering, first 15 hex chars as a 60-bit int
  (the one hash DuckDB shares — ``('0x' || substr(md5(s), 1, 15))``),
  summed per group mod 2^63.  Per-row Python md5 over short strings, as
  every gate-compat digest site in this repo (the fast twin is the
  at-scale path).
* ``q_table_checksum_fast`` — the scale path: splitmix64 finalizer over
  the INTEGER content columns (key, custkey, epoch-microseconds),
  fully vectorized in numpy, rows-only (no SQL mirror) and pinned by
  layout-independence + sensitivity property tests
  (tests/test_audit.py).

Reference provenance: the reference validates decoded output by exact
per-field pytest comparison against checked-in goldens
(nr5g_hex_decoder tests); at 10^12 rows the row-for-row diff becomes
this checksum exchange.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from engine.io import read_parquet_clean

MOD63 = 1 << 63


def _orders(sf_dir: str, columns):
    return read_parquet_clean(os.path.join(sf_dir, "orders.parquet"),
                              columns=columns)


def _canon_rows(t: pa.Table) -> tuple[np.ndarray, list]:
    """Canonical per-row rendering (ints and strings only — doubles are
    excluded from the canon by design: their text rendering is
    formatter-dependent, so a cross-system checksum over them would
    compare formatters, not content)."""
    okey = pc.cast(t["o_orderkey"], pa.int64()).to_numpy(
        zero_copy_only=False)
    ckey = pc.cast(t["o_custkey"], pa.int64()).to_numpy(
        zero_copy_only=False)
    stat = t["o_orderstatus"].to_numpy(zero_copy_only=False)
    prio = t["o_orderpriority"].to_numpy(zero_copy_only=False)
    ep = t["o_orderdate"].to_numpy(zero_copy_only=False) \
        .astype("datetime64[us]").astype(np.int64)
    canon = [f"{o}|{c}|{s}|{e}"
             for o, c, s, e in zip(okey, ckey, stat, ep)]
    return prio, canon


def q_table_checksum(sf_dir: str):
    """Per-priority order-independent content checksum of orders:
    60-bit md5 digests of the canonical row rendering summed mod 2^63.
    One pruned map of (group, n, sum) partials; driver folds in
    bigints.  Equal tables => equal (n, checksum) per group, any row
    order, any partitioning."""
    from engine.pipeline import collect_tables

    # a naive int64 groupby sum of 60-bit digests overflows within one
    # batch (~8k max-digest rows), so the digest pre-splits into
    # base-10^9 limbs and the limbs sum separately (stats.py recipe)
    def partial_limbs(t: pa.Table) -> pa.Table:
        prio, canon = _canon_rows(t)
        dig = [int(hashlib.md5(s.encode()).hexdigest()[:15], 16)
               for s in canon]
        arr = np.array(dig, dtype=np.int64)
        g = pa.TableGroupBy(
            pa.table({"o_orderpriority": pa.array(prio, type=pa.string()),
                      "hi": pa.array(arr // 10 ** 9),
                      "lo": pa.array(arr % 10 ** 9)}),
            ["o_orderpriority"]).aggregate([([], "count_all"),
                                            ("hi", "sum"), ("lo", "sum")])
        return pa.table({
            "o_orderpriority": g["o_orderpriority"],
            "n": pc.cast(g["count_all"], pa.int64()),
            "hi": pc.cast(g["hi_sum"], pa.int64()),
            "lo": pc.cast(g["lo_sum"], pa.int64())})

    acc: dict = {}
    ds = _orders(sf_dir, ["o_orderkey", "o_custkey", "o_orderstatus",
                          "o_orderpriority", "o_orderdate"]) \
        .map_batches(partial_limbs, batch_format="pyarrow",
                     batch_size=None)
    for b in collect_tables(ds):
        if not b.num_columns:
            continue
        for r in b.to_pylist():
            prev = acc.get(r["o_orderpriority"], (0, 0))
            acc[r["o_orderpriority"]] = (
                prev[0] + int(r["n"]),
                prev[1] + 10 ** 9 * int(r["hi"]) + int(r["lo"]))
    keys = sorted(acc)
    return pa.table({
        "o_orderpriority": pa.array(keys, type=pa.string()),
        "n": pa.array([acc[k][0] for k in keys], type=pa.int64()),
        "checksum": pa.array([acc[k][1] % MOD63 for k in keys],
                             type=pa.int64())})


SQL_TABLE_CHECKSUM = """
WITH c AS (
  SELECT o_orderpriority,
         ('0x' || substr(md5(
             o_orderkey::VARCHAR || '|' || o_custkey::VARCHAR || '|' ||
             o_orderstatus || '|' ||
             epoch_us(o_orderdate)::VARCHAR), 1, 15))::BIGINT AS d
  FROM orders)
SELECT o_orderpriority, count(*)::BIGINT AS n,
       CAST(sum(d::HUGEINT) % 9223372036854775808 AS BIGINT) AS checksum
FROM c GROUP BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# fast twin: vectorized splitmix64 over the integer content columns
# ---------------------------------------------------------------------------

def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain constants), the
    same mixer streaming.py's fast jitter twin uses."""
    z = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z += np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def _fast_row_hash(t: pa.Table) -> np.ndarray:
    """Per-row uint64 digest of the fast twin."""
    okey = pc.cast(t["o_orderkey"], pa.int64()).to_numpy(
        zero_copy_only=False)
    ckey = pc.cast(t["o_custkey"], pa.int64()).to_numpy(
        zero_copy_only=False)
    ep = t["o_orderdate"].to_numpy(zero_copy_only=False) \
        .astype("datetime64[us]").astype(np.int64)
    a = splitmix64(okey)
    b = splitmix64(ckey)
    c = splitmix64(ep)
    # rotate the field lanes so field order matters per row while the
    # per-row combine stays one uint64
    return a ^ ((b << np.uint64(21)) | (b >> np.uint64(43))) \
        ^ ((c << np.uint64(42)) | (c >> np.uint64(22)))


def _fast_partial(t: pa.Table) -> pa.Table:
    """Per-priority row count and digest sum of one batch.

    The digest is summed as two 32-bit limbs in int64 columns, which
    cannot overflow below 2^31 rows per batch; :func:`_fast_fold`
    recombines them mod 2^64."""
    h = _fast_row_hash(t)
    g = pa.TableGroupBy(
        pa.table({"o_orderpriority": t["o_orderpriority"],
                  "h_lo": pa.array((h & np.uint64(0xFFFFFFFF))
                                   .astype(np.int64)),
                  "h_hi": pa.array((h >> np.uint64(32)).astype(np.int64))}),
        ["o_orderpriority"]).aggregate([([], "count_all"),
                                        ("h_lo", "sum"), ("h_hi", "sum")])
    return pa.table({
        "o_orderpriority": g["o_orderpriority"],
        "n": pc.cast(g["count_all"], pa.int64()),
        "h_lo": g["h_lo_sum"], "h_hi": g["h_hi_sum"]})


def _fast_fold(partials) -> pa.Table:
    """Fold :func:`_fast_partial` tables into the per-priority checksum
    (the uint64 digest sum mod 2^64, reported as int64)."""
    acc: dict = {}
    for b in partials:
        if not b.num_columns:
            continue
        for r in b.to_pylist():
            prev = acc.get(r["o_orderpriority"], (0, 0))
            acc[r["o_orderpriority"]] = (
                prev[0] + int(r["n"]),
                (prev[1] + int(r["h_lo"]) + (int(r["h_hi"]) << 32))
                & 0xFFFFFFFFFFFFFFFF)
    keys = sorted(acc)
    return pa.table({
        "o_orderpriority": pa.array(keys, type=pa.string()),
        "n": pa.array([acc[k][0] for k in keys], type=pa.int64()),
        "checksum": pa.array(
            [np.uint64(acc[k][1]).astype(np.int64) for k in keys],
            type=pa.int64())})


def q_table_checksum_fast(sf_dir: str):
    """Integer-content checksum of orders, md5-free: per row
    ``splitmix64(okey) ^ rot(splitmix64(ckey)) ^ rot2(splitmix64(epoch))``
    summed per priority mod 2^64 (wrap-around sum is commutative, so
    order/layout independence holds exactly) — the at-scale twin of
    :func:`q_table_checksum`.  Rows-only; pinned by property tests."""
    from engine.pipeline import collect_tables

    ds = _orders(sf_dir, ["o_orderkey", "o_custkey", "o_orderpriority",
                          "o_orderdate"]) \
        .map_batches(_fast_partial, batch_format="pyarrow", batch_size=None)
    return _fast_fold(collect_tables(ds))
