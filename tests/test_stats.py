"""Second-moment sufficient statistics (engine/stats.py).

The gated queries themselves are covered by tests/test_queries.py's
oracle sweep; these tests check what the gate cannot: (1) the DERIVED
float statistics (variance / Pearson r / OLS slope) recovered from the
integer sufficient statistics agree with DuckDB's native var_pop() /
corr() / regr_slope() aggregates, and (2) the base-10^9 per-batch limb
split survives squared terms that would overflow a naive int64 batch
sum.
"""

import os

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from engine import stats

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ["lineitem", "events", "customer", "nation"]:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


def test_derived_variance_matches_duckdb(ray_session, con):
    t = stats.q_value_moments_by_type(SF)
    want = {r[0]: r[1] for r in con.sql(
        "SELECT event_type, var_pop(CAST(floor(value*100.0+0.5) AS BIGINT))"
        " FROM events GROUP BY 1").fetchall()}
    assert set(t["event_type"].to_pylist()) == set(want)
    for i in range(t.num_rows):
        etype = t["event_type"][i].as_py()
        n, s1 = t["n"][i].as_py(), t["s1"][i].as_py()
        s2 = stats.DEC18 * t["s2_hi"][i].as_py() + t["s2_lo"][i].as_py()
        got = stats.derive_var_pop(n, s1, s2)
        assert got == pytest.approx(want[etype], rel=1e-12), etype


def test_derived_corr_and_slope_match_duckdb(ray_session, con):
    t = stats.q_corr_price_discount(SF)
    want = {r[0]: (r[1], r[2]) for r in con.sql("""
        SELECT l_returnflag,
               corr(floor(l_extendedprice*100.0+0.5),
                    floor(l_discount*100.0+0.5)),
               regr_slope(floor(l_discount*100.0+0.5),
                          floor(l_extendedprice*100.0+0.5))
        FROM lineitem GROUP BY 1""").fetchall()}
    for i in range(t.num_rows):
        flag = t["l_returnflag"][i].as_py()
        n = t["n"][i].as_py()
        sx = stats.DEC18 * t["sx_hi"][i].as_py() + t["sx_lo"][i].as_py()
        sy = t["sy"][i].as_py()
        sxx = stats.DEC18 * t["sxx_hi"][i].as_py() + t["sxx_lo"][i].as_py()
        syy = t["syy"][i].as_py()
        sxy = stats.DEC18 * t["sxy_hi"][i].as_py() + t["sxy_lo"][i].as_py()
        r = stats.derive_corr(n, sx, sy, sxx, syy, sxy)
        slope = stats.derive_slope(n, sx, sy, sxx, sxy)
        # DuckDB corr/regr_slope use sample/population float folds; the
        # integer-exact rational agrees to near machine precision
        assert r == pytest.approx(want[flag][0], rel=1e-9, abs=1e-12), flag
        assert slope == pytest.approx(want[flag][1], rel=1e-9,
                                      abs=1e-15), flag


def test_limb_split_survives_batch_overflow():
    """262k max-price rows: naive sum(x^2) = 2.6e19 > 2^63 overflows a
    single-batch int64 fold; the base-10^9 limb split must not."""
    cents = np.full(262_144, 10_000_000, dtype=np.int64)  # $100k in cents
    keys = pa.array(["hot"] * len(cents))
    part = stats._sq_limb_partial("k", cents, keys)
    assert part.num_rows == 1
    s2 = stats.DEC9 * part["q_hi"][0].as_py() + part["q_lo"][0].as_py()
    assert s2 == len(cents) * 10_000_000 ** 2  # exact, > 2^64
    assert s2 > 2 ** 64


def test_limbs_roundtrip_hugeint_range():
    for v in [0, 1, stats.DEC18 - 1, stats.DEC18, 2 ** 100,
              3 ** 70 + 12345]:
        hi, lo = stats._limbs(v)
        assert hi * stats.DEC18 + lo == v
        assert 0 <= lo < stats.DEC18
        assert hi < 2 ** 63 and lo < 2 ** 63


def test_event_paths_block_truncates_and_orders(ray_session):
    """paths_block: ts-then-event_id ordering, _PATH_K truncation, and
    multi-user interleaving in one partition."""
    from engine.analytics import _PATH_K, paths_block
    n_long = _PATH_K + 3
    uid = [7] * n_long + [3, 3]
    ts = list(range(n_long)) + [5, 5]          # user 3: tie on ts
    eid = list(range(n_long)) + [21, 20]       # -> event_id breaks the tie
    et = [f"e{i}" for i in range(n_long)] + ["b", "a"]
    t = pa.table({
        "user_id": pa.array(uid, type=pa.int64()),
        "ts": pa.array(np.array(ts, dtype="datetime64[us]")),
        "event_id": pa.array(eid, type=pa.int64()),
        "event_type": pa.array(et, type=pa.string())})
    out = paths_block(t)
    rows = {r["user_id"]: r for r in out.to_pylist()}
    assert rows[3]["path"] == "a>b" and rows[3]["n_path"] == 2
    assert rows[7]["n_path"] == _PATH_K
    assert rows[7]["path"] == ">".join(f"e{i}" for i in range(_PATH_K))


def test_mode_candidates_tie_breaks_to_smallest():
    t = pa.table({
        "event_type": pa.array(["a", "a", "a", "b"], type=pa.string()),
        "cents": pa.array([7, 3, 7, 9], type=pa.int64()),
        "cnt": pa.array([2, 5, 3, 1], type=pa.int64())})
    out = stats.mode_candidates_block(t).to_pylist()
    rows = {r["event_type"]: r for r in out}
    # 'a': cents 7 folds to 5 == cents 3's 5 -> tie -> smallest value (3)
    assert rows["a"]["cents"] == 3 and rows["a"]["cnt"] == 5
    assert rows["b"]["cents"] == 9 and rows["b"]["cnt"] == 1


def test_first_last_partial_fold_associative():
    """Folding per-batch candidates must equal the single-batch answer
    regardless of how rows are split across batches."""
    import numpy as np

    from engine.analytics import first_last_fold_block, first_last_partial
    rng = np.random.default_rng(7)
    n = 500
    t = pa.table({
        "user_id": pa.array(rng.integers(0, 20, n), type=pa.int64()),
        "event_id": pa.array(rng.permutation(n), type=pa.int64()),
        "ts": pa.array(rng.integers(0, 50, n).astype("datetime64[us]")),
        "event_type": pa.array([f"t{v}" for v in rng.integers(0, 6, n)],
                               type=pa.string())})
    whole = first_last_fold_block(first_last_partial(t)).to_pylist()
    parts = [first_last_partial(t.slice(o, 97))
             for o in range(0, n, 97)]
    split = first_last_fold_block(pa.concat_tables(parts)).to_pylist()
    key = lambda rows: sorted((r["user_id"], r["first_event"],
                               r["last_event"], r["n_events"])
                              for r in rows)
    assert key(whole) == key(split)


def test_fold_rows_driver_bound(ray_session):
    """The driver fold must receive O(groups x batches) rows — never
    O(data rows) — even when the corpus is split into many blocks."""
    stats.q_value_moments_by_type(SF)
    s = dict(stats.LAST_STATS)
    assert s["groups"] >= 1 and s["batches"] >= 1
    assert s["fold_rows"] <= s["groups"] * s["batches"]
    # and the partial pre-shrink really shrank: far fewer fold rows than
    # the 6k-row fixture events table
    assert s["fold_rows"] < 1000


def test_acctbal_moments_drop_orphan_nation_keys(ray_session, tmp_path):
    """A customer whose c_nationkey is missing from nation (or null) drops
    out, as in the oracle SQL's inner join, instead of raising."""
    import pyarrow.parquet as pq
    from engine.extras import EXTRA_ORACLE_SQL
    tmp = str(tmp_path)
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "c_nationkey": pa.array([0, 1, 0, 9, None], pa.int32()),
        "c_acctbal": pa.array([10.5, -3.25, 7.0, 123.45, 8.0]),
    }), os.path.join(tmp, "customer.parquet"))
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0, 1, 2], pa.int32()),
        "n_name": ["ALGERIA", "ARGENTINA", "BRAZIL"],
    }), os.path.join(tmp, "nation.parquet"))
    got = stats.q_acctbal_moments_by_nation(tmp)
    c = duckdb.connect()
    for t in ("customer", "nation"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{tmp}/{t}.parquet')")
    want = c.sql(EXTRA_ORACLE_SQL["acctbal_moments_by_nation"]).arrow()
    assert got.sort_by("n_name").to_pylist() == \
        want.sort_by("n_name").to_pylist()
    assert got["n_name"].to_pylist() == ["ALGERIA", "ARGENTINA"]
