"""Reconciliation checksums (engine/audit.py): order/layout
independence, content sensitivity, and md5/fast-twin agreement of
structure.  The gated md5 path is covered by tests/test_queries.py."""

import numpy as np
import pyarrow as pa
import pytest

from engine import audit

SF = "/root/testdata/sf0.001"


def _shuffled_copy(path, seed, out):
    import pyarrow.parquet as pq
    t = pq.read_table(path)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(t.num_rows)
    pq.write_table(t.take(pa.array(perm)), out,
                   row_group_size=max(1, t.num_rows // 7))
    return out


@pytest.mark.parametrize("qfn", [audit.q_table_checksum,
                                 audit.q_table_checksum_fast])
def test_checksum_layout_independent(ray_session, tmp_path, qfn):
    """Shuffling rows and re-chunking row groups must not change any
    (group, n, checksum) triple."""
    base = qfn(SF).to_pylist()
    alt = tmp_path / "alt"
    alt.mkdir()
    import shutil
    for t in ["orders"]:
        _shuffled_copy(f"{SF}/{t}.parquet", 3, str(alt / f"{t}.parquet"))
    shuffled = qfn(str(alt)).to_pylist()
    key = lambda rows: sorted((r["o_orderpriority"], r["n"], r["checksum"])
                              for r in rows)
    assert key(base) == key(shuffled)


@pytest.mark.parametrize("qfn", [audit.q_table_checksum,
                                 audit.q_table_checksum_fast])
def test_checksum_detects_single_field_change(ray_session, tmp_path, qfn):
    """Flipping one integer field in one row must change exactly that
    group's checksum and no other group's."""
    import pyarrow.parquet as pq
    t = pq.read_table(f"{SF}/orders.parquet")
    ckey = t["o_custkey"].to_pylist()
    ckey[17] += 1
    prio_touched = t["o_orderpriority"][17].as_py()
    t2 = t.set_column(t.schema.get_field_index("o_custkey"), "o_custkey",
                      pa.array(ckey, type=t["o_custkey"].type))
    mut = tmp_path / "mut"
    mut.mkdir()
    pq.write_table(t2, str(mut / "orders.parquet"))
    base = {r["o_orderpriority"]: r["checksum"]
            for r in qfn(SF).to_pylist()}
    got = {r["o_orderpriority"]: r["checksum"]
           for r in qfn(str(mut)).to_pylist()}
    assert got[prio_touched] != base[prio_touched]
    for k in base:
        if k != prio_touched:
            assert got[k] == base[k], k


def test_splitmix64_matches_scalar_bigint_model():
    """The vectorized uint64 mixer must equal a pure-Python bigint
    reimplementation of the same formula (pins numpy overflow/dtype
    semantics against future edits)."""
    M = 0xFFFFFFFFFFFFFFFF

    def model(x: int) -> int:
        z = (x + 0x9E3779B97F4A7C15) & M
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M
        return z ^ (z >> 31)

    xs = np.array([0, 1, 1234567, 2 ** 63, M], dtype=np.uint64)
    got = audit.splitmix64(xs)
    for x, g in zip(xs.tolist(), got.tolist()):
        assert int(g) == model(int(x)), x


def test_fast_checksum_limb_sum_survives_int64_overflow():
    """Rows whose digests, read as int64, sum past 2^63 - 1: the limb
    partial + fold must still give the uint64 digest sum mod 2^64."""
    n = 4000
    t = pa.table({
        "o_orderkey": pa.array(np.arange(1, n + 1), type=pa.int64()),
        "o_custkey": pa.array(np.arange(n) % 97, type=pa.int64()),
        "o_orderpriority": pa.array(["1-URGENT"] * n),
        "o_orderdate": pa.array(np.full(n, 9000, dtype="datetime64[D]")),
    })
    h = audit._fast_row_hash(t)
    big = np.flatnonzero((h >= np.uint64(1 << 62)) & (h < np.uint64(1 << 63)))
    pick = t.take(pa.array(big[:8]))
    hs = [int(x) for x in h[big[:8]]]
    assert len(hs) == 8 and sum(hs) > (1 << 63) - 1  # int64 sum overflows
    # split over two batches so the fold's cross-batch carry is exercised
    got = audit._fast_fold([audit._fast_partial(pick.slice(0, 5)),
                            audit._fast_partial(pick.slice(5))]).to_pylist()
    want = np.uint64(sum(hs) % (1 << 64)).astype(np.int64)
    assert got == [{"o_orderpriority": "1-URGENT", "n": 8,
                    "checksum": int(want)}]
