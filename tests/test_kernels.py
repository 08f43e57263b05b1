"""Unit tests: vectorized kernels vs the scalar oracle.

The oracle implements the reference decode semantics exactly
(metadata_payload_parser.py / payload_decoder.py — see engine/oracle.py
docstring); these tests pin the vectorized numpy kernels to it bit-for-bit,
including randomized (offset, length) grids per SURVEY section 7.4.2.
"""

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from engine.kernels import BatchView, Decoder, gather_bits, group_rows_by_layout
from engine.oracle import ERR_OK, OracleDecoder, convert_value, extract_bits


def _mk_batch(rows):
    """rows: list of list[int] token arrays -> tokens ListArray."""
    lens = np.array([len(r) for r in rows], dtype=np.int32)
    offsets = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum(lens, out=offsets[1:])
    values = np.concatenate([np.asarray(r, dtype=np.int32) for r in rows]) \
        if rows and offsets[-1] else np.array([], dtype=np.int32)
    return pa.ListArray.from_arrays(pa.array(offsets), pa.array(values, type=pa.int32()))


def test_gather_bits_matches_oracle_random_grid():
    rng = np.random.default_rng(7)
    n = 200
    rows = [rng.integers(-(2**31), 2**31, size=int(rng.integers(4, 20))).astype(np.int32).tolist()
            for _ in range(n)]
    view = BatchView(_mk_batch(rows))
    for _ in range(120):
        off = int(rng.integers(0, 200))
        ln = int(rng.integers(1, 65))
        got = gather_bits(view.pad, view.payload_start.copy(), off, ln)
        # oracle per row (validity handled separately)
        for i in range(n):
            payload = np.asarray(rows[i][4:], dtype=np.int32).tobytes()
            want = extract_bits(payload, off, ln)
            end_byte = (off + ln + 7) // 8
            if end_byte <= len(payload):
                assert want is not None
                assert int(got[i]) == want, (off, ln, i)


def test_conversions_match_oracle():
    rng = np.random.default_rng(11)
    for type_name, bits in [("Int8", 8), ("Int16", 16), ("Int32", 32),
                            ("Uint8", 8), ("Uint16", 16), ("Uint32", 32),
                            ("Uint64", 64), ("Float32", 32), ("Float64", 64),
                            ("Bool", 1)]:
        raws = rng.integers(0, 2**min(bits, 63), size=50, dtype=np.uint64)
        if bits == 64:
            raws |= np.uint64(rng.integers(0, 2) << 63)
        from engine.kernels import _convert
        vals, _ = _convert(raws.copy(), type_name, bits)
        for r, v in zip(raws, vals):
            want = convert_value(int(r), type_name, bits)
            got = v.item() if hasattr(v, "item") else v
            if isinstance(want, float) and np.isnan(want):
                assert np.isnan(got)
            else:
                assert got == want, (type_name, bits, r)


def test_classification_parity(sf_small):
    t = pads.dataset(f"{sf_small}/sequences").to_table().combine_chunks()
    view = BatchView(t["tokens"])
    dec = Decoder()
    cls = dec.classify(view)
    o = OracleDecoder()
    toks_py = t["tokens"].to_pylist()
    for i, toks in enumerate(toks_py):
        p = o.parse_row(toks)
        assert p["error_code"] == cls["error_code"][i]
        if p["error_code"] == ERR_OK:
            assert p["msg_type"] == cls["msg_type"][i]
            assert p["version"] == cls["version"][i]
            assert p["seq"] == cls["seq"][i]
            assert p["ts"] == cls["ts"][i]


def _values_equal(got, want):
    if got is None or want is None:
        return got is None and want is None
    if isinstance(want, float) or isinstance(got, float):
        if np.isnan(want) if isinstance(want, float) else False:
            return np.isnan(got)
        return got == want
    return got == want


def test_full_decode_parity(sf_small):
    """Every OK row of the corpus, every field, every record, bit-for-bit."""
    t = pads.dataset(f"{sf_small}/sequences").to_table().combine_chunks()
    view = BatchView(t["tokens"])
    dec = Decoder()
    cls = dec.classify(view)
    o = OracleDecoder()
    toks_py = t["tokens"].to_pylist()
    checked = 0
    for mt, ver, rows in group_rows_by_layout(dec, cls):
        cols = dec.decode_group(view, rows, dec.compiled[(mt, ver)])
        colpy = {k: v.to_pylist() for k, v in cols.items()}
        for j, ri in enumerate(rows):
            ref = o.decode_row(toks_py[int(ri)])
            for k, v in ref["fields"].items():
                assert _values_equal(colpy[k][j], v), (hex(mt), ver, k, colpy[k][j], v)
            for rname, rrows in ref["records"].items():
                got_list = colpy[rname][j]
                assert len(got_list) == len(rrows), (hex(mt), ver, rname)
                for r, want in enumerate(rrows):
                    for k, v in want.items():
                        assert _values_equal(got_list[r][k], v), (hex(mt), ver, rname, r, k)
            checked += 1
    assert checked > 1500


def test_record_clamp_and_dynamic_counts():
    """Clamp min(logical, fits) + Num CA / Num Records / bitmask priority
    (metadata_payload_parser.py:231-236, payload_decoder.py:211-241)."""
    o = OracleDecoder()
    dec = Decoder()
    # 0xB888 v1: base 17, rec 14B. Payload of 31 bytes -> 8 words = 32B,
    # fits=(32-17)//14=1; set Num Records=5 -> clamp to 1.
    payload = bytearray(32)
    payload[16] = 5  # Num Records
    toks = [0xB888, 1, 0, 0] + list(np.frombuffer(bytes(payload), dtype=np.int32))
    ref = o.decode_row(toks)
    assert len(ref["records"]["Records"]) == 1
    view = BatchView(_mk_batch([toks]))
    cols = dec.decode_group(view, np.array([0]), dec.compiled[(0xB888, 1)])
    assert len(cols["Records"].to_pylist()[0]) == 1

    # 0x1C07 v2: bitmask popcount drives count
    payload = bytearray(4 + 3 * 7 + 3)
    payload[0:4] = (0b10110).to_bytes(4, "little")  # popcount 3
    pad = (-len(payload)) % 4
    payload += bytes(pad)
    toks = [0x1C07, 2, 0, 0] + list(np.frombuffer(bytes(payload), dtype=np.int32))
    ref = o.decode_row(toks)
    assert len(ref["records"]["Carriers"]) == 3
    view = BatchView(_mk_batch([toks]))
    cols = dec.decode_group(view, np.array([0]), dec.compiled[(0x1C07, 2)])
    assert len(cols["Carriers"].to_pylist()[0]) == 3


def test_bler_zero_total():
    """total == 0 -> BLER 0.0 / '0.00%' (field_post_processor.py:63-67)."""
    payload = bytearray(20)  # v1 base 17 -> 20B, zero counters, 0 records
    toks = [0xB888, 1, 0, 0] + list(np.frombuffer(bytes(payload), dtype=np.int32))
    o = OracleDecoder()
    ref = o.decode_row(toks)
    assert ref["fields"]["BLER"] == 0.0
    assert ref["fields"]["BLER (Decoded)"] == "0.00%"
    dec = Decoder()
    view = BatchView(_mk_batch([toks]))
    cols = dec.decode_group(view, np.array([0]), dec.compiled[(0xB888, 1)])
    assert cols["BLER"].to_pylist() == [0.0]
    assert cols["BLER (Decoded)"].to_pylist() == ["0.00%"]


def test_enum_unknown_default():
    """Out-of-map enum -> UNKNOWN(<v>) (utils/type_converters.py:83)."""
    payload = bytearray(8)
    payload[6] = 99  # Throttle enum, unmapped
    toks = [0x3A11, 1, 0, 0] + list(np.frombuffer(bytes(payload), dtype=np.int32))
    o = OracleDecoder()
    assert o.decode_row(toks)["fields"]["Throttle (Decoded)"] == "UNKNOWN(99)"
    dec = Decoder()
    view = BatchView(_mk_batch([toks]))
    cols = dec.decode_group(view, np.array([0]), dec.compiled[(0x3A11, 1)])
    assert cols["Throttle (Decoded)"].to_pylist() == ["UNKNOWN(99)"]


def test_truncated_scalar_is_null():
    """Field beyond payload -> null, parsing continues
    (metadata_payload_parser.py:344-346 caught at :118-124)."""
    toks = [0x3A10, 1, 0, 0, 1, 2]  # 8-byte payload; Noise(f64@8) etc. overflow
    o = OracleDecoder()
    ref = o.decode_row(toks)
    assert ref["fields"]["RSRP"] is not None
    assert ref["fields"]["Noise"] is None
    assert ref["fields"]["Wide Counter"] is None
    dec = Decoder()
    view = BatchView(_mk_batch([toks]))
    cols = dec.decode_group(view, np.array([0]), dec.compiled[(0x3A10, 1)])
    assert cols["RSRP"].to_pylist()[0] is not None
    assert cols["Noise"].to_pylist() == [None]
    assert cols["Wide Counter"].to_pylist() == [None]


def test_large_u32_version_grouping():
    """Reference metadata uses full-u32 version words (e.g. 0x01000001);
    grouping must not collide or mangle them (regression: 20-bit packing)."""
    from engine.catalog import CompiledLayout, ScalarSpec
    big_ver = 0x01000001
    layout = CompiledLayout(
        msg_type=0x1234, msg_name="T", version=big_ver, table_name="t",
        scalars=[ScalarSpec("A", "Uint16", 0, 16)], records=[],
        count_source=None, has_bler=False)
    dec = Decoder({(0x1234, big_ver): layout})
    toks = [0x1234, big_ver, 0, 0, 0x0000BEEF]
    view = BatchView(_mk_batch([toks]))
    cls = dec.classify(view)
    assert cls["error_code"][0] == ERR_OK
    groups = list(group_rows_by_layout(dec, cls))
    assert len(groups) == 1
    mt, ver, rows = groups[0]
    assert (mt, ver) == (0x1234, big_ver)
    cols = dec.decode_group(view, rows, dec.compiled[(mt, ver)])
    assert cols["A"].to_pylist() == [0xBEEF]


def test_string_decode_semantics_match_reference():
    """M12 String decode (utils/type_converters.py:114-141): NUL cut,
    payload-end clamp, utf-8 with raw-hex fallback, full-window no-NUL —
    vectorized kernels vs scalar oracle on each edge."""
    import numpy as np
    import pyarrow as pa
    from engine.catalog import CompiledLayout, ScalarSpec
    from engine.kernels import BatchView, Decoder
    from engine.oracle import OracleDecoder

    layout = CompiledLayout(
        msg_type=0x7F02, msg_name="StrTest", version=1, table_name="t",
        scalars=[ScalarSpec("S", "String", 0, 64),        # 8-byte window
                 ScalarSpec("After", "Uint8", 64, 8)],
        records=[], count_source=None, has_bler=False)
    compiled = {(0x7F02, 1): layout}

    def row(payload: bytes):
        body = payload + bytes((-len(payload)) % 4)
        words = np.frombuffer(body, dtype="<i4")
        return [0x7F02, 1, 0, 0] + [int(w) for w in words]

    cases = [
        (b"ABC\x00XYZW" + b"\x07", "ABC"),          # NUL cut
        (b"ABCDEFGH" + b"\x07", "ABCDEFGH"),        # full window, no NUL
        (b"AB", "AB"),                              # payload ends mid-window
        (b"\xff\xfeZZ\x00abc" + b"\x07", "fffe5a5a"),  # invalid utf-8 -> hex
        (b"", ""),                                  # empty payload
    ]
    toks = [row(p) for p, _ in cases]
    o = OracleDecoder(compiled)
    for tk, (p, want) in zip(toks, cases):
        got = o.decode_row(tk, payload_nbytes=len(p))["fields"]["S"]
        assert got == want, (p, got, want)

    lens = [len(t) for t in toks]
    flat = np.concatenate([np.asarray(t, dtype=np.int32) for t in toks])
    offs = np.zeros(len(toks) + 1, dtype=np.int32)
    np.cumsum(lens, out=offs[1:])
    arr = pa.ListArray.from_arrays(pa.array(offs), pa.array(flat, type=pa.int32()))
    view = BatchView(arr, exact_nbytes=np.array([len(p) for p, _ in cases]))
    dec = Decoder(compiled)
    cols = dec.decode_group(view, np.arange(len(toks)), layout)
    assert cols["S"].to_pylist() == [w for _, w in cases]


# ---------------------------------------------------------------------------
# BLER "(Decoded)" strings: buffer-built kernel vs Python "%.2f%%"
# ---------------------------------------------------------------------------

def _pct_want(xs):
    return ["%.2f%%" % x for x in np.asarray(xs, dtype=np.float64).tolist()]


def test_pct_strings_fixed_cases():
    from engine.kernels import _pct_strings
    xs = [0.005, 0.015, 0.125, 2.675, 1.005, 99.995, 12.5 / 100, 1 / 8 * 100,
          3 / 16 * 100, 0.0, -0.0, 100.0, float("nan"), float("inf"),
          float("-inf"), -0.001, -12.345, 2.0 ** 49, 2.0 ** 49 + 0.25, 1e20,
          42949672.955, 42949672.96, 5e-324, 9.999999, 0.994999999]
    got = _pct_strings(np.array(xs))
    assert got.type == pa.string()
    assert got.to_pylist() == _pct_want(xs)
    assert _pct_strings(np.array([], dtype=np.float64)).to_pylist() == []


def test_pct_strings_every_thousandth_tie_candidate():
    """Every x.xx5 (and its neighbours one ulp away) up to 1000."""
    from engine.kernels import _pct_strings
    base = np.arange(0, 1_000_000, dtype=np.float64) / 1000.0
    xs = np.concatenate([base, np.nextafter(base, np.inf),
                         np.nextafter(base, -np.inf)])
    assert _pct_strings(xs).to_pylist() == _pct_want(xs)


def test_pct_strings_property():
    from hypothesis import given, settings, strategies as st
    from engine.kernels import _pct_strings

    ratio = st.tuples(st.integers(0, 2 ** 32), st.integers(1, 2 ** 32)).map(
        lambda ab: ab[0] / ab[1] * 100)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True)
                    | st.floats(-1e3, 1e10) | ratio, max_size=40))
    def check(xs):
        assert _pct_strings(np.array(xs, dtype=np.float64)).to_pylist() \
            == _pct_want(xs)

    check()


# ---------------------------------------------------------------------------
# gather_bits: one-load kernel vs the per-byte window reference
# ---------------------------------------------------------------------------

def _gather_bits_bytewise(pad, base_bytes, off_bits, length_bits):
    """Reference: gather the minimal nb-byte window, OR bytes one by one."""
    start = base_bytes + off_bits // 8
    shift = off_bits % 8
    nb = (shift + length_bits + 7) // 8
    np.clip(start, 0, pad.size - nb, out=start)
    w = pad[start[:, None] + np.arange(nb)]
    lo = np.zeros(len(start), dtype=np.uint64)
    for b in range(min(nb, 8)):
        lo |= w[:, b].astype(np.uint64) << np.uint64(8 * b)
    v = lo >> np.uint64(shift)
    if nb == 9:
        v |= w[:, 8].astype(np.uint64) << np.uint64(64 - shift)
    if length_bits < 64:
        v &= np.uint64((1 << length_bits) - 1)
    return v


def test_gather_bits_matches_bytewise_reference_full_grid():
    rng = np.random.default_rng(3)
    pad = rng.integers(0, 256, size=96, dtype=np.uint8)
    # every byte base, so the windows of the last rows reach (and are
    # clipped to) the end of ``pad``
    base = np.arange(pad.size, dtype=np.int64)
    for off in range(64):
        for ln in range(1, 65):
            got = gather_bits(pad, base.copy(), off, ln)
            want = _gather_bits_bytewise(pad, base.copy(), off, ln)
            assert np.array_equal(got, want), (off, ln)


def test_gather_bits_nine_byte_fields_and_buffer_end():
    rng = np.random.default_rng(5)
    for size in (8, 9, 17, 40):
        pad = rng.integers(0, 256, size=size, dtype=np.uint8)
        base = np.array([0, size - 9, size - 8, size - 1, size + 5],
                        dtype=np.int64).clip(0)
        for off in range(1, 8):      # shift > 0 and a 64-bit field: nb == 9
            for ln in (57, 60, 64):
                if (off % 8 + ln + 7) // 8 > size:
                    continue
                assert np.array_equal(
                    gather_bits(pad, base.copy(), off, ln),
                    _gather_bits_bytewise(pad, base.copy(), off, ln)), \
                    (size, off, ln)
        for ln in range(1, 9):       # short fields at the very last byte
            assert np.array_equal(
                gather_bits(pad, np.array([size - 1]), 0, ln),
                _gather_bits_bytewise(pad, np.array([size - 1]), 0, ln))


# ---------------------------------------------------------------------------
# DecodeRouter lineage: one group-by per batch vs one per sink
# ---------------------------------------------------------------------------

def test_router_lineage_matches_per_sink_reference(sf_small, tmp_path):
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    from engine import stages

    t = stages.parse_batch(
        pads.dataset(f"{sf_small}/sequences").to_table())
    assert pc.sum(pc.not_equal(t["error_code"], 0)).as_py() > 0
    lin = stages.DecodeRouter(str(tmp_path), "p0007")(t)
    assert lin.schema == stages.LINEAGE_SCHEMA
    assert len(set(lin["sink"].to_pylist())) > 3

    def per_sink(sink, msg_type, table, path):
        g = pa.TableGroupBy(table.select(["source", "n_tok"]), "source") \
            .aggregate([("n_tok", "sum"), ("n_tok", "count")])
        return [("p0007", sink, msg_type, s, c, n, path) for s, n, c in zip(
            g["source"].to_pylist(), g["n_tok_sum"].to_pylist(),
            g["n_tok_count"].to_pylist())]

    want = []
    for path in sorted(set(lin["path"].to_pylist())):
        sink_tbl = pq.read_table(path)
        if "dead_letter" in path:
            want += per_sink("dead_letter", -1, sink_tbl, path)
        else:
            mt = int(path.split("msg_type=")[1][:6], 16)
            want += per_sink(f"0x{mt:04X}", mt, sink_tbl, path)
    cols = ["part", "sink", "msg_type", "source", "rows", "sum_n_tok", "path"]
    got = list(zip(*(lin[c].to_pylist() for c in cols)))
    assert sorted(got) == sorted(want)
    assert lin["batch_wall_ms"].null_count == 0
