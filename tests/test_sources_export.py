"""Raw hex-text ingestion parity + JSON export parity tests."""

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from engine import sources
from engine.oracle import OracleDecoder

REF_HEX = "/root/reference/hex_decoder_module/sample_input.hex"
REF_HEX2 = "/root/reference/hex_decoder_module/test_0x1c07.hex"


def test_parse_reference_golden_hex_files():
    """The reference's own golden inputs parse: header fields per
    decoder/header_decoder.py:13-19, version word per icd_query.py:114-115."""
    # version = full u32 LE at payload offset 0 (cf. metadata_0xB888.json
    # version keys like '65537' = 0x00010001)
    for path, want_logcode, want_version in [
            (REF_HEX, 0xB823, 0x00030002), (REF_HEX2, 0x1C07, 0x00020001)]:
        if not os.path.exists(path):
            pytest.skip("reference goldens unavailable")
        with open(path) as f:
            blocks = sources.split_packets(f.read())
        assert len(blocks) == 1
        p = sources.parse_hex_packet(blocks[0])
        assert p["error"] in (sources.INGEST_OK, sources.INGEST_LENGTH_MISMATCH)
        toks = sources.packet_to_tokens(p["header"], p["payload"])
        assert toks[0] == want_logcode
        assert toks[1] == want_version


def test_hex_roundtrip_fixture_rows(sf_small):
    """render -> parse round trip preserves token arrays exactly."""
    t = pads.dataset(f"{sf_small}/sequences").to_table()
    checked = 0
    for toks in t["tokens"].to_pylist()[:200]:
        if len(toks) < 4:
            continue
        text = sources.render_hex_packet(toks)
        p = sources.parse_hex_packet(text)
        assert p["error"] == sources.INGEST_OK
        back = sources.packet_to_tokens(p["header"], p["payload"])
        assert back == toks
        checked += 1
    assert checked > 150


def test_read_hex_packets_dataset(ray_session, sf_small, tmp_path):
    """Multi-packet hex file -> sequences-shaped Dataset, incl. malformed."""
    t = pads.dataset(f"{sf_small}/sequences").to_table()
    rows = [tk for tk in t["tokens"].to_pylist()[:20] if len(tk) >= 4][:10]
    content = "\n".join(sources.render_hex_packet(tk) for tk in rows)
    content += "\nLength: 7\nHeader: ZZ\nPayload:\n00\n"  # malformed block
    f = tmp_path / "packets.hex"
    f.write_text(content)
    ds = sources.read_hex_packets(str(f))
    out = ds.to_pandas().sort_values("doc_id", ignore_index=True)
    assert len(out) == 11
    ok = out[out.ingest_error == sources.INGEST_OK]
    assert len(ok) == 10
    got = {list(r) and tuple(r) for r in ok["tokens"].map(list)}
    assert got == {tuple(r) for r in rows}
    assert (out[out.ingest_error != 0]["n_tok"] == 0).all()


def test_json_export_matches_oracle(ray_session, sf_small, tmp_path):
    """Nested JSON view (metadata_payload_parser.py:127-140 shape) agrees
    with the oracle's flattened '(Record i)' view field-for-field."""
    import ray
    from engine.export import json_stage, write_pretty, append_jsonl
    ds = ray.data.read_parquet(f"{sf_small}/sequences").limit(300)
    out = json_stage(ds).to_pandas()
    o = OracleDecoder()
    t = pads.dataset(f"{sf_small}/sequences").to_table()
    toks_by_doc = dict(zip(t["doc_id"].to_pylist(), t["tokens"].to_pylist()))
    checked = 0
    for doc, js in zip(out["doc_id"], out["json"]):
        ref = o.decode_row(toks_by_doc[doc])
        if ref["error_code"] != 0:
            assert js is None
            continue
        doc_json = json.loads(js)
        assert doc_json["logcode_id"] == f"0x{ref['msg_type']:04X}"
        assert doc_json["version"]["value"] == ref["version"]
        for k, v in ref["flat"].items():
            if " (Decoded)" in k:
                base = k.replace(" (Decoded)", "")  # incl. "X (Decoded) (Record i)"
                assert doc_json["fields"][base]["decoded"] == v, (doc, k)
            else:
                got = doc_json["fields"][k]["raw"]
                assert got == v or (got is None and v is None), (doc, k, got, v)
        checked += 1
    assert checked > 200
    # file-writer parity helpers
    d = json.loads(out["json"].dropna().iloc[0])
    write_pretty(d, str(tmp_path / "one.json"))
    append_jsonl(d, str(tmp_path / "all.jsonl"))
    assert json.load(open(tmp_path / "one.json")) == d


def test_salted_aggregate_equals_plain(ray_session, sf_small):
    import ray
    from engine import stages
    parsed = stages.parse_stage(ray.data.read_parquet(f"{sf_small}/sequences"))
    a = stages.aggregate_salted(parsed, salt_buckets=8).to_pandas()
    o = OracleDecoder()
    t = pads.dataset(f"{sf_small}/sequences").to_table()
    want = o.aggregate(t.to_pylist())
    got = {(r.source, r.msg_type): (int(r.n_rows), int(r.sum_n_tok))
           for r in a.itertuples()}
    assert got == want


def test_hex_exact_payload_length_semantics(ray_session, tmp_path):
    """Non-word-aligned hex payload: the token row is zero-padded to a word
    boundary, but validity/fits must use the TRUE byte length (reference
    metadata_payload_parser available_bytes).  Regression: a trailing field
    inside the pad decoded as 0 instead of null, and the record clamp
    admitted one extra record."""
    from engine.pipeline import run_hex_job
    md = {
        "logcode_id": "0x7A7A", "logcode_name": "PadTest",
        "version_offset": 0, "version_length": 32,
        "versions": {"1": {"table_name": "9-0", "fields": [
            {"name": "A", "type_name": "Uint8", "offset_bytes": 0,
             "offset_bits": 0, "length_bits": 8, "count": None,
             "enum_mappings": None},
            {"name": "Tail", "type_name": "Uint16", "offset_bytes": 4,
             "offset_bits": 0, "length_bits": 16, "count": None,
             "enum_mappings": None},
            {"name": "Recs", "type_name": "Table 9-1", "offset_bytes": 1,
             "offset_bits": 0, "length_bits": 0, "count": 3,
             "enum_mappings": None},
        ]}},
        "all_tables": {"9-1": {"fields": [
            {"name": "V", "type_name": "Uint16", "offset_bytes": 0,
             "offset_bits": 0, "length_bits": 16, "count": None,
             "enum_mappings": None},
        ]}},
    }
    mdp = str(tmp_path / "pad_metadata.json")
    with open(mdp, "w") as f:
        json.dump(md, f)
    # payload = 4-byte version word + 5 body bytes (NOT word-aligned):
    # Tail needs body bytes [4:6] -> only byte 4 exists -> null;
    # Recs (2-byte records from offset 1): fits = (5-1)//2 = 2, not
    # (8-1)//2 = 3 under the padded length
    hexfile = tmp_path / "pad.hex"
    hexfile.write_text(
        "Length: 21\n"
        "Header: 15 00 7A 7A 01 00 00 00 02 00 00 00\n"
        "Payload:\n01 00 00 00 AA BB CC DD EE\n")

    # ingestion carries the exact body length
    ds = sources.read_hex_packets([str(hexfile)])
    row = ds.take_all()[0]
    assert row["payload_nbytes"] == 5
    assert row["n_tok"] == 6  # 4 header tokens + 2 padded words

    out = str(tmp_path / "padjob")
    run_hex_job([str(hexfile)], mdp, out)
    sink = pads.dataset(glob.glob(f"{out}/msg_type=0x7A7A/version=1/*.parquet"))
    r = sink.to_table().to_pylist()[0]
    assert r["A"] == 0xAA
    assert r["Tail"] is None
    assert len(r["Recs"]) == 2
    assert [x["V"] for x in r["Recs"]] == [0xCCBB, 0xEEDD]

    # scalar oracle agrees field-for-field under the same exact length
    from engine.ref_metadata import load_metadata_json, payload_hex_to_row
    o = OracleDecoder(load_metadata_json(mdp))
    toks, nb = payload_hex_to_row(hexfile.read_text(), 0x7A7A)
    assert nb == 5
    res = o.decode_row(toks, payload_nbytes=nb)
    assert res["fields"]["A"] == 0xAA and res["fields"]["Tail"] is None
    assert len(res["records"]["Recs"]) == 2
    assert [x["V"] for x in res["records"]["Recs"]] == [0xCCBB, 0xEEDD]


def test_version_fallback_mode_hex_path(ray_session, tmp_path):
    """Strict vs fallback (reference version_resolver.py:46-50): an unknown
    version of a known logcode dead-letters under the strict metadata-path
    semantics but decodes with the logcode's FIRST table under fallback,
    keeping the raw version value in the envelope."""
    from engine.pipeline import run_hex_job
    md = {
        "logcode_id": "0x9999", "logcode_name": "FbTest",
        "version_offset": 0, "version_length": 32,
        "versions": {
            "1": {"table_name": "t1", "fields": [
                {"name": "Status", "type_name": "Uint8", "offset_bytes": 0,
                 "offset_bits": 0, "length_bits": 8, "count": None,
                 "enum_mappings": None}]},
            "2": {"table_name": "t2", "fields": [
                {"name": "Other", "type_name": "Uint16", "offset_bytes": 0,
                 "offset_bits": 0, "length_bits": 16, "count": None,
                 "enum_mappings": None}]},
        },
        "all_tables": {},
    }
    mdp = str(tmp_path / "fb_metadata.json")
    with open(mdp, "w") as f:
        json.dump(md, f)
    # version word 7 (unknown); one payload word 0x000000AA
    hexfile = tmp_path / "fb.hex"
    hexfile.write_text(
        "Length: 20\n"
        "Header: 14 00 99 99 01 00 00 00 02 00 00 00\n"
        "Payload:\n07 00 00 00 AA 00 00 00\n")

    strict_out = str(tmp_path / "strict")
    run_hex_job([str(hexfile)], mdp, strict_out)
    with open(os.path.join(strict_out, "sink_counts.json")) as f:
        assert json.load(f) == {"dead_letter": 1}

    fb_out = str(tmp_path / "fb")
    run_hex_job([str(hexfile)], mdp, fb_out, version_fallback=True)
    with open(os.path.join(fb_out, "sink_counts.json")) as f:
        assert json.load(f) == {"0x9999": 1}
    files = glob.glob(f"{fb_out}/msg_type=0x9999/version=1/*.parquet")
    assert len(files) == 1
    row = pads.dataset(files[0]).to_table().to_pylist()[0]
    assert row["Status"] == 0xAA      # decoded with the FIRST table (t1)
    assert row["version"] == 7        # raw version preserved


def test_decode_cli_one_shot_json(ray_session, tmp_path, capsys):
    """Entry-point-A parity (hex_decoder_module/cli.py): one hex packet ->
    reference-shaped pretty JSON with decode metadata; many packets ->
    JSONL; undecodable packets -> error records."""
    from engine.fixtures import ensure_fixtures
    from engine.job import main
    fix = ensure_fixtures("sf0.001")
    t = pads.dataset(f"{fix}/sequences").to_table()
    toks = next(tk for tk in t["tokens"].to_pylist()
                if len(tk) >= 4 and tk[0] == 0x3A11 and tk[1] == 1)
    one = tmp_path / "one.hex"
    one.write_text(sources.render_hex_packet(toks))
    outp = tmp_path / "one.json"
    assert main(["decode", "--input", str(one), "--out", str(outp)]) == 0
    capsys.readouterr()
    doc = json.loads(outp.read_text())
    assert doc["logcode_id"] == "0x3A11"
    o = OracleDecoder()
    ref = o.decode_row(toks)
    for k, v in ref["fields"].items():
        if k.endswith("(Decoded)"):
            assert doc["fields"][k[:-len(" (Decoded)")]]["decoded"] == v
        else:
            assert doc["fields"][k]["raw"] == v, k
    assert doc["metadata"]["fields_parsed"] == len(
        [k for k in doc["fields"]])
    assert "decode_time_ms" in doc["metadata"]

    # multi-packet + one malformed -> JSONL with an error record
    toks2 = next(tk for tk in t["tokens"].to_pylist()
                 if len(tk) >= 4 and tk[0] == 0x2001 and tk[1] == 1)
    many = tmp_path / "many.hex"
    many.write_text(sources.render_hex_packet(toks)
                    + "\n" + sources.render_hex_packet(toks2)
                    + "\nLength: 5\nHeader: ZZ\nPayload:\n00\n")
    outl = tmp_path / "many.jsonl"
    assert main(["decode", "--input", str(many), "--out", str(outl)]) == 0
    capsys.readouterr()
    lines = [json.loads(x) for x in outl.read_text().strip().splitlines()]
    assert len(lines) == 3
    assert {d.get("logcode_id") for d in lines if "logcode_id" in d} == \
        {"0x3A11", "0x2001"}
    assert any("error" in d for d in lines)


def test_jsonl_corpus_round_trip(ray_session, tmp_path):
    """documents.parquet -> JSONL shards -> parquet dir: gated queries
    produce identical tables on the round-tripped corpus (embedded
    newlines/tabs in text survive the interchange)."""
    from engine.io import export_jsonl_corpus, import_jsonl_corpus
    from engine import extras

    sf = "/root/testdata/sf0.001"
    jl = tmp_path / "jl"
    back = tmp_path / "back"
    back.mkdir()
    export_jsonl_corpus(sf, str(jl))
    assert list(jl.glob("*.json")), "no JSONL shards written"
    import_jsonl_corpus(str(jl), str(back))

    for name in ("text_stats", "corpus_split", "line_dedup"):
        a = extras.EXTRA_QUERIES[name](sf)
        b = extras.EXTRA_QUERIES[name](str(back))
        da = (a.to_pandas() if hasattr(a, "to_pandas") else a)
        db = (b.to_pandas() if hasattr(b, "to_pandas") else b)
        da = da[sorted(da.columns)].sort_values(
            list(sorted(da.columns)), ignore_index=True)
        db = db[sorted(db.columns)].sort_values(
            list(sorted(db.columns)), ignore_index=True)
        assert da.astype(object).equals(db.astype(object)), name


def test_corpus_cli_round_trip(ray_session, tmp_path):
    """`engine.job corpus export-jsonl` then `import-jsonl` reproduce the
    documents table exactly (the CLI surface over engine.io)."""
    import duckdb
    from engine.job import main

    jl = tmp_path / "jl"
    back = tmp_path / "back"
    back.mkdir()
    assert main(["corpus", "export-jsonl", "--sf-dir", "/root/testdata/sf0.001",
                 "--out", str(jl)]) == 0
    assert main(["corpus", "import-jsonl", "--src", str(jl),
                 "--out", str(back)]) == 0
    n, lo, hi = duckdb.sql(
        f"select count(*), min(doc_id), max(doc_id) "
        f"from '{back}/documents.parquet/*.parquet'").fetchall()[0]
    assert (n, lo, hi) == (500, 0, 499)


# ---------------------------------------------------------------------------
# parse_hex_file (vectorized) == the per-packet path, table for table
# ---------------------------------------------------------------------------

def _per_packet_table(stem: str, data: bytes) -> pa.Table:
    """Reference: every ``split_packets`` block of the decoded file through
    ``parse_hex_packet`` and ``packet_to_tokens``, one row per block."""
    cols = {k: [] for k in ("doc_id", "tokens", "n_tok", "source",
                            "declared_len", "payload_nbytes", "ingest_error")}
    content = data.decode("utf-8", errors="replace")
    for i, block in enumerate(sources.split_packets(content)):
        p = sources.parse_hex_packet(block)
        row, nb = [], 0
        if p["error"] in (sources.INGEST_OK, sources.INGEST_LENGTH_MISMATCH):
            row = sources.packet_to_tokens(p["header"], p["payload"])
            nb = max(len(p["payload"]) - 4, 0)
        for k, v in (("doc_id", f"{stem}#{i}"), ("tokens", row),
                     ("n_tok", len(row)), ("source", stem),
                     ("declared_len", p.get("declared")),
                     ("payload_nbytes", nb), ("ingest_error", p["error"])):
            cols[k].append(v)
    return pa.table({
        "doc_id": pa.array(cols["doc_id"], type=pa.string()),
        "tokens": pa.array(cols["tokens"], type=pa.list_(pa.int32())),
        "n_tok": pa.array(cols["n_tok"], type=pa.int32()),
        "source": pa.array(cols["source"], type=pa.string()),
        "declared_len": pa.array(cols["declared_len"], type=pa.int64()),
        "payload_nbytes": pa.array(cols["payload_nbytes"], type=pa.int32()),
        "ingest_error": pa.array(cols["ingest_error"], type=pa.int8()),
    })


def _assert_matches_per_packet(data: bytes, stem: str = "dev-07") -> pa.Table:
    got = sources.parse_hex_file(stem, data)
    want = _per_packet_table(stem, data)
    assert got.schema == want.schema
    assert got.equals(want), (data[:300], got.to_pylist()[:4],
                              want.to_pylist()[:4])
    return got


_GOOD = sources.render_hex_packet([0x3A11, 1, 7, 99, 5, -1, 2**31 - 1, -2**31])
_LEN = "Length: 32"
_HDR = "0F 00 11 3A 01 00 00 00 02 00 00 00"

ADVERSARIAL = {
    "bad_hex_header": "Length: 7\nHeader: ZZ\nPayload:\n00\n",
    "lowercase_header": _GOOD.replace("Header:", "header:"),
    "lowercase_payload": _GOOD.replace("Payload:", "payload:"),
    "uppercase_length": _GOOD.replace("Length:", "LENGTH:"),
    "odd_header_nibbles": _GOOD.replace("Header: 20", "Header: 2"),
    "odd_payload_nibbles": _GOOD[:-2] + "\n",
    "header_11_bytes": f"Length: 15\nHeader: {_HDR[:-3]}\nPayload:\n01 00 00 00\n",
    "header_13_bytes": f"Length: 17\nHeader: {_HDR} 07\nPayload:\n01 00 00 00\n",
    "empty_payload": f"Length: 12\nHeader: {_HDR}\nPayload:\n",
    "blank_payload": f"Length: 12\nHeader: {_HDR}\nPayload:\n \n\t\n",
    "payload_1_byte": f"Length: 13\nHeader: {_HDR}\nPayload:\n01\n",
    "payload_2_bytes": f"Length: 14\nHeader: {_HDR}\nPayload:\n01 02\n",
    "payload_3_bytes": f"Length: 15\nHeader: {_HDR}\nPayload:\n01 02 03\n",
    "payload_4_bytes": f"Length: 16\nHeader: {_HDR}\nPayload:\n01 00 00 00\n",
    "payload_5_bytes": f"Length: 17\nHeader: {_HDR}\nPayload:\n01 00 00 00 FF\n",
    "length_mismatch": _GOOD.replace(_LEN, "Length: 33"),
    "length_payload_only": _GOOD.replace(_LEN, "Length: 20"),
    "length_no_digits": _GOOD.replace(_LEN, "Length: "),
    "length_trailing_junk": _GOOD.replace(_LEN, _LEN + " bytes"),
    "length_two_numbers": _GOOD.replace(_LEN, _LEN + " 20"),
    "length_19_digits": _GOOD.replace(_LEN, "Length: " + "0" * 17 + "32"),
    "length_unicode_digits": _GOOD.replace(_LEN, "Length: \u0663\u0662"),
    "length_wide_field": _GOOD.replace(_LEN, "Length:" + " " * 40 + "32"),
    "crlf": _GOOD.replace("\n", "\r\n"),
    "tabs": _GOOD.replace(" ", "\t"),
    "file_separator_ws": _GOOD.replace(" ", "\x1c"),
    "nbsp_ws": _GOOD.replace(" ", "\u00a0"),
    "no_whitespace": "".join(_GOOD.split()),
    "lowercase_hex": _GOOD.replace("FF", "ff").replace("7F", "7f"),
    "two_headers": _GOOD.replace("Payload:", f"Header: {_HDR}\nPayload:"),
    "payload_before_header": f"Length: 16\nPayload:\n01 00 00 00\nHeader: {_HDR}\n",
    "header_only": f"Length: 12\nHeader: {_HDR}\n",
    "junk_in_payload": _GOOD.replace("Payload:\n", "Payload:\n01 xx "),
    "junk_between_fields": _GOOD.replace("Header:", "# note\nHeader:"),
    "junk_before_first_length": "capture 2024 Header: AA\n" + _GOOD,
    "empty_file": "",
    "no_length": f"Header: {_HDR}\nPayload:\n01 00 00 00\n",
}
ADVERSARIAL_BYTES = {
    "invalid_utf8_payload": _GOOD.encode().replace(b"Payload:\n", b"Payload:\n\xff\xfe"),
    "invalid_utf8_header": _GOOD.encode().replace(b"Header: ", b"Header: \xc3"),
    "invalid_utf8_between": _GOOD.encode() + b"\x80\xe2\x82" + _GOOD.encode(),
    "utf8_bom": b"\xef\xbb\xbf" + _GOOD.encode(),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL) + sorted(ADVERSARIAL_BYTES))
def test_parse_hex_file_adversarial_blocks(name):
    """Each adversarial block alone and between canonical packets: the
    vectorized parse equals the per-packet path."""
    case = ADVERSARIAL_BYTES.get(name)
    case = ADVERSARIAL[name].encode() if case is None else case
    good = _GOOD.encode()
    assert case != good
    _assert_matches_per_packet(case)
    t = _assert_matches_per_packet(good + case + b"\n" + good)
    assert t["ingest_error"][-1].as_py() == sources.INGEST_OK


def test_parse_hex_file_matches_reference_rows(sf_small):
    """Fixture token rows rendered to one file, plus 4-token rows (their
    payload is only the version word)."""
    t = pads.dataset(f"{sf_small}/sequences").to_table()
    rows = [tk for tk in t["tokens"].to_pylist() if len(tk) >= 4]
    rows[5:5] = [[0x2001, 1, 5, 6], [0x3A11, -1, -2**31, 2**31 - 1]]
    got = _assert_matches_per_packet(
        "\n".join(sources.render_hex_packet(tk) for tk in rows).encode())
    assert got["tokens"].to_pylist() == rows
    assert set(got["ingest_error"].to_pylist()) == {sources.INGEST_OK}


_PIECES = [b"Z", b"0", b"a", b"F", b" ", b"\t", b"\n", b"\r\n", b"\x1c",
           b"\xff", b"\xc3", b"\xc3\xa9", b":", b"12", b"Length:", b"Header:",
           b"Payload:", b"header:", b"payload:", b"Length: 16\n"]


def test_parse_hex_file_property():
    """Random token rows (4-token rows included), random corruptions and
    small chunk bounds (so cuts, and blocks longer than a chunk, occur):
    the vectorized parse equals the per-packet path."""
    from unittest import mock
    from hypothesis import given, settings, strategies as st

    rows = st.lists(st.lists(st.integers(-2**31, 2**31 - 1),
                             min_size=4, max_size=12), max_size=8)
    edit = st.tuples(st.sampled_from(("insert", "delete", "replace")),
                     st.integers(0, 10**6), st.sampled_from(_PIECES))

    @settings(max_examples=400, deadline=None)
    @given(rows=rows, sep=st.sampled_from(["\n", "", "\r\n", "\n\n "]),
           edits=st.lists(edit, max_size=4),
           chunk=st.sampled_from([sources._CHUNK_BYTES, 200, 64]))
    def check(rows, sep, edits, chunk):
        data = bytearray(sep.join(sources.render_hex_packet(r)
                                  for r in rows).encode())
        for kind, at, piece in edits:
            at %= len(data) + 1
            if kind == "insert":
                data[at:at] = piece
            elif kind == "delete":
                del data[at:at + len(piece)]
            else:
                data[at:at + len(piece)] = piece
        with mock.patch.object(sources, "_CHUNK_BYTES", chunk):
            _assert_matches_per_packet(bytes(data))

    check()


def test_parse_hex_file_chunk_boundaries():
    """A file over the chunk bound, with a malformed block straddling the
    chunk edge and one block longer than a whole chunk: same table as the
    per-packet path, doc ids ``#0..#N-1`` with no gap or restart."""
    rng = np.random.default_rng(4)
    blocks = [sources.render_hex_packet(
        rng.integers(-2**31, 2**31, int(rng.integers(4, 40))).tolist())
        for _ in range(9000)]
    starts = np.cumsum([0] + [len(b) + 1 for b in blocks])
    assert starts[-1] > sources._CHUNK_BYTES
    k = int(np.searchsorted(starts, sources._CHUNK_BYTES)) - 1
    assert starts[k] < sources._CHUNK_BYTES < starts[k + 1]
    blocks[k] = blocks[k].replace("Header: ", "Header: Z")
    big = sources.render_hex_packet(list(range(sources._CHUNK_BYTES // 8)))
    assert len(big) > sources._CHUNK_BYTES
    blocks.insert(k + 3, big)
    data = "\n".join(blocks).encode()
    assert len(list(sources._chunks(data))) >= 3

    got = _assert_matches_per_packet(data)
    n = len(blocks)
    assert got["doc_id"].to_pylist() == [f"dev-07#{i}" for i in range(n)]
    errs = got["ingest_error"].to_numpy()
    assert errs[k] == sources.INGEST_MALFORMED
    assert (np.delete(errs, k) == sources.INGEST_OK).all()
    assert got["n_tok"][k + 3].as_py() == 4 + sources._CHUNK_BYTES // 8 - 4


def test_hex_num_blocks_rule():
    """Read blocks for a hex job: one per ``_HEX_BLOCK_BYTES`` of text,
    never fewer than 1, never more than one per file."""
    B = sources._HEX_BLOCK_BYTES
    assert sources._hex_num_blocks([0]) == 1
    assert sources._hex_num_blocks([0] * 16) == 1
    assert sources._hex_num_blocks([1] * 16) == 1
    assert sources._hex_num_blocks([B]) == 1
    assert sources._hex_num_blocks([5 * B]) == 1       # capped at 1 file
    assert sources._hex_num_blocks([3 * B, 3 * B]) == 2
    for k in (1, 2, 3):                                 # steps at k * B
        sizes = [k * B // 16] * 16
        sizes[0] += k * B - sum(sizes)
        assert sources._hex_num_blocks(sizes) == k
        sizes[0] += 1
        assert sources._hex_num_blocks(sizes) == k + 1


def _sink_tables(out: str):
    """Every sink directory's rows, sorted by doc_id, as Arrow IPC bytes."""
    files = glob.glob(os.path.join(out, "msg_type=*", "version=*", "*.parquet")) \
        + glob.glob(os.path.join(out, "dead_letter", "*.parquet"))
    out_tables = {}
    for d in sorted({os.path.dirname(f) for f in files}):
        t = pads.dataset(d).to_table().sort_by("doc_id").combine_chunks()
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, t.schema) as w:
            w.write_table(t)
        out_tables[os.path.relpath(d, out)] = sink.getvalue().to_pybytes()
    return out_tables


def test_hex_job_writes_one_file_per_sink(ray_session, sf_small, tmp_path):
    """16 small hex files are one read block, so each sink gets exactly one
    file; its rows equal those of routing each file alone in process, and
    so do agg.parquet and sink_counts.json."""
    import pyarrow.parquet as pq
    from engine import ref_metadata, stages
    from engine.pipeline import fold_aggregate, run_hex_job
    mdp = str(tmp_path / "metadata.json")
    with open(mdp, "w") as f:
        json.dump(ref_metadata.generate_metadata_json(), f)
    toks = [tk for tk in pads.dataset(f"{sf_small}/sequences").to_table()
            ["tokens"].to_pylist() if len(tk) >= 4]
    files = []
    for i in range(16):
        p = tmp_path / "hex" / f"dev-{i:02d}.hex"
        p.parent.mkdir(exist_ok=True)
        p.write_text("\n".join(sources.render_hex_packet(tk)
                               for tk in toks[i::16]))
        files.append(str(p))

    out = str(tmp_path / "job")
    agg = run_hex_job(files, mdp, out)
    counts = {}
    for f in glob.glob(os.path.join(out, "**", "*.parquet"), recursive=True):
        if not os.path.relpath(f, out).startswith(("_lineage", "agg")):
            d = os.path.dirname(f)
            counts[d] = counts.get(d, 0) + 1
    assert len(counts) > 10 and set(counts.values()) == {1}

    ref = str(tmp_path / "per_file")
    lin = []
    for f in files:
        with open(f, "rb") as fh:
            t = sources.parse_hex_file(os.path.basename(f)[:-4], fh.read())
        lin.append(stages.DecodeRouter(ref, metadata_path=mdp)(
            stages.parse_batch(t, metadata_path=mdp)))
    os.makedirs(os.path.join(ref, "_lineage", "p0000"))
    pq.write_table(pa.concat_tables(lin),
                   os.path.join(ref, "_lineage", "p0000", "lineage.parquet"))
    want = fold_aggregate(ref)
    assert max(len(glob.glob(os.path.join(ref, d, "*.parquet")))
               for d in _sink_tables(ref)) > 1  # the old contract: many files
    assert _sink_tables(out) == _sink_tables(ref)
    assert agg.equals(want)
    assert pq.read_table(os.path.join(out, "agg.parquet")).equals(want)
    with open(os.path.join(out, "sink_counts.json")) as a, \
            open(os.path.join(ref, "sink_counts.json")) as b:
        assert json.load(a) == json.load(b)
