"""Operational tools: sink compaction + dead-letter replay."""

import glob
import json
import os

import pyarrow.dataset as pads
import pytest

from engine.oracle import OracleDecoder


@pytest.fixture()
def job_dir(ray_session, sf_small, tmp_path):
    from engine.pipeline import run_job
    out = str(tmp_path / "job")
    run_job(f"{sf_small}/sequences", out, f"{sf_small}/source_meta.parquet",
            num_partitions=4)
    return out


def test_compact_sinks_preserves_rows(job_dir):
    from engine.pipeline import compact_sinks
    hot = os.path.join(job_dir, "msg_type=0x2001", "version=1")
    before_files = glob.glob(os.path.join(hot, "*.parquet"))
    before = pads.dataset(hot).to_table().sort_by("doc_id")
    assert len(before_files) > 2  # one per partition (4 partitions)
    res = compact_sinks(job_dir, max_files_per_sink=2)
    assert hot in res
    after_files = glob.glob(os.path.join(hot, "*.parquet"))
    assert len(after_files) == 1
    after = pads.dataset(hot).to_table().sort_by("doc_id")
    assert after.equals(before)  # byte-identical rows, incl. tokens


def test_recompaction_preserves_rows(job_dir):
    """A SECOND compaction over a sink that grew past the cap must not lose
    the previously-compacted rows (regression: renaming the new table onto
    compacted-0000.parquet and then deleting 'all inputs' destroyed it)."""
    import shutil
    from engine.pipeline import compact_sinks
    hot = os.path.join(job_dir, "msg_type=0x2001", "version=1")
    total = pads.dataset(hot).to_table().num_rows
    compact_sinks(job_dir, max_files_per_sink=2)
    files = glob.glob(os.path.join(hot, "*.parquet"))
    assert len(files) == 1 and files[0].endswith("compacted-0000.parquet")
    # the sink grows again: new partition files arrive next to the compacted one
    extra_rows = 0
    for i in range(2):
        dst = os.path.join(hot, f"p9{i:03d}-extra-{i}.parquet")
        shutil.copy(files[0], dst)
        extra_rows += pads.dataset(dst).to_table().num_rows
    compact_sinks(job_dir, max_files_per_sink=2)
    after_files = glob.glob(os.path.join(hot, "*.parquet"))
    assert len(after_files) == 1
    assert os.path.basename(after_files[0]) == "compacted-0001.parquet"
    assert pads.dataset(hot).to_table().num_rows == total + extra_rows


def _patch_metadata(tmp_path, logcode: str, version: int, fname: str) -> str:
    md = {
        "logcode_id": logcode, "logcode_name": f"Patch{logcode}",
        "version_offset": 0, "version_length": 32,
        "versions": {str(version): {"table_name": f"t-{version}", "fields": [
            {"name": "Status", "type_name": "Uint8", "offset_bytes": 0,
             "offset_bits": 0, "length_bits": 8, "count": None,
             "enum_mappings": None},
        ]}},
        "all_tables": {},
    }
    p = str(tmp_path / fname)
    with open(p, "w") as f:
        json.dump(md, f)
    return p


def test_double_replay_keeps_first_replay_lineage(job_dir, sf_small, tmp_path):
    """Two successive replays (two catalog updates) must each get a unique
    lineage tag; the fold must still count the FIRST replay's recovered rows
    (regression: fixed tag 'replay0' overwrote the earlier lineage)."""
    from engine.pipeline import replay_dead_letters
    t = pads.dataset(f"{sf_small}/sequences").to_table()
    toks = t["tokens"].to_pylist()
    v99 = sum(1 for tk in toks if len(tk) >= 4 and tk[0] == 0x2001 and tk[1] == 99)
    ndead = sum(1 for tk in toks if len(tk) >= 4 and tk[0] == 0xDEAD)
    assert v99 > 0 and ndead > 0
    with open(os.path.join(job_dir, "sink_counts.json")) as f:
        before = json.load(f)

    replay_dead_letters(job_dir, metadata_path=_patch_metadata(
        tmp_path, "0x2001", 99, "patch1.json"))
    agg2 = replay_dead_letters(job_dir, metadata_path=_patch_metadata(
        tmp_path, "0xDEAD", 1, "patch2.json"))

    tags = sorted(os.path.basename(d) for d in
                  glob.glob(os.path.join(job_dir, "_lineage", "replay*")))
    assert tags == ["replay0", "replay1"]
    with open(os.path.join(job_dir, "sink_counts.json")) as f:
        after = json.load(f)
    # first replay's recovery still reflected after the second replay
    assert after["0x2001"] == before["0x2001"] + v99
    assert after["0xDEAD"] == ndead
    assert after["dead_letter"] == before["dead_letter"] - v99 - ndead
    got = sum(n for m, n in zip(agg2["msg_type"].to_pylist(),
                                agg2["n_rows"].to_pylist()) if m == 0x2001)
    assert got == before["0x2001"] + v99


def test_shared_decoder_detects_metadata_change(tmp_path):
    """Worker-resident decoder cache must miss when the metadata file at the
    same path is regenerated (regression: lru keyed on path string only)."""
    import os as _os
    from engine.stages import shared_decoder
    p = _patch_metadata(tmp_path, "0x7777", 1, "meta.json")
    d1 = shared_decoder(p)
    assert (0x7777, 1) in d1.compiled and (0x7777, 2) not in d1.compiled
    p2 = _patch_metadata(tmp_path, "0x7777", 2, "meta2.json")
    _os.replace(p2, p)  # regenerate in place
    _os.utime(p, ns=(_os.stat(p).st_atime_ns, _os.stat(p).st_mtime_ns + 1))
    d2 = shared_decoder(p)
    assert (0x7777, 2) in d2.compiled


def test_replay_dead_letters_with_updated_catalog(job_dir, sf_small, tmp_path):
    """Catalog update adds the previously-unknown (0x2001, v99): replay
    recovers those rows into a proper sink; other dead letters remain."""
    from engine.pipeline import replay_dead_letters
    with open(os.path.join(job_dir, "sink_counts.json")) as f:
        before_counts = json.load(f)
    t = pads.dataset(f"{sf_small}/sequences").to_table()
    o = OracleDecoder()
    v99 = sum(1 for toks in t["tokens"].to_pylist()
              if len(toks) >= 4 and toks[0] == 0x2001 and toks[1] == 99)
    assert v99 > 0

    md = {
        "logcode_id": "0x2001", "logcode_name": "Heartbeat",
        "version_offset": 0, "version_length": 32,
        "versions": {"99": {"table_name": "2-99", "fields": [
            {"name": "Status", "type_name": "Uint8", "offset_bytes": 0,
             "offset_bits": 0, "length_bits": 8, "count": None,
             "enum_mappings": None},
        ]}},
        "all_tables": {},
    }
    mdp = str(tmp_path / "patch_metadata.json")
    with open(mdp, "w") as f:
        json.dump(md, f)

    agg = replay_dead_letters(job_dir, metadata_path=mdp)

    sink = os.path.join(job_dir, "msg_type=0x2001", "version=99")
    recovered = pads.dataset(sink).to_table()
    assert recovered.num_rows == v99
    assert "Status" in recovered.column_names
    with open(os.path.join(job_dir, "sink_counts.json")) as f:
        after_counts = json.load(f)
    assert after_counts["dead_letter"] == before_counts["dead_letter"] - v99
    assert after_counts["0x2001"] == before_counts["0x2001"] + v99
    # aggregate now includes the recovered rows on top of the original OK ones
    got = sum(n for m, n in zip(agg["msg_type"].to_pylist(),
                                agg["n_rows"].to_pylist()) if m == 0x2001)
    assert got == before_counts["0x2001"] + v99


def test_replay_routes_several_dead_letter_files_as_one_batch(job_dir, tmp_path):
    """The dead-letter files of a 4-partition job hold far fewer than
    FUSED_BATCH_ROWS rows, so replay reads them as one block and writes one
    file per recovered sink; rows, agg.parquet and sink_counts.json equal
    routing each dead-letter file alone."""
    import shutil
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    from engine import stages
    from engine.pipeline import fold_aggregate, replay_dead_letters
    dl = sorted(glob.glob(os.path.join(job_dir, "dead_letter", "*.parquet")))
    assert len(dl) > 1
    mdp = _patch_metadata(tmp_path, "0x2001", 99, "patch.json")

    ref = str(tmp_path / "per_file")
    shutil.copytree(os.path.join(job_dir, "_lineage"),
                    os.path.join(ref, "_lineage"))
    for lf in glob.glob(os.path.join(ref, "_lineage", "*", "lineage.parquet")):
        t = pq.read_table(lf)
        pq.write_table(t.filter(pc.not_equal(t["sink"], "dead_letter")), lf)
    keep = ["doc_id", "tokens", "n_tok", "source", "declared_len",
            "payload_nbytes"]
    lin = [stages.DecodeRouter(ref, "replay0", metadata_path=mdp)(
        stages.parse_batch(pq.read_table(f).select(
            [c for c in keep if c in pq.read_schema(f).names]),
            metadata_path=mdp)) for f in dl]
    os.makedirs(os.path.join(ref, "_lineage", "replay0"))
    pq.write_table(pa.concat_tables(lin),
                   os.path.join(ref, "_lineage", "replay0", "lineage.parquet"))
    want = fold_aggregate(ref)

    agg = replay_dead_letters(job_dir, metadata_path=mdp)
    recovered = sorted({os.path.dirname(f) for f in glob.glob(
        os.path.join(job_dir, "**", "replay0-*.parquet"), recursive=True)})
    assert [os.path.relpath(d, job_dir) for d in recovered] == [
        "dead_letter", os.path.join("msg_type=0x2001", "version=99")]
    for d in recovered:
        files = glob.glob(os.path.join(d, "*.parquet"))
        assert len(files) == 1
        rel = os.path.relpath(d, job_dir)
        assert pq.read_table(files[0]).sort_by("doc_id").equals(
            pads.dataset(os.path.join(ref, rel)).to_table().sort_by("doc_id"))
    assert agg.equals(want)
    with open(os.path.join(job_dir, "sink_counts.json")) as a, \
            open(os.path.join(ref, "sink_counts.json")) as b:
        assert json.load(a) == json.load(b)
