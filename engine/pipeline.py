"""Job composition: partitioned, resumable parse->enrich->route->aggregate.

Resume design (explicit, per SURVEY section 4 — the one thing Ray Data does
not give us; reference analogue: the parallel parser's JSON checkpoint +
resume-skips-processed-pages loop, ``src/parallel_pdf_parser.py:145-182,
244-250``):

* input files are split into P partitions; each partition runs as its own
  streaming execution (internally parallel across the whole cluster);
* every output file a partition writes is prefixed with its ``p{i:04d}`` tag
  and written atomically (temp + rename), with deterministic content-derived
  names, so reruns are idempotent;
* on partition success a manifest entry ``_manifest/p{i}.json`` is written
  atomically; on restart, completed partitions are filtered out BEFORE
  execution and stray outputs of incomplete partitions are deleted;
* per-batch lineage records (stage, partition, sink, rows, sum_n_tok, output
  path, wall ms) are persisted under ``_lineage/`` — they double as the
  partial aggregates, so the final per-sink aggregate table is a driver-side
  fold of tiny partials (no second pass over the data).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
from typing import Dict, List, Optional, Sequence

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray

from engine import stages


def collect_tables(ds) -> List[pa.Table]:
    """Execute ``ds`` EXACTLY ONCE and fetch its blocks as Arrow tables.

    ``Dataset.to_arrow_refs()`` calls ``schema(fetch_if_missing=True)``
    after execution; when the executed bundles carry no usable schema that
    launches a SECOND ``limit(1)`` execution of the plan — which re-runs a
    side-effecting map stage (our sink-writing fused/rerun stages) over a
    possibly TRUNCATED read and writes a partial batch under a new
    deterministic file name.  Observed as a duplicated sink row under
    full-suite load (the round-2 replay flake).  Iterating the internal
    ref bundles avoids the schema call entirely, so the pipeline executes
    exactly once no matter what the blocks' schemas look like.

    The bundle iterator is a private Ray Data symbol; if a Ray upgrade
    renames it, fall back to ``materialize().to_arrow_refs()`` — the
    materialize pins the executed blocks so the schema fetch inside
    ``to_arrow_refs`` cannot re-run the plan (slower, but still
    exactly-once)."""
    try:
        from ray.data._internal.execution.interfaces.ref_bundle import (
            _ref_bundles_iterator_to_block_refs_list)
        refs = _ref_bundles_iterator_to_block_refs_list(
            ds.iter_internal_ref_bundles())
    except ImportError:
        refs = ds.materialize().to_arrow_refs()
    out = []
    for t in ray.get(refs):
        if not isinstance(t, pa.Table):
            t = pa.Table.from_pandas(t)
        out.append(t)
    return out


def scrub_empty_blocks(ds, empty_schema: pa.Schema):
    """Drop EMPTY blocks (schema-less or zero-row) from a (small) dataset
    before a ``Dataset.join``.

    Two distinct hazards, both ending in the same per-partition Acero
    error ("No match ... for key field reference" — the partition table
    lost its key column):

    * Ray's hash aggregate emits empty blocks with NO schema;
      ``map_batches`` SKIPS empty blocks (a normalizing UDF never sees
      them), and any that reach a join leave zero-column partitions.
    * Ray 2.49's join shuffle broadcasts the input schema to every
      aggregator with the FIRST block of each side — but
      ``_shuffle_block`` (hash_shuffle.py:223-225) returns early for a
      zero-ROW block even in broadcast mode, so when the first block of
      a sparse side happens to be empty the broadcast is silently
      swallowed and every partition that receives no real row finalizes
      as a zero-column table.  Order-dependent, so it flakes.

    Zero-row blocks contribute nothing to a join, so dropping both kinds
    is semantics-free.  Materializes ``ds`` (callers pass bounded
    aggregate/id-set datasets, never the corpus), checks per-block shape
    remotely (the driver sees two ints per block, never rows), and
    rebuilds the dataset from the non-empty block refs."""
    ds = ds.materialize()
    shape_of = ray.remote(num_cpus=0)(
        lambda t: (t.num_columns, t.num_rows))
    refs = ds.to_arrow_refs()
    shapes = ray.get([shape_of.remote(r) for r in refs])
    good = [r for r, (c, n) in zip(refs, shapes) if c > 0 and n > 0]
    if not good:
        return ray.data.from_arrow(empty_schema.empty_table())
    return ray.data.from_arrow_refs(good)


def list_input_files(input_dir: str) -> List[str]:
    files = sorted(glob.glob(os.path.join(input_dir, "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no parquet files under {input_dir}")
    return files


def plan_partitions(files: Sequence[str], num_partitions: int) -> List[List[str]]:
    num_partitions = max(1, min(num_partitions, len(files)))
    out: List[List[str]] = [[] for _ in range(num_partitions)]
    for i, f in enumerate(files):
        out[i % num_partitions].append(f)
    return out


def _clean_partition_outputs(out_dir: str, tag: str) -> None:
    for p in glob.glob(os.path.join(out_dir, "**", f"{tag}-*.parquet"), recursive=True):
        os.remove(p)
    shutil.rmtree(os.path.join(out_dir, "_lineage", tag), ignore_errors=True)


def default_num_blocks(files: Optional[Sequence[str]] = None) -> int:
    """Explicit target_num_blocks (north_rule): ~2 blocks per cluster CPU so
    every core gets work without drowning the scheduler in tiny tasks, AND
    at most ~16 MB of input per block so waves pack evenly.  (A 6x cliff
    originally blamed on big blocks was actually reader micro-batch fusion
    — fixed by the explicit batch size in stages.fused_stage; the cap
    stays for wave packing.)"""
    try:
        ncpu = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        ncpu = 8
    nb = max(8, 2 * ncpu)
    if files:
        try:
            total = sum(os.path.getsize(f) for f in files)
            nb = max(nb, int(total // (16 * 1024 * 1024)))
        except OSError:
            pass
    return nb


def run_partition(files: Sequence[str], out_dir: str, tag: str,
                  source_meta_ref, batch_size: int = 65536,
                  concurrency=(1, 32), use_actor_stages: bool = False,
                  target_num_blocks: Optional[int] = None,
                  version_fallback: bool = False) -> None:
    """One streaming execution over this partition's files.

    Uses the fused parse+enrich+decode+route stage (see stages._FusedState
    for the task-pool-vs-actor-pool measurement); ``use_actor_stages=True``
    runs the equivalent 3-stage actor-pool pipeline instead."""
    nb = target_num_blocks or default_num_blocks(files)
    ds = ray.data.read_parquet(list(files), override_num_blocks=nb)
    if use_actor_stages:
        ds = stages.parse_stage(ds, batch_size=batch_size,
                                version_fallback=version_fallback)
        ds = stages.enrich_stage(ds, source_meta_ref, batch_size=batch_size)
        lin = stages.decode_route_stage(ds, out_dir, part_tag=tag,
                                        batch_size=batch_size, concurrency=concurrency,
                                        version_fallback=version_fallback)
    else:
        lin = stages.fused_stage(ds, out_dir, tag, source_meta_ref,
                                 version_fallback=version_fallback)
    _record_lineage(lin, out_dir, tag)
    # per-partition executor metrics (A4 observability: per-stage wall/cpu/
    # rows, the Ray Data analogue of the reference's per-batch progress logs)
    try:
        stats = lin.stats()
        if stats:
            sd = os.path.join(out_dir, "_stats")
            os.makedirs(sd, exist_ok=True)
            with open(os.path.join(sd, f"{tag}.txt"), "w") as f:
                f.write(stats)
    except Exception:
        pass


def run_hex_job(hex_paths, metadata_path: str, out_dir: str,
                tag: str = "p0000", version_fallback: bool = False) -> pa.Table:
    """Migration path: the reference's raw inputs, end-to-end on Ray.

    ``Length:/Header:/Payload:`` hex text files + a REFERENCE-format
    metadata JSON (the user's Step-1 output, metadata_cli.py) ->
    parse -> decode -> per-sink Parquet + dead letters + lineage, using the
    same router as the Parquet pipeline.  Verified on the reference's own
    ``payload_b888_input.hex`` + ``metadata_0xB888.json`` against its
    golden parsed outputs (tests/test_reference_parity.py)."""
    from engine import sources

    # batch_size=None: one route batch per read block, whose size
    # read_hex_packets sets; the route stays fused into the read task
    route = _parse_and_route(out_dir, tag, metadata_path, version_fallback)
    lin = sources.read_hex_packets(hex_paths).map_batches(
        route, batch_format="pyarrow", batch_size=None)
    _record_lineage(lin, out_dir, tag)
    return fold_aggregate(out_dir)


def _parse_and_route(out_dir: str, tag: str, metadata_path: Optional[str],
                     version_fallback: bool, keep: Optional[List[str]] = None):
    """Batch function: ``parse_batch`` (of the ``keep`` columns present, if
    given) then this worker's shared router."""
    def route(t: pa.Table) -> pa.Table:
        if keep:
            t = t.select([c for c in keep if c in t.column_names])
        t = stages.parse_batch(t, metadata_path=metadata_path,
                               version_fallback=version_fallback)
        return stages.shared_router(out_dir, tag, metadata_path,
                                    version_fallback)(t)
    return route


def _record_lineage(lin, out_dir: str, tag: str,
                    consumed: Sequence[str] = ()) -> None:
    """Execute the routing dataset ``lin`` once (``collect_tables``: see its
    docstring), delete the input files it ``consumed``, then write its tiny
    lineage on the driver as ONE ``_lineage/<tag>/lineage.parquet``."""
    tables = [t for t in collect_tables(lin) if t.num_columns]
    lin_tbl = pa.concat_tables(tables) if tables else stages.LINEAGE_SCHEMA.empty_table()
    for f in consumed:
        os.remove(f)
    d = os.path.join(out_dir, "_lineage", tag)
    os.makedirs(d, exist_ok=True)
    _atomic_pq(lin_tbl, os.path.join(d, "lineage.parquet"))


def compact_sinks(out_dir: str, max_files_per_sink: int = 4) -> Dict[str, int]:
    """Per-sink small-file compaction (the object-store file-count answer
    from SCALE.md): any sink directory holding more than
    ``max_files_per_sink`` parquet files is rewritten as one file per
    ``max_files_per_sink`` chunk, atomically (write + rename before
    deleting inputs), as parallel Ray tasks — one task per sink, since
    sinks are independent.

    Re-compaction safety: the output file gets a FRESH generation index
    (``compacted-{n}.parquet`` with n past every existing one), never a name
    in the input list — renaming onto an input and then deleting inputs
    would destroy the sink's data on a second compaction."""

    @ray.remote
    def compact_dir(d: str, cap: int) -> int:
        import re as _re
        import pyarrow.parquet as _pq
        import pyarrow.dataset as _pads
        files = sorted(glob.glob(os.path.join(d, "*.parquet")))
        if len(files) <= cap:
            return 0
        gen = 1 + max((int(m.group(1)) for m in
                       (_re.fullmatch(r"compacted-(\d+)\.parquet",
                                      os.path.basename(f)) for f in files)
                       if m), default=-1)
        tbl = _pads.dataset(files).to_table()
        tmp = os.path.join(d, f"compacted.parquet.tmp.{os.getpid()}")
        _pq.write_table(tbl, tmp, compression="lz4")
        dest = os.path.join(d, f"compacted-{gen:04d}.parquet")
        assert dest not in files
        os.replace(tmp, dest)
        for f in files:
            os.remove(f)
        return len(files)

    sink_dirs = sorted({os.path.dirname(p) for p in glob.glob(
        os.path.join(out_dir, "msg_type=*", "version=*", "*.parquet"))}
        | {d for d in [os.path.join(out_dir, "dead_letter")] if os.path.isdir(d)})
    results = ray.get([compact_dir.remote(d, max_files_per_sink) for d in sink_dirs])
    return {d: n for d, n in zip(sink_dirs, results) if n}


def next_replay_tag(out_dir: str) -> str:
    """Unique per-invocation replay tag (``replay0``, ``replay1``, ...):
    scanning existing ``_lineage/replay*`` dirs so a second replay never
    overwrites the first replay's recovered-row lineage."""
    import re as _re
    used = [int(m.group(1)) for m in
            (_re.fullmatch(r"replay(\d+)", os.path.basename(d)) for d in
             glob.glob(os.path.join(out_dir, "_lineage", "replay*")))
            if m]
    return f"replay{max(used, default=-1) + 1}"


def _atomic_pq(table: pa.Table, path: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


def replay_dead_letters(out_dir: str, replay_tag: Optional[str] = None,
                        metadata_path: Optional[str] = None,
                        version_fallback: bool = False) -> pa.Table:
    """Re-drive the dead-letter sink through the decoder — the recovery
    path after a catalog update adds previously-unknown msg_types/versions
    (the reference's analogue is re-running Step 2 with regenerated
    metadata).  Newly-decodable rows route to their proper sinks under a
    fresh partition tag (auto-derived, unique per invocation); still-bad
    rows land in the replay's own dead-letter files.  Returns the
    refreshed aggregate."""
    if replay_tag is None:
        replay_tag = next_replay_tag(out_dir)
    dl = sorted(glob.glob(os.path.join(out_dir, "dead_letter", "*.parquet")))
    if dl:
        # ~FUSED_BATCH_ROWS rows per read block and batch (batch_size=None
        # would route each file alone: see stages.fused_stage)
        rows = sum(pq.ParquetFile(f).metadata.num_rows for f in dl)
        nb = max(1, min(len(dl), -(-rows // stages.FUSED_BATCH_ROWS)))
        route = _parse_and_route(out_dir, replay_tag, metadata_path,
                                 version_fallback, keep=[
                                     "doc_id", "tokens", "n_tok", "source",
                                     "declared_len", "payload_nbytes"])
        lin = ray.data.read_parquet(dl, override_num_blocks=nb).map_batches(
            route, batch_format="pyarrow", batch_size=stages.FUSED_BATCH_ROWS)
        # replayed rows now live in their new sinks
        _record_lineage(lin, out_dir, replay_tag, consumed=dl)
        # original dead-letter lineage rows are superseded: drop them so the
        # fold reflects the post-replay state (atomic rewrite — a crash
        # mid-write must not corrupt live lineage)
        for lf in glob.glob(os.path.join(out_dir, "_lineage", "*", "lineage.parquet")):
            if os.path.basename(os.path.dirname(lf)) == replay_tag:
                continue
            t = pq.read_table(lf)
            kept = t.filter(pc.not_equal(t["sink"], "dead_letter"))
            if kept.num_rows != t.num_rows:
                _atomic_pq(kept, lf)
    return fold_aggregate(out_dir)


def fold_aggregate(out_dir: str) -> pa.Table:
    """Driver-side fold of the per-batch partial aggregates (tiny)."""
    lin = pads.dataset(os.path.join(out_dir, "_lineage")).to_table()
    ok = lin.filter(pc.not_equal(lin["sink"], "dead_letter"))
    g = pa.TableGroupBy(ok.select(["source", "msg_type", "rows", "sum_n_tok"]),
                        ["source", "msg_type"]).aggregate(
        [("rows", "sum"), ("sum_n_tok", "sum")])
    agg = pa.table({
        "source": g["source"], "msg_type": g["msg_type"],
        "n_rows": pc.cast(g["rows_sum"], pa.int64()),
        "sum_n_tok": pc.cast(g["sum_n_tok_sum"], pa.int64()),
    }).sort_by([("source", "ascending"), ("msg_type", "ascending")])
    pq.write_table(agg, os.path.join(out_dir, "agg.parquet"))

    sinks = pa.TableGroupBy(lin.select(["sink", "rows"]), "sink").aggregate([("rows", "sum")])
    counts = dict(zip(sinks["sink"].to_pylist(),
                      [int(x) for x in sinks["rows_sum"].to_pylist()]))
    with open(os.path.join(out_dir, "sink_counts.json"), "w") as f:
        json.dump(counts, f, indent=1, sort_keys=True)
    return agg


def run_job(input_dir: str, out_dir: str, source_meta_path: str,
            num_partitions: int = 1, batch_size: int = 65536,
            concurrency=(1, 32), resume: bool = True, use_actor_stages: bool = False,
            target_num_blocks: Optional[int] = None,
            fail_after_partitions: Optional[int] = None,
            version_fallback: bool = False) -> pa.Table:
    """Full resumable job.  ``fail_after_partitions`` injects a mid-pipeline
    crash after N completed partitions (for the resume test)."""
    os.makedirs(os.path.join(out_dir, "_manifest"), exist_ok=True)
    files = list_input_files(input_dir)
    parts = plan_partitions(files, num_partitions)
    source_meta_ref = ray.put(pq.read_table(source_meta_path))

    done = 0
    for i, pfiles in enumerate(parts):
        tag = f"p{i:04d}"
        man_path = os.path.join(out_dir, "_manifest", f"{tag}.json")
        if resume and os.path.exists(man_path):
            with open(man_path) as f:
                man = json.load(f)
            if man.get("files") == pfiles and man.get("completed"):
                continue  # completed partition: skip before execution
        _clean_partition_outputs(out_dir, tag)
        t0 = time.monotonic()
        run_partition(pfiles, out_dir, tag, source_meta_ref,
                      batch_size=batch_size, concurrency=concurrency,
                      use_actor_stages=use_actor_stages,
                      target_num_blocks=target_num_blocks,
                      version_fallback=version_fallback)
        man = {"part": tag, "files": pfiles, "completed": True,
               "wall_s": round(time.monotonic() - t0, 3)}
        tmp = man_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(man, f)
        os.replace(tmp, man_path)
        done += 1
        if fail_after_partitions is not None and done >= fail_after_partitions:
            raise RuntimeError(f"injected failure after {done} partitions")

    return fold_aggregate(out_dir)
