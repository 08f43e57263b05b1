"""Ray Data stages: parse -> enrich -> decode+route -> aggregate.

Each stage is a ``Dataset -> Dataset`` combinator (the composable-stage
equivalent of the reference's package-root API,
``hex_decoder_module/__init__.py:1-22``).  Hot-loop bodies are the
vectorized kernels in :mod:`engine.kernels`; stateful stages are callable
classes run as actor pools (``map_batches(Cls, concurrency=N)``) with all
setup in ``__init__`` — the Ray-native replacement for the reference's
process-local caches (``icd_parser/cache.py:9-67``) and its
metadata-loaded-once parser (``metadata_payload_parser.py:19-32``).

Scale notes (100 TB design):
* parse/enrich/decode are shuffle-free single-pass ``map_batches``;
* routing is shuffle-free fan-out: each task writes its own per-sink
  Parquet files, so a hot msg_type (>=50% of rows) causes zero skew — there
  is no exchange to skew.  The only all-to-all in the engine is the final
  grouped aggregate, which we run over per-batch partials (combiner
  pattern), so the shuffle moves one row per (source, msg_type) per batch,
  not one row per packet;
* the catalog and the per-source enrich table are broadcast once via
  ``ray.put`` and fetched in actor ``__init__`` (north-star J8/ST5), never
  re-shipped per batch.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Dict, Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from engine.kernels import BatchView, Decoder, group_rows_by_layout
from engine.oracle import ERR_OK

ENVELOPE_PARSE_COLS = ["msg_type", "version", "seq", "ts", "error_code"]


@functools.lru_cache(maxsize=1)
def _pin_arrow_threads() -> bool:
    """One Arrow compute/IO thread per Ray worker.

    Each worker process otherwise spawns Arrow's default pool
    (os.cpu_count() threads): with 32 workers that is ~1000 threads fighting
    over 32 cores during parquet encode / compute kernels, which wrecks
    scaling at high concurrency.  Ray pins OMP_NUM_THREADS=1 for the same
    reason; Arrow's pool is separate and needs explicit pinning."""
    try:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
    except Exception:
        return False
    return True


@functools.lru_cache(maxsize=8)
def _shared_decoder_cached(metadata_path: Optional[str],
                           fingerprint, version_fallback: bool) -> Decoder:
    _pin_arrow_threads()
    if metadata_path:
        from engine.ref_metadata import load_metadata_json
        return Decoder(load_metadata_json(metadata_path),
                       version_fallback=version_fallback)
    return Decoder(version_fallback=version_fallback)


def shared_decoder(metadata_path: Optional[str] = None,
                   version_fallback: bool = False) -> Decoder:
    """Per-worker-process compiled catalog (cheap, deterministic).

    With ``metadata_path``, the catalog is loaded from a REFERENCE-format
    metadata JSON (engine.ref_metadata) instead of the synthetic catalog —
    the migration path for users carrying their own Step-1 metadata files.
    The cache key includes the file's (mtime_ns, size) fingerprint: Ray
    reuses worker processes across executions, so a regenerated metadata
    file at the same path must NOT hit a stale compiled catalog."""
    fp = None
    if metadata_path:
        try:
            st = os.stat(metadata_path)
            fp = (st.st_mtime_ns, st.st_size)
        except OSError:
            fp = None
    return _shared_decoder_cached(metadata_path, fp, version_fallback)


# ---------------------------------------------------------------------------
# Parse stage (stateless tasks; M1-M5 vectorized)
# ---------------------------------------------------------------------------

def batch_view(t: pa.Table) -> BatchView:
    """BatchView over a batch's tokens, honoring an exact ``payload_nbytes``
    column when the source provides one (hex ingest: payloads are padded to
    word boundary in the token domain; validity must use true byte length)."""
    import pyarrow.compute as pc
    exact = None
    if "payload_nbytes" in t.column_names:
        exact = pc.fill_null(t["payload_nbytes"], -1).to_numpy(
            zero_copy_only=False).astype(np.int64)
    return BatchView(t["tokens"], exact_nbytes=exact)


def parse_batch(t: pa.Table, metadata_path: Optional[str] = None,
                version_fallback: bool = False) -> pa.Table:
    """Header extract + validation as envelope columns (no exceptions —
    error-status columns per SURVEY 1.4 instead of models/errors.py).

    With ``version_fallback`` (reference version_resolver.py:46-50
    semantics), unknown versions of known logcodes classify OK and an
    extra ``layout_version`` column records the table they decode under;
    the raw ``version`` column is preserved either way."""
    from engine.oracle import ERR_TOO_SHORT_HEADER
    t = t.combine_chunks()
    view = batch_view(t)
    cls = shared_decoder(metadata_path, version_fallback).classify(view)
    no_hdr = cls["error_code"] == ERR_TOO_SHORT_HEADER
    for name in ENVELOPE_PARSE_COLS:
        if name == "error_code":
            t = t.append_column(name, pa.array(cls[name], type=pa.int8()))
        else:
            # header fields are null when the header itself is absent
            t = t.append_column(name, pa.array(
                cls[name], type=pa.int32(),
                mask=no_hdr if no_hdr.any() else None))
    if version_fallback:
        t = t.append_column("layout_version", pa.array(
            cls["layout_version"], type=pa.int32(),
            mask=no_hdr if no_hdr.any() else None))
    return t


def parse_stage(ds, batch_size: int = 65536, version_fallback: bool = False):
    import functools
    fn = functools.partial(parse_batch, version_fallback=version_fallback) \
        if version_fallback else parse_batch
    return ds.map_batches(fn, batch_format="pyarrow",
                          batch_size=batch_size, zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Enrich stage (actor pool; broadcast small side — J8/ST5)
# ---------------------------------------------------------------------------

class Enricher:
    """Joins per-source metadata via a broadcast lookup (no shuffle).

    The side table is put in the object store once (``ray.put``) and read in
    ``__init__`` — once per actor, the reference's load-metadata-once shape
    (``metadata_payload_parser.py:19-32``)."""

    def __init__(self, source_meta_ref):
        meta = ray.get(source_meta_ref) if isinstance(source_meta_ref, ray.ObjectRef) else source_meta_ref
        self.maps: Dict[str, Dict[str, object]] = {}
        srcs = meta["source"].to_pylist()
        for col in ("site", "hw_rev", "priority"):
            self.maps[col] = dict(zip(srcs, meta[col].to_pylist()))

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        # dictionary-encode once: per-batch cost is O(distinct sources) python
        # work + one vectorized take, not O(rows)
        d = pc.dictionary_encode(t["source"].combine_chunks())
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        uniq = d.dictionary.to_pylist()
        idx = d.indices
        for col, patype in (("site", pa.string()), ("hw_rev", pa.string()),
                            ("priority", pa.int32())):
            m = self.maps[col]
            mapped = pa.array([m.get(s) for s in uniq], type=patype)
            arr = pa.DictionaryArray.from_arrays(idx, mapped).cast(patype)
            t = t.append_column(col, arr)
        return t


def enrich_stage(ds, source_meta_ref, batch_size: int = 65536, concurrency=(1, 32)):
    return ds.map_batches(Enricher, fn_constructor_args=(source_meta_ref,),
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency, num_cpus=1)


# ---------------------------------------------------------------------------
# Decode + route stage (actor pool; shuffle-free heterogeneous fan-out)
# ---------------------------------------------------------------------------

ENVELOPE_SINK_COLS = ["doc_id", "source", "site", "hw_rev", "priority",
                      "version", "seq", "ts", "n_tok", "tokens"]
DEAD_LETTER_COLS = ["doc_id", "source", "n_tok", "tokens", "msg_type",
                    "version", "error_code", "declared_len", "payload_nbytes"]

LINEAGE_SCHEMA = pa.schema([
    ("part", pa.string()), ("sink", pa.string()), ("msg_type", pa.int32()),
    ("source", pa.string()), ("rows", pa.int64()), ("sum_n_tok", pa.int64()),
    ("path", pa.string()), ("batch_wall_ms", pa.float64()),
])


def _atomic_write(table: pa.Table, path: str) -> None:
    # lz4 + dictionary only on low-cardinality string columns: random token
    # payloads are incompressible, and dictionary-encoding unique doc_ids
    # costs ~75% extra write CPU for nothing (measured: 59ms -> 37ms per
    # 63k-row sink batch at ~1.3x the snappy+full-dict file size)
    tmp = f"{path}.tmp.{os.getpid()}"
    dict_cols = [c for c in ("source", "site", "hw_rev") if c in table.column_names]
    pq.write_table(table, tmp, compression="lz4",
                   use_dictionary=dict_cols or False)
    os.replace(tmp, path)


class DecodeRouter:
    """Decode each (msg_type, version) group and fan rows out to per-sink
    Parquet directories (``out/msg_type=0xXXXX/version=V/``), dead letters to
    their own sink — the Ray-native form of the reference's per-logcode JSON
    outputs (``export/file_writer.py:14-76``) plus the dead-letter design of
    SURVEY 1.4.  Emits per-batch lineage + partial-aggregate rows instead of
    data, so the downstream aggregate shuffles partials only.  Each sink is
    one contiguous segment of the batch's single permutation take, so the
    lineage is one group-by over ``(segment, source)`` per batch, not one
    per sink.

    File naming ``part-<min doc_id>-<rows>.parquet`` is deterministic per
    batch content: task retries overwrite with identical bytes (idempotent
    writes, the checkpoint-manifest prerequisite, SURVEY section 4).
    """

    def __init__(self, out_dir: str, part_tag: str = "p0000",
                 metadata_path: Optional[str] = None,
                 version_fallback: bool = False):
        self.out_dir = out_dir
        self.part_tag = part_tag
        self.decoder = shared_decoder(metadata_path, version_fallback)

    def _write_sink(self, rel: str, table: pa.Table) -> str:
        d = os.path.join(self.out_dir, rel)
        os.makedirs(d, exist_ok=True)
        import pyarrow.compute as pc
        min_doc = pc.min(table["doc_id"]).as_py()
        path = os.path.join(d, f"{self.part_tag}-{min_doc}-{table.num_rows}.parquet")
        _atomic_write(table, path)
        return path

    def _lineage(self, env_all: pa.Table, segs) -> pa.Table:
        """Lineage rows for every sink segment of ``env_all`` in one pass.

        ``segs`` lists ``(sink, msg_type, path, wall_ms, rows)`` per
        contiguous segment; one group-by over ``(seg, source)`` yields each
        segment's per-source row count and ``n_tok`` sum, in segment (write)
        order, then by source."""
        import pyarrow.compute as pc
        sink, msg_type, path, wall_ms, rows = zip(*segs)
        seg = np.repeat(np.arange(len(segs), dtype=np.int32), rows)
        g = pa.TableGroupBy(
            pa.table({"seg": seg, "source": env_all["source"],
                      "n_tok": env_all["n_tok"]}),
            ["seg", "source"], use_threads=False).aggregate(
            [("n_tok", "sum"), ("n_tok", "count")]).sort_by(
            [("seg", "ascending"), ("source", "ascending")])
        idx = g["seg"]
        return pa.table({
            "part": pa.array([self.part_tag] * g.num_rows),
            "sink": pa.array(sink).take(idx),
            "msg_type": pa.array(msg_type, type=pa.int32()).take(idx),
            "source": g["source"],
            "rows": pc.cast(g["n_tok_count"], pa.int64()),
            "sum_n_tok": pc.cast(g["n_tok_sum"], pa.int64()),
            "path": pa.array(path).take(idx),
            "batch_wall_ms": pa.array(wall_ms, type=pa.float64()).take(idx),
        }).cast(LINEAGE_SCHEMA)

    def __call__(self, t: pa.Table) -> pa.Table:
        t0 = time.monotonic()
        t = t.combine_chunks()
        view = batch_view(t)
        err = t["error_code"].to_numpy()
        segs = []

        import pyarrow.compute as pc
        cls = {"error_code": err,
               "msg_type": pc.fill_null(t["msg_type"], -1).to_numpy(
                   zero_copy_only=False).astype(np.int64),
               "version": pc.fill_null(t["version"], -1).to_numpy(
                   zero_copy_only=False).astype(np.int64)}
        if "layout_version" in t.column_names:  # version-fallback mode
            cls["layout_version"] = pc.fill_null(t["layout_version"], -1) \
                .to_numpy(zero_copy_only=False).astype(np.int64)

        # one permutation take for the whole batch (dead letters + every
        # group), then zero-copy slices per sink — with ~45 layouts a
        # per-group take would copy the envelope ~45 times
        bad = np.flatnonzero(err != ERR_OK)
        groups = list(group_rows_by_layout(self.decoder, cls))
        perm_parts = ([bad] if bad.size else []) + [rows for _, _, rows in groups]
        if not perm_parts:
            return LINEAGE_SCHEMA.empty_table()
        perm = np.concatenate(perm_parts)
        all_cols = [c for c in dict.fromkeys(DEAD_LETTER_COLS + ENVELOPE_SINK_COLS)
                    if c in t.column_names]
        env_all = t.select(all_cols).take(pa.array(perm)).combine_chunks()

        pos = 0
        if bad.size:
            dl = env_all.slice(0, bad.size).select(
                [c for c in DEAD_LETTER_COLS if c in env_all.column_names])
            pos = bad.size
            path = self._write_sink("dead_letter", dl)
            segs.append(("dead_letter", -1, path,
                         (time.monotonic() - t0) * 1e3, bad.size))

        env_cols = [c for c in ENVELOPE_SINK_COLS if c in env_all.column_names]
        for mt, ver, rows in groups:
            layout = self.decoder.compiled[(mt, ver)]
            cols = self.decoder.decode_group(view, rows, layout)
            env = env_all.slice(pos, len(rows)).select(env_cols)
            pos += len(rows)
            for name, arr in cols.items():
                env = env.append_column(name, arr)
            sink = f"0x{mt:04X}"
            path = self._write_sink(os.path.join(f"msg_type={sink}", f"version={ver}"), env)
            segs.append((sink, mt, path, (time.monotonic() - t0) * 1e3,
                         len(rows)))

        return self._lineage(env_all, segs)


_router: Optional[DecodeRouter] = None


def shared_router(out_dir: str, part_tag: str,
                  metadata_path: Optional[str] = None,
                  version_fallback: bool = False) -> DecodeRouter:
    """Per-worker-process DecodeRouter for the task-pool hex and replay
    jobs: one slot, rebuilt when the output, tag or catalog changes (the
    catalog via :func:`shared_decoder`'s fingerprinted cache, so a
    regenerated metadata file is never routed with a stale decoder)."""
    global _router
    decoder = shared_decoder(metadata_path, version_fallback)
    r = _router
    if r is None or (r.out_dir, r.part_tag) != (out_dir, part_tag) \
            or r.decoder is not decoder:
        r = _router = DecodeRouter(out_dir, part_tag, metadata_path,
                                   version_fallback)
    return r


def decode_route_stage(ds, out_dir: str, part_tag: str = "p0000",
                       batch_size: int = 65536, concurrency=(1, 32),
                       version_fallback: bool = False):
    return ds.map_batches(
        DecodeRouter, fn_constructor_args=(out_dir, part_tag, None, version_fallback),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


# ---------------------------------------------------------------------------
# Fused production stage: parse+enrich+decode+route in ONE map_batches
# ---------------------------------------------------------------------------

class _FusedState:
    """Worker-process-resident pipeline state (catalog, enrich table, router).

    Measured on this Ray version: per-execution actor-pool spin-up makes a
    3-stage actor pipeline ~3x slower than a fused task pool whose workers
    cache state at module level (Ray reuses worker processes, so the state
    is initialized once per worker — the same amortization the reference
    gets from its load-once parser, metadata_payload_parser.py:19-32, and
    that an actor pool would give on a long-lived cluster).  The actor-pool
    variants above remain the API for stages that genuinely need pinned
    state; the flagship job uses this fused stage.
    """

    _cache: Dict[tuple, "_FusedState"] = {}

    def __init__(self, out_dir: str, part_tag: str, source_meta_ref,
                 version_fallback: bool = False):
        self.enricher = Enricher(source_meta_ref)
        self.router = DecodeRouter(out_dir, part_tag,
                                   version_fallback=version_fallback)

    @classmethod
    def get(cls, out_dir: str, part_tag: str, source_meta_ref,
            version_fallback: bool = False) -> "_FusedState":
        # key includes the broadcast side-table's identity: worker processes
        # outlive executions, so a re-run to the same out_dir/tag with a
        # CHANGED source_meta table must rebuild, not reuse stale maps
        ref_key = (source_meta_ref.hex()
                   if isinstance(source_meta_ref, ray.ObjectRef)
                   else id(source_meta_ref))
        key = (out_dir, part_tag, ref_key, version_fallback)
        st = cls._cache.get(key)
        if st is None:
            cls._cache.clear()  # bounded: one live state per worker
            st = cls._cache[key] = cls(out_dir, part_tag, source_meta_ref,
                                       version_fallback)
        return st


FUSED_BATCH_ROWS = 262_144


def fused_stage(ds, out_dir: str, part_tag: str = "p0000", source_meta_ref=None,
                batch_size: int = FUSED_BATCH_ROWS,
                version_fallback: bool = False):
    """parse -> enrich -> decode+route as one map_batches pass.

    The batch size is EXPLICIT, never None: when Ray fuses this operator
    into the parquet read, ``batch_size=None`` means "whatever micro-batch
    the reader streams" (~10k rows), which multiplies the per-batch cost
    (one parquet file per live sink per batch) ~40x — measured as an
    8.6s-vs-1.3s per-task difference on 500k-row read tasks.  The hex job
    keeps the same contract another way: ``sources.read_hex_packets``
    sizes its read blocks by bytes (``sources._HEX_BLOCK_BYTES``, about
    this many packets) and ``run_hex_job`` routes each block as one batch,
    which keeps the route fused into the read task."""
    def fused(t: pa.Table) -> pa.Table:
        st = _FusedState.get(out_dir, part_tag, source_meta_ref, version_fallback)
        return st.router(st.enricher(parse_batch(
            t, version_fallback=version_fallback)))

    return ds.map_batches(fused, batch_format="pyarrow", batch_size=batch_size,
                          zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Aggregate stage (A6): native shuffle aggregate + combiner variant
# ---------------------------------------------------------------------------

def ok_only(ds):
    import pyarrow.compute as pc
    return ds.map_batches(lambda t: t.filter(pc.equal(t["error_code"], 0)),
                          batch_format="pyarrow")


def aggregate_salted(parsed_ds, salt_buckets: int = 16):
    """Key-salted two-phase aggregate (the north-rule hot-key answer).

    The hot msg_type holds >=50% of rows, so a naive ``groupby(source,
    msg_type)`` sends half the table through the reducers owning one key.
    Phase 1 groups on ``(source, msg_type, salt)`` with
    ``salt = hash(doc_id) % S`` — the hot key's rows spread over S reducers;
    phase 2 folds the S partials per key (tiny).  Results are identical to
    :func:`aggregate_stage`; use whichever the key cardinality and skew
    profile favor (combine with the per-batch combiner of
    :func:`pre_aggregated` when batches are key-dense)."""
    import pandas as pd
    import pyarrow.compute as pc

    def add_salt(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["error_code"], 0))
        h = pd.util.hash_pandas_object(
            pd.Series(t["doc_id"].to_pandas()), index=False).to_numpy()
        salt = (h % np.uint64(salt_buckets)).astype(np.int32)
        return pa.table({"source": t["source"], "msg_type": t["msg_type"],
                         "n_tok": t["n_tok"], "salt": pa.array(salt)})

    from ray.data.aggregate import Count, Sum
    phase1 = parsed_ds.map_batches(add_salt, batch_format="pyarrow") \
        .groupby(["source", "msg_type", "salt"]) \
        .aggregate(Count(alias_name="n_rows"), Sum("n_tok", alias_name="sum_n_tok"))
    return phase1.groupby(["source", "msg_type"]).aggregate(
        Sum("n_rows", alias_name="n_rows"), Sum("sum_n_tok", alias_name="sum_n_tok"))


def aggregate_stage(parsed_ds):
    """Native ``groupby(source, msg_type).aggregate(count, sum(n_tok))``
    (BASELINE.json north_star A6).  Ray performs partial+final under the
    hood; for the job's hot path prefer :func:`pre_aggregated` below."""
    from ray.data.aggregate import Count, Sum
    ok = ok_only(parsed_ds).map_batches(
        lambda t: t.select(["source", "msg_type", "n_tok"]),
        batch_format="pyarrow")  # project before the shuffle: never sort tokens
    return ok.groupby(["source", "msg_type"]).aggregate(
        Count(alias_name="n_rows"), Sum("n_tok", alias_name="sum_n_tok"))


def _partial_agg_batch(t: pa.Table) -> pa.Table:
    import pyarrow.compute as pc
    t = t.filter(pc.equal(t["error_code"], 0))
    g = pa.TableGroupBy(t.select(["source", "msg_type", "n_tok"]),
                        ["source", "msg_type"]).aggregate(
        [("n_tok", "count"), ("n_tok", "sum")])
    return pa.table({
        "source": g["source"], "msg_type": g["msg_type"],
        "n_rows": pc.cast(g["n_tok_count"], pa.int64()),
        "sum_n_tok": pc.cast(g["n_tok_sum"], pa.int64()),
    })


def pre_aggregated(parsed_ds):
    """Combiner-pattern aggregate: per-batch partials inside ``map_batches``
    (one row per key per batch crosses the exchange), then a tiny global
    groupby — the explicit skew answer required by the north rule.  A hot
    msg_type inflates only the batch-local combine, which is O(batch).  If a
    single *key* were ever hot enough to bottleneck the final fold, salt it:
    key' = (source, msg_type, hash(doc_id) % S) then fold the salt back —
    with one row per key per batch, the fold input is already tiny.

    The final combine runs on the driver: partial cardinality is
    O(keys x batches), a few KB here.  At key cardinalities where that no
    longer holds, swap the fold for :func:`aggregate_stage`'s native
    groupby over the partials — the partials schema is identical."""
    import pyarrow.compute as pc
    from engine.pipeline import collect_tables
    partials = parsed_ds.map_batches(_partial_agg_batch, batch_format="pyarrow",
                                     batch_size=None)
    folded = pa.concat_tables([t for t in collect_tables(partials)
                               if t.num_columns])
    g = pa.TableGroupBy(folded, ["source", "msg_type"]).aggregate(
        [("n_rows", "sum"), ("sum_n_tok", "sum")])
    out = pa.table({"source": g["source"], "msg_type": g["msg_type"],
                    "n_rows": g["n_rows_sum"], "sum_n_tok": g["sum_n_tok_sum"]})
    return ray.data.from_arrow(out)


#: target exchange rows per partition: sketch/id rows are ~100-200 B, so
#: ~500k rows ≈ 50-100 MB — comfortably one worker heap
_EXCHANGE_ROWS_PER_PART = 500_000


def hash_group_exchange(ds_factory, keys, block_fn,
                        num_partitions: int = None,
                        batch_format: str = "pyarrow",
                        collect: bool = True,
                        rows_hint: int = None):
    """Hash-keyed group exchange: co-locate whole key groups, then run ONE
    vectorized ``map_batches`` over each partition — the scale substitute
    for ``groupby(keys).map_groups(per_group_fn)`` whenever the per-group
    body can be expressed as a multi-group numpy pass (lexsort + boundary
    masks).  ``map_groups`` costs one Python call (and one DataFrame) per
    group — ruinous when groups are small and plentiful (LSH buckets,
    per-user sessions); this shape costs one call per PARTITION.

    Uses Ray's hash-shuffle strategy, whose aggregators finalize each
    partition as a single block (Ray 2.49), so ``batch_size=None`` hands
    ``block_fn`` every group whole.  The strategy is flipped on the
    upstream Dataset's OWN captured DataContext (every Dataset deep-copies
    the global context at creation and derived datasets inherit it), so
    the global context is never touched and the flip stays scoped to this
    lineage even when a lazy Dataset is returned.  ``ds_factory`` may be
    the upstream Dataset itself or a zero-arg callable building it.

    Partition count: pass ``rows_hint`` (the approximate exchange row
    count, usually one parquet-metadata read) and the count scales with
    DATA — ceil(rows / 500k), floor 8 — so each partition's groups fit a
    worker heap at any scale while small jobs don't pay spin-up for
    aggregator actors they can't use (measured at sf0.1: 8 partitions
    1.1 s vs 64 partitions 5.4 s for the identical LSH exchange — the
    per-partition aggregator actors ARE the fixed cost).  Without a hint
    it falls back to max(16, cluster CPUs); ``num_partitions`` overrides
    both.

    ``keys``/``block_fn`` may also be LISTS of equal length — a chain of
    exchange stages in one plan (e.g. knn: exchange on cell, score,
    exchange on vec_id, fold).  CAUTION: the upstream plan must not
    contain ``groupby().map_groups`` — that operator deadlocks under the
    hash-shuffle strategy in Ray 2.49 local mode (observed empirically);
    express such stages as exchange stages of this chain instead.

    Empty partitions finalize as schema-LESS empty blocks (same Ray
    quirk as hash aggregates): ``block_fn`` never sees them (map_batches
    skips empties) but they stay in the output stream — harmless for
    ``to_pandas``/``collect_tables`` consumers, but feed a downstream
    ``Dataset.join`` through ``pipeline.scrub_empty_blocks`` first."""
    from ray.data.context import ShuffleStrategy
    stages = list(zip(keys, block_fn)) if isinstance(block_fn, (list, tuple)) \
        else [(keys, block_fn)]
    if num_partitions is not None:
        nparts = num_partitions
    elif rows_hint is not None:
        nparts = max(8, -(-int(rows_hint) // _EXCHANGE_ROWS_PER_PART))
        # ... bounded by what the cluster can HOST: every partition gets a
        # hash-shuffle aggregator ACTOR, and a fleet larger than the
        # cluster's cores serializes its own spin-up and thrashes the
        # exchange.  Measured on the 32M-row dedup exchange: 64 partitions
        # on 8 CPUs did not finish in 10 MINUTES (the r4 pathological
        # case), 16 partitions ran 40 s; at 32 CPUs 64 partitions ran
        # 30.7 s vs 21.2 s for 32 partitions (the ~0.07 s/actor spin-up
        # datum again).  min(data-sized, cluster CPUs, floor 8) keeps
        # every regime sane; on a real multi-node cluster the CPU count
        # is large enough that the data-sized count stands unchanged.
        if ray.is_initialized():
            cpus = int(ray.cluster_resources().get("CPU", 0))
            if cpus:
                nparts = min(nparts, max(8, cpus))
    else:
        # Ray may not be up yet (Ray Data auto-inits at execution; e.g. a
        # prior CLI run owned and shut down the session) — don't force an
        # early init just to size the partition count
        cpus = int(ray.cluster_resources().get("CPU", 8)) \
            if ray.is_initialized() else 8
        nparts = max(16, cpus)
    out = ds_factory() if callable(ds_factory) else ds_factory
    out.context.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    for stage_keys, stage_fn in stages:
        out = out.repartition(nparts, keys=list(stage_keys)) \
            .map_batches(stage_fn, batch_format=batch_format,
                         batch_size=None)
    return out.to_pandas() if collect else out
