"""Traced single-process composition of one job, for per-layer numbers.

The benchmark's own code calls each layer's public functions in the order
the flagship job runs them and records a span around every call:

    inproc.job
      read                       pyarrow read (Parquet) / file read (hex)
      sources.parse              split_packets + parse_hex_packet +
                                 packet_to_tokens (hex only)
      stages.parse_batch
      stages.enrich              Enricher (Parquet only; the hex job has none)
      stages.route               DecodeRouter.__call__
        kernels.decode_group     Decoder.decode_group on the router's decoder
      pipeline.lineage_write
      pipeline.fold_aggregate

Spans live in memory (name, start, end, parent, op id) and are written out
when the run ends.  A layer's self time is its span time minus the time
its child spans cover.  The same composition also runs with a
:class:`NullTracer`; the difference of the two walls is the tracing
overhead.  No span is recorded inside the program.

Which end-to-end metric each layer should move, and on which workload
(a layer that a workload does not run reports 0 there):

    kernels.decode_group.*      rows_per_s on bulk_parquet
    stages.route.*              rows_per_s and job_s_p50 on both workloads
                                (sink writes: ~141 files per op)
    stages.parse_batch.*,
    stages.enrich.*, read.*     small everywhere; kept so a regression shows
    sources.*                   rows_per_s on hex_ingest, nothing elsewhere
    pipeline.fold_aggregate.*   job_s_p50 on bulk_parquet
    pipeline.overhead_*         job_s_p50 on both workloads (Ray planning, task
                                launch, state rebuild, manifest: the untraced
                                job wall minus the in-process layers)
    inproc.wall_s               the single-process baseline of the same job
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from engine import pipeline, sources, stages

ROOT_SPAN = "inproc.job"
#: top-level layers whose times add up to the in-process job
LAYERS = ("read", "sources.parse", "stages.parse_batch", "stages.enrich",
          "stages.route", "pipeline.lineage_write", "pipeline.fold_aggregate")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int


class Tracer:
    """In-memory spans and counters, keyed by op id."""

    enabled = True

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[tuple, float] = defaultdict(float)
        self.op = 0
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        i = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else -1, self.op))
        self._stack.append(i)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[i].end = time.perf_counter()

    def count(self, name: str, n: float) -> None:
        self.counts[(self.op, name)] += n

    def busy(self, op: int) -> Dict[str, float]:
        """Total span time per name for one op."""
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.op == op:
                out[s.name] += s.end - s.start
        return out

    def self_times(self, op: int) -> Dict[str, float]:
        """Span time minus the time child spans cover, per name."""
        out: Dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s.op != op:
                continue
            out[s.name] += s.end - s.start
            if s.parent >= 0:
                out[self.spans[s.parent].name] -= s.end - s.start
        return out

    def dump(self) -> dict:
        ops = sorted({s.op for s in self.spans})
        return {"spans": [asdict(s) for s in self.spans],
                "self_s": {op: self.self_times(op) for op in ops},
                "counts": {f"{op}:{k}": v for (op, k), v in self.counts.items()}}


class NullTracer(Tracer):
    """Same interface, records nothing: the untraced baseline."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, n: float) -> None:
        pass


class _TracedDecoder:
    """The router's decoder with ``decode_group`` timed and counted; every
    other attribute is the wrapped decoder's."""

    def __init__(self, decoder, tracer: Tracer):
        self._decoder = decoder
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._decoder, name)

    def decode_group(self, view, rows, layout):
        self._tracer.count("kernels.decode_group.calls", 1)
        self._tracer.count("kernels.decode_group.rows", len(rows))
        with self._tracer.span("kernels.decode_group"):
            return self._decoder.decode_group(view, rows, layout)


def _router(tracer: Tracer, *args, **kwargs) -> stages.DecodeRouter:
    router = stages.DecodeRouter(*args, **kwargs)
    if tracer.enabled:
        router.decoder = _TracedDecoder(router.decoder, tracer)
    return router


def _route(router, t: pa.Table, tracer: Tracer) -> pa.Table:
    with tracer.span("stages.route"):
        lin = router(t)
    tracer.count("stages.route.rows", t.num_rows)
    return lin


def _parse(t: pa.Table, tracer: Tracer, metadata_path: Optional[str] = None) -> pa.Table:
    with tracer.span("stages.parse_batch"):
        t = stages.parse_batch(t, metadata_path=metadata_path)
    if tracer.enabled:
        tracer.count("stages.parse_batch.rows", t.num_rows)
        tracer.count("stages.parse_batch.dead_rows",
                     int(np.count_nonzero(t["error_code"].to_numpy())))
    return t


def _finish(out_dir: str, tag: str, lineage: List[pa.Table], tracer: Tracer) -> pa.Table:
    with tracer.span("pipeline.lineage_write"):
        tables = [t for t in lineage if t.num_columns]
        lin = pa.concat_tables(tables) if tables else stages.LINEAGE_SCHEMA.empty_table()
        d = os.path.join(out_dir, "_lineage", tag)
        os.makedirs(d, exist_ok=True)
        pq.write_table(lin, os.path.join(d, "lineage.parquet"))
    if tracer.enabled:
        paths = set(lin["path"].to_pylist())
        tracer.count("stages.route.files", len(paths))
        tracer.count("stages.route.bytes", sum(os.path.getsize(p) for p in paths))
    with tracer.span("pipeline.fold_aggregate"):
        return pipeline.fold_aggregate(out_dir)


def read_plan(files: List[str], binary: bool) -> List[List[str]]:
    """Input files per batch of the job's first map stage, taken from Ray
    Data's own read plan (a cheap read; needs a running session).

    ``run_hex_job`` maps each read block as one batch.  ``run_job``'s fused
    stage is a separate operator that bundles read blocks until a bundle
    holds ``FUSED_BATCH_ROWS`` rows, then cuts it into batches of that size.
    """
    import ray
    if binary:
        ds = ray.data.read_binary_files(files, include_paths=True)
    else:
        ds = ray.data.read_parquet(
            files, columns=["n_tok"], include_paths=True,
            override_num_blocks=pipeline.default_num_blocks(files))
    plan, bundle, rows = [], [], 0
    for t in pipeline.collect_tables(ds):
        bundle += t["path"].to_pylist()
        rows += t.num_rows
        if binary or rows >= stages.FUSED_BATCH_ROWS:
            plan.append(list(dict.fromkeys(bundle)))
            bundle, rows = [], 0
    if bundle:
        plan.append(list(dict.fromkeys(bundle)))
    return plan


def parquet_job(plan: List[List[str]], out_dir: str, meta_path: str,
                tracer: Tracer, tag: str = "p0000") -> pa.Table:
    """``run_job``'s fused parse -> enrich -> route, then its lineage write
    and fold, in one process over the job's batches (see :func:`read_plan`)."""
    with tracer.span(ROOT_SPAN):
        enricher = stages.Enricher(pq.read_table(meta_path))
        router = _router(tracer, out_dir, tag)
        lineage = []
        for bundle in plan:
            with tracer.span("read"):
                t = pads.dataset(bundle, format="parquet").to_table()
            tracer.count("read.rows", t.num_rows)
            for off in range(0, t.num_rows, stages.FUSED_BATCH_ROWS):
                b = _parse(t.slice(off, stages.FUSED_BATCH_ROWS), tracer)
                with tracer.span("stages.enrich"):
                    b = enricher(b)
                tracer.count("stages.enrich.unmatched", b["site"].null_count)
                lineage.append(_route(router, b, tracer))
        return _finish(out_dir, tag, lineage, tracer)


def _hex_table(path: str, data: bytes, tracer: Tracer) -> pa.Table:
    """The hex source's per-packet loop (``sources.read_hex_packets``)."""
    doc_ids, toks, n_toks, srcs, decls, errs, nbytes = [], [], [], [], [], [], []
    stem = os.path.splitext(os.path.basename(path))[0]
    for i, block in enumerate(sources.split_packets(
            data.decode("utf-8", errors="replace"))):
        p = sources.parse_hex_packet(block)
        doc_ids.append(f"{stem}#{i}")
        srcs.append(stem)
        errs.append(p["error"])
        decls.append(p.get("declared"))
        if p["error"] in (sources.INGEST_OK, sources.INGEST_LENGTH_MISMATCH):
            row = sources.packet_to_tokens(p["header"], p["payload"])
            nb = max(len(p["payload"]) - 4, 0)
        else:
            row, nb = [], 0
        toks.append(row)
        n_toks.append(len(row))
        nbytes.append(nb)
    tracer.count("sources.packets", len(doc_ids))
    tracer.count("sources.ingest_errors", sum(1 for e in errs if e))
    return pa.table({
        "doc_id": pa.array(doc_ids, type=pa.string()),
        "tokens": pa.array(toks, type=pa.list_(pa.int32())),
        "n_tok": pa.array(n_toks, type=pa.int32()),
        "source": pa.array(srcs, type=pa.string()),
        "declared_len": pa.array(decls, type=pa.int64()),
        "payload_nbytes": pa.array(nbytes, type=pa.int32()),
        "ingest_error": pa.array(errs, type=pa.int8()),
    })


def hex_job(plan: List[List[str]], metadata_path: str, out_dir: str,
            tracer: Tracer, tag: str = "p0000") -> pa.Table:
    """``run_hex_job``'s read -> parse -> route, then its lineage write and
    fold, in one process over the job's batches (see :func:`read_plan`)."""
    with tracer.span(ROOT_SPAN):
        lineage = []
        for block in plan:
            with tracer.span("read"):
                data = []
                for path in block:
                    with open(path, "rb") as f:
                        data.append(f.read())
            with tracer.span("sources.parse"):
                t = pa.concat_tables([_hex_table(p, d, tracer)
                                      for p, d in zip(block, data)])
            tracer.count("read.rows", t.num_rows)
            t = _parse(t, tracer, metadata_path)
            router = _router(tracer, out_dir, tag, metadata_path=metadata_path)
            lineage.append(_route(router, t, tracer))
        return _finish(out_dir, tag, lineage, tracer)


def layer_metrics(tracer: Tracer, op: int) -> Dict[str, float]:
    """Per-layer metrics of one traced op."""
    busy, own = tracer.busy(op), tracer.self_times(op)
    c = {k: v for (o, k), v in tracer.counts.items() if o == op}
    files = c.get("stages.route.files", 0)
    return {
        "kernels.decode_group.busy_s": busy["kernels.decode_group"],
        "kernels.decode_group.calls": c.get("kernels.decode_group.calls", 0),
        "kernels.decode_group.rows": c.get("kernels.decode_group.rows", 0),
        "stages.route.self_s": own["stages.route"],
        "stages.route.files": files,
        "stages.route.bytes": c.get("stages.route.bytes", 0),
        "stages.route.rows_per_file":
            c.get("stages.route.rows", 0) / files if files else 0.0,
        "stages.parse_batch.busy_s": busy["stages.parse_batch"],
        "stages.parse_batch.rows": c.get("stages.parse_batch.rows", 0),
        "stages.parse_batch.dead_rows": c.get("stages.parse_batch.dead_rows", 0),
        "stages.enrich.busy_s": busy["stages.enrich"],
        "stages.enrich.unmatched": c.get("stages.enrich.unmatched", 0),
        "read.busy_s": busy["read"],
        "read.rows": c.get("read.rows", 0),
        "sources.parse_s": busy["sources.parse"],
        "sources.packets": c.get("sources.packets", 0),
        "sources.ingest_errors": c.get("sources.ingest_errors", 0),
        "pipeline.fold_aggregate.busy_s": busy["pipeline.fold_aggregate"],
        "inproc.wall_s": busy[ROOT_SPAN],
        "inproc.layers_s": sum(busy[name] for name in LAYERS),
    }
