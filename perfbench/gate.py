"""Correctness gate: expected results from the single-process oracle.

At preparation the expected aggregate table and per-sink row counts are
computed from the generated rows with :class:`engine.oracle.OracleDecoder`.
The oracle classifies one representative row per distinct header class
(too-short header, or ``(msg_type, version)``) — its classification
depends on nothing else — and NumPy counts the rows of each class, so
the gate costs milliseconds per 100k rows instead of a Python pass over
every row.

Every op's returned aggregate, its ``sink_counts.json`` and the row
totals of the sink files it wrote are compared exactly; one spot-check
per sink directory compares a decoded row with ``OracleDecoder.decode_row``.
"""

from __future__ import annotations

import glob
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from engine.catalog import HEADER_TOKENS
from engine.oracle import ERR_OK, OracleDecoder


@dataclass
class Expected:
    rows: int
    agg: Dict[Tuple[str, int], Tuple[int, int]]   # (source, msg_type) -> (n_rows, sum_n_tok)
    sinks: Dict[str, int]                          # sink name -> rows


def expected_results(table: pa.Table, oracle: OracleDecoder) -> Expected:
    """Expected aggregate and sink counts for ``table`` (columns
    ``tokens``, ``n_tok``, ``source``)."""
    table = table.combine_chunks()
    toks = table["tokens"].chunk(0)
    offsets = toks.offsets.to_numpy()
    values = toks.values.to_numpy(zero_copy_only=False).astype(np.int64)
    short = np.diff(offsets) < HEADER_TOKENS
    start = np.where(short, 0, offsets[:-1])
    mt = np.where(short, -1, values[start])
    ver = np.where(short, -1, values[np.minimum(start + 1, values.size - 1)])
    classes, first, cls_of_row = np.unique(
        np.stack([short.astype(np.int64), mt, ver], axis=1), axis=0,
        return_index=True, return_inverse=True)
    cls_of_row = cls_of_row.reshape(-1)

    sink_names, cls_ok, cls_mt = [], [], []
    for i in first:
        row = toks[int(i)].as_py()
        p = oracle.parse_row(row)
        sink_names.append(oracle.route_key(row))
        cls_ok.append(p["error_code"] == ERR_OK)
        cls_mt.append(p["msg_type"] if p["error_code"] == ERR_OK else -1)

    per_class = np.bincount(cls_of_row, minlength=len(classes))
    sinks: Dict[str, int] = {}
    for name, n in zip(sink_names, per_class):
        if n:
            sinks[name] = sinks.get(name, 0) + int(n)

    src = pc.dictionary_encode(table["source"]).combine_chunks()
    src_idx = src.indices.to_numpy().astype(np.int64)
    src_names = src.dictionary.to_pylist()
    ok_row = np.asarray(cls_ok, dtype=bool)[cls_of_row]
    row_mt = np.asarray(cls_mt, dtype=np.int64)[cls_of_row]
    n_tok = table["n_tok"].to_numpy().astype(np.int64)
    key = src_idx[ok_row] * (1 << 32) + row_mt[ok_row]
    keys, inv = np.unique(key, return_inverse=True)
    counts = np.bincount(inv, minlength=len(keys))
    sums = np.bincount(inv, weights=n_tok[ok_row], minlength=len(keys))
    agg = {(src_names[int(k >> 32)], int(k & 0xFFFFFFFF)): (int(c), int(s))
           for k, c, s in zip(keys, counts, sums)}
    return Expected(rows=table.num_rows, agg=agg, sinks=sinks)


def _sink_files(out_dir: str) -> Dict[str, List[str]]:
    files = {"dead_letter": sorted(glob.glob(
        os.path.join(out_dir, "dead_letter", "*.parquet")))}
    for d in sorted(glob.glob(os.path.join(out_dir, "msg_type=*"))):
        sink = os.path.basename(d).split("=", 1)[1]
        files[sink] = sorted(glob.glob(os.path.join(d, "version=*", "*.parquet")))
    return {k: v for k, v in files.items() if v}


def check_op(out_dir: str, agg: pa.Table, want: Expected,
             tokens_of: Callable[[str], list], oracle: OracleDecoder
             ) -> Tuple[List[str], int]:
    """Compare one op's outputs with ``want``; returns the mismatches and
    the number of sink files the op wrote."""
    bad: List[str] = []
    got = {(r["source"], r["msg_type"]): (r["n_rows"], r["sum_n_tok"])
           for r in agg.to_pylist()}
    if got != want.agg:
        diff = sorted(set(got.items()) ^ set(want.agg.items()))[:3]
        bad.append(f"aggregate differs from oracle ({len(got)} vs "
                   f"{len(want.agg)} keys), e.g. {diff}")
    with open(os.path.join(out_dir, "sink_counts.json")) as f:
        counts = json.load(f)
    if counts != want.sinks:
        bad.append(f"sink_counts.json {counts} != oracle {want.sinks}")
    files = _sink_files(out_dir)
    totals = {s: sum(pq.read_metadata(p).num_rows for p in fs)
              for s, fs in files.items()}
    if totals != want.sinks:
        bad.append(f"sink file rows {totals} != oracle {want.sinks}")
    bad += _spot_check_decode(out_dir, tokens_of, oracle)
    return bad, sum(len(fs) for fs in files.values())


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def _spot_check_decode(out_dir: str, tokens_of, oracle: OracleDecoder) -> List[str]:
    """First row of one file per (msg_type, version) sink vs the oracle."""
    bad = []
    for d in sorted(glob.glob(os.path.join(out_dir, "msg_type=*", "version=*"))):
        f = sorted(glob.glob(os.path.join(d, "*.parquet")))[0]
        r = pq.read_table(f).slice(0, 1).to_pylist()[0]
        ref = oracle.decode_row(tokens_of(r["doc_id"]))
        for k, v in ref["fields"].items():
            if not _same(r.get(k), v):
                bad.append(f"{f}: {r['doc_id']} field {k!r} = {r.get(k)!r}, "
                           f"oracle {v!r}")
        for name, recs in ref["records"].items():
            if len(r.get(name) or []) != len(recs):
                bad.append(f"{f}: {r['doc_id']} {name!r} has "
                           f"{len(r.get(name) or [])} records, oracle {len(recs)}")
    return bad
