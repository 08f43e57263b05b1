"""Benchmark workloads: seeded inputs and one op through the public entry
points.

* ``bulk_parquet``  — one ``run_job`` over a ~300k-row tokenized Parquet
  corpus in 16 files: the production shape, dominated by decode and sink
  writes.
* ``hex_ingest``    — one ``run_hex_job`` over ~30k reference-format
  ``Length:/Header:/Payload:`` packets in 16 files with a multi-logcode
  reference metadata JSON: the only workload through ``engine.sources``
  and the reference-metadata catalog.

Every input is generated from the seed with ``engine.datagen`` into a
directory the caller owns; the program under test receives only those
files.  None of the workloads runs a hash-shuffle exchange or
``groupby().map_groups``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import pyarrow as pa
import pyarrow.parquet as pq

from engine import datagen, pipeline, ref_metadata, sources
from engine.oracle import OracleDecoder

from perfbench.gate import Expected, expected_results

BULK_ROWS = 300_000
BULK_FILES = 16
HEX_PACKETS = 30_000
HEX_FILES = 16


@dataclass
class Input:
    """One op's input files, with what the oracle expects from it."""
    files: List[str]
    expected: Expected
    tokens: pa.ChunkedArray          # token rows in doc-id order
    doc_index: Callable[[str], int]  # doc_id -> row index into ``tokens``

    def tokens_of(self, doc_id: str) -> list:
        return self.tokens[self.doc_index(doc_id)].as_py()


class Workload:
    name = ""
    run_hex = False
    #: generated rows left out of the input because its format cannot hold them
    excluded_rows = 0

    def __init__(self, data_dir: str):
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        self.input: Optional[Input] = None
        self.meta_path = os.path.join(data_dir, "source_meta.parquet")
        self.oracle = OracleDecoder()

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def run_op(self, out_dir: str) -> pa.Table:
        """One job through the public entry point; returns its aggregate."""
        return pipeline.run_job(os.path.dirname(self.input.files[0]),
                                out_dir, self.meta_path)

    def _parquet_input(self, n_rows: int, seed: int, d: str, num_files: int) -> Input:
        datagen.generate_sequences(n_rows, seed, d, num_files=num_files)
        files = pipeline.list_input_files(d)
        t = pq.read_table(files)
        return Input(files, expected_results(t, self.oracle), t["tokens"],
                     lambda doc: int(doc[len("doc-"):]))


class BulkParquet(Workload):
    name = "bulk_parquet"

    def prepare(self, seed: int) -> None:
        datagen.generate_source_meta(self.meta_path)
        self.input = self._parquet_input(
            BULK_ROWS, seed, os.path.join(self.data_dir, "bulk"), BULK_FILES)


class HexIngest(Workload):
    name = "hex_ingest"
    run_hex = True

    def __init__(self, data_dir: str):
        super().__init__(data_dir)
        self.meta_path = os.path.join(data_dir, "metadata.json")

    def prepare(self, seed: int) -> None:
        md = ref_metadata.generate_metadata_json()
        with open(self.meta_path, "w") as f:
            json.dump(md, f)
        self.oracle = OracleDecoder(ref_metadata.load_metadata_json(md))
        seq_dir = os.path.join(self.data_dir, "sequences")
        datagen.generate_sequences(HEX_PACKETS, seed, seq_dir, num_files=HEX_FILES)
        hex_dir = os.path.join(self.data_dir, "hex")
        os.makedirs(hex_dir)
        files, rows, stems = [], [], []
        for i, src in enumerate(pipeline.list_input_files(seq_dir)):
            toks = pq.read_table(src, columns=["tokens"])["tokens"].to_pylist()
            # a header needs 4 tokens: shorter rows have no hex rendering
            keep = [t for t in toks if len(t) >= 4]
            self.excluded_rows += len(toks) - len(keep)
            stem = f"device-{i:02d}"
            path = os.path.join(hex_dir, f"{stem}.hex")
            with open(path, "w") as f:
                f.write("\n".join(sources.render_hex_packet(t) for t in keep))
            files.append(path)
            rows += keep
            stems += [stem] * len(keep)
        tokens = pa.chunked_array([pa.array(rows, type=pa.list_(pa.int32()))])
        table = pa.table({"tokens": tokens,
                          "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
                          "source": pa.array(stems)})
        starts: Dict[str, int] = {}
        for i, s in enumerate(stems):
            starts.setdefault(s, i)

        def doc_index(doc: str) -> int:
            stem, i = doc.rsplit("#", 1)
            return starts[stem] + int(i)

        self.input = Input(files, expected_results(table, self.oracle),
                           tokens, doc_index)

    def run_op(self, out_dir: str) -> pa.Table:
        return pipeline.run_hex_job(self.input.files, self.meta_path, out_dir)


WORKLOADS = {w.name: w for w in (BulkParquet, HexIngest)}
