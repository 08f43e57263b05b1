"""Vectorized decode kernels over zero-copy Arrow batches.

These are the ``map_batches`` hot-loop bodies: every reference per-record
operation re-expressed as one numpy strided/bit operation over all rows of a
batch at once.

* bit extraction (``utils/byte_ops.py:31-66`` ``slice_bits``;
  ``metadata_payload_parser.py:318-352`` ``_extract_bits``): one unaligned
  little-endian u64 load per row from an overlapping 8-byte window view of
  the batch buffer (plus a ninth byte for fields that span nine), shift,
  mask — one vector op per field per batch instead of one Python call per
  field per row;
* sign extension (``utils/type_converters.py:88-111``): ``where(v & sign,
  v - 2**n, v)``;
* float reinterpret (``metadata_payload_parser.py:370-383``): numpy
  ``view('<f4'/'<f8')``;
* enum mapping with ``UNKNOWN(<v>)`` default (``utils/type_converters.py:81-85``):
  pandas dict-map + vectorized fill;
* repeated records (``metadata_payload_parser.py:144-254``): the per-row
  dynamic count becomes a count column; records are decoded as one flat
  ragged gather (row-major) and emitted as an Arrow ``list<struct>`` column
  (SURVEY.md section 7.4.7 — flattened ``"(Record i)"`` naming exists only in
  the oracle-comparison view);
* clamp ``actual = min(logical, fits_in_payload)``
  (``metadata_payload_parser.py:231-236``) preserved bit-for-bit;
* BLER derived fields (``decoder/field_post_processor.py:41-148``) as
  vectorized arithmetic gated on msg_type 0xB888; the ``"(Decoded)"``
  ``"%.2f%%"`` strings are written digit by digit into one Arrow string
  buffer, with values near a rounding tie, negative, ``>= 2**32`` hundredths
  or non-finite formatted by Python ``%`` so the text is exact.

Output Arrow dtypes (engine-wide convention): Uint8/16 -> int32,
Uint32 -> int64, Uint64 -> uint64, Int<=32 -> int32, Int64 -> int64,
Bool -> bool, Float32/64 -> float32/64, Enum raw -> int32 (+ ``"<name>
(Decoded)"`` string), derived BLER -> float64 (+ ``"(Decoded)"`` string).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from numpy.lib.stride_tricks import as_strided

from engine.catalog import (
    CompiledLayout, HEADER_TOKENS, RecordSpec, compile_catalog,
)
from engine.oracle import (
    ERR_OK, ERR_TOO_SHORT_HEADER, ERR_UNKNOWN_MSG_TYPE, ERR_UNKNOWN_VERSION,
)

_U64 = np.uint64

if hasattr(np, "bitwise_count"):
    _popcount = np.bitwise_count
else:  # numpy < 2.0 fallback
    def _popcount(x):
        x = x.astype(np.uint64)
        out = np.zeros(x.shape, dtype=np.int64)
        while True:
            nz = x != 0
            if not nz.any():
                return out
            out += (x & _U64(1)).astype(np.int64)
            x = x >> _U64(1)


class BatchView:
    """Zero-copy byte view over the ``tokens`` column of an Arrow batch.

    ``pad`` is the flat LE byte buffer of all token values (one memcpy per
    batch for the 16-byte tail guard, amortized over every field of every
    group); ``tok_start``/``tok_len`` index rows into it.

    ``exact_nbytes`` (optional, per-row int) carries the TRUE payload byte
    length for sources whose payloads are not word-aligned (the hex text
    ingest pads the last word with zeros; the reference checks field
    end_byte against ``len(payload)`` exactly, metadata_payload_parser's
    available_bytes).  When given, it overrides the word-derived
    ``payload_nbytes`` for scalar validity and record-fit clamping.
    """

    def __init__(self, tokens: pa.Array, exact_nbytes=None):
        if isinstance(tokens, pa.ChunkedArray):
            tokens = tokens.combine_chunks()
        offs = tokens.offsets.to_numpy().astype(np.int64)
        values = tokens.values.to_numpy(zero_copy_only=False).astype(np.int32, copy=False)
        u8 = values.view(np.uint8)
        self.pad = np.empty(u8.size + 16, dtype=np.uint8)
        self.pad[:u8.size] = u8
        self.pad[u8.size:] = 0
        self.tok_start = offs[:-1]          # token index of row start
        self.tok_len = offs[1:] - offs[:-1]  # tokens per row
        self.payload_start = (self.tok_start + HEADER_TOKENS) * 4  # byte offset
        self.payload_nbytes = np.maximum(self.tok_len - HEADER_TOKENS, 0) * 4
        if exact_nbytes is not None:
            en = np.asarray(exact_nbytes, dtype=np.int64)
            # trust only sane values: within the word-padded window
            ok = (en >= 0) & (en <= self.payload_nbytes)
            self.payload_nbytes = np.where(ok, en, self.payload_nbytes)
        self.n = len(self.tok_len)

def gather_bits(pad: np.ndarray, base_bytes: np.ndarray, off_bits: int,
                length_bits: int) -> np.ndarray:
    """Extract ``length_bits`` at bit offset ``off_bits`` past each row base.

    Little-endian window shift+mask per utils/byte_ops.py:31-66.  Each row
    is one unaligned u64 load from an overlapping 8-byte window view of
    ``pad``; a field spanning 9 bytes ORs in the ninth.  Windows that would
    run past the end of ``pad`` load from ``pad.size - 8`` and shift the
    surplus low bytes out.  Bytes beyond the field are masked off; callers
    mask validity separately.  ``pad`` must hold at least 8 bytes.
    """
    start = base_bytes + off_bits // 8
    shift = off_bits % 8
    nb = (shift + length_bits + 7) // 8
    np.clip(start, 0, pad.size - nb, out=start)
    win = as_strided(pad, (pad.size - 7, 8), (1, 1)).view("<u8")[:, 0]
    load = np.minimum(start, pad.size - 8)
    v = win[load] >> ((start - load) * 8 + shift).astype(np.uint64)
    if nb == 9:
        v |= pad[start + 8].astype(np.uint64) << _U64(64 - shift)
    if length_bits < 64:
        v &= _U64((1 << length_bits) - 1)
    return v


def _decode_string_field(pad: np.ndarray, start: np.ndarray, end: np.ndarray,
                         length_bytes: int) -> pa.Array:
    """Vectorized-window String decode (utils/type_converters.py:114-141).

    ``start``: absolute byte start per row; ``end``: absolute payload end
    per row.  Semantics match the reference exactly: the fixed window is
    clamped to the payload end, cut at the first NUL, utf-8 decoded with a
    raw-hex fallback.  The byte windows gather in one strided numpy op;
    only the (short, bounded) per-row decode is Python."""
    avail = np.clip(end - start, 0, length_bytes)
    safe = np.clip(start, 0, max(pad.size - length_bytes, 0))
    W = pad[safe[:, None] + np.arange(max(length_bytes, 1))]
    out = []
    for i in range(len(start)):
        rb = W[i, :avail[i]].tobytes()
        nul = rb.find(b"\x00")
        if nul != -1:
            rb = rb[:nul]
        try:
            out.append(rb.decode("utf-8"))
        except UnicodeDecodeError:
            out.append(rb.hex())
    return pa.array(out, type=pa.string())


def _convert(raw: np.ndarray, type_name: str, length_bits: int):
    """Vectorized type conversion -> (numpy values, arrow type)."""
    if type_name.startswith("Int"):
        if length_bits == 64:
            return raw.view(np.int64), pa.int64()
        s = raw.astype(np.int64)
        sign = np.int64(1) << np.int64(length_bits - 1)
        v = np.where(s & sign, s - (np.int64(1) << np.int64(length_bits)), s)
        return v.astype(np.int32) if length_bits <= 32 else v, \
            pa.int32() if length_bits <= 32 else pa.int64()
    if type_name == "Float32":
        return raw.astype(np.uint32).view(np.float32), pa.float32()
    if type_name == "Float64":
        return raw.view(np.float64), pa.float64()
    if type_name == "Bool":
        return raw.astype(bool), pa.bool_()
    # unsigned (incl. Enum raw); unknown types fall back to uint decode
    # (decoder/field_decoder.py:95-103)
    if length_bits <= 16:
        return raw.astype(np.int32), pa.int32()
    if length_bits <= 32 or type_name != "Uint64":
        return raw.astype(np.int64), pa.int64()
    return raw, pa.uint64()


#: powers of ten for the integer-part digit count in ``_pct_strings``
#: (its fast path keeps integer parts below 2**32 / 100: at most 8 digits)
_POW10 = 10 ** np.arange(1, 9, dtype=np.int64)


def _pct_strings(pct: np.ndarray) -> pa.StringArray:
    """``"%.2f%%" % x`` for every element, built as one Arrow string buffer.

    Fast path: ``k``, the value rounded to integer hundredths, has its
    digits scattered into a ``uint8`` buffer one digit position at a time.
    Rounding ``h = pct * 100`` half-up equals Python's correctly rounded
    ``%.2f`` whenever ``h`` is at least 1e-6 from a tie: below ``2**32`` the
    multiply errs by at most 2**-21, so ``h`` and the exact ``100 * x`` lie
    on the same side of every half-integer.  Near-ties, negatives (``-0.0``
    included), ``h >= 2**32`` and non-finite values are formatted by Python
    ``%`` and patched in."""
    pct = np.asarray(pct, dtype=np.float64)
    n = pct.size
    with np.errstate(invalid="ignore", over="ignore"):
        h = pct * 100.0
        fl = np.floor(h)
        frac = h - fl
        fast = (np.isfinite(h) & ~np.signbit(h) & (h < 2.0 ** 32)
                & (np.abs(frac - 0.5) >= 1e-6))
    k = np.where(fast, fl, 0).astype(np.int64) + (fast & (frac >= 0.5))
    ip, fp = np.divmod(k, 100)
    nd = np.searchsorted(_POW10, ip, side="right") + 1
    lens = np.where(fast, nd + 4, 0)
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(lens, out=offsets[1:])
    buf = np.empty(int(offsets[-1]), dtype=np.uint8)
    q, fp, nd = ip[fast], fp[fast], nd[fast]
    at = offsets[:-1][fast] + nd  # position of the '.'
    for j in range(int(nd.max()) if nd.size else 0):
        has = nd > j
        buf[at[has] - 1 - j] = 48 + q[has] % 10
        q = q // 10
    buf[at] = ord(".")
    buf[at + 1] = 48 + fp // 10
    buf[at + 2] = 48 + fp % 10
    buf[at + 3] = ord("%")
    out = pa.StringArray.from_buffers(n, pa.py_buffer(offsets),
                                      pa.py_buffer(buf))
    if fast.all():
        return out
    slow = ["%.2f%%" % x for x in pct[~fast].tolist()]
    return pc.replace_with_mask(out, pa.array(~fast),
                                pa.array(slow, type=pa.string()))


def _enum_strings(raw: np.ndarray, enum: Dict[int, str],
                  valid: Optional[np.ndarray] = None) -> pa.Array:
    """Friendly enum strings with UNKNOWN(<v>) default (type_converters.py:81-85).

    Dense-table lookup: known keys are small ints, so the mapping is one
    numpy take against a prebuilt object table; only out-of-range /
    unmapped values pay string formatting (and only over their subset)."""
    keys = raw.astype(np.int64)
    max_key = max(enum) if enum else 0
    table = np.full(max_key + 2, None, dtype=object)  # last slot = sentinel
    for k, v in enum.items():
        if k >= 0:
            table[k] = v
    idx = np.where((keys >= 0) & (keys <= max_key), keys, max_key + 1)
    out = table[idx]
    missing = out == None  # noqa: E711  (elementwise)
    if missing.any():
        mk = keys[missing]
        out[missing] = np.char.add(np.char.add("UNKNOWN(", mk.astype(str)), ")")
    if valid is not None and not valid.all():
        out = np.where(valid, out, None)
    return pa.array(out, type=pa.string())


def parse_header(view: BatchView) -> Dict[str, np.ndarray]:
    """Vectorized header extract + validation (decoder/header_decoder.py:21-60).

    Returns msg_type/version/seq/ts (int32, garbage where invalid) and
    error_code per the taxonomy in engine.oracle.
    """
    i32 = view.pad[: (view.pad.size - 16)].view(np.int32)
    has_hdr = view.tok_len >= HEADER_TOKENS
    if i32.size == 0:
        z = np.zeros(view.n, dtype=np.int32)
        return {"msg_type": z, "version": z, "seq": z, "ts": z, "has_hdr": has_hdr}
    safe = np.where(has_hdr, view.tok_start, 0)
    hdr = {name: i32[safe + k] if i32.size > 3 else np.zeros(view.n, dtype=np.int32)
           for k, name in enumerate(("msg_type", "version", "seq", "ts"))}
    return {**hdr, "has_hdr": has_hdr}


class Decoder:
    """Compiled-catalog vectorized decoder (the actor-resident state).

    Plays the role of the reference's ICD LRU cache
    (``icd_parser/cache.py:9-67``): the full compiled catalog is tiny and
    lives resident per actor; per-(msg_type, version) kernels are just the
    compiled layout lists.
    """

    def __init__(self, compiled: Optional[Dict[Tuple[int, int], CompiledLayout]] = None,
                 version_fallback: bool = False):
        """``version_fallback=True`` enables the reference CLI-path
        semantics (decoder/version_resolver.py:46-50): an unknown version
        of a KNOWN logcode resolves to the logcode's first available table
        instead of dead-lettering with error 3.  The default is the strict
        metadata-path behavior (metadata_payload_parser.py:80-85)."""
        self.compiled = compiled or compile_catalog()
        self.version_fallback = version_fallback
        self.known_types = np.array(sorted({mt for mt, _ in self.compiled}), dtype=np.int64)
        self.known_keys = np.array(sorted((mt << 32) | (v & 0xFFFFFFFF)
                                          for mt, v in self.compiled), dtype=np.uint64)
        first: Dict[int, int] = {}
        for mt, v in self.compiled:  # insertion order = catalog/version order
            first.setdefault(mt, v)
        self._fb_types = self.known_types
        self._fb_vers = np.array([first[int(mt)] for mt in self.known_types],
                                 dtype=np.int64)

    # -- error classification ----------------------------------------------
    def classify(self, view: BatchView) -> Dict[str, np.ndarray]:
        h = parse_header(view)
        mt = h["msg_type"].astype(np.int64)
        ver = h["version"].astype(np.int64)
        keys = (mt.astype(np.uint64) << _U64(32)) | (ver.astype(np.uint64) & _U64(0xFFFFFFFF))
        known_t = np.isin(mt, self.known_types)
        known_v = np.isin(keys, self.known_keys)
        err = np.full(view.n, ERR_OK, dtype=np.int8)
        err[~known_v] = ERR_UNKNOWN_VERSION
        err[~known_t] = ERR_UNKNOWN_MSG_TYPE
        err[~h["has_hdr"]] = ERR_TOO_SHORT_HEADER
        layout_ver = ver.copy()
        if self.version_fallback:
            fb = (err == ERR_UNKNOWN_VERSION)
            if fb.any():
                idx = np.searchsorted(self._fb_types, mt[fb])
                layout_ver[fb] = self._fb_vers[np.clip(idx, 0, len(self._fb_vers) - 1)]
                err[fb] = ERR_OK
        return {"msg_type": h["msg_type"], "version": h["version"],
                "seq": h["seq"], "ts": h["ts"], "error_code": err,
                "layout_version": layout_ver.astype(np.int32)}

    # -- scalar + record decode for one homogeneous group -------------------
    def decode_group(self, view: BatchView, rows: np.ndarray,
                     layout: CompiledLayout) -> Dict[str, pa.Array]:
        """Decode ``rows`` (indices into the batch) of one (msg_type, version).

        Returns decoded columns only (envelope columns are the caller's job).
        """
        base = view.payload_start[rows]
        nbytes = view.payload_nbytes[rows]
        cols: Dict[str, pa.Array] = {}
        scal_np: Dict[str, np.ndarray] = {}
        scal_valid: Dict[str, np.ndarray] = {}

        for s in layout.scalars:
            if s.type_name == "String":
                # byte-aligned fixed window; clamps itself to the payload
                # end, so no validity mask (reference returns '' not null)
                cols[s.name] = _decode_string_field(
                    view.pad, base + s.abs_off_bits // 8, base + nbytes,
                    s.length_bits // 8)
                continue
            end_byte = (s.abs_off_bits + s.length_bits + 7) // 8
            valid = nbytes >= end_byte
            raw = gather_bits(view.pad, base.copy(), s.abs_off_bits, s.length_bits)
            vals, patype = _convert(raw, s.type_name, s.length_bits)
            scal_np[s.name] = raw
            scal_valid[s.name] = valid
            cols[s.name] = pa.array(vals, type=patype,
                                    mask=None if valid.all() else ~valid)
            if s.enum is not None:
                cols[f"{s.name} (Decoded)"] = _enum_strings(raw, s.enum, valid)

        rec_data: Dict[str, Dict[str, np.ndarray]] = {}
        for rec in layout.records:
            cols[rec.name], rec_data[rec.name] = self._decode_records(
                view, base, nbytes, rec, scal_np, scal_valid)

        if layout.has_bler:
            self._apply_bler(cols, scal_np, scal_valid, layout, rec_data)
        return cols

    def _logical_counts(self, rec: RecordSpec, scal_np, scal_valid, n) -> np.ndarray:
        """Count resolution priority per decoder/payload_decoder.py:211-241."""
        if rec.count != -1:
            return np.full(n, rec.count, dtype=np.int64)
        for cand in ("Num CA", "Num Records"):
            if cand in scal_np:
                c = scal_np[cand].astype(np.int64)
                return np.where(scal_valid[cand], c, 0)
        if "Cumulative Bitmask" in scal_np:
            c = _popcount(scal_np["Cumulative Bitmask"]).astype(np.int64)
            return np.where(scal_valid["Cumulative Bitmask"], c, 0)
        return np.ones(n, dtype=np.int64)

    def _decode_records(self, view: BatchView, base, nbytes, rec: RecordSpec,
                        scal_np, scal_valid):
        """Ragged record decode -> Arrow list<struct> column.

        clamp actual = min(logical, fits) per metadata_payload_parser.py:231-236.
        """
        n = len(base)
        logical = self._logical_counts(rec, scal_np, scal_valid, n)
        fits = (nbytes - rec.base_offset_bytes) // rec.record_size_bytes
        actual = np.clip(np.minimum(logical, fits), 0, None)

        total = int(actual.sum())
        offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(actual, out=offsets[1:])
        row_idx = np.repeat(np.arange(n), actual)
        rec_idx = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1].astype(np.int64), actual)
        rec_base = base[row_idx] + rec.base_offset_bytes + rec_idx * rec.record_size_bytes

        children: List[pa.Array] = []
        names: List[str] = []
        raw_np: Dict[str, np.ndarray] = {}
        for f in rec.fields:
            if f.type_name == "String":
                children.append(_decode_string_field(
                    view.pad, rec_base + f.abs_off_bits // 8,
                    base[row_idx] + nbytes[row_idx], f.length_bits // 8))
                names.append(f.name)
                continue
            raw = gather_bits(view.pad, rec_base.copy(), f.abs_off_bits, f.length_bits)
            vals, patype = _convert(raw, f.type_name, f.length_bits)
            raw_np[f.name] = raw
            children.append(pa.array(vals, type=patype))
            names.append(f.name)
            if f.enum is not None:
                children.append(_enum_strings(raw, f.enum))
                names.append(f"{f.name} (Decoded)")
        rec_meta = {"_offsets": offsets, "_children": dict(zip(names, children)),
                    "_raw": raw_np}
        struct = pa.StructArray.from_arrays(children, names)
        return pa.ListArray.from_arrays(pa.array(offsets), struct), rec_meta

    # -- BLER derived fields (field_post_processor.py:41-148) ---------------
    @staticmethod
    def _bler_arrays(pass_tb, fail_tb, numer):
        total = pass_tb.astype(np.float64) + fail_tb.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            pct = np.where(total > 0, numer.astype(np.float64) / np.where(total > 0, total, 1) * 100, 0.0)
        return np.round(pct, 2), _pct_strings(pct)

    def _apply_bler(self, cols, scal_np, scal_valid, layout: CompiledLayout, rec_data):
        names = {s.name for s in layout.scalars}
        if {"BLER", "Num CRC Pass TB", "Num CRC Fail TB"} <= names:
            valid = scal_valid["BLER"] & scal_valid["Num CRC Pass TB"] & scal_valid["Num CRC Fail TB"]
            vals, strs = self._bler_arrays(scal_np["Num CRC Pass TB"],
                                           scal_np["Num CRC Fail TB"],
                                           scal_np["Num CRC Fail TB"])
            mask = None if valid.all() else ~valid
            cols["BLER"] = pa.array(vals, type=pa.float64(), mask=mask)
            cols["BLER (Decoded)"] = strs if mask is None else pc.if_else(
                pa.array(valid), strs, pa.scalar(None, pa.string()))
        if {"Residual BLER", "HARQ Failure", "Num CRC Pass TB", "Num CRC Fail TB"} <= names:
            valid = (scal_valid["Residual BLER"] & scal_valid["HARQ Failure"]
                     & scal_valid["Num CRC Pass TB"] & scal_valid["Num CRC Fail TB"])
            vals, strs = self._bler_arrays(scal_np["Num CRC Pass TB"],
                                           scal_np["Num CRC Fail TB"],
                                           scal_np["HARQ Failure"])
            mask = None if valid.all() else ~valid
            cols["Residual BLER"] = pa.array(vals, type=pa.float64(), mask=mask)
            cols["Residual BLER (Decoded)"] = strs if mask is None else pc.if_else(
                pa.array(valid), strs, pa.scalar(None, pa.string()))

        # per-record variant: rebuild the list<struct> with derived children
        for rec in layout.records:
            meta = rec_data[rec.name]
            raw = meta["_raw"]
            if not {"BLER", "Num CRC Pass TB", "Num CRC Fail TB"} <= set(raw):
                continue
            ch = meta["_children"]
            vals, strs = self._bler_arrays(raw["Num CRC Pass TB"], raw["Num CRC Fail TB"],
                                           raw["Num CRC Fail TB"])
            ch["BLER"] = pa.array(vals, type=pa.float64())
            ch["BLER (Decoded)"] = strs
            if {"Residual BLER", "HARQ Failure"} <= set(raw):
                vals, strs = self._bler_arrays(raw["Num CRC Pass TB"], raw["Num CRC Fail TB"],
                                               raw["HARQ Failure"])
                ch["Residual BLER"] = pa.array(vals, type=pa.float64())
                ch["Residual BLER (Decoded)"] = strs
            struct = pa.StructArray.from_arrays(list(ch.values()), list(ch.keys()))
            cols[rec.name] = pa.ListArray.from_arrays(pa.array(meta["_offsets"]), struct)


def group_rows_by_layout(decoder: Decoder, cls: Dict[str, np.ndarray]):
    """Yield (msg_type, version, row_indices) for OK rows, grouped.

    Grouping uses ``layout_version`` when present (the fallback-resolved
    decode table); the envelope's raw ``version`` column is untouched.
    Keys pack (msg_type, version) into 64 bits with the version as a full
    unsigned 32-bit field — reference metadata uses u32 version words
    (e.g. 65537 = 0x00010001), so 20-bit packing would collide."""
    ok = cls["error_code"] == ERR_OK
    mt = cls["msg_type"].astype(np.int64)
    ver = cls.get("layout_version", cls["version"]).astype(np.int64)
    keys = (mt.astype(np.uint64) << _U64(32)) | (ver.astype(np.uint64) & _U64(0xFFFFFFFF))
    keys = np.where(ok, keys, _U64(0xFFFFFFFFFFFFFFFF))
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    bounds = np.flatnonzero(np.diff(keys_sorted) != 0) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(keys_sorted)]])
    for s, e in zip(starts, ends):
        k = keys_sorted[s]
        if k == _U64(0xFFFFFFFFFFFFFFFF):
            continue
        rows = order[s:e]
        # version yielded unsigned (0..2^32-1): catalog/compiled keys are the
        # non-negative u32 version-word values (cf. metadata '65537' keys)
        yield int(k >> _U64(32)), int(k & _U64(0xFFFFFFFF)), np.sort(rows)
