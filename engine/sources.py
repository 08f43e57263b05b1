"""Sources: raw hex-text ingestion parity + renderers.

The production input is the pre-tokenized Parquet corpus
(BASELINE.json:input_hint); this module provides parity with the
reference's raw-text ingestion path so a user of the reference could feed
the same ``Length:/Header:/Payload:`` files to this engine:

* format (``hex_decoder_module/ingest/hex_parser.py:20-27``)::

      Length: 61
      Header: 3D 00 23 B8 CD 0F 67 95 F5 A6 06 01
      Payload:
      02 00 03 00 ...

* header layout (``decoder/header_decoder.py:13-19``): u16 length,
  **u16 logcode id at bytes [2:4]**, u32 timestamp, u32 sequence, all LE;
* version word: u32 LE at payload offset 0
  (``icd_parser/icd_query.py:114-115``);
* validation (``ingest/validators.py:9-65``): malformed input and
  declared-vs-actual length mismatch become error columns, not exceptions.

Token-domain mapping (FIXTURES.md section 1): a parsed packet becomes one
sequences row ``tokens = [msg_type, version, seq, ts] + payload_words``
where ``payload_words`` are the LE int32 words of the payload AFTER the
4-byte version word (the version-offset fold of
``decoder/payload_decoder.py:78-95``), zero-padded to a word boundary.

Text parsing is one vectorized NumPy/Arrow pass per file
(:func:`parse_hex_file`), with no per-packet Python on canonical blocks:
the ``Length:``/``Header:``/``Payload:`` markers are located by byte
compares and assigned to blocks with ``searchsorted``; a 256-entry table
classes every byte as hex digit, whitespace or other; an int32 prefix sum
counts each span's hex digits; a difference-array mask keeps the header and
payload spans' digits (the marker words hold hex letters, so the whole-file
digit stream is not aligned without it), which pack pairwise into bytes;
the header tokens are gathered from the 12 header bytes and the version
word, and the body bytes are scattered into one int32 values buffer behind
the list offsets.

Fallback rule: a block the pass does not recognise -- a non-canonical or
lowercase marker, a byte in a span that is neither hex nor whitespace
(non-ASCII included), an odd digit count, a header other than 12 bytes, an
empty payload, a malformed ``Length:`` field -- goes through
:func:`parse_hex_packet` and :func:`packet_to_tokens` on its own, in its
``doc_id`` slot, so the output equals the per-packet path by construction.

Memory bound: a file is parsed in chunks of at most ``_CHUNK_BYTES``
(1 MiB) cut at ``Length:``, so the pass's per-byte temporaries stay near
15 MB whatever the file size; ``doc_id`` numbering runs on across chunks,
and a single block longer than a chunk takes the per-packet path.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

INGEST_OK = 0
INGEST_MALFORMED = 1          # MalformedHexError, models/errors.py:6-17
INGEST_LENGTH_MISMATCH = 2    # LengthMismatchError, models/errors.py:19-24
INGEST_SHORT_HEADER = 3       # PayloadTooShortError (header), errors.py:43-52

_LEN_RE = re.compile(r"Length:\s*(\d+)", re.IGNORECASE)
_HDR_RE = re.compile(r"Header:\s*([0-9A-Fa-f\s]+?)(?=Payload:|\Z)",
                     re.IGNORECASE | re.DOTALL)
_PAY_RE = re.compile(r"Payload:\s*([0-9A-Fa-f\s]*?)(?=Length:|\Z)",
                     re.IGNORECASE | re.DOTALL)


def _hex_to_bytes(s: str) -> Optional[bytes]:
    s = re.sub(r"\s+", "", s)
    if not s or len(s) % 2:
        return None
    try:
        return bytes.fromhex(s)
    except ValueError:
        return None


def parse_hex_packet(block: str) -> Dict:
    """Parse one Length/Header/Payload block (hex_parser.py:16-63 semantics)."""
    m_len = _LEN_RE.search(block)
    m_hdr = _HDR_RE.search(block)
    m_pay = _PAY_RE.search(block)
    if not (m_len and m_hdr and m_pay):
        return {"error": INGEST_MALFORMED}
    header = _hex_to_bytes(m_hdr.group(1))
    payload = _hex_to_bytes(m_pay.group(1))
    if header is None or payload is None:
        return {"error": INGEST_MALFORMED}
    declared = int(m_len.group(1))
    if len(header) < 12:
        return {"error": INGEST_SHORT_HEADER}
    if declared != len(header) + len(payload) and declared != len(payload):
        # the reference checks header+payload (validators.py:40-53); some of
        # its own sample files count payload only — accept either, flag none
        return {"error": INGEST_LENGTH_MISMATCH, "declared": declared,
                "header": header, "payload": payload}
    return {"error": INGEST_OK, "declared": declared,
            "header": header, "payload": payload}


def packet_to_tokens(header: bytes, payload: bytes) -> List[int]:
    """Hex packet -> token row per the FIXTURES.md mapping."""
    msg_type = int.from_bytes(header[2:4], "little")
    ts = int.from_bytes(header[4:8], "little")
    seq = int.from_bytes(header[8:12], "little")
    version = int.from_bytes(payload[0:4], "little") if len(payload) >= 4 else 0
    body = payload[4:]
    pad = (-len(body)) % 4
    words = np.frombuffer(body + b"\x00" * pad, dtype="<i4")

    def as_i32(v: int) -> int:
        return v - (1 << 32) if v >= (1 << 31) else v

    return [as_i32(msg_type), as_i32(version), as_i32(seq), as_i32(ts)] + \
        [int(w) for w in words]


def split_packets(content: str) -> List[str]:
    """A file may hold many packets; each starts at a ``Length:`` line."""
    starts = [m.start() for m in re.finditer(r"Length:", content)]
    if not starts:
        return []
    starts.append(len(content))
    return [content[a:b] for a, b in zip(starts[:-1], starts[1:])]


_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("tokens", pa.list_(pa.int32())),
    ("n_tok", pa.int32()),
    ("source", pa.string()),
    ("declared_len", pa.int64()),
    ("payload_nbytes", pa.int32()),
    ("ingest_error", pa.int8()),
])

#: Most bytes of a file one vectorized pass takes at a time.  The pass peaks
#: at about 15 bytes of temporaries per input byte (byte classes, an int32
#: prefix sum and NumPy's index copies behind it, masks, the nibble
#: stream), so this caps them near 15 MB whatever the file size, while a
#: chunk still holds thousands of packets and the per-chunk NumPy call
#: overhead stays negligible.  Chunks are cut at ``Length:``, so no block
#: straddles two; a single block longer than this takes the per-packet
#: path.
_CHUNK_BYTES = 1 << 20
#: Longest ``Length:`` field (whitespace and digits up to ``Header:``) and
#: most digits the vectorized pass parses (10**18 - 1 fits int64).
_LEN_FIELD_MAX = 32
_LEN_DIGITS_MAX = 18

_LENGTH, _HEADER, _PAYLOAD = b"Length:", b"Header:", b"Payload:"
_HEADER_NIBBLES = 24

# Byte class: the hex digit's value, -1 for the ASCII bytes the per-packet
# regexes match as ``\s`` (so \x1c-\x1f too), -2 for anything else.
_NIBBLE = np.full(256, -2, dtype=np.int8)
_NIBBLE[[b for b in range(128) if re.fullmatch(r"\s", chr(b))]] = -1
for _c in b"0123456789abcdefABCDEF":
    _NIBBLE[_c] = int(chr(_c), 16)
_POW10 = 10 ** np.arange(_LEN_DIGITS_MAX, dtype=np.int64)


def _find(u: np.ndarray, marker: bytes, at: np.ndarray) -> np.ndarray:
    """Offsets of every ``marker`` in ``u``, given the sorted offsets ``at``
    of its first byte (no marker can overlap itself, so these are the
    matches ``re.finditer`` gives)."""
    at = at[at <= len(u) - len(marker)]
    for j in range(1, len(marker)):
        at = at[u[at + j] == marker[j]]
    return at


def _span_mask(edges: np.ndarray, size: int) -> np.ndarray:
    """Mask of ``size`` bools set on the ranges [edges[0], edges[1]),
    [edges[2], edges[3]), ... (``edges`` sorted)."""
    runs = np.diff(edges, prepend=0, append=size)
    return np.repeat(np.arange(len(runs)) % 2 == 1, runs)


def _declared_lengths(u: np.ndarray, at: np.ndarray, width: np.ndarray):
    r"""Each ``Length:`` field ``u[at:at + width]`` read as ``\s* digits \s*``:
    returns the values and whether the field has that form."""
    j = np.arange(np.clip(width.max(initial=1), 1, _LEN_FIELD_MAX))
    inside = j < width[:, None]
    c = u[np.minimum(at[:, None] + j, len(u) - 1)]
    digit = inside & (c >= ord("0")) & (c <= ord("9"))
    space = inside & (_NIBBLE[c] == -1)
    runs = digit[:, 0] + (digit[:, 1:] & ~digit[:, :-1]).sum(1)
    n_dig = digit.sum(1)
    ok = (width <= _LEN_FIELD_MAX) & (digit | space | ~inside).all(1) & \
        (runs == 1) & (n_dig <= _LEN_DIGITS_MAX)
    after = np.clip(n_dig[:, None] - np.cumsum(digit, axis=1), 0,
                    _LEN_DIGITS_MAX - 1)     # digits right of position j
    value = np.where(digit, (c - ord("0")) * _POW10[after], 0).sum(1)
    return value, ok


def _scan(u: np.ndarray):
    r"""Vectorized parse of the blocks of ``u``, which starts at ``Length:``.

    A block is *fast* when it reads ``Length:`` + ``\s* digits \s*`` +
    ``Header:`` + 24 hex digits + ``Payload:`` + an even, nonzero number of
    hex digits, with only whitespace between the hex digits.  Returns the
    block offsets, the fast mask, every block's declared length (valid
    where fast), the fast blocks' payload byte counts, and their header +
    payload bytes back to back."""
    n = len(u)
    nib = _NIBBLE.take(u)
    other = np.flatnonzero(nib == -2)   # marker letters, junk, non-ASCII
    lead = u[other]                     # every marker starts with such a byte
    starts, hdr, pay = (_find(u, m, other[lead == m[0]])
                        for m in (_LENGTH, _HEADER, _PAYLOAD))
    ends = np.append(starts[1:], n)
    # each block's first Header: and the first Payload: after it (n: none)
    h = np.append(hdr, n)[np.searchsorted(hdr, starts)]
    p = np.append(pay, n)[np.searchsorted(pay, h)]
    fast = p < ends
    field = starts + len(_LENGTH)
    value, ok = _declared_lengths(u, field[fast], (h - field)[fast])
    declared = np.zeros(len(starts), dtype=np.int64)
    declared[fast] = value
    fast[fast] = ok

    is_hex = nib >= 0
    hexsum = np.cumsum(is_hex.view(np.int8), dtype=np.int32)

    def hex_digits(a, b):               # a >= 1 always: spans follow markers
        return hexsum[b - 1] - hexsum[a - 1]

    def clean(a, b):
        return np.searchsorted(other, a) == np.searchsorted(other, b)

    cand = np.flatnonzero(fast)
    hs, he = h[cand] + len(_HEADER), p[cand]
    ps, pe = p[cand] + len(_PAYLOAD), ends[cand]
    pay_digits = hex_digits(ps, pe)
    ok = (hex_digits(hs, he) == _HEADER_NIBBLES) & (pay_digits > 0) & \
        (pay_digits % 2 == 0) & clean(hs, he) & clean(ps, pe)
    fast[cand[~ok]] = False

    in_span = _span_mask(np.stack([hs, he, ps, pe], 1)[ok].ravel(), n)
    digits = nib.compress(in_span & is_hex).view(np.uint8)
    packed = (digits[0::2] << 4) | digits[1::2]
    return starts, fast, declared, pay_digits[ok] // 2, packed


def _reference_row(block: str):
    """One block through the per-packet path:
    ``(ingest_error, declared_len or None, tokens, payload_nbytes)``."""
    p = parse_hex_packet(block)
    if p["error"] in (INGEST_OK, INGEST_LENGTH_MISMATCH):
        # TRUE body byte length (after the 4-byte version word): the token
        # row zero-pads to a word boundary, so the decoder must clamp
        # validity/fits on this, not n_tok
        return (p["error"], p["declared"],
                packet_to_tokens(p["header"], p["payload"]),
                max(len(p["payload"]) - 4, 0))
    return p["error"], None, [], 0


def _parse_chunk(stem: str, first_doc: int, chunk: memoryview) -> pa.Table:
    """Rows of ``chunk``: whole blocks, each starting at ``Length:``."""
    u = np.frombuffer(chunk, dtype=np.uint8)
    if len(u) <= _CHUNK_BYTES:
        starts, fast, declared, pay_len, packed = _scan(u)
    else:                               # one block longer than a chunk
        starts, fast = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool)
    ends = np.append(starts[1:], len(u))
    n_blk = len(starts)
    fi = np.flatnonzero(fast)

    err = np.zeros(n_blk, dtype=np.int8)
    decl = np.zeros(n_blk, dtype=np.int64)
    has_decl = fast.copy()
    n_tok = np.zeros(n_blk, dtype=np.int32)
    body = np.zeros(n_blk, dtype=np.int32)
    if len(fi):
        decl[fi] = declared[fi]
        err[fi] = np.where((decl[fi] == pay_len + 12) | (decl[fi] == pay_len),
                           INGEST_OK, INGEST_LENGTH_MISMATCH)
        body[fi] = np.maximum(pay_len - 4, 0)
        n_tok[fi] = 4 + (body[fi] + 3) // 4
    slow = {}
    for i in np.flatnonzero(~fast):
        # a block's bytes decode to the same text as its slice of the whole
        # decoded file, since every block starts at an ASCII byte
        text = bytes(chunk[starts[i]:ends[i]]).decode("utf-8", errors="replace")
        err[i], d, slow[i], body[i] = _reference_row(text)
        if d is not None:
            decl[i], has_decl[i] = d, True
        n_tok[i] = len(slow[i])

    offsets = np.zeros(n_blk + 1, dtype=np.int32)
    np.cumsum(n_tok, out=offsets[1:])
    values = np.zeros(offsets[-1], dtype="<i4")
    if len(fi):
        # block i's four header tokens go to values[offsets[i]:][:4]:
        # msg_type, version, seq, ts from the LE words of header + payload
        at = np.zeros(len(fi), dtype=np.int64)
        np.cumsum(pay_len[:-1] + 12, out=at[1:])
        head = packed[np.minimum(at[:, None] + np.arange(16),
                                 len(packed) - 1)].view("<i4")
        version = np.where(pay_len >= 4, head[:, 3], 0)
        values[offsets[fi][:, None] + np.arange(4)] = np.stack(
            [head[:, 0] >> 16 & 0xFFFF, version, head[:, 2], head[:, 1]], 1)
        # the body bytes after the version word, as zero-padded LE words
        body_at = at + 12 + np.minimum(pay_len, 4)
        src = _span_mask(np.stack([body_at, at + 12 + pay_len], 1).ravel(),
                         len(packed))
        dst_at = 4 * offsets[fi].astype(np.int64) + 16
        dst = _span_mask(np.stack([dst_at, dst_at + body[fi]], 1).ravel(),
                         4 * len(values))
        values.view(np.uint8)[dst] = packed.compress(src)
    for i, row in slow.items():
        values[offsets[i]:offsets[i + 1]] = row

    doc = pa.array(np.arange(first_doc, first_doc + n_blk))
    return pa.Table.from_arrays([
        pc.binary_join_element_wise(stem + "#", pc.cast(doc, pa.string()), ""),
        pa.ListArray.from_arrays(pa.array(offsets), pa.array(values)),
        pa.array(n_tok),
        pa.repeat(stem, n_blk),
        pa.array(decl, mask=~has_decl),
        pa.array(body),
        pa.array(err),
    ], schema=_SCHEMA)


def _chunks(data: bytes):
    """``(a, b)`` ranges of ``data``, each a run of whole blocks of at most
    ``_CHUNK_BYTES`` or a single longer block; text before the first
    ``Length:`` belongs to no block."""
    a, n = data.find(_LENGTH), len(data)
    while 0 <= a < n:
        b = n
        if n - a > _CHUNK_BYTES:
            b = data.rfind(_LENGTH, a + 1, a + _CHUNK_BYTES + len(_LENGTH))
            if b < 0:
                b = data.find(_LENGTH, a + 1)
                b = n if b < 0 else b
        yield a, b
        a = b


def parse_hex_file(stem: str, data: bytes) -> pa.Table:
    """One hex text file -> its sequences-shaped rows, doc ids
    ``<stem>#0..N-1`` in block order.  Same table as running every
    :func:`split_packets` block through :func:`parse_hex_packet` and
    :func:`packet_to_tokens`."""
    view = memoryview(data)
    tables, n_rows = [], 0
    for a, b in _chunks(data):
        tables.append(_parse_chunk(stem, n_rows, view[a:b]))
        n_rows += tables[-1].num_rows
    return pa.concat_tables(tables) if tables else _SCHEMA.empty_table()


#: Hex text per read block: about ``stages.FUSED_BATCH_ROWS`` packets at the
#: ~130 bytes of ``Length:/Header:/Payload:`` text a packet takes.
_HEX_BLOCK_BYTES = 32 * 1024 * 1024


def _hex_num_blocks(sizes: List[int]) -> int:
    """Read blocks for hex files of these byte sizes: one per
    ``_HEX_BLOCK_BYTES`` of text, at least 1, at most one per file."""
    return max(1, min(len(sizes), -(-sum(sizes) // _HEX_BLOCK_BYTES)))


def read_hex_packets(paths):
    """Ray Data source: hex text files -> sequences-shaped Dataset.

    Columns: doc_id (``<file>#<i>``), tokens, n_tok, source (file stem),
    declared_len, ingest_error.  Error rows keep empty tokens and a nonzero
    ``ingest_error`` (dead-letter style, SURVEY 1.4).

    Block rule: a list of files is read as ``ceil(total bytes /
    _HEX_BLOCK_BYTES)`` blocks, clamped to ``[1, number of files]``, so a
    consumer that maps each block as one batch (``run_hex_job``) routes
    about ``stages.FUSED_BATCH_ROWS`` packets per batch -- one sink file per
    sink per ~262k packets, the Parquet job's batch contract.  A path that
    is a directory keeps Ray's default read plan."""
    import ray

    if isinstance(paths, str):
        paths = [paths]
    nb = None
    if all(os.path.isfile(p) for p in paths):
        nb = _hex_num_blocks([os.path.getsize(p) for p in paths])
    ds = ray.data.read_binary_files(paths, include_paths=True,
                                    override_num_blocks=nb)

    def parse(batch: pa.Table) -> pa.Table:
        tables = [parse_hex_file(os.path.splitext(os.path.basename(path))[0],
                                 data)
                  for path, data in zip(batch["path"].to_pylist(),
                                        batch["bytes"].to_pylist())]
        return pa.concat_tables(tables) if tables else _SCHEMA.empty_table()

    return ds.map_batches(parse, batch_format="pyarrow")


def render_hex_packet(tokens: List[int]) -> str:
    """Inverse of :func:`packet_to_tokens` (round-trip fixture renderer)."""
    mt, ver, seq, ts = (int(t) & 0xFFFFFFFF for t in tokens[:4])
    payload = int(ver).to_bytes(4, "little") + \
        np.asarray(tokens[4:], dtype="<i4").tobytes()
    length = 12 + len(payload)
    header = (length & 0xFFFF).to_bytes(2, "little") + \
        (mt & 0xFFFF).to_bytes(2, "little") + \
        ts.to_bytes(4, "little") + seq.to_bytes(4, "little")

    def hx(bs: bytes, per_line: int = 12) -> str:
        pairs = [f"{b:02X}" for b in bs]
        return "\n".join(" ".join(pairs[i:i + per_line])
                         for i in range(0, len(pairs), per_line))

    return (f"Length: {length}\nHeader: {hx(header, 12)}\n"
            f"Payload:\n{hx(payload)}\n")
