"""Versioned length-prefixed binary container used by all on-disk artifacts.

Layout: magic | u32 version | u64 header_len | header JSON (sorted keys,
carries a "kind" tag) | u64 n_records | n_records x (u64 len | payload).
Every record of every artifact (corpus, posteriors, checkpoint) is u64
meta_len | meta JSON (sorted keys, with the array's "frames") | [frames,
width] float64 array, built and checked only here. A selection file has no
records: its header holds every outcome. All integers little-endian; float
payloads are little-endian float64, and JSON floats are written in their
shortest round-tripping form, so files round-trip bit-exactly across
platforms.
"""
from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

MAGIC = b"EKD1"


class FormatError(ValueError):
    """Raised on bad magic, version/kind mismatch, or a corrupted record."""


class VersionError(FormatError):
    """Raised on a container of another format version."""


class _Fields(dict):
    """The JSON fields of a container header or of a record's meta; a missing
    key raises FormatError naming the file, the owner and the key."""

    def __init__(self, path: str | Path, fields: dict, owner: str):
        super().__init__(fields)
        self.path = path
        self.owner = owner

    def __missing__(self, key):
        raise FormatError(f"{self.path}: corrupted record ({self.owner} has no {key!r})")


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write-temp-then-rename: no reader sees a partial file, no failure leaves one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def encode_header(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()


def write_container(path: str | Path, kind: str, version: int, header: dict,
                    records: list[bytes]) -> None:
    hdr = dict(header)
    hdr["kind"] = kind
    blob = encode_header(hdr)
    parts = [MAGIC, struct.pack("<I", version), struct.pack("<Q", len(blob)), blob,
             struct.pack("<Q", len(records))]
    for rec in records:
        parts.append(struct.pack("<Q", len(rec)))
        parts.append(rec)
    atomic_write_bytes(path, b"".join(parts))


def read_container(path: str | Path, kind: str, version: int) -> tuple[dict, list[bytes]]:
    """The header and raw records of a container of ``kind`` and ``version``.
    Reading a key the header lacks raises :class:`FormatError`."""
    data = Path(path).read_bytes()
    off = 0

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise FormatError(f"{path}: corrupted record ({what} truncated)")
        chunk = data[off:off + n]
        off += n
        return chunk

    if take(4, "magic") != MAGIC:
        raise FormatError(f"{path}: not an EKD container")
    (got_version,) = struct.unpack("<I", take(4, "version"))
    if got_version != version:
        raise VersionError(f"{path}: version mismatch (file {got_version}, expected {version})")
    (hlen,) = struct.unpack("<Q", take(8, "header length"))
    try:
        header = json.loads(take(hlen, "header"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError(f"{path}: corrupted record (bad header)") from e
    if not isinstance(header, dict):
        raise FormatError(f"{path}: corrupted record (bad header)")
    if header.get("kind") != kind:
        raise FormatError(f"{path}: kind mismatch (file {header.get('kind')!r}, expected {kind!r})")
    (n,) = struct.unpack("<Q", take(8, "record count"))
    records = []
    for i in range(n):
        (rlen,) = struct.unpack("<Q", take(8, f"record {i} length"))
        records.append(take(rlen, f"record {i}"))
    if off != len(data):
        raise FormatError(f"{path}: corrupted record (trailing bytes)")
    return _Fields(path, header, "header"), records


def encode_record(meta: dict, values: np.ndarray) -> bytes:
    """One record payload: u64 meta length | meta JSON plus the row count as
    "frames" | float64 values of a [frames, width] matrix."""
    blob = encode_header({**meta, "frames": values.shape[0]})
    return struct.pack("<Q", len(blob)) + blob + np.asarray(values, dtype="<f8").tobytes()


def decode_records(path: str | Path, records: list[bytes],
                   widths: Sequence[int]) -> list[tuple[dict, np.ndarray]]:
    """Checked inverse of :func:`encode_record` over a container's records.

    ``widths`` holds the column count of each record's matrix, one per
    record the header claims. Any disagreement raises :class:`FormatError`,
    and so does reading a key that a record's meta lacks.
    """
    def corrupted(what: str) -> FormatError:
        return FormatError(f"{path}: corrupted record ({what})")

    if len(records) != len(widths):
        raise corrupted(f"record count: header says {len(widths)}, file has {len(records)}")
    out = []
    for i, (rec, width) in enumerate(zip(records, widths)):
        if len(rec) < 8:
            raise corrupted("missing meta length")
        (mlen,) = struct.unpack("<Q", rec[:8])
        if 8 + mlen > len(rec):
            raise corrupted("truncated meta")
        try:
            meta = json.loads(rec[8:8 + mlen])
        except ValueError as e:
            raise corrupted("bad meta") from e
        frames = meta.get("frames") if isinstance(meta, dict) else None
        if type(frames) is not int or frames < 0:  # bool is an int subclass
            raise corrupted("bad meta")
        blob = rec[8 + mlen:]
        if len(blob) != 8 * frames * width:
            raise corrupted("blob size")
        values = np.frombuffer(blob, dtype="<f8").astype(np.float64)
        out.append((_Fields(path, meta, f"record {i}"), values.reshape(frames, width)))
    return out
