"""Versioned binary container used by all on-disk artifacts.

Layout: magic | u32 version | u64 header_len | header JSON (sorted keys,
with a "kind" tag and a "shapes" list) | the float64 values of every array
the header's "shapes" lists, back to back in that order. All integers are
little-endian, every array is little-endian float64 in C order, and JSON
floats are written in their shortest round-tripping form, so files
round-trip bit-exactly across platforms. What the arrays are (a corpus's
utterance features, a dump's posteriors, a checkpoint's weights) is up to
the header; a selection file has none.
"""
from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

MAGIC = b"EKD1"
# Every kind's format version; above every per-kind version an earlier ekd
# wrote, so each of its files is stale.
VERSION = 5
_PREFIX = struct.Struct("<IQ")  # version, header length


class FormatError(ValueError):
    """Raised on bad magic, version/kind mismatch, or a corrupted container."""


class _Fields(dict):
    """The JSON fields of a container header; a missing key raises
    FormatError naming the file and the key."""

    def __init__(self, path: str | Path, fields: dict):
        super().__init__(fields)
        self.path = path

    def __missing__(self, key):
        raise FormatError(f"{self.path}: corrupted record (header has no {key!r})")


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


def write_container(path: str | Path, kind: str, header: dict,
                    arrays: Sequence[np.ndarray] = ()) -> None:
    """``header`` plus its ``kind`` and the shape of each of ``arrays``, then
    the arrays' values."""
    arrays = [np.asarray(a, dtype="<f8") for a in arrays]
    blob = encode_header({**header, "kind": kind, "shapes": [list(a.shape) for a in arrays]})
    atomic_write_bytes(path, b"".join([MAGIC, _PREFIX.pack(VERSION, len(blob)), blob,
                                       *(a.tobytes() for a in arrays)]))


def _is_shape(shape) -> bool:
    # bool is an int subclass, and neither it nor a float is a dimension.
    return isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)


def stale(path: str | Path) -> bool:
    """True if ``path`` is a container of another format version, read from
    its prefix alone; a text file, a short file or one without the magic is
    not stale (its loader refuses it)."""
    with open(path, "rb") as f:
        magic, prefix = f.read(len(MAGIC)), f.read(_PREFIX.size)
    return magic == MAGIC and len(prefix) == _PREFIX.size and _PREFIX.unpack(prefix)[0] != VERSION


def read_container(path: str | Path, kind: str) -> tuple[dict, list[np.ndarray]]:
    """The header and arrays of a container of ``kind`` at :data:`VERSION`;
    each array is a copy of its own. Reading a key the header lacks raises
    :class:`FormatError`."""
    data = Path(path).read_bytes()

    def corrupted(what: str) -> FormatError:
        return FormatError(f"{path}: corrupted record ({what})")

    if data[:len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not an EKD container")
    start = len(MAGIC) + _PREFIX.size
    if len(data) < start:
        raise corrupted("truncated header")
    got_version, hlen = _PREFIX.unpack_from(data, len(MAGIC))
    if got_version != VERSION:
        raise FormatError(f"{path}: version mismatch (file {got_version}, expected {VERSION})")
    if len(data) < start + hlen:
        raise corrupted("truncated header")
    try:
        header = json.loads(data[start:start + hlen])
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise corrupted("bad header") from e
    if not isinstance(header, dict):
        raise corrupted("bad header")
    if header.get("kind") != kind:
        raise FormatError(f"{path}: kind mismatch (file {header.get('kind')!r}, expected {kind!r})")
    shapes = header.get("shapes")
    if not isinstance(shapes, list) or not all(map(_is_shape, shapes)):
        raise corrupted("bad shapes")
    sizes = [math.prod(shape) for shape in shapes]
    offset = start + hlen
    if len(data) != offset + 8 * sum(sizes):
        raise corrupted(f"blob size: shapes need {8 * sum(sizes)} bytes, "
                        f"file has {len(data) - offset}")
    arrays = []
    for shape, size in zip(shapes, sizes):
        values = np.frombuffer(data, dtype="<f8", count=size, offset=offset)
        arrays.append(values.astype(np.float64).reshape(shape))
        offset += 8 * size
    return _Fields(path, header), arrays


def check_counts(path: str | Path, ids: list, **columns: list) -> None:
    """A FormatError naming ``path`` unless each of ``columns`` has one entry per id."""
    for name, column in columns.items():
        if len(column) != len(ids):
            raise FormatError(f"{path}: corrupted record ({len(column)} {name} for {len(ids)} ids)")


@contextmanager
def checked(path: str | Path):
    """Re-raise a TypeError or ValueError of the block, such as a constructor
    refusing a loaded field, as a FormatError naming ``path``."""
    try:
        yield
    except FormatError:
        raise
    except (TypeError, ValueError) as e:
        raise FormatError(f"{path}: corrupted record ({e})") from e
