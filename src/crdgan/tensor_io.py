"""Portable tensor files and checkpoint manifests.

File layout: magic ``CRDT``, one version byte, u32 rank, then ``rank`` u32
dims (little-endian), then float32 payload, little-endian, row-major.
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"CRDT"
VERSION = 1

MANIFEST_NAME = "manifest.csv"
MANIFEST_FIELDS = ("name", "file", "shape", "role")


def save_tensor(path, array) -> None:
    """Write a tensor file; data is stored as float32 regardless of input dtype."""
    arr = np.ascontiguousarray(np.asarray(array), dtype="<f4")
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("B", VERSION))
        fh.write(struct.pack("<I", arr.ndim))
        for d in arr.shape:
            fh.write(struct.pack("<I", d))
        fh.write(arr.tobytes(order="C"))


def load_tensor(path) -> np.ndarray:
    """Read a tensor file; a bad or truncated file, or one with bytes after its
    payload, raises a ValueError naming it."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    if len(raw) < 9 or len(raw) < 9 + 4 * struct.unpack_from("<I", raw, 5)[0]:
        raise ValueError(f"{path}: truncated header ({len(raw)} bytes)")
    version = raw[4]
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    (rank,) = struct.unpack_from("<I", raw, 5)
    dims = struct.unpack_from(f"<{rank}I", raw, 9)
    offset = 9 + 4 * rank
    count = math.prod(dims)         # exact, so huge dims cannot wrap around to a small count
    if len(raw) < offset + 4 * count:
        raise ValueError(f"{path}: truncated payload, expected {count} floats")
    if len(raw) > offset + 4 * count:
        raise ValueError(f"{path}: {len(raw) - offset - 4 * count} bytes after the payload "
                         f"of {count} floats")
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
    return np.ascontiguousarray(data.reshape(dims))


def write_manifest(dirpath, entries) -> None:
    """entries: iterable of (name, file, shape tuple, role)."""
    dirpath = Path(dirpath)
    with open(dirpath / MANIFEST_NAME, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_FIELDS)
        for name, fname, shape, role in entries:
            writer.writerow([name, fname, "x".join(str(d) for d in shape), role])


def read_manifest(dirpath):
    """Returns a list of dicts with keys name/file/shape/role.

    A header other than ``MANIFEST_FIELDS``, a row of another length, a
    shape cell not of ``x``-joined ints or a file cell that is not a bare
    file name in the manifest's directory (empty, ``.`` or ``..``, holding a
    path separator, or absolute) raises a ValueError naming the file.
    """
    path = Path(dirpath) / MANIFEST_NAME
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != MANIFEST_FIELDS:
            raise ValueError(f"{path}: header {reader.fieldnames} is not {list(MANIFEST_FIELDS)}")
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"{path}: line {reader.line_num} does not have "
                                 f"{len(MANIFEST_FIELDS)} fields")
            row = dict(row)
            if row["file"] in ("", ".", "..") or any(sep in row["file"] for sep in "/\\"):
                raise ValueError(f"{path}: line {reader.line_num} has file {row['file']!r}, "
                                 f"not a file name in {path.parent}")
            try:
                row["shape"] = tuple(map(int, row["shape"].split("x"))) if row["shape"] else ()
            except ValueError:
                raise ValueError(f"{path}: line {reader.line_num} has shape {row['shape']!r}, "
                                 f"not x-joined ints") from None
            out.append(row)
    return out


def save_named_tensors(dirpath, named_arrays, role: str, manifest_entries=None):
    """Dump (name, array) pairs as tensor files; returns manifest entries."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    entries = list(manifest_entries) if manifest_entries else []
    for name, arr in named_arrays:
        fname = f"{role}__{name}.crdt"
        save_tensor(dirpath / fname, arr)
        entries.append((name, fname, np.asarray(arr).shape, role))
    return entries


def load_named_tensors(dirpath, role: str, manifest=None):
    """Load all manifest entries of one role, in manifest order, each of its
    row's shape; ``manifest``: the directory's :func:`read_manifest`, or None."""
    dirpath = Path(dirpath)
    out = []
    for row in read_manifest(dirpath) if manifest is None else manifest:
        if row["role"] == role:
            arr = load_tensor(dirpath / row["file"])
            if arr.shape != row["shape"]:
                raise ValueError(f"{dirpath / row['file']}: tensor of shape {arr.shape} but "
                                 f"the manifest says {row['shape']}")
            out.append((row["name"], arr))
    return out
