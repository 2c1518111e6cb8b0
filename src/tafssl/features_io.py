"""Feature store file formats: a compact binary layout and a CSV twin.

Binary layout (little-endian):

    magic "TAFS" | version u32 = 1 | m u32 | class_count u32
    then per class, in ascending class id order:
        class_id u32 | count u32 | count*m float32 row-major

CSV files carry a ``label,f0,...,f{m-1}`` header and one sample per row.
Both formats store float32 and load to a float32 store, so a CSV and a
binary file written from the same store load to identical values.  The
format is chosen by file suffix: ``.csv`` is CSV, anything else binary.
"""

from __future__ import annotations

import csv
import os
import struct
from pathlib import Path

import numpy as np

from tafssl.episodes import FeatureStore

__all__ = ["load_features", "save_features"]

MAGIC = b"TAFS"
VERSION = 1
HEADER = struct.Struct("<4sIII")
CLASS_HEADER = struct.Struct("<II")


def save_features(store: FeatureStore, path) -> None:
    """Write a store to ``path``; values are quantized to float32.

    Every class is quantized before the file is opened, so a value outside
    float32's range raises ``value out of float32 range in class c, row r``
    (r counted within the class) in either format and leaves no file."""
    path = Path(path)
    for cid in sorted(store.classes):  # the writers cast again: one class's copy is held at a time
        _float32_rows(store, cid)
    if path.suffix.lower() == ".csv":
        _save_csv(store, path)
    else:
        _save_binary(store, path)


def _float32_rows(store: FeatureStore, cid: int) -> np.ndarray:
    """Class ``cid`` as contiguous little-endian float32; raises if a finite
    value overflows to an infinity there, which no loader would accept."""
    X = np.asarray(store.classes[cid])
    with np.errstate(over="ignore"):
        X32 = np.ascontiguousarray(X, dtype="<f4")
    overflow = np.isinf(X32) & np.isfinite(X)
    if overflow.any():
        raise ValueError(f"value out of float32 range in class {cid}, row {int(np.argmax(overflow.any(axis=1)))}")
    return X32


def load_features(path) -> FeatureStore:
    """Load a store from ``path``, validating structure and finiteness."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"feature file not found: {path}")
    if path.suffix.lower() == ".csv":
        return _load_csv(path)
    return _load_binary(path)


def _save_binary(store: FeatureStore, path: Path) -> None:
    ids = sorted(store.classes)
    if any(c < 0 or c >= 2**32 for c in ids):
        raise ValueError("binary format requires class ids in [0, 2^32)")
    with open(path, "wb") as f:
        f.write(HEADER.pack(MAGIC, VERSION, store.m, len(ids)))
        for cid in ids:
            X = _float32_rows(store, cid)
            f.write(CLASS_HEADER.pack(cid, X.shape[0]))
            f.write(X.tobytes())


def _load_binary(path: Path) -> FeatureStore:
    """Two passes over the file.  The first reads the headers, seeking past
    every payload, and checks the sizes against the file size; the second
    reads each class's float32 payload straight into that class's rows of
    the store's single float32 buffer, with no staging buffer and no
    widening copy, so peak memory is the store, about the size of the file.
    ``FeatureStore`` then checks the values for finiteness.  Every
    structural check runs before any payload is read, so a file with both a
    structural fault (truncation, trailing data, a duplicate class id) and a
    non-finite value reports the structural fault."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < HEADER.size:
            raise ValueError(f"truncated file: expected at least {HEADER.size} header bytes, got {size}")
        magic, version, m, n_classes = HEADER.unpack(f.read(HEADER.size))
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise ValueError(f"unsupported version {version}, expected {VERSION}")
        offset = HEADER.size
        layout: dict[int, tuple[int, int]] = {}  # class id -> (payload offset, count), in file order
        for _ in range(n_classes):
            if size < offset + CLASS_HEADER.size:
                raise ValueError(f"truncated file: expected {offset + CLASS_HEADER.size} bytes, got {size}")
            f.seek(offset)
            cid, count = CLASS_HEADER.unpack(f.read(CLASS_HEADER.size))
            offset += CLASS_HEADER.size
            nbytes = count * m * 4
            if size < offset + nbytes:
                raise ValueError(f"truncated file: expected {offset + nbytes} bytes, got {size}")
            if cid in layout:
                raise ValueError(f"duplicate class id {cid}")
            layout[cid] = (offset, count)
            offset += nbytes
        if offset != size:
            raise ValueError(f"trailing data: expected {offset} bytes, got {size}")

        X = np.empty((sum(count for _, count in layout.values()), m), dtype="<f4")
        classes: dict[int, np.ndarray] = {}
        row = 0
        for cid, (payload, count) in layout.items():
            classes[cid] = X[row : row + count]
            row += count
            f.seek(payload)
            if f.readinto(classes[cid]) != classes[cid].nbytes:
                raise ValueError(f"truncated file: class {cid} payload ended early")
    return FeatureStore(classes=classes)


def _save_csv(store: FeatureStore, path: Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["label"] + [f"f{j}" for j in range(store.m)])
        for cid in sorted(store.classes):
            for row in _float32_rows(store, cid):
                writer.writerow([cid] + [str(v) for v in row])


def _load_csv(path: Path) -> FeatureStore:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty CSV file") from None
        if not header or header[0] != "label":
            raise ValueError(f"bad CSV header: expected 'label,f0,...', got {header[:3]}")
        m = len(header) - 1
        if header[1:] != [f"f{j}" for j in range(m)]:
            raise ValueError("bad CSV header: feature columns must be f0..f{m-1} in order")
        rows: dict[int, list[np.ndarray]] = {}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != m + 1:
                raise ValueError(f"line {lineno}: expected {m + 1} fields, got {len(row)}")
            try:
                label = int(row[0])
                values = np.array(row[1:], dtype=np.float32)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            rows.setdefault(label, []).append(values)
    if not rows:
        raise ValueError("CSV file has no data rows")
    return FeatureStore(classes={cid: np.vstack(v) for cid, v in rows.items()})
