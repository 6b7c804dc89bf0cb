"""Binary matrix blobs and their manifest records.

A blob is little-endian float32, row-major, behind a 16-byte header:
magic b"AWEF", version u32, rows u32, cols u32. A manifest record names a
blob and holds its shape and the CRC32 of the whole file.
"""

import os
import struct
import zlib
from pathlib import Path

import numpy as np

from . import codec
from .errors import FormatError, IntegrityError

MAGIC = b"AWEF"
VERSION = 1
_HEADER = struct.Struct("<4sIII")


def write_blob(path, matrix: np.ndarray) -> int:
    """Write a 2-D matrix as a blob; returns the CRC32 of the file."""
    m = np.ascontiguousarray(matrix, dtype="<f4")
    if m.ndim != 2:
        raise FormatError(f"blob matrix must be 2-D, got shape {m.shape}")
    raw = _HEADER.pack(MAGIC, VERSION, m.shape[0], m.shape[1]) + m.tobytes()
    codec.write_atomic(path, raw)
    return zlib.crc32(raw)


def read_blob(path, crc32: int) -> np.ndarray:
    """The matrix of a blob file, which must have the CRC32 `crc32`."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
        raise FormatError(f"cannot read blob {path}: {e}") from e
    if zlib.crc32(raw) != crc32:
        raise IntegrityError(f"checksum mismatch for blob {path}")
    if len(raw) < _HEADER.size:
        raise IntegrityError(f"blob {path}: file shorter than header")
    magic, version, rows, cols = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"blob {path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"blob {path}: unsupported version {version}")
    expected = _HEADER.size + 4 * rows * cols
    if len(raw) != expected:
        raise IntegrityError(
            f"blob {path}: expected {expected} bytes for {rows}x{cols}, got {len(raw)}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    return data.reshape(rows, cols).copy()


def write_record(directory, blob: str, matrix: np.ndarray) -> dict:
    """Write `matrix` to directory/blob; returns its manifest record."""
    crc = write_blob(Path(directory) / blob, matrix)
    rows, cols = np.shape(matrix)
    return {"blob": blob, "rows": rows, "cols": cols, "crc32": crc}


def read_record(directory, rec: dict) -> np.ndarray:
    """The matrix a manifest record names, checked against its CRC32 and shape;
    KeyError or TypeError when the record lacks a field or has one of the wrong type.
    A caller reading many records of one directory passes it as a `str`."""
    path = os.path.join(directory, rec["blob"])
    rows, cols, crc32 = codec.ints(rec, "rows", "cols", "crc32")
    matrix = read_blob(path, crc32=crc32)
    if matrix.shape != (rows, cols):
        raise IntegrityError(
            f"blob {path} has shape {matrix.shape}, manifest says ({rows}, {cols})"
        )
    return matrix
