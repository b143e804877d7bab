"""EMX v1 matrix files.

Layout: magic b"EMX1", rows and cols as 64-bit little-endian unsigned
integers, then rows*cols IEEE-754 float64 values, little-endian, row-major.
"""

import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .linalg import check_matrix

MAGIC = b"EMX1"


def write_emx(path, matrix):
    """Write a 2-D float64 matrix; refuses non-finite data."""
    a = check_matrix(matrix, f"matrix for {path}")
    payload = MAGIC + struct.pack("<QQ", a.shape[0], a.shape[1])
    payload += np.ascontiguousarray(a, dtype="<f8").tobytes()
    Path(path).write_bytes(payload)


def read_emx(path):
    """Read an EMX file back into a (rows, cols) float64 array."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read EMX file: {exc.strerror}") from exc
    if len(raw) < 20:
        raise FormatError(f"{path}: truncated EMX header")
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic bytes {raw[:4]!r}")
    rows, cols = struct.unpack("<QQ", raw[4:20])
    if rows == 0 or cols == 0:
        raise FormatError(f"{path}: zero dimension in EMX header ({rows} x {cols})")
    expected = 20 + rows * cols * 8
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, got {len(raw)}")
    data = np.frombuffer(raw[20:], dtype="<f8").reshape(rows, cols)
    try:
        return check_matrix(data, str(path))
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc
