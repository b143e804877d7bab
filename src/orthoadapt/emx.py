"""On-disk formats: EMX v1 matrix files, CSV tables and JSON objects.

EMX layout: magic b"EMX1", rows and cols as 64-bit little-endian unsigned
integers, then rows*cols IEEE-754 float64 values, little-endian, row-major.
CSV tables end each line with a bare newline and write floats as their
shortest round-trip text; JSON objects are written with sorted keys and an
indent of 2.
"""

import csv
import io
import json
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
    # a copy: an array over the bytes object would be read-only
    data = np.frombuffer(raw, "<f8", offset=20).reshape(rows, cols).copy()
    try:
        return check_matrix(data, str(path))
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc


def csv_text(header, rows):
    """A CSV table: the header row, then ``rows``; ``None`` is written empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def json_text(obj):
    """``obj`` as JSON with sorted keys and an indent of 2, no final newline."""
    return json.dumps(obj, sort_keys=True, indent=2)


def write_json(path, obj):
    """Write ``obj`` as ``json_text`` plus one trailing newline."""
    Path(path).write_text(json_text(obj) + "\n")


def read_json(path, what):
    """The JSON object in ``path``; FormatError naming ``what`` if the file is
    missing, unreadable or not an object."""
    path = Path(path)
    if not path.exists():
        raise FormatError(f"{path}: missing {what}")
    try:
        obj = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise FormatError(f"{path}: unreadable {what}: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: {what} is not a JSON object")
    return obj
