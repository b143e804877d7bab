"""On-disk formats: EMX v1 binary matrices, CSV tables and JSON objects."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orthoadapt.emx import MAGIC, csv_text, read_emx, read_json, write_emx, write_json
from orthoadapt.errors import FormatError, ValidationError


def test_round_trip_bytes(tmp_path):
    m = np.random.default_rng(0).standard_normal((7, 3))
    p1 = tmp_path / "a.emx"
    p2 = tmp_path / "b.emx"
    write_emx(p1, m)
    back = read_emx(p1)
    np.testing.assert_array_equal(back, m)
    write_emx(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_layout(tmp_path):
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = tmp_path / "m.emx"
    write_emx(p, m)
    raw = p.read_bytes()
    assert raw[:4] == MAGIC
    assert struct.unpack("<QQ", raw[4:20]) == (2, 2)
    assert np.frombuffer(raw[20:], dtype="<f8").tolist() == [1.0, 2.0, 3.0, 4.0]


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.emx"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError):
        read_emx(p)


def test_truncated(tmp_path):
    m = np.ones((4, 4))
    p = tmp_path / "t.emx"
    write_emx(p, m)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(FormatError):
        read_emx(p)


def test_rejects_non_finite(tmp_path):
    bad = np.zeros((2, 2))
    bad[0, 0] = np.inf
    with pytest.raises(ValidationError):
        write_emx(tmp_path / "x.emx", bad)


@pytest.mark.parametrize("rows,cols", [(2**63, 0), (0, 2**63), (0, 0), (0, 5)])
def test_zero_dimension_header(tmp_path, rows, cols):
    p = tmp_path / "z.emx"
    p.write_bytes(MAGIC + struct.pack("<QQ", rows, cols))
    with pytest.raises(FormatError, match="zero dimension"):
        read_emx(p)


# small counts, the edges of the 64-bit field, and anything in between
_DIMS = st.one_of(st.integers(0, 3), st.sampled_from([2**32, 2**61, 2**63, 2**64 - 1]),
                  st.integers(0, 2**64 - 1))
# none, whole float64 values (NaN and infinities included), or stray bytes
_PAYLOADS = st.one_of(
    st.just(b""),
    st.lists(st.floats(), max_size=8).map(lambda v: np.array(v, dtype="<f8").tobytes()),
    st.binary(max_size=40))


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.just(MAGIC), st.binary(min_size=4, max_size=4)), _DIMS, _DIMS, _PAYLOADS)
def test_random_header_reads_or_raises_format_error(tmp_path, magic, rows, cols, payload):
    """Any 20-byte header with a short payload either reads back as the
    (rows, cols) matrix it declares or raises FormatError, nothing else."""
    p = tmp_path / "r.emx"
    p.write_bytes(magic + struct.pack("<QQ", rows, cols) + payload)
    try:
        a = read_emx(p)
    except FormatError:
        return
    assert a.shape == (rows, cols) and np.isfinite(a).all()


def test_csv_and_json_text(tmp_path):
    rows = [[1, float("nan"), float("inf")], [2, 5e-324, np.float64(0.1)],
            [3, None, 'a,"b']]
    assert csv_text(["i", "x", "y"], rows) == (
        'i,x,y\n1,nan,inf\n2,5e-324,0.1\n3,,"a,""b"\n')

    path = tmp_path / "obj.json"
    write_json(path, {"b": [1, 0.5], "a": None})
    assert path.read_bytes() == b'{\n  "a": null,\n  "b": [\n    1,\n    0.5\n  ]\n}\n'
    assert read_json(path, "test object") == {"a": None, "b": [1, 0.5]}

    with pytest.raises(FormatError, match="missing test object$"):
        read_json(tmp_path / "absent.json", "test object")
    (tmp_path / "bad.json").write_text("{")
    with pytest.raises(FormatError, match="unreadable test object: "):
        read_json(tmp_path / "bad.json", "test object")
    (tmp_path / "list.json").write_text("[1]\n")
    with pytest.raises(FormatError, match="test object is not a JSON object$"):
        read_json(tmp_path / "list.json", "test object")
