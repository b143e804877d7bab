"""Output checks made apart from the program under test.

Each check raises ``CheckError`` with a message when the property fails. The
reference values come from NumPy, SciPy, the standard library or a property
the method must have; none is a stored copy of an earlier output.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np


class CheckError(AssertionError):
    pass


def _fail(msg):
    raise CheckError(msg)


def function_preserved(w_pretrained, w_init, rtol=1e-8):
    """An adapter's effective weight at init equals the weight it wraps."""
    err = np.linalg.norm(w_init - w_pretrained) / np.linalg.norm(w_pretrained)
    if not err <= rtol:
        _fail(f"effective weight at init is {err:.3g} away from the pretrained weight")


def identical(before: bytes, after: bytes, what):
    """Two byte strings (frozen factors, artifacts) are bit-identical."""
    if hashlib.sha256(before).digest() != hashlib.sha256(after).digest():
        _fail(f"{what} changed")


def auc_matches(reported, probabilities, labels, tol=1e-12):
    """The reported ROC AUC equals the Mann-Whitney AUC recomputed from the
    probabilities with SciPy's average ranks."""
    from scipy.stats import rankdata

    y = np.asarray(labels)
    ranks = rankdata(probabilities)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    auc = (ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    if not abs(auc - reported) <= tol:
        _fail(f"reported AUC {reported!r} but the probabilities give {auc!r}")


def trace_sane(total_loss, iters):
    """``iters`` finite losses, the last tenth below the first on average."""
    loss = np.asarray(total_loss, dtype=np.float64)
    if loss.shape != (iters,):
        _fail(f"trace has {loss.shape[0]} rows, expected {iters}")
    if not np.isfinite(loss).all():
        _fail("trace holds a non-finite loss")
    tenth = max(1, iters // 10)
    first, last = loss[:tenth].mean(), loss[-tenth:].mean()
    if not last < first:
        _fail(f"loss did not fall: first tenth {first:.6g}, last tenth {last:.6g}")


def directional_derivative(f, grad_dot_d, eps, rtol=1e-4, atol=1e-12):
    """A central difference of f along d matches the analytic <grad, d>.

    ``f(t)`` evaluates the loss at theta + t d.
    """
    fd = (f(eps) - f(-eps)) / (2.0 * eps)
    if not abs(fd - grad_dot_d) <= atol + rtol * max(abs(fd), abs(grad_dot_d)):
        _fail(f"finite difference {fd!r} disagrees with the gradient {grad_dot_d!r}")


def sweep_table(text, header, cells):
    """A sweep CSV with the documented header and one row per cell, none
    carrying an error."""
    lines = text.rstrip("\n").split("\n")
    if lines[0] != header:
        _fail(f"sweep header is {lines[0]!r}")
    if len(lines) - 1 != cells:
        _fail(f"sweep has {len(lines) - 1} rows, expected {cells}")
    for line in lines[1:]:
        if len(line.split(",")) != len(header.split(",")) or not line.endswith(","):
            _fail(f"sweep row reports an error or has the wrong width: {line!r}")


def parse_emx(path):
    """EMX v1 read with ``struct`` only: magic, two little-endian u64, then
    rows*cols little-endian float64 values, row-major."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"EMX1" or len(raw) < 20:
        _fail(f"{path}: not an EMX v1 file")
    rows, cols = struct.unpack_from("<QQ", raw, 4)
    if len(raw) != 20 + 8 * rows * cols:
        _fail(f"{path}: {len(raw)} bytes for a {rows}x{cols} matrix")
    values = struct.unpack_from(f"<{rows * cols}d", raw, 20)
    return [list(values[r * cols:(r + 1) * cols]) for r in range(rows)]


def emx_matches(parsed, loaded, what):
    """Our own parse of an EMX file equals the program's ``read_emx``."""
    a = np.asarray(loaded)
    if a.shape != (len(parsed), len(parsed[0]) if parsed else 0) or a.tolist() != parsed:
        _fail(f"{what}: read_emx disagrees with the struct parse")


def singular_values(recovered, prescribed, lapack, rtol=1e-10):
    """SVD values equal the prescribed ones and LAPACK's, each within rtol."""
    rec = np.asarray(recovered)
    for name, ref in (("prescribed", np.sort(prescribed)[::-1]), ("LAPACK", np.asarray(lapack))):
        err = np.max(np.abs(rec - ref) / ref)
        if not err <= rtol:
            _fail(f"singular values are {err:.3g} away from the {name} ones")


def orthonormal(q, what, tol=1e-10):
    err = np.max(np.abs(q.T @ q - np.eye(q.shape[1])))
    if not err <= tol:
        _fail(f"{what} is {err:.3g} away from orthonormal")


def loss_falls(losses):
    if not (len(losses) >= 2 and math.isfinite(losses[-1]) and losses[-1] < losses[0]):
        _fail(f"regularizer loss did not fall: {losses[0]!r} -> {losses[-1]!r}")


def exit_code(rc, expected, what):
    if rc not in expected:
        _fail(f"{what} returned {rc!r}, expected one of {sorted(expected)}")
