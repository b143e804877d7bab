"""Deterministic dense linear algebra.

LAPACK SVD and symmetric eigendecomposition with a fixed sign convention,
principal/residual subspace splits, Frobenius norms and PCA.
Everything here is a pure function of its inputs, so identical input bytes
give identical output bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError


def check_matrix(a, name="matrix"):
    """Validate and return a 2-D float64 array with finite entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"{name} must have positive dimensions, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


@dataclass
class SvdFactors:
    """Thin SVD factors: u (rows x k), s (k,) descending, v (cols x k)."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


@dataclass
class SubspaceSplit:
    """Partition of SVD factors into a principal part (top r singular
    triplets) and the residual part (the remaining k - r). For a square
    matrix, u_nr and v_nr are an orthonormal basis of the complement of u_r
    and v_r, which ``SvdResidualAdapter.reg_terms`` relies on."""

    r: int
    u_r: np.ndarray
    s_r: np.ndarray
    v_r: np.ndarray
    u_nr: np.ndarray
    s_nr: np.ndarray
    v_nr: np.ndarray
    frozen_frob_sq: float


def _fix_signs(u, v):
    # Largest-|entry| of each u column made non-negative (first index wins
    # ties); the matching v column flips too so the product is unchanged.
    cols = np.arange(u.shape[1])
    flip = u[np.argmax(np.abs(u), axis=0), cols] < 0
    u[:, flip] = -u[:, flip]
    v[:, flip] = -v[:, flip]


def svd(m, label="matrix") -> SvdFactors:
    """Thin LAPACK SVD with k = min(rows, cols) factors.

    For square input the factors are full. Singular values are descending,
    zero singular values keep orthonormal factor columns, and factor signs
    follow the convention in ``_fix_signs``. NumericalError if a factor is
    not finite, which finite but huge entries can cause.
    """
    a = check_matrix(m, label)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of {label} {a.shape} failed: {exc}") from exc
    if not (np.isfinite(s).all() and np.isfinite(u).all() and np.isfinite(vt).all()):
        raise NumericalError(f"SVD of {label} {a.shape} is not finite")
    v = vt.T
    _fix_signs(u, v)
    return SvdFactors(u=u, s=s, v=v)


def split(f: SvdFactors, r: int) -> SubspaceSplit:
    """Top-r principal part and residual; NumericalError if ||s||^2 overflows."""
    k = f.s.shape[0]
    if not 0 <= r <= k:
        raise ValidationError(f"split rank {r} out of range [0, {k}]")
    return SubspaceSplit(
        r=r,
        u_r=f.u[:, :r].copy(),
        s_r=f.s[:r].copy(),
        v_r=f.v[:, :r].copy(),
        u_nr=f.u[:, r:].copy(),
        s_nr=f.s[r:].copy(),
        v_nr=f.v[:, r:].copy(),
        frozen_frob_sq=float(sum_sq(f.s, what="split matrix")),
    )


def reconstruct(sp: SubspaceSplit):
    """The principal part U_r diag(s_r) V_r^T of a split: the best rank-r
    approximation of the split matrix."""
    return (sp.u_r * sp.s_r) @ sp.v_r.T


def sum_sq(a, axis=None, what="matrix"):
    """Sum of squared entries over ``axis``; NumericalError on overflow."""
    with np.errstate(over="ignore"):
        total = np.add.reduce(a * a, axis=axis)
    if not np.logical_and.reduce(np.isfinite(total), axis=None):
        raise NumericalError(f"squared Frobenius norm of the {what} overflows")
    return total


def frobenius_sq(m) -> float:
    """Sum of squared entries of a matrix; NumericalError if it overflows."""
    return float(sum_sq(check_matrix(m, "matrix")))


def sym_eig(a, label="matrix"):
    """LAPACK eigendecomposition of the symmetric part of a square matrix.

    Returns (w, q) with eigenvalues w sorted descending and orthonormal
    eigenvector columns q, sign-fixed like SVD factors.
    """
    m = check_matrix(a, label)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"{label} must be square, got {m.shape}")
    try:
        w, q = np.linalg.eigh(0.5 * (m + m.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition of {label} failed: {exc}") from exc
    w = w[::-1].copy()
    q = q[:, ::-1].copy()
    _fix_signs(q, q.copy())  # no partner factor: the copy is discarded
    return w, q


def pca(features):
    """Eigenvalues of the sample covariance (ddof=1), descending and clipped
    at 0, and the matching orthonormal eigenvector columns. ValidationError
    below 2 samples; NumericalError if the covariance overflows, which finite
    but huge features (a diverged model's) do."""
    x = check_matrix(features, "features")
    samples = x.shape[0]
    if samples < 2:
        raise ValidationError("pca needs at least 2 samples")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (samples - 1)
    if not np.isfinite(cov).all():
        raise NumericalError("covariance of the features is not finite")
    w, q = sym_eig(cov, "covariance")
    return np.clip(w, 0.0, None), q
