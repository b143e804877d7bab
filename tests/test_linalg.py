"""SVD, eigendecomposition, subspace splits, and PCA spectra against
independent oracles and properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoadapt.errors import NumericalError, ValidationError
from orthoadapt.linalg import (
    PcaSpectrum,
    check_matrix,
    frobenius_sq,
    pca_spectrum,
    reconstruct,
    split,
    svd,
    sym_eig,
)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def orthonormal(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q


def assert_sign_convention(u):
    # the largest-|entry| of every column (first index on ties) is non-negative
    for j in range(u.shape[1]):
        assert u[np.argmax(np.abs(u[:, j])), j] >= 0


# Generated matrices: dense Gaussian, low-rank products (rank 0 included) and
# Q diag(s) P^T with repeated singular values. Derandomized, so the examples
# are the same on every run.
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
matrix_cases = st.tuples(
    st.sampled_from(["dense", "low_rank", "repeated"]),
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)


def build_matrix(kind, rows, cols, seed):
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    if kind == "dense":
        return rng.standard_normal((rows, cols))
    if kind == "low_rank":
        r = int(rng.integers(0, k))
        return rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
    s = np.sort(rng.choice([0.0, 0.5, 1.0, 3.0], size=k))[::-1]
    return (orthonormal(rng, rows, k) * s) @ orthonormal(rng, cols, k).T


def build_symmetric(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        a = rng.standard_normal((n, n))
        return a + a.T
    if kind == "low_rank":
        b = rng.standard_normal((n, int(rng.integers(0, n))))
        return b @ b.T
    q = orthonormal(rng, n, n)
    return (q * rng.choice([-2.0, 0.0, 1.0, 1.0], size=n)) @ q.T


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(3))
        np.testing.assert_allclose(f.s, [1.0, 1.0, 1.0])
        np.testing.assert_allclose((f.u * f.s) @ f.v.T, np.eye(3), atol=1e-12)

    def test_diagonal_with_sign(self):
        m = np.diag([3.0, -2.0])
        f = svd(m)
        np.testing.assert_allclose(f.s, [3.0, 2.0])
        np.testing.assert_allclose((f.u * f.s) @ f.v.T, m, atol=1e-12)

    def test_random_against_eigh_oracle(self):
        # singular values must match the symmetric-eigenvalue oracle on M^T M
        m = np.random.default_rng(0).standard_normal((16, 16))
        f = svd(m)
        assert rel_err((f.u * f.s) @ f.v.T, m) <= 1e-10
        oracle = np.sqrt(np.clip(np.linalg.eigh(m.T @ m)[0][::-1], 0.0, None))
        np.testing.assert_allclose(f.s, oracle, atol=1e-10)

    def test_factor_orthogonality(self):
        for seed, n in [(1, 8), (2, 16), (3, 33)]:
            m = np.random.default_rng(seed).standard_normal((n, n))
            f = svd(m)
            assert np.linalg.norm(f.u.T @ f.u - np.eye(n)) <= 1e-8
            assert np.linalg.norm(f.v.T @ f.v - np.eye(n)) <= 1e-8

    def test_rectangular_thin(self):
        rng = np.random.default_rng(4)
        for shape in [(12, 5), (5, 12)]:
            m = rng.standard_normal(shape)
            f = svd(m)
            k = min(shape)
            assert f.u.shape == (shape[0], k)
            assert f.v.shape == (shape[1], k)
            assert rel_err((f.u * f.s) @ f.v.T, m) <= 1e-10

    def test_rank_deficient_completion(self):
        rng = np.random.default_rng(5)
        m = np.outer(rng.standard_normal(8), rng.standard_normal(8))
        f = svd(m)
        assert np.linalg.norm(f.u.T @ f.u - np.eye(8)) <= 1e-8
        assert f.s[1] <= 1e-12
        assert rel_err((f.u * f.s) @ f.v.T, m) <= 1e-10

    def test_sign_convention(self):
        assert_sign_convention(svd(np.random.default_rng(6).standard_normal((10, 10))).u)

    def test_determinism(self):
        m = np.random.default_rng(7).standard_normal((12, 12))
        f1, f2 = svd(m), svd(m.copy())
        assert f1.u.tobytes() == f2.u.tobytes()
        assert f1.s.tobytes() == f2.s.tobytes()
        assert f1.v.tobytes() == f2.v.tobytes()

    def test_rejects_non_finite(self):
        bad = np.zeros((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(ValidationError):
            svd(bad)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            check_matrix(np.zeros(3))
        with pytest.raises(ValidationError):
            check_matrix(np.zeros((0, 3)))

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError):
            svd(np.eye(3))
        with pytest.raises(NumericalError):
            sym_eig(np.eye(3))

    @PROPERTY_SETTINGS
    @given(matrix_cases)
    def test_properties(self, case):
        kind, rows, cols, seed = case
        m = build_matrix(kind, rows, cols, seed)
        f = svd(m)
        k = min(rows, cols)
        assert f.u.shape == (rows, k) and f.s.shape == (k,) and f.v.shape == (cols, k)
        assert rel_err((f.u * f.s) @ f.v.T, m) <= 1e-10
        assert np.linalg.norm(f.u.T @ f.u - np.eye(k)) <= 1e-8
        assert np.linalg.norm(f.v.T @ f.v - np.eye(k)) <= 1e-8
        assert np.all(f.s >= 0.0)
        assert np.all(np.diff(f.s) <= 0.0)
        assert_sign_convention(f.u)


class TestSplit:
    def test_full_retention(self):
        m = np.random.default_rng(8).standard_normal((6, 6))
        sp = split(svd(m), 6)
        assert sp.s_nr.size == 0
        assert rel_err(reconstruct(sp), m) <= 1e-10

    def test_zero_retention(self):
        m = np.random.default_rng(9).standard_normal((6, 6))
        sp = split(svd(m), 0)
        assert sp.s_r.size == 0
        assert rel_err((sp.u_nr * sp.s_nr) @ sp.v_nr.T, m) <= 1e-10

    def test_tail_energy_identity(self):
        # || W - W_r ||_F^2 equals the energy of the dropped singular values
        m = np.random.default_rng(10).standard_normal((8, 8))
        f = svd(m)
        sp = split(f, 6)
        tail = float(f.s[6] ** 2 + f.s[7] ** 2)
        err = frobenius_sq(m - reconstruct(sp))
        assert abs(err - tail) <= 1e-10 * max(tail, 1.0)

    def test_partition_of_unity(self):
        m = np.random.default_rng(11).standard_normal((9, 9))
        sp = split(svd(m), 4)
        assert rel_err(reconstruct(sp) + (sp.u_nr * sp.s_nr) @ sp.v_nr.T, m) <= 1e-8

    def test_residual_with_full_rank_is_zero(self):
        m = np.random.default_rng(12).standard_normal((5, 5))
        sp = split(svd(m), 5)
        assert np.abs((sp.u_nr * sp.s_nr) @ sp.v_nr.T).max() == 0.0

    def test_eckart_young_brute_force(self):
        # truncation beats 200 random rank-3 competitors
        rng = np.random.default_rng(13)
        m = rng.standard_normal((8, 8))
        sp = split(svd(m), 3)
        best = frobenius_sq(m - reconstruct(sp))
        for _ in range(200):
            cand = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 8))
            assert frobenius_sq(m - cand) >= best - 1e-9

    def test_rank_out_of_range(self):
        f = svd(np.eye(4))
        with pytest.raises(ValidationError):
            split(f, 5)
        with pytest.raises(ValidationError):
            split(f, -1)


class TestFrobenius:
    def test_identity(self):
        assert frobenius_sq(np.eye(4)) == 4.0

    def test_diagonal(self):
        assert frobenius_sq(np.diag([3.0, 4.0])) == 25.0

    def test_matches_singular_values(self):
        m = np.random.default_rng(14).standard_normal((10, 10))
        total = frobenius_sq(m)
        assert abs(total - float(np.sum(svd(m).s ** 2))) <= 1e-10 * total


class TestSymEig:
    def test_against_numpy(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((12, 12))
        a = a + a.T
        w, q = sym_eig(a)
        np.testing.assert_allclose(w, np.linalg.eigh(a)[0][::-1], atol=1e-10)
        np.testing.assert_allclose((q * w) @ q.T, a, atol=1e-10)
        assert np.linalg.norm(q.T @ q - np.eye(12)) <= 1e-8

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            sym_eig(np.zeros((2, 3)))

    @PROPERTY_SETTINGS
    @given(matrix_cases)
    def test_properties(self, case):
        kind, n, _, seed = case
        a = build_symmetric(kind, n, seed)
        w, q = sym_eig(a)
        scale = max(np.linalg.norm(a), 1.0)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(a)[::-1], rtol=0, atol=1e-12 * scale)
        assert np.linalg.norm((q * w) @ q.T - a) <= 1e-10 * scale
        assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-8
        assert np.all(np.diff(w) <= 0.0)
        assert_sign_convention(q)


class TestPcaSpectrum:
    def test_rank_one_data(self):
        rng = np.random.default_rng(16)
        x = np.outer(rng.standard_normal(50), rng.standard_normal(4)) + 3.0
        spec = pca_spectrum(x)
        assert not spec.zero_variance
        np.testing.assert_allclose(spec.ratios[0], 1.0, atol=1e-10)
        np.testing.assert_allclose(spec.ratios[1:], 0.0, atol=1e-10)

    def test_isotropic_band(self):
        x = np.random.default_rng(17).standard_normal((10_000, 5))
        spec = pca_spectrum(x)
        assert np.all(spec.ratios >= 0.16) and np.all(spec.ratios <= 0.24)

    def test_constructed_two_direction_covariance(self):
        rng = np.random.default_rng(18)
        n = 20_000
        x = np.zeros((n, 6))
        x[:, 0] = 3.0 * rng.standard_normal(n)  # variance 9
        x[:, 1] = 1.0 * rng.standard_normal(n)  # variance 1
        spec = pca_spectrum(x)
        assert abs(spec.ratios[0] - 0.9) <= 0.02
        assert abs(spec.ratios[1] - 0.1) <= 0.02

    def test_properties(self):
        x = np.random.default_rng(19).standard_normal((64, 8))
        spec = pca_spectrum(x)
        assert np.all(spec.ratios >= 0)
        assert np.all(np.diff(spec.ratios) <= 1e-12)
        assert abs(spec.ratios.sum() - 1.0) <= 1e-10

    def test_zero_variance_flag(self):
        spec = pca_spectrum(np.ones((10, 3)))
        assert isinstance(spec, PcaSpectrum)
        assert spec.zero_variance
        assert np.all(spec.ratios == 0)

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            pca_spectrum(np.ones((1, 3)))
