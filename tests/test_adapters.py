"""Adapter parameterizations: forward maps, regularizers, exact gradients."""

import copy
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoadapt.adapters import (
    FrozenAdapter,
    FullAdapter,
    LoraAdapter,
    RegularizerWeights,
    SvdResidualAdapter,
    stack_adapters,
)
from orthoadapt.errors import NumericalError, ValidationError
from orthoadapt.linalg import SubspaceSplit, frobenius_sq
from orthoadapt.model import BackboneConfig, init_model, model_forward


def forward(ad, x):
    """The adapted layer applied to a batch: x @ W_eff^T."""
    return x @ ad.effective_weight().T


def backward(ad, x, upstream):
    """Gradients of sum(forward(ad, x) * upstream) wrt the trainable tensors."""
    return ad.weight_grad(upstream.T @ x)


def make_identity_split(n, residual_rank):
    """Synthetic split of the identity matrix, no SVD required."""
    r = n - residual_rank
    eye = np.eye(n)
    return SubspaceSplit(
        r=r,
        u_r=eye[:, :r].copy(), s_r=np.ones(r), v_r=eye[:, :r].copy(),
        u_nr=eye[:, r:].copy(), s_nr=np.ones(residual_rank), v_nr=eye[:, r:].copy(),
        frozen_frob_sq=float(n),
    )


def stacked_orth(ad):
    """The orthogonality loss from its definition, in O(n^3): the squared
    Frobenius deviation of the stacked factors [U_r, U] and [V_r, V] from
    orthonormality, with its gradient wrt the residual factors."""
    loss, grads = 0.0, {}
    for key, frozen, f in (("u", ad.split.u_r, ad.u), ("v", ad.split.v_r, ad.v)):
        stacked = np.concatenate([frozen, f], axis=1)
        c = stacked.T @ stacked - np.eye(stacked.shape[1])
        loss += np.sum(c * c)
        grads[key] = 4.0 * (stacked @ c)[:, frozen.shape[1]:]
    return float(loss), grads


def energy_drift(ad):
    """|  ||W_eff||_F^2 - ||W_init||_F^2 |, the spectral-energy drift."""
    return abs(frobenius_sq(ad.effective_weight()) - ad.frozen_frob_sq)


def perturbed_split(n, k, rng, frozen_noise=0.0):
    """Split of a random known-factor matrix; frozen_noise > 0 leaves the
    frozen factors slightly off orthonormal."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.geomspace(10.0, 0.1, n)
    r = n - k
    u_r = u[:, :r] + frozen_noise * rng.standard_normal((n, r))
    v_r = v[:, :r] + frozen_noise * rng.standard_normal((n, r))
    return SubspaceSplit(
        r=r, u_r=u_r, s_r=s[:r].copy(), v_r=v_r,
        u_nr=u[:, r:].copy(), s_nr=s[r:].copy(), v_nr=v[:, r:].copy(),
        frozen_frob_sq=float(s @ s),
    )


class TestInit:
    def test_identity_matrix(self):
        ad = SvdResidualAdapter(np.eye(4), 1)
        np.testing.assert_allclose(ad.effective_weight(), np.eye(4), atol=1e-12)
        orth, sv, _ = ad.reg_terms(1.0, 1.0)
        assert orth <= 1e-10
        assert sv <= 1e-10

    def test_random_reconstruction(self):
        w = np.random.default_rng(0).standard_normal((16, 16))
        ad = SvdResidualAdapter(w, 4)
        assert np.linalg.norm(ad.effective_weight() - w) <= 1e-8 * np.linalg.norm(w)

    def test_trainable_count_formula(self):
        ad = SvdResidualAdapter(np.random.default_rng(1).standard_normal((16, 16)), 4)
        assert ad.count_trainable() == 4 * (2 * 16 + 1)
        big = SvdResidualAdapter.from_split(1024, make_identity_split(1024, 1))
        assert big.count_trainable() == 2049

    def test_validation(self):
        with pytest.raises(ValidationError):
            SvdResidualAdapter(np.ones((3, 4)), 1)
        with pytest.raises(ValidationError):
            SvdResidualAdapter(np.eye(4), 0)
        with pytest.raises(ValidationError):
            SvdResidualAdapter(np.eye(4), 5)
        with pytest.raises(ValidationError):
            RegularizerWeights(-1.0, 0.0)

    def test_principal_overflow_raises_at_construction(self):
        # ||W_p||^2 is taken when the adapter is built, not on a later
        # reg_terms call
        sp = replace(make_identity_split(4, 1), s_r=np.array([1e200, 1.0, 1.0]))
        with pytest.raises(NumericalError, match="frozen principal weight overflows"):
            SvdResidualAdapter.from_split(4, sp)

    def test_principal_frozen_after_updates(self):
        w = np.random.default_rng(2).standard_normal((8, 8))
        ad = SvdResidualAdapter(w, 2)
        before = (ad.split.u_r.tobytes(), ad.split.s_r.tobytes(), ad.split.v_r.tobytes())
        for arr in ad.trainable().values():
            arr += 0.1
        after = (ad.split.u_r.tobytes(), ad.split.s_r.tobytes(), ad.split.v_r.tobytes())
        assert before == after


class TestSvdCache:
    def test_one_decomposition_per_weight(self, svd_inputs):
        w, other = np.random.default_rng(3).standard_normal((2, 12, 12))
        cache = {}
        shared = {k: SvdResidualAdapter(w, k, svd_cache=cache) for k in (2, 5)}
        assert svd_inputs == [w.tobytes()] and len(cache) == 1
        (factors,) = cache.values()
        for k, ad in shared.items():
            plain = SvdResidualAdapter(w, k)
            for f in fields(SubspaceSplit):
                a, b = getattr(ad.split, f.name), getattr(plain.split, f.name)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name
            for key, a in {**vars(ad.split), **ad.trainable()}.items():
                assert not any(np.shares_memory(a, c) for c in vars(factors).values()), key
        SvdResidualAdapter(other, 2, svd_cache=cache)
        assert svd_inputs[-1] == other.tobytes() and len(svd_inputs) == 4 and len(cache) == 2

    def test_failed_svd_stores_nothing(self, svd_inputs):
        cache = {}
        SvdResidualAdapter(np.eye(6), 1, svd_cache=cache)
        (key, factors), = cache.items()
        with pytest.raises(NumericalError):
            SvdResidualAdapter(np.full((6, 6), 1e308), 1, svd_cache=cache)
        assert list(cache) == [key] and cache[key] is factors


class TestEffectiveWeight:
    def test_lora_init_exact(self):
        w = np.random.default_rng(3).standard_normal((6, 6))
        ad = LoraAdapter(w, 2, np.random.default_rng(4))
        np.testing.assert_array_equal(ad.effective_weight(), w)

    def test_residual_annihilation(self):
        # zeroing the residual singular values leaves exactly the principal part
        w = np.random.default_rng(5).standard_normal((8, 8))
        ad = SvdResidualAdapter(w, 3)
        ad.s[:] = 0.0
        from orthoadapt.linalg import reconstruct
        np.testing.assert_allclose(ad.effective_weight(),
                                   reconstruct(ad.split), atol=1e-12)


class TestForward:
    def test_identity_batch(self):
        w = np.random.default_rng(6).standard_normal((5, 5))
        ad = FullAdapter(w)
        np.testing.assert_allclose(forward(ad, np.eye(5)), w.T, atol=1e-14)

    def test_zero_input(self):
        ad = FullAdapter(np.random.default_rng(7).standard_normal((5, 5)))
        assert np.abs(forward(ad, np.zeros((3, 5)))).max() == 0.0

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((6, 6))
        x = rng.standard_normal((4, 6))
        ad = SvdResidualAdapter(w, 2)
        w_eff = ad.effective_weight()
        expect = np.zeros((4, 6))
        for i in range(4):
            for j in range(6):
                for k in range(6):
                    expect[i, j] += x[i, k] * w_eff[j, k]
        np.testing.assert_allclose(forward(ad, x), expect, atol=1e-12)

    def test_shape_mismatch(self):
        # adapted layers run inside model_forward, which checks the input width
        cfg = BackboneConfig(kind="mlp", dim=4, depth=1, seq_len=1, adapter_kind="full")
        with pytest.raises(ValidationError):
            model_forward(init_model(cfg, seed=0), np.ones((2, 5)))


class TestOrthLoss:
    def test_scaled_column_matches_direct_formula(self):
        w = np.random.default_rng(9).standard_normal((4, 4))
        ad = SvdResidualAdapter(w, 1)
        ad.u *= 2.0
        u_hat = np.concatenate([ad.split.u_r, ad.u], axis=1)
        v_hat = np.concatenate([ad.split.v_r, ad.v], axis=1)
        direct = (np.sum((u_hat.T @ u_hat - np.eye(4)) ** 2)
                  + np.sum((v_hat.T @ v_hat - np.eye(4)) ** 2))
        assert abs(ad.reg_terms(1.0, 0.0)[0] - direct) <= 1e-12 * max(direct, 1.0)
        # the scaled column contributes (|2u|^2 - 1)^2 = 9 on the diagonal
        assert abs(direct - 9.0) <= 1e-12 * 9.0

    def test_gradient_finite_differences(self):
        w = np.random.default_rng(10).standard_normal((6, 6))
        ad = SvdResidualAdapter(w, 2)
        rng = np.random.default_rng(11)
        ad.u += 0.05 * rng.standard_normal(ad.u.shape)
        ad.v += 0.05 * rng.standard_normal(ad.v.shape)
        _, _, grads = ad.reg_terms(1.0, 0.0)
        h = 1e-5
        for name, arr in (("u", ad.u), ("v", ad.v)):
            g = grads[name]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = stacked_orth(ad)[0]
                arr[idx] = orig - h
                down = stacked_orth(ad)[0]
                arr[idx] = orig
                fd = (up - down) / (2 * h)
                assert abs(fd - g[idx]) <= 1e-5 * max(abs(fd), abs(g[idx]), 1e-3)

    @pytest.mark.parametrize("n,k,frozen_noise", [
        (6, 2, 0.0), (16, 4, 0.0), (64, 4, 0.0), (256, 1, 0.0),
        # slightly non-orthonormal u_r/v_r: the frozen block
        # ||U_r^T U_r - I||^2, which orth leaves out, is then far above the
        # tolerance, and the cross term is the energy of U outside the
        # residual subspace
        (16, 4, 1e-3),
    ])
    def test_matches_stacked_oracle(self, n, k, frozen_noise):
        rng = np.random.default_rng(n + k)
        ad = SvdResidualAdapter.from_split(n, perturbed_split(n, k, rng, frozen_noise))
        ad.u += 0.05 * rng.standard_normal(ad.u.shape)
        ad.v += 0.05 * rng.standard_normal(ad.v.shape)
        orth, _, grads = ad.reg_terms(0.7, 0.0)
        if frozen_noise:
            expect, _, expect_grads = dense_reg_terms(ad, 1.0, 0.0, outside=True)
        else:
            expect, expect_grads = stacked_orth(ad)
        assert abs(orth - expect) <= 1e-12 * max(expect, 1.0)
        for key in ("u", "v"):
            np.testing.assert_allclose(grads[key], 0.7 * expect_grads[key],
                                       rtol=0, atol=1e-12 * np.abs(expect_grads[key]).max())


class TestSvLoss:
    def test_scaled_residual_energy(self):
        # doubling residual energy with orthogonal factors adds exactly the
        # original tail energy
        w = np.random.default_rng(12).standard_normal((8, 8))
        ad = SvdResidualAdapter(w, 3)
        tail = float(np.sum(ad.split.s_nr ** 2))
        ad.s *= np.sqrt(2.0)
        assert abs(ad.reg_terms(0.0, 1.0)[1] - tail) <= 1e-8 * max(tail, 1.0)

    def test_gradient_finite_differences(self):
        w = np.random.default_rng(13).standard_normal((6, 6))
        ad = SvdResidualAdapter(w, 2)
        rng = np.random.default_rng(14)
        for arr in ad.trainable().values():
            arr += 0.05 * rng.standard_normal(arr.shape)
        _, _, grads = ad.reg_terms(0.0, 1.0)
        h = 1e-5
        for name, arr in ad.trainable().items():
            g = grads[name]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = energy_drift(ad)
                arr[idx] = orig - h
                down = energy_drift(ad)
                arr[idx] = orig
                fd = (up - down) / (2 * h)
                assert abs(fd - g[idx]) <= 1e-5 * max(abs(fd), abs(g[idx]), 1e-3)

    def test_combined_loss_gradient_n16(self):
        # joint orth + energy gradient at n = 16 against finite differences
        w = np.random.default_rng(23).standard_normal((16, 16))
        ad = SvdResidualAdapter(w, 4)
        rng = np.random.default_rng(24)
        for arr in ad.trainable().values():
            arr += 0.05 * rng.standard_normal(arr.shape)

        def total():
            return 0.4 * stacked_orth(ad)[0] + 0.6 * energy_drift(ad)

        _, _, grads = ad.reg_terms(0.4, 0.6)
        h = 1e-5
        for name, arr in ad.trainable().items():
            g = np.asarray(grads[name])
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                plus = total()
                arr[idx] = orig - h
                minus = total()
                arr[idx] = orig
                fd = (plus - minus) / (2 * h)
                assert abs(fd - g[idx]) <= 1e-5 * max(abs(fd), abs(g[idx]), 1e-3)

    def test_reg_terms_consistent(self):
        w = np.random.default_rng(15).standard_normal((6, 6))
        ad = SvdResidualAdapter(w, 2)
        ad.u += 0.03
        orth, sv, grads = ad.reg_terms(0.7, 0.9)
        expect_orth, og = stacked_orth(ad)
        assert abs(orth - expect_orth) <= 1e-12 * max(orth, 1.0)
        assert abs(sv - energy_drift(ad)) <= 1e-12 * max(sv, 1.0)
        _, _, sg = ad.reg_terms(0.0, 1.0)
        for key in ("u", "s", "v"):
            expect = 0.7 * og.get(key, 0.0) + 0.9 * sg[key]
            np.testing.assert_allclose(grads[key], expect, atol=1e-12)


def dense_reg_terms(a, lambda1, lambda2, outside=False):
    """reg_terms of one adapter as it was before the energy term came from
    the factors: the cross term of orth from U_r^T U (with ``outside``, from
    the dense projector I - U0 U0^T, as reg_terms defines it for frozen
    factors that are not orthonormal), without the constant frozen block
    ||U_r^T U_r - I||^2 + ||V_r^T V_r - I||^2; the energy and its gradients
    from the n x n W_eff, mapped through ``weight_grad``."""
    grads = {}
    orth = sv = 0.0
    if lambda1 > 0:
        sp = a.split
        for key, frozen, basis, f in (("u", sp.u_r, sp.u_nr, a.u), ("v", sp.v_r, sp.v_nr, a.v)):
            back = np.eye(a.n) - basis @ basis.T if outside else frozen
            cross = back.T @ f
            gram = f.T @ f - np.eye(f.shape[1])
            orth = orth + (2.0 * np.sum(cross * cross) + np.sum(gram * gram))
            grads[key] = 4.0 * lambda1 * (back @ cross + f @ gram)
    if lambda2 > 0:
        w_eff = a.effective_weight()
        drift = np.sum(w_eff * w_eff) - a.frozen_frob_sq
        sv = abs(drift)
        for key, g in a.weight_grad(2.0 * np.sign(drift) * lambda2 * w_eff).items():
            grads[key] = grads.get(key, 0.0) + g
    return float(orth), float(sv), grads


class TestFactorEnergy:
    """reg_terms against the dense forms it replaced: orth, sv and the
    gradients agree to rounding. The energy term holds for any frozen
    factors, orthonormal or not; for frozen factors that are not, the cross
    term of orth is the energy of U outside the residual subspace."""

    @staticmethod
    def check(n, k, m, lam1, lam2=0.9, frozen_noise=0.0):
        rng = np.random.default_rng(1000 * n + 10 * k + m)
        singles = []
        for _ in range(m):
            ad = SvdResidualAdapter.from_split(n, perturbed_split(n, k, rng, frozen_noise))
            for p in ad.trainable().values():
                p += 0.05 * rng.standard_normal(p.shape)
            singles.append(ad)
        expect = [dense_reg_terms(a, lam1, lam2, outside=frozen_noise > 0) for a in singles]
        got = [a.reg_terms(lam1, lam2) for a in singles]
        if m > 1:  # each row of one stacked call, against the same dense terms
            orth, sv, grads = stack_adapters(copy.deepcopy(singles)).reg_terms(lam1, lam2)
            got += [(orth[i], sv[i], {key: g[i] for key, g in grads.items()}) for i in range(m)]
            expect += expect
        for a, (orth, sv, grads), (d_orth, d_sv, d_grads) in zip(singles * 2, got, expect):
            assert abs(orth - d_orth) <= 1e-12 * d_orth
            assert abs(sv - d_sv) <= 1e-12 * a.frozen_frob_sq
            assert set(grads) == set(d_grads)
            for key, g in d_grads.items():
                assert np.abs(grads[key] - g).max() <= 1e-12 * np.abs(g).max(), key

    @pytest.mark.parametrize("lam1", [0.0, 0.7])
    @pytest.mark.parametrize("n,k,m", [(6, 2, 1), (32, 4, 1), (256, 1, 1), (1024, 1, 1),
                                       (6, 2, 5), (32, 4, 3), (256, 1, 2)])
    def test_matches_dense_energy(self, n, k, m, lam1):
        self.check(n, k, m, lam1)

    @pytest.mark.parametrize("lam1,lam2", [(0.7, 0.0), (0.0, 0.9), (0.7, 0.9)])
    @pytest.mark.parametrize("n,k,m,frozen_noise", [
        (32, 4, 3, 0.0),
        (16, 4, 1, 1e-3), (32, 4, 3, 1e-3),  # frozen factors slightly off orthonormal
        (6, 6, 1, 0.0), (5, 5, 3, 0.0),  # residual rank n: no frozen part
    ])
    def test_any_frozen_factors(self, n, k, m, frozen_noise, lam1, lam2):
        self.check(n, k, m, lam1, lam2, frozen_noise)

    @pytest.mark.parametrize("m", [1, 3])
    def test_frozen_factors_read_once(self, m):
        # U_r and V_r are never read, not even by a first call, and a
        # lambda1-only call reads no W_p
        rng = np.random.default_rng(77 + m)
        members = [SvdResidualAdapter.from_split(32, perturbed_split(32, 4, rng)) for _ in range(m)]
        for a in members:
            for p in a.trainable().values():
                p += 0.05 * rng.standard_normal(p.shape)
        ad = members[0] if m == 1 else stack_adapters(members)
        assert hasattr(ad, "split") == (m == 1)  # a stack keeps no split
        clean = copy.deepcopy(ad)
        both, orth_only = clean.reg_terms(0.7, 0.9), clean.reg_terms(0.7, 0.0)
        for a in members:
            a.split.u_r[...] = np.nan
            a.split.v_r[...] = np.nan
        got = [ad.reg_terms(0.7, 0.9)]
        ad._w_principal[...] = np.nan
        got.append(ad.reg_terms(0.7, 0.0))
        for (orth, sv, grads), (orth2, sv2, grads2) in zip((both, orth_only), got):
            assert np.asarray(orth2).tobytes() == np.asarray(orth).tobytes()
            assert np.asarray(sv2).tobytes() == np.asarray(sv).tobytes()
            assert set(grads2) == set(grads)
            for key, g in grads.items():
                assert grads2[key].tobytes() == g.tobytes(), key


class TestBackward:
    def test_zero_upstream(self):
        w = np.random.default_rng(16).standard_normal((5, 5))
        ad = SvdResidualAdapter(w, 2)
        x = np.random.default_rng(17).standard_normal((3, 5))
        grads = backward(ad, x, np.zeros((3, 5)))
        for g in grads.values():
            assert np.abs(g).max() == 0.0

    def test_finite_differences_small(self):
        rng = np.random.default_rng(18)
        w = rng.standard_normal((3, 3))
        ad = SvdResidualAdapter(w, 1)
        x = rng.standard_normal((1, 3))
        up = rng.standard_normal((1, 3))
        grads = backward(ad, x, up)
        h = 1e-5
        for name, arr in ad.trainable().items():
            g = grads[name]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                plus = float(np.sum(forward(ad, x) * up))
                arr[idx] = orig - h
                minus = float(np.sum(forward(ad, x) * up))
                arr[idx] = orig
                fd = (plus - minus) / (2 * h)
                assert abs(fd - g[idx]) <= 1e-6 * max(abs(fd), abs(g[idx]), 1e-2)

    def test_linearity_in_upstream(self):
        rng = np.random.default_rng(19)
        ad = LoraAdapter(rng.standard_normal((4, 4)), 2, rng)
        ad.b += 0.1  # make gradients non-trivial
        x = rng.standard_normal((2, 4))
        up = rng.standard_normal((2, 4))
        g1 = backward(ad, x, up)
        g2 = backward(ad, x, 2.0 * up)
        for key in g1:
            np.testing.assert_array_equal(2.0 * g1[key], g2[key])


class TestCounts:
    def test_lora_count(self):
        ad = LoraAdapter(np.eye(8), 2, np.random.default_rng(20))
        assert ad.count_trainable() == 32

    def test_frozen_and_full(self):
        assert FrozenAdapter(np.eye(4)).count_trainable() == 0
        assert FullAdapter(np.eye(4)).count_trainable() == 16


def random_adapters(kind, m, n, k, seed):
    """m adapters of one kind and shape, moved away from their init."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(m):
        w = rng.standard_normal((n, n))
        if kind == "svd":
            ad = SvdResidualAdapter(w, k)
            for p in ad.trainable().values():
                p += 0.1 * rng.standard_normal(p.shape)
        elif kind == "lora":
            ad = LoraAdapter(w, k, rng)
            ad.b += rng.standard_normal(ad.b.shape)
        else:
            ad = FullAdapter(w) if kind == "full" else FrozenAdapter(w)
        out.append(ad)
    return out


def assert_same_grads(stacked, singles):
    assert set(stacked) == set().union(*singles)
    for i, g in enumerate(singles):
        for key, arr in g.items():
            assert stacked[key][i].tobytes() == arr.tobytes(), key


STACK_CASES = st.tuples(
    st.integers(1, 5),  # m
    st.integers(1, 7),  # n
    st.integers(1, 7),  # k, clipped to n: k = n leaves no frozen part
    st.integers(0, 2**32 - 1),
)


class TestStack:
    """A stacked adapter gives, bit for bit, what m one-matrix calls give."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(STACK_CASES, st.booleans(), st.booleans())
    def test_svd_matches_single_calls(self, case, orth_on, energy_on):
        m, n, k, seed = case
        k = min(k, n)
        singles = random_adapters("svd", m, n, k, seed)
        members = copy.deepcopy(singles)
        stack = stack_adapters(members)
        rng = np.random.default_rng(seed + 1)
        dw = rng.standard_normal((m, n, n))
        lam1, lam2 = (0.3 if orth_on else 0.0), (0.2 if energy_on else 0.0)

        weights = stack.effective_weight()
        orth, sv, grads = stack.reg_terms(lam1, lam2)
        assert orth.shape == sv.shape == (m,)
        assert_same_grads(stack.weight_grad(dw), [a.weight_grad(g) for a, g in zip(singles, dw)])
        single_regs = []
        for i, a in enumerate(singles):
            w = a.effective_weight()
            assert weights[i].tobytes() == w.tobytes()
            o, s, g = a.reg_terms(lam1, lam2)
            assert type(o) is float and type(s) is float
            assert (orth[i], sv[i]) == (o, s)
            single_regs.append(g)
        assert_same_grads(grads, single_regs)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(STACK_CASES, st.sampled_from(["lora", "full", "frozen"]))
    def test_other_kinds_match_single_calls(self, case, kind):
        m, n, k, seed = case
        k = min(k, n)
        singles = random_adapters(kind, m, n, k, seed)
        stack = stack_adapters(copy.deepcopy(singles))
        dw = np.random.default_rng(seed + 1).standard_normal((m, n, n))
        weights = stack.effective_weight()
        for i, a in enumerate(singles):
            assert weights[i].tobytes() == a.effective_weight().tobytes()
        assert_same_grads(stack.weight_grad(dw), [a.weight_grad(g) for a, g in zip(singles, dw)])
        assert stack.count_trainable() == sum(a.count_trainable() for a in singles)

    def test_members_become_views(self):
        members = random_adapters("svd", 3, 5, 2, 0)
        before = [a.effective_weight() for a in members]
        u_r = members[2].split.u_r
        stack = stack_adapters(members)
        for a, w in zip(members, before):
            assert a.effective_weight().tobytes() == w.tobytes()
        members[1].u[0, 0] += 1.0  # an edit through a member shows in the stack
        assert stack.u[1, 0, 0] == members[1].u[0, 0]
        for key in ("_w_principal", "_u0"):
            assert np.shares_memory(getattr(members[2], key), getattr(stack, key)), key
        # the frozen factors stay with each member, neither stacked nor copied
        assert members[2].split.u_r is u_r
        assert not hasattr(stack, "split")

    @pytest.mark.parametrize("m", [2, 4])
    def test_svd_stack_allocates_only_its_tensors(self, m):
        members = random_adapters("svd", m, 128, 2, 0)
        tracemalloc.start()
        try:
            stack = stack_adapters(members)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stacked = sum(getattr(stack, key).nbytes for key in SvdResidualAdapter._TENSORS)
        assert peak <= 1.1 * stacked, (peak, stacked)

    def test_rejects_mixed_kinds_and_shapes(self):
        with pytest.raises(ValidationError, match="one kind"):
            stack_adapters(random_adapters("full", 1, 4, 1, 0) + random_adapters("frozen", 1, 4, 1, 0))
        with pytest.raises(ValidationError, match="cannot stack"):
            stack_adapters(random_adapters("svd", 1, 4, 1, 0) + random_adapters("svd", 1, 4, 2, 0))
