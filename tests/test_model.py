"""Toy backbones: forward composition, losses, exact reverse-mode gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoadapt.adapters import FullAdapter, load_adapter
from orthoadapt.errors import StateError, ValidationError
from orthoadapt.experiment import _regularizers, adam_step
from orthoadapt.model import (
    REGIMES,
    BackboneConfig,
    ToyModel,
    adapt_model,
    cls_loss,
    cls_loss_grad,
    init_model,
    load_model,
    model_backward,
    model_forward,
    save_model,
)


def mlp_cfg(**kw):
    base = dict(kind="mlp", dim=8, depth=1, seq_len=1, adapter_kind="full")
    base.update(kw)
    return BackboneConfig(**base)


def attn_cfg(**kw):
    base = dict(kind="attention", dim=8, depth=1, seq_len=4, adapter_kind="full")
    base.update(kw)
    return BackboneConfig(**base)


class TestForward:
    def test_deterministic(self):
        model = init_model(attn_cfg(), seed=0)
        x = np.random.default_rng(1).standard_normal((8, 8))
        a, _ = model_forward(model, x)
        b, _ = model_forward(model, x)
        assert a.tobytes() == b.tobytes()

    def test_constant_logits_with_zero_weights(self):
        model = init_model(mlp_cfg(dim=4), seed=0)
        dict(model.adapters())["block0.w"].w[:] = 0.0
        model.head_w[:] = 0.0
        model.head_b[:] = (0.25, -1.5)
        logits, _ = model_forward(model, np.random.default_rng(2).standard_normal((5, 4)))
        np.testing.assert_allclose(logits, np.tile([0.25, -1.5], (5, 1)), atol=1e-15)

    def test_mlp_composition_oracle(self):
        model = init_model(mlp_cfg(dim=4), seed=3)
        x = np.random.default_rng(4).standard_normal((6, 4))
        logits, feats = model_forward(model, x)
        w = dict(model.adapters())["block0.w"].effective_weight()
        h = np.tanh(x @ w.T)
        expect = h @ model.head_w.T + model.head_b
        np.testing.assert_allclose(feats, h, atol=1e-12)
        np.testing.assert_allclose(logits, expect, atol=1e-12)

    def test_attention_shapes_and_softmax_rows(self):
        model = init_model(attn_cfg(depth=2), seed=5)
        x = np.random.default_rng(6).standard_normal((12, 8))
        logits, feats = model_forward(model, x, train=True)
        assert logits.shape == (3, 2)
        assert feats.shape == (3, 8)
        for blk in model._cache["blocks"]:
            rows = blk["p"].sum(axis=-1)
            np.testing.assert_allclose(rows, 1.0, atol=1e-12)

    def test_batch_divisibility(self):
        model = init_model(attn_cfg(), seed=0)
        with pytest.raises(ValidationError):
            model_forward(model, np.zeros((6, 8)))

    def test_adapter_kind_equivalence_at_init(self):
        # frozen / svd / lora backbones agree before any training step
        base = init_model(mlp_cfg(dim=8, depth=2), seed=7)
        x = np.random.default_rng(8).standard_normal((10, 8))
        outs = {}
        for regime in ("linear_probe", "svd", "lora"):
            model = adapt_model(base, regime, 2, seed=9)
            outs[regime], _ = model_forward(model, x)
        scale = np.linalg.norm(outs["linear_probe"])
        assert np.linalg.norm(outs["svd"] - outs["linear_probe"]) <= 1e-8 * max(scale, 1.0)
        np.testing.assert_array_equal(outs["lora"], outs["linear_probe"])


class TestFunctionPreservation:
    """Every regime starts from the pretrained function: each adapted matrix's
    effective weight at init is the pretrained one, to criterion 3's 1e-8."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(REGIMES), st.sampled_from(["mlp", "attention"]),
           st.integers(4, 12), st.integers(1, 2), st.data())
    def test_effective_weights_at_init(self, regime, kind, dim, depth, data):
        rank = data.draw(st.integers(1, dim), label="rank")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        cfg = BackboneConfig(kind=kind, dim=dim, depth=depth, seq_len=1 if kind == "mlp" else 3)
        base = init_model(cfg, seed=seed)
        model = adapt_model(base, regime, rank, seed=seed + 1)
        before = base.stack.effective_weight()
        after = model.stack.effective_weight()
        assert after.shape == before.shape == (len(base.adapters()), dim, dim)
        err = np.linalg.norm(after - before, axis=(1, 2)) / np.linalg.norm(before, axis=(1, 2))
        assert err.max() <= 1e-8


class TestClsLoss:
    def test_uniform_logits(self):
        loss, real, fake = cls_loss(np.zeros((6, 2)), np.array([0, 1] * 3))
        assert abs(loss - math.log(2.0)) <= 1e-12
        assert abs(real - math.log(2.0)) <= 1e-12
        assert abs(fake - math.log(2.0)) <= 1e-12

    def test_saturated_correct(self):
        logits = np.array([[20.0, -20.0], [-20.0, 20.0]])
        loss, _, _ = cls_loss(logits, np.array([0, 1]))
        assert loss <= 1e-8

    def test_direct_oracle(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((16, 2))
        y = rng.integers(0, 2, size=16)
        loss, real, fake = cls_loss(logits, y)
        per = []
        for i in range(16):
            p = np.exp(logits[i]) / np.exp(logits[i]).sum()
            per.append(-np.log(p[y[i]]))
        per = np.array(per)
        assert abs(loss - per.mean()) <= 1e-12
        assert abs(real - per[y == 0].mean()) <= 1e-12
        assert abs(fake - per[y == 1].mean()) <= 1e-12

    @pytest.mark.parametrize("fn", [cls_loss, cls_loss_grad], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("logits,labels", [
        (np.zeros((2, 2)), [-1, 0]),
        (np.zeros((2, 2)), [2, 0]),
        (np.zeros((2, 2)), [0.0, 1.0]),
        (np.zeros((2, 2)), [0, 1, 0]),
        (np.zeros((0, 2)), np.zeros(0, dtype=int)),
    ], ids=["negative_label", "label_past_columns", "float_labels", "shape_mismatch",
            "empty_batch"])
    def test_rejects_bad_labels(self, fn, logits, labels):
        # both front-ends share one check; a label of -1 once indexed the
        # last column and one past the columns raised a bare IndexError
        with pytest.raises(ValidationError):
            fn(logits, labels)


class TestBackward:
    def loss_fn(self, model, x, y, lam1, lam2):
        logits, _ = model_forward(model, x, train=True)
        loss, _, _ = cls_loss(logits, y)
        if lam1 or lam2:
            orth, sv, _ = _regularizers(model, lam1, lam2)
            loss = loss + lam1 * orth + lam2 * sv
        return loss

    def gradcheck(self, cfg, lam1=0.0, lam2=0.0, batch=4, seed=0):
        model = init_model(cfg, seed=seed)
        if cfg.adapter_kind == "svd":
            base = init_model(BackboneConfig(kind=cfg.kind, dim=cfg.dim, depth=cfg.depth,
                                             seq_len=cfg.seq_len, adapter_kind="full"), seed=seed)
            model = adapt_model(base, "svd", cfg.rank, seed=seed)
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((batch * cfg.seq_len, cfg.dim))
        y = rng.integers(0, 2, size=batch)
        for arr in model.trainable().values():
            arr += 0.05 * rng.standard_normal(arr.shape)
        logits, _ = model_forward(model, x, train=True)
        grads = model_backward(model, cls_loss_grad(logits, y))
        if lam1 or lam2:
            _, _, reg = _regularizers(model, lam1, lam2)
            for k, g in reg.items():
                grads[k] = grads.get(k, 0.0) + g
        h = 1e-5
        worst = 0.0
        for name, arr in model.trainable().items():
            g = np.asarray(grads[name])
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                plus = self.loss_fn(model, x, y, lam1, lam2)
                arr[idx] = orig - h
                minus = self.loss_fn(model, x, y, lam1, lam2)
                arr[idx] = orig
                fd = (plus - minus) / (2 * h)
                ga = g[idx]
                if max(abs(fd), abs(ga)) < 1e-3:
                    assert abs(fd - ga) <= 1e-8
                else:
                    worst = max(worst, abs(fd - ga) / max(abs(fd), abs(ga)))
        assert worst <= 1e-5

    def test_mlp_full(self):
        self.gradcheck(mlp_cfg())

    def test_attention_full(self):
        self.gradcheck(attn_cfg())

    def test_mlp_svd_with_regularizers(self):
        self.gradcheck(mlp_cfg(adapter_kind="svd", rank=2), lam1=0.7, lam2=0.9)

    @pytest.mark.parametrize("regime", ["svd", "lora", "fft", "linear_probe"])
    def test_one_key_space(self, regime):
        # parameters, backward gradients and regularizer gradients share the
        # keys of model.trainable(), each gradient shaped like its parameter
        base = init_model(attn_cfg(depth=2), seed=7)
        model = adapt_model(base, regime, 2, seed=8)
        x = np.random.default_rng(9).standard_normal((8, 8))
        logits, _ = model_forward(model, x, train=True)
        params = model.trainable()
        grads = model_backward(model, cls_loss_grad(logits, np.array([0, 1])))
        assert grads.keys() == params.keys()
        assert all(g.shape == params[key].shape for key, g in grads.items())
        if regime == "svd":
            reg = _regularizers(model, 0.5, 0.5)[2]
            assert reg.keys() == params.keys() - {"head.w", "head.b"}
            assert all(g.shape == params[key].shape for key, g in reg.items())

    def test_zero_upstream(self):
        model = init_model(mlp_cfg(), seed=1)
        x = np.random.default_rng(2).standard_normal((4, 8))
        model_forward(model, x, train=True)
        grads = model_backward(model, np.zeros((4, 2)))
        for g in grads.values():
            assert np.abs(g).max() == 0.0

    def test_requires_cached_forward(self):
        model = init_model(mlp_cfg(), seed=3)
        with pytest.raises(StateError):
            model_backward(model, np.zeros((4, 2)))

    def test_gradient_flow_isolation(self):
        # an svd training step touches only residual factors and the head
        base = init_model(mlp_cfg(dim=8, depth=2), seed=4)
        model = adapt_model(base, "svd", 2, seed=5)
        frozen_before = {}
        for name, adapter in model.adapters():
            frozen_before[name] = (adapter.split.u_r.tobytes(), adapter.split.s_r.tobytes(),
                                   adapter.split.v_r.tobytes(), adapter._w_principal.tobytes())
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 8))
        y = rng.integers(0, 2, size=8)
        logits, _ = model_forward(model, x, train=True)
        grads = model_backward(model, cls_loss_grad(logits, y))
        from orthoadapt.experiment import adam_step
        adam_step(model.trainable(), grads, {}, lr=1e-2, t=1)
        for name, adapter in model.adapters():
            after = (adapter.split.u_r.tobytes(), adapter.split.s_r.tobytes(),
                     adapter.split.v_r.tobytes(), adapter._w_principal.tobytes())
            assert after == frozen_before[name]


def einsum_attention_forward(model, x):
    """The attention forward as the package wrote it before its products
    became 2-D GEMMs and matmuls: a per-group (g, L, n) @ (n, n) product per
    projection and an einsum for the scores and the context."""
    weights = model.stack.effective_weight()
    n, L = model.dim, model.seq_len
    h = x.reshape(x.shape[0] // L, L, n)
    blocks = []
    for b in range(model.cfg.depth):
        wq, wk, wv, wo = weights[4 * b:4 * b + 4]
        q, k, v = h @ wq.T, h @ wk.T, h @ wv.T
        scores = np.einsum("gid,gjd->gij", q, k) * (1.0 / math.sqrt(n))
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        ctx = np.einsum("gij,gjd->gid", p, v)
        blocks.append((h, q, k, v, p, ctx))
        h = h + ctx @ wo.T
    features = h.mean(axis=1)
    return features @ model.head_w.T + model.head_b, features, blocks


def einsum_attention_backward(model, dlog, features, blocks):
    """The matching einsum backward: the weight gradients of all m matrices,
    mapped to the adapter tensors as ``model_backward`` maps them."""
    weights = model.stack.effective_weight()
    n, L = model.dim, model.seq_len
    inv_sqrt = 1.0 / math.sqrt(n)
    dw = np.empty_like(weights)

    def flat(d_out, h_in):
        return d_out.reshape(-1, n).T @ h_in.reshape(-1, n)

    dh = np.repeat((dlog @ model.head_w)[:, None, :] / L, L, axis=1)
    for b in range(model.cfg.depth - 1, -1, -1):
        h_in, q, k, v, p, ctx = blocks[b]
        wq, wk, wv, wo = weights[4 * b:4 * b + 4]
        dctx = dh @ wo
        dw[4 * b + 3] = flat(dh, ctx)
        dp = np.einsum("gid,gjd->gij", dctx, v)
        dv = np.einsum("gij,gid->gjd", p, dctx)
        dscores = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        dq = np.einsum("gij,gjd->gid", dscores, k) * inv_sqrt
        dk = np.einsum("gij,gid->gjd", dscores, q) * inv_sqrt
        dw[4 * b], dw[4 * b + 1], dw[4 * b + 2] = flat(dq, h_in), flat(dk, h_in), flat(dv, h_in)
        dh = dh + dq @ wq + dk @ wk + dv @ wv
    return {**model.stack.weight_grad(dw), "head.w": dlog.T @ features,
            "head.b": dlog.sum(axis=0)}


class TestAttentionMatmul:
    """The attention products are 2-D GEMMs on flattened rows and matmuls on
    swapped axes; they round differently from the einsum forms they replaced
    by no more than 1e-12 relative, in the forward and in every gradient."""

    @staticmethod
    def rel(new, old):
        return np.abs(new - old).max() / max(np.abs(old).max(), 1e-300)

    @pytest.mark.parametrize("regime", ["svd", "lora", "fft"])
    @pytest.mark.parametrize("seq_len", [1, 4])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_matches_einsum_forms(self, depth, seq_len, regime):
        for seed in range(5):
            base = init_model(attn_cfg(dim=12, depth=depth, seq_len=seq_len), seed=seed)
            model = adapt_model(base, regime, 3, seed=seed + 1)
            rng = np.random.default_rng(50 + seed)
            for arr in model.trainable().values():
                arr += 0.1 * rng.standard_normal(arr.shape)
            x = rng.standard_normal((16 * seq_len, 12))
            y = rng.integers(0, 2, size=16)
            logits, features = model_forward(model, x, train=True)
            ref_logits, ref_features, blocks = einsum_attention_forward(model, x)
            assert self.rel(logits, ref_logits) <= 1e-12
            assert self.rel(features, ref_features) <= 1e-12
            dlog = cls_loss_grad(logits, y)
            grads = model_backward(model, dlog)
            ref = einsum_attention_backward(model, dlog, features, blocks)
            assert grads.keys() == ref.keys() == model.trainable().keys()
            for key, g in grads.items():
                assert g.shape == ref[key].shape
                assert self.rel(g, ref[key]) <= 1e-12, key


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = init_model(attn_cfg(depth=2), seed=8)
        x = np.random.default_rng(9).standard_normal((8, 8))
        before, _ = model_forward(model, x)
        save_model(model, tmp_path / "ck", extra={"note": 1})
        back, manifest = load_model(tmp_path / "ck")
        assert manifest["note"] == 1
        after, _ = model_forward(back, x)
        np.testing.assert_array_equal(before, after)

    def test_round_trip_bytes(self, tmp_path):
        model = init_model(mlp_cfg(depth=2, adapter_kind="svd", rank=2), seed=10)
        save_model(model, tmp_path / "a")
        back, _ = load_model(tmp_path / "a")
        save_model(back, tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    @pytest.mark.parametrize("kind", ["lora", "svd"])
    def test_loaded_tensors_take_adam_step(self, tmp_path, kind):
        # restored tensors are writable arrays, not views of a file's bytes
        save_model(init_model(mlp_cfg(adapter_kind=kind, rank=2), seed=11), tmp_path)
        model, _ = load_model(tmp_path)
        adapter = load_adapter(tmp_path / "adapters" / "block0.w")
        for params in (model.trainable(), adapter.trainable()):
            before = {key: p.copy() for key, p in params.items()}
            adam_step(params, {key: np.ones_like(p) for key, p in params.items()}, {},
                      lr=1e-2, t=1)
            for key, p in params.items():
                assert (p < before[key]).all(), key
