"""train() and pretrain() against a reference loop built from per-matrix code.

The reference is the plain per-tensor loop, kept here as test-local copies
of the per-adapter code the package used before its adapters were stacked:
each adapter's effective weight and weight gradient, a forward and a
backward pass that call them one matrix at a time, cls_loss and
cls_loss_grad as two softmaxes, the regularizers as one reg_terms per
adapter, and one adam_step over a dict with one entry per tensor. That
reg_terms takes the package's factor form: ||W_eff||^2 from the k x k Grams
and the r x k crosses C_u = U_r^T U and C_v = V_r^T V (W_p V = U_r S_r C_v),
and the gradient of U (or V) as one r x k right-hand side mapped back
through U_r (V_r) plus one k x k right-hand side through U (V);
``tests/test_adapters.py::TestFactorEnergy`` bounds its distance from the
dense W_eff form it replaced. train() and pretrain() stack the adapters,
fuse the loss with its gradient, keep every trainable tensor in one flat
buffer and take one adam_step per step;
only the grouping of the same IEEE operations differs, so the two must agree
bit for bit. The attention products take the package's own forms (2-D GEMMs
on flattened rows, matmuls on swapped axes);
``tests/test_model.py::TestAttentionMatmul`` bounds their distance from the
einsum forms they replaced.
"""

import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from orthoadapt.analysis import effective_rank
from orthoadapt.data import SyntheticSpec, gen_dataset
from orthoadapt.experiment import (
    ExperimentReport,
    PretrainConfig,
    TrainConfig,
    adam_step,
    binary_metrics,
    evaluate,
    pretrain,
    semantic_accuracy,
    semantic_shards,
    train,
)
from orthoadapt.model import BackboneConfig, adapt_model, init_model
from orthoadapt.seeding import substream


# ---- per-matrix reference code ----------------------------------------------

def ref_weight(a):
    if a.kind == "svd":
        return a._w_principal + (a.u * a.s) @ a.v.T
    if a.kind == "lora":
        return a.w0 + a.scale * (a.b @ a.a)
    return a.w


def ref_weight_grad(a, m):
    if a.kind == "svd":
        return {"u": m @ (a.v * a.s), "s": np.einsum("ik,ik->k", a.u, m @ a.v),
                "v": m.T @ (a.u * a.s)}
    if a.kind == "lora":
        return {"a": a.scale * (a.b.T @ m), "b": a.scale * (m @ a.a.T)}
    return {"w": m} if a.kind == "full" else {}


def ref_reg_terms(a, lambda1, lambda2):
    grads = {}
    orth = 0.0
    sv = 0.0
    sp, u, s, v = a.split, a.u, a.s, a.v
    c_u, c_v = sp.u_r.T @ u, sp.v_r.T @ v
    gram_u, gram_v = u.T @ u, v.T @ v
    rhs_u = rhs_v = own_u = own_v = 0.0
    if lambda1 > 0:
        orth = sum(np.sum(g * g) for g in (f.T @ f - np.eye(sp.r) for f in (sp.u_r, sp.v_r)))
        dev_u, dev_v = gram_u - np.eye(u.shape[1]), gram_v - np.eye(v.shape[1])
        for cross, dev in ((c_u, dev_u), (c_v, dev_v)):
            orth += 2.0 * (cross * cross).sum() + (dev * dev).sum()
        orth = float(orth)
        rhs_u, rhs_v = 4.0 * lambda1 * c_u, 4.0 * lambda1 * c_v
        own_u, own_v = 4.0 * lambda1 * dev_u, 4.0 * lambda1 * dev_v
    if lambda2 > 0:
        # ||W_eff||^2 and its gradients from the factors, W_eff = W_p + U S V^T
        # with W_p = U_r S_r V_r^T: W_p V = U_r S_r C_v, W_p^T U = V_r S_r C_u
        sg_u, sg_v = s[:, None] * gram_u, s[:, None] * gram_v
        cross = (sp.s_r[None, :] @ (c_u * c_v))[0]
        full = cross + (gram_u * sg_v).sum(axis=0)
        w_p = a._w_principal
        drift = float((w_p * w_p).sum()) + float((s * (cross + full)).sum()) - a.frozen_frob_sq
        sv = abs(drift)
        sign = 0.0 if drift == 0.0 else (1.0 if drift > 0 else -1.0)
        c = 2.0 * sign * lambda2
        scs = sp.s_r[:, None] * (c * s)
        rhs_u, rhs_v = rhs_u + c_v * scs, rhs_v + c_u * scs
        own_u, own_v = own_u + sg_v * (c * s), own_v + sg_u * (c * s)
        grads["s"] = c * full
    if lambda1 > 0 or lambda2 > 0:
        # one r x k right-hand side through U_r or V_r, one k x k through U or V
        grads["u"] = sp.u_r @ rhs_u + u @ own_u
        grads["v"] = sp.v_r @ rhs_v + v @ own_v
    return orth, sv, grads


def ref_regularizers(model, lambda1, lambda2):
    adapters = model.adapters()
    m = len(adapters)
    orth_mean = 0.0
    sv_mean = 0.0
    grads = {}
    for name, adapter in adapters:
        orth, sv, g = ref_reg_terms(adapter, lambda1 / m, lambda2 / m)
        orth_mean += orth / m
        sv_mean += sv / m
        for key, arr in g.items():
            grads[f"{name}.{key}"] = arr
    return orth_mean, sv_mean, grads


def ref_softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def ref_cls_loss(z, y):
    shifted = z - z.max(axis=1, keepdims=True)
    per_sample = np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(z.shape[0]), y]
    real = float(per_sample[y == 0].mean()) if (y == 0).any() else float("nan")
    fake = float(per_sample[y == 1].mean()) if (y == 1).any() else float("nan")
    return float(per_sample.mean()), real, fake


def ref_cls_loss_grad(z, y):
    p = ref_softmax(z)
    p[np.arange(z.shape[0]), y] -= 1.0
    return p / z.shape[0]


def named_params(model):
    """Name -> live array, one entry per tensor ("block0.q.u", ...,
    "head.w", "head.b"): the keys of the per-tensor adam_step."""
    params = {f"{name}.{key}": p
              for name, a in model.adapters() for key, p in a.trainable().items()}
    return {**params, "head.w": model.head_w, "head.b": model.head_b}


def rows(h, w):
    """h @ w for a (groups, L, n) stack, as one 2-D GEMM on its flat rows."""
    return (h.reshape(-1, h.shape[-1]) @ w).reshape(h.shape[:-1] + w.shape[-1:])


def ref_forward(model, x):
    """Logits of a training forward; returns the cache for ref_backward."""
    layers = {name: a for name, a in model.adapters()}
    weights = {name: ref_weight(a) for name, a in layers.items()}
    blocks = []
    n, L = model.dim, model.seq_len
    if model.cfg.kind == "mlp":
        h = x
        for b in range(model.cfg.depth):
            h_new = np.tanh(h @ weights[f"block{b}.w"].T)
            blocks.append({"h_in": h, "h_out": h_new})
            h = h_new
        features = h
    else:
        h = x.reshape(x.shape[0] // L, L, n)
        for b in range(model.cfg.depth):
            wq, wk, wv, wo = (weights[f"block{b}.{k}"] for k in ("q", "k", "v", "out"))
            q, k, v = rows(h, wq.T), rows(h, wk.T), rows(h, wv.T)
            p = ref_softmax((q @ k.swapaxes(1, 2)) * (1.0 / math.sqrt(n)))
            ctx = p @ v
            blocks.append({"h_in": h, "q": q, "k": k, "v": v, "p": p, "ctx": ctx})
            h = h + rows(ctx, wo.T)
        features = h.mean(axis=1)
    logits = features @ model.head_w.T + model.head_b
    return logits, {"blocks": blocks, "weights": weights, "features": features}


def ref_backward(model, cache, dlog):
    layers = dict(model.adapters())
    weights, features = cache["weights"], cache["features"]
    grads = {"head.w": dlog.T @ features, "head.b": dlog.sum(axis=0)}

    def put(name, m):
        for key, g in ref_weight_grad(layers[name], m).items():
            grads[f"{name}.{key}"] = g

    def flat(d_out, h_in):
        n = d_out.shape[-1]
        return d_out.reshape(-1, n).T @ h_in.reshape(-1, n)

    dfeat = dlog @ model.head_w
    n, L = model.dim, model.seq_len
    if model.cfg.kind == "mlp":
        dh = dfeat
        for b in range(model.cfg.depth - 1, -1, -1):
            blk = cache["blocks"][b]
            dz = dh * (1.0 - blk["h_out"] ** 2)
            put(f"block{b}.w", dz.T @ blk["h_in"])
            dh = dz @ weights[f"block{b}.w"]
    else:
        inv_sqrt = 1.0 / math.sqrt(n)
        dh = np.repeat(dfeat[:, None, :] / L, L, axis=1)
        for b in range(model.cfg.depth - 1, -1, -1):
            h_in, q, k, v, p, ctx = (cache["blocks"][b][key]
                                     for key in ("h_in", "q", "k", "v", "p", "ctx"))
            dctx = rows(dh, weights[f"block{b}.out"])
            put(f"block{b}.out", flat(dh, ctx))
            dp = dctx @ v.swapaxes(1, 2)
            dv = p.swapaxes(1, 2) @ dctx
            dscores = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
            dq = (dscores @ k) * inv_sqrt
            dk = (dscores.swapaxes(1, 2) @ q) * inv_sqrt
            put(f"block{b}.q", flat(dq, h_in))
            put(f"block{b}.k", flat(dk, h_in))
            put(f"block{b}.v", flat(dv, h_in))
            dh = (dh + rows(dq, weights[f"block{b}.q"]) + rows(dk, weights[f"block{b}.k"])
                  + rows(dv, weights[f"block{b}.v"]))
    return grads


SPEC = SyntheticSpec(dim=12, clusters=3, samples_per_split=64, seed=5)
BACKBONES = {
    "mlp": BackboneConfig(kind="mlp", dim=12, depth=2, seq_len=1),
    "attention": BackboneConfig(kind="attention", dim=12, depth=2, seq_len=2),
}
PRETRAIN = PretrainConfig(lr=3e-3, max_iters=60, eval_every=20, target_accuracy=2.0,
                          min_accuracy=0.0, seed=5)
REGIMES = {
    "fft": dict(regime="fft", rank=1, lambda1=0.0, lambda2=0.0),
    "svd": dict(regime="svd", rank=3, lambda1=0.03, lambda2=0.01),
    "svd_only": dict(regime="svd", rank=3, lambda1=0.0, lambda2=0.0),
    "lora": dict(regime="lora", rank=3, lambda1=0.0, lambda2=0.0),
    "linear_probe": dict(regime="linear_probe", rank=1, lambda1=0.0, lambda2=0.0),
}


def sample_batch(rng, ds, batch):
    idx = rng.integers(0, ds.groups, size=batch)
    return ds.x[ds.group_rows(idx)], ds.y[idx]


def reference_train(model, dataset, cfg, eval_sets, rank_set, rank_threshold=0.9):
    report = ExperimentReport(config=asdict(cfg))
    report.rank_threshold = rank_threshold
    report.trainable_params = model.count_trainable()
    report.rank_before = effective_rank(evaluate(model, rank_set)[1],
                                        rank_threshold).effective_rank
    params = named_params(model)
    state = {}
    rng = substream(cfg.seed, "batches")
    for t in range(1, cfg.iters + 1):
        x, y = sample_batch(rng, dataset, cfg.batch)
        logits, cache = ref_forward(model, x)
        loss, real, fake = ref_cls_loss(logits, y)
        if cfg.regime == "svd":
            orth, sv, reg_grads = ref_regularizers(model, cfg.lambda1, cfg.lambda2)
        else:
            orth, sv, reg_grads = 0.0, 0.0, {}
        report.iters.append(t - 1)
        report.total_loss.append(loss + cfg.lambda1 * orth + cfg.lambda2 * sv)
        report.real_loss.append(real)
        report.fake_loss.append(fake)
        report.orth_loss.append(orth)
        report.sv_loss.append(sv)
        grads = ref_backward(model, cache, ref_cls_loss_grad(logits, y))
        for key, g in reg_grads.items():
            grads[key] = grads.get(key, 0.0) + g
        adam_step(params, grads, state, cfg.lr, t=t)
    for name, ds in eval_sets.items():
        report.final_metrics[name] = binary_metrics(model, ds)
    report.rank_after = effective_rank(evaluate(model, rank_set)[1],
                                       rank_threshold).effective_rank
    return report


def reference_pretrain(backbone, spec, cfg):
    bb = replace(backbone, adapter_kind="full")
    train_ds, eval_ds = semantic_shards(spec, bb.seq_len)
    model = init_model(bb, cfg.seed, head_dim=spec.clusters)
    params = named_params(model)
    state = {}
    rng = substream(cfg.seed, "pretrain-batches")
    losses, acc_trace = [], []
    for t in range(1, cfg.max_iters + 1):
        x, y = sample_batch(rng, train_ds, cfg.batch)
        logits, cache = ref_forward(model, x)
        losses.append(ref_cls_loss(logits, y)[0])
        adam_step(params, ref_backward(model, cache, ref_cls_loss_grad(logits, y)), state,
                  cfg.lr, t=t)
        if t % cfg.eval_every == 0:
            acc_trace.append((t, semantic_accuracy(model, eval_ds)))
    # target_accuracy is out of reach, so the run ends at the cap, which is
    # evaluated once: by the loop above if it is a multiple of eval_every
    if cfg.max_iters % cfg.eval_every:
        acc_trace.append((cfg.max_iters, semantic_accuracy(model, eval_ds)))
    return model, losses, acc_trace


def tensor_bytes(model):
    return {name: p.tobytes() for name, p in model.trainable().items()}


@pytest.fixture(scope="module", params=sorted(BACKBONES))
def pretrained(request):
    return pretrain(BACKBONES[request.param], SPEC, PRETRAIN)


@pytest.mark.parametrize("kind", sorted(BACKBONES))
def test_pretrain_matches_reference(kind):
    result = pretrain(BACKBONES[kind], SPEC, PRETRAIN)
    model, losses, acc_trace = reference_pretrain(BACKBONES[kind], SPEC, PRETRAIN)
    assert result.iterations == PRETRAIN.max_iters
    assert result.loss_trace == losses
    assert result.accuracy_trace == acc_trace
    assert result.accuracy == acc_trace[-1][1]
    assert tensor_bytes(result.model) == tensor_bytes(model)


@pytest.mark.parametrize("tag", sorted(REGIMES))
def test_train_matches_reference(pretrained, tag):
    seq_len = pretrained.model.seq_len
    cfg = TrainConfig(lr=1e-3, batch=8, iters=40, seed=11, **REGIMES[tag])
    dataset = gen_dataset(SPEC, "finetune_train", seq_len)
    eval_sets = {name: gen_dataset(SPEC, f"finetune_test_{name}", seq_len)
                 for name in ("seen", "unseen")}
    rank_set = semantic_shards(SPEC, seq_len)[1]
    start, fast_model, ref_model = (
        adapt_model(pretrained.model, cfg.regime, cfg.rank, cfg.seed) for _ in range(3))
    fast = train(fast_model, dataset, cfg, eval_sets=eval_sets, rank_set=rank_set)
    ref = reference_train(ref_model, dataset, cfg, eval_sets, rank_set)
    assert fast.error is None
    assert fast.trace_csv() == ref.trace_csv()
    assert fast.summary() == ref.summary()
    assert tensor_bytes(fast_model) == tensor_bytes(ref_model)
    assert tensor_bytes(fast_model) != tensor_bytes(start)
