"""train() and pretrain() against a reference loop built from public pieces.

The reference is the plain per-tensor loop: model_forward, cls_loss,
_regularizers (each adapter recomputing its effective weight), model_backward
and one adam_step over a dict with one entry per tensor. train() and
pretrain() keep every trainable tensor in one flat buffer, take one adam_step
per step and reuse the forward's effective weights; only IEEE elementwise
operations differ in grouping, so the two must agree bit for bit.
"""

from dataclasses import asdict, replace

import pytest

from orthoadapt.analysis import effective_rank
from orthoadapt.data import SyntheticSpec, gen_dataset
from orthoadapt.experiment import (
    ExperimentReport,
    PretrainConfig,
    TrainConfig,
    _regularizers,
    adam_step,
    binary_metrics,
    evaluate,
    pretrain,
    semantic_accuracy,
    semantic_shards,
    train,
)
from orthoadapt.model import (
    BackboneConfig,
    adapt_model,
    cls_loss,
    cls_loss_grad,
    init_model,
    model_backward,
    model_forward,
)
from orthoadapt.seeding import substream

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
    params = model.trainable()
    state = {}
    rng = substream(cfg.seed, "batches")
    for t in range(1, cfg.iters + 1):
        x, y = sample_batch(rng, dataset, cfg.batch)
        logits, _ = model_forward(model, x, train=True)
        loss, real, fake = cls_loss(logits, y)
        if cfg.regime == "svd":
            orth, sv, reg_grads = _regularizers(model, cfg.lambda1, cfg.lambda2)
        else:
            orth, sv, reg_grads = 0.0, 0.0, {}
        report.iters.append(t - 1)
        report.total_loss.append(loss + cfg.lambda1 * orth + cfg.lambda2 * sv)
        report.real_loss.append(real)
        report.fake_loss.append(fake)
        report.orth_loss.append(orth)
        report.sv_loss.append(sv)
        grads = model_backward(model, cls_loss_grad(logits, y))
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
    params = model.trainable()
    state = {}
    rng = substream(cfg.seed, "pretrain-batches")
    losses, acc_trace = [], []
    for t in range(1, cfg.max_iters + 1):
        x, y = sample_batch(rng, train_ds, cfg.batch)
        logits, _ = model_forward(model, x, train=True)
        losses.append(cls_loss(logits, y)[0])
        adam_step(params, model_backward(model, cls_loss_grad(logits, y)), state, cfg.lr, t=t)
        if t % cfg.eval_every == 0:
            acc_trace.append((t, semantic_accuracy(model, eval_ds)))
    # target_accuracy is out of reach, so the run ends at the cap with one
    # more evaluation
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
    assert fast.summary_json() == ref.summary_json()
    assert tensor_bytes(fast_model) == tensor_bytes(ref_model)
    assert tensor_bytes(fast_model) != tensor_bytes(start)
