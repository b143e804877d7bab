"""train() and pretrain() against the per-matrix reference loop of
``test_train_reference``, at the shapes the benchmark workloads train.

That file's runs are 40 steps at dim 12 and batch 8. These are 70 steps at
dim 32 and batch 32, so a run crosses a block of batch indices drawn for many
steps at once, and its GEMMs have the 32- and 128-row operands whose rounding
depends on how the operands are laid out: attention at seq_len 4 and mlp.
"""

from dataclasses import replace

import pytest

from orthoadapt.data import SyntheticSpec, gen_dataset
from orthoadapt.experiment import PretrainConfig, TrainConfig, pretrain, semantic_shards, train
from orthoadapt.model import BackboneConfig, adapt_model
from test_train_reference import (
    REGIMES,
    reference_pretrain,
    reference_train,
    tensor_bytes,
)

STEPS = 70
SPEC = SyntheticSpec(dim=32, clusters=4, samples_per_split=96, seed=3)
BACKBONES = {
    "mlp": BackboneConfig(kind="mlp", dim=32, depth=2, seq_len=1),
    "attention": BackboneConfig(kind="attention", dim=32, depth=2, seq_len=4),
}
PRETRAIN = PretrainConfig(lr=3e-3, batch=32, max_iters=STEPS, eval_every=35,
                          target_accuracy=2.0, min_accuracy=0.0, seed=3)


@pytest.fixture(scope="module", params=sorted(BACKBONES))
def pretrained(request):
    """(kind, pretrain result), checked against the reference pretraining."""
    kind = request.param
    result = pretrain(BACKBONES[kind], SPEC, PRETRAIN)
    model, losses, acc_trace = reference_pretrain(BACKBONES[kind], SPEC, PRETRAIN)
    return kind, result, (model, losses, acc_trace)


def test_pretrain_matches_reference(pretrained):
    _, result, (model, losses, acc_trace) = pretrained
    assert result.iterations == STEPS
    assert result.loss_trace == losses
    assert result.accuracy_trace == acc_trace
    assert tensor_bytes(result.model) == tensor_bytes(model)


@pytest.mark.parametrize("tag", sorted(REGIMES))
def test_train_matches_reference(pretrained, tag):
    _, result, _ = pretrained
    seq_len = result.model.seq_len
    cfg = replace(TrainConfig(lr=1e-3, batch=32, iters=STEPS, seed=13), **REGIMES[tag])
    dataset = gen_dataset(SPEC, "finetune_train", seq_len)
    eval_sets = {name: gen_dataset(SPEC, f"finetune_test_{name}", seq_len)
                 for name in ("seen", "unseen")}
    rank_set = semantic_shards(SPEC, seq_len)[1]
    fast_model, ref_model = (adapt_model(result.model, cfg.regime, cfg.rank, cfg.seed)
                             for _ in range(2))
    fast = train(fast_model, dataset, cfg, eval_sets=eval_sets, rank_set=rank_set)
    ref = reference_train(ref_model, dataset, cfg, eval_sets, rank_set)
    assert fast.error is None
    assert len(fast.iters) == STEPS
    assert fast.trace_csv() == ref.trace_csv()
    assert fast.summary() == ref.summary()
    assert tensor_bytes(fast_model) == tensor_bytes(ref_model)
