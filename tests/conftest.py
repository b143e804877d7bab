"""Shared fixtures.

The acceptance experiments (five seeded worlds x four fine-tuning regimes at
the default desk-scale recipe) are expensive, so they are built once per
session and shared by the analysis and acceptance tests. Everything is
deterministic: a world seed s drives the synthetic data and pretraining, and
the fine-tuning stream uses seed 100 + s. Each world depends on its seed
alone, so the worlds are built in parallel worker processes, one per CPU
up to five.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from orthoadapt.analysis import logit_line_fit
from orthoadapt.data import SyntheticSpec
from orthoadapt.experiment import (
    PretrainConfig,
    TrainConfig,
    evaluate,
    finetune_run,
    pretrain,
    semantic_shards,
)
from orthoadapt.model import BackboneConfig

ACCEPTANCE_SEEDS = (0, 1, 2, 4, 7)
FINETUNE_ITERS = 20000

REGIMES = {
    "fft": dict(regime="fft", rank=1, lambda1=0.0, lambda2=0.0),
    "svd": dict(regime="svd", rank=4, lambda1=0.03, lambda2=0.01),
    "svd_only": dict(regime="svd", rank=4, lambda1=0.0, lambda2=0.0),
    "lora": dict(regime="lora", rank=4, lambda1=0.0, lambda2=0.0),
}


def run_world(seed):
    """Pretrain one world and fine-tune it under every regime."""
    spec = SyntheticSpec(seed=seed)
    backbone = BackboneConfig(kind="mlp", dim=32, depth=2, seq_len=1)
    pre = pretrain(backbone, spec, PretrainConfig(seed=seed))
    semantic_eval = semantic_shards(spec, 1)[1]
    world = {"spec": spec, "pretrain_accuracy": pre.accuracy, "runs": {}}
    for tag, kwargs in REGIMES.items():
        cfg = TrainConfig(iters=FINETUNE_ITERS, seed=100 + seed, **kwargs)
        model, report = finetune_run(pre.model, spec, cfg)
        logits, _, _ = evaluate(model, semantic_eval)
        world["runs"][tag] = {
            "report": report,
            "collapse": logit_line_fit(logits),
            "semantic_logit_std": float(np.std(logits[:, 1])),
        }
    return world


@pytest.fixture(scope="session")
def experiment_bundle():
    workers = min(len(ACCEPTANCE_SEEDS), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return dict(zip(ACCEPTANCE_SEEDS, pool.map(run_world, ACCEPTANCE_SEEDS)))
