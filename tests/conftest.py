"""Shared fixtures.

The acceptance experiments (five seeded worlds x four fine-tuning regimes at
the default desk-scale recipe) are expensive, so they are built once per
session and shared by the analysis and acceptance tests. Everything is
deterministic: a world seed s drives the synthetic data and pretraining, and
the fine-tuning stream uses seed 100 + s. Each (world, regime) cell depends
on its seed and regime alone, so the 20 cells run in parallel worker
processes, one per CPU up to 20; each pretrains its world again, which costs
far less than its fine-tuning run.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from orthoadapt import adapters, linalg
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


def run_cell(seed, tag):
    """Pretrain world ``seed`` and fine-tune it under regime ``tag``; returns
    the world's spec, its pretraining accuracy and the cell's run."""
    spec = SyntheticSpec(seed=seed)
    backbone = BackboneConfig(kind="mlp", dim=32, depth=2, seq_len=1)
    pre = pretrain(backbone, spec, PretrainConfig(seed=seed))
    cfg = TrainConfig(iters=FINETUNE_ITERS, seed=100 + seed, **REGIMES[tag])
    model, report = finetune_run(pre.model, spec, cfg)
    logits, _, _ = evaluate(model, semantic_shards(spec, 1)[1])
    return spec, pre.accuracy, {
        "report": report,
        "collapse": logit_line_fit(logits),
        "semantic_logit_std": float(np.std(logits[:, 1])),
    }


@pytest.fixture(scope="session")
def experiment_bundle():
    """World seed -> {"spec", "pretrain_accuracy", "runs": regime -> run}."""
    cells = [(seed, tag) for seed in ACCEPTANCE_SEEDS for tag in REGIMES]
    workers = min(len(cells), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        results = pool.map(run_cell, *zip(*cells))
        bundle = {}
        for (seed, tag), (spec, accuracy, run) in zip(cells, results):
            world = bundle.setdefault(seed, {"spec": spec, "pretrain_accuracy": accuracy,
                                             "runs": {}})
            world["runs"][tag] = run
    return bundle


@pytest.fixture()
def svd_inputs(monkeypatch):
    """The bytes of every weight an adapter passes to ``linalg.svd``, through
    the name ``adapters`` binds."""
    inputs = []

    def counting(m, label="matrix"):
        inputs.append(np.asarray(m).tobytes())
        return linalg.svd(m, label)

    monkeypatch.setattr(adapters, "svd", counting)
    return inputs
