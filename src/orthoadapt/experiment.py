"""Training loops, optimizer, metrics, and the rank-sweep harness.

The fine-tuning loop minimizes the classification loss plus
lambda1 * mean(orthogonality loss) + lambda2 * mean(spectral-energy loss),
the means running over the adapted weight matrices; both regularizer terms
are defined as 0 for non-svd regimes. Every run is deterministic given its
config and seed.
"""

from __future__ import annotations

from array import array
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .analysis import effective_rank
from .data import Dataset, SyntheticSpec, gen_dataset
from .emx import csv_text
from .errors import (
    ConfigError,
    NumericalError,
    PretrainingFailure,
    ValidationError,
    check_field_types,
)
from .linalg import check_matrix
from .model import (
    _REGIME_TO_KIND,
    REGIMES,
    BackboneConfig,
    ToyModel,
    _forward,
    _softmax,
    adapt_model,
    cls_loss_and_grad,
    init_model,
    model_backward,
    model_forward,
)
from .adapters import RegularizerWeights
from .seeding import derive_seed, substream


@dataclass
class TrainConfig:
    lr: float = 2e-4
    batch: int = 32
    iters: int = 20000
    lambda1: float = 0.03
    lambda2: float = 0.01
    regime: str = "svd"
    rank: int = 4
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.lr < 0:
            raise ConfigError("lr must be non-negative")
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        if self.iters < 0:
            raise ConfigError("iters must be >= 0")
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}")
        RegularizerWeights(self.lambda1, self.lambda2)


@dataclass
class PretrainConfig:
    lr: float = 1e-3
    batch: int = 32
    max_iters: int = 3000
    eval_every: int = 50
    target_accuracy: float = 0.95
    min_accuracy: float = 0.6
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.lr < 0:
            raise ConfigError("lr must be non-negative")
        if self.batch < 1 or self.eval_every < 1:
            raise ConfigError("batch and eval_every must be >= 1")
        if self.max_iters < 0:
            raise ConfigError("max_iters must be >= 0")


RANK_THRESHOLD = 0.9  # variance fraction of the semantic-feature effective-rank probe
RANK_PROBE_HELD_OUT = 2  # held-out pretraining samples the rank probe's PCA needs


@dataclass
class ExperimentReport:
    """Per-iteration traces plus final metrics for one training run.

    The traces (one entry per step) are ``array``s, not lists: as lists of
    float objects, the traces of a 20 000-step run make each garbage-collector
    pass that meets them take milliseconds."""

    config: dict
    iters: array = field(default_factory=lambda: array("q"))
    total_loss: array = field(default_factory=lambda: array("d"))
    real_loss: array = field(default_factory=lambda: array("d"))
    fake_loss: array = field(default_factory=lambda: array("d"))
    orth_loss: array = field(default_factory=lambda: array("d"))
    sv_loss: array = field(default_factory=lambda: array("d"))
    final_metrics: dict = field(default_factory=dict)
    rank_before: int = None
    rank_after: int = None
    trainable_params: int = 0
    error: str = None

    def trace_csv(self):
        return csv_text(["iter", "total_loss", "real_loss", "fake_loss", "orth_loss", "sv_loss"],
                        zip(self.iters, self.total_loss, self.real_loss,
                            self.fake_loss, self.orth_loss, self.sv_loss))

    def summary(self):
        return {
            "config": self.config,
            "final_metrics": self.final_metrics,
            "rank_before": self.rank_before,
            "rank_after": self.rank_after,
            "rank_threshold": RANK_THRESHOLD,
            "trainable_params": self.trainable_params,
            "iterations": len(self.iters),
            "error": self.error,
        }


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params, grads, state, lr, t=1):
    """One Adam update, in place, with ``ADAM_BETA1``, ``ADAM_BETA2`` and
    ``ADAM_EPS``. ``grads`` holds one gradient per name of ``params``; a
    missing one raises ValidationError naming it, before any update.
    ``state`` maps names to (m, v) moment pairs and is created lazily."""
    if t < 1:
        raise ValidationError("adam_step needs t >= 1")
    for name in params:
        if name not in grads:
            raise ValidationError(f"adam_step has no gradient for {name!r}")
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ValidationError(f"gradient shape mismatch for {name}")
        if not np.logical_and.reduce(np.isfinite(g), axis=None):
            raise NumericalError(f"non-finite gradient for {name}")
        if name not in state:
            state[name] = (np.zeros_like(p), np.zeros_like(p))
        m, v = state[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state


def roc_auc(scores, labels):
    """P(score of a random positive > score of a random negative), ties at 1/2.

    Computed as the normalized Mann-Whitney U from average ranks.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValidationError("scores and labels must be matching 1-D arrays")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("roc_auc needs both classes present")
    # tied scores share the mean of the 1-based positions start+1 .. end
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True, equal_nan=False)
    end = np.cumsum(counts)
    start = end - counts
    ranks = (0.5 * ((start + 1) + end))[inverse]
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def accuracy_at_half(probabilities, labels):
    """Fraction of samples where (p >= 0.5) matches the label."""
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels)
    if p.shape != y.shape or p.ndim != 1:
        raise ValidationError("probabilities and labels must be matching 1-D arrays")
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValidationError("probabilities must lie in [0, 1]")
    return float(((p >= 0.5).astype(np.int64) == y).mean())


def evaluate(model: ToyModel, ds: Dataset):
    """Inference pass: returns (logits, features, fake probabilities)."""
    logits, features = model_forward(model, ds.x, train=False)
    return logits, features, _softmax(logits)[:, 1]


def binary_metrics(model, ds):
    logits, _, probs = evaluate(model, ds)
    return {"auc": roc_auc(probs, ds.y), "accuracy": accuracy_at_half(probs, ds.y)}


def _sample_batch(rng, ds: Dataset, batch):
    idx = rng.integers(0, ds.groups, size=batch)
    dim = ds.x.shape[1]
    x = ds.x.reshape(ds.groups, ds.seq_len, dim).take(idx, axis=0).reshape(-1, dim)
    return x, ds.y.take(idx)


def _check_dataset(model: ToyModel, ds: Dataset, label):
    """Validate once what each training step would otherwise check per
    batch: finite rows of the model's width, grouped by its seq_len, and one
    label per group that indexes a head output."""
    x = check_matrix(ds.x, f"{label} x")
    if x.shape[1] != model.dim:
        raise ValidationError(f"{label} has {x.shape[1]} columns, model expects {model.dim}")
    if ds.seq_len != model.seq_len:
        raise ValidationError(f"{label} seq_len {ds.seq_len} differs from the model's "
                              f"{model.seq_len}")
    y = np.asarray(ds.y)
    if y.shape != (x.shape[0] // ds.seq_len,) or x.shape[0] % ds.seq_len or y.size == 0:
        raise ValidationError(f"{label} needs one label per group of {ds.seq_len} rows")
    if y.dtype.kind not in "iu" or y.min() < 0 or y.max() >= model.head_dim:
        raise ValidationError(f"{label} labels out of range for {model.head_dim} head outputs")


def _mean_over(values, m):
    """sum of values[i] / m, accumulated left to right in Python floats."""
    total = 0.0
    for v in (values / m).tolist():
        total += v
    return total


def _regularizers(model, lambda1, lambda2):
    """(orth_mean, sv_mean, gradients keyed like ``model.trainable()``) with
    the 1/m averaging over the adapted matrices: one ``reg_terms`` call on the
    model's stacked svd adapter serves all m. Only meaningful for svd adapters."""
    m = len(model.stack.members)
    orth, sv, grads = model.stack.reg_terms(lambda1 / m, lambda2 / m)
    return _mean_over(orth, m), _mean_over(sv, m), grads


def _views(buffer, like):
    """Name -> view into ``buffer``, one per array of ``like``, back to back."""
    views = {}
    offset = 0
    for name, a in like.items():
        views[name] = buffer[offset:offset + a.size].reshape(a.shape)
        offset += a.size
    return views


class _Trainer:
    """The training step that ``train`` and ``pretrain`` share, for one run.

    Every trainable tensor of ``model`` becomes a view into one float64
    buffer, laid out key by key of ``model.trainable()``; its gradients go
    into the matching views of a second one, and one elementwise ``adam_step``
    updates all tensors with the bits of one call per tensor. ``lambdas`` is
    (lambda1, lambda2) for an svd model with a weight above 0, else None: with
    both weights 0 the regularizers add 0.0 to the loss and no gradient."""

    def __init__(self, model: ToyModel, dataset: Dataset, label, rng, batch, lambdas=None):
        _check_dataset(model, dataset, label)
        params = model.trainable()
        self.flat = np.concatenate([p.ravel() for p in params.values()])
        self.grad = np.zeros_like(self.flat)
        model.bind_trainable(_views(self.flat, params))
        self.grads = _views(self.grad, params)
        self.model, self.dataset, self.rng, self.batch, self.lambdas = (
            model, dataset, rng, batch, lambdas)
        self._state = {}

    def step(self, t, lr, report: ExperimentReport):
        """Step ``t`` (from 1): sample a batch, append its losses to the traces
        of ``report`` and, only if the total loss is finite (the return value),
        take one Adam step. NumericalError on non-finite activations, or
        naming the first non-finite gradient tensor before any update."""
        model = self.model
        x, y = _sample_batch(self.rng, self.dataset, self.batch)
        logits, _ = _forward(model, x, train=True)
        loss, real, fake, dlogits = cls_loss_and_grad(logits, y)
        lambda1, lambda2 = self.lambdas or (0.0, 0.0)
        orth, sv, reg_grads = _regularizers(model, *self.lambdas) if self.lambdas else (0.0, 0.0, {})
        total = loss + lambda1 * orth + lambda2 * sv
        report.iters.append(t - 1)
        report.total_loss.append(total)
        report.real_loss.append(real)
        report.fake_loss.append(fake)
        report.orth_loss.append(orth)
        report.sv_loss.append(sv)
        if not np.isfinite(total):
            return False

        grads = model_backward(model, dlogits)
        for key, view in self.grads.items():
            view[...] = grads[key]
            if key in reg_grads:
                view += reg_grads[key]
        try:
            adam_step({"params": self.flat}, {"params": self.grad}, self._state, lr, t=t)
        except NumericalError:
            key, g = next((k, g) for k, g in self.grads.items() if not np.isfinite(g).all())
            if not key.startswith("head."):  # name the first non-finite row
                row = np.argmin(np.isfinite(g).reshape(len(g), -1).all(axis=1))
                key = f"{model.adapters()[row][0]}.{key}"
            raise NumericalError(f"non-finite gradient for {key}") from None
        return True


def train(model: ToyModel, dataset: Dataset, cfg: TrainConfig, eval_sets=None, rank_set=None):
    """Fine-tune ``model`` on ``dataset`` and report traces and final metrics.

    ``eval_sets`` maps names to binary datasets scored with AUC/accuracy after
    training; ``rank_set`` supplies features for the effective-rank probe at
    ``RANK_THRESHOLD`` before and after. Divergence (a non-finite loss, or a
    NumericalError from non-finite activations or gradients) ends the run with
    the partial report and an error flag instead of raising; after it, a final
    metric that cannot be computed from the diverged weights is left out. A
    NumericalError in the final metrics (features or their covariance not
    finite) also counts as divergence.
    """
    if model.stack.kind != _REGIME_TO_KIND[cfg.regime]:
        raise ValidationError(f"model adapters are {model.stack.kind!r}, which does not match "
                              f"regime {cfg.regime!r}")

    report = ExperimentReport(config=asdict(cfg))
    report.trainable_params = model.count_trainable()
    if rank_set is not None:
        _, feats, _ = evaluate(model, rank_set)
        report.rank_before = effective_rank(feats, RANK_THRESHOLD).effective_rank

    lambdas = (cfg.lambda1, cfg.lambda2)
    trainer = _Trainer(model, dataset, "training set", substream(cfg.seed, "batches"),
                       cfg.batch, lambdas if cfg.regime == "svd" and any(lambdas) else None)
    for t in range(1, cfg.iters + 1):
        try:
            finite = trainer.step(t, cfg.lr, report)
        except NumericalError as exc:
            report.error = f"diverged at iteration {t - 1}: {exc}"
            break
        if not finite:
            report.error = f"diverged at iteration {t - 1}"
            break

    try:
        if eval_sets:
            for name, ds in eval_sets.items():
                report.final_metrics[name] = binary_metrics(model, ds)
        if rank_set is not None:
            _, feats, _ = evaluate(model, rank_set)
            report.rank_after = effective_rank(feats, RANK_THRESHOLD).effective_rank
    except NumericalError as exc:
        if report.error is None:
            report.error = f"diverged after training: {exc}"
    except ValidationError:
        if report.error is None:
            raise
    return report


@dataclass
class PretrainResult:
    model: ToyModel
    accuracy: float
    iterations: int
    loss_trace: list
    accuracy_trace: list  # (iter, accuracy) pairs


def semantic_shards(spec: SyntheticSpec, seq_len, min_held_out=1):
    """The pretraining split, split 80/20 into train and held-out shards;
    ConfigError naming spec.samples_per_split, before any data is made, if
    the held-out shard would have fewer than ``min_held_out`` samples."""
    cut = max(1, int(spec.samples_per_split * 0.8))
    if spec.samples_per_split - cut < min_held_out:
        raise ConfigError(f"spec.samples_per_split {spec.samples_per_split} holds out fewer "
                          f"than the {min_held_out} pretraining samples needed")
    ds = gen_dataset(spec, "pretrain", seq_len)
    train_ds = Dataset(x=ds.x[: cut * seq_len], y=ds.y[:cut], seq_len=seq_len)
    eval_ds = Dataset(x=ds.x[cut * seq_len :], y=ds.y[cut:], seq_len=seq_len)
    return train_ds, eval_ds


def semantic_accuracy(model, ds):
    logits, _ = model_forward(model, ds.x, train=False)
    return float((logits.argmax(axis=1) == ds.y).mean())


def pretrain(backbone: BackboneConfig, spec: SyntheticSpec, cfg: PretrainConfig):
    """Train a fully-trainable backbone on the K-way semantic task.

    Held-out accuracy is checked every ``eval_every`` iterations and at the
    cap, once each; training stops once it reaches the target, or at the cap.
    Raises PretrainingFailure if the cap is hit below the minimum bar, and
    NumericalError if a loss, an activation or a gradient is not finite.
    """
    bb = replace(backbone, adapter_kind="full")
    train_ds, eval_ds = semantic_shards(spec, bb.seq_len)
    model = init_model(bb, cfg.seed, head_dim=spec.clusters)
    trainer = _Trainer(model, train_ds, "pretraining set",
                       substream(cfg.seed, "pretrain-batches"), cfg.batch)
    trace = ExperimentReport(config=asdict(cfg))
    accuracy = semantic_accuracy(model, eval_ds)
    acc_trace = [(0, accuracy)] if cfg.max_iters == 0 else []
    for t in range(1, cfg.max_iters + 1):
        if not trainer.step(t, cfg.lr, trace):
            raise NumericalError(f"pretraining loss is not finite at iteration {t - 1}")
        if t % cfg.eval_every == 0 or t == cfg.max_iters:
            accuracy = semantic_accuracy(model, eval_ds)
            acc_trace.append((t, accuracy))
            if accuracy >= cfg.target_accuracy:
                break
    iterations = len(trace.iters)
    if accuracy < cfg.min_accuracy:
        raise PretrainingFailure(
            f"pretraining reached {accuracy:.3f} accuracy after {iterations} iterations"
        )
    return PretrainResult(model=model, accuracy=accuracy, iterations=iterations,
                          loss_trace=trace.total_loss.tolist(), accuracy_trace=acc_trace)


def finetune_run(pretrained: ToyModel, spec: SyntheticSpec, cfg: TrainConfig):
    """Standard fine-tuning cell: adapt the backbone, train on the forgery
    task, evaluate seen/unseen splits and the semantic-feature rank."""
    seq_len = pretrained.seq_len
    reg = RegularizerWeights(cfg.lambda1, cfg.lambda2)
    model = adapt_model(pretrained, cfg.regime, cfg.rank, cfg.seed, reg=reg)
    train_ds = gen_dataset(spec, "finetune_train", seq_len)
    eval_sets = {
        "seen": gen_dataset(spec, "finetune_test_seen", seq_len),
        "unseen": gen_dataset(spec, "finetune_test_unseen", seq_len),
    }
    _, semantic_eval = semantic_shards(spec, seq_len, RANK_PROBE_HELD_OUT)
    report = train(model, train_ds, cfg, eval_sets=eval_sets, rank_set=semantic_eval)
    return model, report


SWEEP_COLUMNS = [
    "regime", "rank", "seed", "auc_seen", "auc_unseen", "acc_seen", "acc_unseen",
    "rank_before", "rank_after", "trainable_params", "error",
]


def rank_sweep(pretrained: ToyModel, spec: SyntheticSpec, base_cfg: TrainConfig,
               residual_ranks, lora_ranks, seeds):
    """Tab-of-cells comparison: svd at each residual rank, lora at each lora
    rank, plus fft and linear_probe baselines, for every seed. Per-cell errors
    are recorded in the row and the sweep continues; a spec that holds out
    no fake method fails every cell's unseen split, so it raises ConfigError
    before the first."""
    spec.unseen_methods  # ConfigError if nothing is held out
    cells = [("svd", r) for r in residual_ranks]
    cells += [("lora", r) for r in lora_ranks]
    cells += [("fft", 0), ("linear_probe", 0)]
    rows = []
    for regime, rank in cells:
        for s in seeds:
            cell_seed = derive_seed(base_cfg.seed, regime, rank, s)
            ranked = regime in ("svd", "lora")
            cfg = replace(base_cfg, regime=regime, rank=rank if ranked else 1, seed=cell_seed)
            row = {"regime": regime, "rank": rank if ranked else "", "seed": s}
            try:
                _, report = finetune_run(pretrained, spec, cfg)
                metrics = report.final_metrics
                row.update({
                    f"{short}_{split}": metrics.get(split, {}).get(key, "")
                    for split in ("seen", "unseen")
                    for short, key in (("auc", "auc"), ("acc", "accuracy"))
                })
                row.update({
                    "rank_before": report.rank_before,
                    "rank_after": report.rank_after,
                    "trainable_params": report.trainable_params,
                    "error": report.error or "",
                })
            except (ValidationError, NumericalError) as exc:
                row.update({k: "" for k in SWEEP_COLUMNS if k not in row})
                row["error"] = str(exc)
            rows.append(row)
    return rows


def sweep_csv(rows):
    return csv_text(SWEEP_COLUMNS, ([row.get(k, "") for k in SWEEP_COLUMNS] for row in rows))
