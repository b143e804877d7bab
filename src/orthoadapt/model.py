"""Toy backbones whose linear layers are adapter-wrapped.

Two block types:

* mlp - h <- tanh(h @ W^T), one adapted matrix per block.
* attention - single-head self-attention over groups of ``seq_len`` vectors:
  scores = Q K^T / sqrt(n), row-softmax, context @ W_out^T, residual add.
  Four adapted matrices (q, k, v, out) per block; features are mean-pooled
  over the sequence before the classification head.

The head (dim -> classes, with bias) is always trainable. Forward in training
mode caches activations and each adapter's effective weight;
``model_backward`` replays them for exact reverse-mode gradients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .adapters import (
    FrozenAdapter,
    FullAdapter,
    LoraAdapter,
    RegularizerWeights,
    SvdResidualAdapter,
    load_adapter,
    read_manifest,
)
from .emx import read_emx, write_emx
from .errors import (
    ConfigError,
    FormatError,
    NumericalError,
    StateError,
    ValidationError,
    check_numeric_fields,
)
from .linalg import check_matrix
from .seeding import substream

BLOCK_LAYERS = {"mlp": ("w",), "attention": ("q", "k", "v", "out")}
REGIMES = ("svd", "lora", "fft", "linear_probe")
_REGIME_TO_KIND = {"svd": "svd", "lora": "lora", "fft": "full", "linear_probe": "frozen"}


@dataclass
class BackboneConfig:
    kind: str = "attention"
    dim: int = 32
    depth: int = 2
    seq_len: int = 4
    adapter_kind: str = "full"
    rank: int = 1

    def __post_init__(self):
        check_numeric_fields(self)
        if self.kind not in BLOCK_LAYERS:
            raise ConfigError(f"unknown backbone kind {self.kind!r}")
        if self.dim < 4:
            raise ConfigError("backbone dim must be >= 4")
        if self.depth < 1:
            raise ConfigError("backbone depth must be >= 1")
        if self.kind == "mlp" and self.seq_len != 1:
            raise ConfigError("mlp backbones use seq_len = 1")
        if self.seq_len < 1:
            raise ConfigError("seq_len must be >= 1")
        if self.adapter_kind not in ("svd", "lora", "full", "frozen"):
            raise ConfigError(f"unknown adapter kind {self.adapter_kind!r}")


class ToyModel:
    def __init__(self, cfg: BackboneConfig, blocks, head_w, head_b):
        self.cfg = cfg
        self.blocks = blocks  # list of dicts layer-name -> adapter
        self.head_w = head_w
        self.head_b = head_b
        self._cache = None

    @property
    def dim(self):
        return self.cfg.dim

    @property
    def seq_len(self):
        return self.cfg.seq_len

    @property
    def head_dim(self):
        return self.head_w.shape[0]

    def adapters(self):
        """(name, adapter) pairs in a fixed order."""
        out = []
        for b, block in enumerate(self.blocks):
            for layer in BLOCK_LAYERS[self.cfg.kind]:
                out.append((f"block{b}.{layer}", block[layer]))
        return out

    def trainable(self):
        """Name -> live array for every trainable tensor, head included."""
        params = {}
        for name, adapter in self.adapters():
            for key, arr in adapter.trainable().items():
                params[f"{name}.{key}"] = arr
        params["head.w"] = self.head_w
        params["head.b"] = self.head_b
        return params

    def bind_trainable(self, arrays):
        """Replace every trainable tensor by the array of the same name in
        ``arrays`` (the names of ``trainable()``). Adapters keep each trainable
        tensor in the attribute named by its key."""
        for name, adapter in self.adapters():
            for key in adapter.trainable():
                setattr(adapter, key, arrays[f"{name}.{key}"])
        self.head_w = arrays["head.w"]
        self.head_b = arrays["head.b"]

    def count_trainable(self):
        total = self.head_w.size + self.head_b.size
        return int(total + sum(a.count_trainable() for _, a in self.adapters()))


DEFAULT_LORA_SCALE = 2.0


def _make_adapter(kind, w, rank, rng, reg=None):
    if kind == "svd":
        return SvdResidualAdapter(w, rank, reg=reg)
    if kind == "lora":
        return LoraAdapter(w, rank, rng, scale=DEFAULT_LORA_SCALE)
    if kind == "full":
        return FullAdapter(w)
    if kind == "frozen":
        return FrozenAdapter(w)
    raise ConfigError(f"unknown adapter kind {kind!r}")


def init_model(cfg: BackboneConfig, seed, head_dim=2, reg=None):
    """Fresh model with seeded Gaussian weights wrapped in cfg.adapter_kind."""
    n = cfg.dim
    blocks = []
    for b in range(cfg.depth):
        block = {}
        for layer in BLOCK_LAYERS[cfg.kind]:
            rng = substream(seed, "block", b, layer)
            w = 0.5 * rng.standard_normal((n, n)) / math.sqrt(n)
            block[layer] = _make_adapter(cfg.adapter_kind, w, cfg.rank, substream(seed, "adapter", b, layer), reg)
        blocks.append(block)
    head_rng = substream(seed, "head")
    head_w = 0.02 * head_rng.standard_normal((head_dim, n))
    head_b = np.zeros(head_dim)
    return ToyModel(cfg, blocks, head_w, head_b)


def adapt_model(pretrained: ToyModel, regime, rank, seed, reg=None, head_dim=2):
    """Wrap a trained backbone's effective weights in fresh adapters for a
    fine-tuning regime, with a new seeded classification head."""
    if regime not in REGIMES:
        raise ConfigError(f"unknown regime {regime!r}")
    kind = _REGIME_TO_KIND[regime]
    cfg = BackboneConfig(
        kind=pretrained.cfg.kind,
        dim=pretrained.cfg.dim,
        depth=pretrained.cfg.depth,
        seq_len=pretrained.cfg.seq_len,
        adapter_kind=kind,
        rank=rank,
    )
    blocks = []
    for b, block in enumerate(pretrained.blocks):
        new_block = {}
        for layer, adapter in block.items():
            w = adapter.effective_weight()
            new_block[layer] = _make_adapter(kind, w, rank, substream(seed, "adapter", b, layer), reg)
        blocks.append(new_block)
    head_rng = substream(seed, "head")
    head_w = 0.02 * head_rng.standard_normal((head_dim, cfg.dim))
    head_b = np.zeros(head_dim)
    return ToyModel(cfg, blocks, head_w, head_b)


def _softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def model_forward(model: ToyModel, x, train=False):
    """Run the backbone and head.

    Returns (logits, features): features are the pre-head hidden state,
    mean-pooled over each sequence group for attention backbones. The batch
    must be a multiple of seq_len; logits have one row per group.
    """
    xa = check_matrix(x, "input")
    n = model.dim
    if xa.shape[1] != n:
        raise ValidationError(f"input has {xa.shape[1]} columns, model expects {n}")
    L = model.seq_len
    if xa.shape[0] % L != 0:
        raise ValidationError(f"batch {xa.shape[0]} not divisible by seq_len {L}")

    weights = {name: adapter.effective_weight() for name, adapter in model.adapters()}
    cache = {"x": xa, "blocks": [], "weights": weights} if train else None
    if model.cfg.kind == "mlp":
        h = xa
        for b in range(len(model.blocks)):
            z = h @ weights[f"block{b}.w"].T
            h_new = np.tanh(z)
            if not np.isfinite(h_new).all():
                raise NumericalError(f"non-finite activations in block {b}")
            if train:
                cache["blocks"].append({"h_in": h, "h_out": h_new})
            h = h_new
        features = h
    else:
        groups = xa.shape[0] // L
        h = xa.reshape(groups, L, n)
        inv_sqrt = 1.0 / math.sqrt(n)
        for b in range(len(model.blocks)):
            wq, wk, wv, wo = (weights[f"block{b}.{layer}"] for layer in ("q", "k", "v", "out"))
            q = h @ wq.T
            k = h @ wk.T
            v = h @ wv.T
            scores = np.einsum("gid,gjd->gij", q, k) * inv_sqrt
            p = _softmax(scores)
            ctx = np.einsum("gij,gjd->gid", p, v)
            out = ctx @ wo.T
            h_new = h + out
            if not np.isfinite(h_new).all():
                raise NumericalError(f"non-finite activations in block {b}")
            if train:
                cache["blocks"].append({"h_in": h, "q": q, "k": k, "v": v, "p": p, "ctx": ctx})
            h = h_new
        features = h.mean(axis=1)

    logits = features @ model.head_w.T + model.head_b
    if train:
        cache["features"] = features
        model._cache = cache
    return logits, features


def cls_loss(logits, labels):
    """Mean softmax cross-entropy plus per-class means for labels 0 and 1.

    Returns (loss, real_loss, fake_loss); a per-class mean is nan when that
    class is absent from the batch.
    """
    z = check_matrix(logits, "logits")
    y = np.asarray(labels)
    if z.shape[0] == 0 or y.size == 0:
        raise ValidationError("cls_loss needs a non-empty batch")
    if y.shape != (z.shape[0],):
        raise ValidationError(f"labels shape {y.shape} does not match logits {z.shape}")
    if y.min() < 0 or y.max() >= z.shape[1]:
        raise ValidationError("labels out of range for logit columns")
    shifted = z - z.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    per_sample = logsumexp - shifted[np.arange(z.shape[0]), y]
    loss = float(per_sample.mean())
    real = float(per_sample[y == 0].mean()) if (y == 0).any() else float("nan")
    fake = float(per_sample[y == 1].mean()) if (y == 1).any() else float("nan")
    return loss, real, fake


def cls_loss_grad(logits, labels):
    """d(mean cross-entropy)/d(logits)."""
    z = check_matrix(logits, "logits")
    y = np.asarray(labels)
    p = _softmax(z)
    p[np.arange(z.shape[0]), y] -= 1.0
    return p / z.shape[0]


def model_backward(model: ToyModel, dlogits):
    """Exact gradients of a loss with upstream dlogits, for every trainable
    tensor (adapter factors and head). Requires a cached training forward,
    whose effective weights it reuses."""
    cache = model._cache
    if cache is None:
        raise StateError("model_backward called without a cached forward pass")
    dlog = np.asarray(dlogits, dtype=np.float64)
    features = cache["features"]
    if dlog.shape != (features.shape[0], model.head_dim):
        raise ValidationError(f"dlogits shape {dlog.shape} does not match forward")

    weights = cache["weights"]
    grads = {"head.w": dlog.T @ features, "head.b": dlog.sum(axis=0)}
    dfeat = dlog @ model.head_w
    n = model.dim
    L = model.seq_len

    if model.cfg.kind == "mlp":
        dh = dfeat
        for b in range(len(model.blocks) - 1, -1, -1):
            blk = cache["blocks"][b]
            adapter = model.blocks[b]["w"]
            dz = dh * (1.0 - blk["h_out"] ** 2)
            _accumulate(grads, f"block{b}.w", adapter, dz.T @ blk["h_in"])
            dh = dz @ weights[f"block{b}.w"]
    else:
        groups = features.shape[0]
        inv_sqrt = 1.0 / math.sqrt(n)
        dh = np.repeat(dfeat[:, None, :] / L, L, axis=1)
        for b in range(len(model.blocks) - 1, -1, -1):
            blk = cache["blocks"][b]
            block = model.blocks[b]
            h_in, q, k, v, p, ctx = (blk[key] for key in ("h_in", "q", "k", "v", "p", "ctx"))
            d_out = dh  # residual add: gradient flows to both terms
            dctx = d_out @ weights[f"block{b}.out"]
            _accumulate(grads, f"block{b}.out", block["out"], _flat_weight_grad(d_out, ctx))
            dp = np.einsum("gid,gjd->gij", dctx, v)
            dv = np.einsum("gij,gid->gjd", p, dctx)
            dscores = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
            dq = np.einsum("gij,gjd->gid", dscores, k) * inv_sqrt
            dk = np.einsum("gij,gid->gjd", dscores, q) * inv_sqrt
            _accumulate(grads, f"block{b}.q", block["q"], _flat_weight_grad(dq, h_in))
            _accumulate(grads, f"block{b}.k", block["k"], _flat_weight_grad(dk, h_in))
            _accumulate(grads, f"block{b}.v", block["v"], _flat_weight_grad(dv, h_in))
            dh = (
                dh
                + dq @ weights[f"block{b}.q"]
                + dk @ weights[f"block{b}.k"]
                + dv @ weights[f"block{b}.v"]
            )
    return grads


def _flat_weight_grad(d_out, h_in):
    n = d_out.shape[-1]
    return d_out.reshape(-1, n).T @ h_in.reshape(-1, n)


def _accumulate(grads, prefix, adapter, weight_grad):
    for key, g in adapter.weight_grad(weight_grad).items():
        grads[f"{prefix}.{key}"] = g


def save_model(model: ToyModel, directory, extra=None):
    """Checkpoint: per-adapter EMX directories, head tensors, one manifest."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    for name, adapter in model.adapters():
        adapter.save(d / "adapters" / name)
    write_emx(d / "head_w.emx", model.head_w)
    write_emx(d / "head_b.emx", model.head_b.reshape(-1, 1))
    manifest = {"format": "orthoadapt-checkpoint-v1", "backbone": asdict(model.cfg)}
    if extra:
        manifest.update(extra)
    (d / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def load_model(directory):
    """Restore a checkpoint written by ``save_model``."""
    d = Path(directory)
    manifest = read_manifest(d, "checkpoint")
    try:
        cfg = BackboneConfig(**manifest.get("backbone"))
    except (TypeError, ConfigError) as exc:
        raise FormatError(f"{d}: bad backbone in checkpoint manifest: {exc}") from exc
    blocks = []
    for b in range(cfg.depth):
        block = {}
        for layer in BLOCK_LAYERS[cfg.kind]:
            block[layer] = load_adapter(d / "adapters" / f"block{b}.{layer}")
        blocks.append(block)
    head_w = read_emx(d / "head_w.emx")
    head_b = read_emx(d / "head_b.emx").reshape(-1)
    model = ToyModel(cfg, blocks, head_w, head_b)
    return model, manifest
