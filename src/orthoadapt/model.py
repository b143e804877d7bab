"""Toy backbones whose linear layers are adapter-wrapped.

Two block types, both on (rows, dim) activations:

* mlp - h <- tanh(h @ W^T), one adapted matrix per block.
* attention - single-head self-attention over groups of ``seq_len`` rows,
  viewed as (groups, seq_len, dim) only where a group's rows mix: scores =
  Q K^T / sqrt(n), row-softmax, context = P V, and their gradients. Then
  context @ W_out^T and a residual add; four adapted matrices (q, k, v, out)
  per block; features are mean-pooled over each group before the head.

The head (dim -> classes, with bias) is always trainable. A model keeps its m
adapters stacked (``adapters.stack_adapters``), so a pass builds all m
effective weights in one call and maps all m weight gradients in one call.
Forward in training mode caches activations and the stacked effective
weights; ``model_backward`` replays them for exact reverse-mode gradients.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .adapters import (
    KINDS,
    FullAdapter,
    LoraAdapter,
    SvdResidualAdapter,
    stack_adapters,
)
from .emx import read_emx, read_json, write_emx, write_json
from .errors import (
    ConfigError,
    FormatError,
    NumericalError,
    StateError,
    ValidationError,
    check_field_types,
)
from .linalg import check_matrix
from .seeding import substream

BLOCK_LAYERS = {"mlp": ("w",), "attention": ("q", "k", "v", "out")}
REGIMES = ("svd", "lora", "fft", "linear_probe")
CHECKPOINT_FORMAT = "orthoadapt-checkpoint-v1"
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
        check_field_types(self)
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
        if self.adapter_kind not in KINDS:
            raise ConfigError(f"unknown adapter kind {self.adapter_kind!r}")
        if not 1 <= self.rank <= self.dim:
            raise ConfigError(f"backbone rank {self.rank} out of range [1, {self.dim}]")


def _layers(cfg):
    """(block, layer name) of every adapted matrix, in layer order, made
    lazily, so a checkpoint's ``depth`` costs nothing before its adapters
    are read."""
    return ((b, layer) for b in range(cfg.depth) for layer in BLOCK_LAYERS[cfg.kind])


def _names(cfg):
    return (f"block{b}.{layer}" for b, layer in _layers(cfg))


class ToyModel:
    def __init__(self, cfg: BackboneConfig, adapters, head_w, head_b):
        """``adapters`` holds one adapter per adapted matrix, in layer order:
        block by block, and within a block as in ``BLOCK_LAYERS``."""
        self.cfg = cfg
        self.head_w = head_w
        self.head_b = head_b
        self._cache = None
        # one adapter over all m; each member's tensors are views into it
        self.stack = stack_adapters(adapters)

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
        """(name, adapter) pairs in layer order, named "block{b}.{layer}"."""
        return list(zip(_names(self.cfg), self.stack.members))

    def trainable(self):
        """Key -> live array for every trainable tensor: the stacked adapter
        tensors under their keys ("u", "a", "w", ...), one row per adapter in
        ``adapters()`` order, then "head.w" and "head.b"."""
        return {**self.stack.trainable(), "head.w": self.head_w, "head.b": self.head_b}

    def bind_trainable(self, arrays):
        """Replace every trainable tensor by the array of the same key in
        ``arrays`` (the keys of ``trainable()``); each adapter's
        tensors become views of the new stacks."""
        self.stack.bind({key: arrays[key] for key in self.stack.trainable()})
        self.head_w = arrays["head.w"]
        self.head_b = arrays["head.b"]

    def count_trainable(self):
        return int(self.head_w.size + self.head_b.size + self.stack.count_trainable())


def _make_adapter(kind, w, rank, rng, reg, svd_cache):
    if kind == "svd":
        return SvdResidualAdapter(w, rank, reg=reg, svd_cache=svd_cache)
    if kind == "lora":
        return LoraAdapter(w, rank, rng)
    return KINDS[kind](w)


def _build(cfg, weights, seed, reg, head_dim, svd_cache=None):
    """A model of ``cfg`` whose adapters wrap ``weights`` (in layer order),
    each with its own seeded stream, and a seeded Gaussian head; svd adapters
    share the caller's ``svd_cache``."""
    adapters = [_make_adapter(cfg.adapter_kind, w, cfg.rank,
                              substream(seed, "adapter", b, layer), reg, svd_cache)
                for (b, layer), w in zip(_layers(cfg), weights)]
    head_w = 0.02 * substream(seed, "head").standard_normal((head_dim, cfg.dim))
    return ToyModel(cfg, adapters, head_w, np.zeros(head_dim))


def init_model(cfg: BackboneConfig, seed, head_dim=2):
    """Fresh model with seeded Gaussian weights wrapped in cfg.adapter_kind."""
    n = cfg.dim
    weights = [0.5 * substream(seed, "block", b, layer).standard_normal((n, n)) / math.sqrt(n)
               for b, layer in _layers(cfg)]
    return _build(cfg, weights, seed, reg=None, head_dim=head_dim)


def adapt_model(pretrained: ToyModel, regime, rank, seed, reg=None, svd_cache=None):
    """Wrap a trained backbone's effective weights in fresh adapters for a
    fine-tuning regime, with a new seeded real/fake classification head.

    ``svd_cache`` is an optional dict owned by the caller, passed to every
    ``SvdResidualAdapter``: it maps the sha256 of a weight's bytes to the
    weight's SVD factors, so calls that adapt one backbone share its
    decompositions. ConfigError unless 1 <= rank <= dim, whatever the regime."""
    if regime not in REGIMES:
        raise ConfigError(f"unknown regime {regime!r}")
    cfg = replace(pretrained.cfg, adapter_kind=_REGIME_TO_KIND[regime], rank=rank)
    return _build(cfg, pretrained.stack.effective_weight(), seed, reg, head_dim=2,
                  svd_cache=svd_cache)


def _softmax(z):
    """Softmax along the last axis, computed in place on ``z``, which it returns."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


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
    return _forward(model, xa, train)


def _forward(model: ToyModel, xa, train=False):
    """``model_forward`` without its input checks, for a caller that has
    validated its data already: a finite float64 matrix with ``model.dim``
    columns and a multiple of ``seq_len`` rows."""
    n = model.dim
    L = model.seq_len
    weights = model.stack.effective_weight()  # (m, n, n), in adapters() order
    cache = {"blocks": [], "weights": weights} if train else None
    h = xa
    if model.cfg.kind == "mlp":
        for b in range(model.cfg.depth):
            h_new = h @ weights[b].T
            np.tanh(h_new, out=h_new)
            if not np.logical_and.reduce(np.isfinite(h_new), axis=None):
                raise NumericalError(f"non-finite activations in block {b}")
            if train:
                cache["blocks"].append({"h_in": h, "h_out": h_new})
            h = h_new
        features = h
    else:
        inv_sqrt = 1.0 / math.sqrt(n)
        for b in range(model.cfg.depth):
            wq, wk, wv, wo = weights[4 * b:4 * b + 4]
            # one at a time, so the last block's q, k and v are freed as they go
            q = (h @ wq.T).reshape(-1, L, n)
            k = (h @ wk.T).reshape(-1, L, n)
            v = (h @ wv.T).reshape(-1, L, n)
            p = _softmax((q @ k.swapaxes(1, 2)) * inv_sqrt)
            ctx = (p @ v).reshape(-1, n)
            h_new = ctx @ wo.T
            h_new += h
            if not np.logical_and.reduce(np.isfinite(h_new), axis=None):
                raise NumericalError(f"non-finite activations in block {b}")
            if train:
                cache["blocks"].append({"h_in": h, "q": q, "k": k, "v": v, "p": p, "ctx": ctx})
            h = h_new
        features = np.add.reduce(h.reshape(-1, L, n), axis=1) / L

    logits = features @ model.head_w.T + model.head_b
    if train:
        cache["features"] = features
        model._cache = cache
    return logits, features


def _check_loss_inputs(logits, labels):
    """(logits, labels) as arrays; ValidationError unless the batch is
    non-empty and holds one label per logits row that indexes a column."""
    z = check_matrix(logits, "logits")
    y = np.asarray(labels)
    if z.shape[0] == 0 or y.size == 0:
        raise ValidationError("cls_loss needs a non-empty batch")
    if y.shape != (z.shape[0],):
        raise ValidationError(f"labels shape {y.shape} does not match logits {z.shape}")
    if y.dtype.kind not in "iu" or y.min() < 0 or y.max() >= z.shape[1]:
        raise ValidationError("labels must be integers indexing the logit columns")
    return z, y


def cls_loss(logits, labels):
    """Mean softmax cross-entropy plus per-class means for labels 0 and 1.

    Returns (loss, real_loss, fake_loss); a per-class mean is nan when that
    class is absent from the batch.
    """
    return cls_loss_and_grad(*_check_loss_inputs(logits, labels))[:3]


def cls_loss_grad(logits, labels):
    """d(mean cross-entropy)/d(logits)."""
    return cls_loss_and_grad(*_check_loss_inputs(logits, labels))[3]


def cls_loss_and_grad(logits, labels):
    """(loss, real_loss, fake_loss, dlogits) from one softmax. The inputs are
    not checked (``cls_loss`` and ``cls_loss_grad`` are the checked
    front-ends): ``train`` and ``pretrain`` validate their dataset once, and
    labels from it index logit columns that exist."""
    y = np.asarray(labels)
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    sums = np.add.reduce(e, axis=-1, keepdims=True)
    rows = np.arange(e.shape[0])
    per_sample = np.log(sums[:, 0]) - shifted[rows, y]
    real, fake = (float(np.add.reduce(x) / x.size) if x.size else float("nan")
                  for x in (per_sample[y == 0], per_sample[y == 1]))
    e /= sums  # the softmax, then in place its gradient
    e[rows, y] -= 1.0
    e /= e.shape[0]
    return float(np.add.reduce(per_sample) / per_sample.size), real, fake, e


def model_backward(model: ToyModel, dlogits):
    """Exact gradients of a loss with upstream dlogits, keyed like
    ``model.trainable()``: each adapter gradient is one (m, ...) array. Requires
    a cached training forward, whose effective weights it reuses; the weight
    gradients of all m matrices are gathered layer by layer and mapped to the
    adapter tensors in one ``weight_grad`` call. A frozen backbone, with no
    adapter tensor to train, gets the head gradients alone."""
    cache = model._cache
    if cache is None:
        raise StateError("model_backward called without a cached forward pass")
    dlog = np.asarray(dlogits, dtype=np.float64)
    features = cache["features"]
    if dlog.shape != (features.shape[0], model.head_dim):
        raise ValidationError(f"dlogits shape {dlog.shape} does not match forward")

    head = {"head.w": dlog.T @ features, "head.b": np.add.reduce(dlog, axis=0)}
    if not model.stack.trainable():
        return head
    weights = cache["weights"]
    dw = np.empty_like(weights)
    dfeat = dlog @ model.head_w
    n, L = model.dim, model.seq_len

    if model.cfg.kind == "mlp":
        dh = dfeat
        for b in range(model.cfg.depth - 1, -1, -1):
            blk = cache["blocks"][b]
            dz = 1.0 - blk["h_out"] ** 2
            dz *= dh
            np.matmul(dz.T, blk["h_in"], out=dw[b])
            dh = dz @ weights[b]
    else:
        inv_sqrt = 1.0 / math.sqrt(n)
        dh = np.repeat(dfeat / L, L, axis=0)
        dq, dk, dv = dqkv = np.empty((3,) + cache["blocks"][0]["q"].shape)  # of one block
        rows = dqkv.reshape(3, -1, n)  # dq, dk and dv as (groups·L, n) rows
        for b in range(model.cfg.depth - 1, -1, -1):
            blk = cache["blocks"][b]
            h_in, q, k, v, p, ctx = (blk[key] for key in ("h_in", "q", "k", "v", "p", "ctx"))
            wq, wk, wv, wo = weights[4 * b:4 * b + 4]
            dctx = (dh @ wo).reshape(-1, L, n)  # the residual add passes dh to out and to h
            np.matmul(dh.T, ctx, out=dw[4 * b + 3])
            dp = dctx @ v.swapaxes(1, 2)
            np.matmul(p.swapaxes(1, 2), dctx, out=dv)
            dp -= np.add.reduce(dp * p, axis=-1, keepdims=True)
            dp *= p  # dscores
            np.matmul(dp, k, out=dq)
            dq *= inv_sqrt
            np.matmul(dp.swapaxes(1, 2), q, out=dk)
            dk *= inv_sqrt
            np.matmul(rows.swapaxes(1, 2), h_in, out=dw[4 * b:4 * b + 3])
            for d, w in zip(rows, (wq, wk, wv)):
                dh += d @ w
    return {**model.stack.weight_grad(dw), **head}


def save_model(model: ToyModel, directory, extra=None):
    """Checkpoint the backbone: per layer its effective weight as a full
    adapter (``adapters/<name>/w.emx`` and a manifest), the head tensors and
    one manifest. An adapted model saves as its merged weights, and
    ``load_model`` reads it back as a full model with the same forward."""
    d = Path(directory)
    cfg = replace(model.cfg, adapter_kind="full")
    for name, w in zip(_names(cfg), model.stack.effective_weight()):
        layer = d / "adapters" / name
        layer.mkdir(parents=True, exist_ok=True)
        write_emx(layer / "w.emx", w)
        write_json(layer / "manifest.json", {"kind": "full", "n": cfg.dim, "r": 0})
    write_emx(d / "head_w.emx", model.head_w)
    write_emx(d / "head_b.emx", model.head_b.reshape(-1, 1))
    manifest = {"format": CHECKPOINT_FORMAT, "backbone": asdict(cfg)}
    if extra:
        manifest.update(extra)
    write_json(d / "manifest.json", manifest)


def _read(path, shape):
    """The EMX matrix at ``path``; FormatError unless its shape is ``shape``."""
    a = read_emx(path)
    if a.shape != shape:
        raise FormatError(f"{path}: shape {a.shape}, expected {shape}")
    return a


def load_model(directory):
    """Restore a checkpoint written by ``save_model`` as a model of full
    adapters, reading its layers one at a time. FormatError naming the file
    when the manifest's ``format`` is not ``CHECKPOINT_FORMAT``, when its
    ``backbone`` or an adapter manifest names a kind other than full, or when
    an adapter manifest's ``n`` or a tensor's shape disagrees with
    ``backbone``."""
    d = Path(directory)
    manifest = read_json(d / "manifest.json", "checkpoint manifest")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise FormatError(f"{d}: checkpoint format {manifest.get('format')!r}, "
                          f"expected {CHECKPOINT_FORMAT!r}")
    try:
        cfg = BackboneConfig(**manifest.get("backbone"))
    except (TypeError, ConfigError) as exc:
        raise FormatError(f"{d}: bad backbone in checkpoint manifest: {exc}") from exc
    if cfg.adapter_kind != "full":
        raise FormatError(f"{d / 'manifest.json'}: backbone adapter_kind "
                          f"{cfg.adapter_kind!r}, expected 'full'")
    n = cfg.dim
    adapters = []
    for name in _names(cfg):
        layer = d / "adapters" / name
        fields = read_json(layer / "manifest.json", "adapter manifest")
        if fields.get("kind") != "full" or fields.get("n") != n:
            raise FormatError(
                f"{layer / 'manifest.json'}: adapter {fields.get('kind')!r} of size "
                f"{fields.get('n')!r}, the backbone expects 'full' of size {n}")
        adapters.append(FullAdapter(_read(layer / "w.emx", (n, n))))
    head_w = read_emx(d / "head_w.emx")
    head_b = read_emx(d / "head_b.emx").reshape(-1)
    if head_w.shape[1] != n or head_b.shape != head_w.shape[:1]:
        raise FormatError(f"{d}: head shapes {head_w.shape} and {head_b.shape} do not fit "
                          f"a ({head_w.shape[0]}, {n}) head with one bias per class")
    return ToyModel(cfg, adapters, head_w, head_b), manifest
