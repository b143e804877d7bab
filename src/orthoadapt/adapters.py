"""Parameterizations of a linear layer's effective weight.

Four kinds share one small interface: ``effective_weight()``, ``trainable()``
(name -> live array), ``weight_grad(m)`` mapping a gradient wrt the effective
weight into per-tensor gradients, and ``count_trainable()``.

* SvdResidualAdapter - principal SVD triplets frozen, residual triplets
  trainable, plus the orthogonality and spectral-energy regularizers.
* LoraAdapter - frozen base weight plus a trainable low-rank product.
* FullAdapter - the raw weight, fully trainable.
* FrozenAdapter - the raw weight, fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .emx import read_emx, write_emx
from .errors import FormatError, ValidationError, check_numeric_fields
from .linalg import SubspaceSplit, check_matrix, reconstruct, split, svd


@dataclass
class RegularizerWeights:
    """Multipliers for the orthogonality and spectral-energy penalties."""

    lambda1: float = 1.0
    lambda2: float = 1.0

    def __post_init__(self):
        check_numeric_fields(self)
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValidationError("regularizer weights must be non-negative")


class SvdResidualAdapter:
    """Frozen principal subspace + trainable residual SVD factors.

    The weight is kept as W_r + U diag(s) V^T where W_r collects the top
    r = n - residual_rank singular triplets (never touched after init) and
    (U, s, V) are the residual triplets, initialized to the exact SVD tail so
    the effective weight equals the original matrix at step 0.
    """

    kind = "svd"

    def __init__(self, w, residual_rank, reg=None, label="weight"):
        a = check_matrix(w, label)
        n, n2 = a.shape
        if n != n2:
            raise ValidationError(f"{label} must be square, got {a.shape}")
        if not 1 <= residual_rank <= n:
            raise ValidationError(f"residual rank {residual_rank} out of range [1, {n}]")
        sp = split(svd(a, label), n - residual_rank)
        self._init_from_split(n, sp, reg)

    def _init_from_split(self, n, sp: SubspaceSplit, reg):
        self.n = n
        self.split = sp
        self.u = sp.u_nr.copy()
        self.s = sp.s_nr.copy()
        self.v = sp.v_nr.copy()
        self.reg = reg if reg is not None else RegularizerWeights()
        self.frozen_frob_sq = sp.frozen_frob_sq
        self._w_principal = reconstruct(sp, "principal")
        self._frozen_orth = None  # ||U_r^T U_r - I||^2 + ||V_r^T V_r - I||^2, set by reg_terms
        self._eye = np.eye(self.u.shape[1])

    @classmethod
    def from_split(cls, n, sp, reg=None):
        """Restore an adapter from stored factors without re-running the SVD."""
        self = cls.__new__(cls)
        self._init_from_split(n, sp, reg)
        return self

    @property
    def residual_rank(self):
        return self.n - self.split.r

    def effective_weight(self):
        return self._w_principal + (self.u * self.s) @ self.v.T

    def trainable(self):
        return {"u": self.u, "s": self.s, "v": self.v}

    def count_trainable(self):
        return self.u.size + self.s.size + self.v.size

    def weight_grad(self, m):
        return {
            "u": m @ (self.v * self.s),
            "s": np.einsum("ik,ik->k", self.u, m @ self.v),
            "v": m.T @ (self.u * self.s),
        }

    def reg_terms(self, lambda1, lambda2, w_eff=None):
        """(orth, sv, gradients of lambda1 * orth + lambda2 * sv).

        orth is ||Û^T Û - I||^2 + ||V̂^T V̂ - I||^2 for the stacked factors
        Û = [U_r, U] and V̂ = [V_r, V]. Blockwise, ||Û^T Û - I||^2 =
        ||U_r^T U_r - I||^2 + 2 ||U_r^T U||^2 + ||U^T U - I||^2, so a call costs
        O(n r k) and no n x n array: the first block depends on the frozen
        factors alone and is computed once, on the first call with
        lambda1 > 0. sv is the spectral-energy drift
        | ||W_eff||_F^2 - ||W_init||_F^2 |. ``w_eff`` is the current
        ``effective_weight()`` if the caller already has it; without it the
        weight is recomputed.
        """
        grads = {}
        orth = 0.0
        sv = 0.0
        if lambda1 > 0:
            sp = self.split
            if self._frozen_orth is None:
                grams = (f.T @ f - np.eye(sp.r) for f in (sp.u_r, sp.v_r))
                self._frozen_orth = sum(np.sum(g * g) for g in grams)
            orth = self._frozen_orth
            for key, frozen, f in (("u", sp.u_r, self.u), ("v", sp.v_r, self.v)):
                cross = frozen.T @ f
                gram = f.T @ f - self._eye
                orth += 2.0 * (cross * cross).sum() + (gram * gram).sum()
                grads[key] = 4.0 * lambda1 * (frozen @ cross + f @ gram)
            orth = float(orth)
        if lambda2 > 0:
            if w_eff is None:
                w_eff = self.effective_weight()
            drift = float((w_eff * w_eff).sum()) - self.frozen_frob_sq
            sv = abs(drift)
            sign = 0.0 if drift == 0.0 else (1.0 if drift > 0 else -1.0)
            for key, g in self.weight_grad(2.0 * sign * lambda2 * w_eff).items():
                grads[key] = grads.get(key, 0.0) + g
        return orth, sv, grads

    def save(self, directory):
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        sp = self.split
        if sp.r > 0:
            write_emx(d / "u_r.emx", sp.u_r)
            write_emx(d / "s_r.emx", sp.s_r.reshape(-1, 1))
            write_emx(d / "v_r.emx", sp.v_r)
        write_emx(d / "u.emx", self.u)
        write_emx(d / "s.emx", self.s.reshape(-1, 1))
        write_emx(d / "v.emx", self.v)
        manifest = {
            "kind": self.kind,
            "n": self.n,
            "r": sp.r,
            "lambda1": self.reg.lambda1,
            "lambda2": self.reg.lambda2,
            "frozen_frob_sq": self.frozen_frob_sq,
        }
        _write_manifest(d, manifest)


class LoraAdapter:
    """Frozen base weight plus scale * b @ a with a Gaussian, b zero at init."""

    kind = "lora"

    def __init__(self, w, rank, rng, scale=1.0, init_std=0.02):
        a = check_matrix(w, "weight")
        n, n2 = a.shape
        if n != n2:
            raise ValidationError(f"weight must be square, got {a.shape}")
        if not 1 <= rank <= n:
            raise ValidationError(f"lora rank {rank} out of range [1, {n}]")
        self.n = n
        self.w0 = a.copy()
        self.a = init_std * rng.standard_normal((rank, n))
        self.b = np.zeros((n, rank))
        self.scale = float(scale)

    @classmethod
    def from_parts(cls, w0, a, b, scale):
        self = cls.__new__(cls)
        self.n = w0.shape[0]
        self.w0 = w0
        self.a = a
        self.b = b
        self.scale = float(scale)
        return self

    @property
    def rank(self):
        return self.a.shape[0]

    def effective_weight(self):
        return self.w0 + self.scale * (self.b @ self.a)

    def trainable(self):
        return {"a": self.a, "b": self.b}

    def count_trainable(self):
        return self.a.size + self.b.size

    def weight_grad(self, m):
        return {"a": self.scale * (self.b.T @ m), "b": self.scale * (m @ self.a.T)}

    def save(self, directory):
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        write_emx(d / "w0.emx", self.w0)
        write_emx(d / "a.emx", self.a)
        write_emx(d / "b.emx", self.b)
        _write_manifest(d, {"kind": self.kind, "n": self.n, "r": self.rank, "scale": self.scale})


class FullAdapter:
    """Plain trainable weight matrix."""

    kind = "full"

    def __init__(self, w):
        a = check_matrix(w, "weight")
        if a.shape[0] != a.shape[1]:
            raise ValidationError(f"weight must be square, got {a.shape}")
        self.n = a.shape[0]
        self.w = a.copy()

    def effective_weight(self):
        return self.w

    def trainable(self):
        return {"w": self.w}

    def count_trainable(self):
        return self.w.size

    def weight_grad(self, m):
        return {"w": m}

    def save(self, directory):
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        write_emx(d / "w.emx", self.w)
        _write_manifest(d, {"kind": self.kind, "n": self.n, "r": 0})


class FrozenAdapter:
    """Fixed weight matrix; nothing trains."""

    kind = "frozen"

    def __init__(self, w):
        a = check_matrix(w, "weight")
        if a.shape[0] != a.shape[1]:
            raise ValidationError(f"weight must be square, got {a.shape}")
        self.n = a.shape[0]
        self.w = a.copy()

    def effective_weight(self):
        return self.w

    def trainable(self):
        return {}

    def count_trainable(self):
        return 0

    def weight_grad(self, m):
        return {}

    def save(self, directory):
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        write_emx(d / "w.emx", self.w)
        _write_manifest(d, {"kind": self.kind, "n": self.n, "r": 0})


def _write_manifest(directory, payload):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    (Path(directory) / "manifest.json").write_text(text)


def read_manifest(directory, what):
    """The JSON object in ``directory/manifest.json``; FormatError if it is
    missing, unreadable or not an object."""
    path = Path(directory) / "manifest.json"
    if not path.exists():
        raise FormatError(f"{directory}: missing {what} manifest")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise FormatError(f"{path}: unreadable {what} manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: {what} manifest is not a JSON object")
    return manifest


def load_adapter(directory):
    """Restore any adapter saved by ``.save()``; byte-stable round trip."""
    d = Path(directory)
    manifest = read_manifest(d, "adapter")
    try:
        return _load_kind(d, manifest)
    except KeyError as exc:
        raise FormatError(f"{d}: adapter manifest has no field {exc}") from None


def _load_kind(d, manifest):
    kind = manifest.get("kind")
    if kind == "svd":
        n = int(manifest["n"])
        r = int(manifest["r"])
        if r > 0:
            u_r = read_emx(d / "u_r.emx")
            s_r = read_emx(d / "s_r.emx").reshape(-1)
            v_r = read_emx(d / "v_r.emx")
        else:
            u_r = np.zeros((n, 0))
            s_r = np.zeros(0)
            v_r = np.zeros((n, 0))
        sp = SubspaceSplit(
            r=r,
            u_r=u_r,
            s_r=s_r,
            v_r=v_r,
            u_nr=read_emx(d / "u.emx"),
            s_nr=read_emx(d / "s.emx").reshape(-1),
            v_nr=read_emx(d / "v.emx"),
            frozen_frob_sq=float(manifest["frozen_frob_sq"]),
        )
        reg = RegularizerWeights(manifest["lambda1"], manifest["lambda2"])
        return SvdResidualAdapter.from_split(n, sp, reg)
    if kind == "lora":
        return LoraAdapter.from_parts(
            read_emx(d / "w0.emx"),
            read_emx(d / "a.emx"),
            read_emx(d / "b.emx"),
            manifest["scale"],
        )
    if kind == "full":
        return FullAdapter(read_emx(d / "w.emx"))
    if kind == "frozen":
        return FrozenAdapter(read_emx(d / "w.emx"))
    raise FormatError(f"{d}: unknown adapter kind {kind!r}")


def count_trainable(adapters, head_params=0):
    """Total trainable parameters across adapters plus a classifier head."""
    return int(sum(a.count_trainable() for a in adapters) + head_params)
