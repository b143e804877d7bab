"""Parameterizations of a linear layer's effective weight.

Four kinds share one small interface: ``effective_weight()``, ``trainable()``
(name -> live array), ``weight_grad(m)`` mapping a gradient wrt the effective
weight into per-tensor gradients, and ``count_trainable()``.

* SvdResidualAdapter - principal SVD triplets frozen, residual triplets
  trainable, plus the orthogonality and spectral-energy regularizers.
* LoraAdapter - frozen base weight plus a trainable low-rank product.
* FullAdapter - the raw weight, fully trainable.
* FrozenAdapter - the raw weight, fixed.

``KINDS`` maps each kind's string to its class. No kind is saved as itself: a
checkpoint (``model.save_model``) holds each layer's effective weight.

An adapter holds the tensors of one n x n matrix. ``stack_adapters`` builds an
adapter of the same kind whose tensors hold m matrices along a leading axis,
and makes each member's tensors views into those stacks. The methods above
are written for both cases, so one call of each serves all m matrices. Only
the ``_TENSORS`` are stacked; an svd member keeps its own ``split``.

An svd adapter may take ``svd_cache``, a dict owned by the caller that maps
the sha256 digest of a weight's float64 bytes to that weight's ``svd``
factors, so adapters of one weight share one decomposition.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_field_types
from .linalg import SubspaceSplit, check_matrix, reconstruct, split, sum_sq, svd


@dataclass
class RegularizerWeights:
    """Multipliers for the orthogonality and spectral-energy penalties."""

    lambda1: float = 1.0
    lambda2: float = 1.0

    def __post_init__(self):
        check_field_types(self)
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValidationError("regularizer weights must be non-negative")


def _t(a):
    """The transpose of a matrix, or of each matrix of a stack."""
    return a.swapaxes(-1, -2)


def _sum_sq(a):
    """Sum of squared entries of a matrix, or of each matrix of a stack."""
    return np.add.reduce(a * a, axis=(-2, -1))


def _square_weight(w):
    """``w`` as a finite float64 matrix; ValidationError unless it is square."""
    a = check_matrix(w, "weight")
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"weight must be square, got {a.shape}")
    return a


def _stack(arrays, what):
    try:
        return np.stack(arrays)
    except ValueError as exc:
        raise ValidationError(f"cannot stack the adapters' {what} tensors: {exc}") from None


class _Adapter:
    """What every kind shares. ``_TENSORS`` names the attributes that hold
    arrays; ``stack_adapters`` gives them a leading axis of m."""

    _TENSORS = ()

    def bind(self, arrays):
        """Set the stacked tensors named in ``arrays`` and make each member's
        tensor of that name its view into them."""
        for key, arr in arrays.items():
            setattr(self, key, arr)
            for a, view in zip(self.members, arr):
                setattr(a, key, view)

    def count_trainable(self):
        return sum(p.size for p in self.trainable().values())


def _weight_svd(a, cache):
    """``svd`` of the square weight ``a``, through ``cache`` unless it is
    None. A square weight's bytes fix its shape, so they alone are the key."""
    if cache is None:
        return svd(a, "weight")
    key = hashlib.sha256(np.ascontiguousarray(a)).digest()
    factors = cache.get(key)
    if factors is None:
        factors = cache[key] = svd(a, "weight")
    return factors


class SvdResidualAdapter(_Adapter):
    """Frozen principal subspace + trainable residual SVD factors.

    The weight is kept as W_r + U diag(s) V^T where W_r collects the top
    r = n - residual_rank singular triplets (never touched after init) and
    (U, s, V) are the residual triplets, initialized to the exact SVD tail so
    the effective weight equals the original matrix at step 0.

    With ``svd_cache`` (see the module docstring), the factors of a weight
    whose digest is a key are taken from it rather than computed, and the
    factors computed on a miss are stored under that key; a failed SVD stores
    nothing. ``split`` copies the factors, so no adapter aliases an entry.
    """

    kind = "svd"
    _TENSORS = ("u", "s", "v", "_w_principal", "_u0", "_v0", "_principal_sq", "frozen_frob_sq")

    def __init__(self, w, residual_rank, reg=None, svd_cache=None):
        a = _square_weight(w)
        n = a.shape[0]
        if not 1 <= residual_rank <= n:
            raise ValidationError(f"residual rank {residual_rank} out of range [1, {n}]")
        sp = split(_weight_svd(a, svd_cache), n - residual_rank)
        self._init_from_split(n, sp, reg)

    def _init_from_split(self, n, sp: SubspaceSplit, reg):
        self.n = n
        self.split = sp
        self.u = sp.u_nr.copy()
        self.s = sp.s_nr.copy()
        self.v = sp.v_nr.copy()
        self.reg = reg if reg is not None else RegularizerWeights()
        self.frozen_frob_sq = sp.frozen_frob_sq
        self._w_principal = reconstruct(sp)
        self._principal_sq = sum_sq(self._w_principal, (-2, -1), "frozen principal weight")
        self._u0, self._v0 = sp.u_nr, sp.v_nr

    @classmethod
    def from_split(cls, n, sp, reg=None):
        """Restore an adapter from stored factors without re-running the SVD.
        The residual starts at (sp.u_nr, sp.s_nr, sp.v_nr); ``reg_terms``
        takes sp.u_nr and sp.v_nr as an orthonormal basis of the complement
        of sp.u_r and sp.v_r."""
        self = cls.__new__(cls)
        self._init_from_split(n, sp, reg)
        return self

    def effective_weight(self):
        return self._w_principal + (self.u * self.s[..., None, :]) @ _t(self.v)

    def trainable(self):
        return {"u": self.u, "s": self.s, "v": self.v}

    def weight_grad(self, m):
        return {
            "u": m @ (self.v * self.s[..., None, :]),
            "s": np.einsum("...ik,...ik->...k", self.u, m @ self.v),
            "v": _t(m) @ (self.u * self.s[..., None, :]),
        }

    def reg_terms(self, lambda1, lambda2):
        """(orth, sv, gradients of lambda1 * orth + lambda2 * sv), from the
        factors alone: neither term forms an n x n array. For a stack, orth and
        sv hold one entry per matrix; for one adapter they are floats.

        orth is ||[U_r, U]^T [U_r, U] - I||^2 + the same for V, less the frozen
        block ||U_r^T U_r - I||^2 + ||V_r^T V_r - I||^2, a constant with no
        gradient: 2 ||U_r^T U||^2 + ||U^T U - I||^2 + the same for V. U0 =
        ``_u0`` (the split's u_nr) is an orthonormal basis of the complement of
        U_r, so U_r U_r^T = I - U0 U0^T and ||U_r^T U||^2 = ||P U||^2 with P U =
        U - U0 (U0^T U), which costs O(n k^2); its gradient is 4 P U. For frozen
        factors that are not orthonormal this term is defined as 2 ||P U||^2,
        the energy of U outside the residual subspace. sv is | ||W_eff||^2 -
        ||W_init||^2 | for W_eff = W_p + U S V^T, from ||W_p||^2 + tr(S U^T W_p
        V) + tr(S U^T W_eff V); diag(U^T W_p V) is the column sums of U o W_p V,
        and the gradient of U is W_p V cs + U K with the k x k K summing both
        terms' parts (likewise V with W_p^T U). So a call reads W_p twice (a
        lambda1-only call not at all) and U_r and V_r never; ||W_p||^2 is taken
        when the adapter is built (NumericalError there on overflow), and a call
        keeps no state.
        """
        grads = {}
        orth = sv = np.zeros(self.s.shape[:-1])
        if lambda1 > 0 or lambda2 > 0:
            u, s, v, u0, v0 = self.u, self.s, self.v, self._u0, self._v0
            gram_u, gram_v = _t(u) @ u, _t(v) @ v
            out_u = out_v = own_u = own_v = 0.0  # n x k terms; k x k right-hand sides through U, V
            if lambda1 > 0:
                p_u, p_v = u - u0 @ (_t(u0) @ u), v - v0 @ (_t(v0) @ v)
                eye = np.eye(s.shape[-1])
                dev_u, dev_v = gram_u - eye, gram_v - eye
                orth = ((2.0 * _sum_sq(p_u) + _sum_sq(dev_u))
                        + (2.0 * _sum_sq(p_v) + _sum_sq(dev_v)))
                out_u, out_v = 4.0 * lambda1 * p_u, 4.0 * lambda1 * p_v
                own_u, own_v = 4.0 * lambda1 * dev_u, 4.0 * lambda1 * dev_v
            if lambda2 > 0:
                w_p = self._w_principal
                wp_v, wp_u = w_p @ v, _t(w_p) @ u
                sg_u, sg_v = s[..., :, None] * gram_u, s[..., :, None] * gram_v
                cross = np.add.reduce(u * wp_v, axis=-2)  # diag(U^T W_p V)
                full = cross + np.add.reduce(gram_u * sg_v, axis=-2)  # diag(U^T W_eff V)
                drift = (self._principal_sq + np.add.reduce(s * (cross + full), axis=-1)
                         - self.frozen_frob_sq)
                sv = np.abs(drift)
                c = (2.0 * np.sign(drift) * lambda2)[..., None]
                cs = (c * s)[..., None, :]
                out_u, out_v = out_u + wp_v * cs, out_v + wp_u * cs
                own_u, own_v = own_u + sg_v * cs, own_v + sg_u * cs
                grads["s"] = c * full
            grads["u"], grads["v"] = out_u + u @ own_u, out_v + v @ own_v
        if np.ndim(orth) == 0:
            return float(orth), float(sv), grads
        return orth, sv, grads


LORA_INIT_STD = 0.02


class LoraAdapter(_Adapter):
    """Frozen base weight plus scale * b @ a; a ~ N(0, LORA_INIT_STD^2), b = 0 at init.
    Every lora adapter has the one ``scale``."""

    kind = "lora"
    _TENSORS = ("w0", "a", "b")
    scale = 2.0

    def __init__(self, w, rank, rng):
        a = _square_weight(w)
        n = a.shape[0]
        if not 1 <= rank <= n:
            raise ValidationError(f"lora rank {rank} out of range [1, {n}]")
        self.n = n
        self.w0 = a.copy()
        self.a = LORA_INIT_STD * rng.standard_normal((rank, n))
        self.b = np.zeros((n, rank))

    def effective_weight(self):
        return self.w0 + self.scale * (self.b @ self.a)

    def trainable(self):
        return {"a": self.a, "b": self.b}

    def weight_grad(self, m):
        return {"a": self.scale * (_t(self.b) @ m), "b": self.scale * (m @ _t(self.a))}


class FullAdapter(_Adapter):
    """Plain trainable weight matrix."""

    kind = "full"
    _TENSORS = ("w",)

    def __init__(self, w):
        a = _square_weight(w)
        self.n = a.shape[0]
        self.w = a.copy()

    def effective_weight(self):
        return self.w

    def trainable(self):
        return {"w": self.w}

    def weight_grad(self, m):
        return {"w": m}


class FrozenAdapter(_Adapter):
    """Fixed weight matrix; nothing trains."""

    kind = "frozen"
    _TENSORS = ("w",)

    def __init__(self, w):
        a = _square_weight(w)
        self.n = a.shape[0]
        self.w = a.copy()

    def effective_weight(self):
        return self.w

    def trainable(self):
        return {}

    def weight_grad(self, m):
        return {}


KINDS = {cls.kind: cls for cls in (SvdResidualAdapter, LoraAdapter, FullAdapter, FrozenAdapter)}


def stack_adapters(adapters):
    """One adapter of the kind of ``adapters`` whose tensors stack theirs
    along a leading axis; each member's tensors become views into the stacks,
    so no second copy is kept. ValidationError unless all share one kind and
    one set of tensor shapes."""
    kinds = {type(a) for a in adapters}
    if len(kinds) != 1:
        raise ValidationError(
            f"adapters to stack must share one kind, got {sorted(k.kind for k in kinds)}")
    cls = kinds.pop()
    st = cls.__new__(cls)
    st.n = adapters[0].n
    st.members = list(adapters)
    st.bind({key: _stack([getattr(a, key) for a in adapters], key) for key in cls._TENSORS})
    return st
