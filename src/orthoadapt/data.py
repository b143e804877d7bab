"""Synthetic benchmark: diverse "real" vectors, derived "fake" vectors.

Real samples come from K seeded Gaussian clusters (the semantic task used for
pretraining). Fake samples are built from fresh real samples by a low-rank
linear distortion: fake = x + gamma * u (v^T x). Distortion directions of
different forgery methods share part of their energy (a common component),
so held-out methods overlap with - but do not equal - the training ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError, check_addressable, check_field_types
from .seeding import substream

SPLITS = ("pretrain", "finetune_train", "finetune_test_seen", "finetune_test_unseen")


@dataclass
class FakeMethod:
    """One forgery method: fake(x) = x + gamma * u @ (v^T x)."""

    id: int
    u: np.ndarray  # (n, p), orthonormal columns
    v: np.ndarray  # (n, p), orthonormal columns
    gamma: float

    def __post_init__(self):
        p = self.u.shape[1]
        for name, basis in (("u", self.u), ("v", self.v)):
            gram = basis.T @ basis
            if not np.abs(gram - np.eye(p)).max() <= 1e-8:  # NaN fails too
                raise ValidationError(f"method {self.id}: {name} columns not orthonormal")

    def apply(self, x):
        return x + self.gamma * (x @ self.v) @ self.u.T


@dataclass
class SyntheticSpec:
    dim: int = 32
    clusters: int = 16
    cluster_mean_scale: float = 3.0
    noise_sigma: float = 0.75
    samples_per_split: int = 16384
    seed: int = 0
    num_methods: int = 3
    holdout_methods: int = 1
    gamma: float = 1.35
    perturb_rank: int = 1
    method_overlap: float = 0.35
    mean_align: float = 0.5
    amplitude_noise: float = 0.15
    amplitude_spread: float = 0.5
    noise_spread: float = 0.85
    cluster_noise: np.ndarray = field(init=False, repr=False)
    fake_methods: list = field(init=False, repr=False)
    cluster_means: np.ndarray = field(init=False, repr=False)
    amplitude_dir: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check_field_types(self)
        if self.clusters < 2:
            raise ConfigError("spec needs at least 2 clusters")
        if self.clusters > self.dim:
            raise ConfigError("clusters cannot exceed the dimension")
        if self.noise_sigma <= 0:
            raise ConfigError("noise_sigma must be positive")
        if self.cluster_mean_scale <= 0:
            raise ConfigError("cluster_mean_scale must be positive")
        if self.samples_per_split < 1 or self.perturb_rank < 1:
            raise ConfigError("samples_per_split and perturb_rank must be >= 1")
        if not (0.0 <= self.method_overlap <= 1.0 and 0.0 <= self.mean_align <= 1.0):
            raise ConfigError("method_overlap and mean_align must lie in [0, 1]")
        check_addressable(self.dim * self.dim, "spec.dim²")  # bounds every spec array
        rng = substream(self.seed, "clusters")
        # Orthogonal cluster means with per-coordinate RMS cluster_mean_scale
        # (norm scale * sqrt(dim), matching a Gaussian draw of that scale).
        q = _orthonormal_columns(rng, self.dim, self.clusters)
        self.cluster_means = self.cluster_mean_scale * np.sqrt(self.dim) * q.T
        self.amplitude_dir = _amplitude_direction(self.cluster_means)
        if not 0.0 <= self.noise_spread < 1.0:
            raise ConfigError("noise_spread must lie in [0, 1)")
        self.cluster_noise = self.noise_sigma * (
            1.0 + self.noise_spread * rng.uniform(-1.0, 1.0, size=self.clusters)
        )
        self.fake_methods = default_fake_methods(self)
        if not 0 <= self.holdout_methods < len(self.fake_methods):
            raise ConfigError(f"holdout_methods must lie in [0, {len(self.fake_methods)}), "
                              "leaving at least one seen fake method")

    @property
    def seen_methods(self):
        return self.fake_methods[: len(self.fake_methods) - self.holdout_methods]

    @property
    def unseen_methods(self):
        if self.holdout_methods < 1:
            raise ConfigError("no held-out fake method configured")
        return self.fake_methods[len(self.fake_methods) - self.holdout_methods :]


def _orthonormal_columns(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q[:, :k]


def _amplitude_direction(means):
    # Least-norm direction with equal positive projection on every cluster
    # mean: distortion amplitude gamma * (v^T x) is then cluster-independent.
    gram = means @ means.T
    v = means.T @ np.linalg.solve(gram, np.ones(means.shape[0]))
    return v / np.linalg.norm(v)


def default_fake_methods(spec: SyntheticSpec):
    """Distortion methods with partially shared structure and a tight fake class.

    The u directions of all methods share ``method_overlap`` of their energy
    (a common component held-out methods also carry) and live off the semantic
    span. Each v mixes, with weight ``mean_align``, the direction whose
    projection is equal and positive on every cluster mean (a consistent
    distortion amplitude across semantic clusters) with the method's own u
    (which contracts the fake class along its artifact coordinate, making
    fakes low-variance where reals stay diverse).
    """
    n, p, m = spec.dim, spec.perturb_rank, spec.num_methods
    if spec.clusters + 1 + p * (m + 1) > n:
        raise ConfigError("dimension too small for clusters plus method directions")
    rng = substream(spec.seed, "methods")
    means = spec.cluster_means

    # Artifact (u) directions live off the semantic span.
    stack_u = np.concatenate([means.T, rng.standard_normal((n, p * (m + 1)))], axis=1)
    qu, _ = np.linalg.qr(stack_u)
    u_frame = qu[:, spec.clusters : spec.clusters + p * (m + 1)]
    shared_u = u_frame[:, :p]

    a = np.sqrt(spec.method_overlap)
    b = np.sqrt(1.0 - spec.method_overlap)
    ca = np.sqrt(spec.mean_align)
    cb = np.sqrt(1.0 - spec.mean_align)
    gram = means @ means.T
    methods = []
    for i in range(m):
        own_u = u_frame[:, p * (i + 1) : p * (i + 2)]
        u = a * shared_u + b * own_u
        # Per-cluster amplitude targets: every method distorts some semantic
        # clusters strongly and others weakly, so the real class needs
        # cluster-conditional treatment while each fake blob stays tight
        # (the -u component contracts the fake spread along its artifact axis).
        targets = np.clip(1.0 + spec.amplitude_spread * rng.standard_normal(spec.clusters), 0.65, None)
        v_amp = means.T @ np.linalg.solve(gram, targets)
        v_amp = v_amp / np.linalg.norm(v_amp)
        v = -u
        v[:, 0] = ca * v_amp - cb * u[:, 0]
        methods.append(FakeMethod(id=i, u=u, v=v, gamma=spec.gamma))
    return methods


@dataclass
class Dataset:
    """A split: x rows grouped into sequences of seq_len, one label per group.

    For fake groups, ``sources`` holds the exact real rows the fakes were
    derived from (real groups store their own rows) and ``method_ids`` the
    method used (-1 for real groups).
    """

    x: np.ndarray
    y: np.ndarray
    seq_len: int
    sources: np.ndarray = None
    method_ids: np.ndarray = None

    @property
    def groups(self):
        return self.y.shape[0]

    def group_rows(self, idx):
        idx = np.asarray(idx)
        return (idx[:, None] * self.seq_len + np.arange(self.seq_len)).reshape(-1)


def gen_dataset(spec: SyntheticSpec, split, seq_len=1):
    """Deterministic samples for one split; see module docstring.

    One draw makes the whole split: group g holds the g-th seq_len x dim
    block of the stream, the block a per-group draw would give it.
    """
    if split not in SPLITS:
        raise ValidationError(f"unknown split {split!r}")
    pretraining = split == "pretrain"
    if not pretraining:
        methods = spec.seen_methods if split != "finetune_test_unseen" else spec.unseen_methods
    rng = substream(spec.seed, "data", split, seq_len)
    groups = spec.samples_per_split
    n = spec.dim
    damp = (1.0 - spec.amplitude_noise) * spec.amplitude_dir
    g = np.arange(groups)
    tags = g % spec.clusters if pretraining else (g // 2) % spec.clusters

    # Cluster samples; noise is damped along the amplitude direction and its
    # scale varies per cluster (some semantic clusters are much noisier).
    # Products stay stacked, one (seq_len x n) BLAS call per group, because a
    # flat (groups * seq_len, n) product rounds differently.
    real = rng.standard_normal((groups, seq_len, n))
    real -= (real @ spec.amplitude_dir)[..., None] * damp
    real *= spec.cluster_noise[tags][:, None, None]
    real += spec.cluster_means[tags][:, None, :]
    sources = real.reshape(groups * seq_len, n)

    if pretraining:
        return Dataset(x=sources, y=tags, seq_len=seq_len, sources=sources,
                       method_ids=np.full(groups, -1, dtype=np.int64))

    x = real.copy()
    method_ids = np.full(groups, -1, dtype=np.int64)
    fake = g[1::2]
    for i, method in enumerate(methods):
        sel = fake[(fake // 2) % len(methods) == i]
        x[sel] = method.apply(real[sel])
        method_ids[sel] = method.id
    return Dataset(x=x.reshape(groups * seq_len, n), y=g % 2, seq_len=seq_len,
                   sources=sources, method_ids=method_ids)
