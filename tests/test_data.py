"""Synthetic task generation: determinism, provenance, separability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoadapt.data import SPLITS, Dataset, FakeMethod, SyntheticSpec, gen_dataset
from orthoadapt.errors import ConfigError, ValidationError
from orthoadapt.experiment import roc_auc
from orthoadapt.seeding import substream


def small_spec(**kw):
    base = dict(dim=16, clusters=4, samples_per_split=512, seed=0)
    base.update(kw)
    return SyntheticSpec(**base)


def pair_probe_auc(spec, split="finetune_test_seen"):
    """Oracle: estimate each seen method's distortion operator by least squares
    on its (source, fake) pairs, score test samples by the largest projection
    on the recovered distortion directions."""
    tr = gen_dataset(spec, "finetune_train", 1)
    te = gen_dataset(spec, split, 1)
    scores = []
    for m in spec.seen_methods:
        rows = tr.method_ids == m.id
        x = tr.sources[rows]
        d = np.linalg.lstsq(x, tr.x[rows] - x, rcond=None)[0].T
        u_top = np.linalg.svd(d)[0][:, 0]
        if np.mean((tr.x[rows] - x) @ u_top) < 0:
            u_top = -u_top
        scores.append(te.x @ u_top)
    return roc_auc(np.max(scores, axis=0), te.y)


def per_group_gen_dataset(spec, split, seq_len=1):
    """Reference generator: one draw and one set of products per group, in
    group order. ``gen_dataset`` must reproduce its output bit for bit."""
    if split not in SPLITS:
        raise ValidationError(f"unknown split {split!r}")
    rng = substream(spec.seed, "data", split, seq_len)
    groups = spec.samples_per_split
    n = spec.dim
    damp = (1.0 - spec.amplitude_noise) * spec.amplitude_dir

    def draw_real(rows, tag):
        g = rng.standard_normal((rows, n))
        noise = g - np.outer(g @ spec.amplitude_dir, damp)
        return spec.cluster_means[tag] + spec.cluster_noise[tag] * noise

    if split == "pretrain":
        x = np.empty((groups * seq_len, n))
        y = np.empty(groups, dtype=np.int64)
        for g in range(groups):
            k = g % spec.clusters
            x[g * seq_len : (g + 1) * seq_len] = draw_real(seq_len, k)
            y[g] = k
        return Dataset(x=x, y=y, seq_len=seq_len, sources=x.copy(),
                       method_ids=np.full(groups, -1, dtype=np.int64))

    methods = spec.seen_methods if split != "finetune_test_unseen" else spec.unseen_methods
    x = np.empty((groups * seq_len, n))
    sources = np.empty_like(x)
    y = np.empty(groups, dtype=np.int64)
    method_ids = np.full(groups, -1, dtype=np.int64)
    for g in range(groups):
        k = (g // 2) % spec.clusters
        real = draw_real(seq_len, k)
        lo, hi = g * seq_len, (g + 1) * seq_len
        sources[lo:hi] = real
        if g % 2 == 0:
            x[lo:hi] = real
            y[g] = 0
        else:
            method = methods[(g // 2) % len(methods)]
            x[lo:hi] = method.apply(real)
            y[g] = 1
            method_ids[g] = method.id
    return Dataset(x=x, y=y, seq_len=seq_len, sources=sources, method_ids=method_ids)


@st.composite
def generator_cases(draw):
    """A valid spec (every dim fits 8 clusters plus 5 rank-2 methods) and a
    seq_len; samples_per_split includes 1, 2 and odd values."""
    num_methods = draw(st.integers(2, 5))
    spec = SyntheticSpec(
        dim=draw(st.sampled_from([24, 32, 64])),
        clusters=draw(st.integers(2, 8)),
        perturb_rank=draw(st.integers(1, 2)),
        num_methods=num_methods,
        holdout_methods=draw(st.integers(0, num_methods - 1)),
        samples_per_split=draw(st.one_of(st.integers(1, 9), st.integers(10, 300))),
        seed=draw(st.integers(0, 2**16)),
    )
    return spec, draw(st.integers(1, 8))


def _outcome(fn, spec, split, seq_len):
    try:
        return fn(spec, split, seq_len)
    except (ConfigError, ValidationError) as exc:
        return type(exc)


class TestMethods:
    def test_orthonormal_bases(self):
        spec = small_spec()
        for m in spec.fake_methods:
            p = m.u.shape[1]
            assert np.abs(m.u.T @ m.u - np.eye(p)).max() <= 1e-8
            assert np.abs(m.v.T @ m.v - np.eye(p)).max() <= 1e-8

    def test_shared_overlap(self):
        spec = small_spec(method_overlap=0.35)
        u0 = spec.fake_methods[0].u[:, 0]
        u1 = spec.fake_methods[1].u[:, 0]
        assert abs(float(u0 @ u1) - 0.35) <= 1e-8

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValidationError):
            FakeMethod(id=0, u=np.ones((4, 1)), v=np.ones((4, 1)) / 2.0, gamma=1.0)
        nan_basis = np.full((4, 1), np.nan)
        with pytest.raises(ValidationError):
            FakeMethod(id=0, u=nan_basis, v=nan_basis, gamma=1.0)

    def test_uniform_amplitude_direction(self):
        spec = small_spec(amplitude_spread=0.0)
        proj = spec.cluster_means @ spec.amplitude_dir
        assert np.allclose(proj, proj[0])
        assert proj[0] > 0


class TestGenDataset:
    def test_deterministic(self):
        spec = small_spec()
        a = gen_dataset(spec, "finetune_train", 1)
        b = gen_dataset(spec, "finetune_train", 1)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_provenance_exact(self):
        # every fake equals source + gamma * u v^T source, bit for bit
        spec = small_spec()
        ds = gen_dataset(spec, "finetune_train", 1)
        methods = {m.id: m for m in spec.fake_methods}
        for g in range(ds.groups):
            if ds.y[g] == 1:
                m = methods[ds.method_ids[g]]
                src = ds.sources[g : g + 1]
                np.testing.assert_array_equal(ds.x[g : g + 1], m.apply(src))
            else:
                np.testing.assert_array_equal(ds.x[g], ds.sources[g])

    def test_gamma_zero_degenerate(self):
        spec = small_spec(gamma=0.0)
        ds = gen_dataset(spec, "finetune_train", 1)
        np.testing.assert_array_equal(ds.x, ds.sources)
        # nothing separates the classes
        auc = pair_probe_auc(small_spec(gamma=0.0, seed=3))
        assert 0.4 <= auc <= 0.6

    def test_probe_separability(self):
        # stated oracle: seen-method AUC of the paired-difference probe
        assert pair_probe_auc(SyntheticSpec(dim=16, clusters=4, gamma=0.5, seed=2)) >= 0.95

    def test_unseen_harder_than_seen(self):
        spec = small_spec(seed=2)
        seen = pair_probe_auc(spec, "finetune_test_seen")
        unseen = pair_probe_auc(spec, "finetune_test_unseen")
        assert unseen < seen

    def test_grouped_sequences(self):
        spec = small_spec()
        ds = gen_dataset(spec, "pretrain", 4)
        assert ds.x.shape == (spec.samples_per_split * 4, 16)
        assert ds.y.shape == (spec.samples_per_split,)
        rows = ds.group_rows(np.array([2]))
        np.testing.assert_array_equal(rows, [8, 9, 10, 11])

    def test_pretrain_labels_balanced(self):
        spec = small_spec()
        ds = gen_dataset(spec, "pretrain", 1)
        counts = np.bincount(ds.y, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_unseen_without_holdout(self):
        spec = small_spec(holdout_methods=0)
        with pytest.raises(ConfigError):
            gen_dataset(spec, "finetune_test_unseen", 1)

    def test_unknown_split(self):
        with pytest.raises(ValidationError):
            gen_dataset(small_spec(), "nope", 1)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(generator_cases())
    def test_matches_per_group_generator(self, case):
        spec, seq_len = case
        for split in SPLITS + ("nope",):
            got = _outcome(gen_dataset, spec, split, seq_len)
            want = _outcome(per_group_gen_dataset, spec, split, seq_len)
            if isinstance(want, type):
                assert got is want, split
                continue
            assert isinstance(got, Dataset), split
            assert got.seq_len == want.seq_len
            for name in ("x", "y", "sources", "method_ids"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), (split, name)
                assert a.tobytes() == b.tobytes(), (split, name)


class TestSpecValidation:
    def test_too_many_clusters(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(dim=8, clusters=9)

    def test_bad_noise(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(noise_sigma=0.0)

    def test_dimension_too_small_for_methods(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(dim=8, clusters=4, num_methods=4)
