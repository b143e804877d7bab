"""Synthetic task generation: determinism, provenance, separability."""

import numpy as np
import pytest

from orthoadapt.data import FakeMethod, SyntheticSpec, gen_dataset
from orthoadapt.errors import ConfigError, ValidationError
from orthoadapt.experiment import roc_auc


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
