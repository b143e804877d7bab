"""Feature diagnostics: effective rank, asymmetry traces, logit-line fits."""

import numpy as np
import pytest

from orthoadapt.analysis import (
    asymmetry_trace,
    effective_rank,
    logit_line_fit,
    projection_export,
)
from orthoadapt.errors import ValidationError
from orthoadapt.experiment import ExperimentReport
from orthoadapt.linalg import pca


def dct_columns(n, k):
    """Zero-mean, exactly orthogonal columns for constructed covariances."""
    i = np.arange(n)[:, None]
    j = np.arange(1, k + 1)[None, :]
    cols = np.cos(np.pi * j * (2 * i + 1) / (2 * n))
    return cols / np.linalg.norm(cols, axis=0)


class TestEffectiveRank:
    def test_isotropic_five_dims(self):
        x = np.random.default_rng(0).standard_normal((20_000, 5))
        assert effective_rank(x).effective_rank == 5

    def test_rank_one(self):
        rng = np.random.default_rng(1)
        x = np.outer(rng.standard_normal(64), rng.standard_normal(6))
        assert effective_rank(x).effective_rank == 1

    def test_constructed_spectrum(self):
        # variances (0.5, 0.3, 0.15, 0.05): cumulative hits 0.95 >= 0.9 at k = 3
        n = 256
        cols = dct_columns(n, 4)
        x = cols * np.sqrt((n - 1) * np.array([0.5, 0.3, 0.15, 0.05]))
        rep = effective_rank(x)
        np.testing.assert_allclose(np.sort(rep.spectrum)[::-1][:4],
                                   [0.5, 0.3, 0.15, 0.05], atol=1e-10)
        assert rep.effective_rank == 3

    def test_monotone_in_threshold(self):
        x = np.random.default_rng(2).standard_normal((128, 8)) * np.arange(1, 9)
        ranks = [effective_rank(x, t).effective_rank for t in (0.5, 0.7, 0.9, 0.99)]
        assert ranks == sorted(ranks)

    def test_invariance_under_rotation_and_scale(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 6)) * np.array([3, 2, 1, 0.5, 0.25, 0.1])
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        base = effective_rank(x).effective_rank
        assert effective_rank(x @ q).effective_rank == base
        assert effective_rank(4.2 * x).effective_rank == base

    def test_zero_variance(self):
        rep = effective_rank(np.ones((12, 4)))
        assert rep.effective_rank == 0
        assert rep.zero_variance

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            effective_rank(np.ones((4, 2)), threshold=0.0)

    def test_csv(self):
        x = np.random.default_rng(4).standard_normal((64, 3))
        text = effective_rank(x).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "component,explained_variance_ratio,cumulative_ratio"
        assert len(lines) == 4


def fake_report(real, fake):
    rep = ExperimentReport(config={})
    rep.iters = list(range(len(real)))
    rep.real_loss = list(real)
    rep.fake_loss = list(fake)
    rep.total_loss = list(real)
    rep.orth_loss = [0.0] * len(real)
    rep.sv_loss = [0.0] * len(real)
    return rep


class TestAsymmetryTrace:
    def test_constant_equal_losses(self):
        rep = fake_report([0.5] * 100, [0.5] * 100)
        tr = asymmetry_trace(rep)
        np.testing.assert_allclose(tr.ratio, 1.0)
        assert tr.crossing_iter is None

    def test_strong_constant_asymmetry(self):
        rep = fake_report([1.0] * 50, [0.01] * 50)
        tr = asymmetry_trace(rep)
        np.testing.assert_allclose(tr.ratio, 100.0)
        assert tr.crossing_iter == 0

    def test_vanishing_fake_loss(self):
        rep = fake_report([1.0] * 30, [0.0] * 30)
        tr = asymmetry_trace(rep)
        assert np.isinf(tr.ratio).all()
        assert tr.crossing_iter == 0

    def test_short_series(self):
        rep = fake_report([1.0, 1.0], [0.5, 0.5])
        tr = asymmetry_trace(rep)
        assert tr.ratio.shape[0] == 1

    def test_fft_crossing_within_first_fifth(self, experiment_bundle):
        # the naive regime locks onto the fake class early (world seed 7)
        report = experiment_bundle[7]["runs"]["fft"]["report"]
        tr = asymmetry_trace(report)
        assert tr.crossing_iter is not None
        assert tr.crossing_iter <= 0.2 * len(report.iters)


class TestLogitLineFit:
    def test_exact_line(self):
        x = np.linspace(-2, 2, 40)
        logits = np.stack([x, -x + 3.0], axis=1)
        fit = logit_line_fit(logits)
        assert abs(fit.slope + 1.0) <= 1e-12
        assert abs(fit.intercept - 3.0) <= 1e-12
        assert fit.residual_rms <= 1e-12
        assert fit.collapsed

    def test_isotropic_gaussian_not_collapsed(self):
        logits = np.random.default_rng(5).standard_normal((4000, 2))
        fit = logit_line_fit(logits)
        assert abs(fit.slope) <= 0.1
        assert not fit.collapsed

    def test_degenerate(self):
        logits = np.stack([np.zeros(10), np.random.default_rng(6).standard_normal(10)], axis=1)
        fit = logit_line_fit(logits)
        assert fit.degenerate
        assert not fit.collapsed

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((200, 2)) * np.array([2.0, 1.0])
        base = logit_line_fit(logits)
        shifted = logit_line_fit(logits + 5.0)
        assert abs(shifted.slope - base.slope) <= 1e-9
        assert abs(shifted.intercept - (base.intercept + 5.0 * (1 - base.slope))) <= 1e-9

    def test_regime_contrast(self, experiment_bundle):
        # naive fine-tuning collapses the logits onto y = -x + b; the
        # subspace-constrained regime does not, on at least 4 of 5 worlds
        fft_hits = sum(w["runs"]["fft"]["collapse"].collapsed for w in experiment_bundle.values())
        svd_free = sum(not w["runs"]["svd"]["collapse"].collapsed for w in experiment_bundle.values())
        assert fft_hits >= 4
        assert svd_free >= 4


class TestProjectionExport:
    def test_rank_one_recovery(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal(80)
        direction = rng.standard_normal(5)
        direction /= np.linalg.norm(direction)
        x = np.outer(t, direction) + 2.0
        coords = projection_export(x, 1)
        centered_norms = np.abs(t - t.mean())
        np.testing.assert_allclose(np.abs(coords[:, 0]), centered_norms, atol=1e-8)

    def test_distance_preservation_full_k(self):
        x = np.random.default_rng(9).standard_normal((40, 4))
        coords = projection_export(x, 4)
        d_orig = np.linalg.norm(x[:, None] - x[None, :], axis=-1)
        d_proj = np.linalg.norm(coords[:, None] - coords[None, :], axis=-1)
        np.testing.assert_allclose(d_proj, d_orig, atol=1e-8)

    def test_column_variance_matches_eigenvalue(self):
        x = np.random.default_rng(10).standard_normal((300, 6)) * np.arange(1, 7)
        eigvals, _ = pca(x)
        coords = projection_export(x, 3)
        for j in range(3):
            assert abs(np.var(coords[:, j], ddof=1) - eigvals[j]) <= 1e-8 * max(eigvals[j], 1.0)

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            projection_export(np.ones((10, 3)), 4)
