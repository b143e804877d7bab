"""Feature-space diagnostics.

Effective rank (components needed to explain a variance fraction), training
asymmetry traces (real-class vs fake-class loss), the logit-collapse line
fit, and PCA projections for export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .emx import csv_text
from .errors import ValidationError
from .linalg import check_matrix, pca


@dataclass
class RankReport:
    spectrum: np.ndarray
    effective_rank: int
    threshold: float
    source: str = ""
    zero_variance: bool = False

    def to_csv(self):
        ratios = self.spectrum.tolist()
        return csv_text(["component", "explained_variance_ratio", "cumulative_ratio"],
                        zip(range(1, len(ratios) + 1), ratios, accumulate(ratios)))


def effective_rank(features, threshold=0.9, source="", decomposition=None) -> RankReport:
    """Minimum number of principal components whose cumulative explained
    variance reaches ``threshold``; 0 (flagged) for zero-variance data.
    ``decomposition`` is ``pca(features)`` when the caller already holds it."""
    if not 0.0 < threshold <= 1.0:
        raise ValidationError("threshold must lie in (0, 1]")
    w, _ = decomposition or pca(features)
    total = float(w.sum())
    if total <= 0.0:
        return RankReport(spectrum=np.zeros(w.shape[0]), effective_rank=0,
                          threshold=threshold, source=source, zero_variance=True)
    ratios = w / total
    k = int(np.searchsorted(np.cumsum(ratios), threshold - 1e-12) + 1)
    return RankReport(spectrum=ratios, effective_rank=min(k, len(ratios)),
                      threshold=threshold, source=source)


ASYMMETRY_RATIO = 5.0  # real/fake loss ratio at which the fake class counts as locked in
SMOOTH = 15  # iterations in the running mean of the per-class losses


@dataclass
class AsymmetryTrace:
    iters: np.ndarray
    real_loss: np.ndarray
    fake_loss: np.ndarray
    ratio: np.ndarray
    crossing_iter: int = None  # first iteration with ratio >= ASYMMETRY_RATIO, if any


def asymmetry_trace(report) -> AsymmetryTrace:
    """Per-class loss trend and the first iteration where real/fake >= ASYMMETRY_RATIO.

    Batch-level class means at batch size 32 are dominated by sampling noise,
    so both series are smoothed with a running mean of ``SMOOTH`` iterations
    before the ratio is formed; the returned series are the smoothed ones and
    iteration i labels the window starting at raw iteration i. A vanishing
    fake loss counts as an infinite ratio.
    """
    real = np.asarray(report.real_loss, dtype=np.float64)
    fake = np.asarray(report.fake_loss, dtype=np.float64)
    window = max(1, min(SMOOTH, real.shape[0]))
    if window > 1:
        kernel = np.ones(window) / window
        real = np.convolve(real, kernel, mode="valid")
        fake = np.convolve(fake, kernel, mode="valid")
    iters = np.asarray(report.iters)[: real.shape[0]]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(fake > 0, real / np.where(fake > 0, fake, 1.0), np.inf)
    ratio = np.where(np.isnan(real) | np.isnan(fake), np.nan, ratio)
    crossing = None
    hits = np.nonzero(ratio >= ASYMMETRY_RATIO)[0]
    if hits.size:
        crossing = int(iters[hits[0]])
    return AsymmetryTrace(iters=iters, real_loss=real, fake_loss=fake,
                          ratio=ratio, crossing_iter=crossing)


@dataclass
class LogitLineFit:
    slope: float
    intercept: float
    residual_rms: float
    degenerate: bool
    collapsed: bool


COLLAPSE_SLOPE_TOL = 0.2
COLLAPSE_RESIDUAL_TOL = 0.03


def logit_line_fit(logits) -> LogitLineFit:
    """OLS of the fake-class logit on the real-class logit.

    The collapse diagnostic fires when the slope is within
    ``COLLAPSE_SLOPE_TOL`` of -1 and the residual RMS is below
    ``COLLAPSE_RESIDUAL_TOL`` times the fake-logit spread:
    predictions then lie on a single line y = -x + b, i.e. the model
    discriminates along one dimension. Cross-entropy heads conserve the logit
    sum under training, so any trained model sits near such a line; the
    residual threshold is calibrated to separate collapsed from rich feature
    spaces, not to test for the line itself.
    """
    z = check_matrix(logits, "logits")
    if z.shape[1] != 2:
        raise ValidationError("logit_line_fit expects batch x 2 logits")
    if z.shape[0] < 2:
        raise ValidationError("logit_line_fit needs at least 2 samples")
    x = z[:, 0]
    y = z[:, 1]
    x_var = float(np.var(x))
    if x_var <= 1e-24:
        return LogitLineFit(slope=0.0, intercept=float(np.mean(y)),
                            residual_rms=float(np.std(y)), degenerate=True, collapsed=False)
    slope = float(np.cov(x, y, ddof=0)[0, 1] / x_var)
    intercept = float(np.mean(y) - slope * np.mean(x))
    resid = y - (slope * x + intercept)
    residual_rms = float(math.sqrt(np.mean(resid * resid)))
    collapsed = (abs(slope + 1.0) <= COLLAPSE_SLOPE_TOL
                 and residual_rms <= COLLAPSE_RESIDUAL_TOL * float(np.std(y)))
    return LogitLineFit(slope=slope, intercept=intercept, residual_rms=residual_rms,
                        degenerate=False, collapsed=collapsed)


def projection_export(features, k, decomposition=None):
    """Coordinates of the samples on the top-k principal directions;
    ``decomposition`` as in ``effective_rank``."""
    x = check_matrix(features, "features")
    if not 1 <= k <= x.shape[1]:
        raise ValidationError(f"k={k} out of range [1, {x.shape[1]}]")
    _, dirs = decomposition or pca(x)
    return (x - x.mean(axis=0)) @ dirs[:, :k]
