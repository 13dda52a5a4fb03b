"""Desk-scale quality metrics: Frechet distance over small feature spaces,
pixel errors, and Gaussian feature statistics.

Features come from the perceptual module's fixed random extractor
(global-average-pooled final tap), so distances rank generators relative to
each other within one run; no claim is made about matching published FID
magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .perceptual import FeatureExtractor, _layer_outputs

COV_REGULARIZER = 1e-8


@dataclass
class GaussianStats:
    mean: np.ndarray
    cov: np.ndarray
    count: int

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def fit_gaussian(features) -> GaussianStats:
    """Sample mean and unbiased sample covariance of a stack of vectors."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError(f"expected a stack of equal-length vectors, got shape {feats.shape}")
    n = feats.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 feature vectors, got {n}")
    mean = feats.mean(axis=0)
    centered = feats - mean
    cov = centered.T @ centered / (n - 1)
    return GaussianStats(mean, cov, n)


def sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition; negatives clamp to 0."""
    mat = np.asarray(mat, dtype=np.float64)
    sym = 0.5 * (mat + mat.T)
    evals, evecs = np.linalg.eigh(sym)
    root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
    return 0.5 * (root + root.T)


def frechet_distance(a: GaussianStats, b: GaussianStats) -> float:
    """2-Wasserstein distance between two Gaussian fits.

    ||mu_a - mu_b||^2 + Tr(S_a + S_b - 2*sqrtm(S_a^1/2 S_b S_a^1/2)), with
    the symmetrized product keeping all eigen-work on symmetric matrices and
    a small ridge guarding small-sample degeneracy.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    ridge = COV_REGULARIZER * np.eye(a.dim)
    cov_a = a.cov + ridge
    cov_b = b.cov + ridge
    root_a = sqrtm_psd(cov_a)
    inner = sqrtm_psd(root_a @ cov_b @ root_a)
    diff = a.mean - b.mean
    value = float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * np.trace(inner))
    return max(value, 0.0)


def pixel_error(a, b, norm: str = "L2") -> float:
    """Mean per-element absolute (L1) or squared (L2) difference."""
    av = a.data if isinstance(a, Tensor) else np.asarray(a)
    bv = b.data if isinstance(b, Tensor) else np.asarray(b)
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch: {av.shape} vs {bv.shape}")
    d = av.astype(np.float64) - bv.astype(np.float64)
    if norm == "L1":
        return float(np.abs(d).mean())
    if norm == "L2":
        return float((d * d).mean())
    raise ValueError(f"unknown norm {norm!r} (expected 'L1' or 'L2')")


def pooled_features(images, extractor: FeatureExtractor) -> np.ndarray:
    """Global-average-pooled final-tap features, one row per [c,h,w] image.

    ``images`` is a [n,c,h,w] stack or a sequence of [c,h,w] images; the
    extractor runs once over the whole stack, channels-last in plain numpy
    (the perceptual loss's forward), so no graph is built.
    """
    stack = np.stack([img.data if isinstance(img, Tensor) else np.asarray(img)
                      for img in images])
    _, _, act = _layer_outputs(stack.transpose(0, 2, 3, 1), extractor)[-1]
    return act.mean(axis=(1, 2)).astype(np.float64)


def pool_stats(images, extractor: FeatureExtractor) -> GaussianStats:
    """Gaussian fit of an image pool's pooled features."""
    return fit_gaussian(pooled_features(images, extractor))


def frechet_between(images_a, images_b, extractor: FeatureExtractor) -> float:
    """Desk Frechet distance between two image pools."""
    return frechet_distance(pool_stats(images_a, extractor), pool_stats(images_b, extractor))
