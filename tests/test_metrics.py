"""Gaussian fitting and the Frechet distance against independent solvers."""

import numpy as np
import pytest
import scipy.linalg

from crdgan.autodiff import Tensor
from crdgan.metrics import (
    GaussianStats, fit_gaussian, frechet_distance, pixel_error, pooled_features, sqrtm_psd,
)
from crdgan.perceptual import FeatureExtractor, extract


class TestFitGaussian:
    def test_two_point_formula(self):
        stats = fit_gaussian([[0.0, 0.0], [2.0, 2.0]])
        np.testing.assert_allclose(stats.mean, [1.0, 1.0])
        np.testing.assert_allclose(stats.cov, [[2.0, 2.0], [2.0, 2.0]])
        assert stats.count == 2

    def test_identical_vectors_zero_covariance(self):
        stats = fit_gaussian(np.ones((5, 3)))
        np.testing.assert_allclose(stats.cov, np.zeros((3, 3)), atol=1e-15)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(100, 4))
        stats = fit_gaussian(feats)
        n, d = feats.shape
        mean = np.zeros(d)
        for row in feats:
            mean += row
        mean /= n
        cov = np.zeros((d, d))
        for row in feats:
            c = row - mean
            cov += np.outer(c, c)
        cov /= n - 1
        np.testing.assert_allclose(stats.mean, mean, atol=1e-10)
        np.testing.assert_allclose(stats.cov, cov, atol=1e-10)

    def test_single_vector_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_gaussian(np.ones((1, 3)))

    def test_cov_symmetric(self):
        rng = np.random.default_rng(1)
        stats = fit_gaussian(rng.normal(size=(40, 6)))
        np.testing.assert_allclose(stats.cov, stats.cov.T, atol=1e-10)


class TestFrechet:
    def test_identical_stats_zero(self):
        rng = np.random.default_rng(2)
        stats = fit_gaussian(rng.normal(size=(50, 3)))
        assert frechet_distance(stats, stats) <= 1e-8

    def test_unit_mean_shift_in_1d(self):
        a = GaussianStats(np.array([0.0]), np.array([[1.0]]), 100)
        b = GaussianStats(np.array([1.0]), np.array([[1.0]]), 100)
        assert frechet_distance(a, b) == pytest.approx(1.0, abs=1e-8)

    def test_against_scipy_sqrtm_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            fa = rng.normal(size=(60, 3))
            fb = rng.normal(size=(60, 3)) @ np.diag([1.0, 2.0, 0.5]) + 0.3
            a, b = fit_gaussian(fa), fit_gaussian(fb)
            got = frechet_distance(a, b)
            diff = a.mean - b.mean
            covmean = scipy.linalg.sqrtm(a.cov @ b.cov)
            want = float(diff @ diff + np.trace(a.cov) + np.trace(b.cov)
                         - 2.0 * np.trace(covmean.real))
            assert got == pytest.approx(want, abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = fit_gaussian(rng.normal(size=(30, 4)))
        b = fit_gaussian(rng.normal(size=(30, 4)) * 1.5 + 0.2)
        assert frechet_distance(a, b) == pytest.approx(frechet_distance(b, a), abs=1e-8)

    def test_translation_covariance(self):
        rng = np.random.default_rng(5)
        a = fit_gaussian(rng.normal(size=(30, 3)))
        b = fit_gaussian(rng.normal(size=(30, 3)) * 0.7)
        shift = np.array([5.0, -2.0, 1.0])
        a2 = GaussianStats(a.mean + shift, a.cov, a.count)
        b2 = GaussianStats(b.mean + shift, b.cov, b.count)
        assert frechet_distance(a, b) == pytest.approx(frechet_distance(a2, b2), abs=1e-8)

    def test_non_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            a = fit_gaussian(rng.normal(size=(10, 5)))
            b = fit_gaussian(rng.normal(size=(10, 5)))
            assert frechet_distance(a, b) >= 0.0

    def test_dimension_mismatch_rejected(self):
        a = GaussianStats(np.zeros(2), np.eye(2), 10)
        b = GaussianStats(np.zeros(3), np.eye(3), 10)
        with pytest.raises(ValueError, match="dimension"):
            frechet_distance(a, b)


class TestSqrtm:
    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            m = rng.normal(size=(4, 4))
            psd = m @ m.T
            root = sqrtm_psd(psd)
            np.testing.assert_allclose(root @ root, psd, atol=1e-8)

    def test_negative_eigenvalues_clamped(self):
        root = sqrtm_psd(np.diag([4.0, -1e-12]))
        np.testing.assert_allclose(root, np.diag([2.0, 0.0]), atol=1e-6)


class TestPixelError:
    def test_zero_at_self(self):
        x = np.ones((3, 4, 4))
        assert pixel_error(x, x, "L1") == 0.0
        assert pixel_error(x, x, "L2") == 0.0

    def test_constant_difference(self):
        a = np.zeros((3, 2, 2))
        b = np.ones((3, 2, 2))
        assert pixel_error(a, b, "L1") == 1.0
        assert pixel_error(a, b, "L2") == 1.0

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(2, 3, 3))
        b = rng.normal(size=(2, 3, 3))
        l1 = l2 = 0.0
        for x, y in zip(a.ravel(), b.ravel()):
            l1 += abs(x - y)
            l2 += (x - y) ** 2
        l1 /= a.size
        l2 /= a.size
        assert pixel_error(a, b, "L1") == pytest.approx(l1, abs=1e-12)
        assert pixel_error(a, b, "L2") == pytest.approx(l2, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            pixel_error(np.zeros((1, 2)), np.zeros((2, 1)))


class TestPooledFeatures:
    def test_one_pass_equals_per_image_rows(self):
        extractor = FeatureExtractor.fixed_random(seed=3)
        rng = np.random.default_rng(21)
        images = [rng.uniform(-1, 1, (3, 16, 16)) for _ in range(5)]
        want = np.stack([extract(Tensor(img), extractor)[-1].data.mean(axis=(1, 2))
                         for img in images])
        for pool in (images, [Tensor(img) for img in images], np.stack(images)):
            got = pooled_features(pool, extractor)
            assert got.shape == (5, 64) and got.dtype == np.float64
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
