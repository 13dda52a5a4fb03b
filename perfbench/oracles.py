"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls into crdgan: slicing, the relation structures and the
Huber penalty are written again with plain numpy loops, and the Frechet
distance uses scipy's general matrix square root instead of the program's
symmetric eigendecomposition.
"""

from __future__ import annotations

import numpy as np

GRANULARITIES = ("column", "row", "patch")


def slice_items(img: np.ndarray, granularity: str, n: int, m: int) -> np.ndarray:
    """Content vectors of one [c,h,w] image, one row per item, in raster order."""
    c, h, w = img.shape
    if granularity == "column":
        rows = [img[:, :, x].ravel() for x in range(w)]
    elif granularity == "row":
        rows = [img[:, y, :].ravel() for y in range(h)]
    else:
        rows = [img[:, py * n:(py + 1) * n, px * m:(px + 1) * m].ravel()
                for py in range(h // n) for px in range(w // m)]
    return np.asarray(rows, dtype=np.float64)


def _huber(d: np.ndarray) -> np.ndarray:
    a = np.abs(d)
    return np.where(a <= 1.0, 0.5 * d * d, a - 0.5)


def _distance_table(items: np.ndarray) -> np.ndarray:
    """Mean-normalised distance of every pair i<j, in lexicographic order."""
    count = len(items)
    dists = []
    for i in range(count):
        for j in range(i + 1, count):
            dists.append(np.sqrt(np.sum((items[i] - items[j]) ** 2)))
    dists = np.asarray(dists)
    mu = dists.mean()
    return dists / mu if mu > 0 else np.zeros_like(dists)


def _angle_table(items: np.ndarray) -> np.ndarray:
    """Cosine at vertex j for every triple i<j<k, in lexicographic order."""
    count = len(items)
    out = []
    for i in range(count):
        for j in range(i + 1, count - 1):
            e1 = items[i] - items[j]
            e1 = e1 / np.sqrt(np.sum(e1 * e1))
            e2 = items[j] - items[j + 1:]
            e2 = e2 / np.sqrt(np.sum(e2 * e2, axis=1))[:, None]
            out.append(e2 @ e1)
    return np.concatenate(out)


def _table(items: np.ndarray, angle: bool) -> np.ndarray:
    return _angle_table(items) if angle else _distance_table(items)


def crd_term_diffs(t_img, s_img, n: int, m: int, angle: bool) -> list:
    """Teacher-minus-student structure values per granularity, every tuple."""
    t_img = np.asarray(t_img, dtype=np.float64)
    s_img = np.asarray(s_img, dtype=np.float64)
    return [_table(slice_items(t_img, g, n, m), angle)
            - _table(slice_items(s_img, g, n, m), angle) for g in GRANULARITIES]


def crd_value(t_img, s_img, n: int, m: int, angle: bool) -> float:
    """Full-enumeration distance (or angle) loss of one [c,h,w] image pair:
    the Huber mismatch averaged over tuples, summed over granularities."""
    return float(sum(_huber(d).mean() for d in crd_term_diffs(t_img, s_img, n, m, angle)))


def kink_margin(t_img, s_img, n: int, m: int) -> float:
    """Smallest distance of any Huber argument's magnitude from the branch
    point at 1; central differences are only trusted well away from it."""
    return min(float(np.abs(np.abs(d) - 1.0).min())
               for angle in (False, True)
               for d in crd_term_diffs(t_img, s_img, n, m, angle))


def frechet_scipy(feats_a: np.ndarray, feats_b: np.ndarray, ridge: float) -> float:
    """Frechet distance of two feature stacks with scipy.linalg.sqrtm.

    ||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 sqrtm(S_a S_b)); the same ridge as
    the program keeps the small-sample covariances invertible.
    """
    from scipy.linalg import sqrtm

    dim = feats_a.shape[1]
    cov_a = np.cov(feats_a, rowvar=False) + ridge * np.eye(dim)
    cov_b = np.cov(feats_b, rowvar=False) + ridge * np.eye(dim)
    diff = feats_a.mean(axis=0) - feats_b.mean(axis=0)
    root = sqrtm(cov_a @ cov_b)
    value = diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * np.trace(root).real
    return max(float(value), 0.0)
