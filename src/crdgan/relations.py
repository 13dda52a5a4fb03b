"""Relational distillation losses over content sets.

Two structures: pairwise distance over its own set's mean distance
(scale-invariant), and the triplet angle, the cosine between the residues
x_i - x_j and x_j - x_k at the middle item (invariant to rotation,
translation and positive scaling).  Teacher and student structures are
compared tuple-by-tuple with a Huber penalty, averaged over the tuples and
a batch's images, and summed over granularities.

One pass per content set makes both.  X = [count, B*D] holds a batch's
images side by side; the cached +-1 pair-incidence matrix A = [P, count]
gives every i<j residual as R = A @ X, each row the exact x_i - x_j
whatever the BLAS thread count.  Row sums of squares give d2 for every pair
of every image, and each tuple op is a gather on that vector: the distance
is sqrt(d2) over its image's mean, the angle at j is (d2_ik - d2_ij -
d2_jk) / 2 over max(d_ij, eps) * max(d_jk, eps) (law of cosines).  The Gram
form G_ij - G_ik - G_jj + G_jk would skip R but cancels catastrophically on
repeated items (a flat background); exact residuals give exact zeros.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from math import comb
from typing import Optional, Union

import numpy as np

from .autodiff import (
    Tensor, clamp_min, gather_sum, huber, matmul, reciprocal, reshape,
    sqrt_guarded, tmean, tsum,
)
from . import slicing
from .slicing import COLUMN, GRANULARITIES, PATCH, ROW, ContentSet

ItemsLike = Union[ContentSet, Tensor, np.ndarray]


@dataclass(frozen=True)
class RelationConfig:
    """Weights, sampling budgets and toggles for the relational losses.

    A budget of None means full enumeration.  ``seed`` drives tuple sampling
    only; pass a different seed per training step for fresh tuples.
    """

    lambda_a: float = 2.0
    pair_budget: Optional[int] = None
    triplet_budget: Optional[int] = 4096
    epsilon: float = 1e-12
    use_columns: bool = True
    use_rows: bool = True
    use_patches: bool = True
    angle_patches_only: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.lambda_a < 0:
            raise ValueError(f"lambda_a must be >= 0, got {self.lambda_a}")
        for name in ("pair_budget", "triplet_budget"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1 when set, got {v}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    def enabled_granularities(self, angle: bool = False) -> tuple:
        if angle and self.angle_patches_only:
            return (PATCH,) if self.use_patches else ()
        out = []
        if self.use_columns:
            out.append(COLUMN)
        if self.use_rows:
            out.append(ROW)
        if self.use_patches:
            out.append(PATCH)
        return tuple(out)


@dataclass
class DistanceStructure:
    """All pairwise Euclidean distances of one item set plus their mean.

    ``distances`` is the materialized symmetric matrix (zero diagonal);
    ``mu`` is the differentiable mean over unordered pairs and
    ``pair_values`` holds the distance of each i<j pair in lexicographic
    order, also differentiable.
    """

    distances: np.ndarray
    mu: Tensor
    pair_i: np.ndarray
    pair_j: np.ndarray
    pair_values: Tensor
    epsilon: float = 1e-12

    @property
    def count(self) -> int:
        return self.distances.shape[0]


@functools.lru_cache(maxsize=64)
def _triu_pairs(n: int):
    pi, pj = np.triu_indices(n, k=1)
    pi.setflags(write=False)
    pj.setflags(write=False)
    return pi, pj


@functools.lru_cache(maxsize=64)
def _incidence(count: int, dtype: np.dtype) -> Tensor:
    """[P, count]: row p is +1 at i and -1 at j for the p-th pair i<j."""
    eye = np.eye(count, dtype=dtype)
    pi, pj = _triu_pairs(count)
    a = eye[pi] - eye[pj]
    a.setflags(write=False)
    return Tensor(a)


def _tuple_index(tuples: np.ndarray, count: int, batch: int) -> np.ndarray:
    """d2 entries each tuple reads, one row per tuple and image: the pair
    ranks of (i,j) for a pair, of (i,j), (i,k), (j,k) for a triple i<j<k."""
    i, j = (tuples[:, [0]], tuples[:, [1]]) if tuples.shape[1] == 2 else \
        (tuples[:, [0, 0, 1]], tuples[:, [1, 2, 2]])
    rank = i * count - i * (i + 1) // 2 + j - i - 1
    return (rank[:, None, :] * batch + np.arange(batch)[:, None]).reshape(-1, rank.shape[1])


@functools.lru_cache(maxsize=64)
def _pool_index(count: int, arity: int, batch: int) -> np.ndarray:
    index = _tuple_index(_tuple_pool(count, arity), count, batch)
    index.setflags(write=False)
    return index


def _index(tuples: np.ndarray, count: int, batch: int) -> np.ndarray:
    if len(tuples) == comb(count, tuples.shape[1]):      # the full pool: cached
        return _pool_index(count, tuples.shape[1], batch)
    return _tuple_index(tuples, count, batch)


def _as_items(x: ItemsLike) -> Tensor:
    if isinstance(x, ContentSet):
        return x.items
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    if t.ndim != 2:
        raise ValueError(f"expected a rank-2 item stack, got shape {t.shape}")
    return t


def _pair_sq(x: Tensor, batch: int) -> Tensor:
    """d2 of every i<j pair of every image of X = [count, B*D], flat and
    pair-major: entry p*B + b is image b's pair p."""
    count, width = x.shape
    r = matmul(_incidence(count, x.dtype), x)             # rows: exact x_i - x_j
    return tsum(reshape(r * r, (-1, width // batch)), axes=1)


_ONE = (1.0,)
_COSINE = (-0.5, 0.5, -0.5)      # (d2_ik - d2_ij - d2_jk) / 2 over columns (ij, ik, jk)


def _compare(t_x: Tensor, s_x: Tensor, batch: int, pairs, triples, eps: float) -> tuple:
    """Huber mismatch of the two sides' phi_d over the pairs and phi_a over
    the triples, each averaged over its tuples and the images; None where no
    tuples are given."""
    pair_idx, triple_idx = (None if tuples is None else _index(tuples, t_x.shape[0], batch)
                            for tuples in (pairs, triples))
    phis = []
    for x in (t_x, s_x):
        sq = _pair_sq(x, batch)
        d = sqrt_guarded(sq, eps)
        phi_d = phi_a = None
        if pair_idx is not None:
            inv_mu = reciprocal(clamp_min(tmean(reshape(d, (-1, batch)), axes=0), eps))
            phi_d = gather_sum(d, pair_idx, _ONE) * gather_sum(inv_mu, pair_idx % batch, _ONE)
        if triple_idx is not None:
            inv = reciprocal(clamp_min(d, eps))
            phi_a = (gather_sum(sq, triple_idx, _COSINE) * gather_sum(inv, triple_idx[:, :1], _ONE)
                     * gather_sum(inv, triple_idx[:, 2:], _ONE))
        phis.append((phi_d, phi_a))
    return tuple(None if t is None else tmean(huber(t, s)) for t, s in zip(*phis))


def pairwise_distances(item_set: ItemsLike, epsilon: float = 1e-12) -> DistanceStructure:
    """Euclidean distance for every unordered pair plus their mean."""
    items = _as_items(item_set)
    n = items.shape[0]
    if n < 2:
        raise ValueError(f"pairwise_distances needs >= 2 items, got {n}")
    pi, pj = _triu_pairs(n)
    dvec = sqrt_guarded(_pair_sq(items, 1), epsilon)
    mat = np.zeros((n, n), dtype=dvec.data.dtype)
    mat[pi, pj] = dvec.data
    mat[pj, pi] = dvec.data
    return DistanceStructure(mat, tmean(dvec), pi, pj, dvec, epsilon)


def phi_d(structure: DistanceStructure, i: int, j: int) -> float:
    """Mean-normalized distance of pair (i, j); zero when the set is flat."""
    if i == j:
        raise ValueError(f"phi_d is undefined for i == j (got {i})")
    denom = max(structure.mu.item(), structure.epsilon)
    return float(structure.distances[i, j]) / denom


def phi_a(vi, vj, vk, epsilon: float = 1e-12) -> Tensor:
    """Cosine of the angle at vj between residues vi-vj and vj-vk, by the
    law of cosines over the three exact residues."""
    vi, vj, vk = (t if isinstance(t, Tensor) else Tensor(np.asarray(t, dtype=np.float64))
                  for t in (vi, vj, vk))
    if not (vi.shape == vj.shape == vk.shape) or vi.ndim != 1:
        raise ValueError(f"phi_a needs three equal-length vectors, got "
                         f"{vi.shape}, {vj.shape}, {vk.shape}")
    sq_ij, sq_ik, sq_jk = (tsum(r * r) for r in (vi - vj, vi - vk, vj - vk))
    inv_ij, inv_jk = (reciprocal(clamp_min(sqrt_guarded(sq, epsilon), epsilon))
                      for sq in (sq_ij, sq_jk))
    return (sq_ik - sq_ij - sq_jk) * 0.5 * inv_ij * inv_jk


# -- tuple sampling -----------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _tuple_pool(count: int, arity: int) -> np.ndarray:
    pool = np.array(list(itertools.combinations(range(count), arity)), dtype=np.intp)
    pool.setflags(write=False)
    return pool


def sample_tuples(count: int, arity: int, budget: Optional[int], seed: int) -> np.ndarray:
    """Index tuples i<j(<k) as an [T, arity] int array.

    Full lexicographic enumeration when the budget covers every tuple,
    otherwise ``budget`` distinct tuples drawn uniformly without replacement,
    reproducible from the seed and returned in sorted order.
    """
    if arity not in (2, 3):
        raise ValueError(f"arity must be 2 or 3, got {arity}")
    if count < arity:
        raise ValueError(f"need at least {arity} items, got {count}")
    total = comb(count, arity)
    if budget is None or budget >= total:
        return _tuple_pool(count, arity)
    rng = np.random.default_rng(seed)
    if total <= 1 << 16 or 2 * budget >= total:
        picks = rng.permutation(total)[:budget]
        picks.sort()
        return _tuple_pool(count, arity)[picks]
    # rejection sampling: draw sorted-distinct rows, dedupe, top up
    chosen = np.empty((0, arity), dtype=np.intp)
    while chosen.shape[0] < budget:
        need = budget - chosen.shape[0]
        draw = rng.integers(0, count, size=(2 * need + 16, arity))
        draw.sort(axis=1)
        ok = np.all(draw[:, 1:] > draw[:, :-1], axis=1)
        chosen = np.unique(np.concatenate([chosen, draw[ok]], axis=0), axis=0)
    # unique() sorts rows lexicographically; trim deterministically
    return np.ascontiguousarray(chosen[:budget], dtype=np.intp)


# -- instance-level relational losses -----------------------------------------

def _check_sides(t: Tensor, s: Tensor, minimum: int) -> int:
    if t.shape[0] != s.shape[0]:
        raise ValueError(f"teacher has {t.shape[0]} items but student has {s.shape[0]}")
    n = t.shape[0]
    if n < minimum:
        raise ValueError(f"need >= {minimum} items, got {n}")
    return n


def rkd_distance_loss(teacher_items: ItemsLike, student_items: ItemsLike,
                      cfg: RelationConfig) -> Tensor:
    """Huber-penalized mismatch of mean-normalized pairwise distances.

    Each side is normalized by its own mean, so a uniformly scaled student
    matches its teacher exactly.  The penalty is averaged over the selected
    pairs, keeping the loss scale independent of the tuple count (and hence
    of image size and sampling budget).
    """
    t, s = _as_items(teacher_items), _as_items(student_items)
    pairs = sample_tuples(_check_sides(t, s, 2), 2, cfg.pair_budget, cfg.seed)
    return _compare(t, s, 1, pairs, None, cfg.epsilon)[0]


def rkd_angle_loss(teacher_items: ItemsLike, student_items: ItemsLike,
                   cfg: RelationConfig) -> Tensor:
    """Huber-penalized mismatch of triplet-angle cosines, averaged over the
    selected triples.

    Unordered index sets {i,j,k} are enumerated once as i<j<k with j as the
    vertex, keeping teacher and student orientations aligned.
    """
    t, s = _as_items(teacher_items), _as_items(student_items)
    triples = sample_tuples(_check_sides(t, s, 3), 3, cfg.triplet_budget, cfg.seed)
    return _compare(t, s, 1, None, triples, cfg.epsilon)[1]


# -- content-level losses -------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _granularity_seed(base: int, granularity: str, arity: int) -> int:
    gid = GRANULARITIES.index(granularity)              # column 0, row 1, patch 2
    return int(np.random.SeedSequence([base & 0xFFFFFFFFFFFFFFFF, gid, arity]).generate_state(1)[0])


def crd_terms(teacher_img: Tensor, student_img: Tensor, n: int, m: int,
              cfg: RelationConfig, distance: bool = True, angle: bool = True) -> tuple:
    """(crd_d, crd_a) of a [c,h,w] image or [b,c,h,w] batch pair, in one pass.

    Each term is summed over its enabled granularities and averaged over the
    images; a term not asked for is None.  Each side is sliced once per
    granularity, and that granularity's pairs and triples are drawn once,
    from its own seed, for every image.
    """
    if teacher_img.shape != student_img.shape:
        raise ValueError(f"teacher/student shapes differ: {teacher_img.shape} vs {student_img.shape}")
    d_grans = cfg.enabled_granularities() if distance else ()
    a_grans = cfg.enabled_granularities(angle=True) if angle else ()
    if (distance and not d_grans) or (angle and not a_grans):
        raise ValueError("no content granularity enabled: nothing to relate")
    terms = []
    for g in d_grans or a_grans:            # the angle granularities are a subset
        t_set = slicing.split(teacher_img, g, (n, m) if g == PATCH else None)
        s_set = slicing.split(student_img, g, (n, m) if g == PATCH else None)
        pairs = triples = None
        if g in d_grans:
            pairs = sample_tuples(t_set.count, 2, cfg.pair_budget, _granularity_seed(cfg.seed, g, 2))
        if g in a_grans:
            triples = sample_tuples(t_set.count, 3, cfg.triplet_budget,
                                    _granularity_seed(cfg.seed, g, 3))
        # item-major stacks reshape for free to X = [count, B*D]
        t_x, s_x = (reshape(c.items, (c.count, -1)) for c in (t_set, s_set))
        terms.append(_compare(t_x, s_x, t_set.batch, pairs, triples, cfg.epsilon))
    return tuple(_total(column) for column in zip(*terms))


def _total(terms) -> Optional[Tensor]:
    """Left-to-right sum of the terms that exist; None if none does."""
    present = [t for t in terms if t is not None]
    return functools.reduce(operator.add, present) if present else None


def crd_combine(crd_d: Tensor, crd_a: Optional[Tensor], cfg: RelationConfig) -> Tensor:
    """The content-relationship loss: crd_d + lambda_a * crd_a (crd_d alone
    when the angle term was not computed, as for lambda_a = 0)."""
    return crd_d if crd_a is None else crd_d + cfg.lambda_a * crd_a


def crd_distance_loss(teacher_img: Tensor, student_img: Tensor, n: int, m: int,
                      cfg: RelationConfig) -> Tensor:
    """Distance-structure loss summed over the enabled granularities; a batch
    is averaged over its images."""
    return crd_terms(teacher_img, student_img, n, m, cfg, angle=False)[0]


def crd_angle_loss(teacher_img: Tensor, student_img: Tensor, n: int, m: int,
                   cfg: RelationConfig) -> Tensor:
    """Angle-structure loss summed over the enabled granularities.

    With ``angle_patches_only`` both sides restrict to the patch granularity.
    """
    return crd_terms(teacher_img, student_img, n, m, cfg, distance=False)[1]


def crd_loss(teacher_img: Tensor, student_img: Tensor, n: int, m: int,
             cfg: RelationConfig) -> Tensor:
    """Distance loss plus lambda_a times the angle loss, in one pass."""
    return crd_combine(*crd_terms(teacher_img, student_img, n, m, cfg,
                                  angle=cfg.lambda_a != 0.0), cfg)
