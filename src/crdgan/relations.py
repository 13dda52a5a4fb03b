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
d2_jk) / 2 over max(d_ij, EPSILON) * max(d_jk, EPSILON) (law of cosines).
Every divisor is floored at the constant EPSILON = 1e-12, so a flat set
(zero mean distance) or a repeated item gives zero, not a NaN.  The Gram
form G_ij - G_ik - G_jj + G_jk would skip R but cancels catastrophically on
repeated items (a flat background); exact residuals give exact zeros.

The whole computation is one autodiff node (``_relate``), run as plain
numpy; each term is a 0-d pick of its output vector.  Its backward replays
the adjoints that the same steps would have as separate autodiff ops
(matmul, r*r, sum, sqrt_guarded, mean, clamp_min, reciprocal, gather_sum,
products, huber): in the same order, with gather scatters as float64
bincounts cast back, and with the sources' gradients added per content set
from the last to the first, student before teacher.  So values, gradients
and run bytes are those of the composed graph, which the tests keep as the
oracle, at a fraction of its per-op bookkeeping.  ``pairwise_distances``
and ``phi_a`` read the same pass's forward, as constant tensors.

Tuples i<j(<k) are lexicographic ranks unranked through the combinatorial
number system: a budget draws that many distinct ranks uniformly from the
seed, and full enumeration is every rank in order.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from math import comb
from typing import Optional, Union

import numpy as np

from .autodiff import Tensor, _gather, _huber, _huber_slope, _result, _scatter
from . import slicing
from .slicing import COLUMN, GRANULARITIES, PATCH, ROW, ContentSet

ItemsLike = Union[ContentSet, Tensor, np.ndarray]

EPSILON = 1e-12        # the floor of every distance the relation pass divides by


@dataclass(frozen=True)
class RelationConfig:
    """Weights, sampling budgets and granularity toggles for the relational losses.

    A budget of None means full enumeration.  The distance and angle terms
    both cover every enabled granularity.  ``seed`` drives tuple sampling
    only; pass a different seed per training step for fresh tuples.
    """

    lambda_a: float = 2.0
    pair_budget: Optional[int] = None
    triplet_budget: Optional[int] = 4096
    use_columns: bool = True
    use_rows: bool = True
    use_patches: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.lambda_a < 0:
            raise ValueError(f"lambda_a must be >= 0, got {self.lambda_a}")
        for name in ("pair_budget", "triplet_budget"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1 when set, got {v}")

    def enabled_granularities(self) -> tuple:
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
    ``mu`` is the mean over unordered pairs and ``pair_values`` holds the
    distance of each i<j pair in lexicographic order, both constant tensors
    with the relation pass's values.
    """

    distances: np.ndarray
    mu: Tensor
    pair_values: Tensor


@functools.lru_cache(maxsize=64)
def _incidence(count: int, dtype: np.dtype) -> Tensor:
    """[P, count]: row p is +1 at i and -1 at j for the p-th pair i<j."""
    eye = np.eye(count, dtype=dtype)
    pi, pj = _tuple_pool(count, 2).T
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
    t = x if isinstance(x, Tensor) else Tensor(x)     # float32 stays float32, else float64
    if t.ndim != 2:
        raise ValueError(f"expected a rank-2 item stack, got shape {t.shape}")
    return t


_ONE = (1.0,)
_COSINE = (-0.5, 0.5, -0.5)      # (d2_ik - d2_ij - d2_jk) / 2 over columns (ij, ik, jk)


class _Side:
    """One side's structures over one content set, and their adjoints.

    The forward keeps the values its backward reads.  ``grad`` replays the
    adjoints of the composed graph (matmul, r*r, sum, sqrt, mean, clamps,
    reciprocals, gathers and products) in its reverse creation order, so
    every sum is added in the same order and the bytes match.
    """

    def __init__(self, x: np.ndarray, batch: int, pairs, triples):
        self.a = _incidence(x.shape[0], x.dtype).data
        self.batch, self.pairs, self.triples = batch, pairs, triples
        self.r = r = self.a @ x                             # rows: exact x_i - x_j
        self.width = x.shape[1] // batch
        sq = (r * r).reshape(-1, self.width).sum(axis=(1,))
        self.d = d = np.sqrt(np.maximum(sq, 0.0))
        self.phi = [None, None]                             # phi_d, phi_a
        if pairs is not None:
            self.mean = _mean(d.reshape(-1, batch))
            self.inv_mu = 1.0 / np.maximum(self.mean, EPSILON)
            # a unit-weight gather is plain indexing: 1.0 * v is v, bit for bit
            self.g1, self.g2 = d[pairs[0]], self.inv_mu[pairs[1]]
            self.phi[0] = self.g1 * self.g2
        if triples is not None:
            self.inv = 1.0 / np.maximum(d, EPSILON)
            self.cosine = np.asarray(_COSINE, dtype=x.dtype)
            self.gs = _gather(sq, triples, self.cosine)
            self.gi, self.gk = self.inv[triples[:, 0]], self.inv[triples[:, 2]]
            self.m1 = self.gs * self.gi
            self.phi[1] = self.m1 * self.gk

    def grad(self, g_phi_d: Optional[np.ndarray], g_phi_a: Optional[np.ndarray]) -> np.ndarray:
        """The gradient of X = [count, B*D] from those of phi_d and phi_a
        (None: that term's graph was not reached)."""
        d, size = self.d, self.d.size
        one = np.asarray(_ONE, dtype=d.dtype)
        # terms are added in the composed graph's reverse creation order: into
        # d the angle's clamp, the pair gather, then the mean; into sq the
        # cosine gather, then the sqrt
        g_d = g_sq = None
        if g_phi_a is not None:
            triples = self.triples
            g_m1 = g_phi_a * self.gk
            g_inv = _scatter(g_phi_a * self.m1, triples[:, 2], one, size)
            g_inv += _scatter(g_m1 * self.gs, triples[:, 0], one, size)
            g_sq = _scatter(g_m1 * self.gi, triples, self.cosine, size)
            g_d = -g_inv * self.inv * self.inv * (d >= EPSILON)
        if g_phi_d is not None:
            pairs, batch = self.pairs, self.batch
            g_inv_mu = _scatter(g_phi_d * self.g1, pairs[1], one, batch)
            g_pair = _scatter(g_phi_d * self.g2, pairs[0], one, size)
            g_d = g_pair if g_d is None else g_d + g_pair
            g_mean = -g_inv_mu * self.inv_mu * self.inv_mu * (self.mean >= EPSILON)
            g_d = (g_d.reshape(-1, batch) + g_mean / (size // batch)).reshape(-1)
        g_root = g_d / (2.0 * np.maximum(d, EPSILON))
        g_sq = g_root if g_sq is None else g_sq + g_root
        g_r = (g_sq[:, None] * self.r.reshape(-1, self.width)).reshape(self.r.shape)
        g_r = g_r + g_r                                     # r * r: g*r to each operand
        return self.a.swapaxes(-1, -2) @ g_r


def _mean(a: np.ndarray):
    """a.mean(axis=0) without np.mean's Python wrapper.  The bytes are the
    same: np.mean divides the same sum by the count, for float32 in float64
    and rounded back, which rounds as a float32 division does."""
    return np.add.reduce(a, axis=0) / a.shape[0]


def _pick(vec: Tensor, k: int, reached: list) -> Tensor:
    """vec[k] as a 0-d tensor; its backward marks term k as reached."""
    def back(g):
        reached[k] = True
        onehot = np.zeros_like(vec.data)
        onehot[k] = g
        vec._accumulate(onehot)

    return _result(vec.data[k:k + 1].reshape(()), "pick", (vec,), back)


def _relate(t: Tensor, s: Tensor, groups: list) -> tuple:
    """(distance term, angle term) of the teacher/student sources as one
    autodiff node and a 0-d pick of it per term; None for an absent term.

    ``groups`` holds one (cut, batch, pair_idx, triple_idx) per content set:
    ``cut`` is the slicing layout that turns a source into its item stack
    (None: the sources are item stacks), and the index arrays come from
    ``_index`` (None: no such tuples).  Each term is the Huber mismatch of
    the two sides' phi averaged over its tuples and images, summed over the
    groups left to right.
    """
    stacks = []
    for cut, batch, pair_idx, triple_idx in groups:
        # the pairs' d2 entries, and their images' entries of the per-image mean
        pairs = None if pair_idx is None else (pair_idx[:, 0], pair_idx[:, 0] % batch)
        sides = []
        for src in (t, s):
            x = src.data
            if cut is not None:                 # the item-major stack slicing.split makes
                grid, axes, items = cut
                x = np.ascontiguousarray(x.reshape(grid).transpose(axes)).reshape(
                    items[0] // batch, -1)
            sides.append(_Side(x, batch, pairs, triple_idx))
        stacks.append((cut, sides))
    terms = []                              # (0 distance or 1 angle, diff per group, total)
    for term in (0, 1):
        diffs = [None if ts.phi[term] is None else ts.phi[term] - ss.phi[term]
                 for _, (ts, ss) in stacks]
        values = [_mean(_huber(diff)) for diff in diffs if diff is not None]
        if values:
            terms.append((term, diffs, functools.reduce(operator.add, values)))
    vec = np.array([total for _, _, total in terms])
    # the backward reads only the sides whose source took a gradient when made
    stacks = [(cut, [side if src.requires_grad else None for side, src in zip(sides, (t, s))])
              for cut, sides in stacks]

    def back(g):
        g_phi = [[None, None] for _ in stacks]      # per group and term: (teacher, student)
        for k, (term, diffs, _) in enumerate(terms):
            if not reached[k]:
                continue
            for slot, diff in zip(g_phi, diffs):
                if diff is not None:
                    g_mean = g[k] / diff.size               # the mean's adjoint
                    slope = _huber_slope(diff)
                    slot[term] = (g_mean * slope, -g_mean * slope)
        # image gradients arrive per content set in reverse order, student first
        for (cut, sides), slot in zip(reversed(stacks), reversed(g_phi)):
            for which, src in ((1, s), (0, t)):
                side = sides[which]
                if side is None or not src.requires_grad or slot == [None, None]:
                    continue
                g_x = side.grad(*(None if pair is None else
                                  pair[which].astype(src.dtype, copy=False) for pair in slot))
                if cut is not None:
                    grid, axes, _ = cut
                    g_x = np.ascontiguousarray(
                        g_x.reshape([grid[a] for a in axes]).transpose(np.argsort(axes)))
                src._accumulate(g_x.reshape(src.shape))

    reached = [False] * len(terms)
    node = _result(vec, "relations", (t, s), back)
    picks = [None, None]
    for k, (term, _, _) in enumerate(terms):
        picks[term] = _pick(node, k, reached)
    return tuple(picks)


def pairwise_distances(item_set: ItemsLike) -> DistanceStructure:
    """Euclidean distance for every unordered pair plus their mean, as the
    relation pass computes them."""
    items = _as_items(item_set)
    n = items.shape[0]
    if n < 2:
        raise ValueError(f"pairwise_distances needs >= 2 items, got {n}")
    pi, pj = _tuple_pool(n, 2).T
    d = _Side(items.data, 1, None, None).d
    mat = np.zeros((n, n), dtype=d.dtype)
    mat[pi, pj] = d
    mat[pj, pi] = d
    return DistanceStructure(mat, Tensor(_mean(d)), Tensor(d))


def phi_d(structure: DistanceStructure, i: int, j: int) -> float:
    """Mean-normalized distance of pair (i, j); zero when the set is flat."""
    if i == j:
        raise ValueError(f"phi_d is undefined for i == j (got {i})")
    denom = max(structure.mu.item(), EPSILON)
    return float(structure.distances[i, j]) / denom


def phi_a(vi, vj, vk) -> Tensor:
    """Cosine of the angle at vj between residues vi-vj and vj-vk, as a
    constant 0-d tensor: the relation pass's angle of the triple (0, 1, 2)
    of the stack [vi; vj; vk] (law of cosines over the exact residues)."""
    vi, vj, vk = (t.data if isinstance(t, Tensor) else np.asarray(t, dtype=np.float64)
                  for t in (vi, vj, vk))
    if not (vi.shape == vj.shape == vk.shape) or vi.ndim != 1:
        raise ValueError(f"phi_a needs three equal-length vectors, got "
                         f"{vi.shape}, {vj.shape}, {vk.shape}")
    side = _Side(np.stack([vi, vj, vk]), 1, None, _pool_index(3, 3, 1))
    return Tensor(side.phi[1].reshape(()))


# -- tuple sampling -----------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _binomials(count: int, arity: int) -> np.ndarray:
    """[arity + 1, count]: row t holds C(c, t) for c = 0..count-1."""
    table = np.array([[comb(c, t) for c in range(count)] for t in range(arity + 1)],
                     dtype=np.int64)
    table.setflags(write=False)
    return table


def _unrank(ranks: np.ndarray, count: int, arity: int) -> np.ndarray:
    """The tuples of the given lexicographic ranks, as an [T, arity] array.

    Combinatorial number system: reflecting every index (c -> count-1-c)
    turns lexicographic rank r into colex rank total-1-r, whose tuple
    a_arity > ... > a_1 is greedy, a_t the largest a with C(a, t) <= what is
    left; one searchsorted per position finds it for every rank at once.
    """
    table = _binomials(count, arity)
    rest = comb(count, arity) - 1 - ranks
    out = np.empty((rest.size, arity), dtype=np.intp)
    for pos, t in enumerate(range(arity, 0, -1)):
        a = np.searchsorted(table[t], rest, side="right") - 1
        rest = rest - table[t][a]
        out[:, pos] = count - 1 - a
    return out


@functools.lru_cache(maxsize=64)
def _tuple_pool(count: int, arity: int) -> np.ndarray:
    pool = _unrank(np.arange(comb(count, arity)), count, arity)
    pool.setflags(write=False)
    return pool


def sample_tuples(count: int, arity: int, budget: Optional[int], seed: int) -> np.ndarray:
    """Index tuples i<j(<k) as an [T, arity] int array, in lexicographic order.

    Full enumeration when the budget is None or covers every tuple.
    Otherwise ``budget`` distinct tuples drawn uniformly without replacement
    at any pool size, reproducible from the seed: ``budget`` distinct ranks,
    sorted and unranked.  For a large pool the draw costs O(budget), not
    O(pool).  A budget below 1 is rejected.
    """
    if arity not in (2, 3):
        raise ValueError(f"arity must be 2 or 3, got {arity}")
    if count < arity:
        raise ValueError(f"need at least {arity} items, got {count}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1 or None, got {budget}")
    total = comb(count, arity)
    if budget is None or budget >= total:
        return _tuple_pool(count, arity)
    ranks = np.random.default_rng(seed).choice(total, budget, replace=False, shuffle=False)
    ranks.sort()
    return _unrank(ranks, count, arity)


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
    n = _check_sides(t, s, 2)
    pairs = sample_tuples(n, 2, cfg.pair_budget, cfg.seed)
    return _relate(t, s, [(None, 1, _index(pairs, n, 1), None)])[0]


def rkd_angle_loss(teacher_items: ItemsLike, student_items: ItemsLike,
                   cfg: RelationConfig) -> Tensor:
    """Huber-penalized mismatch of triplet-angle cosines, averaged over the
    selected triples.

    Unordered index sets {i,j,k} are enumerated once as i<j<k with j as the
    vertex, keeping teacher and student orientations aligned.
    """
    t, s = _as_items(teacher_items), _as_items(student_items)
    n = _check_sides(t, s, 3)
    triples = sample_tuples(n, 3, cfg.triplet_budget, cfg.seed)
    return _relate(t, s, [(None, 1, None, _index(triples, n, 1))])[1]


# -- content-level losses -------------------------------------------------------

def _derive_seed(*words: int) -> int:
    """The one seed derivation: a SeedSequence over the words, each modulo 2**64."""
    return int(np.random.SeedSequence([w & 0xFFFFFFFFFFFFFFFF for w in words])
               .generate_state(1)[0])


@functools.lru_cache(maxsize=256)
def _granularity_seed(base: int, granularity: str, arity: int) -> int:
    return _derive_seed(base, GRANULARITIES.index(granularity), arity)   # column 0, row 1, patch 2


def crd_terms(teacher_img: Tensor, student_img: Tensor, n: int, m: int,
              cfg: RelationConfig, distance: bool = True, angle: bool = True) -> tuple:
    """(crd_d, crd_a) of a [c,h,w] image or [b,c,h,w] batch pair, in one pass.

    Each term is summed over the enabled granularities and averaged over the
    images; a term not asked for is None.  Both sides are cut by one slicing
    layout per granularity, and that granularity's pairs and triples are
    drawn once, from its own seed, for every image.
    """
    if teacher_img.shape != student_img.shape:
        raise ValueError(f"teacher/student shapes differ: {teacher_img.shape} vs {student_img.shape}")
    if not (distance or angle):
        return None, None
    grans = cfg.enabled_granularities()
    if not grans:
        raise ValueError("no content granularity enabled: nothing to relate")
    groups = []
    for g in grans:
        cut = slicing.layout(teacher_img.shape, g, (n, m) if g == PATCH else None)
        batch = cut[0][0]
        count = cut[2][0] // batch
        pair_idx = triple_idx = None
        if distance:
            pairs = sample_tuples(count, 2, cfg.pair_budget, _granularity_seed(cfg.seed, g, 2))
            pair_idx = _index(pairs, count, batch)
        if angle:
            triples = sample_tuples(count, 3, cfg.triplet_budget,
                                    _granularity_seed(cfg.seed, g, 3))
            triple_idx = _index(triples, count, batch)
        groups.append((cut, batch, pair_idx, triple_idx))
    return _relate(teacher_img, student_img, groups)


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
    """Angle-structure loss summed over the enabled granularities; a batch is
    averaged over its images."""
    return crd_terms(teacher_img, student_img, n, m, cfg, distance=False)[1]


def crd_loss(teacher_img: Tensor, student_img: Tensor, n: int, m: int,
             cfg: RelationConfig) -> Tensor:
    """Distance loss plus lambda_a times the angle loss, in one pass."""
    return crd_combine(*crd_terms(teacher_img, student_img, n, m, cfg,
                                  angle=cfg.lambda_a != 0.0), cfg)
