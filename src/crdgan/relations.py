"""Relational distillation losses over content sets.

Two structures: pairwise distance over its own set's mean distance
(scale-invariant), and the triplet angle, the cosine between the residues
x_i - x_j and x_j - x_k at the middle item (invariant to rotation,
translation and positive scaling).  Teacher and student structures are
compared tuple-by-tuple with a Huber penalty, averaged over the tuples and
a batch's images, and summed over granularities.

One pass per source makes both, over every enabled content set at once.
For each set, X = [count, B*D] holds a batch's images side by side; the
cached +-1 pair-incidence matrix A = [P, count] gives every i<j residual as
R = A @ X, each row the exact x_i - x_j whatever the BLAS thread count.  Row
sums of squares give d2 for every pair of every image.  The sets' d2 vectors
are laid end to end, each at its own offset, and each tuple op is a gather
on the concatenated vector through indices shifted by those offsets (cached
for full enumeration): the distance is sqrt(d2) over its image's mean in its
own set, the angle at j is (d2_ik - d2_ij - d2_jk) / 2 over max(d_ij,
EPSILON) * max(d_jk, EPSILON) (law of cosines).  Only the slicing cut, R,
the row sums and the per-image means are taken set by set.  Every divisor is
floored at the constant EPSILON = 1e-12, so a flat set (zero mean distance)
or a repeated item gives zero, not a NaN.  The Gram form G_ij - G_ik - G_jj
+ G_jk would skip R but cancels catastrophically on repeated items (a flat
background); exact residuals give exact zeros.

The whole computation is one autodiff node (``_relate``), run as plain
numpy; each term is a 0-d pick of its output vector, the sum over the sets,
left to right, of each set's Huber mean on its own block of the
concatenated mismatches.  Its backward replays the adjoints that the same
steps would have as separate autodiff ops (matmul, r*r, sum, sqrt_guarded,
mean, clamp_min, reciprocal, gather_sum, products, huber): in the same
order, with each gather's scatter one float64 bincount per side over the
offset indices, cast back, and with the sources' gradients added per
content set from the last to the first, student before teacher.  Since no
bin is shared between sets, every sum is added in the same order as set by
set.  So values, gradients and run bytes are those of the composed graph,
which the tests keep as the oracle, at a fraction of its per-op
bookkeeping.  ``pairwise_distances`` and ``phi_a`` read the same pass's
forward, as constant tensors.

A teacher that takes no gradient only feeds the forward its phi vectors, and
a gradient check relates the same teacher in each of its 2N+1 calls.  So the
teacher's phi is memoised, one entry, when its plan is a cached whole-pool
plan (every term every set's full enumeration; ``_pool_plan``).  The key is
that plan object (by identity; the entry keeps it alive), the cuts, the
dtype and shape, and the source's bytes (by equality).  The memo misses on
any other teacher, a teacher changed in place included, and is bypassed by a
teacher that takes a gradient and by a sampled plan, which is never stored;
the student is always related afresh.  A hit gives the bytes of a fresh pass.

A call does only the work its inputs' values need.  ``_resolve`` (an
``lru_cache`` of 64) maps the shape, patch dims, granularities, budgets and
terms, never the seed, to the read-only cuts, the set counts and, when every
draw is its whole pool, the ``_pool_plan``.  Each plan keeps what a pass
derives from it alone (``_Constants``: incidence matrices, gather weights and
mean divisors), built on first use once per dtype; a cached plan builds them
once, a sampled plan, made per call, once per call.  Neither cache's key
holds a seed, so neither grows with the training step.

Tuples i<j(<k) are lexicographic ranks unranked through the combinatorial
number system: a budget draws that many distinct ranks uniformly from the
seed, and full enumeration is every rank in order.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from math import comb, inf
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
        if not 0 <= self.lambda_a < inf:
            raise ValueError(f"lambda_a must be finite and >= 0, got {self.lambda_a}")
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


def _blocks(sizes) -> tuple:
    """(start, stop) of each of consecutive blocks of these sizes."""
    stops = tuple(itertools.accumulate(sizes))
    return tuple(zip((0,) + stops[:-1], stops))


@functools.lru_cache(maxsize=64)
def _d_layout(counts: tuple, batch: int) -> tuple:
    """Where sets of these item counts sit in a pass's concatenated d: each
    set's (start, stop), and each entry's slot in the concatenated per-image
    means, set * batch + image."""
    blocks = _blocks([comb(c, 2) * batch for c in counts])
    slot = np.concatenate([np.arange(stop - start) % batch + k * batch
                           for k, (start, stop) in enumerate(blocks)])
    slot.setflags(write=False)
    return blocks, slot


def _term(tuples: list, counts: tuple, batch: int) -> tuple:
    """One term's layout for per-set [T, arity] tuple arrays of sets of these
    item counts: the d entries each tuple reads (``_tuple_index``, offset to its
    set's block of the concatenated d) and each set's (start, stop) in the
    term's phi.  Pairs give (P, Q, blocks), Q each pair's mean slot;
    triples give (T, blocks), T each triple's (ij, ik, jk) entries."""
    d_blocks, slot = _d_layout(counts, batch)
    index = np.concatenate([_tuple_index(t, c, batch) + start
                            for t, c, (start, _) in zip(tuples, counts, d_blocks)])
    blocks = _blocks([len(t) * batch for t in tuples])
    if tuples[0].shape[1] == 2:
        pairs = index[:, 0]
        return pairs, slot[pairs], blocks
    return index, blocks


@functools.lru_cache(maxsize=64)
def _pool_term(counts: tuple, arity: int, batch: int) -> tuple:
    """``_term`` of every set's full enumeration, read-only."""
    term = _term([_tuple_pool(c, arity) for c in counts], counts, batch)
    for index in term[:-1]:
        index.setflags(write=False)
    return term


@dataclass(frozen=True)
class _Plan:
    """One pass's content sets laid end to end.

    ``counts`` holds each set's item count per image, ``blocks`` each set's
    (start, stop) in the concatenated d and ``slot`` each d entry's
    per-image mean slot (``_d_layout``); ``pairs`` and ``triples`` are the
    terms' ``_term`` layouts, None for a term not computed.  ``whole`` marks
    ``_pool_plan``'s cached plans, whose every term is every set's whole
    pool.  ``constants`` builds what a pass derives from the plan alone once
    per dtype and keeps it with the plan, so a cached plan builds it once.
    """

    counts: tuple
    batch: int
    blocks: tuple
    slot: np.ndarray
    pairs: Optional[tuple]
    triples: Optional[tuple]
    whole: bool = False
    _constants: dict = field(default_factory=dict, compare=False, repr=False)

    def constants(self, dtype: np.dtype) -> "_Constants":
        found = self._constants.get(dtype)
        if found is None:
            found = self._constants[dtype] = _Constants(self, dtype)
        return found


class _Constants:
    """What a pass in one dtype derives from its plan alone, all read-only:
    each set's incidence matrix A and its transpose, the unit and cosine
    gather weights, each d entry's mean divisor (its set's pair count, per
    image) and, per term, each tuple's mean divisor (its set's block size)."""

    __slots__ = ("incidence", "incidence_t", "one", "cosine", "pair_counts", "divisors")

    def __init__(self, plan: _Plan, dtype: np.dtype):
        self.incidence = [_incidence(count, dtype).data for count in plan.counts]
        self.incidence_t = [a.swapaxes(-1, -2) for a in self.incidence]
        self.one = np.asarray(_ONE, dtype=dtype)
        self.cosine = np.asarray(_COSINE, dtype=dtype)
        self.pair_counts = np.asarray([(stop - start) // plan.batch for start, stop in plan.blocks],
                                      dtype=dtype).repeat(plan.batch)
        self.divisors = [None if term is None else _divisors(term[-1], dtype)
                         for term in (plan.pairs, plan.triples)]
        for vec in [self.one, self.cosine, self.pair_counts, *self.divisors]:
            if vec is not None:
                vec.setflags(write=False)


def _divisors(blocks: tuple, dtype: np.dtype) -> np.ndarray:
    """Each entry's block size, in the dtype: g / size over a block is the
    adjoint of that block's mean, the bytes of g / size at one size a time."""
    sizes = [stop - start for start, stop in blocks]
    return np.asarray(sizes, dtype=dtype).repeat(sizes)


@functools.lru_cache(maxsize=64)
def _pool_plan(counts: tuple, batch: int, distance: bool, angle: bool) -> _Plan:
    """The one plan of sets of these item counts whose asked-for terms are
    every set's whole pool."""
    return _Plan(counts, batch, *_d_layout(counts, batch),
                 _pool_term(counts, 2, batch) if distance else None,
                 _pool_term(counts, 3, batch) if angle else None, whole=True)


def _plan(counts: tuple, batch: int, pairs: Optional[list], triples: Optional[list]) -> _Plan:
    """The plan of sets of these item counts and per-set tuple arrays (None:
    no such term).  A term whose every set is fully enumerated is cached, and
    so is a plan whose every term is (``_pool_plan``)."""
    whole = [tuples is None or all(len(t) == comb(c, t.shape[1]) for t, c in zip(tuples, counts))
             for tuples in (pairs, triples)]
    if all(whole):
        return _pool_plan(counts, batch, pairs is not None, triples is not None)

    def term(tuples, full):
        if tuples is None:
            return None
        return _pool_term(counts, tuples[0].shape[1], batch) if full else _term(tuples, counts, batch)

    return _Plan(counts, batch, *_d_layout(counts, batch), term(pairs, whole[0]),
                 term(triples, whole[1]))


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
    """One source's structures over every content set of a pass, and their adjoints.

    ``xs`` holds one item stack [count, B*D] per set.  Only R = A @ X, the
    row sums of squares and the per-image means of d are taken per set; every
    other step runs once on the sets' concatenated vectors.  ``grad`` replays
    the adjoints of the composed graph (matmul, r*r, sum, sqrt, mean, clamps,
    reciprocals, gathers and products) in its reverse creation order, so
    every sum is added in the same order and the bytes match.
    """

    def __init__(self, xs: list, plan: _Plan):
        batch = plan.batch
        self.plan = plan
        self.constants = constants = plan.constants(xs[0].dtype)
        self.r = [a @ x for a, x in zip(constants.incidence, xs)]     # rows: exact x_i - x_j
        self.widths = [x.shape[1] // batch for x in xs]
        sq = np.concatenate([np.add.reduce((r * r).reshape(-1, width), axis=1)
                             for r, width in zip(self.r, self.widths)])
        self.d = d = np.sqrt(np.maximum(sq, 0.0))
        self.phi = [None, None]                             # phi_d, phi_a
        if plan.pairs is not None:
            pairs, slots, _ = plan.pairs
            self.mean = np.concatenate([_mean(d[start:stop].reshape(-1, batch))
                                        for start, stop in plan.blocks])
            self.inv_mu = 1.0 / np.maximum(self.mean, EPSILON)
            # a unit-weight gather is plain indexing: 1.0 * v is v, bit for bit
            self.g1, self.g2 = d[pairs], self.inv_mu[slots]
            self.phi[0] = self.g1 * self.g2
        if plan.triples is not None:
            triples = plan.triples[0]
            self.inv = 1.0 / np.maximum(d, EPSILON)
            self.gs = _gather(sq, triples, constants.cosine)
            self.gi, self.gk = self.inv[triples[:, 0]], self.inv[triples[:, 2]]
            self.m1 = self.gs * self.gi
            self.phi[1] = self.m1 * self.gk

    def grad(self, g_phi_d: Optional[np.ndarray], g_phi_a: Optional[np.ndarray]) -> np.ndarray:
        """The gradient of the concatenated row sums of squares from those of
        phi_d and phi_a (None: that term's graph was not reached)."""
        d, size, plan, constants = self.d, self.d.size, self.plan, self.constants
        one = constants.one
        # terms are added in the composed graph's reverse creation order: into
        # d the angle's clamp, the pair gather, then the mean; into sq the
        # cosine gather, then the sqrt
        g_d = g_sq = None
        if g_phi_a is not None:
            triples = plan.triples[0]
            g_m1 = g_phi_a * self.gk
            g_inv = _scatter(g_phi_a * self.m1, triples[:, 2], one, size)
            g_inv += _scatter(g_m1 * self.gs, triples[:, 0], one, size)
            g_sq = _scatter(g_m1 * self.gi, triples, constants.cosine, size)
            g_d = -g_inv * self.inv * self.inv * (d >= EPSILON)
        if g_phi_d is not None:
            pairs, slots, _ = plan.pairs
            g_inv_mu = _scatter(g_phi_d * self.g1, slots, one, self.mean.size)
            g_pair = _scatter(g_phi_d * self.g2, pairs, one, size)
            g_d = g_pair if g_d is None else g_d + g_pair
            g_mean = -g_inv_mu * self.inv_mu * self.inv_mu * (self.mean >= EPSILON)
            # each set's mean over its own pair count, then to its image's entries
            g_d = g_d + (g_mean / constants.pair_counts)[plan.slot]
        g_root = g_d / (2.0 * np.maximum(d, EPSILON))
        return g_root if g_sq is None else g_sq + g_root

    def item_grad(self, k: int, g_sq: np.ndarray) -> np.ndarray:
        """Set k's gradient of X = [count, B*D] from that of the concatenated sq."""
        start, stop = self.plan.blocks[k]
        r = self.r[k]
        g_r = (g_sq[start:stop, None] * r.reshape(-1, self.widths[k])).reshape(r.shape)
        g_r = g_r + g_r                                     # r * r: g*r to each operand
        return self.constants.incidence_t[k] @ g_r


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


def _side(src: Tensor, cuts: list, plan: _Plan) -> _Side:
    """One source's ``_Side``, each content set cut straight to [count, B*D]."""
    return _Side([src.data if cut is None else slicing.cut(src.data, cut, (count, -1))
                  for cut, count in zip(cuts, plan.counts)], plan)


_memo = None      # the last constant teacher's (plan, (cuts, dtype, shape), bytes, phi)


def _teacher(t: Tensor, cuts: list, plan: _Plan) -> tuple:
    """The teacher's (phi, side): its side only when it takes a gradient.

    A teacher that takes none under a whole-pool plan is served from a
    one-entry memo of its phi vectors when the plan is the same object and
    the cuts, dtype, shape and bytes are equal, as for every call of a
    gradient check; any other teacher is a miss and replaces the entry.  A
    sampled plan is a fresh object each call, so it is never stored."""
    global _memo
    if t.requires_grad or not plan.whole:
        side = _side(t, cuts, plan)
        return side.phi, side if t.requires_grad else None
    key, data = (tuple(cuts), t.dtype, t.shape), t.data.tobytes()
    if _memo is None or _memo[0] is not plan or _memo[1] != key or _memo[2] != data:
        phi = _side(t, cuts, plan).phi
        for vec in phi:
            if vec is not None:
                vec.setflags(write=False)
        _memo = (plan, key, data, phi)
    return _memo[3], None


def _relate(t: Tensor, s: Tensor, cuts: list, plan: _Plan) -> tuple:
    """(distance term, angle term) of the teacher/student sources as one
    autodiff node and a 0-d pick of it per term; None for an absent term.

    ``cuts`` holds one slicing layout per content set, by which ``slicing.cut``
    and ``uncut`` take a source to that set's item stack and back (None: the
    source is the item stack), and ``plan`` lays the sets end to end.  Each
    side is one ``_Side`` pass over all the sets, the teacher's memoised
    (``_teacher``).  The teacher-student differences and their Huber values
    are taken once on the concatenated phi; each set's Huber mean is taken on
    its own block of them, and a term is those means summed left to right.
    The backward scatters each side once over the concatenated offsets, then
    adds the per-set image gradients from the last set to the first, student
    before teacher.
    """
    t_phi, t_side = _teacher(t, cuts, plan)
    s_side = _side(s, cuts, plan)
    terms = []                              # (0 distance or 1 angle, diff, total)
    for term, tuples in enumerate((plan.pairs, plan.triples)):
        if tuples is not None:
            diff = t_phi[term] - s_side.phi[term]
            penalty = _huber(diff)
            values = [_mean(penalty[start:stop]) for start, stop in tuples[-1]]
            terms.append((term, diff, functools.reduce(operator.add, values)))
    vec = np.array([total for *_, total in terms])
    # the backward reads only the sides whose source took a gradient when made
    sides = [t_side, s_side if s.requires_grad else None]

    def back(g):
        divisors = plan.constants(vec.dtype).divisors
        g_phi = [None, None]                        # per term: (teacher, student)
        for k, (term, diff, _) in enumerate(terms):
            if reached[k]:
                # each set's mean adjoint, over its own tuple count
                g_mean = g[k] / divisors[term]
                slope = _huber_slope(diff)
                g_phi[term] = (g_mean * slope, -g_mean * slope)
        g_sq = [None, None]                         # per side: that of the concatenated sq
        for which, (side, src) in enumerate(zip(sides, (t, s))):
            if side is not None and src.requires_grad:
                g_sq[which] = side.grad(*(None if pair is None else
                                          pair[which].astype(src.dtype, copy=False)
                                          for pair in g_phi))
        # image gradients arrive per content set in reverse order, student first
        for k in reversed(range(len(cuts))):
            for which, src in ((1, s), (0, t)):
                if g_sq[which] is None:
                    continue
                g_x = sides[which].item_grad(k, g_sq[which])
                g_x = g_x if cuts[k] is None else slicing.uncut(g_x, cuts[k])
                src._accumulate(g_x.reshape(src.shape))

    reached = [False] * len(terms)
    node = _result(vec, "relations", (t, s), back)
    picks = [None, None]
    for k, (term, *_) in enumerate(terms):
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
    d = _Side([items.data], _plan((n,), 1, None, None)).d
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
    side = _Side([np.stack([vi, vj, vk])], _plan((3,), 1, None, [_tuple_pool(3, 3)]))
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


def _enumerates(count: int, arity: int, budget: Optional[int]) -> bool:
    """Whether a draw of this budget is every tuple, in order, whatever the seed."""
    return budget is None or budget >= comb(count, arity)


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
    if _enumerates(count, arity, budget):
        return _tuple_pool(count, arity)
    ranks = np.random.default_rng(seed).choice(comb(count, arity), budget, replace=False,
                                               shuffle=False)
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
    return _relate(t, s, [None], _plan((n,), 1, [pairs], None))[0]


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
    return _relate(t, s, [None], _plan((n,), 1, None, [triples]))[1]


# -- content-level losses -------------------------------------------------------

def _derive_seed(*words: int) -> int:
    """The one seed derivation: a SeedSequence over the words, each modulo 2**64."""
    return int(np.random.SeedSequence([w & 0xFFFFFFFFFFFFFFFF for w in words])
               .generate_state(1)[0])


def _granularity_seed(base: int, granularity: str, arity: int) -> int:
    return _derive_seed(base, GRANULARITIES.index(granularity), arity)   # column 0, row 1, patch 2


def _draw(count: int, arity: int, budget: Optional[int], base: int, granularity: str):
    """One granularity's tuples; a seed is derived only for a draw that samples."""
    seed = 0 if _enumerates(count, arity, budget) else _granularity_seed(base, granularity, arity)
    return sample_tuples(count, arity, budget, seed)


@functools.lru_cache(maxsize=64)
def _resolve(shape: tuple, n: int, m: int, grans: tuple, pair_budget: Optional[int],
             triplet_budget: Optional[int], distance: bool, angle: bool) -> tuple:
    """What ``crd_terms`` derives from its arguments other than the images'
    values and the seed: (cuts, batch, counts, plan), one read-only slicing
    layout per granularity, the images per source, each set's item count and,
    when every asked-for draw is its whole pool, the ``_pool_plan`` (else
    None: the draws sample, per call)."""
    cuts = tuple(slicing.layout(shape, g, (n, m) if g == PATCH else None) for g in grans)
    batch = cuts[0][0][0]
    counts = tuple(cut[2][0] // batch for cut in cuts)
    asked = [(2, pair_budget)] * distance + [(3, triplet_budget)] * angle
    whole = all(_enumerates(c, arity, budget) for c in counts for arity, budget in asked)
    return cuts, batch, counts, _pool_plan(counts, batch, distance, angle) if whole else None


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
    cuts, batch, counts, plan = _resolve(teacher_img.shape, n, m, grans, cfg.pair_budget,
                                         cfg.triplet_budget, distance, angle)
    if plan is None:
        def draws(arity, budget):
            return [_draw(c, arity, budget, cfg.seed, g) for c, g in zip(counts, grans)]

        plan = _plan(counts, batch, draws(2, cfg.pair_budget) if distance else None,
                     draws(3, cfg.triplet_budget) if angle else None)
    return _relate(teacher_img, student_img, cuts, plan)


def crd_combine(crd_d: Tensor, crd_a: Optional[Tensor], cfg: RelationConfig) -> Tensor:
    """The content-relationship loss: crd_d + lambda_a * crd_a (crd_d alone
    when the angle term was not computed, as for lambda_a = 0).

    One autodiff node with the bytes of the composed constant, mul and add:
    lambda_a in crd_a's dtype times crd_a, added to crd_d; the backward
    gives g to crd_d, then g (in crd_a's dtype, as the mul node's gradient
    is) times lambda_a to crd_a."""
    if crd_a is None:
        return crd_d
    lam = np.asarray(cfg.lambda_a, dtype=crd_a.dtype)

    def back(g):
        if crd_d.requires_grad:
            crd_d._accumulate(g)
        if crd_a.requires_grad:
            crd_a._accumulate(g.astype(lam.dtype, copy=False) * lam)

    return _result(crd_d.data + crd_a.data * lam, "crd_combine", (crd_d, crd_a), back)


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
