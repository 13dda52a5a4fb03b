"""Relational losses against independent full-enumeration oracles.

The oracles below slice with plain numpy loops and enumerate every tuple
explicitly; they share nothing with the vectorized path they check.  The
composed-graph oracle further down is the other kind: the same steps as
separate autodiff ops, whose values and gradients the one-node loss must
match byte for byte.
"""

import functools
import itertools
import operator

import numpy as np
import pytest

from crdgan import autodiff, relations, slicing
from crdgan.autodiff import (
    Tensor, backward, clamp_min, finite_diff_grad, gather_sum, gradcheck, huber, matmul,
    max_rel_error, reciprocal, reshape, sqrt_guarded, tmean, tsum,
)
from crdgan.relations import (
    RelationConfig, crd_angle_loss, crd_combine, crd_distance_loss, crd_loss,
    crd_terms, pairwise_distances, phi_a, phi_d, rkd_angle_loss,
    rkd_distance_loss, sample_tuples,
)

CFG = RelationConfig(seed=0)


# -- independent oracles -------------------------------------------------------

def oracle_huber(a, b):
    d = a - b
    return 0.5 * d * d if abs(d) <= 1.0 else abs(d) - 0.5


def oracle_mu(items):
    n = len(items)
    ds = []
    for i in range(n):
        for j in range(i + 1, n):
            ds.append(np.linalg.norm(np.asarray(items[i], dtype=float)
                                     - np.asarray(items[j], dtype=float)))
    return ds, float(np.mean(ds))


def oracle_phi_d_table(items):
    ds, mu = oracle_mu(items)
    out = {}
    k = 0
    n = len(items)
    for i in range(n):
        for j in range(i + 1, n):
            out[(i, j)] = ds[k] / mu if mu > 0 else 0.0
            k += 1
    return out


def oracle_rkd_d(t_items, s_items):
    pt = oracle_phi_d_table(t_items)
    ps = oracle_phi_d_table(s_items)
    return sum(oracle_huber(pt[key], ps[key]) for key in pt) / len(pt)


def oracle_phi_a(vi, vj, vk):
    e1 = np.asarray(vi, float) - np.asarray(vj, float)
    e2 = np.asarray(vj, float) - np.asarray(vk, float)
    e1 = e1 / np.linalg.norm(e1)
    e2 = e2 / np.linalg.norm(e2)
    return float(np.dot(e1, e2))


def oracle_rkd_a(t_items, s_items):
    n = len(t_items)
    total = 0.0
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total += oracle_huber(oracle_phi_a(t_items[i], t_items[j], t_items[k]),
                                      oracle_phi_a(s_items[i], s_items[j], s_items[k]))
                count += 1
    return total / count


def oracle_slice(img, granularity, n=None, m=None):
    c, h, w = img.shape
    if granularity == "column":
        return [img[:, :, i].ravel() for i in range(w)]
    if granularity == "row":
        return [img[:, i, :].ravel() for i in range(h)]
    out = []
    for a in range(h // n):
        for b in range(w // m):
            out.append(img[:, a * n:(a + 1) * n, b * m:(b + 1) * m].ravel())
    return out


def oracle_crd(t_img, s_img, n, m, angle):
    fn = oracle_rkd_a if angle else oracle_rkd_d
    total = 0.0
    for g in ("column", "row", "patch"):
        total += fn(oracle_slice(t_img, g, n, m), oracle_slice(s_img, g, n, m))
    return total


# -- huber ----------------------------------------------------------------------

class TestHuber:
    def test_values(self):
        assert huber(Tensor(np.asarray(0.0)), Tensor(np.asarray(0.0))).item() == 0.0
        assert huber(Tensor(np.asarray(0.5)), Tensor(np.asarray(0.0))).item() == 0.125
        assert huber(Tensor(np.asarray(3.0)), Tensor(np.asarray(0.0))).item() == 2.5

    def test_continuity_at_branch_point(self):
        inner = huber(Tensor(np.asarray(1.0)), Tensor(np.asarray(0.0))).item()
        outer = huber(Tensor(np.asarray(1.0 + 1e-12)), Tensor(np.asarray(0.0))).item()
        assert inner == 0.5
        assert abs(outer - 0.5) < 1e-9

    def test_gradient_magnitude_capped(self):
        rng = np.random.default_rng(0)
        for d in rng.uniform(-5, 5, 50):
            a = Tensor(np.asarray(d), requires_grad=True)
            backward(huber(a, Tensor(np.asarray(0.0))))
            assert abs(float(a.grad)) <= 1.0 + 1e-9


# -- distance structures ----------------------------------------------------------

class TestPairwiseDistances:
    def test_two_point_pythagorean(self):
        s = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert s.distances[0, 1] == pytest.approx(5.0)
        assert s.mu.item() == pytest.approx(5.0)

    def test_identical_items_degenerate(self):
        s = pairwise_distances(np.ones((3, 4)))
        np.testing.assert_array_equal(s.distances, np.zeros((3, 3)))
        assert s.mu.item() == 0.0

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(1)
        items = rng.normal(size=(5, 6))
        s = pairwise_distances(items)
        _, mu = oracle_mu(items)
        assert s.mu.item() == pytest.approx(mu, abs=1e-10)
        for i in range(5):
            assert s.distances[i, i] == 0.0
            for j in range(i + 1, 5):
                want = np.linalg.norm(items[i] - items[j])
                assert s.distances[i, j] == pytest.approx(want, abs=1e-10)
                assert s.distances[j, i] == s.distances[i, j]

    def test_single_item_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            pairwise_distances(np.ones((1, 3)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("wrap", [Tensor, np.asarray])     # an ndarray keeps its dtype too
    def test_pair_values_are_the_relation_pass_distances(self, dtype, wrap):
        items = np.random.default_rng(5).normal(size=(7, 9)).astype(dtype)
        got = pairwise_distances(wrap(items)).pair_values.data
        side = relations._Side([items], relations._plan((7,), 1, None, None))
        assert got.dtype == dtype
        assert got.tobytes() == side.d.tobytes()
        composed = sqrt_guarded(composed_pair_sq(Tensor(items), 1), 1e-12)
        assert got.tobytes() == composed.data.tobytes()


class TestPhiD:
    def test_two_item_self_normalization(self):
        s = pairwise_distances(np.array([[0.0], [7.0]]))
        assert phi_d(s, 0, 1) == pytest.approx(1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        items = rng.normal(size=(4, 3))
        s1 = pairwise_distances(items)
        s2 = pairwise_distances(2.0 * items)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert phi_d(s1, i, j) == pytest.approx(phi_d(s2, i, j), abs=1e-12)

    def test_against_oracle(self):
        rng = np.random.default_rng(3)
        items = rng.normal(size=(5, 4))
        s = pairwise_distances(items)
        table = oracle_phi_d_table(items)
        for (i, j), want in table.items():
            assert phi_d(s, i, j) == pytest.approx(want, abs=1e-10)

    def test_diagonal_rejected(self):
        s = pairwise_distances(np.ones((3, 2)))
        with pytest.raises(ValueError, match="i == j"):
            phi_d(s, 1, 1)


class TestPhiA:
    def test_orthogonal_residues(self):
        assert phi_a([1.0, 0.0], [0.0, 0.0], [0.0, 1.0]).item() == pytest.approx(0.0)

    def test_collinear_equally_spaced(self):
        assert phi_a([0.0, 0.0], [1.0, 1.0], [2.0, 2.0]).item() == pytest.approx(1.0)

    def test_against_cosine_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            vi, vj, vk = rng.normal(size=(3, 5))
            got = phi_a(vi, vj, vk).item()
            assert got == pytest.approx(oracle_phi_a(vi, vj, vk), abs=1e-10)
            assert -1.0 - 1e-9 <= got <= 1.0 + 1e-9

    def test_degenerate_is_guarded(self):
        v = np.ones(3)
        assert np.isfinite(phi_a(v, v, 2 * v).item())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_is_the_relation_pass_angle(self, dtype):
        stack = np.random.default_rng(6).normal(size=(3, 8)).astype(dtype)
        got = phi_a(*(Tensor(v) for v in stack)).data
        plan = relations._plan((3,), 1, None, [np.array([[0, 1, 2]])])
        want = relations._Side([stack], plan).phi[1]
        assert got.shape == () and got.dtype == dtype
        assert got.tobytes() == want.tobytes()


# -- instance-level losses ---------------------------------------------------------

class TestRkdDistance:
    def test_zero_at_self(self):
        rng = np.random.default_rng(5)
        items = rng.normal(size=(5, 6))
        assert rkd_distance_loss(items, items, CFG).item() == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        items = rng.normal(size=(5, 6))
        for alpha in (0.5, 2.0, 10.0):
            assert rkd_distance_loss(items, alpha * items, CFG).item() <= 1e-8

    def test_against_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        t = rng.normal(size=(4, 5))
        s = rng.normal(size=(4, 5))
        got = rkd_distance_loss(t, s, CFG).item()
        want = oracle_rkd_d(t, s)
        assert got == pytest.approx(want, rel=1e-8)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="items"):
            rkd_distance_loss(np.ones((3, 2)), np.ones((4, 2)), CFG)

    def test_reindexing_symmetry(self):
        rng = np.random.default_rng(8)
        t = rng.normal(size=(5, 4))
        s = rng.normal(size=(5, 4))
        perm = rng.permutation(5)
        a = rkd_distance_loss(t, s, CFG).item()
        b = rkd_distance_loss(t[perm], s[perm], CFG).item()
        assert a == pytest.approx(b, rel=1e-10)

    def test_flat_teacher_uses_epsilon_guard(self):
        rng = np.random.default_rng(9)
        t = np.ones((4, 3))
        s = rng.normal(size=(4, 3))
        got = rkd_distance_loss(t, s, CFG).item()
        want = oracle_rkd_d(t, s)   # oracle maps mu=0 to phi=0
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-8)


class TestRkdAngle:
    def test_zero_at_self(self):
        rng = np.random.default_rng(10)
        items = rng.normal(size=(5, 6))
        assert rkd_angle_loss(items, items, CFG).item() == 0.0

    def test_isometry_invariance(self):
        rng = np.random.default_rng(11)
        items = rng.normal(size=(5, 6))
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        moved = 3.7 * (items @ q.T) + rng.normal(size=(1, 6))
        assert rkd_angle_loss(items, moved, CFG).item() <= 1e-8

    def test_against_enumeration_oracle(self):
        rng = np.random.default_rng(12)
        t = rng.normal(size=(4, 5))
        s = rng.normal(size=(4, 5))
        got = rkd_angle_loss(t, s, CFG).item()
        want = oracle_rkd_a(t, s)
        assert got == pytest.approx(want, rel=1e-8)

    def test_needs_three_items(self):
        with pytest.raises(ValueError, match=">= 3"):
            rkd_angle_loss(np.ones((2, 2)), np.ones((2, 2)), CFG)


@pytest.mark.parametrize("loss", [rkd_distance_loss, rkd_angle_loss])
def test_rkd_losses_take_content_sets_like_item_stacks(loss):
    # a ContentSet from split_columns is read as its item stack, in value and gradient
    rng = np.random.default_rng(13)
    t_img = Tensor(rng.normal(size=(3, 4, 6)))
    s_img = Tensor(rng.normal(size=(3, 4, 6)), requires_grad=True)
    via_sets = loss(slicing.split_columns(t_img), slicing.split_columns(s_img), CFG)
    backward(via_sets)
    t_items = Tensor(slicing.split_columns(t_img).items.data)
    s_items = Tensor(slicing.split_columns(s_img).items.data, requires_grad=True)
    via_stacks = loss(t_items, s_items, CFG)
    backward(via_stacks)
    assert via_sets.item() == via_stacks.item()
    np.testing.assert_array_equal(slicing.split_columns(Tensor(s_img.grad)).items.data,
                                  s_items.grad)


# -- content-level losses ------------------------------------------------------------

class TestCrdDistance:
    def test_zero_at_self(self):
        rng = np.random.default_rng(13)
        img = Tensor(rng.uniform(-1, 1, (1, 4, 4)))
        assert crd_distance_loss(img, img, 2, 2, CFG).item() == 0.0

    def test_ramp_vs_constant_matches_oracle(self):
        # 1x4x4 ramp teacher, constant student, 2x2 patches:
        # 6 column pairs + 6 row pairs + 6 patch pairs, student side all phi=0
        t = np.arange(16.0).reshape(1, 4, 4)
        s = np.full((1, 4, 4), 0.25)
        got = crd_distance_loss(Tensor(t), Tensor(s), 2, 2, CFG).item()
        want = oracle_crd(t, s, 2, 2, angle=False)
        assert got == pytest.approx(want, rel=1e-10)
        assert got == pytest.approx(1.6540740740740738, rel=1e-9)  # frozen from the oracle

    def test_random_images_match_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(3):
            t = rng.uniform(-1, 1, (1, 4, 4))
            s = rng.uniform(-1, 1, (1, 4, 4))
            got = crd_distance_loss(Tensor(t), Tensor(s), 2, 2, CFG).item()
            assert got == pytest.approx(oracle_crd(t, s, 2, 2, False), rel=1e-8)

    def test_all_granularities_disabled_rejected(self):
        cfg = RelationConfig(use_columns=False, use_rows=False, use_patches=False)
        img = Tensor(np.zeros((1, 4, 4)))
        with pytest.raises(ValueError, match="granularity"):
            crd_distance_loss(img, img, 2, 2, cfg)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            crd_distance_loss(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 4, 6))), 2, 2, CFG)

    def test_granularity_toggles_drop_terms(self):
        rng = np.random.default_rng(15)
        for shape in ((1, 4, 4), (2, 1, 4, 4)):
            t = Tensor(rng.uniform(-1, 1, shape))
            s = Tensor(rng.uniform(-1, 1, shape))
            full = crd_terms(t, s, 2, 2, CFG)
            parts = [crd_terms(t, s, 2, 2, RelationConfig(**toggles))
                     for toggles in [dict(use_rows=False, use_patches=False),
                                     dict(use_columns=False, use_patches=False),
                                     dict(use_columns=False, use_rows=False)]]
            for k in (0, 1):          # distance, then angle
                assert full[k].item() == pytest.approx(sum(p[k].item() for p in parts),
                                                       rel=1e-10)


class TestCrdAngle:
    def test_zero_at_self(self):
        rng = np.random.default_rng(16)
        img = Tensor(rng.uniform(-1, 1, (1, 4, 4)))
        assert crd_angle_loss(img, img, 2, 2, CFG).item() == 0.0

    def test_constant_pixel_offset_invariance(self):
        rng = np.random.default_rng(17)
        t = rng.uniform(-1, 1, (1, 4, 4))
        s = t + 0.37
        assert crd_angle_loss(Tensor(t), Tensor(s), 2, 2, CFG).item() <= 1e-8

    def test_full_triple_enumeration_matches_vectorized(self):
        rng = np.random.default_rng(18)
        t = rng.uniform(-1, 1, (1, 4, 4))
        s = rng.uniform(-1, 1, (1, 4, 4))
        got = crd_angle_loss(Tensor(t), Tensor(s), 2, 2, CFG).item()
        assert got == pytest.approx(oracle_crd(t, s, 2, 2, True), rel=1e-8)


class TestCrdCombined:
    def test_zero_at_self(self):
        rng = np.random.default_rng(20)
        img = Tensor(rng.uniform(-1, 1, (1, 4, 4)))
        assert crd_loss(img, img, 2, 2, CFG).item() == 0.0

    def test_lambda_a_zero_is_distance_only(self):
        rng = np.random.default_rng(21)
        t = Tensor(rng.uniform(-1, 1, (1, 4, 4)))
        s = Tensor(rng.uniform(-1, 1, (1, 4, 4)))
        cfg = RelationConfig(lambda_a=0.0)
        assert crd_loss(t, s, 2, 2, cfg).item() == crd_distance_loss(t, s, 2, 2, cfg).item()

    def test_default_weights_combine_components(self):
        rng = np.random.default_rng(22)
        t = rng.uniform(-1, 1, (1, 4, 4))
        s = rng.uniform(-1, 1, (1, 4, 4))
        got = crd_loss(Tensor(t), Tensor(s), 2, 2, CFG).item()
        want = oracle_crd(t, s, 2, 2, False) + 2.0 * oracle_crd(t, s, 2, 2, True)
        assert got == pytest.approx(want, rel=1e-8)

    def test_batch_averages_per_image(self):
        rng = np.random.default_rng(23)
        t = rng.uniform(-1, 1, (4, 2, 8, 8))
        s = rng.uniform(-1, 1, (4, 2, 8, 8))
        cfg = RelationConfig(pair_budget=20, triplet_budget=30, seed=9)
        for fn in (crd_distance_loss, crd_angle_loss):
            batched = fn(Tensor(t), Tensor(s), 4, 4, cfg).item()
            singles = [fn(Tensor(t[b]), Tensor(s[b]), 4, 4, cfg).item() for b in range(4)]
            assert batched == pytest.approx(np.mean(singles), rel=0, abs=1e-10)

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            t = Tensor(rng.uniform(-1, 1, (1, 4, 4)))
            s = Tensor(rng.uniform(-1, 1, (1, 4, 4)))
            assert crd_loss(t, s, 2, 2, CFG).item() >= 0.0


def direct_difference_crd(t_img, s_img, n, m, angle):
    """Full-enumeration loss from explicit float64 residuals; a zero residual
    gives a zero cosine, as the program's epsilon guard does."""
    def table(items):
        items = np.asarray(items, dtype=np.float64)
        count = len(items)
        if not angle:
            ds = np.array([np.linalg.norm(items[i] - items[j])
                           for i in range(count) for j in range(i + 1, count)])
            return ds / ds.mean() if ds.mean() > 0 else ds
        out = []
        for i in range(count):
            for j in range(i + 1, count):
                for k in range(j + 1, count):
                    e1, e2 = items[i] - items[j], items[j] - items[k]
                    n1, n2 = np.linalg.norm(e1), np.linalg.norm(e2)
                    out.append(0.0 if n1 == 0 or n2 == 0 else e1 @ e2 / (n1 * n2))
        return np.array(out)

    total = 0.0
    for g in ("column", "row", "patch"):
        d = table(oracle_slice(t_img, g, n, m)) - table(oracle_slice(s_img, g, n, m))
        total += np.where(np.abs(d) <= 1, 0.5 * d * d, np.abs(d) - 0.5).mean()
    return total


def flat_background(rng, dtype):
    """A 3x32x32 image whose columns all repeat one background column except
    for three strokes, so many columns and patches are exact duplicates."""
    img = np.repeat(rng.uniform(-1, 1, (3, 32, 1)), 32, axis=2)
    img[:, :, 5] += 0.3
    img[:, 10:20, 17] -= 0.5
    img[:, :4, 25] *= -1.0
    return img.astype(dtype)


class TestOnePass:
    FULL = RelationConfig(seed=0, pair_budget=None, triplet_budget=None)

    def test_repeated_columns_float32_match_direct_difference_oracle(self):
        rng = np.random.default_rng(30)
        t = flat_background(rng, np.float32)
        s = flat_background(rng, np.float32)
        for angle, fn in ((False, crd_distance_loss), (True, crd_angle_loss)):
            got = fn(Tensor(t), Tensor(s), 8, 8, self.FULL)
            assert got.dtype == np.float32
            want = direct_difference_crd(t, s, 8, 8, angle)
            assert got.item() == pytest.approx(want, rel=1e-5)

    def test_batched_gradcheck_with_sampled_budgets(self):
        rng = np.random.default_rng(32)
        t_img = Tensor(rng.uniform(-1, 1, (2, 1, 8, 8)))
        cfg = RelationConfig(pair_budget=15, triplet_budget=25, seed=4)
        gradcheck(lambda x: crd_loss(t_img, x, 4, 4, cfg),
                  Tensor(rng.uniform(-1, 1, (2, 1, 8, 8))), tol=1e-4)

    def test_wrappers_share_the_one_pass(self):
        rng = np.random.default_rng(33)
        t = Tensor(rng.uniform(-1, 1, (2, 3, 8, 8)))
        s = Tensor(rng.uniform(-1, 1, (2, 3, 8, 8)))
        cfg = RelationConfig(triplet_budget=40, seed=2)
        crd_d, crd_a = crd_terms(t, s, 4, 4, cfg)
        assert crd_d.item() == crd_distance_loss(t, s, 4, 4, cfg).item()
        assert crd_a.item() == crd_angle_loss(t, s, 4, 4, cfg).item()
        assert crd_loss(t, s, 4, 4, cfg).item() == crd_combine(crd_d, crd_a, cfg).item()
        assert crd_terms(t, s, 4, 4, cfg, angle=False)[1] is None

    def test_one_layout_per_granularity_and_no_split(self, monkeypatch):
        relations._resolve.cache_clear()        # a resolved call asks for no layout at all
        calls = []
        real = slicing.layout

        def counting(shape, granularity, patch_dims=None):
            calls.append((shape, granularity))
            return real(shape, granularity, patch_dims)

        def no_split(*args):
            raise AssertionError("crd_terms sliced through split")

        monkeypatch.setattr(slicing, "layout", counting)
        monkeypatch.setattr(slicing, "split", no_split)
        img = Tensor(np.random.default_rng(34).uniform(-1, 1, (4, 1, 8, 8)))
        crd_terms(img, img, 4, 4, RelationConfig(triplet_budget=16))
        assert calls == [((4, 1, 8, 8), g) for g in ("column", "row", "patch")]

    def test_a_seed_is_derived_only_for_a_draw_that_samples(self, monkeypatch):
        derived = []
        real = relations._derive_seed
        monkeypatch.setattr(relations, "_derive_seed",
                            lambda *words: derived.append(words) or real(*words))
        img = Tensor(np.random.default_rng(35).uniform(-1, 1, (1, 8, 8)))
        # all pairs; 50 of the 56 triples of 8 columns or rows, and all 4 of 4 patches
        crd_terms(img, img, 4, 4, RelationConfig(pair_budget=None, triplet_budget=50, seed=9))
        assert derived == [(9, 0, 3), (9, 1, 3)]
        derived.clear()
        crd_terms(img, img, 4, 4, self.FULL)
        assert derived == []

    def test_no_cache_grows_with_the_step_seed(self):
        caches = {name: fn for name, fn in vars(relations).items() if hasattr(fn, "cache_info")}
        img = Tensor(np.random.default_rng(36).uniform(-1, 1, (2, 3, 8, 12)))
        configs = [RelationConfig(pair_budget=budget, triplet_budget=budget, seed=seed)
                   for seed in range(301) for budget in (None, 30)]
        crd_terms(img, img, 4, 4, configs[0])
        crd_terms(img, img, 4, 4, configs[1])
        sizes = {name: fn.cache_info().currsize for name, fn in caches.items()}
        for cfg in configs[2:]:                 # 300 steps' seeds, full and sampled draws
            crd_terms(img, img, 4, 4, cfg)
        assert {name: fn.cache_info().currsize for name, fn in caches.items()} == sizes
        assert "_pool_term" in caches and "_resolve" in caches
        assert "_granularity_seed" not in caches

    @pytest.mark.parametrize("cfg", [FULL, RelationConfig(pair_budget=30, triplet_budget=40, seed=6)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_resolved_call_gives_the_bytes_of_a_fresh_one(self, monkeypatch, cfg, dtype):
        rng = np.random.default_rng(37)
        t_data, s_data = rng.uniform(-1, 1, (2, 2, 3, 8, 12)).astype(dtype)

        def run():
            monkeypatch.setattr(relations, "_memo", None)   # relate the teacher afresh too
            s = Tensor(s_data.copy(), requires_grad=True)
            loss = crd_loss(Tensor(t_data.copy()), s, 4, 4, cfg)
            backward(loss)
            return loss.data.tobytes(), s.grad.tobytes()

        relations._resolve.cache_clear()
        relations._pool_plan.cache_clear()      # and a whole-pool plan builds its constants anew
        miss = run()
        assert relations._resolve.cache_info()[:2] == (0, 1)       # hits, misses
        assert run() == miss
        assert relations._resolve.cache_info()[:2] == (1, 1)

    def test_no_term_asked_for_is_none_none(self):
        img = Tensor(np.zeros((1, 4, 4)))
        assert crd_terms(img, img, 2, 2, CFG, distance=False, angle=False) == (None, None)


@pytest.fixture
def side_passes(monkeypatch):
    """Counts the relation pass's _Side passes, starting from an empty teacher memo."""
    passes = []

    class Counted(relations._Side):
        def __init__(self, xs, plan):
            passes.append(xs[0].dtype)
            super().__init__(xs, plan)

    monkeypatch.setattr(relations, "_Side", Counted)
    monkeypatch.setattr(relations, "_memo", None, raising=False)
    return passes


class TestTeacherMemo:
    FULL = RelationConfig(seed=0, pair_budget=None, triplet_budget=None)

    def grad_and_value(self, teacher, student, cfg=FULL):
        x = Tensor(student.copy(), requires_grad=True)
        loss = crd_loss(teacher, x, 4, 4, cfg)
        backward(loss)
        return loss.data.tobytes(), x.grad.tobytes()

    def test_a_gradient_check_relates_its_teacher_once(self, side_passes):
        # 8x8: the backward's call and 2 * 64 central differences, each relating
        # the student; the constant teacher only on the first
        rng = np.random.default_rng(50)
        teacher = Tensor(rng.uniform(-1, 1, (1, 8, 8)))
        autodiff._check_gradient(lambda x: crd_loss(teacher, x, 4, 4, self.FULL),
                                 Tensor(rng.uniform(-1, 1, (1, 8, 8))))
        assert len(side_passes) == 130

    @pytest.mark.parametrize("dtype, shape", [(np.float64, (1, 8, 8)),
                                              (np.float32, (2, 3, 8, 8))])
    def test_a_hit_gives_the_bytes_of_a_fresh_pass(self, side_passes, monkeypatch, dtype, shape):
        rng = np.random.default_rng(51)
        t = rng.uniform(-1, 1, shape).astype(dtype)
        first, second = (rng.uniform(-1, 1, shape).astype(dtype) for _ in range(2))
        self.grad_and_value(Tensor(t), first)
        del side_passes[:]
        hit = self.grad_and_value(Tensor(t.copy()), second)     # another tensor, the same bytes
        assert len(side_passes) == 1
        monkeypatch.setattr(relations, "_memo", None)
        assert self.grad_and_value(Tensor(t), second) == hit
        assert len(side_passes) == 3

    def test_a_teacher_changed_in_place_misses(self, side_passes, monkeypatch):
        rng = np.random.default_rng(52)
        teacher = Tensor(rng.uniform(-1, 1, (1, 8, 8)))
        student = rng.uniform(-1, 1, (1, 8, 8))
        self.grad_and_value(teacher, student)
        teacher.data[0, 3, 5] += 0.25
        del side_passes[:]
        changed = self.grad_and_value(teacher, student)
        assert len(side_passes) == 2
        monkeypatch.setattr(relations, "_memo", None)
        assert self.grad_and_value(teacher, student) == changed

    def test_a_teacher_taking_a_gradient_is_never_served(self, side_passes):
        rng = np.random.default_rng(53)
        t, s = rng.uniform(-1, 1, (2, 1, 8, 8))
        self.grad_and_value(Tensor(t), s)
        entry = relations._memo
        got = []
        for _ in range(2):
            del side_passes[:]
            teacher = Tensor(t.copy(), requires_grad=True)
            backward(crd_loss(teacher, Tensor(s), 4, 4, self.FULL))
            assert len(side_passes) == 2
            got.append(teacher.grad.tobytes())
        assert relations._memo is entry and got[0] == got[1]
        # the teacher's gradient is the student's with the sides swapped
        assert got[0] == self.grad_and_value(Tensor(s), t)[1]

    def test_a_sampled_plan_is_never_stored(self, side_passes):
        rng = np.random.default_rng(54)
        t, s = rng.uniform(-1, 1, (2, 1, 8, 8))
        sampled = RelationConfig(seed=3, pair_budget=None, triplet_budget=30)
        for _ in range(2):
            self.grad_and_value(Tensor(t), s, sampled)
        assert relations._memo is None and len(side_passes) == 4
        self.grad_and_value(Tensor(t), s)
        entry = relations._memo
        self.grad_and_value(Tensor(t), s, sampled)
        assert relations._memo is entry

    def test_one_entry_of_phi_only(self, side_passes):
        rng = np.random.default_rng(55)
        a, b, s = rng.uniform(-1, 1, (3, 1, 8, 8))
        for t in (a, b, a):
            self.grad_and_value(Tensor(t), s)
        assert len(side_passes) == 6             # one entry: a, then b, then a again all miss
        plan, key, data, phi = relations._memo
        assert plan is relations._pool_plan((8, 8, 4), 1, True, True)
        assert data == a.tobytes()
        fresh = relations._Side([slicing.cut(a, cut, (cut[2][0], -1)) for cut in key[0]], plan)
        assert [v.tobytes() for v in phi] == [v.tobytes() for v in fresh.phi]
        # no r, no sq: the only arrays held beside the plan are phi_d and phi_a
        assert not any(isinstance(v, relations._Side) for v in (plan, key, data, *phi))
        assert all(isinstance(v, np.ndarray) and not v.flags.writeable for v in phi)


# -- the composed graph the one-node loss replays --------------------------------

_ONE = (1.0,)
_COSINE = (-0.5, 0.5, -0.5)


def composed_pair_sq(x, batch):
    count, width = x.shape
    r = matmul(relations._incidence(count, x.dtype), x)
    return tsum(reshape(r * r, (-1, width // batch)), axes=1)


def composed_compare(t_x, s_x, batch, pair_idx, triple_idx, eps):
    """The relation terms built from generic autodiff ops, one op per step."""
    phis = []
    for x in (t_x, s_x):
        sq = composed_pair_sq(x, batch)
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


def composed_total(terms):
    present = [t for t in terms if t is not None]
    return functools.reduce(operator.add, present) if present else None


def composed_crd_terms(teacher_img, student_img, n, m, cfg, distance=True, angle=True):
    """crd_terms as a graph of split, matmul, gather_sum, sqrt_guarded,
    clamp_min, reciprocal, huber and tmean ops."""
    terms = []
    for g in cfg.enabled_granularities():
        t_set = slicing.split(teacher_img, g, (n, m) if g == "patch" else None)
        s_set = slicing.split(student_img, g, (n, m) if g == "patch" else None)
        count, batch = t_set.count, t_set.batch
        pair_idx = triple_idx = None
        if distance:
            pairs = sample_tuples(count, 2, cfg.pair_budget,
                                  relations._granularity_seed(cfg.seed, g, 2))
            pair_idx = relations._tuple_index(pairs, count, batch)
        if angle:
            triples = sample_tuples(count, 3, cfg.triplet_budget,
                                    relations._granularity_seed(cfg.seed, g, 3))
            triple_idx = relations._tuple_index(triples, count, batch)
        t_x, s_x = (reshape(c.items, (c.count, -1)) for c in (t_set, s_set))
        terms.append(composed_compare(t_x, s_x, batch, pair_idx, triple_idx,
                                      relations.EPSILON))
    return tuple(composed_total(column) for column in zip(*terms))


def _run_terms(fn, t_data, s_data, cfg, distance, angle, teacher_grad, same, use):
    """Values of both terms and the gradients of a loss over the terms in
    ``use`` (crd_combine when both are used)."""
    s = Tensor(s_data.copy(), requires_grad=True)
    t = s if same else Tensor(t_data.copy(), requires_grad=teacher_grad)
    crd_d, crd_a = fn(t, s, 4, 4, cfg, distance=distance, angle=angle)
    used = [term for term, on in zip((crd_d, crd_a), use) if on and term is not None]
    loss = crd_combine(*used, cfg) if len(used) == 2 else used[0]
    backward(loss)
    values = [None if term is None else term.data.tobytes() for term in (crd_d, crd_a)]
    grads = [None if x.grad is None else x.grad.tobytes() for x in (t, s)]
    return values, grads


def _one_ulp_flat(rng, shape, dtype):
    """Every pixel one value, then a random one-ulp step up or down."""
    img = np.full(shape, 0.3, dtype=dtype)
    steps = rng.integers(-1, 2, shape)
    return np.where(steps > 0, np.nextafter(img, dtype(1)),
                    np.where(steps < 0, np.nextafter(img, dtype(-1)), img)).astype(dtype)


class TestOneNodeMatchesComposedGraph:
    CASES = [
        dict(),
        dict(distance=False),
        dict(angle=False),
        dict(cfg=RelationConfig(use_columns=False, triplet_budget=30, seed=3)),
        dict(cfg=RelationConfig(use_rows=False, pair_budget=40, seed=4)),
        dict(cfg=RelationConfig(use_patches=False, triplet_budget=None)),
        dict(teacher_grad=True),
        dict(same=True),
        dict(use=(True, False)),
        dict(use=(False, True)),
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # (2, 3, 8, 12) with 4x4 patches: 12 columns, 8 rows and 6 patches per image,
    # three item counts and three item widths, so each set sits at its own offsets
    @pytest.mark.parametrize("shape", [(3, 8, 8), (4, 3, 8, 8), (2, 3, 8, 12)])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_values_and_gradients_byte_equal(self, dtype, shape, case):
        opts = dict(cfg=RelationConfig(triplet_budget=50, seed=7), distance=True, angle=True,
                    teacher_grad=False, same=False, use=(True, True))
        opts.update(self.CASES[case])
        rng = np.random.default_rng(case)
        t_data = rng.uniform(-1, 1, shape).astype(dtype)
        s_data = rng.uniform(-1, 1, shape).astype(dtype)
        args = (t_data, s_data, opts["cfg"], opts["distance"], opts["angle"],
                opts["teacher_grad"], opts["same"], opts["use"])
        assert _run_terms(crd_terms, *args) == _run_terms(composed_crd_terms, *args)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_image_with_one_ulp_noise(self, dtype):
        rng = np.random.default_rng(40)
        t_data = _one_ulp_flat(rng, (3, 16, 16), dtype)
        s_data = _one_ulp_flat(rng, (3, 16, 16), dtype)
        cfg = RelationConfig(triplet_budget=None, seed=1)
        args = (t_data, s_data, cfg, True, True, True, False, (True, True))
        got = _run_terms(crd_terms, *args)
        assert got == _run_terms(composed_crd_terms, *args)
        assert got[1][1] is not None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_item_stack_losses(self, dtype):
        rng = np.random.default_rng(41)
        t_data = rng.uniform(-1, 1, (6, 5)).astype(dtype)
        s_data = rng.uniform(-1, 1, (6, 7)).astype(dtype)     # item lengths may differ
        full = RelationConfig(pair_budget=None, triplet_budget=None)
        for fn, arity in ((rkd_distance_loss, 2), (rkd_angle_loss, 3)):
            idx = relations._tuple_index(sample_tuples(6, arity, None, 0), 6, 1)
            out = []
            for composed in (False, True):
                t = Tensor(t_data.copy(), requires_grad=True)
                s = Tensor(s_data.copy(), requires_grad=True)
                if composed:
                    pair_idx, triple_idx = (idx, None) if arity == 2 else (None, idx)
                    loss = composed_compare(t, s, 1, pair_idx, triple_idx,
                                            relations.EPSILON)[arity - 2]
                else:
                    loss = fn(t, s, full)
                backward(loss)
                out.append((loss.data.tobytes(), t.grad.tobytes(), s.grad.tobytes()))
            assert out[0] == out[1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_each_set_block_is_that_set_composed_alone(self, dtype):
        """Every set's block of one pass over all three sets (d, the per-image
        means, phi_d, phi_a) holds the bytes the composed ops give that set."""
        img = Tensor(np.random.default_rng(43).uniform(-1, 1, (2, 3, 8, 12)).astype(dtype))
        cfg = RelationConfig(pair_budget=40, triplet_budget=50, seed=5)
        sets = [slicing.split(img, g, (4, 4) if g == "patch" else None)
                for g in slicing.GRANULARITIES]
        pairs = [sample_tuples(c.count, 2, cfg.pair_budget,
                               relations._granularity_seed(cfg.seed, c.granularity, 2))
                 for c in sets]
        triples = [sample_tuples(c.count, 3, cfg.triplet_budget,
                                 relations._granularity_seed(cfg.seed, c.granularity, 3))
                   for c in sets]
        assert [c.count for c in sets] == [12, 8, 6]
        plan = relations._plan(tuple(c.count for c in sets), 2, pairs, triples)
        side = relations._Side([c.items.data.reshape(c.count, -1) for c in sets], plan)
        eps = relations.EPSILON
        for k, c in enumerate(sets):
            pair_idx = relations._tuple_index(pairs[k], c.count, 2)
            triple_idx = relations._tuple_index(triples[k], c.count, 2)
            sq = composed_pair_sq(reshape(c.items, (c.count, -1)), 2)
            d = sqrt_guarded(sq, eps)
            mean = tmean(reshape(d, (-1, 2)), axes=0)
            inv_mu = reciprocal(clamp_min(mean, eps))
            inv = reciprocal(clamp_min(d, eps))
            want = [d, mean,
                    gather_sum(d, pair_idx, _ONE) * gather_sum(inv_mu, pair_idx % 2, _ONE),
                    gather_sum(sq, triple_idx, _COSINE) * gather_sum(inv, triple_idx[:, :1], _ONE)
                    * gather_sum(inv, triple_idx[:, 2:], _ONE)]
            (d0, d1), (p0, p1), (t0, t1) = (plan.blocks[k], plan.pairs[-1][k],
                                            plan.triples[-1][k])
            got = [side.d[d0:d1], side.mean[2 * k:2 * k + 2], side.phi[0][p0:p1],
                   side.phi[1][t0:t1]]
            assert [g.tobytes() for g in got] == [w.data.tobytes() for w in want], c.granularity

    def test_finite_differences_at_the_gradcheck_defaults(self):
        """`crdgan gradcheck`'s case (8x8, patch 4, full enumeration, float64,
        seed 0): the central differences of crd_loss, and its backward, are
        those of the composed graph, byte for byte."""
        rng = np.random.default_rng(0)
        cfg = RelationConfig(triplet_budget=None, seed=0)
        teacher = Tensor(rng.uniform(-1, 1, (1, 8, 8)))
        student = rng.uniform(-1, 1, (1, 8, 8))
        out = []
        for terms in (crd_terms, composed_crd_terms):
            def f(x):
                return crd_combine(*terms(teacher, x, 4, 4, cfg), cfg)

            x = Tensor(student.copy(), requires_grad=True)
            backward(f(x))
            out.append((x.grad.tobytes(), finite_diff_grad(f, x, 1e-6).data.tobytes()))
        assert crd_loss(teacher, Tensor(student), 4, 4, cfg).item() == \
            crd_combine(*composed_crd_terms(teacher, Tensor(student), 4, 4, cfg), cfg).item()
        assert out[0] == out[1]

    def test_one_call_records_at_most_three_results(self, monkeypatch):
        count = [0]
        real = autodiff._result

        def counting(*args):
            count[0] += 1
            return real(*args)

        monkeypatch.setattr(autodiff, "_result", counting)
        monkeypatch.setattr(relations, "_result", counting)
        img = Tensor(np.random.default_rng(42).uniform(-1, 1, (2, 3, 8, 8)), requires_grad=True)
        crd_terms(img, img, 4, 4, CFG)
        assert 0 < count[0] <= 3


def composed_combine(crd_d, crd_a, cfg):
    """crd_combine as the constant, mul and add ops it replaces."""
    return crd_d if crd_a is None else crd_d + cfg.lambda_a * crd_a


class TestCombineNode:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lambda_a", [0.5, 2.0, 0.3])
    def test_value_and_gradients_are_the_composed_bytes(self, dtype, lambda_a):
        cfg = RelationConfig(lambda_a=lambda_a, triplet_budget=30, seed=8)
        rng = np.random.default_rng(60)
        t_data, s_data = rng.uniform(-1, 1, (2, 2, 3, 8, 8)).astype(dtype)
        out = []
        for combine in (crd_combine, composed_combine):
            s = Tensor(s_data.copy(), requires_grad=True)
            crd_d, crd_a = crd_terms(Tensor(t_data), s, 4, 4, cfg)
            early = crd_d * 0.7                 # crd_d also on its own, before and after
            total = combine(crd_d, crd_a, cfg)
            backward(early + total * 3.0 + crd_d)
            out.append([v.tobytes() for v in (total.data, crd_d.grad, crd_a.grad, s.grad)])
        assert out[0] == out[1]

    # (crd_d's dtype, crd_a's): a mixed pair gives crd_a g in its own dtype, as mul does
    @pytest.mark.parametrize("dtypes", [(np.float32, np.float32), (np.float64, np.float64),
                                        (np.float64, np.float32), (np.float32, np.float64)])
    @pytest.mark.parametrize("lambda_a", [0.5, 2.0, 0.3])
    def test_leaf_terms(self, dtypes, lambda_a):
        cfg = RelationConfig(lambda_a=lambda_a)
        rng = np.random.default_rng(61)
        values = rng.uniform(0, 2, (3, 50))
        out = []
        for combine in (crd_combine, composed_combine):
            got = []
            for d, a, weight in values.T:
                crd_d, crd_a = (Tensor(v, requires_grad=True, dtype=dt) for v, dt in zip((d, a), dtypes))
                total = combine(crd_d, crd_a, cfg)
                backward(crd_d * 1.3 + total * weight)
                got.append([(v.dtype, v.tobytes()) for v in (total.data, crd_d.grad, crd_a.grad)])
            out.append(got)
        assert out[0] == out[1]

    def test_one_result_and_distance_alone(self, monkeypatch):
        crd_d, crd_a = (Tensor(np.float64(v), requires_grad=True) for v in (0.25, 0.5))
        count = [0]
        real = relations._result
        monkeypatch.setattr(relations, "_result",
                            lambda *args: count.__setitem__(0, count[0] + 1) or real(*args))
        assert crd_combine(crd_d, None, CFG) is crd_d
        assert crd_combine(crd_d, crd_a, CFG).item() == 1.25 and count[0] == 1


class TestSampling:
    def test_small_budget_regime_is_exhaustive(self):
        got = sample_tuples(4, 2, 100, seed=0)
        np.testing.assert_array_equal(
            got, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])

    def test_all_triples_when_budget_covers(self):
        got = sample_tuples(4, 3, 100, seed=0)
        np.testing.assert_array_equal(got, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])

    def test_budgeted_replay_is_deterministic(self):
        a = sample_tuples(32, 3, 512, seed=77)
        b = sample_tuples(32, 3, 512, seed=77)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (512, 3)
        assert len({tuple(row) for row in a}) == 512          # distinct
        assert np.all(a[:, 0] < a[:, 1]) and np.all(a[:, 1] < a[:, 2])

    def test_large_pool_draw_is_distinct_and_replayable(self):
        got = sample_tuples(256, 3, 4096, seed=5)
        assert got.shape == (4096, 3)
        assert len({tuple(row) for row in got}) == 4096
        again = sample_tuples(256, 3, 4096, seed=5)
        np.testing.assert_array_equal(got, again)

    @pytest.mark.parametrize("arity", [2, 3])
    def test_full_enumeration_is_combinations_order(self, arity):
        for count in range(arity, 13):
            want = np.array(list(itertools.combinations(range(count), arity)))
            np.testing.assert_array_equal(sample_tuples(count, arity, None, seed=0), want)

    def test_budgeted_draw_is_uniform_on_a_large_pool(self):
        # 128 items give C(128, 3) = 341,376 triples; the first index of a
        # uniform triple has mean (128 - 3) / 4 and reaches past the middle
        first = np.concatenate([sample_tuples(128, 3, 512, seed)[:, 0] for seed in range(20)])
        assert abs(first.mean() - 125 / 4) <= 0.1 * 125 / 4
        assert first.max() > 64

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match=f"budget must be >= 1 or None, got {budget}"):
            sample_tuples(32, 3, budget, seed=0)

    def test_different_seeds_differ(self):
        a = sample_tuples(32, 3, 512, seed=1)
        b = sample_tuples(32, 3, 512, seed=2)
        assert not np.array_equal(a, b)

    def test_too_few_items_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            sample_tuples(2, 3, 10, seed=0)


class TestGradients:
    def test_crd_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(25)
        t_img = Tensor(rng.uniform(-1, 1, (1, 4, 4)))
        s0 = rng.uniform(-1, 1, (1, 4, 4))

        def f(x):
            return crd_loss(t_img, x, 2, 2, CFG)

        s = Tensor(s0, requires_grad=True)
        backward(f(s))
        numeric = finite_diff_grad(f, s, 1e-6).data
        assert max_rel_error(s.grad, numeric) <= 1e-4

    def test_teacher_side_detached_gets_no_grad_when_plain(self):
        rng = np.random.default_rng(26)
        t_img = Tensor(rng.uniform(-1, 1, (1, 4, 4)))   # no requires_grad
        s = Tensor(rng.uniform(-1, 1, (1, 4, 4)), requires_grad=True)
        backward(crd_loss(t_img, s, 2, 2, CFG))
        assert t_img.grad is None and s.grad is not None


class TestConfig:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda_a"):
            RelationConfig(lambda_a=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, value):
        # a NaN would make crd_loss NaN, and the Trainer's lambda_a > 0 drop the angle term
        with pytest.raises(ValueError, match=f"^lambda_a must be finite and >= 0, got {value}$"):
            RelationConfig(lambda_a=value)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="triplet_budget"):
            RelationConfig(triplet_budget=0)
