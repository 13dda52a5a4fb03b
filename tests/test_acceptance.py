"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with plain ``pytest``; criteria 7 and 10 train at desk scale and take
several minutes combined on one CPU core.
"""

import time

import numpy as np
import pytest

from crdgan.autodiff import Tensor, backward, finite_diff_grad, max_rel_error
from crdgan.config import TrainConfig
from crdgan.datasets import SyntheticTask, generate_dataset
from crdgan.metrics import (
    GaussianStats, fit_gaussian, frechet_distance, sqrtm_psd,
)
from crdgan.models import (
    DiscriminatorSpec, GeneratorSpec, build_discriminator, build_generator,
    generator_adv_loss,
)
from crdgan.perceptual import FeatureExtractor, gram, perceptual_loss
from crdgan.relations import (
    RelationConfig, crd_angle_loss, crd_distance_loss, crd_loss,
    pairwise_distances, rkd_angle_loss, rkd_distance_loss,
)
from crdgan.slicing import split_columns, split_patches, split_rows
from crdgan.training import Trainer, train

from test_relations import (
    oracle_crd, oracle_mu, oracle_phi_a, oracle_phi_d_table, oracle_rkd_a,
    oracle_rkd_d, oracle_slice,
)

REL = RelationConfig(seed=0)


@pytest.fixture
def announce(capsys):
    def _p(line):
        with capsys.disabled():
            print(line)
    return _p


def _timed(limit_s):
    start = time.perf_counter()

    def done():
        elapsed = time.perf_counter() - start
        assert elapsed < limit_s, f"runtime {elapsed:.1f}s exceeds {limit_s}s budget"
        return elapsed

    return done


def test_criterion_01_zero_at_self(announce):
    done = _timed(5.0)
    rng = np.random.default_rng(100)
    img = Tensor(rng.uniform(-1, 1, (1, 8, 8)))
    assert crd_distance_loss(img, img, 4, 4, REL).item() <= 1e-8
    assert crd_angle_loss(img, img, 4, 4, REL).item() <= 1e-8
    assert crd_loss(img, img, 4, 4, REL).item() <= 1e-8

    items = rng.normal(size=(6, 5))
    assert rkd_distance_loss(items, items, REL).item() <= 1e-8
    assert rkd_angle_loss(items, items, REL).item() <= 1e-8

    extr = FeatureExtractor.fixed_random(3)
    x = Tensor(rng.uniform(-1, 1, (3, 16, 16)))
    assert perceptual_loss(x, x, extr).item() <= 1e-8

    stats = fit_gaussian(rng.normal(size=(40, 4)))
    assert frechet_distance(stats, stats) <= 1e-8
    elapsed = done()
    announce(f"ACCEPTANCE 01 zero-at-self: PASS ({elapsed:.2f}s)")


def test_criterion_02_invariances(announce):
    done = _timed(10.0)
    rng = np.random.default_rng(200)
    items = rng.normal(size=(6, 7))
    for alpha in (0.5, 2.0, 10.0):
        assert rkd_distance_loss(items, alpha * items, REL).item() <= 1e-8

    for trial in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        scale = float(rng.uniform(0.1, 5.0))
        shift = rng.normal(size=(1, 7))
        moved = scale * (items @ q.T) + shift
        assert rkd_angle_loss(items, moved, REL).item() <= 1e-8
    elapsed = done()
    announce(f"ACCEPTANCE 02 invariance suite: PASS ({elapsed:.2f}s)")


def test_criterion_03_oracle_equivalence(announce):
    done = _timed(30.0)
    rng = np.random.default_rng(300)

    for trial in range(5):
        n_items = int(rng.integers(3, 7))
        dim = int(rng.integers(2, 6))
        t = rng.normal(size=(n_items, dim))
        s = rng.normal(size=(n_items, dim))
        got_d = rkd_distance_loss(t, s, REL).item()
        got_a = rkd_angle_loss(t, s, REL).item()
        assert abs(got_d - oracle_rkd_d(t, s)) <= 1e-8 * max(1.0, abs(got_d))
        assert abs(got_a - oracle_rkd_a(t, s)) <= 1e-8 * max(1.0, abs(got_a))

        # pairwise distances and mu against the double loop
        structure = pairwise_distances(t)
        ds, mu = oracle_mu(t)
        assert abs(structure.mu.item() - mu) <= 1e-10
        k = 0
        for i in range(n_items):
            for j in range(i + 1, n_items):
                assert abs(structure.distances[i, j] - ds[k]) <= 1e-10
                k += 1

    for trial in range(3):
        t_img = rng.uniform(-1, 1, (1, 4, 4))
        s_img = rng.uniform(-1, 1, (1, 4, 4))
        got = crd_distance_loss(Tensor(t_img), Tensor(s_img), 2, 2, REL).item()
        want = oracle_crd(t_img, s_img, 2, 2, False)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))
        got = crd_angle_loss(Tensor(t_img), Tensor(s_img), 2, 2, REL).item()
        want = oracle_crd(t_img, s_img, 2, 2, True)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    act = rng.normal(size=(3, 2, 2))
    got = gram(Tensor(act)).data
    c, h, w = act.shape
    want = np.zeros((c, c))
    for i in range(c):
        for j in range(c):
            want[i, j] = sum(act[i, y, x] * act[j, y, x]
                             for y in range(h) for x in range(w)) / (c * h * w)
    assert np.abs(got - want).max() <= 1e-10
    elapsed = done()
    announce(f"ACCEPTANCE 03 oracle equivalence: PASS ({elapsed:.2f}s)")


def _assert_away_from_huber_kinks(t_img, s_img, n, m):
    """Gradcheck precondition: no Huber term near its branch point."""
    for angle in (False, True):
        for g in ("column", "row", "patch"):
            t_items = oracle_slice(t_img, g, n, m)
            s_items = oracle_slice(s_img, g, n, m)
            if angle:
                count = len(t_items)
                for i in range(count):
                    for j in range(i + 1, count):
                        for k in range(j + 1, count):
                            d = oracle_phi_a(t_items[i], t_items[j], t_items[k]) \
                                - oracle_phi_a(s_items[i], s_items[j], s_items[k])
                            assert abs(abs(d) - 1.0) > 1e-3
            else:
                pt = oracle_phi_d_table(t_items)
                ps = oracle_phi_d_table(s_items)
                for key in pt:
                    assert abs(abs(pt[key] - ps[key]) - 1.0) > 1e-3


def test_criterion_04_gradient_suite(announce):
    done = _timed(120.0)
    rng = np.random.default_rng(400)   # seed chosen so no term sits near a kink
    t_np = rng.uniform(-1, 1, (1, 8, 8))
    s_np = rng.uniform(-1, 1, (1, 8, 8))
    _assert_away_from_huber_kinks(t_np, s_np, 4, 4)
    t_img = Tensor(t_np)

    def check(f):
        s = Tensor(s_np, requires_grad=True)
        backward(f(s))
        numeric = finite_diff_grad(f, s, 1e-6).data
        err = max_rel_error(s.grad, numeric)
        assert err <= 1e-4, f"gradient error {err:.2e}"
        return err

    check(lambda x: crd_loss(t_img, x, 4, 4, REL))

    extractor = FeatureExtractor.fixed_random(9, in_channels=1)
    check(lambda x: perceptual_loss(t_img, x, extractor))

    disc = build_discriminator(DiscriminatorSpec(num_layers=2, base_width=8,
                                                 in_channels=1), 7, dtype=np.float64)
    for mode in ("vanilla", "least_squares"):
        check(lambda x: generator_adv_loss(disc(x, frozen=True), mode))

    lambda_crd, lambda_per, lambda_a = 2.5, 1.0, REL.lambda_a

    def composite(x):
        adv = generator_adv_loss(disc(x, frozen=True), "least_squares")
        content = crd_distance_loss(t_img, x, 4, 4, REL) \
            + lambda_a * crd_angle_loss(t_img, x, 4, 4, REL)
        return adv + lambda_crd * content + lambda_per * perceptual_loss(t_img, x, extractor)

    check(composite)
    elapsed = done()
    announce(f"ACCEPTANCE 04 gradient suite: PASS ({elapsed:.1f}s)")


def test_criterion_05_counting(announce):
    done = _timed(1.0)
    img = Tensor(np.zeros((3, 256, 256), dtype=np.float32))
    assert len(split_patches(img, 32, 32)) == 64
    assert len(split_patches(img, 16, 16)) == 256
    assert len(split_columns(img)) == 256
    assert len(split_rows(img)) == 256
    elapsed = done()
    announce(f"ACCEPTANCE 05 counting: PASS ({elapsed:.2f}s)")


def _freezing_trainer(mode):
    cfg = TrainConfig(epochs=1, batch_size=1, lambda_crd=2.5, lambda_per=1.0,
                      relation=RelationConfig(triplet_budget=64), patch=(4, 4),
                      teacher_eval_interval=1, seed=60, image_size=16,
                      base_width=8, num_res_blocks=1, disc_layers=2,
                      disc_base_width=8, train_count=4, val_count=2,
                      discriminator_mode=mode)
    ds = generate_dataset(SyntheticTask("invert", 16, 4, 2, 60))
    return Trainer(cfg, ds), (ds.train_inputs[:1], ds.train_targets[:1])


def test_criterion_06_freezing_contract(announce):
    done = _timed(30.0)

    tr, batch = _freezing_trainer("online_updating_freezing")
    tr.train_step_teacher(batch, 0)
    frozen = [p.data.tobytes() for p in tr.state.generator.parameters()
              + tr.state.discriminator.parameters()]
    tr.train_step_student(batch, 0)
    for before, p in zip(frozen, tr.state.generator.parameters()
                         + tr.state.discriminator.parameters()):
        assert p.data.tobytes() == before
        assert p.grad is None or not p.grad.any()

    tr, batch = _freezing_trainer("online_always_updating")
    d_before = tr.state.discriminator.param_arrays()
    tr.train_step_student(batch, 0)
    assert any(not np.array_equal(a, p.data)
               for a, p in zip(d_before, tr.state.discriminator.parameters()))

    tr, batch = _freezing_trainer("online_no_discriminator")
    parts = tr.train_step_student(batch, 0)
    assert parts["adv_loss_S"] == 0.0
    combined = tr.cfg.lambda_crd * (parts["crd_d"]
                                    + tr.cfg.relation.lambda_a * parts["crd_a"]) \
        + tr.cfg.lambda_per * parts["per_loss"]
    assert abs(parts["total_S"] - combined) <= 1e-6 * max(1.0, abs(parts["total_S"]))
    elapsed = done()
    announce(f"ACCEPTANCE 06 freezing contract: PASS ({elapsed:.1f}s)")


def _headline_config(lambda_crd, lambda_per, seed):
    # 2000 steps: 100 train images x 20 epochs, batch 1
    return TrainConfig(
        epochs=20, lr0=2e-4, batch_size=1,
        lambda_crd=lambda_crd, lambda_per=lambda_per,
        relation=RelationConfig(lambda_a=2.0, triplet_budget=512, seed=seed),
        patch=(8, 8), teacher_eval_interval=50, gan_mode="least_squares",
        seed=seed, image_size=32, base_width=16, num_res_blocks=2,
        disc_layers=3, disc_base_width=16, train_count=100, val_count=8)


@pytest.mark.slow
def test_criterion_07_desk_scale_headline(announce, tmp_path):
    done = _timed(900.0)
    seeds = (101, 102, 103)
    crd_scores, base_scores = [], []
    for seed in seeds:
        ds = generate_dataset(SyntheticTask("invert", 32, 100, 8, seed))
        crd_report = train(_headline_config(25.0, 1.0, seed), ds,
                           tmp_path / f"crd_{seed}")
        base_report = train(_headline_config(0.0, 0.0, seed), ds,
                            tmp_path / f"base_{seed}")
        crd_scores.append(crd_report["student_val_metric"])
        base_scores.append(base_report["student_val_metric"])
        announce(f"  seed {seed}: crd={crd_scores[-1]:.4f} "
                 f"baseline={base_scores[-1]:.4f}")
    crd_mean = float(np.mean(crd_scores))
    base_mean = float(np.mean(base_scores))
    improvement = (base_mean - crd_mean) / base_mean
    assert improvement >= 0.05, (
        f"CRD student val L2 {crd_mean:.4f} not 5% below baseline {base_mean:.4f}")
    elapsed = done()
    announce(f"ACCEPTANCE 07 desk-scale headline: PASS "
             f"({improvement * 100:.1f}% improvement, {elapsed:.0f}s)")


def test_criterion_08_width_economics(announce):
    done = _timed(1.0)
    teacher = build_generator(GeneratorSpec(base_width=32, width_factor=1.0), 0)
    student = build_generator(GeneratorSpec(base_width=32, width_factor=0.25), 0)
    ratio = student.parameter_count() / (teacher.parameter_count() / 16.0)
    assert abs(ratio - 1.0) <= 0.10
    elapsed = done()
    macs = teacher.mac_count(32, 32) / student.mac_count(32, 32)
    announce(f"ACCEPTANCE 08 width economics: PASS "
             f"(student/teacher = 1/{teacher.parameter_count() / student.parameter_count():.2f} "
             f"parameters, 1/{macs:.2f} MACs at 32x32, {elapsed:.2f}s)")


def test_criterion_09_frechet_checks(announce):
    done = _timed(1.0)
    rng = np.random.default_rng(900)
    stats = fit_gaussian(rng.normal(size=(50, 3)))
    assert frechet_distance(stats, stats) <= 1e-8

    a = GaussianStats(np.array([0.0]), np.array([[1.0]]), 100)
    b = GaussianStats(np.array([1.0]), np.array([[1.0]]), 100)
    assert abs(frechet_distance(a, b) - 1.0) <= 1e-8

    m = rng.normal(size=(5, 5))
    psd = m @ m.T
    root = sqrtm_psd(psd)
    assert np.abs(root @ root - psd).max() <= 1e-8
    elapsed = done()
    announce(f"ACCEPTANCE 09 Frechet checks: PASS ({elapsed:.2f}s)")


def test_criterion_10_determinism(announce, tmp_path):
    done = _timed(300.0)
    cfg = TrainConfig(epochs=2, batch_size=1, lambda_crd=2.5, lambda_per=1.0,
                      relation=RelationConfig(triplet_budget=64), patch=(4, 4),
                      teacher_eval_interval=4, seed=77, image_size=16,
                      base_width=8, num_res_blocks=1, disc_layers=2,
                      disc_base_width=8, train_count=16, val_count=4)
    ds = generate_dataset(SyntheticTask("invert", 16, 16, 4, 77))
    train(cfg, ds, tmp_path / "a")
    train(cfg, generate_dataset(SyntheticTask("invert", 16, 16, 4, 77)), tmp_path / "b")
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b
    assert len(a.splitlines()) == 1 + 32
    elapsed = done()
    announce(f"ACCEPTANCE 10 determinism: PASS ({elapsed:.1f}s)")
