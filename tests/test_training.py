"""Training protocol: schedule, freezing contract, snapshots, determinism."""

import math

import numpy as np
import pytest

from crdgan import autodiff, models, perceptual, relations, training
from crdgan.autodiff import Tensor, backward
from crdgan.config import TrainConfig
from crdgan.datasets import SyntheticTask, generate_dataset
from crdgan.metrics import frechet_between, pixel_error
from crdgan.models import ResnetGenerator, discriminator_loss, generator_adv_loss
from crdgan.relations import RelationConfig
from crdgan.training import (
    Trainer, build_models, lr_at, make_frechet_metric, paired_l2_metric, train,
)


def tiny_config(**overrides) -> TrainConfig:
    base = dict(epochs=1, lr0=2e-4, batch_size=1, lambda_crd=2.5, lambda_per=1.0,
                relation=RelationConfig(triplet_budget=64),
                patch=(4, 4), teacher_eval_interval=2, seed=3,
                image_size=16, base_width=8, num_res_blocks=1,
                disc_layers=2, disc_base_width=8, train_count=4, val_count=2)
    base.update(overrides)
    return TrainConfig(**base)


def tiny_dataset(cfg, kind="invert"):
    return generate_dataset(SyntheticTask(kind, cfg.image_size, cfg.train_count,
                                          cfg.val_count, cfg.seed))


def first_batch(ds):
    if ds.paired:
        return ds.train_inputs[:1], ds.train_targets[:1]
    return ds.train_a[:1], ds.train_b[:1]


class TestLrSchedule:
    def test_initial_value(self):
        cfg = tiny_config(epochs=100, lr0=2e-4)
        assert lr_at(0, cfg) == 2e-4

    def test_constant_through_first_half(self):
        cfg = tiny_config(epochs=100)
        assert lr_at(49, cfg) == cfg.lr0

    def test_linear_interpolation_at_three_quarters(self):
        cfg = tiny_config(epochs=100, lr0=2e-4)
        assert lr_at(75, cfg) == pytest.approx(1e-4)

    def test_reaches_zero_at_the_end(self):
        cfg = tiny_config(epochs=100, lr0=2e-4)
        assert lr_at(cfg.epochs, cfg) <= 1e-8 * cfg.lr0
        assert lr_at(cfg.epochs - 1, cfg) <= cfg.lr0 / (cfg.epochs / 2)

    def test_non_increasing(self):
        cfg = tiny_config(epochs=20)
        values = [lr_at(e / 2.0, cfg) for e in range(41)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        cfg = tiny_config(epochs=10)
        with pytest.raises(ValueError, match="outside"):
            lr_at(-1, cfg)
        with pytest.raises(ValueError, match="outside"):
            lr_at(11, cfg)


class TestTeacherStep:
    def test_parameters_change(self):
        cfg = tiny_config()
        tr = Trainer(cfg, tiny_dataset(cfg))
        before = tr.state.generator.param_arrays()
        d_before = tr.state.discriminator.param_arrays()
        tr.train_step_teacher(first_batch(tr.dataset))
        assert any(not np.array_equal(a, p.data) for a, p in
                   zip(before, tr.state.generator.parameters()))
        assert any(not np.array_equal(a, p.data) for a, p in
                   zip(d_before, tr.state.discriminator.parameters()))

    def test_zero_lr_is_a_null_update(self):
        cfg = tiny_config()
        tr = Trainer(cfg, tiny_dataset(cfg))
        tr.set_lr(0.0)
        before = tr.state.generator.param_arrays() + tr.state.discriminator.param_arrays()
        tr.train_step_teacher(first_batch(tr.dataset))
        after = [p.data for p in tr.state.generator.parameters()] \
            + [p.data for p in tr.state.discriminator.parameters()]
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_reconstruction_improves_over_200_steps(self):
        cfg = tiny_config(epochs=50, train_count=4)
        ds = tiny_dataset(cfg)
        tr = Trainer(cfg, ds)
        batch = first_batch(ds)
        x, y = batch
        start = pixel_error(tr.teacher_generate(x[0]), y[0], "L2")
        for step in range(200):
            tr.train_step_teacher(batch, step)
        end = pixel_error(tr.teacher_generate(x[0]), y[0], "L2")
        assert end < start


class TestFiniteCheck:
    def test_nan_loss_names_the_phase_step_and_term(self):
        cfg = tiny_config()
        tr = Trainer(cfg, tiny_dataset(cfg))
        x, y = first_batch(tr.dataset)
        bad = (np.full_like(x, np.nan), y)
        with pytest.raises(FloatingPointError, match=r"non-finite d_loss_T=nan in the "
                                                     r"teacher phase at step 7"):
            tr.train_step_teacher(bad, 7)
        with pytest.raises(FloatingPointError, match=r"non-finite adv_loss_S=nan in the "
                                                     r"student phase at step 9"):
            tr.train_step_student(bad, 9)


class TestStudentStep:
    def test_freezing_contract_byte_identical(self):
        cfg = tiny_config()
        tr = Trainer(cfg, tiny_dataset(cfg))
        batch = first_batch(tr.dataset)
        tr.train_step_teacher(batch, 0)
        t_bytes = [p.data.tobytes() for p in tr.state.generator.parameters()]
        d_bytes = [p.data.tobytes() for p in tr.state.discriminator.parameters()]
        s_before = tr.student.param_arrays()
        tr.train_step_student(batch, 0)
        for b, p in zip(t_bytes, tr.state.generator.parameters()):
            assert p.data.tobytes() == b
            assert p.grad is None or not p.grad.any()
        for b, p in zip(d_bytes, tr.state.discriminator.parameters()):
            assert p.data.tobytes() == b
            assert p.grad is None or not p.grad.any()
        assert any(not np.array_equal(a, p.data) for a, p in
                   zip(s_before, tr.student.parameters()))

    def test_always_updating_changes_discriminator(self):
        cfg = tiny_config(discriminator_mode="online_always_updating")
        tr = Trainer(cfg, tiny_dataset(cfg))
        batch = first_batch(tr.dataset)
        d_before = tr.state.discriminator.param_arrays()
        tr.train_step_student(batch, 0)
        assert any(not np.array_equal(a, p.data) for a, p in
                   zip(d_before, tr.state.discriminator.parameters()))

    def test_always_updating_runs_one_student_forward(self, monkeypatch):
        cfg = tiny_config(discriminator_mode="online_always_updating")
        ref, tr = Trainer(cfg, tiny_dataset(cfg)), Trainer(cfg, tiny_dataset(cfg))
        batch = first_batch(tr.dataset)
        # the reference runs a second student forward for the loss, as the
        # discriminator update and the student loss once did separately
        disc = ref.state.discriminator
        fake = ref.student(Tensor(batch[0]))
        ref.opt_disc.zero_grad()
        backward(discriminator_loss(disc(Tensor(batch[1])), disc(fake.detach()), cfg.gan_mode))
        ref.opt_disc.step()
        total, want = ref.student_losses(batch, 0)
        ref.opt_student.zero_grad()
        backward(total)
        ref.opt_student.step()

        callers = []
        forward = ResnetGenerator.__call__

        def traced(self, x, frozen=False):
            callers.append(self)
            return forward(self, x, frozen)

        monkeypatch.setattr(ResnetGenerator, "__call__", traced)
        parts = tr.train_step_student(batch, 0)
        assert callers.count(tr.student) == 1
        assert parts == want
        for net in ("student_generator", "teacher_discriminator"):
            for a, b in zip(ref.modules()[net].parameters(), tr.modules()[net].parameters()):
                assert a.data.tobytes() == b.data.tobytes()

    def test_no_discriminator_mode_has_no_adv_term(self):
        cfg = tiny_config(discriminator_mode="online_no_discriminator")
        tr = Trainer(cfg, tiny_dataset(cfg))
        parts = tr.train_step_student(first_batch(tr.dataset), 0)
        assert parts["adv_loss_S"] == 0.0
        combined = cfg.lambda_crd * (parts["crd_d"]
                                     + cfg.relation.lambda_a * parts["crd_a"]) \
            + cfg.lambda_per * parts["per_loss"]
        assert parts["total_S"] == pytest.approx(combined, rel=1e-5)

    def test_degenerate_weights_without_discriminator_is_a_noop(self):
        cfg = tiny_config(lambda_crd=0.0, lambda_per=0.0,
                          discriminator_mode="online_no_discriminator")
        tr = Trainer(cfg, tiny_dataset(cfg))
        before = tr.student.param_arrays()
        parts = tr.train_step_student(first_batch(tr.dataset), 0)
        assert parts["total_S"] == 0.0
        for a, p in zip(before, tr.student.parameters()):
            assert np.array_equal(a, p.data)

    @pytest.mark.parametrize("live", [False, True])
    def test_zero_weights_skip_the_distillation_target(self, monkeypatch, live):
        cfg = tiny_config(lambda_crd=0.0, lambda_per=0.0, distill_from_live=live)
        tr = Trainer(cfg, tiny_dataset(cfg))
        batch = first_batch(tr.dataset)
        adv = generator_adv_loss(tr.state.discriminator(tr.student(Tensor(batch[0])),
                                                        frozen=True), cfg.gan_mode).item()
        callers = []
        forward = ResnetGenerator.__call__

        def traced(self, x, frozen=False):
            callers.append(self)
            return forward(self, x, frozen)

        monkeypatch.setattr(ResnetGenerator, "__call__", traced)
        parts = tr.train_step_student(batch, 0)
        assert callers == [tr.student]
        assert parts == {"adv_loss_S": adv, "crd_d": 0.0, "crd_a": 0.0, "per_loss": 0.0,
                         "total_S": adv}

    def test_loss_composition(self):
        # float64 so the composition identity holds to tight absolute tolerance
        cfg = tiny_config()
        tr = Trainer(cfg, tiny_dataset(cfg), dtype=np.float64)
        total, parts = tr.student_losses(first_batch(tr.dataset), 0)
        combined = parts["adv_loss_S"] \
            + cfg.lambda_crd * (parts["crd_d"] + cfg.relation.lambda_a * parts["crd_a"]) \
            + cfg.lambda_per * parts["per_loss"]
        assert abs(total.item() - combined) <= 1e-6

    def test_student_param_gradients_match_finite_differences(self):
        cfg = tiny_config(image_size=8, patch=(4, 4), val_count=2,
                          relation=RelationConfig(triplet_budget=16))
        tr = Trainer(cfg, tiny_dataset(cfg), dtype=np.float64)
        batch = first_batch(tr.dataset)

        total, _ = tr.student_losses(batch, 0)
        backward(total)
        params = tr.student.parameters()
        rng = np.random.default_rng(0)
        eps = 1e-6
        checked = 0
        for p in (params[0], params[3], params[-1]):
            grad = p.grad.reshape(-1)
            flat = p.data.reshape(-1)
            for idx in rng.choice(flat.size, size=min(5, flat.size), replace=False):
                old = flat[idx]
                flat[idx] = old + eps
                up, _ = tr.student_losses(batch, 0)
                flat[idx] = old - eps
                down, _ = tr.student_losses(batch, 0)
                flat[idx] = old
                numeric = (up.item() - down.item()) / (2 * eps)
                denom = max(abs(grad[idx]), abs(numeric), 1e-3)
                assert abs(grad[idx] - numeric) / denom <= 1e-4
                checked += 1
        assert checked >= 10


class TestSnapshot:
    def test_initial_snapshot_is_an_unshared_copy_of_the_teacher_init(self):
        cfg = tiny_config()
        nets = build_models(cfg)
        teacher, snapshot = nets["teacher_generator"], nets["best_snapshot"]
        gen_spec = models.GeneratorSpec(base_width=cfg.base_width,
                                        num_res_blocks=cfg.num_res_blocks)
        drawn = models.build_generator(gen_spec, training.run_seeds(cfg.seed)[0])
        assert snapshot.flat.tobytes() == drawn.flat.tobytes()
        assert snapshot.flat_grad is None
        for arr in [teacher.flat, *(p.data for p in teacher.parameters())]:
            assert not np.shares_memory(snapshot.flat, arr)
        for p in snapshot.parameters():
            assert np.shares_memory(p.data, snapshot.flat)

        before = snapshot.flat.tobytes()
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 16, 16)).astype(np.float32))
        backward(autodiff.tmean(teacher(x)))
        models.Adam(teacher.parameters(), cfg.lr0).step()
        assert teacher.flat.tobytes() != drawn.flat.tobytes()
        assert snapshot.flat.tobytes() == before

    def test_first_evaluation_always_replaces(self):
        cfg = tiny_config(teacher_eval_interval=1)
        tr = Trainer(cfg, tiny_dataset(cfg))
        assert tr.state.best_score == math.inf
        val = (tr.dataset.val_inputs, tr.dataset.val_targets)
        assert tr.maybe_update_snapshot(val, paired_l2_metric, step=0) is True
        assert tr.state.best_score < math.inf

    def test_worse_evaluation_keeps_snapshot(self):
        cfg = tiny_config(teacher_eval_interval=1)
        tr = Trainer(cfg, tiny_dataset(cfg))
        val = (tr.dataset.val_inputs, tr.dataset.val_targets)
        scores = iter([5.0, 7.0])
        metric = lambda gen, vs: next(scores)
        assert tr.maybe_update_snapshot(val, metric, 0) is True
        snap = tr.state.best_generator.param_arrays()
        tr.train_step_teacher(first_batch(tr.dataset), 0)
        assert tr.maybe_update_snapshot(val, metric, 1) is False
        assert tr.state.best_score == 5.0
        for a, p in zip(snap, tr.state.best_generator.parameters()):
            assert np.array_equal(a, p.data)

    def test_scripted_sequence_replaces_at_steps_0_and_2(self):
        cfg = tiny_config(teacher_eval_interval=1)
        tr = Trainer(cfg, tiny_dataset(cfg))
        val = (tr.dataset.val_inputs, tr.dataset.val_targets)
        scores = iter([5.0, 7.0, 3.0])
        metric = lambda gen, vs: next(scores)
        replaced = [tr.maybe_update_snapshot(val, metric, step) for step in range(3)]
        assert replaced == [True, False, True]
        assert tr.state.best_score == 3.0

    def test_interval_gates_evaluation(self):
        cfg = tiny_config(teacher_eval_interval=5)
        tr = Trainer(cfg, tiny_dataset(cfg))
        val = (tr.dataset.val_inputs, tr.dataset.val_targets)
        calls = []
        metric = lambda gen, vs: calls.append(1) or 1.0
        for step in range(10):
            tr.maybe_update_snapshot(val, metric, step)
        assert len(calls) == 2     # steps 0 and 5

    def test_returns_none_on_a_step_it_does_not_evaluate(self):
        cfg = tiny_config(teacher_eval_interval=2)
        tr = Trainer(cfg, tiny_dataset(cfg))
        val = (tr.dataset.val_inputs, tr.dataset.val_targets)
        scores = iter([5.0, 7.0])
        metric = lambda gen, vs: next(scores)
        replaced = [tr.maybe_update_snapshot(val, metric, step) for step in range(4)]
        assert replaced == [True, None, False, None]

    @pytest.mark.parametrize("kind", ["invert", "shapes"])
    def test_scoring_runs_the_generator_in_batch_size_chunks(self, monkeypatch, kind):
        cfg = tiny_config(batch_size=2, val_count=5, teacher_eval_interval=1)
        ds = tiny_dataset(cfg, kind)
        tr = Trainer(cfg, ds)
        if ds.paired:
            val, metric = (ds.val_inputs, ds.val_targets), paired_l2_metric
        else:
            val, metric = (ds.val_a, ds.val_b), make_frechet_metric(tr.extractor)
        sizes = []
        forward = ResnetGenerator.__call__

        def traced(self, x, frozen=False):
            sizes.append(x.shape[0] if x.ndim == 4 else 1)
            return forward(self, x, frozen)

        monkeypatch.setattr(ResnetGenerator, "__call__", traced)
        tr.maybe_update_snapshot(val, metric, 0)
        assert sizes == [2, 2, 1]
        # one image at a time scores the same up to summation order
        monkeypatch.setattr(ResnetGenerator, "__call__", forward)
        want = metric(lambda xs: np.stack([tr.teacher_generate(x) for x in xs]), val)
        assert tr.state.best_score == pytest.approx(want, rel=1e-5)

    def test_frechet_metric_fits_each_pool_content_once(self, monkeypatch):
        cfg = tiny_config(val_count=4)
        ds = tiny_dataset(cfg, "shapes")
        extractor = perceptual.FeatureExtractor.fixed_random(cfg.extractor_seed, dtype=np.float32)
        metric = make_frechet_metric(extractor)
        fits = []
        fit = training.pool_stats
        monkeypatch.setattr(training, "pool_stats",
                            lambda images, ext: fits.append(len(images)) or fit(images, ext))
        generate = lambda xs: 0.5 * xs[::-1]
        pool = ds.val_b.copy()
        first = metric(generate, (ds.val_a, pool))
        for _ in range(2):
            assert metric(generate, (ds.val_a, pool)) == first
        assert first == frechet_between(generate(ds.val_a), pool, extractor)
        assert len(fits) == 4                  # the pool once, the outputs on every call
        # the same array with new content is refitted, never served the stale fit
        pool[0] = -pool[0]
        second = metric(generate, (ds.val_a, pool))
        assert second == frechet_between(generate(ds.val_a), pool, extractor)
        assert second != first
        assert len(fits) == 6

    def test_empty_val_set_rejected(self):
        cfg = tiny_config(teacher_eval_interval=1)
        tr = Trainer(cfg, tiny_dataset(cfg))
        with pytest.raises(ValueError, match="empty"):
            tr.maybe_update_snapshot((np.zeros((0, 3, 16, 16)), None),
                                     paired_l2_metric, 0)


    def test_snapshot_and_pretraining_keep_every_parameter_a_flat_view(self):
        from crdgan.training import _pretrain_discriminator
        cfg = tiny_config(teacher_eval_interval=1, discriminator_mode="pretrained_updating")
        ds = tiny_dataset(cfg)
        tr = Trainer(cfg, ds)
        _pretrain_discriminator(tr, ds)
        tr.train_step_teacher(first_batch(ds), 0)
        tr.train_step_student(first_batch(ds), 0)
        assert tr.maybe_update_snapshot((ds.val_inputs, ds.val_targets), paired_l2_metric, 0)
        assert tr.state.best_generator.flat.tobytes() == tr.state.generator.flat.tobytes()
        for role, module in tr.modules().items():
            assert all(p.data.base is module.flat for p in module.parameters()), role


def _snapshot_forwards(monkeypatch, trainer) -> list:
    """Record the batch size of every forward of trainer's best snapshot."""
    sizes = []
    forward = ResnetGenerator.__call__

    def traced(self, x, frozen=False):
        if self is trainer.state.best_generator:
            sizes.append(x.shape[0])
        return forward(self, x, frozen)

    monkeypatch.setattr(ResnetGenerator, "__call__", traced)
    return sizes


def _perceptual_targets(monkeypatch) -> list:
    """Record the target array of every perceptual_loss call the trainer makes."""
    targets = []
    real = training.perceptual_loss

    def recording(t_out, s_out, extractor):
        targets.append(t_out.data.copy())
        return real(t_out, s_out, extractor)

    monkeypatch.setattr(training, "perceptual_loss", recording)
    return targets


class TestTargetCache:
    def test_cached_target_equals_a_fresh_batch_of_one_forward(self, monkeypatch):
        cfg = tiny_config(batch_size=2)
        tr = Trainer(cfg, tiny_dataset(cfg))
        x = tr.dataset.train_inputs[:2]
        sizes = _snapshot_forwards(monkeypatch, tr)
        first = tr._distill_target(x).data
        assert sizes == [1, 1] and len(tr.state.targets) == 2
        again = tr._distill_target(x).data
        assert sizes == [1, 1]              # the second call is all hits
        for i in range(2):
            fresh = tr.state.best_generator(Tensor(x[i:i + 1]), frozen=True).data
            assert first[i].tobytes() == fresh[0].tobytes()
            assert again[i].tobytes() == fresh[0].tobytes()

    def test_target_does_not_depend_on_batch_mates(self):
        cfg = tiny_config(batch_size=2)
        tr = Trainer(cfg, tiny_dataset(cfg))
        a, b, c = tr.dataset.train_inputs[:3]
        rows = []
        for batch, row in ((np.stack([a, b]), 0), (np.stack([c, a]), 1), (a[None], 0)):
            tr.state.targets.clear()
            rows.append(tr._distill_target(batch).data[row].tobytes())
        assert rows[0] == rows[1] == rows[2]

    def test_first_student_step_after_replacement_reads_the_new_snapshot(self, monkeypatch):
        cfg = tiny_config(teacher_eval_interval=1)
        tr = Trainer(cfg, tiny_dataset(cfg))
        val = (tr.dataset.val_inputs, tr.dataset.val_targets)
        scores = iter([5.0, 3.0])
        metric = lambda gen, vs: next(scores)
        batch = first_batch(tr.dataset)
        targets = _perceptual_targets(monkeypatch)
        assert tr.maybe_update_snapshot(val, metric, 0)
        tr.train_step_student(batch, 0)
        tr.train_step_teacher(batch, 1)
        assert tr.maybe_update_snapshot(val, metric, 1)
        tr.train_step_student(batch, 1)
        new = tr.state.best_generator(Tensor(batch[0]), frozen=True).data
        assert targets[0].tobytes() != new.tobytes()
        assert targets[1].tobytes() == new.tobytes()

    def test_live_target_never_fills_the_map(self, monkeypatch):
        cfg = tiny_config(distill_from_live=True, teacher_eval_interval=1)
        ds = tiny_dataset(cfg)
        tr = Trainer(cfg, ds)
        sizes = _snapshot_forwards(monkeypatch, tr)
        val = (ds.val_inputs, ds.val_targets)
        for step in range(3):
            batch = (ds.train_inputs[step:step + 1], ds.train_targets[step:step + 1])
            tr.train_step_teacher(batch, step)
            tr.train_step_student(batch, step)
            tr.maybe_update_snapshot(val, paired_l2_metric, step)
            assert tr.state.targets == {}
        assert sizes == []

    def test_map_holds_at_most_the_training_inputs(self):
        cfg = tiny_config(batch_size=3)
        tr = Trainer(cfg, tiny_dataset(cfg))
        rng = np.random.default_rng(4)
        images = rng.uniform(-1, 1, (10, 3, 16, 16)).astype(np.float32)
        for start in range(0, 10, 3):
            batch = images[start:start + 3]
            tr._distill_target(batch)
            assert 0 < len(tr.state.targets) <= len(tr.dataset)
            assert training.image_key(batch[-1]) in tr.state.targets

    def test_run_equals_the_run_with_the_map_emptied_every_step(self, monkeypatch):
        # 4 training images and a snapshot check every 5 steps: every snapshot
        # sees some image twice
        cfg = tiny_config(epochs=4, teacher_eval_interval=5)
        ds = tiny_dataset(cfg)
        val = (ds.val_inputs, ds.val_targets)
        runs = []
        for empty in (False, True):
            tr = Trainer(cfg, ds)
            sizes = _snapshot_forwards(monkeypatch, tr)
            rows = []
            for step, _, _, batch in training._batches(ds, cfg, tr._order_seed):
                if empty:
                    tr.state.targets.clear()
                t_losses = tr.train_step_teacher(batch, step)
                s_losses = tr.train_step_student(batch, step)
                replaced = tr.maybe_update_snapshot(val, paired_l2_metric, step)
                rows.append((t_losses, s_losses, replaced, tr.state.best_score))
            flats = [m.flat.tobytes() for m in tr.modules().values()]
            runs.append((rows, flats, len(sizes)))
        (rows_a, flats_a, forwards_a), (rows_b, flats_b, forwards_b) = runs
        assert rows_a == rows_b
        assert flats_a == flats_b
        assert sum(bool(replaced) for _, _, replaced, _ in rows_a) >= 2     # None: not evaluated
        assert forwards_a < forwards_b == len(rows_b)


class TestDtype:
    @pytest.mark.parametrize("kind, batch_size", [("invert", 1), ("shapes", 2)])
    def test_float32_step_makes_no_float64_result(self, monkeypatch, kind, batch_size):
        cfg = tiny_config(batch_size=batch_size)
        ds = tiny_dataset(cfg, kind)
        trainer = Trainer(cfg, ds)
        batch = (ds.train_inputs, ds.train_targets) if ds.paired else (ds.train_a, ds.train_b)
        batch = tuple(b[:batch_size] for b in batch)
        results = []
        real = autodiff._result

        def recording(data, op, parents, backward_fn):
            out = real(data, op, parents, backward_fn)
            results.append((op, out.dtype))
            return out

        # the network, relation and perceptual nodes call the _result they imported
        for module in (autodiff, models, relations, perceptual):
            monkeypatch.setattr(module, "_result", recording)
        per_calls = []
        real_per = training.perceptual_loss

        def per_recording(t_out, s_out, extractor):
            out = real_per(t_out, s_out, extractor)
            per_calls.append((out, s_out))
            return out

        monkeypatch.setattr(training, "perceptual_loss", per_recording)
        trainer.train_step_teacher(batch, 0)
        trainer.train_step_student(batch, 0)
        ops = {op for op, _ in results}
        assert {"generator", "discriminator", "relations", "perceptual"} <= ops
        assert [op for op, dtype in results if dtype != np.float32] == []
        (per, fake), = per_calls
        assert per.dtype == np.float32 and fake.grad.dtype == np.float32
        assert trainer.student.flat_grad.dtype == np.float32


class TestTrainLoop:
    def test_invalid_config_writes_nothing(self, tmp_path):
        cfg = tiny_config(image_size=30)
        ds = tiny_dataset(tiny_config())
        out = tmp_path / "run"
        out.mkdir()
        with pytest.raises(ValueError, match="image_size"):
            train(cfg, ds, out)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("pool, match", [("train", "fewer than batch_size 2"),
                                             ("val", "val_inputs holds 1 images")])
    def test_too_small_pool_writes_nothing(self, tmp_path, pool, match):
        # a training pool below batch_size would run 0 steps and still write a run
        cfg = tiny_config(batch_size=2)
        ds = tiny_dataset(tiny_config(train_count=1) if pool == "train"
                          else tiny_config(val_count=1))
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=match):
            train(cfg, ds, out)
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["invert", "shapes"])
    def test_images_not_of_image_size_write_nothing(self, tmp_path, kind):
        # 12x12 images under image_size 16 would fail in the first 8x8 patch split
        cfg = tiny_config(patch=(8, 8))
        ds = generate_dataset(SyntheticTask(kind, 12, cfg.train_count, cfg.val_count, cfg.seed))
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=r"shape \(4, 3, 12, 12\), but image_size 16"):
            train(cfg, ds, out)
        assert not out.exists()

    @pytest.mark.parametrize("kind, pool, count, match", [
        ("shapes", "train_b", 2, r"'train_a': 4, 'train_b': 2, .* do not line up"),
        ("invert", "train_targets", 2, r"'train_inputs': 4, 'train_targets': 2, .* do not line"),
        ("invert", "val_targets", 2, r"'val_inputs': 3, 'val_targets': 2}"),
    ])
    def test_misaligned_pools_write_nothing(self, tmp_path, kind, pool, count, match):
        # a short target pool would fail mid-epoch (or at the first snapshot)
        # after config.cfg, metrics.csv and samples/ were written
        cfg = tiny_config(val_count=3)
        ds = tiny_dataset(cfg, kind)
        setattr(ds, pool, getattr(ds, pool)[:count])
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=match):
            train(cfg, ds, out)
        assert not out.exists()

    def test_longer_unpaired_target_pool_trains(self, tmp_path):
        # an epoch draws len(train_a) targets; extra train_b images are never picked
        cfg = tiny_config(val_count=3)
        ds = tiny_dataset(cfg, "shapes")
        ds.train_a = ds.train_a[:3]
        assert train(cfg, ds, tmp_path / "run")["steps"] == 3

    @pytest.mark.parametrize("name", ["metrics.csv", "config.cfg"])
    def test_existing_run_directory_rejected(self, tmp_path, name):
        cfg = tiny_config()
        out = tmp_path / "run"
        out.mkdir()
        (out / name).write_bytes(b"an earlier run\n")
        with pytest.raises(FileExistsError, match=name):
            train(cfg, tiny_dataset(cfg), out)
        assert [p.name for p in out.iterdir()] == [name]
        assert (out / name).read_bytes() == b"an earlier run\n"

    def test_smoke_run_emits_all_artifacts(self, tmp_path):
        cfg = tiny_config()
        report = train(cfg, tiny_dataset(cfg), tmp_path / "run")
        run = tmp_path / "run"
        assert (run / "config.cfg").is_file()
        assert (run / "metrics.csv").is_file()
        assert (run / "checkpoints" / "manifest.csv").is_file()
        assert (run / "samples" / "final.ppm").is_file()
        assert report["steps"] == cfg.epochs * cfg.train_count
        header = (run / "metrics.csv").read_text().splitlines()[0]
        assert header == ("epoch,step,lr,d_loss_T,g_loss_T,adv_loss_S,crd_d,"
                          "crd_a,per_loss,total_S,val_metric,snapshot_replaced")

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        cfg = tiny_config(epochs=2)
        train(cfg, tiny_dataset(cfg), tmp_path / "a")
        train(cfg, tiny_dataset(cfg), tmp_path / "b")
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_best_score_non_increasing_over_training(self, tmp_path):
        cfg = tiny_config(epochs=3, teacher_eval_interval=2)
        ds = tiny_dataset(cfg)
        tr = Trainer(cfg, ds)
        val = (ds.val_inputs, ds.val_targets)
        bests = []
        for step in range(12):
            tr.train_step_teacher(first_batch(ds), step)
            tr.maybe_update_snapshot(val, paired_l2_metric, step)
            bests.append(tr.state.best_score)
        assert all(a >= b for a, b in zip(bests, bests[1:]))

    def test_batched_steps(self):
        cfg = tiny_config(batch_size=2)
        ds = tiny_dataset(cfg)
        tr = Trainer(cfg, ds)
        batch = (ds.train_inputs[:2], ds.train_targets[:2])
        tr.train_step_teacher(batch, 0)
        parts = tr.train_step_student(batch, 0)
        assert np.isfinite(parts["total_S"])
        # batched crd equals the mean of the per-image values
        total, batch_parts = tr.student_losses(batch, 0)
        singles = [tr.student_losses((ds.train_inputs[i:i + 1],
                                      ds.train_targets[i:i + 1]), 0)[1]["crd_d"]
                   for i in range(2)]
        assert batch_parts["crd_d"] == pytest.approx(np.mean(singles), rel=1e-4)

    def test_sample_grid_is_valid_ppm(self, tmp_path):
        from crdgan.ppm import read_ppm
        cfg = tiny_config()
        train(cfg, tiny_dataset(cfg), tmp_path / "run")
        grid = read_ppm(tmp_path / "run" / "samples" / "final.ppm")
        # rows: input / teacher / student / target; columns: min(4, val_count)
        assert grid.shape == (4 * cfg.image_size, 2 * cfg.image_size, 3)
        assert grid.dtype == np.uint8

    def test_read_ppm_rejects_a_file_that_is_not_ppm(self, tmp_path):
        from crdgan.ppm import read_ppm
        p = tmp_path / "grid.ppm"
        p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")         # text PPM, not binary P6
        with pytest.raises(ValueError, match="grid.ppm: not a binary PPM file"):
            read_ppm(p)

    def test_unpaired_task_trains_with_frechet_metric(self, tmp_path):
        cfg = tiny_config(lambda_crd=25.0)
        ds = tiny_dataset(cfg, kind="shapes")
        report = train(cfg, ds, tmp_path / "run")
        assert np.isfinite(report["teacher_best_score"])
        assert np.isfinite(report["student_val_metric"])

    @pytest.mark.parametrize("mode", ["pretrained_frozen", "pretrained_updating"])
    def test_pretrained_modes_train_end_to_end(self, tmp_path, mode):
        cfg = tiny_config(discriminator_mode=mode)
        ds = tiny_dataset(cfg)
        run = tmp_path / "run"
        assert train(cfg, ds, run)["steps"] == cfg.epochs * cfg.train_count
        for name in ("config.cfg", "metrics.csv", "checkpoints/manifest.csv",
                     "samples/final.ppm"):
            assert (run / name).is_file(), name
        saved = build_models(cfg)
        models.load_checkpoint(run / "checkpoints", saved)
        # the D that pretraining gives a fresh trainer of the same config
        fresh = Trainer(cfg, ds)
        from crdgan.training import _pretrain_discriminator
        _pretrain_discriminator(fresh, ds)
        same = saved["teacher_discriminator"].flat.tobytes() == \
            fresh.state.discriminator.flat.tobytes()
        assert same == (mode == "pretrained_frozen")   # frozen: never updated after pretraining

    def test_sample_every_writes_a_grid_at_each_sampled_epoch(self, tmp_path):
        from crdgan.ppm import read_ppm
        cfg = tiny_config(epochs=3, sample_every=2)
        train(cfg, tiny_dataset(cfg), tmp_path / "run")
        samples = tmp_path / "run" / "samples"
        # the first step of epochs 0 and 2, then the final grid
        first_of_epoch_2 = 2 * cfg.train_count // cfg.batch_size
        assert sorted(p.name for p in samples.iterdir()) == [
            "final.ppm", "step_000000.ppm", f"step_{first_of_epoch_2:06d}.ppm"]
        for path in samples.iterdir():
            grid = read_ppm(path)
            assert grid.shape == (4 * cfg.image_size, 2 * cfg.image_size, 3)
            assert grid.dtype == np.uint8

    def test_pretraining_order_seed_comes_from_derive_seed(self, monkeypatch):
        cfg = tiny_config(discriminator_mode="pretrained_frozen")
        ds = tiny_dataset(cfg)
        tr = Trainer(cfg, ds)
        derived, orders = [], []
        derive, batches = training._derive_seed, training._batches

        def spy_derive(*words):
            derived.append((words, derive(*words)))
            return derived[-1][1]

        monkeypatch.setattr(training, "_derive_seed", spy_derive)
        monkeypatch.setattr(training, "_batches",
                            lambda d, c, seed: orders.append(seed) or batches(d, c, seed))
        training._pretrain_discriminator(tr, ds)
        # one derivation from the run's batch-order seed, and pretraining's batches use it
        assert len(derived) == 1 and derived[0][0][0] == tr._order_seed
        assert orders == [derived[0][1]] and orders[0] != tr._order_seed

    def test_pretrained_modes_round_trip(self, tmp_path):
        for mode in ("pretrained_frozen", "pretrained_updating"):
            cfg = tiny_config(discriminator_mode=mode)
            ds = tiny_dataset(cfg)
            tr = Trainer(cfg, ds)
            from crdgan.training import _pretrain_discriminator
            d_init = tr.state.discriminator.param_arrays()
            _pretrain_discriminator(tr, ds)
            # pretraining moved the discriminator; the generators and optimizers stay fresh
            assert any(not np.array_equal(a, p.data) for a, p in
                       zip(d_init, tr.state.discriminator.parameters()))
            fresh = build_models(cfg)
            for role in ("teacher_generator", "student_generator", "best_snapshot"):
                for a, p in zip(fresh[role].parameters(), tr.modules()[role].parameters()):
                    assert a.data.tobytes() == p.data.tobytes(), role
            assert tr.state.best_score == math.inf
            assert [opt.t for opt in (tr.opt_teacher, tr.opt_disc, tr.opt_student)] == [0, 0, 0]
            d_after = [p.data.tobytes() for p in tr.state.discriminator.parameters()]
            tr.train_step_teacher(first_batch(ds), 0)
            changed = [p.data.tobytes() != b for p, b in
                       zip(tr.state.discriminator.parameters(), d_after)]
            if mode == "pretrained_frozen":
                assert not any(changed)
            else:
                assert any(changed)
