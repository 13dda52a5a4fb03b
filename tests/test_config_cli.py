"""Config file parsing, synthetic datasets and the command-line surface."""

import dataclasses
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import crdgan
from crdgan import config, datasets
from crdgan.cli import main
from crdgan.config import ConfigError, TrainConfig, parse_config, write_config
from crdgan.datasets import SyntheticTask, generate_dataset
from crdgan.models import ResnetGenerator, save_checkpoint
from crdgan import tensor_io, training


class TestParseConfig:
    def test_empty_file_gives_documented_defaults(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("")
        cfg = parse_config(p)
        assert cfg.lr0 == 2e-4
        assert cfg.relation.lambda_a == 2.0
        assert cfg.lambda_per == 1.0
        assert cfg.lambda_crd == 25.0
        assert cfg.epochs == 100
        assert cfg.discriminator_mode == "online_updating_freezing"

    def test_values_parse(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("lambda_crd = 25\n"
                     "epochs = 5\n"
                     "patch = 4,4\n"
                     "use_rows = false\n"
                     "triplet_budget = 0\n"
                     "gan_mode = vanilla\n")
        cfg = parse_config(p)
        assert cfg.lambda_crd == 25.0
        assert cfg.epochs == 5
        assert cfg.patch == (4, 4)
        assert cfg.relation.use_rows is False
        assert cfg.relation.triplet_budget is None     # 0 means full enumeration
        assert cfg.gan_mode == "vanilla"

    def test_negative_epochs_names_the_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("epochs = -1\n")
        with pytest.raises(ConfigError, match="epochs"):
            parse_config(p)

    def test_unknown_key_names_the_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("epochs = 3\nnonsense = 1\n")
        with pytest.raises(ConfigError, match=r"line 2.*nonsense"):
            parse_config(p)

    def test_bad_value_names_line_and_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nlr0 = fast\n")
        with pytest.raises(ConfigError, match=r"line 2.*lr0"):
            parse_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg")

    def test_round_trip(self, tmp_path):
        cfg = TrainConfig(epochs=7, lambda_crd=2.5, patch=(4, 8), seed=11)
        p = tmp_path / "rt.cfg"
        write_config(cfg, p)
        assert parse_config(p) == cfg

    def test_round_trip_every_key(self, tmp_path):
        # every field differs from its default, so a key that drops out of
        # write_config or parse_config shows as a default
        relation = config.RelationConfig(lambda_a=0.5, pair_budget=7, triplet_budget=9,
                                         use_columns=False, use_rows=False, use_patches=False,
                                         seed=13)
        cfg = TrainConfig(epochs=7, lr0=1e-3, batch_size=2, lambda_crd=2.5, lambda_per=0.5,
                          relation=relation, patch=(4, 8), teacher_eval_interval=3,
                          gan_mode="vanilla", seed=11, discriminator_mode="pretrained_frozen",
                          image_size=16, base_width=8, width_factor=0.5, num_res_blocks=1,
                          disc_layers=2, disc_base_width=4, train_count=6, val_count=3,
                          distill_from_live=True, extractor_seed=5, sample_every=2)
        defaults = TrainConfig()
        for f in dataclasses.fields(TrainConfig):
            assert getattr(cfg, f.name) != getattr(defaults, f.name), f.name
        for f in dataclasses.fields(config.RelationConfig):
            assert getattr(relation, f.name) != getattr(defaults.relation, f.name), f.name
        p = tmp_path / "rt.cfg"
        write_config(cfg, p)
        assert parse_config(p) == cfg

    def test_key_tables_name_every_field_once(self):
        # a field without a key would silently keep its default through write/parse
        train = {f.name for f in dataclasses.fields(TrainConfig)} - {"relation"}
        relation = {f.name for f in dataclasses.fields(config.RelationConfig)}
        assert set(config._CONFIG_KEYS) == train
        assert {"seed" if key == "relation_seed" else key for key in config._RELATION_KEYS} \
            == relation
        assert len(config._RELATION_KEYS) == len(relation)
        assert not set(config._CONFIG_KEYS) & set(config._RELATION_KEYS)

    @pytest.mark.parametrize("key, value", [("lr_schedule", "linear"), ("recon_weight", "10"),
                                            ("epsilon", "1e-12"),
                                            ("angle_patches_only", "false")])
    def test_removed_keys_name_the_line(self, tmp_path, key, value):
        p = tmp_path / "c.cfg"
        p.write_text(f"epochs = 3\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"^line 2: unknown key '{key}'$"):
            parse_config(p)


class TestValidate:
    @pytest.mark.parametrize("overrides, message", [
        (dict(image_size=30, patch=(5, 5)), "multiple of 4"),
        (dict(image_size=32, patch=(6, 8)), "2 whole 6x8 patches"),
        (dict(image_size=8, patch=(8, 8)), "2 whole 8x8 patches"),
        (dict(base_width=16, width_factor=0.01), "width_factor 0.01"),
        (dict(base_width=16, width_factor=-0.25), "width_factor -0.25"),
        (dict(width_factor=float("inf")), "width_factor inf"),
        (dict(seed=-1), "seed must be >= 0"),
        (dict(extractor_seed=-5), "extractor_seed must be >= 0"),
        (dict(sample_every=-1), "sample_every must be >= 0"),
        (dict(batch_size=5, train_count=4), "batch_size 5 exceeds train_count 4"),
        (dict(val_count=1), "val_count must be >= 2"),
        (dict(val_count=0), "val_count must be >= 2"),
        (dict(batch_size=0), "batch_size must be >= 1, got 0"),
        (dict(teacher_eval_interval=0), "teacher_eval_interval must be >= 1, got 0"),
        (dict(lr0=-1e-4), "lr0 must be >= 0, got -0.0001"),
        (dict(lambda_crd=-1.0), "lambda_crd must be >= 0, got -1.0"),
        (dict(lambda_per=-0.5), "lambda_per must be >= 0, got -0.5"),
        (dict(gan_mode="wasserstein"), "gan_mode must be one of .*, got 'wasserstein'"),
        (dict(discriminator_mode="offline"), "discriminator_mode must be one of .*, got 'offline'"),
        (dict(patch=(0, 8)), r"patch must be two positive ints, got \(0, 8\)"),
        (dict(image_size=0), "image_size must be >= 1, got 0"),
        (dict(base_width=0), "base_width must be >= 1, got 0"),
        (dict(num_res_blocks=0), "num_res_blocks must be >= 1, got 0"),
        (dict(disc_layers=0), "disc_layers must be >= 1, got 0"),
        (dict(disc_base_width=0), "disc_base_width must be >= 1, got 0"),
        (dict(train_count=0), "train_count must be >= 1, got 0"),
        (dict(lr0=float("nan")), "^lr0 must be finite, got nan$"),
        (dict(lambda_crd=float("nan")), "^lambda_crd must be finite, got nan$"),
        (dict(lambda_crd=float("-inf")), "^lambda_crd must be finite, got -inf$"),
        (dict(lambda_per=float("inf")), "^lambda_per must be finite, got inf$"),
    ])
    def test_cross_field_checks(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**overrides).validate()

    def test_config_file_error_is_a_config_error(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("image_size = 32\npatch = 3,3\n")
        with pytest.raises(ConfigError, match="3x3 patches"):
            parse_config(p)


def _reference_coords(s):
    return np.meshgrid(np.linspace(-1, 1, s), np.linspace(-1, 1, s), indexing="ij")


def _reference_textured_image(rng, s):
    ys, xs = _reference_coords(s)
    img = np.empty((3, s, s), dtype=np.float64)
    for c in range(3):
        gx, gy = rng.uniform(-1, 1, 2)
        img[c] = 0.4 * (gx * xs + gy * ys) + rng.uniform(-0.2, 0.2)
    for _ in range(3):
        cy, cx = rng.uniform(-0.8, 0.8, 2)
        radius = rng.uniform(0.15, 0.5)
        blob = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * radius ** 2))
        color = rng.uniform(-0.9, 0.9, 3)
        img += color[:, None, None] * blob
    return np.clip(img, -1.0, 1.0)


def _reference_box_blur(img):
    padded = np.pad(img, ((0, 0), (1, 1), (1, 1)), mode="edge")
    out = np.zeros_like(img)
    for dy in range(3):
        for dx in range(3):
            out += padded[:, dy:dy + img.shape[1], dx:dx + img.shape[2]]
    return out / 9.0


def _reference_shape_image(rng, s, shape):
    ys, xs = _reference_coords(s)
    img = np.empty((3, s, s), dtype=np.float64)
    if shape == "circle":
        bg = rng.uniform(-1.0, -0.5, 3)
        fg = rng.uniform(0.3, 1.0, 3)
        cy, cx = rng.uniform(-0.4, 0.4, 2)
        r = rng.uniform(0.25, 0.55)
        mask = ((ys - cy) ** 2 + (xs - cx) ** 2) <= r * r
    else:
        bg = rng.uniform(0.4, 1.0, 3)
        fg = rng.uniform(-1.0, -0.3, 3)
        cy, cx = rng.uniform(-0.4, 0.4, 2)
        half = rng.uniform(0.2, 0.5)
        mask = (np.abs(ys - cy) <= half) & (np.abs(xs - cx) <= half)
    for c in range(3):
        img[c] = np.where(mask, fg[c], bg[c])
    return img


def reference_dataset(task):
    """The image-by-image generator: the oracle for generate_dataset's bytes."""
    def stack(fn, count, stream):
        return np.stack([fn(datasets._image_rng(task.seed, stream, i), task.image_size)
                         for i in range(count)]).astype(np.float32)

    if task.kind == "invert":
        train_in = stack(_reference_textured_image, task.train_count, 0)
        val_in = stack(_reference_textured_image, task.val_count, 1)
        return train_in, -train_in, val_in, -val_in
    if task.kind == "blur2sharp":
        train_t = stack(_reference_textured_image, task.train_count, 0)
        val_t = stack(_reference_textured_image, task.val_count, 1)
        train_in = np.stack([_reference_box_blur(t) for t in train_t]).astype(np.float32)
        val_in = np.stack([_reference_box_blur(t) for t in val_t]).astype(np.float32)
        return train_in, train_t, val_in, val_t
    circle = lambda r, s: _reference_shape_image(r, s, "circle")
    square = lambda r, s: _reference_shape_image(r, s, "square")
    return (stack(circle, task.train_count, 0), stack(square, task.train_count, 2),
            stack(circle, task.val_count, 1), stack(square, task.val_count, 3))


class TestDatasets:
    def test_invert_target_is_exact_negation(self):
        ds = generate_dataset(SyntheticTask("invert", 16, 5, 2, 0))
        np.testing.assert_array_equal(ds.train_targets, -ds.train_inputs)
        np.testing.assert_array_equal(ds.val_targets, -ds.val_inputs)

    def test_same_seed_is_identical(self):
        a = generate_dataset(SyntheticTask("invert", 16, 4, 2, 9))
        b = generate_dataset(SyntheticTask("invert", 16, 4, 2, 9))
        assert np.array_equal(a.train_inputs, b.train_inputs)
        c = generate_dataset(SyntheticTask("invert", 16, 4, 2, 10))
        assert not np.array_equal(a.train_inputs, c.train_inputs)

    def test_images_in_range_and_shape(self):
        for kind in ("invert", "blur2sharp", "shapes"):
            ds = generate_dataset(SyntheticTask(kind, 16, 3, 2, 1))
            arr = ds.train_inputs if ds.paired else ds.train_a
            assert arr.shape == (3, 3, 16, 16)
            assert arr.dtype == np.float32
            assert arr.min() >= -1.0 and arr.max() <= 1.0

    def test_blur2sharp_input_is_blurred_target(self):
        ds = generate_dataset(SyntheticTask("blur2sharp", 16, 3, 2, 2))
        # blurring flattens local variation
        assert np.abs(np.diff(ds.train_inputs, axis=3)).mean() \
            < np.abs(np.diff(ds.train_targets, axis=3)).mean()

    def test_shapes_pools_have_different_statistics(self):
        ds = generate_dataset(SyntheticTask("shapes", 16, 8, 2, 3))
        mean_a = ds.train_a.mean()
        mean_b = ds.train_b.mean()
        assert abs(mean_a - mean_b) > 0.2

    @pytest.mark.parametrize("size", [8, 12, 20, 32])
    @pytest.mark.parametrize("kind", datasets.TASK_KINDS)
    def test_arrays_are_byte_identical_to_the_image_by_image_generator(self, kind, size):
        chunk = datasets._CHUNK
        # counts below, across and past the painting chunk, none a multiple of it
        counts = (1, 3, chunk - 1, chunk + 5, 2 * chunk + 3)
        for seed in range(10):
            task = SyntheticTask(kind, size, counts[seed % len(counts)], 2 + seed % 3, seed)
            ds = generate_dataset(task)
            got = (ds.train_inputs, ds.train_targets, ds.val_inputs, ds.val_targets) \
                if ds.paired else (ds.train_a, ds.train_b, ds.val_a, ds.val_b)
            for g, want in zip(got, reference_dataset(task)):
                assert g.dtype == want.dtype and g.shape == want.shape
                assert g.tobytes() == want.tobytes(), (kind, size, seed)

    @pytest.mark.parametrize("size", [0, -3])
    def test_image_size_below_one_rejected(self, size):
        with pytest.raises(ValueError, match="image_size"):
            SyntheticTask("invert", size, 1, 1, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            SyntheticTask("sharpen", 16, 1, 1, 0)


class TestCliExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 2

    def test_missing_config_is_runtime_error(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "no.cfg"),
                     "--task", "invert", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--size", "0"], ["gradcheck", "--patch", "0"],
        ["bench", "--size", "-3"], ["bench", "--patch", "0"], ["bench", "--iters", "0"]])
    def test_nonpositive_size_patch_iters_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: crdgan " + argv[0])
        assert f"argument {argv[1]}: must be a positive int" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_gradcheck_tol_must_be_finite_and_positive(self, tol, capsys):
        # a NaN or infinite bound would pass any gradient
        assert main(["gradcheck", "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: crdgan gradcheck")
        assert "argument --tol: must be a finite positive float" in err

    def test_gradcheck_non_float_tol_is_usage_error(self, capsys):
        assert main(["gradcheck", "--tol", "abc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: crdgan gradcheck")
        assert "argument --tol: invalid float value: 'abc'" in err

    @pytest.mark.parametrize("command", ["gradcheck", "bench"])
    def test_negative_budget_is_usage_error(self, command, capsys):
        # 0 is full enumeration; below it RelationConfig's message named no flag
        assert main([command, "--budget", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: crdgan " + command)
        assert "argument --budget: must be a non-negative int, got -1" in err

    @pytest.mark.parametrize("command", ["train", "gradcheck", "bench"])
    def test_negative_or_non_int_seed_is_usage_error(self, tmp_path, tiny_cfg_file, command,
                                                       capsys):
        # train's config check and numpy's seeding gave exit 1 without naming the flag
        out = tmp_path / "out"
        required = {"train": ["--config", str(tiny_cfg_file), "--task", "invert",
                              "--out", str(out)]}.get(command, [])
        for seed, message in (("-1", "must be a non-negative int, got -1"),
                              ("abc", "invalid int value: 'abc'")):
            assert main([command, *required, "--seed", seed]) == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: crdgan " + command)
            assert f"argument --seed: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["0", "4,-2"])
    def test_nonpositive_slice_patch_is_usage_error(self, tmp_path, spec, capsys):
        out = tmp_path / "s"
        assert main(["slice", "--input", str(tmp_path / "img.crdt"), "--out", str(out),
                     "--patch", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: crdgan slice")
        assert f"argument --patch: patch dims must be positive, got {spec!r}" in err
        assert not out.exists()


@pytest.fixture(scope="module")
def tiny_cfg_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    p.write_text("\n".join([
        "epochs = 1",
        "train_count = 4",
        "val_count = 2",
        "image_size = 16",
        "patch = 4,4",
        "base_width = 8",
        "num_res_blocks = 1",
        "disc_layers = 2",
        "disc_base_width = 8",
        "lambda_crd = 2.5",
        "triplet_budget = 64",
        "teacher_eval_interval = 2",
        "seed = 5",
    ]) + "\n")
    return p


class TestCliTrainEval:
    def test_train_then_eval(self, tiny_cfg_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(tiny_cfg_file),
                     "--task", "invert", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "student_val_metric," in stdout
        assert (out / "metrics.csv").is_file()
        assert (out / "config.cfg").is_file()
        assert (out / "checkpoints" / "manifest.csv").is_file()
        assert list((out / "samples").glob("*.ppm"))

        assert main(["eval", "--run", str(out), "--task", "invert"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        keys = {ln.split(",")[0] for ln in lines}
        assert {"teacher_val_l2", "student_val_l2",
                "teacher_frechet", "student_frechet"} <= keys
        assert (out / "eval.csv").is_file()

    def test_seed_flag_equals_the_config_key(self, tiny_cfg_file, tmp_path, capsys):
        assert main(["train", "--config", str(tiny_cfg_file), "--task", "invert",
                     "--out", str(tmp_path / "flag"), "--seed", "7"]) == 0
        keyed = tmp_path / "seed7.cfg"
        keyed.write_text(tiny_cfg_file.read_text().replace("seed = 5\n", "seed = 7\n"))
        assert main(["train", "--config", str(keyed), "--task", "invert",
                     "--out", str(tmp_path / "key")]) == 0
        assert "seed = 7" in (tmp_path / "flag" / "config.cfg").read_text().splitlines()
        for name in ("config.cfg", "metrics.csv"):
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "key" / name).read_bytes()

    def test_train_refuses_a_used_run_directory(self, tiny_cfg_file, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "metrics.csv").write_text("epoch,step\n")
        assert main(["train", "--config", str(tiny_cfg_file),
                     "--task", "invert", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert (out / "metrics.csv").read_text() == "epoch,step\n"
        assert [p.name for p in out.iterdir()] == ["metrics.csv"]

    def test_train_exits_1_on_a_non_finite_loss(self, tiny_cfg_file, tmp_path, monkeypatch,
                                                capsys):
        real = training.generator_adv_loss
        monkeypatch.setattr(training, "generator_adv_loss", lambda *a: real(*a) * np.nan)
        assert main(["train", "--config", str(tiny_cfg_file),
                     "--task", "invert", "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite g_loss_T=nan in the teacher phase at step 0")

    @pytest.mark.parametrize("bad", ["width_factor = 0.01", "seed = -1",
                                     "extractor_seed = -5", "sample_every = -1",
                                     "batch_size = 5", "val_count = 1",
                                     "lr0 = nan", "lambda_crd = nan", "lambda_per = inf",
                                     "lambda_a = nan"])
    def test_train_rejects_a_bad_config_before_writing(self, tiny_cfg_file, tmp_path,
                                                        capsys, bad):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(tiny_cfg_file.read_text() + bad + "\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--task", "invert",
                     "--out", str(out)]) == 1
        key = bad.split()[0]
        assert capsys.readouterr().err.startswith(f"error: {key} ")
        assert not out.exists()

    @pytest.mark.parametrize("bad, message", [
        ("lambda_per 2", "expected 'key = value', got 'lambda_per 2'"),
        ("distill_from_live = maybe", "bad value 'maybe' for key 'distill_from_live'")])
    def test_train_rejects_a_malformed_config_line_before_writing(self, tiny_cfg_file, tmp_path,
                                                                   capsys, bad, message):
        cfg = tmp_path / "bad.cfg"
        text = tiny_cfg_file.read_text()
        cfg.write_text(text + bad + "\n")
        lineno = len(text.splitlines()) + 1
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--task", "invert",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: line {lineno}: {message}\n"
        assert not out.exists()

    def test_eval_rejects_a_checkpoint_of_oihw_kernels(self, tmp_path, capsys):
        # conv weights were once stored [Cout,Cin,k,k]; such a checkpoint must not load
        cfg = TrainConfig(image_size=16, patch=(4, 4), base_width=4, num_res_blocks=1,
                          disc_layers=2, disc_base_width=4)
        run = tmp_path / "run"
        run.mkdir()
        write_config(cfg, run / "config.cfg")
        entries = []
        for role, module in training.build_models(cfg).items():
            named = [(name, p.data.transpose(3, 2, 0, 1) if p.ndim == 4 else p.data)
                     for name, p in module.named_parameters()]
            entries = tensor_io.save_named_tensors(run / "checkpoints", named, role, entries)
        tensor_io.write_manifest(run / "checkpoints", entries)
        assert main(["eval", "--run", str(run), "--task", "invert"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: array shape (4, 3, 7, 7) does not match parameter "
                              "(7, 7, 3, 4)")
        assert not (run / "eval.csv").exists()

    def test_eval_rejects_a_checkpoint_with_a_bias_on_every_conv(self, tmp_path, capsys):
        # checkpoints once held a bias for every conv, also those that instance_norm cancels
        cfg = TrainConfig(image_size=16, patch=(4, 4), base_width=4, num_res_blocks=1,
                          disc_layers=2, disc_base_width=4)
        run = tmp_path / "run"
        run.mkdir()
        write_config(cfg, run / "config.cfg")
        entries = []
        for role, module in training.build_models(cfg).items():
            named = []
            for i, layer in enumerate(module._layers):
                named.append((f"layer{i:02d}.weight", layer.weight.data))
                named.append((f"layer{i:02d}.bias",
                              np.zeros(layer.weight.shape[-1], dtype=np.float32)))
            entries = tensor_io.save_named_tensors(run / "checkpoints", named, role, entries)
        tensor_io.write_manifest(run / "checkpoints", entries)
        assert main(["eval", "--run", str(run), "--task", "invert"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint role 'teacher_generator' does not match "
                              "the model's parameters (not in the model: layer00.bias, "
                              "layer01.bias, ")
        assert "; missing: none)" in err and err.count("\n") == 1
        assert not (run / "eval.csv").exists()

    @pytest.mark.parametrize("corrupt", ["drop_role_column", "short_row", "bad_shape_cell"])
    def test_eval_rejects_a_corrupt_manifest(self, tmp_path, capsys, corrupt):
        cfg = TrainConfig(image_size=16, patch=(4, 4), base_width=4, num_res_blocks=1,
                          disc_layers=2, disc_base_width=4)
        run = tmp_path / "run"
        run.mkdir()
        write_config(cfg, run / "config.cfg")
        entries = []
        for role, module in training.build_models(cfg).items():
            named = [(name, p.data) for name, p in module.named_parameters()]
            entries = tensor_io.save_named_tensors(run / "checkpoints", named, role, entries)
        tensor_io.write_manifest(run / "checkpoints", entries)
        manifest = run / "checkpoints" / tensor_io.MANIFEST_NAME
        lines = manifest.read_text().splitlines()
        if corrupt == "drop_role_column":
            lines = [ln.rsplit(",", 1)[0] for ln in lines]
        elif corrupt == "short_row":
            lines[3] = lines[3].rsplit(",", 1)[0]
        else:
            name, fname, _, role = lines[3].split(",")
            lines[3] = ",".join((name, fname, "3xfour", role))
        manifest.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--run", str(run), "--task", "invert"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: ")
        assert ("header" if corrupt == "drop_role_column" else "line 4 ") in err
        assert not (run / "eval.csv").exists()

    def test_eval_rejects_a_tensor_file_of_another_shape_than_its_row(self, tmp_path, capsys):
        cfg = TrainConfig(image_size=16, patch=(4, 4), base_width=4, num_res_blocks=1,
                          disc_layers=2, disc_base_width=4)
        run = tmp_path / "run"
        run.mkdir()
        write_config(cfg, run / "config.cfg")
        save_checkpoint(run / "checkpoints", training.build_models(cfg))
        manifest = run / "checkpoints" / tensor_io.MANIFEST_NAME
        lines = manifest.read_text().splitlines()
        name, fname, shape, role = lines[1].split(",")
        assert (name, shape, role) == ("layer00.weight", "7x7x3x4", "teacher_generator")
        lines[1] = ",".join((name, fname, "1x2x3", role))
        manifest.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--run", str(run), "--task", "invert"]) == 1
        assert capsys.readouterr().err == (
            f"error: {run / 'checkpoints' / fname}: tensor of shape (7, 7, 3, 4) but the "
            f"manifest says (1, 2, 3)\n")
        assert not (run / "eval.csv").exists()

    def test_eval_rejects_a_tensor_file_with_bytes_after_its_payload(self, tmp_path, capsys):
        cfg = TrainConfig(image_size=16, patch=(4, 4), base_width=4, num_res_blocks=1,
                          disc_layers=2, disc_base_width=4)
        run = tmp_path / "run"
        run.mkdir()
        write_config(cfg, run / "config.cfg")
        save_checkpoint(run / "checkpoints", training.build_models(cfg))
        fname = tensor_io.read_manifest(run / "checkpoints")[0]["file"]
        path = run / "checkpoints" / fname
        path.write_bytes(path.read_bytes() + bytes(8))
        assert main(["eval", "--run", str(run), "--task", "invert"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}: 8 bytes after the payload of ")
        assert not (run / "eval.csv").exists()

    def test_eval_runs_the_generators_in_batch_size_chunks(self, tmp_path, monkeypatch, capsys):
        cfg = TrainConfig(batch_size=2, val_count=5, image_size=16, patch=(4, 4),
                          base_width=4, num_res_blocks=1, disc_layers=2, disc_base_width=4)
        run = tmp_path / "run"
        run.mkdir()
        write_config(cfg, run / "config.cfg")
        save_checkpoint(run / "checkpoints", training.build_models(cfg))
        sizes = []
        forward = ResnetGenerator.__call__

        def traced(self, x, frozen=False):
            sizes.append(x.shape[0] if x.ndim == 4 else 1)
            return forward(self, x, frozen)

        monkeypatch.setattr(ResnetGenerator, "__call__", traced)
        assert main(["eval", "--run", str(run), "--task", "invert"]) == 0
        assert sizes == [2, 2, 1, 2, 2, 1]     # best snapshot, then student
        assert "student_val_l2," in capsys.readouterr().out

    def test_eval_scores_the_training_validation_split(self, tmp_path, monkeypatch, capsys):
        cfg = TrainConfig(val_count=3, image_size=16, patch=(4, 4), base_width=4,
                          num_res_blocks=1, disc_layers=2, disc_base_width=4)
        run = tmp_path / "run"
        run.mkdir()
        write_config(cfg, run / "config.cfg")
        save_checkpoint(run / "checkpoints", training.build_models(cfg))
        splits = []
        val_sets = training._val_sets

        def spy(dataset):
            splits.append(val_sets(dataset))
            return splits[-1]

        monkeypatch.setattr(training, "_val_sets", spy)
        assert main(["eval", "--run", str(run), "--task", "shapes"]) == 0
        (inputs, pool), = splits
        assert inputs.shape == pool.shape == (3, 3, 16, 16)
        keys = [ln.split(",")[0] for ln in capsys.readouterr().out.strip().splitlines()]
        assert keys == ["teacher_frechet", "student_frechet"]     # unpaired: no pixel L2


class TestCliSlice:
    def test_slice_writes_items_and_manifest(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(-1, 1, (3, 8, 8)).astype(np.float32)
        src = tmp_path / "img.crdt"
        tensor_io.save_tensor(src, img)
        out = tmp_path / "slices"
        assert main(["slice", "--input", str(src), "--out", str(out),
                     "--patch", "4,4"]) == 0
        manifest = (out / "manifest.txt").read_text().strip().splitlines()
        # 8 columns + 8 rows + 4 patches
        assert len(manifest) == 20
        assert manifest[0] == "column,0,24"
        assert manifest[-1] == f"patch,3,{3 * 4 * 4}"
        item = tensor_io.load_tensor(out / "column_0000.crdt")
        np.testing.assert_allclose(item, img[:, :, 0].ravel(), atol=1e-7)

    def test_patch_spec_parses_like_the_config_key(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("image_size = 16\npatch = 4x2\n")
        assert parse_config(cfg_file).patch == (4, 2)
        img = np.zeros((1, 8, 8), dtype=np.float32)
        src = tmp_path / "img.crdt"
        tensor_io.save_tensor(src, img)
        out = tmp_path / "patches"
        assert main(["slice", "--input", str(src), "--out", str(out),
                     "--granularity", "patch", "--patch", "4x2"]) == 0
        lines = (out / "manifest.txt").read_text().strip().splitlines()
        assert lines == [f"patch,{i},8" for i in range(8)]

    @pytest.mark.parametrize("spec", ["4x2x1", "4,", "four"])
    def test_bad_patch_spec_is_usage_error(self, tmp_path, capsys, spec):
        src = tmp_path / "img.crdt"
        tensor_io.save_tensor(src, np.zeros((1, 8, 8), dtype=np.float32))
        assert main(["slice", "--input", str(src), "--out", str(tmp_path / "s"),
                     "--patch", spec]) == 2
        assert f"argument --patch: bad patch spec {spec!r}" in capsys.readouterr().err
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"patch = {spec}\n")
        with pytest.raises(ConfigError, match="line 1.*patch"):
            parse_config(cfg_file)

    def test_granularity_filter(self, tmp_path):
        img = np.zeros((1, 4, 4), dtype=np.float32)
        src = tmp_path / "img.crdt"
        tensor_io.save_tensor(src, img)
        out = tmp_path / "rows"
        assert main(["slice", "--input", str(src), "--out", str(out),
                     "--granularity", "row"]) == 0
        lines = (out / "manifest.txt").read_text().strip().splitlines()
        assert all(ln.startswith("row,") for ln in lines)

    @pytest.mark.parametrize("case, message", [
        ("version_2", "img.crdt: unsupported version 2"),
        ("rank_2", "slice needs a [c,h,w] tensor file, got shape (8, 8)")])
    def test_unsliceable_input_exits_1_and_writes_nothing(self, tmp_path, capsys, case, message):
        src = tmp_path / "img.crdt"
        tensor_io.save_tensor(src, np.zeros((1, 8, 8) if case == "version_2" else (8, 8),
                                            dtype=np.float32))
        if case == "version_2":
            raw = bytearray(src.read_bytes())
            raw[4] = 2
            src.write_bytes(bytes(raw))
        out = tmp_path / "s"
        assert main(["slice", "--input", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()


class TestCliGradcheck:
    def test_passes_on_default_settings(self, capsys):
        assert main(["gradcheck", "--size", "8", "--patch", "4", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "max_rel_error" in out

    def test_indivisible_size_fails_cleanly(self, capsys):
        assert main(["gradcheck", "--size", "9", "--patch", "4"]) == 1

    def test_error_above_tol_fails(self, capsys):
        assert main(["gradcheck", "--tol", "1e-300"]) == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("FAIL: relative error ")
        assert last.endswith(" exceeds tolerance 1.0e-300")

    def test_tol_parses(self, capsys):
        assert main(["gradcheck", "--tol", "1e-3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"


class TestModuleEntryPoint:
    """``python -m crdgan``, which runs cli.run, the console script's entry point."""

    @staticmethod
    def run(*argv):
        src = str(Path(crdgan.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "crdgan", *argv], env=env,
                              capture_output=True, text=True, timeout=300)

    def test_gradcheck_passes(self):
        proc = self.run("gradcheck", "--size", "4", "--patch", "2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "PASS"

    def test_usage_error_exits_2(self):
        proc = self.run("gradcheck", "--size", "0")
        assert proc.returncode == 2
        assert "argument --size: must be a positive int, got 0" in proc.stderr


class TestMedianMs:
    def test_one_untimed_call_then_the_median(self, monkeypatch):
        from crdgan import cli
        # clock readings around an untimed call of 100 s, then calls of 1, 5 and 2 s
        ticks = iter([0.0, 100.0, 100.0, 101.0, 101.0, 106.0, 106.0, 108.0])
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
        calls, setups = [], []
        ms = cli._median_ms(lambda: calls.append(1), 3, setup=lambda: setups.append(1))
        assert ms == 2000.0
        assert len(calls) == len(setups) == 4


class TestCliBench:
    def test_budget_reduces_triples_evaluated(self, monkeypatch, capsys):
        from crdgan import cli
        checks = []
        real = cli._check_gradient

        def counted(loss_fn, x):
            checks.append((x.shape, x.dtype))
            return real(loss_fn, x)

        monkeypatch.setattr(cli, "_check_gradient", counted)
        assert main(["bench", "--size", "16", "--budget", "0", "--iters", "1"]) == 0
        full = capsys.readouterr().out
        assert main(["bench", "--size", "16", "--budget", "64", "--iters", "1"]) == 0
        budgeted = capsys.readouterr().out

        def value(text, key):
            for line in text.splitlines():
                if line.startswith(key + ","):
                    return float(line.split(",")[1])

        assert value(budgeted, "triples_evaluated") < value(full, "triples_evaluated")
        for key in ("generator_fwd_bwd_ms", "discriminator_fwd_bwd_ms", "adam_step_ms",
                    "crd_gradcheck_ms"):
            assert value(full, key) > 0, key
        last = full.splitlines()[-1]
        assert last.startswith("perceptual_fwd_bwd_ms,") and float(last.split(",")[1]) > 0
        assert [line.split(",")[0] for line in full.splitlines()] == [
            "image_size", "triplet_budget", "pairs_evaluated", "triples_evaluated",
            "tuple_sampling_ms", "crd_loss_ms", "crd_loss_fwd_bwd_ms", "crd_gradcheck_ms",
            "tuples_per_second", "generator_fwd_bwd_ms", "generator_gflops",
            "discriminator_fwd_bwd_ms", "adam_step_ms", "dataset_ms", "trainer_ms",
            "perceptual_fwd_bwd_ms"]
        # crd_gradcheck_ms times whole checks at `gradcheck`'s defaults, whatever --size:
        # per run an untimed check and one timed
        assert checks == [((1, 8, 8), np.float64)] * 4

    def test_tuple_counts_are_the_lengths_of_the_draws(self, monkeypatch, capsys):
        from crdgan import cli
        draws = []
        real = cli.sample_tuples

        def counted(count, arity, budget, seed):
            tuples = real(count, arity, budget, seed)
            draws.append((count, arity, budget, len(tuples)))
            return tuples

        monkeypatch.setattr(cli, "sample_tuples", counted)
        # 16 columns and rows sample 64 of their 560 triples; 4 patches give all 4
        assert main(["bench", "--size", "16", "--patch", "8", "--budget", "64",
                     "--iters", "1"]) == 0
        values = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
        pairs, triples = draws[:3], draws[3:6]
        assert pairs == [(16, 2, None, 120), (16, 2, None, 120), (4, 2, None, 6)]
        assert triples == [(16, 3, 64, 64), (16, 3, 64, 64), (4, 3, 64, 4)]
        assert values["pairs_evaluated"] == str(sum(d[-1] for d in pairs)) == "246"
        assert values["triples_evaluated"] == str(sum(d[-1] for d in triples)) == "132"

    def test_each_timed_crd_loss_relates_both_sides(self, monkeypatch, capsys):
        from crdgan import cli, relations
        passes, per_call = [0], []
        real_loss = cli.crd_loss

        class Counted(relations._Side):
            def __init__(self, xs, plan):
                passes[0] += 1
                super().__init__(xs, plan)

        def counted_loss(teacher, student, *args):
            before = passes[0]
            loss = real_loss(teacher, student, *args)
            if teacher.shape == (3, 16, 16):            # not the gradient check's [1,8,8]
                per_call.append(passes[0] - before)
            return loss

        monkeypatch.setattr(relations, "_Side", Counted)
        monkeypatch.setattr(cli, "crd_loss", counted_loss)
        # full enumeration, the memo's case: crd_loss_ms and crd_loss_fwd_bwd_ms,
        # each an untimed call and 3 timed
        assert main(["bench", "--size", "16", "--budget", "0", "--iters", "3"]) == 0
        capsys.readouterr()
        assert per_call == [2] * 8

    def test_set_up_lines_time_the_dataset_and_the_trainer(self, monkeypatch, capsys):
        from crdgan import cli
        calls = {"dataset": 0, "trainer": 0}
        generate, trainer = cli.generate_dataset, training.Trainer

        def counted_generate(task):
            calls["dataset"] += 1
            assert (task.kind, task.image_size) == ("shapes", 16)
            return generate(task)

        def counted_trainer(cfg, dataset):
            calls["trainer"] += 1
            assert (cfg.image_size, cfg.base_width, cfg.num_res_blocks) == (16, 16, 2)
            return trainer(cfg, dataset)

        monkeypatch.setattr(cli, "generate_dataset", counted_generate)
        monkeypatch.setattr(training, "Trainer", counted_trainer)
        assert main(["bench", "--size", "16", "--iters", "3"]) == 0
        values = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
        assert float(values["dataset_ms"]) > 0 and float(values["trainer_ms"]) > 0
        # one dataset for the Trainer, then each figure's untimed call and 3 timed calls
        assert calls == {"dataset": 1 + 4, "trainer": 4}
