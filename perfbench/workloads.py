"""The benchmark's four workloads, driven through crdgan's public functions.

Each workload builds a run object from a seed (``setup``); the run then
offers one closed-loop operation (``step``), one end-of-run evaluation pass
(``eval_pass``), the per-run correctness checks and the rows of its
``metrics.csv``.  Calls that the traced run wraps (``generate_dataset``,
``save_checkpoint``, ``crd_loss``, ...) go through their module attribute so
that the wrappers see them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from crdgan import autodiff, datasets, metrics, models, relations, training
from crdgan.autodiff import Tensor, max_rel_error
from crdgan.config import TrainConfig
from crdgan.datasets import SyntheticTask
from crdgan.models import DiscriminatorSpec, GeneratorSpec
from crdgan.perceptual import FeatureExtractor
from crdgan.relations import RelationConfig

import oracles

_clock = time.perf_counter

# the criterion-07 headline configuration
IMAGE_SIZE = 32
PATCH = 8
TRAIN_COUNT = 100
VAL_COUNT = 8

# the `crdgan gradcheck` / acceptance-04 configuration
GC_SIZE = 8
GC_PATCH = 4
GC_EPS = 1e-6
GC_TOL = 1e-4
KINK_MARGIN = 1e-3
FULL = RelationConfig(pair_budget=None, triplet_budget=None, seed=0)

ORACLE_RTOL = 1e-8        # program vs numpy oracle, float64 forward values
FRECHET_RTOL = 1e-6       # eigh-based sqrtm vs scipy.linalg.sqrtm


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def _fmt(v: float) -> str:
    return f"{v:.9g}"


# -- gradient checks (all workloads) --------------------------------------------

def gradcheck_inputs(seed: int, count: int) -> list:
    """Seeded [1,8,8] teacher/student pairs, each with every Huber argument
    at least KINK_MARGIN away from the branch point (as acceptance 04)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6C]))
    pairs = []
    while len(pairs) < count:
        t = rng.uniform(-1, 1, (1, GC_SIZE, GC_SIZE))
        s = rng.uniform(-1, 1, (1, GC_SIZE, GC_SIZE))
        if oracles.kink_margin(t, s, GC_PATCH, GC_PATCH) > KINK_MARGIN:
            pairs.append((t, s))
    return pairs


def gradient_check(t_img: np.ndarray, s_img: np.ndarray) -> tuple:
    """The `crdgan gradcheck` path: float64 crd_loss with full enumeration,
    analytic backward, central differences over every input coordinate."""
    teacher = Tensor(t_img)

    def loss_fn(x):
        return relations.crd_loss(teacher, x, GC_PATCH, GC_PATCH, FULL)

    student = Tensor(s_img, requires_grad=True)
    value = loss_fn(student)
    autodiff.backward(value)
    numeric = autodiff.finite_diff_grad(loss_fn, student, GC_EPS).data
    return value.item(), max_rel_error(student.grad, numeric)


def crd_loss_oracle(t_img: np.ndarray, s_img: np.ndarray, n: int, m: int) -> float:
    return oracles.crd_value(t_img, s_img, n, m, False) \
        + FULL.lambda_a * oracles.crd_value(t_img, s_img, n, m, True)


# -- training workloads -------------------------------------------------------------

@dataclass(frozen=True)
class TrainingWorkload:
    """Teacher+student training on a synthetic task at the headline scale."""

    name: str
    task: str
    lambda_crd: float
    lambda_per: float
    batch_size: int
    eval_interval: int
    tail_pct: float
    round_steps: int
    oracle_check: bool = False
    zero_terms_check: bool = False
    round_gradchecks: int = 1
    csv_steps: int = 4
    kernel_parts: tuple = ("interpreter", "small_arrays", "matmul")

    def config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            epochs=20, lr0=2e-4, batch_size=self.batch_size,
            lambda_crd=self.lambda_crd, lambda_per=self.lambda_per,
            relation=RelationConfig(lambda_a=2.0, triplet_budget=512, seed=seed),
            patch=(PATCH, PATCH), teacher_eval_interval=self.eval_interval,
            gan_mode="least_squares", seed=seed, image_size=IMAGE_SIZE,
            base_width=16, num_res_blocks=2, disc_layers=3, disc_base_width=16,
            train_count=TRAIN_COUNT, val_count=VAL_COUNT)

    def setup(self, seed: int) -> "TrainingRun":
        cfg = self.config(seed)
        task = SyntheticTask(self.task, cfg.image_size, cfg.train_count, cfg.val_count, seed)
        dataset = datasets.generate_dataset(task)
        return TrainingRun(self, cfg, dataset, training.Trainer(cfg, dataset), seed)


def _batch_stream(dataset, batch_size: int, seed: int):
    """Endless seeded shuffles of the training pool, one batch at a time."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA7C]))
    count = len(dataset)
    while True:
        order_a = rng.permutation(count)
        order_b = rng.permutation(count)
        for start in range(0, count - batch_size + 1, batch_size):
            ia = order_a[start:start + batch_size]
            if dataset.paired:
                yield dataset.train_inputs[ia], dataset.train_targets[ia]
            else:
                yield dataset.train_a[ia], dataset.train_b[order_b[start:start + batch_size]]


def _param_bytes(*modules) -> list:
    return [p.data.tobytes() for module in modules for p in module.parameters()]


class TrainingRun:
    images_per_op = property(lambda self: self.workload.batch_size)

    def __init__(self, workload: TrainingWorkload, cfg: TrainConfig, dataset, trainer, seed):
        self.workload = workload
        self.cfg = cfg
        self.dataset = dataset
        self.trainer = trainer
        self.seed = seed
        if dataset.paired:
            self.val_set = (dataset.val_inputs, dataset.val_targets)
            self.metric = training.paired_l2_metric
        else:
            self.val_set = (dataset.val_a, dataset.val_b)
            self.metric = training.make_frechet_metric(trainer.extractor)
        self.batches = _batch_stream(dataset, cfg.batch_size, seed)
        self.steps_per_epoch = max(1, len(dataset) // cfg.batch_size)
        self.rows = [training.CSV_HEADER]
        self.last_inputs = None
        self.eval_result = None
        # the schedule is flat at lr0 for its first half, where every timed
        # step falls; keeping it flat lets a run last any number of steps
        trainer.set_lr(cfg.lr0)

    def step(self, index: int) -> float:
        """One teacher phase, one student phase, one snapshot check.

        Returns the seconds spent in the three phases; the freezing check
        between them is not timed.
        """
        tr, cfg = self.trainer, self.cfg
        state = tr.state
        batch = next(self.batches)
        t0 = _clock()
        t_losses = tr.train_step_teacher(batch, index)
        t1 = _clock()
        frozen = _param_bytes(state.generator, state.discriminator, state.best_generator)
        t2 = _clock()
        s_losses = tr.train_step_student(batch, index)
        t3 = _clock()
        require(_param_bytes(state.generator, state.discriminator, state.best_generator)
                == frozen, f"step {index}: the student phase changed teacher parameters")
        if self.workload.zero_terms_check:
            require(s_losses["crd_d"] == 0.0 and s_losses["crd_a"] == 0.0
                    and s_losses["per_loss"] == 0.0,
                    f"step {index}: nonzero distillation term with lambda_crd = lambda_per = 0")
            require(s_losses["total_S"] == s_losses["adv_loss_S"],
                    f"step {index}: total_S {s_losses['total_S']} != adv_loss_S")
        t4 = _clock()
        replaced = tr.maybe_update_snapshot(self.val_set, self.metric, index)
        t5 = _clock()
        self.last_inputs = batch[0]
        if len(self.rows) <= self.workload.csv_steps:
            evaluated = index % cfg.teacher_eval_interval == 0
            self.rows.append(",".join([
                str(index // self.steps_per_epoch), str(index), _fmt(cfg.lr0),
                _fmt(t_losses["d_loss_T"]), _fmt(t_losses["g_loss_T"]),
                _fmt(s_losses["adv_loss_S"]), _fmt(s_losses["crd_d"]),
                _fmt(s_losses["crd_a"]), _fmt(s_losses["per_loss"]),
                _fmt(s_losses["total_S"]),
                _fmt(state.best_score) if evaluated else "",
                ("1" if replaced else "0") if evaluated else ""]))
        return (t1 - t0) + (t3 - t2) + (t5 - t4)

    def eval_pass(self, out_dir) -> None:
        """The `crdgan eval` path: write the checkpoint, reload it into fresh
        models, score the best snapshot and the student on the validation set."""
        cfg, tr = self.cfg, self.trainer
        ckpt = out_dir / "checkpoints"
        models.save_checkpoint(ckpt, {
            "teacher_generator": tr.state.generator,
            "teacher_discriminator": tr.state.discriminator,
            "student_generator": tr.student,
            "best_snapshot": tr.state.best_generator,
        })
        gen_spec = GeneratorSpec(base_width=cfg.base_width, width_factor=1.0,
                                 num_res_blocks=cfg.num_res_blocks)
        fresh = {
            "teacher_generator": models.build_generator(gen_spec, 0),
            "teacher_discriminator": models.build_discriminator(
                DiscriminatorSpec(cfg.disc_layers, cfg.disc_base_width), 0),
            "student_generator": models.build_generator(
                replace(gen_spec, width_factor=cfg.width_factor), 0),
            "best_snapshot": models.build_generator(gen_spec, 0),
        }
        models.load_checkpoint(ckpt, fresh)
        extractor = FeatureExtractor.fixed_random(cfg.extractor_seed, dtype=np.float32)
        inputs, targets = self.val_set
        scores, outputs = {}, {}
        for role in ("best_snapshot", "student_generator"):
            outs = [fresh[role](Tensor(x), frozen=True).data for x in inputs]
            if self.dataset.paired:
                scores[f"{role}_val_l2"] = float(np.mean(
                    [metrics.pixel_error(o, t, "L2") for o, t in zip(outs, targets)]))
            scores[f"{role}_frechet"] = metrics.frechet_between(outs, list(targets), extractor)
            outputs[role] = outs
        self.eval_result = (outputs, scores, extractor,
                            sum(f.stat().st_size for f in ckpt.iterdir()))

    def checkpoint_bytes(self) -> int:
        return self.eval_result[3]

    def final_checks(self) -> None:
        outputs, scores, extractor, _ = self.eval_result
        inputs, targets = self.val_set
        tr = self.trainer

        live = [tr.student_generate(x) for x in inputs]
        require(all(a.tobytes() == b.tobytes() for a, b in zip(live, outputs["student_generator"])),
                "reloaded checkpoint does not reproduce the student's outputs byte for byte")

        want = oracles.frechet_scipy(metrics.pooled_features(outputs["student_generator"], extractor),
                                     metrics.pooled_features(targets, extractor),
                                     metrics.COV_REGULARIZER)
        got = scores["student_generator_frechet"]
        require(_close(got, want, FRECHET_RTOL),
                f"student Frechet distance {got!r} != scipy sqrtm value {want!r}")

        if self.workload.oracle_check:
            # the final step's real outputs, re-scored with every tuple
            x = self.last_inputs[0]
            t_img = tr.best_generate(x).astype(np.float64)
            s_img = tr.student_generate(x).astype(np.float64)
            for angle, fn in ((False, relations.crd_distance_loss),
                              (True, relations.crd_angle_loss)):
                got = fn(Tensor(t_img), Tensor(s_img), PATCH, PATCH, FULL).item()
                want = oracles.crd_value(t_img, s_img, PATCH, PATCH, angle)
                require(_close(got, want, ORACLE_RTOL),
                        f"{fn.__name__} {got!r} != numpy oracle {want!r}")


# -- gradient-check workload ------------------------------------------------------

@dataclass(frozen=True)
class GradcheckWorkload:
    """Complete crd_loss gradient checks on a seeded pool of image pairs."""

    name: str
    pool_size: int
    tail_pct: float
    round_steps: int
    round_gradchecks: int = 0
    csv_steps: int = 2
    kernel_parts: tuple = ("interpreter", "small_arrays")   # no conv, no large matmul

    def setup(self, seed: int) -> "GradcheckRun":
        return GradcheckRun(self, gradcheck_inputs(seed, self.pool_size))


class GradcheckRun:
    images_per_op = 1

    def __init__(self, workload: GradcheckWorkload, pool: list):
        self.workload = workload
        self.pool = pool
        self.rows = ["check,loss,max_rel_error"]
        self.values = None

    def step(self, index: int) -> float:
        t_img, s_img = self.pool[index % len(self.pool)]
        start = _clock()
        value, err = gradient_check(t_img, s_img)
        elapsed = _clock() - start
        require(err <= GC_TOL, f"check {index}: gradient relative error {err:.3e} > {GC_TOL}")
        if len(self.rows) <= self.workload.csv_steps:
            self.rows.append(f"{index},{value!r},{err!r}")
        return elapsed

    def eval_pass(self, out_dir) -> None:
        """Forward-only crd_loss over the whole input pool."""
        self.values = [relations.crd_loss(Tensor(t), Tensor(s), GC_PATCH, GC_PATCH, FULL).item()
                       for t, s in self.pool]

    def checkpoint_bytes(self) -> int:
        return 0

    def final_checks(self) -> None:
        for i, ((t_img, s_img), got) in enumerate(zip(self.pool, self.values)):
            want = crd_loss_oracle(t_img, s_img, GC_PATCH, GC_PATCH)
            require(_close(got, want, ORACLE_RTOL),
                    f"pool pair {i}: crd_loss {got!r} != numpy oracle {want!r}")


WORKLOADS = {
    "distill_invert": TrainingWorkload(
        "distill_invert", "invert", lambda_crd=25.0, lambda_per=1.0, batch_size=1,
        eval_interval=50, tail_pct=95.0, round_steps=15, oracle_check=True),
    "adversarial_invert": TrainingWorkload(
        "adversarial_invert", "invert", lambda_crd=0.0, lambda_per=0.0, batch_size=1,
        eval_interval=50, tail_pct=95.0, round_steps=24, zero_terms_check=True),
    "distill_shapes_b4": TrainingWorkload(
        "distill_shapes_b4", "shapes", lambda_crd=25.0, lambda_per=1.0, batch_size=4,
        eval_interval=3, tail_pct=80.0, round_steps=6),
    "gradcheck_crd": GradcheckWorkload("gradcheck_crd", pool_size=16, tail_pct=80.0,
                                       round_steps=4),
}
