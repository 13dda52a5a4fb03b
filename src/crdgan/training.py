"""Simultaneous teacher/student training with an updating-freezing teacher
discriminator.

Per step: one teacher phase (discriminator update, then teacher-generator
update), one student phase (student-generator update against the frozen
discriminator plus content-relationship and perceptual terms), then a
snapshot check.  Distillation targets come from the best teacher snapshot
seen so far; the live teacher is only the thing being snapshotted.  The
snapshot's output on each training image is computed once per snapshot and
kept in ``TeacherState.targets`` until the snapshot is replaced.

Every discriminator loss, updating or report-only, goes through
``Trainer._disc_step``.  The pretrained modes take D from a throwaway
teacher-phase run with the same seed.

Discriminator modes:
  online_updating_freezing  D updates with the teacher, frozen for the student
  online_always_updating    D also updates during the student phase
  online_no_discriminator   student loss has no adversarial term
  pretrained_frozen         D from a pretraining run, never updated again
  pretrained_updating       D from a pretraining run, updates with the teacher
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import operator
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .autodiff import Tensor, absolute, backward, tmean
from .config import TrainConfig, relation_for_step, write_config
from .metrics import frechet_distance, pixel_error, pool_stats
from .models import (
    Adam, DiscriminatorSpec, GeneratorSpec, PatchDiscriminator,
    ResnetGenerator, _copy_module, build_discriminator, build_generator,
    discriminator_loss, generator_adv_loss, save_checkpoint,
)
from .perceptual import FeatureExtractor, perceptual_loss
from .relations import _derive_seed, crd_combine, crd_terms
from . import ppm

CSV_HEADER = ("epoch,step,lr,d_loss_T,g_loss_T,adv_loss_S,crd_d,crd_a,"
              "per_loss,total_S,val_metric,snapshot_replaced")
RECON_WEIGHT = 10.0       # weight of the paired teacher's L1 term


def lr_at(epoch, cfg: TrainConfig) -> float:
    """Learning rate at a (possibly fractional) epoch in [0, epochs].

    CycleGAN's schedule (Zhu et al., arXiv:1703.10593): flat at lr0 for the
    first half, then linear to exactly 0 at the final epoch boundary.
    """
    e = float(epoch)
    if e < 0 or e > cfg.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {cfg.epochs}]")
    total = float(cfg.epochs)
    half = total / 2.0
    if e < half:
        return cfg.lr0
    return cfg.lr0 * (total - e) / (total - half)


@dataclass
class TeacherState:
    """The live teacher, its discriminator and the best snapshot so far.

    ``targets`` maps a training image's key (:func:`image_key`) to the
    snapshot's frozen output on that image alone, as a [1,c,h,w] array.  A
    batch-of-one forward gives the same bytes whichever batch the image
    arrives in, so a cached target is exactly the forward it replaces.
    ``replace_snapshot`` is the one writer of ``best_generator`` and empties
    the map with it.
    """

    generator: ResnetGenerator
    discriminator: PatchDiscriminator
    best_generator: ResnetGenerator
    best_score: float = math.inf
    targets: dict = field(default_factory=dict, repr=False)

    def replace_snapshot(self, score: float) -> None:
        """Copy the live teacher into the snapshot; its cached outputs go with it."""
        self.best_generator.flat[...] = self.generator.flat
        self.best_score = score
        self.targets.clear()


def image_key(img: np.ndarray) -> tuple:
    """An array's content key: shape, dtype and the SHA-256 of its bytes.  It
    keys training images in ``TeacherState.targets`` and target pools in
    :func:`make_frechet_metric`."""
    img = np.ascontiguousarray(img)
    return img.shape, img.dtype.str, hashlib.sha256(img).digest()


def _check_finite(phase: str, step: int, **losses) -> None:
    for name, v in losses.items():
        if not np.isfinite(v):
            raise FloatingPointError(f"non-finite {name}={v} in the {phase} at step {step}; "
                                     f"aborting")


def generate(generator, images, batch_size: int) -> np.ndarray:
    """Frozen generator outputs for a [c,h,w] image or a [n,c,h,w] stack,
    cast to the generator's dtype.

    A stack runs in chunks of at most batch_size images, so evaluation never
    holds larger activations (or conv column matrices) than a training step.
    """
    x = np.asarray(images, dtype=generator.flat.dtype)
    if x.ndim == 3:
        return generator(Tensor(x), frozen=True).data
    return np.concatenate([generator(Tensor(x[i:i + batch_size]), frozen=True).data
                           for i in range(0, len(x), batch_size)])


def paired_l2_metric(generate_fn: Callable, val_set) -> float:
    """Mean squared pixel error of generated outputs against targets."""
    inputs, targets = val_set
    return pixel_error(generate_fn(inputs), targets, "L2")


def make_frechet_metric(extractor: FeatureExtractor) -> Callable:
    """Desk Frechet distance between generated outputs and the target pool.

    The pool's Gaussian fit is made once per distinct pool content (keyed by
    :func:`image_key` of the whole pool) and reused by later calls, so each
    score has the bytes of ``frechet_between(outputs, pool, extractor)``.
    """
    pool_fits = {}

    def metric(generate_fn: Callable, val_set) -> float:
        inputs, target_pool = val_set
        key = image_key(target_pool)
        if key not in pool_fits:
            pool_fits[key] = pool_stats(target_pool, extractor)
        return frechet_distance(pool_stats(generate_fn(inputs), extractor), pool_fits[key])

    return metric


def run_seeds(seed: int) -> tuple:
    """(teacher, student, discriminator, batch order) seeds derived from a run seed."""
    return tuple(int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(4))


def build_models(cfg: TrainConfig, dtype=np.float32) -> dict:
    """A run's four networks by checkpoint role, initialised from cfg.seed.

    The best snapshot starts as a copy of the teacher's initial parameters,
    not a second draw from the teacher's seed; it shares no memory with the
    teacher.
    """
    t_seed, s_seed, d_seed, _ = run_seeds(cfg.seed)
    gen_spec = GeneratorSpec(base_width=cfg.base_width, width_factor=1.0,
                             num_res_blocks=cfg.num_res_blocks)
    disc_spec = DiscriminatorSpec(num_layers=cfg.disc_layers, base_width=cfg.disc_base_width)
    teacher = build_generator(gen_spec, t_seed, dtype)
    return {
        "teacher_generator": teacher,
        "teacher_discriminator": build_discriminator(disc_spec, d_seed, dtype),
        "student_generator": build_generator(replace(gen_spec, width_factor=cfg.width_factor),
                                             s_seed, dtype),
        "best_snapshot": _copy_module(teacher),
    }


def _keep_freed_heap() -> None:
    """Stop glibc malloc from handing the heap's free top back to the kernel.

    Every training step allocates and frees the same few MB of activations,
    column matrices and gradients, and allocates nothing that outlives it
    (parameters and Adam moments are updated in place).  So the heap's top is
    free at the end of each step; above glibc's trim threshold it goes back to
    the kernel, and the next step takes one page fault per 4 KiB to map it
    again, hundreds per batch-1 headline step.  Setting the trim threshold
    freezes the mmap threshold too (glibc stops adjusting it), so that is set
    to glibc's own dynamic maximum.  Peak RSS does not rise: the memory kept
    mapped is what the next step allocates again.  Without glibc's mallopt
    this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)     # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)    # M_TRIM_THRESHOLD


class Trainer:
    """Owns the models, optimizers and the step logic for one run."""

    def __init__(self, cfg: TrainConfig, dataset, dtype=np.float32):
        cfg.validate()
        _keep_freed_heap()
        self.cfg = cfg
        self.dataset = dataset
        self.dtype = dtype
        self._order_seed = run_seeds(cfg.seed)[3]
        self._nets = nets = build_models(cfg, dtype)
        teacher = nets["teacher_generator"]
        self.state = TeacherState(teacher, nets["teacher_discriminator"], nets["best_snapshot"])
        self.student = nets["student_generator"]
        self.extractor = FeatureExtractor.fixed_random(cfg.extractor_seed, dtype=dtype)
        self.opt_teacher = Adam(teacher.parameters(), cfg.lr0)
        self.opt_disc = Adam(self.state.discriminator.parameters(), cfg.lr0)
        self.opt_student = Adam(self.student.parameters(), cfg.lr0)

    def modules(self) -> dict:
        """The run's networks by checkpoint role, as build_models made them."""
        return dict(self._nets)

    # -- phases -----------------------------------------------------------

    def set_lr(self, lr: float) -> None:
        self.opt_teacher.lr = lr
        self.opt_disc.lr = lr
        self.opt_student.lr = lr

    def _disc_step(self, real: Tensor, fake: Tensor, update: bool) -> Tensor:
        """Discriminator loss on real images and detached fakes; with update,
        one discriminator step on it, otherwise the loss is only reported."""
        disc = self.state.discriminator
        d_loss = discriminator_loss(disc(real, not update), disc(fake.detach(), not update),
                                    self.cfg.gan_mode)
        if update:
            self.opt_disc.zero_grad()
            backward(d_loss)
            self.opt_disc.step()
        return d_loss

    def train_step_teacher(self, batch, step: int = 0) -> dict:
        """Alternating update: discriminator step, then teacher-generator step."""
        cfg = self.cfg
        x_np, y_np = batch
        x = Tensor(x_np)
        y = Tensor(y_np)
        teacher, disc = self.state.generator, self.state.discriminator

        fake = teacher(x)
        d_loss = self._disc_step(y, fake, update=cfg.discriminator_mode != "pretrained_frozen")
        g_loss = generator_adv_loss(disc(fake, frozen=True), cfg.gan_mode)
        if self.dataset.paired:
            g_loss = g_loss + RECON_WEIGHT * tmean(absolute(fake - y))
        self.opt_teacher.zero_grad()
        backward(g_loss)
        self.opt_teacher.step()

        out = {"d_loss_T": d_loss.item(), "g_loss_T": g_loss.item()}
        _check_finite("teacher phase", step, **out)
        return out

    def _distill_target(self, x_np: np.ndarray) -> Tensor:
        """The frozen target output on a [n,c,h,w] batch.

        The live teacher changes every step, so its output is computed afresh.
        The snapshot's output on each image comes from ``state.targets``, and
        a miss runs that image alone.  The map is emptied before it would
        hold more entries than there are training inputs.
        """
        state = self.state
        if self.cfg.distill_from_live:
            return state.generator(Tensor(x_np), frozen=True)
        outs = []
        for img in x_np:
            key = image_key(img)
            out = state.targets.get(key)
            if out is None:
                out = state.best_generator(Tensor(img[None]), frozen=True).data
                if len(state.targets) >= len(self.dataset):
                    state.targets.clear()
                state.targets[key] = out
            outs.append(out)
        return Tensor(np.concatenate(outs))

    def student_losses(self, batch, step: int = 0, fake: Optional[Tensor] = None):
        """Student total loss tensor and its reported components (no update).

        ``fake`` is the student's output on ``batch[0]`` when the caller has
        already run that forward with the current parameters.
        """
        cfg = self.cfg
        # the target forward is a full teacher pass: skip it when no term reads it
        t_out = self._distill_target(batch[0]) if cfg.lambda_crd > 0 or cfg.lambda_per > 0 else None
        if fake is None:
            fake = self.student(Tensor(batch[0]))

        # every term's nodes exist before any is weighted: the backward sums the
        # gradients reaching fake in the order those nodes were made
        terms = dict.fromkeys(("adv_loss_S", "crd_d", "crd_a", "per_loss"))
        if cfg.discriminator_mode != "online_no_discriminator":
            terms["adv_loss_S"] = generator_adv_loss(self.state.discriminator(fake, frozen=True),
                                                     cfg.gan_mode)
        if cfg.lambda_crd > 0:
            rel = relation_for_step(cfg, step)
            terms["crd_d"], terms["crd_a"] = crd_terms(t_out, fake, *cfg.patch, rel,
                                                       angle=rel.lambda_a > 0)
        if cfg.lambda_per > 0:
            terms["per_loss"] = perceptual_loss(t_out, fake, self.extractor)

        # the objective, summed left to right over the terms that ran: adversarial
        # + lambda_crd * (crd_d + lambda_a * crd_a) + lambda_per * perceptual
        summands = [terms["adv_loss_S"]] if terms["adv_loss_S"] is not None else []
        if terms["crd_d"] is not None:
            summands.append(cfg.lambda_crd * crd_combine(terms["crd_d"], terms["crd_a"], rel))
        if terms["per_loss"] is not None:
            summands.append(cfg.lambda_per * terms["per_loss"])
        total = reduce(operator.add, summands) if summands else None

        parts = {name: 0.0 if t is None else t.item()
                 for name, t in {**terms, "total_S": total}.items()}
        return total, parts

    def train_step_student(self, batch, step: int = 0) -> dict:
        """One student update; teacher parameters stay byte-identical except
        in online_always_updating mode, where the discriminator trains here too."""
        fake = None
        if self.cfg.discriminator_mode == "online_always_updating":
            # the D update reads the fake only through detach, so the student
            # loss reuses this forward
            fake = self.student(Tensor(batch[0]))
            self._disc_step(Tensor(batch[1]), fake, update=True)

        total, parts = self.student_losses(batch, step, fake)
        if total is not None:
            self.opt_student.zero_grad()
            backward(total)
            self.opt_student.step()
        _check_finite("student phase", step, **parts)
        return parts

    def teacher_generate(self, x_np: np.ndarray) -> np.ndarray:
        """Live teacher output for a [c,h,w] image or a [n,c,h,w] stack
        (evaluation only; see :func:`generate`)."""
        return generate(self.state.generator, x_np, self.cfg.batch_size)

    def best_generate(self, x_np: np.ndarray) -> np.ndarray:
        return generate(self.state.best_generator, x_np, self.cfg.batch_size)

    def student_generate(self, x_np: np.ndarray) -> np.ndarray:
        return generate(self.student, x_np, self.cfg.batch_size)

    def maybe_update_snapshot(self, val_set, metric: Callable, step: int) -> Optional[bool]:
        """Evaluate the live teacher every interval steps; keep it if better.

        Returns None on a step it does not evaluate, and on one it does, True
        when the snapshot was replaced and False when it was kept.  best_score
        starts at +inf, so the first evaluation always replaces.
        """
        if step % self.cfg.teacher_eval_interval != 0:
            return None
        inputs = val_set[0]
        if len(inputs) == 0:
            raise ValueError("empty validation set")
        score = float(metric(self.teacher_generate, val_set))
        if score < self.state.best_score:
            self.state.replace_snapshot(score)
            return True
        return False


def _pools(dataset) -> dict:
    """The dataset's four pools by field name, in role order: train input, train
    target, val input, val target.  Both dataset classes list them after ``task``."""
    return {f.name: getattr(dataset, f.name) for f in fields(dataset)[1:]}


def _val_sets(dataset):
    return tuple(_pools(dataset).values())[2:]


def _batches(dataset, cfg: TrainConfig, order_seed: int):
    """The run's schedule, (step, epoch, lr, batch) per step: each epoch a seeded
    shuffle cut into whole batches, lr :func:`lr_at` of the step's fractional epoch."""
    count = len(dataset)
    bs = cfg.batch_size
    steps_per_epoch = count // bs
    inputs, targets = tuple(_pools(dataset).values())[:2]
    rng_a = np.random.default_rng(np.random.SeedSequence([order_seed, 0]))
    rng_b = np.random.default_rng(np.random.SeedSequence([order_seed, 1]))
    step = 0
    for epoch in range(cfg.epochs):
        order_a = rng_a.permutation(count)
        order_b = rng_b.permutation(count) if not dataset.paired else order_a
        for start in range(0, count - bs + 1, bs):
            batch = inputs[order_a[start:start + bs]], targets[order_b[start:start + bs]]
            yield step, epoch, lr_at(step / steps_per_epoch, cfg), batch
            step += 1


def _check_dataset(cfg: TrainConfig, dataset) -> None:
    """Reject a dataset that does not fit cfg: pools of [3, image_size, image_size]
    images, at least batch_size training images (or no step runs), 2 per validation pool
    and target pools that line up with their inputs."""
    size = cfg.image_size
    pools = _pools(dataset)
    counts = []
    for role, (name, pool) in enumerate(pools.items()):
        shape = np.shape(pool)
        if shape[1:] != (3, size, size):
            raise ValueError(f"dataset pool {name} has shape {shape}, but image_size {size} "
                             f"needs a stack of [3, {size}, {size}] images")
        if role >= 2 and shape[0] < 2:                  # the validation input and target
            raise ValueError(f"dataset pool {name} holds {shape[0]} images; validation needs >= 2")
        counts.append(shape[0])
    a, b, val_a, val_b = counts
    if ((b, val_b) != (a, val_a)) if dataset.paired else b < a:
        raise ValueError(f"dataset pools {dict(zip(pools, counts))} do not line up: a paired "
                         f"target pool needs one image per input, an unpaired train_b at "
                         f"least as many images as train_a")
    if len(dataset) < cfg.batch_size:
        raise ValueError(f"the training pool holds {len(dataset)} images, fewer than "
                         f"batch_size {cfg.batch_size}: no step would run")


def _write_samples(trainer: Trainer, dataset, path) -> None:
    val = _val_sets(dataset)
    take = min(4, len(val[0]))
    inputs = val[0][:take]
    rows = [list(inputs), list(trainer.best_generate(inputs)),
            list(trainer.student_generate(inputs))]
    if dataset.paired:
        rows.append(list(val[1][:take]))
    ppm.write_ppm(path, ppm.image_grid(rows))


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def train(cfg: TrainConfig, dataset, out_dir) -> dict:
    """Full training loop; writes config copy, metrics CSV, checkpoints and
    sample grids into out_dir.  Deterministic given cfg.seed.  An invalid
    config, a dataset that does not fit it, or an out_dir that already holds
    a run, is rejected before anything is written."""
    cfg.validate()
    _check_dataset(cfg, dataset)
    out_dir = Path(out_dir)
    for name in ("metrics.csv", "config.cfg"):
        if (out_dir / name).exists():
            raise FileExistsError(f"{out_dir} already holds a run ({name}); "
                                  f"train into a fresh directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config(cfg, out_dir / "config.cfg")

    trainer = Trainer(cfg, dataset)
    if cfg.discriminator_mode.startswith("pretrained"):
        _pretrain_discriminator(trainer, dataset)

    metric = paired_l2_metric if dataset.paired else make_frechet_metric(trainer.extractor)
    val_set = _val_sets(dataset)
    samples_dir = out_dir / "samples"
    samples_dir.mkdir(exist_ok=True)

    csv_path = out_dir / "metrics.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        sampled_epoch = -1
        for step, epoch, lr, batch in _batches(dataset, cfg, trainer._order_seed):
            trainer.set_lr(lr)
            t_losses = trainer.train_step_teacher(batch, step)
            s_losses = trainer.train_step_student(batch, step)
            replaced = trainer.maybe_update_snapshot(val_set, metric, step)
            evaluated = replaced is not None
            cells = {"epoch": str(epoch), "step": str(step), "lr": _fmt(lr),
                     "val_metric": _fmt(trainer.state.best_score) if evaluated else "",
                     "snapshot_replaced": str(int(replaced)) if evaluated else ""}
            cells.update((k, _fmt(v)) for k, v in {**t_losses, **s_losses}.items())
            fh.write(",".join(cells[name] for name in CSV_HEADER.split(",")) + "\n")
            # a grid at the first step of every sample_every-th epoch
            if cfg.sample_every and epoch % cfg.sample_every == 0 and epoch != sampled_epoch:
                _write_samples(trainer, dataset, samples_dir / f"step_{step:06d}.ppm")
                sampled_epoch = epoch

    _write_samples(trainer, dataset, samples_dir / "final.ppm")
    save_checkpoint(out_dir / "checkpoints", trainer.modules())

    student_score = float(metric(trainer.student_generate, val_set))
    report = {
        "steps": step + 1,
        "teacher_best_score": trainer.state.best_score,
        "student_val_metric": student_score,
        "out_dir": str(out_dir),
        "metrics_csv": str(csv_path),
    }
    return report


def _pretrain_discriminator(trainer: Trainer, dataset) -> None:
    """Train a throwaway (teacher, D) pair over the full schedule and give
    its D to trainer; trainer's generators and optimizers stay fresh."""
    cfg = trainer.cfg
    pre = Trainer(replace(cfg, discriminator_mode="pretrained_updating"), dataset, trainer.dtype)
    for step, _, lr, batch in _batches(dataset, cfg, _derive_seed(pre._order_seed, 0x5EED)):
        pre.set_lr(lr)
        pre.train_step_teacher(batch, step)
    trainer.state.discriminator.flat[...] = pre.state.discriminator.flat
