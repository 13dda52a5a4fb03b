"""Command-line entry point: train, eval, slice, gradcheck, bench.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from .autodiff import Tensor, _check_gradient, backward, tmean
from .config import ConfigError, TrainConfig, _budget, parse_config, parse_patch
from .datasets import TASK_KINDS, SyntheticTask, generate_dataset
from .models import Adam, load_checkpoint
from .perceptual import FeatureExtractor, perceptual_loss
from .relations import RelationConfig, crd_loss, sample_tuples
from . import slicing, tensor_io, training


def _int_at_least(low: int, kind: str):
    """argparse type for an int of at least low: sizes and counts 1, seeds 0, budgets 0 (full)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} int, got {value}")
        return value
    return parse


GRADCHECK_SIZE, GRADCHECK_PATCH = 8, 4       # `gradcheck`'s default image side and patch

_positive_int = _int_at_least(1, "positive")
_nonneg_int = _int_at_least(0, "non-negative")


def _patch_dims(text: str) -> tuple:
    """argparse type for ``slice --patch``: a :func:`parse_patch` spec of positive dims."""
    try:
        n, m = parse_patch(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if n < 1 or m < 1:
        raise argparse.ArgumentTypeError(f"patch dims must be positive, got {text!r}")
    return n, m


def _positive_float(text: str) -> float:
    """argparse type for tolerances: a finite float above 0 (a NaN or inf bound passes anything)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive float, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crdgan",
                                     description="content-relationship GAN distillation engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run teacher/student distillation")
    p_train.add_argument("--config", required=True, help="flat key=value config file")
    p_train.add_argument("--task", required=True, choices=TASK_KINDS)
    p_train.add_argument("--out", required=True, help="fresh run directory")
    p_train.add_argument("--seed", type=_nonneg_int, default=None, help="override config seed")

    p_eval = sub.add_parser("eval", help="evaluate a finished run's checkpoints")
    p_eval.add_argument("--run", required=True, help="run directory from train")
    p_eval.add_argument("--task", required=True, choices=TASK_KINDS)

    p_slice = sub.add_parser("slice", help="dump content sets of a tensor-file image")
    p_slice.add_argument("--input", required=True, help="image as a .crdt tensor file")
    p_slice.add_argument("--out", required=True)
    p_slice.add_argument("--granularity", default="all",
                         choices=("all",) + slicing.GRANULARITIES)
    p_slice.add_argument("--patch", type=_patch_dims, default="8,8",
                         help="patch dims: n, n,m or nxm")

    p_grad = sub.add_parser("gradcheck", help="check loss gradients against finite differences")
    p_grad.add_argument("--size", type=_positive_int, default=GRADCHECK_SIZE)
    p_grad.add_argument("--patch", type=_positive_int, default=GRADCHECK_PATCH)
    p_grad.add_argument("--seed", type=_nonneg_int, default=0)
    p_grad.add_argument("--budget", type=_nonneg_int, default=0, help="triplet budget, 0 = full")
    p_grad.add_argument("--tol", type=_positive_float, default=1e-4)

    p_bench = sub.add_parser("bench", help="tuple sampling, loss, generator, discriminator, "
                                           "Adam and perceptual forward/backward throughput, "
                                           "and a run's set-up")
    p_bench.add_argument("--size", type=_positive_int, default=32)
    p_bench.add_argument("--budget", type=_nonneg_int, default=0, help="triplet budget, 0 = full")
    p_bench.add_argument("--patch", type=_positive_int, default=8)
    p_bench.add_argument("--iters", type=_positive_int, default=5)
    p_bench.add_argument("--seed", type=_nonneg_int, default=0)
    return parser


def _dataset(cfg: TrainConfig, kind: str):
    """The synthetic dataset of task kind at cfg's image size, pool counts and seed."""
    return generate_dataset(SyntheticTask(kind, cfg.image_size, cfg.train_count,
                                          cfg.val_count, cfg.seed))


def _cmd_train(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.validate()
    report = training.train(cfg, _dataset(cfg, args.task), args.out)
    for key in ("steps", "teacher_best_score", "student_val_metric", "out_dir"):
        print(f"{key},{report[key]}")
    return 0


def _cmd_eval(args) -> int:
    run_dir = Path(args.run)
    cfg = parse_config(run_dir / "config.cfg")
    dataset = _dataset(cfg, args.task)

    nets = training.build_models(cfg)
    load_checkpoint(run_dir / "checkpoints", nets)
    extractor = FeatureExtractor.fixed_random(cfg.extractor_seed, dtype=np.float32)

    # train's metric functions; each model's outputs are generated once and read by both
    val_set = training._val_sets(dataset)
    scores = [("val_l2", training.paired_l2_metric)] if dataset.paired else []
    scores.append(("frechet", training.make_frechet_metric(extractor)))
    lines = []
    for name, model in (("teacher", nets["best_snapshot"]),
                        ("student", nets["student_generator"])):
        outs = training.generate(model, val_set[0], cfg.batch_size)
        lines += [(f"{name}_{key}", metric(lambda _: outs, val_set)) for key, metric in scores]

    eval_csv = run_dir / "eval.csv"
    with open(eval_csv, "a") as fh:
        for key, value in lines:
            print(f"{key},{value:.9g}")
            fh.write(f"{key},{value:.9g}\n")
    return 0


def _cmd_slice(args) -> int:
    img = tensor_io.load_tensor(args.input)
    if img.ndim != 3:
        raise ValueError(f"slice needs a [c,h,w] tensor file, got shape {img.shape}")
    n, m = args.patch
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    grans = slicing.GRANULARITIES if args.granularity == "all" else (args.granularity,)
    manifest_lines = []
    t = Tensor(img)
    for g in grans:
        cset = slicing.split(t, g, (n, m) if g == slicing.PATCH else None)
        for i in range(len(cset)):
            item = cset.item(i)
            tensor_io.save_tensor(out_dir / f"{g}_{i:04d}.crdt", item)
            manifest_lines.append(f"{g},{i},{item.size}")
    (out_dir / "manifest.txt").write_text("\n".join(manifest_lines) + "\n")
    print(f"wrote {len(manifest_lines)} items to {out_dir}")
    return 0


def _gradcheck_case(size: int, patch: int, seed: int, budget) -> tuple:
    """`gradcheck`'s float64 crd_loss of a seeded teacher image, and the student image."""
    rng = np.random.default_rng(seed)
    cfg = RelationConfig(triplet_budget=budget, seed=seed)
    teacher = Tensor(rng.uniform(-1, 1, (1, size, size)))

    def loss_fn(x: Tensor) -> Tensor:
        return crd_loss(teacher, x, patch, patch, cfg)

    return loss_fn, Tensor(rng.uniform(-1, 1, (1, size, size)))


def _cmd_gradcheck(args) -> int:
    s = args.size
    if s % args.patch:
        raise ValueError(f"--size {s} must be divisible by --patch {args.patch}")
    loss_fn, student = _gradcheck_case(s, args.patch, args.seed, _budget(args.budget))
    value, flat_a, flat_n, err, worst = _check_gradient(loss_fn, student)
    print(f"loss,{value:.9g}")
    print(f"max_rel_error,{err:.3e}")
    print(f"worst_coordinate,{worst}")
    print(f"worst_analytic,{flat_a[worst]:.9e}")
    print(f"worst_numeric,{flat_n[worst]:.9e}")
    if err > args.tol:
        print(f"FAIL: relative error {err:.3e} exceeds tolerance {args.tol:.1e}")
        return 1
    print("PASS")
    return 0


def _median_ms(fn, iters: int, setup=None) -> float:
    """Median wall time in ms of iters calls of fn, after one untimed call;
    setup, when given, runs untimed before every call."""
    def once() -> float:
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    once()
    return statistics.median([once() for _ in range(iters)]) * 1000


def _cmd_bench(args) -> int:
    s = args.size
    n, m = args.patch, args.patch
    budget = _budget(args.budget)
    cfg = RelationConfig(triplet_budget=budget, seed=args.seed)
    run_cfg = TrainConfig(image_size=s, base_width=16, num_res_blocks=2, disc_base_width=16,
                          patch=(n, m), seed=args.seed)

    # a run's set-up at the headline config: the shapes task's four pools, timed first,
    # under glibc's default malloc as `train` generates them; then the malloc settings
    # of a Trainer, which every later figure, the Trainer's own included, runs under
    dataset = _dataset(run_cfg, "shapes")
    dataset_ms = _median_ms(lambda: generate_dataset(dataset.task), args.iters)
    training._keep_freed_heap()

    rng = np.random.default_rng(args.seed)
    student = Tensor(rng.uniform(-1, 1, (3, s, s)).astype(np.float32))
    # two teachers in turn, so that every timed crd_loss relates both sides: a
    # repeated constant teacher would be served from the relation pass's memo
    teachers = itertools.cycle([Tensor(rng.uniform(-1, 1, (3, s, s)).astype(np.float32))
                                for _ in range(2)])

    counts = [slicing.layout((3, s, s), g, (n, m) if g == slicing.PATCH else None)[2][0]
              for g in slicing.GRANULARITIES]           # columns, rows, patches
    pairs_evaluated = sum(len(sample_tuples(c, 2, cfg.pair_budget, args.seed)) for c in counts)
    triples_evaluated = sum(len(sample_tuples(c, 3, budget, args.seed)) for c in counts)

    def sample() -> None:
        for count in counts:                            # one step's triple draws
            sample_tuples(count, 3, budget, args.seed)

    sample_ms = _median_ms(sample, args.iters)
    loss_ms = _median_ms(lambda: crd_loss(next(teachers), student, n, m, cfg), args.iters)

    trainable = Tensor(student.data, requires_grad=True)

    def loss_fwd_bwd() -> None:
        trainable.zero_grad()
        backward(crd_loss(next(teachers), trainable, n, m, cfg))

    loss_fwd_bwd_ms = _median_ms(loss_fwd_bwd, args.iters)

    # one whole gradient check at `gradcheck`'s defaults: full enumeration, float64
    gc_loss, gc_student = _gradcheck_case(GRADCHECK_SIZE, GRADCHECK_PATCH, args.seed, None)
    gradcheck_ms = _median_ms(lambda: _check_gradient(gc_loss, gc_student), args.iters)

    # the headline teacher generator and discriminator, forward plus backward on one image
    image = Tensor(rng.uniform(-1, 1, (3, s, s)).astype(np.float32))
    nets = training.build_models(run_cfg)
    generator, discriminator = nets["teacher_generator"], nets["teacher_discriminator"]
    student = nets["student_generator"]

    def fwd_bwd(net) -> None:
        net.zero_grad()
        backward(tmean(net(image)))

    generator_fwd_bwd_ms = _median_ms(lambda: fwd_bwd(generator), args.iters)
    # nominally three GEMMs of 2*MACs flops each: forward, input and kernel gradient
    generator_gflops = 6 * generator.mac_count(s, s) / (generator_fwd_bwd_ms * 1e6)
    discriminator_fwd_bwd_ms = _median_ms(lambda: fwd_bwd(discriminator), args.iters)

    # a training step's Adam steps: one each for the teacher, the discriminator and the student
    trained = (generator, discriminator, student)
    optimizers = [Adam(net.parameters(), 2e-4) for net in trained]

    def backward_all() -> None:
        for net in trained:
            fwd_bwd(net)

    def adam_steps() -> None:
        for opt in optimizers:
            opt.step()

    adam_step_ms = _median_ms(adam_steps, args.iters, setup=backward_all)

    # the perceptual term on a batch of 4 images with the default extractor widths
    extractor = FeatureExtractor.fixed_random(args.seed, dtype=np.float32)
    t_batch = Tensor(rng.uniform(-1, 1, (4, 3, s, s)).astype(np.float32))
    s_batch = Tensor(rng.uniform(-1, 1, (4, 3, s, s)).astype(np.float32), requires_grad=True)

    def perceptual_fwd_bwd() -> None:
        s_batch.zero_grad()
        backward(perceptual_loss(t_batch, s_batch, extractor))

    perceptual_fwd_bwd_ms = _median_ms(perceptual_fwd_bwd, args.iters)

    # the rest of a run's set-up: a Trainer at the headline config on that dataset
    trainer_ms = _median_ms(lambda: training.Trainer(run_cfg, dataset), args.iters)

    print(f"image_size,{s}")
    print(f"triplet_budget,{args.budget}")
    print(f"pairs_evaluated,{pairs_evaluated}")
    print(f"triples_evaluated,{triples_evaluated}")
    print(f"tuple_sampling_ms,{sample_ms:.3f}")
    print(f"crd_loss_ms,{loss_ms:.3f}")
    print(f"crd_loss_fwd_bwd_ms,{loss_fwd_bwd_ms:.3f}")
    print(f"crd_gradcheck_ms,{gradcheck_ms:.3f}")
    print(f"tuples_per_second,{(pairs_evaluated + triples_evaluated) / (loss_ms / 1000):.0f}")
    print(f"generator_fwd_bwd_ms,{generator_fwd_bwd_ms:.3f}")
    print(f"generator_gflops,{generator_gflops:.3f}")
    print(f"discriminator_fwd_bwd_ms,{discriminator_fwd_bwd_ms:.3f}")
    print(f"adam_step_ms,{adam_step_ms:.3f}")
    print(f"dataset_ms,{dataset_ms:.3f}")
    print(f"trainer_ms,{trainer_ms:.3f}")
    print(f"perceptual_fwd_bwd_ms,{perceptual_fwd_bwd_ms:.3f}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "slice": _cmd_slice,
    "gradcheck": _cmd_gradcheck,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The ``crdgan`` console script and ``python -m crdgan``."""
    raise SystemExit(main(sys.argv[1:]))
