"""crdgan benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload distill_invert --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run it from the repository root.  The program is imported from ``src/`` of
the same checkout.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (from a traced run) with
``--trace 1``.  Run artifacts go to ``perfbench/out/<workload>-seed<seed>/``.
See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_images_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "eval_s": "s",
    "gradcheck_s": "s",
    "peak_rss_mb": "MB",
}


def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import crdgan
    except ImportError as exc:
        sys.exit(f"error: cannot import crdgan from {SRC}: {exc}")
    if Path(crdgan.__file__).resolve().parent != (SRC / "crdgan").resolve():
        sys.exit(f"error: crdgan was imported from {crdgan.__file__}, not from {SRC}")


_import_program()

from calibration import kernel_seconds, reference_seconds  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    GC_TOL, WORKLOADS, CheckFailed, gradcheck_inputs, gradient_check, require,
)

_clock = time.perf_counter


def per_layer_metrics(tracer: Tracer, overhead_pct: float, checkpoint_bytes: int) -> list:
    """(name, unit, value) for every per-layer metric of a traced run.

    ``_ms`` values are self time per loop operation (a training step or a
    gradient check), except the ones the README marks as per call.
    """
    step = tracer.per_op_ms
    count = tracer.median_count
    return [
        ("training.teacher_phase_ms", "ms", step("step", "training.teacher_phase", True)),
        ("training.student_phase_ms", "ms", step("step", "training.student_phase", True)),
        ("training.snapshot_eval_ms", "ms", tracer.per_call_total_ms("training.snapshot_eval")),
        ("autodiff.backward_ms", "ms", step("step", "autodiff.backward")),
        ("autodiff.conv2d_fwd_ms", "ms", step("step", "autodiff.conv2d_fwd")),
        ("autodiff.conv2d_bwd_ms", "ms", step("step", "autodiff.conv2d_bwd")),
        ("autodiff.ops_per_step", "count", count("step", "ops")),
        ("autodiff.f64_results_per_step", "count", count("step", "f64_results")),
        ("models.generator_fwd_ms", "ms", step("step", "models.generator_fwd")),
        ("models.generator_bwd_ms", "ms", step("step", "models.generator_bwd")),
        ("models.discriminator_fwd_ms", "ms", step("step", "models.discriminator_fwd")),
        ("models.discriminator_bwd_ms", "ms", step("step", "models.discriminator_bwd")),
        ("models.adam_step_ms", "ms", step("step", "models.adam_step")),
        ("relations.crd_distance_ms", "ms", step("step", "relations.crd_distance")),
        ("relations.crd_angle_ms", "ms", step("step", "relations.crd_angle")),
        ("relations.crd_loss_fwd_ms", "ms", step("step", "relations.crd_loss", True)),
        ("relations.tuples_per_step", "count", count("step", "tuples")),
        ("slicing.split_calls_per_step", "count", count("step", "split_calls")),
        ("slicing.split_ms", "ms", step("step", "slicing.split")),
        ("perceptual.loss_ms", "ms", step("step", "perceptual.loss")),
        ("metrics.frechet_ms", "ms", tracer.per_call_ms("metrics.frechet")),
        ("tensor_io.checkpoint_save_ms", "ms", tracer.per_call_ms("tensor_io.checkpoint_save")),
        ("tensor_io.checkpoint_load_ms", "ms", tracer.per_call_ms("tensor_io.checkpoint_load")),
        ("tensor_io.checkpoint_bytes", "bytes", float(checkpoint_bytes)),
        ("datasets.generate_ms", "ms", tracer.per_call_ms("datasets.generate")),
        ("trace.overhead_pct", "%", overhead_pct),
    ]


class Ledger:
    """Counts attempted and failed operations and collects check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.tracer = None

    def op(self, kind: str, index: int, fn, *args):
        """Run one operation; None when it failed or its check did not hold."""
        self.attempted += 1
        if self.tracer:
            self.tracer.begin_op(kind, index)
        try:
            return fn(*args)
        except CheckFailed as exc:
            self.problems.append(str(exc))
        except Exception:  # an operation that raises is a failed operation
            self.failed += 1
            traceback.print_exc()
        finally:
            if self.tracer:
                self.tracer.end_op()
        return None

    def check(self, fn) -> None:
        try:
            fn()
        except CheckFailed as exc:
            self.problems.append(str(exc))
        except Exception as exc:
            traceback.print_exc()
            self.problems.append(f"check raised {exc!r}")


def _gradient_check_op(t_img, s_img) -> float:
    start = _clock()
    _, err = gradient_check(t_img, s_img)
    elapsed = _clock() - start
    require(err <= GC_TOL, f"gradient check: relative error {err:.3e} > {GC_TOL}")
    return elapsed


def _timed(fn, *args):
    def call():
        start = _clock()
        fn(*args)
        return _clock() - start
    return call


def _fingerprint() -> str:
    """Hash of what a run's bytes depend on besides the seed: the program and
    benchmark sources, numpy, and the BLAS thread settings (summation order
    in a threaded matmul follows the thread count)."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted(list((SRC / "crdgan").rglob("*.py")) + list(HERE.glob("*.py"))):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    blas = [os.environ.get(k, "") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
    digest.update(repr((numpy.__version__, blas, len(os.sched_getaffinity(0)))).encode())
    return digest.hexdigest()


def _check_reproducible(name: str, seed: int, csv_text: str, replay_text: str) -> None:
    """Same seed, same bytes: within this run, and against the first run of
    this seed on the same sources (kept under perfbench/out/reference/)."""
    sha = hashlib.sha256(csv_text.encode()).hexdigest()
    require(hashlib.sha256(replay_text.encode()).hexdigest() == sha,
            "a second set-up with the same seed wrote a different metrics.csv")
    ref_path = OUT / "reference" / f"{name}-seed{seed}.json"
    fingerprint = _fingerprint()
    if ref_path.exists():
        ref = json.loads(ref_path.read_text())
        if ref["fingerprint"] == fingerprint:
            require(ref["sha256"] == sha,
                    f"metrics.csv differs from an earlier run with seed {seed} ({ref_path})")
            return
    ref_path.parent.mkdir(parents=True, exist_ok=True)
    ref_path.write_text(json.dumps({"fingerprint": fingerprint, "sha256": sha}) + "\n")


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = OUT / f"{workload.name}-seed{seed}"
    if run_dir.exists():
        for path in sorted(run_dir.rglob("*"), reverse=True):
            path.rmdir() if path.is_dir() else path.unlink()
    run_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    ledger = Ledger()
    # (raw seconds, speed scale) per operation kind; see calibration.py
    samples = {"setup": [], "step": [], "traced_step": [], "eval": [], "gradcheck": []}
    pending = []

    def close_round(kernel_before: float) -> float:
        kernel_after = kernel_seconds(workload.kernel_parts)
        scale = reference_seconds(workload.kernel_parts) / (0.5 * (kernel_before + kernel_after))
        for kind, raw in pending:
            samples[kind].append((raw, scale))
        pending.clear()
        return kernel_after

    def set_up(index):
        if tracer:
            tracer.begin_op("setup", index)
        start = _clock()
        made = workload.setup(seed)
        pending.append(("setup", _clock() - start))
        if tracer:
            tracer.end_op()
        return made

    # the measured set-up; one more set-up closes every round below, and the
    # first of those (untouched) replays the metrics.csv steps at the end
    if tracer:
        tracer.install()
    kernel = kernel_seconds(workload.kernel_parts)
    run = set_up(0)
    replay = None

    # closed loop in whole rounds: round_steps steps, one eval pass,
    # round_gradchecks gradient checks and one set-up, so that every kind of
    # operation samples the whole run; each operation starts when the
    # previous one has ended, and the reference kernel runs between rounds
    gc_pool = gradcheck_inputs(seed, 4) if workload.round_gradchecks else []
    index = rounds = 0
    deadline = _clock() + seconds
    # a traced run leaves every third round untraced, as the overhead's
    # baseline (thirds, not halves, so that every-50th-step snapshot checks
    # do not all land in untraced rounds)
    while (_clock() < deadline or (tracer and rounds < 2)) and not ledger.failed:
        step_kind = "step"
        if tracer:
            traced = rounds % 3 != 0
            tracer.install() if traced else tracer.uninstall()
            ledger.tracer = tracer if traced else None
            step_kind = "traced_step" if traced else "step"
        for _ in range(workload.round_steps):
            elapsed = ledger.op("step", index, run.step, index)
            if elapsed is not None:
                pending.append((step_kind, elapsed))
            index += 1
        elapsed = ledger.op("eval", rounds, _timed(run.eval_pass, run_dir))
        if elapsed is not None:
            pending.append(("eval", elapsed))
        for i in range(workload.round_gradchecks):
            t_img, s_img = gc_pool[(rounds * workload.round_gradchecks + i) % len(gc_pool)]
            elapsed = ledger.op("gradcheck", rounds, _gradient_check_op, t_img, s_img)
            if elapsed is not None:
                pending.append(("gradcheck", elapsed))
        made = set_up(rounds + 1)
        replay = replay or made
        kernel = close_round(kernel)
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        ledger.tracer = None

    # reproducibility and correctness, after everything timed
    for i in range(workload.csv_steps):
        ledger.op("replay", i, replay.step, i)
    csv_text = "\n".join(run.rows[:workload.csv_steps + 1]) + "\n"
    (run_dir / "metrics.csv").write_text(csv_text)
    ledger.check(lambda: _check_reproducible(workload.name, seed, csv_text,
                                             "\n".join(replay.rows) + "\n"))
    if samples["eval"]:
        ledger.check(run.final_checks)

    def scaled(kind):
        return [raw * scale for raw, scale in samples[kind]]

    if tracer:
        overhead = 100.0 * (statistics.median(scaled("traced_step"))
                            / statistics.median(scaled("step")) - 1.0)
        layers = per_layer_metrics(tracer, overhead, run.checkpoint_bytes())
        span_file = run_dir / "spans.jsonl"
        tracer.write_spans(span_file)
        (run_dir / "layers.json").write_text(json.dumps({
            "workload": workload.name, "seed": seed, "seconds": seconds,
            "traced_steps": len(samples["traced_step"]), "untraced_steps": len(samples["step"]),
            "overhead_pct": overhead,
            "span_file": str(span_file.relative_to(ROOT)),
            "metrics": [{"name": n, "unit": u, "workload": workload.name, "value": v}
                        for n, u, v in layers],
            "self_ms_by_operation_kind": tracer.self_time_table(),
        }, indent=1) + "\n")
        reported = {n: (v, u) for n, u, v in layers}
        raw_values = {}
    else:
        gc_kind = "gradcheck" if workload.round_gradchecks else "step"
        values, raw_values = ({
            "setup_s": statistics.median(times("setup")),
            "train_images_per_s": run.images_per_op * len(times("step")) / sum(times("step")),
            "step_ms_p50": 1e3 * statistics.median(times("step")),
            "step_ms_tail": 1e3 * _percentile(times("step"), workload.tail_pct),
            "eval_s": statistics.mean(times("eval")),
            "gradcheck_s": statistics.mean(times(gc_kind)),
            "peak_rss_mb": peak_rss_mb,
        } for times in (scaled, lambda kind: [raw for raw, _ in samples[kind]]))
        reported = {n: (v, END_TO_END_UNITS[n]) for n, v in values.items()}
        steps = len(samples["step"])
        print(f"# {workload.name}: {steps} steps, {rounds} rounds, tail = p{workload.tail_pct:g} "
              f"({int(steps * (1 - workload.tail_pct / 100))} steps beyond it); "
              f"median speed scale {statistics.median(s for _, s in samples['step']):.4f}")
        for name, value in raw_values.items():
            print(f"# raw {workload.name} {name} {value!r} {END_TO_END_UNITS[name]}")

    for problem in ledger.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in reported.items():
        print(f"{workload.name} {name} {value!r} {unit}")
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in reported.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(dict(result, raw=raw_values), indent=1) + "\n")
    return result


def _percentile(values, pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_all(args) -> int:
    """Every workload in turn, each in its own process (so peak RSS is its own)."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
