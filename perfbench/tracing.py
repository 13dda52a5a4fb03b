"""Spans around crdgan's public functions, recorded from outside the program.

``Tracer.install`` rebinds each traced function in every crdgan module that
imported it (and each traced method on its class) to a wrapper that opens a
span, calls the original and closes the span; ``uninstall`` puts the
originals back.  The program's source is not touched.

Backward passes are split by layer: the wrapper around ``autodiff._result``
tags every graph node with the innermost span open when the node was made,
and wraps the node's backward closure so its time is charged to that layer
when ``backward`` replays it.  A layer's self time is its spans' duration
minus the time of the spans (and attributed backward closures) nested in it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

import crdgan
from crdgan import autodiff, datasets, metrics, models, perceptual, relations, slicing, training

_now = time.perf_counter_ns

# owner, attribute, span key charged with forward self time, key charged with
# the backward closures of graph nodes made inside the span (None: the phase
# owns no layer, so its nodes count as autodiff engine time).
TRACED = (
    (training.Trainer, "train_step_teacher", "training.teacher_phase", None),
    (training.Trainer, "train_step_student", "training.student_phase", None),
    (training.Trainer, "maybe_update_snapshot", "training.snapshot_check", None),
    (autodiff, "backward", "autodiff.backward", None),
    (autodiff, "conv2d", "autodiff.conv2d_fwd", "autodiff.conv2d_bwd"),
    (models.ResnetGenerator, "__call__", "models.generator_fwd", "models.generator_bwd"),
    (models.PatchDiscriminator, "__call__", "models.discriminator_fwd",
     "models.discriminator_bwd"),
    (models.Adam, "step", "models.adam_step", None),
    (models, "save_checkpoint", "tensor_io.checkpoint_save", None),
    (models, "load_checkpoint", "tensor_io.checkpoint_load", None),
    (relations, "crd_loss", "relations.crd_loss", "relations.crd_loss"),
    (relations, "crd_distance_loss", "relations.crd_distance", "relations.crd_distance"),
    (relations, "crd_angle_loss", "relations.crd_angle", "relations.crd_angle"),
    (slicing, "split", "slicing.split", "slicing.split"),
    (perceptual, "perceptual_loss", "perceptual.loss", "perceptual.loss"),
    (metrics, "frechet_between", "metrics.frechet", None),
    (datasets, "generate_dataset", "datasets.generate", None),
)
ENGINE_KEY = "autodiff.backward"
COUNTERS = ("ops", "f64_results", "tuples", "split_calls")


class Tracer:
    """Spans, per-layer self time and per-operation counts for one run.

    The benchmark marks each operation (a set-up, a training step, an eval
    pass, a gradient check) with ``begin_op`` / ``end_op``; spans carry the
    operation's id, and self time is summed per (operation kind, key).
    """

    def __init__(self):
        self.spans = []
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.op_counts = defaultdict(list)
        self._stack = []
        self._patches = []
        self._next_id = 0
        self._kind = "none"
        self._op = "none"
        self._counts = dict.fromkeys(COUNTERS, 0)

    # -- operations -------------------------------------------------------

    def begin_op(self, kind: str, index: int) -> None:
        self._kind = kind
        self._op = f"{kind}:{index}"
        self._counts = dict.fromkeys(COUNTERS, 0)

    def end_op(self) -> None:
        self.op_counts[self._kind].append(self._counts)
        self._kind = self._op = "none"

    # -- spans ------------------------------------------------------------

    def _open(self, key, bwd_key) -> None:
        # frame: id, parent id, key, backward key, child ns, backward ns by layer, start
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append([self._next_id, parent, key, bwd_key, 0, None, _now()])

    def _close(self, label=None) -> None:
        end = _now()
        span_id, parent, key, _, child_ns, by_layer, start = self._stack.pop()
        key = label or key
        dur = end - start
        if self._stack:
            self._stack[-1][4] += dur
        scope = (self._kind, key)
        self.self_ns[scope] += dur - child_ns
        self.total_ns[scope] += dur
        self.calls[scope] += 1
        record = {"id": span_id, "parent": parent, "name": key, "op": self._op,
                  "start_ns": start, "end_ns": end}
        if by_layer:
            record["backward_ns_by_layer"] = by_layer
        self.spans.append(record)

    def _wrap(self, fn, key, bwd_key):
        tracer = self

        def traced(*args, **kwargs):
            if key == "slicing.split":
                tracer._counts["split_calls"] += 1
            tracer._open(key, bwd_key)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(tracer._label(key, args))

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _label(key, args):
        # maybe_update_snapshot(val_set, metric, step) only evaluates on
        # every teacher_eval_interval-th step; those calls are their own span.
        if key == "training.snapshot_check":
            trainer, step = args[0], args[3]
            if step % trainer.cfg.teacher_eval_interval == 0:
                return "training.snapshot_eval"
        return None

    def _timed_backward(self, fn, bwd_key):
        tracer = self

        def replay(g):
            start = _now()
            fn(g)
            dur = _now() - start
            tracer.self_ns[(tracer._kind, bwd_key)] += dur
            if tracer._stack:
                frame = tracer._stack[-1]
                frame[4] += dur
                if frame[5] is None:
                    frame[5] = defaultdict(int)
                frame[5][bwd_key] += dur

        return replay

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        modules = _crdgan_modules()
        for owner, attr, key, bwd_key in TRACED:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, key, bwd_key)
            self._rebind(modules, owner, attr, original, wrapper)
        self._rebind(modules, autodiff, "_result", autodiff._result,
                     self._wrap_result(autodiff._result))
        self._rebind(modules, relations, "sample_tuples", relations.sample_tuples,
                     self._wrap_sample_tuples(relations.sample_tuples))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _rebind(self, modules, owner, attr, original, wrapper):
        targets = [owner] if isinstance(owner, type) else \
            [m for m in modules if m.__dict__.get(attr) is original]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def _wrap_result(self, original):
        tracer = self

        def _result(data, op, parents, backward_fn):
            out = original(data, op, parents, backward_fn)
            counts = tracer._counts
            counts["ops"] += 1
            if out.data.dtype == np.float64:
                counts["f64_results"] += 1
            if out._backward_fn is not None:
                bwd_key = tracer._stack[-1][3] if tracer._stack else None
                out._backward_fn = tracer._timed_backward(out._backward_fn,
                                                          bwd_key or ENGINE_KEY)
            return out

        return _result

    def _wrap_sample_tuples(self, original):
        tracer = self

        def sample_tuples(count, arity, budget, seed):
            out = original(count, arity, budget, seed)
            tracer._counts["tuples"] += len(out)
            return out

        return sample_tuples

    # -- results ----------------------------------------------------------

    def per_op_ms(self, kind: str, key: str, inclusive: bool = False) -> float:
        ops = len(self.op_counts[kind])
        table = self.total_ns if inclusive else self.self_ns
        return table[(kind, key)] / ops / 1e6 if ops else 0.0

    def per_call_ms(self, key: str) -> float:
        calls = sum(v for (_, k), v in self.calls.items() if k == key)
        total = sum(v for (_, k), v in self.self_ns.items() if k == key)
        return total / calls / 1e6 if calls else 0.0

    def per_call_total_ms(self, key: str) -> float:
        calls = sum(v for (_, k), v in self.calls.items() if k == key)
        total = sum(v for (_, k), v in self.total_ns.items() if k == key)
        return total / calls / 1e6 if calls else 0.0

    def median_count(self, kind: str, counter: str) -> float:
        values = [c[counter] for c in self.op_counts[kind]]
        return float(np.median(values)) if values else 0.0

    def self_time_table(self) -> dict:
        """Self time in ms per operation kind and span key."""
        out = defaultdict(dict)
        for (kind, key), ns in sorted(self.self_ns.items()):
            out[kind][key] = ns / 1e6
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _crdgan_modules():
    prefix = crdgan.__name__
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == prefix or name.startswith(prefix + "."))]
