"""Feature and style matching over a fixed, non-trainable extractor.

The default extractor is a seeded random four-layer stride-2 3x3 conv net
(LeakyReLU of autodiff's LEAKY_SLOPE, widths 16/32/64/64) tapped after every
layer.  Random features keep the loss structure intact without external
weight files; real weights can be swapped in from a directory of tensor
files.  Weights are given and stored as [Cout,Cin,k,k] and held as
[k,k,Cin,Cout] for the channels-last conv; activations come out as [C,H,W]
(or [b,C,H,W]).

:func:`perceptual_loss` is one autodiff node that runs the extractor in
plain numpy; :func:`extract` and :func:`gram` build the same terms as a
composed graph, which is its reference.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .autodiff import (
    Tensor, _conv_backward, _conv_forward, _conv_size, _leaky_slope, _phase_kernels, _result,
    conv2d, leaky_relu, matmul, permute,
)
from . import tensor_io

WIDTHS = (16, 32, 64, 64)      # fixed_random's layer widths
KERNEL = 3                     # fixed_random's kernel size
STRIDE = 2                     # the stride of every layer, random or loaded
EXTRACTOR_ROLE = "extractor"


def _padding(kernel: Tensor) -> int:
    """Every extractor layer's padding: half its [k,k,Cin,Cout] kernel's size."""
    return kernel.shape[0] // 2


class FeatureExtractor:
    """Stack of strided conv + LeakyReLU layers with taps after each.

    The weights never change and never require gradients; identical inputs
    give identical activations.  ``weights`` are [Cout,Cin,k,k] arrays,
    converted once to the [k,k,Cin,Cout] kernels that ``layers`` holds and,
    at the first use, to the layers' input-gradient phase kernels, ``_phases``
    (an extractor that only scores images never holds them).
    """

    def __init__(self, weights: Sequence[np.ndarray], strides: Sequence[int]):
        if len(weights) != len(strides):
            raise ValueError(f"{len(weights)} weight stacks but {len(strides)} strides")
        if not weights:
            raise ValueError("a FeatureExtractor needs at least one layer")
        self.layers = []
        prev = None
        for w, s in zip(weights, strides):
            w = np.asarray(w)
            if w.ndim != 4:
                raise ValueError(f"extractor weights must be rank-4, got {w.shape}")
            if prev is not None and w.shape[1] != prev:
                raise ValueError(f"layer expects {w.shape[1]} channels but receives {prev}")
            prev = w.shape[0]
            kernel = Tensor(np.ascontiguousarray(w.transpose(2, 3, 1, 0)), requires_grad=False)
            self.layers.append((kernel, int(s)))

    @cached_property
    def _phases(self) -> list:
        return [_phase_kernels(k.data, s) for k, s in self.layers]

    @classmethod
    def fixed_random(cls, seed: int, in_channels: int = 3,
                     dtype=np.float64) -> "FeatureExtractor":
        rng = np.random.default_rng(seed)
        weights = []
        cin = in_channels
        for cout in WIDTHS:
            std = np.sqrt(2.0 / (cin * KERNEL * KERNEL))
            weights.append(rng.normal(0.0, std, (cout, cin, KERNEL, KERNEL)).astype(dtype))
            cin = cout
        return cls(weights, [STRIDE] * len(WIDTHS))

    @classmethod
    def load(cls, dirpath) -> "FeatureExtractor":
        named = tensor_io.load_named_tensors(dirpath, EXTRACTOR_ROLE)
        if not named:
            raise ValueError(f"no extractor weights found in {dirpath}")
        return cls([arr for _, arr in named], [STRIDE] * len(named))

    def save(self, dirpath) -> None:
        named = [(f"layer{i}", w.data.transpose(3, 2, 0, 1))
                 for i, (w, _) in enumerate(self.layers)]
        entries = tensor_io.save_named_tensors(dirpath, named, EXTRACTOR_ROLE)
        tensor_io.write_manifest(dirpath, entries)

    @property
    def num_taps(self) -> int:
        return len(self.layers)

    def tap_shapes(self, in_shape) -> list:
        """Declared activation shapes [C_j, H_j, W_j] for a [c,h,w] input."""
        c, h, w = in_shape
        out = []
        for wgt, s in self.layers:
            k, _, _, cout = wgt.shape
            p = _padding(wgt)
            h, w = _conv_size(h, k, s, p), _conv_size(w, k, s, p)
            out.append((cout, h, w))
        return out


def extract(x: Tensor, extractor: FeatureExtractor,
            taps: Optional[Sequence[int]] = None) -> list:
    """Activations at the requested tap layers (default: all of them), as a
    composed autodiff graph: the reference that :func:`perceptual_loss`'s
    one node is tested against.

    A [c,h,w] image gives [C_j,H_j,W_j] activations; a [b,c,h,w] batch runs
    through every layer at once and gives [b,C_j,H_j,W_j] ones.  The layers
    run channels-last; the input is permuted once and each returned tap once.
    No gradient flows into the extractor parameters; the input keeps its
    gradient path.  ``taps`` must list layer indices in [0, num_taps).
    """
    if x.ndim not in (3, 4):
        raise ValueError(f"extract expects a [c,h,w] image or a [b,c,h,w] batch, "
                         f"got shape {x.shape}")
    if taps is not None:
        taps = list(taps)
        if not taps or not all(0 <= t < extractor.num_taps for t in taps):
            raise ValueError(f"taps {taps} must be a non-empty list of layer indices "
                             f"in [0, {extractor.num_taps})")
    single = x.ndim == 3
    acts = []
    h = permute(x.reshape((1,) + x.shape) if single else x, (0, 2, 3, 1))
    for w, s in extractor.layers:
        h = leaky_relu(conv2d(h, w, stride=s, padding=_padding(w)))
        acts.append(h)
    if taps is not None:
        acts = [acts[t] for t in taps]
    acts = [permute(a, (0, 3, 1, 2)) for a in acts]
    return [a.reshape(a.shape[1:]) for a in acts] if single else acts


def _layer_outputs(x: np.ndarray, extractor: FeatureExtractor) -> list:
    """(input shape, leaky slope, output) of every layer for a channels-last
    [B,h,w,c] array, in plain numpy on the kernels that extract's conv2d and
    leaky_relu ops run."""
    out = []
    for w, s in extractor.layers:
        shape = x.shape
        x, _ = _conv_forward(x, w.data, None, s, _padding(w), False)
        slope = _leaky_slope(x)
        x = x * slope
        out.append((shape, slope, x))
    return out


def gram(act: Tensor) -> Tensor:
    """Channel Gram matrix F F^T / (C*H*W) of a [C,H,W] activation, or the
    [b,C,C] stack of them for a [b,C,H,W] batch."""
    if act.ndim not in (3, 4):
        raise ValueError(f"gram expects a [C,H,W] or [b,C,H,W] activation, "
                         f"got shape {act.shape}")
    lead, (c, h, w) = act.shape[:-3], act.shape[-3:]
    flat = act.reshape(lead + (c, h * w))
    turn = (1, 0) if not lead else (0, 2, 1)
    return matmul(flat, flat.transpose(turn)) * (1.0 / (c * h * w))


def perceptual_loss(teacher_out: Tensor, student_out: Tensor,
                    extractor: FeatureExtractor) -> Tensor:
    """Summed per-tap activation L1 (scaled by 1/(C*H*W)) plus Gram L1, as one
    autodiff node whose only parent is the student output.

    A [b,c,h,w] batch gives the mean of its images' losses.  The teacher and
    student images run through the extractor as one [2b,h,w,c] batch in plain
    numpy, and each tap's two L1 terms are taken there, channels-last.  The
    forward keeps, for the student half only and only when the student takes
    a gradient, each layer's leaky slopes, each tap's differences and its
    Gram operand.  The backward replays the adjoints of :func:`extract`,
    :func:`gram` and the L1s for the student half: the sign terms, F (dG +
    dG^T) / (C*H*W) for each Gram, then each layer's slope and input
    gradient, on the extractor's phase kernels; the teacher gets no
    gradient.  The composed graph is the reference: values
    and gradients match it to rounding.
    """
    if teacher_out.shape != student_out.shape:
        raise ValueError(f"shape mismatch: {teacher_out.shape} vs {student_out.shape}")
    if student_out.ndim not in (3, 4):
        raise ValueError(f"perceptual_loss expects [c,h,w] images or [b,c,h,w] batches, "
                         f"got shape {student_out.shape}")
    t, s = (a.data if a.ndim == 4 else a.data[None] for a in (teacher_out, student_out))
    bsz = s.shape[0]
    live = student_out.requires_grad
    tape, total = [], None
    layers = _layer_outputs(np.concatenate((t, s)).transpose(0, 2, 3, 1), extractor)
    for j, (shape, slope, act) in enumerate(layers):
        scale = np.asarray(1.0 / act[0].size, act.dtype)
        flat = act.reshape(2 * bsz, -1, act.shape[-1])          # [2b, H*W, C]
        grams = (flat.transpose(0, 2, 1) @ flat) * scale
        diff, g_diff = act[:bsz] - act[bsz:], grams[:bsz] - grams[bsz:]
        term = np.abs(diff).sum() * scale + np.abs(g_diff).sum()
        total = term if total is None else total + term
        if live:
            tape.append((j, (bsz,) + shape[1:], slope[bsz:], diff, flat[bsz:], g_diff, scale))
    total = total * np.asarray(1.0 / bsz, total.dtype)

    def back(g):
        g = g * np.asarray(1.0 / bsz, g.dtype)
        grad = None
        for j, shape, slope, diff, flat, g_diff, scale in reversed(tape):
            # both L1s of a tap weigh the student side by -g/(C*H*W) times a sign
            sym = np.sign(g_diff)
            sym = sym + sym.transpose(0, 2, 1)
            tap = np.sign(diff) + (flat @ sym).reshape(diff.shape)
            tap *= -(g * scale)
            grad = tap if grad is None else grad + tap
            grad *= slope
            w, stride = extractor.layers[j]
            grad = _conv_backward(grad, None, shape, w.data, stride, _padding(w), True, False,
                                  extractor._phases[j])[0]
        student_out._accumulate(
            np.ascontiguousarray(grad.transpose(0, 3, 1, 2)).reshape(student_out.shape))

    return _result(np.asarray(total), "perceptual", (student_out,), back)
