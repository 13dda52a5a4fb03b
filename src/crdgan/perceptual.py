"""Feature and style matching over a fixed, non-trainable extractor.

The default extractor is a seeded random four-layer strided conv net
(LeakyReLU, widths 16/32/64/64) tapped after every layer.  Random features
keep the loss structure intact without external weight files; real weights
can be swapped in from a directory of tensor files.  Weights are given and
stored as [Cout,Cin,k,k] and held as [k,k,Cin,Cout] for the channels-last
conv; activations come out as [C,H,W] (or [b,C,H,W]).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor, absolute, conv2d, detach, leaky_relu, matmul, permute, tsum
from . import tensor_io

DEFAULT_WIDTHS = (16, 32, 64, 64)
EXTRACTOR_ROLE = "extractor"


class FeatureExtractor:
    """Immutable stack of strided conv + LeakyReLU layers with taps after each.

    Weights never require gradients; identical inputs give identical
    activations.  ``weights`` are [Cout,Cin,k,k] arrays, converted once to
    the [k,k,Cin,Cout] kernels that ``layers`` holds.
    """

    def __init__(self, weights: Sequence[np.ndarray], strides: Sequence[int],
                 alpha: float = 0.2):
        if len(weights) != len(strides):
            raise ValueError(f"{len(weights)} weight stacks but {len(strides)} strides")
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
        self.alpha = alpha
        self.kernel = self.layers[0][0].shape[0]
        self.padding = self.kernel // 2

    @classmethod
    def fixed_random(cls, seed: int, in_channels: int = 3,
                     widths: Sequence[int] = DEFAULT_WIDTHS,
                     kernel: int = 3, stride: int = 2,
                     dtype=np.float64) -> "FeatureExtractor":
        rng = np.random.default_rng(seed)
        weights = []
        cin = in_channels
        for cout in widths:
            std = np.sqrt(2.0 / (cin * kernel * kernel))
            weights.append(rng.normal(0.0, std, (cout, cin, kernel, kernel)).astype(dtype))
            cin = cout
        return cls(weights, [stride] * len(widths))

    @classmethod
    def load(cls, dirpath, alpha: float = 0.2, stride: int = 2) -> "FeatureExtractor":
        named = tensor_io.load_named_tensors(dirpath, EXTRACTOR_ROLE)
        if not named:
            raise ValueError(f"no extractor weights found in {dirpath}")
        return cls([arr for _, arr in named], [stride] * len(named), alpha)

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
            p = k // 2
            h = (h + 2 * p - k) // s + 1
            w = (w + 2 * p - k) // s + 1
            out.append((cout, h, w))
        return out


def extract(x: Tensor, extractor: FeatureExtractor,
            taps: Optional[Sequence[int]] = None) -> list:
    """Activations at the requested tap layers (default: all of them).

    A [c,h,w] image gives [C_j,H_j,W_j] activations; a [b,c,h,w] batch runs
    through every layer at once and gives [b,C_j,H_j,W_j] ones.  The layers
    run channels-last; the input is permuted once and each returned tap once.
    No gradient flows into the extractor parameters; the input keeps its
    gradient path.
    """
    if x.ndim not in (3, 4):
        raise ValueError(f"extract expects a [c,h,w] image or a [b,c,h,w] batch, "
                         f"got shape {x.shape}")
    single = x.ndim == 3
    acts = []
    h = permute(x.reshape((1,) + x.shape) if single else x, (0, 2, 3, 1))
    for w, s in extractor.layers:
        k = w.shape[0]
        h = leaky_relu(conv2d(h, w, stride=s, padding=k // 2), extractor.alpha)
        acts.append(h)
    if taps is not None:
        acts = [acts[t] for t in taps]
    acts = [permute(a, (0, 3, 1, 2)) for a in acts]
    return [a.reshape(a.shape[1:]) for a in acts] if single else acts


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
                    extractor: FeatureExtractor,
                    taps: Optional[Sequence[int]] = None) -> Tensor:
    """Summed per-tap activation L1 (scaled by 1/(C*H*W)) plus Gram L1.

    A [b,c,h,w] batch gives the mean of its images' losses.  Only the
    student path carries gradient; the teacher output is detached.
    """
    if teacher_out.shape != student_out.shape:
        raise ValueError(f"shape mismatch: {teacher_out.shape} vs {student_out.shape}")
    t_acts = extract(detach(teacher_out), extractor, taps)
    s_acts = extract(student_out, extractor, taps)
    total = None
    for t_act, s_act in zip(t_acts, s_acts):
        c, h, w = t_act.shape[-3:]
        feat = tsum(absolute(t_act - s_act)) * (1.0 / (c * h * w))
        style = tsum(absolute(gram(t_act) - gram(s_act)))
        term = feat + style
        total = term if total is None else total + term
    bsz = student_out.shape[0] if student_out.ndim == 4 else 1
    return total * (1.0 / bsz) if bsz > 1 else total
