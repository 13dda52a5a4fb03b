"""Toy ResNet-style generators and a PatchGAN-style discriminator.

The generator downsamples twice, runs residual blocks at the bottleneck,
upsamples twice (nearest-neighbour + conv, to avoid checkerboard kernels)
and ends in tanh, so output shape equals input shape and values stay in
[-1, 1].  The student uses the same layout at a fraction of the width; conv
parameters scale with the width squared, so a quarter-width student lands
near 1/16 of the teacher's parameter count.

The discriminator is a strided conv stack with LeakyReLU(0.2) emitting a raw
patch score map; the sigmoid is folded into a softplus-form loss for
stability.

Both networks take a [c,h,w] image or a [b,c,h,w] batch.  ``frozen=True``
turns the parameters' ``requires_grad`` off for that one forward: gradients
reach the input but no parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import (
    Tensor, conv2d, detach, instance_norm, leaky_relu, relu, softplus,
    tanh, tmean, upsample2x,
)
from . import tensor_io

INIT_STD = 0.02


@dataclass(frozen=True)
class GeneratorSpec:
    base_width: int = 32
    width_factor: float = 1.0
    num_res_blocks: int = 3
    in_channels: int = 3
    out_channels: int = 3

    def layer_width(self, mult: int) -> int:
        w = int(round(self.base_width * mult * self.width_factor))
        if w < 1:
            raise ValueError(
                f"width {self.base_width}*{mult}*{self.width_factor} rounds to zero")
        return w


@dataclass(frozen=True)
class DiscriminatorSpec:
    num_layers: int = 3
    base_width: int = 32
    in_channels: int = 3


class _ConvLayer:
    """One conv2d with its parameters; with ``upsample`` set, its input is upsampled 2x first."""

    def __init__(self, rng, cin, cout, k, stride, padding, bias=True, dtype=np.float32,
                 upsample=False):
        self.weight = Tensor(rng.normal(0.0, INIT_STD, (cout, cin, k, k)).astype(dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True) if bias else None
        self.stride = stride
        self.padding = padding
        self.upsample = upsample

    def __call__(self, x):
        if self.upsample:
            x = upsample2x(x)
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class _Module:
    """Shared parameter bookkeeping for the generator and discriminator."""

    def __init__(self):
        self._layers: list[_ConvLayer] = []

    def _add(self, layer: _ConvLayer) -> _ConvLayer:
        self._layers.append(layer)
        return layer

    def parameters(self) -> list[Tensor]:
        """Parameters in named_parameters order, which checkpoints, Adam and snapshots rely on."""
        return [p for _, p in self.named_parameters()]

    def named_parameters(self) -> list:
        out = []
        for i, layer in enumerate(self._layers):
            out.append((f"layer{i:02d}.weight", layer.weight))
            if layer.bias is not None:
                out.append((f"layer{i:02d}.bias", layer.bias))
        return out

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def mac_count(self, h: int, w: int) -> int:
        """Multiply-accumulates of the conv layers in one forward of a [c,h,w] input.

        Derived from the layer shapes, without a forward: the layers run as a
        chain, each taking the previous one's output size.
        """
        macs = 0
        for layer in self._layers:
            if layer.upsample:
                h, w = 2 * h, 2 * w
            _, _, kh, kw = layer.weight.shape
            p, s = layer.padding, layer.stride
            h, w = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
            macs += layer.weight.size * h * w
        return macs

    def param_arrays(self, copy: bool = True) -> list:
        return [p.data.copy() if copy else p.data for p in self.parameters()]

    def load_param_arrays(self, arrays) -> None:
        params = self.parameters()
        if len(arrays) != len(params):
            raise ValueError(f"expected {len(params)} arrays, got {len(arrays)}")
        for p, arr in zip(params, arrays):
            arr = np.asarray(arr, dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ValueError(f"array shape {arr.shape} does not match parameter {p.shape}")
            p.data = arr.copy()
            p.grad = None

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def _run(self, x: Tensor, frozen: bool, forward: Callable[[Tensor], Tensor]) -> Tensor:
        """forward on x as a batch (a [c,h,w] image as a batch of one); with frozen,
        every requires_grad is off while it runs and restored after, even if it raises."""
        params = self.parameters() if frozen else []
        flags = [p.requires_grad for p in params]
        for p in params:
            p.requires_grad = False
        try:
            if x.ndim != 3:
                return forward(x)
            out = forward(x.reshape((1,) + x.shape))
            return out.reshape(out.shape[1:])
        finally:
            for p, flag in zip(params, flags):
                p.requires_grad = flag


class ResnetGenerator(_Module):
    """[c,h,w] -> [c,h,w] image translator; tanh-bounded output."""

    def __init__(self, spec: GeneratorSpec, seed: int, dtype=np.float32):
        super().__init__()
        self.spec = spec
        rng = np.random.default_rng(seed)
        w1 = spec.layer_width(1)
        w2 = spec.layer_width(2)
        w4 = spec.layer_width(4)
        dt = dtype
        self.stem = self._add(_ConvLayer(rng, spec.in_channels, w1, 7, 1, 3, dtype=dt))
        self.down1 = self._add(_ConvLayer(rng, w1, w2, 3, 2, 1, dtype=dt))
        self.down2 = self._add(_ConvLayer(rng, w2, w4, 3, 2, 1, dtype=dt))
        self.res = []
        for _ in range(spec.num_res_blocks):
            c1 = self._add(_ConvLayer(rng, w4, w4, 3, 1, 1, dtype=dt))
            c2 = self._add(_ConvLayer(rng, w4, w4, 3, 1, 1, dtype=dt))
            self.res.append((c1, c2))
        self.up1 = self._add(_ConvLayer(rng, w4, w2, 3, 1, 1, dtype=dt, upsample=True))
        self.up2 = self._add(_ConvLayer(rng, w2, w1, 3, 1, 1, dtype=dt, upsample=True))
        self.head = self._add(_ConvLayer(rng, w1, spec.out_channels, 7, 1, 3, dtype=dt))

    def __call__(self, x: Tensor, frozen: bool = False) -> Tensor:
        return self._run(x, frozen, self._forward)

    def _forward(self, x: Tensor) -> Tensor:
        h = relu(instance_norm(self.stem(x)))
        h = relu(instance_norm(self.down1(h)))
        h = relu(instance_norm(self.down2(h)))
        for c1, c2 in self.res:
            r = relu(instance_norm(c1(h)))
            r = instance_norm(c2(r))
            h = h + r
        h = relu(instance_norm(self.up1(h)))
        h = relu(instance_norm(self.up2(h)))
        return tanh(self.head(h))


class PatchDiscriminator(_Module):
    """[c,h,w] -> [1,h',w'] raw patch score map (no final sigmoid)."""

    def __init__(self, spec: DiscriminatorSpec, seed: int, dtype=np.float32):
        super().__init__()
        self.spec = spec
        rng = np.random.default_rng(seed)
        cin = spec.in_channels
        width = spec.base_width
        self.body = []
        for i in range(spec.num_layers):
            cout = width * (2 ** i)
            self.body.append(self._add(_ConvLayer(rng, cin, cout, 4, 2, 1, dtype=dtype)))
            cin = cout
        self.head = self._add(_ConvLayer(rng, cin, 1, 3, 1, 1, dtype=dtype))

    def __call__(self, x: Tensor, frozen: bool = False) -> Tensor:
        return self._run(x, frozen, self._forward)

    def _forward(self, h: Tensor) -> Tensor:
        for i, layer in enumerate(self.body):
            h = layer(h)
            if i > 0:
                h = instance_norm(h)
            h = leaky_relu(h, 0.2)
        return self.head(h)


def build_generator(spec: GeneratorSpec, seed: int, dtype=np.float32) -> ResnetGenerator:
    return ResnetGenerator(spec, seed, dtype)


def build_discriminator(spec: DiscriminatorSpec, seed: int, dtype=np.float32) -> PatchDiscriminator:
    return PatchDiscriminator(spec, seed, dtype)


# -- adversarial objective ------------------------------------------------------

def discriminator_loss(scores_real: Tensor, scores_fake: Tensor, mode: str) -> Tensor:
    """Loss for D given raw scores on real inputs and (detached) fakes."""
    if mode == "vanilla":
        return tmean(softplus(-scores_real)) + tmean(softplus(scores_fake))
    if mode == "least_squares":
        one = tmean((scores_real - 1.0) * (scores_real - 1.0))
        zero = tmean(scores_fake * scores_fake)
        return one + zero
    raise ValueError(f"unknown gan mode {mode!r}")


def generator_adv_loss(scores_fake: Tensor, mode: str) -> Tensor:
    """Non-saturating generator-side loss from raw scores on live fakes."""
    if mode == "vanilla":
        return tmean(softplus(-scores_fake))
    if mode == "least_squares":
        return tmean((scores_fake - 1.0) * (scores_fake - 1.0))
    raise ValueError(f"unknown gan mode {mode!r}")


def adversarial_losses(D: Callable, G: Callable, real: Tensor, inp: Tensor,
                       mode: str = "vanilla") -> tuple:
    """(d_loss, g_loss) for one batch.

    vanilla: d_loss = -[E log sigma(D(real)) + E log(1 - sigma(D(G(x))))] and
    the non-saturating g_loss = -E log sigma(D(G(x))), both computed in
    softplus form.  least_squares: squared-error scores against targets
    1 (real for D), 0 (fake for D), 1 (fake for G).
    """
    fake = G(inp)
    d_loss = discriminator_loss(D(real), D(detach(fake)), mode)
    g_loss = generator_adv_loss(D(fake), mode)
    return d_loss, g_loss


# -- optimizer -------------------------------------------------------------------

class Adam:
    """Adaptive moment estimation with the GAN-standard betas (0.5, 0.999)."""

    def __init__(self, params, lr: float, betas=(0.5, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """Apply accumulated gradients and clear them."""
        self.t += 1
        b1t = 1.0 - self.b1 ** self.t
        b2t = 1.0 - self.b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * (g * g)
            update = (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            p.data = p.data - np.asarray(self.lr * update, dtype=p.data.dtype)
            p.grad = None


# -- checkpoints ------------------------------------------------------------------

def save_checkpoint(dirpath, modules: dict) -> None:
    """modules: role -> _Module; bit-exact for float32 parameters."""
    entries = []
    for role, module in modules.items():
        named = [(name, p.data) for name, p in module.named_parameters()]
        entries = tensor_io.save_named_tensors(dirpath, named, role, entries)
    tensor_io.write_manifest(dirpath, entries)


def load_checkpoint(dirpath, modules: dict) -> None:
    for role, module in modules.items():
        named = tensor_io.load_named_tensors(dirpath, role)
        if not named:
            raise ValueError(f"checkpoint at {dirpath} has no entries for role {role!r}")
        expected = [name for name, _ in module.named_parameters()]
        got = [name for name, _ in named]
        if expected != got:
            raise ValueError(f"checkpoint layer names {got} do not match model {expected}")
        module.load_param_arrays([arr for _, arr in named])
