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

Both networks take a [c,h,w] image or a [b,c,h,w] batch and return the
same layout.  Inside, activations are channels-last [b,h,w,c] and conv
weights are [kh,kw,Cin,Cout] (as in checkpoints): one permute on entry and
one on exit.  ``frozen=True`` turns the parameters' ``requires_grad`` off for
that one forward: gradients reach the input but no parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import (
    Tensor, conv2d, detach, instance_norm, leaky_relu, permute, relu, softplus,
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
    """One conv2d with its parameters; with ``upsample`` set, its input is upsampled 2x first.

    The weight is [k,k,Cin,Cout]; its initial values are drawn in
    [Cout,Cin,k,k] order and transposed once.
    """

    def __init__(self, rng, cin, cout, k, stride, padding, bias=True, dtype=np.float32,
                 upsample=False):
        init = rng.normal(0.0, INIT_STD, (cout, cin, k, k)).astype(dtype)
        self.weight = Tensor(np.ascontiguousarray(init.transpose(2, 3, 1, 0)),
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
    """Shared parameter bookkeeping for the generator and discriminator.

    A subclass adds its layers with ``_add`` and then calls ``_pack``, which
    moves every parameter into ``flat``: one contiguous vector of the module's
    dtype, in ``named_parameters`` order, with each parameter's ``data`` a
    C-contiguous view into it.  Nothing rebinds ``data`` afterwards: Adam,
    checkpoint loads and snapshot copies write into the views, so a whole
    module's values are ``flat`` and copying one module into another of the
    same spec is ``dst.flat[...] = src.flat``.
    """

    def __init__(self):
        self._layers: list[_ConvLayer] = []

    def _add(self, layer: _ConvLayer) -> _ConvLayer:
        self._layers.append(layer)
        return layer

    def _pack(self) -> None:
        named = []
        for i, layer in enumerate(self._layers):
            named.append((f"layer{i:02d}.weight", layer.weight))
            if layer.bias is not None:
                named.append((f"layer{i:02d}.bias", layer.bias))
        self._named = named
        self._params = [p for _, p in named]
        self.flat = np.empty(sum(p.size for p in self._params), dtype=self._params[0].dtype)
        start = 0
        for p in self._params:
            view = self.flat[start:start + p.size].reshape(p.shape)
            view[...] = p.data
            p.data = view
            start += p.size

    def parameters(self) -> list[Tensor]:
        """Parameters in named_parameters order, which checkpoints, Adam and snapshots rely on."""
        return list(self._params)

    def named_parameters(self) -> list:
        return list(self._named)

    def parameter_count(self) -> int:
        return self.flat.size

    def mac_count(self, h: int, w: int) -> int:
        """Multiply-accumulates of the conv layers in one forward of a [c,h,w] input.

        Derived from the layer shapes, without a forward: the layers run as a
        chain, each taking the previous one's output size.
        """
        macs = 0
        for layer in self._layers:
            if layer.upsample:
                h, w = 2 * h, 2 * w
            kh, kw, _, _ = layer.weight.shape
            p, s = layer.padding, layer.stride
            h, w = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
            macs += layer.weight.size * h * w
        return macs

    def param_arrays(self) -> list:
        """A copy of every parameter array, in named_parameters order."""
        return [p.data.copy() for p in self._params]

    def _checked_arrays(self, arrays) -> list:
        """arrays cast to the parameters' dtype, once their count and every shape match."""
        if len(arrays) != len(self._params):
            raise ValueError(f"expected {len(self._params)} arrays, got {len(arrays)}")
        out = []
        for p, arr in zip(self._params, arrays):
            arr = np.asarray(arr, dtype=p.dtype)
            if arr.shape != p.shape:
                raise ValueError(f"array shape {arr.shape} does not match parameter {p.shape}")
            out.append(arr)
        return out

    def _write_arrays(self, arrays) -> None:
        for p, arr in zip(self._params, arrays):
            p.data[...] = arr
            p.grad = None

    def load_param_arrays(self, arrays) -> None:
        """Write arrays into the parameters; on a count or shape mismatch nothing is written."""
        self._write_arrays(self._checked_arrays(arrays))

    def zero_grad(self) -> None:
        for p in self._params:
            p.grad = None

    def _run(self, x: Tensor, frozen: bool, forward: Callable[[Tensor], Tensor]) -> Tensor:
        """forward on x as a channels-last batch (a [c,h,w] image as a batch of one),
        its output permuted back; with frozen, every requires_grad is off while it
        runs and restored after, even if it raises."""
        if x.ndim not in (3, 4):
            raise ValueError(f"expected a [c,h,w] image or a [b,c,h,w] batch, got shape {x.shape}")
        params = self._params if frozen else []
        flags = [p.requires_grad for p in params]
        for p in params:
            p.requires_grad = False
        try:
            batch = x.reshape((1,) + x.shape) if x.ndim == 3 else x
            out = permute(forward(permute(batch, (0, 2, 3, 1))), (0, 3, 1, 2))
            return out.reshape(out.shape[1:]) if x.ndim == 3 else out
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
        self._pack()

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
        self._pack()

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
    """Adaptive moment estimation with the GAN-standard betas (0.5, 0.999).

    params must be one module's parameters in order: views that tile its
    ``flat`` vector.  The moments ``m`` and ``v`` are flat vectors of the
    same layout, so a step is one elementwise update of the whole vector,
    after the gradients are gathered into one flat gradient.  A parameter
    whose grad is None is not updated, and neither are its moments: the
    same update then runs on the slices of the parameters that have one.
    """

    def __init__(self, params, lr: float, betas=(0.5, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self._spans, start = [], 0
        for p in self.params:
            self._spans.append(slice(start, start + p.size))
            start += p.size
        flat = self.params[0].data.base if self.params else None
        if not (isinstance(flat, np.ndarray) and start == flat.size and all(
                p.data.base is flat and p.data.flags.c_contiguous
                and p.data.ctypes.data == flat[span].ctypes.data
                for p, span in zip(self.params, self._spans))):
            raise ValueError("Adam needs all of one module's parameters, in order, "
                             "as the views that tile its flat vector")
        self.flat = flat
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """Apply accumulated gradients and clear them."""
        self.t += 1
        b1t = 1.0 - self.b1 ** self.t
        b2t = 1.0 - self.b2 ** self.t
        if all(p.grad is not None for p in self.params):
            g = np.concatenate([p.grad.reshape(-1) for p in self.params])
            self._update(self.flat, self.m, self.v, g, b1t, b2t)
        else:
            for p, span in zip(self.params, self._spans):
                if p.grad is not None:
                    self._update(self.flat[span], self.m[span], self.v[span],
                                 p.grad.reshape(-1).copy(), b1t, b2t)
        for p in self.params:
            p.grad = None

    def _update(self, data, m, v, g, b1t: float, b2t: float) -> None:
        """data -= lr * (m / b1t) / (sqrt(v / b2t) + eps) after the moment updates,
        all in place; g is overwritten."""
        m *= self.b1
        m += (1.0 - self.b1) * g
        v *= self.b2
        g *= g
        g *= 1.0 - self.b2
        v += g
        update = m / b1t
        np.divide(v, b2t, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        update /= g
        update *= self.lr
        data -= update


# -- checkpoints ------------------------------------------------------------------

def save_checkpoint(dirpath, modules: dict) -> None:
    """modules: role -> _Module; bit-exact for float32 parameters."""
    entries = []
    for role, module in modules.items():
        named = [(name, p.data) for name, p in module.named_parameters()]
        entries = tensor_io.save_named_tensors(dirpath, named, role, entries)
    tensor_io.write_manifest(dirpath, entries)


def load_checkpoint(dirpath, modules: dict) -> None:
    """Load every role into its module; if any role, name or shape does not
    match, raise before any module is written."""
    staged = []
    for role, module in modules.items():
        named = tensor_io.load_named_tensors(dirpath, role)
        if not named:
            raise ValueError(f"checkpoint at {dirpath} has no entries for role {role!r}")
        expected = [name for name, _ in module.named_parameters()]
        got = [name for name, _ in named]
        if expected != got:
            raise ValueError(f"checkpoint layer names {got} do not match model {expected}")
        staged.append((module, module._checked_arrays([arr for _, arr in named])))
    for module, arrays in staged:
        module._write_arrays(arrays)
