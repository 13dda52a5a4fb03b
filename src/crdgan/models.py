"""Toy ResNet-style generators and a PatchGAN-style discriminator.

The generator downsamples twice, runs residual blocks at the bottleneck,
upsamples twice (nearest-neighbour + conv, to avoid checkerboard kernels)
and ends in tanh, so output shape equals input shape and values stay in
[-1, 1].  The student uses the same layout at a fraction of the width; conv
parameters scale with the width squared, so a quarter-width student lands
near 1/16 of the teacher's parameter count.

The discriminator is a strided conv stack with LeakyReLU (autodiff's
LEAKY_SLOPE) emitting a raw patch score map; the sigmoid is folded into a
softplus-form loss for stability.

Both networks take a [c,h,w] image or a [b,c,h,w] batch and return the
same layout.  Each call is one autodiff node: its layers run in plain numpy
on channels-last [b,h,w,c] activations, with conv weights [kh,kw,Cin,Cout]
(as in checkpoints), and its backward replays their adjoints.
A call trains all of the network's parameters, or with ``frozen=True``
none of them: gradients then reach the input only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .autodiff import (
    Tensor, _check_finite, _conv_backward, _conv_forward, _conv_size, _leaky_slope,
    _norm_backward, _norm_forward, _result, _upsample_backward, _upsample_forward, detach,
    softplus, tmean,
)
from . import tensor_io

INIT_STD = 0.02
IMAGE_CHANNELS = 3      # the generators' input and output channels (RGB)


@dataclass(frozen=True)
class GeneratorSpec:
    base_width: int = 32
    width_factor: float = 1.0
    num_res_blocks: int = 3

    def widths(self) -> tuple:
        """The 1x, 2x and 4x layer widths: base_width * mult * width_factor, rounded."""
        widths = tuple(self.base_width * mult * self.width_factor for mult in (1, 2, 4))
        if not all(math.isfinite(w) and round(w) >= 1 for w in widths):
            raise ValueError(f"width_factor {self.width_factor} makes the generator's layers "
                             f"{self.base_width}*(1, 2, 4)*{self.width_factor} = {widths} "
                             f"channels wide; each must be finite and round above zero")
        return tuple(int(round(w)) for w in widths)


@dataclass(frozen=True)
class DiscriminatorSpec:
    num_layers: int = 3
    base_width: int = 32
    in_channels: int = 3


class _ConvLayer:
    """One conv's parameters and geometry; with ``upsample`` set, its input is upsampled 2x first.

    The weight is [k,k,Cin,Cout]; its initial values are drawn in
    [Cout,Cin,k,k] order and transposed once.  A conv whose output feeds
    instance_norm takes ``bias=False``: the norm subtracts any per-channel
    constant, so such a bias would get only rounding noise as its gradient.
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


def _add_grad(p: Tensor, view: np.ndarray, g: np.ndarray) -> None:
    """Add g to p's gradient; the first touch copies g into p's view of flat_grad."""
    if p.grad is None:
        view[...] = g
        p.grad = view
    else:
        p.grad += g


class _Module:
    """Shared parameter bookkeeping and the one-node forward of a network.

    A subclass's ``_build(rng, dtype)`` adds its layers with ``_add``, drawing
    their initial weights from ``rng``, and lists its forward as steps with
    ``_set_steps``; ``__init__`` then calls ``_pack``, which moves every
    parameter into ``flat``: one contiguous vector of the module's dtype, in
    ``named_parameters`` order, with each parameter's ``data`` a C-contiguous
    view into it.  Nothing rebinds ``data`` afterwards: Adam, checkpoint loads
    and snapshot copies write into the views, so a whole module's values are
    ``flat`` and copying one module into another of the same spec is
    ``dst.flat[...] = src.flat``.  ``flat_grad`` has the same layout; it is
    None until the first backward through a call that is not frozen, and
    from then on a backward leaves each parameter's ``grad`` as its view of
    it.  ``frozen`` is the one trainability switch: no parameter's
    ``requires_grad`` is read.
    """

    kind: str             # "generator" or "discriminator": names the node and its layers

    def __init__(self, spec, rng, dtype):
        self.spec = spec
        self._layers: list[_ConvLayer] = []
        self._steps: list = []
        self._build(rng, dtype)
        self._pack()

    def _add(self, layer: _ConvLayer) -> _ConvLayer:
        self._layers.append(layer)
        return layer

    def _layer_steps(self, layer: _ConvLayer, *after: str) -> list:
        """The steps of one conv layer: its upsample if any, the conv, then ``after``."""
        ops = ("upsample2x",) * layer.upsample + ("conv2d",) + after
        return [(op, layer) for op in ops]

    def _set_steps(self, steps: list) -> None:
        """steps: (op, conv layer) pairs in forward order; each is named after
        its layer, as "generator layer03 (instance_norm)", for finite checks."""
        self._steps = [(op, layer, f"{self.kind} layer{self._layers.index(layer):02d} ({op})")
                       for op, layer in steps]

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
        self.flat_grad = None
        self._views = None

    def _grad_views(self) -> dict:
        """Each parameter's view of ``flat_grad``, which the first call allocates:
        a module that never takes a gradient (a snapshot, an evaluation copy)
        holds none."""
        if self._views is None:
            self.flat_grad = np.empty_like(self.flat)
            self._views, start = {}, 0
            for p in self._params:
                self._views[p] = self.flat_grad[start:start + p.size].reshape(p.shape)
                start += p.size
        return self._views

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
            h, w = _conv_size(h, kh, s, p), _conv_size(w, kw, s, p)
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

    def _run(self, x: Tensor, frozen: bool) -> Tensor:
        """The forward on a [c,h,w] image or a [b,c,h,w] batch, as one autodiff node.

        The steps run channels-last in plain numpy.  The node's parents are x
        and every parameter, or with ``frozen`` x alone, so gradients reach x
        but no parameter; no parameter's ``requires_grad`` is read.  The
        forward keeps what the backward reads (conv columns, instance-norm
        outputs, activation masks) only from the first step that has a
        gradient to pass on, so a forward where nothing takes a gradient
        keeps none.  The backward replays the steps' adjoints in reverse, the
        same kernels that the conv2d, instance_norm and upsample2x ops use, so
        every value and gradient matches the per-op graph byte for byte.
        """
        if x.ndim not in (3, 4):
            raise ValueError(f"expected a [c,h,w] image or a [b,c,h,w] batch, got shape {x.shape}")
        train = not frozen
        x_live = live = x.requires_grad
        h = x.data if x.ndim == 4 else x.data.reshape((1,) + x.shape)
        h = np.ascontiguousarray(h.transpose(0, 2, 3, 1))
        tape, skips = [], []
        for op, layer, where in self._steps:
            ctx = None
            if op == "conv2d":
                w, b = layer.weight, layer.bias
                shape = h.shape
                h, cols = _conv_forward(h, w.data, None if b is None else b.data,
                                        layer.stride, layer.padding, train)
                ctx = (cols, shape, live)
                live = live or train
            elif op == "instance_norm":
                h, inv = _norm_forward(h)
                ctx = (h, inv)
            elif op == "relu":
                ctx = h > 0 if live else None
                h = np.maximum(h, 0)
            elif op == "leaky_relu":
                ctx = _leaky_slope(h)
                h = h * ctx
            elif op == "tanh":
                h = ctx = np.tanh(h)
            elif op == "upsample2x":
                h = _upsample_forward(h)
            elif op == "save":
                skips.append(h)
            else:                                   # add: the residual join
                h = skips.pop() + h
            if live:
                tape.append((op, layer, ctx))
            _check_finite(h, where)
        out = np.ascontiguousarray(h.transpose(0, 3, 1, 2))
        if x.ndim == 3:
            out = out.reshape(out.shape[1:])

        def back(g):
            g = g if g.ndim == 4 else g.reshape((1,) + g.shape)
            g = np.ascontiguousarray(g.transpose(0, 2, 3, 1))
            skips = []
            for op, layer, ctx in reversed(tape):
                if op == "conv2d":
                    cols, shape, need_x = ctx
                    w, b = layer.weight, layer.bias
                    g, gw, gb = _conv_backward(g, cols, shape, w.data, layer.stride,
                                               layer.padding, need_x, train and b is not None)
                    if gw is not None:
                        _add_grad(w, self._grad_views()[w], gw)
                    if gb is not None:
                        _add_grad(b, self._grad_views()[b], gb)
                elif op == "instance_norm":
                    g = _norm_backward(g, *ctx)
                elif op in ("relu", "leaky_relu"):
                    g = g * ctx
                elif op == "tanh":
                    g = g * (1.0 - ctx * ctx)
                elif op == "upsample2x":
                    g = _upsample_backward(g)
                elif op == "add":
                    skips.append(g)
                else:                               # save: the skip's gradient joins
                    g = skips.pop() + g
            if x_live:
                x._accumulate(np.ascontiguousarray(g.transpose(0, 3, 1, 2)).reshape(x.shape))

        return _result(out, self.kind, (x, *self._params) if train else (x,), back)


class ResnetGenerator(_Module):
    """[c,h,w] -> [c,h,w] image translator; tanh-bounded output."""

    kind = "generator"

    def __init__(self, spec: GeneratorSpec, seed: int, dtype=np.float32):
        super().__init__(spec, np.random.default_rng(seed), dtype)

    def _build(self, rng, dt) -> None:
        w1, w2, w4 = self.spec.widths()
        self.stem = self._add(_ConvLayer(rng, IMAGE_CHANNELS, w1, 7, 1, 3, bias=False, dtype=dt))
        self.down1 = self._add(_ConvLayer(rng, w1, w2, 3, 2, 1, bias=False, dtype=dt))
        self.down2 = self._add(_ConvLayer(rng, w2, w4, 3, 2, 1, bias=False, dtype=dt))
        self.res = []
        for _ in range(self.spec.num_res_blocks):
            c1 = self._add(_ConvLayer(rng, w4, w4, 3, 1, 1, bias=False, dtype=dt))
            c2 = self._add(_ConvLayer(rng, w4, w4, 3, 1, 1, bias=False, dtype=dt))
            self.res.append((c1, c2))
        self.up1 = self._add(_ConvLayer(rng, w4, w2, 3, 1, 1, bias=False, dtype=dt,
                                          upsample=True))
        self.up2 = self._add(_ConvLayer(rng, w2, w1, 3, 1, 1, bias=False, dtype=dt,
                                          upsample=True))
        self.head = self._add(_ConvLayer(rng, w1, IMAGE_CHANNELS, 7, 1, 3, dtype=dt))

        steps = []
        for layer in (self.stem, self.down1, self.down2):
            steps += self._layer_steps(layer, "instance_norm", "relu")
        for c1, c2 in self.res:
            steps += [("save", c1)] + self._layer_steps(c1, "instance_norm", "relu") \
                + self._layer_steps(c2, "instance_norm", "add")
        for layer in (self.up1, self.up2):
            steps += self._layer_steps(layer, "instance_norm", "relu")
        self._set_steps(steps + self._layer_steps(self.head, "tanh"))

    def __call__(self, x: Tensor, frozen: bool = False) -> Tensor:
        return self._run(x, frozen)


class PatchDiscriminator(_Module):
    """[c,h,w] -> [1,h',w'] raw patch score map (no final sigmoid)."""

    kind = "discriminator"

    def __init__(self, spec: DiscriminatorSpec, seed: int, dtype=np.float32):
        super().__init__(spec, np.random.default_rng(seed), dtype)

    def _build(self, rng, dtype) -> None:
        cin = self.spec.in_channels
        width = self.spec.base_width
        self.body = []
        steps = []
        for i in range(self.spec.num_layers):
            cout = width * (2 ** i)
            layer = self._add(_ConvLayer(rng, cin, cout, 4, 2, 1, bias=i == 0, dtype=dtype))
            self.body.append(layer)
            steps += self._layer_steps(layer, *("instance_norm",) * (i > 0), "leaky_relu")
            cin = cout
        self.head = self._add(_ConvLayer(rng, cin, 1, 3, 1, 1, dtype=dtype))
        self._set_steps(steps + self._layer_steps(self.head))

    def __call__(self, x: Tensor, frozen: bool = False) -> Tensor:
        return self._run(x, frozen)


def build_generator(spec: GeneratorSpec, seed: int, dtype=np.float32) -> ResnetGenerator:
    return ResnetGenerator(spec, seed, dtype)


def build_discriminator(spec: DiscriminatorSpec, seed: int, dtype=np.float32) -> PatchDiscriminator:
    return PatchDiscriminator(spec, seed, dtype)


class _Undrawn:
    """The init generator of a module whose values are written in after it is
    built: ``normal`` draws nothing and returns zeros."""

    @staticmethod
    def normal(loc, scale, size) -> np.ndarray:
        return np.zeros(size)


def _copy_module(module: _Module) -> _Module:
    """A new module of ``module``'s class, spec and dtype holding a copy of its
    values, built without drawing an initialisation: it owns its ``flat`` and
    parameter views and has no ``flat_grad``."""
    twin = object.__new__(type(module))
    _Module.__init__(twin, module.spec, _Undrawn, module.flat.dtype)
    twin.flat[...] = module.flat
    return twin


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

def _tiled(arrays, spans) -> Optional[np.ndarray]:
    """The flat vector whose slices ``spans`` the arrays are, as C-contiguous
    views tiling all of it in order, or None."""
    flat = arrays[0].base if arrays and arrays[0] is not None else None
    if not (isinstance(flat, np.ndarray) and flat.ndim == 1 and spans[-1].stop == flat.size):
        return None
    start, item = flat.ctypes.data, flat.itemsize
    for a, span in zip(arrays, spans):
        if not (a is not None and a.base is flat and a.flags.c_contiguous
                and a.size == span.stop - span.start
                and a.ctypes.data == start + span.start * item):
            return None
    return flat


class Adam:
    """Adaptive moment estimation with the GAN-standard betas (0.5, 0.999) and eps 1e-8.

    params must be one module's parameters in order: views that tile its
    ``flat`` vector.  The moments ``m`` and ``v`` are flat vectors of the
    same layout.  A step reads the gradients as the views that tile one
    vector, the module's ``flat_grad`` as its backward leaves them, and is
    one elementwise update of the whole flat vector that reads that
    gradient vector in place.
    """

    b1, b2, eps = 0.5, 0.999, 1e-8

    def __init__(self, params, lr: float):
        self.params = list(params)
        self._spans, start = [], 0
        for p in self.params:
            self._spans.append(slice(start, start + p.size))
            start += p.size
        self.flat = _tiled([p.data for p in self.params], self._spans)
        if self.flat is None:
            raise ValueError("Adam needs all of one module's parameters, in order, "
                             "as the views that tile its flat vector")
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        # the gradient views the last step validated, and the vector they tile:
        # a backward leaves the same view objects every step, and a view's
        # base and address never change, so those need no second walk
        self._grads: list = []
        self._g: Optional[np.ndarray] = None

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """Apply the gradients and clear them; the gradient vector is overwritten.

        data -= step_size * m / (sqrt(v) + eps_t) after the moment updates,
        all in place.  With step_size = lr * sqrt(1 - b2^t) / (1 - b1^t) and
        eps_t = eps * sqrt(1 - b2^t), this is lr * m_hat / (sqrt(v_hat) + eps)
        with the bias-corrected moments, without computing them (Kingma & Ba,
        arXiv:1412.6980, end of section 2).  A gradient that is missing, or is
        not its parameter's view of one flat vector (a copy), raises
        ValueError before ``t``, the moments or any parameter change.
        """
        grads = [p.grad for p in self.params]
        if self._g is None or any(a is not b for a, b in zip(grads, self._grads)):
            g = _tiled(grads, self._spans)
            if g is None:
                raise ValueError("Adam.step needs every parameter's grad as its view of one "
                                 "flat gradient vector, as a backward leaves them in the "
                                 "module's flat_grad; a gradient is missing or copied")
            self._grads, self._g = grads, g
        g = self._g
        self.t += 1
        root_b2t = (1.0 - self.b2 ** self.t) ** 0.5
        step_size = self.lr * root_b2t / (1.0 - self.b1 ** self.t)
        m, v = self.m, self.v
        m *= self.b1
        m += (1.0 - self.b1) * g
        v *= self.b2
        g *= g
        g *= 1.0 - self.b2
        v += g
        np.sqrt(v, out=g)
        g += self.eps * root_b2t
        np.divide(m, g, out=g)
        g *= step_size
        self.flat -= g
        for p in self.params:
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
    """Load every role into its module; if any role, name or shape does not
    match, raise before any module is written."""
    staged = []
    manifest = tensor_io.read_manifest(dirpath)
    for role, module in modules.items():
        named = tensor_io.load_named_tensors(dirpath, role, manifest)
        if not named:
            raise ValueError(f"checkpoint at {dirpath} has no entries for role {role!r}")
        expected = [name for name, _ in module.named_parameters()]
        got = [name for name, _ in named]
        if expected != got:
            extra = [name for name in got if name not in expected]
            missing = [name for name in expected if name not in got]
            raise ValueError(
                f"checkpoint role {role!r} does not match the model's parameters "
                f"(not in the model: {', '.join(extra) or 'none'}; missing: "
                f"{', '.join(missing) or 'none'}); it was written by another model layout, "
                f"such as one with conv biases in front of instance_norm")
        staged.append((module, module._checked_arrays([arr for _, arr in named])))
    for module, arrays in staged:
        module._write_arrays(arrays)
