"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

A :class:`Tensor` wraps an ``ndarray`` plus an optional gradient slot.  Every
differentiable operation records its parents and a backward closure; calling
:func:`backward` on a scalar loss replays those closures in reverse execution
order.  The op set is deliberately small: just enough for ResNet-style
generators, PatchGAN-style discriminators and the relational / perceptual /
adversarial losses built on top of them.

Conventions:
  * float64 for gradient checks and metrics, float32 for training throughput
  * no general broadcasting -- binary ops take equal shapes, a python scalar,
    or a 0-d tensor; a non-tensor operand takes the dtype of the tensor one, so
    a float32 graph stays float32
  * tensors are immutable after creation except for ``grad`` (and leaf
    parameter updates between steps)
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor", "set_finite_checks",
    "add", "sub", "mul", "neg",
    "matmul", "reshape", "permute", "gather_sum",
    "relu", "leaky_relu", "tanh", "softplus", "absolute",
    "clamp_min", "reciprocal", "sqrt_guarded",
    "tsum", "tmean", "huber",
    "upsample2x", "conv2d", "instance_norm",
    "detach", "backward", "finite_diff_grad", "max_rel_error", "gradcheck",
]

_FLOAT_DTYPES = (np.float32, np.float64)
NORM_EPS = 1e-5           # instance_norm's variance floor
LEAKY_SLOPE = 0.2         # leaky_relu's negative slope: the discriminator's and the extractor's
_seq_counter = itertools.count()
_finite_checks = False


def set_finite_checks(enabled: bool) -> None:
    """Verify every op result is NaN/Inf-free (debug aid; costs a pass per op)."""
    global _finite_checks
    _finite_checks = bool(enabled)


class Tensor:
    """Dense real tensor with an optional gradient slot.

    ``data`` is always a C-contiguous float32/float64 ndarray.  ``grad`` is
    ``None`` until :func:`backward` populates it, and then has the same shape
    and dtype as ``data``.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward_fn", "_seq")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents: tuple = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None
        self._seq = next(_seq_counter)

    # -- inspection ------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, op={self.op!r})"

    # -- graph plumbing ---------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match tensor shape {self.shape}")
        if self.grad is None:
            # a fresh C-ordered copy: g may be a view or shared, and grad += g must not alias it
            self.grad = g.astype(self.data.dtype, order="C", copy=True)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def detach(self) -> "Tensor":
        return detach(self)

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axes=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axes, keepdims)

    def mean(self, axes=None, keepdims: bool = False) -> "Tensor":
        return tmean(self, axes, keepdims)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return permute(self, axes)


def _check_finite(data: np.ndarray, where: str) -> None:
    """With finite checks on, raise FloatingPointError naming ``where`` if data
    holds a NaN or an infinity."""
    if _finite_checks and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values in {where}")


def _result(data: np.ndarray, op: str, parents: Sequence[Tensor],
            backward_fn: Optional[Callable[[np.ndarray], None]]) -> Tensor:
    out = Tensor(data)
    out.op = op
    if _finite_checks:
        _check_finite(out.data, f"result of {op}")
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _as_tensor(x, like: Optional[Tensor] = None) -> Tensor:
    """x as a tensor; a scalar or array constant takes ``like``'s dtype."""
    return x if isinstance(x, Tensor) else Tensor(x, dtype=None if like is None else like.dtype)


def _operands(a, b) -> tuple:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    return a, _as_tensor(b, a)


def _check_binary_shapes(op: str, a: Tensor, b: Tensor) -> None:
    # exact match or a 0-d scalar on either side; nothing fancier
    if a.shape != b.shape and a.ndim != 0 and b.ndim != 0:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def _collapse(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce an op-output gradient back to an operand's (possibly 0-d) shape."""
    if g.shape == shape:
        return g
    return np.asarray(g.sum(), dtype=g.dtype).reshape(shape)


# -- elementwise arithmetic ------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    _check_binary_shapes("add", a, b)

    def back(g):
        if a.requires_grad:
            a._accumulate(_collapse(g, a.shape))
        if b.requires_grad:
            b._accumulate(_collapse(g, b.shape))

    return _result(a.data + b.data, "add", (a, b), back)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    _check_binary_shapes("sub", a, b)

    def back(g):
        if a.requires_grad:
            a._accumulate(_collapse(g, a.shape))
        if b.requires_grad:
            b._accumulate(_collapse(-g, b.shape))

    return _result(a.data - b.data, "sub", (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    _check_binary_shapes("mul", a, b)
    ad, bd = a.data, b.data

    def back(g):
        if a.requires_grad:
            a._accumulate(_collapse(g * bd, a.shape))
        if b.requires_grad:
            b._accumulate(_collapse(g * ad, b.shape))

    return _result(ad * bd, "mul", (a, b), back)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def back(g):
        if a.requires_grad:
            a._accumulate(-g)

    return _result(-a.data, "neg", (a,), back)


# -- unary nonlinearities ----------------------------------------------------

def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def back(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return _result(np.maximum(a.data, 0), "relu", (a,), back)


def _leaky_slope(a: np.ndarray) -> np.ndarray:
    """leaky_relu's slope per element of a: its output is a * slope, its
    input gradient g * slope."""
    # taken from a two-entry table (np.where on a random mask runs several
    # times slower); a * 1 is a, so a * slope has where()'s bytes
    return np.array([LEAKY_SLOPE, 1.0], dtype=a.dtype).take((a > 0).view(np.uint8))


def leaky_relu(a: Tensor) -> Tensor:
    slope = _leaky_slope(a.data)

    def back(g):
        if a.requires_grad:
            a._accumulate(g * slope)

    return _result(a.data * slope, "leaky_relu", (a,), back)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def back(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - y * y))

    return _result(y, "tanh", (a,), back)


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), the stable building block for the vanilla GAN losses."""
    y = np.logaddexp(0.0, a.data)
    sig = 0.5 * (1.0 + np.tanh(0.5 * a.data))  # sigmoid without overflow

    def back(g):
        if a.requires_grad:
            a._accumulate(g * sig)

    return _result(y, "softplus", (a,), back)


def absolute(a: Tensor) -> Tensor:
    s = np.sign(a.data)

    def back(g):
        if a.requires_grad:
            a._accumulate(g * s)

    return _result(np.abs(a.data), "abs", (a,), back)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    mask = a.data >= floor

    def back(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return _result(np.maximum(a.data, floor), "clamp_min", (a,), back)


def reciprocal(a: Tensor) -> Tensor:
    y = 1.0 / a.data

    def back(g):
        if a.requires_grad:
            a._accumulate(-g * y * y)

    return _result(y, "reciprocal", (a,), back)


def sqrt_guarded(a: Tensor, eps: float = 1e-12) -> Tensor:
    """sqrt clamped below at zero, with the gradient guarded near the origin.

    Backward uses g / (2 * max(sqrt(x), eps)) so exactly-zero inputs yield a
    zero gradient instead of an infinity.
    """
    y = np.sqrt(np.maximum(a.data, 0.0))
    denom = 2.0 * np.maximum(y, eps)

    def back(g):
        if a.requires_grad:
            a._accumulate(g / denom)

    return _result(y, "sqrt_guarded", (a,), back)


# -- reductions --------------------------------------------------------------

def _normalize_axes(axes, ndim: int):
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(int(ax) % ndim if -ndim <= int(ax) < ndim else int(ax) for ax in axes)
    if len(axes) == 0:
        raise ValueError("reduction over an empty axis list")
    for ax in axes:
        if ax < 0 or ax >= ndim:
            raise ValueError(f"reduction axis {ax} invalid for rank-{ndim} tensor")
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate reduction axes {axes}")
    return axes


def _expand_reduced(g: np.ndarray, in_shape: tuple, axes, keepdims: bool) -> np.ndarray:
    if not keepdims:
        shape = list(in_shape)
        for ax in axes:
            shape[ax] = 1
        g = g.reshape(shape)
    return np.broadcast_to(g, in_shape)


def tsum(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    if a.size == 0:
        raise ValueError("sum over an empty tensor")
    axes = _normalize_axes(axes, a.ndim)

    def back(g):
        if a.requires_grad:
            a._accumulate(_expand_reduced(g, a.shape, axes, keepdims))

    return _result(a.data.sum(axis=axes, keepdims=keepdims), "sum", (a,), back)


def tmean(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    if a.size == 0:
        raise ValueError("mean over an empty tensor")
    axes = _normalize_axes(axes, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]

    def back(g):
        if a.requires_grad:
            a._accumulate(_expand_reduced(g / count, a.shape, axes, keepdims))

    return _result(a.data.mean(axis=axes, keepdims=keepdims), "mean", (a,), back)


# -- shape manipulation ------------------------------------------------------

def reshape(a: Tensor, shape: tuple) -> Tensor:
    def back(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _result(a.data.reshape(shape), "reshape", (a,), back)


def permute(a: Tensor, axes: tuple) -> Tensor:
    inv = np.argsort(axes)

    def back(g):
        if a.requires_grad:
            a._accumulate(np.ascontiguousarray(g.transpose(inv)))

    return _result(np.ascontiguousarray(a.data.transpose(axes)), "permute", (a,), back)


def gather_sum(a: Tensor, idx, weights) -> Tensor:
    """Weighted sum of gathered entries of a flat tensor.

    out[t] = sum_k weights[k] * a[idx[t, k]], the terms added left to right.
    Backward scatters with one bincount, however often an entry is gathered.
    """
    if a.ndim != 1:
        raise ValueError(f"gather_sum expects a flat tensor, got shape {a.shape}")
    idx = np.asarray(idx, dtype=np.intp)
    w = np.asarray(weights, dtype=a.data.dtype)
    if idx.ndim != 2 or w.shape != (idx.shape[1],):
        raise ValueError(f"gather_sum: index shape {idx.shape} does not match {w.size} weights")

    def back(g):
        if a.requires_grad:
            a._accumulate(_scatter(g, idx, w, a.size))

    return _result(_gather(a.data, idx, w), "gather_sum", (a,), back)


def _gather(a: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """gather_sum's values: sum_k w[k] * a[idx[:, k]], added left to right,
    from one fancy index of a."""
    terms = a[idx] * w
    out = terms[:, 0]
    for k in range(1, w.size):
        out = out + terms[:, k]
    return out


def _scatter(g: np.ndarray, idx: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
    """gather_sum's adjoint: one float64 bincount, then cast to g's dtype."""
    return np.bincount(idx.reshape(-1), weights=(g[:, None] * w).reshape(-1),
                       minlength=size).astype(g.dtype)


# -- losses ------------------------------------------------------------------

def huber(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise Huber penalty with unit transition point.

    0.5*(a-b)^2 where |a-b| <= 1, otherwise |a-b| - 0.5.  Continuous at the
    branch point (both sides give 0.5) with gradient magnitude capped at 1.
    """
    a, b = _operands(a, b)
    _check_binary_shapes("huber", a, b)
    d = a.data - b.data
    dd = _huber_slope(d)

    def back(g):
        if a.requires_grad:
            a._accumulate(_collapse(g * dd, a.shape))
        if b.requires_grad:
            b._accumulate(_collapse(-g * dd, b.shape))

    return _result(_huber(d), "huber", (a, b), back)


def _huber(d: np.ndarray) -> np.ndarray:
    """:func:`huber`'s value at the differences d."""
    size = np.abs(d)
    return np.where(size <= 1.0, 0.5 * d * d, size - 0.5)


def _huber_slope(d: np.ndarray) -> np.ndarray:
    """:func:`huber`'s derivative in a at the differences d."""
    return np.where(np.abs(d) <= 1.0, d, np.sign(d))


# -- structured ops for conv nets ---------------------------------------------
#
# Activations are channels-last, [B,H,W,C], and conv kernels are
# [kh,kw,Cin,Cout]: a conv window is then kh runs of kw*C contiguous floats.


def _conv_size(n: int, k: int, stride: int = 1, padding: int = 0) -> int:
    """A conv's output length along an input axis of length n, for kernel
    length k: floor((n + 2*padding - k) / stride) + 1."""
    return (n + 2 * padding - k) // stride + 1


def _pad(a: np.ndarray, top: int, left: int, bottom: int, right: int) -> np.ndarray:
    """a [B,H,W,C] with zero rows and columns added around its spatial axes.

    A negative amount crops that many rows or columns instead.
    """
    if min(top, left, bottom, right) < 0:
        h, w = a.shape[1:3]
        a = a[:, max(-top, 0):h - max(-bottom, 0), max(-left, 0):w - max(-right, 0)]
        top, left, bottom, right = max(top, 0), max(left, 0), max(bottom, 0), max(right, 0)
    if not (top or left or bottom or right):
        return a
    bsz, h, w, c = a.shape
    out = np.zeros((bsz, top + h + bottom, left + w + right, c), dtype=a.dtype)
    out[:, top:top + h, left:left + w] = a
    return out


def _upsample_forward(a: np.ndarray) -> np.ndarray:
    """Nearest-neighbour 2x spatial upsampling of a [B,H,W,C] array."""
    if a.ndim != 4:
        raise ValueError(f"upsample2x expects rank-4, got {a.shape}")
    return a.repeat(2, axis=1).repeat(2, axis=2)


def _upsample_backward(g: np.ndarray) -> np.ndarray:
    """The input gradient of :func:`_upsample_forward` for output gradient g."""
    b_, h2, w2, c_ = g.shape
    # each 2x2 block as (top pair) + (bottom pair), in two strided adds
    v = g.reshape(b_, h2 // 2, 2, w2 // 2, 2, c_)
    p = v[:, :, :, :, 0] + v[:, :, :, :, 1]
    return p[:, :, 0] + p[:, :, 1]


def upsample2x(a: Tensor) -> Tensor:
    """Nearest-neighbour 2x spatial upsampling of a [B,H,W,C] tensor."""
    def back(g):
        if a.requires_grad:
            a._accumulate(_upsample_backward(g))

    return _result(_upsample_forward(a.data), "upsample2x", (a,), back)


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Every kh x kw window of a [B,H,W,C] array as a [B*Ho*Wo, kh*kw*C] matrix.

    One read-only strided view [B, Ho, Wo, kh, kw, C] with the stride folded
    in, then the one reshape copy, which moves each window row as one run of
    kw*C contiguous floats.  The view is built on a C-contiguous xp (a
    broadcast or strided input is copied first) by the plain ndarray
    constructor, which skips as_strided's per-call Python set-up.
    """
    xp = np.ascontiguousarray(xp)
    bsz, h, w, c = xp.shape
    ho, wo = _conv_size(h, kh, stride), _conv_size(w, kw, stride)
    sb, sh, sw, sc = xp.strides
    win = np.ndarray((bsz, ho, wo, kh, kw, c), xp.dtype, xp, 0,
                     (sb, sh * stride, sw * stride, sh, sw, sc))
    win.flags.writeable = False
    return win.reshape(bsz * ho * wo, kh * kw * c)


def _mec(xp: np.ndarray, kw: int) -> np.ndarray:
    """The MEC row columns of a [B,Hp,Wp,C] array: [B, Hp, Wo, kw*C], Wo = Wp-kw+1.

    These are :func:`_im2col`'s 1 x kw windows at stride 1: each row holds
    the kw*C floats of one width window of one input row, so the matrix is kh
    times smaller than the kh x kw im2col one, and a stride-1 kh x kw window
    is kh consecutive rows of it, Wo rows apart (Cho & Brand, "MEC:
    Memory-efficient Convolution", ICML 2017).
    """
    bsz, hp, wp, c = xp.shape
    return _im2col(xp, 1, kw, 1).reshape(bsz, hp, _conv_size(wp, kw), kw * c)


def _mec_conv(cols: np.ndarray, wk: np.ndarray) -> np.ndarray:
    """The stride-1 conv of MEC columns [B,Hp,Wo,kw*C] with a kernel [kh, kw*C, Cout].

    The batch is stacked as one tall image of B*Hp rows, so kernel row i
    reads the contiguous row block ``cols[i*Wo:(i+R)*Wo]``, R = B*Hp-kh+1:
    one matmul over the [kh, R*Wo, kw*C] view of those blocks, summed over
    kh, gives every output row, and the kh-1 rows that straddle two images
    are dropped.  Returns [B, Ho, Wo, Cout] in the promoted dtype.
    """
    bsz, hp, wo, kc = cols.shape
    kh, _, cout = wk.shape
    ho, r = _conv_size(hp, kh), _conv_size(bsz * hp, kh)
    row = kc * cols.itemsize
    blocks = np.ndarray((kh, r * wo, kc), cols.dtype, cols, 0, (wo * row, row, cols.itemsize))
    parts = np.matmul(blocks, wk)                                  # [kh, R*Wo, Cout]
    # each image's Ho*Wo output rows of every part, summed over kh into a fresh array
    n, isz = ho * wo * cout, parts.itemsize
    parts = np.ndarray((kh, bsz, n), parts.dtype, parts, 0,
                       (r * wo * cout * isz, hp * wo * cout * isz, isz))
    return parts.sum(axis=0).reshape(bsz, ho, wo, cout)


def _mec_kernel_grad(cols: np.ndarray, g: np.ndarray, kh: int) -> np.ndarray:
    """The kernel gradient [kh, kw*C, Cout] of :func:`_mec_conv` for output gradient g.

    Per image: kernel row i's Ho*Wo-row block of that image's columns,
    transposed, times the image's gradient; one matmul over the
    [kh, B, Ho*Wo, kw*C] view of those blocks, then a sum over the batch.
    """
    bsz, hp, wo, kc = cols.shape
    ho, cout = _conv_size(hp, kh), g.shape[-1]
    row = kc * cols.itemsize
    blocks = np.ndarray((kh, bsz, ho * wo, kc), cols.dtype, cols, 0,
                        (wo * row, hp * wo * row, row, cols.itemsize))
    gw = np.matmul(blocks.swapaxes(-1, -2), g.reshape(bsz, ho * wo, cout))
    return gw.sum(axis=1)


def _conv_forward(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray], stride: int,
                  padding: int, keep_cols: bool) -> tuple:
    """conv2d's forward on arrays: (out [B,Ho,Wo,Cout], the column matrix or None).

    The column matrix is what the kernel gradient reads; it is returned only
    with ``keep_cols``, so a caller that wants no kernel gradient holds none.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d expects rank-4 input and kernel, got {x.shape} and {w.shape}")
    if stride <= 0:
        raise ValueError(f"conv2d: stride must be positive, got {stride}")
    if padding < 0:
        raise ValueError(f"conv2d: padding must be non-negative, got {padding}")
    bsz, h, wd, cin = x.shape
    kh, kw, cin_w, cout = w.shape
    if cin != cin_w:
        raise ValueError(f"conv2d: input channels {cin} do not match kernel channels {cin_w}")
    hp, wp = h + 2 * padding, wd + 2 * padding
    if kh > hp or kw > wp:
        raise ValueError(
            f"conv2d: kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    if b is not None and b.shape != (cout,):
        raise ValueError(f"conv2d: bias shape {b.shape} does not match Cout={cout}")

    xp = _pad(x, padding, padding, padding, padding)
    if stride == 1:
        cols = _mec(xp, kw)
        out = _mec_conv(cols, w.reshape(kh, kw * cin, cout))
    else:
        cols = _im2col(xp, kh, kw, stride)
        out = (cols @ w.reshape(-1, cout)).reshape(bsz, _conv_size(hp, kh, stride),
                                                   _conv_size(wp, kw, stride), cout)
    if b is not None:
        out += b
    return out, (cols if keep_cols else None)


def _phase_kernels(w: np.ndarray, stride: int) -> np.ndarray:
    """The kernel that conv2d's input gradient convolves with, for a kernel w
    [kh,kw,Cin,Cout] at stride s: w zero-extended to ka*s x kb*s
    (ka = ceil(kh/s)) and split into s*s flipped ka x kb phase kernels,
    stacked as [ka, kb*Cout, s*s*Cin].  A fixed kernel's can be built once."""
    kh, kw, cin, cout = w.shape
    s = stride
    ka, kb = -(-kh // s), -(-kw // s)
    wz = _pad(w.reshape(1, kh, kw, cin * cout), 0, 0, ka * s - kh, kb * s - kw)
    wz = wz.reshape(ka, s, kb, s, cin, cout)
    return wz[::-1, :, ::-1].transpose(0, 2, 5, 1, 3, 4).reshape(ka, -1, s * s * cin)


def _conv_backward(g: np.ndarray, cols: Optional[np.ndarray], x_shape: tuple, w: np.ndarray,
                   stride: int, padding: int, need_x: bool, need_b: bool,
                   phases: Optional[np.ndarray] = None) -> tuple:
    """conv2d's adjoint for output gradient g [B,Ho,Wo,Cout]: (input gradient,
    kernel gradient, bias gradient), each None when not asked for.  The
    kernel gradient is computed when ``cols`` (from :func:`_conv_forward`)
    is given.  The input gradient convolves with ``phases``, which is
    :func:`_phase_kernels` of w and is built from w when not given.
    """
    bsz, h, wd, cin = x_shape
    kh, _, _, cout = w.shape
    s = stride
    g2 = g.reshape(-1, cout)
    gx = gw = gb = None
    if cols is not None:
        gw = _mec_kernel_grad(cols, g, kh) if s == 1 else cols.T @ g2
        gw = gw.reshape(w.shape)
    if need_x:
        hout, wout = g.shape[1:3]
        if phases is None:
            phases = _phase_kernels(w, s)
        ka, kb = phases.shape[0], phases.shape[1] // cout     # each phase kernel's size
        # phase rows q0..q1 and columns r0..r1 hold the unpadded input
        q0, r0 = padding // s, padding // s
        q1, r1 = -(-(padding + h) // s), -(-(padding + wd) // s)
        gy = _pad(g, ka - 1 - q0, kb - 1 - r0, q1 - hout, r1 - wout)
        gx = _mec_conv(_mec(gy, kb), phases)
        gx = gx.reshape(bsz, q1 - q0, r1 - r0, s, s, cin).transpose(0, 1, 3, 2, 4, 5)
        gx = gx.reshape(bsz, (q1 - q0) * s, (r1 - r0) * s, cin)
        t, u = padding - q0 * s, padding - r0 * s
        gx = gx[:, t:t + h, u:u + wd]
    if need_b:
        # g2's column sums as a matrix-vector product: summing over axis 0
        # adds rows of only Cout floats at a time, several times slower
        gb = np.ones(len(g2), dtype=g2.dtype) @ g2
    return gx, gw, gb


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of [B,H,W,Cin] with kernels [kh,kw,Cin,Cout].

    The output is [B,Ho,Wo,Cout], its spatial size :func:`_conv_size`.
    Gradients are defined for the input, the kernel and the bias.  The
    arithmetic is the kernel pair
    :func:`_conv_forward` / :func:`_conv_backward`, which the networks'
    nodes in ``models`` call as well.

    Stride 1 (every layer but the downsampling ones) is lowered by MEC: the
    padded input's row columns [B, Hp, Wo, kw*Cin] (:func:`_mec`), kh times
    smaller than an im2col matrix, are kept for the backward; the forward is
    one matmul of kh row blocks with the kernel as [kh, kw*Cin, Cout], summed
    over kh (:func:`_mec_conv`), and the kernel gradient the same blocks,
    transposed, times the output gradient (:func:`_mec_kernel_grad`).
    Stride 2 keeps one im2col matrix ``cols`` [B*Ho*Wo, kh*kw*Cin]
    (:func:`_im2col`): the forward is ``cols @ w.reshape(-1, Cout)`` and the
    kernel gradient ``cols.T @ g2``.

    The input gradient is a transposed conv at any stride s, itself one
    stride-1 MEC conv: the kernel, zero-extended to ka*s x kb*s
    (ka = ceil(kh/s)), splits into s*s flipped ka x kb phase kernels stacked
    as [ka, kb*Cout, s*s*Cin]; their conv with the output gradient, padded
    by ka-1, kb-1 (and cropped to the rows and columns that reach the
    unpadded input), gives each phase's rows and columns of the input
    gradient, which a depth-to-space interleave assembles.  At stride 1 this
    is the conv of the padded gradient with the flipped, transposed kernel.

    Every result takes the promoted dtype of the input and the kernel.
    Which gradients the backward computes is fixed by the flags when the op
    runs.
    """
    x_grad, w_grad, b_grad = x.requires_grad, w.requires_grad, b is not None and b.requires_grad
    out, cols = _conv_forward(x.data, w.data, None if b is None else b.data, stride, padding,
                              w_grad)

    def back(g):
        gx, gw, gb = _conv_backward(g, cols, x.shape, w.data, stride, padding, x_grad, b_grad)
        if w_grad:
            w._accumulate(gw)
        if x_grad:
            x._accumulate(gx)
        if b_grad:
            b._accumulate(gb)

    return _result(out, "conv2d", (x, w) if b is None else (x, w, b), back)


@functools.lru_cache(maxsize=32)
def _mean_weights(n: int, dtype: np.dtype) -> np.ndarray:
    r = np.full(n, 1.0 / n, dtype=dtype)
    r.setflags(write=False)
    return r


def _norm_mean(a: np.ndarray) -> np.ndarray:
    """Per-image, per-channel spatial mean of a [B,H,W,C] array, as [B,1,1,C].

    A (1/n)-vector times each image's [H*W, C] matrix; a reduction over axes
    (1, 2) adds rows of only C floats, several times slower at few channels.
    """
    bsz, h, w, c = a.shape
    return (_mean_weights(h * w, a.dtype) @ a.reshape(bsz, h * w, c)).reshape(bsz, 1, 1, c)


def _norm_forward(x: np.ndarray) -> tuple:
    """instance_norm's forward on a [B,H,W,C] array: (y, inv), inv = 1/std."""
    if x.ndim != 4:
        raise ValueError(f"instance_norm expects rank-4, got {x.shape}")
    xc = x - _norm_mean(x)
    inv = 1.0 / np.sqrt(_norm_mean(xc * xc) + NORM_EPS)
    return xc * inv, inv


def _norm_backward(g: np.ndarray, y: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The input gradient of :func:`_norm_forward` for output gradient g."""
    return inv * (g - _norm_mean(g) - y * _norm_mean(g * y))


def instance_norm(x: Tensor) -> Tensor:
    """Per-sample, per-channel normalization of [B,H,W,C] over the spatial axes (no affine)."""
    y, inv = _norm_forward(x.data)

    def back(g):
        if x.requires_grad:
            x._accumulate(_norm_backward(g, y, inv))

    return _result(y, "instance_norm", (x,), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[m,k] @ [k,n], or a stack of them: [b,m,k] @ [b,k,n] -> [b,m,n]."""
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ValueError(f"matmul expects two rank-2 or two rank-3 operands, "
                         f"got {a.shape} and {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"matmul: batch dims differ, {a.shape} vs {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dims differ, {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def back(g):
        if a.requires_grad:
            a._accumulate(g @ bd.swapaxes(-1, -2))
        if b.requires_grad:
            b._accumulate(ad.swapaxes(-1, -2) @ g)

    return _result(ad @ bd, "matmul", (a, b), back)


# -- graph traversal ----------------------------------------------------------

def detach(t: Tensor) -> Tensor:
    """A tensor sharing t's values through which no gradient flows."""
    out = Tensor(t.data)
    out.op = "detach"
    return out


def backward(loss: Tensor) -> None:
    """Populate grad slots of every differentiable tensor reachable from loss.

    The loss must be scalar (rank 0) and must depend on at least one tensor
    with requires_grad set.  Each recorded operation's adjoint runs exactly
    once, in reverse execution order.
    """
    if loss.ndim != 0:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: loss does not depend on any requires_grad tensor")

    nodes: list[Tensor] = []
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append(p)

    nodes.sort(key=lambda t: t._seq, reverse=True)
    loss.grad = np.ones_like(loss.data)
    for node in nodes:
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


# -- verification oracle -------------------------------------------------------

def finite_diff_grad(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-6) -> Tensor:
    """Central-difference gradient estimate of a scalar-valued f at x."""
    if eps <= 0:
        raise ValueError(f"finite_diff_grad: eps must be positive, got {eps}")
    base = x.data.astype(np.float64)
    out = np.zeros_like(base)
    flat = out.reshape(-1)
    for i in range(base.size):
        xp = base.copy().reshape(-1)
        xm = base.copy().reshape(-1)
        xp[i] += eps
        xm[i] -= eps
        fp = f(Tensor(xp.reshape(base.shape))).item()
        fm = f(Tensor(xm.reshape(base.shape))).item()
        flat[i] = (fp - fm) / (2.0 * eps)
    return Tensor(out)


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst per-coordinate relative error, floored at the gradient's scale.

    The denominator never drops below 1e-3 * (1 + max|numeric|) so that
    coordinates with near-zero gradients are judged against the vector's
    overall magnitude instead of finite-difference noise.
    """
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    floor = 1e-3 * (1.0 + float(np.abs(n).max(initial=0.0)))
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / denom).max(initial=0.0))


def _check_gradient(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-6) -> tuple:
    """backward() against finite differences at x, in float64: (loss, flat analytic and
    numeric gradients, worst relative error, index of the largest absolute difference)."""
    xt = Tensor(x.data.astype(np.float64), requires_grad=True)
    loss = f(xt)
    backward(loss)
    if xt.grad is None:
        raise AssertionError("gradcheck: no gradient reached the input")
    analytic = xt.grad.reshape(-1)
    numeric = finite_diff_grad(f, xt, eps).data.reshape(-1)
    worst = int(np.abs(analytic - numeric).argmax())
    return loss.item(), analytic, numeric, max_rel_error(analytic, numeric), worst


def gradcheck(f: Callable[[Tensor], Tensor], x: Tensor,
              eps: float = 1e-6, tol: float = 1e-5) -> float:
    """Check backward() against finite differences; returns the worst error.

    Raises AssertionError naming the worst coordinate when the tolerance is
    exceeded.  Run in float64: finite differences are unreliable in float32.
    """
    _, analytic, numeric, err, worst = _check_gradient(f, x, eps)
    if err > tol:
        raise AssertionError(
            f"gradcheck: relative error {err:.3e} > {tol:.1e} at flat index {worst} "
            f"(analytic {analytic[worst]:.6e}, numeric {numeric[worst]:.6e})")
    return err
