"""A tour of the tensor engine: forward ops, backward passes, gradient checks.

Run: python3 demos/01_autodiff_basics.py
"""

import numpy as np

from crdgan.autodiff import (
    Tensor, backward, conv2d, detach, finite_diff_grad, gradcheck,
    max_rel_error, mul, sqrt_guarded, tanh, tmean, tsum,
)

# Tensors wrap numpy arrays; setting requires_grad opens a gradient slot.
x = Tensor(np.array([3.0, -1.0, 2.0]), requires_grad=True)
loss = tsum(mul(x, x))          # sum of squares
backward(loss)
print("d/dx sum(x^2)      =", x.grad, "  (expect 2x =", 2 * x.data, ")")

# detach() shares values but cuts the graph: only one path differentiates.
x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
backward(tsum(mul(detach(x), x)))
print("d/dx sum(sg(x)*x)  =", x.grad, "  (expect x itself)")

# A convolution.  conv2d is channels-last: images are [B,H,W,C] and kernels
# [kh,kw,Cin,Cout], so every window is kh runs of kw*C contiguous floats.
rng = np.random.default_rng(0)
img = Tensor(rng.normal(size=(1, 5, 5, 1)))
ker = Tensor(rng.normal(size=(3, 3, 1, 2)))
out = conv2d(img, ker, stride=1, padding=1)
print("conv output shape  =", out.shape, "  ([B,H,W,Cout])")
# Output pixel (i, j), channel o, is the window's dot product with kernel o.
window = np.pad(img.data[0, :, :, 0], 1)[1:4, 2:5]
print("pixel (1,2), ch 1  =", f"{out.data[0, 1, 2, 1]:.6f}",
      f"  (expect {np.sum(window * ker.data[:, :, 0, 1]):.6f})")

# Every differentiable op is checked against central finite differences.
err = gradcheck(lambda t: tmean(mul(tanh(conv2d(t, ker, stride=2, padding=1)),
                                    tanh(conv2d(t, ker, stride=2, padding=1)))),
                img, tol=1e-6)
print(f"conv gradcheck     = {err:.2e} relative error")

# The same harness is available piecemeal, here on the Euclidean norm.
v = Tensor(rng.normal(size=6), requires_grad=True)


def norm(t):
    return sqrt_guarded(tsum(mul(t, t)))


backward(norm(v))
numeric = finite_diff_grad(norm, v, 1e-6)
print(f"norm gradcheck     = {max_rel_error(v.grad, numeric.data):.2e}")
