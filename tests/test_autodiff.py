"""Tensor engine: forward values against loop oracles, backward against
central finite differences, detach semantics, and the tensor file format."""

import numpy as np
import pytest

from crdgan.autodiff import (
    Tensor, absolute, backward, clamp_min, conv2d, detach, finite_diff_grad,
    gather_sum, gradcheck, huber, instance_norm,
    leaky_relu, matmul, mul, permute, reciprocal, reshape,
    softplus, sqrt_guarded, tanh, tmean, tsum, upsample2x,
)
from crdgan import tensor_io
from crdgan.autodiff import _im2col, _mec


class TestElementwise:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mul_by_zero_annihilates_and_kills_grad(self):
        x = Tensor([1.5, -2.0], requires_grad=True)
        out = tsum(mul(x, 0.0))
        backward(out)
        np.testing.assert_array_equal(out.data, 0.0)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_sub_self_is_zero(self):
        x = Tensor([1.0, -3.0, 7.0])
        np.testing.assert_array_equal((x - x).data, [0.0, 0.0, 0.0])

    def test_scalar_operands_keep_float32(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        for out in (x * 2.5, 2.5 * x, x + 1.0, 1.0 - x, x - np.float64(1.0),
                    huber(x, 0.0)):
            assert out.dtype == np.float32
        assert (Tensor(np.ones(3)) * np.float32(2.0)).dtype == np.float64

    def test_scalar_tensor_operand(self):
        x = Tensor([2.0, 4.0], requires_grad=True)
        s = Tensor(np.asarray(2.0), requires_grad=True)
        out = tsum(x * s)
        backward(out)
        np.testing.assert_allclose(x.grad, [2.0, 2.0])
        np.testing.assert_allclose(s.grad, 2.0 + 4.0)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])


class TestConv2d:
    # conv2d takes channels-last [B,H,W,C] inputs and [kh,kw,Cin,Cout] kernels;
    # the oracles are written in NCHW / [Cout,Cin,kh,kw] and converted at the call

    def test_ones_summed_by_ones_kernel(self):
        out = conv2d(Tensor(np.ones((1, 3, 3, 1))), Tensor(np.ones((3, 3, 1, 1))))
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 9.0

    def test_identity_1x1_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 5, 5, 1)))
        out = conv2d(x, Tensor(np.ones((1, 1, 1, 1))))
        np.testing.assert_array_equal(out.data, x.data)

    def test_against_nested_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 2, 2, 2))
        for stride, padding in [(1, 0), (1, 1), (2, 0), (2, 1)]:
            got = conv2d(Tensor(_cl(x)), Tensor(_hwio(w)), stride=stride, padding=padding).data
            want = _conv_oracle(x, w, stride, padding)
            np.testing.assert_allclose(_nchw(got), want, atol=1e-10)
        for x_shape, w_shape, stride, padding in _CONV_CASES:
            x = rng.normal(size=x_shape)
            w = rng.normal(size=w_shape)
            b = rng.normal(size=w_shape[0])
            xt = Tensor(_cl(x), requires_grad=True)
            out = conv2d(xt, Tensor(_hwio(w)), Tensor(b), stride, padding)
            want = _conv_oracle(x, w, stride, padding) + b[None, :, None, None]
            np.testing.assert_allclose(_nchw(out.data), want, atol=1e-10)
            g = rng.normal(size=want.shape)
            backward(tsum(mul(out, Tensor(_cl(g)))))
            want_gx = _conv_input_grad_oracle(g, w, x.shape, stride, padding)
            np.testing.assert_allclose(_nchw(xt.grad), want_gx, atol=1e-10)
            # float32 in, float32 out: values, and every gradient's dtype and layout
            f32 = [Tensor(a.astype(np.float32), requires_grad=True)
                   for a in (_cl(x), _hwio(w), b)]
            out = conv2d(*f32, stride, padding)
            assert out.dtype == np.float32 and out.data.flags["C_CONTIGUOUS"]
            np.testing.assert_allclose(_nchw(out.data), want, rtol=1e-4, atol=1e-4)
            backward(tsum(mul(out, Tensor(_cl(g).astype(np.float32)))))
            np.testing.assert_allclose(_nchw(f32[0].grad), want_gx, rtol=1e-4, atol=1e-4)
            for t in f32:
                assert t.grad.dtype == np.float32 and t.grad.flags["C_CONTIGUOUS"]

    def test_im2col_matches_window_oracle(self):
        rng = np.random.default_rng(3)
        cases = [(x_shape, w_shape[2:], stride, padding)
                 for x_shape, w_shape, stride, padding in _CONV_CASES]
        cases += [((3, 2, 7, 8), (3, 3), 3, 0),     # batch 3, stride 3, last rows unreached
                  ((2, 4, 5, 6), (1, 1), 1, 0)]     # 1x1 kernel at padding 0
        for x_shape, (kh, kw), stride, padding in cases:
            pads = ((0, 0), (padding, padding), (padding, padding), (0, 0))
            xp = np.pad(_cl(rng.normal(size=x_shape)), pads)
            # contiguous, float32, zero-stride broadcast, and a strided slice
            for a in (xp, xp.astype(np.float32), np.broadcast_to(xp[:1, :, :1], xp.shape),
                      np.repeat(xp, 2, axis=2)[:, :, ::2]):
                got = _im2col(a, kh, kw, stride)
                want = _im2col_oracle(a, kh, kw, stride)
                assert got.dtype == a.dtype and np.array_equal(got, want)

    def test_im2col_view_is_read_only(self):
        # a 1x1 kernel at stride 1 on one image: the reshape keeps the window a view
        xp = np.arange(24, dtype=np.float32).reshape(1, 3, 4, 2)
        cols = _im2col(xp, 1, 1, 1)
        assert np.shares_memory(cols, xp) and not cols.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cols[0, 0] = 1.0
        assert xp.flags.writeable

    def test_mec_matches_row_window_oracle(self):
        rng = np.random.default_rng(7)
        cases = [((1, 5, 6, 2), 3), ((3, 4, 7, 3), 2), ((2, 3, 5, 4), 1), ((2, 3, 4, 2), 4)]
        for shape, kw in cases:
            xp = rng.normal(size=shape)
            for a in (xp, xp.astype(np.float32), np.repeat(xp, 2, axis=2)[:, :, ::2]):
                got = _mec(a, kw)
                win = np.lib.stride_tricks.sliding_window_view(a, kw, axis=2)   # [B,Hp,Wo,C,kw]
                want = win.transpose(0, 1, 2, 4, 3).reshape(got.shape)
                assert got.dtype == a.dtype and got.flags["C_CONTIGUOUS"]
                assert got.shape == shape[:2] + (shape[2] - kw + 1, kw * shape[3])
                assert np.array_equal(got, want)
        cols = _mec(np.zeros((1, 3, 4, 2)), 1)   # a 1x1 window: the reshape keeps a view
        assert not cols.flags.writeable

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_float32_input_into_float64_kernel_promotes(self, stride, batch, monkeypatch):
        # the results follow the promoted dtype, not the float32 columns' one; the
        # input gradient is checked as it reaches the input, before Tensor.grad
        # takes the input's own dtype
        rng = np.random.default_rng(6)
        x = rng.normal(size=(batch, 7, 6, 3)).astype(np.float32)
        w, b = rng.normal(size=(3, 3, 3, 4)), rng.normal(size=4)
        reached = {}
        accumulate = Tensor._accumulate

        def spy(t, g):
            reached[id(t)] = g
            accumulate(t, g)

        monkeypatch.setattr(Tensor, "_accumulate", spy)

        def run(xa):
            leaves = [Tensor(a, requires_grad=True) for a in (xa, w, b)]
            out = conv2d(*leaves, stride, 1)
            g = np.random.default_rng(8).normal(size=out.shape)
            backward(tsum(mul(out, Tensor(g))))
            return out, leaves

        out, leaves = run(x)
        ref, ref_leaves = run(x.astype(np.float64))
        assert out.dtype == np.float64
        np.testing.assert_allclose(out.data, ref.data, rtol=1e-12, atol=1e-12)
        for t, r in zip(leaves, ref_leaves):
            g = reached[id(t)]
            assert g.dtype == np.float64
            np.testing.assert_allclose(g, r.grad, rtol=1e-12, atol=1e-12)
        assert leaves[0].grad.dtype == np.float32

    def test_input_gradient_through_mean(self):
        # conv2d straight into tmean, whose backward broadcasts one value;
        # the kernels need no padding of the output gradient (ka = kb = 1)
        rng = np.random.default_rng(4)
        for w_shape, stride in [((3, 2, 1, 1), 1), ((3, 2, 2, 2), 2)]:
            x = rng.normal(size=(2, 2, 6, 6))
            xt = Tensor(_cl(x), requires_grad=True)
            w = rng.normal(size=w_shape)
            out = conv2d(xt, Tensor(_hwio(w)), stride=stride)
            backward(tmean(out))
            g = np.full(_nchw(out.data).shape, 1.0 / out.size)
            want = _conv_input_grad_oracle(g, w, x.shape, stride, 0)
            np.testing.assert_allclose(_nchw(xt.grad), want, rtol=1e-12, atol=1e-15)

    def test_gradient_set_fixed_when_the_op_runs(self):
        # a frozen module switches its flags off for the forward only: turning
        # them back on before backward must not make the parameters trainable,
        # and turning one off after the forward must not drop its gradient
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 5, 5, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 2, 3)))
        b = Tensor(rng.normal(size=3))
        out = conv2d(x, w, b, 1, 1)
        w.requires_grad = b.requires_grad = True
        backward(tsum(out))
        assert x.grad is not None and w.grad is None and b.grad is None

        x.zero_grad()
        out = conv2d(x, w, b, 1, 1)
        w.requires_grad = False
        backward(tsum(out))
        assert x.grad is not None and w.grad is not None and b.grad is not None

    def test_output_size_formula(self):
        out = conv2d(Tensor(np.zeros((2, 9, 7, 3))), Tensor(np.zeros((3, 3, 3, 4))),
                     stride=2, padding=1)
        assert out.shape == (2, (9 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1, 4)

    def test_nonpositive_stride_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            conv2d(Tensor(np.zeros((1, 4, 4, 1))), Tensor(np.zeros((3, 3, 1, 1))), stride=0)

    def test_channel_mismatch_rejected(self):
        # an NCHW input against a [kh,kw,Cin,Cout] kernel: its width is read as channels
        with pytest.raises(ValueError, match="input channels 5 do not match kernel channels 2"):
            conv2d(Tensor(np.zeros((1, 2, 5, 5))), Tensor(np.zeros((3, 3, 2, 4))))

    def test_kernel_larger_than_padded_input_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            conv2d(Tensor(np.zeros((1, 2, 2, 1))), Tensor(np.zeros((5, 5, 1, 1))))

    def test_gradients(self):
        rng = np.random.default_rng(2)
        x = _cl(rng.normal(size=(1, 2, 5, 5)))
        w0 = _hwio(rng.normal(size=(2, 2, 3, 3)))
        b0 = rng.normal(size=2)

        def sq_sum(t):
            return tsum(mul(t, t))

        gradcheck(lambda t: sq_sum(conv2d(t, Tensor(w0), Tensor(b0), 2, 1)),
                  Tensor(x), tol=1e-6)
        gradcheck(lambda t: sq_sum(conv2d(Tensor(x), t, Tensor(b0), 1, 1)),
                  Tensor(w0), tol=1e-6)
        gradcheck(lambda t: sq_sum(conv2d(Tensor(x), Tensor(w0), t, 1, 0)),
                  Tensor(b0), tol=1e-6)
        for x_shape, w_shape, stride, padding in _CONV_CASES:
            x = _cl(rng.normal(size=(max(2, x_shape[0]),) + x_shape[1:]))
            w0 = _hwio(rng.normal(size=w_shape))
            b0 = rng.normal(size=w_shape[0])
            g = Tensor(rng.normal(size=conv2d(Tensor(x), Tensor(w0), None, stride,
                                              padding).shape))
            leaves = (x, w0, b0)
            for i in range(3):
                def f(t, i=i):
                    args = [Tensor(a) for a in leaves]
                    args[i] = t
                    return tsum(mul(conv2d(*args, stride, padding), g))

                gradcheck(f, Tensor(leaves[i]), tol=1e-6)


def _instance_norm_mean_oracle(x, g, eps=1e-5):
    """instance_norm's forward and input gradient on NCHW arrays, written with np.mean."""
    xc = x - x.mean(axis=(2, 3), keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=(2, 3), keepdims=True) + eps)
    y = xc * inv
    gm = g.mean(axis=(2, 3), keepdims=True)
    gym = (g * y).mean(axis=(2, 3), keepdims=True)
    return y, inv * (g - gm - y * gym)


class TestInstanceNorm:
    @staticmethod
    def _run(x, g):
        """instance_norm's forward and input gradient on channels-last x and g."""
        xt = Tensor(x, requires_grad=True)
        y = instance_norm(xt)
        # d(sum(y * g))/dy is g exactly, so x.grad is the backward of g
        backward(tsum(mul(y, Tensor(g))))
        return y, xt.grad

    def test_matches_the_np_mean_formula(self):
        # the means are (1/n)-vector products, so the bytes differ from np.mean's
        # pairwise sums: agreement to a few float ulps
        rng = np.random.default_rng(8)
        for dtype, rtol in ((np.float32, 2e-5), (np.float64, 1e-12)):
            for bsz in (1, 4):
                x = rng.normal(1.0, 3.0, (bsz, 3, 8, 6)).astype(dtype)
                g = rng.normal(size=x.shape).astype(dtype)
                y, gx = self._run(_cl(x), _cl(g))
                want_y, want_gx = _instance_norm_mean_oracle(x, g)
                assert y.dtype == gx.dtype == dtype
                np.testing.assert_allclose(_nchw(y.data), want_y, rtol=rtol, atol=rtol)
                np.testing.assert_allclose(_nchw(gx), want_gx, rtol=rtol, atol=rtol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_each_image_normalised_alone(self, dtype):
        # an image's bytes do not depend on the batch it is in
        rng = np.random.default_rng(9)
        x = rng.normal(1.0, 3.0, (4, 8, 8, 16)).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        y, gx = self._run(x, g)
        for i in range(4):
            yi, gxi = self._run(x[i:i + 1], g[i:i + 1])
            assert yi.data.tobytes() == y.data[i:i + 1].tobytes()
            assert gxi.tobytes() == gx[i:i + 1].tobytes()


class TestReductions:
    def test_sum(self):
        assert tsum(Tensor([1.0, 2.0, 3.0])).item() == 6.0

    def test_mean_of_constant(self):
        assert tmean(Tensor(np.full((3, 4), 2.5))).item() == 2.5

    def test_sum_against_scalar_loop(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3))
        want = 0.0
        for row in x:
            for v in row:
                want += v
        assert abs(tsum(Tensor(x)).item() - want) < 1e-12

    def test_axis_reduction_and_grad(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4))
        gradcheck(lambda t: tsum(mul(tmean(t, axes=1), tmean(t, axes=1))), Tensor(x), tol=1e-7)

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            tsum(Tensor(np.ones((2, 2))), axes=())


class TestDetach:
    def test_single_path_derivative(self):
        # d/dx sum(detach(x) * x) = x, not 2x
        x = Tensor([1.0, 2.0, -3.0], requires_grad=True)
        backward(tsum(mul(detach(x), x)))
        np.testing.assert_array_equal(x.grad, x.data)

    def test_detached_branch_gets_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        d = detach(x)
        assert not d.requires_grad
        with pytest.raises(ValueError, match="requires_grad"):
            backward(tsum(d))
        assert x.grad is None

    def test_values_shared(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        assert detach(x).data is x.data


class TestBackward:
    def test_square(self):
        x = Tensor(np.asarray(3.0), requires_grad=True)
        backward(mul(x, x))
        assert x.grad == 6.0

    def test_sum_gives_ones(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        backward(tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(x + x)

    def test_composite_against_finite_differences(self):
        rng = np.random.default_rng(7)
        x = _cl(rng.normal(size=(2, 1, 6, 6)))
        w = _hwio(rng.normal(size=(2, 1, 3, 3)) * 0.5)

        def f(t):
            h = leaky_relu(conv2d(t, Tensor(w), stride=2, padding=1))
            h = instance_norm(h)
            return tmean(mul(tanh(h), tanh(h))) + tsum(softplus(tmean(h, axes=(1, 2))))

        err = gradcheck(f, Tensor(x), tol=1e-5)
        assert err <= 1e-5

    def test_shared_subexpression_visited_once(self):
        x = Tensor([2.0], requires_grad=True)
        y = mul(x, x)
        backward(tsum(y + y))     # d/dx 2x^2 = 4x
        np.testing.assert_allclose(x.grad, [8.0])


class TestFiniteDiff:
    def test_sum_of_squares(self):
        got = finite_diff_grad(lambda t: tsum(mul(t, t)), Tensor([1.0, 2.0]), 1e-6)
        np.testing.assert_allclose(got.data, [2.0, 4.0], atol=1e-6)

    def test_constant_function(self):
        got = finite_diff_grad(lambda t: Tensor(np.asarray(7.0)), Tensor([1.0, 2.0]), 1e-6)
        np.testing.assert_array_equal(got.data, [0.0, 0.0])

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            finite_diff_grad(lambda t: tsum(t), Tensor([1.0]), 0.0)


class TestSupportOps:
    def test_huber_values(self):
        assert huber(Tensor(np.asarray(0.0)), Tensor(np.asarray(0.0))).item() == 0.0
        assert huber(Tensor(np.asarray(0.5)), Tensor(np.asarray(0.0))).item() == 0.125
        assert huber(Tensor(np.asarray(3.0)), Tensor(np.asarray(0.0))).item() == 2.5

    def test_sqrt_guarded_at_zero(self):
        x = Tensor(np.asarray(0.0), requires_grad=True)
        backward(sqrt_guarded(x))
        assert x.grad is not None and np.isfinite(x.grad)

    def test_gather_sum_against_loop_oracle(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=7)
        idx = np.array([[0, 3, 3], [6, 1, 0], [2, 2, 2]])
        w = (-0.5, 0.5, -0.5)
        got = gather_sum(Tensor(v), idx, w).data
        want = [sum(w[k] * v[row[k]] for k in range(3)) for row in idx]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_gather_sum_scatter_accumulates_repeats(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        backward(tsum(gather_sum(x, np.array([[0, 0], [3, 0]]), (1.0, -2.0))))
        np.testing.assert_array_equal(x.grad, [-3.0, 0.0, 0.0, 1.0])

    def test_gather_sum_grads_and_dtype(self):
        rng = np.random.default_rng(12)
        idx = rng.integers(0, 5, size=(9, 3))
        gradcheck(lambda t: tsum(mul(gather_sum(t, idx, (1.0, -1.0, 0.5)),
                                     gather_sum(t, idx[:, :1], (1.0,)))),
                  Tensor(rng.normal(size=5)), tol=1e-7)
        x = Tensor(np.ones(5, dtype=np.float32), requires_grad=True)
        out = gather_sum(x, idx, (1.0, -1.0, 0.5))
        backward(tsum(out))
        assert out.dtype == np.float32 and x.grad.dtype == np.float32

    def test_gather_sum_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            gather_sum(Tensor(np.ones(3)), np.zeros((2, 2), dtype=int), (1.0,))

    def test_upsample_permute_reshape_grads(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 3, 3, 2))

        def f(t):
            h = upsample2x(t)
            h = permute(reshape(h, (2, 6, 6)), (1, 0, 2))
            return tsum(mul(h, h))

        gradcheck(f, Tensor(x), tol=1e-7)

    # the inputs of the headline generators' two upsampling layers, teacher then student
    @pytest.mark.parametrize("c,h", [(64, 8), (32, 16), (16, 8), (8, 16)])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_upsample_backward_bytes_of_block_sum(self, c, h, batch, dtype):
        rng = np.random.default_rng(c * h + batch)
        x = Tensor(_cl(rng.normal(size=(batch, c, h, h)).astype(dtype)), requires_grad=True)
        out = upsample2x(x)
        assert np.array_equal(_nchw(out.data), _nchw(x.data).repeat(2, 2).repeat(2, 3))
        g = rng.normal(size=(batch, c, 2 * h, 2 * h)).astype(dtype)
        backward(tsum(mul(out, Tensor(_cl(g)))))
        want = g.reshape(batch, c, h, 2, h, 2).sum(axis=(3, 5))
        assert x.grad.dtype == dtype and _nchw(x.grad).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_bytes_of_the_where_formula(self, dtype):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(2, 5, 5, 3)).astype(dtype)
        a.reshape(-1)[:5] = [0.0, -0.0, np.inf, -np.inf, np.nan]
        g = rng.normal(size=a.shape).astype(dtype)
        x = Tensor(a, requires_grad=True)
        y = leaky_relu(x)
        y._backward_fn(g)
        mask = a > 0
        assert y.dtype == x.grad.dtype == dtype
        assert y.data.tobytes() == np.where(mask, a, 0.2 * a).tobytes()
        assert x.grad.tobytes() == (g * np.where(mask, 1.0, 0.2).astype(dtype)).tobytes()

    def test_misc_op_grads(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 3)) + 0.1

        def f(t):
            a = mul(t, Tensor(np.array([1.0, 2.0, 0.5, -1.0])[:, None] * np.ones(3)))
            return tsum(absolute(a)) + tsum(clamp_min(matmul(t, permute(t, (1, 0))), 0.05))

        gradcheck(f, Tensor(x), tol=1e-5)

    def test_stacked_matmul_values_and_grads(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 2, 5))
        got = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, np.stack([a[i] @ b[i] for i in range(3)]),
                                   rtol=0, atol=1e-14)
        w = rng.normal(size=(3, 4, 5))
        gradcheck(lambda t: tsum(mul(matmul(t, Tensor(b)), Tensor(w))), Tensor(a), tol=1e-6)
        gradcheck(lambda t: tsum(mul(matmul(Tensor(a), t), Tensor(w))), Tensor(b), tol=1e-6)
        # both operands one tensor, as in a Gram matrix
        wg = Tensor(rng.normal(size=(3, 4, 4)))
        gradcheck(lambda t: tsum(mul(matmul(t, permute(t, (0, 2, 1))), wg)), Tensor(a), tol=1e-6)

    @pytest.mark.parametrize("sa, sb, message", [
        ((2, 3), (2, 3, 4), "rank"), ((2, 3, 4), (4, 5), "rank"),
        ((3,), (3,), "rank"), ((1, 2, 3, 4), (1, 2, 4, 3), "rank"),
        ((2, 3, 4), (3, 4, 5), "batch"), ((2, 3, 4), (2, 3, 5), "inner")])
    def test_matmul_shape_mismatch_rejected(self, sa, sb, message):
        with pytest.raises(ValueError, match=message):
            matmul(Tensor(np.ones(sa)), Tensor(np.ones(sb)))


class TestFiniteChecks:
    def test_debug_mode_flags_nonfinite_results(self):
        from crdgan.autodiff import set_finite_checks
        set_finite_checks(True)
        try:
            x = Tensor([1.0, 2.0])
            tsum(mul(x, x))     # clean pass is fine
            with np.errstate(divide="ignore"):
                with pytest.raises(FloatingPointError, match="reciprocal"):
                    reciprocal(Tensor([0.0, 1.0]))
        finally:
            set_finite_checks(False)


class TestDeterminism:
    def test_forward_bit_identical_across_runs(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.normal(size=(1, 8, 8, 2)).astype(np.float32))
            w = Tensor(rng.normal(size=(3, 3, 2, 3)).astype(np.float32))
            return instance_norm(leaky_relu(conv2d(x, w, stride=2, padding=1))).data

        a, b = run(), run()
        assert np.array_equal(a, b)


class TestTensorFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        arr = rng.normal(size=(2, 3, 4)).astype(np.float32)
        p = tmp_path / "t.crdt"
        tensor_io.save_tensor(p, arr)
        got = tensor_io.load_tensor(p)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, arr)

    def test_wire_format(self, tmp_path):
        p = tmp_path / "t.crdt"
        tensor_io.save_tensor(p, np.array([[1.0, 2.0]], dtype=np.float32))
        raw = p.read_bytes()
        assert raw[:4] == b"CRDT"
        assert raw[4] == 1                                  # version byte
        assert int.from_bytes(raw[5:9], "little") == 2      # rank
        assert int.from_bytes(raw[9:13], "little") == 1     # dim 0
        assert int.from_bytes(raw[13:17], "little") == 2    # dim 1
        np.testing.assert_array_equal(
            np.frombuffer(raw[17:], dtype="<f4"), [1.0, 2.0])

    def test_truncated_file_names_the_path_at_every_offset(self, tmp_path):
        src = tmp_path / "full.crdt"
        tensor_io.save_tensor(src, np.arange(6, dtype=np.float32).reshape(2, 3))
        raw = src.read_bytes()
        p = tmp_path / "cut.crdt"
        for cut in range(len(raw)):
            p.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="cut.crdt"):
                tensor_io.load_tensor(p)

    @pytest.mark.parametrize("extra", [1, 4, 8])
    def test_bytes_after_the_payload_name_the_path_and_their_count(self, tmp_path, extra):
        p = tmp_path / "long.crdt"
        tensor_io.save_tensor(p, np.arange(6, dtype=np.float32).reshape(2, 3))
        p.write_bytes(p.read_bytes() + bytes(extra))
        with pytest.raises(ValueError, match=f"long.crdt: {extra} bytes after the payload "
                                             f"of 6 floats"):
            tensor_io.load_tensor(p)

    @pytest.mark.parametrize("dims", [(65536,) * 4, (4294967295, 4294967295)])
    def test_element_count_that_wraps_int64_is_truncation(self, tmp_path, dims):
        # these dims' product wraps around in int64, to 0 and to a negative count:
        # sized that way, the file passes the truncation check
        p = tmp_path / "huge.crdt"
        header = b"CRDT" + bytes([1]) + len(dims).to_bytes(4, "little")
        p.write_bytes(header + b"".join(d.to_bytes(4, "little") for d in dims) + bytes(16))
        with pytest.raises(ValueError, match="huge.crdt.*truncated payload"):
            tensor_io.load_tensor(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.crdt"
        p.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError, match="magic"):
            tensor_io.load_tensor(p)

    def test_unsupported_version_names_the_path(self, tmp_path):
        p = tmp_path / "v2.crdt"
        tensor_io.save_tensor(p, np.zeros((1, 2, 2), dtype=np.float32))
        raw = bytearray(p.read_bytes())
        raw[4] = 2
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="v2.crdt: unsupported version 2"):
            tensor_io.load_tensor(p)


# (input shape, kernel shape, stride, padding): batch 3, stride 3, a 3x2
# kernel, H != W, a kernel that is not a multiple of its stride, an input
# whose last rows no window reaches, padding wider than the kernel reaches,
# and every layer shape of the models
_CONV_CASES = [
    ((1, 2, 4, 5), (2, 2, 3, 3), 1, 3),
    ((1, 2, 5, 5), (2, 2, 3, 3), 2, 3),
    ((3, 2, 5, 5), (2, 2, 3, 3), 1, 1),
    ((2, 2, 7, 8), (3, 2, 3, 3), 3, 1),
    ((2, 3, 6, 5), (2, 3, 3, 2), 1, 0),
    ((2, 2, 6, 9), (3, 2, 3, 2), 2, 1),
    ((2, 2, 7, 7), (2, 2, 3, 3), 2, 1),
    ((1, 2, 5, 6), (2, 2, 2, 2), 2, 0),
    ((2, 3, 8, 8), (2, 3, 7, 7), 1, 3),
    ((2, 2, 8, 8), (3, 2, 3, 3), 2, 1),
    ((2, 2, 8, 8), (3, 2, 4, 4), 2, 1),
    ((2, 3, 4, 4), (2, 3, 3, 3), 1, 1),
]


def _cl(a):
    """An NCHW array in the channels-last [B,H,W,C] layout."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def _nchw(a):
    """A channels-last [B,H,W,C] array in the NCHW layout."""
    return np.ascontiguousarray(a.transpose(0, 3, 1, 2))


def _hwio(w):
    """A [Cout,Cin,kh,kw] kernel in conv2d's [kh,kw,Cin,Cout] layout."""
    return np.ascontiguousarray(w.transpose(2, 3, 1, 0))


def _im2col_oracle(xp, kh, kw, stride):
    """Column matrix [B*Ho*Wo, kh*kw*C] of a [B,H,W,C] array from numpy's sliding window view."""
    c = xp.shape[3]
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]                              # [B,Ho,Wo,C,kh,kw]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * c)


def _conv_input_grad_oracle(g, w, x_shape, stride, padding):
    """Input gradient of conv2d by scattering every kernel tap (col2im)."""
    bsz, cin, h, wd = x_shape
    cout, _, kh, kw = w.shape
    hout, wout = g.shape[2:]
    gcols = np.einsum("oikl,bopq->biklpq", w, g)       # [B, Cin, kh, kw, Ho, Wo]
    gx = np.zeros((bsz, cin, h + 2 * padding, wd + 2 * padding))
    for ki in range(kh):
        hi = ki + stride * hout
        for kj in range(kw):
            wj = kj + stride * wout
            gx[:, :, ki:hi:stride, kj:wj:stride] += gcols[:, :, ki, kj]
    return gx[:, :, padding:padding + h, padding:padding + wd]


def _conv_oracle(x, w, stride, padding):
    """Direct nested-loop cross-correlation, independent of the vectorized path."""
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hout = (h + 2 * padding - kh) // stride + 1
    wout = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((bsz, cout, hout, wout))
    for b in range(bsz):
        for o in range(cout):
            for i in range(hout):
                for j in range(wout):
                    acc = 0.0
                    for c in range(cin):
                        for a in range(kh):
                            for d in range(kw):
                                acc += xp[b, c, i * stride + a, j * stride + d] * w[o, c, a, d]
                    out[b, o, i, j] = acc
    return out
