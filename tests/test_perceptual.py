"""Fixed-extractor perceptual loss: determinism, Gram oracle, gradients."""

import numpy as np
import pytest

from crdgan import autodiff, perceptual
from crdgan.autodiff import (
    Tensor, absolute, backward, detach, finite_diff_grad, gradcheck, max_rel_error, tsum,
)
from crdgan.perceptual import FeatureExtractor, extract, gram, perceptual_loss


@pytest.fixture(scope="module")
def extractor():
    return FeatureExtractor.fixed_random(seed=7)


class TestExtract:
    def test_deterministic(self, extractor):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (3, 16, 16))
        a = extract(Tensor(x), extractor)
        b = extract(Tensor(x), extractor)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_zero_input_zero_first_tap(self, extractor):
        acts = extract(Tensor(np.zeros((3, 16, 16))), extractor)
        np.testing.assert_array_equal(acts[0].data, np.zeros_like(acts[0].data))

    def test_shapes_match_declared(self, extractor):
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(-1, 1, (3, 32, 32)))
        acts = extract(x, extractor)
        declared = extractor.tap_shapes((3, 32, 32))
        assert [a.shape for a in acts] == declared
        assert declared == [(16, 16, 16), (32, 8, 8), (64, 4, 4), (64, 2, 2)]

    def test_no_grad_into_extractor(self, extractor):
        rng = np.random.default_rng(2)
        x = Tensor(rng.uniform(-1, 1, (3, 8, 8)), requires_grad=True)
        acts = extract(x, extractor)
        backward(acts[-1].sum())
        assert x.grad is not None
        for w, _ in extractor.layers:
            assert w.grad is None and not w.requires_grad

    def test_incompatible_channels_rejected(self, extractor):
        with pytest.raises(ValueError, match="channels"):
            extract(Tensor(np.zeros((2, 16, 16))), extractor)

    @pytest.mark.parametrize("shape", [(16, 16), (1, 1, 3, 16, 16)])
    def test_wrong_rank_rejected(self, extractor, shape):
        with pytest.raises(ValueError, match="batch"):
            extract(Tensor(np.zeros(shape)), extractor)

    @pytest.mark.parametrize("taps", [[], [-1], [4], [0, 4]])
    def test_tap_outside_the_layers_rejected(self, extractor, taps):
        for shape in ((3, 8, 8), (2, 3, 8, 8)):
            with pytest.raises(ValueError, match=rf"taps \{taps}"):
                extract(Tensor(np.zeros(shape)), extractor, taps)

    def test_taps_pick_the_full_call_activations_in_order(self, extractor):
        rng = np.random.default_rng(12)
        for shape in ((3, 16, 16), (2, 3, 16, 16)):
            x = Tensor(rng.uniform(-1, 1, shape))
            full = extract(x, extractor)
            picked = extract(x, extractor, taps=[1, 3])
            assert len(picked) == 2
            for got, want in zip(picked, (full[1], full[3])):
                assert got.shape == want.shape
                np.testing.assert_array_equal(got.data, want.data)

    def test_batch_equals_stacked_images(self, extractor):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, (3, 3, 16, 16))
        batched = extract(Tensor(x), extractor)
        singles = [extract(Tensor(img), extractor) for img in x]
        for j, act in enumerate(batched):
            want = np.stack([acts[j].data for acts in singles])
            np.testing.assert_allclose(act.data, want, rtol=0, atol=1e-12)


class TestGram:
    def test_identical_channels_rank_one(self):
        ch = np.arange(4.0).reshape(2, 2)
        act = Tensor(np.stack([ch, ch]))
        g = gram(act).data
        assert g.shape == (2, 2)
        assert np.all(g == g[0, 0])

    def test_single_ones_channel(self):
        g = gram(Tensor(np.ones((1, 2, 2)))).data
        np.testing.assert_allclose(g, [[1.0]])

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        act = rng.normal(size=(3, 2, 2))
        got = gram(Tensor(act)).data
        c, h, w = act.shape
        want = np.zeros((c, c))
        for i in range(c):
            for j in range(c):
                acc = 0.0
                for y in range(h):
                    for x in range(w):
                        acc += act[i, y, x] * act[j, y, x]
                want[i, j] = acc / (c * h * w)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_symmetric_psd_diagonal(self):
        rng = np.random.default_rng(4)
        g = gram(Tensor(rng.normal(size=(5, 3, 3)))).data
        np.testing.assert_allclose(g, g.T, atol=1e-12)
        assert np.all(np.diag(g) >= -1e-12)

    def test_batch_equals_stacked_grams(self):
        rng = np.random.default_rng(12)
        acts = rng.normal(size=(4, 5, 3, 2))
        got = gram(Tensor(acts)).data
        assert got.shape == (4, 5, 5)
        want = np.stack([gram(Tensor(a)).data for a in acts])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


class TestPerceptualLoss:
    def test_zero_at_self(self, extractor):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(-1, 1, (3, 16, 16)))
        assert perceptual_loss(x, x, extractor).item() == 0.0

    def test_single_pixel_delta_monotone(self, extractor):
        rng = np.random.default_rng(6)
        base = rng.uniform(-0.5, 0.5, (3, 16, 16))
        losses = []
        for delta in (0.05, 0.1, 0.2, 0.4):
            bumped = base.copy()
            bumped[0, 3, 3] += delta
            losses.append(perceptual_loss(Tensor(base), Tensor(bumped), extractor).item())
        assert losses[0] > 0.0
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_against_term_by_term_oracle(self, extractor):
        rng = np.random.default_rng(7)
        t = Tensor(rng.uniform(-1, 1, (3, 8, 8)))
        s = Tensor(rng.uniform(-1, 1, (3, 8, 8)))
        got = perceptual_loss(t, s, extractor).item()
        want = 0.0
        for ta, sa in zip(extract(t, extractor), extract(s, extractor)):
            c, h, w = ta.shape
            want += np.abs(ta.data - sa.data).sum() / (c * h * w)
            want += np.abs(gram(ta).data - gram(sa).data).sum()
        assert got == pytest.approx(want, rel=1e-8)

    def test_shape_mismatch_rejected(self, extractor):
        with pytest.raises(ValueError, match="mismatch"):
            perceptual_loss(Tensor(np.zeros((3, 8, 8))), Tensor(np.zeros((3, 8, 4))), extractor)

    def test_teacher_path_detached(self, extractor):
        rng = np.random.default_rng(8)
        t = Tensor(rng.uniform(-1, 1, (3, 8, 8)), requires_grad=True)
        s = Tensor(rng.uniform(-1, 1, (3, 8, 8)), requires_grad=True)
        backward(perceptual_loss(t, s, extractor))
        assert t.grad is None and s.grad is not None

    def test_gradient_matches_finite_differences(self, extractor):
        rng = np.random.default_rng(9)
        t = Tensor(rng.uniform(-1, 1, (3, 8, 8)))
        s0 = rng.uniform(-1, 1, (3, 8, 8))

        def f(x):
            return perceptual_loss(t, x, extractor)

        s = Tensor(s0, requires_grad=True)
        backward(f(s))
        numeric = finite_diff_grad(f, s, 1e-6).data
        assert max_rel_error(s.grad, numeric) <= 1e-4

    def test_batch_is_mean_of_image_losses(self, extractor):
        rng = np.random.default_rng(13)
        t = rng.uniform(-1, 1, (3, 3, 16, 16))
        s = rng.uniform(-1, 1, (3, 3, 16, 16))
        got = perceptual_loss(Tensor(t), Tensor(s), extractor).item()
        want = np.mean([perceptual_loss(Tensor(a), Tensor(b), extractor).item()
                        for a, b in zip(t, s)])
        assert abs(got - want) <= 1e-12

    def test_batch_of_one_keeps_image_arithmetic(self, extractor):
        rng = np.random.default_rng(14)
        t, s = rng.uniform(-1, 1, (2, 3, 8, 8))
        one = perceptual_loss(Tensor(t[None]), Tensor(s[None]), extractor).item()
        assert one == perceptual_loss(Tensor(t), Tensor(s), extractor).item()

    def test_batch_gradient_matches_finite_differences(self, extractor):
        rng = np.random.default_rng(15)
        t = Tensor(rng.uniform(-1, 1, (2, 3, 8, 8)))
        gradcheck(lambda x: perceptual_loss(t, x, extractor),
                  Tensor(rng.uniform(-1, 1, (2, 3, 8, 8))), tol=1e-5)


def composed_loss(t: Tensor, s: Tensor, extractor: FeatureExtractor) -> Tensor:
    """The perceptual loss as a composed graph of extract, gram and the L1s."""
    total = None
    for t_act, s_act in zip(extract(detach(t), extractor), extract(s, extractor)):
        c, h, w = t_act.shape[-3:]
        term = tsum(absolute(t_act - s_act)) * (1.0 / (c * h * w)) \
            + tsum(absolute(gram(t_act) - gram(s_act)))
        total = term if total is None else total + term
    bsz = s.shape[0] if s.ndim == 4 else 1
    return total * (1.0 / bsz) if bsz > 1 else total


class TestOneNode:
    """perceptual_loss is one node; the composed graph is its oracle."""

    # (channels, shape): an image, batches of 1 and 4, and criterion 04's 1-channel image
    SHAPES = [(3, (3, 16, 16)), (3, (1, 3, 16, 16)), (3, (4, 3, 16, 16)), (1, (1, 8, 8))]
    TOL = {np.float32: 1e-5, np.float64: 1e-12}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels, shape", SHAPES)
    @pytest.mark.parametrize("student_grad", [True, False])
    def test_matches_the_composed_graph(self, dtype, channels, shape, student_grad):
        extractor = FeatureExtractor.fixed_random(9, in_channels=channels, dtype=dtype)
        rng = np.random.default_rng(len(shape) + channels)
        t_data = rng.uniform(-1, 1, shape).astype(dtype)
        s_data = rng.uniform(-1, 1, shape).astype(dtype)
        got = []
        for fn in (perceptual_loss, composed_loss):
            t = Tensor(t_data, requires_grad=True)
            s = Tensor(s_data, requires_grad=student_grad)
            loss = fn(t, s, extractor)
            assert loss.dtype == dtype and loss.requires_grad == student_grad
            if student_grad:
                backward(loss)
                assert s.grad.dtype == dtype
            assert t.grad is None
            got.append((loss.item(), s.grad))
        (value, grad), (want, want_grad) = got
        tol = self.TOL[dtype]
        assert abs(value - want) <= tol * abs(want)
        if student_grad:
            assert np.abs(grad - want_grad).max() <= tol * np.abs(want_grad).max()

    def test_one_result_per_call(self, extractor, monkeypatch):
        ops = []
        real = autodiff._result

        def recording(data, op, parents, backward_fn):
            ops.append(op)
            return real(data, op, parents, backward_fn)

        monkeypatch.setattr(autodiff, "_result", recording)
        monkeypatch.setattr(perceptual, "_result", recording)
        rng = np.random.default_rng(16)
        t = Tensor(rng.uniform(-1, 1, (2, 3, 16, 16)), requires_grad=True)
        s = Tensor(rng.uniform(-1, 1, (2, 3, 16, 16)), requires_grad=True)
        loss = perceptual_loss(t, s, extractor)
        assert ops == ["perceptual"] and loss._parents == (s,)

    def test_input_gradients_run_on_the_student_half_only(self, extractor, monkeypatch):
        batches = []
        kernel = perceptual._conv_backward

        def spy(g, *args):
            batches.append(g.shape[0])
            return kernel(g, *args)

        monkeypatch.setattr(perceptual, "_conv_backward", spy)
        rng = np.random.default_rng(17)
        t = Tensor(rng.uniform(-1, 1, (3, 3, 16, 16)), requires_grad=True)
        s = Tensor(rng.uniform(-1, 1, (3, 3, 16, 16)), requires_grad=True)
        backward(perceptual_loss(t, s, extractor))
        assert batches == [3] * extractor.num_taps and t.grad is None

    def test_keeps_nothing_without_a_student_gradient(self, extractor):
        rng = np.random.default_rng(18)
        t = Tensor(rng.uniform(-1, 1, (3, 16, 16)), requires_grad=True)
        loss = perceptual_loss(t, Tensor(rng.uniform(-1, 1, (3, 16, 16))), extractor)
        assert not loss.requires_grad and loss._backward_fn is None

    @pytest.mark.parametrize("shape", [(16, 16), (1, 1, 3, 16, 16)])
    def test_wrong_rank_rejected(self, extractor, shape):
        with pytest.raises(ValueError, match="batch"):
            perceptual_loss(Tensor(np.zeros(shape)), Tensor(np.zeros(shape)), extractor)


class TestFeatureExtractor:
    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            FeatureExtractor([], [])

    def test_phase_kernels_are_built_once_by_the_extractor(self, monkeypatch):
        extractor = FeatureExtractor.fixed_random(seed=3, dtype=np.float32)
        assert "_phases" not in vars(extractor)      # not built for an extractor that only scores
        phases = extractor._phases
        assert [p.tobytes() for p in phases] == [
            autodiff._phase_kernels(w.data, s).tobytes() for w, s in extractor.layers]
        monkeypatch.setattr(perceptual, "_phase_kernels", None)     # no loss builds them again
        x = Tensor(np.random.default_rng(11).uniform(-1, 1, (3, 16, 16)).astype(np.float32),
                   requires_grad=True)
        backward(perceptual_loss(Tensor(np.zeros_like(x.data)), x, extractor))
        assert x.grad is not None and extractor._phases is phases


class TestWeightIO:
    def test_save_load_round_trip(self, extractor, tmp_path):
        extractor.save(tmp_path)
        loaded = FeatureExtractor.load(tmp_path)
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, (3, 16, 16)).astype(np.float32)
        a = extract(Tensor(x), extractor)[-1].data
        b = extract(Tensor(x), loaded)[-1].data
        np.testing.assert_allclose(a, b, atol=1e-6)   # stored weights are float32
        # files hold [Cout,Cin,k,k] kernels, whatever layout the conv runs in
        from crdgan import tensor_io
        stored = [arr.shape for _, arr in tensor_io.load_named_tensors(tmp_path, "extractor")]
        assert stored == [(16, 3, 3, 3), (32, 16, 3, 3), (64, 32, 3, 3), (64, 64, 3, 3)]

    def test_missing_weights_rejected(self, tmp_path):
        from crdgan import tensor_io
        tensor_io.write_manifest(tmp_path, [])
        with pytest.raises(ValueError, match="no extractor weights"):
            FeatureExtractor.load(tmp_path)
