"""Generator/discriminator contracts, adversarial losses, checkpoints."""

import math

import numpy as np
import pytest

from crdgan import models, tensor_io
from crdgan.autodiff import (
    Tensor, backward, conv2d, finite_diff_grad, gradcheck, instance_norm, leaky_relu,
    max_rel_error, mul, permute, relu, set_finite_checks, tanh, tmean, tsum, upsample2x,
)
from crdgan.models import (
    Adam, DiscriminatorSpec, GeneratorSpec, adversarial_losses,
    build_discriminator, build_generator, discriminator_loss,
    generator_adv_loss, load_checkpoint, save_checkpoint,
)


class TestGenerator:
    def test_output_shape_equals_input_shape(self):
        gen = build_generator(GeneratorSpec(base_width=8, num_res_blocks=1), 0)
        rng = np.random.default_rng(0)
        for shape in [(3, 16, 16), (3, 32, 32)]:
            out = gen(Tensor(rng.uniform(-1, 1, shape).astype(np.float32)))
            assert out.shape == shape

    def test_output_bounded_by_tanh(self):
        gen = build_generator(GeneratorSpec(base_width=8, num_res_blocks=1), 1)
        rng = np.random.default_rng(1)
        out = gen(Tensor(10 * rng.normal(size=(3, 16, 16)).astype(np.float32)))
        assert np.all(out.data <= 1.0) and np.all(out.data >= -1.0)

    def test_quarter_width_parameter_ratio(self):
        teacher = build_generator(GeneratorSpec(base_width=32, width_factor=1.0), 0)
        student = build_generator(GeneratorSpec(base_width=32, width_factor=0.25), 0)
        ratio = student.parameter_count() / (teacher.parameter_count() / 16.0)
        assert abs(ratio - 1.0) <= 0.10

    def test_seeded_init_is_reproducible(self):
        a = build_generator(GeneratorSpec(base_width=8), 42)
        b = build_generator(GeneratorSpec(base_width=8), 42)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)
        c = build_generator(GeneratorSpec(base_width=8), 43)
        assert any(not np.array_equal(pa.data, pc.data)
                   for pa, pc in zip(a.parameters(), c.parameters()))

    def test_weights_are_hwio_with_the_oihw_draw(self):
        # each kernel is [k,k,Cin,Cout], holding the values drawn in [Cout,Cin,k,k] order
        spec = GeneratorSpec(base_width=8, num_res_blocks=1)
        gen = build_generator(spec, 5)
        rng = np.random.default_rng(5)
        for layer in gen._layers:
            k, _, cin, cout = layer.weight.shape
            drawn = rng.normal(0.0, models.INIT_STD, (cout, cin, k, k)).astype(np.float32)
            assert layer.weight.shape == (k, k, cin, cout)
            assert np.array_equal(layer.weight.data, drawn.transpose(2, 3, 1, 0))
        assert [gen.stem.weight.shape, gen.head.weight.shape] == [(7, 7, 3, 8), (7, 7, 8, 3)]

    @pytest.mark.parametrize("shape", [(16, 16), (1, 1, 3, 16, 16)])
    def test_wrong_rank_rejected(self, shape):
        gen = build_generator(GeneratorSpec(base_width=4, num_res_blocks=1), 0)
        with pytest.raises(ValueError, match=r"\[c,h,w\] image or a \[b,c,h,w\] batch"):
            gen(Tensor(np.zeros(shape, dtype=np.float32)))

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            build_generator(GeneratorSpec(base_width=1, width_factor=0.25), 0)


class TestMacCount:
    @staticmethod
    def _counted_macs(module, shape, monkeypatch):
        """MACs of one real forward, counted from the shapes of every call of
        the conv kernel that the network node shares with the conv2d op."""
        total = []
        kernel = models._conv_forward

        def counting_kernel(x, w, *args):
            out, cols = kernel(x, w, *args)
            kh, kw, cin, cout = w.shape
            total.append(kh * kw * cin * cout * out.shape[1] * out.shape[2])
            return out, cols

        monkeypatch.setattr(models, "_conv_forward", counting_kernel)
        module(Tensor(np.zeros(shape, dtype=np.float32)))
        monkeypatch.undo()
        assert len(total) == len(module._layers)
        return sum(total)

    def test_matches_a_counted_forward(self, monkeypatch):
        headline = build_generator(GeneratorSpec(base_width=16, num_res_blocks=2), 0)
        teacher = build_generator(GeneratorSpec(base_width=32, width_factor=1.0), 0)
        student = build_generator(GeneratorSpec(base_width=32, width_factor=0.25), 0)
        disc = build_discriminator(DiscriminatorSpec(num_layers=3, base_width=16), 0)
        for module in (headline, teacher, student, disc):
            for h, w in [(32, 32), (16, 24)]:
                assert module.mac_count(h, w) == self._counted_macs(module, (3, h, w),
                                                                    monkeypatch)
        # criterion 08's pair: the 3-channel stem and head do not shrink with the width squared
        mac_ratio = teacher.mac_count(32, 32) / student.mac_count(32, 32)
        param_ratio = teacher.parameter_count() / student.parameter_count()
        assert 1.0 < mac_ratio < param_ratio <= 16.0, (
            f"teacher/student: {mac_ratio:.2f}x MACs, {param_ratio:.2f}x parameters")


class TestDiscriminator:
    def test_score_map_shape(self):
        disc = build_discriminator(DiscriminatorSpec(num_layers=3, base_width=32), 0)
        out = disc(Tensor(np.zeros((3, 32, 32), dtype=np.float32)))
        assert out.shape == (1, 4, 4)

    def test_seeded_init_reproducible(self):
        a = build_discriminator(DiscriminatorSpec(), 7)
        b = build_discriminator(DiscriminatorSpec(), 7)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_constant_input_finite_scores(self):
        disc = build_discriminator(DiscriminatorSpec(num_layers=3, base_width=16), 3)
        out = disc(Tensor(np.full((3, 32, 32), 0.5, dtype=np.float32)))
        assert np.all(np.isfinite(out.data))

    def test_input_smaller_than_receptive_field_rejected(self):
        disc = build_discriminator(DiscriminatorSpec(num_layers=3, base_width=8), 0)
        with pytest.raises(ValueError, match="kernel"):
            disc(Tensor(np.zeros((3, 2, 2), dtype=np.float32)))


class TestFrozenForward:
    def test_frozen_discriminator_gets_no_gradient_and_keeps_its_flags(self):
        disc = build_discriminator(DiscriminatorSpec(num_layers=2, base_width=4), 2)
        params = disc.parameters()
        params[1].requires_grad = False          # the node neither reads nor sets a flag
        flags = [p.requires_grad for p in params]
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, (2, 3, 8, 8)).astype(np.float32),
                   requires_grad=True)
        backward(tmean(disc(x, frozen=True)))
        assert x.grad is not None and np.any(x.grad)
        assert all(p.grad is None for p in params)
        assert [p.requires_grad for p in params] == flags

    def test_flags_restored_when_the_forward_raises(self):
        disc = build_discriminator(DiscriminatorSpec(num_layers=2, base_width=4), 2)
        gen = build_generator(GeneratorSpec(base_width=4, num_res_blocks=1), 0)
        for net in (disc, gen):
            with pytest.raises(ValueError, match="channels"):
                net(Tensor(np.zeros((5, 8, 8), dtype=np.float32)), frozen=True)
            assert all(p.requires_grad for p in net.parameters())

    def test_frozen_generator_on_a_constant_input_builds_no_graph(self):
        gen = build_generator(GeneratorSpec(base_width=4, num_res_blocks=1), 0)
        x = Tensor(np.zeros((3, 8, 8), dtype=np.float32))
        out = gen(x, frozen=True)
        assert out.shape == (3, 8, 8)
        assert not out.requires_grad and out._parents == ()
        # unfrozen, the same call records the graph back to the parameters
        assert gen(x)._parents


def _conv(layer, h):
    if layer.upsample:
        h = upsample2x(h)
    return conv2d(h, layer.weight, layer.bias, stride=layer.stride, padding=layer.padding)


def composed_forward(net, x, frozen=False):
    """The network as a graph of one autodiff op per layer: the oracle for its
    one-node forward.  The architecture is spelled out again with the conv2d,
    instance_norm, relu, leaky_relu, upsample2x, add, tanh and permute ops;
    with frozen, the parameters' requires_grad is off while it runs."""
    params = net.parameters() if frozen else []
    flags = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        h = permute(x.reshape((1,) + x.shape) if x.ndim == 3 else x, (0, 2, 3, 1))
        if isinstance(net, models.ResnetGenerator):
            for layer in (net.stem, net.down1, net.down2):
                h = relu(instance_norm(_conv(layer, h)))
            for c1, c2 in net.res:
                h = h + instance_norm(_conv(c2, relu(instance_norm(_conv(c1, h)))))
            for layer in (net.up1, net.up2):
                h = relu(instance_norm(_conv(layer, h)))
            h = tanh(_conv(net.head, h))
        else:
            for i, layer in enumerate(net.body):
                h = _conv(layer, h)
                h = leaky_relu(instance_norm(h) if i > 0 else h)
            h = _conv(net.head, h)
        out = permute(h, (0, 3, 1, 2))
        return out.reshape(out.shape[1:]) if x.ndim == 3 else out
    finally:
        for p, flag in zip(params, flags):
            p.requires_grad = flag


def _node_forward(net, x, frozen=False):
    return net(x, frozen=frozen)


def _small_nets(dtype=np.float32):
    return (build_generator(GeneratorSpec(base_width=4, num_res_blocks=2), 0, dtype),
            build_discriminator(DiscriminatorSpec(num_layers=3, base_width=4), 1, dtype))


def _weighted_sum(outs):
    """sum_k sum(out_k * w_k) with fixed random weights w_k."""
    rng = np.random.default_rng(7)
    loss = None
    for out in outs:
        term = tsum(mul(out, Tensor(rng.normal(size=out.shape).astype(out.dtype))))
        loss = term if loss is None else loss + term
    return loss


class TestNetworkNode:
    @staticmethod
    def _bytes(forward, net, inputs, frozen):
        """Outputs, then input and parameter gradients, of a loss over one
        forward per input; inputs are (array, requires_grad) pairs."""
        net.zero_grad()
        xs = [Tensor(data, requires_grad=flag) for data, flag in inputs]
        outs = [forward(net, x, frozen) for x in xs]
        if any(out.requires_grad for out in outs):
            backward(_weighted_sum(outs))
        return [out.data.tobytes() for out in outs] + [
            None if t.grad is None else t.grad.tobytes() for t in xs + net.parameters()]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 16, 16), (1, 3, 16, 16), (4, 3, 16, 16)])
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("x_grad", [False, True])
    def test_byte_equal_to_the_per_op_graph(self, dtype, shape, frozen, x_grad):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, shape).astype(dtype)
        for net in _small_nets(dtype):
            inputs = [(x, x_grad)]
            if isinstance(net, models.PatchDiscriminator):
                # a discriminator called twice in one loss, as on real and fake images
                inputs.append((rng.uniform(-1, 1, shape).astype(dtype), x_grad))
            want = self._bytes(composed_forward, net, inputs, frozen)
            got = self._bytes(_node_forward, net, inputs, frozen)
            assert got == want
            if not frozen:
                assert all(g is not None for g in got[-len(net.parameters()):])

    def test_an_unfrozen_call_trains_every_parameter_whatever_its_flag(self):
        x = Tensor(np.random.default_rng(4).uniform(-1, 1, (2, 3, 16, 16)).astype(np.float32))
        for net in _small_nets():
            for p in net.parameters()[:3]:
                p.requires_grad = False
            backward(_weighted_sum([net(x)]))
            assert all(p.grad is not None for p in net.parameters())

    def test_parameter_gradients_are_views_of_flat_grad(self):
        x = Tensor(np.random.default_rng(5).uniform(-1, 1, (2, 3, 16, 16)).astype(np.float32))
        for net in _small_nets():
            backward(_weighted_sum([net(x), net(x)]))
            for p in net.parameters():
                assert p.grad.base is net.flat_grad and p.grad.shape == p.shape
            assert net.flat_grad.size == net.flat.size

    def test_one_node_per_call(self):
        x = Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32), requires_grad=True)
        for net in _small_nets():
            out = net(x)
            assert out.op == net.kind and out._parents == (x, *net.parameters())
            assert net(x, frozen=True)._parents == (x,)

    def test_a_forward_that_takes_no_gradient_keeps_no_columns(self, monkeypatch):
        kept = []
        kernel = models._conv_forward

        def spy(*args):
            out, cols = kernel(*args)
            kept.append(cols)
            return out, cols

        monkeypatch.setattr(models, "_conv_forward", spy)
        x = np.random.default_rng(6).uniform(-1, 1, (2, 3, 16, 16)).astype(np.float32)
        nets = _small_nets()
        for net in nets:
            out = net(Tensor(x), frozen=True)
            assert not out.requires_grad and out._backward_fn is None
            # a frozen network still passes gradients to its input, without kernel gradients
            assert net(Tensor(x, requires_grad=True), frozen=True).requires_grad
        assert len(kept) == sum(2 * len(net._layers) for net in nets)
        assert all(cols is None for cols in kept)

    @pytest.mark.parametrize("which", [0, 1])
    def test_float64_gradients_match_finite_differences(self, which):
        net = _small_nets(np.float64)[which]
        rng = np.random.default_rng(8)
        x0 = rng.uniform(-1, 1, (2, 3, 8, 8))
        weights = Tensor(rng.normal(size=net(Tensor(x0)).shape))

        def f(x):
            return tsum(mul(net(x), weights))

        assert gradcheck(f, Tensor(x0), tol=1e-5) <= 1e-5
        net.zero_grad()
        backward(f(Tensor(x0)))
        analytic, numeric = [], []
        for p in net.parameters():
            flat = p.data.reshape(-1)
            for k in rng.choice(p.size, min(4, p.size), replace=False):
                old = flat[k]
                flat[k] = old + 1e-6
                plus = f(Tensor(x0)).item()
                flat[k] = old - 1e-6
                minus = f(Tensor(x0)).item()
                flat[k] = old
                analytic.append(p.grad.reshape(-1)[k])
                numeric.append((plus - minus) / 2e-6)
        assert max_rel_error(np.array(analytic), np.array(numeric)) <= 1e-5

    @pytest.mark.parametrize("which, layer", [(0, 3), (1, 1)])
    def test_finite_checks_name_the_network_and_layer(self, which, layer):
        net = _small_nets()[which]
        net._layers[layer].weight.data[0, 0, 0, 0] = np.nan
        x = Tensor(np.random.default_rng(9).uniform(-1, 1, (1, 3, 16, 16)).astype(np.float32))
        set_finite_checks(True)
        try:
            with pytest.raises(FloatingPointError,
                               match=rf"^non-finite values in {net.kind} layer{layer:02d} "
                                     rf"\(conv2d\)$"):
                net(x)
        finally:
            set_finite_checks(False)
        assert np.isnan(net(x).data).any()


class _StubModel:
    """Callable returning a fixed tensor, for analytic loss cases."""

    def __init__(self, value):
        self.value = value

    def __call__(self, x):
        base = self.value if isinstance(self.value, Tensor) else Tensor(self.value)
        return base + 0.0 * x.sum()


class TestAdversarialLosses:
    def test_vanilla_at_zero_scores(self):
        d = _StubModel(np.zeros((1, 2, 2)))
        g = _StubModel(np.zeros((3, 4, 4)))
        d_loss, g_loss = adversarial_losses(d, g, Tensor(np.zeros((3, 4, 4))),
                                            Tensor(np.zeros((3, 4, 4))), "vanilla")
        assert d_loss.item() == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
        assert g_loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_least_squares_perfect_discriminator(self):
        scores_real = Tensor(np.ones((1, 2, 2)))
        scores_fake = Tensor(np.zeros((1, 2, 2)))
        assert discriminator_loss(scores_real, scores_fake, "least_squares").item() == 0.0

    def test_against_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        sr = rng.normal(size=(1, 2, 2))
        sf = rng.normal(size=(1, 2, 2))

        def sigmoid(z):
            return 1.0 / (1.0 + math.exp(-z))

        want_d = np.mean([-math.log(sigmoid(z)) for z in sr.ravel()]) \
            + np.mean([-math.log(1.0 - sigmoid(z)) for z in sf.ravel()])
        want_g = np.mean([-math.log(sigmoid(z)) for z in sf.ravel()])
        got_d = discriminator_loss(Tensor(sr), Tensor(sf), "vanilla").item()
        got_g = generator_adv_loss(Tensor(sf), "vanilla").item()
        assert got_d == pytest.approx(want_d, rel=1e-8)
        assert got_g == pytest.approx(want_g, rel=1e-8)

        want_d_ls = np.mean([(z - 1.0) ** 2 for z in sr.ravel()]) \
            + np.mean([z ** 2 for z in sf.ravel()])
        want_g_ls = np.mean([(z - 1.0) ** 2 for z in sf.ravel()])
        assert discriminator_loss(Tensor(sr), Tensor(sf), "least_squares").item() \
            == pytest.approx(want_d_ls, rel=1e-8)
        assert generator_adv_loss(Tensor(sf), "least_squares").item() \
            == pytest.approx(want_g_ls, rel=1e-8)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            generator_adv_loss(Tensor(np.zeros((1, 2, 2))), "wasserstein")

    def test_d_loss_does_not_touch_generator(self):
        gen = build_generator(GeneratorSpec(base_width=4, num_res_blocks=1), 0,
                              dtype=np.float64)
        disc = build_discriminator(DiscriminatorSpec(num_layers=2, base_width=4), 1,
                                   dtype=np.float64)
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(-1, 1, (1, 3, 8, 8)))
        real = Tensor(rng.uniform(-1, 1, (1, 3, 8, 8)))
        d_loss, _ = adversarial_losses(disc, gen, real, x, "vanilla")
        backward(d_loss)
        assert all(p.grad is None for p in gen.parameters())
        assert any(p.grad is not None for p in disc.parameters())

    def test_gradients_match_finite_differences(self):
        disc = build_discriminator(DiscriminatorSpec(num_layers=2, base_width=4), 5,
                                   dtype=np.float64)
        rng = np.random.default_rng(6)
        fake0 = rng.uniform(-1, 1, (3, 8, 8))
        for mode in ("vanilla", "least_squares"):
            def f(x):
                return generator_adv_loss(disc(x, frozen=True), mode)

            s = Tensor(fake0, requires_grad=True)
            backward(f(s))
            numeric = finite_diff_grad(f, s, 1e-6).data
            assert max_rel_error(s.grad, numeric) <= 1e-4


def _assert_flat_views(module):
    """Every parameter is a C-contiguous view of module.flat, laid out in order."""
    params = module.parameters()
    assert all(p.data.base is module.flat and p.data.flags.c_contiguous for p in params)
    assert np.array_equal(np.concatenate([p.data.ravel() for p in params]), module.flat)
    assert np.shares_memory(params[-1].data, module.flat[-1:])


class TestFlatLayout:
    def test_parameters_are_views_of_one_flat_vector(self):
        for dtype in (np.float32, np.float64):
            gen = build_generator(GeneratorSpec(base_width=4, num_res_blocks=1), 0, dtype)
            disc = build_discriminator(DiscriminatorSpec(num_layers=2, base_width=4), 1, dtype)
            for module in (gen, disc):
                _assert_flat_views(module)
                assert module.flat.dtype == dtype
                assert module.flat.size == module.parameter_count()

    def test_load_param_arrays_writes_into_the_views(self):
        disc = build_discriminator(DiscriminatorSpec(num_layers=2, base_width=4), 1)
        other = build_discriminator(DiscriminatorSpec(num_layers=2, base_width=4), 2)
        disc.load_param_arrays(other.param_arrays())
        _assert_flat_views(disc)
        assert np.array_equal(disc.flat, other.flat)

    def test_bad_last_array_writes_nothing(self):
        disc = build_discriminator(DiscriminatorSpec(num_layers=2, base_width=4), 1)
        before = disc.flat.copy()
        arrays = [np.ones_like(a) for a in disc.param_arrays()]
        arrays[-1] = np.ones(arrays[-1].size + 1, dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            disc.load_param_arrays(arrays)
        assert disc.flat.tobytes() == before.tobytes()

    def test_one_array_too_few_writes_nothing(self):
        disc = build_discriminator(DiscriminatorSpec(num_layers=2, base_width=4), 1)
        before = disc.flat.copy()
        arrays = [np.ones_like(a) for a in disc.param_arrays()]
        count = len(arrays)
        with pytest.raises(ValueError, match=f"expected {count} arrays, got {count - 1}"):
            disc.load_param_arrays(arrays[:-1])
        assert disc.flat.tobytes() == before.tobytes()


def _adam_oracle_step(data, ms, vs, grads, t, lr, b1=0.5, b2=0.999, eps=1e-8):
    """The per-tensor Adam update, one array at a time.

    The bias corrections are folded into the step size and eps, the
    efficient form at the end of section 2 of Kingma & Ba (arXiv:1412.6980).
    """
    root_b2t = (1.0 - b2 ** t) ** 0.5
    step_size = lr * root_b2t / (1.0 - b1 ** t)
    for i, g in enumerate(grads):
        ms[i] = ms[i] * b1 + (1.0 - b1) * g
        vs[i] = vs[i] * b2 + (1.0 - b2) * (g * g)
        data[i] = data[i] - step_size * (ms[i] / (np.sqrt(vs[i]) + eps * root_b2t))


class TestFusedAdam:
    @staticmethod
    def _nets():
        return (build_generator(GeneratorSpec(base_width=4, num_res_blocks=1), 0),
                build_discriminator(DiscriminatorSpec(num_layers=2, base_width=4), 1))

    @staticmethod
    def _backward(net, rng):
        y = net(Tensor(rng.uniform(-1, 1, (2, 3, 8, 8)).astype(np.float32)))
        net.zero_grad()
        backward(tmean(y * y))

    def test_bit_equal_to_the_per_tensor_formula(self):
        rng = np.random.default_rng(9)
        for net in self._nets():
            opt = Adam(net.parameters(), 2e-3)
            data = net.param_arrays()
            ms = [np.zeros_like(a) for a in data]
            vs = [np.zeros_like(a) for a in data]
            for t in range(1, 6):
                self._backward(net, rng)
                _adam_oracle_step(data, ms, vs, [p.grad.copy() for p in net.parameters()],
                                  t, opt.lr)
                opt.step()
                assert all(p.grad is None for p in net.parameters())
                for want, p in zip(data, net.parameters()):
                    assert want.tobytes() == p.data.tobytes()
                assert opt.m.tobytes() == np.concatenate([m.ravel() for m in ms]).tobytes()
                assert opt.v.tobytes() == np.concatenate([v.ravel() for v in vs]).tobytes()
            _assert_flat_views(net)

    @pytest.mark.parametrize("spoil", ["copy_one", "copy_all", "drop_one", "drop_all",
                                       "shift_one"])
    def test_gradients_not_viewing_flat_grad_change_nothing(self, spoil):
        rng = np.random.default_rng(10)
        for net in self._nets():
            opt = Adam(net.parameters(), 2e-3)
            self._backward(net, rng)
            opt.step()
            self._backward(net, rng)
            params = net.parameters()
            if spoil == "copy_one":
                params[1].grad = params[1].grad.copy()
            elif spoil == "copy_all":
                for p in params:
                    p.grad = p.grad.copy()
            elif spoil == "drop_one":
                params[1].grad = None
            elif spoil == "drop_all":
                net.zero_grad()
            else:                   # a view of flat_grad, one element off its place
                p = params[0]
                p.grad = net.flat_grad[1:1 + p.size].reshape(p.shape)
            before = (net.flat.tobytes(), opt.m.tobytes(), opt.v.tobytes(), opt.t)
            with pytest.raises(ValueError, match="missing or copied"):
                opt.step()
            assert (net.flat.tobytes(), opt.m.tobytes(), opt.v.tobytes(), opt.t) == before

    def test_gradient_views_are_walked_once(self, monkeypatch):
        rng = np.random.default_rng(11)
        net = self._nets()[0]
        opt = Adam(net.parameters(), 2e-3)
        walks = []
        tiled = models._tiled
        monkeypatch.setattr(models, "_tiled", lambda arrays, spans: walks.append(1)
                            or tiled(arrays, spans))
        for _ in range(3):
            self._backward(net, rng)
            opt.step()
        assert opt.t == 3 and len(walks) == 1

    def test_rejects_parameters_that_are_not_one_modules_flat_views(self):
        gen, disc = self._nets()
        params = gen.parameters()
        for bad in ([], [Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)],
                    params[1:], params[:-1], params[::-1], params + disc.parameters(),
                    [Tensor(p.data.copy()) for p in params]):
            with pytest.raises(ValueError, match="flat vector"):
                Adam(bad, 2e-4)


class TestAdamStability:
    def test_parameters_finite_after_100_steps(self):
        gen = build_generator(GeneratorSpec(base_width=4, num_res_blocks=1), 0)
        disc = build_discriminator(DiscriminatorSpec(num_layers=2, base_width=4), 1)
        g_opt = Adam(gen.parameters(), 2e-4)
        d_opt = Adam(disc.parameters(), 2e-4)
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = Tensor(rng.uniform(-1, 1, (1, 3, 8, 8)).astype(np.float32))
            real = Tensor(rng.uniform(-1, 1, (1, 3, 8, 8)).astype(np.float32))
            fake = gen(x)
            d_loss = discriminator_loss(disc(real), disc(fake.detach()), "least_squares")
            d_opt.zero_grad()
            backward(d_loss)
            d_opt.step()
            g_loss = generator_adv_loss(disc(fake, frozen=True), "least_squares")
            g_opt.zero_grad()
            backward(g_loss)
            g_opt.step()
        for p in gen.parameters() + disc.parameters():
            assert np.all(np.isfinite(p.data))


class TestCheckpoints:
    def test_bit_exact_round_trip(self, tmp_path):
        gen = build_generator(GeneratorSpec(base_width=8, num_res_blocks=2), 11)
        disc = build_discriminator(DiscriminatorSpec(num_layers=2, base_width=8), 12)
        save_checkpoint(tmp_path, {"gen": gen, "disc": disc})

        gen2 = build_generator(GeneratorSpec(base_width=8, num_res_blocks=2), 99)
        disc2 = build_discriminator(DiscriminatorSpec(num_layers=2, base_width=8), 98)
        load_checkpoint(tmp_path, {"gen": gen2, "disc": disc2})
        for pa, pb in zip(gen.parameters() + disc.parameters(),
                          gen2.parameters() + disc2.parameters()):
            assert np.array_equal(pa.data, pb.data)
            assert pa.data.dtype == pb.data.dtype == np.float32
        _assert_flat_views(gen2)
        _assert_flat_views(disc2)

    def test_bad_role_loads_no_module(self, tmp_path):
        spec = GeneratorSpec(base_width=8, num_res_blocks=1)
        saved = {"teacher_generator": build_generator(spec, 1),
                 "teacher_discriminator": build_discriminator(DiscriminatorSpec(2, 8), 2),
                 "student_generator": build_generator(spec, 3),
                 "best_snapshot": build_generator(spec, 4)}
        save_checkpoint(tmp_path, saved)
        # same layer names, but the student's shapes do not match the saved ones
        target = {"teacher_generator": build_generator(spec, 11),
                  "teacher_discriminator": build_discriminator(DiscriminatorSpec(2, 8), 12),
                  "student_generator": build_generator(
                      GeneratorSpec(base_width=8, width_factor=0.5, num_res_blocks=1), 13),
                  "best_snapshot": build_generator(spec, 14)}
        before = {role: m.flat.tobytes() for role, m in target.items()}
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(tmp_path, target)
        assert {role: m.flat.tobytes() for role, m in target.items()} == before

    def test_reads_the_manifest_once(self, tmp_path, monkeypatch):
        spec = GeneratorSpec(base_width=8, num_res_blocks=1)
        nets = {role: build_generator(spec, k) for k, role in enumerate("abcd")}
        save_checkpoint(tmp_path, nets)
        reads = []
        real = tensor_io.read_manifest
        monkeypatch.setattr(tensor_io, "read_manifest", lambda d: reads.append(d) or real(d))
        load_checkpoint(tmp_path, {role: build_generator(spec, 9) for role in "abcd"})
        assert len(reads) == 1

    def test_missing_role_rejected(self, tmp_path):
        gen = build_generator(GeneratorSpec(base_width=8), 0)
        save_checkpoint(tmp_path, {"gen": gen})
        with pytest.raises(ValueError, match="no entries"):
            load_checkpoint(tmp_path, {"other": gen})
