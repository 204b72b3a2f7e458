import numpy as np
import pytest

from flowvos.autodiff import Tape, Tensor
from flowvos.fusion import FusionParams
from flowvos.target_model import (TargetModelParams, TargetSample, apply,
                                  residual_and_loss, stack_samples)

from conftest import conv2d_loops, finite_diff_grads, float64


def make_sample(rng, c_in=6, hw=4, with_flow=True):
    """One frame's sample of one object under a random positive root."""
    return TargetSample(
        l3_im=Tensor(rng.standard_normal((1, c_in, hw, hw))),
        l3_fl=Tensor(rng.standard_normal((1, c_in, hw, hw))) if with_flow else None,
        target=Tensor(rng.standard_normal((1, 1, 1, hw, hw))),
        root=Tensor(0.2 + rng.random(1)),
    )


class TestApply:
    def test_zero_filters_zero_wo_gives_zero(self, rng):
        fp = float64(FusionParams.init(rng, "attention", 4))
        fp.wo.data[:] = 0.0
        tm = float64(TargetModelParams.init_random([rng], 6, 4, with_flow=True, c_mid=3,
                                                   reg_lambda=1e-2))
        for t in tm.tensors():
            t.data[:] = 0.0
        s = stack_samples([make_sample(rng)])
        out = apply(s.l3_im, s.l3_fl, tm, fp)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_bilinearity_doubling(self, rng):
        fp = float64(FusionParams.init(rng, "none", 4))
        tm = float64(TargetModelParams.init_random([rng], 6, 4, with_flow=False, c_mid=3,
                                                   reg_lambda=1e-2))
        s = stack_samples([make_sample(rng, with_flow=False)])
        base = apply(s.l3_im, None, tm, fp).data
        tm.tau1[0].data *= 2.0
        doubled = apply(Tensor(2.0 * s.l3_im.data), None, tm, fp).data
        np.testing.assert_allclose(doubled, 4.0 * base, rtol=1e-12)

    def test_shape_for_64px_input(self, rng):
        fp = float64(FusionParams.init(rng, "attention", 16))
        tm = float64(TargetModelParams.init_random([rng], 64, 16, with_flow=True,
                                                   reg_lambda=1e-2))
        l3 = Tensor(rng.standard_normal((1, 64, 8, 8)))
        l3f = Tensor(rng.standard_normal((1, 64, 8, 8)))
        assert apply(l3, l3f, tm, fp).shape == (1, 1, 16, 8, 8)

    def test_channel_mismatch_between_filters_and_fusion(self, rng):
        fp = float64(FusionParams.init(rng, "attention", 8))
        tm = float64(TargetModelParams.init_random([rng], 6, 4, with_flow=True, c_mid=3,
                                                   reg_lambda=1e-2))
        s = stack_samples([make_sample(rng)])
        with pytest.raises(ValueError,
                           match="conv2d: input has 4 channels but kernel expects 8"):
            apply(s.l3_im, s.l3_fl, tm, fp)


class TestResidualAndLoss:
    def test_perfect_fit_zero_loss(self, rng):
        fp = float64(FusionParams.init(rng, "none", 4))
        tm = float64(TargetModelParams.init_random([rng], 6, 4, with_flow=False, c_mid=3,
                                                   reg_lambda=0.0))
        expand = tm.tau1[1].data
        expand[:] = expand[:, :1]            # every label channel the same
        s = make_sample(rng, with_flow=False)
        s.target = Tensor(apply(s.l3_im, None, tm, fp).data[:, :, :1])
        r, loss = residual_and_loss(stack_samples([s]), tm, fp)
        assert loss.item() < 1e-24

    def test_zero_weights_zero_loss(self, rng):
        fp = float64(FusionParams.init(rng, "none", 4))
        tm = float64(TargetModelParams.init_random([rng], 6, 4, with_flow=False, c_mid=3,
                                                   reg_lambda=0.0))
        s = make_sample(rng, with_flow=False)
        s.root = Tensor(np.zeros(1))
        _, loss = residual_and_loss(stack_samples([s]), tm, fp)
        assert loss.item() == 0.0

    def test_half_rsq_equals_loss(self, rng):
        fp = float64(FusionParams.init(rng, "attention", 4))
        tm = float64(TargetModelParams.init_random([rng], 6, 4, with_flow=True, c_mid=3,
                                                   reg_lambda=0.05))
        s = make_sample(rng)
        r, loss = residual_and_loss(stack_samples([s, make_sample(rng)], [1.0, 0.5]),
                                    tm, fp)
        assert abs(0.5 * np.sum(r.data ** 2) - loss.item()) < 1e-12

    def test_toy_sample_matches_hand_expansion(self, rng):
        # 2x2 spatial, 2 input channels, c_mid 1, three label channels, mode
        # none, two frames of unequal sample weight: each frame's pooled mask
        # and root reach every label channel
        fp = float64(FusionParams.init(rng, "none", 3))
        tm = float64(TargetModelParams.init_random([rng], 2, 3, with_flow=False, c_mid=1,
                                                   reg_lambda=0.25))
        xs = rng.standard_normal((2, 2, 2, 2))           # frame, channel, y, x
        es = rng.standard_normal((2, 2, 2))              # frame, y, x
        roots = 0.2 + rng.random(2)
        sample_weights = [2.0, 0.81]
        samples = [TargetSample(l3_im=Tensor(x[None]), l3_fl=None,
                                target=Tensor(e[None, None, None]), root=Tensor(root[None]))
                   for x, e, root in zip(xs, es, roots)]
        _, loss = residual_and_loss(stack_samples(samples, sample_weights), tm, fp)

        a1 = tm.tau1[0].data[0]
        b1 = tm.tau1[1].data[0]
        expected = 0.0
        for x, e, root, w_s in zip(xs, es, roots, sample_weights):
            reduced = (a1[0, 0, 0, 0] * x[0] + a1[0, 1, 0, 0] * x[1])[None]
            f_x = conv2d_loops(reduced, b1, padding=1)
            for d in range(3):
                for y in range(2):
                    for xx in range(2):
                        expected += (np.sqrt(w_s) * root * (f_x[d, y, xx] - e[y, xx])) ** 2
        expected += 0.25 * (np.sum(a1 ** 2) + np.sum(b1 ** 2))
        assert abs(loss.item() - 0.5 * expected) < 1e-12

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            stack_samples([])

    def test_loss_gradient_matches_fd(self, rng):
        fp = float64(FusionParams.init(rng, "attention", 4))
        tm = float64(TargetModelParams.init_random([rng], 5, 4, with_flow=True, c_mid=2,
                                                   reg_lambda=0.1))
        samples = [make_sample(rng, c_in=5, hw=4) for _ in range(2)]

        def build():
            _, loss = residual_and_loss(stack_samples(samples), tm, fp)
            return loss

        leaves = tm.tensors()
        for leaf in leaves:
            leaf.grad = None
        with Tape() as tape:
            loss = build()
        tape.backward(loss, leaves)
        analytic = [t.grad.copy() for t in leaves]
        numeric = finite_diff_grads(build, leaves)
        for a, n in zip(analytic, numeric):
            denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
            assert np.max(np.abs(a - n) / denom) < 1e-4

    @pytest.mark.parametrize("mode", ["none", "concat", "attention"])
    def test_batch_equals_scaled_single_residuals(self, rng, mode):
        fp = float64(FusionParams.init(rng, mode, 4))
        if fp.wo is not None:
            fp.wo.data[:] = rng.standard_normal(fp.wo.shape)
        tm = float64(TargetModelParams.init_random([rng], 6, 4, with_flow=mode != "none",
                                                   c_mid=3, reg_lambda=0.0))
        samples = [make_sample(rng, with_flow=mode != "none") for _ in range(3)]
        weights = [2.0, 0.81, 0.9]
        r, _ = residual_and_loss(stack_samples(samples, weights), tm, fp)
        singles = [residual_and_loss(stack_samples([s]), tm, fp)[0].data * np.sqrt(sw)
                   for s, sw in zip(samples, weights)]
        np.testing.assert_allclose(r.data, np.concatenate(singles, axis=1), rtol=0, atol=1e-12)

    def test_tape_size_does_not_grow_with_samples(self, rng):
        fp = float64(FusionParams.init(rng, "attention", 4))
        tm = float64(TargetModelParams.init_random([rng], 6, 4, with_flow=True, c_mid=3,
                                                   reg_lambda=1e-2))

        def nodes(count):
            samples = [make_sample(rng) for _ in range(count)]
            batch = stack_samples(samples, [0.5] * count)
            with Tape() as tape:
                residual_and_loss(batch, tm, fp)
            return len(tape.nodes)

        assert nodes(8) == nodes(1)
