import re
import tracemalloc
import types

import numpy as np
import pytest

from flowvos import autodiff as ad
from flowvos.autodiff import Tape, Tensor

from conftest import (TapGathers, check_backward_matches_fd, conv2d_loops,
                      full_replay_backward, full_replay_jvp, full_replay_vjp,
                      upsample2_loops)

# (input shape, kernel shape) for k = 1 and 3, on batches of one and of two;
# a 3x3 kernel stacks its taps unless it has over 1.5 input channels per
# output channel, and the input gradient swaps the two counts
CONV_CASES = [
    pytest.param((2, 3, 6, 5), (4, 3, 1, 1), id="1x1"),
    pytest.param((1, 3, 6, 5), (4, 3, 1, 1), id="1x1-single"),
    pytest.param((1, 3, 6, 5), (4, 3, 3, 3), id="3x3-stacked"),
    pytest.param((2, 3, 6, 5), (4, 3, 3, 3), id="3x3-stacked-batch"),
    pytest.param((2, 12, 6, 5), (4, 12, 3, 3), id="3x3-per-tap"),
    pytest.param((1, 2, 6, 5), (12, 2, 3, 3), id="3x3-per-tap-input-gradient"),
]

# (input shape, kernel shape) of a grouped conv2d: one batch that every group
# reads, or a batch per group, with k = 1 and 3 in both tap regimes of the
# forward pass and of the input gradient
GROUPED_CASES = [
    pytest.param((2, 6, 5, 4), (3, 4, 6, 1, 1), id="1x1-shared"),
    pytest.param((3, 2, 6, 5, 4), (3, 4, 6, 1, 1), id="1x1-stacked"),
    pytest.param((2, 3, 5, 4), (3, 4, 3, 3, 3), id="3x3-shared"),
    pytest.param((3, 2, 3, 5, 4), (3, 4, 3, 3, 3), id="3x3-stacked"),
    pytest.param((2, 12, 5, 4), (3, 4, 12, 3, 3), id="3x3-per-tap-shared"),
    pytest.param((3, 2, 2, 5, 4), (3, 12, 2, 3, 3), id="3x3-per-tap-input-gradient-stacked"),
]


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 5, 7)))
        w = Tensor(np.ones((3, 3, 1, 1)) * np.eye(3)[:, :, None, None])
        out = ad.conv2d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_averaging_preserves_constants(self):
        c = 2.75
        x = Tensor(np.full((1, 1, 6, 6), c))
        w = Tensor(np.full((1, 1, 3, 3), 1.0 / 9.0))
        out = ad.conv2d(x, w)
        np.testing.assert_allclose(out.data[0, 0, 1:-1, 1:-1], c, atol=1e-12)

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3))
        out = ad.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data[0], conv2d_loops(x[0], w, padding=1), atol=1e-12)

    def test_loop_oracle_many_shapes(self, rng):
        for _ in range(100):
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3, 5]))
            h = int(rng.integers(1, 9))
            wd = int(rng.integers(1, 9))
            x = rng.standard_normal((1, cin, h, wd))
            w = rng.standard_normal((cout, cin, k, k))
            got = ad.conv2d(Tensor(x), Tensor(w)).data[0]
            ref = conv2d_loops(x[0], w, padding=k // 2)
            np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_batched_loop_oracle(self, rng):
        for k in (1, 3, 5):
            for _ in range(3):
                n = int(rng.integers(1, 4))
                cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
                h = int(rng.integers(1, 9))
                wd = int(rng.integers(1, 9))
                x = rng.standard_normal((n, cin, h, wd))
                w = rng.standard_normal((cout, cin, k, k))
                got = ad.conv2d(Tensor(x), Tensor(w)).data
                ref = np.stack([conv2d_loops(xi, w, padding=k // 2) for xi in x])
                np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_bias(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        out = ad.conv2d(Tensor(x), Tensor(w), Tensor(b))
        ref = conv2d_loops(x[0], w, padding=1) + b[:, None, None]
        np.testing.assert_allclose(out.data[0], ref, atol=1e-12)

    def test_channel_mismatch_names_dimension(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w = Tensor(rng.standard_normal((3, 5, 3, 3)))
        with pytest.raises(ValueError, match="2 channels but kernel expects 5"):
            ad.conv2d(x, w)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("xshape, wshape", CONV_CASES)
    def test_input_gradient_is_the_flipped_kernel_correlation(self, rng, xshape,
                                                              wshape, dtype):
        x = Tensor(rng.standard_normal(xshape).astype(dtype))
        w = Tensor(rng.standard_normal(wshape).astype(dtype))
        with Tape() as tape:
            out = ad.conv2d(x, w)
        g = rng.standard_normal(out.shape).astype(dtype)
        dx, _ = tape.nodes[-1].vjp(g, (True, False))
        w_adj = np.ascontiguousarray(w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        assert np.array_equal(dx, ad.conv2d(Tensor(g), Tensor(w_adj)).data)

    def test_stacked_gradients_equal_the_taps_kept_on_the_tape(self, rng, monkeypatch):
        # the oracle is the form that kept the stacked taps with the node:
        # lay out the padded flat grid, concatenate its nine taps, and form
        # each gradient as one matmul over them
        n, cin, h, wd, cout, k = 2, 8, 7, 6, 8, 3
        x = rng.standard_normal((n, cin, h, wd)).astype(np.float32)
        w = rng.standard_normal((cout, cin, k, k)).astype(np.float32)
        g = rng.standard_normal((n, cout, h, wd)).astype(np.float32)
        ph, pw = h + 1, wd + 1
        span, lead = n * ph * pw, pw + 1
        offsets = [i * pw + j for i in range(k) for j in range(k)]

        def grid(a):
            flat = np.zeros((a.shape[1], span + 2 * lead), dtype=a.dtype)
            flat[:, lead:lead + span].reshape(a.shape[1], n, ph, pw)[..., :h, :wd] = \
                a.swapaxes(0, 1)
            return flat

        def taps(flat):
            return np.concatenate([flat[:, o:o + span] for o in offsets], axis=0)

        ggrid = grid(g)
        dw_ref = np.matmul(ggrid[:, lead:lead + span], taps(grid(x)).swapaxes(-1, -2)).reshape(
            cout, k, k, cin).transpose(0, 3, 1, 2)
        adj = w[:, :, ::-1, ::-1].transpose(2, 3, 1, 0).reshape(k * k, cin, cout)
        y = np.matmul(adj.swapaxes(0, 1).reshape(cin, k * k * cout), taps(ggrid))
        dx_ref = np.ascontiguousarray(y.reshape(cin, n, ph, pw)[..., :h, :wd].swapaxes(0, 1))

        gathers = TapGathers(monkeypatch)
        with Tape() as tape:
            ad.conv2d(Tensor(x), Tensor(w))
        dx, dw = tape.nodes[-1].vjp(g, (True, True))
        assert np.array_equal(dw, dw_ref) and np.array_equal(dx, dx_ref)
        assert (gathers.first, gathers.regathers) == (2, 1)   # forward, dx; dw's taps again
        tape.nodes[-1].vjp(g, (True, False))
        assert gathers.regathers == 1

    def test_a_taped_stacked_conv_keeps_its_grid_and_not_its_taps(self, rng):
        # the nine stacked taps are about 9.6 times the input, the padded
        # grid about 1.1 times
        x = Tensor(rng.standard_normal((1, 32, 32, 32)).astype(np.float32))
        w = Tensor(rng.standard_normal((32, 32, 3, 3)).astype(np.float32))
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = ad.conv2d(x, w)
            kept = tracemalloc.get_traced_memory()[0] - out.data.nbytes
            assert len(tape.nodes) == 1
        finally:
            tracemalloc.stop()
        assert kept < 3 * x.data.nbytes

    def test_even_kernel_rejected(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)))
        w = Tensor(rng.standard_normal((1, 1, 2, 2)))
        with pytest.raises(ValueError, match="odd"):
            ad.conv2d(x, w)


class TestGroupedConv2d:
    @pytest.mark.parametrize("xshape, wshape", GROUPED_CASES)
    def test_each_group_is_its_own_call_byte_for_byte(self, rng, xshape, wshape):
        x = rng.standard_normal(xshape).astype(np.float32)
        w = rng.standard_normal(wshape).astype(np.float32)
        b = rng.standard_normal(wshape[:2]).astype(np.float32)
        out = ad.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        assert out.shape == (wshape[0], xshape[-4], wshape[1]) + xshape[-2:]
        for g in range(wshape[0]):
            xg = x if len(xshape) == 4 else x[g]
            assert np.array_equal(out[g], ad.conv2d(Tensor(xg), Tensor(w[g]),
                                                    Tensor(b[g])).data)

    @pytest.mark.parametrize("xshape, wshape", GROUPED_CASES)
    def test_output_and_gradients_match_the_per_group_calls(self, rng, xshape, wshape):
        # float64; a shared input's gradient sums those of the groups
        x, w = rng.standard_normal(xshape), rng.standard_normal(wshape)
        shared = len(xshape) == 4

        def run(xa, wa, cot):
            with Tape() as tape:
                out = ad.conv2d(Tensor(xa), Tensor(wa))
            return (out.data, *tape.nodes[-1].vjp(cot, (True, True)))

        cot = rng.standard_normal((wshape[0], xshape[-4], wshape[1]) + xshape[-2:])
        out, dx, dw = run(x, w, cot)
        per_group = [run(x if shared else x[g], w[g], cot[g]) for g in range(wshape[0])]
        ref_dx = (sum(p[1] for p in per_group) if shared
                  else np.stack([p[1] for p in per_group]))
        for got, ref in [(out, np.stack([p[0] for p in per_group])), (dx, ref_dx),
                         (dw, np.stack([p[2] for p in per_group]))]:
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_input_must_match_the_groups(self, rng):
        w = Tensor(rng.standard_normal((3, 4, 2, 3, 3)))
        with pytest.raises(ValueError, match="input has 2 groups but kernel has 3"):
            ad.conv2d(Tensor(rng.standard_normal((2, 1, 2, 4, 4))), w)
        with pytest.raises(ValueError, match="NxCxHxW or GxNxCxHxW"):
            ad.conv2d(Tensor(rng.standard_normal((2, 4, 4))), w)
        with pytest.raises(ValueError, match=r"bias shape \(4,\) != \(3, 4\)"):
            ad.conv2d(Tensor(rng.standard_normal((1, 2, 4, 4))), w,
                      Tensor(rng.standard_normal(4)))


class TestElementwise:
    def test_softmax_symmetry(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.standard_normal((5, 7)) * 50.0)
        out = ad.softmax(x, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_axis_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ad.softmax(Tensor(np.zeros((2, 2))), axis=2)

    def test_relu(self):
        out = ad.relu(Tensor([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    def test_relu_matches_the_where_form_byte_for_byte(self, rng, dtype):
        x = np.concatenate([rng.standard_normal(64), [0.0, -0.0, 1e-30, -1e-30]])
        x = x.astype(dtype)
        out = ad.relu(Tensor(x)).data
        assert out.dtype == dtype
        assert out.tobytes() == np.where(x > 0, x, 0.0).astype(dtype).tobytes()

    def test_a_taped_relu_keeps_a_mask_and_not_its_output(self, rng):
        x = Tensor(rng.standard_normal((1, 32, 32, 32)).astype(np.float32))
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = ad.relu(x)
            nbytes = out.data.nbytes
            del out
            kept = tracemalloc.get_traced_memory()[0]
            assert len(tape.nodes) == 1
        finally:
            tracemalloc.stop()
        assert kept < nbytes // 4 + 2048   # the boolean mask is 32768 bytes

    def test_relu_propagates_nan(self):
        out = ad.relu(Tensor(np.array([np.nan, -1.0, 2.0], dtype=np.float32))).data
        assert np.isnan(out[0]) and out[1:].tolist() == [0.0, 2.0]

    def test_matmul_matches_triple_loop(self, rng):
        a = rng.standard_normal((2, 2, 3))
        b = rng.standard_normal((2, 3, 2))
        ref = np.zeros((2, 2, 2))
        for s in range(2):
            for i in range(2):
                for j in range(2):
                    for k in range(3):
                        ref[s, i, j] += a[s, i, k] * b[s, k, j]
        out = ad.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, ref, atol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_scalar_ops(self):
        x = Tensor([1.0, -2.0])
        np.testing.assert_array_equal((x * 2.0).data, [2.0, -4.0])
        np.testing.assert_array_equal((x * x).data, [1.0, 4.0])

    def test_sigmoid_extreme_inputs_finite(self):
        out = ad.sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_softplus_extreme_inputs_finite(self):
        out = ad.softplus(Tensor([-1000.0, 0.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, np.log(2.0), 1000.0], atol=1e-12)


class TestPoolUpsample:
    def test_avg_pool2(self, rng):
        x = rng.standard_normal((2, 2, 4, 6))
        out = ad.avg_pool2(Tensor(x))
        assert out.shape == (2, 2, 2, 3)
        ref = x.reshape(2, 2, 2, 2, 3, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(out.data, ref, atol=1e-12)

    def test_avg_pool2_odd_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            ad.avg_pool2(Tensor(np.zeros((1, 1, 3, 4))))

    def test_upsample2_shape_and_constant(self):
        x = Tensor(np.full((2, 2, 3, 4), 1.5))
        out = ad.upsample2(x)
        assert out.shape == (2, 2, 6, 8)
        np.testing.assert_allclose(out.data, 1.5, atol=1e-12)

    def test_upsample2_interpolates(self):
        x = Tensor(np.array([[[[0.0, 1.0]]]]))
        out = ad.upsample2(x)
        np.testing.assert_allclose(out.data[0, 0, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 3, 5), (1, 4, 6), (3, 1, 1), (2, 1, 4),
                                       (1, 5, 1)], ids=str)
    def test_upsample2_matches_loop_oracle_exactly(self, rng, shape):
        x = rng.standard_normal((2,) + shape)
        np.testing.assert_array_equal(ad.upsample2(Tensor(x)).data,
                                      np.stack([upsample2_loops(xi) for xi in x]))

    @pytest.mark.parametrize("shape", [(1, 32, 48, 32), (1, 32, 24, 16), (2, 3, 5, 1),
                                       (1, 1, 1, 1), (3, 4, 7, 9)], ids=str)
    def test_flat_column_pass_equals_the_strided_one_byte_for_byte(self, rng, shape):
        # the strided per-axis form, which the row pass still uses, is the oracle
        x = rng.standard_normal(shape).astype(np.float32)
        x[0, 0, 0, 0] = -0.0
        got = ad._up_last(x)
        assert got.shape == shape[:-1] + (2 * shape[-1],)
        assert got.tobytes() == ad._up_axis(x, 3).tobytes()

    @pytest.mark.parametrize("shape", [(2, 3, 5), (1, 4, 6), (3, 1, 1), (2, 1, 4)],
                             ids=str)
    def test_upsample2_vjp_is_the_adjoint(self, rng, shape):
        x = rng.standard_normal((1,) + shape)
        g = rng.standard_normal((1, shape[0], 2 * shape[1], 2 * shape[2]))
        xt = Tensor(x)
        lin = ad.Linearization(lambda: ad.upsample2(xt), [xt])
        up_x = lin.jvp([x])
        up_t_g = lin.vjp(g)[0]
        assert abs(np.vdot(up_x, g) - np.vdot(x, up_t_g)) < 1e-12


class TestKernelSlice:
    def test_slices_and_its_vjp_is_the_adjoint(self, rng):
        w = rng.standard_normal((3, 5, 3, 3))
        wt = Tensor(w)
        lin = ad.Linearization(lambda: ad.kernel_slice(wt, 1, 4), [wt])
        np.testing.assert_array_equal(lin.value(), w[:, 1:4])
        v = rng.standard_normal(w.shape)
        g = rng.standard_normal((3, 3, 3, 3))
        jv = lin.jvp([v])
        np.testing.assert_array_equal(jv, v[:, 1:4])
        vg = lin.vjp(g)[0]
        assert abs(np.vdot(jv, g) - np.vdot(v, vg)) < 1e-12
        assert not np.any(vg[:, [0, 4]])

    @pytest.mark.parametrize("start, stop", [(0, 0), (2, 1), (-1, 2), (1, 6)])
    def test_out_of_range_rejected(self, start, stop):
        with pytest.raises(ValueError, match=f"channels {start}:{stop} out of range"):
            ad.kernel_slice(Tensor(np.zeros((2, 5, 3, 3))), start, stop)


class TestBackward:
    def test_mean_gives_uniform_gradient(self, rng):
        x = Tensor(rng.standard_normal((3, 4)))
        with Tape() as tape:
            loss = ad.tmean(x)
        tape.backward(loss, [x])
        np.testing.assert_array_equal(x.grad, np.full((3, 4), 1.0 / 12.0))

    def test_half_sumsq_gives_x(self, rng):
        x = Tensor(rng.standard_normal(7))
        with Tape() as tape:
            loss = ad.sumsq(x) * 0.5
        tape.backward(loss, [x])
        np.testing.assert_allclose(x.grad, x.data, atol=1e-12)

    def test_nonscalar_loss_rejected(self, rng):
        x = Tensor(rng.standard_normal(3))
        with Tape() as tape:
            y = x * 2.0
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y, [x])

    def test_only_the_sources_get_a_gradient(self, rng):
        x, y = Tensor(rng.standard_normal(3)), Tensor(rng.standard_normal(3))
        with Tape() as tape:
            loss = ad.sumsq(ad.mul(x, y))
        tape.backward(loss, [x])
        np.testing.assert_allclose(x.grad, 2.0 * x.data * y.data ** 2, rtol=1e-12)
        assert y.grad is None

    def test_empty_tape_rejected(self):
        with pytest.raises(ValueError, match="empty tape"):
            Tape().backward(Tensor(0.0), [])

    def test_composite_graph_matches_fd(self, rng):
        x = Tensor(rng.standard_normal((2, 3)) + 0.1)
        y = Tensor(rng.standard_normal((2, 3)) + 0.1)

        def build():
            a = ad.mul(x, y)
            b = ad.relu(ad.add(a, y))
            c = ad.sigmoid(b)
            d = ad.softmax(c, axis=1)
            return ad.sumsq(ad.sub(d, x))

        check_backward_matches_fd(build, [x, y])

    def test_grad_accumulates_across_backward_calls(self, rng):
        x = Tensor(rng.standard_normal(4))
        with Tape() as tape:
            loss = ad.tmean(x)
        tape.backward(loss, [x])
        tape.backward(loss, [x])
        np.testing.assert_array_equal(x.grad, np.full(4, 0.5))

    def test_adjoint_linearity(self, rng):
        x = Tensor(rng.standard_normal(6))
        a, b = 2.5, -1.25

        def run(fn):
            x.grad = None
            with Tape() as tape:
                loss = fn()
            tape.backward(loss, [x])
            return x.grad.copy()

        gf = run(lambda: ad.sumsq(x))
        gg = run(lambda: ad.tmean(ad.sigmoid(x)))
        gcombo = run(lambda: ad.add(ad.sumsq(x) * a, ad.tmean(ad.sigmoid(x)) * b))
        np.testing.assert_allclose(gcombo, a * gf + b * gg, atol=1e-12)

    def test_determinism(self, rng):
        x = rng.standard_normal((1, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))

        def run():
            xt = Tensor(x)
            wt = Tensor(w)
            with Tape() as tape:
                loss = ad.sumsq(ad.relu(ad.conv2d(xt, wt)))
            tape.backward(loss, [xt, wt])
            return loss.item(), xt.grad.copy(), wt.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)


def _op_cases(rng):
    """(name, leaves, op) triples covering every differentiable op, where
    op() applies it to the leaves."""
    def t(shape, off=0.0):
        return Tensor(rng.standard_normal(shape) + off)

    x23a, x23b = t((2, 3)), t((2, 3))
    # keep relu inputs away from the kink
    xr = Tensor(np.sign(rng.standard_normal((2, 3))) * (0.2 + rng.random((2, 3))))
    xc = t((2, 4, 4))
    xcat, ycat = t((2, 3)), t((1, 3))
    xb, wb, bb = t((2, 3, 4, 5)), t((2, 3, 3, 3)), t(2)
    x1, w1 = t((2, 3, 4, 4)), t((5, 3, 1, 1))
    xs, ys = t((2, 3, 4)), t((2, 4, 2))
    xcb, ycb = t((2, 2, 3, 3)), t((2, 1, 3, 3))
    wk = t((2, 4, 3, 3))
    xgs, wgs = t((2, 2, 4, 4)), t((3, 2, 2, 3, 3))          # one input, 3 groups
    xgk, wgk, bgk = t((2, 1, 3, 4, 4)), t((2, 2, 3, 1, 1)), t((2, 2))   # an input per group
    xp = t((2, 2, 4, 6))
    xu = t((2, 1, 3, 3))
    return [
        ("add", [x23a, x23b], lambda: ad.add(x23a, x23b)),
        ("sub", [x23a, x23b], lambda: ad.sub(x23a, x23b)),
        ("mul", [x23a, x23b], lambda: ad.mul(x23a, x23b)),
        ("scale", [x23a], lambda: x23a * -1.7),
        ("relu", [xr], lambda: ad.relu(xr)),
        ("sigmoid", [x23a], lambda: ad.sigmoid(x23a)),
        ("softplus", [x23a], lambda: ad.softplus(x23a)),
        ("softmax", [x23a], lambda: ad.softmax(x23a, axis=1)),
        ("tmean", [x23a], lambda: ad.tmean(ad.mul(x23a, x23a))),
        ("sumsq", [x23a], lambda: ad.sumsq(x23a)),
        ("matmul", [xs, ys], lambda: ad.matmul(xs, ys)),
        ("transpose2d", [xs], lambda: ad.transpose2d(xs)),
        ("reshape", [xc], lambda: ad.reshape(xc, (4, 8))),
        ("concat", [xcat, ycat], lambda: ad.concat([xcat, ycat], axis=0)),
        ("concat axis -3", [xcb, ycb], lambda: ad.concat([xcb, ycb], axis=-3)),
        ("kernel_slice", [wk], lambda: ad.kernel_slice(wk, 1, 3)),
        ("conv2d", [xb, wb, bb], lambda: ad.conv2d(xb, wb, bb)),
        ("conv2d 1x1", [x1, w1], lambda: ad.conv2d(x1, w1)),
        ("conv2d grouped", [xgs, wgs], lambda: ad.conv2d(xgs, wgs)),
        ("conv2d grouped stacked", [xgk, wgk, bgk], lambda: ad.conv2d(xgk, wgk, bgk)),
        ("avg_pool2", [xp], lambda: ad.avg_pool2(xp)),
        ("upsample2", [xu], lambda: ad.upsample2(xu)),
    ]


def test_every_op_backward_matches_fd(rng):
    for name, leaves, op in _op_cases(rng):
        try:
            check_backward_matches_fd(lambda: ad.sumsq(op()), leaves)
        except AssertionError as e:
            raise AssertionError(f"op {name}: {e}") from e


def test_every_op_jvp_matches_fd_and_its_vjp_is_the_adjoint(rng):
    h = 1e-6
    for name, leaves, op in _op_cases(rng):
        x0 = [leaf.data.copy() for leaf in leaves]
        lin = ad.Linearization(op, leaves)
        v = [rng.standard_normal(a.shape) for a in x0]

        def at(step):
            for leaf, a, d in zip(leaves, x0, v):
                leaf.data = a + step * d
            return op().data

        fd = (at(h) - at(-h)) / (2 * h)
        at(0.0)
        jv = lin.jvp(v)
        assert np.max(np.abs(jv - fd) / np.maximum(1.0, np.abs(fd))) < 1e-6, name
        u = rng.standard_normal(jv.shape)          # <u, J v> = <J^T u, v>
        lhs = np.sum(u * jv)
        rhs = sum(np.sum(g * d) for g, d in zip(lin.vjp(u), v))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs)), name


def _reachable(rule):
    """Every object a recorded rule reaches through its closure cells, and
    through the nested functions and containers in them."""
    stack, seen = [rule], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, types.FunctionType):
            stack += [cell.cell_contents for cell in obj.__closure__ or ()]
        elif isinstance(obj, (tuple, list)):
            stack += obj


def test_no_recorded_node_holds_a_tensor(rng):
    """A node names its output and inputs by key, and its rules hold arrays
    only, so an intermediate that no rule reads is freed with the forward."""
    for name, _, op in _op_cases(rng):
        with Tape() as tape:
            op()
        assert tape.nodes, name
        for node in tape.nodes:
            assert all(isinstance(k, int) for k in (node.out, *node.inputs)), name
            for rule in (node.vjp, node.jvp):
                assert not any(isinstance(o, Tensor) for o in _reachable(rule)), name


@pytest.mark.parametrize("op, shapes", [
    ("conv2d", [(2, 3, 5, 4), (4, 3, 3, 3)]),
    ("mul", [(2, 3), (2, 3)]),
    ("matmul", [(2, 3, 4), (2, 4, 2)]),
])
def test_a_tape_stays_valid_when_an_operand_is_replaced(rng, op, shapes):
    """Replacing the other operand's ``data`` after recording, as the line
    search does, leaves the replays of a linearization in x as they were,
    and J^T still the adjoint of J."""
    x, other = (Tensor(rng.standard_normal(s)) for s in shapes)
    lin = ad.Linearization(lambda: getattr(ad, op)(x, other), [x])
    v = rng.standard_normal(x.shape)
    u = rng.standard_normal(lin.output.shape)
    jv, jtu = lin.jvp([v]), lin.vjp(u)[0]
    other.data = other.data + 1.0
    assert np.array_equal(lin.jvp([v]), jv) and np.array_equal(lin.vjp(u)[0], jtu)
    lhs = np.sum(u * lin.jvp([v]))                 # <u, J v> = <J^T u, v>
    assert abs(lhs - np.sum(lin.vjp(u)[0] * v)) < 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_every_op_keeps_its_input_dtype(rng, dtype):
    """Forward values, JVP and VJP replays and Tape.backward all stay in the
    leaves' dtype, with no float64 array promoting a float32 graph."""
    for name, leaves, op in _op_cases(rng):
        for leaf in leaves:
            leaf.data = leaf.data.astype(dtype)
            leaf.grad = None
        with Tape() as tape:
            out = op()
            loss = ad.sumsq(out)
        assert out.data.dtype == loss.data.dtype == dtype, name
        tape.backward(loss, leaves)
        assert all(leaf.grad.dtype == dtype for leaf in leaves), name
        lin = ad.Linearization(op, leaves)
        jv = lin.jvp([rng.standard_normal(leaf.shape).astype(dtype) for leaf in leaves])
        assert jv.dtype == dtype, name
        assert all(g.dtype == dtype for g in lin.vjp(np.ones_like(jv))), name


def test_every_binary_op_rejects_mixed_dtypes(rng):
    """A float32/float64 pair fails loudly, naming both dtypes, whichever
    operand is the odd one out (for conv2d: the input, or the bias)."""
    binary = [case for case in _op_cases(rng) if len(case[1]) > 1]
    assert {name for name, _, _ in binary} >= {"add", "sub", "mul", "matmul",
                                               "concat", "conv2d"}
    for name, leaves, op in binary:
        for odd in (0, len(leaves) - 1):
            for i, leaf in enumerate(leaves):
                leaf.data = leaf.data.astype(np.float64 if i == odd else np.float32)
            with pytest.raises(ValueError, match="dtype mismatch float(32 vs float64|"
                                                 "64 vs float32)"):
                op()


@pytest.mark.parametrize("op, shapes", [
    ("conv2d", [(3, 4, 4), (2, 3, 3, 3)]),
    ("matmul", [(2, 3), (3, 2)]),
    ("transpose2d", [(2, 3)]),
    ("avg_pool2", [(3, 4, 4)]),
    ("upsample2", [(3, 4, 4)]),
], ids=["conv2d", "matmul", "transpose2d", "avg_pool2", "upsample2"])
def test_unbatched_input_rejected(op, shapes):
    """A feature map is an N x C x H x W batch and a matrix a stack of them:
    the unbatched form fails, naming its shape."""
    args = [Tensor(np.zeros(s)) for s in shapes]
    with pytest.raises(ValueError, match=re.escape(str(shapes[0]))):
        getattr(ad, op)(*args)


def test_tensor_keeps_a_floating_dtype_and_converts_the_rest():
    f32 = np.ones(3, dtype=np.float32)
    assert Tensor(f32).data is f32
    assert Tensor(np.ones(3)).data.dtype == np.float64
    assert Tensor(np.arange(3)).data.dtype == ad.DTYPE == np.float32
    assert Tensor(np.array([True, False])).data.dtype == ad.DTYPE


class TestJvpVjp:
    def test_linear_map_exact(self, rng):
        A = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        tau = Tensor(rng.standard_normal(3))

        def residual():
            return ad.sub(ad.matmul(Tensor(A[None]), ad.reshape(tau, (1, 3, 1))),
                          Tensor(b.reshape(1, 5, 1)))

        lin = ad.Linearization(residual, [tau])
        v = rng.standard_normal(3)
        u = rng.standard_normal((1, 5, 1))
        np.testing.assert_allclose(lin.jvp([v]).reshape(5), A @ v, atol=1e-12)
        np.testing.assert_allclose(lin.vjp(u)[0], A.T @ u.reshape(5), atol=1e-12)

    def test_adjoint_identity(self, rng):
        x = Tensor(rng.standard_normal((2, 3)))

        lin = ad.Linearization(lambda: ad.sigmoid(ad.mul(x, x)), [x])
        v = rng.standard_normal((2, 3))
        vp = rng.standard_normal((2, 3))
        jv = lin.jvp([v])
        jvp2 = lin.jvp([vp])
        lhs = np.sum(jv * jvp2)                   # <J v, J v'>
        rhs = np.sum(v * lin.vjp(jvp2)[0])        # <v, J^T J v'>
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_jvp_matches_directional_fd(self, rng):
        x0 = rng.standard_normal((3, 3)) * 0.5
        x = Tensor(x0.copy())

        def residual(p):
            return ad.softmax(ad.mul(ad.sigmoid(p), p), axis=0)

        lin = ad.Linearization(lambda: residual(x), [x])
        v = rng.standard_normal((3, 3))
        h = 1e-5

        def eval_at(arr):
            return residual(Tensor(arr)).data

        fd = (eval_at(x0 + h * v) - eval_at(x0 - h * v)) / (2 * h)
        jv = lin.jvp([v])
        denom = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(jv - fd) / denom) < 1e-4

    def test_jvp_matches_fd_through_conv_pipeline(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w0 = rng.standard_normal((3, 2, 3, 3)) * 0.5
        w = Tensor(w0.copy())

        lin = ad.Linearization(lambda: ad.relu(ad.conv2d(x, w)), [w])
        v = rng.standard_normal(w0.shape)
        h = 1e-5
        fp = ad.relu(ad.conv2d(x, Tensor(w0 + h * v))).data
        fm = ad.relu(ad.conv2d(x, Tensor(w0 - h * v))).data
        fd = (fp - fm) / (2 * h)
        jv = lin.jvp([v])
        denom = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(jv - fd) / denom) < 1e-4


def _mixed_graph(rng, a, b, dead):
    """A residual with frozen inputs, constant kernels and weights, a dead
    branch and nodes recorded after it; a and b are the parameters."""
    x = Tensor(rng.standard_normal((2, 3, 5, 5)))             # frozen features
    k = Tensor(rng.standard_normal((2, 2, 3, 3)))             # detached filter
    c = Tensor(rng.standard_normal((2, 3, 1, 1)))
    wts = Tensor(rng.random((2, 2, 5, 5)))
    target = Tensor(rng.standard_normal((2, 2, 5, 5)))
    m = Tensor(rng.standard_normal((1, 5, 4)))

    def residual():
        y = ad.conv2d(ad.conv2d(x, a), b)
        y = ad.conv2d(ad.relu(y), k)
        ad.sigmoid(ad.add(ad.tmean(b), ad.tmean(dead)))       # leads nowhere
        const = ad.relu(ad.conv2d(x, c))                      # no parameter in it
        r = ad.mul(wts, ad.sub(ad.add(y, const), target))
        proj = ad.matmul(m, ad.reshape(a, (1, 4, 3)))
        r = ad.concat([ad.reshape(r, (r.size,)), ad.reshape(proj, (proj.size,)),
                       ad.reshape(a, (a.size,)) * 0.1], axis=0)
        ad.sumsq(r) * 0.5                                     # after the output
        return r

    return residual


class TestLivePlan:
    def params(self, rng):
        return (Tensor(rng.standard_normal((4, 3, 1, 1))),
                Tensor(rng.standard_normal((2, 4, 3, 3))),
                Tensor(rng.standard_normal(3)))

    def test_linearization_replays_equal_the_full_tape_bit_for_bit(self, rng):
        a, b, dead = self.params(rng)
        lin = ad.Linearization(_mixed_graph(rng, a, b, dead), [a, b])
        assert len(lin.plan) < len(lin.tape.nodes)
        v = [rng.standard_normal(a.shape), rng.standard_normal(b.shape)]
        u = rng.standard_normal(lin.output.shape)
        assert np.array_equal(lin.jvp(v), full_replay_jvp(lin.tape, [a, b], v, lin.output))
        for got, ref in zip(lin.vjp(u), full_replay_vjp(lin.tape, lin.output, u, [a, b])):
            assert np.array_equal(got, ref)

    def test_backward_equals_the_full_tape_bit_for_bit(self, rng):
        a, b, dead = self.params(rng)
        residual = _mixed_graph(rng, a, b, dead)
        with Tape() as tape:
            loss = ad.sumsq(residual()) * 0.5
            ad.tmean(ad.relu(loss))                           # after the loss
        ref = full_replay_backward(tape, loss, [a, b, dead])
        tape.backward(loss, [a, b, dead])
        assert set(ref) == {a.key, b.key}
        assert np.array_equal(a.grad, ref[a.key])
        assert np.array_equal(b.grad, ref[b.key])
        assert dead.grad is None

    @pytest.mark.parametrize("xshape, wshape", CONV_CASES)
    def test_conv2d_vjp_mask_leaves_the_other_gradient_unchanged(self, rng, xshape,
                                                                 wshape):
        x = Tensor(rng.standard_normal(xshape))
        w = Tensor(rng.standard_normal(wshape))
        bias = Tensor(rng.standard_normal(wshape[0]))
        with Tape() as tape:
            out = ad.conv2d(x, w, bias)
        vjp = tape.nodes[-1].vjp
        g = rng.standard_normal(out.shape)
        dx, dw, db = vjp(g, (True, True, True))
        dw_only = vjp(g, (False, True, True))
        dx_only = vjp(g, (True, False, False))
        assert dw_only[0] is None and dx_only[1] is None
        assert np.array_equal(dw_only[1], dw)
        assert np.array_equal(dx_only[0], dx)
