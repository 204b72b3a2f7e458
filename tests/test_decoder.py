import numpy as np
import pytest

from flowvos import autodiff as ad
from flowvos.autodiff import Tape, Tensor
from flowvos.backbone import FeatureExtractorParams, extract
from flowvos.decoder import DecoderParams, decode, fuse_pyramid
from flowvos.fusion import FusionParams
from flowvos.pipeline import balanced_bce_with_logits

from conftest import float64

SMALL = (4, 6, 8, 8)  # compact channel config to keep tests quick


def small_pyramids(rng, hw=32, dtype=np.float64):
    """Image and flow pyramids of random hw x hw (or h x w) frames."""
    h, w = (hw, hw) if isinstance(hw, int) else hw
    im, fl = (FeatureExtractorParams.init(rng, channels=SMALL) for _ in range(2))
    if dtype == np.float64:
        im, fl = float64(im), float64(fl)
    x = Tensor(rng.random((1, 3, h, w)).astype(dtype))
    f = Tensor(rng.random((1, 3, h, w)).astype(dtype))
    return extract(x, im), extract(f, fl)


def fusion_levels(rng, mode):
    return {k: float64(FusionParams.init(rng, mode, SMALL[k - 1])) for k in (2, 3, 4)}


class TestFusePyramid:
    def test_mode_none_needs_no_flow_pyramid(self, rng):
        pyr_im, _ = small_pyramids(rng)
        fused = fuse_pyramid(pyr_im, None, fusion_levels(rng, "none"))
        for k in (1, 2, 3, 4):
            assert fused[k] is pyr_im[k]

    def test_shapes_preserved(self, rng):
        pyr_im, pyr_fl = small_pyramids(rng)
        fused = fuse_pyramid(pyr_im, pyr_fl, fusion_levels(rng, "attention"))
        for k in (1, 2, 3, 4):
            assert fused[k].shape == pyr_im[k].shape

    def test_level1_is_flow_branch_by_default(self, rng):
        pyr_im, pyr_fl = small_pyramids(rng)
        fused = fuse_pyramid(pyr_im, pyr_fl, fusion_levels(rng, "attention"))
        assert fused[1] is pyr_fl[1]


class TestDecode:
    def decoder(self, rng, d=4, width=8):
        return float64(DecoderParams.init(rng, label_channels=d, channels=SMALL,
                                          width=width))

    def test_output_shape_full_resolution(self, rng):
        pyr_im, pyr_fl = small_pyramids(rng, hw=64)
        fused = fuse_pyramid(pyr_im, pyr_fl, fusion_levels(rng, "attention"))
        f_tm = Tensor(rng.random((1, 4, 8, 8)))
        [logits] = decode([f_tm], fused, self.decoder(rng))
        assert logits.shape == (1, 1, 64, 64)
        assert np.all(np.isfinite(logits.data))
        probs = ad.sigmoid(logits).data
        assert np.all((probs > 0.0) & (probs < 1.0))

    def test_resolution_contract_divisible_sizes(self, rng):
        for hw in (32, 64, 96):
            pyr_im, _ = small_pyramids(rng, hw=hw)
            fused = fuse_pyramid(pyr_im, None, fusion_levels(rng, "none"))
            f_tm = Tensor(rng.random((1, 4, hw // 8, hw // 8)))
            assert decode([f_tm], fused, self.decoder(rng))[0].shape == (1, 1, hw, hw)

    def test_zero_parameters_give_constant_bias(self, rng):
        pyr_im, _ = small_pyramids(rng)
        fused = fuse_pyramid(pyr_im, None, fusion_levels(rng, "none"))
        params = self.decoder(rng)
        for _, t in params.named_tensors("d"):
            t.data = np.zeros_like(t.data)
        params.head[1].data[:] = 0.37
        [logits] = decode([Tensor(rng.random((1, 4, 4, 4)))], fused, params)
        np.testing.assert_allclose(logits.data, 0.37, atol=1e-15)

    def test_head_before_upsample_matches_head_after(self, rng):
        pyr_im, pyr_fl = small_pyramids(rng)
        fused = fuse_pyramid(pyr_im, pyr_fl, fusion_levels(rng, "attention"))
        params = self.decoder(rng)
        f_tm = Tensor(rng.random((1, 4, 4, 4)))
        x = ad.relu(ad.conv2d(ad.concat([ad.avg_pool2(f_tm), fused[4]], axis=1),
                              *params.stem[0]))
        x = ad.relu(ad.conv2d(x, *params.stem[1]))
        for k in (3, 2, 1):
            x = ad.concat([ad.upsample2(x), fused[k]], axis=1)
            for w, b in params.refine[k]:
                x = ad.relu(ad.conv2d(x, w, b))
        after = ad.conv2d(ad.upsample2(x), *params.head)
        np.testing.assert_allclose(decode([f_tm], fused, params)[0].data, after.data,
                                   rtol=0, atol=1e-12)

    def test_wrong_ftm_resolution_rejected(self, rng):
        pyr_im, _ = small_pyramids(rng)
        fused = fuse_pyramid(pyr_im, None, fusion_levels(rng, "none"))
        with pytest.raises(ValueError, match=r"add: shape mismatch "
                                             r"\(1, 8, 8, 8\) vs \(1, 8, 2, 2\)"):
            decode([Tensor(rng.random((1, 4, 16, 16)))], fused, self.decoder(rng))

    def test_bce_gradients_match_fd_on_sampled_entries(self, rng):
        pyr_im, _ = small_pyramids(rng)
        fused_params = fusion_levels(rng, "none")
        params = self.decoder(rng)
        f_tm = Tensor(rng.random((1, 4, 4, 4)))
        target = (rng.random((1, 1, 32, 32)) > 0.7).astype(np.float64)

        def build():
            fused = fuse_pyramid(pyr_im, None, fused_params)
            return balanced_bce_with_logits(decode([f_tm], fused, params)[0], target)

        leaves = [t for _, t in params.named_tensors("d")]
        for leaf in leaves:
            leaf.grad = None
        with Tape() as tape:
            loss = build()
        tape.backward(loss, leaves)
        h = 1e-5
        for leaf in leaves:
            flat = leaf.data.reshape(-1)
            gflat = leaf.grad.reshape(-1)
            idx = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                fp = build().item()
                flat[i] = orig - h
                fm = build().item()
                flat[i] = orig
                fd = (fp - fm) / (2 * h)
                denom = max(1.0, abs(fd), abs(gflat[i]))
                assert abs(gflat[i] - fd) / denom < 1e-4

    def test_gradients_reach_fusion_and_backbone_through_decode(self, rng):
        im = float64(FeatureExtractorParams.init(rng, channels=SMALL))
        fl = float64(FeatureExtractorParams.init(rng, channels=SMALL))
        fusion_set = fusion_levels(rng, "attention")
        params = self.decoder(rng)
        with Tape() as tape:
            pyr_im = extract(Tensor(rng.random((1, 3, 32, 32))), im)
            pyr_fl = extract(Tensor(rng.random((1, 3, 32, 32))), fl)
            fused = fuse_pyramid(pyr_im, pyr_fl, fusion_set)
            loss = ad.sumsq(decode([Tensor(rng.random((1, 4, 4, 4)))], fused, params)[0])
        owners = [im, fl, params, *fusion_set.values()]
        tape.backward(loss, [t for o in owners for _, t in o.named_tensors("p")])
        assert any(t.grad is not None and np.any(t.grad != 0)
                   for _, t in fusion_set[3].named_tensors("f"))
        assert any(t.grad is not None and np.any(t.grad != 0)
                   for _, t in im.named_tensors("b"))
        assert any(t.grad is not None and np.any(t.grad != 0)
                   for _, t in fl.named_tensors("b"))


def concat_decode(f_tm, fused, params):
    """The decoder as the concatenation it computes: each stage's first conv
    reads [object path, fused level k] in one piece."""
    def block(x, pairs):
        for w, b in pairs:
            x = ad.relu(ad.conv2d(x, w, b))
        return x

    x = block(ad.concat([ad.avg_pool2(f_tm), fused[4]], axis=1), params.stem)
    for k in (3, 2, 1):
        x = block(ad.concat([ad.upsample2(x), fused[k]], axis=1), params.refine[k])
    return ad.upsample2(ad.conv2d(x, *params.head))


class TestDecodeObjects:
    """``decode`` takes every object of a frame and runs each stage's frame
    half once."""

    def test_each_object_gets_the_logits_of_a_one_object_call(self, rng):
        pyr_im, pyr_fl = small_pyramids(rng, hw=(48, 32), dtype=np.float32)
        fusion_set = {k: FusionParams.init(rng, "attention", SMALL[k - 1])
                      for k in (2, 3, 4)}
        fused = fuse_pyramid(pyr_im, pyr_fl, fusion_set)
        params = DecoderParams.init(rng, label_channels=4, channels=SMALL, width=8)
        f_tms = [Tensor(rng.standard_normal((1, 4, 6, 4)).astype(np.float32))
                 for _ in range(4)]
        together = decode(f_tms, fused, params)
        assert len(together) == 4
        for f_tm, logits in zip(f_tms, together):
            [alone] = decode([f_tm], fused, params)
            assert logits.data.dtype == np.float32
            assert logits.data.tobytes() == alone.data.tobytes()

    @pytest.mark.parametrize("mode", ["none", "attention"])
    def test_matches_the_concatenation_with_gradients(self, rng, mode):
        """In float64, every object's logits, and the gradients of a loss on
        all of them, equal those of the concatenated convolution."""
        pyr_im, pyr_fl = small_pyramids(rng, hw=(48, 32))
        fusion_set = fusion_levels(rng, mode)
        params = float64(DecoderParams.init(rng, label_channels=4, channels=SMALL,
                                            width=8))
        f_tms = [Tensor(rng.standard_normal((1, 4, 6, 4))) for _ in range(3)]
        leaves = [t for _, t in params.named_tensors("d")] + f_tms

        def run(decoder):
            fused = fuse_pyramid(pyr_im, None if mode == "none" else pyr_fl,
                                 fusion_set)
            sources = leaves + [fused[k] for k in (1, 2, 3, 4)]
            for leaf in sources:
                leaf.grad = None
            with Tape() as tape:
                outs = decoder(fused)
                loss = ad.sumsq(outs[0])
                for i, o in enumerate(outs[1:], 2):
                    loss = ad.add(loss, ad.sumsq(o) * float(i))
            tape.backward(loss, sources)
            return [o.data for o in outs], [t.grad.copy() for t in sources]

        got, got_grads = run(lambda fused: decode(f_tms, fused, params))
        ref, ref_grads = run(lambda fused: [concat_decode(f, fused, params)
                                            for f in f_tms])
        for a, b in zip(got + got_grads, ref + ref_grads):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        assert got[0].shape == (1, 1, 48, 32)
