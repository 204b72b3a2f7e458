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


def small_pyramids(rng, hw=32):
    im = float64(FeatureExtractorParams.init(rng, channels=SMALL))
    fl = float64(FeatureExtractorParams.init(rng, channels=SMALL))
    x = Tensor(rng.random((3, hw, hw)))
    f = Tensor(rng.random((3, hw, hw)))
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
        f_tm = Tensor(rng.random((4, 8, 8)))
        logits = decode(f_tm, fused, self.decoder(rng))
        assert logits.shape == (1, 64, 64)
        assert np.all(np.isfinite(logits.data))
        probs = ad.sigmoid(logits).data
        assert np.all((probs > 0.0) & (probs < 1.0))

    def test_resolution_contract_divisible_sizes(self, rng):
        for hw in (32, 64, 96):
            pyr_im, _ = small_pyramids(rng, hw=hw)
            fused = fuse_pyramid(pyr_im, None, fusion_levels(rng, "none"))
            f_tm = Tensor(rng.random((4, hw // 8, hw // 8)))
            assert decode(f_tm, fused, self.decoder(rng)).shape == (1, hw, hw)

    def test_zero_parameters_give_constant_bias(self, rng):
        pyr_im, _ = small_pyramids(rng)
        fused = fuse_pyramid(pyr_im, None, fusion_levels(rng, "none"))
        params = self.decoder(rng)
        for _, t in params.named_tensors("d"):
            t.data = np.zeros_like(t.data)
        params.head[1].data[:] = 0.37
        logits = decode(Tensor(rng.random((4, 4, 4))), fused, params)
        np.testing.assert_allclose(logits.data, 0.37, atol=1e-15)

    def test_head_before_upsample_matches_head_after(self, rng):
        pyr_im, pyr_fl = small_pyramids(rng)
        fused = fuse_pyramid(pyr_im, pyr_fl, fusion_levels(rng, "attention"))
        params = self.decoder(rng)
        f_tm = Tensor(rng.random((4, 4, 4)))
        x = ad.relu(ad.conv2d(ad.concat([ad.avg_pool2(f_tm), fused[4]], axis=0),
                              *params.stem[0]))
        x = ad.relu(ad.conv2d(x, *params.stem[1]))
        for k in (3, 2, 1):
            x = ad.concat([ad.upsample2(x), fused[k]], axis=0)
            for w, b in params.refine[k]:
                x = ad.relu(ad.conv2d(x, w, b))
        after = ad.conv2d(ad.upsample2(x), *params.head)
        np.testing.assert_allclose(decode(f_tm, fused, params).data, after.data,
                                   rtol=0, atol=1e-12)

    def test_wrong_ftm_resolution_rejected(self, rng):
        pyr_im, _ = small_pyramids(rng)
        fused = fuse_pyramid(pyr_im, None, fusion_levels(rng, "none"))
        with pytest.raises(ValueError, match=r"concat: dimension 1 mismatch "
                                             r"\(8, 2, 2\) vs \(4, 8, 8\)"):
            decode(Tensor(rng.random((4, 16, 16))), fused, self.decoder(rng))

    def test_bce_gradients_match_fd_on_sampled_entries(self, rng):
        pyr_im, _ = small_pyramids(rng)
        fused_params = fusion_levels(rng, "none")
        params = self.decoder(rng)
        f_tm = Tensor(rng.random((4, 4, 4)))
        target = (rng.random((1, 32, 32)) > 0.7).astype(np.float64)

        def build():
            fused = fuse_pyramid(pyr_im, None, fused_params)
            return balanced_bce_with_logits(decode(f_tm, fused, params), target)

        leaves = [t for _, t in params.named_tensors("d")]
        for leaf in leaves:
            leaf.grad = None
        with Tape() as tape:
            loss = build()
        tape.backward(loss, leaves)
        h = 1e-5
        for leaf in leaves:
            flat = leaf.data.reshape(-1)
            gflat = leaf.grad.data.reshape(-1)
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
            pyr_im = extract(Tensor(rng.random((3, 32, 32))), im)
            pyr_fl = extract(Tensor(rng.random((3, 32, 32))), fl)
            fused = fuse_pyramid(pyr_im, pyr_fl, fusion_set)
            loss = ad.sumsq(decode(Tensor(rng.random((4, 4, 4))), fused, params))
        owners = [im, fl, params, *fusion_set.values()]
        tape.backward(loss, [t for o in owners for _, t in o.named_tensors("p")])
        assert any(t.grad is not None and np.any(t.grad.data != 0)
                   for _, t in fusion_set[3].named_tensors("f"))
        assert any(t.grad is not None and np.any(t.grad.data != 0)
                   for _, t in im.named_tensors("b"))
        assert any(t.grad is not None and np.any(t.grad.data != 0)
                   for _, t in fl.named_tensors("b"))
