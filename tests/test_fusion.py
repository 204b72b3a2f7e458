import numpy as np
import pytest

from flowvos import autodiff as ad
from flowvos.autodiff import Tape, Tensor
from flowvos.fusion import FusionParams, attention_map, fuse, output_maps

from conftest import float64


@pytest.fixture
def feats(rng):
    return (Tensor(rng.standard_normal((1, 8, 4, 4))),
            Tensor(rng.standard_normal((1, 8, 4, 4))))


class TestAttention:
    def test_zero_output_projection_is_identity(self, rng, feats):
        f_im, f_fl = feats
        p = float64(FusionParams.init(rng, "attention", 8))
        p.wo.data[:] = 0.0
        out = fuse(f_im, f_fl, p)
        assert np.array_equal(out.data, f_im.data)

    def test_attention_rows_sum_to_one(self, rng, feats):
        f_im, f_fl = feats
        p = float64(FusionParams.init(rng, "attention", 8))
        m = attention_map(f_im, f_fl, p)
        np.testing.assert_allclose(m.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_map_shape_cv_by_ck(self, rng, feats):
        f_im, f_fl = feats
        p = float64(FusionParams.init(rng, "attention", 8))
        m = attention_map(f_im, f_fl, p)
        assert m.shape == (1, p.wv.data.shape[0], p.wk.data.shape[0])

    def test_spatial_permutation_equivariance(self, rng, feats):
        f_im, f_fl = feats
        p = float64(FusionParams.init(rng, "attention", 8))
        perm = rng.permutation(16)

        def permute(t):
            flat = t.data.reshape(1, 8, 16)[..., perm]
            return Tensor(flat.reshape(1, 8, 4, 4))

        out = fuse(f_im, f_fl, p).data.reshape(1, 8, 16)[..., perm]
        out_p = fuse(permute(f_im), permute(f_fl), p).data.reshape(1, 8, 16)
        np.testing.assert_allclose(out_p, out, atol=1e-10)

    def test_gradient_reaches_all_four_projections(self, rng, feats):
        f_im, f_fl = feats
        p = float64(FusionParams.init(rng, "attention", 8))
        # the output projection initializes at zero (identity start); give it
        # mass so the architectural gradient path to q/k/v is observable
        p.wo.data = rng.standard_normal(p.wo.data.shape)
        with Tape() as tape:
            loss = ad.sumsq(fuse(f_im, f_fl, p))
        tape.backward(loss, [p.wq, p.wk, p.wv, p.wo])
        for name in ("wq", "wk", "wv", "wo"):
            g = getattr(p, name).grad
            assert g is not None and np.any(g != 0.0), name

    def test_fresh_attention_block_is_identity(self, rng, feats):
        f_im, f_fl = feats
        p = float64(FusionParams.init(rng, "attention", 8))
        assert np.array_equal(fuse(f_im, f_fl, p).data, f_im.data)

    def test_default_bottleneck_channels(self, rng):
        p = float64(FusionParams.init(rng, "attention", 64))
        assert p.wq.data.shape[0] == 32
        p4 = float64(FusionParams.init(rng, "attention", 6))
        assert p4.wq.data.shape[0] == 4
        assert p.wq.data.shape[0] == p.wk.data.shape[0]  # C_q == C_k


class TestModes:
    def test_shape_preserved_all_modes(self, rng, feats):
        f_im, f_fl = feats
        for mode in ("none", "concat", "attention"):
            p = float64(FusionParams.init(rng, mode, 8))
            assert fuse(f_im, f_fl, p).shape == f_im.shape

    def test_none_is_bit_identical_bypass(self, rng, feats):
        f_im, f_fl = feats
        p = float64(FusionParams.init(rng, "none", 8))
        assert fuse(f_im, f_fl, p) is f_im

    @pytest.mark.parametrize("mode", ["concat", "attention"])
    def test_flow_mode_needs_flow_features(self, rng, feats, mode):
        p = float64(FusionParams.init(rng, mode, 8))
        with pytest.raises(ValueError, match=f"fusion mode '{mode}' needs flow features"):
            fuse(feats[0], None, p)

    def test_concat_applies_projection(self, rng, feats):
        f_im, f_fl = feats
        p = float64(FusionParams.init(rng, "concat", 8))
        out = fuse(f_im, f_fl, p)
        stacked = np.concatenate([f_im.data, f_fl.data], axis=1)
        ref = np.einsum("oc,nchw->nohw", p.wc.data[:, :, 0, 0], stacked)
        np.testing.assert_allclose(out.data, ref, atol=1e-12)

    def test_unknown_mode_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown fusion mode"):
            FusionParams.init(rng, "blend", 8)

    def test_shape_mismatch_rejected(self, rng, feats):
        f_im, _ = feats
        p = float64(FusionParams.init(rng, "concat", 8))
        with pytest.raises(ValueError, match="concat: dimension 2 mismatch"):
            fuse(f_im, Tensor(np.zeros((1, 8, 2, 2))), p)

    def test_channel_mismatch_rejected(self, rng):
        p = float64(FusionParams.init(rng, "attention", 16))
        x = Tensor(np.zeros((1, 8, 4, 4)))
        with pytest.raises(ValueError,
                           match="conv2d: input has 8 channels but kernel expects 16"):
            fuse(x, x, p)


class TestOutputMaps:
    @pytest.mark.parametrize("mode, wo_zero", [("none", False), ("concat", False),
                                               ("attention", True), ("attention", False)])
    def test_maps_rebuild_fuse_at_every_pixel(self, rng, mode, wo_zero):
        # on a batch of one the batch-mean attention map is the sample's own,
        # so the fused output is the sum of the mapped branch outputs
        f_im = Tensor(rng.standard_normal((1, 8, 4, 4)))
        f_fl = Tensor(rng.standard_normal((1, 8, 4, 4)))
        p = float64(FusionParams.init(rng, mode, 8))
        if mode == "attention" and not wo_zero:          # a fresh wo is zero
            p.wo.data = rng.standard_normal(p.wo.data.shape)
        maps = output_maps(p, lambda: (Tensor(f_im.data[None]), Tensor(f_fl.data[None])))
        assert len(maps) == (1 if mode == "none" else 2)
        # concat's half of wc, or attention's map of the one object
        mapped = [f.data[0] if t is None
                  else np.einsum("oc,chw->ohw", t.reshape(8, 8), f.data[0])
                  for f, t in zip((f_im, f_fl), maps)]
        np.testing.assert_allclose(fuse(f_im, f_fl, p).data[0], sum(mapped), atol=1e-12)
        if wo_zero:
            assert not np.any(maps[1])
