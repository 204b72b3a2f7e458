import numpy as np
import pytest

from flowvos import autodiff as ad
from flowvos.autodiff import DTYPE, Tape, Tensor
from flowvos.backbone import FeatureExtractorParams, encode_label, extract, he_conv


@pytest.fixture
def params(rng):
    return FeatureExtractorParams.init(rng)


class TestExtract:
    def test_level3_shape_64(self, params, rng):
        pyr = extract(Tensor(rng.random((1, 3, 64, 64), dtype=DTYPE)), params)
        assert pyr[3].shape == (1, 64, 8, 8)

    def test_pyramid_shape_law(self, params, rng):
        for hw in (32, 64, 96):
            pyr = extract(Tensor(rng.random((2, 3, hw, hw), dtype=DTYPE)), params)
            for k, c in zip((1, 2, 3, 4), (16, 32, 64, 64)):
                assert pyr[k].shape == (2, c, hw // 2 ** k, hw // 2 ** k)

    def test_deterministic(self, params, rng):
        x = rng.random((1, 3, 32, 32), dtype=DTYPE)
        a = extract(Tensor(x), params)
        b = extract(Tensor(x), params)
        for k in range(1, 5):
            assert np.array_equal(a[k].data, b[k].data)

    def test_zero_input_zero_biases_gives_zero_pyramid(self, params):
        pyr = extract(Tensor(np.zeros((1, 3, 32, 32), dtype=DTYPE)), params)
        for k in range(1, 5):
            np.testing.assert_array_equal(pyr[k].data, 0.0)

    def test_wrong_channel_count(self, params, rng):
        with pytest.raises(ValueError,
                           match="conv2d: input has 2 channels but kernel expects 3"):
            extract(Tensor(rng.random((1, 2, 32, 32))), params)

    def test_indivisible_size_rejected(self, params, rng):
        with pytest.raises(ValueError,
                           match="avg_pool2: spatial size 15x16 not divisible by 2"):
            extract(Tensor(rng.random((1, 3, 30, 32), dtype=DTYPE)), params)

    def test_branches_never_share_parameters(self, rng):
        im = FeatureExtractorParams.init(rng)
        fl = FeatureExtractorParams.init(rng)
        im_ids = {id(t) for _, t in im.named_tensors("im")}
        fl_ids = {id(t) for _, t in fl.named_tensors("fl")}
        assert not im_ids & fl_ids

    def test_gradient_reaches_stage_weights(self, params, rng):
        x = Tensor(rng.random((1, 3, 32, 32), dtype=DTYPE))
        with Tape() as tape:
            pyr = extract(x, params)
            loss = ad.sumsq(pyr[4])
        tape.backward(loss, [t for _, t in params.named_tensors("bb")])
        for name, t in params.named_tensors("bb"):
            if name.endswith(".w"):
                assert t.grad is not None and np.any(t.grad != 0.0), name


class TestLabelEncoder:
    def test_target_is_the_pooled_mask(self, rng):
        masks = rng.random((2, 16, 24))
        e = encode_label(Tensor(masks))
        for k in range(2):
            for y in range(2):
                for x in range(3):
                    ref = masks[k, 8 * y:8 * y + 8, 8 * x:8 * x + 8].mean()
                    np.testing.assert_allclose(e.data[k, 0, 0, y, x], ref, rtol=1e-12)

    def test_output_shape(self):
        assert encode_label(Tensor(np.ones((3, 64, 64)))).shape == (3, 1, 1, 8, 8)

    def test_zero_vs_one_mask_encodings_differ(self):
        e0 = encode_label(Tensor(np.zeros((1, 32, 32))))
        e1 = encode_label(Tensor(np.ones((1, 32, 32))))
        assert np.linalg.norm(e0.data - e1.data) > 0.0

    def test_resolution_mismatch_rejected(self):
        with pytest.raises(ValueError, match="not divisible by 8"):
            encode_label(Tensor(np.zeros((1, 20, 20))))


def test_he_conv_scaling(rng):
    w, b = he_conv(rng, 64, 32, 3)
    assert abs(w.data.std() - np.sqrt(2.0 / (32 * 9))) < 0.01
    np.testing.assert_array_equal(b.data, 0.0)
