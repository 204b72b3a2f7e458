import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flowvos.flow_embed import ROTATION, embed_flow


def field(u, v):
    return np.array([[[float(u)]], [[float(v)]]])


class TestRotationMatrix:
    def test_columns_1_2_orthonormal(self):
        c1, c2 = ROTATION[:, 0], ROTATION[:, 1]
        assert abs(np.linalg.norm(c1) - 1.0) < 1e-12
        assert abs(np.linalg.norm(c2) - 1.0) < 1e-12
        assert abs(c1 @ c2) < 1e-12

    def test_column_3_norm_sqrt2(self):
        assert abs(np.linalg.norm(ROTATION[:, 2]) - np.sqrt(2.0)) < 1e-12

    def test_positive_orientation(self):
        q = ROTATION @ np.diag([1.0, 1.0, 1.0 / np.sqrt(2.0)])
        assert abs(np.linalg.det(q) - 1.0) < 1e-12
        assert abs(np.linalg.det(ROTATION) - np.sqrt(2.0)) < 1e-12


class TestEmbedFlow:
    def test_zero_flow_maps_to_origin(self):
        out = embed_flow(field(0, 0))
        np.testing.assert_array_equal(out, np.zeros((3, 1, 1)))

    def test_unit_horizontal(self):
        out = embed_flow(field(1, 0))[:, 0, 0]
        ref = ROTATION @ np.array([1.0, 0.0, 1.0])
        np.testing.assert_allclose(out, ref, atol=1e-12)
        np.testing.assert_allclose(out, [1.6052, 0.6052, 0.2391], atol=1.5e-4)
        assert abs(np.linalg.norm(out) - np.sqrt(3.0)) < 1e-9

    def test_down_two(self):
        out = embed_flow(field(0, -2))[:, 0, 0]
        ref = ROTATION @ np.array([0.0, -2.0, 2.0])
        np.testing.assert_allclose(out, ref, atol=1e-12)
        np.testing.assert_allclose(out, [2.0556, 0.0556, 2.7878], atol=1.5e-4)
        assert abs(np.linalg.norm(out) - 2.0 * np.sqrt(3.0)) < 1e-9

    def test_linearity_doubling(self, rng):
        uv = rng.standard_normal((2, 5, 5)) * 10.0
        one = embed_flow(uv)
        two = embed_flow(2.0 * uv)
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-12, atol=1e-12)

    @given(u=st.floats(-100, 100), v=st.floats(-100, 100))
    @settings(max_examples=300, deadline=None)
    def test_nonnegativity_and_norm_law(self, u, v):
        out = embed_flow(field(u, v))[:, 0, 0]
        m = np.hypot(u, v)
        assert out.min() >= -1e-9
        assert abs(np.linalg.norm(out) - np.sqrt(3.0) * m) <= 1e-9 * max(1.0, m)
