import struct

import numpy as np
import pytest

from flowvos.autodiff import DTYPE
from flowvos.checkpoint import CheckpointError, load_named, save_named
from flowvos.model import Model


class TestCheckpointContainer:
    def test_roundtrip(self, tmp_path, rng):
        items = {"a.w": rng.standard_normal((3, 4)),
                 "b": rng.standard_normal(7),
                 "scalar": np.array(2.5)}
        p = tmp_path / "ck.bin"
        save_named(p, items)
        back = load_named(p)
        assert set(back) == set(items)
        for k in items:
            np.testing.assert_array_equal(back[k], items[k])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="bad magic"):
            load_named(p)

    def test_truncated(self, tmp_path, rng):
        p = tmp_path / "cut.bin"
        save_named(p, {"x": rng.standard_normal(100)})
        p.write_bytes(p.read_bytes()[:-50])
        with pytest.raises(CheckpointError, match="truncated"):
            load_named(p)

    def test_every_truncation_is_a_checkpoint_error(self, tmp_path, rng):
        p = tmp_path / "ck.bin"
        save_named(p, {"a.w": rng.standard_normal((2, 3)), "scalar": np.array(1.5)})
        blob = p.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(CheckpointError):
                load_named(cut)

    def test_failed_save_keeps_previous_file(self, tmp_path, rng):
        p = tmp_path / "ck.bin"
        old = {"a": rng.standard_normal(3)}
        save_named(p, old)
        with pytest.raises(UnicodeEncodeError):
            save_named(p, {"a": np.zeros(3), "\udc80": np.zeros(2)})
        np.testing.assert_array_equal(load_named(p)["a"], old["a"])
        assert [f.name for f in tmp_path.iterdir()] == ["ck.bin"]

    @pytest.mark.parametrize("entry, match", [
        (struct.pack("<H", 2) + b"\xff\xfe", "not UTF-8"),
        (struct.pack("<H", 1) + b"x" + struct.pack("<Bq", 1, -1), "negative extent"),
        (struct.pack("<H", 1) + b"x" + struct.pack("<B2q", 2, 2 ** 62, 0), "too large"),
        (struct.pack("<H", 1) + b"x" + struct.pack("<B3q", 3, 2 ** 40, 2 ** 40, 0),
         "too large"),
    ], ids=["non-utf8-name", "negative-extent", "empty-but-huge", "empty-2d-huge"])
    def test_malformed_entry_is_a_checkpoint_error(self, tmp_path, entry, match):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"FVOS" + struct.pack("<II", 1, 1) + entry + b"\x00" * 16)
        with pytest.raises(CheckpointError, match=match):
            load_named(p)


class TestModel:
    def test_seeded_init_deterministic(self):
        a = Model(fusion_mode="attention", seed=7)
        b = Model(fusion_mode="attention", seed=7)
        for (na, ta), (nb, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_different_seeds_differ(self):
        a = Model(seed=1)
        b = Model(seed=2)
        diffs = [not np.array_equal(ta.data, tb.data)
                 for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors())
                 if ta.data.size > 1]
        assert any(diffs)

    def test_save_load_roundtrip(self, tmp_path):
        m = Model(fusion_mode="concat", seed=3)
        p = tmp_path / "model.ckpt"
        m.save(p)
        back = Model.load(p)
        assert back.fusion_mode == "concat"
        names_a = dict(m.named_tensors())
        names_b = dict(back.named_tensors())
        assert set(names_a) == set(names_b)
        for name in names_a:
            np.testing.assert_array_equal(names_a[name].data, names_b[name].data)

    def test_load_missing_tensor(self, tmp_path):
        m = Model(seed=0)
        p = tmp_path / "model.ckpt"
        items = {name: t.data for name, t in m.named_tensors()}
        items["meta/fusion_mode"] = np.array([2.0])
        del items["decoder.head.w"]
        save_named(p, items)
        with pytest.raises(CheckpointError, match="decoder.head.w"):
            Model.load(p)

    def test_load_rejects_tensor_the_model_does_not_own(self, tmp_path):
        p = tmp_path / "model.ckpt"
        Model(seed=0).save(p)
        items = load_named(p)
        items["label_enc.stage1.w"] = np.zeros((16, 1, 3, 3))
        save_named(p, items)
        with pytest.raises(CheckpointError, match="label_enc.stage1.w"):
            Model.load(p)

    @pytest.mark.parametrize("code", [7.0, -1.0, 1.5])
    def test_load_rejects_a_fusion_mode_code_out_of_range(self, tmp_path, code):
        p = tmp_path / "model.ckpt"
        Model(seed=0).save(p)
        items = load_named(p)
        items["meta/fusion_mode"] = np.array([code])
        save_named(p, items)
        with pytest.raises(CheckpointError, match=r"meta/fusion_mode \[" + str(code)):
            Model.load(p)

    def test_load_rejects_a_tensor_of_the_wrong_shape(self, tmp_path):
        p = tmp_path / "model.ckpt"
        Model(seed=0).save(p)
        items = load_named(p)
        items["backbone_im.stage1.w"] = np.zeros((16, 3, 1, 1))
        save_named(p, items)
        with pytest.raises(CheckpointError,
                           match=r"'backbone_im.stage1.w' has shape \(16, 3, 1, 1\)"):
            Model.load(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_load_rejects_a_non_finite_tensor(self, tmp_path, value):
        p = tmp_path / "model.ckpt"
        Model(seed=0).save(p)
        items = load_named(p)
        items["decoder.head.w"].flat[3] = value
        save_named(p, items)
        with pytest.raises(CheckpointError, match="'decoder.head.w' holds a nan"):
            Model.load(p)

    def test_load_keeps_values_near_the_float32_limit(self, tmp_path):
        p = tmp_path / "model.ckpt"
        Model(seed=0).save(p)
        items = load_named(p)
        items["decoder.head.w"].flat[3] = -3e38
        save_named(p, items)
        loaded = dict(Model.load(p).named_tensors())["decoder.head.w"].data
        assert loaded.dtype == DTYPE and loaded.flat[3] == np.float32(-3e38)

    @pytest.mark.parametrize("value", [1e39, -1e39, 1e300])
    def test_load_rejects_a_value_that_overflows_float32(self, tmp_path, value):
        p = tmp_path / "model.ckpt"
        Model(seed=0).save(p)
        items = load_named(p)
        items["decoder.head.w"].flat[3] = value
        save_named(p, items)
        with pytest.raises(CheckpointError,
                           match="'decoder.head.w' holds a value outside the float32 range"):
            Model.load(p)

    @pytest.mark.parametrize("mode", ["none", "concat", "attention"])
    def test_float32_model_survives_the_float64_payload_bit_for_bit(self, tmp_path, mode):
        m = Model(fusion_mode=mode, seed=5)
        rng = np.random.default_rng(5)
        for _, t in m.named_tensors():        # zero biases and wo included
            t.data = rng.standard_normal(t.shape).astype(DTYPE)
        p = tmp_path / "model.ckpt"
        m.save(p)
        payload = load_named(p)
        back = dict(Model.load(p).named_tensors())
        for name, t in m.named_tensors():
            assert t.data.dtype == back[name].data.dtype == DTYPE
            assert payload[name].dtype == np.float64
            assert back[name].data.tobytes() == t.data.tobytes(), name

    def test_load_skips_unknown_meta_entries(self, tmp_path):
        # checkpoints that also store the architecture's widths still load
        m = Model(fusion_mode="none", seed=4)
        p = tmp_path / "model.ckpt"
        m.save(p)
        items = load_named(p)
        items["meta/label_channels"] = np.array([16.0])
        items["meta/channels"] = np.array([16.0, 32.0, 64.0, 64.0])
        save_named(p, items)
        back = dict(Model.load(p).named_tensors())
        for name, t in m.named_tensors():
            np.testing.assert_array_equal(back[name].data, t.data)

    def test_mode_none_has_no_fusion_tensors(self):
        m = Model(fusion_mode="none", seed=0)
        fusion_names = [n for n, _ in m.named_tensors() if n.startswith("fusion")]
        assert fusion_names == []

    def test_offline_parameters_are_unique(self):
        m = Model(seed=0)
        params = m.offline_parameters()
        assert len({id(p) for p in params}) == len(params)
