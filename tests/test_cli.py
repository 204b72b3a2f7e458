import dataclasses
import importlib.util
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowvos
from flowvos.checkpoint import load_named, save_named
from flowvos.cli import main
from flowvos.config import RunConfig, parse_config_file
from flowvos.data_io import load_sequence, write_pgm
from flowvos.model import Model

FAST_SET = ["--set", "learner.outer_iters_init=2",
            "--set", "learner.outer_iters_update=1",
            "--set", "learner.cg_iters=5",
            "--set", "train.aug_copies=1",
            "--set", "train.epochs=1"]


def synth(out, seed=5, frames=5, count=1, size=32, extra=()):
    args = ["synth", "--out", str(out), "--frames", str(frames), "--objects",
            "2", "--seed", str(seed), "--width", str(size), "--height",
            str(size), "--count", str(count)]
    assert main(args + list(extra)) == 0


class TestSynth:
    def test_writes_loadable_sequence(self, tmp_path, capsys):
        synth(tmp_path / "seq")
        seq = load_sequence(tmp_path / "seq")
        assert len(seq) == 5
        assert "wrote sequence" in capsys.readouterr().out

    def test_suite_generation(self, tmp_path):
        synth(tmp_path / "suite", count=3, extra=["--distractors"])
        assert sorted(p.name for p in (tmp_path / "suite").iterdir()) == \
            ["seq_000", "seq_001", "seq_002"]

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--frames", "0"), ("--objects", "0"), ("--width", "0"),
        ("--height", "0"), ("--count", "0")])
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        args = {"--out": str(tmp_path / "s"), "--seed": "1", flag: value}
        assert main(["synth", *(x for kv in args.items() for x in kv)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag} must be >= ")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("count", ["1", "2"])
    def test_more_objects_than_8_bit_labels_is_usage_error(self, tmp_path, capsys, count):
        assert main(["synth", "--out", str(tmp_path / "s"), "--seed", "1",
                     "--objects", "256", "--count", count]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --objects must be <= 255, got 256"]
        assert not (tmp_path / "s").exists()


class TestConfigCommand:
    def test_defaults_roundtrip(self, tmp_path, capsys):
        assert main(["config"]) == 0
        text = capsys.readouterr().out.replace("REQUIRED", "1")
        path = tmp_path / "run.cfg"
        path.write_text(text)
        values = parse_config_file(path)
        assert values["learner.cg_iters"] == "3"
        assert values["seed"] == "1"


KEY_TYPES = {f.name.replace("_", ".", 1): f.type for f in dataclasses.fields(RunConfig)}
# one out-of-range value per key, then nan for every float key
OUT_OF_RANGE = [
    ("seed", "-1"), ("flow.max_displacement", "0"),
    ("learner.outer_iters_init", "0"), ("learner.outer_iters_update", "0"),
    ("learner.cg_iters", "0"), ("learner.damping", "-1"), ("learner.reg_lambda", "-1"),
    ("learner.update_every", "0"), ("learner.update_conf", "1.5"),
    ("learner.buffer_capacity", "1"), ("learner.buffer_decay", "0"),
    ("learner.pinned_weight", "-1"), ("train.epochs", "0"), ("train.lr", "-1"),
    ("train.crop", "0"), ("train.aug_copies", "-1"), ("train.samples_per_seq", "0"),
] + [(key, "nan") for key, kind in KEY_TYPES.items() if kind is float]


class TestConfigRejection:
    def test_every_key_has_a_case(self):
        assert {key for key, _ in OUT_OF_RANGE} == set(KEY_TYPES)

    @pytest.mark.parametrize("command", ["train", "run"])
    @pytest.mark.parametrize("key, value", OUT_OF_RANGE)
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, command,
                                               key, value):
        # the paths do not exist: a config that got through would exit 2
        paths = {"train": ["--data", str(tmp_path / "none"), "--out",
                           str(tmp_path / "c")],
                 "run": ["--seq", str(tmp_path / "none"), "--ckpt",
                         str(tmp_path / "none.ckpt"), "--out", str(tmp_path / "o")]}
        setting = (["--seed", value] if key == "seed"
                   else ["--seed", "1", "--set", f"{key}={value}"])
        assert main([command] + paths[command] + setting) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]

    def test_unknown_fusion_mode_is_usage_error(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "none"), "--out",
                     str(tmp_path / "c"), "--seed", "1", "--mode", "blend"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: argument --mode")

    def test_fusion_mode_is_no_config_key(self, tmp_path, capsys):
        # the checkpoint carries the mode; a config cannot name one
        assert main(["run", "--seq", str(tmp_path / "none"), "--ckpt",
                     str(tmp_path / "none.ckpt"), "--out", str(tmp_path / "o"),
                     "--seed", "1", "--set", "fusion.mode=none"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown config key 'fusion.mode'"]


class TestTrainRunEval:
    @pytest.fixture
    def trained(self, tmp_path):
        synth(tmp_path / "data", seed=5, frames=5)
        ckpt = tmp_path / "model.ckpt"
        code = main(["train", "--data", str(tmp_path / "data"), "--out",
                     str(ckpt), "--seed", "5", "--mode", "none"] + FAST_SET)
        assert code == 0
        return tmp_path, ckpt

    def test_run_emits_one_mask_per_frame(self, trained, capsys):
        tmp_path, ckpt = trained
        out = tmp_path / "pred"
        assert main(["run", "--seq", str(tmp_path / "data"), "--ckpt", str(ckpt),
                     "--out", str(out), "--seed", "5"] + FAST_SET[:-2]) == 0
        masks = sorted(out.glob("*.pgm"))
        assert len(masks) == 5
        timing = (out / "timing.csv").read_text().strip().splitlines()
        assert timing[0] == "frame,seconds,updated"
        assert len(timing) == 6

    def test_trained_model_loads_with_its_mode(self, trained):
        _, ckpt = trained
        assert Model.load(ckpt).fusion_mode == "none"

    def test_eval_identical_dirs_is_perfect(self, trained, capsys):
        tmp_path, _ = trained
        gt = tmp_path / "data" / "masks"
        report = tmp_path / "report.json"
        assert main(["eval", "--pred", str(gt), "--gt", str(gt), "--report",
                     str(report)]) == 0
        assert "J&F 1.0000" in capsys.readouterr().out
        assert report.exists()
        csv = (tmp_path / "report.json.csv").read_text().splitlines()
        assert csv[0] == "sequence,frame,object,J,F"
        # frame 0 (the given annotation) is excluded from scoring
        assert len(csv) == 1 + (5 - 1) * 2

    def test_failed_eval_keeps_the_previous_report(self, trained, monkeypatch):
        tmp_path, _ = trained
        gt = tmp_path / "data" / "masks"
        report = tmp_path / "report.json"
        args = ["eval", "--pred", str(gt), "--gt", str(gt), "--report", str(report)]
        assert main(args) == 0
        before = report.read_bytes()

        def fail(_):
            raise ValueError("report lost")

        # an internal error is no data error: it propagates, and the
        # half-written report never replaces the previous one
        monkeypatch.setattr("flowvos.metrics.MetricsReport.to_json", fail)
        with pytest.raises(ValueError, match="report lost"):
            main(args)
        assert report.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_eval_count_mismatch_is_data_error(self, trained, tmp_path):
        t, _ = trained
        pred = tmp_path / "short"
        pred.mkdir()
        write_pgm(pred / "00000.pgm", np.zeros((32, 32), np.uint8))
        code = main(["eval", "--pred", str(pred), "--gt",
                     str(t / "data" / "masks"), "--report", str(t / "r.json")])
        assert code == 2


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["train", "--data"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        synth(tmp_path / "d", frames=4)
        code = main(["train", "--data", str(tmp_path / "d"), "--out",
                     str(tmp_path / "c"), "--seed", "1", "--set", "bogus.key=1"])
        assert code == 1

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        synth(tmp_path / "d", frames=4)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 1\n# caf\xe9\n")
        code = main(["train", "--data", str(tmp_path / "d"), "--out",
                     str(tmp_path / "c"), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg}: not UTF-8 text (invalid continuation byte)"]

    def test_missing_seed(self, tmp_path):
        synth(tmp_path / "d", frames=4)
        assert main(["train", "--data", str(tmp_path / "d"), "--out",
                     str(tmp_path / "c")] + FAST_SET) == 1

    def test_data_error_missing_dir(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "c"), "--seed", "1"]) == 2

    def test_corrupt_checkpoint_is_data_error(self, tmp_path):
        synth(tmp_path / "d", frames=4)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        assert main(["run", "--seq", str(tmp_path / "d"), "--ckpt", str(bad),
                     "--out", str(tmp_path / "o"), "--seed", "1"]) == 2

    @pytest.mark.parametrize("cut", [6, 14, 40])
    def test_truncated_checkpoint_is_data_error(self, tmp_path, capsys, cut):
        synth(tmp_path / "d", frames=4)
        ckpt = tmp_path / "model.ckpt"
        Model(seed=1).save(ckpt)
        ckpt.write_bytes(ckpt.read_bytes()[:cut])
        capsys.readouterr()
        assert main(["run", "--seq", str(tmp_path / "d"), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "o"), "--seed", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_checkpoint_with_foreign_tensor_is_data_error(self, tmp_path, capsys):
        synth(tmp_path / "d", frames=4)
        ckpt = tmp_path / "model.ckpt"
        Model(seed=1).save(ckpt)
        items = load_named(ckpt)
        items["label_enc.stage1.w"] = np.zeros((16, 1, 3, 3))
        save_named(ckpt, items)
        capsys.readouterr()
        assert main(["run", "--seq", str(tmp_path / "d"), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "o"), "--seed", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "label_enc.stage1.w" in err[0]
        assert err[0].startswith("error:")

    @pytest.mark.parametrize("code", [7.0, -1.0, 1.5])
    def test_checkpoint_with_bad_fusion_mode_is_data_error(self, tmp_path, capsys,
                                                           code):
        synth(tmp_path / "d", frames=4)
        ckpt = tmp_path / "model.ckpt"
        Model(seed=1).save(ckpt)
        items = load_named(ckpt)
        items["meta/fusion_mode"] = np.array([code])
        save_named(ckpt, items)
        capsys.readouterr()
        assert main(["run", "--seq", str(tmp_path / "d"), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "o"), "--seed", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "meta/fusion_mode" in err[0]
        assert err[0].startswith("error:")

    def test_checkpoint_tensor_with_wrong_shape_is_data_error(self, tmp_path, capsys):
        synth(tmp_path / "d", frames=4)
        ckpt = tmp_path / "model.ckpt"
        Model(seed=1).save(ckpt)
        items = load_named(ckpt)
        items["decoder.head.w"] = np.zeros((1, 8, 1, 1))
        save_named(ckpt, items)
        capsys.readouterr()
        assert main(["run", "--seq", str(tmp_path / "d"), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "o"), "--seed", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "'decoder.head.w' has shape" in err[0]
        assert err[0].startswith("error:")

    def test_meta_with_non_integer_width_is_data_error(self, tmp_path, capsys):
        synth(tmp_path / "d", frames=4)
        ckpt = tmp_path / "model.ckpt"
        Model(seed=1).save(ckpt)
        meta = tmp_path / "d" / "meta"
        meta.write_text(meta.read_text().replace("width=32", "width=3x2"))
        capsys.readouterr()
        assert main(["run", "--seq", str(tmp_path / "d"), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "o"), "--seed", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {meta}:2: width must be an integer, got '3x2'"]

    def test_meta_with_negative_frames_is_data_error(self, tmp_path, capsys):
        synth(tmp_path / "d", frames=4)
        ckpt = tmp_path / "model.ckpt"
        Model(seed=1).save(ckpt)
        meta = tmp_path / "d" / "meta"
        meta.write_text(meta.read_text().replace("frames=4", "frames=-2"))
        capsys.readouterr()
        assert main(["run", "--seq", str(tmp_path / "d"), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "o"), "--seed", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {meta}:4: frames must be >= 1, got -2"]

    @pytest.mark.parametrize("w, h", [(2 ** 31 - 1, 2 ** 31 - 1), (60000, 60000)])
    def test_flo_with_extents_beyond_the_file_is_data_error(self, tmp_path, capsys,
                                                           w, h):
        synth(tmp_path / "d", frames=4)
        ckpt = tmp_path / "model.ckpt"
        Model(seed=1).save(ckpt)
        flo = tmp_path / "d" / "flows" / "00002.flo"
        raw = flo.read_bytes()
        flo.write_bytes(raw[:4] + struct.pack("<ii", w, h) + raw[12:])
        capsys.readouterr()
        assert main(["run", "--seq", str(tmp_path / "d"), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "o"), "--seed", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "00002.flo" in err[0]
        assert err[0].startswith("error:")


class TestBadDataIsExitTwo:
    """Input data that the program cannot segment or score ends in exit 2
    and one error line, never in a traceback."""

    @staticmethod
    def run(tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        if not ckpt.exists():
            Model(seed=1).save(ckpt)
        capsys.readouterr()
        code = main(["run", "--seq", str(tmp_path / "d"), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "o"), "--seed", "1"])
        return code, capsys.readouterr().err.splitlines()

    def test_one_frame_sequence(self, tmp_path, capsys):
        synth(tmp_path / "d", frames=1)
        assert self.run(tmp_path, capsys) == (
            2, ["error: inference needs at least two frames"])

    def test_first_mask_without_an_object(self, tmp_path, capsys):
        synth(tmp_path / "d", frames=3)
        write_pgm(tmp_path / "d" / "masks" / "00000.pgm", np.zeros((32, 32), np.uint8))
        assert self.run(tmp_path, capsys) == (2, ["error: annotation contains no objects"])

    def test_nan_in_a_flow_file(self, tmp_path, capsys):
        synth(tmp_path / "d", frames=3)
        flo = tmp_path / "d" / "flows" / "00001.flo"
        raw = bytearray(flo.read_bytes())
        at = 12 + 4 * (2 * (2 * 32 + 3) + 1)        # v at x=3, y=2 of a 32-wide field
        raw[at:at + 4] = struct.pack("<f", float("nan"))
        flo.write_bytes(bytes(raw))
        assert self.run(tmp_path, capsys) == (
            2, [f"error: {flo}: non-finite flow v component at pixel (x=3, y=2)"])

    def test_nan_in_a_checkpoint_tensor(self, tmp_path, capsys):
        synth(tmp_path / "d", frames=3)
        ckpt = tmp_path / "model.ckpt"
        Model(seed=1).save(ckpt)
        items = load_named(ckpt)
        items["fusion_tm.wq"].flat[0] = np.nan
        save_named(ckpt, items)
        assert self.run(tmp_path, capsys) == (
            2, [f"error: {ckpt}: tensor 'fusion_tm.wq' holds a nan or infinite value"])

    def test_checkpoint_value_beyond_float32(self, tmp_path, capsys):
        synth(tmp_path / "d", frames=3)
        ckpt = tmp_path / "model.ckpt"
        Model(seed=1).save(ckpt)
        items = load_named(ckpt)
        items["fusion_tm.wq"].flat[0] = 1e39
        save_named(ckpt, items)
        assert self.run(tmp_path, capsys) == (
            2, [f"error: {ckpt}: tensor 'fusion_tm.wq' holds a value outside the "
                "float32 range"])

    def test_meta_that_is_not_utf8(self, tmp_path, capsys):
        synth(tmp_path / "d", frames=3)
        meta = tmp_path / "d" / "meta"
        meta.write_bytes(meta.read_bytes().replace(b"width", b"wi\xe6th"))
        assert self.run(tmp_path, capsys) == (
            2, [f"error: {meta}: not UTF-8 text (invalid continuation byte)"])

    def test_eval_of_masks_with_different_sizes(self, tmp_path, capsys):
        for name, shape in (("pred", (32, 32)), ("gt", (32, 48))):
            (tmp_path / name).mkdir()
            for t in range(2):
                write_pgm(tmp_path / name / f"{t:05d}.pgm", np.zeros(shape, np.uint8))
        code = main(["eval", "--pred", str(tmp_path / "pred"), "--gt",
                     str(tmp_path / "gt"), "--report", str(tmp_path / "r.json")])
        pred, gt = tmp_path / "pred" / "00000.pgm", tmp_path / "gt" / "00000.pgm"
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {pred} is 32x32 but {gt} is 48x32"]

    @staticmethod
    def evaluate(tmp_path, capsys, gt_masks):
        for name in ("pred", "gt"):
            (tmp_path / name).mkdir()
            for t, mask in enumerate(gt_masks):
                write_pgm(tmp_path / name / f"{t:05d}.pgm", mask)
        capsys.readouterr()
        code = main(["eval", "--pred", str(tmp_path / "pred"), "--gt",
                     str(tmp_path / "gt"), "--report", str(tmp_path / "r.json")])
        return code, capsys.readouterr().err.splitlines()

    def test_eval_of_a_single_mask(self, tmp_path, capsys):
        one = np.zeros((16, 16), np.uint8)
        one[4:8, 4:8] = 1
        assert self.evaluate(tmp_path, capsys, [one]) == (
            2, [f"error: {tmp_path / 'gt'}: scoring needs at least two masks"])
        assert not (tmp_path / "r.json").exists()

    def test_eval_of_a_first_mask_without_an_object(self, tmp_path, capsys):
        masks = [np.zeros((16, 16), np.uint8), np.ones((16, 16), np.uint8)]
        first = tmp_path / "gt" / "00000.pgm"
        assert self.evaluate(tmp_path, capsys, masks) == (
            2, [f"error: {first}: first mask contains no objects"])
        assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command, where, kind", [
    ("run", "--ckpt", "DIR"), ("run", "--config", "DIR"), ("run", "--out", "FILE"),
    ("eval", "--report", "DIR"), ("train", "--out", "DIR"),
    ("run", "meta", "DIR"), ("run", "frames/00001.ppm", "DIR"),
    ("run", "flows/00001.flo", "DIR"), ("run", "masks/00001.pgm", "DIR"),
    ("train", "--out", "NODIR/x.ckpt"), ("train", "--out", "FILE/x.ckpt"),
    ("eval", "--report", "NODIR/r.json"), ("ablate", "--out", "DIR"),
    ("run", "--out", "FILE/x")])
def test_a_path_of_the_wrong_kind_is_a_data_error(tmp_path, capsys, monkeypatch,
                                                  command, where, kind):
    """A directory where a file belongs, a file where a directory belongs, or
    an output path whose directory does not exist, as a flag's value or
    inside the sequence, ends in exit 2 and one error line, never in a
    traceback.  The command writes nothing: ``train``, ``eval``, ``ablate``
    and ``run`` check their output paths before they read any data."""
    seq = tmp_path / "data" / "seq"
    synth(seq, frames=4, size=16)
    Model(seed=1).save(tmp_path / "model.ckpt")
    (tmp_path / "DIR").mkdir()
    (tmp_path / "FILE").write_text("")
    argv = {
        "run": ["run", "--seq", str(seq), "--ckpt", str(tmp_path / "model.ckpt"),
                "--out", str(tmp_path / "out"), "--seed", "1"],
        "eval": ["eval", "--pred", str(seq / "masks"), "--gt", str(seq / "masks"),
                 "--report", str(tmp_path / "report.json")],
        "train": ["train", "--data", str(tmp_path / "data"), "--out",
                  str(tmp_path / "trained.ckpt"), "--seed", "1"] + FAST_SET,
        "ablate": ["ablate", "--data", str(tmp_path / "data"), "--out",
                   str(tmp_path / "ablation.txt"), "--seed", "1"] + FAST_SET,
    }[command]
    if not where.startswith("--"):
        (seq / where).unlink()
        (seq / where).mkdir()
    elif where in argv:
        argv[argv.index(where) + 1] = str(tmp_path / kind)
    else:
        argv += [where, str(tmp_path / kind)]

    if where == "--out" and command == "run":

        def load(path):
            raise AssertionError("run read its checkpoint before checking --out")

        monkeypatch.setattr(Model, "load", load)

    def tree():
        return {p: None if p.is_dir() else p.read_bytes() for p in tmp_path.rglob("*")}

    before = tree()
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert tree() == before


@pytest.mark.parametrize("damage", ["weight 1e20", "flow 5.5e19"])
def test_float32_overflow_is_a_numerical_failure(tmp_path, capsys, damage):
    """Finite inputs too large for float32 arithmetic end in exit 3 and one
    error line, not in runtime warnings and a result made of inf and nan."""
    synth(tmp_path / "d", frames=3)
    if damage == "weight 1e20":
        ckpt = tmp_path / "model.ckpt"
        Model(seed=1).save(ckpt)
        items = load_named(ckpt)
        items["backbone_im.stage1.w"].flat[0] = 1e20
        save_named(ckpt, items)
    else:
        flo = tmp_path / "d" / "flows" / "00001.flo"
        raw = bytearray(flo.read_bytes())
        raw[12:16] = struct.pack("<f", 5.5e19)       # u at pixel (0, 0)
        flo.write_bytes(bytes(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = TestBadDataIsExitTwo.run(tmp_path, capsys)
    assert code == 3 and caught == []
    assert len(err) == 1 and err[0].startswith("error: ")


def _load_corrupt_sweep():
    path = Path(__file__).resolve().parents[1] / "scripts" / "corrupt_sweep.py"
    spec = importlib.util.spec_from_file_location("corrupt_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corrupt_sweep = _load_corrupt_sweep()


@pytest.fixture(scope="module")
def corruptible(tmp_path_factory):
    """The corrupt-input sweep's inputs, and the CLI runs that read each file."""
    root = tmp_path_factory.mktemp("corruptible")
    return root, corrupt_sweep.setup(root)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_truncated_or_bit_flipped_file_keeps_the_exit_code_contract(corruptible,
                                                                    data):
    """One damage of the corrupt-input sweep (``scripts/corrupt_sweep.py``),
    judged by the sweep's contract: a warning, or any stderr line on exit 0,
    breaks it too."""
    root, readers = corruptible
    rel = data.draw(st.sampled_from(corrupt_sweep.FILES), label="file")
    path = root / rel
    blob = path.read_bytes()
    offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        bad = blob[:offset]
    else:
        bad = corrupt_sweep.flip(blob, offset, data.draw(st.integers(0, 7), label="bit"))
    path.write_bytes(bad)
    try:
        for argv in readers[rel]:
            code, lines = corrupt_sweep.run_cli(argv)
            assert not corrupt_sweep.broken(code, lines), (argv[0], code, lines)
    finally:
        path.write_bytes(blob)


class TestAblate:
    def test_three_rows_and_reproducible_csv(self, tmp_path, capsys):
        synth(tmp_path / "suite", seed=11, frames=4, count=2,
              extra=["--distractors"])
        args = ["ablate", "--data", str(tmp_path / "suite"), "--seed", "11"] \
            + FAST_SET
        assert main(args + ["--out", str(tmp_path / "rep1.txt")]) == 0
        assert main(args + ["--out", str(tmp_path / "rep2.txt")]) == 0
        csv1 = (tmp_path / "rep1.txt.csv").read_bytes()
        csv2 = (tmp_path / "rep2.txt.csv").read_bytes()
        assert csv1 == csv2
        lines = csv1.decode().strip().splitlines()
        assert lines[0] == "mode,J,F,J&F"
        assert [ln.split(",")[0] for ln in lines[1:]] == \
            ["Baseline", "Concatenated", "Ours"]

    @pytest.mark.parametrize("split", [False, True], ids=["one-suite", "train-eval"])
    def test_each_sequence_is_loaded_once(self, tmp_path, monkeypatch, split):
        loaded = []

        def counted(path):
            loaded.append(Path(path))
            return load_sequence(path)

        def scored(mode, train_seqs, eval_seqs, cfg):
            return SimpleNamespace(mean_j=0.5, mean_f=0.5, mean_jf=0.5)

        monkeypatch.setattr("flowvos.cli.load_sequence", counted)
        monkeypatch.setattr("flowvos.cli._ablate_one", scored)
        suites = ["train", "eval"] if split else ["."]
        for name in suites:
            synth(tmp_path / "data" / name, seed=11, frames=2, count=2)
        assert main(["ablate", "--data", str(tmp_path / "data"), "--seed", "11",
                     "--out", str(tmp_path / "rep.txt")]) == 0
        assert sorted(loaded) == sorted(tmp_path / "data" / name / f"seq_{i:03d}"
                                        for name in suites for i in range(2))

    @pytest.mark.parametrize("fault", ["one frame", "no object"])
    def test_held_out_sequences_are_checked_before_any_training(self, tmp_path, capsys,
                                                                monkeypatch, fault):
        def no_training(*args, **kwargs):
            raise AssertionError("ablate trained on a suite it cannot evaluate")

        monkeypatch.setattr("flowvos.cli.train_offline", no_training)
        synth(tmp_path / "suite", seed=11, frames=1 if fault == "one frame" else 3, count=2)
        if fault == "no object":
            seq = tmp_path / "suite" / "seq_001"
            write_pgm(seq / "masks" / "00000.pgm", np.zeros_like(load_sequence(seq).masks[0]))
        capsys.readouterr()
        code = main(["ablate", "--data", str(tmp_path / "suite"), "--seed", "11", "--out",
                     str(tmp_path / "rep.txt")] + FAST_SET)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not (tmp_path / "rep.txt").exists()


def test_console_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(flowvos.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "flowvos.cli", "synth", "--out",
         str(tmp_path / "s"), "--frames", "3", "--objects", "1", "--seed", "2",
         "--width", "32", "--height", "32"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "s" / "meta").exists()


def test_python_dash_m_flowvos_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(flowvos.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "flowvos", "config"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "learner.cg_iters" in proc.stdout
