import tracemalloc

import numpy as np
import pytest

from flowvos import autodiff as ad
from flowvos import pipeline
from flowvos.autodiff import DTYPE, Tensor
from flowvos.config import ConfigError, make_config
from flowvos.data_io import (DataFormatError, ShapeSpec, SynthScene, generate_synthetic,
                             load_sequence, random_scene)
from flowvos.model import Model
from flowvos.pipeline import (Adam, FrameSet, TrainingSample, affine_frameset,
                              augment_frameset, balanced_bce_with_logits,
                              flip_frameset, frame_sets, infer_sequence,
                              train_offline, _draw_sample, _sample_loss,
                              _fit_reference)

from conftest import TapGathers


def tiny_scene(frames=6, size=32, two_objects=False, velocity=(2, 0), seed=3):
    shapes = [ShapeSpec("rect", (9, 9), (0.9, 0.7, 0.3), start=(10, 12),
                        velocity=velocity, textured=False)]
    if two_objects:
        shapes.append(ShapeSpec("disk", (4,), (0.3, 0.6, 0.9), start=(22, 20),
                                velocity=(-velocity[0], velocity[1]),
                                textured=False))
    return SynthScene(width=size, height=size, frames=frames, seed=seed,
                      shapes=shapes, background="noise")


@pytest.fixture
def tiny_seq(tmp_path):
    generate_synthetic(tiny_scene(two_objects=True), tmp_path / "seq")
    return load_sequence(tmp_path / "seq")


def base_cfg(**over):
    raw = {"seed": "7", "learner.outer_iters_init": "2",
           "learner.outer_iters_update": "1", "learner.cg_iters": "5",
           "train.aug_copies": "1"}
    raw.update({k: str(v) for k, v in over.items()})
    return make_config(raw)


class TestFrameSets:
    def test_count_and_indices(self, tiny_seq):
        sets = frame_sets(tiny_seq)
        assert len(sets) == 6
        assert all(fs.image is im for fs, im in zip(sets, tiny_seq.images))
        assert sets[3].flow is tiny_seq.flows[3]


class TestAugmentation:
    def test_flip_is_involution(self, tiny_seq):
        fs = frame_sets(tiny_seq)[1]
        back = flip_frameset(flip_frameset(fs))
        np.testing.assert_array_equal(back.image, fs.image)
        np.testing.assert_array_equal(back.flow, fs.flow)
        np.testing.assert_array_equal(back.mask, fs.mask)

    def test_flip_negates_horizontal_flow(self, tiny_seq):
        fs = frame_sets(tiny_seq)[1]
        flipped = flip_frameset(fs)
        np.testing.assert_array_equal(flipped.flow[0], -fs.flow[0][:, ::-1])
        np.testing.assert_array_equal(flipped.flow[1], fs.flow[1][:, ::-1])

    def test_affine_keeps_label_values(self, tiny_seq, rng):
        fs = frame_sets(tiny_seq)[1]
        out = affine_frameset(fs, rng)
        assert set(np.unique(out.mask)) <= set(np.unique(fs.mask))
        assert out.image.shape == fs.image.shape

    def test_affine_rotates_flow_vectors(self, tiny_seq):
        fs = frame_sets(tiny_seq)[1]

        class FixedRng:
            def __init__(self):
                self.calls = 0

            def uniform(self, lo, hi, size=None):
                # rotation of +90 degrees, unit scale, zero shift
                self.calls += 1
                if self.calls == 1:
                    return 90.0
                if self.calls == 2:
                    return 1.0
                return np.zeros(2)

        out = affine_frameset(fs, FixedRng(), max_rot_deg=90.0)
        moving = np.abs(fs.flow[0]) > 0.5
        if moving.any():
            u = fs.flow[0][moving].ravel()[0]
            # rotating (u, 0) by +90 degrees gives (0, u)
            assert np.any(np.abs(out.flow[1] - u) < 1e-9)

    def test_augment_deterministic_per_seed(self, tiny_seq):
        fs = frame_sets(tiny_seq)[2]
        a = augment_frameset(fs, np.random.default_rng(5))
        b = augment_frameset(fs, np.random.default_rng(5))
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.flow, b.flow)


class TestAdam:
    def test_minimizes_quadratic(self):
        x = Tensor(np.array([5.0, -3.0]))
        opt = Adam([x], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            with ad.Tape() as tape:
                loss = ad.sumsq(x)
            tape.backward(loss, [x])
            opt.step()
        assert np.linalg.norm(x.data) < 1e-2

    def test_skips_params_without_grad(self):
        x = Tensor(np.ones(2))
        y = Tensor(np.ones(2))
        opt = Adam([x, y], lr=0.5)
        opt.zero_grad()
        with ad.Tape() as tape:
            loss = ad.sumsq(x)
        tape.backward(loss, [x, y])
        opt.step()
        np.testing.assert_array_equal(y.data, np.ones(2))
        assert not np.array_equal(x.data, np.ones(2))


class TestLosses:
    def test_balanced_bce_equal_class_mass(self, rng):
        z = Tensor(np.zeros((1, 10, 10)))
        y = np.zeros((1, 10, 10))
        y[0, :2, :5] = 1.0  # 10% foreground
        val = balanced_bce_with_logits(z, y).item()
        # at zero logits each pixel costs log 2; balanced weights keep that
        assert abs(val - np.log(2.0)) < 1e-12

    def test_sample_loss_averages_three_test_frames(self, tiny_seq, rng):
        cfg = base_cfg()
        model = Model(fusion_mode="none", seed=1)
        sets = frame_sets(tiny_seq)
        sample = TrainingSample(reference=sets[0], tests=sets[1:4], object_id=1)
        tau = _fit_reference(sample, model, cfg, np.random.default_rng(0))
        total = _sample_loss(sample, tau, model, cfg).item()
        singles = []
        for fs in sample.tests:
            one = TrainingSample(reference=sets[0], tests=[fs], object_id=1)
            singles.append(_sample_loss(one, tau, model, cfg).item())
        # the float32 mean of the three losses, summed in order, bit for bit
        s = np.asarray(singles, dtype=DTYPE)
        assert total == (s[0] + s[1] + s[2]) * DTYPE(1.0 / 3.0)


class TestInference:
    def test_output_count_matches_input(self, tiny_seq):
        model = Model(fusion_mode="none", seed=1)
        results = infer_sequence(frame_sets(tiny_seq), tiny_seq.masks[0], model,
                                 base_cfg())
        assert len(results) == len(tiny_seq)

    def test_frame0_is_annotation(self, tiny_seq):
        model = Model(fusion_mode="none", seed=1)
        results = infer_sequence(frame_sets(tiny_seq), tiny_seq.masks[0], model,
                                 base_cfg())
        np.testing.assert_array_equal(results[0].labels, tiny_seq.masks[0])

    def test_needs_two_frames(self, tiny_seq):
        model = Model(fusion_mode="none", seed=1)
        with pytest.raises(DataFormatError, match="two frames"):
            infer_sequence(frame_sets(tiny_seq)[:1], tiny_seq.masks[0], model,
                           base_cfg())

    def test_annotation_size_mismatch(self, tiny_seq):
        model = Model(fusion_mode="none", seed=1)
        with pytest.raises(DataFormatError, match="annotation shape"):
            infer_sequence(frame_sets(tiny_seq), np.zeros((8, 8), np.uint8),
                           model, base_cfg())

    def test_empty_annotation_rejected(self, tiny_seq):
        model = Model(fusion_mode="none", seed=1)
        with pytest.raises(DataFormatError, match="no objects"):
            infer_sequence(frame_sets(tiny_seq),
                           np.zeros_like(tiny_seq.masks[0]), model, base_cfg())

    def test_causality_future_frames_do_not_matter(self, tiny_seq):
        model = Model(fusion_mode="attention", seed=1)
        cfg = base_cfg()
        sets = frame_sets(tiny_seq)
        ref = infer_sequence(sets, tiny_seq.masks[0], model, cfg)
        mutated = list(sets)
        for t in (4, 5):
            fs = mutated[t]
            mutated[t] = FrameSet(image=1.0 - fs.image,
                                  flow=-3.0 * fs.flow,
                                  mask=fs.mask)
        out = infer_sequence(mutated, tiny_seq.masks[0], model, cfg)
        for t in range(4):
            np.testing.assert_array_equal(out[t].labels, ref[t].labels)
            np.testing.assert_array_equal(out[t].probs, ref[t].probs)

    def test_mode_none_invariant_to_zeroed_flow(self, tiny_seq):
        model = Model(fusion_mode="none", seed=1)
        cfg = base_cfg()
        sets = frame_sets(tiny_seq)
        ref = infer_sequence(sets, tiny_seq.masks[0], model, cfg)
        zeroed = [FrameSet(image=fs.image,
                           flow=np.zeros_like(fs.flow),
                           mask=fs.mask) for fs in sets]
        out = infer_sequence(zeroed, tiny_seq.masks[0], model, cfg)
        for a, b in zip(ref, out):
            np.testing.assert_array_equal(a.labels, b.labels)
            np.testing.assert_array_equal(a.probs, b.probs)

    def test_target_model_updates_during_sequence(self, tmp_path, monkeypatch):
        generate_synthetic(tiny_scene(frames=9, two_objects=True),
                           tmp_path / "m")
        seq = load_sequence(tmp_path / "m")
        model = Model(fusion_mode="attention", seed=1)
        initial = {}                     # id -> (filters, copy after first fit)
        fit = pipeline.optimize

        def record(params, batch, fusion, cfg, *, outer_iters):
            res = fit(params, batch, fusion, cfg, outer_iters=outer_iters)
            initial.setdefault(id(params), (params, [t.data.copy()
                                                     for t in params.tensors()]))
            return res

        monkeypatch.setattr(pipeline, "optimize", record)
        infer_sequence(frame_sets(seq), seq.masks[0], model,
                       base_cfg(**{"learner.update_every": 4}))
        assert initial
        for params, after_init in initial.values():
            assert params.objects == 2
            for k in range(params.objects):      # every object's slice moves
                dist = np.linalg.norm(np.concatenate(
                    [(t.data[k] - a[k]).reshape(-1)
                     for t, a in zip(params.tensors(), after_init)]))
                assert dist > 0.0

    def test_fit_schedule(self, tmp_path, monkeypatch):
        """Frame 0 fits every object in one call with the initial budget,
        then one call refits every object with the update budget on each
        cadence frame and on no other (update_conf = 1 turns the confidence
        rule off).  One target-model application serves every object of a
        later frame."""
        generate_synthetic(tiny_scene(frames=9, two_objects=True), tmp_path / "m")
        seq = load_sequence(tmp_path / "m")
        objects = len(np.unique(seq.masks[0])) - 1
        frame, fits, applies = [], [], []    # frame: one entry per frame reached
        pyramids, fit, apply = pipeline._pyramids, pipeline.optimize, pipeline.apply

        def count_frame(*args):
            frame.append(len(frame))
            return pyramids(*args)

        def count_apply(*args):
            applies.append(frame[-1])
            return apply(*args)

        def record(params, batch, fusion, cfg, *, outer_iters):
            fits.append((frame[-1], outer_iters, params.objects))
            return fit(params, batch, fusion, cfg, outer_iters=outer_iters)

        monkeypatch.setattr(pipeline, "_pyramids", count_frame)
        monkeypatch.setattr(pipeline, "optimize", record)
        monkeypatch.setattr(pipeline, "apply", count_apply)
        cfg = base_cfg(**{"learner.update_every": 3, "learner.update_conf": 1})
        results = infer_sequence(frame_sets(seq), seq.masks[0],
                                 Model(fusion_mode="attention", seed=1), cfg)
        init, update = cfg.learner_outer_iters_init, cfg.learner_outer_iters_update
        assert objects == 2 and init != update
        assert fits == [(0, init, objects)] + [(t, update, objects) for t in (3, 6)]
        assert applies == list(range(1, 9))
        assert [r.frame_index for r in results] == list(range(9))
        assert [r.updated for r in results] == [t % 3 == 0 for t in range(9)]

    def test_deterministic_given_seed(self, tiny_seq):
        cfg = base_cfg()
        a = infer_sequence(frame_sets(tiny_seq), tiny_seq.masks[0],
                           Model(fusion_mode="attention", seed=9), cfg)
        b = infer_sequence(frame_sets(tiny_seq), tiny_seq.masks[0],
                           Model(fusion_mode="attention", seed=9), cfg)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.probs, y.probs)


class TestWorkingDtype:
    """The program computes in the working dtype end to end: no array it
    builds along the way promotes a pass to float64."""

    def test_inference_gives_working_dtype_probs_on_every_frame(self, tmp_path):
        scene = random_scene(40, 36, 5, 2, seed=4)          # padded on both axes
        seq = load_sequence(generate_synthetic(scene, tmp_path / "s"))
        results = infer_sequence(frame_sets(seq), seq.masks[0],
                                 Model(fusion_mode="attention", seed=1), base_cfg())
        assert [r.probs.dtype for r in results] == [DTYPE] * len(seq)

    @pytest.mark.parametrize("mode", ["none", "attention"])
    def test_training_keeps_tensors_gradients_and_moments_in_working_dtype(
            self, tiny_seq, monkeypatch, mode):
        adams = []

        class Recorded(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                adams.append(self)

        monkeypatch.setattr(pipeline, "Adam", Recorded)
        model = Model(fusion_mode=mode, seed=1)
        train_offline([tiny_seq], model, base_cfg(), epochs=2)
        params = model.offline_parameters()
        assert {t.data.dtype for t in params} == {np.dtype(DTYPE)}
        assert {t.grad.dtype for t in params} == {np.dtype(DTYPE)}
        (adam,) = adams
        assert {m.dtype for m in adam._m + adam._v} == {np.dtype(DTYPE)}


def _evaluate_offline(sequences, model, cfg, seed=0):
    """Mean decoder loss over a deterministic sample draw, without updates."""
    losses = []
    for i, seq in enumerate(sequences):
        rng = np.random.default_rng([seed, i])
        sample = _draw_sample(seq, rng, cfg)
        tau = _fit_reference(sample, model, cfg, rng)
        losses.append(_sample_loss(sample, tau, model, cfg).item())
    return float(np.mean(losses))


class TestTrainOffline:
    def test_loss_decreases_after_training(self, tmp_path):
        seqs = []
        for i in range(3):
            generate_synthetic(tiny_scene(seed=10 + i, two_objects=True),
                               tmp_path / f"s{i}")
            seqs.append(load_sequence(tmp_path / f"s{i}"))
        cfg = base_cfg(**{"train.epochs": 2, "train.lr": 3e-3})
        model = Model(fusion_mode="attention", seed=3)
        before = _evaluate_offline(seqs, model, cfg, seed=99)
        history = train_offline(seqs, model, cfg)
        after = _evaluate_offline(seqs, model, cfg, seed=99)
        assert len(history) == 2
        assert after < before

    def test_backward_through_decode_gathers_the_weight_taps_again(self, tiny_seq,
                                                                   monkeypatch):
        cfg = base_cfg()
        model = Model(fusion_mode="attention", seed=1)
        rng = np.random.default_rng(0)
        sample = _draw_sample(tiny_seq, rng, cfg)
        tau = _fit_reference(sample, model, cfg, rng)
        gathers = TapGathers(monkeypatch)
        with ad.Tape() as tape:
            loss = _sample_loss(sample, tau, model, cfg)
        taped = gathers.first
        tape.backward(loss, model.offline_parameters())
        # each weight gradient of a conv that stacked its taps gathers them again
        assert taped > 0 and gathers.regathers == taped

    def test_a_sample_loss_tape_keeps_only_what_its_rules_read(self, tiny_seq):
        # 1.99e6 bytes here, 4.37e6 when every node held its input and output
        # tensors
        cfg = base_cfg()
        model = Model(fusion_mode="attention", seed=1)
        rng = np.random.default_rng(0)
        sample = _draw_sample(tiny_seq, rng, cfg)
        tau = _fit_reference(sample, model, cfg, rng)
        tracemalloc.start()
        try:
            with ad.Tape() as tape:
                loss = _sample_loss(sample, tau, model, cfg)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert loss.size == 1 and kept < 3_000_000

    def test_short_sequence_warns_and_trains(self, tmp_path):
        generate_synthetic(tiny_scene(frames=3), tmp_path / "short")
        seq = load_sequence(tmp_path / "short")
        model = Model(fusion_mode="none", seed=2)
        with pytest.warns(UserWarning, match="shorter than 4 frames"):
            train_offline([seq], model, base_cfg(), epochs=1)

    def test_mode_none_never_touches_flow_backbone(self):
        names = [n for n, _ in Model(fusion_mode="none", seed=4).named_tensors()]
        assert not any(n.startswith("backbone_fl.") for n in names)
        assert any(n.startswith("backbone_im.") for n in names)

    @pytest.mark.parametrize("mode", ["none", "concat", "attention"])
    def test_every_parameter_trains(self, tmp_path, mode):
        scene = random_scene(32, 32, 6, 2, seed=5, distractors=True)
        generate_synthetic(scene, tmp_path / "twins")
        seq = load_sequence(tmp_path / "twins")
        model = Model(fusion_mode=mode, seed=4)
        before = {n: t.data.copy() for n, t in model.named_tensors()}
        train_offline([seq], model,
                      base_cfg(**{"train.crop": 32}),
                      epochs=3)
        unchanged = [n for n, t in model.named_tensors()
                     if np.array_equal(t.data, before[n])]
        assert unchanged == []

    @pytest.mark.parametrize("mode", ["none", "attention"])
    def test_gradients_stop_at_the_fitted_filters(self, tiny_seq, monkeypatch, mode):
        fitted = []
        fit = pipeline._fit_reference

        def record(*args):
            fitted.append(fit(*args))
            return fitted[-1]

        monkeypatch.setattr(pipeline, "_fit_reference", record)
        model = Model(fusion_mode=mode, seed=1)
        train_offline([tiny_seq], model, base_cfg(), epochs=2)
        assert len(fitted) == 2
        assert all(t.grad is None for tau in fitted for t in tau.tensors())
        assert all(t.grad is not None for t in model.offline_parameters())

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="no sequences"):
            train_offline([], Model(seed=0), base_cfg())

    def test_epochs_keyword_is_range_checked(self, tiny_seq):
        with pytest.raises(ConfigError, match="train.epochs"):
            train_offline([tiny_seq], Model(seed=0), base_cfg(), epochs=0)

    @pytest.mark.parametrize("width, height, drawn", [(40, 40, (48, 48)),
                                                      (72, 40, (48, 64))])
    def test_trains_on_frames_that_inference_pads(self, tmp_path, width, height,
                                                  drawn):
        scene = random_scene(width, height, 5, 2, seed=1)
        seq = load_sequence(generate_synthetic(scene, tmp_path / "s"))
        sample = _draw_sample(seq, np.random.default_rng(0), base_cfg())
        assert {fs.image.shape[1:] for fs in [sample.reference, *sample.tests]} == {drawn}
        history = train_offline([seq], Model(seed=1), base_cfg(), epochs=1)
        assert len(history) == 1 and np.isfinite(history[0])
