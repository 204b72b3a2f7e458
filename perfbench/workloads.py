"""The benchmark's workloads: inputs from a seed, timed passes, output checks.

Every workload repeats one kind of pass over inputs that the synthetic
generator renders from the workload seed.  An inference pass segments one
whole sequence with ``infer_sequence``; a training pass restores the
model's initial weights and runs ``train_offline`` for a fixed number of
samples, so every training pass does the same work.  The model is built
from a fixed seed and never trained before it is timed: timings of a
trained model move with the chaotic count of confidence-triggered updates.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from flowvos import data_io, pipeline
from flowvos.config import RunConfig
from flowvos.model import Model

MODEL_SEED = 7


@dataclass(frozen=True)
class Spec:
    """The make-up of one workload's inputs and of its passes."""

    name: str
    kind: str                  # "infer" | "train"
    width: int
    height: int
    frames: int
    objects: int
    distractors: bool          # identical twins told apart by motion only
    sequences: int             # sequences per round; one pass each
    overrides: dict = field(default_factory=dict)   # RunConfig fields
    epochs: int = 0            # train: samples per pass (one per epoch)
    prefix: int = 0            # infer: frames of the prefix rerun
    tail_pct: float = 90.0     # the percentile reported as the tail


SPECS = {
    "online-twins": Spec(
        name="online-twins", kind="infer", width=64, height=64, frames=32,
        objects=2, distractors=True, sequences=1, prefix=10),
    "track-wide": Spec(
        name="track-wide", kind="infer", width=120, height=88, frames=24,
        objects=4, distractors=False, sequences=1, prefix=6,
        overrides={"learner_update_every": 25, "learner_update_conf": 1.0}),
    "train-twins": Spec(
        name="train-twins", kind="train", width=64, height=64, frames=16,
        objects=2, distractors=True, sequences=2, epochs=4, tail_pct=75.0),
}


@dataclass
class State:
    """Everything one workload needs after set-up."""

    spec: Spec
    cfg: RunConfig
    model: Model
    sequences: list
    initial: dict              # tensor name -> initial weights (train)
    reference: dict = field(default_factory=dict)   # seq index -> results
    prefix_results: list = field(default_factory=list)


@dataclass
class PassResult:
    """Item timings of one pass and the problems its checks found."""

    seconds: float             # the public call that did the pass
    item_seconds: list         # per frame t >= 1, or per training sample
    first_seconds: Optional[float]
    update_seconds: list
    plain_seconds: list
    problems: list


def make_config(spec: Spec, seed: int) -> RunConfig:
    cfg = replace(RunConfig(seed=seed), **spec.overrides)
    if cfg.learner_outer_iters_init == cfg.learner_outer_iters_update:
        raise ValueError("init and update fits need distinct iteration "
                         "budgets to be told apart in a trace")
    return cfg


def setup(spec: Spec, seed: int, workdir: Path) -> State:
    """Render the inputs to disk, load them back and build the model."""
    tag = zlib.crc32(spec.name.encode())
    seeds = np.random.SeedSequence([seed, tag]).spawn(spec.sequences)
    sequences = []
    for i, child in enumerate(seeds):
        scene = data_io.random_scene(
            spec.width, spec.height, spec.frames, spec.objects,
            int(child.generate_state(1)[0] % 2 ** 31),
            distractors=spec.distractors)
        path = data_io.generate_synthetic(scene, workdir / f"seq_{i:03d}")
        sequences.append(data_io.load_sequence(path))
    model = Model(fusion_mode="attention", seed=MODEL_SEED)
    initial = {name: t.data.copy() for name, t in model.named_tensors()}
    return State(spec=spec, cfg=make_config(spec, seed), model=model,
                 sequences=sequences, initial=initial)


def run_pass(state: State, index: int) -> PassResult:
    seq = state.sequences[index]
    if state.spec.kind == "train":
        return _train_pass(state, seq)
    framesets = pipeline.frame_sets(seq)
    t0 = time.perf_counter()
    results = pipeline.infer_sequence(framesets, seq.masks[0], state.model,
                                      state.cfg)
    seconds = time.perf_counter() - t0
    state.reference.setdefault(index, results)
    first, update, plain = split_frames(results)
    return PassResult(seconds=seconds,
                      item_seconds=[r.seconds for r in results[1:]],
                      first_seconds=first,
                      update_seconds=update, plain_seconds=plain,
                      problems=check_frames(results, seq, state.cfg))


def split_frames(results: list) -> tuple:
    """Frame 0's seconds, then the seconds of later frames that ran an
    online update and of those that did not.  Frames are classified by
    index: frame 0 runs the initial fit and is never an update frame,
    whatever its ``updated`` flag says."""
    update, plain = [], []
    for r in results:
        if r.frame_index > 0:
            (update if r.updated else plain).append(r.seconds)
    return results[0].seconds, update, plain


def warm_up(state: State) -> None:
    """Run every code path once before timing; checks the prefix property
    for inference (the prefix run is compared after the first full pass)."""
    spec = state.spec
    if spec.kind == "train":
        _restore(state)
        pipeline.train_offline(state.sequences[:1], state.model, state.cfg,
                               epochs=2)
        return
    seq = state.sequences[0]
    state.prefix_results = pipeline.infer_sequence(
        pipeline.frame_sets(seq)[:spec.prefix], seq.masks[0], state.model,
        state.cfg)


def prefix_problems(state: State) -> list:
    """A prefix of a sequence must give bit-identical results to the same
    frames of the full run."""
    if state.spec.kind == "train":
        return []
    full = state.reference.get(0)
    if full is None:
        return ["no full pass to compare the prefix run with"]
    problems = []
    for a, b in zip(state.prefix_results, full):
        if not (np.array_equal(a.probs, b.probs)
                and np.array_equal(a.labels, b.labels)
                and a.updated == b.updated):
            problems.append(f"frame {a.frame_index}: prefix run differs from "
                            "the full run")
    return problems


# ---------------------------------------------------------------------------
# checks


def recompute_labels(probs: np.ndarray, objects: list) -> np.ndarray:
    """Argmax object where the top probability is above 0.5, else 0."""
    best = np.argmax(probs, axis=0)
    ids = np.asarray(objects, dtype=np.uint8)
    return np.where(probs.max(axis=0) > 0.5, ids[best], 0).astype(np.uint8)


def expected_update(frame_index: int, probs: np.ndarray, cfg: RunConfig) -> bool:
    """The online update rule: on the cadence, or when confident."""
    confidence = float(np.mean(np.maximum(probs, 1.0 - probs)))
    return (frame_index % cfg.learner_update_every == 0
            or confidence > cfg.learner_update_conf)


def check_frames(results: list, seq, cfg: RunConfig) -> list:
    """Property checks on one inference pass; returns problem strings."""
    problems = []
    annotation = seq.masks[0]
    objects = sorted(int(k) for k in np.unique(annotation) if k > 0)
    h, w = annotation.shape
    if len(results) != len(seq):
        problems.append(f"{len(results)} results for {len(seq)} frames")
    if not np.array_equal(results[0].labels, annotation):
        problems.append("frame 0 labels differ from the annotation")
    for t, r in enumerate(results):
        where = f"frame {t}"
        if r.frame_index != t:
            problems.append(f"{where}: frame_index {r.frame_index}")
        if r.probs.shape != (len(objects), h, w):
            problems.append(f"{where}: probs shape {r.probs.shape}")
            continue
        if not np.all(np.isfinite(r.probs)):
            problems.append(f"{where}: non-finite probs")
        elif r.probs.min() < 0.0 or r.probs.max() > 1.0:
            problems.append(f"{where}: probs outside [0, 1]")
        if t == 0:
            continue    # frame 0 runs the initial fit, not an online update
        if not np.array_equal(recompute_labels(r.probs, objects), r.labels):
            problems.append(f"{where}: labels do not follow from probs")
        if r.updated != expected_update(t, r.probs, cfg):
            problems.append(f"{where}: updated={r.updated} breaks the "
                            "cadence/confidence rule")
    return problems


# ---------------------------------------------------------------------------
# training


def _restore(state: State) -> None:
    for name, t in state.model.named_tensors():
        t.data = state.initial[name].copy()
        t.grad = None


def _train_pass(state: State, seq) -> PassResult:
    _restore(state)
    stamps = []
    start = time.perf_counter()
    losses = pipeline.train_offline(
        [seq], state.model, state.cfg, epochs=state.spec.epochs,
        log=lambda _msg: stamps.append(time.perf_counter()))
    seconds = time.perf_counter() - start
    items = list(np.diff([start] + stamps))
    return PassResult(seconds=seconds, item_seconds=items, first_seconds=None,
                      update_seconds=[], plain_seconds=[],
                      problems=check_training(losses, state))


def check_training(losses: list, state: State) -> list:
    """Losses are finite and every tensor the decoder loss reaches moved."""
    problems = []
    if len(losses) != state.spec.epochs:
        problems.append(f"{len(losses)} losses for {state.spec.epochs} samples")
    if not all(np.isfinite(x) for x in losses):
        problems.append(f"non-finite training loss in {losses}")
    for name, t in state.model.named_tensors():
        if t.grad is not None and np.array_equal(t.data, state.initial[name]):
            problems.append(f"{name}: reached by the decoder loss but unchanged")
    return problems


def unreached(state: State) -> list:
    """Tensors the decoder loss never reaches (no gradient after a pass)."""
    return [name for name, t in state.model.named_tensors() if t.grad is None]
