"""Two-stage procedure: offline meta-training and sequential inference.

Inference keeps the target models of the annotated objects stacked along
one object axis and makes one pass over the frames: pad, extract pyramids,
take frame 0's probabilities from the annotation or decode a later frame
through one target-model application for every object, binarize, add the
labels to the sequence's memory as the frame's sample of every object, and
fit on the cadence or confidence rule, which frame 0 meets with the initial
budget: one joint fit serves every object, each with the iterates of its
own fit.  Frame results depend only on frames up to t.

Offline training draws four frames per sample from one sequence: the
reference (plus flip/affine augmented copies, with flow vectors transformed
by the same linear map) trains the few-shot learner, a target model of one
object (K = 1); the other three frames are decoded against ground truth
with per-pixel binary cross-entropy and averaged.  The reverse sweep takes
the model's offline parameters as its sources, so gradients stop at the
fitted filters (the inner loop is not differentiated through) and reach the
decoder, fusion and backbone parameters, which a native Adam update then
moves.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import DTYPE, Tape, Tensor
from .backbone import BACKBONE_CHANNELS, encode_label, extract
from .config import RunConfig
from .data_io import DataFormatError, Sequence
from .decoder import decode, fuse_pyramid
from .flow_embed import embed_flow
from .learner import MemoryBuffer, optimize
from .model import Model
from .target_model import (LABEL_CHANNELS, TargetModelParams, TargetSample, apply,
                           stack_samples)

__all__ = [
    "FrameSet",
    "SegResult",
    "frame_sets",
    "inference_objects",
    "infer_sequence",
    "train_offline",
    "Adam",
]


@dataclass
class FrameSet:
    """One frame with the flow arriving at it and its label mask."""

    image: np.ndarray            # 3xHxW DTYPE (float32) in [0, 1]
    flow: np.ndarray             # 2xHxW DTYPE, frame t-1 to t (frame 0: 0 -> 1)
    mask: np.ndarray             # HxW uint8 label image


@dataclass
class SegResult:
    probs: np.ndarray            # K_obj x H x W DTYPE in [0, 1]
    labels: np.ndarray           # HxW uint8, 0 = background
    frame_index: int             # position in the sequence
    seconds: float = 0.0
    updated: bool = False        # fitted on this frame (frame 0: the initial fit)


def frame_sets(seq: Sequence) -> list:
    return [FrameSet(image=image, flow=flow, mask=mask)
            for image, flow, mask in zip(seq.images, seq.flows, seq.masks)]


# ---------------------------------------------------------------------------
# feature plumbing


def _pad_frameset(fs: FrameSet) -> tuple:
    """The frame padded below and to the right to a multiple of the
    backbone's total downsampling, and the padding (rows, columns)."""
    mult = 2 ** len(BACKBONE_CHANNELS)
    h, w = fs.image.shape[1:]
    ph, pw = (-h) % mult, (-w) % mult
    if ph == 0 and pw == 0:
        return fs, (0, 0)
    image = np.pad(fs.image, ((0, 0), (0, ph), (0, pw)), mode="edge")
    uv = np.pad(fs.flow, ((0, 0), (0, ph), (0, pw)), mode="edge")
    mask = np.pad(fs.mask, ((0, ph), (0, pw)))
    return FrameSet(image=image, flow=uv, mask=mask), (ph, pw)


def _pyramids(model: Model, fs: FrameSet, cfg: RunConfig):
    """The frame's image and flow pyramids, each level a batch of one
    frame."""
    pyr_im = extract(Tensor(fs.image[None]), model.backbone_im)
    pyr_fl = None
    if model.uses_flow:
        flow = embed_flow(fs.flow) / cfg.flow_max_displacement
        pyr_fl = extract(Tensor(flow[None]), model.backbone_fl)
    return pyr_im, pyr_fl


def _level3(pyr_im, pyr_fl) -> tuple:
    """The target model's inputs; the flow one is None without a flow branch."""
    return pyr_im[3], None if pyr_fl is None else pyr_fl[3]


def _object_sample(pyr_im, pyr_fl, masks01: np.ndarray) -> TargetSample:
    """The frame's sample of the objects of the K x H x W masks, a batch of
    one frame."""
    target = encode_label(Tensor(masks01))
    l3_im, l3_fl = _level3(pyr_im, pyr_fl)
    return TargetSample(l3_im=l3_im, l3_fl=l3_fl, target=target,
                        root=Tensor(np.ones(1, dtype=target.data.dtype)))


_SEED_INFER, _SEED_TRAIN = 101, 202


def _new_target_model(model: Model, cfg: RunConfig, seed_tails: list) -> TargetModelParams:
    """A target model of one object per seed tail, each drawn from its own
    generator."""
    rngs = [np.random.default_rng([cfg.seed, *(int(s) for s in tail)]) for tail in seed_tails]
    return TargetModelParams.init_random(
        rngs, c_in=BACKBONE_CHANNELS[2], label_channels=LABEL_CHANNELS,
        with_flow=model.uses_flow, reg_lambda=cfg.learner_reg_lambda)


def balanced_bce_with_logits(logits: Tensor, target01: np.ndarray) -> Tensor:
    """Per-pixel BCE with the two classes reweighted to equal total mass;
    the weights take the target's dtype.

    Plain mean BCE under a few-percent foreground fraction drives every
    logit below the 0.5 binarization threshold at toy training budgets;
    balancing restores usable confidence without touching the threshold.
    """
    frac = float(target01.mean())
    eps = 1.0 / target01.size
    w_fg = 0.5 / max(frac, eps)
    w_bg = 0.5 / max(1.0 - frac, eps)
    weights = np.where(target01 > 0.5, w_fg, w_bg).astype(target01.dtype)
    y = Tensor(target01)
    per_pixel = ad.sub(ad.softplus(logits), ad.mul(logits, y))
    return ad.tmean(ad.mul(per_pixel, Tensor(weights)))


# ---------------------------------------------------------------------------
# inference


def inference_objects(framesets: list, annotation: np.ndarray) -> list:
    """The sorted object ids of the first frame's label image, once the
    inputs are checked: at least two frames, an annotation of the frames'
    shape, and at least one object in it."""
    if len(framesets) < 2:
        raise DataFormatError("inference needs at least two frames")
    if annotation.shape != framesets[0].image.shape[1:]:
        raise DataFormatError(
            f"annotation shape {annotation.shape} does not match frames "
            f"{framesets[0].image.shape[1:]}")
    objects = sorted(int(k) for k in np.unique(annotation) if k > 0)
    if not objects:
        raise DataFormatError("annotation contains no objects")
    return objects


def infer_sequence(framesets: list, annotation: np.ndarray, model: Model,
                   cfg: RunConfig) -> list:
    """Segment a sequence given the first frame's label image."""
    objects = inference_objects(framesets, annotation)
    h0, w0 = annotation.shape

    ids = np.asarray(objects, dtype=np.uint8)
    tau = _new_target_model(model, cfg, [(_SEED_INFER, k) for k in objects])
    memory = MemoryBuffer(cfg.learner_buffer_capacity, cfg.learner_buffer_decay,
                          cfg.learner_pinned_weight)
    results = []
    for t, fs_raw in enumerate(framesets):
        tic = time.perf_counter()
        fs, (ph, pw) = _pad_frameset(fs_raw)
        pyr_im, pyr_fl = _pyramids(model, fs, cfg)
        if t == 0:
            probs = np.stack([(annotation == k).astype(DTYPE) for k in objects])
        else:
            fused = fuse_pyramid(pyr_im, pyr_fl, model.fusion_dec)
            # K x 1 x L x H x W; inference records no tape, so each object's
            # f_tm is taken as data
            f_tm = apply(*_level3(pyr_im, pyr_fl), tau, model.fusion_tm).data
            logits = decode([Tensor(f) for f in f_tm], fused, model.decoder)
            probs = np.stack([ad.sigmoid(z).data[0, 0, :h0, :w0] for z in logits])
        # binarizing frame 0's one-hot probabilities gives back the annotation
        best = np.argmax(probs, axis=0)
        labels = np.where(probs.max(axis=0) > 0.5, ids[best], 0).astype(np.uint8)

        padded_labels = np.pad(labels, ((0, ph), (0, pw)))
        memory.add(_object_sample(pyr_im, pyr_fl,
                                  (padded_labels == ids[:, None, None]).astype(DTYPE)))
        confidence = float(np.mean(np.maximum(probs, 1.0 - probs)))
        updated = (t % cfg.learner_update_every == 0
                   or confidence > cfg.learner_update_conf)
        if updated:
            iters = cfg.learner_outer_iters_update if t else cfg.learner_outer_iters_init
            optimize(tau, memory.batch(), model.fusion_tm, cfg, outer_iters=iters)
        results.append(SegResult(probs=probs, labels=labels, frame_index=t,
                                 seconds=time.perf_counter() - tic,
                                 updated=updated))
    return results


# ---------------------------------------------------------------------------
# augmentation


def flip_frameset(fs: FrameSet) -> FrameSet:
    """Horizontal mirror; the horizontal flow component changes sign."""
    uv = fs.flow[:, :, ::-1].copy()
    uv[0] = -uv[0]
    return FrameSet(image=fs.image[:, :, ::-1].copy(), flow=uv,
                    mask=fs.mask[:, ::-1].copy())


def _bilinear_sample(img: np.ndarray, sy: np.ndarray, sx: np.ndarray) -> np.ndarray:
    """img read at the points (sy, sx), in img's dtype."""
    h, w = img.shape[1:]
    y0 = np.clip(np.floor(sy).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(sx).astype(int), 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    fy = (np.clip(sy, 0, h - 1) - y0).astype(img.dtype)
    fx = (np.clip(sx, 0, w - 1) - x0).astype(img.dtype)
    top = img[:, y0, x0] * (1 - fx) + img[:, y0, x1] * fx
    bot = img[:, y1, x0] * (1 - fx) + img[:, y1, x1] * fx
    return top * (1 - fy) + bot * fy


def _nearest_sample(img: np.ndarray, sy: np.ndarray, sx: np.ndarray) -> np.ndarray:
    h, w = img.shape[-2:]
    yi = np.clip(np.rint(sy).astype(int), 0, h - 1)
    xi = np.clip(np.rint(sx).astype(int), 0, w - 1)
    return img[..., yi, xi]


def affine_frameset(fs: FrameSet, rng, max_rot_deg: float = 15.0) -> FrameSet:
    """Random rotation, scale in [0.9, 1.1] and shift of up to 4 pixels per
    axis; flow vectors transform by the linear part."""
    ang = np.deg2rad(rng.uniform(-max_rot_deg, max_rot_deg))
    s = rng.uniform(0.9, 1.1)
    tx, ty = rng.uniform(-4.0, 4.0, size=2)
    a = s * np.array([[np.cos(ang), -np.sin(ang)],
                      [np.sin(ang), np.cos(ang)]])
    ainv = np.linalg.inv(a)
    h, w = fs.image.shape[1:]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    rel_x = xx - cx - tx
    rel_y = yy - cy - ty
    sx = ainv[0, 0] * rel_x + ainv[0, 1] * rel_y + cx
    sy = ainv[1, 0] * rel_x + ainv[1, 1] * rel_y + cy

    image = _bilinear_sample(fs.image, sy, sx)
    mask = _nearest_sample(fs.mask, sy, sx)
    uv_src = _nearest_sample(fs.flow, sy, sx)
    uv = np.empty_like(uv_src)
    uv[0] = a[0, 0] * uv_src[0] + a[0, 1] * uv_src[1]
    uv[1] = a[1, 0] * uv_src[0] + a[1, 1] * uv_src[1]
    return FrameSet(image=image, flow=uv, mask=mask)


def augment_frameset(fs: FrameSet, rng) -> FrameSet:
    out = fs
    if rng.random() < 0.5:
        out = flip_frameset(out)
    return affine_frameset(out, rng)


def _crop_frameset(fs: FrameSet, y0: int, x0: int, h: int, w: int) -> FrameSet:
    sl = (slice(y0, y0 + h), slice(x0, x0 + w))
    return FrameSet(image=fs.image[:, sl[0], sl[1]].copy(),
                    flow=fs.flow[:, sl[0], sl[1]].copy(),
                    mask=fs.mask[sl].copy())


# ---------------------------------------------------------------------------
# offline training


class Adam:
    """First-order adaptive-moment update with bias correction, with the
    usual moment decays 0.9 and 0.999 and epsilon 1e-8."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list, lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * g * g
            m_hat = self._m[i] / b1c
            v_hat = self._v[i] / b2c
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class TrainingSample:
    reference: FrameSet
    tests: list
    object_id: int


def _draw_sample(seq: Sequence, rng, cfg: RunConfig) -> TrainingSample:
    n = len(seq)
    if n >= 4:
        idx = rng.choice(n, size=4, replace=False)
    else:
        warnings.warn(f"sequence {seq.name} shorter than 4 frames; "
                      "sampling with replacement")
        idx = rng.choice(n, size=4, replace=True)
    frames = frame_sets(seq)
    sets = [frames[i] for i in idx]

    # crop each axis to at most train.crop (a multiple of 16), then pad a
    # shorter one to a multiple of 16 as inference does
    h, w = sets[0].image.shape[1:]
    ch, cw = min(h, cfg.train_crop), min(w, cfg.train_crop)
    if h > ch or w > cw:
        y0 = int(rng.integers(0, h - ch + 1))
        x0 = int(rng.integers(0, w - cw + 1))
        sets = [_crop_frameset(fs, y0, x0, ch, cw) for fs in sets]
    sets = [_pad_frameset(fs)[0] for fs in sets]

    present = [int(k) for k in np.unique(sets[0].mask) if k > 0]
    obj = int(rng.choice(present)) if present else 1
    return TrainingSample(reference=sets[0], tests=sets[1:], object_id=obj)


def _fit_reference(sample: TrainingSample, model: Model, cfg: RunConfig,
                   rng) -> TargetModelParams:
    """Inner loop: fit a one-object target model on the (augmented)
    reference frame."""
    refs = [sample.reference]
    for _ in range(cfg.train_aug_copies):
        refs.append(augment_frameset(sample.reference, rng))
    samples = []
    for fs in refs:
        pyr_im, pyr_fl = _pyramids(model, fs, cfg)
        mask01 = (fs.mask == sample.object_id).astype(DTYPE)
        samples.append(_object_sample(pyr_im, pyr_fl, mask01[None]))
    tau = _new_target_model(model, cfg, [(_SEED_TRAIN, int(rng.integers(2 ** 31)))])
    optimize(tau, stack_samples(samples), model.fusion_tm, cfg,
             outer_iters=cfg.learner_outer_iters_init)
    return tau


def _sample_loss(sample: TrainingSample, tau: TargetModelParams, model: Model,
                 cfg: RunConfig) -> Tensor:
    """Mean decoder loss over the test frames (the 1/(N-1) average)."""
    terms = []
    for fs in sample.tests:
        pyr_im, pyr_fl = _pyramids(model, fs, cfg)
        f_tm = apply(*_level3(pyr_im, pyr_fl), tau, model.fusion_tm)
        fused = fuse_pyramid(pyr_im, pyr_fl, model.fusion_dec)
        logits = decode([ad.reshape(f_tm, f_tm.shape[1:])], fused, model.decoder)[0]
        target = (fs.mask == sample.object_id).astype(DTYPE)[None, None]
        terms.append(balanced_bce_with_logits(logits, target))
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total * (1.0 / len(terms))


def train_offline(sequences: list, model: Model, cfg: RunConfig,
                  epochs: Optional[int] = None, log=None) -> list:
    """Train decoder, fusion and backbone parameters; returns per-epoch means.

    ``epochs`` overrides ``train.epochs`` and is range-checked like it.
    """
    if not sequences:
        raise ValueError("train_offline: no sequences")
    if epochs is not None:
        cfg = replace(cfg, train_epochs=epochs)
    params = model.offline_parameters()
    adam = Adam(params, lr=cfg.train_lr)
    rng = np.random.default_rng([cfg.seed, 0xDA7A])
    history = []
    for epoch in range(cfg.train_epochs):
        losses = []
        for si in rng.permutation(len(sequences)):
            seq = sequences[int(si)]
            for _ in range(cfg.train_samples_per_seq):
                sample = _draw_sample(seq, rng, cfg)
                tau = _fit_reference(sample, model, cfg, rng)
                adam.zero_grad()
                with Tape() as tape:
                    loss = _sample_loss(sample, tau, model, cfg)
                tape.backward(loss, params)
                adam.step()
                losses.append(loss.item())
        history.append(float(np.mean(losses)))
        if log is not None:
            log(f"epoch {epoch + 1}/{cfg.train_epochs}: loss {history[-1]:.4f}")
    return history

