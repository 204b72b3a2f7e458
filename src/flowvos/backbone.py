"""Multi-scale feature extractors and the label encoding.

The feature extractor is a small trainable stand-in for a pretrained
backbone: four stages of [3x3 conv, relu, 2x2 average pool], so level k of
the pyramid has spatial size H/2^k with channel widths (16, 32, 64, 64).
Image and flow branches share this architecture but never share parameters.

The target model's regression target has no parameters: each object's
mask, average-pooled to level-3 resolution, one channel that every label
channel of the target model regresses.  Learned label and weight encoders,
as in LWL, would only train through a differentiated inner fit, which the
offline loop does not do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DTYPE, Tensor

BACKBONE_CHANNELS = (16, 32, 64, 64)
TARGET_LEVEL = 3  # pyramid level consumed by the target model


def he_conv(rng, c_out: int, c_in: int, k: int) -> tuple[Tensor, Tensor]:
    """He fan-in initialized conv weight plus a zero bias, in ``DTYPE``; the
    weight is the float64 draw rounded."""
    w = rng.standard_normal((c_out, c_in, k, k)) * np.sqrt(2.0 / (c_in * k * k))
    return Tensor(w.astype(DTYPE)), Tensor(np.zeros(c_out, dtype=DTYPE))


@dataclass
class FeatureExtractorParams:
    stages: list  # [(w, b)] per stage, 3x3 kernels

    @classmethod
    def init(cls, rng, channels=BACKBONE_CHANNELS):
        stages = []
        c_prev = 3                   # an RGB image or an embedded flow
        for c in channels:
            stages.append(he_conv(rng, c, c_prev, 3))
            c_prev = c
        return cls(stages=stages)

    def named_tensors(self, prefix: str):
        for i, (w, b) in enumerate(self.stages):
            yield f"{prefix}.stage{i + 1}.w", w
            yield f"{prefix}.stage{i + 1}.b", b


def extract(x: Tensor, params: FeatureExtractorParams) -> dict:
    """Feature pyramid {1: ..., 4: ...} of an N x 3 x H x W batch whose sides
    are multiples of 16; level k is N x C x H/2^k x W/2^k."""
    pyramid = {}
    cur = x
    for k, (wk, bk) in enumerate(params.stages, start=1):
        cur = ad.avg_pool2(ad.relu(ad.conv2d(cur, wk, bk)))
        pyramid[k] = cur
    return pyramid


def encode_label(masks: Tensor) -> Tensor:
    """Regression targets for K x H x W masks, one per object, as one
    frame's sample: each mask average-pooled to level 3, K x 1 x 1 x H/8 x
    W/8."""
    if masks.ndim != 3:
        raise ValueError(f"encode_label: expected KxHxW masks, got shape {masks.shape}")
    k, h, w = masks.shape
    div = 2 ** TARGET_LEVEL
    if h % div or w % div:
        raise ValueError(f"encode_label: spatial size {h}x{w} not divisible by {div}")
    pooled = masks.data.reshape(k, h // div, div, w // div, div).mean(axis=(2, 4))
    return Tensor(pooled[:, None, None])
