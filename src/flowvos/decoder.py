"""Mask decoder: from the target representation back to full resolution.

The decoder stem concatenates the (2x average pooled) target representation
with the fused level-4 feature, then three refinement stages walk back up
the pyramid, each one upsampling 2x, concatenating the fused skip feature of
its level and applying two 3x3 conv + relu blocks.  A 1x1 head then projects
to one logit channel, and a final 2x upsample brings it to the input
resolution.  The head is linear per pixel, the upsample is linear per
channel with weights that sum to one, so this order gives the logits of
head-after-upsample up to rounding while the last upsample moves one
channel instead of the decoder width.

``decode`` takes every object of a frame.  The fused pyramid belongs to the
frame, so the first conv of each stage is split by input channel, over one
stored kernel: the frame half (the skip channels, with the bias) runs once
per frame and the object half once per object, which gives the conv of the
concatenation up to rounding.

Pyramid fusion applies one fusion instance per level to levels 2, 3 and 4.
Level 1 is the flow branch's feature, passed through unfused.  A model
without a flow branch has no flow pyramid, and its image pyramid passes
through whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import autodiff as ad
from .backbone import BACKBONE_CHANNELS, he_conv
from .fusion import fuse
from .target_model import LABEL_CHANNELS

DECODER_WIDTH = 32


@dataclass
class DecoderParams:
    stem: list           # two (w, b) conv3x3 pairs at level-4 resolution
    refine: dict         # level k in (3, 2, 1) -> two (w, b) conv3x3 pairs
    head: tuple          # 1x1 conv to one logit channel

    @classmethod
    def init(cls, rng, label_channels: int = LABEL_CHANNELS,
             channels=BACKBONE_CHANNELS, width: int = DECODER_WIDTH):
        stem = [he_conv(rng, width, label_channels + channels[3], 3),
                he_conv(rng, width, width, 3)]
        refine = {}
        for k in (3, 2, 1):
            refine[k] = [he_conv(rng, width, width + channels[k - 1], 3),
                         he_conv(rng, width, width, 3)]
        head = he_conv(rng, 1, width, 1)
        return cls(stem=stem, refine=refine, head=head)

    def named_tensors(self, prefix: str):
        for i, (w, b) in enumerate(self.stem):
            yield f"{prefix}.stem{i + 1}.w", w
            yield f"{prefix}.stem{i + 1}.b", b
        for k in (3, 2, 1):
            for i, (w, b) in enumerate(self.refine[k]):
                yield f"{prefix}.refine{k}.{i + 1}.w", w
                yield f"{prefix}.refine{k}.{i + 1}.b", b
        yield f"{prefix}.head.w", self.head[0]
        yield f"{prefix}.head.b", self.head[1]


def fuse_pyramid(pyr_im: dict, pyr_fl: Optional[dict], fusion_levels: dict) -> dict:
    """Per-level fused decoder features {1..4}; levels 2-4 get their own
    fusion instance, level 1 is a plain passthrough of the flow branch.
    Without a flow pyramid (``pyr_fl`` None) the image pyramid is returned."""
    if pyr_fl is None:
        return pyr_im
    out = {k: fuse(pyr_im[k], pyr_fl[k], fusion_levels[k]) for k in (2, 3, 4)}
    out[1] = pyr_fl[1]
    return out


def decode(f_tms: list, fused: dict, params: DecoderParams) -> list:
    """One 1 x 1 x H x W logit map per object at the frame resolution, from
    each object's 1 x L x H/8 x W/8 f_tm and the frame's fused pyramid."""
    stages = [(4, params.stem)] + [(k, params.refine[k]) for k in (3, 2, 1)]
    halves = {}                          # level -> (object half, frame half's output)
    for k, ((w, b), _) in stages:
        c = w.shape[1] - fused[k].shape[1]
        halves[k] = (ad.kernel_slice(w, 0, c),
                     ad.conv2d(fused[k], ad.kernel_slice(w, c, w.shape[1]), b))
    # one object at a time: with every object's activations alive at once
    # the heap grew and shrank past the allocator's trim threshold, at 14x
    # the minor page faults of a per-object decode
    out = []
    for x in f_tms:
        for k, (_, second) in stages:
            w_obj, frame = halves[k]
            x = ad.avg_pool2(x) if k == 4 else ad.upsample2(x)
            x = ad.relu(ad.add(ad.conv2d(x, w_obj), frame))
            x = ad.relu(ad.conv2d(x, *second))
        out.append(ad.upsample2(ad.conv2d(x, *params.head)))
    return out
