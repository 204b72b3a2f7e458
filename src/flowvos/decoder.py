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

Pyramid fusion applies one fusion instance per level to levels 2, 3 and 4.
Level 1 is the flow branch's feature, passed through unfused.  A model
without a flow branch has no flow pyramid, and its image pyramid passes
through whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import BACKBONE_CHANNELS, LABEL_CHANNELS
from .fusion import fuse

DECODER_WIDTH = 32


@dataclass
class DecoderParams:
    stem: list           # two (w, b) conv3x3 pairs at level-4 resolution
    refine: dict         # level k in (3, 2, 1) -> two (w, b) conv3x3 pairs
    head: tuple          # 1x1 conv to one logit channel

    @classmethod
    def init(cls, rng, label_channels: int = LABEL_CHANNELS,
             channels=BACKBONE_CHANNELS, width: int = DECODER_WIDTH):
        from .backbone import he_conv

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


def _block(x: Tensor, pairs) -> Tensor:
    for w, b in pairs:
        x = ad.relu(ad.conv2d(x, w, b))
    return x


def decode(f_tm: Tensor, fused: dict, params: DecoderParams) -> Tensor:
    """One logit channel at the frame resolution from f_tm (level-3 sized)
    and the fused pyramid."""
    x = _block(ad.concat([ad.avg_pool2(f_tm), fused[4]], axis=0), params.stem)
    for k in (3, 2, 1):
        x = _block(ad.concat([ad.upsample2(x), fused[k]], axis=0),
                   params.refine[k])
    return ad.upsample2(ad.conv2d(x, params.head[0], params.head[1]))
