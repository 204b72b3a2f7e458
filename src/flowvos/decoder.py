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
Level 1 is the flow branch's feature, passed through unfused.  In fusion
mode "none" the whole pyramid comes from the image branch and the flow
branch is never consulted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import BACKBONE_CHANNELS, LABEL_CHANNELS
from .fusion import FusionParams, fuse

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
    fusion instance, level 1 is a plain passthrough of the flow branch."""
    for k in (1, 2, 3, 4):
        if k not in pyr_im:
            raise ValueError(f"fuse_pyramid: missing image pyramid level {k}")
    mode = fusion_levels[2].mode
    if mode == "none":
        return {k: pyr_im[k] for k in (1, 2, 3, 4)}
    if pyr_fl is None:
        raise ValueError(f"fuse_pyramid: fusion mode {mode!r} needs a flow pyramid")
    for k in (1, 2, 3, 4):
        if k not in pyr_fl:
            raise ValueError(f"fuse_pyramid: missing flow pyramid level {k}")
    out = {k: fuse(pyr_im[k], pyr_fl[k], fusion_levels[k]) for k in (2, 3, 4)}
    out[1] = pyr_fl[1]
    return out


def _block(x: Tensor, pairs) -> Tensor:
    for w, b in pairs:
        x = ad.relu(ad.conv2d(x, w, b, padding=1))
    return x


def decode(f_tm: Tensor, fused: dict, params: DecoderParams) -> Tensor:
    """One logit channel at the frame resolution from f_tm (level-3 sized)
    and the fused pyramid."""
    l4 = fused[4]
    if (f_tm.shape[1] != 2 * l4.shape[1]) or (f_tm.shape[2] != 2 * l4.shape[2]):
        raise ValueError(
            f"decode: f_tm {f_tm.shape} is not at level-3 resolution for "
            f"level-4 feature {l4.shape}")
    x = _block(ad.concat([ad.avg_pool2(f_tm), l4], axis=0), params.stem)
    for k in (3, 2, 1):
        x = ad.upsample2(x)
        skip = fused[k]
        if x.shape[1:] != skip.shape[1:]:
            raise ValueError(
                f"decode: level {k} skip {skip.shape} does not match {x.shape}")
        x = _block(ad.concat([x, skip], axis=0), params.refine[k])
    return ad.upsample2(ad.conv2d(x, params.head[0], params.head[1]))
