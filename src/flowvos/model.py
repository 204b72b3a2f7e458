"""Aggregate of all offline-trained parameters, with checkpoint round-trip.

One model owns the image feature extractor, the flow feature extractor
(only in the modes that use flow), the fusion instances (one for the target
model plus one per decoder pyramid level 2-4) and the decoder.  Every
tensor it owns is trained offline; the target model's regression target is
the parameter-free ``backbone.encode_label``.  Everything is seeded
deterministically from one integer, with independent named streams per
component.  A checkpoint holds every tensor by name plus ``meta/fusion_mode``;
the widths are those of the fixed architecture, so loading checks each
tensor's shape against it, rejects nan and infinite values and values that
overflow the working dtype, and skips any other ``meta/`` entry.  Tensors are
built and loaded in ``autodiff.DTYPE``; the checkpoint stores them as
float64, which holds every float32 value exactly.
"""

from __future__ import annotations

import numpy as np

from . import checkpoint
from .autodiff import DTYPE
from .backbone import BACKBONE_CHANNELS, FeatureExtractorParams
from .decoder import DecoderParams
from .fusion import MODES, FusionParams
from .target_model import LABEL_CHANNELS

# Each component draws from the SeedSequence child at its position among
# _CHILDREN.  Children 2 and 3 seeded learned label encoders, which are
# gone; the positions stay so that a seed keeps building the same weights.
_STREAMS = {"backbone_im": 0, "backbone_fl": 1, "fusion": 4, "decoder": 5}
_CHILDREN = 6


class Model:
    def __init__(self, fusion_mode: str = "attention", seed: int = 0):
        self.fusion_mode = fusion_mode
        children = np.random.SeedSequence(seed).spawn(_CHILDREN)
        rngs = {name: np.random.default_rng(children[i])
                for name, i in _STREAMS.items()}
        self.backbone_im = FeatureExtractorParams.init(rngs["backbone_im"])
        self.backbone_fl = None
        if self.uses_flow:
            self.backbone_fl = FeatureExtractorParams.init(rngs["backbone_fl"])
        self.fusion_tm = FusionParams.init(rngs["fusion"], fusion_mode,
                                           LABEL_CHANNELS)
        self.fusion_dec = {k: FusionParams.init(rngs["fusion"], fusion_mode,
                                                BACKBONE_CHANNELS[k - 1])
                           for k in (2, 3, 4)}
        self.decoder = DecoderParams.init(rngs["decoder"])

    @property
    def uses_flow(self) -> bool:
        return self.fusion_mode != "none"

    def named_tensors(self):
        yield from self.backbone_im.named_tensors("backbone_im")
        if self.backbone_fl is not None:
            yield from self.backbone_fl.named_tensors("backbone_fl")
        yield from self.fusion_tm.named_tensors("fusion_tm")
        for k in (2, 3, 4):
            yield from self.fusion_dec[k].named_tensors(f"fusion_dec{k}")
        yield from self.decoder.named_tensors("decoder")

    def offline_parameters(self) -> list:
        return [t for _, t in self.named_tensors()]

    def save(self, path) -> None:
        items = {name: t.data for name, t in self.named_tensors()}
        items["meta/fusion_mode"] = np.array([MODES.index(self.fusion_mode)],
                                             dtype=np.float64)
        checkpoint.save_named(path, items)

    @classmethod
    def load(cls, path) -> "Model":
        items = checkpoint.load_named(path)
        code = items.get("meta/fusion_mode")
        if code is None:
            raise checkpoint.CheckpointError(
                f"{path}: missing checkpoint entry 'meta/fusion_mode'")
        if code.shape != (1,) or code[0] not in range(len(MODES)):
            raise checkpoint.CheckpointError(
                f"{path}: meta/fusion_mode {code.tolist()} is not one of "
                f"the mode codes 0..{len(MODES) - 1}")
        mode = MODES[int(code[0])]
        model = cls(fusion_mode=mode, seed=0)
        owned = dict(model.named_tensors())
        for name in items:
            if not name.startswith("meta/") and name not in owned:
                raise checkpoint.CheckpointError(
                    f"{path}: tensor {name!r} is not a parameter of a "
                    f"{mode!r} model")
        for name, t in owned.items():
            if name not in items:
                raise checkpoint.CheckpointError(f"{path}: missing tensor {name!r}")
            if items[name].shape != t.data.shape:
                raise checkpoint.CheckpointError(
                    f"{path}: tensor {name!r} has shape {items[name].shape}, "
                    f"expected {t.data.shape}")
            if not np.all(np.isfinite(items[name])):
                raise checkpoint.CheckpointError(
                    f"{path}: tensor {name!r} holds a nan or infinite value")
            with np.errstate(over="ignore"):
                data = items[name].astype(DTYPE)
            if not np.all(np.isfinite(data)):
                raise checkpoint.CheckpointError(
                    f"{path}: tensor {name!r} holds a value outside the "
                    f"{np.dtype(DTYPE).name} range")
            t.data = data
        return model
