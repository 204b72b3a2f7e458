"""Multi-modal channel attention and the two ablation fusion modes.

Attention mode computes query and value from the flow features and the key
from the image features via 1x1 projections, forms a C_v x C_k channel
attention map as rowsoftmax(V K^T / sqrt(HW)), remaps the query with it and
adds the projected result back onto the image features (skip connection).
Being channel-to-channel, the map is invariant to any spatial permutation
applied to both inputs.

Mode "concat" is a 1x1 projection of the channel-concatenated inputs and
mode "none" passes the image features through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import DTYPE, Tensor

MODES = ("none", "concat", "attention")


@dataclass
class FusionParams:
    mode: str
    wq: Optional[Tensor] = None   # flow -> query, C_in -> C_k
    wk: Optional[Tensor] = None   # image -> key, C_in -> C_k
    wv: Optional[Tensor] = None   # flow -> value, C_in -> C_v
    wo: Optional[Tensor] = None   # value -> output, C_v -> C_in
    wc: Optional[Tensor] = None   # concat mode, 2*C_in -> C_in

    @classmethod
    def init(cls, rng, mode: str, c_in: int):
        if mode not in MODES:
            raise ValueError(f"unknown fusion mode {mode!r}, expected one of {MODES}")
        p = cls(mode=mode)
        if mode == "attention":
            c_bottleneck = max(4, c_in // 2)

            def proj(c_out, c_src):
                w = rng.standard_normal((c_out, c_src, 1, 1)) * np.sqrt(2.0 / c_src)
                return Tensor(w.astype(DTYPE))

            p.wq = proj(c_bottleneck, c_in)
            p.wk = proj(c_bottleneck, c_in)
            p.wv = proj(c_bottleneck, c_in)
            # zero output projection: the block starts as the identity skip
            # and the flow pathway only grows as training demands it
            p.wo = Tensor(np.zeros((c_in, c_bottleneck, 1, 1), dtype=DTYPE))
        elif mode == "concat":
            w = rng.standard_normal((c_in, 2 * c_in, 1, 1)) * np.sqrt(2.0 / (2 * c_in))
            p.wc = Tensor(w.astype(DTYPE))
        return p

    def named_tensors(self, prefix: str):
        for name in ("wq", "wk", "wv", "wo", "wc"):
            t = getattr(self, name)
            if t is not None:
                yield f"{prefix}.{name}", t


def _flat(t: Tensor) -> Tensor:
    """N x C x H x W viewed as N x C x HW."""
    return ad.reshape(t, t.shape[:-2] + (t.shape[-2] * t.shape[-1],))


def attention_map(f_im: Tensor, f_fl: Tensor, params: FusionParams) -> Tensor:
    """The C_v x C_k channel attention maps of N x C x H x W image and flow
    features, N x C_v x C_k, one per sample; rows sum to 1."""
    hw = f_im.shape[-2] * f_im.shape[-1]
    kf = _flat(ad.conv2d(f_im, params.wk))
    vf = _flat(ad.conv2d(f_fl, params.wv))
    scores = ad.matmul(vf, ad.transpose2d(kf)) * (1.0 / np.sqrt(hw))
    return ad.softmax(scores, axis=-1)


def fuse(f_im: Tensor, f_fl: Optional[Tensor], params: FusionParams) -> Tensor:
    """Combine same-shape N x C x H x W image and flow feature maps; output
    keeps f_im's shape.  ``f_fl`` is None when the model has no flow branch,
    which only mode "none" accepts."""
    if params.mode == "none":
        return f_im
    if f_fl is None:
        raise ValueError(f"fusion mode {params.mode!r} needs flow features")
    if params.mode == "concat":
        return ad.conv2d(ad.concat([f_im, f_fl], axis=-3), params.wc)
    qf = _flat(ad.conv2d(f_fl, params.wq))
    m = attention_map(f_im, f_fl, params)
    remapped = ad.matmul(m, qf)                           # N x C_v x HW
    remapped = ad.reshape(remapped, remapped.shape[:-1] + f_im.shape[-2:])
    return ad.add(f_im, ad.conv2d(remapped, params.wo))


def output_maps(params: FusionParams, outputs: Callable) -> list:
    """Each branch's first-order channel map into the fused output, image
    branch first, for the branches that ``fuse`` reads; ``None`` is the
    identity.  Mode "none" maps the image branch by the identity, "concat"
    each branch by its half of wc, and "attention" the image branch by its
    skip's identity and the flow branch by wo M wq, with M the attention map
    averaged over each object's batch (zero while wo is), one map per
    object.  ``outputs()`` returns the image and flow branch outputs of the
    K objects that M reads, K x N x C x H x W; it is called only when wo is
    nonzero.
    """
    if params.mode == "none":
        return [None]
    if params.mode == "concat":
        return np.split(params.wc.data[:, :, 0, 0], 2, axis=1)
    wo = params.wo.data[:, :, 0, 0]
    if not np.any(wo):
        return [None, np.zeros((wo.shape[0],) * 2, dtype=wo.dtype)]
    f_im, f_fl = outputs()
    objects, n = f_im.shape[:2]
    batch = (objects * n,) + f_im.shape[2:]
    maps = attention_map(ad.reshape(f_im, batch), ad.reshape(f_fl, batch), params).data
    mean_map = maps.reshape((objects, n) + maps.shape[-2:]).mean(axis=1)
    return [None, wo @ mean_map @ params.wq.data[:, :, 0, 0]]
