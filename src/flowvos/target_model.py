"""The online-learned object representation and its weighted regression loss.

Per branch the target model is two composed linear filters with no
nonlinearity in between: a 1x1 channel-reducing convolution followed by a
3x3 convolution back up to the label channels.  The image- and flow-branch
outputs are combined by a fusion instance owned by the target model, and the
result is regressed, on every label channel, against the target of
``backbone.encode_label`` (the mask pooled to level 3) under one weight per
frame, plus an L2 penalty on the filters.  A frame weighs one until the
samples are stacked, which folds in the square root of each sample's
weight.  The loss is represented through a stacked residual vector r with
L = 0.5 * ||r||^2 exactly, which is what the Gauss-Newton learner
differentiates.

A target model holds the filters of K objects stacked along a leading
object axis; training fits one object, K = 1.  Every object reads the same
features: the 1x1 reduce runs once over them as a grouped convolution, the
fusion sees the K objects' outputs as one batch, and the residual is K x R,
one row per object, each row that object's residual alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import DTYPE, Tensor
from .fusion import FusionParams, fuse

MID_CHANNELS = 32
LABEL_CHANNELS = 16                  # the width of f_tm, which the decoder reads


@dataclass
class TargetSample:
    """Regression samples of N frames for K objects: the frozen level-3
    features, N x C x H x W, which every object shares, each object's
    pooled masks, K x N x 1 x H x W, and the square root of each frame's
    weight, N.  One frame's sample has N = 1 and a root of one.
    """

    l3_im: Tensor
    l3_fl: Optional[Tensor]
    target: Tensor
    root: Tensor


@dataclass
class TargetModelParams:
    tau1: tuple                      # image filters: 1x1 reduce K x M x C x 1 x 1,
                                     # then 3x3 expand K x L x M x 3 x 3
    tau2: Optional[tuple]            # flow filters; absent without a flow branch
    reg_lambda: float

    @classmethod
    def init_random(cls, rngs: list, c_in: int, label_channels: int, with_flow: bool,
                    reg_lambda: float, c_mid: int = MID_CHANNELS):
        """He-scaled filters in ``DTYPE`` (float64 draws, rounded), one object
        per generator of ``rngs``, each drawn from its own; both layers
        nonzero so the composed map has a nonzero Jacobian in every
        parameter block at the starting point."""
        def pair(rng):
            a = rng.standard_normal((c_mid, c_in, 1, 1)) * np.sqrt(2.0 / c_in)
            b = rng.standard_normal((label_channels, c_mid, 3, 3)) * np.sqrt(2.0 / (c_mid * 9))
            return a.astype(DTYPE), b.astype(DTYPE)

        def stacked(pairs):
            return tuple(Tensor(np.stack([p[i] for p in pairs])) for i in (0, 1))

        drawn = [(pair(rng), pair(rng) if with_flow else None) for rng in rngs]
        return cls(tau1=stacked([d[0] for d in drawn]),
                   tau2=stacked([d[1] for d in drawn]) if with_flow else None,
                   reg_lambda=reg_lambda)

    @property
    def objects(self) -> int:
        return self.tau1[0].shape[0]

    def tensors(self) -> list:
        ts = [self.tau1[0], self.tau1[1]]
        if self.tau2 is not None:
            ts += [self.tau2[0], self.tau2[1]]
        return ts


def branch_filters(feat: Tensor, pair) -> Tensor:
    return ad.conv2d(ad.conv2d(feat, pair[0]), pair[1])


def apply(l3_im: Tensor, l3_fl: Optional[Tensor], params: TargetModelParams,
          fusion: FusionParams) -> Tensor:
    """Target representation f_tm, K x N x L x H x W, of the K objects from
    an N x C x H x W batch of level-3 features of both branches; the flow
    filters run when the target model has them.  The fusion sees the K
    objects' outputs as one K*N batch."""
    f_x = branch_filters(l3_im, params.tau1)
    f_f = None if params.tau2 is None else branch_filters(l3_fl, params.tau2)
    shape = f_x.shape

    def merged(t):
        return None if t is None else ad.reshape(t, (shape[0] * shape[1],) + shape[2:])

    return ad.reshape(fuse(merged(f_x), merged(f_f), fusion), shape)


def stack_samples(samples: list, sample_weights: Optional[list] = None) -> TargetSample:
    """The samples as one batch, every tensor concatenated on its sample
    axis, with the square root of each sample's weight folded into its
    root.

    The stacked tensors are constants: no gradient flows back to the sample
    tensors.
    """
    def stack(arrays):                   # the sample axis precedes a frame's C x H x W
        return Tensor(np.concatenate(arrays, axis=-4))

    roots = [s.root.data for s in samples]
    if sample_weights is not None:
        roots = [a * float(np.sqrt(w)) for a, w in zip(roots, sample_weights)]
    with_flow = all(s.l3_fl is not None for s in samples)
    return TargetSample(l3_im=stack([s.l3_im.data for s in samples]),
                        l3_fl=stack([s.l3_fl.data for s in samples]) if with_flow else None,
                        target=stack([s.target.data for s in samples]),
                        root=Tensor(np.concatenate(roots)))


def residual_and_loss(batch: TargetSample, params: TargetModelParams,
                      fusion: FusionParams) -> tuple[Tensor, Tensor]:
    """Stacked residual r and the loss 0.5 * ||r||^2 over a batch from
    ``stack_samples``.

    Each sample contributes root * (f_tm - target), its root and its pooled
    masks spread over every label channel; the regularizer contributes
    sqrt(lambda) times the flattened filters.  The samples run as one batch,
    so the recorded tape has the same nodes for any number of samples.  The
    residual is K x R, object k's in row k, and the loss sums over the
    objects.
    """
    objects = params.objects

    def flat(t):
        return ad.reshape(t, (objects, t.size // objects))

    f_tm = apply(batch.l3_im, batch.l3_fl, params, fusion)

    def spread(a):                       # a read-only constant of f_tm's shape
        return Tensor(np.broadcast_to(a, f_tm.shape))

    misfit = ad.sub(f_tm, spread(batch.target.data))
    blocks = [flat(ad.mul(spread(batch.root.data[:, None, None, None]), misfit))]
    if params.reg_lambda > 0.0:
        root = float(np.sqrt(params.reg_lambda))
        for t in params.tensors():
            blocks.append(flat(t) * root)
    r = ad.concat(blocks, axis=-1)
    loss = ad.sumsq(r) * 0.5
    return r, loss
