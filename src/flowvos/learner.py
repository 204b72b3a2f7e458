"""Online Gauss-Newton learner for the target model, and its window memory.

The optimizer minimizes 0.5 * ||r(tau)||^2 for a recorded residual map.
Each outer Gauss-Newton iteration solves the damped normal equations
(J^T J + mu I) delta = -J^T r by conjugate gradients using only
Jacobian-vector products, so J^T J is never materialized; ``cg_residuals``
reports the relative residual of that solve as CG's own recurrence tracks
it, at no extra product.  ``optimize`` preconditions CG with the Kronecker
structure of the target model's filters (``kronecker_preconditioner``), one
block per filter, rebuilt at every outer iteration from the fusion's branch
maps (``fusion.output_maps``); ``gauss_newton`` without a preconditioner is
plain CG.  A halving line search accepts the first step length that does
not increase the loss (at most 8 halvings), which makes the loss provably
non-increasing across a call.  When none does, the step is rejected and the
call ends, since the next iteration would repeat it.  Every trial is
recorded as a linearization, and the accepted one is the next iteration's,
so a call evaluates r once at the start and once per trial.
``OptimizeResult`` reports the losses, the CG residuals, the matvec count
and each step's halvings and rejection.  ``gauss_newton`` takes its CG
budget and damping as arguments; ``optimize`` reads them from the
``RunConfig``, whose check bounds them.

At inference the fits read a ``MemoryBuffer``, the memory of a sequence:
the annotated first frame, pinned, and the newest predicted frames under
decaying weights, each frame holding one sample per object.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .autodiff import Linearization, Tensor
from .config import RunConfig
from .fusion import FusionParams, output_maps
from .target_model import (TargetModelParams, TargetSample, branch_filters,
                           residual_and_loss, stack_samples)

__all__ = [
    "NumericalError",
    "OptimizeResult",
    "conjugate_gradient",
    "gauss_newton",
    "kronecker_preconditioner",
    "MemoryBuffer",
    "optimize",
]


class NumericalError(RuntimeError):
    """The optimization produced a non-finite quantity."""


@dataclass
class OptimizeResult:
    losses: list                      # loss at the start, then after each outer iteration
    cg_residuals: list = field(default_factory=list)   # one per solved step
    halvings: list = field(default_factory=list)       # line-search halvings, per step
    rejected: list = field(default_factory=list)       # True where no step length was kept
    matvecs: int = 0                  # (J^T J + mu I) v products over every solve


def _flatten(arrs: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.reshape(-1) for a in arrs])


def _unflatten(vec: np.ndarray, shapes) -> list:
    out, i = [], 0
    for sh in shapes:
        n = int(np.prod(sh))
        out.append(vec[i:i + n].reshape(sh))
        i += n
    return out


def _loss_of(values) -> float:
    return 0.5 * float(sum(np.sum(v * v) for v in values))


def conjugate_gradient(matvec: Callable, b: np.ndarray, iters: int,
                       preconditioner: Optional[Callable] = None
                       ) -> tuple[np.ndarray, float]:
    """Approximate solution x of A x = b, and its relative residual
    ||b - A x|| / ||b|| as CG's own recurrence tracks it (0 for b = 0).
    It stops early once that residual falls to 1e-12.

    ``preconditioner`` maps a residual v to P v for a symmetric positive
    definite P close to A^-1; without one this is plain CG.
    """
    if preconditioner is None:
        def preconditioner(v):
            return v
    x = np.zeros_like(b)
    r = b.copy()
    z = preconditioner(r)
    p = z.copy()
    rr = float(r @ r)
    rz = float(r @ z)
    bnorm = np.sqrt(rr)
    stop = 1e-12 * bnorm
    for _ in range(iters):
        if np.sqrt(rr) <= stop:
            break
        ap = matvec(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            break
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rr = float(r @ r)
        z = preconditioner(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, (float(np.sqrt(rr) / bnorm) if bnorm > 0.0 else 0.0)


def _line_search(residual_fn, params, direction_blocks, loss0, max_halvings):
    """First step length in 1, 1/2, ... that does not increase the loss.

    Each trial is recorded as a Linearization.  Returns the accepted trial's
    loss, its linearization, which the next outer iteration reuses, and the
    number of halvings before it; or ``(loss0, None, max_halvings)`` with the
    iterate restored when no step is accepted.
    """
    base = [p.data.copy() for p in params]
    alpha = 1.0
    for halvings in range(max_halvings + 1):
        for p, b, d in zip(params, base, direction_blocks):
            p.data = b + alpha * d
        lin = Linearization(residual_fn, params)
        trial = _loss_of(lin.value())
        if np.isfinite(trial) and trial <= loss0:
            return trial, lin, halvings
        del lin                          # before the next trial records its tape
        alpha *= 0.5
    for p, b in zip(params, base):   # no acceptable step; keep the iterate
        p.data = b
    return loss0, None, max_halvings


def gauss_newton(residual_fn: Callable, params: Sequence[Tensor], outer_iters: int,
                 cg_iters: int, damping: float,
                 make_preconditioner: Optional[Callable] = None,
                 max_halvings: int = 8) -> OptimizeResult:
    """Damped Gauss-Newton with matrix-free CG inner solves; mutates params.

    Each outer iteration runs ``cg_iters`` CG iterations on the normal
    equations damped by ``damping``.  ``make_preconditioner()`` is called once
    per outer iteration, at the current iterate, and its result is passed to
    ``conjugate_gradient``.
    """
    params = list(params)
    shapes = [p.data.shape for p in params]
    lin = Linearization(residual_fn, params)
    res = OptimizeResult(losses=[_loss_of(lin.value())])
    losses = res.losses
    if not np.isfinite(losses[0]):
        raise NumericalError("non-finite loss at outer iteration 0")
    for n in range(outer_iters):
        r = lin.value()
        loss = losses[-1]
        b = -_flatten(lin.vjp(r))                       # -J^T r
        if not np.all(np.isfinite(b)):
            raise NumericalError(f"non-finite gradient at outer iteration {n}")
        bnorm = float(np.linalg.norm(b))
        if bnorm == 0.0:
            losses.append(loss)
            break

        def matvec(v):
            res.matvecs += 1
            jv = lin.jvp(_unflatten(v, shapes))
            jtjv = _flatten(lin.vjp(jv))
            return jtjv + damping * v

        precond = None if make_preconditioner is None else make_preconditioner()
        delta, resid = conjugate_gradient(matvec, b, cg_iters,
                                          preconditioner=precond)
        res.cg_residuals.append(resid)
        lin = None                       # release its tape before the trials
        new_loss, lin, halvings = _line_search(
            residual_fn, params, _unflatten(delta, shapes), loss, max_halvings)
        losses.append(new_loss)
        res.halvings.append(halvings)
        res.rejected.append(lin is None)
        if lin is None:                  # the next iteration would repeat this step
            break
    for a, bb in zip(losses, losses[1:]):
        assert bb <= a, "line search must keep the loss non-increasing"
    return res


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (clipped at 0) and eigenvectors of a symmetric PSD matrix."""
    vals, vecs = np.linalg.eigh(m)
    return np.maximum(vals, 0.0), vecs


def _positive(denom: np.ndarray) -> np.ndarray:
    """Eigenvalues of a damped block, floored so that the block inverts."""
    top = float(denom.max())
    return np.maximum(denom, 1e-10 * top) if top > 0.0 else np.ones_like(denom)


def _branch_inverse(x: np.ndarray, w2: np.ndarray, pair, s_out: np.ndarray,
                    damp: float) -> Callable:
    """v_a, v_b -> the approximate inverse curvature of one branch's filters
    applied to v_a (reduce filter A) and v_b (expand filter B), each shaped
    like its filter.

    x is the branch's N x C x H x W input, w2 the N x H x W squared
    importance weights and s_out the L x L Gram of the fusion's linear map of
    the branch output.  Block B inverts S_out (x) G_c (x) G_t + damp I, the
    Kronecker split of the weighted im2col Gram of Y = A x into its channel
    (M x M) and tap (9 x 9) factors; block A inverts the K-FAC factors
    (sum_t B_t^T S_out B_t) (x) G_x + damp I.  With S_out = 0 both blocks
    are damp I.
    """
    if not np.any(s_out):
        scale = 1.0 / damp if damp > 0.0 else 1.0
        return lambda va, vb: (scale * va, scale * vb)
    a, b = pair[0].data[:, :, 0, 0], pair[1].data
    (n, c, h, wd), m, lab = x.shape, a.shape[0], b.shape[0]
    root = np.sqrt(w2)[:, None]                        # N x 1 x H x W
    xw = (x * root).transpose(1, 0, 2, 3).reshape(c, -1)
    y = np.matmul(a, x.reshape(n, c, h * wd)).reshape(n, m, h, wd)
    ypad = np.pad(y, ((0, 0), (0, 0), (1, 1), (1, 1)))
    taps = np.stack([ypad[:, :, i:i + h, j:j + wd] * root
                     for i in range(3) for j in range(3)])   # 9 x N x M x H x W
    centre = taps[4].transpose(1, 0, 2, 3).reshape(m, -1)
    g_c = centre @ centre.T
    flat = taps.reshape(9, -1)
    trace = float(np.trace(g_c))
    g_t = flat @ flat.T / (trace if trace > 0.0 else 1.0)

    (ls, us), (lc, uc), (lt, ut) = _eigh(s_out), _eigh(g_c), _eigh(g_t)
    den_b = _positive(ls[:, None, None] * lc[None, :, None] * lt + damp)
    rows = b.reshape(lab, m, 9).transpose(0, 2, 1).reshape(lab * 9, m)   # B_t over (l, t)
    s_rows = (s_out @ b.reshape(lab, -1)).reshape(lab, m, 9).transpose(0, 2, 1)
    lf, uf = _eigh(rows.T @ s_rows.reshape(lab * 9, m))
    lx, ux = _eigh(xw @ xw.T)
    den_a = _positive(lf[:, None] * lx + damp)

    def inverse(va: np.ndarray, vb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = np.matmul(uc.T, (us.T @ vb.reshape(lab, -1)).reshape(lab, m, 9)) @ ut
        t = np.matmul(uc, t / den_b) @ ut.T
        out_b = us @ t.reshape(lab, -1)
        out_a = uf @ ((uf.T @ va.reshape(m, c) @ ux) / den_a) @ ux.T
        return out_a, out_b

    return inverse


def kronecker_preconditioner(batch: TargetSample, params: TargetModelParams,
                             fusion: FusionParams, mu: float) -> Callable:
    """v -> P v, a block-diagonal approximate inverse of the damped GN matrix
    J^T J + mu I of ``residual_and_loss`` at the current filters.

    ``batch`` is a stacked N x C x H x W batch.  One Kronecker block per
    filter (see ``_branch_inverse``), damped by reg_lambda + mu; the
    importance weights enter as w^2 averaged over the label channels at each
    pixel.  A branch's output Gram S_out is T^T T for its map T from
    ``output_maps``, the identity where T is.  P is symmetric positive
    definite.  Only the branches that the fusion reads get a block, and the
    branch outputs are computed only when a map reads them.
    """
    damp = params.reg_lambda + mu
    w2 = np.mean(batch.weights.data ** 2, axis=1)
    eye = np.eye(params.tau1[1].shape[0], dtype=params.tau1[1].data.dtype)
    maps = output_maps(fusion, lambda: (branch_filters(batch.l3_im, params.tau1),
                                        branch_filters(batch.l3_fl, params.tau2)))
    branches = zip((batch.l3_im, batch.l3_fl), (params.tau1, params.tau2), maps)
    inverses = [_branch_inverse(x.data, w2, pair, eye if t is None else t.T @ t, damp)
                for x, pair, t in branches]
    shapes = [t.shape for t in params.tensors()]

    def apply(v: np.ndarray) -> np.ndarray:
        blocks = _unflatten(v, shapes)
        return _flatten([out for k, inverse in enumerate(inverses)
                         for out in inverse(blocks[2 * k], blocks[2 * k + 1])])

    return apply


class MemoryBuffer:
    """The learner's memory of one sequence: the first frame added, pinned,
    and a window of the newest ``capacity - 1`` frames after it.  A frame
    maps each object to its sample, so every object's batch stacks the same
    frames under the same weights.

    A pinned sample weighs ``pinned_weight``; a windowed one weighs
    ``decay ** age``, where the newest frame has age 0.
    """

    def __init__(self, capacity: int, decay: float, pinned_weight: float):
        self.decay = decay
        self.pinned_weight = pinned_weight
        self.pinned: Optional[dict] = None
        self.recent: deque = deque(maxlen=capacity - 1)

    def add(self, frame: dict) -> None:
        if self.pinned is None:
            self.pinned = frame
        else:
            self.recent.append(frame)

    def batch(self, key) -> TargetSample:
        """Object ``key``'s samples, stacked with their weights."""
        n = len(self.recent)
        weights = [self.pinned_weight] + [self.decay ** (n - 1 - i) for i in range(n)]
        return stack_samples([self.pinned[key], *(f[key] for f in self.recent)], weights)


def optimize(params: TargetModelParams, batch: TargetSample,
             fusion: FusionParams, cfg: RunConfig, *,
             outer_iters: int) -> OptimizeResult:
    """Fit the target model to a batch from ``stack_samples`` in
    ``outer_iters`` outer iterations; loss never increases."""

    def residual_fn(_):
        return residual_and_loss(batch, params, fusion)[0]

    def make_preconditioner():
        return kronecker_preconditioner(batch, params, fusion, cfg.learner_damping)

    return gauss_newton(residual_fn, params.tensors(), outer_iters, cfg.learner_cg_iters,
                        cfg.learner_damping, make_preconditioner)
