"""Online optimizer for the target model and its inference-time memory.

The optimizer minimizes 0.5 * ||r(tau)||^2 for a recorded residual map.
Each outer Gauss-Newton iteration solves the damped normal equations
(J^T J + mu I) delta = -J^T r by conjugate gradients using only
Jacobian-vector products, so J^T J is never materialized; ``cg_residuals``
reports the relative residual of that solve as CG's own recurrence tracks
it, at no extra product.  A halving line search accepts the first step
length that does not increase the loss (at most 8 halvings; the step is
rejected outright if none does), which makes the loss provably
non-increasing across a call.  Every trial is recorded as a linearization,
and the accepted one is the next iteration's, so a call evaluates r once per
outer iteration plus once at the start when every step is accepted.
Steepest descent with an exact line search on the quadratic model is
available as a fallback mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .fusion import FusionParams
from .target_model import (TargetModelParams, TargetSample, residual_and_loss,
                           stack_samples)

__all__ = [
    "NumericalError",
    "LearnerConfig",
    "OptimizeResult",
    "gauss_newton",
    "steepest_descent",
    "MemoryBuffer",
    "optimize",
]


class NumericalError(RuntimeError):
    """The optimization produced a non-finite quantity."""


@dataclass
class LearnerConfig:
    mode: str = "gauss_newton"        # "gauss_newton" | "steepest_descent"
    outer_iters_init: int = 5
    outer_iters_update: int = 2
    cg_iters: int = 10
    damping: float = 1e-4
    sd_steps: int = 20
    max_halvings: int = 8

    def __post_init__(self):
        if self.outer_iters_init < 1 or self.outer_iters_update < 1:
            raise ValueError("iteration counts must be >= 1")
        if self.cg_iters < 1 or self.sd_steps < 1:
            raise ValueError("iteration counts must be >= 1")
        if self.damping < 0.0:
            raise ValueError("damping must be >= 0")
        if self.mode not in ("gauss_newton", "steepest_descent"):
            raise ValueError(f"unknown learner mode {self.mode!r}")


@dataclass
class OptimizeResult:
    params: object
    losses: list                      # loss before plus after each outer step
    cg_residuals: list = field(default_factory=list)


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
                       tol_rel: float = 1e-12) -> tuple[np.ndarray, float]:
    """Approximate solution x of A x = b, and its relative residual
    ||b - A x|| / ||b|| as CG's own recurrence tracks it (0 for b = 0)."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    bnorm = np.sqrt(rs)
    stop = tol_rel * bnorm
    for _ in range(iters):
        if np.sqrt(rs) <= stop:
            break
        ap = matvec(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            break
        alpha = rs / pap
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, (float(np.sqrt(rs) / bnorm) if bnorm > 0.0 else 0.0)


def _line_search(residual_fn, params, direction_blocks, loss0, max_halvings):
    """First step length in 1, 1/2, ... that does not increase the loss.

    Each trial is recorded as a Linearization.  Returns the accepted trial's
    loss and linearization, which the next outer iteration reuses, or
    ``(loss0, None)`` with the iterate restored when no step is accepted.
    """
    base = [p.data.copy() for p in params]
    alpha = 1.0
    for _ in range(max_halvings + 1):
        for p, b, d in zip(params, base, direction_blocks):
            p.data = b + alpha * d
        lin = ad.linearize(residual_fn, params)
        trial = _loss_of(lin.value())
        if np.isfinite(trial) and trial <= loss0:
            return trial, lin
        del lin                          # before the next trial records its tape
        alpha *= 0.5
    for p, b in zip(params, base):   # no acceptable step; keep the iterate
        p.data = b
    return loss0, None


def gauss_newton(residual_fn: Callable, params: Sequence[Tensor], outer_iters: int,
                 cfg: LearnerConfig) -> OptimizeResult:
    """Damped Gauss-Newton with matrix-free CG inner solves; mutates params."""
    params = list(params)
    shapes = [p.data.shape for p in params]
    lin = ad.linearize(residual_fn, params)
    losses = [_loss_of(lin.value())]
    cg_resids = []
    if not np.isfinite(losses[0]):
        raise NumericalError("non-finite loss at outer iteration 0")
    mu = cfg.damping
    for n in range(outer_iters):
        if lin is None:                  # every trial step was rejected
            lin = ad.linearize(residual_fn, params)
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
            jv = lin.jvp(_unflatten(v, shapes))
            jtjv = _flatten(lin.vjp(jv))
            return jtjv + mu * v

        delta, resid = conjugate_gradient(matvec, b, cfg.cg_iters)
        cg_resids.append(resid)
        lin = None                       # release its tape before the trials
        new_loss, lin = _line_search(residual_fn, params, _unflatten(delta, shapes),
                                     loss, cfg.max_halvings)
        losses.append(new_loss)
    for a, bb in zip(losses, losses[1:]):
        assert bb <= a, "line search must keep the loss non-increasing"
    return OptimizeResult(params=params, losses=losses, cg_residuals=cg_resids)


def steepest_descent(residual_fn: Callable, params: Sequence[Tensor], steps: int,
                     cfg: LearnerConfig) -> OptimizeResult:
    """Gradient steps with the exact line search of the quadratic model."""
    params = list(params)
    shapes = [p.data.shape for p in params]
    lin = ad.linearize(residual_fn, params)
    losses = [_loss_of(lin.value())]
    if not np.isfinite(losses[0]):
        raise NumericalError("non-finite loss at step 0")
    for _ in range(steps):
        if lin is None:                  # every trial step was rejected
            lin = ad.linearize(residual_fn, params)
        r = lin.value()
        loss = losses[-1]
        g = _flatten(lin.vjp(r))                        # J^T r
        gnorm2 = float(g @ g)
        if gnorm2 == 0.0:
            losses.append(loss)
            break
        jg = lin.jvp(_unflatten(g, shapes))
        denom = float(sum(np.sum(v * v) for v in jg)) + cfg.damping * gnorm2
        if denom <= 0.0:
            losses.append(loss)
            break
        eta = gnorm2 / denom
        lin = None                       # release its tape before the trials
        new_loss, lin = _line_search(residual_fn, params,
                                     _unflatten(-eta * g, shapes), loss,
                                     cfg.max_halvings)
        losses.append(new_loss)
    for a, b in zip(losses, losses[1:]):
        assert b <= a, "line search must keep the loss non-increasing"
    return OptimizeResult(params=params, losses=losses)


@dataclass
class _Entry:
    sample: TargetSample
    pinned: bool
    order: int


class MemoryBuffer:
    """Bounded store of regression samples; the pinned entry is never evicted.

    Unpinned sample weights decay geometrically with age relative to the
    newest insertion; the pinned (first annotated) entry keeps the maximal
    weight throughout.
    """

    def __init__(self, capacity: int = 8, decay: float = 0.9,
                 pinned_weight: float = 2.0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.decay = decay
        self.pinned_weight = pinned_weight
        self._entries: list[_Entry] = []
        self._counter = 0

    def __len__(self):
        return len(self._entries)

    def add(self, sample: TargetSample, pinned: bool = False) -> None:
        if len(self._entries) >= self.capacity:
            for i, e in enumerate(self._entries):
                if not e.pinned:
                    del self._entries[i]
                    break
            else:
                raise ValueError("buffer full of pinned entries")
        self._entries.append(_Entry(sample=sample, pinned=pinned,
                                    order=self._counter))
        self._counter += 1

    def samples(self) -> tuple[list, list]:
        newest = max(e.order for e in self._entries)
        out, weights = [], []
        for e in self._entries:
            out.append(e.sample)
            if e.pinned:
                weights.append(self.pinned_weight)
            else:
                weights.append(self.decay ** (newest - e.order))
        return out, weights


def optimize(params: TargetModelParams, buffer: MemoryBuffer,
             fusion: FusionParams, cfg: LearnerConfig,
             outer_iters: Optional[int] = None) -> OptimizeResult:
    """Fit the target model to the buffer contents; loss never increases."""
    if len(buffer) == 0:
        raise ValueError("optimize: empty buffer")
    batch = stack_samples(*buffer.samples())
    tensors = params.tensors()

    def residual_fn(_):
        r, _loss = residual_and_loss([batch], params, fusion)
        return r

    if cfg.mode == "steepest_descent":
        res = steepest_descent(residual_fn, tensors, cfg.sd_steps, cfg)
    else:
        iters = outer_iters if outer_iters is not None else cfg.outer_iters_init
        res = gauss_newton(residual_fn, tensors, iters, cfg)
    res.params = params
    return res
