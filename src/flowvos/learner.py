"""Online Gauss-Newton learner for the target model, and its window memory.

The optimizer minimizes 0.5 * ||r(tau)||^2 for a recorded residual map, the
one tensor that a zero-argument function returns.  Each outer Gauss-Newton
iteration solves the damped normal equations (J^T J + mu I) delta = -J^T r
by preconditioned conjugate gradients using only Jacobian-vector products,
so J^T J is never materialized; ``cg_residuals`` reports the relative
residual of that solve as CG's own recurrence tracks it, at no extra
product.  ``optimize`` preconditions with the Kronecker structure of the
target model's filters (``kronecker_preconditioner``), one block per object
and filter in one form for every branch, rebuilt at every outer iteration
from the current filters and the Grams of the fusion's branch maps
(``fusion.output_maps``; I for the identity).  It builds what the batch
fixes once per call: a branch's input factors, which every object shares,
only if a block reads them.
A halving line search accepts the first step length that does not increase
the loss (at most 8 halvings), which makes the loss provably non-increasing
across a call.  When none does, the step is rejected and the call ends,
since the next iteration would repeat it.  Every trial is recorded as a
linearization, and the accepted one is the next iteration's, so a call
evaluates r once at the start and once per trial.  ``OptimizeResult``
reports the losses, the CG residuals, the matvec count and each step's
halvings and rejections.  ``gauss_newton`` takes its CG budget and damping
as arguments; ``optimize`` reads them from the ``RunConfig``, whose check
bounds them.

Every parameter has a leading object axis of K independent problems, one
per object (K = 1 in training's fit): the residual has one row per object,
and every product, residual and preconditioner serves all of them at once.
Each object keeps its own CG scalars, step length, rejection and losses,
so its iterates are those of its own fit; an object that is rejected, or
reaches a zero gradient, stops while the others go on.

At inference the fits read a ``MemoryBuffer``, the memory of a sequence:
the annotated first frame, pinned, and the newest predicted frames under
decaying weights, each frame one sample of every object on the frame's
features.
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
    object_losses: list               # each object's loss at the start, then per outer iteration
    cg_residuals: list = field(default_factory=list)   # per solved step, the objects' largest
    halvings: list = field(default_factory=list)       # per step, the most any object took
    rejected: list = field(default_factory=list)       # per step, objects that kept no step length
    matvecs: int = 0                  # (J^T J + mu I) v products over every solve

    @property
    def losses(self) -> list:
        """The loss summed over the objects, at the start and after each
        outer iteration."""
        return [float(np.sum(losses)) for losses in self.object_losses]


def _flatten(arrs: Sequence[np.ndarray]) -> np.ndarray:
    """The K-stacked arrays as one K x P matrix, row k holding object k's
    entries."""
    return np.concatenate([a.reshape(len(a), -1) for a in arrs], axis=1)


def _unflatten(vec: np.ndarray, shapes) -> list:
    out, i = [], 0
    for sh in shapes:
        n = int(np.prod(sh[1:]))
        out.append(vec[:, i:i + n].reshape(sh))
        i += n
    return out


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The inner product of each row pair, one BLAS dot per row, in float64."""
    return np.array([float(u @ v) for u, v in zip(a, b)])


def _per_row(values: np.ndarray, like: np.ndarray) -> np.ndarray:
    """One value per row (or per object) of ``like``, shaped to broadcast
    over its rows; floats take its dtype."""
    if values.dtype.kind == "f":
        values = values.astype(like.dtype)
    return values.reshape((-1,) + (1,) * (like.ndim - 1))


def _object_losses(r: np.ndarray) -> np.ndarray:
    """0.5 * ||r_k||^2 for each object's row r_k of the K x ... residual."""
    return 0.5 * np.sum((r * r).reshape(len(r), -1), axis=1).astype(np.float64)


def conjugate_gradient(matvec: Callable, b: np.ndarray, iters: int,
                       preconditioner: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Approximate solutions x of A x = b for the K independent systems of
    a K x P ``b``, one per row, that share each product with a
    row-block-diagonal A, and each row's relative residual
    ||b - A x|| / ||b|| as CG's own recurrence tracks it (0 for b = 0).

    Every row keeps its own step lengths and stop test, and stops early,
    keeping its iterate, once its residual falls to 1e-12.
    ``preconditioner`` maps a K x P residual v to P v for a symmetric
    positive definite P close to A^-1, block diagonal like A; the identity
    gives plain CG.  A call that runs all ``iters`` iterations applies it
    ``iters`` times.
    """
    x = np.zeros_like(b)
    r = b.copy()
    z = preconditioner(r)
    p = z.copy()
    rr = _dots(r, r)
    rz = _dots(r, z)
    bnorm = np.sqrt(rr)
    stop = 1e-12 * bnorm
    live = np.ones(len(b), dtype=bool)
    for i in range(iters):
        live &= np.sqrt(rr) > stop
        if not live.any():
            break
        ap = matvec(p)
        pap = _dots(p, ap)
        live &= pap > 0.0
        if not live.any():
            break
        alpha = np.zeros_like(rz)
        alpha[live] = rz[live] / pap[live]
        x += _per_row(alpha, x) * p
        r -= _per_row(alpha, r) * ap
        rr = _dots(r, r)
        if i == iters - 1:
            break                  # no further step reads z, beta or p
        z = preconditioner(r)
        rz_new = _dots(r, z)
        beta = np.zeros_like(rz)
        beta[live] = rz_new[live] / rz[live]
        p = np.where(live[:, None], z + _per_row(beta, p) * p, 0.0)
        rz = np.where(live, rz_new, rz)
    resid = np.zeros_like(rr)
    solved = bnorm > 0.0
    resid[solved] = np.sqrt(rr[solved]) / bnorm[solved]
    return x, resid


def _line_search(residual_fn, params, direction_blocks, loss0, fitting, max_halvings):
    """For each fitting object, the first step length in 1, 1/2, ... that
    does not increase its loss.

    Each trial moves the objects still searching, leaves the others where
    they are, and is recorded as one Linearization.  Returns the objects'
    losses, the last trial's linearization, which the next outer iteration
    reuses, the halvings before that trial, and the mask of the objects that
    no step length kept: their iterate is restored, and the linearization
    is not at it.
    """
    base = [p.data.copy() for p in params]
    step = fitting.astype(np.float64)    # a settled object's step length, 0 if not fitting
    searching = fitting.copy()
    loss = loss0.copy()
    for halvings in range(max_halvings + 1):
        lin = None                       # release its tape before the next trial records
        for p, b, d in zip(params, base, direction_blocks):
            p.data = b + _per_row(step, b) * d
        lin = Linearization(residual_fn, params)
        trial = _object_losses(lin.value())
        accepted = searching & np.isfinite(trial) & (trial <= loss0)
        loss[accepted] = trial[accepted]
        searching &= ~accepted
        if not searching.any():
            break
        step[searching] *= 0.5
    if searching.any():                  # no acceptable step; keep these iterates
        for p, b in zip(params, base):
            p.data = np.where(_per_row(searching, b), b, p.data)
    return loss, lin, halvings, searching


def gauss_newton(residual_fn: Callable, params: Sequence[Tensor], outer_iters: int,
                 cg_iters: int, damping: float, make_preconditioner: Callable,
                 max_halvings: int = 8) -> OptimizeResult:
    """Damped Gauss-Newton with matrix-free CG on ``residual_fn()``; mutates params.

    Each outer iteration runs ``cg_iters`` preconditioned CG iterations on
    the normal equations damped by ``damping``.  ``make_preconditioner()`` is
    called once per outer iteration, at the current iterate, and its result
    is passed to ``conjugate_gradient``.

    Every parameter and the residual have a leading axis of K independent
    problems, object k's residual depending on its own parameters only.
    They run in lockstep, one residual and one product serving all, while
    each keeps its own CG scalars, step length and losses, so each object's
    iterates are those of its own fit.  An object whose gradient is zero, or
    whose step is rejected, keeps its parameters for the rest of the call,
    and the call ends when no object is left fitting.
    """
    params = list(params)
    shapes = [p.data.shape for p in params]
    lin = Linearization(residual_fn, params)
    loss = _object_losses(lin.value())
    res = OptimizeResult(object_losses=[loss])
    if not np.all(np.isfinite(loss)):
        raise NumericalError("non-finite loss at outer iteration 0")
    fitting = np.ones(len(loss), dtype=bool)
    for n in range(outer_iters):
        b = -_flatten(lin.vjp(lin.value()))                     # -J^T r
        if not np.all(np.isfinite(b)):
            raise NumericalError(f"non-finite gradient at outer iteration {n}")
        fitting &= _dots(b, b) > 0.0
        if not fitting.any():
            res.object_losses.append(loss)
            break
        b[~fitting] = 0.0

        def matvec(v):
            res.matvecs += 1
            jv = lin.jvp(_unflatten(v, shapes))
            jtjv = _flatten(lin.vjp(jv))
            return jtjv + damping * v

        delta, resid = conjugate_gradient(matvec, b, cg_iters, make_preconditioner())
        res.cg_residuals.append(float(resid.max()))
        lin = None                       # release its tape before the trials
        loss, lin, halvings, rejected = _line_search(
            residual_fn, params, _unflatten(delta, shapes), loss, fitting,
            max_halvings)
        res.object_losses.append(loss)
        res.halvings.append(halvings)
        res.rejected.append(int(rejected.sum()))
        fitting &= ~rejected             # its next iteration would repeat this step
        if not fitting.any():
            break
    for a, bb in zip(res.object_losses, res.object_losses[1:]):
        assert np.all(bb <= a), "line search must keep each loss non-increasing"
    return res


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (clipped at 0) and eigenvectors of symmetric PSD matrices."""
    vals, vecs = np.linalg.eigh(m)
    return np.maximum(vals, 0.0), vecs


def _positive(denom: np.ndarray, axes: tuple) -> np.ndarray:
    """Eigenvalues of damped blocks, floored so that each block, over
    ``axes``, inverts."""
    top = denom.max(axis=axes, keepdims=True)
    return np.where(top > 0.0, np.maximum(denom, 1e-10 * top), 1.0)


def _t(m: np.ndarray) -> np.ndarray:
    """The transpose of a matrix, or of each matrix of a stack."""
    return m.swapaxes(-1, -2)


def _input_factors(x: np.ndarray, root: np.ndarray) -> tuple:
    """The eigendecomposition of the input Gram G_x of each N x C x H x W
    batch of the input x, ... x N x C x H x W, its frames read under their
    root weights, N x 1 x 1 x 1: one factor per leading index, one for a
    single batch."""
    xw = (x * root).swapaxes(-4, -3)
    xw = xw.reshape(xw.shape[:-3] + (-1,))
    return _eigh(xw @ _t(xw))


def _branch_inverse(x: np.ndarray, root: np.ndarray, input_factors: tuple, pair,
                    s_out: np.ndarray, damp: float) -> Callable:
    """v_a, v_b -> the approximate inverse curvature of one branch's filters
    applied to v_a (reduce filter A) and v_b (expand filter B), each shaped
    like its K-stacked filter.

    x is the branch's N x C x H x W input, root its frames' root weights,
    N x 1 x 1 x 1, ``input_factors`` the eigendecomposition of the G_x that
    every object shares, from ``_input_factors``, and s_out the L x L Gram
    T^T T of the fusion's linear map T of the branch output, K x L x L where
    the map differs per object.  Block B inverts S_out (x) G_c (x) G_t +
    damp I, the Kronecker split of the weighted im2col Gram of Y = A x into
    its channel (M x M) and tap (9 x 9) factors; block A inverts the K-FAC
    factors (sum_t B_t^T S_out B_t) (x) G_x + damp I.  Each object has its
    own blocks, which share G_x.
    """
    a, b = pair[0].data[..., 0, 0], pair[1].data
    k = len(a)
    (n, c, h, wd), m, lab = x.shape, a.shape[-2], b.shape[-4]
    y = np.matmul(a[..., None, :, :], x.reshape(n, c, h * wd)).reshape(k, n, m, h, wd)
    ypad = np.zeros(y.shape[:-2] + (h + 2, wd + 2), dtype=y.dtype)
    ypad[..., 1:-1, 1:-1] = y
    taps = np.empty((k, 9, n, m, h, wd), dtype=y.dtype)          # K x 9 x N x M x H x W
    for t in range(9):                   # tap (i, j) = (t // 3, t % 3), weighted in place
        np.multiply(ypad[..., t // 3:t // 3 + h, t % 3:t % 3 + wd], root,
                    out=taps[..., t, :, :, :, :])
    centre = taps[..., 4, :, :, :, :].swapaxes(-4, -3).reshape(k, m, -1)
    g_c = centre @ _t(centre)
    flat = taps.reshape(k, 9, -1)
    trace = np.trace(g_c, axis1=-2, axis2=-1)[..., None, None]
    g_t = flat @ _t(flat) / np.where(trace > 0.0, trace, 1.0)

    (ls, us), (lc, uc), (lt, ut) = _eigh(s_out), _eigh(g_c), _eigh(g_t)
    den_b = ls[..., :, None, None] * (lc[..., None, :, None] * lt[..., None, None, :])
    den_b = _positive(den_b + damp, (-3, -2, -1))                # K x L x M x 9
    rows = _t(b.reshape(k, lab, m, 9)).reshape(k, lab * 9, m)   # B_t over (l, t)
    s_rows = _t((s_out @ b.reshape(k, lab, -1)).reshape(k, lab, m, 9))
    lf, uf = _eigh(_t(rows) @ s_rows.reshape(k, lab * 9, m))
    lx, ux = input_factors
    den_a = _positive(lf[..., :, None] * lx[..., None, :] + damp, (-2, -1))

    def inverse(va: np.ndarray, vb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = (_t(us) @ vb.reshape(k, lab, -1)).reshape(k, lab, m, 9)
        t = np.matmul(_t(uc)[..., None, :, :], t) @ ut[..., None, :, :]
        t = np.matmul(uc[..., None, :, :], t / den_b) @ _t(ut)[..., None, :, :]
        out_b = us @ t.reshape(k, lab, -1)
        out_a = uf @ ((_t(uf) @ va.reshape(k, m, c) @ ux) / den_a) @ _t(ux)
        return out_a, out_b

    return inverse


def kronecker_preconditioner(batch: TargetSample, fusion: FusionParams,
                             mu: float) -> Callable:
    """params -> (v -> P v), the preconditioner of the fits on ``batch``:
    a block-diagonal approximate inverse of the damped GN matrix J^T J + mu I
    of ``residual_and_loss`` at the filters ``params``.

    ``batch`` is a batch from ``stack_samples``, and v a K x P stack, one row
    per object.  One Kronecker block per object and filter (see
    ``_branch_inverse``), damped by reg_lambda + mu, with each frame read
    under the batch's root of its weight.  A branch's output Gram S_out is
    T^T T for its map T from ``output_maps``, and I where T is the identity;
    where S_out = 0 both blocks are damp I.  P is symmetric positive
    definite.  Only the branches that the fusion reads get a block, and the
    branch outputs are computed only when a map reads them.

    The preconditioner owns what the batch fixes: each branch's G_x factors,
    one eigendecomposition that every object shares, built at the first
    block that reads them, so a branch whose S_out is 0 never builds them.
    """
    root = batch.root.data[:, None, None, None]
    factors: dict = {}                   # branch index -> its G_x factors

    def precondition(params: TargetModelParams) -> Callable:
        damp = params.reg_lambda + mu
        maps = output_maps(fusion, lambda: (branch_filters(batch.l3_im, params.tau1),
                                            branch_filters(batch.l3_fl, params.tau2)))
        scale = 1.0 / damp if damp > 0.0 else 1.0
        inverses = []
        for i, (x, pair, t) in enumerate(zip((batch.l3_im, batch.l3_fl),
                                             (params.tau1, params.tau2), maps)):
            expand = pair[1].data
            s_out = (np.eye(expand.shape[-4], dtype=expand.dtype) if t is None
                     else _t(t) @ t)
            if not np.any(s_out):
                # S_out = 0: both blocks are damp I
                inverses.append(lambda va, vb: (scale * va, scale * vb))
                continue
            if i not in factors:
                factors[i] = _input_factors(x.data, root)
            inverses.append(_branch_inverse(x.data, root, factors[i], pair, s_out, damp))
        shapes = [t.shape for t in params.tensors()]

        def apply(v: np.ndarray) -> np.ndarray:
            blocks = _unflatten(v, shapes)
            return _flatten([out for k, inverse in enumerate(inverses)
                             for out in inverse(blocks[2 * k], blocks[2 * k + 1])])

        return apply

    return precondition


class MemoryBuffer:
    """The learner's memory of one sequence: the first frame added, pinned,
    and a window of the newest ``capacity - 1`` frames after it, each frame
    one sample of every object.

    A pinned frame weighs ``pinned_weight``; a windowed one weighs
    ``decay ** age``, where the newest frame has age 0.
    """

    def __init__(self, capacity: int, decay: float, pinned_weight: float):
        self.decay = decay
        self.pinned_weight = pinned_weight
        self.pinned: Optional[TargetSample] = None
        self.recent: deque = deque(maxlen=capacity - 1)

    def add(self, frame: TargetSample) -> None:
        if self.pinned is None:
            self.pinned = frame
        else:
            self.recent.append(frame)

    def batch(self) -> TargetSample:
        """The frames stacked under their weights."""
        n = len(self.recent)
        weights = [self.pinned_weight] + [self.decay ** (n - 1 - i) for i in range(n)]
        return stack_samples([self.pinned, *self.recent], weights)


def optimize(params: TargetModelParams, batch: TargetSample,
             fusion: FusionParams, cfg: RunConfig, *,
             outer_iters: int) -> OptimizeResult:
    """Fit the target model to a batch from ``stack_samples`` in
    ``outer_iters`` outer iterations; loss never increases.  The K objects
    fit jointly, each to its own targets of the batch, with the
    iterates of its own fit.  One ``kronecker_preconditioner`` of the batch
    serves the call: each outer iteration takes its block for the current
    filters, and what the batch fixes is built at most once."""
    precondition = kronecker_preconditioner(batch, fusion, cfg.learner_damping)

    def residual_fn():
        return residual_and_loss(batch, params, fusion)[0]

    return gauss_newton(residual_fn, params.tensors(), outer_iters, cfg.learner_cg_iters,
                        cfg.learner_damping, lambda: precondition(params))
