import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from flowvos import autodiff as ad
from flowvos import pipeline
from flowvos.config import RunConfig
from flowvos.data_io import generate_synthetic, load_sequence, random_scene
from flowvos.fusion import FusionParams
from flowvos.model import Model
from flowvos.target_model import TargetModelParams, TargetSample

# every run draws the same examples and keeps no example database; hypothesis
# still caches source literals in .hypothesis/constants/, which .gitignore covers
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def float64(owner):
    """``owner``, a model or parameter set, with every tensor it holds cast
    to float64 in place.

    The program builds its parameters in float32 (``autodiff.DTYPE``).  A
    check whose tolerance was set for float64 arithmetic casts them and feeds
    float64 inputs, so its whole graph runs in float64.
    """
    if isinstance(owner, TargetModelParams):
        tensors = owner.tensors()
    elif isinstance(owner, Model):
        tensors = owner.offline_parameters()
    else:
        tensors = [t for _, t in owner.named_tensors("")]
    for t in tensors:
        t.data = t.data.astype(np.float64)
    return owner


def snapshot(params: TargetModelParams) -> TargetModelParams:
    """A copy of the filters that later fits leave untouched."""
    def dup(pair):
        return ad.Tensor(pair[0].data.copy()), ad.Tensor(pair[1].data.copy())

    return TargetModelParams(tau1=dup(params.tau1),
                             tau2=None if params.tau2 is None else dup(params.tau2),
                             reg_lambda=params.reg_lambda)


def plain_cg():
    """A ``make_preconditioner`` for ``gauss_newton`` that gives plain CG:
    the identity, P = I."""
    return lambda v: v


@dataclass
class FitProblem:
    """One ``optimize`` call as the pipeline made it: the starting filters,
    the stacked batch, the fusion and the outer-iteration budget."""

    params: TargetModelParams
    batch: TargetSample
    fusion: FusionParams
    outer_iters: int


def split_objects(problem: FitProblem) -> list:
    """A joint fit problem of K objects as K one-object problems (K = 1):
    each object's starting filters, and the batch's features and frame
    roots with that object's targets."""
    def pick(pair, k):
        return None if pair is None else tuple(ad.Tensor(t.data[k:k + 1].copy())
                                               for t in pair)

    params, batch = problem.params, problem.batch
    return [FitProblem(TargetModelParams(tau1=pick(params.tau1, k),
                                         tau2=pick(params.tau2, k),
                                         reg_lambda=params.reg_lambda),
                       TargetSample(l3_im=batch.l3_im, l3_fl=batch.l3_fl,
                                    target=ad.Tensor(batch.target.data[k:k + 1]),
                                    root=batch.root),
                       problem.fusion, problem.outer_iters)
            for k in range(params.objects)]


def capture_fit_problems(tmp_dir, seed: int = 3, frames: int = 9,
                         size: int = 64) -> list:
    """The fit problems of ``infer_sequence`` on a seeded size x size twin
    sequence (two identical objects told apart only by motion) with an
    untrained attention model and default learner settings: one joint
    problem of both objects per fitting frame."""
    scene = random_scene(size, size, frames, 2, seed, distractors=True)
    seq = load_sequence(generate_synthetic(scene, tmp_dir / "twins"))
    problems = []
    fit = pipeline.optimize

    def record(params, batch, fusion, cfg, *, outer_iters):
        problems.append(FitProblem(snapshot(params), batch, fusion, outer_iters))
        return fit(params, batch, fusion, cfg, outer_iters=outer_iters)

    pipeline.optimize = record
    try:
        pipeline.infer_sequence(pipeline.frame_sets(seq), seq.masks[0],
                                Model(fusion_mode="attention", seed=7),
                                RunConfig(seed=seed))
    finally:
        pipeline.optimize = fit
    return problems


@pytest.fixture(scope="session")
def joint_fit_problems(tmp_path_factory):
    return capture_fit_problems(tmp_path_factory.mktemp("fit_problems"))


@pytest.fixture(scope="session")
def fit_problems(joint_fit_problems):
    """The captured problems one object at a time, frame by frame."""
    return [p for joint in joint_fit_problems for p in split_objects(joint)]


class TapGathers:
    """Counts ``autodiff._gather``'s stacked gathers while installed.

    ``first`` counts the stacked gathers of a grid that no earlier call
    read: a forward product's taps, or those of a replay's cotangent or
    tangent.  ``regathers`` counts those of a grid that an earlier call read,
    which only the weight-gradient and weight-tangent terms of a replay do:
    they gather again the taps of the grid that the forward laid out.
    """

    def __init__(self, monkeypatch):
        self.first = self.regathers = 0
        seen = weakref.WeakValueDictionary()     # an id is not reused while its grid lives
        gather = ad._gather

        def counted(g, offsets, span, c_dst):
            cols = gather(g, offsets, span, c_dst)
            stacked = cols is not None and len(offsets) > 1
            if seen.get(id(g)) is g:
                self.regathers += stacked
            else:
                seen[id(g)] = g
                self.first += stacked
            return cols

        monkeypatch.setattr(ad, "_gather", counted)


def conv2d_loops(x, w, padding=0):
    """Brute-force nested-loop cross-correlation, the independent oracle."""
    cout, cin, k, _ = w.shape
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    oh = h + 2 * padding - k + 1
    ow = wd + 2 * padding - k + 1
    out = np.zeros((cout, oh, ow))
    for co in range(cout):
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for ci in range(cin):
                    for i in range(k):
                        for j in range(k):
                            acc += xp[ci, oy + i, ox + j] * w[co, ci, i, j]
                out[co, oy, ox] = acc
    return out


def render_frame_full(scene, tracks, t, bg):
    """Frame ``t`` of a synthetic scene drawn over the whole frame, the
    independent oracle of ``data_io._render_frame``: every shape's mask and
    texture are computed at every pixel from a full-frame coordinate grid
    and a freshly drawn tile, and pasted back to front."""
    h, w = scene.height, scene.width
    yy, xx = np.mgrid[0:h, 0:w]
    img = bg.copy()
    labels = np.zeros((h, w), dtype=np.uint8)
    for k, spec in enumerate(scene.shapes):
        cx, cy = tracks[k][t]
        if spec.kind == "disk":
            r = spec.size[0]
            m = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        else:
            hh, ww = spec.size
            m = (np.abs(xx - cx) <= ww / 2.0) & (np.abs(yy - cy) <= hh / 2.0)
        base = np.array(spec.color, dtype=np.float64)[:, None, None]
        tex = np.broadcast_to(base, (3, h, w)).copy()
        if spec.textured:
            tile = 0.6 + 0.4 * np.random.default_rng(spec.texture_seed).random((16, 16))
            tex = tex * tile[(yy - cy) % 16, (xx - cx) % 16][None]
        img[:, m] = tex[:, m]
        labels[m] = k + 1
    return img, labels


def upsample2_loops(x):
    """Scalar-loop 2x bilinear upsampling (align_corners=False, edges
    clamped), rows then columns: output j reads input positions
    floor(j/2 - 1/4) and the next one, clamped, weighted 1 - frac and frac."""

    def taps(n_in, j):
        pos = j / 2.0 - 0.25
        i0 = int(np.floor(pos))
        frac = pos - i0
        return (min(max(i0, 0), n_in - 1), min(i0 + 1, n_in - 1),
                1.0 - frac, frac)

    c, h, w = x.shape
    rows = np.zeros((c, 2 * h, w))
    for ci in range(c):
        for j in range(2 * h):
            i0, i1, w0, w1 = taps(h, j)
            for k in range(w):
                rows[ci, j, k] = w0 * x[ci, i0, k] + w1 * x[ci, i1, k]
    out = np.zeros((c, 2 * h, 2 * w))
    for ci in range(c):
        for j in range(2 * h):
            for k in range(2 * w):
                i0, i1, w0, w1 = taps(w, k)
                out[ci, j, k] = w0 * rows[ci, j, i0] + w1 * rows[ci, j, i1]
    return out


def finite_diff_grads(fn, tensors, h=1e-5):
    """Central finite differences of a scalar-valued fn over every entry."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn().item()
            flat[i] = orig - h
            fm = fn().item()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-4):
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        err = np.max(np.abs(a - n) / denom)
        assert err < rtol, f"gradient mismatch: max relative error {err:.3e}"


def check_backward_matches_fd(build_loss, leaves, h=1e-5, rtol=1e-4):
    """Record build_loss() on a tape, backward to the leaves, and compare
    against central FD."""
    for leaf in leaves:
        leaf.grad = None
    with ad.Tape() as tape:
        loss = build_loss()
    tape.backward(loss, leaves)
    analytic = [leaf.grad.copy() for leaf in leaves]
    numeric = finite_diff_grads(build_loss, leaves, h=h)
    assert_grads_close(analytic, numeric, rtol=rtol)


def _full_pull(tape, grads):
    for node in reversed(tape.nodes):
        g = grads.pop(node.out, None)
        if g is None:
            continue
        for key, ig in zip(node.inputs, node.vjp(g, (True,) * len(node.inputs))):
            grads[key] = grads[key] + ig if key in grads else ig
    return grads


def full_replay_vjp(tape, output, cotangent, wrt):
    """Linearization.vjp without a plan: every node swept, every input
    gradient formed."""
    grads = _full_pull(tape, {output.key: np.array(cotangent, dtype=np.float64)})
    return [grads.get(w.key, np.zeros_like(w.data)) for w in wrt]


def full_replay_jvp(tape, wrt, tangents, output):
    """Linearization.jvp without a plan: every node that any tangent reaches."""
    tans = {w.key: np.asarray(t, dtype=np.float64) for w, t in zip(wrt, tangents)}
    for node in tape.nodes:
        in_tans = [tans.get(k) for k in node.inputs]
        if any(t is not None for t in in_tans):
            tans[node.out] = node.jvp(in_tans)
    return tans.get(output.key, np.zeros_like(output.data))


def full_replay_backward(tape, loss, sources):
    """Tape.backward without a plan: d(loss)/d(s) by source key, for every
    source the loss reaches."""
    grads = _full_pull(tape, {loss.key: np.ones_like(loss.data)})
    return {s.key: grads[s.key] for s in sources if s.key in grads}
