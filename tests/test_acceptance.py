"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
lines.  Criterion 8, the ablation direction across fusion modes, has no
test yet.
"""

import time

import numpy as np

from flowvos import autodiff as ad
from flowvos.autodiff import Tape, Tensor
from flowvos.cli import main as cli_main
from flowvos.config import RunConfig, make_config
from flowvos.data_io import ShapeSpec, SynthScene, generate_synthetic, load_sequence
from flowvos.flow_embed import ROTATION, embed_flow
from flowvos.fusion import FusionParams, attention_map, fuse
from flowvos.learner import MemoryBuffer, gauss_newton, optimize
from flowvos.metrics import boundary_f, jaccard
from flowvos.model import Model
from flowvos.pipeline import FrameSet, frame_sets, infer_sequence
from flowvos.target_model import TargetModelParams, TargetSample

from conftest import float64, plain_cg
from test_metrics import brute_force_f


def _report(name: str, t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{name}: took {elapsed:.1f}s, limit {limit}s"
    print(f"ACCEPT {name}: PASS ({elapsed:.1f}s)", flush=True)


def test_c01_rotation_matrix_structure():
    t0 = time.perf_counter()
    c1, c2, c3 = ROTATION[:, 0], ROTATION[:, 1], ROTATION[:, 2]
    assert abs(np.linalg.norm(c1) - 1.0) < 1e-12
    assert abs(np.linalg.norm(c2) - 1.0) < 1e-12
    assert abs(c1 @ c2) < 1e-12
    assert abs(np.linalg.norm(c3) - np.sqrt(2.0)) < 1e-12
    q = ROTATION @ np.diag([1.0, 1.0, 1.0 / np.sqrt(2.0)])
    assert abs(np.linalg.det(q) - 1.0) < 1e-12
    _report("C1 rotation-matrix structure", t0, 1.0)


def test_c02_flow_embedding_laws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    uv = rng.uniform(-100.0, 100.0, size=(2, 1000, 1000))
    out = embed_flow(uv)
    mags = np.sqrt(uv[0] ** 2 + uv[1] ** 2)
    assert out.min() >= -1e-9
    norms = np.sqrt((out ** 2).sum(axis=0))
    assert np.max(np.abs(norms - np.sqrt(3.0) * mags)) <= 1e-9 * max(1.0, mags.max())
    _report("C2 flow-embedding laws (1e6 vectors)", t0, 5.0)


def _fd_matches(build, leaves, h=1e-5, rtol=1e-4):
    for leaf in leaves:
        leaf.grad = None
    with Tape() as tape:
        loss = build()
    tape.backward(loss, leaves)
    for leaf in leaves:
        flat = leaf.data.reshape(-1)
        gflat = leaf.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = build().item()
            flat[i] = orig - h
            fm = build().item()
            flat[i] = orig
            fd = (fp - fm) / (2.0 * h)
            denom = max(1.0, abs(fd), abs(gflat[i]))
            assert abs(gflat[i] - fd) / denom < rtol, \
                f"entry {i}: analytic {gflat[i]:.6e} vs fd {fd:.6e}"


def test_c03_autodiff_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)

    def rt(shape, off=0.0):
        return Tensor(rng.standard_normal(shape) + off)

    def rdim(lo=1, hi=5):
        return int(rng.integers(lo, hi))

    for trial in range(20):
        m, n, p = rdim(), rdim(), rdim()
        a, b = rt((m, n)), rt((m, n))
        away = Tensor(np.sign(rng.standard_normal((m, n)))
                      * (0.2 + rng.random((m, n))))
        x2, y2 = rt((1, m, n)), rt((1, n, p))
        cin, cout = rdim(1, 4), rdim(1, 4)
        k = int(rng.choice([1, 3]))
        hw = int(rng.integers(k + 1, 7))
        xc = rt((1, cin, hw, hw))
        wc = rt((cout, cin, k, k))
        bc = rt(cout)
        xp = rt((1, cin, 2 * rdim(), 2 * rdim()))
        xu = rt((1, cin, rdim(), rdim()))
        cases = [
            (lambda: ad.sumsq(ad.add(a, b)), [a, b]),
            (lambda: ad.sumsq(ad.sub(a, b)), [a, b]),
            (lambda: ad.sumsq(ad.mul(a, b)), [a, b]),
            (lambda: ad.sumsq(a * 1.7), [a]),
            (lambda: ad.sumsq(ad.relu(away)), [away]),
            (lambda: ad.sumsq(ad.sigmoid(a)), [a]),
            (lambda: ad.sumsq(ad.softplus(a)), [a]),
            (lambda: ad.sumsq(ad.softmax(a, axis=1)), [a]),
            (lambda: ad.tmean(ad.mul(a, a)), [a]),
            (lambda: ad.tmean(ad.mul(a, b)), [a, b]),
            (lambda: ad.sumsq(a), [a]),
            (lambda: ad.sumsq(ad.matmul(x2, y2)), [x2, y2]),
            (lambda: ad.sumsq(ad.transpose2d(x2)), [x2]),
            (lambda: ad.sumsq(ad.reshape(xc, (xc.size,))), [xc]),
            (lambda: ad.sumsq(ad.concat([a, b], axis=0)), [a, b]),
            (lambda: ad.sumsq(ad.conv2d(xc, wc, bc)), [xc, wc, bc]),
            (lambda: ad.sumsq(ad.avg_pool2(xp)), [xp]),
            (lambda: ad.sumsq(ad.upsample2(xu)), [xu]),
        ]
        for build, leaves in cases:
            _fd_matches(build, leaves)
    _report("C3 autodiff soundness (18 ops x 20 shapes)", t0, 60.0)


def test_c04_gauss_newton_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    for trial in range(50):
        m = int(rng.integers(8, 16))
        n = int(rng.integers(2, 9))
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        At, bt = Tensor(A[None]), Tensor(b.reshape(1, -1, 1))

        tau = Tensor(rng.standard_normal((1, n)))

        def lin_fn():
            return ad.sub(ad.matmul(At, ad.reshape(tau, (1, n, 1))), bt)

        gauss_newton(lin_fn, [tau], 1, cg_iters=2 * n, damping=0.0,
                     make_preconditioner=plain_cg)
        ref = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.linalg.norm(tau.data - ref) < 1e-8

        lam = float(rng.uniform(0.05, 1.0))
        root = np.sqrt(lam)

        tau_r = Tensor(np.zeros((1, n)))

        def ridge_fn():
            t = ad.reshape(tau_r, (1, n, 1))
            return ad.concat([ad.sub(ad.matmul(At, t), bt), t * root], axis=1)

        gauss_newton(ridge_fn, [tau_r], 1, cg_iters=2 * n, damping=0.0,
                     make_preconditioner=plain_cg)
        ref_r = np.linalg.solve(A.T @ A + lam * np.eye(n), A.T @ b)
        assert np.linalg.norm(tau_r.data - ref_r) < 1e-8
    _report("C4 Gauss-Newton exactness (50 linear + ridge instances)", t0, 30.0)


def test_c05_monotone_online_loss():
    """optimize() itself raises on any loss increase, so the entire test
    suite asserts this property; here a battery of target-model fits across
    modes is checked explicitly."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    traces = []
    for mode in ("none", "concat", "attention"):
        for trial in range(4):
            fp = float64(FusionParams.init(rng, mode, 6))
            if mode == "attention":
                fp.wo.data = 0.3 * rng.standard_normal(fp.wo.data.shape)
            with_flow = mode != "none"
            tm = float64(TargetModelParams.init_random(
                [rng], 5, 6, with_flow=with_flow, c_mid=3,
                reg_lambda=float(rng.uniform(0, 0.1))))
            samples = [TargetSample(
                l3_im=Tensor(rng.standard_normal((1, 5, 4, 4))),
                l3_fl=Tensor(rng.standard_normal((1, 5, 4, 4))) if with_flow else None,
                target=Tensor(rng.standard_normal((1, 1, 1, 4, 4))),
                root=Tensor(0.2 + rng.random(1)))
                for _ in range(int(rng.integers(1, 5)))]
            buf = MemoryBuffer(8, 0.9, 2.0)
            for sample in samples:
                buf.add(sample)
            res = optimize(tm, buf.batch(), fp, RunConfig(seed=0), outer_iters=4)
            traces.append(res.losses)
    assert len(traces) == 12
    for losses in traces:
        for a, b in zip(losses, losses[1:]):
            assert b <= a
    _report("C5 monotone online loss (12 optimize calls)", t0, 60.0)


def test_c06_attention_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    for _ in range(10):
        c = int(rng.choice([6, 8, 16]))
        p = float64(FusionParams.init(rng, "attention", c))
        p.wo.data = rng.standard_normal(p.wo.data.shape)
        f_im = Tensor(rng.standard_normal((1, c, 4, 4)))
        f_fl = Tensor(rng.standard_normal((1, c, 4, 4)))
        m = attention_map(f_im, f_fl, p)
        assert np.max(np.abs(m.data.sum(axis=-1) - 1.0)) < 1e-12

        p0 = float64(FusionParams.init(rng, "attention", c))
        p0.wo.data = np.zeros_like(p0.wo.data)
        out = fuse(f_im, f_fl, p0)
        assert np.array_equal(out.data, f_im.data)

        perm = rng.permutation(16)
        ref = fuse(f_im, f_fl, p).data.reshape(1, c, 16)[..., perm]
        got = fuse(Tensor(f_im.data.reshape(1, c, 16)[..., perm].reshape(1, c, 4, 4)),
                   Tensor(f_fl.data.reshape(1, c, 16)[..., perm].reshape(1, c, 4, 4)),
                   p).data.reshape(1, c, 16)
        assert np.max(np.abs(got - ref)) < 1e-10
    _report("C6 attention contract", t0, 10.0)


def test_c07_metric_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(200):
        h = int(rng.integers(4, 13))
        w = int(rng.integers(4, 13))
        a = rng.random((h, w)) > rng.uniform(0.3, 0.8)
        b = rng.random((h, w)) > rng.uniform(0.3, 0.8)
        inter = np.count_nonzero(a & b)
        union = np.count_nonzero(a | b)
        ref_j = 1.0 if union == 0 else inter / union
        assert abs(jaccard(a, b) - ref_j) < 1e-12
        tol = int(rng.integers(0, 3))
        assert abs(boundary_f(a, b, tol) - brute_force_f(a, b, tol)) < 1e-12
    # the hand example: 10x10 square shifted by 5 px
    sq = np.zeros((30, 30), bool)
    sq[5:15, 5:15] = True
    shifted = np.zeros((30, 30), bool)
    shifted[5:15, 10:20] = True
    assert abs(jaccard(sq, shifted) - 50.0 / 150.0) < 1e-12
    _report("C7 metric oracles (200 random masks)", t0, 30.0)


def _two_object_scene(seed=3, frames=6, size=32):
    return SynthScene(
        width=size, height=size, frames=frames, seed=seed,
        shapes=[
            ShapeSpec("rect", (9, 9), (0.9, 0.7, 0.3), start=(10, 12),
                      velocity=(2, 0), textured=False),
            ShapeSpec("disk", (4,), (0.3, 0.6, 0.9), start=(22, 20),
                      velocity=(-2, 1), textured=False),
        ],
        background="noise")


def test_c09_causality_and_baseline_isolation(tmp_path):
    t0 = time.perf_counter()
    generate_synthetic(_two_object_scene(), tmp_path / "seq")
    seq = load_sequence(tmp_path / "seq")
    raw = {"seed": "9", "learner.outer_iters_init": "2",
           "learner.outer_iters_update": "1", "learner.cg_iters": "5"}

    # causality: future-frame perturbation leaves earlier results bit-exact
    cfg = make_config(raw)
    model = Model(fusion_mode="attention", seed=9)
    sets = frame_sets(seq)
    ref = infer_sequence(sets, seq.masks[0], model, cfg)
    mutated = list(sets)
    for t in (4, 5):
        fs = mutated[t]
        mutated[t] = FrameSet(image=1.0 - fs.image,
                              flow=-2.0 * fs.flow,
                              mask=fs.mask)
    out = infer_sequence(mutated, seq.masks[0], model, cfg)
    for t in range(4):
        assert np.array_equal(out[t].probs, ref[t].probs)
        assert np.array_equal(out[t].labels, ref[t].labels)

    # baseline isolation: zeroed flow files leave mode-none output bit-exact
    model_none = Model(fusion_mode="none", seed=9)
    ref_none = infer_sequence(sets, seq.masks[0], model_none, cfg)
    zeroed = [FrameSet(image=fs.image, flow=np.zeros_like(fs.flow),
                       mask=fs.mask) for fs in sets]
    out_none = infer_sequence(zeroed, seq.masks[0], model_none, cfg)
    for a, b in zip(ref_none, out_none):
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.labels, b.labels)
    _report("C9 causality and baseline isolation", t0, 120.0)


def test_c10_ablate_reproducibility(tmp_path):
    t0 = time.perf_counter()
    assert cli_main(["synth", "--out", str(tmp_path / "suite"), "--frames", "4",
                     "--objects", "2", "--seed", "17", "--width", "32",
                     "--height", "32", "--count", "2", "--distractors"]) == 0
    args = ["ablate", "--data", str(tmp_path / "suite"), "--seed", "17",
            "--set", "learner.outer_iters_init=2",
            "--set", "learner.outer_iters_update=1",
            "--set", "learner.cg_iters=5",
            "--set", "train.aug_copies=1",
            "--set", "train.epochs=1"]
    assert cli_main(args + ["--out", str(tmp_path / "rep_a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "rep_b")]) == 0
    csv_a = (tmp_path / "rep_a.csv").read_bytes()
    csv_b = (tmp_path / "rep_b.csv").read_bytes()
    assert csv_a == csv_b
    assert (tmp_path / "rep_a").read_bytes() == (tmp_path / "rep_b").read_bytes()
    _report("C10 ablate reproducibility (byte-identical reports)", t0, 300.0)
