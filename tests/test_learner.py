import dataclasses

import numpy as np
import pytest

from flowvos import autodiff as ad
from flowvos import learner
from flowvos.autodiff import Tensor
from flowvos.config import ConfigError, RunConfig
from flowvos.fusion import FusionParams
from flowvos.learner import (MemoryBuffer, NumericalError, conjugate_gradient,
                             gauss_newton, kronecker_preconditioner, optimize)
from flowvos.target_model import (TargetModelParams, TargetSample, branch_filters,
                                  residual_and_loss, stack_samples)

from conftest import FitProblem, TapGathers, float64, plain_cg, snapshot, split_objects


def linear_residual(A, b, tau):
    At = Tensor(A[None])
    bt = Tensor(b.reshape(1, -1, 1))

    def fn():
        return ad.sub(ad.matmul(At, ad.reshape(tau, (1, tau.size, 1))), bt)

    return fn


class TestGaussNewton:
    def test_linear_one_step_exact(self, rng):
        for _ in range(10):
            m, n = 12, 6
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            tau = Tensor(rng.standard_normal((1, n)))
            res = gauss_newton(linear_residual(A, b, tau), [tau], 1, cg_iters=n,
                               damping=0.0, make_preconditioner=plain_cg)
            ref = np.linalg.lstsq(A, b, rcond=None)[0]
            assert np.linalg.norm(tau.data - ref) < 1e-8
            assert res.losses[-1] <= res.losses[0]

    def test_ridge_matches_closed_form(self, rng):
        m, n, lam = 10, 5, 0.3
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        At = Tensor(A[None])
        bt = Tensor(b.reshape(1, -1, 1))
        root = np.sqrt(lam)

        tau = Tensor(np.zeros((1, n)))

        def fn():
            data = ad.sub(ad.matmul(At, ad.reshape(tau, (1, n, 1))), bt)
            reg = ad.reshape(tau * root, (1, n, 1))
            return ad.concat([data, reg], axis=1)

        gauss_newton(fn, [tau], 1, cg_iters=n, damping=0.0, make_preconditioner=plain_cg)
        ref = np.linalg.solve(A.T @ A + lam * np.eye(n), A.T @ b)
        assert np.linalg.norm(tau.data - ref) < 1e-8

    def test_nonlinear_valley_within_ten_iters(self):
        tau = Tensor(np.array([[1.0, 1.0]]))

        def fn():
            t1 = ad.matmul(ad.reshape(tau, (1, 1, 2)), Tensor([[[1.0], [0.0]]]))
            t2 = ad.matmul(ad.reshape(tau, (1, 1, 2)), Tensor([[[0.0], [1.0]]]))
            r2 = ad.sub(t2, ad.mul(t1, t1)) * 10.0
            return ad.concat([ad.reshape(t1, (1, 1)), ad.reshape(r2, (1, 1))], axis=1)

        res = gauss_newton(fn, [tau], 10, cg_iters=3, damping=1e-2,
                           make_preconditioner=plain_cg)
        assert np.linalg.norm(fn().data) < 1e-6
        assert len(res.losses) <= 11

    def test_cg_normal_equation_residual(self, rng):
        A = rng.standard_normal((14, 7))
        b = rng.standard_normal(14)
        tau = Tensor(rng.standard_normal((1, 7)))
        res = gauss_newton(linear_residual(A, b, tau), [tau], 1, cg_iters=10, damping=1e-4,
                           make_preconditioner=plain_cg)
        assert res.cg_residuals[0] <= 1e-6

    def test_cg_residual_is_the_damped_normal_equation_residual(self, rng):
        m, n, mu = 20, 8, 0.1
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        tau0 = rng.standard_normal(n)
        tau = Tensor(tau0[None].copy())
        res = gauss_newton(linear_residual(A, b, tau), [tau], 1, cg_iters=4, damping=mu,
                           make_preconditioner=plain_cg)
        delta = tau.data[0] - tau0        # a linear residual accepts the full step
        rhs = -A.T @ (A @ tau0 - b)
        true = np.linalg.norm((A.T @ A + mu * np.eye(n)) @ delta - rhs) / np.linalg.norm(rhs)
        assert true > 1e-3                # four iterations leave a residual
        assert abs(res.cg_residuals[0] - true) <= 1e-8

    def test_one_forward_per_outer_iteration_and_cg_iters_matvecs(self, rng,
                                                                  monkeypatch):
        fp = float64(FusionParams.init(rng, "none", 3))
        tm = float64(TargetModelParams.init_random([rng], 5, 3, with_flow=False, c_mid=2,
                                                   reg_lambda=1e-2))
        samples = [TargetSample(l3_im=Tensor(rng.standard_normal((1, 5, 4, 4))),
                                l3_fl=None,
                                target=Tensor(rng.standard_normal((1, 1, 1, 4, 4))),
                                root=Tensor(0.2 + rng.random(1)))
                   for _ in range(8)]
        batch = stack_samples(samples)
        forwards, matvecs = [], []

        def residual_fn():
            forwards.append(1)
            return residual_and_loss(batch, tm, fp)[0]

        jvp = ad.Linearization.jvp
        monkeypatch.setattr(ad.Linearization, "jvp",
                            lambda lin, t: matvecs.append(1) or jvp(lin, t))
        outer, cg = 3, 4
        res = gauss_newton(residual_fn, tm.tensors(), outer, cg_iters=cg, damping=1e-2,
                           make_preconditioner=plain_cg)
        assert all(y < x for x, y in zip(res.losses, res.losses[1:]))
        assert len(matvecs) == outer * cg == res.matvecs
        assert len(forwards) == outer + 1
        assert res.halvings == [0] * outer and res.rejected == [0] * outer

    def test_line_search_halvings_and_rejection(self):
        # r = sigmoid(t) - 1/2 at t = 3: the full Gauss-Newton step lands at
        # t = -7.0, which raises the loss; half of it lowers the loss
        def fn():
            return ad.sub(ad.sigmoid(tau), Tensor(np.full((1, 1), 0.5)))

        tau = Tensor(np.full((1, 1), 3.0))
        res = gauss_newton(fn, [tau], 1, cg_iters=1, damping=0.0, make_preconditioner=plain_cg)
        assert res.halvings == [1] and res.rejected == [0]
        assert res.losses[1] < res.losses[0]

        tau = Tensor(np.full((1, 1), 3.0))
        res = gauss_newton(fn, [tau], 1, cg_iters=1, damping=0.0, make_preconditioner=plain_cg,
                           max_halvings=0)
        assert res.halvings == [0] and res.rejected == [1]
        assert res.losses == [res.losses[0]] * 2 and tau.data[0, 0] == 3.0

        # a rejected step ends the fit: the next iteration would repeat it
        evaluations = []

        def counted():
            evaluations.append(None)
            return fn()

        tau = Tensor(np.full((1, 1), 3.0))
        res = gauss_newton(counted, [tau], 3, cg_iters=1, damping=0.0,
                           make_preconditioner=plain_cg, max_halvings=0)
        assert res.halvings == [0] and res.rejected == [1]
        assert len(evaluations) == 2 and len(res.losses) == 2 and tau.data[0, 0] == 3.0

    def test_monotone_losses(self, rng):
        tau = Tensor(rng.standard_normal((1, 4)) * 2.0)

        def fn():
            return ad.sub(ad.sigmoid(tau), Tensor(np.full((1, 4), 0.2)))

        res = gauss_newton(fn, [tau], 6, cg_iters=3, damping=1e-2, make_preconditioner=plain_cg)
        assert all(b <= a for a, b in zip(res.losses, res.losses[1:]))

    def test_nonfinite_loss_reports_iteration(self):
        tau = Tensor(np.ones((1, 2)))
        with pytest.raises(NumericalError, match="iteration 0"):
            gauss_newton(lambda: tau * np.inf, [tau], 2, cg_iters=3, damping=1e-2,
                         make_preconditioner=plain_cg)


class TestConjugateGradient:
    def test_exact_preconditioner_solves_in_one_iteration(self, rng):
        q = rng.standard_normal((6, 6))
        a = q @ q.T + 0.1 * np.eye(6)
        b = rng.standard_normal((1, 6))
        a_inv = np.linalg.inv(a)
        x, resid = conjugate_gradient(lambda v: v @ a, b, 1,
                                      preconditioner=lambda v: v @ a_inv)
        assert np.allclose(x[0], np.linalg.solve(a, b[0]), atol=1e-10)
        assert resid[0] < 1e-10

    def test_residual_is_unpreconditioned(self, rng):
        q = rng.standard_normal((8, 8))
        a = q @ q.T + 0.1 * np.eye(8)
        b = rng.standard_normal((1, 8))
        diag = 1.0 / np.diag(a)
        x, resid = conjugate_gradient(lambda v: v @ a, b, 3,
                                      preconditioner=lambda v: diag * v)
        true = np.linalg.norm(b[0] - a @ x[0]) / np.linalg.norm(b[0])
        assert abs(resid[0] - true) < 1e-10

    def test_full_run_applies_the_preconditioner_once_per_iteration(self, rng):
        q = rng.standard_normal((8, 8))
        a = q @ q.T + 0.1 * np.eye(8)
        b = rng.standard_normal((2, 8))
        diag = 1.0 / np.diag(a)
        applies = []

        def precondition(v):
            applies.append(1)
            return diag * v

        for iters in (1, 3, 5):
            applies.clear()
            _, resid = conjugate_gradient(lambda v: v @ a, b, iters,
                                          preconditioner=precondition)
            assert (resid > 1e-6).all()   # no row stopped early
            assert len(applies) == iters


def _preconditioner_case(rng, mode, n=3, c_in=5, d=4, c_mid=3, objects=1):
    """Filters of ``objects`` objects, drawn one after the other from
    ``rng``, and a batch of n samples with each object's targets and a
    random positive root per sample."""
    fp = float64(FusionParams.init(rng, mode, d))
    if mode == "attention":
        fp.wo.data = rng.standard_normal(fp.wo.data.shape)
    tm = float64(TargetModelParams.init_random([rng] * objects, c_in, d,
                                               with_flow=mode != "none",
                                               c_mid=c_mid, reg_lambda=1e-2))
    batch = TargetSample(l3_im=Tensor(rng.standard_normal((n, c_in, 5, 4))),
                         l3_fl=Tensor(rng.standard_normal((n, c_in, 5, 4))),
                         target=Tensor(rng.standard_normal((objects, n, 1, 5, 4))),
                         root=Tensor(0.2 + rng.random(n)))
    return tm, batch, fp


class TestKroneckerPreconditioner:
    @pytest.mark.parametrize("mode", ["none", "concat", "attention"])
    def test_symmetric_positive_definite(self, rng, mode):
        tm, batch, fp = _preconditioner_case(rng, mode)
        apply_p = kronecker_preconditioner(batch, fp, 1e-2)(tm)
        size = sum(t.size for t in tm.tensors())
        dense = np.stack([apply_p(e[None])[0] for e in np.eye(size)], axis=1)
        assert np.allclose(dense, dense.T, rtol=1e-9, atol=1e-9 * np.abs(dense).max())
        assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() > 0.0
        u, v = rng.standard_normal((1, size)), rng.standard_normal((1, size))
        assert np.isclose(np.vdot(u, apply_p(v)), np.vdot(apply_p(u), v), rtol=1e-9)
        assert np.vdot(v, apply_p(v)) > 0.0

    def test_mode_none_ignores_flow_features(self, rng):
        tm, batch, fp = _preconditioner_case(rng, "none")
        v = rng.standard_normal((1, sum(t.size for t in tm.tensors())))
        ref = kronecker_preconditioner(batch, fp, 1e-2)(tm)(v)
        batch.l3_fl = Tensor(-3.0 * batch.l3_fl.data + 1.0)
        assert np.array_equal(kronecker_preconditioner(batch, fp, 1e-2)(tm)(v), ref)
        batch.l3_fl = None
        assert np.array_equal(kronecker_preconditioner(batch, fp, 1e-2)(tm)(v), ref)

    def test_flow_block_is_exact_while_attention_output_is_zero(self, rng):
        # with wo = 0 the flow filters only meet the regularizer, so their
        # damped GN block is (lambda + mu) I and P inverts it exactly
        tm, batch, fp = _preconditioner_case(rng, "attention")
        fp.wo.data[:] = 0.0
        sizes = [t.size for t in tm.tensors()]
        v = rng.standard_normal((1, sum(sizes)))
        out = kronecker_preconditioner(batch, fp, 0.05)(tm)(v)
        flow = slice(sizes[0] + sizes[1], None)
        assert np.allclose(out[:, flow], v[:, flow] / (tm.reg_lambda + 0.05), rtol=1e-12)

    @pytest.mark.parametrize("mode, wo_zero", [("none", False), ("concat", False),
                                               ("attention", True), ("attention", False)])
    def test_branch_outputs_run_only_for_a_nonzero_attention_output(self, rng, monkeypatch,
                                                                   mode, wo_zero):
        tm, batch, fp = _preconditioner_case(rng, mode)
        if wo_zero:
            fp.wo.data[:] = 0.0
        pairs = []

        def counted(feat, pair):
            pairs.append(pair)
            return branch_filters(feat, pair)

        monkeypatch.setattr(learner, "branch_filters", counted)
        kronecker_preconditioner(batch, fp, 1e-2)(tm)
        expected = [tm.tau1, tm.tau2] if mode == "attention" and not wo_zero else []
        assert len(pairs) == len(expected)
        assert all(p is q for p, q in zip(pairs, expected))

    @pytest.mark.parametrize("mode", ["none", "concat", "attention"])
    def test_objects_share_one_input_gram_and_keep_their_own_blocks(self, rng,
                                                                     monkeypatch, mode):
        # three objects on shared features: each branch that the fusion
        # reads decomposes one C x C input Gram, not one per object, and each
        # object's block is the block of its own one-object batch
        c_in = 5
        tm, batch, fp = _preconditioner_case(rng, mode, c_in=c_in, objects=3)
        decompose = learner._eigh
        grams = []

        def counted(m):
            if m.shape[-2:] == (c_in, c_in):
                grams.append(m.shape)
            return decompose(m)

        monkeypatch.setattr(learner, "_eigh", counted)
        v = rng.standard_normal((3, sum(t.size for t in tm.tensors()) // 3))
        out = kronecker_preconditioner(batch, fp, 1e-2)(tm)(v)
        assert grams == [(c_in, c_in)] * (1 if mode == "none" else 2)
        for k, single in enumerate(split_objects(FitProblem(tm, batch, fp, outer_iters=1))):
            ref = kronecker_preconditioner(single.batch, single.fusion, 1e-2)(single.params)
            np.testing.assert_allclose(out[k], ref(v[k:k + 1])[0], rtol=1e-10, atol=1e-12)

    def test_fewer_matvecs_lower_loss_on_captured_fits(self, fit_problems):
        assert len(fit_problems) >= 4

        def solve(problem, cg_iters, damping, preconditioned):
            tm = snapshot(problem.params)

            def residual_fn():
                return residual_and_loss(problem.batch, tm, problem.fusion)[0]

            def make():
                return kronecker_preconditioner(problem.batch, problem.fusion, damping)(tm)

            return gauss_newton(residual_fn, tm.tensors(), problem.outer_iters,
                                cg_iters, damping, make if preconditioned else plain_cg)

        cfg = RunConfig(seed=0)
        plain = [solve(p, 10, 1e-4, False) for p in fit_problems]
        ours = [solve(p, cfg.learner_cg_iters, cfg.learner_damping, True)
                for p in fit_problems]
        assert sum(r.losses[-1] for r in ours) < sum(r.losses[-1] for r in plain)
        assert sum(r.matvecs for r in ours) <= 0.4 * sum(r.matvecs for r in plain)

    def test_batch_factors_built_once_give_the_rebuilt_fit_bit_for_bit(self, fit_problems):
        # one object at a time, as captured (float32): the factors that the
        # batch fixes, cached across a call, against a preconditioner built
        # from scratch at every outer iteration
        cfg = RunConfig(seed=0)
        for problem in fit_problems:
            cached, rebuilt = snapshot(problem.params), snapshot(problem.params)
            ours = optimize(cached, problem.batch, problem.fusion, cfg,
                            outer_iters=problem.outer_iters)

            def residual_fn():
                return residual_and_loss(problem.batch, rebuilt, problem.fusion)[0]

            def make():
                return kronecker_preconditioner(problem.batch, problem.fusion,
                                                cfg.learner_damping)(rebuilt)

            ref = gauss_newton(residual_fn, rebuilt.tensors(), problem.outer_iters,
                               cfg.learner_cg_iters, cfg.learner_damping, make)
            assert ours.losses == ref.losses
            assert all(np.array_equal(a.data, b.data)
                       for a, b in zip(cached.tensors(), rebuilt.tensors()))


    @pytest.mark.parametrize("wo_zero", [True, False], ids=["wo-zero", "wo-nonzero"])
    def test_batch_factors_built_lazily_and_once_per_fit(self, joint_fit_problems,
                                                         monkeypatch, wo_zero):
        # the untrained model's zero wo closes the flow branch: its block is
        # (lambda + mu) I, so no G_x of the flow features is ever built
        build = learner._input_factors
        built = []

        def counted(x, root):
            built.append(x)
            return build(x, root)

        monkeypatch.setattr(learner, "_input_factors", counted)
        cfg = RunConfig(seed=0)
        rng = np.random.default_rng(5)
        outer = []
        for problem in joint_fit_problems:
            fusion = problem.fusion
            assert not np.any(fusion.wo.data)
            if not wo_zero:
                fusion = dataclasses.replace(fusion, wo=Tensor(
                    (0.1 * rng.standard_normal(fusion.wo.shape)).astype(fusion.wo.data.dtype)))
            built.clear()
            res = optimize(snapshot(problem.params), problem.batch, fusion, cfg,
                           outer_iters=problem.outer_iters)
            outer.append(len(res.cg_residuals))
            expected = [problem.batch.l3_im.data]
            if not wo_zero:
                expected.append(problem.batch.l3_fl.data)
            assert len(built) == len(expected)
            assert all(x is y for x, y in zip(built, expected))
        assert max(outer) > 1               # some fit reused its factors


def test_no_replay_of_a_captured_fit_gathers_a_weight_tap(fit_problems, monkeypatch):
    # no conv of the residual stacks its taps in the forward product, so a
    # matvec gathers only the taps of its cotangents
    gathers = TapGathers(monkeypatch)
    cfg = RunConfig(seed=0)
    for problem in fit_problems:
        res = optimize(snapshot(problem.params), problem.batch, problem.fusion, cfg,
                       outer_iters=problem.outer_iters)
        assert res.matvecs > 0
    assert gathers.first > 0 and gathers.regathers == 0


class TestBenchmarkTracer:
    def test_pairs_every_matvec_of_captured_fits(self, fit_problems):
        # the benchmark's tracer counts a matvec as a jvp span followed by a
        # vjp span; a reordered product would silently corrupt its counts
        from perfbench.trace import Tracer

        cfg = RunConfig(seed=0)
        for problem in fit_problems:
            tm = snapshot(problem.params)
            with Tracer(init_iters=cfg.learner_outer_iters_init) as tracer:
                res = learner.optimize(tm, problem.batch, problem.fusion, cfg,
                                       outer_iters=problem.outer_iters)
            assert res.matvecs > 0
            assert len(tracer.matvecs) == res.matvecs
            assert tracer.count("learner.cg") == len(res.cg_residuals)
            assert tracer.outer_iters == len(res.losses) - 1


class TestMemoryBuffer:
    def sample(self, rng, objects=1):
        """A frame's sample of ``objects`` objects under a root of one, so
        that a stacked batch holds the square root of each sample weight."""
        return TargetSample(l3_im=Tensor(rng.random((1, 2, 2, 2))), l3_fl=None,
                            target=Tensor(rng.random((objects, 1, 1, 2, 2))),
                            root=Tensor(np.ones(1)))

    @staticmethod
    def sample_weights(buf):
        return list(buf.batch().root.data ** 2)

    def test_first_annotated_frame_pinned(self, rng):
        pinned = self.sample(rng)
        buf = MemoryBuffer(8, 0.9, 2.0)
        buf.add(pinned)
        buf.add(self.sample(rng))
        assert np.array_equal(buf.batch().l3_im.data[:1], pinned.l3_im.data)
        np.testing.assert_allclose(self.sample_weights(buf), [buf.pinned_weight, 1.0],
                                   atol=1e-15)

    def test_capacity_and_pinned_survival(self, rng):
        added = [self.sample(rng) for _ in range(10)]
        buf = MemoryBuffer(8, 0.9, 2.0)
        for s in added:
            buf.add(s)
        stacked = buf.batch().l3_im.data
        assert stacked.shape[0] == 8
        kept = [added[i] for i in (0, 3, 4, 5, 6, 7, 8, 9)]   # oldest evicted
        assert np.array_equal(stacked, np.concatenate([k.l3_im.data for k in kept]))

    def test_decay_weights(self, rng):
        buf = MemoryBuffer(8, decay=0.9, pinned_weight=2.0)
        for _ in range(4):
            buf.add(self.sample(rng))
        w = self.sample_weights(buf)
        np.testing.assert_allclose(w, [2.0, 0.9 ** 2, 0.9, 1.0], atol=1e-15)
        assert w[0] == max(w)

    def test_weights_positive(self, rng):
        buf = MemoryBuffer(8, 0.9, 2.0)
        for _ in range(5):
            buf.add(self.sample(rng))
        assert all(x > 0 for x in self.sample_weights(buf))

    def test_each_object_stacks_its_own_samples_under_the_shared_weights(self, rng):
        frames = [self.sample(rng, objects=2) for _ in range(10)]
        buf = MemoryBuffer(4, 0.9, 2.0)
        for frame in frames:
            buf.add(frame)
        kept = [frames[i] for i in (0, 7, 8, 9)]
        got = buf.batch()
        for k in (0, 1):
            assert np.array_equal(got.target.data[k],
                                  np.concatenate([f.target.data[k] for f in kept]))

    def test_window_matches_the_eviction_rule_bit_for_bit(self, rng):
        # the oracle: a list of (sample, pinned, insertion order) that evicts
        # the oldest unpinned entry when full and weighs an unpinned entry
        # decay ** (newest order - its order)
        capacity, decay, pinned_weight = 8, 0.9, 2.0
        pinned = TargetSample(l3_im=Tensor(rng.random((1, 2, 2, 2))), l3_fl=None,
                              target=Tensor(rng.random((1, 1, 1, 2, 2))),
                              root=Tensor(0.2 + rng.random(1)))
        buf = MemoryBuffer(capacity, decay, pinned_weight)
        buf.add(pinned)
        entries = [(pinned, True, 0)]
        for order in range(1, 12):
            sample = TargetSample(l3_im=Tensor(rng.random((1, 2, 2, 2))), l3_fl=None,
                                  target=Tensor(rng.random((1, 1, 1, 2, 2))),
                                  root=Tensor(0.2 + rng.random(1)))
            buf.add(sample)
            if len(entries) >= capacity:
                del entries[next(i for i, e in enumerate(entries) if not e[1])]
            entries.append((sample, False, order))
            weights = [pinned_weight if is_pinned else decay ** (order - o)
                       for _, is_pinned, o in entries]
            ref = stack_samples([e[0] for e in entries], weights)
            got = buf.batch()
            assert got.l3_im.data.shape[0] == min(order + 1, capacity)
            assert np.array_equal(got.l3_im.data[:1], pinned.l3_im.data)
            for name in ("l3_im", "target", "root"):
                assert np.array_equal(getattr(got, name).data, getattr(ref, name).data)


class TestOptimize:
    def make_batch(self, rng, n=3, with_flow=False, c_in=5):
        """A stacked batch of n samples under random positive roots, the
        first pinned, as a buffer holds them."""
        samples = []
        for _ in range(n):
            l3 = Tensor(rng.standard_normal((1, c_in, 4, 4)))
            l3f = Tensor(rng.standard_normal((1, c_in, 4, 4))) if with_flow else None
            samples.append(TargetSample(l3_im=l3, l3_fl=l3f,
                                        target=Tensor(rng.standard_normal((1, 1, 1, 4, 4))),
                                        root=Tensor(0.2 + rng.random(1))))
        buf = MemoryBuffer(8, 0.9, 2.0)
        for sample in samples:
            buf.add(sample)
        return samples, buf.batch()

    def test_loss_decreases_mode_none(self, rng):
        fp = float64(FusionParams.init(rng, "none", 3))
        tm = float64(TargetModelParams.init_random([rng], 5, 3, with_flow=False, c_mid=2,
                                                   reg_lambda=1e-3))
        _, batch = self.make_batch(rng)
        res = optimize(tm, batch, fp, RunConfig(seed=0), outer_iters=5)
        assert res.losses[-1] < res.losses[0]
        assert all(y <= x for x, y in zip(res.losses, res.losses[1:]))

    def test_first_step_solves_linear_subproblem(self, rng):
        # with the expand filter at zero and no regularizer the data term is
        # linear in that filter, so one GN step must match the dense solve
        fp = float64(FusionParams.init(rng, "none", 2))
        tm = float64(TargetModelParams.init_random([rng], 3, 2, with_flow=False, c_mid=2,
                                                   reg_lambda=0.0))
        tm.tau1[1].data[:] = 0.0
        samples, batch = self.make_batch(rng, n=2, c_in=3)
        sw = [2.0, 1.0]                      # the pinned and the newest sample

        rows, targets = [], []
        for s, w_s in zip(samples, sw):
            reduced = np.einsum("mc,chw->mhw", tm.tau1[0].data[0, :, :, 0, 0],
                                s.l3_im.data[0])
            red_pad = np.pad(reduced, ((0, 0), (1, 1), (1, 1)))
            for d in range(2):
                for y in range(4):
                    for x in range(4):
                        row = np.zeros((2, 2, 3, 3))
                        row[d] = red_pad[:, y:y + 3, x:x + 3]
                        wgt = np.sqrt(w_s) * s.root.data[0]
                        rows.append(wgt * row.reshape(-1))
                        targets.append(wgt * s.target.data[0, 0, 0, y, x])
        A = np.stack(rows)
        y = np.array(targets)
        ref = np.linalg.lstsq(A, y, rcond=None)[0]

        cfg = RunConfig(seed=0, learner_damping=0.0, learner_cg_iters=100)
        optimize(tm, batch, fp, cfg, outer_iters=1)
        assert np.linalg.norm(tm.tau1[1].data[0].reshape(-1) - ref) < 1e-8

    def test_attention_mode_decreases(self, rng):
        fp = float64(FusionParams.init(rng, "attention", 3))
        tm = float64(TargetModelParams.init_random([rng], 5, 3, with_flow=True, c_mid=2,
                                                   reg_lambda=1e-2))
        _, batch = self.make_batch(rng, with_flow=True)
        res = optimize(tm, batch, fp, RunConfig(seed=0), outer_iters=3)
        assert res.losses[-1] < res.losses[0]
        assert all(y <= x for x, y in zip(res.losses, res.losses[1:]))


def _float64_problem(problem: FitProblem) -> FitProblem:
    """A copy of a captured problem in float64; the captured one is shared."""
    fusion = problem.fusion
    names = ("wq", "wk", "wv", "wo", "wc")
    fusion = FusionParams(mode=fusion.mode, **{
        n: Tensor(getattr(fusion, n).data.astype(np.float64))
        for n in names if getattr(fusion, n) is not None})
    b = problem.batch
    batch = TargetSample(*(None if t is None else Tensor(t.data.astype(np.float64))
                           for t in (b.l3_im, b.l3_fl, b.target, b.root)))
    return FitProblem(float64(snapshot(problem.params)), batch, fusion, problem.outer_iters)


def _assert_joint_follows_separate_fits(problem: FitProblem) -> None:
    """Each object of a joint float64 fit against its own fit: the losses to
    1e-10 relative, then flat once its own fit stopped, and the filters."""
    cfg = RunConfig(seed=0)
    singles = split_objects(problem)
    joint = optimize(problem.params, problem.batch, problem.fusion, cfg,
                     outer_iters=problem.outer_iters)
    assert joint.losses == [float(np.sum(x)) for x in joint.object_losses]
    for k, single in enumerate(singles):
        alone = optimize(single.params, single.batch, single.fusion, cfg,
                         outer_iters=single.outer_iters)
        ours = [x[k] for x in joint.object_losses]
        n = len(alone.losses)
        assert ours[n:] == [ours[n - 1]] * (len(ours) - n)
        np.testing.assert_allclose(ours[:n], alone.losses, rtol=1e-10, atol=0)
        for t, ref in zip(problem.params.tensors(), single.params.tensors()):
            assert np.max(np.abs(t.data[k] - ref.data[0])) <= 1e-10 * np.max(np.abs(ref.data))


class TestJointFit:
    def test_each_captured_object_follows_its_separate_fit(self, joint_fit_problems):
        assert joint_fit_problems and all(p.params.objects == 2 for p in joint_fit_problems)
        for problem in joint_fit_problems:
            _assert_joint_follows_separate_fits(_float64_problem(problem))

    @pytest.mark.parametrize("mode", ["none", "concat", "attention"])
    def test_each_object_follows_its_separate_fit_in_every_mode(self, rng, mode):
        # three objects on shared features, a random attention output wo
        tm, batch, fp = _preconditioner_case(rng, mode, objects=3)
        _assert_joint_follows_separate_fits(FitProblem(tm, batch, fp, outer_iters=4))

    def test_a_rejected_object_keeps_its_filters_while_the_other_fits_on(self):
        # r = sigmoid(t) - 1/2 per object: at t = 3 the full Gauss-Newton step
        # raises the loss, so without halvings object 0 is rejected; object
        # 1 starts near the root, takes full steps and keeps going
        tau = Tensor(np.array([[3.0], [0.3]]))

        def fn():
            return ad.sub(ad.sigmoid(tau), Tensor(np.full((2, 1), 0.5)))

        res = gauss_newton(fn, [tau], 3, cg_iters=1, damping=0.0, make_preconditioner=plain_cg,
                           max_halvings=0)
        assert res.rejected == [1, 0, 0] and res.halvings == [0, 0, 0]
        assert tau.data[0, 0] == 3.0
        first = [x[0] for x in res.object_losses]
        second = [x[1] for x in res.object_losses]
        assert first == [first[0]] * 4
        assert all(b < a for a, b in zip(second, second[1:]))

        alone = Tensor(np.array([[0.3]]))

        def fn_alone():
            return ad.sub(ad.sigmoid(alone), Tensor(np.full((1, 1), 0.5)))

        ref = gauss_newton(fn_alone, [alone], 3, cg_iters=1, damping=0.0,
                           make_preconditioner=plain_cg, max_halvings=0)
        assert second == ref.losses and tau.data[1, 0] == alone.data[0, 0]


def test_config_validation():
    with pytest.raises(ConfigError, match="learner.damping"):
        RunConfig(seed=1, learner_damping=-1.0)
    with pytest.raises(ConfigError, match=r"learner.cg_iters must be in \[1, inf\)"):
        RunConfig(seed=1, learner_cg_iters=0)
