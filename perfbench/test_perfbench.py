"""Tests of the benchmark's own code: tails, frame classes, trace restore."""

import sys

import numpy as np
import pytest

from flowvos import data_io, pipeline
from flowvos.config import RunConfig
from flowvos.model import Model
from flowvos.pipeline import SegResult

from perfbench import measure, stats, workloads
from perfbench.trace import TARGETS, Tracer


# -- tails -------------------------------------------------------------------


@pytest.mark.parametrize("pct,first_n", [(75.0, 40), (90.0, 100), (95.0, 200),
                                         (99.0, 1000)])
def test_tail_needs_ten_samples_beyond_the_percentile(pct, first_n):
    assert not any(stats.has_tail(n, pct) for n in range(first_n))
    assert all(stats.has_tail(n, pct) for n in range(first_n, first_n + 500))


@pytest.mark.parametrize("n", [40, 57, 100, 248])
def test_tail_value_has_ten_samples_above_it(n):
    values = list(np.random.default_rng(n).permutation(np.arange(float(n))))
    for pct in (75.0, 90.0):
        if stats.has_tail(n, pct):
            cut = stats.percentile(values, pct)
            assert sum(v > cut for v in values) >= stats.MIN_BEYOND


def test_every_workload_tail_is_reachable_and_fixed():
    for spec in workloads.SPECS.values():
        items = (spec.epochs if spec.kind == "train" else spec.frames - 1)
        rounds = 1
        while not stats.has_tail(rounds * spec.sequences * items, spec.tail_pct):
            rounds += 1
        assert rounds <= 10, spec.name


# -- frame classes -------------------------------------------------------------


def _result(t, updated, seconds):
    return SegResult(probs=np.zeros((1, 2, 2)), labels=np.zeros((2, 2), np.uint8),
                     frame_index=t, seconds=seconds, updated=updated)


def test_frame_zero_is_never_an_update_frame():
    # the program flags frame 0 as updated because it runs the initial fit
    results = [_result(0, True, 5.0), _result(1, False, 1.0),
               _result(2, True, 3.0), _result(3, False, 1.5)]
    first, update, plain = workloads.split_frames(results)
    assert first == 5.0
    assert update == [3.0]
    assert plain == [1.0, 1.5]


def test_update_rule_follows_cadence_and_confidence():
    cfg = RunConfig(seed=0, learner_update_every=4, learner_update_conf=1.0)
    probs = np.full((1, 2, 2), 0.7)
    assert workloads.expected_update(4, probs, cfg)
    assert not workloads.expected_update(3, probs, cfg)
    cfg = RunConfig(seed=0, learner_update_every=4, learner_update_conf=0.6)
    assert workloads.expected_update(3, probs, cfg)


def _tiny_inputs(tmp_path):
    scene = data_io.random_scene(16, 16, 3, 1, seed=3)
    seq = data_io.load_sequence(data_io.generate_synthetic(scene, tmp_path / "s"))
    return seq, Model(seed=1), RunConfig(seed=1, learner_outer_iters_init=2,
                                         learner_outer_iters_update=1,
                                         learner_cg_iters=2,
                                         learner_update_every=2)


def test_checks_accept_real_output_and_catch_tampering(tmp_path):
    seq, model, cfg = _tiny_inputs(tmp_path)
    results = pipeline.infer_sequence(pipeline.frame_sets(seq), seq.masks[0],
                                      model, cfg)
    assert results[0].updated       # flagged, but not held to the rule
    assert workloads.check_frames(results, seq, cfg) == []
    results[1].labels = results[1].labels ^ 1
    results[2].updated = not results[2].updated
    problems = workloads.check_frames(results, seq, cfg)
    assert any(p.startswith("frame 1: labels") for p in problems)
    assert any(p.startswith("frame 2: updated") for p in problems)


def test_a_pass_that_raises_counts_as_failed_not_as_a_wrong_output(monkeypatch):
    spec = workloads.SPECS["online-twins"]
    state = workloads.State(spec=spec, cfg=RunConfig(seed=0), model=None,
                            sequences=[list(range(spec.frames))], initial={})

    def broken(_state, _index):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads, "run_pass", broken)
    run = measure._Run(state)
    run.one_round()
    assert run.attempted == run.failed == spec.frames
    assert run.errors and not run.problems


# -- tracing -------------------------------------------------------------------


def _bindings():
    """Every attribute of every flowvos module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "flowvos" or name.startswith("flowvos.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    out[(name, attr, meth)] = fn
    return out


def test_trace_records_spans_and_restores_every_function(tmp_path):
    seq, model, cfg = _tiny_inputs(tmp_path)
    before = _bindings()
    tracer = Tracer(init_iters=cfg.learner_outer_iters_init)
    with tracer:
        wrapped = [k for k, v in _bindings().items()
                   if hasattr(v, "__wrapped__")]
        pipeline.infer_sequence(pipeline.frame_sets(seq), seq.masks[0], model,
                                cfg)
    after = _bindings()
    # every target is wrapped where it is defined, and imported copies too
    assert len(wrapped) > len(TARGETS)
    assert ("flowvos.pipeline", "encode_label") in wrapped
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.count("learner.init_fit") == 1
    assert tracer.count("learner.update_fit") == 1
    assert tracer.count("autodiff.conv2d") > 0
    assert tracer.matvecs and tracer.nonmonotone_fits == 0
    assert tracer.self_time["pipeline"] > 0.0


def test_trace_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer(init_iters=5):
            1 / 0
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
