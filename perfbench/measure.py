"""Set-up, warm-up, the timed rounds, and the metrics they yield."""

from __future__ import annotations

import resource
import shutil
import time
from pathlib import Path

from flowvos.metrics import aggregate, score_label_sequence

from perfbench import stats, workloads
from perfbench.trace import Tracer

# spans whose median call time and inclusive share of the traced passes are
# reported; data_io.load_sequence runs in set-up and has a median only
TIMED_SPANS = ("learner.init_fit", "learner.update_fit", "learner.cg",
               "target_model.residual", "target_model.apply", "decoder.decode",
               "decoder.fuse_pyramid", "backbone.extract",
               "backbone.encode_label", "fusion.fuse", "flow_embed.embed_flow",
               "autodiff.backward", "pipeline.adam_step")
MIN_SETUPS = 5
LAYERS = ("pipeline", "learner", "target_model", "autodiff", "backbone",
          "decoder", "fusion", "flow_embed")


def _info(**fields) -> None:
    """One informational line; the result is always the last line."""
    print("# " + " ".join(f"{k}={v}" for k, v in fields.items()), flush=True)


class _Run:
    """Accumulates the passes of one run."""

    def __init__(self, state: workloads.State):
        self.state = state
        self.items: list = []          # latency samples, seconds
        self.first: list = []
        self.update: list = []
        self.plain: list = []
        self.passes: list = []         # seconds inside each timed pass
        self.count = 0                 # frames or samples done
        self.attempted = 0
        self.failed = 0
        self.errors: list = []         # passes that raised: counted as failed
        self.problems: list = []       # checks that completed passes broke

    def one_round(self) -> float:
        """Run every sequence's pass once; returns the round's timed seconds."""
        spent = 0.0
        spec = self.state.spec
        for i in range(spec.sequences):
            n = (spec.epochs if spec.kind == "train"
                 else len(self.state.sequences[i]))
            self.attempted += n
            try:
                res = workloads.run_pass(self.state, i)
            except Exception as e:              # noqa: BLE001 - reported
                self.failed += n
                self.errors.append(f"pass {i} raised {e!r}")
                continue
            spent += res.seconds
            self.passes.append(res.seconds)
            self.count += n
            self.items += res.item_seconds
            if res.first_seconds is not None:
                self.first.append(res.first_seconds)
            self.update += res.update_seconds
            self.plain += res.plain_seconds
            self.problems += res.problems
        return spent

    @property
    def busy(self) -> float:
        return sum(self.passes)


def _setup(spec, seed: int, work: Path, times: list):
    """One timed set-up in a fresh directory, removed once loaded."""
    where = work / f"setup{len(times)}"
    t0 = time.perf_counter()
    state = workloads.setup(spec, seed, where)
    times.append(time.perf_counter() - t0)
    shutil.rmtree(where)
    return state


def measure(spec: workloads.Spec, seed: int, seconds: float, trace: bool,
            work: Path) -> dict:
    if trace:
        return _measure_traced(spec, seed, seconds, work)
    setup_times: list = []
    state = _setup(spec, seed, work, setup_times)
    workloads.warm_up(state)
    run = _Run(state)
    deadline = time.perf_counter() + seconds
    # whole rounds, and enough of them for the tail: the percentile is
    # fixed per workload, so a faster program never reports a higher one
    pct = spec.tail_pct
    while (time.perf_counter() < deadline
           or not stats.has_tail(len(run.items), pct)):
        done = len(run.items)
        run.one_round()
        # set-up is timed again after every pass: a burst of set-ups at the
        # start would sample the machine for a fraction of a second only
        for _ in range(spec.sequences):
            _setup(spec, seed, work, setup_times)
        if len(run.items) == done:
            break
    while len(setup_times) < MIN_SETUPS:
        _setup(spec, seed, work, setup_times)
    run.problems += workloads.prefix_problems(state)
    has_tail = stats.has_tail(len(run.items), pct)
    if not has_tail:
        run.problems.append(f"{len(run.items)} latency samples leave fewer "
                            f"than {stats.MIN_BEYOND} beyond p{pct:g}")
    metrics = {
        "setup_s": (stats.median(setup_times), "s"),
        "items_per_s": (run.count / run.busy if run.busy else 0.0, "1/s"),
        "item_ms": (stats.median(run.items) * 1e3 if run.items else 0.0, "ms"),
        "item_ms_tail": (stats.percentile(run.items, pct) * 1e3
                         if has_tail else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    _report_info(run, seed, pct, setup_times)
    return _result(run.attempted, run.failed, run.problems, metrics)


def _report_info(run: _Run, seed: int, pct, setup_times: list) -> None:
    def med(xs):
        return f"{stats.median(xs) * 1e3:.2f}" if xs else "-"

    state = run.state
    spec = state.spec
    _info(workload=spec.name, seed=seed, items=len(run.items),
          busy_s=f"{run.busy:.2f}", tail=f"p{pct:g}",
          first_frame_ms=med(run.first), plain_frame_ms=med(run.plain),
          update_frame_ms=med(run.update),
          update_frames=len(run.update), plain_frames=len(run.plain))
    _info(pass_ms=",".join(f"{p * 1e3:.0f}" for p in run.passes),
          setup_ms=",".join(f"{t * 1e3:.1f}" for t in setup_times))
    if spec.kind == "infer" and state.reference:
        rows = []
        for i, results in state.reference.items():
            seq = state.sequences[i]
            rows += score_label_sequence(seq.name, [r.labels for r in results],
                                         seq.masks)
        _info(jf_not_gated=f"{aggregate(rows).mean_jf:.4f}")
    if spec.kind == "train":
        _info(unreached_by_decoder_loss=len(workloads.unreached(state)))
    for p in (run.errors + run.problems)[:20]:
        _info(problem=repr(p))


def _result(attempted: int, failed: int, problems: list, metrics: dict) -> dict:
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u}
                        for k, (v, u) in metrics.items()}}


def _measure_traced(spec, seed: int, seconds: float, work: Path) -> dict:
    """Alternate untraced and traced rounds; per-layer metrics come from the
    traced ones, the overhead from comparing the two."""
    cfg = workloads.make_config(spec, seed)
    tracer = Tracer(init_iters=cfg.learner_outer_iters_init)
    with tracer:
        state = _setup(spec, seed, work, [])
    load_ms = tracer.median_ms("data_io.load_sequence")
    with tracer:
        workloads.warm_up(state)
    tracer.reset()

    plain_run, traced_run = _Run(state), _Run(state)
    plain_rounds, traced_rounds = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced_rounds:
        plain_rounds.append(plain_run.one_round())
        with tracer:
            traced_rounds.append(traced_run.one_round())
    problems = plain_run.problems + traced_run.problems
    problems += workloads.prefix_problems(state)
    if tracer.nonmonotone_fits:
        problems.append(f"{tracer.nonmonotone_fits} optimize calls "
                        "increased the loss")

    passes = len(traced_rounds) * spec.sequences
    base = traced_run.busy or float("inf")      # 0 only if every pass raised
    metrics = {}
    for name in TIMED_SPANS:
        metrics[f"{name}_ms"] = (tracer.median_ms(name), "ms")
        metrics[f"{name}_pct"] = (100.0 * tracer.total(name) / base, "%")
    metrics["data_io.load_sequence_ms"] = (load_ms, "ms")
    metrics["autodiff.matvec_ms"] = (
        stats.median(tracer.matvecs) * 1e3 if tracer.matvecs else 0.0, "ms")
    counts = {
        "learner.fits": tracer.count("learner.init_fit")
        + tracer.count("learner.update_fit"),
        "learner.update_fits": tracer.count("learner.update_fit"),
        "learner.outer_iters": tracer.outer_iters,
        "autodiff.matvecs": len(tracer.matvecs),
        "autodiff.conv2d_calls": tracer.count("autodiff.conv2d"),
    }
    for name, total in counts.items():
        metrics[name] = (total / passes, "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = (
            100.0 * tracer.self_time.get(layer, 0.0) / base, "%")
    traced_ms = 1e3 * stats.median(traced_rounds) / spec.sequences
    plain_ms = 1e3 * stats.median(plain_rounds) / spec.sequences
    metrics["trace.pass_ms"] = (traced_ms, "ms")
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_ms / plain_ms - 1.0) if plain_ms else 0.0, "%")

    _info(workload=spec.name, seed=seed, traced_rounds=len(traced_rounds),
          untraced_pass_ms=f"{plain_ms:.1f}", traced_pass_ms=f"{traced_ms:.1f}")
    for p in (plain_run.errors + traced_run.errors + problems)[:20]:
        _info(problem=repr(p))
    return _result(plain_run.attempted + traced_run.attempted,
                   plain_run.failed + traced_run.failed, problems, metrics)
