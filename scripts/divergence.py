"""Byte-level divergence between two source trees on one seeded training run.

Generates one synthetic suite of twin sequences (identical objects told
apart only by motion, as ``flowvos synth --distractors`` makes them) and a
held-out suite beside it, seeded ``1000 + SEED`` as ROADMAP item 1 fixes
it.  Each tree then runs in its own subprocess, with one BLAS thread: for
every fusion mode it trains a model on the suite (``train_offline`` with
the default config, seeded ``SEED``) and segments each held-out sequence
(``infer_sequence``).  The worker hooks the program from outside, as
``tests/conftest.py::capture_fit_problems`` does, and records:

- per Adam step, the fitted filters of the step's inner fit, the sample
  loss and every offline weight after the step;
- per inference frame, the probabilities and the labels.

Per step and per frame the report gives, for each quantity, the first byte
at which the two runs differ and their relative distance ||a - b|| / ||a||,
and per mode the first step or frame that differs.  It also gives each
side's held-out J&F per mode, scored in the worker with that tree's own
``flowvos.metrics.score_label_sequence`` and ``aggregate``, so a change that
moves inference bytes reads its accuracy effect from the same run, and each
side's worker peak RSS (``ru_maxrss``) and the bytes its tape keeps when
the first ``Tape.backward`` starts (``tape_bytes``), so a change's memory
effect reads beside its byte identity.  The exit code is 0 when no byte
differs, 1 when one does, whatever the J&F, the RSS and the tape bytes.

Usage, from the root of a checkout:

    python3 scripts/divergence.py [TREE_A [TREE_B]]

A tree is the root of a flowvos checkout; both default to this one, and
TREE_B to TREE_A, so one tree runs twice.  The suite is the seed-7
``ablate`` suite (``ABLATE``): 20 training sequences of 10 frames with two
objects, 60 Adam steps per mode, and 10 held-out sequences.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import resource
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional

ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}
if __name__ == "__main__":
    # one BLAS thread, set before numpy loads; the workers inherit it
    os.environ.update(ONE_THREAD)

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODES = ("none", "concat", "attention")
SEED = 7                                 # the training suite's; the held-out suite's is 1000 + SEED
OBJECTS = 2                              # per sequence, as in the ablate suite
STEP_QUANTITIES = ("filters", "loss", "weights")
FRAME_QUANTITIES = ("probs", "labels")


class Suite(NamedTuple):
    count: int                           # training sequences
    frames: int                          # per sequence
    size: int                            # frame width and height
    eval_count: int                      # held-out sequences
    epochs: int


ABLATE = Suite(count=20, frames=10, size=64, eval_count=10, epochs=3)


# ---------------------------------------------------------------------------
# records: a file of arrays written one after the other with ``np.save``


def write_record(fh, arrays: Iterable[np.ndarray]) -> None:
    for a in arrays:
        np.save(fh, np.asarray(a), allow_pickle=False)


def read_records(path: Path, width: int) -> Iterator[tuple]:
    """The records of a file, ``width`` arrays each, one record at a time."""
    with open(path, "rb") as fh:
        while fh.peek(1):
            yield tuple(np.load(fh, allow_pickle=False) for _ in range(width))


def _flat(tensors) -> np.ndarray:
    return np.concatenate([t.data.ravel() for t in tensors])


# ---------------------------------------------------------------------------
# comparison


def difference(a: np.ndarray, b: np.ndarray) -> tuple[Optional[int], float]:
    """The first byte offset at which the raw bytes of ``a`` and ``b``
    differ, None when they are equal byte for byte, and their relative
    distance ||a - b|| / ||a|| in float64: 0 when equal, inf when a is zero
    and b is not, nan when the shapes differ."""
    ba = np.frombuffer(np.ascontiguousarray(a).tobytes(), dtype=np.uint8)
    bb = np.frombuffer(np.ascontiguousarray(b).tobytes(), dtype=np.uint8)
    n = min(ba.size, bb.size)
    differ = np.flatnonzero(ba[:n] != bb[:n])
    if differ.size:
        byte = int(differ[0])
    elif ba.size != bb.size or a.shape != b.shape or a.dtype != b.dtype:
        byte = n
    else:
        return None, 0.0
    if a.shape != b.shape:
        return byte, float("nan")
    x, y = a.astype(np.float64), b.astype(np.float64)
    den = float(np.linalg.norm(x))
    num = float(np.linalg.norm(x - y))
    return byte, num / den if den > 0.0 else (float("inf") if num > 0.0 else 0.0)


def compare(records_a: Iterable[tuple], records_b: Iterable[tuple]) -> list:
    """One row per record of either side: the ``difference`` of each pair of
    arrays, or None for a record that only one side has."""
    rows = []
    a, b = iter(records_a), iter(records_b)
    while True:
        ra, rb = next(a, None), next(b, None)
        if ra is None and rb is None:
            return rows
        rows.append(None if ra is None or rb is None
                    else [difference(x, y) for x, y in zip(ra, rb)])


def first_divergence(rows: list) -> Optional[int]:
    """The index of the first row in which a byte differs, or None."""
    return next((i for i, row in enumerate(rows)
                 if row is None or any(byte is not None for byte, _ in row)), None)


def _cell(diff) -> str:
    byte, rel = diff
    return "same" if byte is None else f"byte {byte} rel {rel:.2e}"


def format_rows(kind: str, labels: list, quantities: tuple, rows: list) -> list:
    width = 28
    lines = [(f"{kind:<16}" + "".join(f"{q:<{width}}" for q in quantities)).rstrip()]
    for label, row in zip(labels, rows):
        cells = (["missing on one side"] if row is None
                 else [f"{_cell(d):<{width}}" for d in row])
        lines.append(f"{label:<16}" + "".join(cells).rstrip())
    return lines


# ---------------------------------------------------------------------------
# the worker: one tree in its own process


def tape_bytes(tape, tensor_type) -> int:
    """The bytes of the distinct arrays that ``tape`` keeps: those its nodes'
    rules reach through their closure cells (and the nested functions and
    containers in them), and the data of any ``tensor_type`` a node holds,
    each counted once, by the array that owns its memory."""
    stack = [obj for node in tape.nodes
             for obj in (node.out, *node.inputs, node.vjp, node.jvp)]
    seen, owners = set(), {}
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj.nbytes
        elif isinstance(obj, tensor_type):
            stack.append(obj.data)
        elif isinstance(obj, types.FunctionType):
            stack += [cell.cell_contents for cell in obj.__closure__ or ()]
        elif isinstance(obj, (tuple, list)):
            stack += obj
    return sum(owners.values())


@contextlib.contextmanager
def recording(pipeline, fh, kept: list):
    """While installed, each Adam step of ``pipeline.train_offline`` writes
    one record: the filters its inner fit returned, its sample loss and the
    offline weights after the step.  The first ``Tape.backward`` that finds
    ``kept`` empty appends to it the ``tape_bytes`` of its tape."""
    from flowvos.autodiff import Tensor

    fit, backward, step = pipeline.optimize, pipeline.Tape.backward, pipeline.Adam.step
    last = {}

    def record_fit(params, *args, **kwargs):
        res = fit(params, *args, **kwargs)
        last["filters"] = _flat(params.tensors())
        return res

    def record_backward(tape, loss, *args, **kwargs):
        last["loss"] = np.array(loss.data)
        if not kept:
            kept.append(tape_bytes(tape, Tensor))
        return backward(tape, loss, *args, **kwargs)

    def record_step(adam):
        step(adam)
        write_record(fh, (last.pop("filters"), last.pop("loss"), _flat(adam.params)))

    pipeline.optimize, pipeline.Tape.backward, pipeline.Adam.step = (
        record_fit, record_backward, record_step)
    try:
        yield
    finally:
        pipeline.optimize, pipeline.Tape.backward, pipeline.Adam.step = fit, backward, step


def run_worker(tree: Path, data: Path, out: Path, epochs: int) -> None:
    sys.path.insert(0, str(tree / "src"))
    from flowvos import pipeline
    from flowvos.config import RunConfig
    from flowvos.data_io import load_sequence
    from flowvos.metrics import aggregate, score_label_sequence
    from flowvos.model import Model

    def suite(name):
        return [load_sequence(p) for p in sorted((data / name).iterdir())]

    train, held_out = suite("train"), suite("eval")
    cfg = RunConfig(seed=SEED, train_epochs=epochs)
    kept = []
    for mode in MODES:
        model = Model(fusion_mode=mode, seed=cfg.seed)
        with open(out / f"{mode}.steps", "wb") as fh, recording(pipeline, fh, kept):
            pipeline.train_offline(train, model, cfg)
        scores = []
        with open(out / f"{mode}.frames", "wb") as fh:
            for seq in held_out:
                results = pipeline.infer_sequence(pipeline.frame_sets(seq), seq.masks[0],
                                                  model, cfg)
                for r in results:
                    write_record(fh, (r.probs, r.labels))
                scores += score_label_sequence(seq.name, [r.labels for r in results],
                                               seq.masks)
        (out / f"{mode}.jf").write_text(repr(aggregate(scores).mean_jf))
    (out / "source").write_text(pipeline.__file__)
    (out / "tapebytes").write_text(str(kept[0]))
    # kibibytes on Linux
    (out / "maxrss").write_text(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))


# ---------------------------------------------------------------------------
# the driver


def make_suites(data: Path, suite: Suite) -> list:
    """The training and held-out suites under ``data``; returns the
    held-out frame labels, ``seq_NNN tT``."""
    sys.path.insert(0, str(ROOT / "src"))
    from flowvos.data_io import generate_suite

    for name, count, seed in (("train", suite.count, SEED),
                              ("eval", suite.eval_count, 1000 + SEED)):
        generate_suite(data / name, count=count, width=suite.size, height=suite.size,
                       frames=suite.frames, objects=OBJECTS, seed=seed,
                       distractors=True)
    return [f"seq_{i:03d} t{t}" for i in range(suite.eval_count)
            for t in range(suite.frames)]


def run_trees(trees: list, data: Path, work: Path, epochs: int) -> list:
    """Start one worker per tree, at once, and wait for both; returns their
    output directories."""
    env = {**os.environ, **ONE_THREAD}
    outs, procs = [], []
    try:
        for i, tree in enumerate(trees):
            out = work / f"run_{i}"
            out.mkdir()
            outs.append(out)
            procs.append(subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(tree),
                 "--worker", str(out), "--data", str(data), "--epochs", str(epochs)],
                env=env))
        failed = [str(t) for t, p in zip(trees, procs) if p.wait() != 0]
    finally:
        for p in procs:                  # only left running if the driver failed
            if p.poll() is None:
                p.kill()
                p.wait()
    if failed:
        raise SystemExit(f"error: the worker failed for {', '.join(failed)}")
    return outs


def report(outs: list, frame_labels: list) -> tuple[list, bool]:
    lines = [f"side {s}: {(o / 'source').read_text()}" for s, o in zip("AB", outs)]
    summary, diverged = [], False
    for mode in MODES:
        steps = compare(*(read_records(o / f"{mode}.steps", len(STEP_QUANTITIES))
                          for o in outs))
        frames = compare(*(read_records(o / f"{mode}.frames", len(FRAME_QUANTITIES))
                           for o in outs))
        lines += ["", f"mode {mode}"]
        lines += format_rows("Adam step", [str(i + 1) for i in range(len(steps))],
                             STEP_QUANTITIES, steps)
        lines += format_rows("frame", frame_labels, FRAME_QUANTITIES, frames)
        first_step, first_frame = first_divergence(steps), first_divergence(frames)
        diverged |= first_step is not None or first_frame is not None
        where = []
        if first_step is not None:
            where.append(f"first differing Adam step {first_step + 1}")
        if first_frame is not None:
            where.append(f"first differing frame {frame_labels[first_frame]}")
        summary.append(f"mode {mode}: {len(steps)} Adam steps, {len(frames)} frames: "
                       + (", ".join(where) or "no differing byte"))
    jf_lines = [f"side {s} held-out J&F: " + ", ".join(
        f"{mode} {float((o / f'{mode}.jf').read_text()):.6f}" for mode in MODES)
        for s, o in zip("AB", outs)]
    rss_lines = [f"side {s} worker peak RSS: {int((o / 'maxrss').read_text()) / 1024:.1f} MB"
                 for s, o in zip("AB", outs)]
    tape_lines = [f"side {s} tape bytes at the first backward: "
                  f"{int((o / 'tapebytes').read_text()) / 2 ** 20:.1f} MB"
                  for s, o in zip("AB", outs)]
    return lines + [""] + jf_lines + rss_lines + tape_lines + [""] + summary, diverged


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("trees", nargs="*", type=Path, default=[],
                   help="one or two flowvos checkouts (default: this one)")
    # the driver's call of a worker
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--data", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--epochs", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if len(args.trees) > 2:
        p.error("at most two trees")
    return args


def main(argv=None, suite: Suite = ABLATE) -> int:
    """Compare the trees of ``argv`` on ``suite``; the exit code."""
    args = parse_args(argv)
    if args.worker is not None:
        run_worker(args.trees[0].resolve(), args.data, args.worker, args.epochs)
        return 0
    trees = [t.resolve() for t in (args.trees or [ROOT])]
    if len(trees) == 1:
        trees *= 2                       # one tree, run twice
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        frame_labels = make_suites(work / "data", suite)
        outs = run_trees(trees, work / "data", work, suite.epochs)
        lines, diverged = report(outs, frame_labels)
    print("\n".join(lines))
    return int(diverged)


if __name__ == "__main__":
    sys.exit(main())
