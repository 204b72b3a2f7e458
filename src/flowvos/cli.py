"""Operator surface: data synthesis, training, inference, evaluation, ablation.

Exit codes: 0 success, 1 usage/config error, 2 data error (also a path
that cannot be read or written, such as a directory where a file belongs),
3 numerical failure.  All commands accept ``--config FILE`` (line-oriented
key=value), ``--set key=value`` overrides and ``--seed N``; flags win over
file values.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError
from .config import (ConfigError, default_config_text, make_config,
                     parse_config_file)
from .data_io import (MAX_OBJECTS, DataFormatError, atomic_write, check_write_target,
                      generate_suite, generate_synthetic, load_sequence,
                      random_scene, read_pgm, write_pgm)
from .fusion import MODES
from .learner import NumericalError
from .metrics import (aggregate, score_label_sequence, write_frame_csv)
from .model import Model
from .pipeline import frame_sets, infer_sequence, inference_objects, train_offline

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3

ABLATION_MODES = (("none", "Baseline"), ("concat", "Concatenated"),
                  ("attention", "Ours"))


class UsageError(Exception):
    pass


def _progress(msg: str) -> None:
    """Progress lines on stderr."""
    print(msg, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_config_flags(p: _Parser) -> None:
    p.add_argument("--config", help="run config file (key=value lines)")
    p.add_argument("--seed", type=int, help="master seed (overrides config)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config key; repeatable")


def _build_config(args):
    values = parse_config_file(args.config) if args.config else {}
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, val = (s.strip() for s in item.split("=", 1))
        overrides[key] = val
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return make_config(values, overrides)


def _discover_sequences(root: Path) -> list:
    if (root / "meta").exists():
        return [root]
    seqs = sorted(p for p in root.iterdir() if (p / "meta").exists())
    if not seqs:
        raise DataFormatError(f"{root}: no sequence directories found")
    return seqs


# ---------------------------------------------------------------------------
# subcommands


_SYNTH_MINIMUM = {"seed": 0, "frames": 1, "objects": 1, "width": 1,
                  "height": 1, "count": 1}


def cmd_synth(args) -> int:
    for name, low in _SYNTH_MINIMUM.items():
        if getattr(args, name) < low:
            raise UsageError(f"--{name} must be >= {low}, got {getattr(args, name)}")
    if args.objects > MAX_OBJECTS:
        raise UsageError(f"--objects must be <= {MAX_OBJECTS}, got {args.objects}")
    if args.count > 1:
        paths = generate_suite(args.out, count=args.count, width=args.width,
                               height=args.height, frames=args.frames,
                               objects=args.objects, seed=args.seed,
                               distractors=args.distractors)
        print(f"wrote {len(paths)} sequences under {args.out}")
    else:
        scene = random_scene(args.width, args.height, args.frames, args.objects,
                             args.seed, distractors=args.distractors)
        generate_synthetic(scene, args.out)
        print(f"wrote sequence {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _build_config(args)
    check_write_target(args.out)
    seqs = [load_sequence(p) for p in _discover_sequences(Path(args.data))]
    model = Model(fusion_mode=args.mode, seed=cfg.seed)
    history = train_offline(seqs, model, cfg, log=_progress)
    model.save(args.out)
    print(f"checkpoint {args.out}: {len(seqs)} sequences, "
          f"final loss {history[-1]:.4f}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _build_config(args)
    out = Path(args.out)
    # the nearest existing path on the way to --out must be a directory,
    # or mkdir fails after every frame has been segmented
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"{existing}: is not a directory")
    model = Model.load(args.ckpt)
    seq = load_sequence(args.seq)
    results = infer_sequence(frame_sets(seq), seq.masks[0], model, cfg)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "timing.csv", "w") as fh:
        fh.write("frame,seconds,updated\n")
        for r in results:
            write_pgm(out / f"{r.frame_index:05d}.pgm", r.labels)
            fh.write(f"{r.frame_index},{r.seconds:.4f},{int(r.updated)}\n")
    print(f"wrote {len(results)} masks to {out}")
    return EXIT_OK


def _mask_files(path: Path) -> list:
    files = sorted(path.glob("*.pgm"))
    if not files:
        raise DataFormatError(f"{path}: no .pgm masks found")
    return files


def cmd_eval(args) -> int:
    csv_path = str(args.report) + ".csv"
    check_write_target(csv_path, args.report)
    pred_files = _mask_files(Path(args.pred))
    gt_files = _mask_files(Path(args.gt))
    if len(pred_files) != len(gt_files):
        raise DataFormatError(f"{args.pred} has {len(pred_files)} masks but "
                              f"{args.gt} has {len(gt_files)}")
    pred, gt = ([read_pgm(f) for f in files] for files in (pred_files, gt_files))
    for pf, gf, p, g in zip(pred_files, gt_files, pred, gt):
        if p.shape != g.shape:
            raise DataFormatError(f"{pf} is {p.shape[1]}x{p.shape[0]} but {gf} is "
                                  f"{g.shape[1]}x{g.shape[0]}")
    if len(gt) < 2:
        raise DataFormatError(f"{args.gt}: scoring needs at least two masks")
    if not gt[0].any():
        raise DataFormatError(f"{gt_files[0]}: first mask contains no objects")
    rows = score_label_sequence(Path(args.gt).parent.name or "sequence",
                                pred, gt)
    report = aggregate(rows)
    write_frame_csv(rows, csv_path)
    with atomic_write(args.report) as fh:
        fh.write(report.to_json() + "\n")
    print(f"J {report.mean_j:.4f}  F {report.mean_f:.4f}  "
          f"J&F {report.mean_jf:.4f}")
    return EXIT_OK


def _ablate_one(mode: str, train_seqs, eval_seqs, cfg):
    model = Model(fusion_mode=mode, seed=cfg.seed)
    train_offline(train_seqs, model, cfg)
    rows = []
    for seq in eval_seqs:
        results = infer_sequence(frame_sets(seq), seq.masks[0], model, cfg)
        rows += score_label_sequence(seq.name, [r.labels for r in results],
                                     seq.masks)
    return aggregate(rows)


def cmd_ablate(args) -> int:
    cfg = _build_config(args)
    csv_path = str(args.out) + ".csv"
    check_write_target(csv_path, args.out)
    root = Path(args.data)
    if (root / "train").is_dir() and (root / "eval").is_dir():
        train_seqs = [load_sequence(p) for p in _discover_sequences(root / "train")]
        eval_seqs = [load_sequence(p) for p in _discover_sequences(root / "eval")]
    else:                                # one suite, loaded once: no run writes into it
        train_seqs = eval_seqs = [load_sequence(p) for p in _discover_sequences(root)]
    for seq in eval_seqs:                # fail before training, not after the whole budget
        try:
            inference_objects(frame_sets(seq), seq.masks[0])
        except DataFormatError as e:
            raise DataFormatError(f"{seq.name}: {e}") from None

    table = []
    for mode, label in ABLATION_MODES:
        _progress(f"[{label}] training ({mode}) ...")
        report = _ablate_one(mode, train_seqs, eval_seqs, cfg)
        table.append((label, report))
        _progress(f"[{label}] J&F {report.mean_jf:.4f}")

    with atomic_write(csv_path) as fh:
        fh.write("mode,J,F,J&F\n")
        for label, rep in table:
            fh.write(f"{label},{rep.mean_j:.6f},{rep.mean_f:.6f},"
                     f"{rep.mean_jf:.6f}\n")
    lines = [f"{'mode':<14}{'J':>8}{'F':>8}{'J&F':>8}"]
    for label, rep in table:
        lines.append(f"{label:<14}{rep.mean_j:>8.4f}{rep.mean_f:>8.4f}"
                     f"{rep.mean_jf:>8.4f}")
    text = "\n".join(lines) + "\n"
    with atomic_write(args.out) as fh:
        fh.write(text)
    print(text, end="")
    print(f"report {args.out} (+ {csv_path})")
    return EXIT_OK


def cmd_config(args) -> int:
    print(default_config_text(), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="flowvos",
                description="flow-guided semi-supervised video object segmentation")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic sequence (or suite)")
    s.add_argument("--out", required=True)
    s.add_argument("--frames", type=int, default=10)
    s.add_argument("--objects", type=int, default=2)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--width", type=int, default=64)
    s.add_argument("--height", type=int, default=64)
    s.add_argument("--distractors", action="store_true",
                   help="identical-appearance objects with distinct motion")
    s.add_argument("--count", type=int, default=1,
                   help="generate a suite of this many sequences")
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("train", help="offline-train a model on a sequence suite")
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True, help="checkpoint path")
    s.add_argument("--mode", choices=MODES, default="attention",
                   help="fusion mode of the model (default: attention)")
    _add_config_flags(s)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("run", help="segment one sequence with a checkpoint")
    s.add_argument("--seq", required=True)
    s.add_argument("--ckpt", required=True)
    s.add_argument("--out", required=True, help="output mask directory")
    _add_config_flags(s)
    s.set_defaults(func=cmd_run)

    s = sub.add_parser("eval", help="score predicted masks against ground truth")
    s.add_argument("--pred", required=True, help="directory of predicted .pgm masks")
    s.add_argument("--gt", required=True, help="directory of ground-truth .pgm masks")
    s.add_argument("--report", required=True)
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("ablate",
                       help="train and evaluate all three fusion modes")
    s.add_argument("--data", required=True,
                   help="suite dir (optionally with train/ and eval/ splits)")
    s.add_argument("--out", required=True, help="report path")
    _add_config_flags(s)
    s.set_defaults(func=cmd_ablate)

    s = sub.add_parser("config", help="print a documented default config file")
    s.set_defaults(func=cmd_config)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # a finite input can still overflow float32 arithmetic: that ends the
        # command with exit 3 and one error line, not with warnings on
        # stderr and a result computed from inf and nan
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (UsageError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, CheckpointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
