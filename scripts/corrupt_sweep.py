"""Brute-force sweep of the CLI's exit-code contract over damaged input files.

Synthesizes a 16x16 two-frame sequence and a checkpoint, then damages one
file at a time, one damage per run: every truncation point and every single
bit flip in the first ``--header`` bytes of each file, plus ``--samples``
seeded offsets further in, each both truncated at and bit-flipped, and last
the file replaced by an empty directory.  The files are the sequence's
meta, frames 0 and 1 (PPM), flows 0 and 1 (.flo), masks 0 and 1 (PGM) and
the checkpoint.  ``flowvos run`` segments the sequence with each damaged
file in place, and ``flowvos eval`` also scores the masks when a mask is
damaged.

The contract: every run ends in exit code 0, 1, 2 or 3, and a nonzero exit
writes exactly one line, starting with ``error: ``, to stderr.  A traceback,
a warning or a second line breaks it.  The sweep prints the outcome counts
and each broken run, and exits 1 if any run broke the contract.

Usage, from the root of a checkout:

    python3 scripts/corrupt_sweep.py [--header 64] [--samples 40] [--seed 0]

The defaults make 6570 runs, about three minutes; run as a script, the sweep
pins BLAS to one thread.  The property test
``tests/test_cli.py::test_truncated_or_bit_flipped_file_keeps_the_exit_code_contract``
draws 40 of these damages in Tier-1 from the same inputs (``setup``) and
judges each run by the same contract (``run_cli`` and ``broken``); this
sweep covers the header bytes exhaustively.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import os
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

if __name__ == "__main__":
    # One BLAS thread, set before numpy loads: 16x16 inputs gain nothing
    # from a second one, which would only take a core from other work.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

from flowvos.cli import main  # noqa: E402
from flowvos.model import Model  # noqa: E402

FILES = ["seq/meta", "seq/frames/00000.ppm", "seq/frames/00001.ppm",
         "seq/flows/00000.flo", "seq/flows/00001.flo",
         "seq/masks/00000.pgm", "seq/masks/00001.pgm", "model.ckpt"]


def damages(blob: bytes, header: int, samples: int, rng) -> list:
    """(label, damaged bytes) for every truncation and bit flip in the first
    ``header`` bytes and at ``samples`` drawn offsets beyond them."""
    out = []
    head = min(header, len(blob))
    for n in range(head):
        out.append((f"truncated to {n} bytes", blob[:n]))
    for at in range(head):
        for bit in range(8):
            out.append((f"bit {bit} of byte {at} flipped", flip(blob, at, bit)))
    if len(blob) > head:
        for at in rng.integers(head, len(blob), size=samples):
            bit = int(rng.integers(8))
            out.append((f"truncated to {at} bytes", blob[:at]))
            out.append((f"bit {bit} of byte {at} flipped", flip(blob, int(at), bit)))
    return out


def flip(blob: bytes, at: int, bit: int) -> bytes:
    bad = bytearray(blob)
    bad[at] ^= 1 << bit
    return bytes(bad)


def run_cli(argv: list) -> tuple:
    """Exit code and stderr lines of one in-process CLI run; an exception
    that escapes ``main`` comes back as its repr in place of a code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _to_stderr
        try:
            code = main(argv)
        except BaseException as e:        # noqa: BLE001 - recorded as broken
            code = repr(e)
    return code, err.getvalue().splitlines()


def _to_stderr(message, category, filename, lineno, file=None, line=None):
    print(f"{filename}:{lineno}: {category.__name__}: {message}", file=sys.stderr)


def broken(code, lines: list) -> bool:
    """Whether a run's exit code and stderr lines break the contract."""
    if code not in (0, 1, 2, 3):
        return True
    if code == 0:
        return bool(lines)
    return len(lines) != 1 or not lines[0].startswith("error: ")


def setup(root: Path) -> dict:
    """Write the inputs under ``root``: the sequence ``seq``, a copy of its
    masks in ``gt`` and the checkpoint ``model.ckpt``.  Returns, for each
    file of ``FILES``, the CLI runs that read it: ``run``, and for a mask
    also ``eval``."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(root / "seq"), "--frames", "2",
                     "--objects", "2", "--seed", "5", "--width", "16",
                     "--height", "16"]) == 0
    (root / "gt").mkdir()
    for f in (root / "seq" / "masks").iterdir():
        (root / "gt" / f.name).write_bytes(f.read_bytes())
    Model(seed=1).save(root / "model.ckpt")
    run = ["run", "--seq", str(root / "seq"), "--ckpt", str(root / "model.ckpt"),
           "--out", str(root / "out"), "--seed", "1"]
    score = ["eval", "--pred", str(root / "seq" / "masks"), "--gt", str(root / "gt"),
             "--report", str(root / "report.json")]
    return {rel: [run] + ([score] if rel.startswith("seq/masks/") else [])
            for rel in FILES}


def sweep(root: Path, header: int, samples: int, seed: int) -> int:
    readers = setup(root)
    rng = np.random.default_rng(seed)
    codes: collections.Counter = collections.Counter()
    failures = []
    t0 = time.perf_counter()
    for rel, commands in readers.items():
        path = root / rel
        blob = path.read_bytes()

        def run_all(label):
            for argv in commands:
                code, lines = run_cli(argv)
                codes[code if isinstance(code, int) else "exception"] += 1
                if broken(code, lines):
                    failures.append(f"{rel}, {label}: {argv[0]} -> {code!r}, "
                                    f"stderr {lines[:3]!r}")

        try:
            for label, bad in damages(blob, header, samples, rng):
                path.write_bytes(bad)
                run_all(label)
            path.unlink()
            path.mkdir()
            run_all("replaced by an empty directory")
        finally:
            if path.is_dir():
                path.rmdir()
            path.write_bytes(blob)
    total = sum(codes.values())
    print(f"{total} runs in {time.perf_counter() - t0:.0f} s: "
          + ", ".join(f"exit {k}: {v}" for k, v in sorted(codes.items(), key=str)))
    print(f"{len(failures)} runs broke the exit-code contract")
    for line in failures:
        print(f"  {line}")
    return 1 if failures else 0


def main_sweep(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--header", type=int, default=64,
                   help="leading bytes of each file damaged exhaustively")
    p.add_argument("--samples", type=int, default=40,
                   help="offsets drawn beyond the header bytes of each file")
    p.add_argument("--seed", type=int, default=0, help="seed of the drawn offsets")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="corrupt-sweep-") as tmp:
        return sweep(Path(tmp), args.header, args.samples, args.seed)


if __name__ == "__main__":
    sys.exit(main_sweep())
