"""Benchmark of flowvos: online segmentation and offline training.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload online-twins --seed 1 --seconds 30 --trace 0

The workload's inputs are rendered by the synthetic generator from
``--seed``.  After set-up and a warm-up the workload repeats whole rounds of
passes for ``--seconds``, checks every output, and prints one JSON object as
the last line of standard output.  With ``--trace 0`` it holds the
end-to-end metrics; with ``--trace 1`` rounds alternate between untraced
and traced, and it holds the per-layer metrics of the traced rounds and the
tracing overhead.  Lines before it start with ``#`` and are informational.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: under default threading a pass
# costs about twice the CPU time and the first passes run slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program() -> None:
    """Import flowvos from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "flowvos" / "__init__.py").is_file():
        raise SystemExit(f"error: no flowvos sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import flowvos
    if Path(flowvos.__file__).resolve().parent != (src / "flowvos").resolve():
        raise SystemExit(f"error: flowvos imported from {flowvos.__file__}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from perfbench import workloads
    from perfbench.measure import measure

    if args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.SPECS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed nonnegative",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        result = measure(workloads.SPECS[args.workload], args.seed,
                         args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()         # left alone while another run uses it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
