"""The divergence harness, ``scripts/divergence.py``: its comparison, and a
run of this tree against itself."""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np

from flowvos import autodiff as ad
from flowvos.autodiff import Tape, Tensor

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "divergence.py"


def _load_divergence():
    spec = importlib.util.spec_from_file_location("divergence", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


divergence = _load_divergence()


def test_difference_gives_the_first_differing_byte_and_the_relative_distance():
    a = np.arange(1.0, 5.0, dtype=np.float32)
    b = a.copy()
    b[2] = np.nextafter(b[2], np.float32(10.0))           # one ulp: the lowest byte
    byte, rel = divergence.difference(a, b)
    assert byte == 8 + (0 if sys.byteorder == "little" else 3)
    assert rel == (float(b[2]) - 3.0) / np.sqrt(30.0)     # ||a|| = sqrt(1 + 4 + 9 + 16)
    assert divergence.difference(a, a.copy()) == (None, 0.0)
    byte, rel = divergence.difference(a, a.astype(np.float64))
    assert byte is not None and rel == 0.0                 # same values, other bytes
    assert np.isnan(divergence.difference(a, a[:3])[1])


def test_a_planted_difference_is_reported_at_its_step():
    rng = np.random.default_rng(0)
    steps = [tuple(rng.standard_normal(n).astype(np.float32) for n in (5, 1, 7))
             for _ in range(6)]
    planted = [tuple(a.copy() for a in step) for step in steps]
    planted[3][2][4] *= 2.0                                # step 4's weights, entry 4
    rows = divergence.compare(steps, planted)
    assert len(rows) == 6 and divergence.first_divergence(rows) == 3
    for i, row in enumerate(rows):
        if i != 3:
            assert row == [(None, 0.0)] * 3
    (filters, loss, (byte, rel)) = rows[3]
    assert filters == loss == (None, 0.0)
    assert byte // 4 == 4 and rel > 0.0

    # a step that only one side took diverges where it starts
    rows = divergence.compare(steps, steps[:5])
    assert rows[5] is None and divergence.first_divergence(rows) == 5


def test_tape_bytes_count_each_kept_array_once():
    x = Tensor(np.ones((4, 8), dtype=np.float32))
    with Tape() as tape:
        y = ad.mul(x, x)                                   # keeps x twice: one array
        ad.relu(ad.reshape(y, (32,)))                      # keeps a 32-byte mask
    assert divergence.tape_bytes(tape, Tensor) == x.data.nbytes + 32


def test_this_tree_against_itself_does_not_diverge(capsys):
    tiny = divergence.Suite(count=2, frames=4, size=32, eval_count=1, epochs=1)
    assert divergence.main([], suite=tiny) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == [f"mode {mode}: 2 Adam steps, 4 frames: no differing byte"
                        for mode in ("none", "concat", "attention")]
    side_a, side_b, rss_a, rss_b, tape_a, tape_b, blank = out[-10:-3]
    assert side_a.startswith("side A held-out J&F: none ") and blank == ""
    assert side_b == "side B" + side_a[len("side A"):]
    for side, line in (("A", rss_a), ("B", rss_b)):
        assert re.fullmatch(rf"side {side} worker peak RSS: \d+\.\d MB", line)
    assert re.fullmatch(r"side A tape bytes at the first backward: \d+\.\d MB", tape_a)
    assert tape_b == "side B" + tape_a[len("side A"):]
