"""Region similarity J, contour accuracy F, and their aggregation.

J is intersection-over-union of binary masks. F is the F-score between
1-pixel object boundaries (4-connectivity, image border counts as
background), where a boundary pixel matches if it lies within a Chebyshev
radius of the other boundary; the radius defaults to the DAVIS convention
round(0.0088 * image diagonal). Scores average over frames, then objects,
then sequences.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data_io import atomic_write

__all__ = [
    "jaccard",
    "boundary_f",
    "default_tolerance",
    "boundary_mask",
    "FrameScore",
    "MetricsReport",
    "aggregate",
    "score_label_sequence",
    "write_frame_csv",
]


def _as_binary(mask, name: str) -> np.ndarray:
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValueError(f"{name} mask must be 2-D, got shape {m.shape}")
    return m.astype(bool)


def jaccard(pred, gt) -> float:
    """Intersection over union; 1.0 when both masks are empty."""
    p = _as_binary(pred, "pred")
    g = _as_binary(gt, "gt")
    if p.shape != g.shape:
        raise ValueError(f"mask shape mismatch {p.shape} vs {g.shape}")
    union = np.count_nonzero(p | g)
    if union == 0:
        return 1.0
    return np.count_nonzero(p & g) / union


def boundary_mask(mask) -> np.ndarray:
    """Foreground pixels with at least one 4-neighbor outside the object."""
    m = _as_binary(mask, "boundary")
    pad = np.pad(m, 1, constant_values=False)
    interior = (pad[:-2, 1:-1] & pad[2:, 1:-1] & pad[1:-1, :-2] & pad[1:-1, 2:])
    return m & ~interior


def _dilate_chebyshev(b: np.ndarray, radius: int) -> np.ndarray:
    out = b
    for _ in range(radius):
        p = np.pad(out, 1, constant_values=False)
        out = (p[:-2, :-2] | p[:-2, 1:-1] | p[:-2, 2:]
               | p[1:-1, :-2] | p[1:-1, 1:-1] | p[1:-1, 2:]
               | p[2:, :-2] | p[2:, 1:-1] | p[2:, 2:])
    return out


def default_tolerance(h: int, w: int) -> int:
    return int(round(0.0088 * float(np.hypot(h, w))))


def boundary_f(pred, gt, tol_radius: Optional[int] = None) -> float:
    """Boundary F-score under a Chebyshev matching tolerance."""
    p = _as_binary(pred, "pred")
    g = _as_binary(gt, "gt")
    if p.shape != g.shape:
        raise ValueError(f"mask shape mismatch {p.shape} vs {g.shape}")
    if tol_radius is None:
        tol_radius = default_tolerance(*p.shape)
    pb = boundary_mask(p)
    gb = boundary_mask(g)
    n_p = np.count_nonzero(pb)
    n_g = np.count_nonzero(gb)
    if n_p == 0 and n_g == 0:
        return 1.0
    if n_p == 0 or n_g == 0:
        return 0.0
    gd = _dilate_chebyshev(gb, tol_radius)
    pd = _dilate_chebyshev(pb, tol_radius)
    precision = np.count_nonzero(pb & gd) / n_p
    recall = np.count_nonzero(gb & pd) / n_g
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass
class FrameScore:
    sequence: str
    frame: int
    obj: int
    j: float
    f: float


@dataclass
class MetricsReport:
    per_sequence: dict        # sequence -> {"J": , "F": , "J&F": }
    mean_j: float
    mean_f: float
    mean_jf: float

    def to_json(self) -> str:
        return json.dumps({"J": self.mean_j, "F": self.mean_f,
                           "J&F": self.mean_jf, "sequences": self.per_sequence},
                          indent=2, sort_keys=True)


def _mean(vals):
    return float(sum(vals) / len(vals))


def aggregate(rows: list[FrameScore]) -> MetricsReport:
    """Average frame scores over frames, then objects, then sequences."""
    if not rows:
        raise ValueError("aggregate of zero frame scores")
    by_obj: dict = {}
    for r in rows:
        if not (0.0 <= r.j <= 1.0 and 0.0 <= r.f <= 1.0):
            raise ValueError(f"score out of range in {r}")
        by_obj.setdefault((r.sequence, r.obj), []).append(r)
    per_object = {
        key: {"J": _mean([r.j for r in rs]), "F": _mean([r.f for r in rs])}
        for key, rs in by_obj.items()
    }
    by_seq: dict = {}
    for (seq, obj), sc in per_object.items():
        by_seq.setdefault(seq, []).append(sc)
    per_sequence = {}
    for seq, scs in sorted(by_seq.items()):
        j = _mean([s["J"] for s in scs])
        f = _mean([s["F"] for s in scs])
        per_sequence[seq] = {"J": j, "F": f, "J&F": (j + f) / 2.0}
    mean_j = _mean([s["J"] for s in per_sequence.values()])
    mean_f = _mean([s["F"] for s in per_sequence.values()])
    return MetricsReport(
        per_sequence=per_sequence,
        mean_j=mean_j,
        mean_f=mean_f,
        mean_jf=(mean_j + mean_f) / 2.0,
    )


def score_label_sequence(name: str, pred_labels: list,
                         gt_labels: list) -> list[FrameScore]:
    """Per-frame, per-object J/F rows for two aligned lists of label images.

    The objects are those of frame 0's ground truth.  Frame 0 (the given
    annotation) is not scored.
    """
    if len(pred_labels) != len(gt_labels):
        raise ValueError(
            f"{name}: {len(pred_labels)} predictions vs {len(gt_labels)} labels")
    objects = sorted(int(k) for k in np.unique(gt_labels[0]) if k > 0)
    rows = []
    for t in range(1, len(gt_labels)):
        pred, gt = pred_labels[t], gt_labels[t]
        for k in objects:
            rows.append(FrameScore(name, t, k,
                                   jaccard(pred == k, gt == k),
                                   boundary_f(pred == k, gt == k)))
    return rows


def write_frame_csv(rows: list[FrameScore], path) -> None:
    """One CSV row per frame and object; a name with a comma or quote is quoted."""
    with atomic_write(path) as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("sequence", "frame", "object", "J", "F"))
        for r in rows:
            out.writerow((r.sequence, r.frame, r.obj, f"{r.j:.6f}", f"{r.f:.6f}"))
