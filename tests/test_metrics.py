import csv

import numpy as np
import pytest

from flowvos.metrics import (FrameScore, aggregate, boundary_f, boundary_mask,
                             default_tolerance, jaccard, write_frame_csv)


def brute_force_f(pred, gt, tol):
    """Pairwise Chebyshev-distance matching, the independent oracle."""
    pb = [tuple(p) for p in np.argwhere(boundary_mask(pred))]
    gb = [tuple(p) for p in np.argwhere(boundary_mask(gt))]
    if not pb and not gb:
        return 1.0
    if not pb or not gb:
        return 0.0

    def matched(points, targets):
        n = 0
        for y, x in points:
            if any(max(abs(y - ty), abs(x - tx)) <= tol for ty, tx in targets):
                n += 1
        return n / len(points)

    p = matched(pb, gb)
    r = matched(gb, pb)
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def square(h, w, y0, x0, size):
    m = np.zeros((h, w), dtype=bool)
    m[y0:y0 + size, x0:x0 + size] = True
    return m


class TestJaccard:
    def test_identical_nonempty(self):
        m = square(12, 12, 2, 2, 6)
        assert jaccard(m, m) == 1.0

    def test_disjoint(self):
        assert jaccard(square(20, 20, 0, 0, 5), square(20, 20, 10, 10, 5)) == 0.0

    def test_both_empty(self):
        z = np.zeros((8, 8), dtype=bool)
        assert jaccard(z, z) == 1.0

    def test_shifted_square(self):
        a = square(30, 30, 5, 5, 10)
        b = square(30, 30, 5, 10, 10)
        assert abs(jaccard(a, b) - 50.0 / 150.0) < 1e-12

    def test_symmetry(self, rng):
        a = rng.random((15, 15)) > 0.6
        b = rng.random((15, 15)) > 0.6
        assert jaccard(a, b) == jaccard(b, a)

    def test_monotone_under_growing_symmetric_difference(self, rng):
        gt = square(16, 16, 4, 4, 8)
        pred = gt.copy()
        prev = jaccard(pred, gt)
        order = [tuple(p) for p in rng.permutation(np.argwhere(np.ones((16, 16))))]
        flips = 0
        for y, x in order:
            if flips >= 30:
                break
            pred2 = pred.copy()
            pred2[y, x] = ~pred2[y, x]
            if np.count_nonzero(pred2 ^ gt) > np.count_nonzero(pred ^ gt):
                pred = pred2
                cur = jaccard(pred, gt)
                assert cur <= prev + 1e-15
                prev = cur
                flips += 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            jaccard(np.zeros((3, 3)), np.zeros((4, 4)))


class TestBoundaryF:
    def test_identical(self):
        m = square(20, 20, 4, 4, 9)
        assert boundary_f(m, m, 1) == 1.0

    def test_pred_empty_gt_nonempty(self):
        assert boundary_f(np.zeros((10, 10)), square(10, 10, 2, 2, 5), 1) == 0.0

    def test_both_empty(self):
        z = np.zeros((10, 10))
        assert boundary_f(z, z, 2) == 1.0

    def test_dilated_square_tolerance_one(self):
        m = square(28, 28, 4, 4, 20)
        grown = square(28, 28, 3, 3, 22)
        assert boundary_f(m, grown, 1) == 1.0
        got = boundary_f(m, grown, 0)
        assert abs(got - brute_force_f(m, grown, 0)) < 1e-12

    def test_symmetry(self, rng):
        a = rng.random((14, 14)) > 0.55
        b = rng.random((14, 14)) > 0.55
        for tol in (0, 1, 2):
            assert boundary_f(a, b, tol) == boundary_f(b, a, tol)

    def test_matches_brute_force_random(self, rng):
        for _ in range(60):
            h = int(rng.integers(5, 14))
            w = int(rng.integers(5, 14))
            a = rng.random((h, w)) > 0.65
            b = rng.random((h, w)) > 0.65
            tol = int(rng.integers(0, 3))
            assert abs(boundary_f(a, b, tol) - brute_force_f(a, b, tol)) < 1e-12

    def test_default_tolerance_is_davis_convention(self):
        assert default_tolerance(480, 854) == round(0.0088 * np.hypot(480, 854))
        assert default_tolerance(64, 64) == 1


class TestAggregate:
    def test_single_frame_jf_mean(self):
        rep = aggregate([FrameScore("s", 1, 1, 0.5, 0.7)])
        assert abs(rep.mean_jf - 0.6) < 1e-15
        assert rep.per_sequence["s"]["J&F"] == (rep.per_sequence["s"]["J"]
                                                + rep.per_sequence["s"]["F"]) / 2.0

    def test_all_perfect(self):
        rows = [FrameScore("s", t, k, 1.0, 1.0) for t in (1, 2) for k in (1, 2)]
        rep = aggregate(rows)
        assert rep.mean_jf == 1.0

    def test_hand_built_two_object_three_frame(self):
        rows = [
            FrameScore("seq", 1, 1, 0.8, 0.6), FrameScore("seq", 2, 1, 0.6, 0.4),
            FrameScore("seq", 3, 1, 0.7, 0.5),
            FrameScore("seq", 1, 2, 0.2, 0.3), FrameScore("seq", 2, 2, 0.4, 0.5),
            FrameScore("seq", 3, 2, 0.0, 0.1),
        ]
        rep = aggregate(rows)
        # object means: obj1 J=0.7 F=0.5; obj2 J=0.2 F=0.3; sequence J=0.45 F=0.4
        assert abs(rep.mean_j - 0.45) < 1e-12
        assert abs(rep.mean_f - 0.40) < 1e-12
        assert abs(rep.mean_jf - 0.425) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero frame scores"):
            aggregate([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            aggregate([FrameScore("s", 0, 1, 1.5, 0.0)])


class TestFrameCsv:
    def test_a_name_with_a_comma_and_a_quote_reads_back_intact(self, tmp_path):
        name = 'a,b "c"'
        write_frame_csv([FrameScore(name, 1, 2, 0.5, 0.25)], tmp_path / "f.csv")
        with open(tmp_path / "f.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["sequence", "frame", "object", "J", "F"],
                        [name, "1", "2", "0.500000", "0.250000"]]

    def test_an_ordinary_name_gives_bare_comma_joined_rows(self, tmp_path):
        rows = [FrameScore("seq_000", 1, 1, 0.8, 1 / 3), FrameScore("seq_000", 2, 3, 1.0, 0.0)]
        write_frame_csv(rows, tmp_path / "f.csv")
        assert (tmp_path / "f.csv").read_bytes() == (
            b"sequence,frame,object,J,F\n"
            b"seq_000,1,1,0.800000,0.333333\n"
            b"seq_000,2,3,1.000000,0.000000\n")
