import numpy as np
import pytest

from beliefuse.geometry import (
    BoundingBox,
    Detection,
    MatchLabel,
    box_ranks,
    greedy_nms,
    iou,
    match_detections,
    nms_order,
    overlapping_pairs,
)
from beliefuse.io import Ids


def box(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


def det(score, b, detector="d1", image="img1"):
    return Detection(image_id=image, detector_id=detector, box=b, score=score)


def match(dets, gts, difficult=None, **kwargs):
    """``match_detections`` of one image's detections' boxes and scores, on
    its ground-truth boxes (none difficult by default)."""
    return match_detections([d.box for d in dets], [d.score for d in dets], gts,
                            [False] * len(gts) if difficult is None else difficult, **kwargs)


def nms(dets, iou_threshold=0.5):
    """Greedy NMS as ``fusion.fuse_images`` runs it on one image: visiting
    order, overlapping pairs, kept indices."""
    boxes = np.array([d.box.as_tuple() for d in dets], dtype=float).reshape(-1, 4)
    detectors = Ids.of([d.detector_id for d in dets]).codes
    scores = np.array([d.score for d in dets])
    order = nms_order(scores, detectors, box_ranks(boxes), np.zeros(len(dets), dtype=np.intp))
    images = np.zeros(len(dets), dtype=np.intp)
    return [dets[i] for i in greedy_nms(order, overlapping_pairs(boxes, images), iou_threshold)]


class TestBoundingBox:
    def test_rejects_zero_area(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 10)

    def test_rejects_area_that_underflows_to_zero(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 1e-200, 1e-200)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            BoundingBox(10, 0, 5, 10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, float("inf"), 10)

    def test_every_way_to_make_one_checks_it(self):
        # A box is a row, and the tuple ways to make one check it too.
        assert BoundingBox(0, 0, 1, 1) == (0, 0, 1, 1)
        with pytest.raises(ValueError):
            BoundingBox._make([0, 0, 0, 0])
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 1, 1)._replace(x_max=float("nan"))

    def test_area(self):
        assert box(0, 0, 10, 5).area == 50.0


class TestIou:
    def test_identical_boxes(self):
        b = box(3, 4, 17, 21)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 10, 10), box(20, 20, 30, 30)) == 0.0

    def test_half_horizontal_shift(self):
        # Intersection 50, union 150.
        assert iou(box(0, 0, 10, 10), box(5, 0, 15, 10)) == pytest.approx(1 / 3, abs=1e-15)

    def test_touching_edges_is_zero(self):
        assert iou(box(0, 0, 10, 10), box(10, 0, 20, 10)) == 0.0

    def test_symmetric_random(self):
        def random_box(rng):
            x, y = rng.uniform(0, 100, 2)
            w, h = rng.uniform(1, 60, 2)
            return box(x, y, x + w, y + h)

        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0


class TestMatchDetections:
    def test_perfect_match(self):
        b = box(10, 10, 50, 50)
        assert match([det(0.9, b)], [b]) == [MatchLabel.TRUE_POSITIVE]

    def test_no_gt_is_false_positive(self):
        assert match([det(0.9, box(0, 0, 10, 10))], []) == [MatchLabel.FALSE_POSITIVE]

    def test_zero_overlap_is_false_positive(self):
        out = match([det(0.9, box(0, 0, 10, 10))], [box(100, 100, 150, 150)])
        assert out == [MatchLabel.FALSE_POSITIVE]

    def test_partial_overlap_is_undecided(self):
        out = match([det(0.9, box(0, 0, 10, 10))], [box(5, 0, 15, 10)])
        assert out == [MatchLabel.UNDECIDED]

    def test_duplicate_default_undecided(self):
        b = box(10, 10, 50, 50)
        dets = [det(0.9, b), det(0.8, box(11, 11, 51, 51))]
        assert match(dets, [b]) == [MatchLabel.TRUE_POSITIVE, MatchLabel.UNDECIDED]

    def test_duplicate_policy_false_positive(self):
        b = box(10, 10, 50, 50)
        dets = [det(0.9, b), det(0.8, box(11, 11, 51, 51))]
        labels = match(dets, [b], duplicate_policy="false_positive")
        assert labels == [MatchLabel.TRUE_POSITIVE, MatchLabel.FALSE_POSITIVE]

    def test_difficult_gt_match_is_undecided(self):
        b = box(10, 10, 50, 50)
        assert match([det(0.9, b)], [b], [True]) == [MatchLabel.UNDECIDED]

    def test_tp_count_never_exceeds_gt_count(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            gts = [
                box(x, y, x + 30, y + 30)
                for x, y in rng.uniform(0, 200, size=(rng.integers(1, 4), 2))
            ]
            dets = [
                det(float(rng.random()), box(x, y, x + 30, y + 30))
                for x, y in rng.uniform(0, 200, size=(10, 2))
            ]
            labels = match(dets, gts)
            assert labels.count(MatchLabel.TRUE_POSITIVE) <= len(gts)

    def test_equal_score_permutation_invariance(self):
        gts = [box(0, 0, 40, 40)]
        a = det(0.5, box(1, 1, 41, 41), detector="a")
        b = det(0.5, box(0, 0, 40, 40), detector="b")
        assert match([a, b], gts) == match([b, a], gts)[::-1]

    def test_result_order_follows_input(self):
        b = box(10, 10, 50, 50)
        dets = [det(0.1, box(200, 200, 240, 240)), det(0.9, b)]
        assert match(dets, [b]) == [MatchLabel.FALSE_POSITIVE, MatchLabel.TRUE_POSITIVE]
        assert match(dets[::-1], [b]) == [MatchLabel.TRUE_POSITIVE, MatchLabel.FALSE_POSITIVE]


class TestNms:
    def test_single_detection_unchanged(self):
        d = det(0.9, box(0, 0, 10, 10))
        assert nms([d]) == [d]

    def test_identical_boxes_keep_highest(self):
        b = box(0, 0, 10, 10)
        hi, lo = det(0.9, b), det(0.4, b)
        assert nms([lo, hi]) == [hi]

    def test_three_box_trace(self):
        # B overlaps A above threshold; C is mostly clear of both.
        a = det(0.9, box(0, 0, 10, 10))
        b = det(0.8, box(0, 2.5, 10, 12.5))  # IoU 0.6 with A
        c = det(0.7, box(20, 0, 30, 10))
        assert iou(a.box, b.box) == pytest.approx(0.6)
        assert nms([a, b, c]) == [a, c]

    def test_output_subset_and_no_mutual_overlap(self):
        rng = np.random.default_rng(3)
        dets = [
            det(float(rng.random()), box(x, y, x + 40, y + 40))
            for x, y in rng.uniform(0, 100, size=(30, 2))
        ]
        kept = nms(dets, 0.5)
        assert all(k in dets for k in kept)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert iou(a.box, b.box) <= 0.5

    def test_sorted_descending(self):
        rng = np.random.default_rng(4)
        dets = [
            det(float(rng.random()), box(x, y, x + 40, y + 40))
            for x, y in rng.uniform(0, 300, size=(30, 2))
        ]
        kept = nms(dets)
        scores = [d.score for d in kept]
        assert scores == sorted(scores, reverse=True)
