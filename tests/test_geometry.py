import numpy as np
import pytest

from beliefuse.geometry import (
    BoundingBox,
    Detection,
    GroundTruthObject,
    MatchLabel,
    iou,
    iou_matrix,
    match_detections,
    nms_keep,
    suppression_mask,
)


def box(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


def det(score, b, detector="d1", image="img1"):
    return Detection(image_id=image, detector_id=detector, box=b, score=score)


def gt(b, image="img1", difficult=False):
    return GroundTruthObject(image_id=image, class_label="object", box=b, difficult=difficult)


def nms(dets, iou_threshold=0.5):
    """Greedy NMS as ``fusion.fuse_images`` runs it: IoU matrix, suppression
    mask, kept indices."""
    suppresses = suppression_mask(iou_matrix([d.box.as_tuple() for d in dets]), iou_threshold)
    return [dets[i] for i in nms_keep([d.score for d in dets], dets, suppresses)]


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
        out = match_detections([det(0.9, b)], [gt(b)])
        assert out[0][1] is MatchLabel.TRUE_POSITIVE

    def test_no_gt_is_false_positive(self):
        out = match_detections([det(0.9, box(0, 0, 10, 10))], [])
        assert out[0][1] is MatchLabel.FALSE_POSITIVE

    def test_zero_overlap_is_false_positive(self):
        out = match_detections(
            [det(0.9, box(0, 0, 10, 10))], [gt(box(100, 100, 150, 150))]
        )
        assert out[0][1] is MatchLabel.FALSE_POSITIVE

    def test_partial_overlap_is_undecided(self):
        out = match_detections(
            [det(0.9, box(0, 0, 10, 10))], [gt(box(5, 0, 15, 10))]
        )
        assert out[0][1] is MatchLabel.UNDECIDED

    def test_duplicate_default_undecided(self):
        b = box(10, 10, 50, 50)
        dets = [det(0.9, b), det(0.8, box(11, 11, 51, 51))]
        labels = [lab for _, lab in match_detections(dets, [gt(b)])]
        assert labels == [MatchLabel.TRUE_POSITIVE, MatchLabel.UNDECIDED]

    def test_duplicate_policy_false_positive(self):
        b = box(10, 10, 50, 50)
        dets = [det(0.9, b), det(0.8, box(11, 11, 51, 51))]
        labels = [
            lab
            for _, lab in match_detections(
                dets, [gt(b)], duplicate_policy="false_positive"
            )
        ]
        assert labels == [MatchLabel.TRUE_POSITIVE, MatchLabel.FALSE_POSITIVE]

    def test_difficult_gt_match_is_undecided(self):
        b = box(10, 10, 50, 50)
        out = match_detections([det(0.9, b)], [gt(b, difficult=True)])
        assert out[0][1] is MatchLabel.UNDECIDED

    def test_tp_count_never_exceeds_gt_count(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            gts = [
                gt(box(x, y, x + 30, y + 30))
                for x, y in rng.uniform(0, 200, size=(rng.integers(1, 4), 2))
            ]
            dets = [
                det(float(rng.random()), box(x, y, x + 30, y + 30))
                for x, y in rng.uniform(0, 200, size=(10, 2))
            ]
            labels = [lab for _, lab in match_detections(dets, gts)]
            assert labels.count(MatchLabel.TRUE_POSITIVE) <= len(gts)

    def test_equal_score_permutation_invariance(self):
        gts = [gt(box(0, 0, 40, 40))]
        a = det(0.5, box(1, 1, 41, 41), detector="a")
        b = det(0.5, box(0, 0, 40, 40), detector="b")
        first = dict(
            ((d.detector_id, lab.value), None) for d, lab in match_detections([a, b], gts)
        )
        second = dict(
            ((d.detector_id, lab.value), None) for d, lab in match_detections([b, a], gts)
        )
        assert first.keys() == second.keys()

    def test_result_order_follows_input(self):
        b = box(10, 10, 50, 50)
        dets = [det(0.1, box(200, 200, 240, 240)), det(0.9, b)]
        out = match_detections(dets, [gt(b)])
        assert [d for d, _ in out] == dets


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
