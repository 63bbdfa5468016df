import json

import numpy as np
import pytest

from beliefuse.evaluation import (
    NoGroundTruth,
    average_precision,
    evaluate_method,
    evaluate_methods,
    write_reports_csv,
    write_reports_json,
)
from beliefuse.geometry import BoundingBox, Detection, MatchLabel, match_detections, truths
from beliefuse.io import DetectionColumns, Ids, read_detections


def box(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


def det(score, b, image="img1", detector="d1"):
    return Detection(image_id=image, detector_id=detector, box=b, score=score)


def gt(b, image="img1", cls="object", difficult=False):
    return image, cls, b.as_tuple(), difficult


def by_class(objects):
    """Each class's ``Truth`` of ``gt`` rows."""
    if not objects:
        return {}
    images, labels, boxes, difficult = map(list, zip(*objects))
    return truths(Ids.of(images), Ids.of(labels), boxes, difficult)


def truth(objects):
    """The ``Truth`` of class "object"; None without one."""
    return by_class(objects).get("object")


def far_boxes(n, size=30.0, gap=50.0):
    # Pairwise-disjoint boxes laid out on a grid.
    out = []
    for i in range(n):
        x = (i % 10) * (size + gap)
        y = (i // 10) * (size + gap)
        out.append(box(x, y, x + size, y + size))
    return out


class TestAveragePrecision:
    def test_perfect_single_detection(self):
        b = box(0, 0, 40, 40)
        assert average_precision(DetectionColumns.of([det(0.9, b)]), truth([gt(b)])) == 1.0

    def test_hand_integrated_case(self):
        # Ranking TP, FP, TP over 2 ground truths: AP = 5/6 exactly.
        g1, g2, off = far_boxes(3)
        dets = [
            det(0.9, g1),
            det(0.8, off),
            det(0.7, g2),
        ]
        ap = average_precision(DetectionColumns.of(dets), truth([gt(g1), gt(g2)]))
        assert ap == pytest.approx(5 / 6, abs=1e-12)

    def test_zero_detections(self):
        assert average_precision(DetectionColumns.of([]), truth([gt(box(0, 0, 10, 10))])) == 0.0

    def test_no_ground_truth_raises(self):
        with pytest.raises(NoGroundTruth):
            average_precision(DetectionColumns.of([det(0.5, box(0, 0, 10, 10))]), None)
        with pytest.raises(NoGroundTruth):
            average_precision(DetectionColumns.of([]), truth([gt(box(0, 0, 10, 10), difficult=True)]))

    def test_duplicates_count_as_false_positive(self):
        # A duplicate ranked before the second object's hit drags AP to 5/6,
        # exactly as an unrelated false positive would.
        g1, g2 = far_boxes(2)
        dup = box(g1.x_min + 1, g1.y_min + 1, g1.x_max + 1, g1.y_max + 1)
        gts = truth([gt(g1), gt(g2)])
        clean = average_precision(DetectionColumns.of([det(0.9, g1), det(0.7, g2)]), gts)
        with_dup = average_precision(DetectionColumns.of([det(0.9, g1), det(0.8, dup), det(0.7, g2)]), gts)
        assert clean == 1.0
        assert with_dup == pytest.approx(5 / 6, abs=1e-12)

    def test_difficult_objects_ignored(self):
        g1, g_diff = far_boxes(2)
        dets = [det(0.9, g1), det(0.8, g_diff)]
        gts = truth([gt(g1), gt(g_diff, difficult=True)])
        assert average_precision(DetectionColumns.of(dets), gts) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            num_gt = int(rng.integers(2, 6))
            boxes = far_boxes(12)
            gts = truth([gt(b) for b in boxes[:num_gt]])
            dets = []
            for i in range(10):
                target = boxes[int(rng.integers(0, 12))]
                dets.append(det(float(rng.uniform(0, 5)), target))
            base = average_precision(DetectionColumns.of(dets), gts)
            transformed = [
                det(float(np.exp(0.7 * d.score) + 3), d.box) for d in dets
            ]
            assert average_precision(DetectionColumns.of(transformed), gts) == pytest.approx(base, abs=1e-12)

    def test_ap_bounded_by_max_recall(self):
        g1, g2, g3 = far_boxes(3)
        # Only one of three objects ever found.
        ap = average_precision(DetectionColumns.of([det(0.9, g1)]), truth([gt(g1), gt(g2), gt(g3)]))
        assert ap <= 1 / 3 + 1e-12

    def test_11_point_variant(self):
        g1, g2, off = far_boxes(3)
        dets = [det(0.9, g1), det(0.8, off), det(0.7, g2)]
        ap11 = average_precision(DetectionColumns.of(dets), truth([gt(g1), gt(g2)]), interpolation="11-point")
        # Envelope: 1.0 for r <= .5, 2/3 up to 1.0 -> (6*1 + 5*2/3)/11.
        assert ap11 == pytest.approx((6 + 10 / 3) / 11, abs=1e-12)

    def test_eval_matcher_differs_from_trust_matcher_on_duplicates(self):
        g1, g2 = far_boxes(2)
        dup = box(g1.x_min + 1, g1.y_min + 1, g1.x_max + 1, g1.y_max + 1)
        dets = [det(0.9, g1), det(0.8, dup), det(0.7, g2)]
        gts = truth([gt(g1), gt(g2)])
        trust_labels = match_detections([d.box for d in dets], [d.score for d in dets], [g1, g2], [False, False])
        # Trust labeling leaves the duplicate undecided...
        assert trust_labels == [
            MatchLabel.TRUE_POSITIVE,
            MatchLabel.UNDECIDED,
            MatchLabel.TRUE_POSITIVE,
        ]
        # ...while evaluation penalizes it as a false positive.
        assert average_precision(DetectionColumns.of(dets), gts) == pytest.approx(5 / 6, abs=1e-12)


class TestEvaluateMethods:
    def test_single_method_single_class(self):
        b = box(0, 0, 40, 40)
        reports = evaluate_methods({"m": DetectionColumns.of([det(0.9, b)])}, by_class([gt(b)]))
        assert reports["m"].per_class_ap == {"object": 1.0}
        assert reports["m"].map_score == 1.0

    def test_better_ranking_never_worse(self):
        g1, g2, off = far_boxes(3)
        gts = by_class([gt(g1), gt(g2)])
        good = [det(0.9, g1), det(0.8, g2), det(0.1, off)]
        bad = [det(0.9, off), det(0.8, g1), det(0.7, g2)]
        reports = evaluate_methods({"good": DetectionColumns.of(good), "bad": DetectionColumns.of(bad)}, gts)
        assert reports["good"].map_score >= reports["bad"].map_score

    def test_empty_method_reports_zero(self):
        reports = evaluate_methods({"empty": DetectionColumns.of([])}, by_class([gt(box(0, 0, 10, 10))]))
        assert reports["empty"].per_class_ap == {"object": 0.0}

    def test_multi_class_map_is_mean(self):
        b1, b2 = far_boxes(2)
        gts = by_class([gt(b1, cls="cat"), gt(b2, cls="dog")])
        b3 = box(300, 300, 340, 340)
        dets = DetectionColumns(
            Ids.of(["img1"] * 3), Ids.of(["cat", "dog", "dog"]),
            np.array([b.as_tuple() for b in (b1, b2, b3)]), np.array([0.9, 0.2, 0.8]),
            Ids.of(["d"] * 3), np.full((3, 3), np.nan),
        )
        report = evaluate_method(dets, gts)
        assert report.per_class_ap["cat"] == 1.0
        assert report.per_class_ap["dog"] == pytest.approx(0.5)
        assert report.map_score == pytest.approx(0.75)

    def test_a_raw_file_of_two_classes_scores_each_class_on_its_own_lines(self, tmp_path):
        # Scored against cat, the dog line on g2 would be a false positive
        # ranked first, and against dog the cat line on g1 one ranked second.
        g1, g2, g3 = far_boxes(3)
        gts = by_class([gt(g1, cls="cat"), gt(g2, cls="dog"), gt(g3, cls="dog")])
        lines = {"cat": [(0.9, g1), (0.5, g3)], "dog": [(0.95, g2), (0.7, g3)]}

        def read(name, classes):
            path = tmp_path / f"{name}.jsonl"
            path.write_text("".join(json.dumps({"image_id": "img1", "detector_id": "d1", "class": c,
                                                "bbox": list(b.as_tuple()), "score": score}) + "\n"
                                    for c in classes for score, b in lines[c]))
            return read_detections(path)

        whole = evaluate_methods({"raw": read("both", ("dog", "cat"))}, gts)["raw"]
        assert whole.per_class_ap == {"cat": 1.0, "dog": 1.0}
        for c in ("cat", "dog"):
            alone = evaluate_methods({"raw": read(c, (c,))}, gts)["raw"]
            assert whole.per_class_ap[c] == alone.per_class_ap[c]
            assert whole.pr_samples[c].tolist() == alone.pr_samples[c].tolist()
            assert whole.counts[c] == alone.counts[c]
        assert whole.counts["cat"] == {"num_gt": 1, "num_detections": 2, "tp": 1, "fp": 1}

    def test_counts_recorded(self):
        b = box(0, 0, 40, 40)
        report = evaluate_method(DetectionColumns.of([det(0.9, b)]), by_class([gt(b)]))
        assert report.counts["object"] == {
            "num_gt": 1,
            "num_detections": 1,
            "tp": 1,
            "fp": 0,
        }


class TestExports:
    def test_json_and_csv_outputs(self, tmp_path):
        b = box(0, 0, 40, 40)
        reports = evaluate_methods({"m": DetectionColumns.of([det(0.9, b)])}, by_class([gt(b)]))
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        write_reports_json(reports, json_path, config={"seed": 1})
        write_reports_csv(reports, csv_path)
        import json as jsonlib

        payload = jsonlib.loads(json_path.read_text())
        assert payload["config"] == {"seed": 1}
        assert payload["methods"]["m"]["mAP"] == 1.0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "method,class,ap"
        assert "m,mAP,1.000000" in lines
