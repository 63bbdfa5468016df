import dataclasses
from unittest import mock

import numpy as np
import pytest

from beliefuse import datagen, evaluation, geometry, pipeline
from beliefuse.cli import default_profiles
from beliefuse.geometry import BoundingBox, Detection, MatchLabel, truths
from beliefuse.io import DetectionColumns, Ids
from beliefuse.trust import InsufficientData
from test_properties import as_columns, labels_of, platt_probability


def box(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


def det(score, b, image="img1", detector="d1"):
    return Detection(image_id=image, detector_id=detector, box=b, score=score)


def truth(*objects):
    """One class's ground truth from (box, image, difficult) triples."""
    boxes, images, difficult = zip(*objects)
    return truths(Ids.of(images), Ids.of(["object"] * len(boxes)), [b.as_tuple() for b in boxes], difficult)["object"]


@pytest.fixture(scope="module")
def fixture():
    ds = datagen.generate(42, 60, default_profiles(3))
    val_ids = ds.validation_image_ids
    test_ids = ds.test_image_ids
    return {
        "dataset": ds,
        "val_gts": ds.ground_truths(val_ids)["object"],
        "test_gts": ds.ground_truths(test_ids),
        "per_det_val": {d: ds.detections_for(d, val_ids) for d in ds.detections},
        "per_det_test": {d: ds.detections_for(d, test_ids) for d in ds.detections},
    }


class TestLabeling:
    def test_cross_image_isolation(self):
        b = box(0, 0, 40, 40)
        dets = [det(0.9, b, image="img1"), det(0.8, b, image="img2")]
        gts = truth((b, "img1", False))
        assert labels_of(*pipeline.label_detections(DetectionColumns.of(dets), gts)) == [
            MatchLabel.TRUE_POSITIVE, MatchLabel.FALSE_POSITIVE]
        # One label per detection, rows in training order whatever the input order.
        windows, *flags = pipeline.labeled_windows({"d1": DetectionColumns.of(dets[::-1])}, gts)
        assert windows.images.decoded() == ["img1", "img2"]
        assert labels_of(*flags) == [MatchLabel.TRUE_POSITIVE, MatchLabel.FALSE_POSITIVE]

    def test_every_detector_in_one_call(self):
        # Each detector claims the object for itself; rows go by detector.
        b = box(0, 0, 40, 40)
        per_det = {"d2": [det(0.1, b, detector="d2")], "d1": [det(0.9, b), det(0.8, b)]}
        windows, *flags = pipeline.labeled_windows(as_columns(per_det), truth((b, "img1", False)))
        assert windows.detectors.decoded() == ["d1", "d1", "d2"]
        assert labels_of(*flags) == [MatchLabel.TRUE_POSITIVE, MatchLabel.UNDECIDED, MatchLabel.TRUE_POSITIVE]

    def test_class_without_ground_truth_is_all_false_positives(self):
        dets = [det(0.9, box(0, 0, 40, 40)), det(0.8, box(0, 0, 40, 40), image="img2")]
        assert labels_of(*pipeline.label_detections(DetectionColumns.of(dets), None)) == [MatchLabel.FALSE_POSITIVE] * 2

    # Settings are checked before any work: with no ground truth, or no
    # window above the threshold, ``match_detections`` is never called.
    @pytest.mark.parametrize("settings", [(0.0, "undecided"), (1.0, "undecided"), (0.5, "ignore")])
    @pytest.mark.parametrize("gts", [None, truth((box(50, 50, 60, 60), "img1", False))], ids=["no truth", "disjoint"])
    def test_bad_settings_raise_before_any_work(self, settings, gts):
        with pytest.raises(ValueError):
            pipeline.label_detections(DetectionColumns.of([det(0.9, box(0, 0, 40, 40))]), gts, *settings)

    def test_only_windows_above_the_threshold_walk_the_claim(self, monkeypatch):
        # A dense-shaped validation split: six detectors, many false positives.
        profiles = [dataclasses.replace(p, fp_rate=20.0) for p in default_profiles(6)]
        ds = datagen.generate(1, 20, profiles)
        ids = ds.validation_image_ids
        gts = ds.ground_truths(ids)["object"]
        walked = []

        def match_detections(boxes, *args):
            walked.extend(boxes)
            return geometry.match_detections(boxes, *args)

        monkeypatch.setattr(pipeline, "match_detections", match_detections)
        windows, _, _ = pipeline.labeled_windows({d: ds.detections_for(d, ids) for d in ds.detections}, gts)
        spans = [gts.spans.get(image, (0, 0)) for image in windows.images.decoded()]
        best = [max((geometry.iou(w, g) for g in gts.boxes[a:b].tolist()), default=0.0)
                for w, (a, b) in zip(windows.boxes.tolist(), spans)]
        contested = [w for w, o in zip(windows.boxes.tolist(), best) if o > 0.5]
        assert walked == contested
        assert 0 < len(contested) < len(windows.scores) / 5

    def test_num_positives_skips_difficult(self):
        b1, b2 = box(0, 0, 10, 10), box(50, 50, 60, 60)
        assert truth((b1, "img1", False), (b2, "img1", True)).num_positives == 1


class TestBuildTrustModels:
    def test_one_model_per_detector(self, fixture):
        models = pipeline.build_trust_models(
            fixture["per_det_val"], fixture["val_gts"], "object", 2.0
        )
        assert sorted(models) == ["det_a", "det_b", "det_c"]
        for m in models.values():
            assert m.class_label == "object"
            assert m.bpd_exponent == 2.0

    def test_unusable_detector_skipped(self, fixture):
        per_det = dict(fixture["per_det_val"])
        # A detector with a single detection cannot produce both a TP and an FP.
        per_det["det_x"] = fixture["per_det_val"]["det_a"].take(slice(0, 1))
        models = pipeline.build_trust_models(per_det, fixture["val_gts"], "object", 2.0)
        assert "det_x" not in models
        assert "det_a" in models


class TestFuseCorpus:
    def test_dbf_beats_weakest_detector(self, fixture):
        models = pipeline.build_trust_models(
            fixture["per_det_val"], fixture["val_gts"], "object", 2.0
        )
        fused = pipeline.fuse_corpus(
            fixture["per_det_test"], models, "object", "dbf"
        )
        fused_map = evaluation.evaluate_method(fused, fixture["test_gts"]).map_score
        weakest = min(
            evaluation.evaluate_method(dets, fixture["test_gts"]).map_score
            for dets in fixture["per_det_test"].values()
        )
        assert fused_map > weakest

    def test_parallel_matches_serial(self, fixture):
        models = pipeline.build_trust_models(
            fixture["per_det_val"], fixture["val_gts"], "object", 2.0
        )
        serial = pipeline.fuse_corpus(fixture["per_det_test"], models, "object", "dbf")
        with mock.patch("os.sched_getaffinity", return_value={0, 1}), pipeline.worker_pool(2) as pool:
            parallel = pipeline.fuse_corpus(fixture["per_det_test"], models, "object", "dbf", batches=2, pool=pool)
        assert serial == parallel

    def test_deterministic(self, fixture):
        models = pipeline.build_trust_models(
            fixture["per_det_val"], fixture["val_gts"], "object", 2.0
        )
        a = pipeline.fuse_corpus(fixture["per_det_test"], models, "object", "dbf")
        b = pipeline.fuse_corpus(fixture["per_det_test"], models, "object", "dbf")
        assert a == b

    def test_static_dst_runs(self, fixture):
        models = pipeline.build_trust_models(
            fixture["per_det_val"], fixture["val_gts"], "object", 2.0
        )
        fused = pipeline.fuse_corpus(
            fixture["per_det_test"], models, "object", "static-dst"
        )
        assert fused
        assert all(-1.0 <= score <= 1.0 for score in fused.scores.tolist())


class TestBaselinePipeline:
    def test_fit_baselines_complete(self, fixture):
        bm = pipeline.fit_baselines(fixture["per_det_val"], fixture["val_gts"], "object")
        assert sorted(bm.platt) == ["det_a", "det_b", "det_c"]
        assert sorted(bm.likelihoods) == ["det_a", "det_b", "det_c"]
        assert bm.weights is not None
        assert sorted(bm.weights.detector_ids) == ["det_a", "det_b", "det_c"]

    def test_each_baseline_produces_ranked_output(self, fixture):
        bm = pipeline.fit_baselines(fixture["per_det_val"], fixture["val_gts"], "object")
        for method in ("platt", "ws", "bayes"):
            fused = pipeline.fuse_corpus(
                fixture["per_det_test"], bm, "object", method
            )
            assert fused
            assert np.isfinite(fused.scores).all()
            assert np.isnan(fused.joints).all()  # no joint mass

    def test_platt_scores_are_probabilities(self, fixture):
        bm = pipeline.fit_baselines(fixture["per_det_val"], fixture["val_gts"], "object")
        fused = pipeline.fuse_corpus(
            fixture["per_det_test"], bm, "object", "platt"
        )
        assert all(0.0 <= score <= 1.0 for score in fused.scores.tolist())

    def test_ws_without_weights_raises(self, fixture):
        bm = pipeline.fit_baselines(fixture["per_det_val"], fixture["val_gts"], "object")
        bm.weights = None
        with pytest.raises(InsufficientData):
            pipeline.fuse_corpus(fixture["per_det_test"], bm, "object", "ws")

    def test_ws_labels_follow_each_detection_not_its_box(self, fixture, monkeypatch):
        # A low-scoring duplicate of a true positive is labeled undecided; the
        # true positive's own row must still train as a positive, and the
        # duplicate's row must not train at all.
        per_det = {k: list(v) for k, v in fixture["per_det_val"].items()}
        windows, _, tp = pipeline.labeled_windows({"det_a": fixture["per_det_val"]["det_a"]}, fixture["val_gts"])
        original = next(iter(windows.take(tp)))
        duplicate = Detection(original.image_id, "det_a", original.box, original.score - 5.0)
        per_det["det_a"].append(duplicate)
        training = []

        def capture(features, targets, detector_ids):
            training.append((features.tolist(), targets.tolist(), detector_ids))
            return None

        monkeypatch.setattr(pipeline.baselines, "fit_weighted_sum", capture)
        bm = pipeline.fit_baselines(fixture["per_det_val"], fixture["val_gts"], "object")
        pipeline.fit_baselines(as_columns(per_det), fixture["val_gts"], "object")
        without, with_duplicate = training
        assert with_duplicate == without
        features, targets, detector_ids = with_duplicate
        column = detector_ids.index("det_a")
        own = platt_probability(bm.platt["det_a"], original.score)
        assert any(row[column] == own and target for row, target in zip(features, targets))
        lowered = platt_probability(bm.platt["det_a"], duplicate.score)
        assert all(row[column] != lowered for row in features)

    def test_ws_labels_a_detection_listed_twice_like_an_equal_copy(self, monkeypatch):
        # Rows are labeled by position: the same object listed twice is two
        # rows, each with its own label, as two equal objects are.
        ds = datagen.generate(5, 12, default_profiles(3))
        ids = ds.validation_image_ids
        per_det = {d: ds.detections_for(d, ids) for d in ds.detections}
        gts = ds.ground_truths(ids)["object"]
        first = next(iter(per_det["det_a"]))
        training = []

        def capture(features, targets, detector_ids):
            training.append((features.tobytes(), targets.tolist()))
            return None

        monkeypatch.setattr(pipeline.baselines, "fit_weighted_sum", capture)
        for repeat in (first, Detection(first.image_id, first.detector_id, first.box, first.score)):
            with_repeat = DetectionColumns.concat([per_det["det_a"], DetectionColumns.of([repeat])])
            pipeline.fit_baselines({**per_det, "det_a": with_repeat}, gts, "object")
        same_object, equal_copy = training
        assert same_object == equal_copy
        assert (len(equal_copy[1]), sum(equal_copy[1])) == (38, 13)

    def test_unknown_method_rejected(self, fixture):
        bm = pipeline.fit_baselines(fixture["per_det_val"], fixture["val_gts"], "object")
        with pytest.raises(ValueError):
            pipeline.fuse_corpus(
                fixture["per_det_test"], bm, "object", "mystery"
            )
