import numpy as np
import pytest

from beliefuse import datagen, evaluation, pipeline
from beliefuse.cli import default_profiles
from beliefuse.geometry import BoundingBox, Detection, GroundTruthObject, MatchLabel
from beliefuse.trust import InsufficientData


def box(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


def det(score, b, image="img1", detector="d1"):
    return Detection(image_id=image, detector_id=detector, box=b, score=score)


def gt(b, image="img1", cls="object"):
    return GroundTruthObject(image_id=image, class_label=cls, box=b)


@pytest.fixture(scope="module")
def fixture():
    ds = datagen.generate(42, 60, default_profiles(3))
    val_ids = ds.validation_image_ids
    test_ids = ds.test_image_ids
    return {
        "dataset": ds,
        "val_gts": ds.ground_truths(val_ids),
        "test_gts": ds.ground_truths(test_ids),
        "per_det_val": {d: ds.detections_for(d, val_ids) for d in ds.detections},
        "per_det_test": {d: ds.detections_for(d, test_ids) for d in ds.detections},
    }


class TestLabeling:
    def test_cross_image_isolation(self):
        b = box(0, 0, 40, 40)
        dets = [det(0.9, b, image="img1"), det(0.8, b, image="img2")]
        gts = [gt(b, image="img1")]
        labels = dict(
            (d.image_id, lab) for d, lab in pipeline.label_detections(dets, gts)
        )
        assert labels["img1"] is MatchLabel.TRUE_POSITIVE
        assert labels["img2"] is MatchLabel.FALSE_POSITIVE

    def test_num_positives_skips_difficult(self):
        b1, b2 = box(0, 0, 10, 10), box(50, 50, 60, 60)
        gts = [gt(b1), GroundTruthObject("img1", "object", b2, difficult=True)]
        assert pipeline.num_positives(gts) == 1


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
        per_det["det_x"] = [per_det["det_a"][0]]
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
        parallel = pipeline.fuse_corpus(
            fixture["per_det_test"], models, "object", "dbf", jobs=2
        )
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
        assert all(-1.0 <= f.score <= 1.0 for f in fused)


class TestBaselinePipeline:
    def test_fit_baselines_complete(self, fixture):
        bm = pipeline.fit_baselines(fixture["per_det_val"], fixture["val_gts"])
        assert sorted(bm.platt) == ["det_a", "det_b", "det_c"]
        assert sorted(bm.likelihoods) == ["det_a", "det_b", "det_c"]
        assert bm.weights is not None
        assert sorted(bm.weights.detector_ids) == ["det_a", "det_b", "det_c"]

    def test_each_baseline_produces_ranked_output(self, fixture):
        bm = pipeline.fit_baselines(fixture["per_det_val"], fixture["val_gts"])
        for method in ("platt", "ws", "bayes"):
            fused = pipeline.fuse_corpus(
                fixture["per_det_test"], bm, "object", method
            )
            assert fused
            assert all(np.isfinite(f.score) for f in fused)
            assert all(f.verdict is None for f in fused)

    def test_platt_scores_are_probabilities(self, fixture):
        bm = pipeline.fit_baselines(fixture["per_det_val"], fixture["val_gts"])
        fused = pipeline.fuse_corpus(
            fixture["per_det_test"], bm, "object", "platt"
        )
        assert all(0.0 <= f.score <= 1.0 for f in fused)

    def test_ws_without_weights_raises(self, fixture):
        bm = pipeline.fit_baselines(fixture["per_det_val"], fixture["val_gts"])
        bm.weights = None
        with pytest.raises(InsufficientData):
            pipeline.fuse_corpus(fixture["per_det_test"], bm, "object", "ws")

    def test_ws_labels_follow_each_detection_not_its_box(self, fixture, monkeypatch):
        # A low-scoring duplicate of a true positive is labeled undecided; the
        # true positive's own row must still train as a positive, and the
        # duplicate's row must not train at all.
        per_det = {k: list(v) for k, v in fixture["per_det_val"].items()}
        labeled = pipeline.label_detections(per_det["det_a"], fixture["val_gts"])
        original = next(d for d, lab in labeled if lab is MatchLabel.TRUE_POSITIVE)
        duplicate = Detection(original.image_id, "det_a", original.box, original.score - 5.0)
        per_det["det_a"].append(duplicate)
        training = []

        def capture(features, targets, detector_ids):
            training.append((features.tolist(), targets.tolist(), detector_ids))
            return None

        monkeypatch.setattr(pipeline.baselines, "fit_weighted_sum", capture)
        bm = pipeline.fit_baselines(fixture["per_det_val"], fixture["val_gts"])
        pipeline.fit_baselines(per_det, fixture["val_gts"])
        without, with_duplicate = training
        assert with_duplicate == without
        features, targets, detector_ids = with_duplicate
        column = detector_ids.index("det_a")
        own = bm.platt["det_a"].probability(original.score)
        assert any(row[column] == own and target for row, target in zip(features, targets))
        lowered = bm.platt["det_a"].probability(duplicate.score)
        assert all(row[column] != lowered for row in features)

    def test_unknown_method_rejected(self, fixture):
        bm = pipeline.fit_baselines(fixture["per_det_val"], fixture["val_gts"])
        with pytest.raises(ValueError):
            pipeline.fuse_corpus(
                fixture["per_det_test"], bm, "object", "mystery"
            )
