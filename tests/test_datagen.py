import dataclasses
import math

import pytest
from click.testing import CliRunner

from beliefuse import cli
from beliefuse.cli import default_profiles
from beliefuse.datagen import (
    ConfigError,
    SyntheticDetectorProfile,
    generate,
)
from beliefuse.evaluation import evaluate_method
from beliefuse.geometry import iou
from beliefuse.io import DetectionColumns
from beliefuse.pipeline import labeled_windows


def profile(**kwargs):
    defaults = dict(detector_id="d1", detection_rate=0.7, fp_rate=1.0, localization_jitter=2.0)
    defaults.update(kwargs)
    return SyntheticDetectorProfile(**defaults)


class TestGenerateBasics:
    def test_deterministic_same_seed(self):
        a = generate(7, 20, [profile()])
        b = generate(7, 20, [profile()])
        assert a.images == b.images
        assert a.detections == b.detections

    def test_different_seeds_differ(self):
        a = generate(7, 20, [profile()])
        b = generate(8, 20, [profile()])
        assert a.detections != b.detections

    def test_split_halves(self):
        ds = generate(1, 10, [profile()])
        assert len(ds.validation_image_ids) == 5
        assert len(ds.test_image_ids) == 5
        assert not ds.validation_image_ids & ds.test_image_ids

    def test_gt_boxes_disjoint_within_image(self):
        ds = generate(2, 30, [profile()], objects_per_image_range=(2, 4))
        for _, boxes in ds.images:
            for i, a in enumerate(boxes):
                for b in boxes[i + 1 :]:
                    assert iou(a, b) == 0.0

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            generate(1, 1, [profile()])
        with pytest.raises(ConfigError):
            generate(1, 10, [])
        with pytest.raises(ConfigError):
            generate(1, 4, [profile()], objects_per_image_range=(3, 1))
        with pytest.raises(ConfigError):
            generate(1, 4, [profile(), profile()])  # duplicate ids
        with pytest.raises(ConfigError):
            # Far more 100px-min objects than the canvas can hold disjointly.
            generate(1, 4, [profile()], objects_per_image_range=(60, 60))

    def test_profile_validation(self):
        with pytest.raises(ConfigError):
            profile(detection_rate=1.5)
        with pytest.raises(ConfigError):
            profile(fp_rate=-1)
        with pytest.raises(ConfigError):
            profile(localization_jitter=-0.1)

    @pytest.mark.parametrize("override, message", [
        ({"localization_jitter": math.inf}, "detector 'det_b' drew"),
        ({"tp_score_mean": math.nan}, "detector 'det_b' drew"),
        ({"localization_jitter": 1e17}, "detector 'det_b' drew"),  # boxes of no area
        ({"fp_rate": math.inf}, "fp_rate must be"),
        ({"validation_rate_scale": math.nan}, "validation_rate_scale must be"),
        ({"validation_rate_scale": -1.0}, "validation_rate_scale must be"),
    ])
    def test_a_profile_that_draws_what_no_reader_takes_is_a_config_error(self, override, message, tmp_path,
                                                                         monkeypatch):
        def profiles(n):
            return [dataclasses.replace(p, **override) if p.detector_id == "det_b" else p
                    for p in default_profiles(n)]

        with pytest.raises(ConfigError, match=message):
            generate(1, 40, profiles(3))
        monkeypatch.setattr(cli, "default_profiles", profiles)
        result = CliRunner().invoke(cli.main, ["generate", "--out-dir", str(tmp_path), "--num-images", "40"])
        assert result.exit_code == 2 and message in result.output, result.output
        for path in tmp_path.rglob("*.jsonl"):
            text = path.read_text()
            assert "NaN" not in text and "Infinity" not in text, path


class TestProfileBehavior:
    def test_degenerate_profile_is_perfect(self):
        p = profile(detection_rate=1.0, fp_rate=0.0, localization_jitter=0.0)
        ds = generate(3, 20, [p])
        dets = ds.detections["d1"]
        assert len(dets) == len(ds.ground_truths()["object"])
        boxes = dict(ds.images)
        for d in dets:
            assert any(iou(d.box, g) == 1.0 for g in boxes[d.image_id])

    def test_no_fp_profile_has_precision_one(self):
        p = profile(detection_rate=0.8, fp_rate=0.0, localization_jitter=1.0)
        ds = generate(4, 40, [p])
        gts = ds.ground_truths(ds.validation_image_ids)["object"]
        _, decided, tp = labeled_windows({"d1": ds.detections_for("d1", ds.validation_image_ids)}, gts)
        assert tp.any()
        assert not (decided & ~tp).any()  # no false positive

    def test_empirical_tp_rate_matches_detection_rate(self):
        rate = 0.6
        p = profile(detection_rate=rate, fp_rate=0.0, localization_jitter=0.0)
        ds = generate(5, 400, [p], objects_per_image_range=(1, 3))
        n_obj = len(ds.ground_truths()["object"])
        n_det = len(ds.detections["d1"])
        se = (rate * (1 - rate) / n_obj) ** 0.5
        assert abs(n_det / n_obj - rate) < 3 * se

    def test_scores_clipped_and_ordered(self):
        p = profile(tp_score_mean=7.0, fp_score_mean=2.0, fp_rate=2.0)
        ds = generate(6, 60, [p])
        scores = [d.score for d in ds.detections["d1"]]
        assert all(0.0 <= s <= 10.0 for s in scores)

    def test_validation_rate_scale_biases_only_validation(self):
        base = profile(detection_rate=0.5, fp_rate=0.0, localization_jitter=0.0)
        biased = profile(
            detection_rate=0.5, fp_rate=0.0, localization_jitter=0.0,
            validation_rate_scale=1.9,
        )
        ds_base = generate(9, 400, [base])
        ds_biased = generate(9, 400, [biased])
        val_base = len(ds_base.detections_for("d1", ds_base.validation_image_ids))
        val_biased = len(ds_biased.detections_for("d1", ds_biased.validation_image_ids))
        assert val_biased > val_base * 1.4

    def test_easy_group_boosts_subset(self):
        p0 = profile(detector_id="a", detection_rate=0.2, easy_group=0,
                     easy_detection_rate=1.0, fp_rate=0.0)
        p1 = profile(detector_id="b", detection_rate=0.2, easy_group=1,
                     easy_detection_rate=1.0, fp_rate=0.0)
        ds = generate(10, 200, [p0, p1], objects_per_image_range=(2, 2))
        n_obj = len(ds.ground_truths()["object"])
        # Each detector sees ~60% of objects (100% of its half, 20% of the rest).
        for det_id in ("a", "b"):
            frac = len(ds.detections[det_id]) / n_obj
            assert 0.5 < frac < 0.7


class TestGroundTruths:
    def test_one_class_by_image_in_generated_order(self):
        ds = generate(11, 10, [profile()], objects_per_image_range=(0, 3), class_label="cat")
        gts = ds.ground_truths(ds.test_image_ids)
        assert list(gts) == ["cat"]
        truth = gts["cat"]
        kept = [(image_id, boxes) for image_id, boxes in ds.images if image_id in ds.test_image_ids and boxes]
        assert list(truth.spans) == [image_id for image_id, _ in kept]
        assert truth.boxes.tolist() == [list(b) for _, boxes in kept for b in boxes]
        assert truth.num_positives == len(truth) == len(truth.boxes)
        assert not truth.difficult.any()

    def test_no_image_no_class(self):
        assert generate(11, 10, [profile()]).ground_truths(frozenset()) == {}


class TestComplementarityFixture:
    def test_union_oracle_beats_individuals(self):
        from beliefuse.cli import default_profiles
        from beliefuse.geometry import Detection

        ds = generate(42, 120, default_profiles(3))
        test_ids = ds.test_image_ids
        gts = ds.ground_truths(test_ids)
        individual_aps = {}
        for det_id in ds.detections:
            report = evaluate_method(ds.detections_for(det_id, test_ids), gts)
            individual_aps[det_id] = report.map_score
        # Oracle: union of all detections with perfect scores on true hits.
        boxes = dict(ds.images)
        union = []
        for det_id in ds.detections:
            for d in ds.detections_for(det_id, test_ids):
                hit = any(iou(d.box, g) > 0.5 for g in boxes[d.image_id])
                union.append(
                    Detection(d.image_id, d.detector_id, d.box, 1.0 if hit else 0.0)
                )
        oracle = evaluate_method(DetectionColumns.of(union), gts).map_score
        assert all(oracle > ap for ap in individual_aps.values())
