import numpy as np
import pytest

from beliefuse import fusion
from beliefuse.dst import Bpa, FusedVerdict, combine
from beliefuse.fusion import (
    dbf_joints,
    fuse_images,
    image_overlaps,
    slot_matrix,
    static_dst_joints,
    static_masses,
)
from beliefuse.geometry import BoundingBox, Detection
from beliefuse.trust import PrPoint, TrustModel


def box(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


def det(detector, score, b, image="img1"):
    return Detection(image_id=image, detector_id=detector, box=b, score=score)


def dbf_score(models):
    """A fuse_images scoring rule: DBF with the given trust models."""

    def rule(detector_ids, slots):
        joints = dbf_joints(detector_ids, slots, models)
        return joints[:, 0] - joints[:, 1], joints

    return rule


def static_score(models):
    """A fuse_images scoring rule: static-DST with the given trust models."""
    masses = static_masses(models)

    def rule(detector_ids, slots):
        joints = static_dst_joints(detector_ids, slots, masses)
        return joints[:, 0] - joints[:, 1], joints

    return rule


def model_for(detector, n=2.0):
    table = [
        PrPoint(4.0, 0.2, 0.9, 0.9),
        PrPoint(3.0, 0.4, 0.6, 0.6),
        PrPoint(2.0, 0.6, 0.5, 0.45),
        PrPoint(1.0, 1.0, 0.3, 0.3),
    ]
    return TrustModel(detector, "object", table, bpd_exponent=n)


def row(slots):
    """One detection vector as a one-row slot matrix and its detector ids."""
    detector_ids = sorted(slots)
    return detector_ids, np.array([[slots[d] for d in detector_ids]])


def dbf_verdict(slots, models, absent_policy="vacuous"):
    return FusedVerdict(Bpa.exact(*dbf_joints(*row(slots), models, absent_policy)[0].tolist()))


def static_verdict(slots, models):
    return FusedVerdict(Bpa.exact(*static_dst_joints(*row(slots), static_masses(models))[0].tolist()))


def score_to_bpa(model, score):
    return Bpa.exact(*model.masses_at(np.array([score]))[0].tolist())


def vectors(per_det):
    """The image's slot matrix over its own detectors, threshold 0.5."""
    return slot_matrix(per_det, sorted(per_det), 0.5, image_overlaps(per_det))


class TestBuildDetectionVectors:
    def test_single_detector_single_detection(self):
        d = det("a", 0.9, box(0, 0, 10, 10))
        assert vectors({"a": [d]}).tolist() == [[0.9]]

    def test_mutual_overlap_identical_boxes(self):
        b = box(0, 0, 10, 10)
        da, db = det("a", 0.9, b), det("b", 0.7, b)
        assert vectors({"a": [da], "b": [db]}).tolist() == [[0.9, 0.7], [0.9, 0.7]]

    def test_max_score_rule_for_multiple_overlaps(self):
        b = box(0, 0, 10, 10)
        da = det("a", 0.9, b)
        b_low = det("b", 0.3, box(1, 1, 11, 11))
        b_high = det("b", 0.8, box(0, 1, 10, 11))
        slots = vectors({"a": [da], "b": [b_low, b_high]})
        assert slots[0, 1] == 0.8  # row 0 is da's, column 1 detector b's

    def test_no_overlap_slot_absent(self):
        da = det("a", 0.9, box(0, 0, 10, 10))
        db = det("b", 0.7, box(100, 100, 120, 120))
        assert vectors({"a": [da], "b": [db]}).tolist() == [[0.9, -np.inf], [-np.inf, 0.7]]

    def test_every_detection_is_subject_once(self):
        rng = np.random.default_rng(1)
        per_det = {
            name: [
                det(name, float(rng.random()), box(x, y, x + 30, y + 30))
                for x, y in rng.uniform(0, 200, size=(5, 2))
            ]
            for name in ("a", "b", "c")
        }
        slots = vectors(per_det)
        assert slots.shape == (15, 3)
        # Rows in subject order: detectors by id, each in input order, with
        # the window's own score in its own detector's column.
        own = [d.score for name in ("a", "b", "c") for d in per_det[name]]
        assert slots[np.arange(15), np.repeat([0, 1, 2], 5)].tolist() == own

    def test_own_slot_invariant_enforced(self):
        # A window's own column holds its raw score, even where a window of
        # its own detector on the same box scores higher.
        b = box(0, 0, 10, 10)
        assert vectors({"a": [det("a", 0.5, b), det("a", 0.9, b)]}).tolist() == [[0.5], [0.9]]


class TestDbfFuse:
    def test_single_source(self):
        # Score 5 -> first row (r=.2, p=.9, p_bpd=.96).
        verdict = dbf_verdict({"a": 5.0}, {"a": model_for("a")})
        expected = score_to_bpa(model_for("a"), 5.0)
        assert verdict.joint == expected
        assert verdict.score == expected.m_target - expected.m_nontarget

    def test_two_sources_match_pairwise_combine(self):
        models = {"a": model_for("a"), "b": model_for("b")}
        verdict = dbf_verdict({"a": 5.0, "b": 3.0}, models)
        expected = combine(score_to_bpa(models["a"], 5.0), score_to_bpa(models["b"], 3.0))
        assert verdict.joint.as_tuple() == pytest.approx(expected.as_tuple(), abs=1e-15)

    def test_absent_slots_are_identity(self):
        solo = dbf_verdict({"a": 5.0}, {"a": model_for("a")})
        models = {"a": model_for("a"), "b": model_for("b"), "c": model_for("c")}
        with_absent = dbf_verdict({"a": 5.0}, models)
        assert with_absent.joint == solo.joint
        # An absent column (-inf) reads the same as no column at all.
        joints = dbf_joints(["a", "b"], np.array([[5.0, -np.inf]]), models)
        assert Bpa.exact(*joints[0].tolist()) == solo.joint

    def test_recall_one_absent_policy_penalizes(self):
        models = {"a": model_for("a"), "b": model_for("b")}
        vac = dbf_verdict({"a": 5.0}, models, absent_policy="vacuous")
        pen = dbf_verdict({"a": 5.0}, models, absent_policy="recall_one")
        assert pen.score < vac.score

    def test_no_informative_slot_gives_zero_score(self):
        verdict = dbf_verdict({"z": 5.0}, {"a": model_for("a")})  # no model for z
        assert verdict.score == 0.0
        assert verdict.joint.is_vacuous()

    def test_agreement_preserves_sign(self):
        # Combining two target-leaning masses stays target-leaning. (The
        # stronger claim that the score never decreases is false in general:
        # a low-ambiguity, mildly positive source dilutes a confident joint.)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            base = Bpa(*rng.dirichlet([1, 1, 1]))
            extra = Bpa(*rng.dirichlet([1, 1, 1]))
            if base.m_target <= base.m_nontarget or extra.m_target <= extra.m_nontarget:
                continue
            joint = combine(base, extra)
            assert joint.m_target - joint.m_nontarget > -1e-12

    def test_single_detector_preserves_ranking(self):
        model = model_for("a")
        rng = np.random.default_rng(3)
        scores = sorted(rng.uniform(-2, 8, 50))
        joints = dbf_joints(["a"], np.array(scores)[:, None], {"a": model})
        fused = (joints[:, 0] - joints[:, 1]).tolist()
        assert all(a <= b for a, b in zip(fused, fused[1:]))


class TestTotalConflictRecovery:
    def test_smoothing_keeps_pipeline_total(self):
        certain_t = TrustModel("a", "object", [PrPoint(1.0, 0.5, 1.0, 1.0)], bpd_exponent=1000.0)
        certain_nt = TrustModel("b", "object", [PrPoint(1.0, 1.0, 0.0, 0.0)], bpd_exponent=2.0)
        before = fusion.conflict_smoothing_count
        verdict = dbf_verdict({"a": 5.0, "b": 5.0}, {"a": certain_t, "b": certain_nt})
        assert fusion.conflict_smoothing_count == before + 1
        assert -1.0 <= verdict.score <= 1.0


class TestStaticDstFuse:
    def test_single_source_fixed_assignment(self):
        model = model_for("a")
        for score in (0.5, 2.5, 9.0):
            verdict = static_verdict({"a": score}, {"a": model})
            assert verdict.joint == model.static_bpa(0.2)

    def test_static_assignment_values(self):
        # Anchor row (r=.2, p=.9), n=2: p_bpd=.96, masses (.9, .04, .06).
        model = model_for("a")
        b = model.static_bpa(0.2)
        assert b.m_target == pytest.approx(0.9)
        assert b.m_intermediate == pytest.approx(0.06)
        assert b.m_nontarget == pytest.approx(0.04, abs=1e-12)

    def test_two_agreeing_detectors_reinforce(self):
        models = {"a": model_for("a"), "b": model_for("b")}
        assert (
            static_verdict({"a": 5.0, "b": 5.0}, models).score
            > static_verdict({"a": 5.0}, models).score
        )


class TestFuseImage:
    def test_empty_input(self):
        assert fuse_images([{}], dbf_score({}), "object") == []

    def test_single_detector_ranking_consistent(self):
        rng = np.random.default_rng(4)
        dets = [
            det("a", float(rng.uniform(0, 8)), box(x, y, x + 30, y + 30))
            for x, y in rng.uniform(0, 400, size=(20, 2))
        ]
        models = {"a": model_for("a")}
        fused = fuse_images([{"a": dets}], dbf_score(models), "object")
        raw_nms = {d.box.as_tuple() for d in dets}
        assert all(f.box.as_tuple() in raw_nms for f in fused)
        scores = [f.score for f in fused]
        assert scores == sorted(scores, reverse=True)

    def test_two_detectors_one_object_consolidates(self):
        b1 = box(0, 0, 10, 10)
        b2 = box(0, 1, 10, 11)
        fused = fuse_images(
            [{"a": [det("a", 5.0, b1)], "b": [det("b", 3.5, b2)]}],
            dbf_score({"a": model_for("a"), "b": model_for("b")}),
            "object",
        )
        assert len(fused) == 1
        assert fused[0].verdict is not None

    def test_never_invents_boxes(self):
        rng = np.random.default_rng(5)
        per_det = {
            name: [
                det(name, float(rng.uniform(0, 8)), box(x, y, x + 30, y + 30))
                for x, y in rng.uniform(0, 300, size=(8, 2))
            ]
            for name in ("a", "b")
        }
        input_boxes = {
            d.box.as_tuple() for dets in per_det.values() for d in dets
        }
        fused = fuse_images(
            [per_det], dbf_score({"a": model_for("a"), "b": model_for("b")}), "object"
        )
        assert all(f.box.as_tuple() in input_boxes for f in fused)

    @pytest.mark.parametrize("method", ["dbf", "static-dst"])
    def test_same_box_twice_keeps_its_own_verdict(self, method):
        # One detector emits one box at 9.0 and again at 1.0; the survivor's
        # joint mass must be its own, not the duplicate's.
        b = box(0, 0, 10, 10)
        high, low = det("a", 9.0, b), det("a", 1.0, b)
        models = {"a": model_for("a")}
        score = dbf_score(models) if method == "dbf" else static_score(models)
        fused = fuse_images([{"a": [high, low]}], score, "object")
        assert len(fused) == 1
        assert fused[0].score == fused[0].verdict.score
        own = dbf_verdict if method == "dbf" else static_verdict
        assert fused[0].verdict == own({"a": 9.0}, models)
