import math

import numpy as np
import pytest

from beliefuse.baselines import (
    PlattModel,
    ScoreLikelihood,
    WeightVector,
    bayes_fuse,
    fit_platt,
    fit_score_likelihood,
    fit_weighted_sum,
    platt_fuse,
    weighted_sum_fuse,
)
from beliefuse.fusion import DetectionVector
from beliefuse.io import load_model, save_model
from beliefuse.geometry import BoundingBox, Detection, MatchLabel
from beliefuse.trust import InsufficientData

TP = MatchLabel.TRUE_POSITIVE
FP = MatchLabel.FALSE_POSITIVE
UN = MatchLabel.UNDECIDED


def vector(slots, subject_detector=None):
    subject_detector = subject_detector or sorted(slots)[0]
    d = Detection(
        image_id="img1",
        detector_id=subject_detector,
        box=BoundingBox(0, 0, 10, 10),
        score=slots[subject_detector],
    )
    return DetectionVector(subject=d, slots=slots)


class TestFitPlatt:
    def test_separated_data_preserves_order(self):
        labeled = [(2.0, TP), (1.5, TP), (-1.0, FP), (-2.0, FP)]
        m = fit_platt(labeled)
        assert m.probability(2.0) > m.probability(-2.0)

    def test_symmetric_data_crosses_half_at_zero(self):
        labeled = [(2.0, TP), (1.0, TP), (-1.0, FP), (-2.0, FP)]
        m = fit_platt(labeled)
        assert m.probability(0.0) == pytest.approx(0.5, abs=1e-6)

    def test_negative_slope_for_separated_scores(self):
        m = fit_platt([(2.0, TP), (1.0, TP), (-1.0, FP), (-2.0, FP)])
        assert m.a < 0

    def test_undecided_excluded(self):
        base = fit_platt([(2.0, TP), (1.0, TP), (-1.0, FP), (-2.0, FP)])
        with_und = fit_platt(
            [(2.0, TP), (1.0, TP), (-1.0, FP), (-2.0, FP), (0.5, UN), (99.0, UN)]
        )
        assert (with_und.a, with_und.b) == (base.a, base.b)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_platt([(1.0, TP), (2.0, TP)])
        with pytest.raises(InsufficientData):
            fit_platt([(1.0, FP)])

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        labeled = [
            (float(rng.normal(1, 1)), TP) for _ in range(50)
        ] + [(float(rng.normal(-1, 1)), FP) for _ in range(50)]
        m1 = fit_platt(labeled)
        m2 = fit_platt(labeled)
        assert (m1.a, m1.b) == (m2.a, m2.b)

    def test_monotone_probability(self):
        m = fit_platt([(2.0, TP), (1.0, TP), (-1.0, FP), (-2.0, FP)])
        xs = np.linspace(-5, 5, 100)
        ps = [m.probability(float(x)) for x in xs]
        assert all(a < b for a, b in zip(ps, ps[1:]))


class TestPlattFuse:
    def models(self):
        return {
            "a": PlattModel("a", -1.0, 0.0),
            "b": PlattModel("b", -1.0, 0.0),
            "c": PlattModel("c", -1.0, 0.0),
        }

    def test_single_slot(self):
        m = self.models()
        prob = m["a"].probability(1.5)
        assert platt_fuse(vector({"a": 1.5}).slots, m) == prob

    def test_max_rule(self):
        m = self.models()
        fused = platt_fuse(vector({"a": 0.3, "b": 2.0, "c": 1.0}).slots, m)
        assert fused == m["b"].probability(2.0)

    def test_absent_slots_ignored(self):
        m = self.models()
        assert platt_fuse(vector({"a": 1.0}).slots, m) == m["a"].probability(1.0)

    def test_permutation_invariant_and_bounded(self):
        m = self.models()
        slots = {"a": 0.3, "b": 2.0, "c": 1.0}
        v1 = platt_fuse(vector(slots, "a").slots, m)
        v2 = platt_fuse(vector(slots, "c").slots, m)
        assert v1 == v2
        assert 0.0 <= v1 <= 1.0


class TestFitWeightedSum:
    def platt_pair(self):
        return {"a": PlattModel("a", -2.0, 0.0), "b": PlattModel("b", -2.0, 0.0)}

    def test_separating_detector_dominates(self):
        platt = self.platt_pair()
        rng = np.random.default_rng(1)
        training = []
        for _ in range(100):
            positive = bool(rng.random() < 0.5)
            a_score = 2.0 if positive else -2.0
            b_score = float(rng.normal(0, 0.1))  # uninformative
            training.append((vector({"a": a_score, "b": b_score}), positive))
        w = fit_weighted_sum(training, platt)
        idx = {d: i for i, d in enumerate(w.detector_ids)}
        assert abs(w.weights[idx["a"]]) > abs(w.weights[idx["b"]])

    def test_training_accuracy_beats_majority(self):
        platt = self.platt_pair()
        rng = np.random.default_rng(2)
        training = []
        for _ in range(120):
            positive = bool(rng.random() < 0.4)
            a = float(rng.normal(1.5 if positive else -1.5, 0.5))
            b = float(rng.normal(1.0 if positive else -1.0, 0.5))
            training.append((vector({"a": a, "b": b}), positive))
        w = fit_weighted_sum(training, platt)
        correct = sum(
            (weighted_sum_fuse(vec.slots, platt, w) > 0) == label for vec, label in training
        )
        majority = max(
            sum(1 for _, lab in training if lab),
            sum(1 for _, lab in training if not lab),
        )
        assert correct >= majority

    def test_identical_vectors_identical_scores(self):
        platt = self.platt_pair()
        training = [
            (vector({"a": 2.0, "b": 1.0}), True),
            (vector({"a": -2.0, "b": -1.0}), False),
        ]
        w = fit_weighted_sum(training, platt)
        s1 = weighted_sum_fuse(vector({"a": 0.7, "b": 0.2}).slots, platt, w)
        s2 = weighted_sum_fuse(vector({"a": 0.7, "b": 0.2}, "b").slots, platt, w)
        assert s1 == s2

    def test_duplicate_columns_preserve_ranking(self):
        platt_one = {"a": PlattModel("a", -2.0, 0.0)}
        platt_two = {"a": PlattModel("a", -2.0, 0.0), "a2": PlattModel("a2", -2.0, 0.0)}
        rng = np.random.default_rng(3)
        scores = [float(rng.normal(1 if i % 2 else -1, 0.4)) for i in range(60)]
        labels = [bool(i % 2) for i in range(60)]
        train_one = [(vector({"a": s}), lab) for s, lab in zip(scores, labels)]
        train_two = [
            (vector({"a": s, "a2": s}), lab) for s, lab in zip(scores, labels)
        ]
        w1 = fit_weighted_sum(train_one, platt_one)
        w2 = fit_weighted_sum(train_two, platt_two)
        f1 = [weighted_sum_fuse(v.slots, platt_one, w1) for v, _ in train_one]
        f2 = [weighted_sum_fuse(v.slots, platt_two, w2) for v, _ in train_two]
        assert np.corrcoef(np.argsort(np.argsort(f1)), np.argsort(np.argsort(f2)))[0, 1] == pytest.approx(1.0)

    def test_missing_label_rejected(self):
        platt = self.platt_pair()
        training = [(vector({"a": 1.0, "b": 1.0}), True)]
        with pytest.raises(InsufficientData):
            fit_weighted_sum(training, platt)

    def test_all_zero_features_rejected(self):
        # Saturated sigmoid drives every feature to exactly 0.
        platt = {"a": PlattModel("a", 1000.0, 1000.0)}
        training = [(vector({"a": 1.0}), True), (vector({"a": 2.0}), False)]
        with pytest.raises(InsufficientData):
            fit_weighted_sum(training, platt)


class TestScoreLikelihood:
    def fitted(self):
        platt = PlattModel("a", -1.0, 0.0)
        rng = np.random.default_rng(4)
        labeled = [(float(rng.normal(2, 1)), TP) for _ in range(200)] + [
            (float(rng.normal(-2, 1)), FP) for _ in range(200)
        ]
        return fit_score_likelihood(labeled, platt, "a"), platt

    def test_histograms_normalized_and_positive(self):
        lik, _ = self.fitted()
        assert sum(lik.target_bins) == pytest.approx(1.0, abs=1e-9)
        assert sum(lik.nontarget_bins) == pytest.approx(1.0, abs=1e-9)
        assert all(m > 0 for m in lik.target_bins + lik.nontarget_bins)
        assert lik.bin_count == 32

    def test_high_probability_favors_target(self):
        lik, _ = self.fitted()
        assert lik.log_likelihood_ratio(0.97) > 0
        assert lik.log_likelihood_ratio(0.03) < 0


class TestBayesFuse:
    def test_no_present_slots_gives_prior_odds(self):
        v = vector({"z": 1.0})
        assert bayes_fuse(v.slots, {}, {}, prior_target=0.25) == pytest.approx(
            math.log(0.25 / 0.75)
        )

    def test_uniform_likelihoods_leave_prior(self):
        platt = {"a": PlattModel("a", -1.0, 0.0)}
        uniform = ScoreLikelihood("a", tuple([1 / 8] * 8), tuple([1 / 8] * 8))
        v = vector({"a": 1.0})
        assert bayes_fuse(v.slots, platt, {"a": uniform}, 0.5) == pytest.approx(0.0)

    def test_product_of_ratios(self):
        platt = {
            "a": PlattModel("a", -1.0, 0.0),
            "b": PlattModel("b", -1.0, 0.0),
        }
        # Low bin has likelihood ratio 3; both observed probabilities
        # (sigmoid of a negative score) land in the low bin.
        lik = ScoreLikelihood("a", (0.75, 0.25), (0.25, 0.75))
        assert lik.log_likelihood_ratio(platt["a"].probability(-1.0)) == pytest.approx(math.log(3.0))
        liks = {"a": lik, "b": ScoreLikelihood("b", lik.target_bins, lik.nontarget_bins)}
        v = vector({"a": -1.0, "b": -1.0})
        assert bayes_fuse(v.slots, platt, liks, 0.5) == pytest.approx(math.log(9.0))

    def test_additive_in_log_odds(self):
        platt = {
            "a": PlattModel("a", -1.0, 0.0),
            "b": PlattModel("b", -1.0, 0.3),
        }
        rng = np.random.default_rng(5)
        labeled_a = [(float(rng.normal(1, 1)), TP) for _ in range(50)] + [
            (float(rng.normal(-1, 1)), FP) for _ in range(50)
        ]
        labeled_b = [(float(rng.normal(2, 1)), TP) for _ in range(50)] + [
            (float(rng.normal(-2, 1)), FP) for _ in range(50)
        ]
        liks = {
            "a": fit_score_likelihood(labeled_a, platt["a"], "a"),
            "b": fit_score_likelihood(labeled_b, platt["b"], "b"),
        }
        both = bayes_fuse(vector({"a": 0.7, "b": 1.1}).slots, platt, liks, 0.5)
        only_a = bayes_fuse(vector({"a": 0.7}).slots, platt, liks, 0.5)
        ratio_b = liks["b"].log_likelihood_ratio(platt["b"].probability(1.1))
        assert both == pytest.approx(only_a + ratio_b, abs=1e-12)

    def test_bad_prior_rejected(self):
        with pytest.raises(ValueError):
            bayes_fuse(vector({"a": 1.0}).slots, {}, {}, prior_target=1.0)


class TestSerialization:
    def test_round_trip_all_kinds(self, tmp_path):
        platt = PlattModel("a", -1.25, 0.5, converged=True)
        weights = WeightVector(("a", "b"), (0.5, -0.25), 0.125)
        lik = ScoreLikelihood("a", (0.25, 0.75), (0.5, 0.5))
        for name, model in (("p", platt), ("w", weights), ("l", lik)):
            path = tmp_path / f"{name}.json"
            save_model(model, path)
            assert load_model(path) == model

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "mystery", "format_version": 1}')
        with pytest.raises(ValueError):
            load_model(path)
