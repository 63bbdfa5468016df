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
    platt_features,
    platt_fuse,
    weighted_sum_fuse,
)
from beliefuse.io import load_model, save_model
from beliefuse.geometry import MatchLabel
from beliefuse.trust import InsufficientData

TP = MatchLabel.TRUE_POSITIVE
FP = MatchLabel.FALSE_POSITIVE
UN = MatchLabel.UNDECIDED


def row(slots):
    """One detection vector as a one-row slot matrix and its detector ids."""
    detector_ids = sorted(slots)
    return detector_ids, np.array([[slots[d] for d in detector_ids]])


def train(training, platt):
    """Fit the weighted sum on (present slots, label) pairs, as rows of one
    slot matrix over every detector with a Platt model."""
    detector_ids = sorted(platt)
    slots = np.array([[s.get(d, -np.inf) for d in detector_ids] for s, _ in training])
    features = platt_features(detector_ids, slots, platt, detector_ids)
    return fit_weighted_sum(features, np.array([lab for _, lab in training]), tuple(detector_ids))


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
        assert platt_fuse(*row({"a": 1.5}), m).tolist() == [prob]

    def test_max_rule(self):
        m = self.models()
        fused = platt_fuse(*row({"a": 0.3, "b": 2.0, "c": 1.0}), m)
        assert fused.tolist() == [m["b"].probability(2.0)]

    def test_absent_slots_ignored(self):
        m = self.models()
        fused = platt_fuse(["a", "b"], np.array([[1.0, -np.inf]]), m)
        assert fused.tolist() == [m["a"].probability(1.0)]

    def test_permutation_invariant_and_bounded(self):
        m = self.models()
        v1 = platt_fuse(["a", "b", "c"], np.array([[0.3, 2.0, 1.0]]), m)
        v2 = platt_fuse(["c", "b", "a"], np.array([[1.0, 2.0, 0.3]]), m)
        assert v1.tolist() == v2.tolist()
        assert 0.0 <= v1[0] <= 1.0


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
            training.append(({"a": a_score, "b": b_score}, positive))
        w = train(training, platt)
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
            training.append(({"a": a, "b": b}, positive))
        w = train(training, platt)
        correct = sum(
            (weighted_sum_fuse(*row(slots), platt, w)[0] > 0) == label for slots, label in training
        )
        majority = max(
            sum(1 for _, lab in training if lab),
            sum(1 for _, lab in training if not lab),
        )
        assert correct >= majority

    def test_identical_vectors_identical_scores(self):
        platt = self.platt_pair()
        training = [({"a": 2.0, "b": 1.0}, True), ({"a": -2.0, "b": -1.0}, False)]
        w = train(training, platt)
        slots = np.array([[0.7, 0.2], [-1.0, 3.0], [0.7, 0.2]])
        s1, _, s2 = weighted_sum_fuse(["a", "b"], slots, platt, w).tolist()
        assert s1 == s2

    def test_duplicate_columns_preserve_ranking(self):
        platt_one = {"a": PlattModel("a", -2.0, 0.0)}
        platt_two = {"a": PlattModel("a", -2.0, 0.0), "a2": PlattModel("a2", -2.0, 0.0)}
        rng = np.random.default_rng(3)
        scores = [float(rng.normal(1 if i % 2 else -1, 0.4)) for i in range(60)]
        labels = [bool(i % 2) for i in range(60)]
        train_one = [({"a": s}, lab) for s, lab in zip(scores, labels)]
        train_two = [({"a": s, "a2": s}, lab) for s, lab in zip(scores, labels)]
        w1 = train(train_one, platt_one)
        w2 = train(train_two, platt_two)
        f1 = [weighted_sum_fuse(*row(v), platt_one, w1)[0] for v, _ in train_one]
        f2 = [weighted_sum_fuse(*row(v), platt_two, w2)[0] for v, _ in train_two]
        assert np.corrcoef(np.argsort(np.argsort(f1)), np.argsort(np.argsort(f2)))[0, 1] == pytest.approx(1.0)

    def test_missing_label_rejected(self):
        platt = self.platt_pair()
        training = [({"a": 1.0, "b": 1.0}, True)]
        with pytest.raises(InsufficientData):
            train(training, platt)

    def test_all_zero_features_rejected(self):
        # Saturated sigmoid drives every feature to exactly 0.
        platt = {"a": PlattModel("a", 1000.0, 1000.0)}
        training = [({"a": 1.0}, True), ({"a": 2.0}, False)]
        with pytest.raises(InsufficientData):
            train(training, platt)


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
        # Even prior odds: log(0.5 / 0.5) == 0.
        platt = {"a": PlattModel("a", -1.0, 0.0)}
        lik = ScoreLikelihood("a", (0.75, 0.25), (0.25, 0.75))
        slots = np.array([[-np.inf, 1.0]])
        assert bayes_fuse(["a", "z"], slots, platt, {"a": lik}).tolist() == [0.0]
        assert bayes_fuse(*row({"z": 1.0}), {}, {}).tolist() == [0.0]

    def test_uniform_likelihoods_leave_prior(self):
        platt = {"a": PlattModel("a", -1.0, 0.0)}
        uniform = ScoreLikelihood("a", tuple([1 / 8] * 8), tuple([1 / 8] * 8))
        assert bayes_fuse(*row({"a": 1.0}), platt, {"a": uniform})[0] == pytest.approx(0.0)

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
        fused = bayes_fuse(*row({"a": -1.0, "b": -1.0}), platt, liks)
        assert fused[0] == pytest.approx(math.log(9.0))

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
        both, only_a = bayes_fuse(["a", "b"], np.array([[0.7, 1.1], [0.7, -np.inf]]), platt, liks)
        ratio_b = liks["b"].log_likelihood_ratio(platt["b"].probability(1.1))
        assert both == pytest.approx(only_a + ratio_b, abs=1e-12)


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
