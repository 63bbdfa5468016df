import json
import math

import numpy as np
import pytest

from beliefuse import pipeline, trust
from beliefuse.dst import Bpa
from beliefuse.geometry import BoundingBox, Detection, truths
from beliefuse.io import DataError, DetectionColumns, Ids, load_model, save_model
from beliefuse.trust import (
    InsufficientData,
    TrustModel,
    bpd_precision,
    build_pr_table,
)
from test_properties import reference_assignment, reference_model_dict

TP, FP = True, False


def score_to_bpa(model, score):
    """One score's masses, as ``TrustModel.masses_at`` looks them up."""
    return Bpa.exact(*model.masses_at(np.array([score]))[0].tolist())


def labeled_from(scores_and_labels):
    """``build_pr_table``'s first two arguments: the scores and whether each
    is a true positive."""
    scores, tp = zip(*scores_and_labels)
    return np.array(scores, dtype=float), np.array(tp, dtype=bool)


class TestBpdPrecision:
    def test_recall_zero_is_one(self):
        for n in (0.5, 1, 2, 8, math.inf):
            assert bpd_precision(0.0, n) == 1.0

    def test_recall_one_is_zero_finite_n(self):
        for n in (0.5, 1, 2, 8):
            assert bpd_precision(1.0, n) == 0.0

    def test_hand_value(self):
        assert bpd_precision(0.5, 2) == 0.75

    def test_infinite_exponent_is_perfect_detector(self):
        assert bpd_precision(0.999999, math.inf) == 1.0
        assert bpd_precision(1.0, math.inf) == 0.0

    def test_strictly_decreasing_in_recall(self):
        for n in (0.5, 1, 2, 8):
            values = [bpd_precision(r, n) for r in np.linspace(0.01, 0.99, 50)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_non_increasing_in_exponent(self):
        for r in (0.2, 0.5, 0.8):
            values = [bpd_precision(r, n) for n in (0.5, 1, 2, 4, 8, math.inf)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bpd_precision(1.5, 2)
        with pytest.raises(ValueError):
            bpd_precision(0.5, 0)


class TestBuildPrTable:
    def test_hand_counted_sweep(self):
        # Cumulative counts by descending score: TP, TP, FP, TP with 4 positives.
        table = build_pr_table(
            *labeled_from([(4.0, TP), (3.0, TP), (2.0, FP), (1.0, TP)]), 4
        )
        raw = [(r, p) for _, r, p, _ in table.tolist()]
        assert raw == [
            (0.25, 1.0),
            (0.5, 1.0),
            (0.5, pytest.approx(2 / 3)),
            (0.75, 0.75),
        ]
        assert table[:, 3].tolist() == [1.0, 1.0, 0.75, 0.75]

    def test_perfect_detector(self):
        table = build_pr_table(*labeled_from([(3.0, TP), (2.0, TP), (1.0, FP)]), 2)
        assert table[0, 3] == 1.0
        assert table[1].tolist() == [2.0, 1.0, 1.0, 1.0]

    def test_fp_then_tp(self):
        table = build_pr_table(*labeled_from([(2.0, FP), (1.0, TP)]), 1)
        assert table[:, 1:3].tolist() == [[0.0, 0.0], [1.0, 0.5]]
        assert table[:, 3].tolist() == [0.5, 0.5]

    def test_undecided_excluded(self):
        # A window half over a ground-truth box is undecided: it adds no row.
        gts = truths(Ids.of(["img1"] * 2), Ids.of(["object"] * 2), [(0, 0, 10, 10), (50, 50, 60, 60)], [False] * 2)["object"]
        decided = [Detection("img1", "d1", BoundingBox(0, 0, 10, 10), 3.0),
                   Detection("img1", "d1", BoundingBox(20, 20, 30, 30), 2.0)]
        undecided = Detection("img1", "d1", BoundingBox(50, 50, 55, 60), 2.5)
        with_und = pipeline.build_trust_models({"d1": DetectionColumns.of([*decided, undecided])}, gts, "object", 2.0)
        without = build_pr_table(*labeled_from([(3.0, TP), (2.0, FP)]), 2)
        assert with_und["d1"].table.tolist() == without.tolist()

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            build_pr_table(*labeled_from([(1.0, TP)]), 1)
        with pytest.raises(InsufficientData):
            build_pr_table(*labeled_from([(1.0, FP)]), 1)
        with pytest.raises(InsufficientData):
            build_pr_table(*labeled_from([(2.0, TP), (1.0, FP)]), 0)

    def test_recall_non_decreasing_precision_envelope_monotone(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            labels = [TP if rng.random() < 0.5 else FP for _ in range(n)]
            if TP not in labels:
                labels[0] = TP
            if FP not in labels:
                labels[-1] = FP
            scores = sorted(rng.normal(0, 2, n).tolist(), reverse=True)
            table = build_pr_table(*labeled_from(zip(scores, labels)), labels.count(TP) + 2)
            _, recalls, raw, envelope = table.T
            assert (recalls[1:] >= recalls[:-1]).all()
            assert (envelope[1:] <= envelope[:-1]).all()
            assert (envelope >= raw).all()


def simple_model(n=2.0):
    # Thresholds 4..1 with recalls .2/.4/.6/1 and envelope precisions.
    table = [
        [4.0, 0.2, 0.9, 0.9],
        [3.0, 0.4, 0.6, 0.6],
        [2.0, 0.6, 0.45, 0.5],
        [1.0, 1.0, 0.3, 0.3],
    ]
    return TrustModel("d1", "object", table, bpd_exponent=n, num_validation_positives=10)


class TestScoreToBpa:
    def test_hand_fixture_row(self):
        model = TrustModel(
            "d1", "object", [[5.0, 0.4, 0.6, 0.6]], bpd_exponent=2.0
        )
        b = score_to_bpa(model, 5.0)
        assert b.m_target == pytest.approx(0.6, abs=1e-15)
        assert b.m_intermediate == pytest.approx(0.24, abs=1e-15)
        assert b.m_nontarget == pytest.approx(0.16, abs=1e-15)

    def test_above_max_clamps_to_first_row(self):
        model = simple_model()
        assert score_to_bpa(model, 99.0) == score_to_bpa(model, 4.0)

    def test_below_min_full_recall(self):
        model = simple_model()
        b = score_to_bpa(model, 0.0)
        # r = 1, p = envelope at full recall, p_bpd = 0.
        assert b.m_target == pytest.approx(0.3)
        assert b.m_intermediate == 0.0
        assert b.m_nontarget == pytest.approx(0.7)

    def test_step_interpolation(self):
        model = simple_model()
        # Scores in [3, 4) take row at threshold 3.
        assert score_to_bpa(model, 3.5) == score_to_bpa(model, 3.0)
        assert score_to_bpa(model, 3.0) != score_to_bpa(model, 4.0)

    def test_clamp_when_detector_beats_bpd(self):
        model = TrustModel(
            "d1", "object", [[5.0, 0.9, 0.95, 0.95]], bpd_exponent=2.0
        )
        b = score_to_bpa(model, 5.0)
        # p = .95 > p_bpd = .19: ambiguity clamps to zero.
        assert b.m_intermediate == 0.0
        assert b.m_target == pytest.approx(0.95)
        assert b.m_nontarget == pytest.approx(0.05)

    def test_monotone_target_mass_in_score(self):
        model = simple_model()
        scores = np.linspace(-1, 6, 100)
        m_t = [score_to_bpa(model, float(s)).m_target for s in scores]
        assert all(a <= b for a, b in zip(m_t, m_t[1:]))

    def test_output_always_valid(self):
        rng = np.random.default_rng(12)
        for n in (0.5, 1, 2, 8, math.inf):
            model = simple_model(n)
            for s in rng.uniform(-5, 10, 200):
                b = score_to_bpa(model, float(s))
                assert sum(b.as_tuple()) == pytest.approx(1.0, abs=1e-9)
                assert all(m >= 0 for m in b.as_tuple())

    def test_mass_split_identity(self):
        model = simple_model()
        for threshold, recall, _, precision in model.table.tolist():
            b = score_to_bpa(model, threshold)
            assert b == reference_assignment(model, recall, precision)
            p_bpd = bpd_precision(recall, model.bpd_exponent)
            assert b.m_target + b.m_intermediate == pytest.approx(
                max(p_bpd, precision), abs=1e-12
            )
            assert b.m_nontarget == pytest.approx(1 - max(p_bpd, precision), abs=1e-12)


class TestStaticBpa:
    def test_picks_row_nearest_anchor_recall(self, monkeypatch):
        model = simple_model()
        assert model.static_bpa() == reference_assignment(model, 0.2, 0.9)
        monkeypatch.setattr(trust, "STATIC_RECALL_ANCHOR", 0.55)
        assert model.static_bpa() == reference_assignment(model, 0.6, 0.5)

    def test_score_independent(self):
        model = simple_model()
        fixed = model.static_bpa()
        assert fixed == model.static_bpa()


class TestSerialization:
    def test_round_trip_bit_identical_bpas(self, tmp_path):
        labeled = labeled_from(
            [(4.2, TP), (3.7, TP), (3.1, FP), (2.2, TP), (1.1, FP)]
        )
        model = TrustModel("d1", "object", table=build_pr_table(*labeled, 6), bpd_exponent=2.0,
                           num_validation_positives=6)
        path = tmp_path / "model.json"
        save_model(model, path)
        reloaded = load_model(path)
        for s in np.linspace(-1, 6, 300):
            assert score_to_bpa(reloaded, float(s)) == score_to_bpa(model, float(s))

    def test_round_trip_infinite_exponent(self, tmp_path):
        model = simple_model(math.inf)
        path = tmp_path / "model.json"
        save_model(model, path)
        reloaded = load_model(path)
        assert math.isinf(reloaded.bpd_exponent)
        # repr tells every float apart
        assert repr(reference_model_dict(reloaded)) == repr(reference_model_dict(model))

    def test_rejects_unknown_format_version(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(simple_model(), path)
        data = json.loads(path.read_text())
        data["format_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(DataError):
            load_model(path)


class TestTrustModelInvariants:
    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            TrustModel("d1", "object", [])

    def test_rejects_non_descending_thresholds(self):
        rows = [[1.0, 0.2, 0.9, 0.9], [2.0, 0.4, 0.8, 0.8]]
        with pytest.raises(ValueError):
            TrustModel("d1", "object", rows)

    @pytest.mark.parametrize("row", [
        [1.0, 1.5, 0.9, 0.9], [1.0, -0.1, 0.9, 0.9],
        [1.0, 0.2, 0.9, 1.2], [1.0, 0.2, 2.0, 0.9],
        [1.0, float("nan"), 0.9, 0.9], [1.0, 0.2, 0.9, float("inf")],
    ])
    def test_rejects_recall_or_precision_outside_unit_interval(self, row):
        with pytest.raises(ValueError, match="must be in"):
            TrustModel("d1", "object", [row])

    @pytest.mark.parametrize("table", [[1.0, 0.2, 0.9, 0.9], [[1.0, 0.2, 0.9]], [[[1.0, 0.2, 0.9, 0.9]]]],
                             ids=["one-row-flat", "three-columns", "three-dimensions"])
    def test_rejects_a_table_that_is_not_rows_of_four(self, table):
        with pytest.raises(ValueError, match="table"):
            TrustModel("d1", "object", table)

    def test_table_is_a_read_only_copy(self):
        rows = np.array([[1.0, 0.2, 0.9, 0.9]])
        model = TrustModel("d1", "object", rows)
        rows[0, 1] = 0.5
        assert model.table.tolist() == [[1.0, 0.2, 0.9, 0.9]]
        with pytest.raises(ValueError):
            model.table[0, 1] = 0.5
