import json
import math

import numpy as np
import pytest

from beliefuse.dst import Bpa
from beliefuse.geometry import BoundingBox, Detection, MatchLabel
from beliefuse.io import DataError, load_model, save_model
from beliefuse.trust import (
    InsufficientData,
    PrPoint,
    TrustModel,
    bpd_precision,
    build_pr_table,
    build_trust_model,
)

TP = MatchLabel.TRUE_POSITIVE
FP = MatchLabel.FALSE_POSITIVE
UN = MatchLabel.UNDECIDED


def score_to_bpa(model, score):
    """One score's masses, as ``TrustModel.masses_at`` looks them up."""
    return Bpa.exact(*model.masses_at(np.array([score]))[0].tolist())


def labeled_from(scores_and_labels):
    b = BoundingBox(0, 0, 10, 10)
    return [
        (Detection("img1", "d1", b, s), lab) for s, lab in scores_and_labels
    ]


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
            labeled_from([(4.0, TP), (3.0, TP), (2.0, FP), (1.0, TP)]), 4
        )
        raw = [(p.recall, p.precision_raw) for p in table]
        assert raw == [
            (0.25, 1.0),
            (0.5, 1.0),
            (0.5, pytest.approx(2 / 3)),
            (0.75, 0.75),
        ]
        assert [p.precision for p in table] == [1.0, 1.0, 0.75, 0.75]

    def test_perfect_detector(self):
        table = build_pr_table(labeled_from([(3.0, TP), (2.0, TP), (1.0, FP)]), 2)
        assert table[0].precision == 1.0
        assert table[1] == PrPoint(2.0, 1.0, 1.0, 1.0)

    def test_fp_then_tp(self):
        table = build_pr_table(labeled_from([(2.0, FP), (1.0, TP)]), 1)
        assert [(p.recall, p.precision_raw) for p in table] == [(0.0, 0.0), (1.0, 0.5)]
        assert [p.precision for p in table] == [0.5, 0.5]

    def test_undecided_excluded(self):
        with_und = build_pr_table(
            labeled_from([(3.0, TP), (2.5, UN), (2.0, FP)]), 2
        )
        without = build_pr_table(labeled_from([(3.0, TP), (2.0, FP)]), 2)
        assert with_und == without

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            build_pr_table(labeled_from([(1.0, TP)]), 1)
        with pytest.raises(InsufficientData):
            build_pr_table(labeled_from([(1.0, FP)]), 1)
        with pytest.raises(InsufficientData):
            build_pr_table(labeled_from([(2.0, TP), (1.0, FP)]), 0)

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
            table = build_pr_table(labeled_from(zip(scores, labels)), labels.count(TP) + 2)
            recalls = [p.recall for p in table]
            envelope = [p.precision for p in table]
            assert all(a <= b for a, b in zip(recalls, recalls[1:]))
            assert all(a >= b for a, b in zip(envelope, envelope[1:]))
            assert all(p.precision >= p.precision_raw for p in table)


def simple_model(n=2.0):
    # Thresholds 4..1 with recalls .2/.4/.6/1 and envelope precisions.
    table = [
        PrPoint(4.0, 0.2, 0.9, 0.9),
        PrPoint(3.0, 0.4, 0.6, 0.6),
        PrPoint(2.0, 0.6, 0.5, 0.45),
        PrPoint(1.0, 1.0, 0.3, 0.3),
    ]
    return TrustModel("d1", "object", table, bpd_exponent=n, num_validation_positives=10)


class TestScoreToBpa:
    def test_hand_fixture_row(self):
        model = TrustModel(
            "d1", "object", [PrPoint(5.0, 0.4, 0.6, 0.6)], bpd_exponent=2.0
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
            "d1", "object", [PrPoint(5.0, 0.9, 0.95, 0.95)], bpd_exponent=2.0
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
        for row in model.table:
            b = model.assignment_at(row.recall, row.precision)
            p_bpd = bpd_precision(row.recall, model.bpd_exponent)
            assert b.m_target + b.m_intermediate == pytest.approx(
                max(p_bpd, row.precision), abs=1e-12
            )
            assert b.m_nontarget == pytest.approx(1 - max(p_bpd, row.precision), abs=1e-12)


class TestStaticBpa:
    def test_picks_row_nearest_anchor_recall(self):
        model = simple_model()
        assert model.static_bpa(0.2) == model.assignment_at(0.2, 0.9)
        assert model.static_bpa(0.55) == model.assignment_at(0.6, 0.5)

    def test_score_independent(self):
        model = simple_model()
        fixed = model.static_bpa()
        assert fixed == model.static_bpa(0.2)


class TestSerialization:
    def test_round_trip_bit_identical_bpas(self, tmp_path):
        labeled = labeled_from(
            [(4.2, TP), (3.7, TP), (3.1, FP), (2.2, TP), (1.1, FP)]
        )
        model = build_trust_model(labeled, 6, "d1", "object", bpd_exponent=2.0)
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
        assert reloaded == model

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
        rows = [PrPoint(1.0, 0.2, 0.9, 0.9), PrPoint(2.0, 0.4, 0.8, 0.8)]
        with pytest.raises(ValueError):
            TrustModel("d1", "object", rows)

    @pytest.mark.parametrize("row", [
        PrPoint(1.0, 1.5, 0.9, 0.9), PrPoint(1.0, -0.1, 0.9, 0.9),
        PrPoint(1.0, 0.2, 1.2, 0.9), PrPoint(1.0, 0.2, 0.9, 2.0),
        PrPoint(1.0, float("nan"), 0.9, 0.9), PrPoint(1.0, 0.2, float("inf"), 0.9),
    ])
    def test_rejects_recall_or_precision_outside_unit_interval(self, row):
        with pytest.raises(ValueError, match="must be in"):
            TrustModel("d1", "object", [row])
