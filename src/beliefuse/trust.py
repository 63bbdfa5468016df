"""Per-detector trust models: validation PR tables and dynamic mass assignment.

A trust model maps a raw detection score through the detector's validation
precision/recall table to a mass function over {target, non-target,
intermediate}. The intermediate mass is the gap between the detector's
precision and that of a hypothetical best-possible detector with PR curve
1 - r^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dst import Bpa, bpa_rows
from .geometry import Detection, MatchLabel

DEFAULT_BPD_EXPONENT = 2.0


class InsufficientData(ValueError):
    """Validation data cannot support a PR table for this detector."""


@dataclass(frozen=True)
class PrPoint:
    """One row of the validation PR sweep at a distinct score threshold."""

    score_threshold: float
    recall: float
    precision: float  # monotone envelope, non-increasing down the table
    precision_raw: float


def bpd_precision(recall: float, n: float) -> float:
    """Precision of the best-possible detector at the given recall: 1 - r^n.

    n = +inf yields the perfect detector: precision 1 below full recall,
    0 at recall 1.
    """
    if not 0.0 <= recall <= 1.0:
        raise ValueError(f"recall must be in [0,1], got {recall}")
    if not n > 0:
        raise ValueError(f"exponent must be positive, got {n}")
    if math.isinf(n):
        return 1.0 if recall < 1.0 else 0.0
    return 1.0 - recall**n


def build_pr_table(
    labeled: list[tuple[Detection, MatchLabel]],
    num_gt_positives: int,
) -> list[PrPoint]:
    """Sweep score thresholds over labeled validation detections.

    Undecided detections are excluded. At each distinct score threshold the
    cumulative true/false positive counts define recall and raw precision;
    the stored precision column is the running-max envelope taken from the
    high-recall end, so it is non-increasing down the table.
    """
    if num_gt_positives <= 0:
        raise InsufficientData("no ground-truth positives in validation set")
    decided = [
        (d, lab) for d, lab in labeled if lab is not MatchLabel.UNDECIDED
    ]
    has_tp = any(lab is MatchLabel.TRUE_POSITIVE for _, lab in decided)
    has_fp = any(lab is MatchLabel.FALSE_POSITIVE for _, lab in decided)
    if not has_tp or not has_fp:
        raise InsufficientData(
            "need at least one true positive and one false positive"
        )
    decided.sort(key=lambda t: (-t[0].score, t[0].detector_id, t[0].image_id))

    rows: list[tuple[float, float, float]] = []
    tp = fp = 0
    i = 0
    while i < len(decided):
        threshold = decided[i][0].score
        while i < len(decided) and decided[i][0].score == threshold:
            if decided[i][1] is MatchLabel.TRUE_POSITIVE:
                tp += 1
            else:
                fp += 1
            i += 1
        rows.append((threshold, tp / num_gt_positives, tp / (tp + fp)))

    table: list[PrPoint] = []
    envelope = 0.0
    for threshold, recall, precision in reversed(rows):
        envelope = max(envelope, precision)
        table.append(PrPoint(threshold, recall, envelope, precision))
    table.reverse()
    return table


@dataclass(frozen=True)
class TrustModel:
    """Prior performance model of one detector on one class."""

    detector_id: str
    class_label: str
    table: list[PrPoint]
    bpd_exponent: float = DEFAULT_BPD_EXPONENT
    num_validation_positives: int = 0

    def __post_init__(self):
        if not self.table:
            raise ValueError("trust model table must be nonempty")
        thresholds = [p.score_threshold for p in self.table]
        if any(a >= b for a, b in zip(thresholds[1:], thresholds)):
            raise ValueError("table thresholds must be strictly descending")
        if not self.bpd_exponent > 0:
            raise ValueError(f"bpd exponent must be positive, got {self.bpd_exponent}")
        for i, p in enumerate(self.table):
            rates_ok = 0.0 <= p.recall <= 1.0 and 0.0 <= p.precision <= 1.0
            if not (rates_ok and 0.0 <= p.precision_raw <= 1.0):  # false for NaN too
                raise ValueError(f"table row {i}: recall and precision must be in [0, 1], got {p}")

    @cached_property
    def _mass_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The negated thresholds, ascending, and the masses a score maps to:
        one row per PR row, then the below-bottom row.

        A score at or above a row's threshold and below the one above reads
        that row; above the top it reads the first row. Below the bottom
        every validation window is accepted, read as full recall at the last
        row's envelope precision, which is also the ``recall_one`` mass of
        an absent slot.
        """
        recall = [p.recall for p in self.table] + [1.0]
        precision = [p.precision for p in self.table] + [self.table[-1].precision]
        negated = np.array([-p.score_threshold for p in self.table])
        return negated, self._assignments(recall, precision)

    def _assignments(self, recall: list[float], precision: list[float]) -> np.ndarray:
        # 1 - r**n with Python's **: np.power rounds differently.
        p_bpd = np.array([bpd_precision(r, self.bpd_exponent) for r in recall])
        p = np.array(precision, dtype=float)
        m_i = np.maximum(p_bpd - p, 0.0)
        m_nt = 1.0 - np.maximum(p_bpd, p)
        return bpa_rows(np.stack([p, m_nt, m_i], axis=1))

    def assignment_at(self, recall: float, precision: float) -> Bpa:
        """Mass split at a PR operating point.

        m(T) = p, m(I) = max(p_bpd - p, 0), m(~T) = 1 - max(p_bpd, p). The
        clamp covers detectors that locally beat the best-possible model.
        """
        return Bpa.exact(*self._assignments([recall], [precision])[0].tolist())

    def masses_at(self, scores: np.ndarray) -> np.ndarray:
        """The (m_T, m_~T, m_I) rows of an array of scores, looked up in the
        mass table; -inf reads as below the bottom threshold."""
        negated, masses = self._mass_table
        return masses[np.searchsorted(negated, -scores)]

    def static_bpa(self, recall_anchor: float = 0.2) -> Bpa:
        """Fixed assignment at the table row nearest the anchor recall."""
        row = min(self.table, key=lambda p: (abs(p.recall - recall_anchor), p.score_threshold))
        return self.assignment_at(row.recall, row.precision)

    def to_dict(self) -> dict:
        return {
            "detector_id": self.detector_id,
            "class_label": self.class_label,
            "bpd_exponent": "inf" if math.isinf(self.bpd_exponent) else self.bpd_exponent,
            "num_validation_positives": self.num_validation_positives,
            "table": [
                {
                    "score": p.score_threshold,
                    "recall": p.recall,
                    "precision_raw": p.precision_raw,
                    "precision_monotone": p.precision,
                }
                for p in self.table
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrustModel":
        n = data["bpd_exponent"]
        return cls(
            detector_id=data["detector_id"],
            class_label=data["class_label"],
            table=[
                PrPoint(
                    row["score"],
                    row["recall"],
                    row["precision_monotone"],
                    row["precision_raw"],
                )
                for row in data["table"]
            ],
            bpd_exponent=math.inf if n == "inf" else float(n),
            num_validation_positives=data["num_validation_positives"],
        )


def build_trust_model(
    labeled: list[tuple[Detection, MatchLabel]],
    num_gt_positives: int,
    detector_id: str,
    class_label: str,
    bpd_exponent: float = DEFAULT_BPD_EXPONENT,
) -> TrustModel:
    table = build_pr_table(labeled, num_gt_positives)
    return TrustModel(
        detector_id=detector_id,
        class_label=class_label,
        table=table,
        bpd_exponent=bpd_exponent,
        num_validation_positives=num_gt_positives,
    )
