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
STATIC_RECALL_ANCHOR = 0.2  # static-DST reads the PR row nearest this recall


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


def pr_sweep(tp_flags: np.ndarray, num_positives: int) -> tuple[np.ndarray, np.ndarray]:
    """Recall and precision after each ranked detection, from the ranked
    detections' true-positive flags (1 for a true positive, 0 for a false
    one): ``tp / num_positives`` and ``tp / rank``."""
    tp = np.cumsum(tp_flags)
    return tp / num_positives, tp / np.arange(1, len(tp) + 1)


def envelope(precision: np.ndarray) -> np.ndarray:
    """The running maximum of a precision column from its high-recall end,
    so it is non-increasing down the ranks."""
    return np.maximum.accumulate(precision[::-1])[::-1]


def build_pr_table(
    labeled: list[tuple[Detection, MatchLabel]],
    num_gt_positives: int,
) -> list[PrPoint]:
    """Sweep score thresholds over labeled validation detections.

    Undecided detections are excluded. Each run of equal scores (-0.0 ties
    0.0) gives one row: its first score is the threshold, and the counts
    after its last detection define recall and raw precision. The stored
    precision column is the envelope, non-increasing down the table.
    """
    if num_gt_positives <= 0:
        raise InsufficientData("no ground-truth positives in validation set")
    decided = [
        (d, lab) for d, lab in labeled if lab is not MatchLabel.UNDECIDED
    ]
    decided.sort(key=lambda t: (-t[0].score, t[0].detector_id, t[0].image_id))
    tp_flags = np.array([lab is MatchLabel.TRUE_POSITIVE for _, lab in decided], dtype=np.int64)
    if tp_flags.all() or not tp_flags.any():
        raise InsufficientData(
            "need at least one true positive and one false positive"
        )
    scores = np.array([d.score for d, _ in decided], dtype=float)
    recall, precision = pr_sweep(tp_flags, num_gt_positives)
    last = np.flatnonzero(np.append(scores[1:] != scores[:-1], True))
    first = np.append(0, last[:-1] + 1)
    columns = (scores[first], recall[last], envelope(precision[last]), precision[last])
    return list(map(PrPoint, *(c.tolist() for c in columns)))


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
        if not all(map(math.isfinite, thresholds)):
            raise ValueError("table thresholds must be finite")
        if any(a >= b for a, b in zip(thresholds[1:], thresholds)):
            raise ValueError("table thresholds must be strictly descending")
        if not self.bpd_exponent > 0:
            raise ValueError(f"bpd exponent must be positive, got {self.bpd_exponent}")
        positives = self.num_validation_positives
        if not (isinstance(positives, int) and positives >= 0):
            raise ValueError(f"validation positives must be a count, got {positives!r}")
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

        Each row splits its PR point's precision p at the best-possible
        detector's precision p_bpd: m(T) = p, m(I) = max(p_bpd - p, 0),
        m(~T) = 1 - max(p_bpd, p). The clamp covers detectors that locally
        beat the best-possible model.
        """
        recall = [row.recall for row in self.table] + [1.0]
        p = np.array([row.precision for row in self.table] + [self.table[-1].precision], dtype=float)
        # 1 - r**n with Python's **: np.power rounds differently.
        p_bpd = np.array([bpd_precision(r, self.bpd_exponent) for r in recall])
        masses = np.stack([p, 1.0 - np.maximum(p_bpd, p), np.maximum(p_bpd - p, 0.0)], axis=1)
        return np.array([-row.score_threshold for row in self.table]), bpa_rows(masses)

    def masses_at(self, scores: np.ndarray) -> np.ndarray:
        """The (m_T, m_~T, m_I) rows of an array of scores, looked up in the
        mass table; -inf reads as below the bottom threshold."""
        negated, masses = self._mass_table
        return masses[np.searchsorted(negated, -scores)]

    def static_bpa(self) -> Bpa:
        """Fixed assignment: the mass table's row of the PR row nearest
        ``STATIC_RECALL_ANCHOR``, the lower threshold on a tie."""
        row = min(self.table, key=lambda p: (abs(p.recall - STATIC_RECALL_ANCHOR), p.score_threshold))
        return Bpa.exact(*self._mass_table[1][self.table.index(row)].tolist())


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
