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
from itertools import repeat

import numpy as np

from .dst import Bpa, bpa_rows

DEFAULT_BPD_EXPONENT = 2.0
STATIC_RECALL_ANCHOR = 0.2  # static-DST reads the PR row nearest this recall


class InsufficientData(ValueError):
    """Validation data cannot support a PR table for this detector."""


def bpd_precision(recall: float, n: float) -> float:
    """Precision of the best-possible detector at the given recall: 1 - r^n.

    n = +inf yields the perfect detector: precision 1 below full recall,
    0 at recall 1. Python's ``**``, as ``TrustModel``'s masses compute it
    without the checks: ``np.power`` rounds differently.
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


def build_pr_table(scores: np.ndarray, tp: np.ndarray, num_gt_positives: int) -> np.ndarray:
    """Sweep score thresholds over decided validation windows, given as
    their scores and whether each is a true positive; one
    ``TrustModel.table`` row per distinct score.

    The windows are ranked by descending score, a stable sort, so ties keep
    the order given. Each run of equal scores (-0.0 ties 0.0) gives one row:
    its first score is the threshold, and the counts after its last window
    define recall and raw precision. The monotone precision column is the
    envelope, non-increasing down the table.
    """
    if num_gt_positives <= 0:
        raise InsufficientData("no ground-truth positives in validation set")
    if tp.all() or not tp.any():
        raise InsufficientData(
            "need at least one true positive and one false positive"
        )
    ranked = np.argsort(-scores, kind="stable")
    scores = scores[ranked]
    recall, precision = pr_sweep(tp[ranked], num_gt_positives)
    last = np.flatnonzero(np.append(scores[1:] != scores[:-1], True))
    first = np.append(0, last[:-1] + 1)
    return np.column_stack((scores[first], recall[last], precision[last], envelope(precision[last])))


@dataclass(frozen=True, eq=False)  # == on the table array has no single truth value
class TrustModel:
    """Prior performance model of one detector on one class."""

    detector_id: str
    class_label: str
    table: np.ndarray  # read-only PR rows: threshold, recall, raw and monotone precision
    bpd_exponent: float = DEFAULT_BPD_EXPONENT
    num_validation_positives: int = 0

    def __post_init__(self):
        table = np.array(self.table, dtype=float)
        if table.ndim != 2 or table.shape[1] != 4 or not len(table):
            raise ValueError(f"table must be nonempty rows of 4 numbers, got shape {table.shape}")
        thresholds = table[:, 0]
        if not (np.isfinite(thresholds).all() and (thresholds[1:] < thresholds[:-1]).all()):
            raise ValueError("table thresholds must be finite and strictly descending")
        if not self.bpd_exponent > 0:
            raise ValueError(f"bpd_exponent must be positive, got {self.bpd_exponent}")
        positives = self.num_validation_positives
        if not (isinstance(positives, int) and positives >= 0):
            raise ValueError(f"num_validation_positives must be a count, got {positives!r}")
        in_unit = ((table[:, 1:] >= 0.0) & (table[:, 1:] <= 1.0)).all(axis=1)  # false for NaN too
        if not in_unit.all():
            i = np.flatnonzero(~in_unit)[0]
            raise ValueError(f"table row {i}: recall and precision must be in [0, 1], got {table[i].tolist()}")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @cached_property
    def mass_table(self) -> tuple[np.ndarray, np.ndarray]:
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
        thresholds, recall, _, precision = self.table.T
        return -thresholds, self._masses(np.append(recall, 1.0), np.append(precision, precision[-1]))

    def _masses(self, recall: np.ndarray, p: np.ndarray) -> np.ndarray:
        """The mass rows of PR points: ``bpd_precision``'s 1 - r**n by the same
        ``pow`` as ``**``, which for n = inf gives 1 - 0 below recall 1, 1 - 1 at it."""
        p_bpd = 1.0 - np.array(list(map(pow, recall.tolist(), repeat(self.bpd_exponent))))
        return bpa_rows(np.stack([p, 1.0 - np.maximum(p_bpd, p), np.maximum(p_bpd - p, 0.0)], axis=1))

    def masses_at(self, scores: np.ndarray) -> np.ndarray:
        """The (m_T, m_~T, m_I) rows of an array of scores, looked up in the
        mass table; -inf reads as below the bottom threshold."""
        negated, masses = self.mass_table
        return masses[np.searchsorted(negated, -scores)]

    def static_bpa(self) -> Bpa:
        """Fixed assignment: the mass table's row of the PR row nearest
        ``STATIC_RECALL_ANCHOR``, the lower threshold on a tie."""
        row = np.lexsort((self.table[:, 0], abs(self.table[:, 1] - STATIC_RECALL_ANCHOR)))[0]
        return Bpa.exact(*self._masses(self.table[row, 1:2], self.table[row, 3:4])[0].tolist())
