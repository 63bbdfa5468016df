"""PASCAL-style average precision and multi-method evaluation reports.

The matcher here follows evaluation convention: a second detection on an
already-claimed ground truth counts as a false positive, unlike the
trust-model labeler which leaves duplicates undecided. Detections are
scored as columns (``io.DetectionColumns``), each class against its own
rows, with one IoU per pair of a detection and a ground truth of its image,
all pairs in one array pass (``Truth.pairs``).
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geometry import Truth
from .io import ArrayRows, DetectionColumns, indent2_parts
from .trust import envelope, pr_sweep


class NoGroundTruth(ValueError):
    """Average precision is undefined without ground-truth positives."""


def _pr_points(
    dets: DetectionColumns, truth: Truth, iou_threshold: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Recall and precision after each ranked detection (``trust.pr_sweep``),
    plus the number of true positives.

    Detections are ranked by descending score, ties broken by image id and
    then box. Each one's best ground truth is the first of its image with
    the highest IoU, a hit when that IoU is above the threshold. A hit on a
    difficult object is dropped from both counts, the first hit in rank
    order on any other object is a true positive, and every other detection
    is a false positive. Difficult objects are left out of the recall
    denominator.
    """
    boxes, image_codes = dets.boxes, dets.images.codes
    det, gt, overlaps = truth.pairs(dets.images, boxes)
    # Each detection's first ground truth with its highest IoU.
    best_iou = np.zeros(len(image_codes))
    if len(det):
        starts = np.flatnonzero(np.diff(det, prepend=-1))
        best_iou[det[starts]] = np.maximum.reduceat(overlaps, starts)
    is_max = np.flatnonzero(overlaps == best_iou[det])
    _, first_max = np.unique(det[is_max], return_index=True)
    best = np.zeros(len(image_codes), dtype=np.intp)
    best[det[is_max[first_max]]] = gt[is_max[first_max]]
    order = np.lexsort((boxes[:, 3], boxes[:, 2], boxes[:, 1], boxes[:, 0], image_codes, -dets.scores))
    hit, best = best_iou[order] > iou_threshold, best[order]
    kept = ~(hit & truth.difficult[best])
    hit, best = hit[kept], best[kept]
    hits = np.flatnonzero(hit)
    _, first_hit = np.unique(best[hits], return_index=True)
    tp_flags = np.zeros(len(best), dtype=np.int64)
    tp_flags[hits[first_hit]] = 1
    return (*pr_sweep(tp_flags, truth.num_positives), len(first_hit))


def _ap_all_points(recall: np.ndarray, precision: np.ndarray) -> float:
    r = np.concatenate(([0.0], recall, [1.0]))
    p = envelope(np.concatenate(([0.0], precision, [0.0])))
    changes = np.where(r[1:] != r[:-1])[0]
    return float(np.sum((r[changes + 1] - r[changes]) * p[changes + 1]))


def _ap_11_point(recall: np.ndarray, precision: np.ndarray) -> float:
    total = 0.0
    for t in np.linspace(0.0, 1.0, 11):
        mask = recall >= t
        total += float(precision[mask].max()) if mask.any() else 0.0
    return total / 11.0


_INTERPOLATIONS = {"all-points": _ap_all_points, "11-point": _ap_11_point}


class _ClassScore(NamedTuple):
    ap: float
    pr_samples: np.ndarray  # (N, 2): recall, precision
    counts: dict[str, int]


def _score_class(
    dets: DetectionColumns,
    truth: Truth | None,
    iou_threshold: float,
    interpolation: str,
) -> _ClassScore:
    """Every row of ``dets`` scored against one class's ground truth (None:
    the class has none).

    Raises ``NoGroundTruth`` when no object is non-difficult, whether or not
    there are rows; AP is undefined there, and a 0 would pull the mAP down.
    """
    if interpolation not in _INTERPOLATIONS:
        raise ValueError(f"unknown interpolation {interpolation!r}")
    if not 0 < iou_threshold < 1:
        raise ValueError(f"iou_threshold must be in (0,1), got {iou_threshold}")
    if truth is None or truth.num_positives == 0:
        raise NoGroundTruth("no non-difficult ground-truth objects")
    recall, precision, tp = _pr_points(dets, truth, iou_threshold)
    return _ClassScore(
        _INTERPOLATIONS[interpolation](recall, precision),
        np.column_stack((recall, precision)),
        {"num_gt": truth.num_positives, "num_detections": len(dets), "tp": tp, "fp": len(recall) - tp},
    )


def average_precision(
    dets: DetectionColumns,
    truth: Truth | None,
    iou_threshold: float = 0.5,
    interpolation: str = "all-points",
) -> float:
    """AP for one class over any number of images, every row scored against
    the class's ground truth (None: it has none, and AP is undefined).

    ``interpolation`` is ``"all-points"`` (exact area under the monotone
    envelope) or ``"11-point"`` (historical VOC07 sampling).
    """
    return _score_class(dets, truth, iou_threshold, interpolation).ap


@dataclass
class EvalReport:
    per_class_ap: dict[str, float]
    pr_samples: dict[str, np.ndarray] = field(default_factory=dict)  # (N, 2) each
    counts: dict[str, dict[str, int]] = field(default_factory=dict)
    # Whether some row lies on an image that has ground truth of a class it
    # is scored against; without one, every AP is 0 whatever the scores.
    on_truth_images: bool = False

    @property
    def map_score(self) -> float:
        if not self.per_class_ap:
            return 0.0
        return sum(self.per_class_ap.values()) / len(self.per_class_ap)

    def to_dict(self, curve: Callable[[np.ndarray], object] = np.ndarray.tolist) -> dict:
        """The report as ``report.json`` holds it, ``curve`` giving each PR
        curve's value."""
        return {
            "per_class_ap": dict(sorted(self.per_class_ap.items())),
            "mAP": self.map_score,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "pr_samples": {k: curve(v) for k, v in sorted(self.pr_samples.items())},
        }


def evaluate_method(
    dets: DetectionColumns,
    truths: dict[str, Truth],
    iou_threshold: float = 0.5,
    interpolation: str = "all-points",
) -> EvalReport:
    """Per-class AP report for one method's detections, raw or fused, one
    class for each class of ground truth (``geometry.truths``), each scored
    against the rows of its class only."""
    report = EvalReport({})
    for c in truths:
        at = np.flatnonzero(dets.classes.matches(c))
        rows = dets if len(at) == len(dets) else dets.take(at)
        try:
            score = _score_class(rows, truths[c], iou_threshold, interpolation)
        except NoGroundTruth as exc:
            raise NoGroundTruth(f"class {c!r}: {exc}") from None
        report.per_class_ap[c], report.pr_samples[c], report.counts[c] = score
        report.on_truth_images |= any(rows.images.names[k] in truths[c].spans for k in rows.images.used().tolist())
    return report


def evaluate_methods(
    methods: dict[str, DetectionColumns],
    truths: dict[str, Truth],
    iou_threshold: float = 0.5,
    interpolation: str = "all-points",
) -> dict[str, EvalReport]:
    """One report per method, every method scored against the same ground truth."""
    return {
        name: evaluate_method(methods[name], truths, iou_threshold, interpolation)
        for name in sorted(methods)
    }


def write_reports_json(reports: dict[str, EvalReport], path: str | Path, config: dict | None = None) -> None:
    """``json.dumps`` of the reports with ``indent=2``, each PR curve laid
    out from its array as its part is written."""
    payload = {
        "format_version": 1,
        "config": config or {},
        "methods": {name: reports[name].to_dict(ArrayRows) for name in sorted(reports)},
    }
    with open(path, "w") as fh:
        fh.writelines(indent2_parts(payload))
        fh.write("\n")


def write_reports_csv(reports: dict[str, EvalReport], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "class", "ap"])
        for name in sorted(reports):
            report = reports[name]
            for cls in sorted(report.per_class_ap):
                writer.writerow([name, cls, f"{report.per_class_ap[cls]:.6f}"])
            writer.writerow([name, "mAP", f"{report.map_score:.6f}"])
