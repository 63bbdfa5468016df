"""PASCAL-style average precision and multi-method evaluation reports.

The matcher here follows evaluation convention: a second detection on an
already-claimed ground truth counts as a false positive, unlike the
trust-model labeler which leaves duplicates undecided.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fusion import FusedDetection
from .geometry import BoundingBox, Detection, GroundTruthObject, iou


class NoGroundTruth(ValueError):
    """Average precision is undefined without ground-truth positives."""


@dataclass(frozen=True)
class ScoredBox:
    """Minimal detection view shared by raw and fused inputs."""

    image_id: str
    box: BoundingBox
    score: float


def _as_scored(d) -> ScoredBox:
    if isinstance(d, ScoredBox):
        return d
    if isinstance(d, (Detection, FusedDetection)):
        return ScoredBox(image_id=d.image_id, box=d.box, score=d.score)
    raise TypeError(f"cannot evaluate object of type {type(d).__name__}")


def _pr_points(
    dets: list[ScoredBox],
    gts: list[GroundTruthObject],
    iou_threshold: float,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Cumulative (recall, precision) arrays plus final TP/FP counts.

    Difficult ground truths are excluded from the recall denominator and
    their matches are dropped from both counts.
    """
    num_positives = sum(1 for g in gts if not g.difficult)
    if num_positives == 0:
        raise NoGroundTruth("no non-difficult ground-truth objects")
    by_image: dict[str, list[int]] = {}
    for j, g in enumerate(gts):
        by_image.setdefault(g.image_id, []).append(j)

    order = sorted(
        range(len(dets)),
        key=lambda i: (-dets[i].score, dets[i].image_id, dets[i].box.as_tuple()),
    )
    claimed: set[int] = set()
    tp_flags = []
    fp_flags = []
    for i in order:
        det = dets[i]
        best_iou = 0.0
        best_j = -1
        for j in by_image.get(det.image_id, []):
            o = iou(det.box, gts[j].box)
            if o > best_iou:
                best_iou, best_j = o, j
        if best_iou > iou_threshold and gts[best_j].difficult:
            continue  # ignored, neither TP nor FP
        if best_iou > iou_threshold and best_j not in claimed:
            claimed.add(best_j)
            tp_flags.append(1)
            fp_flags.append(0)
        else:
            tp_flags.append(0)
            fp_flags.append(1)
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(fp_flags)
    recall = tp / num_positives
    precision = tp / np.maximum(tp + fp, 1)
    return recall, precision, int(tp[-1]) if len(tp) else 0, int(fp[-1]) if len(fp) else 0


def _ap_all_points(recall: np.ndarray, precision: np.ndarray) -> float:
    r = np.concatenate(([0.0], recall, [1.0]))
    p = np.concatenate(([0.0], precision, [0.0]))
    # Monotone envelope from the high-recall end.
    for i in range(len(p) - 2, -1, -1):
        p[i] = max(p[i], p[i + 1])
    changes = np.where(r[1:] != r[:-1])[0]
    return float(np.sum((r[changes + 1] - r[changes]) * p[changes + 1]))


def _ap_11_point(recall: np.ndarray, precision: np.ndarray) -> float:
    total = 0.0
    for t in np.linspace(0.0, 1.0, 11):
        mask = recall >= t
        total += float(precision[mask].max()) if mask.any() else 0.0
    return total / 11.0


def average_precision(
    dets,
    gts: list[GroundTruthObject],
    iou_threshold: float = 0.5,
    interpolation: str = "all-points",
) -> float:
    """AP for one class over any number of images.

    ``interpolation`` is ``"all-points"`` (exact area under the monotone
    envelope) or ``"11-point"`` (historical VOC07 sampling).
    """
    if interpolation not in ("all-points", "11-point"):
        raise ValueError(f"unknown interpolation {interpolation!r}")
    scored = [_as_scored(d) for d in dets]
    if not scored:
        # Still validates the ground truth side.
        if not any(not g.difficult for g in gts):
            raise NoGroundTruth("no non-difficult ground-truth objects")
        return 0.0
    recall, precision, _, _ = _pr_points(scored, gts, iou_threshold)
    if interpolation == "11-point":
        return _ap_11_point(recall, precision)
    return _ap_all_points(recall, precision)


@dataclass
class EvalReport:
    per_class_ap: dict[str, float]
    pr_samples: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    counts: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def map_score(self) -> float:
        if not self.per_class_ap:
            return 0.0
        return sum(self.per_class_ap.values()) / len(self.per_class_ap)

    def to_dict(self) -> dict:
        return {
            "per_class_ap": dict(sorted(self.per_class_ap.items())),
            "mAP": self.map_score,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "pr_samples": {
                k: [[r, p] for r, p in v] for k, v in sorted(self.pr_samples.items())
            },
        }


def evaluate_method(
    dets,
    gts: list[GroundTruthObject],
    iou_threshold: float = 0.5,
    interpolation: str = "all-points",
) -> EvalReport:
    """Per-class AP report for one method's detections."""
    classes = sorted({g.class_label for g in gts})
    per_class: dict[str, float] = {}
    pr_samples: dict[str, list[tuple[float, float]]] = {}
    counts: dict[str, dict[str, int]] = {}
    scored_by_class: dict[str, list[ScoredBox]] = {c: [] for c in classes}
    for d in dets:
        label = getattr(d, "class_label", None)
        if label is None or label in scored_by_class:
            # Raw detections carry no class; they are evaluated per GT class.
            target = [label] if label in scored_by_class else classes
            for c in target:
                scored_by_class[c].append(_as_scored(d))
    for c in classes:
        class_gts = [g for g in gts if g.class_label == c]
        class_dets = scored_by_class[c]
        num_positives = sum(1 for g in class_gts if not g.difficult)
        if not class_dets:
            per_class[c] = 0.0
            pr_samples[c] = []
            counts[c] = {"num_gt": num_positives, "num_detections": 0, "tp": 0, "fp": 0}
            continue
        try:
            recall, precision, tp, fp = _pr_points(class_dets, class_gts, iou_threshold)
        except NoGroundTruth as exc:
            raise NoGroundTruth(f"class {c!r}: {exc}") from None
        if interpolation == "11-point":
            per_class[c] = _ap_11_point(recall, precision)
        else:
            per_class[c] = _ap_all_points(recall, precision)
        pr_samples[c] = list(zip(recall.tolist(), precision.tolist()))
        counts[c] = {
            "num_gt": num_positives,
            "num_detections": len(class_dets),
            "tp": tp,
            "fp": fp,
        }
    return EvalReport(per_class_ap=per_class, pr_samples=pr_samples, counts=counts)


def evaluate_methods(
    methods: dict[str, list],
    gts: list[GroundTruthObject],
    iou_threshold: float = 0.5,
    interpolation: str = "all-points",
) -> dict[str, EvalReport]:
    return {
        name: evaluate_method(methods[name], gts, iou_threshold, interpolation)
        for name in sorted(methods)
    }


def write_reports_json(reports: dict[str, EvalReport], path: str | Path, config: dict | None = None) -> None:
    payload = {
        "format_version": 1,
        "config": config or {},
        "methods": {name: reports[name].to_dict() for name in sorted(reports)},
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def write_reports_csv(reports: dict[str, EvalReport], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "class", "ap"])
        for name in sorted(reports):
            report = reports[name]
            for cls in sorted(report.per_class_ap):
                writer.writerow([name, cls, f"{report.per_class_ap[cls]:.6f}"])
            writer.writerow([name, "mAP", f"{report.map_score:.6f}"])
