"""PASCAL-style average precision and multi-method evaluation reports.

The matcher here follows evaluation convention: a second detection on an
already-claimed ground truth counts as a false positive, unlike the
trust-model labeler which leaves duplicates undecided. Detections are
scored as columns (``io.DetectionColumns``), with one IoU per pair of a
detection and a ground truth of its image, all pairs in one array pass.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import GroundTruthObject, iou_pairs
from .io import DetectionColumns, ranks


class NoGroundTruth(ValueError):
    """Average precision is undefined without ground-truth positives."""


@dataclass(frozen=True)
class _Truth:
    """One class's ground truth as columns: each image's objects in one
    contiguous span, in input order."""

    boxes: np.ndarray  # (G, 4)
    difficult: np.ndarray  # (G,)
    spans: dict[str, tuple[int, int]]  # image id -> (first row, stop row)
    num_positives: int

    @classmethod
    def of(cls, gts: list[GroundTruthObject]) -> _Truth:
        by_image: dict[str, list[GroundTruthObject]] = {}
        for g in gts:
            by_image.setdefault(g.image_id, []).append(g)
        ordered = [g for objects in by_image.values() for g in objects]
        spans, start = {}, 0
        for image_id, objects in by_image.items():
            spans[image_id] = (start, start + len(objects))
            start += len(objects)
        return cls(
            np.array([g.box.as_tuple() for g in ordered], dtype=float).reshape(-1, 4),
            np.array([g.difficult for g in ordered], dtype=bool),
            spans,
            sum(not g.difficult for g in gts),
        )


def _pr_points(
    image_ids: list[str],
    boxes: np.ndarray,
    scores: np.ndarray,
    truth: _Truth,
    iou_threshold: float,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Cumulative (recall, precision) arrays plus final TP/FP counts.

    Detections are ranked by descending score, ties broken by image id and
    then box. Each one's best ground truth is the first of its image with
    the highest IoU, a hit when that IoU is above the threshold. A hit on a
    difficult object is dropped from both counts, the first hit in rank
    order on any other object is a true positive, and every other detection
    is a false positive. Difficult objects are left out of the recall
    denominator.
    """
    if not 0 < iou_threshold < 1:
        raise ValueError(f"iou_threshold must be in (0,1), got {iou_threshold}")
    if truth.num_positives == 0:
        raise NoGroundTruth("no non-difficult ground-truth objects")
    images, image_ranks = ranks(image_ids)
    # Every (detection, ground truth of its image) pair, grouped by
    # detection, ground truths in input order.
    first_gt, stop_gt = np.array(
        [truth.spans.get(image, (0, 0)) for image in images], dtype=np.intp
    ).reshape(-1, 2)[image_ranks].T
    counts = stop_gt - first_gt
    starts = np.cumsum(counts) - counts
    det = np.repeat(np.arange(len(image_ranks)), counts)
    gt = np.repeat(first_gt - starts, counts) + np.arange(len(det))
    overlaps = iou_pairs(boxes[det], truth.boxes[gt])
    # Each detection's first ground truth with its highest IoU.
    best_iou = np.zeros(len(image_ranks))
    paired = counts > 0
    if len(det):
        best_iou[paired] = np.maximum.reduceat(overlaps, starts[paired])
    is_max = np.flatnonzero(overlaps == best_iou[det])
    _, first_max = np.unique(det[is_max], return_index=True)
    best = np.zeros(len(image_ranks), dtype=np.intp)
    best[det[is_max[first_max]]] = gt[is_max[first_max]]
    order = np.lexsort((boxes[:, 3], boxes[:, 2], boxes[:, 1], boxes[:, 0], image_ranks, -scores))
    hit, best = best_iou[order] > iou_threshold, best[order]
    kept = ~(hit & truth.difficult[best])
    hit, best = hit[kept], best[kept]
    hits = np.flatnonzero(hit)
    _, first_hit = np.unique(best[hits], return_index=True)
    tp_flags = np.zeros(len(best), dtype=np.int64)
    tp_flags[hits[first_hit]] = 1
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(1 - tp_flags)
    recall = tp / truth.num_positives
    precision = tp / np.maximum(tp + fp, 1)
    return recall, precision, int(tp[-1]) if len(tp) else 0, int(fp[-1]) if len(fp) else 0


def _ap_all_points(recall: np.ndarray, precision: np.ndarray) -> float:
    r = np.concatenate(([0.0], recall, [1.0]))
    # Monotone envelope from the high-recall end.
    p = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    changes = np.where(r[1:] != r[:-1])[0]
    return float(np.sum((r[changes + 1] - r[changes]) * p[changes + 1]))


def _ap_11_point(recall: np.ndarray, precision: np.ndarray) -> float:
    total = 0.0
    for t in np.linspace(0.0, 1.0, 11):
        mask = recall >= t
        total += float(precision[mask].max()) if mask.any() else 0.0
    return total / 11.0


def _columns(dets) -> DetectionColumns:
    return dets if isinstance(dets, DetectionColumns) else DetectionColumns.of(dets)


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
    cols = _columns(dets)
    truth = _Truth.of(gts)
    if not len(cols):
        # Still validates the ground truth side.
        if truth.num_positives == 0:
            raise NoGroundTruth("no non-difficult ground-truth objects")
        return 0.0
    recall, precision, _, _ = _pr_points(
        cols.image_ids, cols.boxes, cols.scores, truth, iou_threshold
    )
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
    """Per-class AP report for one method's detections: ``DetectionColumns``
    or a list of raw ``Detection``s. Raw detections carry no class and are
    scored against every ground-truth class; fused ones only against their
    own."""
    cols = _columns(dets)
    classes = sorted({g.class_label for g in gts})
    rows_of: dict[str, list[int]] = {c: [] for c in classes}
    for i, label in enumerate(cols.class_labels):
        if label is None:
            for c in classes:
                rows_of[c].append(i)
        elif label in rows_of:
            rows_of[label].append(i)
    per_class: dict[str, float] = {}
    pr_samples: dict[str, list[tuple[float, float]]] = {}
    counts: dict[str, dict[str, int]] = {}
    for c in classes:
        truth = _Truth.of([g for g in gts if g.class_label == c])
        rows = rows_of[c]
        if not rows:
            per_class[c] = 0.0
            pr_samples[c] = []
            counts[c] = {"num_gt": truth.num_positives, "num_detections": 0, "tp": 0, "fp": 0}
            continue
        try:
            recall, precision, tp, fp = _pr_points(
                [cols.image_ids[i] for i in rows], cols.boxes[rows], cols.scores[rows],
                truth, iou_threshold,
            )
        except NoGroundTruth as exc:
            raise NoGroundTruth(f"class {c!r}: {exc}") from None
        if interpolation == "11-point":
            per_class[c] = _ap_11_point(recall, precision)
        else:
            per_class[c] = _ap_all_points(recall, precision)
        pr_samples[c] = list(zip(recall.tolist(), precision.tolist()))
        counts[c] = {
            "num_gt": truth.num_positives,
            "num_detections": len(rows),
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
    Path(path).write_text(_indent2(payload) + "\n")


def _indent2(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2)``, for a value nested ``depth`` levels
    deep. Dicts with string keys are laid out here, and a list of number
    pairs (a PR curve) is encoded by the C encoder in one call and then laid
    out: ``indent`` makes ``json`` fall back to its pure-Python encoder.
    Anything else goes to ``json.dumps``."""
    pad = "\n" + "  " * depth
    inner = pad + "  "
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        items = (f"{json.dumps(k)}: {_indent2(v, depth + 1)}" for k, v in value.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if _is_pairs(value):
        # '[[r, p], [r, p]]': numbers hold neither '], [' nor ', '.
        body = json.dumps(value, check_circular=False)[2:-2]
        body = body.replace("], [", f"{inner}],{inner}[{inner}  ").replace(", ", f",{inner}  ")
        return f"[{inner}[{inner}  {body}{inner}]{pad}]"
    return json.dumps(value, indent=2).replace("\n", pad)


def _is_pairs(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) > 0
        and all(
            type(pair) in (list, tuple) and len(pair) == 2
            and type(pair[0]) in (float, int) and type(pair[1]) in (float, int)
            for pair in value
        )
    )


def write_reports_csv(reports: dict[str, EvalReport], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "class", "ap"])
        for name in sorted(reports):
            report = reports[name]
            for cls in sorted(report.per_class_ap):
                writer.writerow([name, cls, f"{report.per_class_ap[cls]:.6f}"])
            writer.writerow([name, "mAP", f"{report.map_score:.6f}"])
