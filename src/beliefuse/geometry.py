"""Bounding-box arithmetic, ground-truth matching, and non-maximum suppression."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import ArrayLike


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned rectangle in continuous image coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        coords = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"box coordinates must be finite: {coords}")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError(f"box must have positive area: {coords}")
        if not (self.x_max - self.x_min) * (self.y_max - self.y_min) > 0:
            # Tiny extents can multiply to 0, which iou would divide by.
            raise ValueError(f"box area underflows to zero: {coords}")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass(frozen=True)
class Detection:
    """One candidate window emitted by one detector on one image."""

    image_id: str
    detector_id: str
    box: BoundingBox
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError(f"detection score must be finite, got {self.score}")


@dataclass(frozen=True)
class GroundTruthObject:
    image_id: str
    class_label: str
    box: BoundingBox
    difficult: bool = False


class MatchLabel(Enum):
    TRUE_POSITIVE = "tp"
    FALSE_POSITIVE = "fp"
    UNDECIDED = "undecided"


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union overlap of two boxes; 0 when disjoint."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def iou_matrix(boxes: ArrayLike) -> np.ndarray:
    """Pairwise IoU of N boxes given as rows ``[x_min, y_min, x_max, y_max]``.

    Entry ``[i, j]`` equals ``iou(box_i, box_j)`` bit for bit: the same
    float64 operations in the same order, and 0 where the boxes do not
    overlap in x or in y.
    """
    x_min, y_min, x_max, y_max = np.asarray(boxes, dtype=float).reshape(-1, 4).T
    ix = np.minimum(x_max[:, None], x_max) - np.maximum(x_min[:, None], x_min)
    iy = np.minimum(y_max[:, None], y_max) - np.maximum(y_min[:, None], y_min)
    area = (x_max - x_min) * (y_max - y_min)
    inter = ix * iy
    return np.divide(
        inter,
        (area[:, None] + area) - inter,
        out=np.zeros_like(inter),
        where=(ix > 0) & (iy > 0),
    )


def iou_pairs(boxes: ArrayLike, others: ArrayLike) -> np.ndarray:
    """IoU of each box with the box in the same row of ``others``: entry i
    equals ``iou(box_i, other_i)`` bit for bit, as in ``iou_matrix``."""
    x_min, y_min, x_max, y_max = np.asarray(boxes, dtype=float).reshape(-1, 4).T
    o_x_min, o_y_min, o_x_max, o_y_max = np.asarray(others, dtype=float).reshape(-1, 4).T
    ix = np.minimum(x_max, o_x_max) - np.maximum(x_min, o_x_min)
    iy = np.minimum(y_max, o_y_max) - np.maximum(y_min, o_y_min)
    inter = ix * iy
    union = ((x_max - x_min) * (y_max - y_min) + (o_x_max - o_x_min) * (o_y_max - o_y_min)) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=(ix > 0) & (iy > 0))


def _det_sort_key(d: Detection, score: float | None = None):
    # Deterministic tie-break: equal scores ordered by identity fields.
    # ``score``, when given, stands in for the detection's own.
    return (-(d.score if score is None else score), d.detector_id, d.image_id, d.box.as_tuple())


def match_detections(
    dets: list[Detection],
    gts: list[GroundTruthObject],
    iou_threshold: float = 0.5,
    duplicate_policy: str = "undecided",
) -> list[tuple[Detection, MatchLabel]]:
    """Greedily label detections against ground truth for trust-model building.

    Detections are visited in descending score order. A detection claiming an
    unclaimed non-difficult ground-truth box with IoU above the threshold is a
    true positive; one with zero overlap against every ground-truth box is a
    false positive; everything else (partial overlap, overlap with a difficult
    object, or a duplicate on a claimed box) is undecided.

    ``duplicate_policy`` controls the duplicate case: ``"undecided"`` (default)
    or ``"false_positive"``.
    """
    if not 0 < iou_threshold < 1:
        raise ValueError(f"iou_threshold must be in (0,1), got {iou_threshold}")
    if duplicate_policy not in ("undecided", "false_positive"):
        raise ValueError(f"unknown duplicate_policy {duplicate_policy!r}")

    claimed: set[int] = set()
    labeled: dict[int, MatchLabel] = {}
    order = sorted(range(len(dets)), key=lambda i: _det_sort_key(dets[i]))
    for i in order:
        det = dets[i]
        overlaps = [
            (iou(det.box, g.box), j)
            for j, g in enumerate(gts)
            if g.image_id == det.image_id
        ]
        if not overlaps or max(o for o, _ in overlaps) == 0.0:
            labeled[i] = MatchLabel.FALSE_POSITIVE
            continue
        # Best unclaimed, non-difficult candidate above the threshold wins.
        candidates = [
            (o, j)
            for o, j in overlaps
            if o > iou_threshold and j not in claimed and not gts[j].difficult
        ]
        if candidates:
            _, j = max(candidates, key=lambda t: (t[0], -t[1]))
            claimed.add(j)
            labeled[i] = MatchLabel.TRUE_POSITIVE
            continue
        if any(o > iou_threshold and gts[j].difficult for o, j in overlaps):
            labeled[i] = MatchLabel.UNDECIDED
            continue
        duplicate = any(
            o > iou_threshold and j in claimed and not gts[j].difficult
            for o, j in overlaps
        )
        if duplicate and duplicate_policy == "false_positive":
            labeled[i] = MatchLabel.FALSE_POSITIVE
        else:
            labeled[i] = MatchLabel.UNDECIDED
    return [(dets[i], labeled[i]) for i in range(len(dets))]


def suppression_mask(overlaps: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Greedy NMS's suppression matrix: row i marks the windows whose IoU
    with window i is above the threshold."""
    if not 0 < iou_threshold < 1:
        raise ValueError(f"iou_threshold must be in (0,1), got {iou_threshold}")
    return overlaps > iou_threshold


def nms_keep(scores: list[float], dets: list[Detection], suppresses: np.ndarray) -> list[int]:
    """Greedy NMS by index: windows are visited in ``_det_sort_key`` order
    with ``scores`` in place of the detections' own, and each one kept
    suppresses the windows its row of ``suppresses`` marks (see
    ``suppression_mask``). Returns the kept indices in visiting order."""
    order = sorted(range(len(dets)), key=lambda i: _det_sort_key(dets[i], scores[i]))
    suppressed = np.zeros(len(dets), dtype=bool)
    kept: list[int] = []
    for i in order:
        if not suppressed[i]:
            kept.append(i)
            suppressed |= suppresses[i]
    return kept

