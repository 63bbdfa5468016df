"""Bounding-box arithmetic, ground-truth matching, and non-maximum suppression."""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike


class BoundingBox(namedtuple("Box", ["x_min", "y_min", "x_max", "y_max"])):
    """Axis-aligned rectangle in continuous image coordinates: a row
    ``(x_min, y_min, x_max, y_max)``, checked as it is made."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # checked, and so is _replace, which calls it

    def __new__(cls, x_min: float, y_min: float, x_max: float, y_max: float):
        coords = (x_min, y_min, x_max, y_max)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"box coordinates must be finite: {coords}")
        if x_max <= x_min or y_max <= y_min:
            raise ValueError(f"box must have positive area: {coords}")
        if not (x_max - x_min) * (y_max - y_min) > 0:
            # Tiny extents can multiply to 0, which iou would divide by.
            raise ValueError(f"box area underflows to zero: {coords}")
        return super().__new__(cls, *coords)

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return tuple(self)


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


@dataclass(frozen=True, eq=False)  # == on an array field has no single truth value
class Truth:
    """One class's ground truth as columns, as ``truths`` builds it: each
    image's objects in one contiguous span."""

    boxes: np.ndarray  # (G, 4)
    difficult: np.ndarray  # (G,)
    spans: dict[str, tuple[int, int]]  # image id -> (first row, stop row), in row order
    num_positives: int  # objects not difficult

    def __len__(self) -> int:
        return len(self.boxes)

    def pairs(self, images, boxes: np.ndarray) -> Pairs:
        """Every (row, object on its image) pair of rows with these images (an
        id column, ``io.Ids``) and boxes: the row, the object's row here and
        their IoU (``iou_pairs``), grouped by row, each row's objects in order."""
        spans = np.array([self.spans.get(name, (0, 0)) for name in images.names],
                         dtype=np.intp).reshape(-1, 2)[images.codes]
        counts = spans[:, 1] - spans[:, 0]
        rows = np.repeat(np.arange(len(counts)), counts)
        objects = np.repeat(spans[:, 0] - (np.cumsum(counts) - counts), counts) + np.arange(len(rows))
        return Pairs(rows, objects, iou_pairs(boxes[rows], self.boxes[objects]))


def truths(image_ids, class_labels, boxes: ArrayLike, difficult: ArrayLike) -> dict[str, Truth]:
    """Each class's ground truth, classes in sorted order, from one row per
    object: within a class, images in order of first appearance, each
    image's objects in row order. Ids are id columns (``io.Ids``: a code per
    row into the sorted names)."""
    images, image_names = image_ids.codes, image_ids.names
    classes, class_names = class_labels.codes, class_labels.names
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    difficult = np.asarray(difficult, dtype=bool)
    # One stable sort: by class, then by the first row of the row's (class, image) pair.
    pairs = classes * len(image_names) + images
    _, first, inverse = np.unique(pairs, return_index=True, return_inverse=True)
    taken = np.lexsort((first[inverse], classes))
    bounds = np.flatnonzero(np.diff(pairs[taken], prepend=-1, append=-1))
    runs = zip(classes[taken[bounds[:-1]]].tolist(), images[taken[bounds[:-1]]].tolist(),
               bounds[:-1].tolist(), bounds[1:].tolist())
    out = {}
    for label, group in groupby(runs, key=lambda run: run[0]):
        group = list(group)
        start, stop = group[0][2], group[-1][3]
        rows = taken[start:stop]
        spans = {image_names[image]: (a - start, b - start) for _, image, a, b in group}
        out[class_names[label]] = Truth(boxes[rows], difficult[rows], spans, len(rows) - int(difficult[rows].sum()))
    return out


class MatchLabel(Enum):
    TRUE_POSITIVE = "tp"
    FALSE_POSITIVE = "fp"
    UNDECIDED = "undecided"


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection-over-union overlap of two boxes, each ``(x_min, y_min,
    x_max, y_max)``; 0 when disjoint."""
    (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = a, b
    ix = min(ax1, bx1) - max(ax0, bx0)
    iy = min(ay1, by1) - max(ay0, by0)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / ((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter)


def iou_pairs(boxes: ArrayLike, others: ArrayLike) -> np.ndarray:
    """IoU of each box with the box in the same row of ``others``: entry i
    equals ``iou(box_i, other_i)`` bit for bit: the same float64 operations
    in the same order, and 0 where the boxes do not overlap in x or in y."""
    return _iou(np.asarray(boxes, dtype=float).reshape(-1, 4), np.asarray(others, dtype=float).reshape(-1, 4))


def _iou(b: np.ndarray, o: np.ndarray) -> np.ndarray:
    """The IoU of boxes ``[..., 4]`` broadcast together."""
    ix = _overlap(np.minimum(b[..., 2], o[..., 2]), np.maximum(b[..., 0], o[..., 0]))
    iy = _overlap(np.minimum(b[..., 3], o[..., 3]), np.maximum(b[..., 1], o[..., 1]))
    inter = ix * iy
    areas = ((b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]), (o[..., 2] - o[..., 0]) * (o[..., 3] - o[..., 1]))
    return np.divide(inter, (areas[0] + areas[1]) - inter, out=inter)


class Pairs(NamedTuple):
    """Row pairs on one image and each pair's IoU: two windows, lower row
    first (``overlapping_pairs``), or a window and an object (``Truth.pairs``)."""

    first: np.ndarray
    second: np.ndarray
    overlaps: np.ndarray


def overlapping_pairs(boxes: np.ndarray, images: np.ndarray) -> Pairs:
    """Every pair of rows on one image whose boxes overlap in x and in y,
    each once, with its IoU by ``_iou``. Any other pair's IoU is +0.0, so no
    threshold in (0, 1) passes it.

    A sweep along x: each x edge becomes an exact integer key, image ×
    distinct x count + the rank of x among the distinct x values. Sorted by
    x_min key, a row's candidates are the next rows whose x_min key is below
    its x_max key (one ``searchsorted``); those overlapping it in y too are
    its pairs. A touching edge is no overlap.
    """
    x = np.concatenate((boxes[:, 0], boxes[:, 2]))
    by_x = np.argsort(x)
    x = x[by_x]
    steps = np.zeros(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=steps[1:])
    ranks = np.empty(len(x), dtype=np.intp)
    ranks[by_x] = np.cumsum(steps)
    keys = images * (ranks.max(initial=0) + 1)
    start_keys, stop_keys = keys + ranks[: len(keys)], keys + ranks[len(keys) :]
    by_start = np.argsort(start_keys)
    ends = np.searchsorted(start_keys[by_start], stop_keys[by_start])
    # Sorted row p's candidates are sorted rows p + 1 .. ends[p] - 1. Step d
    # takes candidate p + d of every row that has one: no array outgrows the batch.
    ordered = boxes[by_start]
    y_min, y_max = ordered[:, 1], ordered[:, 3]
    rows, d = np.arange(len(ends)), 1
    found = [(rows[:0], rows[:0], np.empty(0))]
    while len(rows := rows[ends[rows] > rows + d]):
        p, q = rows, rows + d
        near = (y_min[q] < y_max[p]) & (y_min[p] < y_max[q])
        p, q = p[near], q[near]
        a, b = by_start[p], by_start[q]
        found.append((np.minimum(a, b), np.maximum(a, b), _iou(ordered[p], ordered[q])))
        d += 1
    return Pairs(*map(np.concatenate, zip(*found)))


def _overlap(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """``upper - lower``, or +0.0 where not positive: a disjoint pair's IoU is 0 / union."""
    upper -= lower
    np.maximum(upper, 0.0, out=upper)
    upper += 0.0  # -0.0 + 0.0 is +0.0
    return upper


def check_matching(iou_threshold: float, duplicate_policy: str) -> None:
    """Raise ValueError unless ``match_detections`` takes these settings."""
    if not 0 < iou_threshold < 1:
        raise ValueError(f"iou_threshold must be in (0,1), got {iou_threshold}")
    if duplicate_policy not in ("undecided", "false_positive"):
        raise ValueError(f"unknown duplicate_policy {duplicate_policy!r}")


def match_detections(
    boxes: Sequence[Sequence[float]],
    scores: list[float],
    gt_boxes: Sequence[Sequence[float]],
    difficult: list[bool],
    iou_threshold: float = 0.5,
    duplicate_policy: str = "undecided",
) -> list[MatchLabel]:
    """Greedily label one detector's detections on one image, as boxes
    ``(x_min, y_min, x_max, y_max)`` and scores, against its ground-truth
    boxes: one label per detection, in input order.

    Detections are visited in descending score order. A detection claiming an
    unclaimed non-difficult ground-truth box with IoU above the threshold is a
    true positive; one with zero overlap against every ground-truth box is a
    false positive; everything else (partial overlap, overlap with a difficult
    object, or a duplicate on a claimed box) is undecided.

    ``duplicate_policy`` controls the duplicate case: ``"undecided"`` (default)
    or ``"false_positive"``.
    """
    check_matching(iou_threshold, duplicate_policy)
    claimed: set[int] = set()
    labeled: dict[int, MatchLabel] = {}
    # Equal scores are ordered by box; 0.0 comes before -0.0.
    order = sorted(range(len(boxes)), key=lambda i: (
        -scores[i], math.copysign(1.0, -scores[i]), tuple(boxes[i])))
    for i in order:
        overlaps = [(iou(boxes[i], g), j) for j, g in enumerate(gt_boxes)]
        if not overlaps or max(o for o, _ in overlaps) == 0.0:
            labeled[i] = MatchLabel.FALSE_POSITIVE
            continue
        # Best unclaimed, non-difficult candidate above the threshold wins.
        candidates = [
            (o, j)
            for o, j in overlaps
            if o > iou_threshold and j not in claimed and not difficult[j]
        ]
        if candidates:
            _, j = max(candidates, key=lambda t: (t[0], -t[1]))
            claimed.add(j)
            labeled[i] = MatchLabel.TRUE_POSITIVE
            continue
        if any(o > iou_threshold and difficult[j] for o, j in overlaps):
            labeled[i] = MatchLabel.UNDECIDED
            continue
        duplicate = any(
            o > iou_threshold and j in claimed and not difficult[j]
            for o, j in overlaps
        )
        if duplicate and duplicate_policy == "false_positive":
            labeled[i] = MatchLabel.FALSE_POSITIVE
        else:
            labeled[i] = MatchLabel.UNDECIDED
    return [labeled[i] for i in range(len(boxes))]


def box_ranks(boxes: np.ndarray) -> np.ndarray:
    """Each box's rank among the distinct boxes, x_min first: equal boxes share
    one, so sorting on it orders boxes as sorting on their coordinates does."""
    order = np.lexsort(boxes.T[::-1])
    ranks = np.empty(len(boxes), dtype=np.intp)
    ordered = boxes[order]
    ranks[order] = np.cumsum(np.concatenate(([False], (ordered[1:] != ordered[:-1]).any(axis=1))))
    return ranks


def nms_order(scores: np.ndarray, detectors: np.ndarray, ranks: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Greedy NMS's visiting order of a batch's windows: by image, then by
    descending score, detector (an index into sorted ids) and box
    (``box_ranks``); windows equal in all of these keep their row order."""
    return np.lexsort((ranks, detectors, -scores, images))


def greedy_nms(order: np.ndarray, pairs: Pairs, iou_threshold: float) -> np.ndarray:
    """Greedy NMS of a batch's windows, visited in ``order`` (``nms_order``):
    each window kept suppresses the windows whose IoU with it, read from the
    batch's ``overlapping_pairs``, is above the threshold. Returns the kept
    rows in visiting order. A pair's later-visited window is suppressed
    where the earlier one stands, and the earlier one's fate is settled by
    the pairs visited before: so one walk over the pairs does it.
    """
    if not 0 < iou_threshold < 1:
        raise ValueError(f"iou_threshold must be in (0,1), got {iou_threshold}")
    near = pairs.overlaps > iou_threshold
    visit = np.empty(len(order), dtype=np.intp)
    visit[order] = np.arange(len(order))
    a, b = visit[pairs.first[near]], visit[pairs.second[near]]
    earlier, later = np.minimum(a, b), np.maximum(a, b)
    walk = np.argsort(earlier)
    suppressed = set()
    for i, j in zip(earlier[walk].tolist(), later[walk].tolist()):
        if i not in suppressed:
            suppressed.add(j)
    standing = np.ones(len(order), dtype=bool)
    standing[list(suppressed)] = False
    return order[standing]
