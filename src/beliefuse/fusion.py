"""Combined detection vectors and the fused-detection pipeline."""

from __future__ import annotations

import logging
from collections.abc import Callable

import numpy as np

from . import dst
from .dst import TotalConflict
from .geometry import Pairs, box_ranks, greedy_nms, nms_order, overlapping_pairs
from .io import DetectionColumns
from .trust import TrustModel

log = logging.getLogger(__name__)

# Degenerate trust tables can produce certain-and-contradictory masses;
# pipeline policy is to smooth and retry rather than fail the run.
conflict_smoothing_count = 0

_EPS = 1e-6


# A scoring rule maps a batch's windows and rows of slots (``detection_slots``)
# to one fused score per row and, for the belief methods, the (M, 3) joint
# masses those scores come from; it scores each window once, then gathers.
Rule = Callable[[DetectionColumns, np.ndarray], tuple[np.ndarray, np.ndarray | None]]


def detection_slots(windows: DetectionColumns, pairs: Pairs, overlap_threshold: float) -> np.ndarray:
    """A batch's detection vectors, from its ``geometry.overlapping_pairs``,
    as an ``intp`` N×D matrix of window rows, one column per detector name.

    A window's own detector's column holds its own row; every other column
    the row of that detector's highest-scoring window in the same image
    overlapping it beyond ``overlap_threshold``, the first in row order
    among equals, or -1 (absent). One ``np.lexsort`` of the pairs' windows
    by slot, descending score and row puts each slot's window first.
    """
    if not 0 < overlap_threshold < 1:
        raise ValueError(f"overlap_threshold must be in (0,1), got {overlap_threshold}")
    detectors = windows.detectors.codes
    num_detectors = len(windows.detectors.names)
    slots = np.full((len(windows.scores), num_detectors), -1, dtype=np.intp)
    near = (pairs.overlaps > overlap_threshold) & (detectors[pairs.first] != detectors[pairs.second])
    rows = np.concatenate((pairs.first[near], pairs.second[near]))
    others = np.concatenate((pairs.second[near], pairs.first[near]))
    cells = rows * num_detectors + detectors[others]
    ranked = np.lexsort((others, -windows.scores[others], cells))
    cells, others = cells[ranked], others[ranked]
    heads = np.diff(cells, prepend=-1) != 0
    slots.reshape(-1)[cells[heads]] = others[heads]
    own = np.arange(len(windows.scores))
    slots[own, detectors] = own
    return slots


def _fold(sources: np.ndarray, use: np.ndarray) -> np.ndarray:
    """``dst.combine_rows``; rows in total conflict are folded again, their
    taking-part sources smoothed away from certainty: each mass clipped to
    [1e-6, 1 - 1e-6], then rescaled to total 1 like a ``Bpa``."""
    global conflict_smoothing_count
    joint, conflict = dst.combine_rows(sources, use)
    rows = np.flatnonzero(conflict)
    conflict_smoothing_count += len(rows)
    if len(rows):
        log.warning("total conflict during combination in %d rows; smoothing masses", len(rows))
    taking_part = use[rows] & (sources[rows, :, 2] != 1.0)
    clipped = np.clip(sources[rows], _EPS, 1.0 - _EPS)
    clipped /= ((clipped[..., 0] + clipped[..., 1]) + clipped[..., 2])[..., None]
    smoothed = dst.bpa_rows(clipped.reshape(-1, 3)).reshape(clipped.shape)
    joint[rows], still = dst.combine_rows(smoothed, taking_part)
    if still.any():
        raise TotalConflict("total conflict after smoothing")
    return joint


def dbf_joints(windows: DetectionColumns, slots: np.ndarray, models: dict[str, TrustModel],
               absent_policy: str = "vacuous") -> np.ndarray:
    """Dynamic belief fusion of each row of slots (``detection_slots``):
    its joint masses. Each detector's model maps its own windows' scores to
    masses once, which present slots gather; absent slots contribute the
    vacuous mass (combination identity) by default, or the full-recall
    assignment under ``absent_policy="recall_one"``. Detectors combine in
    id order.
    """
    if absent_policy not in ("vacuous", "recall_one"):
        raise ValueError(f"unknown absent_policy {absent_policy!r}")
    column = {det_id: j for j, det_id in enumerate(windows.detectors.names)}
    sources = np.empty((len(slots), len(models), 3))
    use = np.empty((len(slots), len(models)), dtype=bool)
    scores = np.append(windows.scores, -np.inf)  # row -1, an absent slot, reads below every threshold
    masses = np.empty((len(scores), 3))
    for k, (det_id, model) in enumerate(sorted(models.items())):
        rows = slots[:, column[det_id]] if det_id in column else np.full(len(slots), -1)
        own = np.append(windows.detectors.codes == column.get(det_id, -1), True)  # and row -1
        masses[own] = model.masses_at(scores[own])
        sources[:, k] = masses[rows]
        use[:, k] = (rows != -1) | (absent_policy == "recall_one")
    return _fold(sources, use)


def static_dst_joints(windows: DetectionColumns, slots: np.ndarray, models: dict[str, TrustModel]) -> np.ndarray:
    """Static assignment baseline, row by row: each present slot contributes
    its detector's fixed mass (``TrustModel.static_bpa``), score ignored.
    Detectors combine in id order."""
    column = {det_id: j for j, det_id in enumerate(windows.detectors.names)}
    taking_part = [det_id for det_id in sorted(models) if det_id in column]
    fixed = np.array([models[det_id].static_bpa().as_tuple() for det_id in taking_part]).reshape(-1, 3)
    sources = np.broadcast_to(fixed, (len(slots), *fixed.shape))
    use = slots[:, [column[det_id] for det_id in taking_part]] != -1
    return _fold(sources, use)


def fuse_images(
    windows: DetectionColumns,
    rule: Rule,
    overlap_threshold: float = 0.5,
    nms_threshold: float = 0.5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rescore a batch of images' windows, in subject order, by fusion, then
    consolidate each image with greedy NMS.

    The batch's overlapping window pairs (``geometry.overlapping_pairs``)
    give its slot rows (``detection_slots``) and NMS's suppressions; ``rule``
    scores the whole batch in one call. Returns the kept rows in the order
    ``fuse`` writes them (by image, descending score, then box rank, ties in
    NMS visiting order), their fused scores and joint masses (NaN where the
    rule gives none).
    """
    pairs = overlapping_pairs(windows.boxes, windows.images.codes)
    slots = detection_slots(windows, pairs, overlap_threshold)
    ranks = box_ranks(windows.boxes)
    scores, joints = rule(windows, slots)
    if joints is None:
        joints = np.full((len(scores), 3), np.nan)
    images = windows.images.codes
    kept = greedy_nms(nms_order(scores, windows.detectors.codes, ranks, images), pairs, nms_threshold)
    kept = kept[np.lexsort((ranks[kept], -scores[kept], images[kept]))]  # stable: ties keep visiting order
    return kept, scores[kept], joints[kept]
