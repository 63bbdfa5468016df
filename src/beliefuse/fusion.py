"""Combined detection vectors and the fused-detection pipeline."""

from __future__ import annotations

import logging
from collections.abc import Callable

import numpy as np

from . import dst
from .dst import TotalConflict
from .geometry import Pairs, greedy_nms, nms_order, overlapping_pairs
from .io import DetectionColumns
from .trust import TrustModel

log = logging.getLogger(__name__)

# Degenerate trust tables can produce certain-and-contradictory masses;
# pipeline policy is to smooth and retry rather than fail the run.
conflict_smoothing_count = 0

_EPS = 1e-6


# A scoring rule maps a batch's detector names and slot matrix (see
# ``detection_slots``) to one fused score per row and, for the belief
# methods, the (N, 3) joint masses those scores come from.
Rule = Callable[[tuple[str, ...], np.ndarray], tuple[np.ndarray, np.ndarray | None]]


def detection_slots(windows: DetectionColumns, pairs: Pairs, overlap_threshold: float) -> np.ndarray:
    """A batch's detection vectors as an N×D slot matrix, one column per
    detector name, from the batch's ``geometry.overlapping_pairs``.

    A window's own detector's column holds its raw score; every other
    column holds the maximum score among that detector's windows in the
    same image overlapping it beyond ``overlap_threshold``, the first in row
    order among equals (a zero slot takes its first zero window's sign), or
    -inf (slot absent). One ``np.lexsort`` of the pairs' windows by slot,
    descending score and row puts each slot's value first.
    """
    if not 0 < overlap_threshold < 1:
        raise ValueError(f"overlap_threshold must be in (0,1), got {overlap_threshold}")
    detectors = windows.detectors.codes
    num_detectors = len(windows.detectors.names)
    slots = np.full((len(windows.scores), num_detectors), -np.inf)
    near = (pairs.overlaps > overlap_threshold) & (detectors[pairs.first] != detectors[pairs.second])
    rows = np.concatenate((pairs.first[near], pairs.second[near]))
    others = np.concatenate((pairs.second[near], pairs.first[near]))
    cells = rows * num_detectors + detectors[others]
    scores = windows.scores[others]
    ranked = np.lexsort((others, -scores, cells))
    cells, scores = cells[ranked], scores[ranked]
    heads = np.diff(cells, prepend=-1) != 0
    slots.reshape(-1)[cells[heads]] = scores[heads]
    slots[np.arange(len(windows.scores)), detectors] = windows.scores
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


def dbf_joints(
    detector_ids: tuple[str, ...],
    slots: np.ndarray,
    models: dict[str, TrustModel],
    absent_policy: str = "vacuous",
) -> np.ndarray:
    """Dynamic belief fusion of each row of a slot matrix: its joint masses.

    Present slots map through their detector's trust model; absent slots
    contribute the vacuous mass (combination identity) by default, or the
    full-recall assignment under ``absent_policy="recall_one"``. Detectors
    combine in id order.
    """
    if absent_policy not in ("vacuous", "recall_one"):
        raise ValueError(f"unknown absent_policy {absent_policy!r}")
    column = {det_id: j for j, det_id in enumerate(detector_ids)}
    absent = np.full(len(slots), -np.inf)
    sources = np.empty((len(slots), len(models), 3))
    use = np.empty((len(slots), len(models)), dtype=bool)
    for k, (det_id, model) in enumerate(sorted(models.items())):
        scores = slots[:, column[det_id]] if det_id in column else absent
        sources[:, k] = model.masses_at(scores)
        use[:, k] = (scores != -np.inf) | (absent_policy == "recall_one")
    return _fold(sources, use)


def static_dst_joints(
    detector_ids: tuple[str, ...], slots: np.ndarray, models: dict[str, TrustModel]
) -> np.ndarray:
    """Static assignment baseline, row by row: each present slot contributes
    its detector's fixed mass (``TrustModel.static_bpa``), score ignored.
    Detectors combine in id order."""
    column = {det_id: j for j, det_id in enumerate(detector_ids)}
    taking_part = [det_id for det_id in sorted(models) if det_id in column]
    fixed = np.array([models[det_id].static_bpa().as_tuple() for det_id in taking_part]).reshape(-1, 3)
    sources = np.broadcast_to(fixed, (len(slots), *fixed.shape))
    use = slots[:, [column[det_id] for det_id in taking_part]] != -np.inf
    return _fold(sources, use)


def fuse_images(
    windows: DetectionColumns,
    rule: Rule,
    overlap_threshold: float = 0.5,
    nms_threshold: float = 0.5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rescore a batch of images' windows, in subject order, by fusion, then
    consolidate each image with greedy NMS.

    The batch's overlapping window pairs are found once
    (``geometry.overlapping_pairs``); they give its slot matrix
    (``detection_slots``) and NMS's suppressions (``geometry.greedy_nms``).
    ``rule`` scores the whole batch in one call, the detector names naming
    the slot matrix's columns. Returns the kept rows, image by image and
    each image's in visiting order, with their fused scores and joint masses
    (NaN where the rule gives none).
    """
    pairs = overlapping_pairs(windows.boxes, windows.images.codes)
    slots = detection_slots(windows, pairs, overlap_threshold)
    scores, joints = rule(windows.detectors.names, slots)
    if joints is None:
        joints = np.full((len(scores), 3), np.nan)
    order = nms_order(scores, windows.detectors.codes, windows.boxes, windows.images.codes)
    kept = greedy_nms(order, pairs, nms_threshold)
    return kept, scores[kept], joints[kept]
