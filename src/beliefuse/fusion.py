"""Combined detection vectors and the fused-detection pipeline."""

from __future__ import annotations

import logging
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import dst
from .dst import Bpa, TotalConflict
from .geometry import iou_matrix, nms_keep, nms_order, suppression_mask
from .trust import TrustModel

log = logging.getLogger(__name__)

# Degenerate trust tables can produce certain-and-contradictory masses;
# pipeline policy is to smooth and retry rather than fail the run.
conflict_smoothing_count = 0

_EPS = 1e-6


class Windows(NamedTuple):
    """A batch of images' windows as columns, rows in subject order: image
    by image, each image's windows by detector, each detector's in input
    order."""

    boxes: np.ndarray  # (N, 4): x_min, y_min, x_max, y_max
    scores: np.ndarray  # (N,)
    detectors: np.ndarray  # (N,) an index into the batch's sorted detector ids
    images: np.ndarray  # (N,) an index into the sorted image ids

    def spans(self) -> list[tuple[int, int]]:
        """Each image's rows, as (first row, stop row), in row order."""
        n = len(self.images)
        cuts = (np.flatnonzero(self.images[1:] != self.images[:-1]) + 1).tolist()
        bounds = [0, *cuts, n] if n else []
        return list(zip(bounds[:-1], bounds[1:]))


# A scoring rule maps a batch's detector ids and slot matrix (see
# ``slot_matrix``) to one fused score per row and, for the belief methods,
# the (N, 3) joint masses those scores come from.
Rule = Callable[[list[str], np.ndarray], tuple[np.ndarray, np.ndarray | None]]


def slot_matrix(scores: np.ndarray, detectors: np.ndarray, num_detectors: int,
                overlap_threshold: float, overlaps: np.ndarray) -> np.ndarray:
    """One image's detection vectors as an N×D matrix.

    Rows are the image's windows in subject order, ``detectors`` holding
    each one's column (in ascending order) and ``overlaps`` their
    ``iou_matrix``. A window's own detector's column holds its raw score;
    every other column holds the maximum score among that detector's
    windows overlapping it beyond the threshold, or -inf (slot absent) when
    there is none. An image with no windows gives a (0, D) matrix.
    """
    slots = np.full((len(scores), num_detectors), -np.inf)
    if not len(scores):
        return slots
    # Each window's score where it overlaps the subject (row), else -inf.
    masked = np.where(overlaps > overlap_threshold, scores, -np.inf)
    present, starts = np.unique(detectors, return_index=True)
    # One column per present detector: the maximum over its span of columns.
    slots[:, present] = np.maximum.reduceat(masked, starts, axis=1)
    # np.maximum keeps the later of two equal zeros, but a slot keeps the
    # first window's score among equals: with a -0.0 score about, each zero
    # slot takes the sign of its first zero window.
    if np.any((scores == 0) & np.signbit(scores)):
        zeros = np.where(masked == 0, np.arange(len(scores)), len(scores))
        first = np.minimum.reduceat(zeros, starts, axis=1)
        rows, cols = np.nonzero(slots[:, present] == 0)
        slots[rows, present[cols]] = scores[first[rows, cols]]
    slots[np.arange(len(scores)), detectors] = scores
    return slots


def image_slots(windows: Windows, num_detectors: int, overlap_threshold: float):
    """Each image's IoU matrix and slot matrix, image by image."""
    for start, stop in windows.spans():
        overlaps = iou_matrix(windows.boxes[start:stop])
        yield overlaps, slot_matrix(
            windows.scores[start:stop], windows.detectors[start:stop], num_detectors,
            overlap_threshold, overlaps,
        )


def _fold(sources: np.ndarray, use: np.ndarray) -> np.ndarray:
    """``dst.combine_rows``; rows in total conflict are folded again, their
    taking-part sources smoothed away from certainty: each mass clipped to
    [1e-6, 1 - 1e-6], then rescaled to total 1 like a ``Bpa``."""
    global conflict_smoothing_count
    joint, conflict = dst.combine_rows(sources, use)
    rows = np.flatnonzero(conflict)
    conflict_smoothing_count += len(rows)
    for _ in rows:
        log.warning("total conflict during combination; smoothing masses")
    taking_part = use[rows] & (sources[rows, :, 2] != 1.0)
    clipped = np.clip(sources[rows], _EPS, 1.0 - _EPS)
    clipped /= ((clipped[..., 0] + clipped[..., 1]) + clipped[..., 2])[..., None]
    smoothed = dst.bpa_rows(clipped.reshape(-1, 3)).reshape(clipped.shape)
    joint[rows], still = dst.combine_rows(smoothed, taking_part)
    if still.any():
        raise TotalConflict("total conflict after smoothing")
    return joint


def dbf_joints(
    detector_ids: list[str],
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


def static_masses(models: dict[str, TrustModel]) -> dict[str, Bpa]:
    """Each detector's fixed static-assignment mass, by detector id."""
    return {det_id: model.static_bpa() for det_id, model in sorted(models.items())}


def static_dst_joints(
    detector_ids: list[str], slots: np.ndarray, masses: dict[str, Bpa]
) -> np.ndarray:
    """Static assignment baseline, row by row: each present slot contributes
    its detector's fixed mass from ``static_masses``, score ignored."""
    column = {det_id: j for j, det_id in enumerate(detector_ids)}
    taking_part = [det_id for det_id in masses if det_id in column]
    fixed = np.array([masses[det_id].as_tuple() for det_id in taking_part]).reshape(-1, 3)
    sources = np.broadcast_to(fixed, (len(slots), *fixed.shape))
    use = slots[:, [column[det_id] for det_id in taking_part]] != -np.inf
    return _fold(sources, use)


def fuse_images(
    windows: Windows,
    detector_ids: list[str],
    rule: Rule,
    overlap_threshold: float = 0.5,
    nms_threshold: float = 0.5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rescore a batch of images by fusion, then consolidate each with NMS.

    Each image's IoU matrix is computed once; it gives the image's rows of
    the batch's slot matrix and its NMS suppression mask, and only the mask
    is kept. ``rule`` scores the whole batch in one call. NMS then runs
    image by image on the fused scores. Returns the kept rows, image by
    image and each image's in visiting order, with their fused scores and
    joint masses (NaN where the rule gives none).
    """
    blocks, masks = [np.empty((0, len(detector_ids)))], []
    for overlaps, slots in image_slots(windows, len(detector_ids), overlap_threshold):
        blocks.append(slots)
        masks.append(suppression_mask(overlaps, nms_threshold))
    scores, joints = rule(detector_ids, np.concatenate(blocks))
    if joints is None:
        joints = np.full((len(scores), 3), np.nan)
    order = nms_order(scores, windows.detectors, windows.boxes, windows.images)
    images = zip(windows.spans(), masks)
    kept = [start + i for (start, stop), mask in images for i in nms_keep(order[start:stop] - start, mask)]
    kept = np.array(kept, dtype=np.intp)
    return kept, scores[kept], joints[kept]
