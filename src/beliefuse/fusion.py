"""Combined detection vectors and the fused-detection pipeline."""

from __future__ import annotations

import logging
from collections.abc import Callable

import numpy as np

from . import dst
from .dst import TotalConflict
from .geometry import _iou, nms_keep, nms_order, suppression_mask
from .io import DetectionColumns
from .trust import TrustModel

log = logging.getLogger(__name__)

# Degenerate trust tables can produce certain-and-contradictory masses;
# pipeline policy is to smooth and retry rather than fail the run.
conflict_smoothing_count = 0

_EPS = 1e-6


# A scoring rule maps a batch's detector names and slot matrix (see
# ``slots_and_masks``) to one fused score per row and, for the belief
# methods, the (N, 3) joint masses those scores come from.
Rule = Callable[[tuple[str, ...], np.ndarray], tuple[np.ndarray, np.ndarray | None]]

# The most window pairs one stacked pass holds, 128 KB per float64
# temporary: larger passes fall out of cache and cost more per pair. A pass
# always takes at least one image.
MAX_STACKED_PAIRS = 1 << 14


def slots_and_masks(
    windows: DetectionColumns,
    spans: np.ndarray,
    overlap_threshold: float,
    nms_threshold: float | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """A batch's detection vectors as an N×D slot matrix, one column per
    detector name, and each image's NMS suppression mask.

    Rows are the windows in subject order (``pipeline.windows_of``), each
    one's detector code its column, and ``spans`` each image's rows
    (``DetectionColumns.spans``). A window's own detector's column holds its
    raw score; every other column holds the maximum score among that
    detector's windows in the same image overlapping it beyond
    ``overlap_threshold``, or -inf (slot absent) when there is none.

    Images with the same window count n share one stacked pass, at most
    ``MAX_STACKED_PAIRS`` pairs at a time: one (n, k, n) IoU array, entry
    [i, j, c] the IoU of image j's windows i and c as ``iou_matrix`` gives
    it, then one ``np.maximum.reduceat`` over the masked scores, a segment
    per row, image and detector. Each mask is ``suppression_mask`` of one
    image's IoU matrix, a view into its pass's stack, in span order;
    without ``nms_threshold`` there are none.
    """
    detectors = windows.detectors.codes
    num_detectors = len(windows.detectors.names)
    slots = np.full((len(windows.scores), num_detectors), -np.inf)
    masks: list[np.ndarray] = [None] * len(spans)
    starts, counts = spans[:, 0], spans[:, 1] - spans[:, 0]
    # A segment starts at each image's first window and wherever the
    # window's detector changes.
    cuts = np.ones(len(windows.scores), dtype=bool)
    np.not_equal(detectors[1:], detectors[:-1], out=cuts[1:])
    cuts[starts] = True
    signed_zeros = np.any((windows.scores == 0) & np.signbit(windows.scores))
    # Not np.unique: it imports numpy.ma on its first call in a process.
    for n in np.flatnonzero(np.bincount(counts)).tolist():
        group = np.flatnonzero(counts == n)
        size = max(1, MAX_STACKED_PAIRS // (n * n))
        for first in range(0, len(group), size):
            images = group[first : first + size]
            rows = starts[images] + np.arange(n)[:, None]  # (n, k): image j's row i
            overlaps = _iou(windows.boxes[rows][:, :, None], windows.boxes[rows.T])
            scores = windows.scores[rows.T]
            # Each window's score where it overlaps the subject, else -inf:
            # one line per subject row, the k images side by side.
            masked = np.where(overlaps > overlap_threshold, scores, -np.inf).reshape(n, -1)
            at = np.flatnonzero(cuts[rows.T])
            best = np.maximum.reduceat(masked, at, axis=1)  # (n, segments)
            image, column = np.divmod(at, n)
            # np.maximum keeps the later of two equal zeros, but a slot keeps
            # the first window's score among equals: with a -0.0 score about,
            # each zero slot takes the sign of its first zero window.
            if signed_zeros:
                zeros = np.where(masked == 0, np.tile(np.arange(n), len(images)), n)
                first_zero = np.minimum.reduceat(zeros, at, axis=1)
                row, segment = np.nonzero(best == 0)
                best[row, segment] = scores[image[segment], first_zero[row, segment]]
            columns = detectors[rows[column, image]]
            slots.reshape(-1)[rows[:, image] * num_detectors + columns] = best
            if nms_threshold is not None:
                stack = suppression_mask(overlaps, nms_threshold)
                for j, k in enumerate(images.tolist()):
                    masks[k] = stack[:, j]
    slots[np.arange(len(windows.scores)), detectors] = windows.scores
    return slots, masks


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
    consolidate each image with NMS.

    Each image's IoU matrix is computed once, in its window-count group's
    stacked pass; it gives the image's rows of the batch's slot matrix and
    its NMS suppression mask, and only the mask is kept
    (``slots_and_masks``). ``rule`` scores the whole batch in one call, the
    detector names naming the slot matrix's columns. NMS then runs image by
    image on the fused scores. Returns the kept rows, image by image and each
    image's in visiting order, with their fused scores and joint masses (NaN
    where the rule gives none).
    """
    spans = windows.spans()
    slots, masks = slots_and_masks(windows, spans, overlap_threshold, nms_threshold)
    scores, joints = rule(windows.detectors.names, slots)
    if joints is None:
        joints = np.full((len(scores), 3), np.nan)
    order = nms_order(scores, windows.detectors.codes, windows.boxes, windows.images.codes)
    images = zip(spans.tolist(), masks)
    kept = [start + i for (start, stop), mask in images for i in nms_keep(order[start:stop] - start, mask)]
    kept = np.array(kept, dtype=np.intp)
    return kept, scores[kept], joints[kept]
