"""Combined detection vectors and the fused-detection pipeline."""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import dst
from .dst import Bpa, FusedVerdict, combine_all
from .geometry import BoundingBox, Detection, iou_matrix, nms_keep, suppression_mask
from .trust import TrustModel

log = logging.getLogger(__name__)

# Degenerate trust tables can produce certain-and-contradictory masses;
# pipeline policy is to smooth and retry rather than fail the run.
conflict_smoothing_count = 0

_EPS = 1e-6


@dataclass(frozen=True)
class FusedDetection:
    """A consolidated window with its fused score.

    ``verdict`` carries the joint mass function for belief-based methods;
    baseline methods set the score directly and leave it None.
    """

    box: BoundingBox
    image_id: str
    class_label: str
    score: float
    verdict: FusedVerdict | None = None
    source_detector_id: str = ""


# A scoring rule maps a batch's detector ids and slot matrix (see
# ``slot_matrix``) to one fused score per row and, for the belief methods,
# the (N, 3) joint masses those scores come from.
Rule = Callable[[list[str], np.ndarray], tuple[np.ndarray, np.ndarray | None]]


def _subjects(per_detector: dict[str, list[Detection]]) -> list[Detection]:
    return [d for det_id in sorted(per_detector) for d in per_detector[det_id]]


def image_overlaps(per_detector: dict[str, list[Detection]]) -> np.ndarray:
    """The ``iou_matrix`` of one image's windows in subject order: detectors
    sorted by id, each detector's windows in input order."""
    return iou_matrix([d.box.as_tuple() for d in _subjects(per_detector)])


def slot_matrix(
    per_detector: dict[str, list[Detection]],
    detector_ids: list[str],
    overlap_threshold: float,
    overlaps: np.ndarray,
) -> np.ndarray:
    """One image's detection vectors as an N×D matrix.

    Rows are the image's windows in subject order (see ``image_overlaps``,
    whose matrix ``overlaps`` is), columns the ``detector_ids``. A window's
    own detector's column holds its raw score; every other column holds the
    maximum score among that detector's windows overlapping it beyond the
    threshold, or -inf (slot absent) when there is none.
    """
    scores = np.array([d.score for d in _subjects(per_detector)])
    # Each window's score where it overlaps the subject (row), else -inf.
    masked = np.where(overlaps > overlap_threshold, scores, -np.inf)
    present = [det_id for det_id in sorted(per_detector) if per_detector[det_id]]
    counts = [len(per_detector[det_id]) for det_id in present]
    # One column per present detector: the maximum over its span of columns.
    best = np.maximum.reduceat(masked, [0, *accumulate(counts[:-1])], axis=1)
    best[np.arange(len(scores)), [k for k, n in enumerate(counts) for _ in range(n)]] = scores
    if present == detector_ids:
        return best
    column = {det_id: j for j, det_id in enumerate(detector_ids)}
    slots = np.full((len(scores), len(detector_ids)), -np.inf)
    slots[:, [column[det_id] for det_id in present]] = best
    return slots


def _smooth(masses: list[float]) -> Bpa:
    masses = [min(max(m, _EPS), 1.0 - _EPS) for m in masses]
    total = (masses[0] + masses[1]) + masses[2]
    return Bpa(*(m / total for m in masses))


def _fold(sources: np.ndarray, use: np.ndarray) -> np.ndarray:
    """``dst.combine_rows``; a row in total conflict is combined again with
    every taking-part source smoothed away from certainty."""
    global conflict_smoothing_count
    joint, conflict = dst.combine_rows(sources, use)
    for i in np.flatnonzero(conflict):
        conflict_smoothing_count += 1
        log.warning("total conflict during combination; smoothing masses")
        taking_part = [m for m in sources[i][use[i]].tolist() if m[2] != 1.0]
        joint[i] = combine_all([_smooth(m) for m in taking_part]).as_tuple()
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


def static_masses(
    models: dict[str, TrustModel], recall_anchor: float = 0.2
) -> dict[str, Bpa]:
    """Each detector's fixed static-assignment mass, by detector id."""
    return {
        det_id: model.static_bpa(recall_anchor)
        for det_id, model in sorted(models.items())
    }


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
    images: list[dict[str, list[Detection]]],
    rule: Rule,
    class_label: str,
    overlap_threshold: float = 0.5,
    nms_threshold: float = 0.5,
) -> list[FusedDetection]:
    """Rescore a batch of images by fusion, then consolidate each with NMS.

    Each image's IoU matrix is computed once; it gives the image's rows of
    the batch's slot matrix and its NMS suppression mask, and only the mask
    is kept. ``rule`` scores the whole batch in one call. NMS then runs
    image by image on the fused scores; results come in image order.
    """
    detector_ids = sorted({det_id for per_detector in images for det_id in per_detector})
    blocks, batch = [], []
    for per_detector in images:
        subjects = _subjects(per_detector)
        if subjects:
            overlaps = image_overlaps(per_detector)
            blocks.append(slot_matrix(per_detector, detector_ids, overlap_threshold, overlaps))
            batch.append((subjects, suppression_mask(overlaps, nms_threshold)))
    if not batch:
        return []
    scores, joints = rule(detector_ids, np.concatenate(blocks))
    scores = scores.tolist()
    joints = None if joints is None else joints.tolist()
    fused: list[FusedDetection] = []
    start = 0
    for subjects, suppresses in batch:
        for i in nms_keep(scores[start : start + len(subjects)], subjects, suppresses):
            d = subjects[i]
            fused.append(
                FusedDetection(
                    box=d.box,
                    image_id=d.image_id,
                    class_label=class_label,
                    score=scores[start + i],
                    verdict=None if joints is None else FusedVerdict(Bpa.exact(*joints[start + i])),
                    source_detector_id=d.detector_id,
                )
            )
        start += len(subjects)
    return fused
