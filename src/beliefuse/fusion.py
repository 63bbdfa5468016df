"""Combined detection vectors and the fused-detection pipeline."""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import dst
from .dst import Bpa, FusedVerdict, TotalConflict, combine_all
from .geometry import BoundingBox, Detection, iou_matrix, nms
from .trust import TrustModel

log = logging.getLogger(__name__)

# Degenerate trust tables can produce certain-and-contradictory masses;
# pipeline policy is to smooth and retry rather than fail the run.
conflict_smoothing_count = 0

_EPS = 1e-6


@dataclass(frozen=True)
class DetectionVector:
    """Per-subject-window vector of matched scores, one slot per detector.

    Only present slots appear in the mapping; the subject's own slot is
    always present and equal to its raw score.
    """

    subject: Detection
    slots: dict[str, float]

    def __post_init__(self):
        own = self.slots.get(self.subject.detector_id)
        if own != self.subject.score:
            raise ValueError("subject's own slot must hold its raw score")


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


def image_overlaps(per_detector: dict[str, list[Detection]]) -> np.ndarray:
    """The ``iou_matrix`` of one image's windows in subject order: detectors
    sorted by id, each detector's windows in input order."""
    return iou_matrix(
        [d.box.as_tuple() for det_id in sorted(per_detector) for d in per_detector[det_id]]
    )


def build_detection_vectors(
    per_detector: dict[str, list[Detection]],
    overlap_threshold: float = 0.5,
    overlaps: np.ndarray | None = None,
) -> list[DetectionVector]:
    """One vector per input detection; every detection is a subject once.

    For each other detector the slot holds the maximum score among its
    windows overlapping the subject beyond the threshold; the slot is
    absent when no such window exists. Vectors come in subject order (see
    ``image_overlaps``); ``overlaps`` is that function's matrix when the
    caller already has it.
    """
    detector_ids = sorted(per_detector)
    subjects = [d for det_id in detector_ids for d in per_detector[det_id]]
    if not subjects:
        return []
    if overlaps is None:
        overlaps = image_overlaps(per_detector)
    # Each window's score where it overlaps the subject (row), else -inf.
    masked = np.where(
        overlaps > overlap_threshold, np.array([d.score for d in subjects]), -np.inf
    )
    rows = np.arange(len(subjects))
    # Per detector: its columns' span and, per subject, the best overlapping
    # score (-inf: slot absent). argmax takes the first maximum, as a scan
    # that replaces its best only on a strictly greater score would.
    columns = []
    start = 0
    for det_id in detector_ids:
        stop = start + len(per_detector[det_id])
        if stop > start:
            block = masked[:, start:stop]
            columns.append((det_id, start, stop, block[rows, block.argmax(axis=1)].tolist()))
        start = stop
    vectors: list[DetectionVector] = []
    for det_id, start, stop, _ in columns:
        for i in range(start, stop):
            subject = subjects[i]
            slots: dict[str, float] = {det_id: subject.score}
            for other_id, _, _, best in columns:
                if other_id != det_id and best[i] != -math.inf:
                    slots[other_id] = best[i]
            vectors.append(DetectionVector(subject=subject, slots=slots))
    return vectors


def _smooth(b: Bpa) -> Bpa:
    masses = [min(max(m, _EPS), 1.0 - _EPS) for m in b.as_tuple()]
    total = sum(masses)
    return Bpa(*(m / total for m in masses))


def _combine_with_recovery(bpas: list[Bpa]) -> Bpa:
    global conflict_smoothing_count
    try:
        return combine_all(bpas)
    except TotalConflict:
        conflict_smoothing_count += 1
        log.warning("total conflict during combination; smoothing masses")
        return combine_all([_smooth(b) for b in bpas])


def _fuse_bpas(bpas: list[Bpa]) -> FusedVerdict:
    informative = [b for b in bpas if not b.is_vacuous()]
    if not informative:
        return FusedVerdict(dst.vacuous())
    return FusedVerdict(_combine_with_recovery(informative))


def dbf_fuse(
    vector: DetectionVector,
    models: dict[str, TrustModel],
    absent_policy: str = "vacuous",
) -> FusedVerdict:
    """Dynamic belief fusion of one detection vector.

    Present slots map through their detector's trust model; absent slots
    contribute the vacuous mass (combination identity) by default, or the
    full-recall assignment under ``absent_policy="recall_one"``.
    """
    if absent_policy not in ("vacuous", "recall_one"):
        raise ValueError(f"unknown absent_policy {absent_policy!r}")
    bpas: list[Bpa] = []
    for det_id, model in sorted(models.items()):
        if det_id in vector.slots:
            bpas.append(model.score_to_bpa(vector.slots[det_id]))
        elif absent_policy == "recall_one":
            bpas.append(model.assignment_at(1.0, model.table[-1].precision))
    return _fuse_bpas(bpas)


def static_masses(
    models: dict[str, TrustModel], recall_anchor: float = 0.2
) -> dict[str, Bpa]:
    """Each detector's fixed static-assignment mass, by detector id."""
    return {
        det_id: model.static_bpa(recall_anchor)
        for det_id, model in sorted(models.items())
    }


def static_dst_fuse(vector: DetectionVector, masses: dict[str, Bpa]) -> FusedVerdict:
    """Static assignment baseline: each present slot contributes its
    detector's fixed mass from ``static_masses``, score ignored."""
    return _fuse_bpas([m for det_id, m in masses.items() if det_id in vector.slots])


def fuse_image(
    per_detector: dict[str, list[Detection]],
    score: Callable[[DetectionVector], tuple[float, FusedVerdict | None]],
    class_label: str,
    overlap_threshold: float = 0.5,
    nms_threshold: float = 0.5,
) -> list[FusedDetection]:
    """Rescore one image's windows by fusion, then consolidate with NMS.

    ``score`` maps a detection vector to its fused score and, for the
    belief methods, the verdict that score comes from. One overlap matrix
    serves both the detection vectors and NMS.
    """
    overlaps = image_overlaps(per_detector)
    vectors = build_detection_vectors(per_detector, overlap_threshold, overlaps)
    scored = [score(vec) for vec in vectors]
    rescored = [
        Detection(
            image_id=vec.subject.image_id,
            detector_id=vec.subject.detector_id,
            box=vec.subject.box,
            score=fused_score,
        )
        for vec, (fused_score, _) in zip(vectors, scored)
    ]
    # nms returns the objects it was given, so identity recovers each
    # survivor's index and with it its own verdict, even when one detector
    # emitted the same box twice.
    index = {id(d): i for i, d in enumerate(rescored)}
    return [
        FusedDetection(
            box=d.box,
            image_id=d.image_id,
            class_label=class_label,
            score=d.score,
            verdict=scored[index[id(d)]][1],
            source_detector_id=d.detector_id,
        )
        for d in nms(rescored, nms_threshold, overlaps)
    ]
