"""End-to-end wiring: validation labeling, model training, corpus fusion."""

from __future__ import annotations

import logging
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import baselines, dst, fusion, trust
from .baselines import PlattModel, ScoreLikelihood, WeightVector
from .fusion import Windows
from .geometry import BoundingBox, Detection, MatchLabel, Truth, match_detections
from .io import DetectionColumns, ranks
from .trust import InsufficientData, TrustModel

log = logging.getLogger(__name__)

BELIEF_METHODS = ("dbf", "static-dst")
BASELINE_METHODS = ("platt", "ws", "bayes")
METHODS = BELIEF_METHODS + BASELINE_METHODS


# Only perfbench/spans.py calls this; it goes with ROADMAP items 1-2.
def group_by_image(dets: list[Detection]) -> dict[str, list[Detection]]:
    out: dict[str, list[Detection]] = {}
    for d in dets:
        out.setdefault(d.image_id, []).append(d)
    return out


def label_detections(
    per_detector: dict[str, DetectionColumns],
    truth: Truth | None,
    iou_threshold: float = 0.5,
    duplicate_policy: str = "undecided",
) -> list[MatchLabel]:
    """Match each detector's detections to one class's ground truth (None:
    the class has none), image by image: one label per detection, the
    detectors' rows concatenated in the order given."""
    spans, gt_boxes, difficult = ({}, [], []) if truth is None else (
        truth.spans, [BoundingBox(*b) for b in truth.boxes.tolist()], truth.difficult.tolist())
    labels: list[MatchLabel] = []
    for dets in per_detector.values():
        positions: dict[str, list[int]] = {}
        for i, image_id in enumerate(dets.image_ids):
            positions.setdefault(image_id, []).append(i)
        boxes, scores = [BoundingBox(*b) for b in dets.boxes.tolist()], dets.scores.tolist()
        own = [MatchLabel.UNDECIDED] * len(dets)
        for image_id, at in positions.items():
            a, b = spans.get(image_id, (0, 0))
            matched = match_detections([boxes[i] for i in at], [scores[i] for i in at], gt_boxes[a:b],
                                       difficult[a:b], iou_threshold, duplicate_policy)
            for i, label in zip(at, matched):
                own[i] = label
        labels += own
    return labels


def labeled_windows(
    per_detector: dict[str, DetectionColumns],
    truth: Truth | None,
    iou_threshold: float = 0.5,
    duplicate_policy: str = "undecided",
) -> tuple[Windows, list[str], np.ndarray, np.ndarray]:
    """The validation windows every model trains on, with the sorted
    detector ids and two flags per row: decided (not undecided) and true
    positive. Each window is labeled by its own detection
    (``label_detections``), so a detection listed twice is two rows.

    Rows go by image, detector, descending score (0.0 before -0.0), then
    box, x_min first: one order whatever the order of the input, so every
    sum a trainer runs over them does too. Windows equal in all of these
    keep input order.
    """
    windows, detector_ids, _, order = windows_of(per_detector)
    labels = label_detections(per_detector, truth, iou_threshold, duplicate_policy)
    decided = np.array([label is not MatchLabel.UNDECIDED for label in labels], dtype=bool)[order]
    tp = np.array([label is MatchLabel.TRUE_POSITIVE for label in labels], dtype=bool)[order]
    rows = np.lexsort((*windows.boxes.T[::-1], np.signbit(windows.scores), -windows.scores,
                       windows.detectors, windows.images))
    return Windows(*(c[rows] for c in windows)), detector_ids, decided[rows], tp[rows]


def _rows_of(detector_ids: list[str], detectors: np.ndarray, det_id: str) -> np.ndarray:
    """Which rows are ``det_id``'s windows; none when it has no id (no window)."""
    return detectors == (detector_ids.index(det_id) if det_id in detector_ids else -1)


def build_trust_models(
    per_detector: dict[str, DetectionColumns],
    truth: Truth | None,
    class_label: str,
    bpd_exponent: float,
    iou_threshold: float = 0.5,
    duplicate_policy: str = "undecided",
) -> dict[str, TrustModel]:
    """One trust model per detector, from its decided labeled windows
    against the class's ground truth (None: it has none); detectors without
    usable data are skipped with a warning and simply do not participate in
    fusion."""
    n_pos = 0 if truth is None else truth.num_positives
    windows, detector_ids, decided, tp = labeled_windows(per_detector, truth, iou_threshold, duplicate_policy)
    models: dict[str, TrustModel] = {}
    for det_id in sorted(per_detector):
        rows = decided & _rows_of(detector_ids, windows.detectors, det_id)
        try:
            table = trust.build_pr_table(windows.scores[rows], tp[rows], n_pos)
        except InsufficientData as exc:
            log.warning("skipping detector %s for class %s: %s", det_id, class_label, exc)
            continue
        models[det_id] = TrustModel(det_id, class_label, table, bpd_exponent, n_pos)
    return models


@dataclass
class BaselineModels:
    platt: dict[str, PlattModel] = field(default_factory=dict)
    weights: WeightVector | None = None
    likelihoods: dict[str, ScoreLikelihood] = field(default_factory=dict)


def fit_baselines(
    per_detector: dict[str, DetectionColumns],
    truth: Truth | None,
    class_label: str,
    iou_threshold: float = 0.5,
    duplicate_policy: str = "undecided",
    overlap_threshold: float = 0.5,
) -> BaselineModels:
    """Fit Platt calibrators, the weighted-sum separator, and naive-Bayes
    likelihoods from the validation split's decided labeled windows against
    one class's ground truth (None: it has none)."""
    out = BaselineModels()
    windows, detector_ids, decided, tp = labeled_windows(per_detector, truth, iou_threshold, duplicate_policy)
    for det_id in sorted(per_detector):
        rows = decided & _rows_of(detector_ids, windows.detectors, det_id)
        scores = windows.scores[rows]
        try:
            out.platt[det_id] = baselines.fit_platt(scores, tp[rows], detector_id=det_id)
        except InsufficientData as exc:
            log.warning("skipping Platt model for detector %s for class %s: %s", det_id, class_label, exc)
            continue
        out.likelihoods[det_id] = baselines.fit_score_likelihood(
            scores, tp[rows], out.platt[det_id], detector_id=det_id
        )

    # Weighted sum trains on the slot matrix of the calibrated detectors'
    # windows, as fuse_images builds it for the baselines; every other
    # detector's column is absent throughout.
    calibrated = np.array([det_id in out.platt for det_id in detector_ids], dtype=bool)[windows.detectors]
    windows, decided, tp = Windows(*(c[calibrated] for c in windows)), decided[calibrated], tp[calibrated]
    slots, _ = fusion.slots_and_masks(windows, windows.spans(), len(detector_ids), overlap_threshold)
    features = baselines.platt_features(detector_ids, slots, out.platt, sorted(out.platt))
    try:
        out.weights = baselines.fit_weighted_sum(features[decided], tp[decided], tuple(sorted(out.platt)))
    except InsufficientData as exc:
        log.warning("skipping weighted-sum model over detectors [%s] for class %s: %s",
                    ", ".join(sorted(out.platt)), class_label, exc)
    return out


# Only perfbench/spans.py calls this; it goes with ROADMAP items 1-2.
def group_by_detector(dets: list[Detection]) -> dict[str, list[Detection]]:
    out: dict[str, list[Detection]] = {}
    for d in dets:
        out.setdefault(d.detector_id, []).append(d)
    return out


def windows_of(
    per_detector: dict[str, DetectionColumns],
) -> tuple[Windows, list[str], list[str], np.ndarray]:
    """Every window as columns in subject order: images in Python's string
    order, each image's windows by detector id, each detector's in input
    order; with the sorted detector and image ids the columns index, and
    each row's position in the input, its detectors' rows concatenated."""
    columns = DetectionColumns.concat(list(per_detector.values()))
    detector_ids, detectors = ranks(columns.sources)
    image_ids, images = ranks(columns.image_ids)
    order = np.lexsort((detectors, images))
    windows = Windows(columns.boxes[order], columns.scores[order], detectors[order], images[order])
    return windows, detector_ids, image_ids, order


def _rule(
    method: str, models: dict[str, TrustModel] | BaselineModels, absent_policy: str,
    detector_ids: list[str], slots: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """``method``'s scoring rule (``fusion.Rule``) once its first three
    arguments are bound. Rules are looked up on their modules at call time,
    so a patched module attribute takes effect."""
    if method == "dbf":
        joints = fusion.dbf_joints(detector_ids, slots, models, absent_policy)
    elif method == "static-dst":
        joints = fusion.static_dst_joints(detector_ids, slots, models)
    elif method == "platt":
        return baselines.platt_fuse(detector_ids, slots, models.platt), None
    elif method == "ws":
        return baselines.weighted_sum_fuse(detector_ids, slots, models.platt, models.weights), None
    else:
        return baselines.bayes_fuse(detector_ids, slots, models.platt, models.likelihoods), None
    return dst.fused_scores(joints), joints


_worker_fuse: Callable | None = None  # set once in each pool worker


def _install_fuse(fuse: Callable) -> None:
    global _worker_fuse
    _worker_fuse = fuse


def _fuse_in_worker(batch: tuple[Windows, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _worker_fuse(*batch)


def fuse_corpus(
    per_detector: dict[str, DetectionColumns],
    models: dict[str, TrustModel] | BaselineModels,
    class_label: str,
    method: str = "dbf",
    overlap_threshold: float = 0.5,
    nms_threshold: float = 0.5,
    absent_policy: str = "vacuous",
    jobs: int = 1,
) -> DetectionColumns:
    """Fuse every image independently: the kept windows as columns in the
    order the ``fuse`` command writes them, by image, descending score, then
    box, ties in NMS visiting order (joints NaN for baselines).

    ``models`` holds one trust model per detector for the belief methods
    (``dbf``, ``static-dst``) and a ``BaselineModels`` for the baselines
    (``platt``, ``ws``, ``bayes``), where only detectors with a Platt model
    take part. The windows become columns once (``windows_of``); serially
    all images are fused as one batch (``fusion.fuse_images``). With
    ``jobs > 1`` each pool worker gets the models once, through the pool
    initializer, then the columns and spans of contiguous images, one batch
    per task, and sends back kept rows, scores and joints.
    """
    if method not in METHODS:
        raise ValueError(f"unknown fusion method {method!r}")
    if method in BASELINE_METHODS:
        if method == "ws" and models.weights is None:
            raise InsufficientData("weighted-sum weights have not been trained")
        per_detector = {k: v for k, v in per_detector.items() if k in models.platt}
    windows, detector_ids, image_ids, _ = windows_of(per_detector)
    rule = partial(_rule, method, models, absent_policy)
    fuse = partial(fusion.fuse_images, detector_ids=detector_ids, rule=rule,
                   overlap_threshold=overlap_threshold, nms_threshold=nms_threshold)
    spans = windows.spans()
    if jobs <= 1 or len(spans) < 2:
        starts, results = [0], [fuse(windows, spans)]
    else:
        # A few batches per worker, so an image-heavy batch cannot idle the rest.
        size = max(1, len(spans) // (4 * jobs))
        firsts = range(0, len(spans), size)
        starts = spans[::size, 0].tolist()
        stops = [*starts[1:], len(windows.scores)]
        batches = [
            (Windows(*(c[a:b] for c in windows)), spans[i : i + size] - a)
            for i, a, b in zip(firsts, starts, stops)
        ]
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_install_fuse, initargs=(fuse,)
        ) as pool:
            results = list(pool.map(_fuse_in_worker, batches))
    kept = np.concatenate([start + k for start, (k, _, _) in zip(starts, results)])
    scores, joints = (np.concatenate(c) for c in list(zip(*results))[1:])
    # A stable sort: ties keep NMS visiting order.
    order = np.lexsort((*windows.boxes[kept].T[::-1], -scores, windows.images[kept]))
    kept, scores, joints = kept[order], scores[order], joints[order]
    image_ids = [image_ids[i] for i in windows.images[kept].tolist()]
    sources = [detector_ids[i] for i in windows.detectors[kept].tolist()]
    return DetectionColumns(
        image_ids, [class_label] * len(kept), windows.boxes[kept], scores, sources, joints
    )
