"""End-to-end wiring: validation labeling, model training, corpus fusion."""

from __future__ import annotations

import logging
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby

import numpy as np

from . import baselines, dst, fusion
from .baselines import PlattModel, ScoreLikelihood, WeightVector
from .fusion import Windows
from .geometry import Detection, GroundTruthObject, MatchLabel, match_detections
from .io import DetectionColumns, ranks
from .trust import InsufficientData, TrustModel, build_trust_model

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


def image_order(dets: list[Detection]) -> list[int]:
    """The detections' positions image by image: images in Python's string
    order, each image's detections in input order."""
    return sorted(range(len(dets)), key=lambda i: dets[i].image_id)


def label_detections(
    dets: list[Detection],
    gts: list[GroundTruthObject],
    iou_threshold: float = 0.5,
    duplicate_policy: str = "undecided",
) -> list[tuple[Detection, MatchLabel]]:
    """Match one detector's detections image by image, listed in
    ``image_order``."""
    gts_by_image: dict[str, list[GroundTruthObject]] = {}
    for g in gts:
        gts_by_image.setdefault(g.image_id, []).append(g)
    labeled: list[tuple[Detection, MatchLabel]] = []
    for image_id, positions in groupby(image_order(dets), key=lambda i: dets[i].image_id):
        labeled.extend(
            match_detections(
                [dets[i] for i in positions],
                gts_by_image.get(image_id, []),
                iou_threshold,
                duplicate_policy,
            )
        )
    return labeled


def num_positives(gts: list[GroundTruthObject]) -> int:
    return sum(1 for g in gts if not g.difficult)


def build_trust_models(
    per_detector: dict[str, list[Detection]],
    gts: list[GroundTruthObject],
    class_label: str,
    bpd_exponent: float,
    iou_threshold: float = 0.5,
    duplicate_policy: str = "undecided",
) -> dict[str, TrustModel]:
    """One trust model per detector; detectors without usable data are
    skipped with a warning and simply do not participate in fusion."""
    n_pos = num_positives(gts)
    models: dict[str, TrustModel] = {}
    for det_id in sorted(per_detector):
        labeled = label_detections(
            per_detector[det_id], gts, iou_threshold, duplicate_policy
        )
        try:
            models[det_id] = build_trust_model(
                labeled, n_pos, det_id, class_label, bpd_exponent
            )
        except InsufficientData as exc:
            log.warning("skipping detector %s: %s", det_id, exc)
    return models


@dataclass
class BaselineModels:
    platt: dict[str, PlattModel] = field(default_factory=dict)
    weights: WeightVector | None = None
    likelihoods: dict[str, ScoreLikelihood] = field(default_factory=dict)


def fit_baselines(
    per_detector: dict[str, list[Detection]],
    gts: list[GroundTruthObject],
    iou_threshold: float = 0.5,
    duplicate_policy: str = "undecided",
    overlap_threshold: float = 0.5,
) -> BaselineModels:
    """Fit Platt calibrators, the weighted-sum separator, and naive-Bayes
    likelihoods from the validation split."""
    out = BaselineModels()
    labeled_by_detector: dict[str, list[tuple[Detection, MatchLabel]]] = {}
    for det_id in sorted(per_detector):
        labeled = label_detections(
            per_detector[det_id], gts, iou_threshold, duplicate_policy
        )
        labeled_by_detector[det_id] = labeled
        scores = [(d.score, lab) for d, lab in labeled]
        try:
            out.platt[det_id] = baselines.fit_platt(scores, detector_id=det_id)
        except InsufficientData as exc:
            log.warning("skipping Platt model for %s: %s", det_id, exc)
            continue
        out.likelihoods[det_id] = baselines.fit_score_likelihood(
            scores, out.platt[det_id], detector_id=det_id
        )

    # Weighted sum trains on the slot matrix's rows, each labeled by its own
    # window, as fuse_images builds it for the baselines.
    detector_ids = sorted(out.platt)
    windows, ids, _, order = windows_of({k: per_detector[k] for k in detector_ids})
    slots, _ = fusion.slots_and_masks(windows, windows.spans(), len(ids), overlap_threshold)
    features = baselines.platt_features(ids, slots, out.platt, detector_ids)
    # Rows are labeled by position, so a Detection listed twice is two rows.
    labels: list[MatchLabel] = []
    for det_id in detector_ids:
        in_input_order = [MatchLabel.UNDECIDED] * len(per_detector[det_id])
        for i, (_, lab) in zip(image_order(per_detector[det_id]), labeled_by_detector[det_id]):
            in_input_order[i] = lab
        labels += in_input_order
    decided = np.array([lab is not MatchLabel.UNDECIDED for lab in labels], dtype=bool)[order]
    targets = np.array([lab is MatchLabel.TRUE_POSITIVE for lab in labels], dtype=bool)[order]
    try:
        out.weights = baselines.fit_weighted_sum(
            features[decided], targets[decided], tuple(detector_ids)
        )
    except InsufficientData as exc:
        log.warning("weighted-sum training skipped: %s", exc)
    return out


# Only perfbench/spans.py calls this; it goes with ROADMAP items 1-2.
def group_by_detector(dets: list[Detection]) -> dict[str, list[Detection]]:
    out: dict[str, list[Detection]] = {}
    for d in dets:
        out.setdefault(d.detector_id, []).append(d)
    return out


def windows_of(
    per_detector: dict[str, list[Detection]],
) -> tuple[Windows, list[str], list[str], np.ndarray]:
    """Every window as columns in subject order: images in Python's string
    order, each image's windows by detector id, each detector's in input
    order; with the sorted detector and image ids the columns index, and
    each row's position in the input, its lists concatenated."""
    columns = DetectionColumns.of([d for dets in per_detector.values() for d in dets])
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
    per_detector: dict[str, list[Detection]],
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
