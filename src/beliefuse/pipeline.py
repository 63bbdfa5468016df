"""End-to-end wiring: validation labeling, model training, corpus fusion."""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import baselines, fusion
from .baselines import PlattModel, ScoreLikelihood, WeightVector
from .dst import Bpa
from .fusion import FusedDetection
from .geometry import Detection, GroundTruthObject, MatchLabel, match_detections
from .trust import InsufficientData, TrustModel, build_trust_model

log = logging.getLogger(__name__)

BELIEF_METHODS = ("dbf", "static-dst")
BASELINE_METHODS = ("platt", "ws", "bayes")
METHODS = BELIEF_METHODS + BASELINE_METHODS


def group_by_image(dets: list[Detection]) -> dict[str, list[Detection]]:
    out: dict[str, list[Detection]] = {}
    for d in dets:
        out.setdefault(d.image_id, []).append(d)
    return out


def label_detections(
    dets: list[Detection],
    gts: list[GroundTruthObject],
    iou_threshold: float = 0.5,
    duplicate_policy: str = "undecided",
) -> list[tuple[Detection, MatchLabel]]:
    """Match one detector's detections image by image."""
    gts_by_image: dict[str, list[GroundTruthObject]] = {}
    for g in gts:
        gts_by_image.setdefault(g.image_id, []).append(g)
    labeled: list[tuple[Detection, MatchLabel]] = []
    for image_id, image_dets in sorted(group_by_image(dets).items()):
        labeled.extend(
            match_detections(
                image_dets,
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
    label = {id(d): lab for labeled in labeled_by_detector.values() for d, lab in labeled}
    detector_ids = sorted(out.platt)
    blocks, labels = [np.empty((0, len(detector_ids)))], []
    for per_det in images_by_detector({k: per_detector[k] for k in detector_ids}):
        slots = fusion.slot_matrix(
            per_det, detector_ids, overlap_threshold, fusion.image_overlaps(per_det)
        )
        blocks.append(baselines.platt_features(detector_ids, slots, out.platt, detector_ids))
        labels += [label[id(d)] for det_id in sorted(per_det) for d in per_det[det_id]]
    decided = np.array([lab is not MatchLabel.UNDECIDED for lab in labels], dtype=bool)
    targets = np.array([lab is MatchLabel.TRUE_POSITIVE for lab in labels], dtype=bool)
    try:
        out.weights = baselines.fit_weighted_sum(
            np.concatenate(blocks)[decided], targets[decided], tuple(detector_ids)
        )
    except InsufficientData as exc:
        log.warning("weighted-sum training skipped: %s", exc)
    return out


def group_by_detector(dets: list[Detection]) -> dict[str, list[Detection]]:
    out: dict[str, list[Detection]] = {}
    for d in dets:
        out.setdefault(d.detector_id, []).append(d)
    return out


def images_by_detector(
    per_detector: dict[str, list[Detection]],
) -> list[dict[str, list[Detection]]]:
    """Each image's windows by detector, images in id order; every
    detector's windows keep their input order."""
    all_dets = [d for dets in per_detector.values() for d in dets]
    return [
        group_by_detector(image_dets)
        for _, image_dets in sorted(group_by_image(all_dets).items())
    ]


@dataclass(frozen=True)
class _BatchFuser:
    """One method's scoring rule, and everything else ``fusion.fuse_images``
    needs besides the images themselves."""

    models: dict[str, TrustModel] | BaselineModels
    class_label: str
    method: str
    overlap_threshold: float
    nms_threshold: float
    absent_policy: str
    masses: dict[str, Bpa] | None

    def rule(
        self, detector_ids: list[str], slots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        # Rules are looked up on their modules at call time, so a patched
        # module attribute takes effect.
        models = self.models
        if self.method in BELIEF_METHODS:
            if self.method == "dbf":
                joints = fusion.dbf_joints(detector_ids, slots, models, self.absent_policy)
            else:
                joints = fusion.static_dst_joints(detector_ids, slots, self.masses)
            # Each row's score as FusedVerdict.score computes it.
            return joints[:, 0] - joints[:, 1], joints
        if self.method == "platt":
            scores = baselines.platt_fuse(detector_ids, slots, models.platt)
        elif self.method == "ws":
            scores = baselines.weighted_sum_fuse(detector_ids, slots, models.platt, models.weights)
        else:
            scores = baselines.bayes_fuse(detector_ids, slots, models.platt, models.likelihoods)
        return scores, None

    def __call__(self, images: list[dict[str, list[Detection]]]) -> list[FusedDetection]:
        return fusion.fuse_images(
            images, self.rule, self.class_label, self.overlap_threshold, self.nms_threshold
        )


_worker_fuser: _BatchFuser | None = None  # set once in each pool worker


def _install_fuser(fuser: _BatchFuser) -> None:
    global _worker_fuser
    _worker_fuser = fuser


def _fuse_in_worker(images: list[dict[str, list[Detection]]]) -> list[FusedDetection]:
    return _worker_fuser(images)


def fuse_corpus(
    per_detector: dict[str, list[Detection]],
    models: dict[str, TrustModel] | BaselineModels,
    class_label: str,
    method: str = "dbf",
    overlap_threshold: float = 0.5,
    nms_threshold: float = 0.5,
    absent_policy: str = "vacuous",
    jobs: int = 1,
) -> list[FusedDetection]:
    """Fuse every image independently; results merged in image order.

    ``models`` holds one trust model per detector for the belief methods
    (``dbf``, ``static-dst``) and a ``BaselineModels`` for the baselines
    (``platt``, ``ws``, ``bayes``), where only detectors with a Platt model
    take part. Serially all images are fused as one batch (see
    ``fusion.fuse_images``). With ``jobs > 1`` each pool worker receives the
    models once, through the pool initializer, and then batches of
    contiguous images, one per task.
    """
    if method not in METHODS:
        raise ValueError(f"unknown fusion method {method!r}")
    if method in BASELINE_METHODS:
        if method == "ws" and models.weights is None:
            raise InsufficientData("weighted-sum weights have not been trained")
        per_detector = {k: v for k, v in per_detector.items() if k in models.platt}
    fuser = _BatchFuser(
        models,
        class_label,
        method,
        overlap_threshold,
        nms_threshold,
        absent_policy,
        fusion.static_masses(models) if method == "static-dst" else None,
    )
    images = images_by_detector(per_detector)
    if jobs <= 1:
        return fuser(images)
    # A few batches per worker, so an image-heavy batch cannot idle the rest.
    size = max(1, len(images) // (4 * jobs))
    batches = [images[i : i + size] for i in range(0, len(images), size)]
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_install_fuser, initargs=(fuser,)
    ) as pool:
        results = list(pool.map(_fuse_in_worker, batches))
    return [fd for batch_result in results for fd in batch_result]
