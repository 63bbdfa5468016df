"""End-to-end wiring: validation labeling, model training, corpus fusion."""

from __future__ import annotations

import contextlib
import logging
import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import baselines, dst, fusion, geometry, io, trust
from .baselines import PlattModel, ScoreLikelihood, WeightVector
from .geometry import Detection, MatchLabel, Truth, match_detections
from .io import DetectionColumns, Ids
from .trust import InsufficientData, TrustModel

if TYPE_CHECKING:
    from concurrent.futures import Executor

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
    windows: DetectionColumns,
    truth: Truth | None,
    iou_threshold: float = 0.5,
    duplicate_policy: str = "undecided",
) -> tuple[np.ndarray, np.ndarray]:
    """Match windows in training order (``labeled_windows``) to one class's
    ground truth (None: the class has none), each run of one image's windows
    of one detector on its own: two flags per row, decided (not undecided)
    and true positive, each row's label its own.

    One array pass takes the IoU of every window with every object on its
    image (``Truth.pairs``, bit for bit ``iou``). A window with none
    above +0.0 is a false positive; one whose best is at most the threshold
    is undecided, claims nothing and is never a duplicate. Only the rest,
    the contested windows, walk the greedy claim: ``match_detections``
    visits each run's contested windows in its own order, against all of the
    image's objects, and so labels them as it would the whole run.
    """
    geometry.check_matching(iou_threshold, duplicate_policy)
    decided, tp = np.ones(len(windows.scores), dtype=bool), np.zeros(len(windows.scores), dtype=bool)
    if truth is None:
        return decided, tp
    images = windows.images.codes
    rows, _, overlaps = truth.pairs(windows.images, windows.boxes)
    decided[rows[overlaps > 0.0]] = False
    contested = np.flatnonzero(np.bincount(rows[overlaps > iou_threshold], minlength=len(images)))
    # Each row's run number: its (image, detector) code's changes so far, so runs apart stay apart.
    pairs = images * len(windows.detectors.names) + windows.detectors.codes
    runs = np.cumsum(np.diff(pairs, prepend=-1) != 0)[contested]
    boxes, scores = windows.boxes[contested].tolist(), windows.scores[contested].tolist()
    gt_boxes, difficult = truth.boxes.tolist(), truth.difficult.tolist()
    labels: list[MatchLabel] = []
    for first, stop in io._runs(runs).tolist():
        a, b = truth.spans[windows.images.names[images[contested[first]]]]
        labels += match_detections(boxes[first:stop], scores[first:stop], gt_boxes[a:b], difficult[a:b],
                                   iou_threshold, duplicate_policy)
    decided[contested] = [label is not MatchLabel.UNDECIDED for label in labels]
    tp[contested] = [label is MatchLabel.TRUE_POSITIVE for label in labels]
    return decided, tp


def labeled_windows(
    per_detector: dict[str, DetectionColumns],
    truth: Truth | None,
    iou_threshold: float = 0.5,
    duplicate_policy: str = "undecided",
) -> tuple[DetectionColumns, np.ndarray, np.ndarray]:
    """The validation windows every model trains on, with two flags per row:
    decided (not undecided) and true positive. Each window is labeled by its
    own detection (``label_detections``: one IoU pass, then the greedy claim
    over the windows above the threshold only), so a detection listed twice
    is two rows.

    Rows go by image, detector, descending score (0.0 before -0.0), then
    box, x_min first: one order whatever the order of the input, so every
    sum a trainer runs over them does too. Windows equal in all of these
    keep input order, the detectors' rows concatenated.
    """
    columns = DetectionColumns.concat(list(per_detector.values()))
    windows = columns.take(np.lexsort((*columns.boxes.T[::-1], np.signbit(columns.scores), -columns.scores,
                                       columns.detectors.codes, columns.images.codes)))
    return windows, *label_detections(windows, truth, iou_threshold, duplicate_policy)


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
    windows, decided, tp = labeled_windows(per_detector, truth, iou_threshold, duplicate_policy)
    models: dict[str, TrustModel] = {}
    for det_id in sorted(per_detector):
        rows = decided & windows.detectors.matches(det_id)
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
    windows, decided, tp = labeled_windows(per_detector, truth, iou_threshold, duplicate_policy)
    for det_id in sorted(per_detector):
        rows = decided & windows.detectors.matches(det_id)
        scores = windows.scores[rows]
        try:
            out.platt[det_id] = baselines.fit_platt(scores, tp[rows], detector_id=det_id)
        except InsufficientData as exc:
            log.warning("skipping Platt model for detector %s for class %s: %s", det_id, class_label, exc)
            continue
        out.likelihoods[det_id] = baselines.fit_score_likelihood(
            scores, tp[rows], out.platt[det_id], detector_id=det_id
        )

    # Weighted sum trains on the slot rows of the calibrated detectors'
    # windows, as fuse_images builds them for the baselines; every other
    # detector's column is absent throughout.
    calibrated = np.array([d in out.platt for d in windows.detectors.names], dtype=bool)[windows.detectors.codes]
    windows, decided, tp = windows.take(calibrated), decided[calibrated], tp[calibrated]
    slots = fusion.detection_slots(windows, geometry.overlapping_pairs(windows.boxes, windows.images.codes),
                                   overlap_threshold)
    features = baselines.platt_features(windows, slots, out.platt, sorted(out.platt))
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


def windows_of(per_detector: dict[str, DetectionColumns]) -> DetectionColumns:
    """Every window as columns in subject order: images in Python's string
    order, each image's windows by detector name, each detector's in input
    order, ids coded over the names the rows use (``DetectionColumns.concat``)."""
    columns = DetectionColumns.concat(list(per_detector.values()))
    return columns.take(np.lexsort((columns.detectors.codes, columns.images.codes)))


def _rule(
    method: str, models: dict[str, TrustModel] | BaselineModels, absent_policy: str,
    windows: DetectionColumns, slots: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """``method``'s scoring rule (``fusion.Rule``) once its first three
    arguments are bound. Rules are looked up on their modules at call time,
    so a patched module attribute takes effect."""
    if method == "dbf":
        joints = fusion.dbf_joints(windows, slots, models, absent_policy)
    elif method == "static-dst":
        joints = fusion.static_dst_joints(windows, slots, models)
    elif method == "platt":
        return baselines.platt_fuse(windows, slots, models.platt), None
    elif method == "ws":
        return baselines.weighted_sum_fuse(windows, slots, models.platt, models.weights), None
    else:
        return baselines.bayes_fuse(windows, slots, models.platt, models.likelihoods), None
    return dst.fused_scores(joints), joints


class Pool(NamedTuple):
    """A process pool and its workers: its processes and this one."""

    executor: Executor
    workers: int


@contextlib.contextmanager
def worker_pool(jobs: int) -> Iterator[Pool | None]:
    """A pool of ``jobs`` worker processes, but no more than the CPUs this
    process may run on; None, for serial work, when that leaves fewer than two."""
    workers = min(jobs, len(os.sched_getaffinity(0)))
    if workers < 2:
        yield None
        return
    from concurrent.futures import ProcessPoolExecutor  # here: it imports multiprocessing
    # This process fuses one batch (``fuse_corpus``), so one fork fewer. The
    # default start method. Under fork, the executor starts every worker at
    # the first task, before its own thread, so a pool given no task forks
    # nothing; spawn would import numpy again in each worker of each command.
    with ProcessPoolExecutor(max_workers=workers - 1) as executor:
        yield Pool(executor, workers)


def _fuse_batch(
    method: str, models: dict[str, TrustModel] | BaselineModels, absent_policy: str, class_label: str,
    overlap_threshold: float, nms_threshold: float, windows: DetectionColumns,
) -> DetectionColumns:
    """Fuse a batch of contiguous images' windows (``fusion.fuse_images`` with
    ``method``'s ``_rule``): its kept rows, of class ``class_label``, in the
    order ``fuse`` writes them. A pool task: it takes data only, and looks
    the fuse up on its module when it runs."""
    rule = partial(_rule, method, models, absent_policy)
    kept, scores, joints = fusion.fuse_images(windows, rule, overlap_threshold, nms_threshold)
    return DetectionColumns(windows.images[kept], Ids(np.zeros(len(kept), dtype=np.intp), (class_label,)),
                            windows.boxes[kept], scores, windows.detectors[kept], joints)


def _batches(windows: DetectionColumns, spans: np.ndarray, count: int) -> Iterator[DetectionColumns]:
    """At most ``count`` runs of contiguous images' windows, cut at the image
    starts nearest to equal window counts; ``spans`` holds at least one image."""
    targets = np.arange(1, count) * len(windows.scores) / count
    cuts = sorted(set(np.searchsorted(spans[:, 0], targets).tolist()) - {0, len(spans)})
    for first, stop in zip([0, *cuts], [*cuts, len(spans)]):
        yield windows.take(slice(spans[first, 0], spans[stop - 1, 1]))


def fuse_corpus(
    per_detector: dict[str, DetectionColumns],
    models: dict[str, TrustModel] | BaselineModels,
    class_label: str,
    method: str = "dbf",
    overlap_threshold: float = 0.5,
    nms_threshold: float = 0.5,
    absent_policy: str = "vacuous",
    batches: int = 1,
    *,
    pool: Pool | None = None,
) -> DetectionColumns:
    """Fuse every image independently: the kept windows as columns in the
    order the ``fuse`` command writes them, by image, descending score, then
    box, ties in NMS visiting order (joints NaN for baselines).

    ``models`` holds one trust model per detector for the belief methods
    (``dbf``, ``static-dst``) and a ``BaselineModels`` for the baselines
    (``platt``, ``ws``, ``bayes``), where only detectors with a Platt model
    take part. The windows become columns once (``windows_of``) and are cut
    into ``batches`` runs of contiguous images holding about equal window
    counts (``_batches``), each fused on its own (``_fuse_batch``). This
    process fuses the first; with a ``pool``, its processes fuse the rest
    meanwhile, each getting its batch with the models and sending its rows
    back. A class of fewer than two images is one batch.
    """
    if method not in METHODS:
        raise ValueError(f"unknown fusion method {method!r}")
    if method in BASELINE_METHODS:
        if method == "ws" and models.weights is None:
            raise InsufficientData("weighted-sum weights have not been trained")
        per_detector = {k: v for k, v in per_detector.items() if k in models.platt}
    windows = windows_of(per_detector)
    spans = windows.spans()
    fuse = partial(_fuse_batch, method, models, absent_policy, class_label, overlap_threshold, nms_threshold)
    if len(spans) < 2:
        return DetectionColumns.concat([fuse(windows)])
    if pool is not None and method == "dbf":
        # Built once here, the mass tables travel with the models.
        for model in models.values():
            model.mass_table
    parts = _batches(windows, spans, batches)
    first = next(parts)
    # The pool's map submits every later batch at once; this process fuses the first meanwhile.
    rest = pool.executor.map(fuse, parts) if pool else map(fuse, parts)
    return DetectionColumns.concat([fuse(first), *rest])
