"""Seeded synthetic scenes and detector outputs for end-to-end testing.

No pixels are synthesized; the generator emits ground-truth boxes plus
per-detector detections whose statistics follow configurable profiles.
Complementarity between detectors is modeled by giving each profile an
"easy" subset of objects (by global object index modulo the group count)
on which its detection rate is boosted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Truth, truths
from .io import DetectionColumns, Ids, _box_column, _score_column

Box = tuple[float, float, float, float]  # x_min, y_min, x_max, y_max

CANVAS_WIDTH = 640.0
CANVAS_HEIGHT = 480.0
SCORE_CLIP = (0.0, 10.0)


class ConfigError(ValueError):
    """Impossible generator configuration, e.g. objects that cannot fit."""


@dataclass(frozen=True)
class SyntheticDetectorProfile:
    """Statistical behavior of one simulated detector.

    ``easy_group`` marks the object-index residue class (modulo the number
    of groups) on which this detector uses ``easy_detection_rate`` instead
    of its base rate. ``validation_rate_scale`` optimistically (or
    pessimistically) biases detection rates on validation images only.
    """

    detector_id: str
    tp_score_mean: float = 6.0
    tp_score_std: float = 1.5
    fp_score_mean: float = 3.0
    fp_score_std: float = 1.5
    detection_rate: float = 0.6
    fp_rate: float = 1.0  # expected false positives per image (Poisson)
    localization_jitter: float = 3.0
    easy_group: int | None = None
    easy_detection_rate: float | None = None
    validation_rate_scale: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.detection_rate <= 1.0:
            raise ConfigError(f"detection_rate must be in [0,1]: {self.detection_rate}")
        if not 0 <= self.fp_rate < np.inf:
            raise ConfigError(f"fp_rate must be nonnegative and finite: {self.fp_rate}")
        if self.localization_jitter < 0:
            raise ConfigError("localization_jitter must be nonnegative")
        if self.easy_detection_rate is not None and not 0.0 <= self.easy_detection_rate <= 1.0:
            raise ConfigError("easy_detection_rate must be in [0,1]")
        if self.tp_score_std < 0 or self.fp_score_std < 0:
            raise ConfigError("score stddevs must be nonnegative")
        if not self.validation_rate_scale >= 0:
            raise ConfigError(f"validation_rate_scale must be nonnegative: {self.validation_rate_scale}")

    def rate_for(self, object_group: int, validation: bool, num_groups: int) -> float:
        rate = self.detection_rate
        if (
            self.easy_group is not None
            and num_groups > 0
            and object_group == self.easy_group % num_groups
            and self.easy_detection_rate is not None
        ):
            rate = self.easy_detection_rate
        if validation:
            rate = min(rate * self.validation_rate_scale, 1.0)
        return rate


@dataclass
class SyntheticDataset:
    seed: int
    class_label: str
    images: list[tuple[str, list[Box]]]  # each image's objects, all of class_label
    detections: dict[str, DetectionColumns]  # raw rows, of class_label
    validation_image_ids: frozenset[str] = field(default_factory=frozenset)

    @property
    def test_image_ids(self) -> frozenset[str]:
        return frozenset(
            image_id for image_id, _ in self.images
        ) - self.validation_image_ids

    def ground_truths(self, image_ids: frozenset[str] | None = None) -> dict[str, Truth]:
        """The objects of the given images (of all when None), as ``geometry.truths``."""
        rows = [(image_id, box) for image_id, boxes in self.images
                if image_ids is None or image_id in image_ids for box in boxes]
        return truths(Ids.of([r[0] for r in rows]), Ids.of([self.class_label] * len(rows)), [r[1] for r in rows],
                      [False] * len(rows))

    def detections_for(self, detector_id: str, image_ids: frozenset[str] | None = None) -> DetectionColumns:
        """The detector's rows on the given images (on all when None)."""
        dets = self.detections[detector_id]
        if image_ids is None:
            return dets
        return dets.take(np.array([name in image_ids for name in dets.images.names], dtype=bool)[dets.images.codes])


def _clipped_normal(rng: np.random.Generator, mean: float, std: float) -> float:
    lo, hi = SCORE_CLIP
    return float(np.clip(rng.normal(mean, std), lo, hi))


def _random_box(rng: np.random.Generator) -> Box:
    w = rng.uniform(40.0, 120.0)
    h = rng.uniform(40.0, 120.0)
    x = rng.uniform(0.0, CANVAS_WIDTH - w)
    y = rng.uniform(0.0, CANVAS_HEIGHT - h)
    return (x, y, x + w, y + h)


def _boxes_overlap(a: Box, b: Box) -> bool:
    return not (a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1])


def _jittered(rng: np.random.Generator, box: Box, jitter: float) -> Box:
    if jitter == 0.0:
        return box
    dx1, dy1, dx2, dy2 = rng.normal(0.0, jitter, size=4)
    x_min, y_min = box[0] + dx1, box[1] + dy1
    return (x_min, y_min, max(box[2] + dx2, x_min + 1.0), max(box[3] + dy2, y_min + 1.0))


def generate(
    seed: int,
    num_images: int,
    profiles: list[SyntheticDetectorProfile],
    objects_per_image_range: tuple[int, int] = (1, 3),
    class_label: str = "object",
    num_easy_groups: int | None = None,
) -> SyntheticDataset:
    """Build a deterministic synthetic dataset split into halves.

    The first half of the images is the validation split, the second half
    the test split. Ground-truth boxes never overlap within an image.
    """
    if not profiles:
        raise ConfigError("at least one detector profile is required")
    if num_images < 2:
        raise ConfigError("need at least two images for a validation/test split")
    lo, hi = objects_per_image_range
    if lo < 0 or hi < lo:
        raise ConfigError(f"bad objects_per_image_range {objects_per_image_range}")
    ids = [p.detector_id for p in profiles]
    if len(set(ids)) != len(ids):
        raise ConfigError("detector ids must be unique")
    num_groups = num_easy_groups if num_easy_groups is not None else len(profiles)

    rng = np.random.default_rng(seed)
    images: list[tuple[str, list[Box]]] = []
    object_groups: dict[tuple[str, int], int] = {}
    global_index = 0
    validation_ids = set()
    for i in range(num_images):
        image_id = f"img_{i:05d}"
        if i < num_images // 2:
            validation_ids.add(image_id)
        n_obj = int(rng.integers(lo, hi + 1))
        boxes: list[Box] = []
        for _ in range(n_obj):
            placed = False
            for _ in range(200):
                cand = _random_box(rng)
                if all(not _boxes_overlap(cand, b) for b in boxes):
                    boxes.append(cand)
                    placed = True
                    break
            if not placed:
                raise ConfigError(
                    f"could not place {n_obj} non-overlapping objects on the canvas"
                )
        for k in range(len(boxes)):
            object_groups[(image_id, k)] = global_index % num_groups
            global_index += 1
        images.append((image_id, boxes))

    detections: dict[str, DetectionColumns] = {}
    for profile in profiles:
        rows: list[tuple[str, Box, float]] = []
        for image_id, boxes in images:
            validation = image_id in validation_ids
            for k, gt_box in enumerate(boxes):
                rate = profile.rate_for(object_groups[(image_id, k)], validation, num_groups)
                if rng.random() < rate:
                    box = _jittered(rng, gt_box, profile.localization_jitter)
                    rows.append((image_id, box, _clipped_normal(rng, profile.tp_score_mean, profile.tp_score_std)))
            n_fp = int(rng.poisson(profile.fp_rate))
            for _ in range(n_fp):
                box = _random_box(rng)
                rows.append((image_id, box, _clipped_normal(rng, profile.fp_score_mean, profile.fp_score_std)))
        # The reader's checks: a row no detector file can hold is a config error.
        image_ids, boxes, scores = zip(*rows) if rows else ((), (), ())
        box_column, score_column = _box_column(list(boxes)), _score_column(list(scores))
        if box_column is None or score_column is None:
            raise ConfigError(f"detector {profile.detector_id!r} drew a box or score a detector file cannot hold "
                              "(not finite, or a box of no area): check its profile")
        detections[profile.detector_id] = DetectionColumns(
            Ids.of(list(image_ids)), Ids.of([class_label] * len(rows)), box_column, score_column,
            Ids.of([profile.detector_id] * len(rows)), np.full((len(rows), 3), np.nan))

    return SyntheticDataset(
        seed=seed,
        class_label=class_label,
        images=images,
        detections=detections,
        validation_image_ids=frozenset(validation_ids),
    )

