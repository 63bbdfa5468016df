"""Property tests: the array-based fusion and evaluation paths against
scalar references.

The references below are the per-pair loops that built detection vectors
and ran NMS before they shared one IoU matrix per image; the per-image
slot matrix (``slot_matrix``) that fusion built before images with the same
window count shared one stacked pass; the per-window
trust lookup, mass split and Dempster fold that DBF and static-DST ran
before whole batches went through one array pass; the per-vector baseline
rules and weighted-sum training set, which took each detection vector as a
detector id -> score mapping of its present slots; the per-detection
objects (``FusedDetection``, ``FusedVerdict``) that fusion returned before
it returned columns; the per-row ``Bpa`` smoothing and ``combine_all`` of
the total-conflict retry, and the per-point mass split
(``reference_assignment``), before both read arrays; the threshold loop
that built the validation PR table before it shared its sweep with
``eval``; the per-detection AP loop that ``eval`` ran before it
scored columns; the per-line JSON-lines reader that the column parser
replaced; the per-line ``json.dumps`` writer that the template writer
replaced; each model class's own model-file encoder, which ``io``'s one
codec replaced; the scalar Platt probability and naive-Bayes lookup
(``platt_probability``, ``log_likelihood_ratio``) and the per-row
``row @ w`` loop that the baseline rules ran before they scored each window
once; the seven-key NMS ``np.lexsort`` that box ranks replaced; and the
scene generator that made one numpy call per drawn value
(``reference_generate``). The
slot rows of ``fusion.detection_slots`` are compared through their scores
(``slot_scores``) with the score matrix fusion built before. The array paths must
reproduce them exactly, including tie order, duplicate boxes,
total-conflict recovery, float rounding and which files are rejected.
"""

import contextlib
import json
import math
import random
import re
import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beliefuse import baselines, cli, datagen, evaluation, fusion, io, pipeline, trust
from beliefuse.baselines import PlattModel, ScoreLikelihood, WeightVector
from beliefuse.cli import default_profiles, main
from beliefuse.dst import (
    VACUOUS,
    Bpa,
    TotalConflict,
    combine_all,
    combine_all_enumerated,
    combine_rows,
    fused_scores,
)
from beliefuse.evaluation import (
    NoGroundTruth,
    average_precision,
    evaluate_method,
    evaluate_methods,
    write_reports_json,
)
from beliefuse.geometry import (
    BoundingBox,
    Detection,
    MatchLabel,
    _iou,
    box_ranks,
    greedy_nms,
    iou,
    iou_pairs,
    match_detections,
    nms_order,
    overlapping_pairs,
    truths,
)
from beliefuse.io import DetectionColumns, Ids
from beliefuse.pipeline import group_by_detector, group_by_image, windows_of
from beliefuse.trust import InsufficientData, TrustModel, bpd_precision, build_pr_table

# Small integer coordinates make touching, nested, identical and disjoint
# boxes common; the floats cover everything else.
coords = st.one_of(
    st.integers(0, 6).map(float),
    st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)
# Two windows whose IoU is exactly 1/2: strict ">" keeps both at 0.5.
HALF = {
    "a": [Detection("img", "a", BoundingBox(0, 0, 2, 1), 2.0)],
    "b": [Detection("img", "b", BoundingBox(0, 0, 1, 1), 1.0)],
}
# Equal zeros of both signs: a slot keeps the first window's, not np.maximum's pick.
SIGNED_ZEROS = {
    "c": [Detection("img", "c", BoundingBox(0, 0, 1, 1), 0.0)],
    "d": [Detection("img", "d", BoundingBox(0, 0, 1, 1), 0.0),
          Detection("img", "d", BoundingBox(0, 0, 1, 1), -0.0)],
}
scores = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 9.0]), st.floats(-10, 10, allow_nan=False))
thresholds = st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9])


class Obj(NamedTuple):
    """One ground-truth object: the record the scalar references read,
    independent of ``geometry.truths``."""

    image_id: str
    class_label: str
    box: BoundingBox
    difficult: bool = False


def as_columns(per_detector):
    """Each detector's list of ``Detection``s as columns, as the pipeline takes them."""
    return {det_id: DetectionColumns.of(dets) for det_id, dets in per_detector.items()}


def truths_of(objects):
    """``geometry.truths`` of a list of objects."""
    return truths(Ids.of([g.image_id for g in objects]), Ids.of([g.class_label for g in objects]),
                  [g.box.as_tuple() for g in objects], [g.difficult for g in objects])


def reference_grouping(objects):
    """The per-class grouping ``geometry.truths`` replaced: classes in sorted
    order, each class's objects by image, images in order of first
    appearance, each image's objects in list order."""
    by_class = {}
    for g in objects:
        by_class.setdefault(g.class_label, {}).setdefault(g.image_id, []).append(g)
    return {c: [g for image in by_class[c].values() for g in image] for c in sorted(by_class)}


def reference_truths(objects):
    """What the per-class grouping built from the objects, as ``truth_rows``
    gives it: each class's boxes, flags, image spans, positives and size."""
    out = {}
    for c, grouped in reference_grouping(objects).items():
        spans = {}
        for k, g in enumerate(grouped):
            spans[g.image_id] = (spans.get(g.image_id, (k,))[0], k + 1)
        out[c] = ([list(map(float, g.box.as_tuple())) for g in grouped], [g.difficult for g in grouped],
                  spans, sum(not g.difficult for g in grouped), len(grouped))
    return repr(out)


def truth_rows(gts):
    """Each class's ``Truth`` as text; repr tells every float bit apart."""
    return repr({c: (t.boxes.tolist(), t.difficult.tolist(), t.spans, t.num_positives, len(t))
                 for c, t in gts.items()})


@st.composite
def boxes(draw):
    x0, x1 = sorted(draw(st.lists(coords, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(coords, min_size=2, max_size=2, unique=True)))
    assume((x1 - x0) * (y1 - y0) > 0)  # BoundingBox rejects areas that underflow
    return BoundingBox(x0, y0, x1, y1)


@st.composite
def images(draw, image_id="img", max_detectors=4, max_windows=8):
    """One image's windows by detector; detectors may be empty and may
    repeat a box, with the same or another score."""
    detector_ids = draw(st.lists(st.sampled_from("abcdef"), max_size=max_detectors, unique=True))
    pool = draw(st.lists(boxes(), min_size=1, max_size=max_windows))
    return {
        det_id: [
            Detection(image_id, det_id, b, s)
            for b, s in draw(st.lists(st.tuples(st.sampled_from(pool), scores), max_size=max_windows))
        ]
        for det_id in detector_ids
    }


def reference_vectors(per_detector, overlap_threshold):
    """(subject, present slots) per window in subject order; the slots map
    detector id -> score, the subject's own score under its own id."""
    vectors = []
    detector_ids = sorted(per_detector)
    for det_id in detector_ids:
        for subject in per_detector[det_id]:
            slots = {det_id: subject.score}
            for other_id in detector_ids:
                if other_id == det_id:
                    continue
                best = None
                for cand in per_detector[other_id]:
                    if iou(subject.box, cand.box) > overlap_threshold:
                        if best is None or cand.score > best:
                            best = cand.score
                if best is not None:
                    slots[other_id] = best
            vectors.append((subject, slots))
    return vectors


@dataclass(frozen=True)
class FusedVerdict:
    """Joint mass function plus its scalar fused score bel(T) - bel(~T)."""

    joint: Bpa

    @property
    def score(self) -> float:
        return self.joint.m_target - self.joint.m_nontarget


@dataclass(frozen=True)
class FusedDetection:
    """A consolidated window with its fused score; ``verdict`` is None for
    the baseline methods."""

    box: BoundingBox
    image_id: str
    class_label: str
    score: float
    verdict: FusedVerdict | None = None
    source_detector_id: str = ""


def fused_columns(fused):
    """The columns of ``FusedDetection``s, NaN joints where a verdict is None."""
    return DetectionColumns(
        Ids.of([f.image_id for f in fused]), Ids.of([f.class_label for f in fused]),
        np.array([f.box.as_tuple() for f in fused], dtype=float).reshape(-1, 4),
        np.array([f.score for f in fused], dtype=float), Ids.of([f.source_detector_id for f in fused]),
        np.array([f.verdict.joint.as_tuple() if f.verdict else (math.nan,) * 3 for f in fused],
                 dtype=float).reshape(-1, 3),
    )


def det_sort_key(d: Detection):
    # Deterministic tie-break: equal scores ordered by identity fields.
    return (-d.score, d.detector_id, d.image_id, d.box.as_tuple())


def reference_nms(dets, iou_threshold):
    remaining = sorted(dets, key=det_sort_key)
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [d for d in remaining if iou(best.box, d.box) <= iou_threshold]
    return kept


def iou_matrix(boxes):
    """The full N×N IoU matrix of boxes given as rows, by ``geometry._iou``:
    every pair of a batch before ``overlapping_pairs`` kept only the pairs
    whose IoU may be above 0."""
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    return _iou(boxes[:, None], boxes)


@given(st.lists(boxes(), max_size=12))
def test_iou_matrix_equals_scalar_iou_bit_for_bit(bs):
    expected = np.array([[iou(a, b) for b in bs] for a in bs], dtype=float).reshape(len(bs), len(bs))
    got = iou_matrix([b.as_tuple() for b in bs])
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    pairs = iou_pairs([a.as_tuple() for a in bs for _ in bs], [b.as_tuple() for _ in bs for b in bs])
    assert pairs.tobytes() == expected.ravel().tobytes()


@st.composite
def placed_boxes(draw):
    """Boxes, each on one of three images: small integer edges make shared
    edges, equal x_min and duplicates common, and some rows copy an earlier
    box, on its image or another."""
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        box = draw(st.sampled_from(rows))[0] if rows and draw(st.booleans()) else draw(boxes())
        rows.append((box, draw(st.integers(0, 2))))
    return rows


# Boxes touching at an edge or a corner, sharing x_min, duplicated, the same
# box on two images, and boxes overlapping in x only or in y only.
PLACED = [(BoundingBox(0, 0, 2, 2), 0), (BoundingBox(2, 0, 4, 2), 0), (BoundingBox(2, 2, 3, 3), 0),
          (BoundingBox(0, 0, 1, 5), 0), (BoundingBox(0, 0, 2, 2), 0), (BoundingBox(0, 0, 2, 2), 1),
          (BoundingBox(1, 3, 3, 4), 0), (BoundingBox(3, 1, 5, 1.5), 0)]


@given(placed_boxes())
@example(PLACED)
@example([])
def test_overlapping_pairs_are_the_nonzero_iou_pairs(rows):
    box_rows = np.array([b.as_tuple() for b, _ in rows], dtype=float).reshape(-1, 4)
    image_codes = np.array([image for _, image in rows], dtype=np.intp)
    pairs = overlapping_pairs(box_rows, image_codes)
    listed = list(zip(pairs.first.tolist(), pairs.second.tolist()))
    expected = [
        (i, j) for i, (a, image) in enumerate(rows) for j, (b, other) in enumerate(rows)
        if i < j and image == other and a.x_min < b.x_max and b.x_min < a.x_max
        and a.y_min < b.y_max and b.y_min < a.y_max
    ]
    # Each pair once, lower row first; no other pair has an IoU above 0.
    assert sorted(listed) == expected
    overlaps = iou_matrix(box_rows)
    assert pairs.overlaps.tobytes() == overlaps[pairs.first, pairs.second].tobytes()
    same_image = image_codes[:, None] == image_codes
    unlisted = np.triu(same_image, 1)
    unlisted[pairs.first, pairs.second] = False
    assert (overlaps[unlisted] == 0).all()


def slot_matrix(scores, detectors, num_detectors, overlap_threshold, overlaps):
    """One image's slot matrix from its ``iou_matrix``, ``detectors`` holding
    each window's column (ascending); see ``fusion.detection_slots``."""
    slots = np.full((len(scores), num_detectors), -np.inf)
    if not len(scores):
        return slots
    masked = np.where(overlaps > overlap_threshold, scores, -np.inf)
    present, starts = np.unique(detectors, return_index=True)
    slots[:, present] = np.maximum.reduceat(masked, starts, axis=1)
    # With a -0.0 score about, each zero slot takes its first zero window's sign.
    if np.any((scores == 0) & np.signbit(scores)):
        zeros = np.where(masked == 0, np.arange(len(scores)), len(scores))
        first = np.minimum.reduceat(zeros, starts, axis=1)
        rows, cols = np.nonzero(slots[:, present] == 0)
        slots[rows, present[cols]] = scores[first[rows, cols]]
    slots[np.arange(len(scores)), detectors] = scores
    return slots


def as_rows(vectors, detector_ids):
    """Reference vectors as slot matrix rows: -inf where a slot is absent."""
    return [[slots.get(d, -math.inf) for d in detector_ids] for _, slots in vectors]


def slot_scores(scores, rows):
    """The slot matrix of ``detection_slots``'s window rows: each slot's
    window's score, -inf where the row is -1 (absent)."""
    return np.append(scores, -np.inf)[rows]


def slot_windows(detector_ids, slots):
    """A slot matrix, one column per id in ``detector_ids`` and -inf where a
    slot is absent, as a rule takes it: one window per present slot, of its
    column's detector, and the matrix of their rows (``detection_slots``),
    one column per distinct id, sorted, and -1 where a slot is absent."""
    slots = np.asarray(slots, dtype=float).reshape(-1, len(detector_ids))
    names = tuple(sorted(set(detector_ids)))
    r, c = np.nonzero(slots != -np.inf)
    codes = np.array([names.index(detector_ids[j]) for j in c.tolist()], dtype=np.intp)
    n = len(r)
    windows = DetectionColumns(Ids(np.zeros(n, dtype=np.intp), ("img",)), Ids(np.full(n, -1), ()),
                               np.tile([0.0, 0.0, 1.0, 1.0], (n, 1)), slots[r, c], Ids(codes, names),
                               np.full((n, 3), np.nan))
    rows = np.full((len(slots), len(names)), -1, dtype=np.intp)
    rows[r, codes] = np.arange(n)
    return windows, rows


@given(images(), thresholds)
@example(HALF, 0.5)
@example(SIGNED_ZEROS, 0.1)
@example({}, 0.5)
@example({"a": []}, 0.5)
def test_detection_vectors_equal_scalar_reference(per_detector, threshold):
    expected = reference_vectors(per_detector, threshold)
    windows = windows_of(as_columns(per_detector))
    rows = [(d.image_id, d.detector_id, *map(float, d.box), d.score) for d in windows]
    assert repr(rows) == repr([(s.image_id, s.detector_id, *map(float, s.box), s.score) for s, _ in expected])
    overlaps = iou_matrix(windows.boxes)
    # Columns for every detector of a batch, some with no window here.
    for detector_ids in (sorted(per_detector), sorted({*per_detector, "c", "g"})):
        codes = [detector_ids.index(d) for d in windows.detectors.decoded()]
        detectors = Ids(np.array(codes, dtype=np.intp), tuple(detector_ids))
        got = slot_matrix(windows.scores, detectors.codes, len(detector_ids), threshold, overlaps)
        assert got.shape == (len(expected), len(detector_ids))
        assert repr(got.tolist()) == repr(as_rows(expected, detector_ids))
        one_image = dataclasses.replace(windows, detectors=detectors)
        rows = fusion.detection_slots(one_image, overlapping_pairs(windows.boxes, windows.images.codes), threshold)
        assert rows.dtype == np.intp
        assert repr(slot_scores(windows.scores, rows).tolist()) == repr(as_rows(expected, detector_ids))


def _batch(*per_image):
    """Images' windows by detector, as one batch's windows by detector."""
    corpus: dict[str, list[Detection]] = {}
    for per_det in per_image:
        for det_id, dets in per_det.items():
            corpus.setdefault(det_id, []).extend(dets)
    return corpus


@st.composite
def corpora(draw, max_images=5, max_windows=5):
    return _batch(*(
        draw(images(image_id=f"img{k}", max_detectors=3, max_windows=max_windows))
        for k in range(draw(st.integers(1, max_images)))
    ))


def _image(image_id, windows):
    """One image's windows by detector, from (detector, score) pairs on one box."""
    per_det: dict[str, list[Detection]] = {}
    for det_id, score in windows:
        per_det.setdefault(det_id, []).append(Detection(image_id, det_id, BoundingBox(0, 0, 1, 1), score))
    return per_det


# Three images of two windows each, and one of one window.
SAME_COUNT = _batch(
    {"a": [Detection("i0", "a", BoundingBox(0, 0, 2, 2), 1.0)],
     "b": [Detection("i0", "b", BoundingBox(0, 0, 2, 1), 3.0)]},
    {"a": [Detection("i1", "a", BoundingBox(5, 5, 6, 6), 2.0),
           Detection("i1", "a", BoundingBox(5, 5, 6, 7), 4.0)]},
    {"b": [Detection("i2", "b", BoundingBox(0, 0, 1, 1), 0.5)],
     "c": [Detection("i2", "c", BoundingBox(0, 0, 1, 1), 0.25)]},
    {"c": [Detection("i3", "c", BoundingBox(0, 0, 1, 1), 7.0)]},
)
# Three windows each: the first image's zero slots take -0.0 or 0.0 from
# their first zero window; the second's, all +0.0, stay +0.0.
SIGNED_ZERO_GROUP = _batch(
    _image("i0", [("c", 0.0), ("d", -0.0), ("d", 0.0)]),
    _image("i1", [("c", 0.0), ("d", 0.0), ("d", 0.0)]),
)
# The c window's zero slot takes d's first zero window, -0.0, although d's
# second window starts further left and so comes first along x.
SIGNED_ZEROS_SHIFTED = {
    "c": [Detection("img", "c", BoundingBox(0, 0, 10, 10), 0.0)],
    "d": [Detection("img", "d", BoundingBox(1, 0, 11, 10), -0.0),
          Detection("img", "d", BoundingBox(0.5, 0, 10.5, 10), 0.0)],
}


@settings(deadline=None)
@given(corpora(max_images=8, max_windows=3), thresholds, thresholds)
@example(SAME_COUNT, 0.1, 0.5)
@example(SIGNED_ZERO_GROUP, 0.1, 0.5)
@example(SIGNED_ZEROS_SHIFTED, 0.1, 0.5)
@example({}, 0.5, 0.5)
def test_batch_slots_and_masks_equal_per_image_reference(corpus, overlap, nms):
    windows = windows_of(as_columns(corpus))
    spans, ids = windows.spans(), windows.detectors.names
    pairs = overlapping_pairs(windows.boxes, windows.images.codes)
    rows = fusion.detection_slots(windows, pairs, overlap)
    assert rows.shape == (len(windows.scores), len(ids)) and rows.dtype == np.intp
    # Each present slot is a window of its column's detector on the row's
    # image, and each window's own slot is itself.
    row_of, column = np.nonzero(rows != -1)
    assert (windows.detectors.codes[rows[row_of, column]] == column).all()
    assert (windows.images.codes[rows[row_of, column]] == windows.images.codes[row_of]).all()
    assert (rows[np.arange(len(rows)), windows.detectors.codes] == np.arange(len(rows))).all()
    # Gathered by row, the slots are the per-image reference bit for bit.
    slots = slot_scores(windows.scores, rows)
    # Each image's NMS mask, as the pairs above the threshold give it.
    masks = np.zeros((len(windows.scores),) * 2, dtype=bool)
    near = pairs.overlaps > nms
    masks[pairs.first[near], pairs.second[near]] = masks[pairs.second[near], pairs.first[near]] = True
    for start, stop in spans.tolist():
        overlaps = iou_matrix(windows.boxes[start:stop])
        expected = slot_matrix(windows.scores[start:stop], windows.detectors.codes[start:stop], len(ids),
                               overlap, overlaps)
        assert repr(slots[start:stop].tolist()) == repr(expected.tolist())
        reference_mask = overlaps > nms
        np.fill_diagonal(reference_mask, False)  # a window does not suppress itself
        assert np.array_equal(masks[start:stop, start:stop], reference_mask)
        assert not masks[start:stop, :start].any() and not masks[start:stop, stop:].any()


@given(images(max_detectors=3), thresholds)
@example(HALF, 0.5)
def test_nms_equals_scalar_reference(per_detector, threshold):
    dets = [d for det_id in sorted(per_detector) for d in per_detector[det_id]]
    expected = [id(d) for d in reference_nms(dets, threshold)]
    windows = windows_of(as_columns(per_detector))  # its rows are ``dets``
    order = nms_order(windows.scores, windows.detectors.codes, box_ranks(windows.boxes), windows.images.codes)
    for box_rows in (np.array([d.box.as_tuple() for d in dets], dtype=float).reshape(-1, 4), windows.boxes):
        kept = greedy_nms(order, overlapping_pairs(box_rows, windows.images.codes), threshold)
        assert [id(dets[i]) for i in kept.tolist()] == expected


@st.composite
def ranked_windows(draw):
    """``placed_boxes`` with a score and a detector code each, drawn from few
    values, so that most ties go down to the box."""
    rows = draw(placed_boxes())
    n = len(rows)
    return (rows, draw(st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=n, max_size=n)),
            draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))


# Equal boxes under equal (image, score, detector), boxes equal but for a
# zero's sign, the same box on another image, boxes apart in one coordinate.
DUPLICATE_BOXES = (
    [(BoundingBox(0, 0, 2, 2), 0), (BoundingBox(0, 0, 2, 3), 0), (BoundingBox(0, 0, 2, 2), 0),
     (BoundingBox(-0.0, 0, 2, 2), 0), (BoundingBox(0, 0, 2, 2), 1), (BoundingBox(0, -1, 2, 2), 0)],
    [1.0, 1.0, 1.0, 1.0, 0.0, -0.0],
    [0, 0, 0, 0, 1, 0],
)


@given(ranked_windows())
@example(DUPLICATE_BOXES)
@example(([], [], []))
def test_box_rank_orders_equal_seven_key_lexsort(case):
    rows, scores, detectors = case
    box_rows = np.array([b.as_tuple() for b, _ in rows], dtype=float).reshape(-1, 4)
    images = np.array([image for _, image in rows], dtype=np.intp)
    scores, detectors = np.array(scores, dtype=float), np.array(detectors, dtype=np.intp)
    ranks = box_ranks(box_rows)
    # Ranks order boxes as their coordinates do, x_min first; equal boxes share one.
    boxes_in = list(map(tuple, box_rows.tolist()))
    assert [[ranks[i] < ranks[j] for j in range(len(rows))] for i in range(len(rows))] == \
        [[a < b for b in boxes_in] for a in boxes_in]
    expected = np.lexsort((*box_rows.T[::-1], detectors, -scores, images))
    assert nms_order(scores, detectors, ranks, images).tolist() == expected.tolist()
    # The fuse's output sort, on any rows in any order (here: reversed).
    rev = np.arange(len(rows))[::-1]
    expected = np.lexsort((*box_rows[rev].T[::-1], -scores[rev], images[rev]))
    assert np.lexsort((ranks[rev], -scores[rev], images[rev])).tolist() == expected.tolist()


def _model(det_id):
    table = [
        [4.0, 0.2, 0.9, 0.9],
        [2.0, 0.6, 0.45, 0.5],
        [0.0, 1.0, 0.3, 0.3],
    ]
    return TrustModel(det_id, "object", table, bpd_exponent=2.0)


def _models(method):
    if method in pipeline.BELIEF_METHODS:
        return {det_id: _model(det_id) for det_id in "abcdef"}
    # Detector "f" has no Platt model, so it takes no part in the baselines.
    return pipeline.BaselineModels(
        platt={d: PlattModel(d, -1.0, 2.0) for d in "abcde"},
        weights=WeightVector(tuple("abcde"), (0.5, 0.25, 1.0, -0.5, 0.75), -0.25),
        likelihoods={d: ScoreLikelihood(d, (0.25, 0.75), (0.75, 0.25)) for d in "abcde"},
    )


# SAME_COUNT, and an image where two detectors score windows apart equally:
# NMS visits detector "a"'s first, the file lists "b"'s smaller box first.
APART = _batch(SAME_COUNT, {"a": [Detection("i4", "a", BoundingBox(5, 5, 6, 6), 1.0)],
                            "b": [Detection("i4", "b", BoundingBox(0, 0, 1, 1), 1.0)]})


# Ids that sort apart only by a trailing NUL, by case or past ASCII: images
# "B", "i", "i\0", "é" and detectors "a", "a\0", in that order.
ODD_IDS = _batch(
    {"a": [Detection("i\0", "a", BoundingBox(0, 0, 2, 2), 1.0)],
     "a\0": [Detection("i\0", "a\0", BoundingBox(0, 0, 2, 1), 3.0)]},
    {"a\0": [Detection("é", "a\0", BoundingBox(0, 0, 1, 1), 2.0)]},
    {"a": [Detection("i", "a", BoundingBox(0, 0, 1, 1), 0.5)],
     "a\0": [Detection("i", "a\0", BoundingBox(0, 0, 1, 1), 0.5)]},
    {"a": [Detection("B", "a", BoundingBox(0, 0, 1, 1), 7.0)]},
)


@pytest.fixture(scope="module")
def two_workers():
    """A ``worker_pool`` of two worker processes, whatever the CPU count here."""
    with contextlib.ExitStack() as stack:
        with mock.patch("os.sched_getaffinity", return_value={0, 1}):
            pool = stack.enter_context(pipeline.worker_pool(2))
        yield pool


@settings(max_examples=10, deadline=None)
@given(corpora(), st.sampled_from(pipeline.METHODS))
@example(ODD_IDS, "dbf")
@example(HALF, "platt")
@example(HALF, "ws")
@example(HALF, "bayes")
@example(APART, "dbf")
@example(APART, "static-dst")
@example(APART, "platt")
@example(APART, "ws")
@example(APART, "bayes")
def test_fuse_corpus_is_the_same_at_any_jobs(two_workers, corpus, method):
    models = _models(method)
    serial = pipeline.fuse_corpus(as_columns(corpus), models, "object", method)
    # One to three batches, fused in this process or by the pool's workers.
    for batches in (1, 2, 3):
        for pool in (None, two_workers):
            assert pipeline.fuse_corpus(as_columns(corpus), models, "object", method,
                                        batches=batches, pool=pool) == serial
    # The rows leave fuse_corpus in the order the fuse command writes them.
    assert repr(fused_rows(serial)) == repr(output_order(serial))
    if method in pipeline.BELIEF_METHODS:
        assert serial.scores.tolist() == fused_scores(serial.joints).tolist()
    else:
        assert np.isnan(serial.joints).all() and "f" not in serial.detectors.decoded()


# ---- trust lookup, mass split and Dempster fold ----------------------------


def reference_lookup(model, score):
    """Score -> (recall, monotone precision) by bisection, before the mass
    table; a table row is (threshold, recall, raw and monotone precision)."""
    table = model.table.tolist()
    if score >= table[0][0]:
        return table[0][1], table[0][3]
    if score < table[-1][0]:
        return 1.0, table[-1][3]
    lo, hi = 0, len(table) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if table[mid][0] <= score:
            hi = mid
        else:
            lo = mid + 1
    return table[lo][1], table[lo][3]


def reference_assignment(model, recall, precision):
    p_bpd = bpd_precision(recall, model.bpd_exponent)
    return Bpa(precision, 1.0 - max(p_bpd, precision), max(p_bpd - precision, 0.0))


def reference_smooth(b):
    masses = [min(max(m, 1e-6), 1.0 - 1e-6) for m in b.as_tuple()]
    total = (masses[0] + masses[1]) + masses[2]
    return Bpa(*(m / total for m in masses))


def reference_fuse_bpas(bpas):
    """Returns the verdict and whether total conflict forced smoothing."""
    informative = [b for b in bpas if not b.is_vacuous()]
    if not informative:
        return FusedVerdict(VACUOUS), False
    try:
        return FusedVerdict(combine_all(informative)), False
    except TotalConflict:
        return FusedVerdict(combine_all([reference_smooth(b) for b in informative])), True


def reference_dbf(slots, models, absent_policy):
    bpas = []
    for det_id, model in sorted(models.items()):
        if det_id in slots:
            recall, precision = reference_lookup(model, slots[det_id])
            bpas.append(reference_assignment(model, recall, precision))
        elif absent_policy == "recall_one":
            bpas.append(reference_assignment(model, 1.0, model.table[-1, 3].item()))
    return reference_fuse_bpas(bpas)


def reference_static(slots, models):
    bpas = []
    for det_id, model in sorted(models.items()):
        if det_id in slots:
            _, recall, _, precision = min(model.table.tolist(), key=lambda r: (abs(r[1] - 0.2), r[0]))
            bpas.append(reference_assignment(model, recall, precision))
    return reference_fuse_bpas(bpas)


def reference_rescore(slots, models, method, absent_policy):
    """One vector's fused score, its verdict (None for the baselines), and
    whether total conflict forced smoothing."""
    if method == "dbf":
        verdict, smoothed = reference_dbf(slots, models, absent_policy)
    elif method == "static-dst":
        verdict, smoothed = reference_static(slots, models)
    elif method == "platt":
        return reference_platt(slots, models.platt), None, False
    elif method == "ws":
        return reference_ws(slots, models.platt, models.weights), None, False
    else:
        return reference_bayes(slots, models.platt, models.likelihoods), None, False
    return verdict.score, verdict, smoothed


def reference_fuse_corpus(corpus, models, method, absent_policy="vacuous", class_label="object"):
    """Per image: vectors, one verdict per vector, rescored windows, NMS; the
    kept windows in file order."""
    if method in pipeline.BASELINE_METHODS:
        corpus = {k: v for k, v in corpus.items() if k in models.platt}
    fused, smoothings = [], 0
    all_dets = [d for dets in corpus.values() for d in dets]
    for _, image_dets in sorted(group_by_image(all_dets).items()):
        vectors = reference_vectors(group_by_detector(image_dets), 0.5)
        verdicts, rescored = [], []
        for subject, slots in vectors:
            score, verdict, smoothed = reference_rescore(slots, models, method, absent_policy)
            verdicts.append(verdict)
            smoothings += smoothed
            rescored.append(Detection(subject.image_id, subject.detector_id, subject.box, score))
        index = {id(d): i for i, d in enumerate(rescored)}
        # In file order: ties in score and box keep NMS visiting order.
        kept = sorted(reference_nms(rescored, 0.5), key=lambda d: (-d.score, d.box.as_tuple()))
        fused += [
            FusedDetection(
                d.box, d.image_id, class_label, d.score, verdicts[index[id(d)]], d.detector_id
            )
            for d in kept
        ]
    return fused, smoothings


# Integer weights give exact conflicts and certainties; an intermediate mass
# of at least 1/17 keeps each fold step's normalizer at least 1/17, where
# the fold and the direct enumeration agree to 1e-12.
ordinary_masses = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 8)).map(
    lambda w: Bpa(*(x / sum(w) for x in w))
)
float_masses = (
    st.tuples(*[st.floats(0, 1, allow_subnormal=False)] * 3)
    .filter(lambda m: sum(m) > 0.01)
    .map(lambda m: Bpa(*(x / ((m[0] + m[1]) + m[2]) for x in m)))
)
special_masses = st.sampled_from([VACUOUS, Bpa(1.0, 0.0, 0.0), Bpa(0.0, 1.0, 0.0)])
masses = st.one_of(ordinary_masses, float_masses, special_masses)
CONFLICT_ROW = [Bpa(0.5, 0.25, 0.25), Bpa(1.0, 0.0, 0.0), VACUOUS, Bpa(0.0, 1.0, 0.0)]


@st.composite
def source_rows(draw):
    """(N rows of K sources, N×K take-part mask), 1 <= K <= 8."""
    k = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(masses, min_size=k, max_size=k), min_size=1, max_size=4))
    use = draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k),
                        min_size=len(rows), max_size=len(rows)))
    return rows, use


def as_arrays(rows, use):
    return np.array([[b.as_tuple() for b in row] for row in rows]), np.array(use, dtype=bool)


@settings(deadline=None)
@given(source_rows())
@example(([CONFLICT_ROW, CONFLICT_ROW[::-1]], [[True] * 4, [True, False, True, True]]))
def test_array_fold_equals_combine_all_bit_for_bit(case):
    rows, use = case
    sources, take = as_arrays(rows, use)
    joint, conflict = combine_rows(sources, take)
    before = fusion.conflict_smoothing_count
    recovered = fusion._fold(sources, take)
    smoothings = 0
    for i, (row, row_use) in enumerate(zip(rows, use)):
        informative = [b for b, u in zip(row, row_use) if u and not b.is_vacuous()]
        expected, smoothed = reference_fuse_bpas(informative)
        smoothings += smoothed
        # repr tells every float apart, -0.0 from 0.0 too.
        assert repr(recovered[i].tolist()) == repr(list(expected.joint.as_tuple()))
        assert bool(conflict[i]) == smoothed
        if smoothed:
            continue
        assert repr(joint[i].tolist()) == repr(list(expected.joint.as_tuple()))
        if informative and all(b.m_intermediate >= 1 / 17 for b in informative):
            direct = combine_all_enumerated(informative).as_tuple()
            assert joint[i].tolist() == pytest.approx(direct, abs=1e-12)
    assert fusion.conflict_smoothing_count - before == smoothings


@st.composite
def trust_tables(draw):
    """A PR table: thresholds strictly descending, recall rising and the
    precision envelope falling down the table."""
    k = draw(st.integers(1, 5))
    unit = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0, 1))
    thresholds = draw(st.lists(st.floats(-5, 10, allow_nan=False), min_size=k, max_size=k,
                               unique=True))
    recall = sorted(draw(st.lists(unit, min_size=k, max_size=k)))
    precision = sorted(draw(st.lists(unit, min_size=k, max_size=k)), reverse=True)
    return [[t, r, p, p] for t, r, p in zip(sorted(thresholds, reverse=True), recall, precision)]


EXPONENTS = [1.0, 2.0, 3.5, math.inf]
# Trust models that give certain-target and certain-non-target masses.
CERTAIN_TABLES = [([[1.0, 0.5, 1.0, 1.0]], 1000.0), ([[1.0, 1.0, 0.0, 0.0]], 2.0)]


# 128 irregular recalls, each below the best-possible detector's precision,
# so 1 - r**n reaches the masses: np.power would round some differently.
IRREGULAR_TABLE = [
    [10.0 - 0.25 * i, r, (1.0 - r) / 2, (1.0 - r) / 2]
    for i, r in enumerate(sorted(np.random.default_rng(0).random(128).tolist()))
]


@settings(deadline=None)
@given(trust_tables(), st.sampled_from(EXPONENTS),
       st.lists(st.floats(-20, 20, allow_nan=False), max_size=5))
@example(IRREGULAR_TABLE, 3.5, [])
@example([[1.0, 1.0, 0.0, 0.0]], 2, [])  # an integer exponent
def test_mass_table_lookup_equals_bisection_and_assignment(table, n, extra_scores):
    model = TrustModel("a", "object", table, bpd_exponent=n)
    thresholds = [row[0] for row in table]
    scores = [
        *thresholds,  # on a threshold
        *((hi + lo) / 2 for hi, lo in zip(thresholds, thresholds[1:])),  # between two
        thresholds[0] + 1.0,  # above the top
        thresholds[-1] - 1.0,  # below the bottom
        *extra_scores,
    ]
    expected = [reference_assignment(model, *reference_lookup(model, s)) for s in scores]
    got = model.masses_at(np.array(scores))
    assert repr(got.tolist()) == repr([list(b.as_tuple()) for b in expected])
    # An absent slot (-inf) reads the below-bottom row: the recall_one mass.
    recall_one = reference_assignment(model, 1.0, table[-1][3])
    absent = model.masses_at(np.array([-np.inf])).tolist()
    assert repr(absent) == repr([list(recall_one.as_tuple())])
    # The static assignment is its own row's split, the lower threshold on a tie.
    row = min(range(len(table)), key=lambda i: (abs(table[i][1] - trust.STATIC_RECALL_ANCHOR), table[i][0]))
    expected = reference_assignment(model, table[row][1], table[row][3])
    assert repr(model.static_bpa().as_tuple()) == repr(expected.as_tuple())


@st.composite
def trust_models(draw):
    """Trust models for some of the detectors a corpus may hold."""
    detector_ids = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True))
    models = {}
    for det_id in detector_ids:
        table, n = draw(st.one_of(
            st.tuples(trust_tables(), st.sampled_from(EXPONENTS)),
            st.sampled_from(CERTAIN_TABLES),
        ))
        models[det_id] = TrustModel(det_id, "object", table, bpd_exponent=n)
    return models


# Two windows on one box: each is in the other's vector, so the certain
# models above meet in total conflict.
SAME = {
    "a": [Detection("img", "a", BoundingBox(0, 0, 1, 1), 2.0)],
    "b": [Detection("img", "b", BoundingBox(0, 0, 1, 1), 1.0)],
}
CERTAIN_MODELS = {
    det_id: TrustModel(det_id, "object", table, bpd_exponent=n)
    for det_id, (table, n) in zip("ab", CERTAIN_TABLES)
}


@settings(max_examples=50, deadline=None)
@given(corpora(), trust_models(), st.sampled_from(pipeline.BELIEF_METHODS),
       st.sampled_from(["vacuous", "recall_one"]))
@example(SAME, CERTAIN_MODELS, "dbf", "vacuous")
@example(HALF, CERTAIN_MODELS, "dbf", "recall_one")
@example(SAME, CERTAIN_MODELS, "static-dst", "vacuous")
@example(ODD_IDS, {d: _model(d) for d in ("a", "a\0")}, "dbf", "vacuous")
def test_belief_fuse_corpus_equals_per_vector_loop(corpus, models, method, absent_policy):
    expected, smoothings = reference_fuse_corpus(corpus, models, method, absent_policy)
    before = fusion.conflict_smoothing_count
    got = pipeline.fuse_corpus(as_columns(corpus), models, "object", method, absent_policy=absent_policy)
    assert got == fused_columns(expected)  # bit for bit, -0.0 too
    assert fusion.conflict_smoothing_count - before == smoothings


# ---- baseline rules and weighted-sum training -------------------------------


def platt_probability(model, score):
    """The scalar Platt probability ``baselines.sigmoid`` computes for arrays:
    ``1 / (1 + exp(a * score + b))``, its exponent clamped to [-700, 700]."""
    z = model.a * score + model.b
    if z >= 0:
        return 1.0 / (1.0 + math.exp(min(z, 700.0)))
    ez = math.exp(max(z, -700.0))
    return 1.0 / (1.0 + ez)


def log_likelihood_ratio(model, prob):
    """The scalar naive-Bayes lookup ``baselines.bayes_fuse`` makes for
    arrays: the log ratio of a probability's bin, truncated, the last bin
    capped."""
    i = min(int(prob * model.bin_count), model.bin_count - 1)
    return math.log(model.target_bins[i] / model.nontarget_bins[i])


def reference_platt(slots, platt):
    probs = [platt_probability(platt[d], score) for d, score in slots.items() if d in platt]
    if not probs:
        raise ValueError("vector has no present slot with a Platt model")
    return max(probs)


def reference_features(slots, platt, detector_ids):
    return np.array([platt_probability(platt[d], slots[d]) if d in slots else 0.0 for d in detector_ids])


def reference_ws(slots, platt, weights):
    features = reference_features(slots, platt, weights.detector_ids)
    return float(features @ np.array(weights.weights) + weights.bias)


def reference_bayes(slots, platt, likelihoods):
    log_odds = math.log(0.5 / (1.0 - 0.5))
    for det_id, score in sorted(slots.items()):
        if det_id in likelihoods:
            log_odds += log_likelihood_ratio(likelihoods[det_id], platt_probability(platt[det_id], score))
    return log_odds


def reference_training(per_detector, gts, platt):
    """The weighted-sum training set, one (present slots, target) pair per
    detection vector of a calibrated detector, each labeled by its own
    window; undecided windows are left out. Rows go by image, detector,
    descending score, then box; ties keep input order."""
    label = reference_labels({det_id: per_detector[det_id] for det_id in platt}, gts)
    all_dets = [d for det_id in platt for d in per_detector[det_id]]
    training = []
    for _, image_dets in sorted(group_by_image(all_dets).items()):
        ranked = {det_id: sorted(dets, key=lambda d: (-d.score, d.box.as_tuple()))
                  for det_id, dets in group_by_detector(image_dets).items()}
        for subject, slots in reference_vectors(ranked, 0.5):
            if label[id(subject)] is not MatchLabel.UNDECIDED:
                training.append((slots, label[id(subject)] is MatchLabel.TRUE_POSITIVE))
    return training


def reference_fit(x, y, detector_ids, c=1.0, iterations=2000, steps=None):
    """Subgradient descent on the hinge loss, as ``fit_weighted_sum`` ran it.
    Each step's w and margins, before its update, go to the list ``steps``."""
    lam = 1.0 / (c * len(x))
    w = np.zeros(x.shape[1])
    b = 0.0
    for t in range(1, iterations + 1):
        margin = y * (x @ w + b)
        if steps is not None:
            steps.append((w.copy(), margin))
        active = margin < 1.0
        grad_w = lam * w - (y[active, None] * x[active]).sum(axis=0) / len(x)
        grad_b = -y[active].sum() / len(x)
        step = 1.0 / (lam * t)
        w -= step * grad_w
        b -= step * grad_b
    return WeightVector(detector_ids, tuple(float(v) for v in w), float(b))


def likelihood(det_id, target, nontarget):
    return ScoreLikelihood(det_id, tuple(t / sum(target) for t in target),
                           tuple(n / sum(nontarget) for n in nontarget))


@st.composite
def baseline_cases(draw):
    """A slot matrix, with Platt models for some of its detectors and for
    detectors it has no column for, a weight per Platt model, and
    likelihoods for some of them."""
    detector_ids = sorted(draw(st.lists(st.sampled_from("abcdef"), min_size=1, unique=True)))
    slot = st.one_of(st.just(-math.inf), st.sampled_from([0.0, 1.0, -40.0]), st.floats(-40, 40))
    slots = np.array(draw(st.lists(
        st.lists(slot, min_size=len(detector_ids), max_size=len(detector_ids)),
        min_size=1, max_size=6,
    )))
    coefficient = st.floats(-4, 4)
    platt = {d: PlattModel(d, draw(coefficient), draw(coefficient))
             for d in draw(st.lists(st.sampled_from("abcdefg"), min_size=1, unique=True))}
    weights = draw(st.lists(st.floats(-2, 2), min_size=len(platt), max_size=len(platt)))
    assume(any(w != 0.0 for w in weights))
    weights = WeightVector(tuple(sorted(platt)), tuple(weights), draw(st.floats(-2, 2)))
    bin_count = draw(st.integers(1, 8))
    bins = st.lists(st.floats(0.01, 1), min_size=bin_count, max_size=bin_count)
    likelihoods = {d: likelihood(d, draw(bins), draw(bins))
                   for d in draw(st.lists(st.sampled_from(sorted(platt)), unique=True))}
    return detector_ids, slots, platt, weights, likelihoods


# Rows whose one matrix-vector product rounds differently from per-row dot
# products; a z of 40, where np.exp and math.exp differ; and three log
# likelihood ratios whose sum depends on the order they are added in.
UNIT = {d: PlattModel(d, -1.0, 0.0) for d in "abcd"}
ROUNDING = (
    list("abcd"),
    np.array([[0.8, -1.4, -2.8, -2.9], [1.9, 2.5, 0.6, 1.4],
              [1.0, 1.0, 1.0, -math.inf], [-40.0, -math.inf, -math.inf, -math.inf]]),
    UNIT,
    WeightVector(tuple("abcd"), (0.17, 1.74, 1.26, -1.99), 0.0),
    {d: likelihood(d, (t, 1 - t), (n, 1 - n))
     for d, t, n in (("a", 0.86, 0.43), ("b", 0.58, 0.07), ("c", 0.66, 0.88))},
)


# A z of -40, whose Platt probability is exactly 1.0: the last bin, which
# a truncated 1.0 * bin_count would overrun.
LAST_BIN = (
    ["a", "b"],
    np.array([[40.0, 0.5], [40.0, -math.inf]]),
    {d: UNIT[d] for d in "ab"},
    WeightVector(("a", "b"), (1.0, -1.0), 0.0),
    {d: likelihood(d, (0.1, 0.2, 0.3, 0.4), (0.4, 0.3, 0.2, 0.1)) for d in "ab"},
)
# A z of 0, probability 0.5: exactly on the edge of bins 1 and 2 of four.
BIN_EDGE = (
    ["a", "b"],
    np.array([[0.0, 0.0], [-math.inf, 0.0], [0.0, 1.0]]),
    {d: UNIT[d] for d in "ab"},
    WeightVector(("a", "b"), (0.5, 0.5), 0.0),
    {d: likelihood(d, (0.1, 0.2, 0.3, 0.4), (0.4, 0.3, 0.2, 0.1)) for d in "ab"},
)


@settings(deadline=None)
@given(baseline_cases())
@example(ROUNDING)
@example(LAST_BIN)
@example(BIN_EDGE)
def test_baseline_rules_equal_per_vector_rules_bit_for_bit(case):
    detector_ids, slots, platt, weights, likelihoods = case
    rows = [{d: s for d, s in zip(detector_ids, row) if s != -math.inf} for row in slots.tolist()]
    windows, slot_rows = slot_windows(detector_ids, slots)
    try:
        expected = [reference_platt(row, platt) for row in rows]
    except ValueError:
        with pytest.raises(ValueError):
            baselines.platt_fuse(windows, slot_rows, platt)
    else:
        # repr tells every float apart, -0.0 from 0.0 too.
        assert repr(baselines.platt_fuse(windows, slot_rows, platt).tolist()) == repr(expected)
    got = baselines.weighted_sum_fuse(windows, slot_rows, platt, weights)
    assert repr(got.tolist()) == repr([reference_ws(row, platt, weights) for row in rows])
    got = baselines.bayes_fuse(windows, slot_rows, platt, likelihoods)
    assert repr(got.tolist()) == repr([reference_bayes(row, platt, likelihoods) for row in rows])


# (a, b, score): z exactly at the clamp and just past it, a * score
# overflowing to +-inf, z = -0.0 (a * score = -0.0 plus b = -0.0), and huge
# or tiny scores.
PLATT_EDGES = [
    (1.0, 0.0, 700.0), (1.0, 0.0, -700.0), (1.0, 0.0, 700.0000000000001), (1.0, 0.0, -700.0000000000001),
    (1.0, 1.0, 699.0), (2.0, -1.0, 350.5), (1.0, 0.0, 1e300), (-1.0, 0.0, 1e300),
    (1e10, 0.0, 1e300), (-1e10, 0.0, 1e300), (1e10, 3.0, -1e300), (-1.0, -0.0, 0.0), (1.0, -0.0, -0.0),
    (0.0, 0.0, 1e308), (0.0, -0.0, -1e308), (1e-300, 0.0, 1e-300), (3.0, 2.0, 1.7976931348623157e308),
]


@given(st.lists(st.tuples(st.floats(-1e12, 1e12), st.floats(-1e12, 1e12),
                          st.floats(allow_nan=False, allow_infinity=False)), max_size=8))
@example(PLATT_EDGES)
@example([])
def test_vector_platt_equals_scalar_formula_bit_for_bit(cases):
    a, b, scores = (np.array(column, dtype=float) for column in zip(*cases)) if cases else (np.empty(0),) * 3
    expected = [platt_probability(PlattModel("d", *ab), s) for *ab, s in cases]
    # repr tells every float apart, -0.0 from 0.0 too.
    assert repr(baselines.sigmoid(scores, a, b).tolist()) == repr(expected)
    for (a_k, b_k, score) in cases:  # and with scalar coefficients
        assert repr(baselines.sigmoid(np.array([score]), a_k, b_k).tolist()) == \
            repr([platt_probability(PlattModel("d", a_k, b_k), score)])


dot_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300]),
    st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10), st.integers(-300, 299)),
)


@st.composite
def dot_cases(draw):
    width = draw(st.integers(1, 8))
    vector = st.lists(dot_entries, min_size=width, max_size=width)
    return np.array(draw(st.lists(vector, max_size=12)), dtype=float).reshape(-1, width), np.array(draw(vector))


@given(dot_cases())
@example((np.array([[0.8, -1.4, -2.8, -2.9], [1.9, 2.5, 0.6, 1.4]]), np.array([0.17, 1.74, 1.26, -1.99])))
@example((np.array([[1e300, 1e300], [-0.0, -0.0], [5e-324, 5e-324]]), np.array([1e10, -1e-300])))
def test_batched_row_dot_equals_per_row_dot_bit_for_bit(case):
    features, w = case
    with np.errstate(over="ignore", invalid="ignore"):  # products past 1e308 are inf, inf - inf NaN
        expected = np.array([row @ w for row in features]).reshape(-1)
        assert baselines.row_dots(features, w).tobytes() == expected.tobytes()


def test_batched_row_dot_refuses_a_layout_it_is_not_checked_on():
    features = np.arange(12.0).reshape(3, 4)
    with pytest.raises(ValueError, match="C-ordered"):
        baselines.row_dots(np.asfortranarray(features), np.ones(4))
    with pytest.raises(ValueError, match="C-ordered"):
        baselines.row_dots(features[:, ::2], np.ones(2))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(0)
def test_ws_training_equals_per_vector_loop_bit_for_bit(seed):
    dataset = datagen.generate(seed, 12, default_profiles(3))
    image_ids = dataset.validation_image_ids
    per_detector = {d: list(dataset.detections_for(d, image_ids)) for d in dataset.detections}
    gts = dataset.ground_truths(image_ids)["object"]
    designs = []
    fit = baselines.fit_weighted_sum

    def capture(features, targets, detector_ids):
        designs.append((features, targets))
        return fit(features, targets, detector_ids)

    baselines.fit_weighted_sum = capture
    try:
        models = pipeline.fit_baselines(as_columns(per_detector), gts, "object")
    finally:
        baselines.fit_weighted_sum = fit
    detector_ids = tuple(sorted(models.platt))
    training = reference_training(per_detector, gts, models.platt)
    x = np.array([reference_features(slots, models.platt, detector_ids) for slots, _ in training])
    y = np.array([1.0 if target else -1.0 for _, target in training])
    (features, targets), = designs
    assert features.flags.c_contiguous  # a Fortran-ordered x rounds x @ w differently
    assert features.tobytes() == x.tobytes() and features.shape == x.shape
    assert targets.tolist() == [target for _, target in training]
    assume(models.weights is not None)
    assert repr(models.weights) == repr(reference_fit(x, y, detector_ids))


@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(1)
def test_ws_training_at_the_dense_shape_equals_reference_fit(seed):
    # The benchmark's dense shape (6 detectors, fp_rate 20) at 40 images:
    # after step 2 the active set rarely changes, so most passes are skipped.
    profiles = [dataclasses.replace(p, fp_rate=20.0) for p in default_profiles(6)]
    dataset = datagen.generate(seed, 40, profiles)
    image_ids = dataset.validation_image_ids
    designs = []
    fit = baselines.fit_weighted_sum

    def capture(features, targets, detector_ids):
        designs.append((features, targets))
        return fit(features, targets, detector_ids)

    with mock.patch.object(baselines, "fit_weighted_sum", capture):
        models = pipeline.fit_baselines({d: dataset.detections_for(d, image_ids) for d in dataset.detections},
                                        dataset.ground_truths(image_ids)["object"], "object")
    (features, targets), = designs
    detector_ids = tuple(sorted(models.platt))
    assert features.shape[1] == 6 and repr(models.weights) == repr(
        reference_fit(features, np.where(targets, 1.0, -1.0), detector_ids))
    passes, _ = margin_passes(features, targets)
    assert len(passes) < 1000


@st.composite
def validation_sets(draw):
    """A generated corpus's validation split: windows by detector, and the
    ground truth."""
    dataset = datagen.generate(draw(st.integers(0, 2**32 - 1)), 40, default_profiles(3))
    image_ids = dataset.validation_image_ids
    return ({d: list(dataset.detections_for(d, image_ids)) for d in dataset.detections},
            dataset.ground_truths(image_ids)["object"])


def _windows(det_id, *boxes_and_scores):
    return [Detection("img", det_id, BoundingBox(*b), s) for b, s in boxes_and_scores]


ON, OFF, FAR = (0, 0, 10, 10), (20, 20, 30, 30), (40, 40, 50, 50)
ONE_OBJECT = truths(Ids.of(["img"]), Ids.of(["object"]), [ON], [False])["object"]
# Two windows equal in image, detector, score and box: one claims the
# object, the other is its undecided duplicate.
EQUAL_WINDOWS = ({"a": _windows("a", (ON, 1.0), (ON, 1.0), (OFF, 0.5)),
                  "b": _windows("b", (OFF, 3.0), (ON, 2.0))}, ONE_OBJECT)
# Equal zeros of both signs on different boxes of one image: one run of
# the PR table, whose threshold is the first zero.
SIGNED_ZERO_WINDOWS = ({"a": _windows("a", (OFF, -0.0), (ON, 0.0), (FAR, 1.0)),
                        "b": _windows("b", (ON, 0.0), (FAR, -0.0), (OFF, 2.0))}, ONE_OBJECT)
# Equal zeros of both signs on the one object's box: both claim it, so
# the run's first score is whichever zero the matcher visits first.
SIGNED_ZERO_CLAIMS = ({"a": _windows("a", (ON, 0.0), (ON, -0.0), (FAR, 1.0))}, ONE_OBJECT)
POLICIES = ("undecided", "false_positive")


def trained(per_detector, gts, duplicate_policy):
    """Every model the validation set trains, as text: repr tells every
    float apart, -0.0 from 0.0 too."""
    trust = pipeline.build_trust_models(as_columns(per_detector), gts, "object", 2.0, 0.5, duplicate_policy)
    baselines = pipeline.fit_baselines(as_columns(per_detector), gts, "object", 0.5, duplicate_policy)
    return {d: repr(m.table.tolist()) for d, m in trust.items()}, repr(baselines)


@settings(max_examples=10, deadline=None)
@given(validation_sets(), st.sampled_from(POLICIES), st.randoms(use_true_random=False))
@example(EQUAL_WINDOWS, "undecided", random.Random(0))
@example(SIGNED_ZERO_WINDOWS, "undecided", random.Random(0))
@example(SIGNED_ZERO_CLAIMS, "undecided", random.Random(0))
@example(SIGNED_ZERO_CLAIMS, "false_positive", random.Random(0))
def test_training_does_not_depend_on_input_order(validation, duplicate_policy, rng):
    per_detector, gts = validation
    expected = trained(per_detector, gts, duplicate_policy)
    for order in (lambda xs: xs[::-1], lambda xs: rng.sample(xs, len(xs))):
        reordered = {det_id: order(per_detector[det_id]) for det_id in order(sorted(per_detector))}
        assert trained(reordered, gts, duplicate_policy) == expected


def reference_labels(per_detector, truth, iou_threshold=0.5, duplicate_policy="undecided"):
    """Each detection's label, by ``id``: ``match_detections`` on each
    detector's windows on each image, in input order, against that image's
    objects (none when ``truth`` is None)."""
    spans = {} if truth is None else truth.spans
    label = {}
    for dets in per_detector.values():
        for image_id, own in group_by_image(dets).items():
            a, b = spans.get(image_id, (0, 0))
            objects = ([], []) if truth is None else (truth.boxes[a:b].tolist(), truth.difficult[a:b].tolist())
            label.update(zip(map(id, own), match_detections([d.box for d in own], [d.score for d in own], *objects,
                                                            iou_threshold, duplicate_policy)))
    return label


def labels_of(decided, tp):
    """Each row's ``MatchLabel``, from its two flags (``pipeline.label_detections``)."""
    return [MatchLabel.TRUE_POSITIVE if t else MatchLabel.FALSE_POSITIVE if d else MatchLabel.UNDECIDED
            for d, t in zip(decided.tolist(), tp.tolist())]


def window_row(d):
    """A window as text-comparable values: repr tells -0.0 from 0.0."""
    return (d.image_id, d.detector_id, *map(float, d.box), d.score)


def reference_labeled_windows(per_detector, truth, iou_threshold, duplicate_policy):
    """``pipeline.labeled_windows``' rows and labels, by the scalar matcher
    (``reference_labels``), then Python's stable ``sorted`` by the documented
    key: image, detector, descending score, 0.0 before -0.0, then box."""
    label = reference_labels(per_detector, truth, iou_threshold, duplicate_policy)
    dets = [d for dets in per_detector.values() for d in dets]
    ranked = sorted(dets, key=lambda d: (d.image_id, d.detector_id, -d.score, math.copysign(1.0, -d.score),
                                         tuple(d.box)))
    return [(window_row(d), label[id(d)]) for d in ranked]


@st.composite
def labeling_cases(draw):
    """Windows of a few detectors on a few images, shuffled, drawn from small
    pools of boxes and scores: exact duplicates, equal zeros of both signs
    and equal scores on different boxes are common. The ground truth sits on
    the same boxes, some of it difficult; None is a class with none."""
    pool = draw(st.lists(boxes(), min_size=1, max_size=4))
    score = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]), scores)
    window = st.builds(Detection, st.sampled_from(["i0", "i1", "i\0"]), st.sampled_from("abc"),
                       st.sampled_from(pool), score)
    dets = draw(st.permutations(draw(st.lists(window, max_size=16))))
    objects = draw(st.lists(st.builds(Obj, st.sampled_from(["i0", "i1", "i2"]), st.just("object"),
                                      st.sampled_from(pool), st.booleans()), max_size=5))
    per_detector = {}
    for d in dets:
        per_detector.setdefault(d.detector_id, []).append(d)
    return per_detector, truths_of(objects)["object"] if objects else None


def _labeling_case(objects, *windows):
    """(detector, image, box, score) windows, in that order, and objects
    (image, box, difficult) of class "object"."""
    per_detector = {}
    for det_id, image_id, box, score in windows:
        per_detector.setdefault(det_id, []).append(Detection(image_id, det_id, BoundingBox(*box), score))
    return per_detector, truths_of([Obj(i, "object", BoundingBox(*b), f) for i, b, f in objects])["object"]


# Two detectors claim one object: each claims it for itself.
TWO_CLAIMS = _labeling_case([("i0", ON, False)], ("b", "i0", ON, 1.0), ("a", "i0", ON, 1.0))
# -0.0 listed before 0.0 on one box: 0.0 ranks first and claims the object.
ZEROS_REVERSED = _labeling_case([("i0", ON, False)], ("a", "i0", ON, -0.0), ("a", "i0", ON, 0.0))
# Runs of one window each on three images, a detector apart.
LONE_WINDOWS = _labeling_case([("i1", ON, False), ("i0", OFF, False)], ("a", "i0", ON, 1.0),
                              ("b", "i0", OFF, 1.0), ("a", "i1", ON, 2.0), ("a", "i2", ON, 0.5))
# IoU 100/200 equals 0.5 exactly: not above it, so undecided.
AT_THRESHOLD = _labeling_case([("i0", (0, 0, 10, 20), False)], ("a", "i0", ON, 1.0))
# A window touching an object's edge: IoU +0.0, a false positive.
TOUCHING = _labeling_case([("i0", ON, False)], ("a", "i0", (10, 0, 20, 10), 1.0))
# Above the threshold only on a difficult object, partly over another.
ON_DIFFICULT = _labeling_case([("i0", ON, True), ("i0", (5, 0, 15, 10), False)], ("a", "i0", ON, 1.0))
# A run whose higher-scored windows only touch or partly overlap the object:
# only the lowest-scored window is contested, and claims it.
LOW_CONTESTED = _labeling_case([("i0", ON, False)], ("a", "i0", (10, 0, 20, 10), 3.0),
                               ("a", "i0", (5, 5, 15, 15), 2.0), ("a", "i0", ON, 1.0))
# Partly over one object (IoU 10/300) and above the threshold on the other (100/120).
PARTLY_AND_ABOVE = _labeling_case([("i0", (0, 0, 19, 10), False), ("i0", (20, 0, 30, 10), False)],
                                  ("a", "i0", (18, 0, 30, 10), 1.0), ("a", "i0", (18, 0, 30, 10), 0.5))


@settings(max_examples=300, deadline=None)
@given(labeling_cases(), thresholds, st.sampled_from(POLICIES))
@example(TWO_CLAIMS, 0.5, "undecided")
@example(ZEROS_REVERSED, 0.5, "false_positive")
@example(LONE_WINDOWS, 0.5, "undecided")
@example(EQUAL_WINDOWS, 0.5, "false_positive")
@example(AT_THRESHOLD, 0.5, "undecided")
@example(TOUCHING, 0.5, "false_positive")
@example(ON_DIFFICULT, 0.5, "false_positive")
@example(LOW_CONTESTED, 0.5, "undecided")
@example(PARTLY_AND_ABOVE, 0.5, "false_positive")
def test_labeled_windows_equal_the_scalar_matcher_then_a_sort(case, iou_threshold, duplicate_policy):
    per_detector, truth = case
    windows, decided, tp = pipeline.labeled_windows(as_columns(per_detector), truth, iou_threshold, duplicate_policy)
    got = list(zip(map(window_row, windows), labels_of(decided, tp)))
    assert repr(got) == repr(reference_labeled_windows(per_detector, truth, iou_threshold, duplicate_policy))


@st.composite
def designs(draw):
    """A C-ordered design matrix, up to dense's six detectors wide, with
    exact zeros of both signs and repeated rows, and targets with both
    labels."""
    width = draw(st.integers(1, 6))
    entry = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(-1, 1))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=30))
    rows += draw(st.lists(st.sampled_from(rows), max_size=10))
    targets = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    assume(any(targets) and not all(targets))
    return np.array(rows), np.array(targets)


# One positive in twenty: the active set changes twice in 2,000 iterations,
# as on dense validation sets. Repeated overlapping rows: it changes 1,997
# times, as on the walkthrough's.
STABLE = (np.array([[0.9, 0.8]] + [[0.1, 0.2]] * 19), np.array([True] + [False] * 19))
FLIPPING = (np.array([[0.7, 0.7], [0.7, 0.7], [0.1, 0.2], [0.3, 0.2], [0.1, 0.4]]),
            np.array([False, False, True, False, True]))
# The same shape six detectors wide, as on dense.
FLIPPING_WIDE = (np.array([[0.7, 0.7, 0.0, 0.6, 0.7, 0.5], [0.7, 0.7, 0.0, 0.6, 0.7, 0.5],
                           [0.1, 0.2, 0.3, -0.0, 0.2, 0.1], [0.3, 0.2, 0.4, 0.1, 0.0, 0.3],
                           [0.1, 0.4, 0.2, 0.3, 0.1, 0.0]]),
                 np.array([False, False, True, False, True]))
# Two positives and 18 negatives, as on dense: after step 2 the set holds
# the positives only, and the bias climbs until the hard negative (row 2)
# crosses margin 1 at step 1,171, after hundreds of skipped margin passes.
DRIFT = (np.array([[1.0, 0.8], [0.9, 0.8], [0.4, 0.6], [0.3, 0.2], [0.0, 0.3], [0.1, 0.3], [0.3, 0.4],
                   [0.3, 0.1], [0.2, 0.3], [0.3, 0.1], [0.3, 0.4], [0.3, 0.1], [0.4, 0.3], [0.3, 0.0],
                   [0.1, 0.3], [0.1, 0.0], [0.3, 0.3], [0.3, 0.1], [0.2, 0.0], [0.2, 0.3]]),
         np.array([True, True] + [False] * 18))
# One detector wide. A margin computed as exactly 1.0 at a pass that finds
# the last set, so that pass leaves no room to skip.
EXACT_ONE = (np.array([[0.375], [0.375], [0.75], [0.5]]), np.array([True, True, False, True]))
# One detector wide. A margin that rounds across 1 while the bound on its
# move stays below its computed distance from 1: only the rounding
# allowance makes the fit form the margins at that step.
ROUNDED_CROSSING = (np.array([[0.3059072947098821], [0.7861890957836055], [0.29578810225576124]]),
                    np.array([False, True, True]))


@settings(max_examples=50, deadline=None)
@given(designs())
@example(STABLE)
@example(FLIPPING)
@example(FLIPPING_WIDE)
@example(DRIFT)
@example(EXACT_ONE)
@example(ROUNDED_CROSSING)
@example((np.zeros((3, 2)), np.array([True, False, True])))
def test_weighted_sum_fit_equals_reference_bit_for_bit(design):
    x, targets = design
    detector_ids = tuple("abcdef"[: x.shape[1]])
    try:
        expected = repr(reference_fit(x, np.where(targets, 1.0, -1.0), detector_ids))
    except ValueError:  # every weight zero
        with pytest.raises(InsufficientData):
            baselines.fit_weighted_sum(x, targets, detector_ids)
    else:
        assert repr(baselines.fit_weighted_sum(x, targets, detector_ids)) == expected


def with_entry(design, row, column, value):
    x, targets = design
    x = x.copy()
    x[row, column] = value
    return x, targets


# NaN and infinite features, whose margins are NaN (inf * 0.0, inf - inf)
# or infinite, and magnitudes near 1e300, whose bound overflows: no pass may
# be skipped on a NaN. At 1e150 the fit still skips.
@pytest.mark.parametrize("design", [
    with_entry(DRIFT, 3, 0, math.nan), with_entry(DRIFT, 3, 0, math.inf), with_entry(STABLE, 0, 0, -math.inf),
    (STABLE[0] * 1e300, STABLE[1]), (DRIFT[0] * 1e300, DRIFT[1]), (STABLE[0] * 1e150, STABLE[1]),
], ids=["nan", "inf", "-inf", "stable-1e300", "drift-1e300", "stable-1e150"])
def test_weighted_sum_fit_on_non_finite_or_huge_features_equals_reference(design):
    x, targets = design
    detector_ids = tuple("abcdef"[: x.shape[1]])

    def outcome(fit):
        try:
            return repr(fit())
        except ValueError as exc:  # a weight or the bias is not finite
            return repr(exc)

    with np.errstate(all="ignore"):  # products past 1e308 are inf, inf - inf and inf * 0.0 NaN
        expected = outcome(lambda: reference_fit(x, np.where(targets, 1.0, -1.0), detector_ids))
        assert outcome(lambda: baselines.fit_weighted_sum(x, targets, detector_ids)) == expected


def margin_passes(x, targets):
    """The steps (from 1) at which ``fit_weighted_sum`` forms the margins,
    each found by the w it hands ``np.matmul`` among the reference's w of
    each step; and the reference's margins at each step."""
    detector_ids, steps, handed, real_matmul = tuple("abcdef"[: x.shape[1]]), [], [], np.matmul
    reference_fit(x, np.where(targets, 1.0, -1.0), detector_ids, steps=steps)

    def matmul(features, w, out):
        handed.append(w.tobytes())
        return real_matmul(features, w, out=out)

    with mock.patch.object(np, "matmul", matmul):
        baselines.fit_weighted_sum(x, targets, detector_ids)
    passes, t = [], 0
    for w in handed:
        t = next(i for i in range(t, len(steps)) if steps[i][0].tobytes() == w) + 1
        passes.append(t)
    return passes, [margin for _, margin in steps]


def test_weighted_sum_examples_reach_the_cases_they_name():
    # DRIFT's set changes at steps 2 and 1,171 only; the fit skips a run of
    # hundreds of steps before it forms the margins at 1,171.
    passes, margins = margin_passes(*DRIFT)
    sets = [(margin < 1.0).tobytes() for margin in margins]
    assert [t for t in range(2, len(sets) + 1) if sets[t - 1] != sets[t - 2]] == [2, 1171]
    before = [t for t in passes if t <= 1171]
    assert before[-1] == 1171 and max(b - a for a, b in zip(before, before[1:])) >= 300
    assert len(passes) < 100
    # EXACT_ONE computes a margin of exactly 1.0 at a pass that finds the last set.
    passes, margins = margin_passes(*EXACT_ONE)
    sets = [(margin < 1.0).tobytes() for margin in margins]
    assert len(passes) < 2000
    assert any(sets[t - 1] == sets[t - 2] and (margins[t - 1] == 1.0).any() for t in passes[1:])


# ---- fused output and model files -------------------------------------------


@pytest.fixture(scope="module")
def files_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


@settings(max_examples=50, deadline=None)
@given(corpora(), trust_models(), st.sampled_from(pipeline.BELIEF_METHODS))
@example(SAME, CERTAIN_MODELS, "dbf")
@example(SAME, CERTAIN_MODELS, "static-dst")
def test_fused_lines_score_their_joint_mass(files_dir, corpus, models, method):
    fused = pipeline.fuse_corpus(as_columns(corpus), models, "object", method)
    path = files_dir / "fused.jsonl"
    io.write_fused([fused], path)
    columns = io.read_fused(path)
    assert len(columns) == len(fused)
    for score, (m_target, m_nontarget, _) in zip(columns.scores.tolist(), columns.joints.tolist()):
        assert score == m_target - m_nontarget


def fused_rows(fused):
    """The rows of fused columns, in their order."""
    return list(zip(fused.classes.decoded(), fused.images.decoded(), fused.scores.tolist(),
                    fused.boxes.tolist(), fused.detectors.decoded(), fused.joints.tolist()))


def output_order(fused):
    """The rows of fused columns in a fused file's order: class, image,
    descending score, box; a stable sort."""
    return sorted(fused_rows(fused), key=lambda row: (row[0], row[1], -row[2], row[3]))


# One detector's two windows with one score, overlapping but on different
# boxes: NMS must keep the same one whichever comes first.
TIED = {"a": [Detection("img", "a", BoundingBox(0, 0, 10, 10), 1.0),
              Detection("img", "a", BoundingBox(0, 0, 10, 9), 1.0)]}


@settings(max_examples=50, deadline=None)
@given(corpora(), st.sampled_from(pipeline.METHODS), st.randoms(use_true_random=False))
@example(TIED, "dbf", random.Random(0))
@example(ODD_IDS, "dbf", random.Random(0))
def test_fused_output_does_not_depend_on_input_order(corpus, method, rng):
    models = _models(method)
    expected = output_order(pipeline.fuse_corpus(as_columns(corpus), models, "object", method))
    for order in (lambda xs: xs[::-1], lambda xs: rng.sample(xs, len(xs))):
        reordered = {det_id: order(corpus[det_id]) for det_id in order(sorted(corpus))}
        got = output_order(pipeline.fuse_corpus(as_columns(reordered), models, "object", method))
        assert repr(got) == repr(expected)


def reference_jsonl(rows, config):
    """The text of the per-line writer the template writer replaced: one
    ``json.dumps(row, sort_keys=True)`` per line, after a provenance header
    when ``config`` is given."""
    lines = []
    if config is not None:
        lines.append(json.dumps({"_header": True, "config": config}, sort_keys=True))
    lines.extend(json.dumps(row, sort_keys=True) for row in rows)
    return "\n".join(lines) + "\n"


def reference_bbox(box):
    return [box.x_min, box.y_min, box.x_max, box.y_max]


def reference_detection_row(d, class_label):
    return {"image_id": d.image_id, "detector_id": d.detector_id, "class": class_label,
            "bbox": reference_bbox(d.box), "score": d.score}


def reference_annotation_row(g):
    # Ground truth holds its boxes as floats.
    return {"image_id": g.image_id, "class": g.class_label, "bbox": list(map(float, reference_bbox(g.box))),
            "difficult": g.difficult}


def reference_fused_row(f):
    row = {"image_id": f.image_id, "class": f.class_label, "bbox": reference_bbox(f.box),
           "score": f.score, "source_detector_id": f.source_detector_id}
    if f.verdict is not None:
        row["joint"] = list(f.verdict.joint.as_tuple())
    return row


json_ids = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['say "hi"', "back\\slash", "\x00\t\n\x1f\x7f", "é", "日本", "\ud800", ""]),
)
json_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, 1e16, 1e-7, 0.1]),
)
json_numbers = st.one_of(json_floats, st.integers(-10**6, 10**6))


@st.composite
def any_boxes(draw, coordinate):
    """A box of any coordinates ``BoundingBox`` accepts."""
    x0, x1 = sorted(draw(st.lists(coordinate, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(coordinate, min_size=2, max_size=2, unique=True)))
    assume((x1 - x0) * (y1 - y0) > 0)
    return BoundingBox(x0, y0, x1, y1)


@st.composite
def generator_columns(draw):
    """Raw columns as ``SyntheticDataset.detections_for`` gives them: some
    rows of a detector's columns, every id name kept; each row of its own class."""
    dets = draw(st.lists(st.builds(Detection, json_ids, json_ids, any_boxes(json_floats), json_floats), max_size=4))
    classes = draw(st.lists(st.one_of(st.just("object"), json_ids), min_size=len(dets), max_size=len(dets)))
    return dataclasses.replace(DetectionColumns.of(dets), classes=Ids.of(classes)).take(np.array(draw(st.lists(
        st.booleans(), min_size=len(dets), max_size=len(dets))), dtype=bool))


# A detector that draws nothing on validation images, only on test images.
SPLIT = datagen.generate(0, 2, [datagen.SyntheticDetectorProfile(
    "det_a", detection_rate=1.0, fp_rate=0.0, validation_rate_scale=0.0)])
NO_ROW = SPLIT.detections_for("det_a", SPLIT.validation_image_ids)
NON_ASCII = DetectionColumns.of([Detection("é", "日本", BoundingBox(0.5, 0.0, 1.0, 1.0), 2.0),
                                 Detection("\ud800", "日本", BoundingBox(0.0, 0.0, 1.0, 1.0), 1.0)], "日本")
SIGNED_ZERO = DetectionColumns.of([Detection("i", "d", BoundingBox(-0.0, 0.0, 1.0, 1.0), -0.0)])


@settings(max_examples=200, deadline=None)
@given(
    generator_columns(),
    st.lists(st.builds(Obj, json_ids, json_ids, any_boxes(json_numbers), st.booleans()), max_size=4),
    # Columns hold floats, so fused boxes and scores are floats.
    st.lists(st.builds(FusedDetection, any_boxes(json_floats), json_ids, json_ids, json_floats,
                       st.one_of(st.none(), masses.map(FusedVerdict)), json_ids), max_size=4),
    st.one_of(st.none(), st.dictionaries(json_ids, st.one_of(json_ids, json_numbers), max_size=3)),
)
@example(NO_ROW, [], [], None)
@example(NON_ASCII, [], [], {"é": 1})
@example(SIGNED_ZERO, [], [], None)
def test_writers_write_what_json_dumps_wrote(files_dir, dets, gts, fused, config):
    path = files_dir / "written.jsonl"
    io.write_detections(dets, path, config=config)
    expected = reference_jsonl(map(reference_detection_row, dets, dets.classes.decoded()), config)
    assert path.read_text() == expected
    # A class_label that every row has writes the same text: it never relabels a row.
    labels = set(dets.classes.decoded())
    if len(labels) == 1:
        io.write_detections(dets, path, labels.pop(), config)
        assert path.read_text() == expected
    io.write_annotations(truths_of(gts), path, config)
    grouped = [g for objects in reference_grouping(gts).values() for g in objects]
    assert path.read_text() == reference_jsonl(map(reference_annotation_row, grouped), config)
    columns, half = fused_columns(fused), len(fused) // 2
    expected = reference_jsonl(map(reference_fused_row, fused), config)
    io.write_fused([columns], path, config)
    assert path.read_text() == expected
    # Laid out part by part, as fuse lays out its classes, the text is the same.
    io.write_fused([columns.take(slice(None, half)), columns.take(slice(half, None))], path, config)
    assert path.read_text() == expected


# ---- ground truth -----------------------------------------------------------


@st.composite
def ground_truth_objects(draw):
    """Objects of a few classes, interleaved, on repeated images, some
    difficult, drawn from one pool of boxes so that duplicates are common."""
    pool = draw(st.lists(boxes(), min_size=1, max_size=4))
    return [Obj(*row) for row in draw(st.lists(st.tuples(
        st.sampled_from(IMAGE_IDS), st.sampled_from(["dog", "cat", "object"]), st.sampled_from(pool),
        st.booleans()), max_size=12))]


# Two classes interleaved, each image's objects apart in the list, a
# duplicate box, and a class that is all difficult.
INTERLEAVED = [Obj("b", "dog", BoundingBox(0, 0, 1, 1)), Obj("a", "cat", BoundingBox(0, 0, 2, 2), True),
               Obj("b", "cat", BoundingBox(1, 1, 2, 2)), Obj("a", "dog", BoundingBox(0, 0, 1, 1)),
               Obj("b", "dog", BoundingBox(0, 0, 1, 1)), Obj("a", "cat", BoundingBox(0, 0, 2, 2)),
               Obj("a\0", "bird", BoundingBox(0, 0, 1, 1), True)]


@settings(max_examples=200, deadline=None)
@given(ground_truth_objects())
@example(INTERLEAVED)
@example([])
def test_truths_equal_the_per_class_grouping_bit_for_bit(objects):
    assert truth_rows(truths_of(objects)) == reference_truths(objects)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(Obj, st.one_of(st.sampled_from(["a", "b"]), json_ids),
                          st.one_of(st.sampled_from(["cat", "dog"]), json_ids),
                          any_boxes(json_numbers), st.booleans()), max_size=8))
@example(INTERLEAVED)
def test_annotations_read_back_as_written(files_dir, objects):
    gts = truths_of(objects)
    path = files_dir / "annotations.jsonl"
    io.write_annotations(gts, path, {"seed": 1})
    assert truth_rows(io.read_annotations(path)) == truth_rows(gts)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """A generated corpus with trust and baseline models built."""
    root = tmp_path_factory.mktemp("corpus")
    runner = CliRunner()
    generate = ["generate", "--out-dir", str(root / "data"), "--seed", "5", "--num-images", "40"]
    assert runner.invoke(main, generate).exit_code == 0
    for command in ("build-trust", "build-baselines"):
        result = runner.invoke(main, [
            command, "--detections-dir", str(root / "data" / "validation"),
            "--annotations", str(root / "data" / "validation" / "annotations.jsonl"),
            "--models-dir", str(root / "models"),
        ])
        assert result.exit_code == 0, result.output
    return root


@pytest.mark.parametrize("method", pipeline.METHODS)
def test_fuse_command_writes_what_the_reference_loop_and_writer_write(small_corpus, method):
    test_dir, models_dir = small_corpus / "data" / "test", small_corpus / "models"
    per_class = reference_load_detections_dir(test_dir)
    expected = []
    for label in sorted(per_class):
        models = cli._load_models(models_dir, label, sorted(per_class[label]), method)
        expected += reference_fuse_corpus(per_class[label], models, method, class_label=label)[0]
    expected.sort(key=lambda f: (f.class_label, f.image_id, -f.score, f.box.as_tuple()))
    assert expected
    for jobs in ("1", "2", "3"):
        out = small_corpus / f"fused_{method}_{jobs}.jsonl"
        result = CliRunner().invoke(main, [
            "fuse", "--method", method, "--detections-dir", str(test_dir),
            "--models-dir", str(models_dir), "--out", str(out), "--jobs", jobs,
        ])
        assert result.exit_code == 0, result.output
        header, lines = out.read_text().split("\n", 1)
        assert json.loads(header)["_header"] is True
        assert lines == reference_jsonl(map(reference_fused_row, expected), None)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def any_models(draw):
    """A trust, Platt, weighted-sum or likelihood model with arbitrary
    floats: subnormals, -0.0 and values far from any fitted one."""
    kind = draw(st.sampled_from(["trust", "platt", "ws", "likelihood"]))
    det_id = draw(st.text(min_size=1, max_size=4))
    if kind == "trust":
        n = draw(st.one_of(st.sampled_from(EXPONENTS), st.floats(1e-300, 1e300)))
        return TrustModel(det_id, draw(st.text(max_size=4)), draw(trust_tables()), n,
                          draw(st.integers(0, 10**6)))
    if kind == "platt":
        return PlattModel(det_id, draw(finite), draw(finite), draw(st.booleans()))
    if kind == "ws":
        ids = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
        weights = draw(st.lists(finite, min_size=len(ids), max_size=len(ids)))
        assume(any(w != 0.0 for w in weights))
        return WeightVector(tuple(ids), tuple(weights), draw(finite))
    bin_count = draw(st.integers(1, 32))
    bins = st.lists(st.floats(1e-6, 1), min_size=bin_count, max_size=bin_count)
    return likelihood(det_id, draw(bins), draw(bins))


def reference_model_dict(model):
    """The fields of a model's file, as each model class's own ``to_dict``
    wrote them before ``io`` held the one model-file codec."""
    if isinstance(model, TrustModel):
        return {
            "detector_id": model.detector_id,
            "class_label": model.class_label,
            "bpd_exponent": "inf" if math.isinf(model.bpd_exponent) else model.bpd_exponent,
            "num_validation_positives": model.num_validation_positives,
            "table": [
                {"score": t, "recall": r, "precision_raw": raw, "precision_monotone": p}
                for t, r, raw, p in model.table.tolist()
            ],
        }
    if isinstance(model, PlattModel):
        return {"detector_id": model.detector_id, "a": model.a, "b": model.b, "converged": model.converged}
    if isinstance(model, WeightVector):
        return {"detector_ids": list(model.detector_ids), "weights": list(model.weights), "bias": model.bias}
    return {
        "detector_id": model.detector_id,
        "target_bins": list(model.target_bins),
        "nontarget_bins": list(model.nontarget_bins),
    }


@settings(deadline=None)
@given(any_models())
def test_models_survive_their_model_file(files_dir, model):
    path = files_dir / "model.json"
    io.save_model(model, path)
    loaded = io.load_model(path)
    assert type(loaded) is type(model)
    # repr tells every float apart
    assert repr(reference_model_dict(loaded)) == repr(reference_model_dict(model))


def number_paths(value, path=()):
    """The path of every number in a parsed JSON value (booleans are not numbers)."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return [path] if type(value) in (int, float) else []
    return [p for key, v in items for p in number_paths(v, (*path, key))]


@settings(deadline=None)
@given(any_models(), st.data(), st.sampled_from([math.nan, "1.0", None]))
def test_a_model_file_with_one_bad_number_is_a_data_error(files_dir, model, data, bad):
    path = files_dir / "model.json"
    io.save_model(model, path)
    payload = json.loads(path.read_text())
    *parents, last = data.draw(st.sampled_from(number_paths(payload)))
    container = payload
    for key in parents:
        container = container[key]
    container[last] = bad
    path.write_text(json.dumps(payload))
    with pytest.raises(io.DataError) as excinfo:
        io.load_model(path)
    # The message names the file, then the top-level field that holds the bad value.
    message = str(excinfo.value).removeprefix(f"{path}: ")
    field = (*parents, last)[0]
    assert re.search(rf"\b{field}\b", message), (field, message)


# ---- validation PR table ----------------------------------------------------


def reference_pr_table(labeled, num_gt_positives):
    """The threshold loop ``build_pr_table`` ran before it shared its sweep
    and envelope with ``eval``: one row per run of equal scores, after the
    run's last detection, at the run's first score."""
    if num_gt_positives <= 0:
        raise InsufficientData("no ground-truth positives in validation set")
    decided = [(d, lab) for d, lab in labeled if lab is not MatchLabel.UNDECIDED]
    if not {lab for _, lab in decided} >= {MatchLabel.TRUE_POSITIVE, MatchLabel.FALSE_POSITIVE}:
        raise InsufficientData("need at least one true positive and one false positive")
    decided.sort(key=lambda t: (-t[0].score, t[0].detector_id, t[0].image_id))
    rows, tp, fp, i = [], 0, 0, 0
    while i < len(decided):
        threshold = decided[i][0].score
        while i < len(decided) and decided[i][0].score == threshold:
            if decided[i][1] is MatchLabel.TRUE_POSITIVE:
                tp += 1
            else:
                fp += 1
            i += 1
        rows.append((threshold, tp / num_gt_positives, tp / (tp + fp)))
    table, envelope = [], 0.0
    for threshold, recall, precision in reversed(rows):
        envelope = max(envelope, precision)
        table.append([threshold, recall, precision, envelope])
    return table[::-1]


def reference_table_check(table, bpd_exponent, positives):
    """``TrustModel``'s checks as the per-row loop they were before the
    table became one array; rows as ``reference_pr_table`` gives them."""
    if not table:
        raise ValueError("trust model table must be nonempty")
    thresholds = [row[0] for row in table]
    if not all(map(math.isfinite, thresholds)):
        raise ValueError("table thresholds must be finite")
    if any(a >= b for a, b in zip(thresholds[1:], thresholds)):
        raise ValueError("table thresholds must be strictly descending")
    if not bpd_exponent > 0:
        raise ValueError(f"bpd exponent must be positive, got {bpd_exponent}")
    if not (isinstance(positives, int) and positives >= 0):
        raise ValueError(f"validation positives must be a count, got {positives!r}")
    for i, (_, recall, precision_raw, precision) in enumerate(table):
        rates_ok = 0.0 <= recall <= 1.0 and 0.0 <= precision <= 1.0
        if not (rates_ok and 0.0 <= precision_raw <= 1.0):  # false for NaN too
            raise ValueError(f"table row {i}: recall and precision must be in [0, 1]")


@st.composite
def checked_tables(draw):
    """PR tables, some with one value made bad: not finite, outside [0, 1]
    or out of threshold order."""
    table = draw(trust_tables())
    if draw(st.booleans()):
        row, column = draw(st.integers(0, len(table) - 1)), draw(st.integers(0, 3))
        table[row][column] = draw(st.sampled_from([math.nan, math.inf, -math.inf, -0.5, 1.5, 20.0, -20.0]))
    return table


@settings(deadline=None)
@given(checked_tables(), st.sampled_from([2.0, math.inf, 0.0, math.nan]), st.sampled_from([0, 7, -1]))
@example([], 2.0, 0)
def test_trust_model_checks_equal_row_loop(table, n, positives):
    try:
        reference_table_check(table, n, positives)
    except ValueError:
        with pytest.raises(ValueError):
            TrustModel("a", "object", table, n, positives)
        return
    model = TrustModel("a", "object", table, n, positives)
    assert repr(model.table.tolist()) == repr([[float(v) for v in row] for row in table])


@st.composite
def labeled_windows(draw):
    """Labeled validation windows in any order, with a few distinct scores
    (runs of equal scores, 0.0 and -0.0 among them) and some undecided."""
    score = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.floats(-5, 5, allow_nan=False))
    labeled = [
        (Detection(image_id, det_id, BoundingBox(0, 0, 1, 1), s), label)
        for det_id, image_id, s, label in draw(st.lists(st.tuples(
            st.sampled_from("ab"), st.sampled_from("xy"), score, st.sampled_from(MatchLabel),
        ), max_size=12))
    ]
    found = sum(lab is MatchLabel.TRUE_POSITIVE for _, lab in labeled)
    return labeled, found + draw(st.integers(0, 3))


def labeled_rows(*rows):
    return [(Detection(image_id, det_id, BoundingBox(0, 0, 1, 1), s), label)
            for det_id, image_id, s, label in rows]


TP, FP = MatchLabel.TRUE_POSITIVE, MatchLabel.FALSE_POSITIVE


@settings(max_examples=300, deadline=None)
@given(labeled_windows())
# One run: 0.0 ranks first (detector "a"), so the threshold is 0.0, not -0.0.
@example((labeled_rows(("a", "x", 0.0, TP), ("b", "x", -0.0, FP)), 1))
@example((labeled_rows(("b", "x", 0.0, TP), ("a", "y", -0.0, FP), ("a", "x", 1.0, FP)), 2))
# Precision rises down the table, so the envelope lifts the top row.
@example((labeled_rows(("a", "x", 1.0, FP), ("a", "x", 2.0, FP), ("a", "x", 0.5, TP),
                       ("a", "y", 0.25, TP)), 2))
@example((labeled_rows(("a", "x", 1.0, TP), ("a", "x", 1.0, TP)), 2))  # all true positives
@example((labeled_rows(("a", "x", 1.0, FP), ("b", "x", 1.0, MatchLabel.UNDECIDED)), 2))  # no true positive
@example((labeled_rows(("a", "x", 1.0, TP), ("a", "x", 0.5, FP)), 0))  # no positives
def test_pr_table_equals_threshold_loop(case):
    labeled, num_positives = case
    # build_pr_table ranks by score alone, ties in the order given: given
    # the decided rows by (detector, image), it ranks them by the
    # reference's key.
    decided = sorted((t for t in labeled if t[1] is not MatchLabel.UNDECIDED),
                     key=lambda t: (t[0].detector_id, t[0].image_id))
    scores = np.array([d.score for d, _ in decided], dtype=float)
    tp = np.array([lab is TP for _, lab in decided], dtype=bool)
    try:
        expected = reference_pr_table(labeled, num_positives)
    except InsufficientData:
        with pytest.raises(InsufficientData):
            build_pr_table(scores, tp, num_positives)
        return
    # repr tells every float apart, -0.0 from 0.0 too.
    assert repr(build_pr_table(scores, tp, num_positives).tolist()) == repr(expected)


# ---- average precision ------------------------------------------------------


def reference_pr_points(dets, gts, iou_threshold):
    """The per-detection loop ``evaluation._pr_points`` ran before it scored
    columns: a sort on (-score, image id, box) and a scalar ``iou`` scan of
    each detection's image."""
    num_positives = sum(1 for g in gts if not g.difficult)
    if num_positives == 0:
        raise NoGroundTruth("no non-difficult ground-truth objects")
    by_image = {}
    for j, g in enumerate(gts):
        by_image.setdefault(g.image_id, []).append(j)
    order = sorted(
        range(len(dets)),
        key=lambda i: (-dets[i].score, dets[i].image_id, dets[i].box.as_tuple()),
    )
    claimed, tp_flags, fp_flags = set(), [], []
    for i in order:
        det = dets[i]
        best_iou, best_j = 0.0, -1
        for j in by_image.get(det.image_id, []):
            o = iou(det.box, gts[j].box)
            if o > best_iou:
                best_iou, best_j = o, j
        if best_iou > iou_threshold and gts[best_j].difficult:
            continue
        if best_iou > iou_threshold and best_j not in claimed:
            claimed.add(best_j)
            tp_flags.append(1)
            fp_flags.append(0)
        else:
            tp_flags.append(0)
            fp_flags.append(1)
    tp, fp = np.cumsum(tp_flags), np.cumsum(fp_flags)
    recall = tp / num_positives
    precision = tp / np.maximum(tp + fp, 1)
    return recall, precision, int(tp[-1]) if len(tp) else 0, int(fp[-1]) if len(fp) else 0


def reference_ap(recall, precision, interpolation):
    if interpolation == "11-point":
        return sum(
            float(precision[recall >= t].max()) if (recall >= t).any() else 0.0
            for t in np.linspace(0.0, 1.0, 11)
        ) / 11.0
    r = np.concatenate(([0.0], recall, [1.0]))
    p = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(p) - 2, -1, -1):
        p[i] = max(p[i], p[i + 1])
    changes = np.where(r[1:] != r[:-1])[0]
    return float(np.sum((r[changes + 1] - r[changes]) * p[changes + 1]))


# "a" < "a\0" in Python's order; a numpy string array cannot tell them apart.
IMAGE_IDS = ["a", "a\0", "b", "img_10", "img_9"]


@st.composite
def ap_cases(draw):
    """Detections and one class's ground truths over a few images, drawn
    from one pool of boxes and scores so that duplicate boxes, score ties
    and box ties are common; some objects are difficult and some images
    have no ground truth."""
    pool = draw(st.lists(boxes(), min_size=1, max_size=6))
    score = st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(-5, 5, allow_nan=False))
    gts = [
        Obj(image, "object", b, difficult)
        for image, b, difficult in draw(st.lists(
            st.tuples(st.sampled_from(IMAGE_IDS[:4]), st.sampled_from(pool), st.booleans()),
            max_size=8,
        ))
    ]
    # Some detections sit on a ground truth, so true positives are common.
    where = st.tuples(st.sampled_from(IMAGE_IDS), st.sampled_from(pool))
    if gts:
        where = st.one_of(where, st.sampled_from([(g.image_id, g.box) for g in gts]))
    dets = [
        Detection(image, "d", b, s)
        for (image, b), s in draw(st.lists(st.tuples(where, score), max_size=20))
    ]
    return dets, gts


TIES = (
    [Detection(i, "d", BoundingBox(0, 0, 2, 2), 1.0) for i in ("a\0", "a", "a", "b")]
    + [Detection("a", "d", BoundingBox(0, 0, 1, 2), 1.0)],
    [Obj("a", "object", BoundingBox(0, 0, 2, 2)),
     Obj("a", "object", BoundingBox(0, 0, 2, 2), True),
     Obj("a\0", "object", BoundingBox(0, 0, 1, 2), True),
     Obj("b", "object", BoundingBox(1, 1, 3, 3))],
)


# Ranked TP, FP, TP, TP: precision rises after the false positive, so the
# envelope lifts it.
RISING = (
    [Detection("a", "d", b, s) for b, s in zip(
        [BoundingBox(i, 0, i + 1, 1) for i in (0, 5, 2, 3)], (0.9, 0.8, 0.7, 0.6))],
    [Obj("a", "object", BoundingBox(i, 0, i + 1, 1)) for i in (0, 2, 3)],
)


@settings(max_examples=300, deadline=None)
@given(ap_cases(), thresholds, st.sampled_from(["all-points", "11-point"]))
@example(TIES, 0.5, "all-points")
@example(TIES, 0.3, "11-point")
@example(RISING, 0.5, "all-points")
def test_ap_equals_scalar_reference_bit_for_bit(case, threshold, interpolation):
    dets, gts = case
    try:
        expected = reference_pr_points(dets, gts, threshold)
    except NoGroundTruth:
        with pytest.raises(NoGroundTruth):
            average_precision(DetectionColumns.of(dets), truths_of(gts).get("object"), threshold, interpolation)
        if dets and gts:  # with no ground truth at all there is no class to score
            with pytest.raises(NoGroundTruth):
                evaluate_method(DetectionColumns.of(dets), truths_of(gts), threshold, interpolation)
        return
    recall, precision, tp, fp = expected
    report = evaluate_method(DetectionColumns.of(dets), truths_of(gts), threshold, interpolation)
    samples = [[r, p] for r, p in zip(recall.tolist(), precision.tolist())] if dets else []
    # repr tells every float apart, -0.0 from 0.0 too.
    assert repr(report.pr_samples["object"].tolist()) == repr(samples)
    assert report.counts["object"] == {
        "num_gt": sum(not g.difficult for g in gts),
        "num_detections": len(dets), "tp": tp, "fp": fp,
    }
    ap = reference_ap(recall, precision, interpolation) if dets else 0.0
    assert repr(report.per_class_ap["object"]) == repr(ap)
    assert repr(average_precision(DetectionColumns.of(dets), truths_of(gts)["object"], threshold, interpolation)) == repr(ap)


CLASSES = ["cat", "dog"]


def columns_of(rows):
    """``DetectionColumns`` of (image id, class, box, score) rows."""
    return DetectionColumns(
        Ids.of([r[0] for r in rows]), Ids.of([r[1] for r in rows]),
        np.array([r[2].as_tuple() for r in rows], dtype=float).reshape(-1, 4),
        np.array([r[3] for r in rows], dtype=float), Ids.of(["d"] * len(rows)), np.full((len(rows), 3), np.nan),
    )


@st.composite
def method_cases(draw):
    """Ground truth of two classes, and methods whose rows are of a class of
    the ground truth or of a class it does not hold."""
    pool = draw(st.lists(boxes(), min_size=1, max_size=5))
    gts = [
        Obj(image, label, b, difficult)
        for image, label, b, difficult in draw(st.lists(
            st.tuples(st.sampled_from(IMAGE_IDS[:4]), st.sampled_from(CLASSES), st.sampled_from(pool),
                      st.booleans()),
            min_size=1, max_size=8,
        ))
    ]
    row = st.tuples(st.sampled_from(IMAGE_IDS), st.sampled_from([*CLASSES, "bird"]),
                    st.sampled_from(pool), st.sampled_from([0.0, 0.5, 1.0]))
    methods = draw(st.dictionaries(st.sampled_from("mnop"), st.lists(row, max_size=10), min_size=1, max_size=3))
    return {name: columns_of(rows) for name, rows in methods.items()}, gts


TWO_CLASSES = (
    # A raw file's rows of both classes: b's dog row is no false positive for cat.
    {"raw": columns_of([("a", "cat", BoundingBox(0, 0, 2, 2), 0.5), ("b", "dog", BoundingBox(1, 1, 3, 3), 1.0),
                        ("b", "cat", BoundingBox(1, 1, 3, 3), 0.25)]),
     "fused": columns_of([("a", "cat", BoundingBox(0, 0, 2, 2), 1.0), ("b", "bird", BoundingBox(1, 1, 3, 3), 0.5),
                          ("b", "dog", BoundingBox(1, 1, 3, 3), 0.5)]),
     "empty": columns_of([])},
    [Obj("a", "cat", BoundingBox(0, 0, 2, 2)),
     Obj("b", "dog", BoundingBox(1, 1, 3, 3)),
     Obj("b", "dog", BoundingBox(0, 0, 2, 2), True)],
)


@settings(deadline=None)
@given(method_cases(), thresholds)
@example(TWO_CLASSES, 0.5)
def test_evaluate_methods_equals_each_method_alone_per_class(case, threshold):
    methods, gts = case
    classes = sorted({g.class_label for g in gts})
    if any(all(g.difficult for g in gts if g.class_label == c) for c in classes):
        with pytest.raises(NoGroundTruth):
            evaluate_methods(methods, truths_of(gts), threshold)
        return
    reports = evaluate_methods(methods, truths_of(gts), threshold)
    assert list(reports) == sorted(methods)
    for name, dets in methods.items():
        assert list(reports[name].per_class_ap) == classes
        for c in classes:
            rows = np.array([i for i, label in enumerate(dets.classes.decoded()) if label == c], dtype=np.intp)
            alone = evaluate_method(dets.take(rows), truths_of([g for g in gts if g.class_label == c]), threshold)
            # repr tells every float apart, -0.0 from 0.0 too.
            assert repr(reports[name].per_class_ap[c]) == repr(alone.per_class_ap[c])
            assert repr(reports[name].pr_samples[c].tolist()) == repr(alone.pr_samples[c].tolist())
            assert reports[name].counts[c] == alone.counts[c]


# ---- report.json and model files --------------------------------------------

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
    st.sampled_from(["], [", ", ", '"', "\n", "é"]),
)
number = st.one_of(st.floats(), st.integers(-10**6, 10**6), st.sampled_from([0.0, -0.0, 1e-300]))
pr_curves = st.lists(st.one_of(st.tuples(number, number), st.lists(number, min_size=2, max_size=2)),
                     max_size=5)
json_values = st.recursive(
    st.one_of(json_scalars, pr_curves),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)


@given(json_values)
@example([["], [", ", "], [[1], "x"]])
@example({"pr": [[0.5, 1.0], [1, True]], "": [[None, 2.0]]})
@example({"table": [{"score": 1, "recall": -0.0}, {"}, {": 1e300, "\\": math.nan, "é": -math.inf}]})
@example([{"a": 1.0}, {}, {"a": True}])
def test_report_layout_equals_json_dumps_indent_2(payload):
    assert io.indent2(payload) == json.dumps(payload, indent=2)


@given(st.integers(1, 4).flatmap(lambda width: st.tuples(st.just(width), st.lists(
           st.lists(number.map(float), min_size=width, max_size=width), max_size=6))),
       st.integers(0, 5), st.booleans())
@example((2, [[0.0, -0.0], [-0.0, 0.0], [math.nan, math.inf]]), 4, False)
@example((3, [[1e-4, 1e16, 0.5], [math.nextafter(1e-4, 0), math.nextafter(1e16, 0), 5e-324]]), 1, True)
def test_laid_out_rows_equal_json_dumps_indent_2(table, depth, as_dicts):
    width, rows = table
    array = np.array(rows, dtype=float).reshape(len(rows), width)
    keys = tuple(f"k{i}" for i in range(width)) if as_dicts else None
    value = [dict(zip(keys, row)) for row in rows] if as_dicts else rows
    expected = json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)
    assert io.laid_out_rows(array, depth, keys) == expected


# The bounds of the range orjson writes as float.__repr__ does (0, or
# 1e-4 <= |x| < 1e16), each inside and just outside it.
RANGE_EDGES = [1e-4, math.nextafter(1e-4, 0), 1e16, math.nextafter(1e16, 0), -1e-4, -math.nextafter(1e16, 0),
               5e-324, 0.0, -0.0, 1.7976931348623157e308]


@given(st.lists(st.one_of(st.floats(), st.integers(), st.booleans(), st.sampled_from(RANGE_EDGES)), max_size=8))
@example([])
@example([math.nan])
@example([math.inf, 1.0])
@example([-math.inf])
@example([2**64, 1.5])  # past what orjson writes as an int
@example([3, True, 0.5, -0.0, False, -2**63])
@example([e for e in RANGE_EDGES if e == 0 or 1e-4 <= abs(e) < 1e16])  # all in range: written by orjson
@example([1e-4, 0.5, 1e16])
@example([math.nextafter(1e-4, 0), 2.0])
@example([math.nextafter(1e16, 0), 5e-324])
@example([1.7976931348623157e308, 0.0])
def test_json_numbers_equal_json_dumps_value_by_value(values):
    assert io._json_numbers(values) == [json.dumps(v) for v in values]


def test_report_file_equals_json_dumps_indent_2(tmp_path):
    # Two classes, raw rows scored against both. In "ranked", a false
    # positive ranked between the true positives repeats a recall value; an
    # empty input and the fused rows of one class give empty curves.
    b = BoundingBox(0, 0, 4, 4)
    gts = truths_of([Obj("i", "cat", b), Obj("i", "dog", b, True), Obj("j", "dog", BoundingBox(5, 5, 9, 9))])
    dets = [Detection("i", "d", b, 0.5), Detection("j", "d", BoundingBox(5, 5, 9, 8), 0.25)]
    ranked = [Detection("i", "d", b, 0.5), Detection("i", "d", BoundingBox(20, 20, 24, 24), 0.4),
              Detection("k", "d", b, 0.3), Detection("j", "d", BoundingBox(5, 5, 9, 9), 0.25)]
    dog = columns_of([("j", "dog", BoundingBox(5, 5, 9, 9), 1.0)])
    reports = evaluate_methods({"raw": DetectionColumns.of(dets), "ranked": DetectionColumns.of(ranked),
                                "none": DetectionColumns.of([]), "dog": dog}, gts)
    config = {"out": 'a "quoted" path', "n": math.inf, "jobs": 1}
    path = tmp_path / "report.json"
    write_reports_json(reports, path, config=config)
    payload = {"format_version": 1, "config": config,
               "methods": {name: reports[name].to_dict() for name in sorted(reports)}}
    assert path.read_text() == json.dumps(payload, indent=2) + "\n"


KINDS = {TrustModel: "trust_model", PlattModel: "platt_model", WeightVector: "weight_vector",
         ScoreLikelihood: "score_likelihood"}


@settings(deadline=None)
@given(any_models(), st.one_of(st.none(), st.dictionaries(st.text(max_size=4), json_scalars, max_size=3)))
def test_model_file_equals_json_dumps_indent_2(files_dir, model, config):
    path = files_dir / "model.json"
    io.save_model(model, path, config)
    payload = {"format_version": 1, "kind": KINDS[type(model)], **reference_model_dict(model)}
    if config is not None:
        payload["config"] = config
    assert path.read_text() == json.dumps(payload, indent=2) + "\n"



# ---- JSON-lines readers -----------------------------------------------------


def reference_rows(path):
    """The per-line reader the column parser replaced, with three amendments:
    a line that is not a JSON object is rejected (it used to end in a
    TypeError, or be skipped when it contained ``"_header"``), a fused
    line's score must be finite, like a detection's, and a ``bbox`` must be
    a JSON array (``reference_box``; a string was read character by
    character)."""
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError(f"line {lineno} is not an object")
        if "_header" in obj:
            continue
        yield obj


def reference_box(raw):
    if not isinstance(raw, list):
        raise ValueError("bbox must be a JSON array")
    x_min, y_min, x_max, y_max = (float(v) for v in raw)
    return BoundingBox(x_min, y_min, x_max, y_max)


def reference_id(raw):
    """An id: a JSON string, or a finite number read as its text (``str``).
    ``null``, a boolean, NaN, an infinity, an array or an object is none."""
    if isinstance(raw, str) or (type(raw) in (int, float) and raw == raw and abs(raw) != math.inf):
        return str(raw)
    raise ValueError(f"not an id: {raw!r}")


def reference_detections(path):
    """(class, detection) per line, in file order."""
    return [
        (reference_id(obj.get("class", "object")),
         Detection(reference_id(obj["image_id"]), reference_id(obj["detector_id"]),
                   reference_box(obj["bbox"]), float(obj["score"])))
        for obj in reference_rows(path)
    ]


def reference_detections_by_class(path):
    by_class = {}
    for label, det in reference_detections(path):
        by_class.setdefault(label, []).append(det)
    return by_class


def reference_fused(path):
    fused = []
    for obj in reference_rows(path):
        verdict = FusedVerdict(Bpa.exact(*obj["joint"])) if "joint" in obj else None
        box = reference_box(obj["bbox"])
        image_id, label, score = reference_id(obj["image_id"]), reference_id(obj["class"]), float(obj["score"])
        if not math.isfinite(score):
            raise ValueError("fused score must be finite")
        fused.append(FusedDetection(box, image_id, label, score, verdict,
                                    reference_id(obj.get("source_detector_id", ""))))
    return fused


def reference_annotations(path):
    gts = []
    for obj in reference_rows(path):
        difficult = obj.get("difficult", False)
        if not isinstance(difficult, bool):
            raise ValueError("difficult must be a boolean")
        gts.append(Obj(reference_id(obj["image_id"]), reference_id(obj["class"]), reference_box(obj["bbox"]),
                       difficult))
    return gts


def column_rows(columns):
    """Every row of ``DetectionColumns``; repr tells NaN joints apart."""
    return repr(list(zip(columns.images.decoded(), columns.classes.decoded(), columns.boxes.tolist(),
                         columns.scores.tolist(), columns.detectors.decoded(), columns.joints.tolist())))


READERS = [
    (lambda p: {label: column_rows(rows) for label, rows in io.read_detections_by_class(p).items()},
     lambda p: {label: column_rows(DetectionColumns.of(dets, label))
                for label, dets in reference_detections_by_class(p).items()}),
    # In file order, each row of its line's class: the old reader grouped the rows by class.
    (lambda p: column_rows(io.read_detections(p)),
     lambda p: column_rows(DetectionColumns.concat([DetectionColumns.of([d], label)
                                                    for label, d in reference_detections(p)]))),
    (lambda p: column_rows(io.read_fused(p)),
     lambda p: column_rows(fused_columns(reference_fused(p)))),
    (lambda p: truth_rows(io.read_annotations(p)), lambda p: reference_truths(reference_annotations(p))),
]

coordinate = st.one_of(
    st.integers(-3, 12), st.floats(-3, 12), st.booleans(),
    st.sampled_from(["1.5", " 2 ", "1_0", "x", "nan", float("nan"), float("inf"), 1e-310, None]),
)
good_box = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(6, 12), st.integers(6, 12)).map(list)
# Accepted, but only by the line-by-line path: float() reads strings and booleans.
odd_box = good_box.map(lambda b: [str(b[0]), False, f" {b[2]}.5 ", b[3]])
field_values = {
    "image_id": st.one_of(st.text(max_size=4), st.integers(), st.none(), st.lists(st.integers(), max_size=2)),
    "detector_id": st.one_of(st.text(max_size=3), st.integers(), st.floats(), st.booleans()),
    "class": st.one_of(st.sampled_from(["object", "cat"]), st.integers(), st.none(), st.booleans(),
                       st.dictionaries(st.text(max_size=1), st.integers(), max_size=1)),
    "source_detector_id": st.one_of(st.text(max_size=3), st.none(), st.floats()),
    "bbox": st.one_of(good_box, odd_box, st.lists(coordinate, min_size=3, max_size=5),
                      st.sampled_from([[5, 0, 5, 10], [0, 0, 1e-200, 1e-200], [0, 0, 1e-160, 1e-160]]),
                      st.text(max_size=4), st.integers(), st.none()),
    "score": st.one_of(st.floats(-10, 10), coordinate, st.sampled_from(["0.5", True, "-1e3"]),
                       st.lists(st.integers(), max_size=1), st.integers(-10**30, 10**30)),
    "joint": st.one_of(
        st.sampled_from([[0.5, 0.25, 0.25], [1, 0, 0], [True, False, False], [0.5, 0.5, -0.0],
                         [1.5, -0.5, 0.0], [0.5, 0.5, 1e-7], [0.5, 0.5, 2e-6],
                         [0.2922489550617629, 0.4549249442515907, 0.2528261006866465]]),
        st.lists(coordinate, min_size=2, max_size=4), st.none(), st.text(max_size=3),
    ),
    "difficult": st.one_of(st.booleans(), st.sampled_from([0, 1, "false", None])),
}
GOOD = {"image_id": "i", "detector_id": "d", "class": "object", "bbox": [0, 0, 5, 5], "score": 1.5}


@st.composite
def jsonl_texts(draw):
    """A file of lines: mostly well-formed rows with some fields redrawn or
    left out, headers, blank lines, and stray text."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row", "row", "row", "odd", "joint", "header", "blank", "junk"]))
        if kind == "joint":
            lines.append(json.dumps({**GOOD, "joint": draw(field_values["joint"])}))
        elif kind == "odd":
            lines.append(json.dumps({**GOOD, "image_id": 7, "bbox": draw(odd_box),
                                     "score": draw(st.sampled_from(["0.5", True, " 2 "]))}))
        elif kind == "row":
            row = dict(GOOD)
            for name in draw(st.lists(st.sampled_from(sorted(field_values)), max_size=3)):
                row[name] = draw(field_values[name])
            for name in draw(st.lists(st.sampled_from(sorted(row)), max_size=1)):
                del row[name]
            lines.append(json.dumps(row))
        elif kind == "header":
            lines.append(json.dumps({"_header": True, "config": {"seed": 1}}))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        else:
            lines.append(draw(st.one_of(
                st.sampled_from(["5", '"x_header"', "[1, 2]", "null", "{not json", '{"a": [{}',
                                 "{}]}, {}", "\ufeff{}", "[" * 3000, json.dumps(GOOD) + " {}"]),
                st.text(max_size=12),
            )))
    return "\n".join(lines)


@pytest.fixture(scope="module")
def jsonl_path(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonl") / "lines.jsonl"


# Ids that a numpy string array would cut short or sort apart, and number ids,
# which every reader reads as their text.
ODD_ID_LINES = "\n".join(
    json.dumps({**GOOD, "image_id": i, "detector_id": d, "class": c, "source_detector_id": d})
    for i, d, c in [("a\0", "d\0", "cat"), ("a", "d", "object"), ("é", 7, "cat\0"), (7, "Z", "日本"), ("7", "é", "cat")]
)


@settings(max_examples=400, deadline=None)
@given(jsonl_texts())
@example('{"a": [{}\n{}]}, {"b": [{}\n{}]}')
@example(json.dumps(GOOD) + " {}")  # a second value after the object
@example(json.dumps({**GOOD, "bbox": [0, 0, 1e-200, 1e-200]}))  # the area underflows to 0
@example(json.dumps({**GOOD, "score": math.nan}))
@example(json.dumps({**GOOD, "joint": [1.5, -0.5, 0.0], "difficult": 0}))
@example(json.dumps({**GOOD, "joint": ["0.5", "0.5", "0"]}))  # float() would take these
@example(json.dumps({**GOOD, "joint": [0.5, 0.5, 0.0], "difficult": True}) + "\n\n")
@example(json.dumps({**GOOD, "bbox": "0519"}))  # iterated, it would read as [0, 5, 1, 9]
@example(ODD_ID_LINES)
# An id that is neither a string nor a finite number is a data error, not an id spelled "None", "True" or "nan".
@example(json.dumps({**GOOD, "class": None}))
@example(json.dumps({**GOOD, "image_id": True, "source_detector_id": False}))
@example(json.dumps({**GOOD, "detector_id": math.nan}) + "\n" + json.dumps({**GOOD, "class": -math.inf}))
@example(json.dumps({**GOOD, "image_id": 2.5, "detector_id": -0.0, "class": 10**30}))  # read as their text
# orjson reads an integer past 64 bits as a float: ids must still read as json's int.
@example(json.dumps({**GOOD, "image_id": 10**30, "detector_id": 2**64, "source_detector_id": -2**63 - 1}))
@example(json.dumps({**GOOD, "score": 1234567890123456789012345}))  # 25 digits, read as a float
# Tokens json takes and orjson rejects; the line-by-line path reads them.
@example(json.dumps({**GOOD, "score": 0.5}).replace("0.5", "1e400"))
@example(json.dumps({**GOOD, "score": math.nan}) + "\n" + json.dumps({**GOOD, "bbox": [0, 0, math.inf, 5]}))
@example(json.dumps({**GOOD, "image_id": "\ud800"}))  # an escaped lone surrogate
@example(json.dumps(GOOD)[:-1] + ', "image_id": "j", "score": 2.5}')  # duplicate keys: the last one counts
def test_readers_accept_what_the_per_line_reader_does(jsonl_path, text):
    jsonl_path.write_text(text)
    for reader, reference in READERS:
        try:
            expected = reference(jsonl_path)
        except Exception:  # any failure: the line-by-line reader rejects the file
            expected = None
        try:
            got = reader(jsonl_path)
        except io.DataError:
            got = None
        assert (got is None) == (expected is None), (reader, text)
        assert got == expected
    try:
        io.read_any_detections(jsonl_path)
    except io.DataError:
        pass


def test_ordinary_files_are_read_without_the_line_by_line_path(small_corpus, tmp_path, monkeypatch):
    # With the line-by-line path refusing to run, a generated corpus's
    # detector and annotation files and the fused files of a belief and a
    # baseline method must still read: orjson took every line.
    monkeypatch.setattr(io, "_checked_rows", mock.Mock(side_effect=AssertionError("read line by line")))
    runner = CliRunner()
    for method in ("dbf", "ws"):
        result = runner.invoke(main, ["fuse", "--method", method, "--detections-dir",
                                      str(small_corpus / "data" / "test"), "--models-dir",
                                      str(small_corpus / "models"), "--out", str(tmp_path / f"{method}.jsonl")])
        assert result.exit_code == 0, result.output
        assert len(io.read_fused(tmp_path / f"{method}.jsonl")) > 0
    read = 0
    for path in sorted((small_corpus / "data").glob("*/*.jsonl")):
        read += len(io.read_annotations(path) if path.name == "annotations.jsonl" else io.read_detections(path))
    assert read > 0
    assert not io._checked_rows.called


def reference_load_detections_dir(root):
    """The object loader ``cli._load_detections_dir`` replaced: class ->
    detector -> ``Detection``s, files in sorted order, lines in file order."""
    per_class = {}
    for path in sorted(f for f in Path(root).glob("*.jsonl") if f.name != "annotations.jsonl"):
        for label, dets in reference_detections_by_class(path).items():
            for d in dets:
                per_class.setdefault(label, {}).setdefault(d.detector_id, []).append(d)
    return per_class


detection_rows = st.fixed_dictionaries({
    "image_id": st.sampled_from(["i0", "i1", "i2"]), "class": st.sampled_from(["object", "cat"]),
    "bbox": good_box, "score": st.one_of(scores, st.just(-0.0)),
})


@settings(max_examples=50, deadline=None)
@given(st.lists(detection_rows, max_size=8), st.lists(detection_rows, max_size=8), st.data())
def test_detections_dir_loads_as_the_object_loader_grouped_it(tmp_path_factory, a_rows, b_rows, data):
    # Detector a's lines are split across two files, which sort before and
    # after detector b's file; a third file holds lines of both, and the
    # classes interleave.
    root = tmp_path_factory.mktemp("split")
    cut = data.draw(st.integers(0, len(a_rows)))
    files = {
        "a.jsonl": [{**r, "detector_id": "a"} for r in a_rows[:cut]],
        "b.jsonl": [{**r, "detector_id": "b"} for r in b_rows[:2]],
        "c.jsonl": [{**r, "detector_id": d} for r, d in zip(b_rows[2:], "bab" * 3)],
        "d.jsonl": [{**r, "detector_id": "a"} for r in a_rows[cut:]],
        "annotations.jsonl": [{"image_id": "i0", "class": "dog", "bbox": [0, 0, 1, 1]}],
    }
    for name, rows in files.items():
        (root / name).write_text("".join(json.dumps(r) + "\n" for r in rows))
    expected = reference_load_detections_dir(root)
    got = cli._load_detections_dir(str(root))
    assert [(label, list(per_det)) for label, per_det in got.items()] == \
        [(label, list(per_det)) for label, per_det in expected.items()]
    for label, per_det in expected.items():
        for det_id, dets in per_det.items():
            assert column_rows(got[label][det_id]) == column_rows(DetectionColumns.of(dets, label))


# ---- id columns -------------------------------------------------------------

# Names that sort apart only by a trailing NUL, by case or past ASCII, and the empty name.
ID_NAMES = ["a", "a\0", "B", "é", "", "7"]
id_rows = st.lists(st.tuples(*[st.sampled_from(ID_NAMES)] * 3), max_size=8)


def id_columns(rows):
    """``DetectionColumns`` of (image, class, detector) rows; each
    row's box and score tell it apart from the others."""
    images, classes, detectors = zip(*rows) if rows else ((), (), ())
    return DetectionColumns(
        Ids.of(list(images)), Ids.of(list(classes)),
        np.array([(k, 0, k + 1, 1) for k in range(len(rows))], dtype=float).reshape(-1, 4),
        np.arange(len(rows), dtype=float), Ids.of(list(detectors)), np.full((len(rows), 3), np.nan),
    )


def id_rows_of(columns):
    """Each row's (image, class, detector) names and score."""
    return list(zip(columns.images.decoded(), columns.classes.decoded(), columns.detectors.decoded(),
                    columns.scores.tolist()))


@settings(max_examples=200, deadline=None)
@given(id_rows, id_rows, st.data())
@example([("a", "", "a\0")], [("é", "B", "7")], None)  # disjoint names in every column
def test_id_columns_take_split_and_concat_rows_by_name(first, second, data):
    columns = id_columns(first)
    rows = id_rows_of(columns)
    picked = data.draw(st.lists(st.integers(0, len(first) - 1), max_size=8)) if first and data else []
    taken = columns.take(np.array(picked, dtype=np.intp))
    # A take keeps names no picked row has; rows, equality and written lines
    # go by name, as if the picked rows had been coded afresh.
    fresh = dataclasses.replace(id_columns([first[i] for i in picked]), boxes=taken.boxes, scores=taken.scores)
    assert id_rows_of(taken) == [rows[i] for i in picked]
    assert taken == fresh and taken.images.names == columns.images.names
    assert io.fused_lines(taken) == io.fused_lines(fresh)
    # Each image's rows in row order, images in order of first appearance.
    by_image = {}
    for i, image in enumerate(columns.images.decoded()):
        by_image.setdefault(image, []).append(rows[i])
    split = columns.split(columns.images)
    assert list(split) == list(by_image)
    assert {image: id_rows_of(part) for image, part in split.items()} == by_image
    # A concat's codes count the names its rows use, in Python's order; a
    # take's or split's names that no row has are left out.
    parts = [taken, *list(split.values())[:1], id_columns(second)]
    joined = DetectionColumns.concat(parts)
    assert id_rows_of(joined) == [row for part in parts for row in id_rows_of(part)]
    for ids in (joined.images, joined.classes, joined.detectors):
        names = sorted(set(ids.decoded()))
        assert ids.names == tuple(names)
        assert ids.codes.tolist() == [names.index(name) for name in ids.decoded()]


# ---- synthetic scenes -------------------------------------------------------


def reference_clipped_normal(rng, mean, std):
    lo, hi = datagen.SCORE_CLIP
    return float(np.clip(rng.normal(mean, std), lo, hi))


def reference_random_box(rng):
    w = rng.uniform(40.0, 120.0)
    h = rng.uniform(40.0, 120.0)
    x = rng.uniform(0.0, datagen.CANVAS_WIDTH - w)
    y = rng.uniform(0.0, datagen.CANVAS_HEIGHT - h)
    return (x, y, x + w, y + h)


def reference_jittered(rng, box, jitter):
    if jitter == 0.0:
        return box
    dx1, dy1, dx2, dy2 = rng.normal(0.0, jitter, size=4)
    x_min, y_min = box[0] + dx1, box[1] + dy1
    return (x_min, y_min, max(box[2] + dx2, x_min + 1.0), max(box[3] + dy2, y_min + 1.0))


def reference_generate(seed, num_images, profiles, objects_per_image_range=(1, 3), num_easy_groups=None):
    """The generator that drew each value with its own numpy call: scores
    clipped by ``np.clip``, four ``uniform`` calls per box, jitter added as
    numpy scalars and each object's rate looked up on its own. Returns
    (images, validation image ids, each detector's columns)."""
    lo, hi = objects_per_image_range
    num_groups = num_easy_groups if num_easy_groups is not None else len(profiles)
    rng = np.random.default_rng(seed)
    images = []
    object_groups = {}
    global_index = 0
    validation_ids = set()
    for i in range(num_images):
        image_id = f"img_{i:05d}"
        if i < num_images // 2:
            validation_ids.add(image_id)
        n_obj = int(rng.integers(lo, hi + 1))
        boxes = []
        for _ in range(n_obj):
            for _ in range(200):
                cand = reference_random_box(rng)
                if all(not datagen._boxes_overlap(cand, b) for b in boxes):
                    boxes.append(cand)
                    break
            else:
                raise datagen.ConfigError(f"could not place {n_obj} non-overlapping objects on the canvas")
        for k in range(len(boxes)):
            object_groups[(image_id, k)] = global_index % num_groups
            global_index += 1
        images.append((image_id, boxes))

    detections = {}
    for profile in profiles:
        rows = []
        for image_id, boxes in images:
            validation = image_id in validation_ids
            for k, gt_box in enumerate(boxes):
                rate = profile.rate_for(object_groups[(image_id, k)], validation, num_groups)
                if rng.random() < rate:
                    box = reference_jittered(rng, gt_box, profile.localization_jitter)
                    rows.append((image_id, box, reference_clipped_normal(rng, profile.tp_score_mean,
                                                                         profile.tp_score_std)))
            for _ in range(int(rng.poisson(profile.fp_rate))):
                box = reference_random_box(rng)
                rows.append((image_id, box, reference_clipped_normal(rng, profile.fp_score_mean,
                                                                     profile.fp_score_std)))
        detections[profile.detector_id] = DetectionColumns(
            Ids.of([r[0] for r in rows]), Ids.of(["object"] * len(rows)),
            np.array([r[1] for r in rows], dtype=float).reshape(-1, 4), np.array([r[2] for r in rows], dtype=float),
            Ids.of([profile.detector_id] * len(rows)), np.full((len(rows), 3), np.nan))
    return images, frozenset(validation_ids), detections


unit_rates = st.floats(0.0, 1.0)


@st.composite
def scene_profiles(draw):
    """1-4 detector profiles: jitter zero or not, fp_rate zero or not,
    validation rates scaled or not, easy groups or none."""
    return [datagen.SyntheticDetectorProfile(
        f"det_{k}",
        tp_score_mean=draw(st.floats(-5.0, 15.0)), tp_score_std=draw(st.floats(0.0, 4.0)),
        fp_score_mean=draw(st.floats(-5.0, 15.0)), fp_score_std=draw(st.floats(0.0, 4.0)),
        detection_rate=draw(unit_rates),
        fp_rate=draw(st.one_of(st.just(0.0), st.floats(0.0, 6.0))),
        localization_jitter=draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0))),
        easy_group=draw(st.one_of(st.none(), st.integers(-2, 5))),
        easy_detection_rate=draw(st.one_of(st.none(), unit_rates)),
        validation_rate_scale=draw(st.one_of(st.just(1.0), st.floats(0.0, 3.0))),
    ) for k in range(draw(st.integers(1, 4)))]


object_ranges = st.one_of(st.just((0, 0)), st.integers(0, 4).flatmap(lambda lo: st.tuples(st.just(lo),
                                                                                         st.integers(lo, 4))))
CLIPPED_BOTH_ENDS = [datagen.SyntheticDetectorProfile("det_0", tp_score_mean=-5.0, fp_score_mean=15.0,
                                                      detection_rate=1.0, fp_rate=3.0),
                     datagen.SyntheticDetectorProfile("det_1", tp_score_mean=15.0, fp_score_mean=-5.0)]
# A zero std draws -0.0 + 0.0 * z: -0.0 for every z below zero.
NEGATIVE_ZERO = [datagen.SyntheticDetectorProfile("det_0", tp_score_mean=-0.0, tp_score_std=0.0,
                                                  detection_rate=1.0, localization_jitter=0.0)]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 30), scene_profiles(), object_ranges,
       st.one_of(st.none(), st.integers(1, 5)))
@example(3, 20, CLIPPED_BOTH_ENDS, (1, 3), None)
@example(5, 20, NEGATIVE_ZERO, (2, 4), None)
def test_generate_draws_what_one_call_per_value_drew_bit_for_bit(seed, num_images, profiles, objects,
                                                                  num_easy_groups):
    try:
        images, validation_ids, detections = reference_generate(seed, num_images, profiles, objects,
                                                                num_easy_groups)
    except datagen.ConfigError:
        with pytest.raises(datagen.ConfigError):
            datagen.generate(seed, num_images, profiles, objects, num_easy_groups=num_easy_groups)
        return
    dataset = datagen.generate(seed, num_images, profiles, objects, num_easy_groups=num_easy_groups)
    assert repr(dataset.images) == repr(images)  # repr: Python floats, every bit
    assert dataset.validation_image_ids == validation_ids
    assert list(dataset.detections) == list(detections)
    for detector_id, columns in detections.items():
        assert dataset.detections[detector_id] == columns


def test_the_scene_examples_clip_both_ends_and_draw_negative_zero():
    scores = np.concatenate([c.scores for c in datagen.generate(3, 20, CLIPPED_BOTH_ENDS).detections.values()])
    assert {0.0, 10.0} <= set(scores.tolist())
    scores = datagen.generate(5, 20, NEGATIVE_ZERO, (2, 4)).detections["det_0"].scores
    assert (np.signbit(scores) & (scores == 0.0)).any()
