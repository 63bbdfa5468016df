"""Property tests: the array-based overlap path against scalar references.

The references below are the per-pair loops that ``build_detection_vectors``
and ``nms`` ran before they shared one IoU matrix per image; the array path
must reproduce them exactly, including tie order and duplicate boxes.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beliefuse import pipeline
from beliefuse.baselines import PlattModel, ScoreLikelihood, WeightVector
from beliefuse.fusion import DetectionVector, build_detection_vectors, image_overlaps
from beliefuse.geometry import BoundingBox, Detection, _det_sort_key, iou, iou_matrix, nms
from beliefuse.trust import PrPoint, TrustModel

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
scores = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 9.0]), st.floats(-10, 10, allow_nan=False))
thresholds = st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9])


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
            vectors.append(DetectionVector(subject=subject, slots=slots))
    return vectors


def reference_nms(dets, iou_threshold):
    remaining = sorted(dets, key=_det_sort_key)
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [d for d in remaining if iou(best.box, d.box) <= iou_threshold]
    return kept


@given(st.lists(boxes(), max_size=12))
def test_iou_matrix_equals_scalar_iou_bit_for_bit(bs):
    expected = np.array([[iou(a, b) for b in bs] for a in bs], dtype=float).reshape(len(bs), len(bs))
    got = iou_matrix([b.as_tuple() for b in bs])
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@given(images(), thresholds)
@example(HALF, 0.5)
def test_detection_vectors_equal_scalar_reference(per_detector, threshold):
    expected = reference_vectors(per_detector, threshold)
    for got in (
        build_detection_vectors(per_detector, threshold),
        build_detection_vectors(per_detector, threshold, image_overlaps(per_detector)),
    ):
        assert [id(v.subject) for v in got] == [id(v.subject) for v in expected]
        assert [list(v.slots.items()) for v in got] == [list(v.slots.items()) for v in expected]


@given(images(max_detectors=3), thresholds)
@example(HALF, 0.5)
def test_nms_equals_scalar_reference(per_detector, threshold):
    dets = [d for det_id in sorted(per_detector) for d in per_detector[det_id]]
    expected = [id(d) for d in reference_nms(dets, threshold)]
    assert [id(d) for d in nms(dets, threshold)] == expected
    assert [id(d) for d in nms(dets, threshold, image_overlaps(per_detector))] == expected


def _model(det_id):
    table = [
        PrPoint(4.0, 0.2, 0.9, 0.9),
        PrPoint(2.0, 0.6, 0.5, 0.45),
        PrPoint(0.0, 1.0, 0.3, 0.3),
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


@st.composite
def corpora(draw):
    per_image = [
        draw(images(image_id=f"img{k}", max_detectors=3, max_windows=5))
        for k in range(draw(st.integers(1, 5)))
    ]
    corpus: dict[str, list[Detection]] = {}
    for per_det in per_image:
        for det_id, dets in per_det.items():
            corpus.setdefault(det_id, []).extend(dets)
    return corpus


@settings(max_examples=10, deadline=None)
@given(corpora(), st.sampled_from(pipeline.METHODS))
@example(HALF, "platt")
@example(HALF, "ws")
@example(HALF, "bayes")
def test_fuse_corpus_is_the_same_at_any_jobs(corpus, method):
    models = _models(method)
    serial = pipeline.fuse_corpus(corpus, models, "object", method, jobs=1)
    pooled = pipeline.fuse_corpus(corpus, models, "object", method, jobs=2)
    assert pooled == serial
    if method in pipeline.BELIEF_METHODS:
        assert all(f.score == f.verdict.score for f in serial)
    else:
        assert all(f.verdict is None and f.source_detector_id != "f" for f in serial)
