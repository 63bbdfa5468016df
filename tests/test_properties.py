"""Property tests: the array-based fusion path against scalar references.

The references below are the per-pair loops that ``build_detection_vectors``
and ``nms`` ran before they shared one IoU matrix per image, and the
per-window trust lookup, mass split and Dempster fold that DBF and
static-DST ran before whole batches went through one array pass. The array
path must reproduce them exactly, including tie order, duplicate boxes and
total-conflict recovery.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beliefuse import fusion, pipeline
from beliefuse.baselines import PlattModel, ScoreLikelihood, WeightVector
from beliefuse.dst import (
    VACUOUS,
    Bpa,
    FusedVerdict,
    TotalConflict,
    combine_all,
    combine_all_enumerated,
    combine_rows,
)
from beliefuse.fusion import (
    DetectionVector,
    FusedDetection,
    build_detection_vectors,
    image_overlaps,
)
from beliefuse.geometry import BoundingBox, Detection, _det_sort_key, iou, iou_matrix, nms
from beliefuse.pipeline import group_by_detector, group_by_image
from beliefuse.trust import PrPoint, TrustModel, bpd_precision

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


# ---- trust lookup, mass split and Dempster fold ----------------------------


def reference_lookup(model, score):
    """Score -> (recall, precision) by bisection, before the mass table."""
    table = model.table
    if score >= table[0].score_threshold:
        return table[0].recall, table[0].precision
    if score < table[-1].score_threshold:
        return 1.0, table[-1].precision
    lo, hi = 0, len(table) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if table[mid].score_threshold <= score:
            hi = mid
        else:
            lo = mid + 1
    return table[lo].recall, table[lo].precision


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


def reference_dbf(vector, models, absent_policy):
    bpas = []
    for det_id, model in sorted(models.items()):
        if det_id in vector.slots:
            recall, precision = reference_lookup(model, vector.slots[det_id])
            bpas.append(reference_assignment(model, recall, precision))
        elif absent_policy == "recall_one":
            bpas.append(reference_assignment(model, 1.0, model.table[-1].precision))
    return reference_fuse_bpas(bpas)


def reference_static(vector, models):
    bpas = []
    for det_id, model in sorted(models.items()):
        if det_id in vector.slots:
            row = min(model.table, key=lambda p: (abs(p.recall - 0.2), p.score_threshold))
            bpas.append(reference_assignment(model, row.recall, row.precision))
    return reference_fuse_bpas(bpas)


def reference_fuse_corpus(corpus, models, method, absent_policy):
    """Per image: vectors, one verdict per vector, rescored windows, NMS."""
    fused, smoothings = [], 0
    all_dets = [d for dets in corpus.values() for d in dets]
    for _, image_dets in sorted(group_by_image(all_dets).items()):
        vectors = reference_vectors(group_by_detector(image_dets), 0.5)
        verdicts = []
        for vec in vectors:
            if method == "dbf":
                verdict, smoothed = reference_dbf(vec, models, absent_policy)
            else:
                verdict, smoothed = reference_static(vec, models)
            verdicts.append(verdict)
            smoothings += smoothed
        rescored = [
            Detection(v.subject.image_id, v.subject.detector_id, v.subject.box, verdict.score)
            for v, verdict in zip(vectors, verdicts)
        ]
        index = {id(d): i for i, d in enumerate(rescored)}
        fused += [
            FusedDetection(
                d.box, d.image_id, "object", d.score, verdicts[index[id(d)]], d.detector_id
            )
            for d in reference_nms(rescored, 0.5)
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
    return [PrPoint(t, r, p, p)
            for t, r, p in zip(sorted(thresholds, reverse=True), recall, precision)]


EXPONENTS = [1.0, 2.0, 3.5, math.inf]
# Trust models that give certain-target and certain-non-target masses.
CERTAIN_TABLES = [([PrPoint(1.0, 0.5, 1.0, 1.0)], 1000.0), ([PrPoint(1.0, 1.0, 0.0, 0.0)], 2.0)]


# 128 irregular recalls, each below the best-possible detector's precision,
# so 1 - r**n reaches the masses: np.power would round some differently.
IRREGULAR_TABLE = [
    PrPoint(10.0 - 0.25 * i, r, (1.0 - r) / 2, (1.0 - r) / 2)
    for i, r in enumerate(sorted(np.random.default_rng(0).random(128).tolist()))
]


@settings(deadline=None)
@given(trust_tables(), st.sampled_from(EXPONENTS),
       st.lists(st.floats(-20, 20, allow_nan=False), max_size=5))
@example(IRREGULAR_TABLE, 3.5, [])
def test_mass_table_lookup_equals_bisection_and_assignment(table, n, extra_scores):
    model = TrustModel("a", "object", table, bpd_exponent=n)
    thresholds = [p.score_threshold for p in table]
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
    assert repr([model.score_to_bpa(s) for s in scores]) == repr(expected)
    # An absent slot (-inf) reads the below-bottom row: the recall_one mass.
    recall_one = reference_assignment(model, 1.0, table[-1].precision)
    absent = model.masses_at(np.array([-np.inf])).tolist()
    assert repr(absent) == repr([list(recall_one.as_tuple())])


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
def test_belief_fuse_corpus_equals_per_vector_loop(corpus, models, method, absent_policy):
    expected, smoothings = reference_fuse_corpus(corpus, models, method, absent_policy)
    before = fusion.conflict_smoothing_count
    got = pipeline.fuse_corpus(corpus, models, "object", method, absent_policy=absent_policy)
    assert repr(got) == repr(expected)  # repr tells every float apart, -0.0 too
    assert fusion.conflict_smoothing_count - before == smoothings
