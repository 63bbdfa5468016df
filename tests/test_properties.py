"""Property tests: the array-based fusion and evaluation paths against
scalar references.

The references below are the per-pair loops that built detection vectors
and ran NMS before they shared one IoU matrix per image; the per-window
trust lookup, mass split and Dempster fold that DBF and static-DST ran
before whole batches went through one array pass; the per-vector baseline
rules and weighted-sum training set, which took each detection vector as a
detector id -> score mapping of its present slots; the per-detection AP
loop that ``eval`` ran before it scored columns; and the per-line
JSON-lines reader that the column parser replaced. The array paths must
reproduce them exactly, including tie order, duplicate boxes,
total-conflict recovery, float rounding and which files are rejected.
"""

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beliefuse import baselines, datagen, evaluation, fusion, io, pipeline
from beliefuse.baselines import PlattModel, ScoreLikelihood, WeightVector
from beliefuse.cli import default_profiles
from beliefuse.dst import (
    VACUOUS,
    Bpa,
    FusedVerdict,
    TotalConflict,
    combine_all,
    combine_all_enumerated,
    combine_rows,
)
from beliefuse.fusion import FusedDetection, image_overlaps, slot_matrix
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
    GroundTruthObject,
    MatchLabel,
    _det_sort_key,
    iou,
    iou_matrix,
    iou_pairs,
    nms_keep,
    suppression_mask,
)
from beliefuse.io import DetectionColumns
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
    pairs = iou_pairs([a.as_tuple() for a in bs for _ in bs], [b.as_tuple() for _ in bs for b in bs])
    assert pairs.tobytes() == expected.ravel().tobytes()


def as_rows(vectors, detector_ids):
    """Reference vectors as slot matrix rows: -inf where a slot is absent."""
    return [[slots.get(d, -math.inf) for d in detector_ids] for _, slots in vectors]


@given(images(), thresholds)
@example(HALF, 0.5)
def test_detection_vectors_equal_scalar_reference(per_detector, threshold):
    assume(any(per_detector.values()))  # fuse_images skips an image with no window
    expected = reference_vectors(per_detector, threshold)
    assert [id(d) for d in fusion._subjects(per_detector)] == [id(s) for s, _ in expected]
    overlaps = image_overlaps(per_detector)
    # Columns for every detector of a batch, some with no window here.
    for detector_ids in (sorted(per_detector), sorted({*per_detector, "c", "g"})):
        got = slot_matrix(per_detector, detector_ids, threshold, overlaps)
        assert repr(got.tolist()) == repr(as_rows(expected, detector_ids))


@given(images(max_detectors=3), thresholds)
@example(HALF, 0.5)
def test_nms_equals_scalar_reference(per_detector, threshold):
    dets = [d for det_id in sorted(per_detector) for d in per_detector[det_id]]
    expected = [id(d) for d in reference_nms(dets, threshold)]
    scores = [d.score for d in dets]
    for overlaps in (iou_matrix([d.box.as_tuple() for d in dets]), image_overlaps(per_detector)):
        kept = nms_keep(scores, dets, suppression_mask(overlaps, threshold))
        assert [id(dets[i]) for i in kept] == expected


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


def reference_dbf(slots, models, absent_policy):
    bpas = []
    for det_id, model in sorted(models.items()):
        if det_id in slots:
            recall, precision = reference_lookup(model, slots[det_id])
            bpas.append(reference_assignment(model, recall, precision))
        elif absent_policy == "recall_one":
            bpas.append(reference_assignment(model, 1.0, model.table[-1].precision))
    return reference_fuse_bpas(bpas)


def reference_static(slots, models):
    bpas = []
    for det_id, model in sorted(models.items()):
        if det_id in slots:
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
        for _, slots in vectors:
            if method == "dbf":
                verdict, smoothed = reference_dbf(slots, models, absent_policy)
            else:
                verdict, smoothed = reference_static(slots, models)
            verdicts.append(verdict)
            smoothings += smoothed
        rescored = [
            Detection(subject.image_id, subject.detector_id, subject.box, verdict.score)
            for (subject, _), verdict in zip(vectors, verdicts)
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


# ---- baseline rules and weighted-sum training -------------------------------


def reference_platt(slots, platt):
    probs = [platt[d].probability(score) for d, score in slots.items() if d in platt]
    if not probs:
        raise ValueError("vector has no present slot with a Platt model")
    return max(probs)


def reference_features(slots, platt, detector_ids):
    return np.array([platt[d].probability(slots[d]) if d in slots else 0.0 for d in detector_ids])


def reference_ws(slots, platt, weights):
    features = reference_features(slots, platt, weights.detector_ids)
    return float(features @ np.array(weights.weights) + weights.bias)


def reference_bayes(slots, platt, likelihoods):
    log_odds = math.log(0.5 / (1.0 - 0.5))
    for det_id, score in sorted(slots.items()):
        if det_id in likelihoods:
            log_odds += likelihoods[det_id].log_likelihood_ratio(platt[det_id].probability(score))
    return log_odds


def reference_training(per_detector, gts, platt):
    """The weighted-sum training set, one (present slots, target) pair per
    detection vector of a calibrated detector, each labeled by its own
    window; undecided windows are left out."""
    label = {}
    for det_id in platt:
        label.update((id(d), lab) for d, lab in pipeline.label_detections(per_detector[det_id], gts))
    all_dets = [d for det_id in platt for d in per_detector[det_id]]
    training = []
    for _, image_dets in sorted(group_by_image(all_dets).items()):
        for subject, slots in reference_vectors(group_by_detector(image_dets), 0.5):
            if label[id(subject)] is not MatchLabel.UNDECIDED:
                training.append((slots, label[id(subject)] is MatchLabel.TRUE_POSITIVE))
    return training


def reference_fit(x, y, detector_ids, c=1.0, iterations=2000):
    """Subgradient descent on the hinge loss, as ``fit_weighted_sum`` ran it."""
    lam = 1.0 / (c * len(x))
    w = np.zeros(x.shape[1])
    b = 0.0
    for t in range(1, iterations + 1):
        margin = y * (x @ w + b)
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


@settings(deadline=None)
@given(baseline_cases())
@example(ROUNDING)
def test_baseline_rules_equal_per_vector_rules_bit_for_bit(case):
    detector_ids, slots, platt, weights, likelihoods = case
    rows = [{d: s for d, s in zip(detector_ids, row) if s != -math.inf} for row in slots.tolist()]
    try:
        expected = [reference_platt(row, platt) for row in rows]
    except ValueError:
        with pytest.raises(ValueError):
            baselines.platt_fuse(detector_ids, slots, platt)
    else:
        # repr tells every float apart, -0.0 from 0.0 too.
        assert repr(baselines.platt_fuse(detector_ids, slots, platt).tolist()) == repr(expected)
    got = baselines.weighted_sum_fuse(detector_ids, slots, platt, weights)
    assert repr(got.tolist()) == repr([reference_ws(row, platt, weights) for row in rows])
    got = baselines.bayes_fuse(detector_ids, slots, platt, likelihoods)
    assert repr(got.tolist()) == repr([reference_bayes(row, platt, likelihoods) for row in rows])


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(0)
def test_ws_training_equals_per_vector_loop_bit_for_bit(seed):
    dataset = datagen.generate(seed, 12, default_profiles(3))
    image_ids = dataset.validation_image_ids
    per_detector = {d: dataset.detections_for(d, image_ids) for d in dataset.detections}
    gts = dataset.ground_truths(image_ids)
    designs = []
    fit = baselines.fit_weighted_sum

    def capture(features, targets, detector_ids):
        designs.append((features, targets))
        return fit(features, targets, detector_ids)

    baselines.fit_weighted_sum = capture
    try:
        models = pipeline.fit_baselines(per_detector, gts)
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


# ---- fused output and model files -------------------------------------------


@pytest.fixture(scope="module")
def files_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


@settings(max_examples=50, deadline=None)
@given(corpora(), trust_models(), st.sampled_from(pipeline.BELIEF_METHODS))
@example(SAME, CERTAIN_MODELS, "dbf")
@example(SAME, CERTAIN_MODELS, "static-dst")
def test_fused_lines_score_their_joint_mass(files_dir, corpus, models, method):
    fused = pipeline.fuse_corpus(corpus, models, "object", method)
    path = files_dir / "fused.jsonl"
    io.write_fused(fused, path)
    columns = io.read_fused(path)
    assert len(columns) == len(fused)
    for score, (m_target, m_nontarget, _) in zip(columns.scores.tolist(), columns.joints.tolist()):
        assert score == m_target - m_nontarget


def output_order(fused):
    """``cmd_fuse``'s order: class, image, descending score, box."""
    return sorted(fused, key=lambda f: (f.class_label, f.image_id, -f.score, f.box.as_tuple()))


# One detector's two windows with one score, overlapping but on different
# boxes: NMS must keep the same one whichever comes first.
TIED = {"a": [Detection("img", "a", BoundingBox(0, 0, 10, 10), 1.0),
              Detection("img", "a", BoundingBox(0, 0, 10, 9), 1.0)]}


@settings(max_examples=50, deadline=None)
@given(corpora(), st.sampled_from(pipeline.METHODS), st.randoms(use_true_random=False))
@example(TIED, "dbf", random.Random(0))
def test_fused_output_does_not_depend_on_input_order(corpus, method, rng):
    models = _models(method)
    expected = output_order(pipeline.fuse_corpus(corpus, models, "object", method))
    for order in (lambda xs: xs[::-1], lambda xs: rng.sample(xs, len(xs))):
        reordered = {det_id: order(corpus[det_id]) for det_id in order(sorted(corpus))}
        got = output_order(pipeline.fuse_corpus(reordered, models, "object", method))
        assert repr(got) == repr(expected)


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


@settings(deadline=None)
@given(any_models())
def test_models_survive_their_model_file(files_dir, model):
    path = files_dir / "model.json"
    io.save_model(model, path)
    loaded = io.load_model(path)
    assert type(loaded) is type(model)
    assert repr(loaded.to_dict()) == repr(model.to_dict())  # repr tells every float apart


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
        GroundTruthObject(image, "object", b, difficult)
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
    [GroundTruthObject("a", "object", BoundingBox(0, 0, 2, 2)),
     GroundTruthObject("a", "object", BoundingBox(0, 0, 2, 2), True),
     GroundTruthObject("a\0", "object", BoundingBox(0, 0, 1, 2), True),
     GroundTruthObject("b", "object", BoundingBox(1, 1, 3, 3))],
)


# Ranked TP, FP, TP, TP: precision rises after the false positive, so the
# envelope lifts it.
RISING = (
    [Detection("a", "d", b, s) for b, s in zip(
        [BoundingBox(i, 0, i + 1, 1) for i in (0, 5, 2, 3)], (0.9, 0.8, 0.7, 0.6))],
    [GroundTruthObject("a", "object", BoundingBox(i, 0, i + 1, 1)) for i in (0, 2, 3)],
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
            average_precision(dets, gts, threshold, interpolation)
        if dets and gts:  # with no ground truth at all there is no class to score
            with pytest.raises(NoGroundTruth):
                evaluate_method(dets, gts, threshold, interpolation)
        return
    recall, precision, tp, fp = expected
    for given_dets in (dets, DetectionColumns.of(dets)):
        report = evaluate_method(given_dets, gts, threshold, interpolation)
        samples = list(zip(recall.tolist(), precision.tolist())) if dets else []
        # repr tells every float apart, -0.0 from 0.0 too.
        assert repr(report.pr_samples["object"]) == repr(samples)
        assert report.counts["object"] == {
            "num_gt": sum(not g.difficult for g in gts),
            "num_detections": len(dets), "tp": tp, "fp": fp,
        }
        ap = reference_ap(recall, precision, interpolation) if dets else 0.0
        assert repr(report.per_class_ap["object"]) == repr(ap)
    assert repr(average_precision(dets, gts, threshold, interpolation)) == repr(ap)


# ---- report.json ------------------------------------------------------------

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
def test_report_layout_equals_json_dumps_indent_2(payload):
    assert evaluation._indent2(payload) == json.dumps(payload, indent=2)


def test_report_file_equals_json_dumps_indent_2(tmp_path):
    b = BoundingBox(0, 0, 4, 4)
    gts = [GroundTruthObject("i", "cat", b), GroundTruthObject("i", "dog", b, True),
           GroundTruthObject("j", "dog", BoundingBox(5, 5, 9, 9))]
    dets = [Detection("i", "d", b, 0.5), Detection("j", "d", BoundingBox(5, 5, 9, 8), 0.25)]
    reports = evaluate_methods({"raw": dets, "none": []}, gts)
    config = {"out": 'a "quoted" path', "n": math.inf, "jobs": 1}
    path = tmp_path / "report.json"
    write_reports_json(reports, path, config=config)
    payload = {"format_version": 1, "config": config,
               "methods": {name: reports[name].to_dict() for name in sorted(reports)}}
    assert path.read_text() == json.dumps(payload, indent=2) + "\n"


# ---- JSON-lines readers -----------------------------------------------------


def reference_rows(path):
    """The per-line reader the column parser replaced, with two amendments:
    a line that is not a JSON object is rejected (it used to end in a
    TypeError, or be skipped when it contained ``"_header"``), and a fused
    line's score must be finite, like a detection's."""
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
    x_min, y_min, x_max, y_max = (float(v) for v in raw)
    return BoundingBox(x_min, y_min, x_max, y_max)


def reference_detections(path):
    """(class, detection) per line, in file order."""
    return [
        (str(obj.get("class", "object")),
         Detection(str(obj["image_id"]), str(obj["detector_id"]),
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
        image_id, label, score = str(obj["image_id"]), str(obj["class"]), float(obj["score"])
        if not math.isfinite(score):
            raise ValueError("fused score must be finite")
        fused.append(FusedDetection(box, image_id, label, score, verdict,
                                    str(obj.get("source_detector_id", ""))))
    return fused


def reference_annotations(path):
    gts = []
    for obj in reference_rows(path):
        difficult = obj.get("difficult", False)
        if not isinstance(difficult, bool):
            raise ValueError("difficult must be a boolean")
        gts.append(GroundTruthObject(str(obj["image_id"]), str(obj["class"]),
                                     reference_box(obj["bbox"]), difficult))
    return gts


def column_rows(columns):
    """Every row of ``DetectionColumns``; repr tells NaN joints apart."""
    return repr(list(zip(columns.image_ids, columns.class_labels, columns.boxes.tolist(),
                         columns.scores.tolist(), columns.sources, columns.joints.tolist())))


READERS = [
    (io.read_detections_by_class, reference_detections_by_class),
    # In file order: the old reader grouped the rows by class.
    (lambda p: column_rows(io.read_detections(p)),
     lambda p: column_rows(DetectionColumns.of([d for _, d in reference_detections(p)]))),
    (lambda p: column_rows(io.read_fused(p)),
     lambda p: column_rows(DetectionColumns.of(reference_fused(p)))),
    (io.read_annotations, reference_annotations),
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
    "detector_id": st.one_of(st.text(max_size=3), st.integers()),
    "class": st.one_of(st.sampled_from(["object", "cat"]), st.integers()),
    "source_detector_id": st.one_of(st.text(max_size=3), st.none()),
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


@settings(max_examples=400, deadline=None)
@given(jsonl_texts())
@example('{"a": [{}\n{}]}, {"b": [{}\n{}]}')
@example(json.dumps(GOOD) + " {}")  # a second value after the object
@example(json.dumps({**GOOD, "bbox": [0, 0, 1e-200, 1e-200]}))  # the area underflows to 0
@example(json.dumps({**GOOD, "score": math.nan}))
@example(json.dumps({**GOOD, "joint": [1.5, -0.5, 0.0], "difficult": 0}))
@example(json.dumps({**GOOD, "joint": ["0.5", "0.5", "0"]}))  # float() would take these
@example(json.dumps({**GOOD, "joint": [0.5, 0.5, 0.0], "difficult": True}) + "\n\n")
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
