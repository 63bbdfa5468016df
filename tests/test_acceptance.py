"""End-to-end acceptance suite.

Each test is one pass/fail line covering a headline guarantee of the
package: combination-rule correctness, belief-assignment fixtures, AP
metric fixtures, and seeded synthetic experiments showing that dynamic
belief fusion beats the individual detectors and the baselines behave
sanely. The synthetic experiments are fully deterministic (fixed seeds),
so the frozen regression values are exact reproducibility checks.
"""

import dataclasses
import itertools
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from beliefuse import datagen, evaluation, io, pipeline
from beliefuse.cli import default_profiles, main
from beliefuse.dst import (
    VACUOUS,
    Bpa,
    combine,
    combine_all,
    combine_all_enumerated,
)
from beliefuse.evaluation import average_precision, evaluate_method
from beliefuse.geometry import BoundingBox, Detection, truths
from beliefuse.io import DetectionColumns, Ids
from beliefuse.trust import TrustModel, bpd_precision
from test_properties import reference_assignment

DETECTOR_IDS = ("det_a", "det_b", "det_c")

# Regression value for the seed-42 experiment below, computed once from this
# implementation and frozen. Any drift beyond the tolerance means fusion,
# matching, or the synthetic generator changed behavior.
FROZEN_DBF_MAP = 0.9358482363
FROZEN_TOL = 0.005


def random_bpa(rng) -> Bpa:
    m = rng.dirichlet((1.0, 1.0, 1.0))
    return Bpa(float(m[0]), float(m[1]), float(m[2]))


@pytest.fixture(scope="module")
def seed42():
    """The canonical synthetic experiment: seed 42, 300 images, 3 detectors."""
    t0 = time.perf_counter()
    ds = datagen.generate(42, 300, default_profiles(3))
    val_gts = ds.ground_truths(ds.validation_image_ids)["object"]
    test_gts = ds.ground_truths(ds.test_image_ids)
    per_det_val = {
        d: ds.detections_for(d, ds.validation_image_ids) for d in ds.detections
    }
    per_det_test = {
        d: ds.detections_for(d, ds.test_image_ids) for d in ds.detections
    }
    trust = pipeline.build_trust_models(per_det_val, val_gts, "object", 2.0)
    return {
        "val_gts": val_gts,
        "test_gts": test_gts,
        "per_det_val": per_det_val,
        "per_det_test": per_det_test,
        "trust": trust,
        "setup_seconds": time.perf_counter() - t0,
    }


def fused_map(fx, detector_subset=None, method="dbf", n=2.0):
    subset = detector_subset or list(fx["per_det_val"])
    trust = pipeline.build_trust_models(
        {k: fx["per_det_val"][k] for k in subset}, fx["val_gts"], "object", n
    )
    fused = pipeline.fuse_corpus(
        {k: fx["per_det_test"][k] for k in subset}, trust, "object", method
    )
    return evaluate_method(fused, fx["test_gts"]).map_score


def test_pairwise_fold_matches_direct_enumeration():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        bpas = [random_bpa(rng) for _ in range(k)]
        folded = combine_all(bpas)
        direct = combine_all_enumerated(bpas)
        assert abs(folded.m_target - direct.m_target) <= 1e-12
        assert abs(folded.m_nontarget - direct.m_nontarget) <= 1e-12
        assert abs(folded.m_intermediate - direct.m_intermediate) <= 1e-12
    assert time.perf_counter() - t0 < 5.0


def test_combination_algebra_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        a, b = random_bpa(rng), random_bpa(rng)
        ab, ba = combine(a, b), combine(b, a)
        assert ab == ba  # commutative, bit-exact
        assert ab.m_target >= 0 and ab.m_nontarget >= 0 and ab.m_intermediate >= 0
        assert abs(ab.m_target + ab.m_nontarget + ab.m_intermediate - 1.0) <= 1e-9
        c = random_bpa(rng)
        left = combine(combine(a, b), c)
        right = combine(a, combine(b, c))
        assert abs(left.m_target - right.m_target) <= 1e-12
        assert abs(left.m_nontarget - right.m_nontarget) <= 1e-12
        assert abs(left.m_intermediate - right.m_intermediate) <= 1e-12
        ident = combine(a, VACUOUS)
        assert abs(ident.m_target - a.m_target) <= 1e-12
        assert abs(ident.m_nontarget - a.m_nontarget) <= 1e-12
        assert abs(ident.m_intermediate - a.m_intermediate) <= 1e-12


def test_dynamic_assignment_fixture_and_boundaries():
    table = [
        [4.0, 0.2, 0.9, 0.9],
        [3.0, 0.4, 0.6, 0.6],
        [1.0, 1.0, 0.3, 0.3],
    ]
    model = TrustModel("d1", "object", table, bpd_exponent=2.0,
                       num_validation_positives=10)
    # Recall .4, precision .6, n=2: best-possible precision .84 splits the
    # remaining mass into .24 intermediate and .16 non-target.
    b = Bpa.exact(*model.masses_at(np.array([3.0]))[0].tolist())
    assert b.m_target == pytest.approx(0.6, abs=1e-12)
    assert b.m_intermediate == pytest.approx(0.24, abs=1e-12)
    assert b.m_nontarget == pytest.approx(0.16, abs=1e-12)
    # Above the largest validation score: clamp to the first table row.
    assert model.masses_at(np.array([99.0])).tolist() == [list(reference_assignment(model, 0.2, 0.9).as_tuple())]
    # Below the smallest: full recall, zero best-possible headroom.
    low_t, low_nt, low_i = model.masses_at(np.array([0.0]))[0].tolist()
    assert (low_t, low_i, low_nt) == (0.3, 0.0, 0.7)


def test_best_possible_detector_curve():
    for n in (0.5, 1, 2, 8):
        assert bpd_precision(0.0, n) == 1.0
        assert bpd_precision(1.0, n) == 0.0
    assert bpd_precision(0.5, 2) == 0.75
    assert bpd_precision(0.0, math.inf) == 1.0
    assert bpd_precision(0.9999999, math.inf) == 1.0
    assert bpd_precision(1.0, math.inf) == 0.0


def test_average_precision_fixture_and_rank_invariance():
    def grid_boxes(n, size=30.0, gap=50.0):
        return [
            BoundingBox((i % 10) * (size + gap), (i // 10) * (size + gap),
                        (i % 10) * (size + gap) + size,
                        (i // 10) * (size + gap) + size)
            for i in range(n)
        ]

    def det(score, box):
        return Detection("img1", "d1", box, score)

    g1, g2, off = grid_boxes(3)
    def truth(boxes):
        return truths(Ids.of(["img1"] * len(boxes)), Ids.of(["object"] * len(boxes)), [b.as_tuple() for b in boxes],
                      [False] * len(boxes))["object"]

    gts = truth([g1, g2])
    ap = average_precision(DetectionColumns.of([det(0.9, g1), det(0.8, off), det(0.7, g2)]), gts)
    assert ap == pytest.approx(5 / 6, abs=1e-12)

    rng = np.random.default_rng(99)
    for _ in range(100):
        boxes = grid_boxes(12)
        gts = truth(boxes[: int(rng.integers(2, 6))])
        dets = [det(float(rng.uniform(0, 5)), boxes[int(rng.integers(0, 12))])
                for _ in range(10)]
        base = average_precision(DetectionColumns.of(dets), gts)
        squashed = [det(math.tanh(d.score) * 0.5 + 2.0, d.box) for d in dets]
        assert average_precision(DetectionColumns.of(squashed), gts) == pytest.approx(base, abs=1e-12)


def test_fusion_beats_individuals_and_static_assignment(seed42):
    t0 = time.perf_counter()
    dbf = fused_map(seed42)
    static = fused_map(seed42, method="static-dst")
    individual = {
        d: evaluate_method(seed42["per_det_test"][d], seed42["test_gts"]).map_score
        for d in DETECTOR_IDS
    }
    elapsed = seed42["setup_seconds"] + (time.perf_counter() - t0)
    assert all(dbf > ap for ap in individual.values())
    assert dbf > static
    assert dbf == pytest.approx(FROZEN_DBF_MAP, abs=FROZEN_TOL)
    assert elapsed < 30.0


def test_fusing_more_detectors_does_not_hurt(seed42):
    best_pair = max(
        fused_map(seed42, list(pair))
        for pair in itertools.combinations(DETECTOR_IDS, 2)
    )
    assert best_pair <= fused_map(seed42) + 0.01


def test_overconfident_validation_penalizes_infinite_exponent():
    # One detector reports 1.2x its true rate on the validation split, so a
    # trust model that extrapolates to a perfect reference detector overrates
    # it; any finite exponent should beat the infinite one.
    profiles = [
        dataclasses.replace(
            p, validation_rate_scale=1.2 if p.detector_id == "det_a" else 1.0
        )
        for p in default_profiles(3)
    ]
    ds = datagen.generate(42, 300, profiles)
    fx = {
        "val_gts": ds.ground_truths(ds.validation_image_ids)["object"],
        "test_gts": ds.ground_truths(ds.test_image_ids),
        "per_det_val": {
            d: ds.detections_for(d, ds.validation_image_ids) for d in ds.detections
        },
        "per_det_test": {
            d: ds.detections_for(d, ds.test_image_ids) for d in ds.detections
        },
    }
    finite = [fused_map(fx, n=n) for n in (1.0, 2.0, 4.0, 8.0)]
    infinite = fused_map(fx, n=math.inf)
    assert infinite < max(finite)


def test_baselines_are_sane_and_commands_deterministic(seed42, tmp_path):
    bm = pipeline.fit_baselines(seed42["per_det_val"], seed42["val_gts"], "object")
    weakest = min(
        evaluate_method(seed42["per_det_test"][d], seed42["test_gts"]).map_score
        for d in DETECTOR_IDS
    )
    for method in ("platt", "ws", "bayes"):
        fused = pipeline.fuse_corpus(seed42["per_det_test"], bm, "object", method)
        assert fused and np.isfinite(fused.scores).all()
        if method == "platt":
            assert all(0.0 <= score <= 1.0 for score in fused.scores.tolist())
        assert evaluate_method(fused, seed42["test_gts"]).map_score >= weakest

    # Re-running every command reproduces its outputs byte for byte.
    runner = CliRunner()
    data, models = tmp_path / "data", tmp_path / "models"
    gen = ["generate", "--out-dir", str(data), "--seed", "42",
           "--num-images", "60", "--num-detectors", "3"]
    build = [
        "--detections-dir", str(data / "validation"),
        "--annotations", str(data / "validation" / "annotations.jsonl"),
        "--models-dir", str(models),
    ]
    fuse = ["fuse", "--method", "platt",
            "--detections-dir", str(data / "test"),
            "--models-dir", str(models),
            "--out", str(tmp_path / "fused.jsonl")]
    snapshots = {}
    for round_no in range(2):
        assert runner.invoke(main, gen).exit_code == 0
        assert runner.invoke(main, ["build-trust", *build]).exit_code == 0
        assert runner.invoke(main, ["build-baselines", *build]).exit_code == 0
        assert runner.invoke(main, fuse).exit_code == 0
        current = {
            str(p.relative_to(tmp_path)): p.read_bytes()
            for p in tmp_path.rglob("*")
            if p.is_file()
        }
        if round_no == 0:
            snapshots = current
        else:
            assert current == snapshots


def test_saved_models_reproduce_fusion_bit_for_bit(seed42, tmp_path):
    trust = seed42["trust"]
    reloaded = {}
    for det_id, model in trust.items():
        path = tmp_path / f"{det_id}.json"
        io.save_model(model, path)
        reloaded[det_id] = io.load_model(path)
    direct = pipeline.fuse_corpus(seed42["per_det_test"], trust, "object", "dbf")
    roundtrip = pipeline.fuse_corpus(seed42["per_det_test"], reloaded, "object", "dbf")
    assert direct == roundtrip

    bm = pipeline.fit_baselines(seed42["per_det_val"], seed42["val_gts"], "object")
    bm2 = pipeline.BaselineModels()
    for det_id, model in bm.platt.items():
        path = tmp_path / f"platt_{det_id}.json"
        io.save_model(model, path)
        bm2.platt[det_id] = io.load_model(path)
    for det_id, model in bm.likelihoods.items():
        path = tmp_path / f"lik_{det_id}.json"
        io.save_model(model, path)
        bm2.likelihoods[det_id] = io.load_model(path)
    io.save_model(bm.weights, tmp_path / "ws.json")
    bm2.weights = io.load_model(tmp_path / "ws.json")
    for method in ("platt", "ws", "bayes"):
        a = pipeline.fuse_corpus(seed42["per_det_test"], bm, "object", method)
        b = pipeline.fuse_corpus(seed42["per_det_test"], bm2, "object", method)
        assert a == b
