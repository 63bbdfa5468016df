"""Baseline late-fusion methods: Platt max-fusion, weighted sum, naive Bayes.

All fitting is deterministic (fixed iteration budgets, no randomness) so
baseline numbers reproduce bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .trust import InsufficientData

if TYPE_CHECKING:
    from .io import DetectionColumns

PLATT_MAX_ITER = 100  # damped Newton steps
PLATT_TOL = 1e-10  # on both gradient components
SVM_C = 1.0  # weighted sum: hinge-loss weight against the L2 penalty
SVM_ITERATIONS = 2000  # weighted sum: full-batch subgradient steps
LIKELIHOOD_BINS = 32  # naive Bayes: histogram bins over [0, 1]
LIKELIHOOD_SMOOTHING = 1.0  # naive Bayes: Laplace count added to every bin


@dataclass(frozen=True)
class PlattModel:
    """Sigmoid calibrator: probability = 1 / (1 + exp(A * score + B))."""

    detector_id: str
    a: float
    b: float
    converged: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"Platt a and b must be finite, got {self.a}, {self.b}")


def sigmoid(scores: np.ndarray, a: np.ndarray | float, b: np.ndarray | float) -> np.ndarray:
    """Each score's Platt probability ``1 / (1 + exp(a * score + b))``, the exponent
    clipped to [-700, 700], by one ``math.exp`` each: ``np.exp`` rounds differently."""
    with np.errstate(over="ignore"):  # as the scalar product overflows quietly
        z = np.clip(a * scores + b, -700.0, 700.0)
    return 1.0 / (1.0 + np.fromiter(map(math.exp, z.tolist()), float, len(z)))


@np.errstate(over="ignore")  # a huge score's overflow ends the fit unconverged, which fit_baselines reports
def fit_platt(scores: np.ndarray, tp: np.ndarray, detector_id: str = "") -> PlattModel:
    """Fit the sigmoid by regularized maximum likelihood (damped Newton) to
    decided validation windows: their scores and whether each is a true
    positive.

    Uses Platt's smoothed targets t+ = (N+ + 1)/(N+ + 2), t- = 1/(N- + 2).
    """
    n_pos = int(tp.sum())
    n_neg = len(tp) - n_pos
    if n_pos < 1 or n_neg < 1:
        raise InsufficientData("Platt fit needs both true and false positives")

    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    targets = np.where(tp, hi, lo)

    a = 0.0
    b = math.log((n_neg + 1.0) / (n_pos + 1.0))
    damping = 1e-3
    converged = False

    def nll(a_, b_):
        z = a_ * scores + b_
        # log(1 + e^z) - stable in both tails; p = sigma(-z)
        log1pez = np.where(z > 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z)))
        return float(np.sum(targets * log1pez + (1 - targets) * (log1pez - z)))

    prev = nll(a, b)
    for _ in range(PLATT_MAX_ITER):
        z = a * scores + b
        p = 1.0 / (1.0 + np.exp(np.clip(z, -700.0, 700.0)))
        d1 = targets - p
        d2 = np.maximum(p * (1.0 - p), 1e-12)
        g_a = float(np.sum(scores * d1))
        g_b = float(np.sum(d1))
        if abs(g_a) < PLATT_TOL and abs(g_b) < PLATT_TOL:
            converged = True
            break
        h_aa = float(np.sum(scores * scores * d2))
        h_ab = float(np.sum(scores * d2))
        h_bb = float(np.sum(d2))
        stepped = False
        for _ in range(30):
            det = (h_aa + damping) * (h_bb + damping) - h_ab * h_ab
            if det <= 0:
                damping *= 10
                continue
            da = ((h_bb + damping) * g_a - h_ab * g_b) / det
            db = ((h_aa + damping) * g_b - h_ab * g_a) / det
            cand_a, cand_b = a - da, b - db
            cand = nll(cand_a, cand_b)
            if cand < prev * (1 + 1e-10) + 1e-15:
                a, b = cand_a, cand_b
                prev = cand
                damping = max(damping * 0.1, 1e-12)
                stepped = True
                break
            damping *= 10
        if not stepped:
            break
    return PlattModel(detector_id=detector_id, a=a, b=b, converged=converged)


def window_probabilities(windows: DetectionColumns, platt: dict[str, PlattModel]) -> np.ndarray:
    """Each window's Platt probability (``sigmoid``), 0.0 where its detector
    has no model, then a 0.0 that slot row -1 (absent) reads. Every
    probability is above 0, so times 1.0 it is itself and times 0.0 +0.0."""
    coefficients = [(platt[n].a, platt[n].b, 1.0) if n in platt else (0.0, 0.0, 0.0) for n in windows.detectors.names]
    a, b, calibrated = np.array(coefficients).reshape(-1, 3)[windows.detectors.codes].T
    return np.append(sigmoid(windows.scores, a, b) * calibrated, 0.0)


def platt_features(windows: DetectionColumns, slots: np.ndarray, platt: dict[str, PlattModel],
                   columns: list[str] | tuple[str, ...]) -> np.ndarray:
    """Each row of slots' Platt probabilities (``window_probabilities``,
    gathered by window row), C-ordered, one column per id in ``columns``;
    absent slots, and ids the windows lack, read 0."""
    column = {det_id: j for j, det_id in enumerate(windows.detectors.names)}
    padded = np.column_stack((slots, np.full(len(slots), -1)))  # its last column: every slot absent
    picked = np.array([column.get(det_id, -1) for det_id in columns], dtype=np.intp)
    return window_probabilities(windows, platt)[padded.take(picked, axis=1)]  # take's rows are C-ordered


def platt_fuse(windows: DetectionColumns, slots: np.ndarray, platt: dict[str, PlattModel]) -> np.ndarray:
    """Each row's largest calibrated probability over its present slots
    whose detector has a Platt model (the others read 0)."""
    best = window_probabilities(windows, platt)[slots].max(axis=1, initial=0.0)
    if not best.all():
        raise ValueError("a row has no present slot with a Platt model")
    return best


@dataclass(frozen=True)
class WeightVector:
    """Linear separator over Platt-scaled slot probabilities."""

    detector_ids: tuple[str, ...]
    weights: tuple[float, ...]
    bias: float

    def __post_init__(self):
        if len(self.detector_ids) != len(self.weights):
            raise ValueError("one weight per detector required")
        if not all(map(math.isfinite, (*self.weights, self.bias))):
            raise ValueError("weights and bias must be finite")
        if not any(w != 0.0 for w in self.weights):
            raise ValueError("at least one weight must be nonzero")


def fit_weighted_sum(
    features: np.ndarray, targets: np.ndarray, detector_ids: tuple[str, ...]
) -> WeightVector:
    """Train a linear max-margin separator on Platt-scaled detection vectors.

    ``features`` holds one C-ordered row per vector and one column per
    detector id (see ``platt_features``), ``targets`` whether each vector's
    window is a true positive. Full-batch subgradient descent on the
    L2-regularized hinge loss with the 1/(lambda t) step of Pegasos;
    deterministic given the rows' order. A Fortran-ordered matrix rounds
    ``features @ w`` differently.

    Each step does the floating-point operations of a fresh pass, in the
    same order, in buffers allocated once: the margins ``y * (features @ w +
    b)``, the active rows (margin below 1), then the step. The hinge part of
    the subgradient, ``y * x`` summed over the active rows and divided by
    the row count, is formed again only when the active set changes (on
    walkthrough, on most steps): ``take`` gathers the same C-ordered rows as
    a boolean mask, so the sum runs in the same order. The bias part, a sum
    of active ``y`` (each +-1.0), is exact in any order, so it is counted.

    A pass that finds the last active set changes nothing, so a pass that
    provably would is skipped. After a pass that found the same set,
    ``room`` is the margins' least distance from 1 less a rounding
    allowance, 64 (D + 1) eps (R |w|inf + |b| + 1); R is the largest row
    1-norm, and (D + 1) eps bounds a length-D+1 dot product's rounding in
    any summation order, with or without FMA (Higham, 3.1): 64 times it
    covers this pass, a later one and the bound's own rounding. A later
    step's margins differ from this pass's by at most R |w - w_then|inf +
    |b - b_then|; while that is below ``room`` no margin crosses 1, and the
    pass is skipped. A NaN room or bound forces the pass, and a change of
    the set leaves ``room`` 0.
    """
    if not len(features):
        raise InsufficientData("no training vectors")
    y = np.where(targets, 1.0, -1.0)
    if not (np.any(y > 0) and np.any(y < 0)):
        raise InsufficientData("both labels required for SVM training")
    if not np.any(features != 0.0):
        raise InsufficientData("degenerate all-zero design matrix")

    n = len(features)
    lam = 1.0 / (SVM_C * n)
    signed = y[:, None] * features
    positive = np.asarray(targets, dtype=bool)
    reach = float(np.abs(features).sum(axis=1).max())  # R
    slack = 16 * (features.shape[1] + 1) * np.finfo(float).eps  # times scale's 4: 64 (D + 1) eps
    w = np.zeros(features.shape[1])
    b = 0.0
    margin = np.empty(n)
    now = np.empty(n, dtype=bool)
    grad_w = np.empty_like(w)
    active, room, w_then, b_then = None, 0.0, np.empty_like(w), 0.0
    for t in range(1, SVM_ITERATIONS + 1):
        if not (room > 0.0 and reach * float(np.abs(w - w_then).max()) + abs(b - b_then) < room):
            np.matmul(features, w, out=margin)
            margin += b
            margin *= y
            np.less(margin, 1.0, out=now)
            key = now.tobytes()
            if key != active:
                active, room = key, 0.0
                rows = np.flatnonzero(now)
                hinge_w = signed.take(rows, axis=0).sum(axis=0) / n
                grad_b = -float(2 * np.count_nonzero(positive.take(rows)) - len(rows)) / n
            else:  # scale is inf where a skipped pass could overflow, and so forces every pass
                scale = 4.0 * (reach * float(np.abs(w).max()) + abs(b) + 1.0)
                room = float(np.abs(margin - 1.0).min()) - slack * scale
                w_then[:], b_then = w, b
        step = 1.0 / (lam * t)
        # w -= step * (lam * w - hinge_w)
        np.multiply(w, lam, out=grad_w)
        grad_w -= hinge_w
        grad_w *= step
        w -= grad_w
        b -= step * grad_b
    if not np.any(w != 0.0):
        raise InsufficientData("SVM training produced a zero weight vector")
    return WeightVector(detector_ids, tuple(float(v) for v in w), float(b))


def row_dots(features: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``row @ w`` of each row of a C-ordered matrix, bit for bit, in one call:
    N stacked 1×D rows times ``w`` as D×1 are N vector dots, the kernel of
    ``row @ w``; ``features @ w`` rounds some rows differently."""
    if not features.flags.c_contiguous:
        raise ValueError("row_dots needs C-ordered features")
    return np.matmul(features[:, None, :], w[:, None])[:, 0, 0]


def weighted_sum_fuse(windows: DetectionColumns, slots: np.ndarray, platt: dict[str, PlattModel],
                      weights: WeightVector) -> np.ndarray:
    """The learned linear score of each row of slots: one dot product per
    row (``row_dots``), plus the bias."""
    features = platt_features(windows, slots, platt, weights.detector_ids)
    return row_dots(features, np.array(weights.weights)) + weights.bias


@dataclass(frozen=True)
class ScoreLikelihood:
    """Histogram likelihoods of calibrated scores for targets and non-targets.

    Bins partition [0, 1]; Laplace smoothing keeps every bin mass positive.
    """

    detector_id: str
    target_bins: tuple[float, ...]
    nontarget_bins: tuple[float, ...]

    def __post_init__(self):
        if len(self.target_bins) != len(self.nontarget_bins):
            raise ValueError("target and non-target histograms must have the same bins")
        # Both checks are false for NaN.
        for name in ("target_bins", "nontarget_bins"):
            if not abs(sum(getattr(self, name)) - 1.0) <= 1e-9:
                raise ValueError(f"{name} must sum to 1")
            if not all(m > 0 for m in getattr(self, name)):
                raise ValueError(f"{name} must all be positive after smoothing")

    @property
    def bin_count(self) -> int:
        return len(self.target_bins)


def fit_score_likelihood(
    scores: np.ndarray,
    tp: np.ndarray,
    platt: PlattModel,
    detector_id: str = "",
) -> ScoreLikelihood:
    """Histogram the Platt probabilities of decided validation windows'
    scores, true positives and false positives apart."""
    probs = sigmoid(scores, platt.a, platt.b)
    bins = np.minimum((probs * LIKELIHOOD_BINS).astype(np.intp), LIKELIHOOD_BINS - 1)
    tp_counts = LIKELIHOOD_SMOOTHING + np.bincount(bins[tp], minlength=LIKELIHOOD_BINS)
    fp_counts = LIKELIHOOD_SMOOTHING + np.bincount(bins[~tp], minlength=LIKELIHOOD_BINS)
    return ScoreLikelihood(
        detector_id=detector_id,
        target_bins=tuple(tp_counts / tp_counts.sum()),
        nontarget_bins=tuple(fp_counts / fp_counts.sum()),
    )


def bayes_fuse(windows: DetectionColumns, slots: np.ndarray, platt: dict[str, PlattModel],
               likelihoods: dict[str, ScoreLikelihood]) -> np.ndarray:
    """Naive-Bayes log-posterior odds of each row from even prior odds: the
    log likelihood ratios of its present slots' Platt probabilities, added
    detector by detector in id order.

    Each window's ratio is looked up once in its detector's table (a
    ``math.log`` per bin), at the bin ``fit_score_likelihood`` gives its
    probability. An absent slot adds +0.0, which changes no sum: the odds
    start at +0.0, and no sum of ratios is -0.0.
    """
    probs, codes = window_probabilities(windows, platt), windows.detectors.codes
    ratios = np.zeros(len(codes) + 1)  # the last: an absent slot's
    log_odds = np.zeros(len(slots))  # log(0.5 / 0.5): even prior odds
    for j, det_id in enumerate(windows.detectors.names):  # sorted ids
        if det_id in likelihoods:
            model, own = likelihoods[det_id], codes == j
            table = np.array([math.log(t / f) for t, f in zip(model.target_bins, model.nontarget_bins)])
            bins = np.minimum((probs[:-1][own] * model.bin_count).astype(np.intp), model.bin_count - 1)
            ratios[:-1][own] = table[bins]
            log_odds += ratios[slots[:, j]]
    return log_odds
