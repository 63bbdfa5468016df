"""Baseline late-fusion methods: Platt max-fusion, weighted sum, naive Bayes.

All fitting is deterministic (fixed iteration budgets, no randomness) so
baseline numbers reproduce bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import MatchLabel
from .trust import InsufficientData


@dataclass(frozen=True)
class PlattModel:
    """Sigmoid calibrator: probability = 1 / (1 + exp(A * score + B))."""

    detector_id: str
    a: float
    b: float
    converged: bool = True

    def probability(self, score: float) -> float:
        z = self.a * score + self.b
        if z >= 0:
            return 1.0 / (1.0 + math.exp(min(z, 700.0)))
        ez = math.exp(max(z, -700.0))
        return 1.0 / (1.0 + ez)

    def to_dict(self) -> dict:
        return {
            "detector_id": self.detector_id,
            "a": self.a,
            "b": self.b,
            "converged": self.converged,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlattModel":
        return cls(data["detector_id"], data["a"], data["b"], data["converged"])


def fit_platt(
    labeled: list[tuple[float, MatchLabel]],
    detector_id: str = "",
    max_iter: int = 100,
    tol: float = 1e-10,
) -> PlattModel:
    """Fit the sigmoid by regularized maximum likelihood (damped Newton).

    Uses Platt's smoothed targets t+ = (N+ + 1)/(N+ + 2), t- = 1/(N- + 2);
    undecided samples are excluded.
    """
    scores = np.array(
        [s for s, lab in labeled if lab is not MatchLabel.UNDECIDED], dtype=float
    )
    positive = np.array(
        [
            lab is MatchLabel.TRUE_POSITIVE
            for _, lab in labeled
            if lab is not MatchLabel.UNDECIDED
        ]
    )
    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    if n_pos < 1 or n_neg < 1:
        raise InsufficientData("Platt fit needs both true and false positives")

    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    targets = np.where(positive, hi, lo)

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
    for _ in range(max_iter):
        z = a * scores + b
        p = 1.0 / (1.0 + np.exp(np.clip(z, -700.0, 700.0)))
        d1 = targets - p
        d2 = np.maximum(p * (1.0 - p), 1e-12)
        g_a = float(np.sum(scores * d1))
        g_b = float(np.sum(d1))
        if abs(g_a) < tol and abs(g_b) < tol:
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


def platt_features(
    detector_ids: list[str],
    slots: np.ndarray,
    platt: dict[str, PlattModel],
    columns: list[str] | tuple[str, ...],
) -> np.ndarray:
    """The Platt probabilities of a slot matrix's present slots, one column
    per id in ``columns``, rows first.

    Each is one ``PlattModel.probability`` (``math.exp``: ``np.exp`` rounds
    differently). Absent slots, and ids with no column in the matrix, read
    0, the natural post-sigmoid floor; every probability is above it.
    """
    column = {det_id: j for j, det_id in enumerate(detector_ids)}
    probs = np.zeros((len(slots), len(columns)))
    for k, det_id in enumerate(columns):
        if det_id in column:
            scores = slots[:, column[det_id]]
            present = scores != -np.inf
            model = platt[det_id]
            probs[present, k] = [model.probability(s) for s in scores[present].tolist()]
    return probs


def platt_fuse(
    detector_ids: list[str], slots: np.ndarray, platt: dict[str, PlattModel]
) -> np.ndarray:
    """Each row's largest calibrated probability over its present slots
    whose detector has a Platt model."""
    calibrated = [det_id for det_id in detector_ids if det_id in platt]
    best = platt_features(detector_ids, slots, platt, calibrated).max(axis=1, initial=0.0)
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
        if not any(w != 0.0 for w in self.weights):
            raise ValueError("at least one weight must be nonzero")

    def to_dict(self) -> dict:
        return {
            "detector_ids": list(self.detector_ids),
            "weights": list(self.weights),
            "bias": self.bias,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WeightVector":
        return cls(tuple(data["detector_ids"]), tuple(data["weights"]), data["bias"])


def fit_weighted_sum(
    features: np.ndarray,
    targets: np.ndarray,
    detector_ids: tuple[str, ...],
    c: float = 1.0,
    iterations: int = 2000,
) -> WeightVector:
    """Train a linear max-margin separator on Platt-scaled detection vectors.

    ``features`` holds one C-ordered row per vector and one column per
    detector id (see ``platt_features``), ``targets`` whether each vector's
    window is a true positive. Full-batch subgradient descent on the
    L2-regularized hinge loss with a 1/t step schedule; deterministic given
    the rows' order. A Fortran-ordered matrix rounds ``features @ w``
    differently.
    """
    if not len(features):
        raise InsufficientData("no training vectors")
    y = np.where(targets, 1.0, -1.0)
    if not (np.any(y > 0) and np.any(y < 0)):
        raise InsufficientData("both labels required for SVM training")
    if not np.any(features != 0.0):
        raise InsufficientData("degenerate all-zero design matrix")

    lam = 1.0 / (c * len(features))
    w = np.zeros(features.shape[1])
    b = 0.0
    for t in range(1, iterations + 1):
        margin = y * (features @ w + b)
        active = margin < 1.0
        grad_w = lam * w - (y[active, None] * features[active]).sum(axis=0) / len(features)
        grad_b = -y[active].sum() / len(features)
        step = 1.0 / (lam * t)
        w -= step * grad_w
        b -= step * grad_b
    if not np.any(w != 0.0):
        raise InsufficientData("SVM training produced a zero weight vector")
    return WeightVector(detector_ids, tuple(float(v) for v in w), float(b))


def weighted_sum_fuse(
    detector_ids: list[str],
    slots: np.ndarray,
    platt: dict[str, PlattModel],
    weights: WeightVector,
) -> np.ndarray:
    """The learned linear score of each row of a slot matrix.

    One dot product per row: a single ``features @ w`` over the whole matrix
    rounds some rows differently.
    """
    features = platt_features(detector_ids, slots, platt, weights.detector_ids)
    w = np.array(weights.weights)
    return np.array([row @ w for row in features]) + weights.bias


@dataclass(frozen=True)
class ScoreLikelihood:
    """Histogram likelihoods of calibrated scores for targets and non-targets.

    Bins partition [0, 1]; Laplace smoothing keeps every bin mass positive.
    """

    detector_id: str
    target_bins: tuple[float, ...]
    nontarget_bins: tuple[float, ...]

    def __post_init__(self):
        for bins in (self.target_bins, self.nontarget_bins):
            if abs(sum(bins) - 1.0) > 1e-9:
                raise ValueError("class histogram must sum to 1")
            if any(m <= 0 for m in bins):
                raise ValueError("all bin masses must be positive after smoothing")

    @property
    def bin_count(self) -> int:
        return len(self.target_bins)

    def _bin(self, prob: float) -> int:
        return min(int(prob * self.bin_count), self.bin_count - 1)

    def log_likelihood_ratio(self, prob: float) -> float:
        i = self._bin(prob)
        return math.log(self.target_bins[i] / self.nontarget_bins[i])

    def to_dict(self) -> dict:
        return {
            "detector_id": self.detector_id,
            "target_bins": list(self.target_bins),
            "nontarget_bins": list(self.nontarget_bins),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScoreLikelihood":
        return cls(
            data["detector_id"],
            tuple(data["target_bins"]),
            tuple(data["nontarget_bins"]),
        )


def fit_score_likelihood(
    labeled: list[tuple[float, MatchLabel]],
    platt: PlattModel,
    detector_id: str = "",
    bin_count: int = 32,
    smoothing: float = 1.0,
) -> ScoreLikelihood:
    """Histogram the Platt probabilities of validation TPs and FPs."""
    tp_counts = np.full(bin_count, smoothing)
    fp_counts = np.full(bin_count, smoothing)
    for score, lab in labeled:
        if lab is MatchLabel.UNDECIDED:
            continue
        prob = platt.probability(score)
        i = min(int(prob * bin_count), bin_count - 1)
        if lab is MatchLabel.TRUE_POSITIVE:
            tp_counts[i] += 1
        else:
            fp_counts[i] += 1
    return ScoreLikelihood(
        detector_id=detector_id,
        target_bins=tuple(tp_counts / tp_counts.sum()),
        nontarget_bins=tuple(fp_counts / fp_counts.sum()),
    )


def bayes_fuse(
    detector_ids: list[str],
    slots: np.ndarray,
    platt: dict[str, PlattModel],
    likelihoods: dict[str, ScoreLikelihood],
) -> np.ndarray:
    """Naive-Bayes log-posterior odds of each row from even prior odds: the
    log likelihood ratios of its present slots' Platt probabilities, added
    detector by detector in id order."""
    column = {det_id: j for j, det_id in enumerate(detector_ids)}
    log_odds = np.zeros(len(slots))  # log(0.5 / 0.5): even prior odds
    for det_id in sorted(set(column) & set(likelihoods)):
        present = slots[:, column[det_id]] != -np.inf
        probs = platt_features(detector_ids, slots[present], platt, [det_id])[:, 0]
        ratio = likelihoods[det_id].log_likelihood_ratio
        log_odds[present] += [ratio(p) for p in probs.tolist()]
    return log_odds
