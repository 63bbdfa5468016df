"""Mass functions on the binary detection frame and Dempster's combination rule.

The frame of discernment is {target, non-target}; the only compound
hypothesis is the intermediate state I = {target, non-target}, whose mass
quantifies decision ambiguity. The general M-ary power set is deliberately
not modeled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

_SUM_TOL = 1e-9
_CONFLICT_TOL = 1e-12


class TotalConflict(ValueError):
    """Raised when two sources are certain of contradictory hypotheses.

    Dempster's rule is undefined when the normalizer is zero; callers choose
    a recovery policy (see the fusion pipeline).
    """


def sums_to_one(m_t, m_nt, m_i):
    """Whether masses total 1 as a ``Bpa`` requires: ``(m_T + m_~T) + m_I``
    within 1e-6 of 1, false for NaN; elementwise on arrays. The total is
    spelled out, not ``sum()``: Python 3.12's ``sum()`` rounds differently."""
    return abs((m_t + m_nt) + m_i - 1.0) <= 1e-6


@dataclass(frozen=True)
class Bpa:
    """Basic probability assignment over {T, ~T, I}; empty-set mass is zero.

    Masses are normalized on construction; tiny negative float noise
    (>= -1e-9) is clamped to zero, anything more negative is an error.
    """

    m_target: float
    m_nontarget: float
    m_intermediate: float

    def __post_init__(self):
        masses = [self.m_target, self.m_nontarget, self.m_intermediate]
        if not all(math.isfinite(m) for m in masses):
            raise ValueError(f"masses must be finite: {masses}")
        if any(m < -_SUM_TOL for m in masses):
            raise ValueError(f"negative mass beyond tolerance: {masses}")
        masses = [max(m, 0.0) for m in masses]
        total = (masses[0] + masses[1]) + masses[2]
        if total <= 0:
            raise ValueError("masses must not all be zero")
        if not sums_to_one(*masses):
            raise ValueError(f"masses must sum to 1, got {total}")
        if total != 1.0:
            masses = [m / total for m in masses]
        object.__setattr__(self, "m_target", masses[0])
        object.__setattr__(self, "m_nontarget", masses[1])
        object.__setattr__(self, "m_intermediate", masses[2])

    @classmethod
    def exact(cls, m_target: float, m_nontarget: float, m_intermediate: float) -> Bpa:
        """A Bpa holding these masses bit for bit, for masses normalized once
        already (a joint written to a file, a ``combine_rows`` row): checked
        like the constructor's, but never clamped or rescaled."""
        masses = (m_target, m_nontarget, m_intermediate)
        # The comparisons are false for NaN, and the total check fails on inf.
        if not (m_target >= 0.0 and m_nontarget >= 0.0 and m_intermediate >= 0.0):
            raise ValueError(f"masses must not be negative or NaN: {masses}")
        if not sums_to_one(*masses):
            raise ValueError(f"masses must sum to 1, got {(m_target + m_nontarget) + m_intermediate}")
        b = object.__new__(cls)
        object.__setattr__(b, "m_target", m_target)
        object.__setattr__(b, "m_nontarget", m_nontarget)
        object.__setattr__(b, "m_intermediate", m_intermediate)
        return b

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.m_target, self.m_nontarget, self.m_intermediate)

    def is_vacuous(self) -> bool:
        return self.m_intermediate == 1.0


VACUOUS = Bpa(0.0, 0.0, 1.0)  # total ignorance, the identity of combine


def combine(a: Bpa, b: Bpa) -> Bpa:
    """Dempster's rule for two sources on the binary frame.

    Raises TotalConflict when the conflict normalizer is zero, or so close
    to zero that the rescaled masses no longer sum to 1: near total conflict
    the normalizer 1 - conflict cancels to a few ulps, and its rounding error
    no longer divides out.
    """
    conflict = a.m_target * b.m_nontarget + a.m_nontarget * b.m_target
    n = 1.0 - conflict
    if n <= _CONFLICT_TOL:
        raise TotalConflict(f"combination normalizer {n} is not positive")
    # Cross terms grouped so the sum is exactly symmetric in (a, b).
    m_t = a.m_target * b.m_target + (
        a.m_target * b.m_intermediate + a.m_intermediate * b.m_target
    )
    m_nt = a.m_nontarget * b.m_nontarget + (
        a.m_nontarget * b.m_intermediate + a.m_intermediate * b.m_nontarget
    )
    m_i = a.m_intermediate * b.m_intermediate
    masses = (m_t / n, m_nt / n, m_i / n)
    if not sums_to_one(*masses):
        raise TotalConflict(f"combination normalizer {n} is too small to rescale by")
    return Bpa(*masses)


def combine_all(bpas: list[Bpa]) -> Bpa:
    """Left-fold of pairwise combination over a nonempty list of sources."""
    if not bpas:
        raise ValueError("combine_all requires at least one Bpa")
    return reduce(combine, bpas)


def bpa_rows(masses: np.ndarray) -> np.ndarray:
    """``Bpa(*row).as_tuple()`` for every row of an (N, 3) mass array, bit for
    bit: the constructor's checks, clamp and rescale, elementwise."""
    if not np.isfinite(masses).all():
        raise ValueError("masses must be finite")
    if (masses < -_SUM_TOL).any():
        raise ValueError("negative mass beyond tolerance")
    # max(m, 0.0) keeps m unless 0.0 > m, and m / 1.0 is m.
    masses = np.where(masses < 0.0, 0.0, masses)
    if not sums_to_one(*masses.T).all():
        raise ValueError("masses must sum to 1")
    return masses / ((masses[:, 0] + masses[:, 1]) + masses[:, 2])[:, None]


def combine_rows(sources: np.ndarray, use: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``combine_all`` row by row, as one fold over array columns.

    ``sources`` is (N, K, 3): each row's K mass functions as (m_T, m_~T,
    m_I), each normalized like a ``Bpa``. Source k takes part in row i where
    ``use[i, k]`` and it is not vacuous; row i of the joint (N, 3) is
    ``combine_all`` of those sources in column order, bit for bit (each step
    repeats ``combine``'s products and its ``Bpa`` construction), or the
    vacuous mass when there are none. Rows where a step's normalizer is not
    positive, or too small to rescale by, are set in the returned conflict
    mask; ``combine_all`` would raise ``TotalConflict`` on them, and their
    joint rows are meaningless.
    """
    n_rows, n_sources = use.shape
    joint = np.tile(VACUOUS.as_tuple(), (n_rows, 1))
    started = np.zeros(n_rows, dtype=bool)
    conflict = np.zeros(n_rows, dtype=bool)
    for k in range(n_sources):
        source = sources[:, k]
        take = use[:, k] & (source[:, 2] != 1.0)
        rows = np.flatnonzero(take & started & ~conflict)
        a, b = joint[rows].T, source[rows].T
        n = 1.0 - (a[0] * b[1] + a[1] * b[0])
        ok = n > _CONFLICT_TOL
        (a_t, a_nt, a_i), (b_t, b_nt, b_i), n = a[:, ok], b[:, ok], n[ok, None]
        masses = np.stack(
            [
                a_t * b_t + (a_t * b_i + a_i * b_t),
                a_nt * b_nt + (a_nt * b_i + a_i * b_nt),
                a_i * b_i,
            ],
            axis=1,
        ) / n
        rescalable = sums_to_one(*masses.T)
        ok[ok] = rescalable
        conflict[rows[~ok]] = True
        joint[rows[ok]] = bpa_rows(masses[rescalable])
        first = take & ~started
        joint[first] = source[first]
        started |= take
    return joint, conflict


# Intersection table on the binary frame: T^I = T, ~T^I = ~T, T^~T = empty.
_SETS = {"T": frozenset({"T"}), "~T": frozenset({"~T"}), "I": frozenset({"T", "~T"})}


def combine_all_enumerated(bpas: list[Bpa]) -> Bpa:
    """Direct K-way product-sum form of Dempster's rule.

    Enumerates all 3^K focal-element assignments; exponential, intended as
    the independent oracle for combine_all.
    """
    if not bpas:
        raise ValueError("combine_all_enumerated requires at least one Bpa")
    acc = {"T": 0.0, "~T": 0.0, "I": 0.0}
    n = 0.0
    labels = ("T", "~T", "I")
    masses = [dict(zip(labels, b.as_tuple())) for b in bpas]
    for assignment in itertools.product(labels, repeat=len(bpas)):
        product = 1.0
        for m, lab in zip(masses, assignment):
            product *= m[lab]
        inter = reduce(frozenset.intersection, (_SETS[lab] for lab in assignment))
        if not inter:
            continue
        n += product
        if inter == _SETS["I"]:
            acc["I"] += product
        elif inter == _SETS["T"]:
            acc["T"] += product
        else:
            acc["~T"] += product
    if n <= _CONFLICT_TOL:
        raise TotalConflict(f"combination normalizer {n} is not positive")
    return Bpa(acc["T"] / n, acc["~T"] / n, acc["I"] / n)


def fused_scores(joints: np.ndarray) -> np.ndarray:
    """Each joint mass row's fused score, bel(T) - bel(~T)."""
    return joints[:, 0] - joints[:, 1]
