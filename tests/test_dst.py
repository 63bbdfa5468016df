import numpy as np
import pytest

from beliefuse.dst import (
    VACUOUS,
    Bpa,
    TotalConflict,
    combine,
    combine_all,
    combine_all_enumerated,
    combine_rows,
    fused_scores,
)


def random_bpa(rng) -> Bpa:
    m = rng.dirichlet([1.0, 1.0, 1.0])
    return Bpa(float(m[0]), float(m[1]), float(m[2]))


class TestBpaConstruction:
    def test_normalizes_float_noise(self):
        b = Bpa(0.6, 0.1, 0.3)
        assert b.m_target + b.m_nontarget + b.m_intermediate == pytest.approx(1.0, abs=1e-15)

    def test_clamps_tiny_negative(self):
        b = Bpa(-1e-16, 0.4, 0.6)
        assert b.m_target == 0.0

    def test_rejects_large_negative(self):
        with pytest.raises(ValueError):
            Bpa(-0.1, 0.5, 0.6)

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            Bpa(0.2, 0.2, 0.2)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Bpa(float("nan"), 0.5, 0.5)


class TestCombine:
    def test_vacuous_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = random_bpa(rng)
            c = combine(a, VACUOUS)
            assert c.as_tuple() == pytest.approx(a.as_tuple(), abs=1e-15)

    def test_hand_worked_pair(self):
        # All nine product terms enumerated by hand; N = 0.83.
        c = combine(Bpa(0.6, 0.1, 0.3), Bpa(0.5, 0.2, 0.3))
        assert c.m_target == pytest.approx(0.63 / 0.83, abs=1e-12)
        assert c.m_nontarget == pytest.approx(0.11 / 0.83, abs=1e-12)
        assert c.m_intermediate == pytest.approx(0.09 / 0.83, abs=1e-12)

    def test_total_conflict_raises(self):
        with pytest.raises(TotalConflict):
            combine(Bpa(1, 0, 0), Bpa(0, 1, 0))

    def test_near_total_conflict_raises_total_conflict(self):
        # The normalizer is 1.0e-11, cancelled down to a few ulps: the
        # rescaled masses total 1.0000017, which no Bpa can hold.
        near = Bpa.exact(0.0, 0.9999999999898783, 1.0121698744270725e-11)
        with pytest.raises(TotalConflict):
            combine(near, Bpa(1, 0, 0))
        sources = np.array([[near.as_tuple(), (1.0, 0.0, 0.0)]])
        _, conflict = combine_rows(sources, np.ones((1, 2), dtype=bool))
        assert conflict.tolist() == [True]

    def test_commutative_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            a, b = random_bpa(rng), random_bpa(rng)
            assert combine(a, b).as_tuple() == combine(b, a).as_tuple()

    def test_associative_within_tolerance(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            a, b, c = random_bpa(rng), random_bpa(rng), random_bpa(rng)
            left = combine(combine(a, b), c).as_tuple()
            right = combine(a, combine(b, c)).as_tuple()
            assert left == pytest.approx(right, abs=1e-12)

    def test_output_validity(self):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            c = combine(random_bpa(rng), random_bpa(rng))
            masses = c.as_tuple()
            assert all(m >= 0 for m in masses)
            assert sum(masses) == pytest.approx(1.0, abs=1e-9)


class TestCombineAll:
    def test_single_element(self):
        b = Bpa(0.6, 0.1, 0.3)
        assert combine_all([b]) == b

    def test_all_vacuous(self):
        assert combine_all([VACUOUS] * 3).is_vacuous()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_all([])

    def test_fold_matches_direct_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            bpas = [random_bpa(rng) for _ in range(k)]
            folded = combine_all(bpas).as_tuple()
            direct = combine_all_enumerated(bpas).as_tuple()
            assert folded == pytest.approx(direct, abs=1e-12)

    def test_direct_enumeration_total_conflict(self):
        with pytest.raises(TotalConflict):
            combine_all_enumerated([Bpa(1, 0, 0), Bpa(0, 1, 0), VACUOUS])


class TestFusedScores:
    def test_score_definition(self):
        joint = Bpa(0.7590361445783133, 0.13253012048192772, 0.10843373493975904)
        assert fused_scores(np.array([joint.as_tuple()]))[0] == pytest.approx(0.6265, abs=1e-4)

    def test_score_range_and_extremes(self):
        rng = np.random.default_rng(6)
        joints = np.array([random_bpa(rng).as_tuple() for _ in range(1000)])
        assert ((-1.0 <= fused_scores(joints)) & (fused_scores(joints) <= 1.0)).all()
        extremes = np.array([Bpa(1, 0, 0).as_tuple(), Bpa(0, 1, 0).as_tuple()])
        assert fused_scores(extremes).tolist() == [1.0, -1.0]
