import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fiq.estimators import (
    SampleMatrix,
    block_entropy,
    correlated_info_content,
    correlated_info_from_dist,
    correlation_report,
    entropy_from_dist,
    entropy_rate,
    info_report,
    joint_is_independent,
    mi_from_joint,
    mi_noise_floor,
    pairwise_mi,
)
from fiq.models import (
    IndependentBitsModel,
    MajorityVoteModel,
    exact_window_joint,
    sample_matrix,
)
from fiq.propensity import PropensityVector
from fiq.randombits import RandomBitSource

mpmath.mp.dps = 50

ADJACENT_JOINT = {(0, 0): Fraction(3, 8), (0, 1): Fraction(1, 8),
                  (1, 0): Fraction(1, 8), (1, 1): Fraction(3, 8)}
# closed forms, evaluated at high precision from the hand-derived cell values
ADJACENT_H2 = float(-2 * (mpmath.mpf(3) / 8 * mpmath.log(mpmath.mpf(3) / 8, 2)
                          + mpmath.mpf(1) / 8 * mpmath.log(mpmath.mpf(1) / 8, 2)))
ADJACENT_MI = float(2 - (-2 * (mpmath.mpf(3) / 8 * mpmath.log(mpmath.mpf(3) / 8, 2)
                               + mpmath.mpf(1) / 8 * mpmath.log(mpmath.mpf(1) / 8, 2))))


def matrix(rows, stationary=False):
    return SampleMatrix(bits=np.array(rows, dtype=np.uint8), stationary=stationary)


def fair_iid(n, d, seed=17):
    model = IndependentBitsModel(pv=PropensityVector.of([]),
                                 source=RandomBitSource(seed=seed))
    return sample_matrix(model, d, n)


class TestDistributionLayer:
    def test_uniform_entropy(self):
        dist = {(a, b, c): Fraction(1, 8) for a in (0, 1) for b in (0, 1) for c in (0, 1)}
        assert entropy_from_dist(dist) == pytest.approx(3.0, abs=1e-12)

    def test_majority_pair_entropy_closed_form(self):
        assert entropy_from_dist(ADJACENT_JOINT) == pytest.approx(ADJACENT_H2, abs=1e-12)
        assert entropy_from_dist(ADJACENT_JOINT) == pytest.approx(1.8113, abs=1e-4)

    def test_mi_of_product_distribution_is_zero(self):
        joint = {(a, b): Fraction(1, 4) for a in (0, 1) for b in (0, 1)}
        assert mi_from_joint(joint) == 0.0
        assert joint_is_independent(joint)

    @pytest.mark.parametrize("joint", [{}, {(1, 0): 7}, {(0, 1): Fraction(3, 5)}])
    def test_empty_or_single_cell_joint_is_independent(self, joint):
        assert mi_from_joint(joint) == 0.0
        assert joint_is_independent(joint)

    def test_mi_of_copied_fair_bit_is_one(self):
        joint = {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
        assert mi_from_joint(joint) == pytest.approx(1.0, abs=1e-12)

    def test_majority_pair_mi_closed_form(self):
        assert mi_from_joint(ADJACENT_JOINT) == pytest.approx(ADJACENT_MI, abs=1e-12)
        assert not joint_is_independent(ADJACENT_JOINT)

    def test_candidates_on_exact_joints(self):
        fair = {(a, b): Fraction(1, 4) for a in (0, 1) for b in (0, 1)}
        cm = correlated_info_from_dist(fair)
        assert cm.per_bit_sum == pytest.approx(0.0, abs=1e-12)
        assert cm.multi_information == pytest.approx(0.0, abs=1e-12)

        deterministic = {(1, 0, 1): Fraction(1)}
        cm = correlated_info_from_dist(deterministic)
        assert cm.per_bit_sum == pytest.approx(3.0, abs=1e-12)
        assert cm.multi_information == pytest.approx(3.0, abs=1e-12)

        cm = correlated_info_from_dist(ADJACENT_JOINT)
        assert cm.per_bit_sum == pytest.approx(0.0, abs=1e-12)
        assert cm.multi_information == pytest.approx(2 - ADJACENT_H2, abs=1e-12)
        assert cm.multi_information == pytest.approx(0.1887, abs=1e-4)

    def test_candidates_agree_on_independent_joints(self):
        # product law with unequal marginals
        px, py = Fraction(3, 4), Fraction(1, 3)
        joint = {(a, b): (px if a else 1 - px) * (py if b else 1 - py)
                 for a in (0, 1) for b in (0, 1)}
        cm = correlated_info_from_dist(joint)
        assert cm.multi_information == pytest.approx(cm.per_bit_sum, abs=1e-12)


class TestPairwiseMi:
    def test_preconditions(self):
        s = fair_iid(200, 3)
        with pytest.raises(ValueError):
            pairwise_mi(s, 1, 1)
        with pytest.raises(ValueError):
            pairwise_mi(fair_iid(50, 3), 0, 1)

    def test_degenerate_column_is_zero(self):
        rows = np.zeros((200, 2), dtype=np.uint8)
        rows[:, 1] = np.arange(200) % 2
        est = pairwise_mi(matrix(rows), 0, 1)
        assert est.value == 0.0 and not est.significant

    def test_copied_columns(self):
        col = fair_iid(5000, 1).bits
        s = SampleMatrix(bits=np.hstack([col, col]), stationary=False)
        est = pairwise_mi(s, 0, 1)
        assert est.value == pytest.approx(1.0, abs=0.01)
        assert est.significant

    def test_symmetry_and_nonnegativity(self):
        model = MajorityVoteModel(k=3, source=RandomBitSource(seed=2))
        s = sample_matrix(model, 6, 5000)
        for i in range(5):
            a = pairwise_mi(s, i, i + 1)
            b = pairwise_mi(s, i + 1, i)
            assert a.value == pytest.approx(b.value, abs=1e-15)
            assert a.thresholded >= 0.0

    def test_majority_adjacent_close_to_exact(self):
        model = MajorityVoteModel(k=3, source=RandomBitSource(seed=6))
        s = sample_matrix(model, 4, 100_000)
        est = pairwise_mi(s, 0, 1)
        assert est.value == pytest.approx(ADJACENT_MI, abs=0.01)
        assert est.significant


class TestBlockEntropy:
    def test_constant_stream(self):
        s = matrix([[1, 1, 1, 1]] * 200, stationary=True)
        for L in (1, 2, 4):
            assert block_entropy(s, L) == 0.0

    def test_iid_fair_l3(self):
        s = fair_iid(100_000, 3)
        assert block_entropy(s, 3) == pytest.approx(3.0, abs=0.05)

    def test_majority_l2_against_enumeration(self):
        model = MajorityVoteModel(k=3, source=RandomBitSource(seed=10))
        s = sample_matrix(model, 12, 30_000)
        assert block_entropy(s, 2) == pytest.approx(ADJACENT_H2, abs=0.01)

    def test_rejects_oversize_blocks(self):
        s = fair_iid(1000, 4)
        with pytest.raises(ValueError):
            block_entropy(s, 5)

    def test_chain_monotone_within_tolerance(self):
        model = MajorityVoteModel(k=3, source=RandomBitSource(seed=3))
        s = sample_matrix(model, 16, 100_000)
        hs = [block_entropy(s, L) for L in range(1, 9)]
        tol = 0.02
        for a, b in zip(hs, hs[1:]):
            assert b >= a - tol
        increments = [b - a for a, b in zip(hs, hs[1:])]
        for a, b in zip(increments, increments[1:]):
            assert b <= a + tol


class TestBlockEntropyFromCounts:
    """block_entropy against window tuples counted by hand, correction included."""

    ROWS = [[0, 1, 1, 0, 1], [1, 1, 1, 0, 0], [0, 1, 1, 0, 1], [0, 0, 0, 1, 1]]

    @staticmethod
    def miller_madow(windows):
        counts = Counter(windows)
        n = sum(counts.values())
        plugin = -math.fsum(c / n * math.log2(c / n) for c in counts.values())
        return plugin + (len(counts) - 1) / (2 * n * math.log(2))

    @pytest.mark.parametrize("L", [1, 2, 3, 5])
    def test_pooled_over_positions_when_stationary(self, L):
        windows = [tuple(row[t:t + L]) for row in self.ROWS for t in range(len(row) - L + 1)]
        got = block_entropy(matrix(self.ROWS, stationary=True), L)
        assert got == pytest.approx(self.miller_madow(windows), abs=1e-12)

    @pytest.mark.parametrize("L", [1, 2, 3, 5])
    def test_first_window_only_when_not_stationary(self, L):
        windows = [tuple(row[:L]) for row in self.ROWS]
        got = block_entropy(matrix(self.ROWS, stationary=False), L)
        assert got == pytest.approx(self.miller_madow(windows), abs=1e-12)


class TestEntropyRate:
    def test_iid_fair_rate_one(self):
        s = fair_iid(100_000, 10)
        est = entropy_rate(s, 6)
        assert est.rate == pytest.approx(1.0, abs=0.02)

    def test_periodic_stream_rate_zero(self):
        row = [0, 1] * 5
        s = matrix([row] * 2000, stationary=False)
        assert entropy_rate(s, 4).rate == pytest.approx(0.0, abs=1e-9)

    def test_majority_rate_matches_enumeration(self):
        model = MajorityVoteModel(k=3, source=RandomBitSource(seed=14))
        s = sample_matrix(model, 16, 100_000)
        l_max = 6
        est = entropy_rate(s, l_max)
        h_hi = entropy_from_dist(exact_window_joint(3, Fraction(1, 2), range(1, l_max + 1)))
        h_lo = entropy_from_dist(exact_window_joint(3, Fraction(1, 2), range(1, l_max)))
        assert est.rate == pytest.approx(h_hi - h_lo, abs=0.02)

    def test_diagnostics_shape(self):
        s = fair_iid(2000, 8)
        est = entropy_rate(s, 4)
        assert len(est.block_entropies) == 4


class TestCorrelatedInfoContent:
    def test_iid_fair_near_zero(self):
        s = fair_iid(100_000, 6)
        cm = correlated_info_content(s, 6)
        assert cm.per_bit_sum == pytest.approx(0.0, abs=0.01)
        assert cm.multi_information == pytest.approx(0.0, abs=0.01)

    def test_deterministic_bits(self):
        model = IndependentBitsModel(pv=PropensityVector.of([1, 0, 1]),
                                     source=RandomBitSource(seed=1))
        s = sample_matrix(model, 3, 1000)
        cm = correlated_info_content(s, 3)
        assert cm.per_bit_sum == pytest.approx(3.0, abs=1e-12)
        assert cm.multi_information == pytest.approx(3.0, abs=1e-2)

    def test_majority_d2(self):
        model = MajorityVoteModel(k=3, source=RandomBitSource(seed=8))
        s = sample_matrix(model, 4, 100_000)
        cm = correlated_info_content(s, 2)
        assert cm.per_bit_sum == pytest.approx(0.0, abs=0.01)
        assert cm.multi_information == pytest.approx(2 - ADJACENT_H2, abs=0.01)


class TestReports:
    def test_correlation_report_structure(self):
        model = MajorityVoteModel(k=3, source=RandomBitSource(seed=4))
        s = sample_matrix(model, 6, 2000)
        rep = correlation_report(s)
        assert rep.mi_matrix.shape == (6, 6)
        assert np.allclose(rep.mi_matrix, rep.mi_matrix.T)
        assert rep.noise_floor == mi_noise_floor(2000)
        assert (rep.mi_matrix[np.triu_indices(6, 1)] >= 0).all()

    def test_info_report(self):
        s = fair_iid(5000, 8)
        rep = info_report(s, l_max=4)
        assert rep.measure_name == "entropy-complement-sum"
        assert len(rep.per_bit_terms) == 8
        assert rep.total == pytest.approx(sum(rep.per_bit_terms))
        assert len(rep.block_entropies) == 4
