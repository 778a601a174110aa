import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import fiq.models
from fiq.estimators import (
    LN2,
    MAX_BLOCK_LENGTH,
    block_entropy,
    correlated_info_content,
    correlated_info_from_dist,
    correlation_report,
    entropy_from_dist,
    entropy_rate,
    info_report,
    joint_is_independent,
    mi_from_joint,
    mi_matrix,
    mi_noise_floor,
    pairwise_joint_counts,
    pairwise_mi,
)
from fiq.models import (
    IndependentBitsModel,
    MajorityVoteModel,
    count_rows,
    exact_window_joint,
    sample_batches,
    sample_matrix,
    window_codes,
)
from fiq.propensity import PropensityVector, binary_entropy
from fiq.randombits import RandomBitSource

mpmath.mp.dps = 50

ADJACENT_JOINT = {(0, 0): Fraction(3, 8), (0, 1): Fraction(1, 8),
                  (1, 0): Fraction(1, 8), (1, 1): Fraction(3, 8)}
# closed forms, evaluated at high precision from the hand-derived cell values
ADJACENT_H2 = float(-2 * (mpmath.mpf(3) / 8 * mpmath.log(mpmath.mpf(3) / 8, 2)
                          + mpmath.mpf(1) / 8 * mpmath.log(mpmath.mpf(1) / 8, 2)))
ADJACENT_MI = float(2 - (-2 * (mpmath.mpf(3) / 8 * mpmath.log(mpmath.mpf(3) / 8, 2)
                               + mpmath.mpf(1) / 8 * mpmath.log(mpmath.mpf(1) / 8, 2))))


def count_bits(bits, stationary=False):
    """The counts of hand-made (N, d) bits, read at ``fiq measure``'s length min(d, MAX_BLOCK_LENGTH)."""
    d = bits.shape[1]
    return count_rows([bits], d, stationary, min(d, MAX_BLOCK_LENGTH))


def matrix(rows, stationary=False):
    return count_bits(np.array(rows, dtype=np.uint8), stationary)


def sampled(model, d, n):
    """The counts of ``sample_matrix(model, d, n)``, drawn a batch at a time and read like ``matrix``."""
    return count_rows(sample_batches(model, d, n), d, model.stationary, min(d, MAX_BLOCK_LENGTH))


def fair_iid(n, d, seed=17):
    model = IndependentBitsModel(pv=PropensityVector([]),
                                 source=RandomBitSource(seed=seed))
    return sampled(model, d, n)


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

    def test_marginal_of_an_always_set_bit_is_exactly_one(self):
        # a running float sum of these weights over 95 reaches 1.0000000000000002 for bit 1
        law = {(1, 0, 0): 24, (1, 0, 1): 26, (1, 1, 0): 36, (1, 1, 1): 9}
        cm = correlated_info_from_dist(law)
        rest = [1.0 - binary_entropy(45 / 95), 1.0 - binary_entropy(35 / 95)]
        assert cm.per_bit_sum == math.fsum([1.0, *rest])

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
        assert pairwise_mi(matrix(rows), 0, 1) == 0.0
        # with 7 ones in 200 rows the plug-in sum against a constant column
        # rounds to about 1e-17, not 0, so only the guard gives exactly 0
        rows[:, 1] = np.arange(200) < 7
        assert pairwise_mi(matrix(rows), 1, 0) == 0.0  # the constant column as j
        rows[:, 0] = 1
        assert pairwise_mi(matrix(rows), 0, 1) == 0.0  # an all-ones column
        assert pairwise_mi(matrix(rows), 1, 0) == 0.0
        rows[:, 1] = 0
        assert pairwise_mi(matrix(rows), 0, 1) == 0.0  # both columns constant

    def test_copied_columns(self):
        model = IndependentBitsModel(pv=PropensityVector([]), source=RandomBitSource(seed=17))
        col = sample_matrix(model, 1, 5000)
        s = count_bits(np.hstack([col, col]))
        est = pairwise_mi(s, 0, 1)
        assert est == pytest.approx(1.0, abs=0.01)
        assert est > mi_noise_floor(5000)

    def test_symmetry_and_nonnegativity(self):
        model = MajorityVoteModel(k=3, source=RandomBitSource(seed=2))
        s = sampled(model, 6, 5000)
        for i in range(5):
            a = pairwise_mi(s, i, i + 1)
            b = pairwise_mi(s, i + 1, i)
            assert a == pytest.approx(b, abs=1e-15)
            assert a >= 0.0

    def test_majority_adjacent_close_to_exact(self):
        model = MajorityVoteModel(k=3, source=RandomBitSource(seed=6))
        s = sampled(model, 4, 100_000)
        est = pairwise_mi(s, 0, 1)
        assert est == pytest.approx(ADJACENT_MI, abs=0.01)
        assert est > mi_noise_floor(100_000)


def slow_joint_counts(bits, i, j):
    """2x2 counts of columns i and j by one bincount over the pair codes."""
    counts = np.bincount(bits[:, i].astype(np.int64) * 2 + bits[:, j], minlength=4)
    return {(a, b): int(counts[2 * a + b]) for a in (0, 1) for b in (0, 1)}


def random_bits(n, d, seed):
    """Columns of random density, the first all zeros and the last all ones when d > 1."""
    rng = np.random.default_rng(seed)
    density = rng.random(d)
    if d > 1:
        density[0], density[-1] = 0.0, 1.0
    return (rng.random((n, d)) < density).astype(np.uint8)


class TestPairCounts:
    """The Gram matrix and the 2x2 tables read off it, against per-pair bincounts."""

    def assert_matches_reference(self, bits):
        s = count_rows([bits], bits.shape[1], False, 0)
        d = bits.shape[1]
        expected = np.array([[slow_joint_counts(bits, i, j)[1, 1] for j in range(d)] for i in range(d)])
        assert s.pair_counts.dtype == np.int64
        assert np.array_equal(s.pair_counts, expected)
        for i in range(d):
            for j in range(d):
                if i != j:
                    assert list(pairwise_joint_counts(s, i, j).items()) == list(slow_joint_counts(bits, i, j).items())

    @pytest.mark.parametrize("n,d,seed", [(10_007, 16, 1), (4097, 5, 2), (300, 1, 3), (7, 3, 4),
                                          (5003, 40, 5)])
    def test_random_matrices(self, n, d, seed):
        # at the default chunk size none of these N is a multiple of the chunk rows
        assert n % max(1, fiq.models.SAMPLE_CHUNK_BITS // d)
        self.assert_matches_reference(random_bits(n, d, seed))

    @pytest.mark.parametrize("d", [1, 4, 9])
    def test_many_chunks(self, monkeypatch, d):
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", 3 * d + 1)  # 3 rows per chunk
        self.assert_matches_reference(random_bits(1001, d, seed=d))

    @pytest.mark.parametrize("value", [0, 1])
    def test_one_constant_column(self, value):
        self.assert_matches_reference(np.full((500, 1), value, dtype=np.uint8))

    def test_chunks_stay_exact_in_float32(self):
        # a chunk has at most SAMPLE_CHUNK_BITS rows for any depth >= 1
        assert all(max(1, fiq.models.SAMPLE_CHUNK_BITS // depth) < 1 << 24 for depth in range(1, 65))
        # a count past 2^24 is summed across chunks in int64, where float32 would round it
        s = count_rows([np.ones(((1 << 24) + 1, 1), dtype=np.uint8)], 1, False, 0)
        assert s.pair_counts[0, 0] == (1 << 24) + 1

    def test_mi_matrix_holds_less_than_one_int64_column(self, monkeypatch):
        # one int64 copy of a column is n * 8 bytes; the per-pair codes held at least that
        n = 200_000
        s = fair_iid(n, 16)
        tracemalloc.start()
        try:
            first = mi_matrix(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * 8
        # building the counts again would read the chunk size, which now fails
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", None)
        assert np.array_equal(mi_matrix(s), first)


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
        s = sampled(model, 12, 30_000)
        assert block_entropy(s, 2) == pytest.approx(ADJACENT_H2, abs=0.01)

    def test_rejects_oversize_blocks(self):
        s = fair_iid(1000, 4)
        with pytest.raises(ValueError):
            block_entropy(s, 5)

    def test_chain_monotone_within_tolerance(self):
        model = MajorityVoteModel(k=3, source=RandomBitSource(seed=3))
        s = sampled(model, 16, 100_000)
        hs = [block_entropy(s, L) for L in range(1, 9)]
        tol = 0.02
        for a, b in zip(hs, hs[1:]):
            assert b >= a - tol
        increments = [b - a for a, b in zip(hs, hs[1:])]
        for a, b in zip(increments, increments[1:]):
            assert b <= a + tol

    def test_holds_one_code_vector(self):
        # all N x (d - L + 1) window codes at once would be 16 * N * 8 bytes here
        n = 20_000
        bits = sample_matrix(MajorityVoteModel(k=3, source=RandomBitSource(seed=4)), 16, n)
        tracemalloc.start()
        try:
            block_entropy(count_rows([bits], 16, True, 1), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * 8


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


@pytest.mark.parametrize("L", range(1, 9))
def test_entropy_from_dist_is_the_plugin_part_of_block_entropy(L):
    bits = sample_matrix(MajorityVoteModel(k=3, source=RandomBitSource(seed=5)), 8, 20_000)
    s = count_bits(bits, stationary=True)
    codes = Counter(next(window_codes(bits, L)).tolist())
    miller_madow = (len(codes) - 1) / (2.0 * s.n_samples * LN2)
    assert entropy_from_dist(codes) + miller_madow == block_entropy(s, L, first_window=True)


def bincount_windows(bits, length, pooled):
    """Counts of the length-L window codes, one bincount per window (block_entropy before window histograms)."""
    bits = bits if pooled else bits[:, :length]
    return sum(np.bincount(code, minlength=1 << length) for code in window_codes(bits, length))


def bincount_entropy(counts):
    counts = counts[counts > 0]
    n = int(counts.sum())
    probs = counts / n
    return float(-(probs * np.log2(probs)).sum()) + (len(counts) - 1) / (2.0 * n * LN2)


class TestWindowCounts:
    """Window histograms read off the read length's windows, against one bincount per window."""

    @pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
    @pytest.mark.parametrize("stationary", [True, False])
    @pytest.mark.parametrize("d", [1, 5, 16, 20])
    def test_every_length_in_any_order(self, d, stationary, order):
        bits = random_bits(2000, d, seed=d)
        s = count_bits(bits, stationary)
        lengths = list(range(1, min(d, MAX_BLOCK_LENGTH) + 1))
        if order == "decreasing":
            lengths.reverse()
        elif order == "shuffled":
            random.Random(d).shuffle(lengths)
        for L in lengths:
            first, pooled = s.window_counts(L)
            expected_first = bincount_windows(bits, L, pooled=False)
            expected_pooled = bincount_windows(bits, L, pooled=stationary)
            assert first.dtype == pooled.dtype == np.int64
            assert np.array_equal(first, expected_first)
            assert np.array_equal(pooled, expected_pooled)
            assert block_entropy(s, L) == bincount_entropy(expected_pooled)
            assert block_entropy(s, L, first_window=True) == bincount_entropy(expected_first)

    def test_shorter_length_reads_no_rows(self, monkeypatch):
        bits = sample_matrix(MajorityVoteModel(k=3, source=RandomBitSource(seed=6)), 16, 5000)
        expected = [bincount_entropy(bincount_windows(bits, L, pooled=True)) for L in range(1, 12)]
        s = count_rows([bits], 16, True, 11)

        def no_rows(bits, length):
            raise AssertionError(f"rows read again for length {length}")

        monkeypatch.setattr(fiq.models, "window_codes", no_rows)
        assert [block_entropy(s, L) for L in range(11, 0, -1)] == expected[::-1]
        assert correlated_info_content(s, 8).multi_information == 8 - bincount_entropy(
            bincount_windows(bits, 8, pooled=False))
        with pytest.raises(ValueError, match="window length 12 is not in 1 .. the read length 11"):
            block_entropy(s, 12)

    def test_entropy_rate_reads_rows_once(self, monkeypatch):
        model = MajorityVoteModel(k=3, source=RandomBitSource(seed=6))
        lengths = []
        rolled = fiq.models.window_codes

        def counted(bits, length):
            lengths.append(length)
            return rolled(bits, length)

        monkeypatch.setattr(fiq.models, "window_codes", counted)
        s = count_rows(sample_batches(model, 16, 5000), 16, True, 12)  # one batch
        entropy_rate(s, 12)
        assert lengths == [12]

    @pytest.mark.parametrize("stationary", [True, False])
    @pytest.mark.parametrize("n,read,batches", [(20_000, 13, 1), (140_000, 16, 3)])
    def test_increasing_lengths_read_rows_once(self, monkeypatch, n, read, batches, stationary):
        model = MajorityVoteModel(k=3, source=RandomBitSource(seed=6))
        bits = sample_matrix(model, 16, n)
        expected = [(bincount_windows(bits, L, pooled=False), bincount_windows(bits, L, pooled=stationary))
                    for L in range(1, 13)]
        lengths = []
        rolled = fiq.models.window_codes

        def counted(bits, length):
            lengths.append(length)
            return rolled(bits, length)

        monkeypatch.setattr(fiq.models, "window_codes", counted)
        s = count_rows(sample_batches(model, 16, n), 16, stationary, read)
        assert lengths == [read] * batches
        assert [block_entropy(s, L) for L in range(1, 13)] == [bincount_entropy(p) for _, p in expected]
        for L, (first, pooled) in enumerate(expected, start=1):
            assert np.array_equal(s.window_counts(L)[0], first)
            assert np.array_equal(s.window_counts(L)[1], pooled)
        assert lengths == [read] * batches

    @pytest.mark.parametrize("stationary", [True, False])
    def test_holds_three_histograms_of_the_read_length(self, stationary):
        s = count_bits(random_bits(1000, 20, seed=7), stationary)
        for L in (3, 16, 5):
            s.window_counts(L)
        held = {id(a): a.nbytes for a in (s.first_window, s.pooled_windows, s.last_window)}
        assert s.read_length == 16
        assert sum(held.values()) <= 3 * 8 << 16


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
        s = sampled(model, 16, 100_000)
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
        model = IndependentBitsModel(pv=PropensityVector([1, 0, 1]),
                                     source=RandomBitSource(seed=1))
        s = sampled(model, 3, 1000)
        cm = correlated_info_content(s, 3)
        assert cm.per_bit_sum == pytest.approx(3.0, abs=1e-12)
        assert cm.multi_information == pytest.approx(3.0, abs=1e-2)

    @pytest.mark.parametrize("d", [0, 7])
    def test_rejects_d_outside_the_read_length(self, d):
        s = count_rows([random_bits(200, 8, seed=3)], 8, False, 6)
        with pytest.raises(ValueError, match=f"window length {d} is not in 1 .. the read length 6"):
            correlated_info_content(s, d)

    def test_majority_d2(self):
        model = MajorityVoteModel(k=3, source=RandomBitSource(seed=8))
        s = sampled(model, 4, 100_000)
        cm = correlated_info_content(s, 2)
        assert cm.per_bit_sum == pytest.approx(0.0, abs=0.01)
        assert cm.multi_information == pytest.approx(2 - ADJACENT_H2, abs=0.01)


class TestReports:
    def test_correlation_report_structure(self):
        model = MajorityVoteModel(k=3, source=RandomBitSource(seed=4))
        s = sampled(model, 6, 2000)
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
