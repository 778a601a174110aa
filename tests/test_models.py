import itertools
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiq.models
from fiq.errors import DepthBeyondKnowledgeError, EnumerationBoundError
from fiq.models import (
    BitPrefix,
    IndependentBitsModel,
    MajorityVoteModel,
    exact_window_joint,
    json_float,
    json_int,
    majority,
    model_from_json,
    sample_matrix,
    sample_prefix,
    window_codes,
)
from fiq.propensity import PropensityVector, TailPolicy
from fiq.randombits import RandomBitSource


def fair_source(seed=11, stream=0):
    return RandomBitSource(seed=seed, stream_id=stream)


class TestMajority:
    @pytest.mark.parametrize("window,expected", [
        ((1, 1, 0), 1),
        ((0, 0, 1), 0),
        ((1, 0, 1, 0, 1), 1),
        ((0,), 0),
        ((1,), 1),
    ])
    def test_examples(self, window, expected):
        assert majority(window) == expected

    def test_rejects_even_or_empty(self):
        with pytest.raises(ValueError):
            majority(())
        with pytest.raises(ValueError):
            majority((1, 0))


class TestModels:
    def test_k_must_be_odd_positive(self):
        for bad in (0, 2, -3):
            with pytest.raises(ValueError):
                MajorityVoteModel(k=bad, source=fair_source())

    def test_json_round_trip(self):
        m = MajorityVoteModel(k=5, source=RandomBitSource(seed=3, bias=Fraction(1, 3), stream_id=2))
        doc = m.to_json()
        assert doc["type"] == "majority" and doc["bias"] == "1/3"
        assert model_from_json(doc) == m

        pv = PropensityVector.of(["3/4"])
        im = IndependentBitsModel(pv=pv, source=fair_source(seed=9))
        assert model_from_json(im.to_json()) == im

    def test_seed_override(self):
        m = MajorityVoteModel(k=3, source=fair_source(seed=3))
        m2 = model_from_json(m.to_json(), seed=42)
        assert m2.source.seed == 42


    def test_json_int_rejects_fractions_and_booleans(self):
        assert json_int(3, "k") == 3
        assert json_int(3.0, "k") == 3
        for bad in (3.5, -0.25, True, False, None, "3.5", float("inf"), float("nan")):
            with pytest.raises(ValueError, match="'k' must be an integer"):
                json_int(bad, "'k'")

    def test_json_float_rejects_non_numbers(self):
        assert json_float(2, "sigma") == 2.0
        for bad in (None, True, "wide", [3]):
            with pytest.raises(ValueError, match="sigma must be a number"):
                json_float(bad, "sigma")

    def test_fractional_k_is_not_truncated(self):
        with pytest.raises(ValueError, match="model field 'k' must be an integer, got 3.5"):
            model_from_json({"type": "majority", "k": 3.5}, seed=1)

class TestSamplePrefix:
    def test_deterministic_propensities(self):
        pv = PropensityVector.of([1, 0, 1])
        model = IndependentBitsModel(pv=pv, source=fair_source())
        assert sample_prefix(model, 3).bits == (1, 0, 1)

    def test_k1_equals_raw_source(self):
        src = fair_source(seed=77)
        model = MajorityVoteModel(k=1, source=src)
        got = sample_prefix(model, 12).bits
        assert got == tuple(int(b) for b in src.bits(1, 12))

    def test_sliding_window_matches_pure_python_oracle(self):
        src = fair_source(seed=5)
        k, depth = 3, 10
        model = MajorityVoteModel(k=k, source=src)
        r = [int(b) for b in src.bits(1, depth + k - 1)]
        expected = tuple(majority(r[j:j + k]) for j in range(depth))
        assert sample_prefix(model, depth).bits == expected

    def test_unspecified_tail_depth_limit(self):
        pv = PropensityVector.of(["3/4", "3/4"], TailPolicy.UNSPECIFIED)
        model = IndependentBitsModel(pv=pv, source=fair_source())
        assert sample_prefix(model, 2).depth == 2
        with pytest.raises(DepthBeyondKnowledgeError):
            sample_prefix(model, 3)

    def test_reproducible(self):
        model = MajorityVoteModel(k=3, source=fair_source(seed=123))
        assert sample_prefix(model, 20) == sample_prefix(model, 20)

    def test_prefix_value(self):
        assert BitPrefix((1, 0, 1)).value == Fraction(5, 8)
        assert BitPrefix(()).value == 0


def slow_window_codes(bits, length):
    """Reference: every window's bits read as a binary numeral, one Python int at a time."""
    return [[int("".join(map(str, row[t:t + length])), 2) for t in range(len(row) - length + 1)]
            for row in bits.tolist()]


class TestWindowCodes:
    @given(bits=st.integers(1, 12).flatmap(lambda d: st.lists(
        st.lists(st.integers(0, 1), min_size=d, max_size=d), min_size=1, max_size=6)))
    @settings(max_examples=100)
    def test_matches_binary_numerals_for_every_length(self, bits):
        bits = np.array(bits, dtype=np.uint8)
        for length in range(1, bits.shape[1] + 1):
            codes = window_codes(bits, length)
            assert codes.dtype == np.int64
            assert codes.tolist() == slow_window_codes(bits, length)

    def test_all_ones_depth_63(self):
        ones = np.ones((1, 63), dtype=np.uint8)
        assert window_codes(ones, 63).tolist() == [[(1 << 63) - 1]]
        assert window_codes(ones, 63).tolist() == slow_window_codes(ones, 63)

    @pytest.mark.parametrize("length,depth", [(0, 4), (5, 4), (64, 64)])
    def test_rejects_lengths_outside_depth_and_int64(self, length, depth):
        with pytest.raises(ValueError, match="window length"):
            window_codes(np.zeros((2, depth), dtype=np.uint8), length)


class TestSampleMatrix:
    def test_thread_count_does_not_change_results(self):
        model = MajorityVoteModel(k=3, source=fair_source(seed=8))
        a = sample_matrix(model, 12, 503, threads=1)
        b = sample_matrix(model, 12, 503, threads=4)
        assert np.array_equal(a.bits, b.bits)

    def test_rows_match_per_stream_prefixes(self):
        model = MajorityVoteModel(k=3, source=fair_source(seed=8))
        s = sample_matrix(model, 8, 5)
        for i in range(5):
            assert tuple(int(b) for b in s.bits[i]) == sample_prefix(model, 8, stream_id=i).bits

    def test_independent_frequencies_converge(self):
        pv = PropensityVector.of(["3/4", "1/4"])
        model = IndependentBitsModel(pv=pv, source=fair_source(seed=31))
        s = sample_matrix(model, 2, 40_000)
        n = s.n_samples
        for j, q in ((0, 0.75), (1, 0.25)):
            f = s.bits[:, j].mean()
            assert abs(f - q) <= 3 * math.sqrt(q * (1 - q) / n)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_threads_below_one(self, threads):
        model = MajorityVoteModel(k=3, source=fair_source())
        with pytest.raises(ValueError, match="threads"):
            sample_matrix(model, 4, 10, threads=threads)

    def test_threads_capped_at_cpu_count(self, monkeypatch):
        pools = []

        class InlinePool:
            """ThreadPoolExecutor stand-in that runs every task inline."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(fiq.models, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        model = MajorityVoteModel(k=3, source=fair_source(seed=8))
        capped = sample_matrix(model, 12, 503, threads=64)
        assert pools == [3]
        assert np.array_equal(capped.bits, sample_matrix(model, 12, 503, threads=1).bits)

    def test_streams_must_fit_in_64_bits(self):
        top = (1 << 64) - 5
        model = MajorityVoteModel(k=3, source=fair_source(stream=top))
        # the last five stream ids are usable; one row more would wrap to stream 0
        last = sample_matrix(model, 4, 5)
        assert tuple(int(b) for b in last.bits[4]) == sample_prefix(model, 4, stream_id=top + 4).bits
        with pytest.raises(ValueError, match="64 bits"):
            sample_matrix(model, 4, 6)

    def test_stationary_flag(self):
        maj = MajorityVoteModel(k=3, source=fair_source())
        ind = IndependentBitsModel(pv=PropensityVector.of([]), source=fair_source())
        assert sample_matrix(maj, 4, 10).stationary
        assert not sample_matrix(ind, 4, 10).stationary


class TestGeneratingBitsCount:
    def test_examples(self):
        src = fair_source()
        assert MajorityVoteModel(k=3, source=src).generating_bits(1) == 3
        assert MajorityVoteModel(k=5, source=src).generating_bits(10) == 14
        ind = IndependentBitsModel(pv=PropensityVector.of([]), source=src)
        assert ind.generating_bits(7) == 7
        assert MajorityVoteModel(k=7, source=src).generating_bits(0) == 0


class TestExactWindowJoint:
    def test_fair_marginal_is_half(self):
        j = exact_window_joint(3, Fraction(1, 2), [5])
        assert j[(1,)] == Fraction(1, 2)

    def test_adjacent_agreement(self):
        j = exact_window_joint(3, Fraction(1, 2), [1, 2])
        assert j[(0, 0)] + j[(1, 1)] == Fraction(3, 4)
        assert j[(0, 1)] == j[(1, 0)] == Fraction(1, 8)

    def test_disjoint_windows_independent(self):
        j = exact_window_joint(3, Fraction(1, 2), [1, 4])
        assert all(p == Fraction(1, 4) for p in j.values())
        # windows at distance k share no source bit: the joint is the product law
        p = Fraction(2, 5)
        marginal = exact_window_joint(11, p, [1])
        j = exact_window_joint(11, p, [1, 12])
        assert j == {(x, y): marginal[(x,)] * marginal[(y,)] for y in (0, 1) for x in (0, 1)}

    def test_probabilities_sum_to_one(self):
        j = exact_window_joint(5, Fraction(1, 3), [1, 2, 4])
        assert sum(j.values()) == 1

    def test_biased_marginal(self):
        # majority of k bits each 1 w.p. a/b: sum over j > k/2 of C(k, j) a^j (b-a)^(k-j) / b^k
        a, b = 1, 3
        for k in (3, 11, 23):
            closed = Fraction(sum(math.comb(k, j) * a ** j * (b - a) ** (k - j)
                                  for j in range(k // 2 + 1, k + 1)), b ** k)
            assert exact_window_joint(k, Fraction(a, b), [1])[(1,)] == closed

    def test_enumeration_bound(self):
        with pytest.raises(EnumerationBoundError):
            exact_window_joint(3, Fraction(1, 2), [1, 30])

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("bias", [Fraction(0), Fraction(1, 3), Fraction(1, 2),
                                      Fraction(2, 5), Fraction(1)])
    @pytest.mark.parametrize("offsets", [[1], [2, 1], [3, 3], [4, 1, 2], [5, 2, 5, 1], [6, 3],
                                         [9, 1], [1, 2, 3, 4, 5, 6]])
    def test_matches_enumeration_oracle(self, k, bias, offsets):
        # every source configuration over the span, weighted a^ones (b-a)^zeros / b^span
        a, b = bias.numerator, bias.denominator
        low = min(offsets)
        span = max(offsets) - low + k
        oracle = {o: Fraction(0) for o in itertools.product((0, 1), repeat=len(offsets))}
        for config in itertools.product((0, 1), repeat=span):
            ones = sum(config)
            outcome = tuple(majority(config[o - low:o - low + k]) for o in offsets)
            oracle[outcome] += Fraction(a ** ones * (b - a) ** (span - ones), b ** span)
        joint = exact_window_joint(k, bias, offsets)
        assert joint == oracle
        # keys in code order (outcome[0] is the low bit): mi_from_joint sums floats in key order
        assert list(joint) == [o[::-1] for o in itertools.product((0, 1), repeat=len(offsets))]

    def test_block_distribution_matches_sampling(self):
        dist = exact_window_joint(3, Fraction(1, 2), range(1, 3))
        model = MajorityVoteModel(k=3, source=fair_source(seed=12))
        s = sample_matrix(model, 2, 40_000)
        for outcome, p in dist.items():
            f = ((s.bits[:, 0] == outcome[0]) & (s.bits[:, 1] == outcome[1])).mean()
            pf = float(p)
            assert abs(f - pf) <= 3 * math.sqrt(pf * (1 - pf) / s.n_samples)
