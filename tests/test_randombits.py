import math
from fractions import Fraction

import numpy as np
import pytest

from fiq.randombits import RandomBitSource, bias_threshold, threshold_bits


def one_stream(src, first, count):
    """Uniforms u(first) .. u(first+count-1) of the source's own stream."""
    return src.uniforms(np.array([src.stream_id], dtype=np.uint64), first, count)[0]


class TestRandomBitSource:
    def test_reproducible(self):
        a = one_stream(RandomBitSource(seed=99, stream_id=3), 1, 256)
        b = one_stream(RandomBitSource(seed=99, stream_id=3), 1, 256)
        assert a.dtype == np.uint64
        assert np.array_equal(a, b)

    def test_windows_are_consistent(self):
        src = RandomBitSource(seed=5)
        whole = one_stream(src, 1, 100)
        assert np.array_equal(one_stream(src, 11, 30), whole[10:40])

    def test_streams_differ(self):
        src = RandomBitSource(seed=5)
        assert not np.array_equal(one_stream(src, 1, 64), one_stream(RandomBitSource(seed=5, stream_id=1), 1, 64))

    @pytest.mark.parametrize("stream_id", [-1, 1 << 64])
    def test_stream_id_must_fit_in_64_bits(self, stream_id):
        with pytest.raises(ValueError, match="stream_id"):
            RandomBitSource(seed=5, stream_id=stream_id)

    def test_seeds_differ(self):
        a = one_stream(RandomBitSource(seed=5), 1, 64)
        b = one_stream(RandomBitSource(seed=6), 1, 64)
        assert not np.array_equal(a, b)

    def test_uniform_rows_match_streams(self):
        src = RandomBitSource(seed=21)
        mat = src.uniforms(np.arange(4, dtype=np.uint64), 1, 32)
        for i in range(4):
            assert np.array_equal(mat[i], one_stream(RandomBitSource(seed=21, stream_id=i), 1, 32))

    @pytest.mark.parametrize("bias", [Fraction(1, 2), Fraction(1, 4), Fraction(1, 3)])
    def test_empirical_bias(self, bias):
        n = 100_000
        u = RandomBitSource(seed=13).uniforms(np.arange(n, dtype=np.uint64), 1, 1)
        f = threshold_bits(u, [bias]).mean()
        p = float(bias)
        assert abs(f - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_extreme_biases(self):
        u = RandomBitSource(seed=1).uniforms(np.arange(4, dtype=np.uint64), 1, 16)
        assert threshold_bits(u, [Fraction(1)]).all()
        assert not threshold_bits(u, [Fraction(0)]).any()

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomBitSource(seed=-1)
        with pytest.raises(ValueError):
            RandomBitSource(seed=1 << 64)
        with pytest.raises(ValueError):
            RandomBitSource(seed=0, stream_id=-1)
        with pytest.raises(ValueError):
            threshold_bits(np.zeros((1, 1), dtype=np.uint64), [Fraction(3, 2)])

    def test_threshold_is_exact_for_dyadic_bias(self):
        assert bias_threshold(Fraction(1, 2)) == 1 << 63
        assert bias_threshold(Fraction(3, 4)) == 3 << 62
        assert bias_threshold(Fraction(1)) == 1 << 64
        assert bias_threshold(Fraction(0)) == 0


class TestThresholdBits:
    PROPENSITIES = [Fraction(1), Fraction(0), Fraction(1, 3), Fraction(3, 4), Fraction(1, 2)]

    @pytest.mark.parametrize("row", [PROPENSITIES, PROPENSITIES[1:], [Fraction(2, 3)]])
    def test_matches_integer_oracle(self, row):
        """Bit j of a row is int(u) < bias_threshold(q_j), compared on Python ints."""
        u = RandomBitSource(seed=4).uniforms(np.arange(50, dtype=np.uint64), 1, 3 * len(row))
        u = u.reshape(50, 3, len(row))  # the row runs along the last axis of any shape
        got = threshold_bits(u, row)
        assert got.dtype == np.uint8 and got.shape == u.shape
        thresholds = [bias_threshold(q) for q in row]
        expected = [[[int(int(x) < t) for x, t in zip(block, thresholds)] for block in rows]
                    for rows in u.tolist()]
        assert got.tolist() == expected

    def test_uniforms_at_each_threshold(self):
        row = self.PROPENSITIES
        thresholds = [bias_threshold(q) for q in row]
        # just below and at every threshold that fits in 64 bits, and the extremes
        values = sorted({v for t in thresholds for v in (t - 1, t) if 0 <= v < 1 << 64} | {0, (1 << 64) - 1})
        u = np.array([[v] * len(row) for v in values], dtype=np.uint64)
        expected = [[int(v < t) for t in thresholds] for v in values]
        assert threshold_bits(u, row).tolist() == expected
