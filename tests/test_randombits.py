import math
from fractions import Fraction

import numpy as np
import pytest

from fiq.randombits import RandomBitSource, bias_threshold


class TestRandomBitSource:
    def test_reproducible(self):
        a = RandomBitSource(seed=99, stream_id=3).bits(1, 256)
        b = RandomBitSource(seed=99, stream_id=3).bits(1, 256)
        assert np.array_equal(a, b)

    def test_windows_are_consistent(self):
        src = RandomBitSource(seed=5)
        whole = src.bits(1, 100)
        assert np.array_equal(src.bits(11, 30), whole[10:40])

    def test_streams_differ(self):
        src = RandomBitSource(seed=5)
        assert not np.array_equal(src.bits(1, 64), RandomBitSource(seed=5, stream_id=1).bits(1, 64))

    @pytest.mark.parametrize("stream_id", [-1, 1 << 64])
    def test_stream_id_must_fit_in_64_bits(self, stream_id):
        with pytest.raises(ValueError, match="stream_id"):
            RandomBitSource(seed=5, stream_id=stream_id)

    def test_seeds_differ(self):
        a = RandomBitSource(seed=5).bits(1, 64)
        b = RandomBitSource(seed=6).bits(1, 64)
        assert not np.array_equal(a, b)

    def test_bit_matrix_rows_match_streams(self):
        src = RandomBitSource(seed=21)
        mat = src.bit_matrix(np.arange(4, dtype=np.uint64), 1, 32)
        for i in range(4):
            assert np.array_equal(mat[i], RandomBitSource(seed=21, stream_id=i).bits(1, 32))

    @pytest.mark.parametrize("bias", [Fraction(1, 2), Fraction(1, 4), Fraction(1, 3)])
    def test_empirical_bias(self, bias):
        src = RandomBitSource(seed=13, bias=bias)
        n = 100_000
        f = src.bit_matrix(np.arange(n, dtype=np.uint64), 1, 1).mean()
        p = float(bias)
        assert abs(f - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_extreme_biases(self):
        assert RandomBitSource(seed=1, bias=Fraction(1)).bits(1, 16).all()
        assert not RandomBitSource(seed=1, bias=Fraction(0)).bits(1, 16).any()

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomBitSource(seed=-1)
        with pytest.raises(ValueError):
            RandomBitSource(seed=1 << 64)
        with pytest.raises(ValueError):
            RandomBitSource(seed=0, stream_id=-1)
        with pytest.raises(ValueError):
            RandomBitSource(seed=0, bias=Fraction(3, 2))

    def test_threshold_is_exact_for_dyadic_bias(self):
        assert bias_threshold(Fraction(1, 2)) == 1 << 63
        assert bias_threshold(Fraction(3, 4)) == 3 << 62
        assert bias_threshold(Fraction(1)) == 1 << 64
        assert bias_threshold(Fraction(0)) == 0
