import math
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

from fiq.models import IndependentBitsModel, MajorityVoteModel, sample_matrix
from fiq.propensity import PropensityVector, TailPolicy
from fiq.randombits import RandomBitSource, bias_threshold, threshold_bits, uniform64_grid

MASK = (1 << 64) - 1
TOP = 1 << 64


def one_stream(src, first, count):
    """Uniforms u(first) .. u(first+count-1) of the source's own stream."""
    return src.uniforms(np.array([src.stream_id], dtype=np.uint64), first, count)[0]


def splitmix64(z):
    """Reference splitmix64 finalizer on a Python int mod 2^64."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def oracle_uniform(seed, stream_id, n):
    """Reference uniform n of stream (seed, stream_id): the finalizer of the stream key plus n Weyl steps."""
    key = splitmix64((splitmix64(seed) + stream_id * 0xD1B54A32D192ED03) & MASK)
    return splitmix64((key + n * 0x9E3779B97F4A7C15) & MASK)


class ContiguousSource(RandomBitSource):
    """The same uniforms, handed out as a C-contiguous copy of the grid."""

    def uniforms(self, stream_ids, first, count, work=None):
        return np.ascontiguousarray(super().uniforms(stream_ids, first, count, work))


class TestKnownAnswers:
    @pytest.mark.parametrize("seed", [0, 1, TOP - 1])
    @pytest.mark.parametrize("stream_ids", [[0, TOP - 1, 1], [TOP - 2, TOP - 1, 0]])  # key additions wrap
    @pytest.mark.parametrize("first", [1, 1 << 40])
    def test_grid_matches_integer_oracle(self, seed, stream_ids, first):
        u = uniform64_grid(seed, np.array(stream_ids, dtype=np.uint64), first, 17)
        assert u.dtype == np.uint64 and u.shape == (3, 17)
        assert u.tolist() == [[oracle_uniform(seed, sid, first + j) for j in range(17)] for sid in stream_ids]

    @pytest.mark.parametrize("seed,base", [(2, 1), (TOP - 1, TOP - 4681)])
    def test_sampling_chunk_matches_integer_oracle(self, seed, base):
        # one 4681 x 14 chunk of k=3, d=12 majority sampling; its transposed view is the C-contiguous grid
        u = uniform64_grid(seed, np.arange(base, base + 4681, dtype=np.uint64), 1, 14)
        assert u.shape == (4681, 14) and u.T.flags.c_contiguous
        for i in [*range(0, 4681, 97), 4680]:
            assert u[i, ::3].tolist() == [oracle_uniform(seed, base + i, n) for n in range(1, 15, 3)]

    @pytest.mark.parametrize("seed,base", [(2, 1), (TOP - 1, TOP - 4681)])
    def test_work_buffer_keeps_every_value(self, seed, base):
        streams = np.arange(base, base + 4681, dtype=np.uint64)
        expected = uniform64_grid(seed, streams, 1, 14)
        work = np.full(2 * 4681 * 14 + 3, MASK, dtype=np.uint64)  # stale contents and spare room
        got = uniform64_grid(seed, streams, 1, 14, work)
        assert np.shares_memory(got, work) and got.T.flags.c_contiguous
        assert np.array_equal(got, expected)
        # a last, partial chunk reuses the front of the same buffer
        assert np.array_equal(uniform64_grid(seed, streams[:100], 1, 14, work), expected[:100])
        assert uniform64_grid(seed, streams[:3], 5, 2, work).tolist() == [
            [oracle_uniform(seed, base + i, n) for n in (5, 6)] for i in range(3)]

    @pytest.mark.parametrize("model", [
        MajorityVoteModel(k=3, source=RandomBitSource(seed=2, stream_id=5)),
        MajorityVoteModel(k=5, source=RandomBitSource(seed=2), bias=Fraction(1, 3)),
        IndependentBitsModel(pv=PropensityVector(["3/4", "1/3", "1"], TailPolicy.HALF), source=RandomBitSource(seed=2)),
    ])
    def test_sampling_ignores_the_grid_layout(self, model):
        streams = np.arange(7, 7 + 300, dtype=np.uint64)
        contiguous = replace(model, source=ContiguousSource(**asdict(model.source)))
        assert np.array_equal(model.sample(streams, 9), contiguous.sample(streams, 9))
        bits = sample_matrix(model, 9, 300).bits
        assert bits.T.flags.c_contiguous and np.array_equal(bits, sample_matrix(contiguous, 9, 300).bits)


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
