import math
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from fiq.models import IndependentBitsModel, MajorityVoteModel, sample_matrix
from fiq.propensity import HALF, PropensityVector, TailPolicy
from fiq.randombits import RandomBitSource, Thresholds, _bits_below, bias_threshold, uniform64_grid

MASK = (1 << 64) - 1
TOP = 1 << 64


def one_stream(src, first, count):
    """Uniforms u(first) .. u(first+count-1) of the source's own stream."""
    return uniform64_grid(src.seed, np.array([src.stream_id], dtype=np.uint64), first, count)[0]


def splitmix64(z):
    """Reference splitmix64 finalizer on a Python int mod 2^64."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def oracle_uniform(seed, stream_id, n):
    """Reference uniform n of stream (seed, stream_id): the finalizer of the stream key plus n Weyl steps."""
    key = splitmix64((splitmix64(seed) + stream_id * 0xD1B54A32D192ED03) & MASK)
    return splitmix64((key + n * 0x9E3779B97F4A7C15) & MASK)


def last_xorshift(y):
    """The finalizer's last step u = y ^ (y >> 31), on a Python int."""
    return y ^ (y >> 31)


def before_last_xorshift(u):
    """The y with last_xorshift(y) == u: three shifts of 31 pass bit 63, so two steps undo it."""
    return u ^ (u >> 31) ^ (u >> 62)


def bits_of_y(y_rows, row, tail=HALF):
    """``_bits_below`` of a (count, n) grid of Python-int y values at the thresholds of ``row``, then ``tail``."""
    y = np.array(y_rows, dtype=np.uint64)
    return _bits_below(y, np.empty_like(y), Thresholds(row, tail), None).tolist()


class ContiguousSource(RandomBitSource):
    """The same bits, handed out as a C-contiguous copy, then copied into ``out`` when one is given."""

    def bits(self, stream_ids, first, count, thresholds, work=None, out=None):
        bits = np.ascontiguousarray(super().bits(stream_ids, first, count, thresholds, work))
        if out is None:
            return bits
        out[...] = bits
        return out


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
        bits = sample_matrix(model, 9, 300)
        assert bits.T.flags.c_contiguous and np.array_equal(bits, sample_matrix(contiguous, 9, 300))


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
        mat = uniform64_grid(21, np.arange(4, dtype=np.uint64), 1, 32)
        for i in range(4):
            assert np.array_equal(mat[i], one_stream(RandomBitSource(seed=21, stream_id=i), 1, 32))

    @pytest.mark.parametrize("bias", [Fraction(1, 2), Fraction(1, 4), Fraction(1, 3)])
    def test_empirical_bias(self, bias):
        n = 100_000
        f = RandomBitSource(seed=13).bits(np.arange(n, dtype=np.uint64), 1, 1, Thresholds((), bias)).mean()
        p = float(bias)
        assert abs(f - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_extreme_biases(self):
        src, streams = RandomBitSource(seed=1), np.arange(4, dtype=np.uint64)
        assert src.bits(streams, 1, 16, Thresholds((), Fraction(1))).all()
        assert not src.bits(streams, 1, 16, Thresholds((), Fraction(0))).any()

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomBitSource(seed=-1)
        with pytest.raises(ValueError):
            RandomBitSource(seed=1 << 64)
        with pytest.raises(ValueError):
            RandomBitSource(seed=0, stream_id=-1)
        with pytest.raises(ValueError):
            Thresholds((), Fraction(3, 2))
        with pytest.raises(ValueError):
            Thresholds([HALF, Fraction(-1, 2)], HALF)

    def test_threshold_is_exact_for_dyadic_bias(self):
        assert bias_threshold(Fraction(1, 2)) == 1 << 63
        assert bias_threshold(Fraction(3, 4)) == 3 << 62
        assert bias_threshold(Fraction(1)) == 1 << 64
        assert bias_threshold(Fraction(0)) == 0


class TestThresholds:
    PROPENSITIES = [Fraction(1), Fraction(0), Fraction(1, 3), Fraction(3, 4), Fraction(1, 2)]

    @pytest.mark.parametrize("row,tail", [
        (PROPENSITIES, HALF),
        (PROPENSITIES[1:], Fraction(1, 3)),
        ([], Fraction(2, 3)),
        ([Fraction(2, 3)], Fraction(1)),
        ([Fraction(1, 2)] * 3, Fraction(0)),
    ])
    @pytest.mark.parametrize("first", [1, 7])
    def test_matches_integer_oracle(self, row, tail, first):
        """Bit j of a row is int(u) < bias_threshold(q_j), compared on Python ints, past the prefix too."""
        streams, count = np.arange(50, dtype=np.uint64), 3 * len(row) + 2
        got = RandomBitSource(seed=4).bits(streams, first, count, Thresholds(row, tail))
        assert got.dtype == np.uint8 and got.shape == (50, count)
        thresholds = [bias_threshold(q) for q in row] + [bias_threshold(tail)] * (count - len(row))
        expected = [[int(int(x) < t) for x, t in zip(u, thresholds)]
                    for u in uniform64_grid(4, streams, first, count).tolist()]
        assert got.tolist() == expected

    def test_uniforms_at_each_threshold(self):
        row = self.PROPENSITIES
        thresholds = [bias_threshold(q) for q in row]
        # just below and at every threshold that fits in 64 bits, and the extremes
        values = sorted({v for t in thresholds for v in (t - 1, t) if 0 <= v < 1 << 64} | {0, (1 << 64) - 1})
        y = [before_last_xorshift(v) for v in values]
        assert [last_xorshift(x) for x in y] == values
        expected = [[int(v < t) for t in thresholds] for v in values]
        assert bits_of_y([y] * len(row), row) == expected
        # each propensity as the tail of a request with no prefix
        assert [bits_of_y([y], [], q) for q in row] == [[[b[j]] for b in expected] for j in range(len(row))]

    @pytest.mark.parametrize("a", [1, 2, 3, 1 << 30, 3 << 29, (1 << 31) - 1])
    def test_no_last_xorshift_at_a_multiple_of_2_to_the_33(self, a):
        # q = a / 2^31 thresholds at t = a * 2^33: the last xorshift is skipped, and no bit changes
        q, t = Fraction(a, 1 << 31), a << 33
        assert bias_threshold(q) == t and Thresholds([q], q).full_mix == ()
        ys = [t - 1, t, t + (1 << 31) - 1, t - (1 << 33), t + (1 << 33) - 1, t - (1 << 31), 0, (1 << 64) - 1]
        ys = [y for y in ys if 0 <= y < 1 << 64]
        expected = [[int(y < t)] for y in ys]
        assert [[int(last_xorshift(y) < t)] for y in ys] == expected
        assert bits_of_y([ys], [q], q) == expected

    # 2^63 + 2^32 is a multiple of 2^32: below 2^63 those need no last xorshift either, but past it they do
    @pytest.mark.parametrize("t,y", [((1 << 40) + 5, (1 << 40) + 4),
                                     ((1 << 63) + (1 << 32), (1 << 63) + (1 << 32) - 1)])
    def test_the_last_xorshift_is_needed_off_a_multiple_of_2_to_the_33(self, t, y):
        # negative control: y < t, yet u = y ^ (y >> 31) >= t, so skipping the step would set a wrong bit
        q = Fraction(t, 1 << 64)
        assert bias_threshold(q) == t and y < t <= last_xorshift(y)
        assert Thresholds([q], HALF).full_mix == (slice(0, 1),)
        assert bits_of_y([[y, t - 1]], [q]) == [[0], [int(last_xorshift(t - 1) < t)]]

    def test_runs_of_full_mix_and_certain_indices(self):
        third, one = Fraction(1, 3), Fraction(1)
        th = Thresholds([third, third, HALF, one, third, one, one], third)
        assert th.full_mix == (slice(0, 2), slice(4, 5), slice(7, None))
        assert th.certain == (slice(3, 4), slice(5, 7))
        assert Thresholds([], one).certain == (slice(0, None),) and Thresholds([], one).full_mix == ()
        assert th.head.dtype == np.uint64 and th.head[3, 0] == 0 and th.tail == bias_threshold(third)


# every propensity class of the source: 0 and 1, thresholds at a multiple of 2^33 (1/2, 3/4, 2^-31,
# 1 - 2^-31), and off one (1/3, 2^-32)
KERNEL_PROPENSITIES = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(1, 3),
                       Fraction(1, 1 << 31), Fraction(1, 1 << 32), Fraction((1 << 31) - 1, 1 << 31)]


def compare_columns(u, thresholds):
    """Reference bits u < t_j, column by column, as uint8; t = 2^64 compares true for every uniform."""
    return np.stack([u[:, j] < t for j, t in enumerate(thresholds)], axis=1).view(np.uint8)


class TestSamplingKernel:
    """Sampled bits equal ``uniform64_grid(...) < t``, with the thresholding inside the bit source."""

    @given(prefix=st.lists(st.sampled_from(KERNEL_PROPENSITIES), max_size=12), depth=st.integers(1, 20),
           n=st.integers(1, 40), seed=st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_independent_bits(self, prefix, depth, n, seed):
        model = IndependentBitsModel(pv=PropensityVector(prefix), source=RandomBitSource(seed=seed, stream_id=5))
        streams = np.arange(5, 5 + n, dtype=np.uint64)
        expected = compare_columns(uniform64_grid(seed, streams, 1, depth),
                                   [bias_threshold(model.pv.propensity_at(j + 1)) for j in range(depth)])
        self.check_fresh_and_strided(model, streams, depth, expected)

    @given(bias=st.sampled_from(KERNEL_PROPENSITIES), k=st.sampled_from([1, 3, 5, 7]), depth=st.integers(1, 20),
           n=st.integers(1, 40), seed=st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_majority_bits(self, bias, k, depth, n, seed):
        model = MajorityVoteModel(k=k, source=RandomBitSource(seed=seed, stream_id=5), bias=bias)
        streams = np.arange(5, 5 + n, dtype=np.uint64)
        r = uniform64_grid(seed, streams, 1, depth + k - 1) < bias_threshold(bias)
        windows = np.lib.stride_tricks.sliding_window_view(r, k, axis=1).sum(axis=2)
        self.check_fresh_and_strided(model, streams, depth, (windows > k // 2).view(np.uint8))

    @staticmethod
    def check_fresh_and_strided(model, streams, depth, expected):
        n = len(streams)
        fresh = model.sample(streams, depth)
        assert fresh.dtype == np.uint8 and np.array_equal(fresh, expected)
        buf = np.full((2 * n, depth + 2), 7, dtype=np.uint8)
        got = model.sample(streams, depth, out=buf[::2, 1:-1])  # strided both ways
        assert np.shares_memory(got, buf) and np.array_equal(buf[::2, 1:-1], expected)
        assert (buf[1::2] == 7).all() and (buf[:, [0, -1]] == 7).all()
        cols = np.full((2 * depth, n + 1), 7, dtype=np.uint8)
        assert np.array_equal(sample_matrix(model, depth, n, out=cols[::2]), expected)
        assert np.array_equal(cols[::2, :n].T, expected) and (cols[1::2] == 7).all() and (cols[:, n] == 7).all()
