import itertools
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiq.models
from fiq.arithmetic import prefix_values, scale_fiq_truncated
from fiq.errors import DepthBeyondKnowledgeError, EnumerationBoundError
from fiq.jsonfields import json_float, json_int, json_rational
from fiq.models import (
    EXACT_ENUMERATION_MAX_DEPTH,
    MAX_BLOCK_LENGTH,
    IndependentBitsModel,
    MajorityVoteModel,
    count_rows,
    exact_window_joint,
    model_from_json,
    sample_batches,
    sample_matrix,
    window_codes,
)
from fiq.propensity import PropensityVector, TailPolicy
from fiq.randombits import RandomBitSource, bias_threshold, uniform64_grid


def fair_source(seed=11, stream=0):
    return RandomBitSource(seed=seed, stream_id=stream)


def source_bits(source, stream_id, count, bias):
    """Reference: source bit n is 1 iff uniform n < bias_threshold(bias), on Python ints."""
    u = uniform64_grid(source.seed, np.array([stream_id], dtype=np.uint64), 1, count)[0]
    return [int(int(x) < bias_threshold(bias)) for x in u.tolist()]


def majority(window):
    """Reference majority bit of an odd-length window."""
    return int(2 * sum(window) > len(window))


def oracle_rows(model, depth, n):
    """Reference rows of ``sample_matrix(model, depth, n)``, one stream at a time."""
    base = model.source.stream_id
    if isinstance(model, IndependentBitsModel):
        return [[int(int(x) < bias_threshold(model.pv.propensity_at(j + 1))) for j, x in enumerate(row)]
                for row in uniform64_grid(model.source.seed, np.arange(base, base + n, dtype=np.uint64), 1,
                                          depth).tolist()]
    rows = []
    for sid in range(base, base + n):
        r = source_bits(model.source, sid, depth + model.k - 1, model.bias)
        rows.append([majority(r[j:j + model.k]) for j in range(depth)])
    return rows


def window_joint_oracle(k, bias, offsets):
    """Reference ``exact_window_joint``: every source configuration over the span, weighted a^ones (b-a)^zeros."""
    a, b = bias.numerator, bias.denominator
    low = min(offsets)
    span = max(offsets) - low + k
    oracle = {o: Fraction(0) for o in itertools.product((0, 1), repeat=len(offsets))}
    for config in itertools.product((0, 1), repeat=span):
        ones = sum(config)
        outcome = tuple(majority(config[o - low:o - low + k]) for o in offsets)
        oracle[outcome] += Fraction(a ** ones * (b - a) ** (span - ones), b ** span)
    return oracle


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
        for k in (0, 2):
            with pytest.raises(ValueError, match="odd positive"):
                MajorityVoteModel(k=k, source=fair_source())
            with pytest.raises(ValueError, match="odd positive"):
                exact_window_joint(k, Fraction(1, 2), [1])


class TestModels:
    def test_k_must_be_odd_positive(self):
        for bad in (0, 2, -3):
            with pytest.raises(ValueError):
                MajorityVoteModel(k=bad, source=fair_source())

    def test_json_round_trip(self):
        m = MajorityVoteModel(k=5, source=RandomBitSource(seed=3, stream_id=2), bias=Fraction(1, 3))
        doc = m.to_json()
        assert doc["type"] == "majority" and doc["bias"] == "1/3"
        assert model_from_json(doc) == m
        assert model_from_json({"type": "majority", "k": 3}, seed=1).bias == Fraction(1, 2)

        pv = PropensityVector(["3/4"])
        im = IndependentBitsModel(pv=pv, source=fair_source(seed=9))
        assert model_from_json(im.to_json()) == im

    def test_majority_bias_is_a_checked_propensity(self):
        assert MajorityVoteModel(k=3, source=fair_source(), bias="1/3").bias == Fraction(1, 3)
        with pytest.raises(ValueError, match="outside"):
            MajorityVoteModel(k=3, source=fair_source(), bias=Fraction(3, 2))
        with pytest.raises(ValueError, match="model field 'bias' must be in"):
            model_from_json({"type": "majority", "k": 3, "bias": "3/2"}, seed=1)

    def test_seed_override(self):
        m = MajorityVoteModel(k=3, source=fair_source(seed=3))
        m2 = model_from_json(m.to_json(), seed=42)
        assert m2.source.seed == 42


    def test_json_int_rejects_fractions_and_booleans(self):
        assert json_int(3, "k") == 3
        assert json_int(3.0, "k") == 3
        for bad in (3.5, -0.25, True, False, None, "3.5", "3", " 3 ", float("inf"), float("nan")):
            with pytest.raises(ValueError, match="'k' must be an integer"):
                json_int(bad, "'k'")

    def test_json_float_rejects_non_numbers(self):
        assert json_float(2, "sigma") == 2.0
        for bad in (None, True, "wide", "3", [3]):
            with pytest.raises(ValueError, match="sigma must be a number"):
                json_float(bad, "sigma")

    def test_json_rational_takes_only_strings(self):
        assert json_rational("3/4", "bias") == Fraction(3, 4)
        assert json_rational("-3", "bias") == -3
        for bad in (0.1, 1, True, None, ["3/4"]):
            with pytest.raises(ValueError, match='bias must be a rational string such as "3/4"'):
                json_rational(bad, "bias")
        for bad in ("3/0", "0.5", "x", " 3 ", "1_0", "\uff13", "+3", "3/-4"):  # ASCII digits only, no spaces
            with pytest.raises(ValueError, match="^bias: "):
                json_rational(bad, "bias")

    def test_fractional_k_is_not_truncated(self):
        with pytest.raises(ValueError, match="model field 'k' must be an integer, got 3.5"):
            model_from_json({"type": "majority", "k": 3.5}, seed=1)


def sample_counts(model, depth, n, read_length=0):
    """The counts of ``sample_matrix(model, depth, n)``, drawn and counted a batch at a time."""
    return count_rows(sample_batches(model, depth, n), depth, model.stationary, read_length)


def one_row(model, depth):
    """The single row of ``sample_matrix(model, depth, 1)``, as a tuple of ints."""
    return tuple(sample_matrix(model, depth, 1)[0].tolist())


class TestSingleRow:
    def test_deterministic_propensities(self):
        pv = PropensityVector([1, 0, 1])
        model = IndependentBitsModel(pv=pv, source=fair_source())
        assert one_row(model, 3) == (1, 0, 1)

    def test_k1_equals_raw_source(self):
        src = fair_source(seed=77)
        model = MajorityVoteModel(k=1, source=src)
        got = one_row(model, 12)
        assert got == tuple(source_bits(src, 0, 12, Fraction(1, 2)))
        third = MajorityVoteModel(k=1, source=src, bias=Fraction(1, 3))
        assert one_row(third, 12) == tuple(source_bits(src, 0, 12, Fraction(1, 3)))

    def test_sliding_window_matches_pure_python_oracle(self):
        src = fair_source(seed=5)
        k, depth = 3, 10
        model = MajorityVoteModel(k=k, source=src)
        r = source_bits(src, 0, depth + k - 1, Fraction(1, 2))
        expected = tuple(majority(r[j:j + k]) for j in range(depth))
        assert one_row(model, depth) == expected

    def test_unspecified_tail_depth_limit(self):
        pv = PropensityVector(["3/4", "3/4"], TailPolicy.UNSPECIFIED)
        model = IndependentBitsModel(pv=pv, source=fair_source())
        assert sample_matrix(model, 2, 1).shape == (1, 2)
        with pytest.raises(DepthBeyondKnowledgeError):
            sample_matrix(model, 3, 1)

    def test_reproducible(self):
        model = MajorityVoteModel(k=3, source=fair_source(seed=123))
        assert one_row(model, 20) == one_row(model, 20)


def slow_window_codes(bits, length):
    """Reference: every window's bits read as a binary numeral, one Python int at a time."""
    return [[int("".join(map(str, row[t:t + length])), 2) for t in range(len(row) - length + 1)]
            for row in bits.tolist()]


def rolling_window_codes(bits, length):
    """Reference: one int64 code vector rolled across the columns (drop the leaving bit, shift, add the next)."""
    code = np.zeros(bits.shape[0], dtype=np.int64)
    for t in range(bits.shape[1]):
        code &= (1 << (length - 1)) - 1
        code <<= 1
        code += bits[:, t]
        if t >= length - 1:
            yield code.copy()


def cumsum_majority_bits(r, k):
    """Reference: majority bits from differences of a padded cumsum over each row of source bits ``r``.

    The cumsum is taken in k's dtype; each window sum is at most k, so the
    differences are exact modulo 2^bits.
    """
    csum = np.zeros((r.shape[0], r.shape[1] + 1), dtype=np.min_scalar_type(k))
    np.cumsum(r, axis=1, dtype=csum.dtype, out=csum[:, 1:])
    return (csum[:, k:] - csum[:, :-k] > k // 2).astype(np.uint8)


WINDOW_LENGTHS = range(1, EXACT_ENUMERATION_MAX_DEPTH + 1)  # every length window_codes accepts


class TestWindowCodes:
    @given(data=st.data(), n=st.sampled_from([1, 2, 7, 100, 1001]), depth=st.integers(1, 130),
           density=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), seed=st.integers(0, 2 ** 32 - 1),
           chunk_bits=st.sampled_from([1, 64, 1000, 1 << 16]))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_matches_rolling_reference(self, data, n, depth, density, seed, chunk_bits):
        longest = min(depth, EXACT_ENUMERATION_MAX_DEPTH)
        length = data.draw(st.sampled_from([1, longest]) | st.integers(1, longest))
        bits = (np.random.default_rng(seed).random((n, depth)) < density).astype(np.uint8)
        with pytest.MonkeyPatch.context() as mp:  # chunks of SAMPLE_CHUNK_BITS // length rows
            mp.setattr(fiq.models, "SAMPLE_CHUNK_BITS", chunk_bits)
            codes = [c.copy() for c in window_codes(bits, length)]
        expected = list(rolling_window_codes(bits, length))
        assert len(codes) == len(expected) == depth - length + 1
        for got, want in zip(codes, expected):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("depth", [63, 64, 130])
    @pytest.mark.parametrize("length", WINDOW_LENGTHS)
    def test_every_length_all_ones_zeros_and_random(self, depth, length):
        rng = np.random.default_rng(depth * 64 + length)
        bits = np.vstack([np.ones((1, depth), dtype=np.uint8), np.zeros((1, depth), dtype=np.uint8),
                          (rng.random((3001, depth)) < 0.5).astype(np.uint8)])
        expected = list(rolling_window_codes(bits, length))
        for t, got in enumerate(window_codes(bits, length)):
            assert got[0] == (1 << length) - 1 and got[1] == 0
            assert np.array_equal(got, expected[t])
        assert t == depth - length

    def test_yields_the_same_vector_every_time(self):
        bits = np.eye(70, dtype=np.uint8)
        vectors = {id(code) for code in window_codes(bits, 5)}
        assert len(vectors) == 1

    @given(bits=st.integers(1, 12).flatmap(lambda d: st.lists(
        st.lists(st.integers(0, 1), min_size=d, max_size=d), min_size=1, max_size=6)))
    @settings(max_examples=100)
    def test_matches_binary_numerals_for_every_length(self, bits):
        bits = np.array(bits, dtype=np.uint8)
        for length in range(1, bits.shape[1] + 1):
            codes = np.stack([c.copy() for c in window_codes(bits, length)], axis=1)
            assert codes.dtype == np.int64
            assert codes.tolist() == slow_window_codes(bits, length)

    def test_all_ones_at_the_table_bound(self):
        # a float32 sum is exact below 2^24: this fails if the bound is raised past 24 bits
        L = EXACT_ENUMERATION_MAX_DEPTH
        ones = np.ones((1, L), dtype=np.uint8)
        assert next(window_codes(ones, L)).tolist() == [(1 << L) - 1]
        assert [next(window_codes(ones, L)).tolist()] == slow_window_codes(ones, L)

    @pytest.mark.parametrize("length,depth", [(0, 4), (5, 4), (21, 21), (21, 64), (63, 63), (64, 64)])
    def test_rejects_lengths_outside_depth_and_table_bound(self, length, depth):
        with pytest.raises(ValueError, match="window length"):
            next(window_codes(np.zeros((2, depth), dtype=np.uint8), length))


class TestSampleMatrix:
    def test_rows_match_per_stream_prefixes(self):
        model = MajorityVoteModel(k=3, source=fair_source(seed=8))
        s = sample_matrix(model, 8, 5)
        for i in range(5):
            assert s[i].tolist() == model.sample(np.array([i], dtype=np.uint64), 8)[0].tolist()

    @pytest.mark.parametrize("model", [
        IndependentBitsModel(pv=PropensityVector(["1", "0", "1/3", "3/4"], tail=TailPolicy.HALF),
                             source=fair_source(seed=6, stream=9)),
        *(MajorityVoteModel(k=k, source=fair_source(seed=6, stream=9), bias=bias)
          for k in (1, 3, 5) for bias in (Fraction(0), Fraction(1), Fraction(1, 3))),
    ], ids=lambda m: m.to_json()["type"] + (f"-k{m.k}-bias{m.bias}" if hasattr(m, "k") else ""))
    @pytest.mark.parametrize("chunk_rows", [1, 4])
    def test_matches_pure_python_oracle(self, monkeypatch, model, chunk_rows):
        depth, n = 7, 23
        # one row per chunk, or four, so 23 rows end in a partial chunk
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", chunk_rows * model.generating_bits(depth) + 1)
        got = sample_matrix(model, depth, n)
        assert got.tolist() == oracle_rows(model, depth, n)

    @pytest.mark.parametrize("bias", [Fraction(0), Fraction(1, 2), Fraction(1)])
    @pytest.mark.parametrize("k", [255, 257])  # the largest k summed in uint8, and the first in uint16
    def test_window_sums_at_dtype_edges_match_oracle(self, k, bias):
        # depth 300: each row's running sum passes 256 (wrapping in uint8) at every bias but 0
        model = MajorityVoteModel(k=k, source=fair_source(seed=12), bias=bias)
        assert sample_matrix(model, 300, 6).tolist() == oracle_rows(model, 300, 6)

    @given(k=st.integers(0, 150).map(lambda h: 2 * h + 1),
           bias=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]),
           depth=st.integers(1, 40), n=st.sampled_from([1, 2, 5, 33]), seed=st.integers(0, 2 ** 32 - 1),
           chunk_rows=st.sampled_from([1, 4, 7, 1 << 16]))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_window_sums_match_cumsum_reference(self, k, bias, depth, n, seed, chunk_rows):
        # odd k up to 301 crosses into uint16 window sums at k = 257
        model = MajorityVoteModel(k=k, source=fair_source(seed=seed, stream=3), bias=bias)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fiq.models, "SAMPLE_CHUNK_BITS", chunk_rows * model.generating_bits(depth))
            got = sample_matrix(model, depth, n)
        streams = np.arange(3, 3 + n, dtype=np.uint64)
        r = (uniform64_grid(model.source.seed, streams, 1, depth + k - 1) < bias_threshold(bias)).view(np.uint8)
        assert got.dtype == np.uint8 and got.shape == (n, depth)
        assert np.array_equal(got, cumsum_majority_bits(r, k))

    def test_independent_frequencies_converge(self):
        pv = PropensityVector(["3/4", "1/4"])
        model = IndependentBitsModel(pv=pv, source=fair_source(seed=31))
        s = sample_matrix(model, 2, 40_000)
        n = len(s)
        for j, q in ((0, 0.75), (1, 0.25)):
            f = s[:, j].mean()
            assert abs(f - q) <= 3 * math.sqrt(q * (1 - q) / n)

    @pytest.mark.parametrize("failing_start", [0, 20, 40], ids=["first", "middle", "last-partial"])
    def test_sampling_error_reaches_the_caller_unchanged(self, monkeypatch, failing_start):
        error = ValueError("chunk failed")
        sample = MajorityVoteModel.sample
        starts = []

        def failing_sample(self, stream_ids, depth, work=None, out=None):
            starts.append(int(stream_ids[0]))
            if stream_ids[0] == failing_start:
                raise error
            return sample(self, stream_ids, depth, work, out)

        monkeypatch.setattr(MajorityVoteModel, "sample", failing_sample)
        model = MajorityVoteModel(k=3, source=fair_source())
        # ten rows per chunk, so the chunk at row 40 holds the last five of 45 rows
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", 10 * model.generating_bits(4))
        with pytest.raises(ValueError) as raised:
            sample_matrix(model, 4, 45)
        assert raised.value is error
        assert starts == list(range(0, failing_start + 1, 10))  # no chunk is sampled after the failing one

    @pytest.mark.parametrize("model", [
        MajorityVoteModel(k=3, source=fair_source(seed=8)),
        IndependentBitsModel(pv=PropensityVector(["3/4", "1/3"], tail=TailPolicy.HALF),
                             source=fair_source(seed=8, stream=40)),
    ], ids=["majority", "independent"])
    @pytest.mark.parametrize("chunk_rows", [1, 5])
    def test_chunks_equal_one_call_over_all_streams(self, monkeypatch, model, chunk_rows):
        depth, n = 9, 103
        # one row per chunk, or five, so 103 rows end in a partial chunk
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", chunk_rows * model.generating_bits(depth) + 1)
        streams = np.arange(model.source.stream_id, model.source.stream_id + n, dtype=np.uint64)
        got = sample_matrix(model, depth, n)
        assert got.dtype == np.uint8 and got.shape == (n, depth)
        assert np.array_equal(got, model.sample(streams, depth))

    @pytest.mark.parametrize("model", [
        MajorityVoteModel(k=5, source=fair_source(seed=4, stream=3)),
        IndependentBitsModel(pv=PropensityVector(["1/3", "3/4"], tail=TailPolicy.HALF),
                             source=fair_source(seed=4, stream=3)),
    ], ids=["majority", "independent"])
    def test_starts_no_thread(self, monkeypatch, model):
        def no_thread(self):
            raise AssertionError("a thread was started")

        depth, n = 10, 301
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        # seven rows per chunk: 301 rows in 43 chunks
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", 7 * model.generating_bits(depth))
        got = sample_matrix(model, depth, n)
        assert np.array_equal(got, model.sample(np.arange(3, 3 + n, dtype=np.uint64), depth))

    def test_bits_are_read_only(self):
        bits = sample_matrix(MajorityVoteModel(k=3, source=fair_source(seed=4)), 6, 10)
        s = count_rows([bits], 6, True, 6)
        with pytest.raises(ValueError, match="read-only"):
            bits[0, 0] = 1
        assert np.array_equal(s.pair_counts, bits.T.astype(np.int64) @ bits.astype(np.int64))

    @pytest.mark.parametrize("model", [
        MajorityVoteModel(k=3, source=fair_source(seed=8, stream=2)),
        IndependentBitsModel(pv=PropensityVector(["3/4", "1/3"], tail=TailPolicy.HALF),
                             source=fair_source(seed=8, stream=2)),
    ], ids=["majority", "independent"])
    def test_strided_out_gets_the_bits_of_a_fresh_call(self, monkeypatch, model):
        depth, n = 7, 61
        # five rows per chunk: 61 rows in 13 chunks, the last one partial
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", 5 * model.generating_bits(depth))
        buf = np.full((n + 3, 2 * depth), 7, dtype=np.uint8)
        got = sample_matrix(model, depth, n, out=buf[:, 0::2].T)  # a (d, N + 3) view, strided both ways
        assert np.shares_memory(got, buf) and not got.flags.writeable
        assert np.array_equal(got, sample_matrix(model, depth, n))
        assert (buf[:, 1::2] == 7).all() and (buf[n:] == 7).all()  # nothing outside the first N columns
        assert buf.flags.writeable
        buf[0, 0] = 2
        assert got[0, 0] == 2

    @pytest.mark.parametrize("out", [
        np.zeros((7, 61), dtype=np.uint16),  # bits are written through a bool view, which a wider dtype scrambles
        np.zeros((7, 61), dtype=np.bool_),
        np.zeros((7, 61), dtype=np.int8),
        np.zeros((8, 61), dtype=np.uint8),
        np.zeros((6, 61), dtype=np.uint8),
        np.zeros((7, 60), dtype=np.uint8),
        np.zeros(7 * 61, dtype=np.uint8),
        np.zeros((7, 61, 1), dtype=np.uint8),
    ], ids=["uint16", "bool", "int8", "depth+1", "depth-1", "n-1", "1-d", "3-d"])
    def test_out_is_checked_before_the_first_chunk(self, monkeypatch, out):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before out was checked")

        monkeypatch.setattr(MajorityVoteModel, "sample", no_sampling)
        model = MajorityVoteModel(k=3, source=fair_source(seed=8))
        with pytest.raises(ValueError, match=r"^out must be a uint8 array of shape \(7, >= 61\), got ") as raised:
            sample_matrix(model, 7, 61, out=out)
        assert "\n" not in str(raised.value) and not out.any()

    def test_calls_bounded_by_chunk_and_cover_every_row_once(self, monkeypatch):
        model = MajorityVoteModel(k=5, source=fair_source(seed=3, stream=7))
        depth, n = 6, 50
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", 4 * model.generating_bits(depth))
        calls = []
        sample = MajorityVoteModel.sample

        def recording_sample(self, stream_ids, d, work=None, out=None):
            calls.append(stream_ids.copy())
            return sample(self, stream_ids, d, work, out)

        monkeypatch.setattr(MajorityVoteModel, "sample", recording_sample)
        sample_matrix(model, depth, n)
        assert max(len(c) for c in calls) <= 4
        rows = np.sort(np.concatenate(calls)) - 7
        assert rows.tolist() == list(range(n))

    def test_streams_must_fit_in_64_bits(self):
        top = (1 << 64) - 5
        model = MajorityVoteModel(k=3, source=fair_source(stream=top))
        # the last five stream ids are usable; one row more would wrap to stream 0
        last = sample_matrix(model, 4, 5)
        assert last[4].tolist() == model.sample(np.array([top + 4], dtype=np.uint64), 4)[0].tolist()
        with pytest.raises(ValueError, match="64 bits"):
            sample_matrix(model, 4, 6)

    def test_stationary_flag(self):
        maj = MajorityVoteModel(k=3, source=fair_source())
        ind = IndependentBitsModel(pv=PropensityVector([]), source=fair_source())
        assert sample_counts(maj, 4, 10).stationary
        assert not sample_counts(ind, 4, 10).stationary


def whole_sample_counts(bits, stationary, read_length):
    """Reference counts of the whole (N, d) sample: BᵀB, and one bincount per window of the read length."""
    pair_counts = bits.T.astype(np.int64) @ bits.astype(np.int64)
    if not read_length:
        return pair_counts, None, None, None
    hists = [np.bincount(code, minlength=1 << read_length) for code in window_codes(bits, read_length)]
    if not stationary:
        return pair_counts, hists[0], hists[0], hists[0]
    return pair_counts, hists[0], sum(hists), hists[-1]


BATCHED_MODELS = [
    MajorityVoteModel(k=3, source=fair_source(seed=41, stream=5)),
    MajorityVoteModel(k=5, source=fair_source(seed=42), bias=Fraction(1, 3)),
    IndependentBitsModel(pv=PropensityVector(["3/4", "1/3", "1", "1/5"], tail=TailPolicy.HALF),
                         source=fair_source(seed=43, stream=9)),
]


class TestBatchInvariance:
    """Counts summed batch by batch equal the counts of the whole sample, for any batch size."""

    @pytest.mark.parametrize("model", BATCHED_MODELS, ids=["majority-k3", "majority-k5-third", "independent"])
    @pytest.mark.parametrize("depth,read", [(20, MAX_BLOCK_LENGTH), (20, 5), (20, 0), (6, 6)])
    # 250 rows of 7-row chunks: batches of one chunk, of three (a partial last batch of 19 rows), and one batch
    @pytest.mark.parametrize("batch_chunks,batches", [(1, 36), (3, 12), (100, 1)])
    def test_summed_counts_equal_the_whole_sample(self, monkeypatch, model, depth, read, batch_chunks, batches):
        n = 250
        whole = sample_matrix(model, depth, n)
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", 7 * model.generating_bits(depth))
        monkeypatch.setattr(fiq.models, "SAMPLE_BATCH_CHUNKS", batch_chunks)
        drawn = []
        real = fiq.models.sample_matrix

        def recording(m, d, rows, out=None):
            drawn.append(rows)
            return real(m, d, rows, out)

        monkeypatch.setattr(fiq.models, "sample_matrix", recording)
        s = count_rows(sample_batches(model, depth, n), depth, model.stationary, read)
        assert drawn == [min(7 * batch_chunks, n - start) for start in range(0, n, 7 * batch_chunks)]
        assert len(drawn) == batches
        pair_counts, first, pooled, last = whole_sample_counts(whole, model.stationary, read)
        assert (s.n_samples, s.depth, s.read_length, s.stationary) == (n, depth, read, model.stationary)
        assert s.pair_counts.dtype == np.int64 and np.array_equal(s.pair_counts, pair_counts)
        if read:
            assert s.first_window.dtype == s.pooled_windows.dtype == s.last_window.dtype == np.int64
            assert np.array_equal(s.first_window, first)
            assert np.array_equal(s.pooled_windows, pooled)
            assert np.array_equal(s.last_window, last)
            for length in range(1, read + 1):
                got = s.window_counts(length)
                reference = whole_sample_counts(whole, model.stationary, length)
                assert np.array_equal(got[0], reference[1]) and np.array_equal(got[1], reference[2])

    def test_batches_are_read_only_views_of_one_buffer(self, monkeypatch):
        model, depth, n = BATCHED_MODELS[0], 9, 103
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", 5 * model.generating_bits(depth))
        monkeypatch.setattr(fiq.models, "SAMPLE_BATCH_CHUNKS", 4)  # 20-row batches: 103 rows end in 3
        batches, copies = [], []
        for bits in sample_batches(model, depth, n):
            assert bits.shape[1] == depth and not bits.flags.writeable
            batches.append(bits)
            copies.append(bits.copy())
        assert [len(b) for b in copies] == [20] * 5 + [3]
        assert all(np.shares_memory(batches[0], b) for b in batches)  # the next batch overwrites a kept one
        assert np.array_equal(np.vstack(copies), sample_matrix(model, depth, n))

    @pytest.mark.parametrize("model", BATCHED_MODELS[::2], ids=["majority-k3", "independent"])
    @pytest.mark.parametrize("read,length", [(0, 1), (5, 6), (16, 17), (16, 20)])
    def test_window_counts_past_the_read_length_raise_one_line(self, model, read, length):
        s = count_rows(sample_batches(model, 20, 300), 20, model.stationary, read)
        with pytest.raises(ValueError) as raised:
            s.window_counts(length)
        message = str(raised.value)
        assert message == f"window length {length} is not in 1 .. the read length {read}"
        assert "\n" not in message

    @pytest.mark.parametrize("depth,read", [(4, 5), (20, 21), (24, 21), (4, -1)])
    def test_read_length_is_checked_before_the_first_batch(self, monkeypatch, depth, read):
        def no_sampling(*args, **kwargs):
            raise AssertionError("a batch was drawn before the read length was checked")

        monkeypatch.setattr(fiq.models, "sample_matrix", no_sampling)
        model = BATCHED_MODELS[0]
        with pytest.raises(ValueError, match=f"read length {read} is not in 0 .. min"):
            count_rows(sample_batches(model, depth, 10), depth, model.stationary, read)

    def test_depth_below_one_is_checked_before_the_first_batch(self):
        def no_rows():
            raise AssertionError("a batch was read before the depth was checked")
            yield

        for batches in (no_rows(), [np.zeros((3, 0), dtype=np.uint8)]):
            with pytest.raises(ValueError) as raised:
                count_rows(batches, 0, False, 0)
            assert str(raised.value) == "depth must be >= 1, got 0"


class TestPairCountsFromPrefixHistogram:
    """At read length d the pair counts are superset sums of the prefix histogram, which equal BᵀB exactly."""

    @pytest.mark.parametrize("model,depth,n", [
        (MajorityVoteModel(k=1, source=fair_source(seed=51)), 12, 3001),
        (MajorityVoteModel(k=3, source=fair_source(seed=52, stream=4)), 12, 3001),
        (MajorityVoteModel(k=5, source=fair_source(seed=53)), 12, 3001),
        (MajorityVoteModel(k=3, source=fair_source(seed=54), bias=Fraction(1, 3)), 12, 3001),
        (IndependentBitsModel(pv=PropensityVector(["0"] * 7), source=fair_source(seed=55)), 7, 500),
        (IndependentBitsModel(pv=PropensityVector(["1"] * 7), source=fair_source(seed=56)), 7, 500),
        (IndependentBitsModel(pv=PropensityVector(["0", "1", "1", "0"], TailPolicy.HALF),
                              source=fair_source(seed=57)), 9, 500),
        # every one of the 64 bins is nonzero
        (IndependentBitsModel(pv=PropensityVector([], TailPolicy.HALF), source=fair_source(seed=58)), 6, 4000),
        # sparse: 300 rows in 2^20 bins
        (MajorityVoteModel(k=3, source=fair_source(seed=59)), 20, 300),
    ], ids=["majority-k1", "majority-k3", "majority-k5", "majority-k3-third", "independent-zeros",
            "independent-ones", "independent-zeros-and-ones-half-tail", "every-bin", "sparse-depth-20"])
    def test_equals_the_gram_of_the_sample(self, model, depth, n):
        bits = sample_matrix(model, depth, n)
        gram = bits.T.astype(np.int64) @ bits.astype(np.int64)
        s = count_rows(sample_batches(model, depth, n), depth, model.stationary, depth)
        assert s.pair_counts.dtype == np.int64 and s.pair_counts.shape == (depth, depth)
        assert np.array_equal(s.pair_counts, gram)
        # the row Gram one read length below agrees
        assert np.array_equal(count_rows([bits], depth, model.stationary, depth - 1).pair_counts, gram)
        hit = np.count_nonzero(s.first_window)
        assert hit == 64 if depth == 6 else 0 < hit < 1 << depth  # every bin, or some left empty

    def test_counts_past_float32_precision_stay_exact(self):
        # the histogram-path twin of the row Gram's test: one column of 2^24 + 1 ones
        s = count_rows([np.ones(((1 << 24) + 1, 1), dtype=np.uint8)], 1, False, 1)
        assert s.first_window.tolist() == [0, (1 << 24) + 1]
        assert s.pair_counts.tolist() == [[(1 << 24) + 1]]


class TestReadersIgnoreLayout:
    @pytest.mark.parametrize("stationary", [True, False])
    @pytest.mark.parametrize("n", [2, 1003])
    def test_c_and_column_major_bits_read_the_same(self, monkeypatch, stationary, n):
        depth = 14
        # five rows per pair_counts chunk and per length-14 window_codes chunk: 1003 rows end in partial chunks
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", 5 * depth + 3)
        columns = sample_matrix(MajorityVoteModel(k=3, source=fair_source(seed=21)), depth, n)
        rows = np.ascontiguousarray(columns)
        assert columns.T.flags.c_contiguous and rows.flags.c_contiguous and not columns.flags.c_contiguous
        for read in (depth, 12):
            a, b = (count_rows([bits], depth, stationary, read) for bits in (rows, columns))
            assert np.array_equal(a.pair_counts, rows.T.astype(np.int64) @ rows)
            assert np.array_equal(a.pair_counts, b.pair_counts)
            for length in (read, 9, 3, 1):
                for x, y in zip(a.window_counts(length), b.window_counts(length)):
                    assert np.array_equal(x, y)
        for length in (1, 5, depth):
            c_codes, f_codes = ([code.copy() for code in window_codes(bits, length)] for bits in (rows, columns))
            assert len(c_codes) == depth - length + 1 and np.array_equal(c_codes, f_codes)
        assert np.array_equal(prefix_values(rows), prefix_values(columns))


class TestGeneratingBitsCount:
    def test_examples(self):
        src = fair_source()
        assert MajorityVoteModel(k=3, source=src).generating_bits(1) == 3
        assert MajorityVoteModel(k=5, source=src).generating_bits(10) == 14
        ind = IndependentBitsModel(pv=PropensityVector([]), source=src)
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
        joint = exact_window_joint(k, bias, offsets)
        assert joint == window_joint_oracle(k, bias, offsets)
        # keys in code order (outcome[0] is the low bit): mi_from_joint sums floats in key order
        assert list(joint) == [o[::-1] for o in itertools.product((0, 1), repeat=len(offsets))]

    @pytest.mark.parametrize("offsets", [[2, 1], [1, 1, 3]])
    def test_weights_past_int64_stay_exact(self, offsets):
        # b^span = 3^(40 span) is far past 2^63: an int64 or float kernel would overflow or round
        bias = Fraction(1, 3 ** 40)
        weights, denominator = fiq.models._window_states(3, bias, offsets)
        assert denominator == 3 ** (40 * (max(offsets) - min(offsets) + 3)) > 2 ** 63
        assert weights.shape == (2,) * len(offsets) and all(type(w) is int for w in weights.flat)
        assert exact_window_joint(3, bias, offsets) == window_joint_oracle(3, bias, offsets)

    def test_block_distribution_matches_sampling(self):
        dist = exact_window_joint(3, Fraction(1, 2), range(1, 3))
        model = MajorityVoteModel(k=3, source=fair_source(seed=12))
        s = sample_matrix(model, 2, 40_000)
        for outcome, p in dist.items():
            f = ((s[:, 0] == outcome[0]) & (s[:, 1] == outcome[1])).mean()
            pf = float(p)
            assert abs(f - pf) <= 3 * math.sqrt(pf * (1 - pf) / len(s))


class TestPrefixWeights:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("bias", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])
    @pytest.mark.parametrize("depth", range(1, 7))
    def test_majority_matches_source_enumeration(self, k, bias, depth):
        # every configuration of source bits 1 .. d + k - 1, weighted a^ones (b-a)^zeros
        a, b = bias.numerator, bias.denominator
        span = depth + k - 1
        oracle = [0] * (1 << depth)
        for config in itertools.product((0, 1), repeat=span):
            ones = sum(config)
            value = int("".join(str(majority(config[j:j + k])) for j in range(depth)), 2)
            oracle[value] += a ** ones * (b - a) ** (span - ones)
        weights, denominator = MajorityVoteModel(k=k, source=fair_source(), bias=bias).prefix_weights(depth)
        assert weights == oracle and all(type(w) is int for w in weights)
        assert denominator == b ** span == sum(weights)
        # every one- and two-bit marginal of the prefix law is the window joint at those positions
        for positions in [*itertools.combinations(range(1, depth + 1), 1),
                          *itertools.combinations(range(1, depth + 1), 2)]:
            marginal = dict.fromkeys(itertools.product((0, 1), repeat=len(positions)), Fraction(0))
            for value, w in enumerate(weights):
                marginal[tuple((value >> (depth - p)) & 1 for p in positions)] += Fraction(w, denominator)
            assert marginal == exact_window_joint(k, bias, positions)

    @pytest.mark.parametrize("prefix,tail,depth", [
        ([], TailPolicy.HALF, 3),
        (["3/4", "1/3", "0", "1"], TailPolicy.HALF, 6),
        (["2/5", "1"], TailPolicy.UNSPECIFIED, 2),
    ])
    def test_independent_weights_are_propensity_products(self, prefix, tail, depth):
        pv = PropensityVector(prefix, tail)
        weights, denominator = IndependentBitsModel(pv=pv, source=fair_source()).prefix_weights(depth)
        for value, bits in enumerate(itertools.product((0, 1), repeat=depth)):
            product = math.prod(pv.propensity_at(j + 1) if bit else 1 - pv.propensity_at(j + 1)
                                for j, bit in enumerate(bits))
            assert Fraction(weights[value], denominator) == product
        assert sum(weights) == denominator

    def test_depth_zero_is_the_empty_prefix(self):
        models = [MajorityVoteModel(k=3, source=fair_source(), bias=Fraction(1, 3)),
                  IndependentBitsModel(pv=PropensityVector(["1/5"], TailPolicy.UNSPECIFIED), source=fair_source())]
        assert [model.prefix_weights(0) for model in models] == [([1], 1)] * 2
        assert all(type(w) is int for model in models for w in model.prefix_weights(0)[0])
        # so the truncated digit law at depth 0 is the same one-entry law for both models
        laws = [scale_fiq_truncated(model, Fraction(3), 0) for model in models]
        assert laws[0] == laws[1] and len(laws[0][0]) == 1

    @pytest.mark.parametrize("model", [
        MajorityVoteModel(k=3, source=fair_source()),
        IndependentBitsModel(pv=PropensityVector([], TailPolicy.HALF), source=fair_source()),
    ], ids=["majority", "independent"])
    def test_negative_depth_is_rejected(self, model):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            model.prefix_weights(-1)

    @pytest.mark.parametrize("model", [
        MajorityVoteModel(k=3, source=fair_source()),
        IndependentBitsModel(pv=PropensityVector(["3/4"], TailPolicy.HALF), source=fair_source()),
    ], ids=["majority", "independent"])
    @pytest.mark.parametrize("depth", [21, 40])
    def test_depth_past_enumeration_bound_is_rejected_before_building(self, monkeypatch, model, depth):
        def no_work(*args, **kwargs):
            raise AssertionError("built prefix weights before the depth bound was checked")

        monkeypatch.setattr(fiq.models, "_window_states", no_work)
        monkeypatch.setattr(PropensityVector, "propensity_at", no_work)
        with pytest.raises(EnumerationBoundError, match=f"^depth {depth} exceeds exact enumeration bound 20$"):
            model.prefix_weights(depth)
