import contextlib
import io
import itertools
import json
import random
import tempfile
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiq.arithmetic
import fiq.models
from fiq.arithmetic import (
    DIGIT_PAIR_POSITIONS,
    DeterminedDigits,
    PartialNumber,
    determined_digits,
    digit_law,
    digit_pair_joints,
    digits_of_rational,
    leading_digits,
    prefix_counts,
    prefix_to_interval,
    prefix_values,
    sampled_prefix_counts,
    scale_by_constant,
    scale_fiq_truncated,
    scaled_digit_table,
)
from fiq.cli import main
from fiq.errors import EnumerationBoundError
from fiq.models import (
    BitPrefix,
    IndependentBitsModel,
    MajorityVoteModel,
    SampleMatrix,
    sample_chunk_rows,
    sample_matrix,
)
from fiq.propensity import PropensityVector, TailPolicy
from fiq.randombits import RandomBitSource
from fiq.rational import format_rational

CONSTANTS = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3), Fraction(10),
             Fraction(1143, 1250)]


def interval(lo, hi):
    return PartialNumber(low=Fraction(lo), high=Fraction(hi))


def model_of(prefix):
    return IndependentBitsModel(pv=PropensityVector(prefix),
                                source=RandomBitSource(seed=0))


class TestPrefixToInterval:
    def test_examples(self):
        assert prefix_to_interval(BitPrefix((1,))) == interval(Fraction(1, 2), 1)
        assert prefix_to_interval(BitPrefix((0, 1))) == interval(Fraction(1, 4), Fraction(1, 2))
        assert prefix_to_interval(BitPrefix(())) == interval(0, 1)

    def test_width_is_dyadic(self):
        p = BitPrefix((1, 0, 1, 1))
        assert prefix_to_interval(p).width == Fraction(1, 16)


class TestScaleAndAdd:
    def test_identity(self):
        x = interval(Fraction(1, 2), 1)
        assert scale_by_constant(x, Fraction(1)) == x

    def test_half_is_bit_shift(self):
        x = interval(Fraction(1, 4), Fraction(1, 2))
        assert scale_by_constant(x, Fraction(1, 2)) == interval(Fraction(1, 8), Fraction(1, 4))

    def test_exact_rational_endpoints(self):
        x = interval(Fraction(1, 4), Fraction(3, 8))
        assert scale_by_constant(x, Fraction(3)) == interval(Fraction(3, 4), Fraction(9, 8))

    def test_rejects_nonpositive_constant(self):
        with pytest.raises(ValueError):
            scale_by_constant(interval(0, 1), Fraction(0))
        with pytest.raises(ValueError):
            scale_by_constant(interval(0, 1), Fraction(-2))

    def test_scale_round_trip_is_exact(self):
        x = interval(Fraction(3, 7), Fraction(5, 7))
        for c in CONSTANTS:
            assert scale_by_constant(scale_by_constant(x, c), 1 / c) == x

    def test_width_laws(self):
        x = interval(Fraction(1, 3), Fraction(1, 2))
        assert scale_by_constant(x, Fraction(3)).width == 3 * x.width


class TestDeterminedDigits:
    def test_spanning_integer_boundary(self):
        dd = determined_digits(interval(Fraction(3, 4), Fraction(9, 8)))
        assert dd.integer_part is None
        assert dd.fraction_bits == ()

    def test_narrow_dyadic_interval(self):
        # [1/8, 3/16) = [0.0010000, 0.0010111...]: four bits are fixed,
        # position five is the first that varies
        dd = determined_digits(interval(Fraction(1, 8), Fraction(3, 16)))
        assert dd.integer_part == 0
        assert dd.fraction_bits == (0, 0, 1, 0)

    def test_half_cell(self):
        dd = determined_digits(interval(Fraction(1, 2), 1))
        assert dd.integer_part == 0
        assert dd.fraction_bits == (1,)

    def test_total_ignorance(self):
        dd = determined_digits(interval(0, 1))
        assert dd.integer_part == 0
        assert dd.fraction_bits == ()


def all_prefixes(max_depth):
    for d in range(max_depth + 1):
        for bits in itertools.product((0, 1), repeat=d):
            yield BitPrefix(bits)


class TestSoundness:
    @given(
        bits=st.lists(st.sampled_from([0, 1]), max_size=10),
        c=st.sampled_from(CONSTANTS),
        points=st.lists(st.fractions(min_value=Fraction(0), max_value=Fraction(999, 1000),
                                     max_denominator=4096), min_size=1, max_size=5),
    )
    @settings(max_examples=200)
    def test_digits_hold_for_every_interior_point(self, bits, c, points):
        x = prefix_to_interval(BitPrefix(tuple(bits)))
        dd = determined_digits(scale_by_constant(x, c))
        for t in points:
            z = c * (x.low + t * x.width)
            if dd.integer_part is None:
                continue
            int_part, frac = digits_of_rational(z, len(dd.fraction_bits))
            assert int_part == dd.integer_part
            assert frac == dd.fraction_bits

    def test_refinement_never_retracts(self):
        for c in CONSTANTS:
            for p in all_prefixes(6):
                parent = determined_digits(scale_by_constant(prefix_to_interval(p), c))
                for b in (0, 1):
                    child_prefix = BitPrefix(p.bits + (b,))
                    child = determined_digits(
                        scale_by_constant(prefix_to_interval(child_prefix), c))
                    if parent.integer_part is not None:
                        assert child.integer_part == parent.integer_part
                        assert child.fraction_bits[:len(parent.fraction_bits)] \
                            == parent.fraction_bits
                        assert len(child.fraction_bits) >= len(parent.fraction_bits)



def as_digits(entry):
    """A ``scaled_digit_table`` entry, None or ``(cell, n)``, as the reference's ``DeterminedDigits``."""
    if entry is None:
        return DeterminedDigits(None, ())
    cell, n = entry
    return DeterminedDigits(cell >> n, tuple((cell >> (n - 1 - i)) & 1 for i in range(n)))


def reference_table(c, depth):
    """``scaled_digit_table`` through the Fraction reference, one prefix at a time."""
    return [
        determined_digits(scale_by_constant(
            prefix_to_interval(BitPrefix(tuple((v >> (depth - 1 - j)) & 1 for j in range(depth)))),
            c))
        for v in range(1 << depth)
    ]


POSITIVE_CONSTANTS = st.one_of(
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000), max_denominator=1000),
    st.fractions(min_value=Fraction(1001, 1000), max_value=1000, max_denominator=1000),
    st.integers(min_value=-8, max_value=8).map(lambda k: Fraction(2) ** k),
    st.just(Fraction(1143, 1250)),
)


class TestScaledDigitTable:
    @given(c=POSITIVE_CONSTANTS, depth=st.integers(min_value=0, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_reference(self, c, depth):
        assert list(map(as_digits, scaled_digit_table(c, depth))) == reference_table(c, depth)

    def test_matches_fraction_reference_exhaustively(self):
        for c in CONSTANTS:
            for depth in range(11):
                assert list(map(as_digits, scaled_digit_table(c, depth))) == reference_table(c, depth), (c, depth)

    def test_depth_bound(self):
        with pytest.raises(EnumerationBoundError):
            scaled_digit_table(Fraction(3), 21)

    def test_rejects_nonpositive_constant(self):
        with pytest.raises(ValueError):
            scaled_digit_table(Fraction(0), 4)


def reference_joint(law, positions):
    """Joint weight of the fraction digits at ``positions``, one pass over the law per joint."""
    joint = {}
    for entry, w in law.items():
        dd = as_digits(entry)
        if dd.integer_part is None or len(dd.fraction_bits) < max(positions):
            continue
        key = tuple(dd.fraction_bits[p - 1] for p in positions)
        joint[key] = joint.get(key, 0) + w
    return joint


JOINT_CASES = [
    (["3/4", "3/4"], Fraction(3)),
    (["3/4", "1/3", "3/4"], Fraction(10)),
    (["3/4", "3/4"], Fraction(1143, 1250)),
    ([], Fraction(3)),
]


def exact_law(model, c, depth):
    """The exact law as one reduced Fraction per ``digit_law`` entry."""
    table, weights, denominator = scale_fiq_truncated(model, c, depth)
    return {entry: Fraction(w, denominator) for entry, w in digit_law(table, weights).items()}


def exact_and_count_laws(prefix, c):
    """Three laws of one model at depth 10: exact, exact in reverse entry order, and sample counts."""
    model = model_of(prefix)
    exact = exact_law(model, c, 10)
    counts = prefix_counts(sample_matrix(model, 10, 5000))
    return exact, dict(reversed(exact.items())), digit_law(scaled_digit_table(c, 10), counts)


class TestDigitPairJoints:
    @pytest.mark.parametrize("prefix,c", JOINT_CASES)
    def test_same_cells_values_and_order_as_per_pair_reference(self, prefix, c):
        for law, weight_type in zip(exact_and_count_laws(prefix, c), (Fraction, Fraction, int)):
            joints = digit_pair_joints(leading_digits(law, law.values()))
            assert list(joints) == list(itertools.combinations(DIGIT_PAIR_POSITIONS, 2))
            for pair, joint in joints.items():
                assert list(joint.items()) == list(reference_joint(law, pair).items())
                assert all(type(w) is weight_type for w in joint.values())

    @pytest.mark.parametrize("prefix,c", JOINT_CASES)
    def test_four_digit_joint_is_the_full_length_keys(self, prefix, c):
        for law in exact_and_count_laws(prefix, c):
            full = {key: w for key, w in leading_digits(law, law.values()).items() if len(key) == 4}
            assert list(full.items()) == list(reference_joint(law, DIGIT_PAIR_POSITIONS).items())

    def test_leading_digits_cuts_after_the_last_position(self):
        law = {
            (0b10110, 5): 3,       # int 0, digits 10110
            None: 5,               # undetermined
            (0b10_1011, 4): 4,     # int 2, digits 1011
            (0b1_0, 1): 1,         # int 1, digit 0
        }
        assert list(leading_digits(law, law.values()).items()) == [((1, 0, 1, 1), 7), ((0,), 1)]


def reference_fraction_law(model, c, depth):
    """The exact law with one Fraction product weight per prefix value, summed per table entry."""
    law = {}
    for v, entry in enumerate(scaled_digit_table(c, depth)):
        w = Fraction(1)
        for position in range(1, depth + 1):
            q = model.pv.propensity_at(position)
            w *= q if (v >> (depth - position)) & 1 else 1 - q
        if w:
            law[entry] = law.get(entry, 0) + w
    return law


def reference_leading_digits(law):
    """Leading-digit histogram of a law, one entry at a time (the pipeline before integer weights)."""
    leading = {}
    for entry, w in law.items():
        dd = as_digits(entry)
        if dd.integer_part is not None:
            key = dd.fraction_bits[:max(DIGIT_PAIR_POSITIONS)]
            leading[key] = leading.get(key, 0) + w
    return leading


def reference_digit_pair_joints(law):
    leading = reference_leading_digits(law)
    joints = {}
    for i, j in itertools.combinations(DIGIT_PAIR_POSITIONS, 2):
        joint = joints[(i, j)] = {}
        for key, w in leading.items():
            if len(key) >= j:
                cell = (key[i - 1], key[j - 1])
                joint[cell] = joint.get(cell, 0) + w
    return joints


ORACLE_PREFIXES = st.lists(st.fractions(min_value=0, max_value=1, max_denominator=8), max_size=3)
ORACLE_CONSTANTS = st.one_of(
    st.builds(Fraction, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12)),
    st.just(Fraction(1143, 1250)),
    st.just(Fraction(1, 2)),
)


class TestIntegerJointsOracle:
    """Integer weights until the joint cells, against the Fraction law they replace."""

    @given(prefix=ORACLE_PREFIXES, c=ORACLE_CONSTANTS, depth=st.integers(min_value=1, max_value=10))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_exact_joints_and_arith_law_match_the_fraction_law(self, prefix, c, depth):
        model = model_of(prefix)
        reference = reference_fraction_law(model, c, depth)
        table, weights, denominator = scale_fiq_truncated(model, c, depth)
        joints = digit_pair_joints(leading_digits(table, weights), denominator)
        expected = reference_digit_pair_joints(reference)
        assert list(joints) == list(expected)
        for pair, joint in joints.items():
            assert list(joint.items()) == list(expected[pair].items())
            assert all(type(w) is Fraction for w in joint.values())

        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            code = main(["arith", "--mode", "exact", "--model", json.dumps(model.to_json()),
                         "--constant", format_rational(c), "--depth", str(depth), "--out", out])
            entries = json.loads((Path(out) / "arith.json").read_text())["digits_distribution"]
        assert code == 0
        expected_entries = sorted(
            ({"int": dd.integer_part, "frac": "".join(map(str, dd.fraction_bits)), "prob": format_rational(w)}
             for dd, w in ((as_digits(entry), w) for entry, w in reference.items())),
            key=lambda e: (e["int"] is None, e["int"], e["frac"]))
        assert entries == expected_entries

    @given(prefix=ORACLE_PREFIXES, c=ORACLE_CONSTANTS, depth=st.integers(min_value=1, max_value=10),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_count_joints_match_the_count_law(self, prefix, c, depth, seed):
        rng = random.Random(seed)
        counts = [rng.choice((0, 0, 1, 2, 7, 1000)) for _ in range(1 << depth)]
        table = scaled_digit_table(c, depth)
        joints = digit_pair_joints(leading_digits(table, counts))
        expected = reference_digit_pair_joints(digit_law(table, counts))
        assert list(joints) == list(expected)
        for pair, joint in joints.items():
            assert list(joint.items()) == list(expected[pair].items())
            assert all(type(w) is int for w in joint.values())


class TestDigitsOfRational:
    def test_known_expansion(self):
        assert digits_of_rational(Fraction(5, 8), 4) == (0, (1, 0, 1, 0))
        assert digits_of_rational(Fraction(9, 4), 3) == (2, (0, 1, 0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            digits_of_rational(Fraction(-1, 2), 2)


class TestScaleFiqTruncated:
    def test_determined_shift(self):
        dist = exact_law(model_of([1]), Fraction(1, 2), 1)
        assert dist == {(0b0_01, 2): Fraction(1)}  # int 0, digits 01

    def test_uniform_times_three(self):
        dist = exact_law(model_of([]), Fraction(3), 2)
        assert dist == {
            (0, 0): Fraction(1, 4),  # [0, 3/4): int 0, no fraction digit
            None: Fraction(1, 2),    # spans 1 or 2
            (2, 0): Fraction(1, 4),  # [9/4, 3): int 2, no fraction digit
        }

    def test_biased_weights(self):
        dist = exact_law(model_of(["3/4", "3/4"]), Fraction(3), 2)
        assert sum(dist.values()) == 1
        by_prefix = {
            (1, 1): Fraction(9, 16), (1, 0): Fraction(3, 16),
            (0, 1): Fraction(3, 16), (0, 0): Fraction(1, 16),
        }
        # weights are the per-bit products; outcomes that share digits merge
        step = Fraction(1, 4)
        expected = {}
        for (b1, b2), w in by_prefix.items():
            v = Fraction(2 * b1 + b2, 4)
            dd = determined_digits(
                scale_by_constant(PartialNumber(v, v + step), Fraction(3)))
            expected[dd] = expected.get(dd, Fraction(0)) + w
        assert {as_digits(entry): w for entry, w in dist.items()} == expected

    def test_depth_bound(self):
        with pytest.raises(EnumerationBoundError):
            scale_fiq_truncated(model_of([]), Fraction(3), 21)

    def test_unspecified_tail_limited(self):
        from fiq.errors import DepthBeyondKnowledgeError
        from fiq.propensity import TailPolicy

        model = IndependentBitsModel(
            pv=PropensityVector(["3/4"], TailPolicy.UNSPECIFIED),
            source=RandomBitSource(seed=0),
        )
        with pytest.raises(DepthBeyondKnowledgeError):
            scale_fiq_truncated(model, Fraction(3), 2)


class TestPrefixValues:
    def test_values_stop_at_the_table_bound(self):
        ones = np.ones((1, 21), dtype=np.uint8)
        top = prefix_values(SampleMatrix(ones[:, :20], stationary=False))
        assert top.tolist() == [(1 << 20) - 1]
        with pytest.raises(EnumerationBoundError):
            prefix_values(SampleMatrix(ones, stationary=False))

    def test_prefix_counts_checks_the_bound_before_allocating(self):
        # past the bound a count list would hold 2^depth bins
        with pytest.raises(EnumerationBoundError):
            prefix_counts(SampleMatrix(np.ones((1, 21), dtype=np.uint8), stationary=False))


TOP = 1 << 64

STREAMED_MODELS = [
    MajorityVoteModel(k=1, source=RandomBitSource(seed=3, stream_id=11)),
    MajorityVoteModel(k=3, source=RandomBitSource(seed=3)),
    MajorityVoteModel(k=5, source=RandomBitSource(seed=4, stream_id=7)),
    MajorityVoteModel(k=3, source=RandomBitSource(seed=5), bias=Fraction(1, 3)),
    IndependentBitsModel(pv=PropensityVector(["0", "1", "3/4", "1/5"], TailPolicy.HALF),
                         source=RandomBitSource(seed=6)),
    IndependentBitsModel(pv=PropensityVector(["1/3"] * 20), source=RandomBitSource(seed=7, stream_id=2)),
]


def with_stream(model, stream_id):
    return replace(model, source=replace(model.source, stream_id=stream_id))


class TestSampledPrefixCounts:
    """The streaming counter equals ``prefix_counts`` of the whole sample, with peak memory of one batch."""

    @pytest.mark.parametrize("model", STREAMED_MODELS)
    @pytest.mark.parametrize("depth,n", [(1, 1), (1, 301), (12, 997), (20, 150)])
    def test_matches_counts_of_the_whole_sample(self, model, depth, n):
        got = sampled_prefix_counts(model, depth, n)
        assert got == prefix_counts(sample_matrix(model, depth, n))
        assert len(got) == 1 << depth and sum(got) == n

    @pytest.mark.parametrize("model", STREAMED_MODELS)
    @pytest.mark.parametrize("chunk_rows,batch_chunks", [(1, 1), (3, 2), (7, 5)])
    @pytest.mark.parametrize("base", [0, TOP - 250])  # the last batch ends on the last 64-bit stream
    def test_many_batches_of_whole_chunks(self, monkeypatch, model, chunk_rows, batch_chunks, base):
        depth, n = 6, 250  # 250 rows is off every chunk and batch multiple below
        model = with_stream(model, base)
        expected = prefix_counts(sample_matrix(model, depth, n))
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", chunk_rows * model.generating_bits(depth))
        monkeypatch.setattr(fiq.arithmetic, "PREFIX_BATCH_CHUNKS", batch_chunks)
        batches = []
        real = fiq.arithmetic.sample_matrix

        def recording(m, d, rows):
            batches.append((m.source.stream_id, rows))
            return real(m, d, rows)

        monkeypatch.setattr(fiq.arithmetic, "sample_matrix", recording)
        assert sampled_prefix_counts(model, depth, n) == expected
        batch = chunk_rows * batch_chunks
        assert batches == [(base + start, min(batch, n - start)) for start in range(0, n, batch)]

    @pytest.mark.parametrize("model,depth,n,error", [
        (with_stream(STREAMED_MODELS[1], TOP - 10), 4, 11, ValueError),  # one stream past 2^64
        (STREAMED_MODELS[1], 21, 10, EnumerationBoundError),
        (STREAMED_MODELS[4], 21, 10, EnumerationBoundError),
        (STREAMED_MODELS[1], 0, 10, ValueError),
        (STREAMED_MODELS[1], 4, 0, ValueError),
    ])
    def test_bad_range_or_depth_raises_before_any_batch(self, monkeypatch, model, depth, n, error):
        def no_sampling(*args, **kwargs):
            raise AssertionError("a batch was drawn before the arguments were checked")

        monkeypatch.setattr(fiq.arithmetic, "sample_matrix", no_sampling)
        with pytest.raises(error):
            sampled_prefix_counts(model, depth, n)

    def test_peak_memory_does_not_grow_with_n(self, monkeypatch):
        model, depth = STREAMED_MODELS[1], 12
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", 1 << 12)  # 292 rows a chunk: a quick run
        batch_rows = fiq.arithmetic.PREFIX_BATCH_CHUNKS * sample_chunk_rows(model, depth, 1)
        batch_bytes = batch_rows * (depth + 8)  # its bits and its int64 prefix values

        def peak(n):
            tracemalloc.start()
            try:
                sampled_prefix_counts(model, depth, n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(3 * batch_rows), peak(30 * batch_rows)
        assert abs(large - small) < batch_bytes
        # the whole sample's bits alone would outgrow the small run's peak
        assert 30 * batch_rows * depth > small
