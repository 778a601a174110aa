import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiq.propensity import (
    PropensityVector,
    TailPolicy,
    as_propensity,
    binary_entropy,
    information_content_independent,
)

mpmath.mp.dps = 50


def entropy_oracle(q: Fraction) -> float:
    """High-precision direct evaluation of the closed form."""
    if q == 0 or q == 1:
        return 0.0
    qm = mpmath.mpf(q.numerator) / q.denominator
    rm = 1 - qm
    return float(-(qm * mpmath.log(qm, 2) + rm * mpmath.log(rm, 2)))


rationals_01 = st.fractions(min_value=0, max_value=1, max_denominator=10_000)


def float_h2(p: float) -> float:
    """H(p) evaluated in floats, complement 1.0 - p: the oracle for float arguments."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


@st.composite
def count_ratios(draw):
    """c / N as a float, the form of an empirical frequency."""
    n = draw(st.integers(min_value=1, max_value=10**12))
    return draw(st.integers(min_value=0, max_value=n)) / n


class TestBinaryEntropy:
    def test_half_is_exactly_one(self):
        assert binary_entropy(Fraction(1, 2)) == 1.0

    def test_deterministic_bits_carry_zero(self):
        assert binary_entropy(Fraction(0)) == 0.0
        assert binary_entropy(Fraction(1)) == 0.0

    def test_quarter_against_oracle(self):
        expected = float(2 - mpmath.mpf(3) / 4 * mpmath.log(3, 2))
        assert binary_entropy(Fraction(1, 4)) == pytest.approx(expected, abs=1e-12)
        assert binary_entropy(Fraction(1, 4)) == pytest.approx(0.8112781245, abs=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(Fraction(3, 2))
        with pytest.raises(ValueError):
            binary_entropy(Fraction(-1, 10))

    @given(p=count_ratios() | st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=2000)
    def test_float_argument_gives_the_float_formula_bit_for_bit(self, p):
        # 1.0 - p and float(1 - Fraction(p)) are both the correctly rounded complement
        assert binary_entropy(p) == float_h2(p)

    @given(q=rationals_01)
    @settings(max_examples=200)
    def test_symmetry(self, q):
        assert binary_entropy(q) == pytest.approx(binary_entropy(1 - q), abs=1e-12)

    @given(q=rationals_01)
    @settings(max_examples=200)
    def test_bounded_and_maximized_at_half(self, q):
        h = binary_entropy(q)
        assert 0.0 <= h <= 1.0
        if q != Fraction(1, 2):
            assert h < 1.0


class TestInformationContent:
    def test_all_fair_is_zero(self):
        pv = PropensityVector([])
        assert information_content_independent(pv).bits == 0.0

    def test_deterministic_bits_count_one_each(self):
        pv = PropensityVector([1, 1, 0])
        info = information_content_independent(pv)
        assert info.bits == pytest.approx(3.0, abs=1e-12)
        assert not info.is_lower_bound

    def test_single_quarter_bit(self):
        pv = PropensityVector([Fraction(1, 4)])
        expected = 1.0 - entropy_oracle(Fraction(1, 4))
        assert information_content_independent(pv).bits == pytest.approx(expected, abs=1e-12)
        assert information_content_independent(pv).bits == pytest.approx(0.1887218755, abs=1e-9)

    def test_unspecified_tail_is_lower_bound(self):
        pv = PropensityVector([Fraction(1, 4)], TailPolicy.UNSPECIFIED)
        assert information_content_independent(pv).is_lower_bound

    @given(entries=st.lists(rationals_01, max_size=8))
    @settings(max_examples=100)
    def test_appending_half_never_changes_measure(self, entries):
        pv = PropensityVector(entries)
        extended = PropensityVector(entries + [Fraction(1, 2)])
        a = information_content_independent(pv).bits
        b = information_content_independent(extended).bits
        assert b == pytest.approx(a, abs=1e-12)

    @given(entries=st.lists(rationals_01, max_size=8), bit=st.sampled_from([0, 1]))
    @settings(max_examples=100)
    def test_appending_deterministic_bit_adds_one(self, entries, bit):
        pv = PropensityVector(entries)
        extended = PropensityVector(entries + [Fraction(bit)])
        delta = (information_content_independent(extended).bits
                 - information_content_independent(pv).bits)
        assert delta == pytest.approx(1.0, abs=1e-12)

    @given(entries=st.lists(rationals_01, max_size=8))
    @settings(max_examples=100)
    def test_nonnegative_and_zero_iff_all_half(self, entries):
        pv = PropensityVector(entries)
        bits = information_content_independent(pv).bits
        assert bits >= 0.0
        if all(q == Fraction(1, 2) for q in pv.prefix):
            assert bits == 0.0


class TestVector:
    def test_invalid_entry_rejected(self):
        with pytest.raises(ValueError):
            PropensityVector(["5/4"])

    def test_propensity_at_tail(self):
        pv = PropensityVector(["3/4"])
        assert pv.propensity_at(1) == Fraction(3, 4)
        assert pv.propensity_at(7) == Fraction(1, 2)

    def test_json_round_trip(self):
        pv = PropensityVector(["3/4", "1/3"], TailPolicy.UNSPECIFIED)
        assert PropensityVector.from_json(pv.to_json()) == pv
        assert pv.to_json() == {"prefix": ["3/4", "1/3"], "tail": "unspecified"}

    def test_as_propensity_lowest_terms(self):
        assert as_propensity("2/4") == Fraction(1, 2)

    def test_non_rational_entry_is_a_value_error(self):
        for bad in (None, [1, 2], {"q": 1}, float("inf")):
            with pytest.raises(ValueError, match="is not a rational number"):
                as_propensity(bad)
        with pytest.raises(ValueError, match="model field 'prefix'"):
            PropensityVector.from_json({"prefix": ["3/4", None], "tail": "half"})
