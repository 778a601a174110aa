"""Sound arithmetic on partially determined binary expansions.

A finite bit prefix pins its value down to a half-open dyadic interval.
Arithmetic acts on the interval with exact rational endpoints, and an output
digit is emitted only when every point of the interval agrees on it.  Emitted
digits are therefore correct no matter how the undetermined tail resolves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DepthBeyondKnowledgeError, EnumerationBoundError
from .models import BitPrefix, IndependentBitsModel, SampleMatrix, window_codes
from .propensity import TailPolicy

EXACT_ENUMERATION_MAX_DEPTH = 20

DIGIT_PAIR_POSITIONS = (1, 2, 3, 4)

_ASCII_BITS = bytes.maketrans(b"01", b"\x00\x01")  # "0"/"1" characters to bit values


@dataclass(frozen=True)
class PartialNumber:
    """Half-open interval [low, high) of exact rationals."""

    low: Fraction
    high: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "low", Fraction(self.low))
        object.__setattr__(self, "high", Fraction(self.high))
        if not self.low < self.high:
            raise ValueError(f"empty interval [{self.low}, {self.high})")

    @property
    def width(self) -> Fraction:
        return self.high - self.low


@dataclass(frozen=True)
class DeterminedDigits:
    """Digits every completion of an interval agrees on.

    ``integer_part`` is None when the interval spans an integer boundary; in
    that case no fractional digits are reported either.  Fractional bits stop
    at the first position that varies across the interval.
    """

    integer_part: int | None
    fraction_bits: tuple[int, ...]

    def as_string(self) -> str:
        head = "?" if self.integer_part is None else str(self.integer_part)
        return f"{head}.{''.join(str(b) for b in self.fraction_bits)}"


def prefix_to_interval(p: BitPrefix) -> PartialNumber:
    """Dyadic interval [value, value + 2^-d) of a depth-d prefix."""
    v = p.value
    return PartialNumber(low=v, high=v + Fraction(1, 1 << p.depth))


def scale_by_constant(x: PartialNumber, c: Fraction) -> PartialNumber:
    """Multiply by an exact positive rational constant (change of units)."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError(f"scaling constant must be positive, got {c}")
    return PartialNumber(low=c * x.low, high=c * x.high)


def determined_digits(x: PartialNumber) -> DeterminedDigits:
    """All output digits that are constant across the interval.

    The integer part is determined iff floor is constant on [low, high).
    Fractional bits are then peeled off by doubling: a bit is determined iff
    the doubled interval stays within one unit cell.  The loop terminates
    because the width doubles at every step.
    """
    fl = math.floor(x.low)
    if x.high > fl + 1:
        return DeterminedDigits(integer_part=None, fraction_bits=())
    a = x.low - fl
    b = x.high - fl
    bits: list[int] = []
    while True:
        a2 = 2 * a
        b2 = 2 * b
        if b2 <= 1:
            bits.append(0)
        elif a2 >= 1:
            bits.append(1)
            a2 -= 1
            b2 -= 1
        else:
            break
        a, b = a2, b2
    return DeterminedDigits(integer_part=fl, fraction_bits=tuple(bits))


def digits_of_rational(z: Fraction, n_frac: int) -> tuple[int, tuple[int, ...]]:
    """Integer part and first n_frac exact binary fraction digits of z >= 0."""
    z = Fraction(z)
    if z < 0:
        raise ValueError("only nonnegative values have a binary expansion here")
    int_part = math.floor(z)
    num = (z - int_part).numerator
    den = (z - int_part).denominator
    bits = []
    for _ in range(n_frac):
        num *= 2
        bit, num = divmod(num, den)
        bits.append(bit)
    return int_part, tuple(bits)


def scaled_digit_table(c: Fraction, depth: int) -> list[DeterminedDigits]:
    """Determined digits of c * [v/2^d, (v+1)/2^d) for every prefix value v.

    Integer form of ``determined_digits(scale_by_constant(...))``, which stays
    as the reference.  With c = p/q, s = bitlen(q) + 2 and N = d + s, the
    scaled interval meets the cells [k 2^-N, (k + 1) 2^-N) for k = L .. H,
    where (the 2^d cancels)

        L = floor(v p 2^s / q),    H = floor(((v + 1) p 2^s - 1) / q).

    A digit is determined iff L and H agree on it and on every digit before
    it: the integer part iff L >> N == H >> N, and then the first
    N - bitlen(L xor H) fraction digits.  N is enough because the interval
    spans p 2^s / q > 4 cells, so fewer than N digits are ever determined.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError(f"scaling constant must be positive, got {c}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth > EXACT_ENUMERATION_MAX_DEPTH:
        raise EnumerationBoundError(
            f"depth {depth} exceeds exact enumeration bound {EXACT_ENUMERATION_MAX_DEPTH}"
        )
    p, q = c.numerator, c.denominator
    spare = q.bit_length() + 2
    n_bits = depth + spare
    sentinel = 1 << n_bits  # keeps the leading zeros of the fraction digits in bin()
    step = p << spare
    undetermined = DeterminedDigits(integer_part=None, fraction_bits=())
    table = []
    upper = 0  # (v p 2^s) for the current v
    for _ in range(1 << depth):
        low = upper // q
        upper += step
        high = (upper - 1) // q
        integer_part = low >> n_bits
        if integer_part != high >> n_bits:
            table.append(undetermined)
            continue
        n = n_bits - (low ^ high).bit_length()
        digits = bin(low & (sentinel - 1) | sentinel)[3:n + 3].encode()
        table.append(DeterminedDigits(integer_part, tuple(digits.translate(_ASCII_BITS))))
    return table


def digit_law(table: Sequence[DeterminedDigits], weights: Iterable) -> dict:
    """Total weight of each entry of a ``scaled_digit_table``.

    ``weights[v]`` weighs prefix value v: an exact Fraction or a Python-int
    count.  Zero weights are skipped, and entries keep the order of their
    first prefix value.
    """
    law: dict = {}
    for dd, w in zip(table, weights, strict=True):
        if w:
            law[dd] = law.get(dd, 0) + w
    return law


def digit_joint(law: Mapping[DeterminedDigits, object], positions: Sequence[int]) -> dict:
    """Joint weight of the fraction digits at the 1-based ``positions``.

    An entry contributes only when its integer part and its fraction digits
    up to max(positions) are determined; undetermined entries are excluded,
    so the joint may total less than the law.
    """
    last = max(positions)
    joint: dict = {}
    for dd, w in law.items():
        if dd.integer_part is None or len(dd.fraction_bits) < last:
            continue
        key = tuple(dd.fraction_bits[p - 1] for p in positions)
        joint[key] = joint.get(key, 0) + w
    return joint


def digit_pair_joints(law: Mapping[DeterminedDigits, object]) -> dict[tuple[int, int], dict]:
    """``digit_joint`` of every pair i < j of ``DIGIT_PAIR_POSITIONS``."""
    return {pair: digit_joint(law, pair) for pair in itertools.combinations(DIGIT_PAIR_POSITIONS, 2)}


def exact_digit_pair_joints(
    law: Mapping[DeterminedDigits, Fraction],
) -> dict[tuple[int, int], dict[tuple[int, int], Fraction]]:
    """``digit_pair_joints`` of an exact law, summed as integers.

    The weights are put over the law's common denominator and summed as
    ints, and each joint cell becomes one Fraction: the same cells, values
    and order as adding the Fractions entry by entry, without a gcd per entry.
    """
    denominator = math.lcm(*(w.denominator for w in law.values()))
    numerators = {dd: w.numerator * (denominator // w.denominator) for dd, w in law.items()}
    return {
        pair: {cell: Fraction(n, denominator) for cell, n in joint.items()}
        for pair, joint in digit_pair_joints(numerators).items()
    }


def scale_fiq_truncated(
    model: IndependentBitsModel,
    c: Fraction,
    depth: int,
) -> dict[DeterminedDigits, Fraction]:
    """Exact law of the determined digits of c * Q at truncation depth d.

    Enumerates every depth-d prefix with its exact propensity weight (half
    tails weight the positions beyond the explicit prefix by 1/2 each); the
    undetermined tail beyond d is carried by the interval itself.
    """
    if not isinstance(model, IndependentBitsModel):
        raise ValueError("exact scaling is defined for independent-bit models only")
    pv = model.pv
    if pv.tail is TailPolicy.UNSPECIFIED and depth > pv.prefix_length:
        raise DepthBeyondKnowledgeError(
            f"depth {depth} exceeds prefix length {pv.prefix_length} with unspecified tail"
        )
    table = scaled_digit_table(c, depth)
    # weight of every prefix value as an integer over the common denominator
    weights = [1]
    denominator = 1
    for position in range(1, depth + 1):
        a, b = pv.propensity_at(position).as_integer_ratio()
        weights = [w * bit for w in weights for bit in (b - a, a)]
        denominator *= b
    return {dd: Fraction(w, denominator) for dd, w in digit_law(table, weights).items()}


def prefix_values(sample: SampleMatrix) -> np.ndarray:
    """Int64 value sum bits_j 2^(d-j) of every row (so depth <= 63); usable as a table index."""
    d = sample.depth
    if d > 63:
        raise EnumerationBoundError(f"depth {d} exceeds the int64 prefix-value bound 63")
    return window_codes(sample.bits, d)[:, 0]


def prefix_counts(sample: SampleMatrix) -> list[int]:
    """Number of rows at each prefix value 0 .. 2^d - 1, as Python ints."""
    return np.bincount(prefix_values(sample), minlength=1 << sample.depth).tolist()
