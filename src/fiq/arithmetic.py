"""Sound arithmetic on partially determined binary expansions.

A finite bit prefix pins its value down to a half-open dyadic interval.
Arithmetic acts on the interval with exact rational endpoints, and an output
digit is emitted only when every point of the interval agrees on it.  Emitted
digits are therefore correct no matter how the undetermined tail resolves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .models import (
    BitPrefix,
    FiqModel,
    SampleMatrix,
    check_enumeration_depth,
    sample_chunk_rows,
    sample_matrix,
    window_codes,
)

DIGIT_PAIR_POSITIONS = (1, 2, 3, 4)
PREFIX_BATCH_CHUNKS = 16  # sample_matrix chunks per batch of sampled_prefix_counts

DigitEntry = tuple[int, int] | None  # a ``scaled_digit_table`` entry: None or (cell, n)


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


def scaled_digit_table(c: Fraction, depth: int) -> list[DigitEntry]:
    """Determined digits of c * [v/2^d, (v+1)/2^d) for every prefix value v.

    Entry v is None when the integer part is not determined, else ``(cell,
    n)``: the n determined fraction digits follow the integer part in
    ``cell = integer_part * 2^n + digits``, so the scaled interval lies in
    [cell, cell + 1) / 2^n.  Integer form of ``determined_digits(
    scale_by_constant(...))``, which stays as the reference.  With c = p/q,
    s = bitlen(q) + 2 and N = d + s, the scaled interval meets the cells
    [k 2^-N, (k + 1) 2^-N) for k = L .. H, where (the 2^d cancels)

        L = floor(v p 2^s / q),    H = floor(((v + 1) p 2^s - 1) / q).

    A digit is determined iff L and H agree on it and on every digit before
    it: the integer part iff L >> N == H >> N, and then the first
    N - bitlen(L xor H) fraction digits, so cell = L >> bitlen(L xor H).
    N is enough because the interval spans p 2^s / q > 4 cells, so fewer
    than N digits are ever determined.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError(f"scaling constant must be positive, got {c}")
    check_enumeration_depth(depth)
    p, q = c.numerator, c.denominator
    spare = q.bit_length() + 2
    n_bits = depth + spare
    step = p << spare
    table = []
    upper = 0  # (v p 2^s) for the current v
    for _ in range(1 << depth):
        low = upper // q
        upper += step
        varied = (low ^ ((upper - 1) // q)).bit_length()  # L xor H: the digits past the determined ones
        table.append((low >> varied, n_bits - varied) if varied <= n_bits else None)
    return table


def digit_law(table: Sequence[DigitEntry], weights: Iterable) -> dict:
    """Total weight of each entry of a ``scaled_digit_table``.

    ``weights[v]`` weighs prefix value v: an exact Fraction or a Python-int
    count.  Zero weights are skipped, and entries keep the order of their
    first prefix value.
    """
    law: dict = {}
    for entry, w in zip(table, weights, strict=True):
        if w:
            law[entry] = law.get(entry, 0) + w
    return law


def leading_digits(table: Iterable[DigitEntry], weights: Iterable) -> dict[tuple[int, ...], object]:
    """Total weight of each entry's determined fraction digits, cut after the last pair position.

    Reads (entry, weight) pairs: a ``scaled_digit_table`` with one weight per
    prefix value, or a ``digit_law``'s keys and values.  Zero weights and
    entries with an undetermined integer part are left out, so the result may
    total less than the weights.  Keys are bit tuples, in the order of their
    first entry.
    """
    last = max(DIGIT_PAIR_POSITIONS)
    leading: dict = {}
    for entry, w in zip(table, weights, strict=True):
        if w and entry is not None:
            cell, n = entry
            if n > last:
                cell >>= n - last
                n = last
            key = cell & ((1 << n) - 1) | 1 << n  # the digits behind a leading 1, which keeps their count
            leading[key] = leading.get(key, 0) + w
    return {tuple(map(int, bin(key)[3:])): w for key, w in leading.items()}


def digit_pair_joints(leading: Mapping[tuple[int, ...], object], denominator: int | None = None) -> dict:
    """Joint weight of the fraction digits at every pair i < j of ``DIGIT_PAIR_POSITIONS``.

    The (i, j) joint sums the ``leading_digits`` keys that determine digit j,
    so its cells keep the order of their first key.  Cells are weight sums,
    or with a ``denominator`` the exact ``Fraction(sum, denominator)`` of
    integer ones.
    """
    joints = {}
    for i, j in itertools.combinations(DIGIT_PAIR_POSITIONS, 2):
        joint = joints[(i, j)] = {}
        for key, w in leading.items():
            if len(key) >= j:
                cell = (key[i - 1], key[j - 1])
                joint[cell] = joint.get(cell, 0) + w
        if denominator is not None:
            joints[(i, j)] = {cell: Fraction(w, denominator) for cell, w in joint.items()}
    return joints


def scale_fiq_truncated(model: FiqModel, c: Fraction, depth: int) -> tuple[list[DigitEntry], list[int], int]:
    """Exact law of the determined digits of c * Q at depth d: ``(table, weights, denominator)``.

    ``scaled_digit_table(c, depth)``, checking the depth bound before any weight is built, then
    ``model.prefix_weights(depth)``: the shape of a sample's table, ``prefix_counts`` and size.
    """
    table = scaled_digit_table(c, depth)
    weights, denominator = model.prefix_weights(depth)
    return table, weights, denominator


def prefix_values(sample: SampleMatrix) -> np.ndarray:
    """Int64 value sum bits_j 2^(d-j) of every row, an index into a 2^d table: d is bounded like every table."""
    check_enumeration_depth(sample.depth)
    return next(window_codes(sample.bits, sample.depth))


def prefix_counts(sample: SampleMatrix) -> list[int]:
    """Number of rows at each prefix value 0 .. 2^d - 1, as Python ints."""
    return np.bincount(prefix_values(sample), minlength=1 << sample.depth).tolist()


def sampled_prefix_counts(model: FiqModel, depth: int, n_samples: int) -> list[int]:
    """``prefix_counts(sample_matrix(model, depth, n_samples))``, drawn and counted a batch of rows at a time.

    A batch is PREFIX_BATCH_CHUNKS whole chunks of rows, drawn by ``sample_matrix`` on the model with its
    stream id moved to the batch's first row; rows are pure functions of their stream id, so the batches
    hold the rows of the one big sample.  Each batch's prefix values are added into one 2^d int64
    histogram, with no pass over its 2^d bins, so peak memory is the histogram plus one batch at any N.
    The depth bound and the stream range are checked before any batch is drawn.
    """
    check_enumeration_depth(depth)
    batch = PREFIX_BATCH_CHUNKS * sample_chunk_rows(model, depth, n_samples)
    base = model.source.stream_id
    counts = np.zeros(1 << depth, dtype=np.int64)
    for start in range(0, n_samples, batch):
        shifted = replace(model, source=replace(model.source, stream_id=base + start))
        np.add.at(counts, prefix_values(sample_matrix(shifted, depth, min(batch, n_samples - start))), 1)
    return counts.tolist()
