"""Counter-based splittable source of random bits.

Uniform n of stream (seed, stream_id) is a pure function of (seed, stream_id,
n): a splitmix64-style finalizer applied to a per-stream key advanced by a
Weyl increment.  That makes sampling reproducible by construction, independent
of how the rows are chunked, and lets whole (stream x index) grids be
generated in one vectorized shot.

The source hands out bits.  A model builds its ``Thresholds`` once from its
propensities, and ``uniform64_grid`` compares every uniform with its index's
threshold in one pass after mixing.  A rational propensity a/b is realized by
thresholding the 64-bit uniform at floor(a * 2^64 / b); the realized
probability differs from a/b by less than 2^-64.  Without thresholds,
``uniform64_grid`` returns the raw uniforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .propensity import as_propensity

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_STREAM_GAMMA = np.uint64(0xD1B54A32D192ED03)
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_S30, _S27, _S31, _U_M1, _U_M2 = np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(_M1), np.uint64(_M2)
_COARSE = 1 << 33  # a threshold that is a multiple of this needs no last xorshift (see ``Thresholds``)


def _splitmix64(z: int) -> int:
    """splitmix64 finalizer of a Python int mod 2^64."""
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _mix(x: np.ndarray, shifts: np.ndarray, last: bool = True) -> np.ndarray:
    """splitmix64 finalizer, in place on a uint64 array, shifting into ``shifts`` of the same shape; returns ``x``.

    Without ``last``, the finalizer stops before its last step, the xorshift u = y ^ (y >> 31).
    """
    x ^= np.right_shift(x, _S30, out=shifts)
    x *= _U_M1
    x ^= np.right_shift(x, _S27, out=shifts)
    x *= _U_M2
    if last:
        x ^= np.right_shift(x, _S31, out=shifts)
    return x


def bias_threshold(bias: Fraction) -> int:
    """64-bit threshold realizing P(bit=1) = bias to within 2^-64."""
    bias = as_propensity(bias)
    return (bias.numerator << 64) // bias.denominator


def _runs(flags: Sequence[bool]) -> tuple[slice, ...]:
    """Slices of the maximal runs of true flags; the last flag stands for every index from its own on."""
    runs, start = [], None
    for j, flag in enumerate(flags):
        if flag and start is None:
            start = j
        elif not flag and start is not None:
            runs.append(slice(start, j))
            start = None
    return (*runs, slice(start, None)) if start is not None else tuple(runs)


class Thresholds:
    """The 64-bit thresholds of a bit request, built once per model from its propensities.

    Bit j of a request, counted from its first index, is 1 iff its uniform u is
    below t_j = bias_threshold(q_j), where q_j is prefix[j] up to the prefix's
    length and ``tail`` from there on.  q = 0 thresholds at 0, which no uniform
    is below; q = 1 (2^64, past uint64) also compares at 0, and its bits are
    set after the comparison.

    u is the finalizer's last step u = y ^ (y >> 31).  y >> 31 is below 2^33,
    so u agrees with y on every bit from bit 33 up: u >> 33 == y >> 33.  When
    t is a multiple of 2^33, x < t iff x >> 33 < t >> 33 for any 64-bit x, so
    u < t iff y < t.  Only the indices whose threshold is not such a multiple
    (``full_mix``) take the last xorshift: for every fair, 3/4, 0 and 1 bit it
    is skipped without changing a bit.
    """

    def __init__(self, prefix: Sequence[Fraction], tail: Fraction) -> None:
        t = [bias_threshold(q) for q in (*prefix, tail)]
        self.head = np.array([x & _MASK for x in t[:-1]], dtype=np.uint64).reshape(-1, 1)
        self.tail = np.uint64(t[-1] & _MASK)
        self.full_mix = _runs([x % _COARSE != 0 for x in t])
        self.certain = _runs([x == 1 << 64 for x in t])


def uniform64_grid(seed: int, stream_ids: np.ndarray, first: int, count: int, work: np.ndarray | None = None,
                   thresholds: Thresholds | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """64-bit uniforms for every (stream, index) pair; shape (len(streams), count).

    Built and mixed stream-minor, as a C-contiguous (count, len(streams)) array; the result is its transposed view.
    ``work``, a uint64 buffer of at least 2 * len(streams) * count elements, holds that array and the shifted
    copies it is mixed with, so no temporary of the grid's size is made: the result is then a view of ``work``,
    valid until ``work`` is passed again.  Without it, both are allocated here.

    With ``thresholds``, the result is the bits ``uniforms < t_j`` instead, as uint8 in the same shape: written
    into ``out``, any uint8 (len(streams), count) array or view, which is returned, or else into the shifted
    copies' half of ``work`` (a view, valid until ``work`` is passed again) or a new array.
    """
    n = len(stream_ids)
    size = n * count
    grid = (np.empty(size, dtype=np.uint64) if work is None else work[:size]).reshape(count, n)
    shifts = (np.empty(size, dtype=np.uint64) if work is None else work[size:2 * size]).reshape(count, n)
    # the stream keys live in shifts' first row, mixed with the grid's first row as shifts, until the grid is built
    keys = np.multiply(stream_ids.astype(np.uint64, copy=False), _STREAM_GAMMA, out=shifts[0])
    keys += _splitmix64(seed)
    _mix(keys, grid[0])
    np.add(np.arange(first, first + count, dtype=np.uint64)[:, None] * _GAMMA, keys, out=grid)
    if thresholds is None:
        return _mix(grid, shifts).T
    return _bits_below(_mix(grid, shifts, last=False), shifts, thresholds, out)


def _bits_below(y: np.ndarray, shifts: np.ndarray, thresholds: Thresholds, out: np.ndarray | None) -> np.ndarray:
    """Bits u < t_j of the uniforms u = y ^ (y >> 31) of a C-contiguous (count, n) uint64 grid ``y``; shape (n, count).

    The last xorshift is applied in place to the rows of ``thresholds.full_mix`` only.  ``shifts``, a C-contiguous
    uint64 array of y's shape, takes the shifted rows, and then the bits unless ``out`` is given.
    """
    for rows in thresholds.full_mix:
        v = y[rows]
        v ^= np.right_shift(v, _S31, out=shifts[rows])
    bits = shifts.reshape(-1).view(np.uint8)[:y.size].reshape(y.shape) if out is None else out.T
    below = bits.view(np.bool_)
    p = min(len(y), len(thresholds.head))
    np.less(y[:p], thresholds.head[:p], out=below[:p])
    np.less(y[p:], thresholds.tail, out=below[p:])
    for rows in thresholds.certain:
        below[rows] = True
    return bits.T


def check_u64(value: int, what: str) -> int:
    """``value``, or a ValueError naming ``what`` when it is not a 64-bit unsigned integer."""
    if not 0 <= value < (1 << 64):
        raise ValueError(f"{what} must be a 64-bit unsigned integer, got {value}")
    return value


@dataclass(frozen=True)
class RandomBitSource:
    """Independent uniform streams u(1), u(2), ... keyed by (seed, stream_id), handed out as thresholded bits.

    Identical (seed, stream_id) reproduce the identical sequence.  Distinct
    stream_ids give statistically independent streams, suitable for
    one-stream-per-realization Monte Carlo.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        check_u64(self.seed, "seed")
        check_u64(self.stream_id, "stream_id")

    def bits(self, stream_ids: np.ndarray, first: int, count: int, thresholds: Thresholds,
             work: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """Bits of uniforms first .. first+count-1 of many streams; row i is stream stream_ids[i].

        ``thresholds``, ``work`` and ``out`` as in ``uniform64_grid``.
        """
        return uniform64_grid(self.seed, np.asarray(stream_ids), first, count, work, thresholds, out)
