"""Counter-based splittable source of 64-bit uniforms.

Uniform n of stream (seed, stream_id) is a pure function of (seed, stream_id,
n): a splitmix64-style finalizer applied to a per-stream key advanced by a
Weyl increment.  That makes sampling reproducible by construction, independent
of how the rows are chunked, and lets whole (stream x index) grids be
generated in one vectorized shot.

The source hands out uniforms only; models own their propensities and turn
uniforms into bits with ``threshold_bits``.  A rational propensity a/b is
realized by thresholding the 64-bit uniform at floor(a * 2^64 / b); the
realized probability differs from a/b by less than 2^-64.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .propensity import as_propensity

_GAMMA = 0x9E3779B97F4A7C15
_STREAM_GAMMA = 0xD1B54A32D192ED03


def _mix(x: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on a uint64 array, shifting into ``shifts`` of the same shape; returns ``x``."""
    x ^= np.right_shift(x, np.uint64(30), out=shifts)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=shifts)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=shifts)
    return x


def bias_threshold(bias: Fraction) -> int:
    """64-bit threshold realizing P(bit=1) = bias to within 2^-64."""
    bias = as_propensity(bias)
    return (bias.numerator << 64) // bias.denominator


def uniform64_grid(seed: int, stream_ids: np.ndarray, first: int, count: int,
                   work: np.ndarray | None = None) -> np.ndarray:
    """64-bit uniforms for every (stream, index) pair; shape (len(streams), count).

    Built and mixed stream-minor, as a C-contiguous (count, len(streams)) array; the result is its transposed view.
    ``work``, a uint64 buffer of at least 2 * len(streams) * count elements, holds that array and the shifted
    copies it is mixed with, so no temporary of the grid's size is made: the result is then a view of ``work``,
    valid until ``work`` is passed again.  Without it, both are allocated here.
    """
    n = len(stream_ids)
    size = n * count
    grid = (np.empty(size, dtype=np.uint64) if work is None else work[:size]).reshape(count, n)
    shifts = (np.empty(size, dtype=np.uint64) if work is None else work[size:2 * size]).reshape(count, n)
    # the stream keys live in shifts' first row, mixed with the grid's first row as shifts, until the grid is built
    keys = np.multiply(stream_ids.astype(np.uint64, copy=False), np.uint64(_STREAM_GAMMA), out=shifts[0])
    keys += _mix(np.full(1, seed, dtype=np.uint64), np.empty(1, dtype=np.uint64))[0]
    _mix(keys, grid[0])
    np.add(np.arange(first, first + count, dtype=np.uint64)[:, None] * np.uint64(_GAMMA), keys, out=grid)
    return _mix(grid, shifts).T


def threshold_bits(u: np.ndarray, propensities: Sequence[Fraction]) -> np.ndarray:
    """uint8 bits, 1 with propensity propensities[j] along the last axis of ``u``.

    q = 0 thresholds at 0, which no uniform is below; q = 1 (2^64, past uint64)
    also thresholds at 0, and its bits are set after the comparison.
    """
    thresholds = [bias_threshold(q) for q in propensities]
    certain = [t == 1 << 64 for t in thresholds]
    bits = (u < np.array([0 if c else t for t, c in zip(thresholds, certain)], dtype=np.uint64)).view(np.uint8)
    if any(certain):
        bits |= np.array(certain, dtype=np.uint8)
    return bits


def check_u64(value: int, what: str) -> int:
    """``value``, or a ValueError naming ``what`` when it is not a 64-bit unsigned integer."""
    if not 0 <= value < (1 << 64):
        raise ValueError(f"{what} must be a 64-bit unsigned integer, got {value}")
    return value


@dataclass(frozen=True)
class RandomBitSource:
    """Independent uniform streams u(1), u(2), ... keyed by (seed, stream_id).

    Identical (seed, stream_id) reproduce the identical sequence.  Distinct
    stream_ids give statistically independent streams, suitable for
    one-stream-per-realization Monte Carlo.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        check_u64(self.seed, "seed")
        check_u64(self.stream_id, "stream_id")

    def uniforms(self, stream_ids: np.ndarray, first: int, count: int, work: np.ndarray | None = None) -> np.ndarray:
        """Raw 64-bit uniforms for many streams; row i is stream stream_ids[i].  ``work`` as in ``uniform64_grid``."""
        return uniform64_grid(self.seed, np.asarray(stream_ids), first, count, work)
