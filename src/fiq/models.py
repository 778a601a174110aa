"""Generative models of finitely-informed binary expansions.

Two constructions:

* IndependentBitsModel -- bit j is 1 with propensity q_j, independently.
* MajorityVoteModel -- bit j is the majority of a window of k fresh source
  bits r(j) .. r(j+k-1).  Windows at distance < k overlap, so adjacent bits
  are correlated, yet the first d bits are always determined by the finite
  set of source bits r(1) .. r(d+k-1).

The window indexing starts every window at the bit's own position, so bit 1
is well defined from time 1 onward (no warm-up padding); the sliding-window
overlap structure is unchanged by this re-indexing.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb
from typing import ClassVar, Mapping, Protocol, Sequence

import numpy as np

from .errors import EnumerationBoundError
from .propensity import PropensityVector, as_propensity
from .randombits import RandomBitSource, bias_threshold, threshold_bits
from .rational import format_rational, parse_rational

ENUMERATION_BIT_BOUND = 24


@dataclass(frozen=True)
class BitPrefix:
    """The first d realized bits after the binary point.

    Denotes the dyadic interval [v, v + 2^-d) with v = sum bits_i 2^-i.
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("prefix bits must be 0 or 1")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @property
    def depth(self) -> int:
        return len(self.bits)

    @property
    def value(self) -> Fraction:
        """Left endpoint of the dyadic interval."""
        num = 0
        for b in self.bits:
            num = (num << 1) | b
        return Fraction(num, 1 << self.depth)


def majority(window: Sequence[int]) -> int:
    """1 iff strictly more ones than zeros; window length must be odd."""
    n = len(window)
    if n == 0 or n % 2 == 0:
        raise ValueError(f"majority window must have odd length >= 1, got {n}")
    if any(b not in (0, 1) for b in window):
        raise ValueError("window entries must be 0 or 1")
    return int(sum(window) * 2 > n)


class FiqModel(Protocol):
    """A bit-generating model: what sampling, experiments and the CLI rely on.

    A new model is one class providing these members, plus one branch in
    ``model_from_json`` that reads it back.
    """

    source: RandomBitSource
    stationary: ClassVar[bool]  # shift-invariant across bit positions

    def sample(self, stream_ids: np.ndarray, depth: int) -> np.ndarray:
        """First ``depth`` bits of every stream; shape (len(stream_ids), depth), uint8."""

    def generating_bits(self, depth: int) -> int:
        """Number of source bits that determine the first ``depth`` model bits."""

    def to_json(self) -> dict:
        """JSON form that ``model_from_json`` reads back."""


def _check_nonnegative(depth: int) -> None:
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")


@dataclass(frozen=True)
class MajorityVoteModel:
    """Bit j = majority of the k source bits r(j) .. r(j+k-1)."""

    k: int
    source: RandomBitSource
    stationary: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"window length k must be an odd positive integer, got {self.k}")

    def sample(self, stream_ids: np.ndarray, depth: int) -> np.ndarray:
        n_source = depth + self.k - 1
        r = self.source.bit_matrix(stream_ids, 1, n_source)
        csum = np.zeros((r.shape[0], n_source + 1), dtype=np.int64)
        np.cumsum(r, axis=1, out=csum[:, 1:])
        window_sums = csum[:, self.k:] - csum[:, :-self.k]
        return (window_sums * 2 > self.k).astype(np.uint8)

    def generating_bits(self, depth: int) -> int:
        _check_nonnegative(depth)
        return depth + self.k - 1 if depth else 0

    def to_json(self) -> dict:
        return {
            "type": "majority",
            "k": self.k,
            "bias": format_rational(self.source.bias),
            "seed": self.source.seed,
            "stream": self.source.stream_id,
        }


@dataclass(frozen=True)
class IndependentBitsModel:
    """Bit j drawn independently with propensity pv[j]."""

    pv: PropensityVector
    source: RandomBitSource
    stationary: ClassVar[bool] = False

    def sample(self, stream_ids: np.ndarray, depth: int) -> np.ndarray:
        # propensity_at rejects a depth past an unspecified tail before any bit is drawn
        thresholds = [bias_threshold(self.pv.propensity_at(j + 1)) for j in range(depth)]
        u = self.source.uniforms(stream_ids, 1, depth)
        out = np.empty(u.shape, dtype=np.uint8)
        for j, t in enumerate(thresholds):
            out[:, j] = threshold_bits(u[:, j], t)
        return out

    def generating_bits(self, depth: int) -> int:
        _check_nonnegative(depth)
        return depth

    def to_json(self) -> dict:
        return {
            "type": "independent",
            "pv": self.pv.to_json(),
            "seed": self.source.seed,
            "stream": self.source.stream_id,
        }


@dataclass(frozen=True)
class SampleMatrix:
    """N independent realizations of the first d bits, one model stream per row.

    ``stationary`` records whether the generating process is shift-invariant
    across bit positions (true for majority-vote models), which decides
    whether block statistics may pool across positions.
    """

    bits: np.ndarray  # (N, d) uint8
    stationary: bool

    @property
    def n_samples(self) -> int:
        return self.bits.shape[0]

    @property
    def depth(self) -> int:
        return self.bits.shape[1]


def window_codes(bits: np.ndarray, length: int) -> np.ndarray:
    """Big-endian int64 code of every ``length``-column window of ``bits``, shape (N, d - length + 1).

    Entry [i, t] is sum_m bits[i, t + m] 2^(length - 1 - m), built in place one
    column at a time: no (N, windows, length) array is ever materialized.
    """
    if not 1 <= length <= min(bits.shape[1], 63):
        raise ValueError(f"window length {length} is not in 1 .. min(depth {bits.shape[1]}, 63)")
    width = bits.shape[1] - length + 1
    codes = np.zeros((bits.shape[0], width), dtype=np.int64)
    for t in range(length):
        codes <<= 1
        codes += bits[:, t:t + width]
    return codes


def sample_prefix(model: FiqModel, depth: int, stream_id: int | None = None) -> BitPrefix:
    """One realization of the first ``depth`` bits, deterministic in the source."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    sid = model.source.stream_id if stream_id is None else stream_id
    row = model.sample(np.array([sid], dtype=np.uint64), depth)[0]
    return BitPrefix(tuple(int(b) for b in row))


def sample_matrix(model: FiqModel, depth: int, n_samples: int, threads: int = 1) -> SampleMatrix:
    """N realizations on streams stream_id .. stream_id+N-1, one per row.

    Every stream id must fit in 64 bits.  Output is identical for any thread
    count: rows are pure functions of their stream id, and chunks are
    assembled in index order.  At most ``os.cpu_count()`` worker threads run.
    """
    if depth < 1 or n_samples < 1:
        raise ValueError("depth and n_samples must be >= 1")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    base = model.source.stream_id
    if base + n_samples > 1 << 64:
        raise ValueError(f"streams {base} .. {base + n_samples - 1} do not fit in 64 bits")
    streams = np.arange(base, base + n_samples, dtype=np.uint64)
    workers = min(threads, os.cpu_count() or 1)
    if workers <= 1 or n_samples < 2 * workers:
        bits = model.sample(streams, depth)
    else:
        chunks = np.array_split(streams, workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda chunk: model.sample(chunk, depth), chunks))
        bits = np.concatenate(parts, axis=0)
    return SampleMatrix(bits=bits, stationary=model.stationary)


def enumeration_span(k: int, offsets: Sequence[int]) -> int:
    """Source bits spanned by length-``k`` windows at ``offsets``; raises past ENUMERATION_BIT_BOUND."""
    span = max(offsets) - min(offsets) + k
    if span > ENUMERATION_BIT_BOUND:
        raise EnumerationBoundError(f"enumeration needs {span} source bits, bound is {ENUMERATION_BIT_BOUND}")
    return span


def exact_window_joint(
    k: int,
    bias: Fraction,
    offsets: Sequence[int],
) -> dict[tuple[int, ...], Fraction]:
    """Exact joint law of the majority-vote bits at the given positions.

    The span of source bits (max(offsets) - min(offsets) + k, at most
    ENUMERATION_BIT_BOUND) is cut at every window start and end.  A segment
    of n bits holding j ones weighs C(n, j) a^j (b - a)^(n - j) for bias a/b,
    and each state (every window's ones so far, or its majority bit once the
    window has ended) carries an integer weight; the law is those weights
    over b^span.  Every outcome is a key, zero cells included, in increasing
    order of sum outcome[i] 2^i.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"window length k must be an odd positive integer, got {k}")
    if not offsets:
        raise ValueError("offsets must be non-empty")
    bias = as_propensity(bias)
    rel = [o - min(offsets) for o in offsets]
    span = enumeration_span(k, rel)

    a, b = bias.numerator, bias.denominator
    cuts = sorted({*rel, *(o + k for o in rel)})
    states = {(0,) * len(rel): 1}
    for lo, hi in zip(cuts, cuts[1:]):
        n = hi - lo
        roles = [(o <= lo < o + k, o + k == hi) for o in rel]  # (counting, ending)
        # ones counts of zero weight (bias 0 or 1) are dropped, not carried as states
        segment = [(j, w) for j in range(n + 1) if (w := comb(n, j) * a ** j * (b - a) ** (n - j))]
        after: dict[tuple[int, ...], int] = {}
        for state, weight in states.items():
            for j, w in segment:
                key = tuple(
                    (int(2 * (c + j) > k) if ending else c + j) if counting else c
                    for c, (counting, ending) in zip(state, roles)
                )
                after[key] = after.get(key, 0) + weight * w
        states = after
    denominator = b ** span
    outcomes = (tuple((code >> i) & 1 for i in range(len(rel))) for code in range(1 << len(rel)))
    return {outcome: Fraction(states.get(outcome, 0), denominator) for outcome in outcomes}


# ---------------------------------------------------------------------------
# serialization

def require_fields(data, what: str, *keys: str) -> None:
    """Reject a JSON document that is not an object or lacks one of ``keys``."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing required field {key!r}")


def json_int(value, what: str) -> int:
    """``value`` as an int; a ValueError names ``what`` when it is not one.

    A boolean or a float with a fractional part is not an integer: it is
    rejected, not truncated.
    """
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def json_float(value, what: str) -> float:
    """``value`` as a float; a ValueError names ``what`` when it is not a number."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None


def model_from_json(
    data: Mapping,
    seed: int | None = None,
    stream: int | None = None,
) -> FiqModel:
    """Build a model from its JSON form; ``seed``/``stream`` override the document."""
    require_fields(data, "model JSON")
    kind = data.get("type")
    use_seed = seed if seed is not None else data.get("seed")
    if use_seed is None:
        raise ValueError("model JSON carries no seed and none was supplied")
    use_stream = stream if stream is not None else data.get("stream", 0)
    source = RandomBitSource(seed=json_int(use_seed, "model field 'seed'"),
                             stream_id=json_int(use_stream, "model field 'stream'"))
    if kind == "independent":
        require_fields(data, "independent model JSON", "pv")
        return IndependentBitsModel(pv=PropensityVector.from_json(data["pv"]), source=source)
    if kind == "majority":
        require_fields(data, "majority model JSON", "k")
        source = replace(source, bias=parse_rational(str(data.get("bias", "1/2"))))
        return MajorityVoteModel(k=json_int(data["k"], "model field 'k'"), source=source)
    raise ValueError(f"unknown model type {kind!r}")
