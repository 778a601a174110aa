"""Generative models of finitely-informed binary expansions.

Two constructions:

* IndependentBitsModel -- bit j is 1 with propensity q_j, independently.
* MajorityVoteModel -- bit j is the majority of a window of k fresh source
  bits r(j) .. r(j+k-1), each 1 with the model's bias.  Windows at distance
  < k overlap, so adjacent bits are correlated, yet the first d bits are
  always determined by the finite set of source bits r(1) .. r(d+k-1).

The window indexing starts every window at the bit's own position, so bit 1
is well defined from time 1 onward (no warm-up padding); the sliding-window
overlap structure is unchanged by this re-indexing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb
from typing import ClassVar, Iterable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from .errors import DepthBeyondKnowledgeError, EnumerationBoundError
from .jsonfields import json_int, json_rational, reject_unknown_fields, require_fields
from .propensity import HALF, PropensityVector, TailPolicy, as_propensity
from .randombits import RandomBitSource, check_u64, threshold_bits
from .rational import format_rational

ENUMERATION_BIT_BOUND = 24
EXACT_ENUMERATION_MAX_DEPTH = 20
MAX_BLOCK_LENGTH = 16  # longest block whose window counts are read
SAMPLE_CHUNK_BITS = 1 << 16  # source bits per sample_matrix chunk; 2^17 and up measured slower
SAMPLE_BATCH_CHUNKS = 16  # sample_matrix chunks per sample_batches batch


class FiqModel(Protocol):
    """A bit-generating model: what sampling, exact digit laws, experiments and the CLI rely on.

    A new model is one class providing these members, plus one branch in
    ``model_from_json`` that reads it back.
    """

    source: RandomBitSource
    stationary: ClassVar[bool]  # shift-invariant across bit positions

    def sample(self, stream_ids: np.ndarray, depth: int, work: np.ndarray | None = None) -> np.ndarray:
        """First ``depth`` bits of every stream; shape (len(stream_ids), depth), uint8.

        ``work`` is a uint64 buffer of at least 2 * len(stream_ids) * generating_bits(depth) elements, handed to
        the source's ``uniforms``.
        """

    def generating_bits(self, depth: int) -> int:
        """Number of source bits that determine the first ``depth`` model bits."""

    def prefix_weights(self, depth: int) -> tuple[list[int], int]:
        """Exact law of the first ``depth`` bits: Python-int weight of each big-endian prefix value, and their sum.

        Depth 0 is ([1], 1).  Past EXACT_ENUMERATION_MAX_DEPTH, raises EnumerationBoundError before any weight.
        """

    def to_json(self) -> dict:
        """JSON form that ``model_from_json`` reads back."""


def _check_nonnegative(depth: int) -> None:
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")


def check_enumeration_depth(depth: int) -> None:
    """Reject a depth below 0 or past EXACT_ENUMERATION_MAX_DEPTH before 2^depth prefix values are built."""
    _check_nonnegative(depth)
    if depth > EXACT_ENUMERATION_MAX_DEPTH:
        raise EnumerationBoundError(f"depth {depth} exceeds exact enumeration bound {EXACT_ENUMERATION_MAX_DEPTH}")


@dataclass(frozen=True)
class MajorityVoteModel:
    """Bit j = majority of the k source bits r(j) .. r(j+k-1), each 1 with propensity ``bias``."""

    k: int
    source: RandomBitSource
    bias: Fraction = HALF
    stationary: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"window length k must be an odd positive integer, got {self.k}")
        object.__setattr__(self, "bias", as_propensity(self.bias))

    def sample(self, stream_ids: np.ndarray, depth: int, work: np.ndarray | None = None) -> np.ndarray:
        k = self.k
        r = threshold_bits(self.source.uniforms(stream_ids, 1, depth + k - 1, work), [self.bias])
        # Window sums by doubling: spans[:, j] sums the m source bits from j, for m = 1, 2, 4, ...,
        # and a length-k window is the spans that k's binary digits select, laid end to end.
        # Every partial sum is at most k, so k's dtype holds it exactly.
        spans, m, start, window_sums = r.astype(np.min_scalar_type(k), copy=False), 1, 0, None
        while True:
            if k & m:
                piece = spans[:, start:start + depth]
                window_sums = piece if window_sums is None else window_sums + piece
                start += m
            if 2 * m > k:
                break
            spans = spans[:, :-m] + spans[:, m:]
            m *= 2
        return (window_sums > k // 2).view(np.uint8)

    def generating_bits(self, depth: int) -> int:
        _check_nonnegative(depth)
        return depth + self.k - 1 if depth else 0

    def prefix_weights(self, depth: int) -> tuple[list[int], int]:
        check_enumeration_depth(depth)
        if not depth:
            return [1], 1  # the empty prefix
        weights, denominator = _window_states(self.k, self.bias, range(1, depth + 1))
        return weights.reshape(-1).tolist(), denominator  # bit 1 is the first axis: big-endian

    def to_json(self) -> dict:
        return {
            "type": "majority",
            "k": self.k,
            "bias": format_rational(self.bias),
            "seed": self.source.seed,
            "stream": self.source.stream_id,
        }


@dataclass(frozen=True)
class IndependentBitsModel:
    """Bit j drawn independently with propensity pv[j]."""

    pv: PropensityVector
    source: RandomBitSource
    stationary: ClassVar[bool] = False

    def sample(self, stream_ids: np.ndarray, depth: int, work: np.ndarray | None = None) -> np.ndarray:
        # propensity_at rejects a depth past an unspecified tail before any uniform is drawn
        propensities = [self.pv.propensity_at(j + 1) for j in range(depth)]
        return threshold_bits(self.source.uniforms(stream_ids, 1, depth, work), propensities)

    def generating_bits(self, depth: int) -> int:
        _check_nonnegative(depth)
        return depth

    def prefix_weights(self, depth: int) -> tuple[list[int], int]:
        """Products of the propensities; half tails weight the positions beyond the prefix by 1/2 each."""
        check_enumeration_depth(depth)
        pv = self.pv
        if pv.tail is TailPolicy.UNSPECIFIED and depth > pv.prefix_length:
            raise DepthBeyondKnowledgeError(
                f"depth {depth} exceeds prefix length {pv.prefix_length} with unspecified tail"
            )
        weights = [1]
        denominator = 1
        for position in range(1, depth + 1):
            a, b = pv.propensity_at(position).as_integer_ratio()
            weights = [w * bit for w in weights for bit in (b - a, a)]
            denominator *= b
        return weights, denominator

    def to_json(self) -> dict:
        return {
            "type": "independent",
            "pv": self.pv.to_json(),
            "seed": self.source.seed,
            "stream": self.source.stream_id,
        }


@dataclass(frozen=True)
class SampleMatrix:
    """Integer counts of N realizations of the first d bits: every statistic the estimators read.

    ``stationary`` records whether the generating process is shift-invariant across bit positions (true for
    majority-vote models), which decides whether block statistics may pool across positions.  The window
    histograms count the big-endian codes of the first window, of every window and of the last one (the
    first alone unless stationary) at the read length L, in 2^L bins.  At read length 0 no window is read;
    at read length d the first window is the prefix histogram, which alone determines the pair counts.
    """

    n_samples: int
    stationary: bool
    pair_counts: np.ndarray  # (d, d) int64 BᵀB: rows with both bits set, and each column's ones on the diagonal
    read_length: int
    first_window: np.ndarray
    pooled_windows: np.ndarray
    last_window: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.pair_counts)

    def window_counts(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Counts of the 2^length window codes: (first window, every window if stationary, else first).

        A length below the read length sums the marginals of the read
        histograms, the last window's at each start past the last read one.
        """
        if not 1 <= length <= self.read_length:
            raise ValueError(f"window length {length} is not in 1 .. the read length {self.read_length}")

        def leading(hist: np.ndarray) -> np.ndarray:
            return hist.reshape(1 << length, -1).sum(axis=1)

        first, pooled, tail = leading(self.first_window), leading(self.pooled_windows), self.last_window
        for _ in range(self.read_length - length if self.stationary else 0):  # each start past the last read one
            tail = tail.reshape(2, -1).sum(axis=0)  # the last window less a leading bit
            pooled = pooled + leading(tail)
        return first, pooled


def count_rows(batches: Iterable[np.ndarray], depth: int, stationary: bool, read_length: int) -> SampleMatrix:
    """The ``SampleMatrix`` of every row of ``batches``: (rows, depth) uint8 bit arrays in any layout.

    Depth and read length are checked before the first batch.  Each batch's counts are added in place into the
    window histograms, and below read length d into one row Gram matrix, so any split of the rows gives the same
    record, and peak memory is the counts plus one batch.  At read length d the pair counts are superset sums
    of the prefix histogram, taken once after the last batch.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not 0 <= read_length <= min(depth, EXACT_ENUMERATION_MAX_DEPTH):
        raise ValueError(f"read length {read_length} is not in 0 .. min(depth {depth}, {EXACT_ENUMERATION_MAX_DEPTH})")
    gram = np.zeros((depth, depth), dtype=np.int64)
    first = np.zeros(1 << read_length, dtype=np.int64)
    windows = depth - read_length + 1 if stationary and read_length else 1
    pooled, last = (np.zeros_like(first), np.zeros_like(first)) if windows > 1 else (first, first)
    rows = max(1, SAMPLE_CHUNK_BITS // depth)  # float32 sums are exact below 2^24 rows

    def add(bits: np.ndarray) -> int:
        for start in range(0, len(bits), rows) if read_length < depth else ():  # at L = d, from the histogram below
            chunk = bits[start:start + rows].astype(np.float32)
            gram[...] += (chunk.T @ chunk).astype(np.int64)
        for t, code in zip(range(windows), window_codes(bits, read_length) if read_length else ()):
            np.add.at(first if t == 0 else pooled, code, 1)
            if t and t == windows - 1:
                np.add.at(last, code, 1)
        return len(bits)

    n_samples = sum(map(add, batches))  # add's temporaries are freed before the next batch is drawn
    if windows > 1:  # the pooled histogram holds every later window, and now the first
        pooled += first
    if read_length == depth:  # entry c of the superset sums counts the rows with every bit of c set
        sums = first.copy()
        for axis in range(depth):  # add each bit's 1-half into its 0-half
            sums.reshape(1 << axis, 2, -1)[:, 0] += sums.reshape(1 << axis, 2, -1)[:, 1]
        bit = 1 << np.arange(depth - 1, -1, -1)
        gram = sums[bit[:, None] | bit]
    return SampleMatrix(n_samples, stationary, gram, read_length, first, pooled, last)


def prefix_values(bits: np.ndarray) -> np.ndarray:
    """Int64 value sum bits_j 2^(d-j) of each row of (N, d) bits, an index into a 2^d table: d is bounded."""
    n, depth = bits.shape
    check_enumeration_depth(depth)
    weights = np.exp2(np.arange(depth - 1, -1, -1, dtype=np.float32))
    values = np.empty(n, dtype=np.int64)
    rows = max(1, SAMPLE_CHUNK_BITS // max(1, depth))
    for start in range(0, n, rows):  # float32 sums below 2^24 are exact, and no value exceeds 20 bits
        values[start:start + rows] = bits[start:start + rows].astype(np.float32) @ weights
    return values


def window_codes(bits: np.ndarray, length: int) -> Iterator[np.ndarray]:
    """Big-endian int64 code of each ``length``-column window of ``bits``, left to right.

    Yields one (N,) vector per window start t, holding sum_m bits[:, t + m]
    2^(length - 1 - m).  It is the same vector every time, overwritten in
    place with the next window, so a caller that keeps one must copy it.

    The first window is the ``prefix_values`` of the first ``length`` columns;
    each later one rolls the vector: drop the leaving bit, shift, add the next column.
    Length is at most EXACT_ENUMERATION_MAX_DEPTH: every code indexes a 2^length table.
    """
    depth = bits.shape[1]
    if not 1 <= length <= min(depth, EXACT_ENUMERATION_MAX_DEPTH):
        raise ValueError(f"window length {length} is not in 1 .. min(depth {depth}, {EXACT_ENUMERATION_MAX_DEPTH})")
    code = prefix_values(bits[:, :length])
    yield code
    for t in range(length, depth):
        code &= (1 << (length - 1)) - 1
        code <<= 1
        code += bits[:, t]
        yield code


def sample_chunk_rows(model: FiqModel, depth: int, n_samples: int) -> int:
    """Rows of a ``sample_matrix`` chunk, at most SAMPLE_CHUNK_BITS source bits but at least one row.

    Raises unless depth and n_samples are >= 1 and streams stream_id .. stream_id+N-1 fit in 64 bits.
    """
    if depth < 1 or n_samples < 1:
        raise ValueError("depth and n_samples must be >= 1")
    base = model.source.stream_id
    if base + n_samples > 1 << 64:
        raise ValueError(f"streams {base} .. {base + n_samples - 1} do not fit in 64 bits")
    return max(1, SAMPLE_CHUNK_BITS // model.generating_bits(depth))


def sample_matrix(model: FiqModel, depth: int, n_samples: int, out: np.ndarray | None = None) -> np.ndarray:
    """N realizations on streams stream_id .. stream_id+N-1: a read-only (N, d) uint8 array, one row each.

    Every stream id must fit in 64 bits.  Rows are drawn in the caller's thread, in
    chunks of ``sample_chunk_rows`` rows, and written in place into the column-major
    result, the view of a (d, N) array: a new C array, or the first N columns of
    ``out``, any (d, >= N) uint8 view, strided or not, which stays writable for the
    caller.  Every chunk's uniforms are built and mixed in one work buffer,
    allocated once per call and dropped on return, so peak memory is the result
    plus about 2 * 8 * SAMPLE_CHUNK_BITS bytes, and no chunk allocates a temporary
    of its grid's size.  Rows are pure functions of their stream id.
    """
    rows = sample_chunk_rows(model, depth, n_samples)
    base = model.source.stream_id
    columns = np.empty((depth, n_samples), dtype=np.uint8) if out is None else out[:, :n_samples]
    work = np.empty(2 * min(rows, n_samples) * model.generating_bits(depth), dtype=np.uint64)
    for start in range(0, n_samples, rows):
        stop = min(start + rows, n_samples)
        # the stream-minor bit source makes each chunk's transpose C-contiguous: depth runs copy in whole
        columns[:, start:stop] = model.sample(np.arange(base + start, base + stop, dtype=np.uint64), depth, work).T
    columns.flags.writeable = False
    return columns.T


def sample_batches(model: FiqModel, depth: int, n_samples: int) -> Iterator[np.ndarray]:
    """The rows of ``sample_matrix(model, depth, n_samples)``, SAMPLE_BATCH_CHUNKS whole chunks at a time.

    Each batch is a ``sample_matrix`` call on the model with its stream id moved to the batch's first row;
    rows are pure functions of their stream id.  The stream range is checked before the first batch.  Every
    batch is written into one buffer, so the next batch overwrites it and a caller that keeps one must copy
    it; a fresh buffer per batch re-faulted its pages whenever the allocator returned the last one's.
    """
    batch = SAMPLE_BATCH_CHUNKS * sample_chunk_rows(model, depth, n_samples)
    base = model.source.stream_id
    out = np.empty((depth, min(batch, n_samples)), dtype=np.uint8)
    for start in range(0, n_samples, batch):
        shifted = replace(model, source=replace(model.source, stream_id=base + start))
        yield sample_matrix(shifted, depth, min(batch, n_samples - start), out)


def enumeration_span(k: int, offsets: Sequence[int]) -> int:
    """Source bits spanned by length-``k`` windows at ``offsets``; raises past ENUMERATION_BIT_BOUND."""
    span = max(offsets) - min(offsets) + k
    if span > ENUMERATION_BIT_BOUND:
        raise EnumerationBoundError(f"enumeration needs {span} source bits, bound is {ENUMERATION_BIT_BOUND}")
    return span


def _window_states(k: int, bias: Fraction, offsets: Sequence[int]) -> tuple[np.ndarray, int]:
    """Integer weight of every outcome of the majority bits at ``offsets``, and b^span.

    ``weights[outcome]`` is the outcome's weight over b^span, in a Python-int
    array with a length-2 axis per offset, in the caller's order.  The span of
    source bits (at most ENUMERATION_BIT_BOUND) is cut at every window start
    and end; a segment of n bits holding j ones weighs C(n, j) a^j (b - a)^(n - j)
    for bias a/b.  Windows open and end in sorted offset order.  A state is the
    ones counted so far in each open window, oldest first, and holds the weights
    of the majority bits of the windows already ended, big-endian.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"window length k must be an odd positive integer, got {k}")
    if not offsets:
        raise ValueError("offsets must be non-empty")
    order = sorted(range(len(offsets)), key=offsets.__getitem__)
    starts = [offsets[i] - offsets[order[0]] for i in order]
    span = enumeration_span(k, starts)

    a, b = as_propensity(bias).as_integer_ratio()
    cuts = sorted({*starts, *(s + k for s in starts)})
    states = {(): np.ones(1, dtype=object)}
    for lo, hi in zip(cuts, cuts[1:]):
        n, fresh, ending = hi - lo, starts.count(lo), starts.count(hi - k)
        # ones counts of zero weight (bias 0 or 1) are dropped, not carried as states
        segment = [(j, w) for j in range(n + 1) if (w := comb(n, j) * a ** j * (b - a) ** (n - j))]
        after: dict[tuple[int, ...], np.ndarray] = {}
        for counts, weights in states.items():
            for j, w in segment:
                counted = [c + j for c in counts] + [j] * fresh
                code = sum(int(2 * c > k) << (ending - 1 - i) for i, c in enumerate(counted[:ending]))
                key = tuple(counted[ending:])
                if key not in after:
                    after[key] = np.zeros(len(weights) << ending, dtype=object)
                after[key][code::1 << ending] += weights * w
        states = after
    return states[()].reshape((2,) * len(offsets)).transpose(np.argsort(order)), b ** span


def exact_window_joint(k: int, bias: Fraction, offsets: Sequence[int]) -> dict[tuple[int, ...], Fraction]:
    """Exact joint law of the majority-vote bits at ``offsets``: the ``_window_states`` weights over b^span.

    Every outcome is a key, zero cells included, in increasing order of sum outcome[i] 2^i (reversed axes, C order).
    """
    weights, denominator = _window_states(k, bias, offsets)
    return {index[::-1]: Fraction(w, denominator) for index, w in np.ndenumerate(weights.T)}


# ---------------------------------------------------------------------------
# serialization

def model_from_json(
    data: Mapping,
    seed: int | None = None,
    stream: int | None = None,
) -> FiqModel:
    """Build a model from its JSON form; ``seed``/``stream`` override the document's, checked all the same."""
    require_fields(data, "model JSON")
    kind = data.get("type")
    doc = {key: check_u64(json_int(data[key], f"model field {key!r}"), f"model field {key!r}")
           for key in ("seed", "stream") if key in data}
    seed = seed if seed is not None else doc.get("seed")
    if seed is None:
        raise ValueError("model JSON carries no seed and none was supplied")
    source = RandomBitSource(seed=seed, stream_id=stream if stream is not None else doc.get("stream", 0))
    if kind == "independent":
        require_fields(data, "independent model JSON", "pv")
        reject_unknown_fields(data, "independent model JSON", "type", "pv", "seed", "stream")
        return IndependentBitsModel(pv=PropensityVector.from_json(data["pv"]), source=source)
    if kind == "majority":
        require_fields(data, "majority model JSON", "k")
        reject_unknown_fields(data, "majority model JSON", "type", "k", "bias", "seed", "stream")
        bias = json_rational(data.get("bias", "1/2"), "model field 'bias'")
        if not 0 <= bias <= 1:
            raise ValueError(f"model field 'bias' must be in [0, 1], got {format_rational(bias)}")
        return MajorityVoteModel(k=json_int(data["k"], "model field 'k'"), source=source, bias=bias)
    raise ValueError(f"unknown model type {kind!r}")
