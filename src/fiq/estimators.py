"""Statistical estimators over sampled bit realizations.

All estimators come in two layers: a distribution layer that evaluates the
plug-in functional on an explicit (possibly exact-rational) distribution, and
a sampling layer that builds the empirical distribution from a SampleMatrix
and adds the finite-sample corrections.  The split lets tests check estimator
correctness on exact enumerated joints, separately from sampling noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .models import MAX_BLOCK_LENGTH, SampleMatrix
from .propensity import binary_entropy

LN2 = math.log(2.0)
MIN_MI_SAMPLES = 100  # fewest rows pairwise_mi estimates from


def _plugin_entropy(probs: np.ndarray) -> float:
    """-sum p log2 p in bits over the nonzero entries of ``probs``, summed in array order."""
    probs = probs[probs > 0]
    return float(-(probs * np.log2(probs)).sum())


def mi_noise_floor(n_samples: int) -> float:
    """Decision threshold for plug-in MI: 3x the asymptotic null mean.

    Under independence, 2N ln2 * MI_plugin is asymptotically chi-square with
    one degree of freedom for a 2x2 table, so the null mean of the MI
    estimate is 1/(2N ln2); anything below three times that is noise.
    """
    return 3.0 / (2.0 * n_samples * LN2)


def entropy_from_dist(dist: Mapping) -> float:
    """Shannon entropy in bits of an explicit distribution (any weight type), summed in key order.

    A law keyed by window code thus gives the plug-in part of ``block_entropy`` bit for bit.
    """
    total = sum(dist.values())
    if total == 0:
        raise ValueError("distribution has zero total mass")
    return _plugin_entropy(np.array([float(dist[key]) / float(total) for key in sorted(dist)]))


def mi_from_joint(joint: Mapping[tuple, object]) -> float:
    """Mutual information in bits of a joint law over pairs (x, y).

    An empty or single-cell joint has MI exactly 0.
    """
    total = float(sum(joint.values()))
    px: dict = {}
    py: dict = {}
    for (x, y), w in joint.items():
        w = float(w)
        px[x] = px.get(x, 0.0) + w
        py[y] = py.get(y, 0.0) + w
    mi = 0.0
    for (x, y), w in joint.items():
        p = float(w) / total
        if p > 0.0:
            mi += p * math.log2(p * total * total / (px[x] * py[y]))
    return mi


def joint_is_independent(joint: Mapping[tuple, object]) -> bool:
    """Exact product-form check; meaningful when weights are rationals.

    An empty joint counts as independent.
    """
    total = sum(joint.values())
    px: dict = {}
    py: dict = {}
    for (x, y), w in joint.items():
        px[x] = px.get(x, 0) + w
        py[y] = py.get(y, 0) + w
    return all(w * total == px[x] * py[y] for (x, y), w in joint.items())


def correlated_info_from_dist(dist: Mapping[tuple, object]) -> "CandidateMeasures":
    """Both candidate information measures on an explicit d-bit joint law."""
    total = float(sum(dist.values()))
    d = len(next(iter(dist)))
    # each marginal is an exact weight sum rounded once, so it never exceeds 1
    marginals = [float(sum(w for outcome, w in dist.items() if outcome[j])) / total for j in range(d)]
    per_bit = math.fsum(1.0 - binary_entropy(f) for f in marginals)
    return CandidateMeasures(per_bit_sum=per_bit, multi_information=d - entropy_from_dist(dist))


# ---------------------------------------------------------------------------
# sampling layer


def pairwise_joint_counts(s: SampleMatrix, i: int, j: int) -> dict[tuple[int, int], int]:
    """2x2 counts of columns i and j, keyed (bit i, bit j), read off ``s.pair_counts``.

    Those counts are computed once per sample; ``sample_matrix``'s bits are read-only.
    """
    g = s.pair_counts
    n11 = int(g[i, j])
    return {(0, 0): s.n_samples - int(g[i, i]) - int(g[j, j]) + n11, (0, 1): int(g[j, j]) - n11,
            (1, 0): int(g[i, i]) - n11, (1, 1): n11}


def pairwise_mi(s: SampleMatrix, i: int, j: int) -> float:
    """Plug-in MI in bits of columns i and j.

    A constant column has no estimable dependence; its MI is defined as 0.
    """
    if i == j:
        raise ValueError("pairwise MI needs two distinct columns")
    n = s.n_samples
    if n < MIN_MI_SAMPLES:
        raise ValueError(f"need at least {MIN_MI_SAMPLES} samples for MI estimation, got {n}")
    joint = pairwise_joint_counts(s, i, j)
    if joint[1, 0] + joint[1, 1] in (0, n) or joint[0, 1] + joint[1, 1] in (0, n):
        return 0.0
    return mi_from_joint(joint)


def mi_matrix(s: SampleMatrix) -> np.ndarray:
    """Symmetric d x d matrix: plug-in MI off-diagonal, marginal entropy on it."""
    d = s.depth
    out = np.zeros((d, d))
    freqs = s.pair_counts.diagonal() / s.n_samples
    for i in range(d):
        out[i, i] = binary_entropy(float(freqs[i]))
        for j in range(i + 1, d):
            out[i, j] = out[j, i] = pairwise_mi(s, i, j)
    return out


@dataclass(frozen=True)
class CorrelationReport:
    marginals: list[float]
    mi_matrix: np.ndarray
    n_samples: int
    noise_floor: float


def correlation_report(s: SampleMatrix) -> CorrelationReport:
    return CorrelationReport(
        marginals=[float(f) for f in s.pair_counts.diagonal() / s.n_samples],
        mi_matrix=mi_matrix(s),
        n_samples=s.n_samples,
        noise_floor=mi_noise_floor(s.n_samples),
    )


def block_entropy(s: SampleMatrix, block_length: int, *, first_window: bool = False) -> float:
    """Plug-in entropy in bits of length-L windows plus the Miller-Madow correction.

    Windows are pooled across positions only for stationary processes;
    otherwise, or with ``first_window``, the block starts at position 1.  The
    counts are read off ``s.window_counts``, built once per sample from bits
    that ``sample_matrix`` returns read-only.
    """
    if block_length < 1:
        raise ValueError("block length must be >= 1")
    if block_length > min(s.depth, MAX_BLOCK_LENGTH):
        raise ValueError(
            f"block length {block_length} exceeds sampled depth {s.depth} "
            f"or the cap {MAX_BLOCK_LENGTH}"
        )
    first, pooled = s.window_counts(block_length)
    counts = first if first_window else pooled
    n = int(counts.sum())
    return _plugin_entropy(counts / n) + (np.count_nonzero(counts) - 1) / (2.0 * n * LN2)


@dataclass(frozen=True)
class EntropyRateEstimate:
    rate: float                   # H_Lmax - H_{Lmax-1}, bits per bit
    block_entropies: list[float]  # H_1 .. H_Lmax (corrected)


def entropy_rate(s: SampleMatrix, l_max: int) -> EntropyRateEstimate:
    """Conditional-entropy estimate of the per-bit information production.

    H_0 = 0, so with ``l_max`` = 1 the rate is H_1.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    hs = [block_entropy(s, L) for L in range(l_max, 0, -1)][::-1]  # longest first: rows are read once
    return EntropyRateEstimate(rate=hs[-1] - (hs[-2] if l_max > 1 else 0.0), block_entropies=hs)


@dataclass(frozen=True)
class CandidateMeasures:
    """Two candidate total-information measures, reported side by side.

    ``per_bit_sum`` applies the independent-bit measure sum(1 - H(q_j))
    blindly to the marginals; ``multi_information`` is d minus the joint
    entropy over the d bits.  They agree exactly when the bits are
    independent; neither is endorsed as "the" measure for correlated bits.
    """

    per_bit_sum: float
    multi_information: float


def correlated_info_content(s: SampleMatrix, d: int) -> CandidateMeasures:
    if d < 1 or d > min(s.depth, MAX_BLOCK_LENGTH):
        raise ValueError(f"d must be in [1, {min(s.depth, MAX_BLOCK_LENGTH)}], got {d}")
    freqs = s.pair_counts.diagonal()[:d] / s.n_samples
    per_bit = math.fsum(1.0 - binary_entropy(float(f)) for f in freqs)
    joint_h = block_entropy(s, d, first_window=True)
    return CandidateMeasures(per_bit_sum=per_bit, multi_information=d - joint_h)


@dataclass(frozen=True)
class InfoReport:
    measure_name: str
    per_bit_terms: list[float]
    total: float
    block_entropies: list[float]
    entropy_rate_estimate: float


def info_report(s: SampleMatrix, l_max: int = 8) -> InfoReport:
    """Independent-bit measure on empirical marginals plus block diagnostics."""
    terms = [1.0 - binary_entropy(float(f)) for f in s.pair_counts.diagonal() / s.n_samples]
    rate = entropy_rate(s, min(l_max, s.depth, MAX_BLOCK_LENGTH))
    return InfoReport(
        measure_name="entropy-complement-sum",
        per_bit_terms=terms,
        total=math.fsum(terms),
        block_entropies=rate.block_entropies,
        entropy_rate_estimate=rate.rate,
    )
