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

from .models import SampleMatrix, window_codes

LN2 = math.log(2.0)

MAX_BLOCK_LENGTH = 16


def _h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def mi_noise_floor(n_samples: int) -> float:
    """Decision threshold for plug-in MI: 3x the asymptotic null mean.

    Under independence, 2N ln2 * MI_plugin is asymptotically chi-square with
    one degree of freedom for a 2x2 table, so the null mean of the MI
    estimate is 1/(2N ln2); anything below three times that is noise.
    """
    return 3.0 / (2.0 * n_samples * LN2)


def entropy_from_dist(dist: Mapping) -> float:
    """Shannon entropy in bits of an explicit distribution (any weight type)."""
    total = sum(dist.values())
    if total == 0:
        raise ValueError("distribution has zero total mass")
    h = 0.0
    for w in dist.values():
        p = float(w) / float(total)
        if p > 0.0:
            h -= p * math.log2(p)
    return h


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
    outcomes = list(dist.keys())
    d = len(outcomes[0])
    marginals = [0.0] * d
    for outcome, w in dist.items():
        w = float(w) / total
        for j, b in enumerate(outcome):
            if b:
                marginals[j] += w
    per_bit = math.fsum(1.0 - _h2(f) for f in marginals)
    multi = d - entropy_from_dist(dist)
    return CandidateMeasures(per_bit_sum=per_bit, multi_information=multi)


# ---------------------------------------------------------------------------
# sampling layer


@dataclass(frozen=True)
class MiEstimate:
    value: float
    noise_floor: float

    @property
    def significant(self) -> bool:
        return self.value > self.noise_floor

    @property
    def thresholded(self) -> float:
        return self.value if self.significant else 0.0


def pairwise_joint_counts(s: SampleMatrix, i: int, j: int) -> dict[tuple[int, int], int]:
    codes = s.bits[:, i].astype(np.int64) * 2 + s.bits[:, j]
    counts = np.bincount(codes, minlength=4)
    return {(a, b): int(counts[2 * a + b]) for a in (0, 1) for b in (0, 1)}


def pairwise_mi(s: SampleMatrix, i: int, j: int) -> MiEstimate:
    """Plug-in MI of columns i and j with the chi-square noise floor.

    A constant column has no estimable dependence; its MI is defined as 0.
    """
    if i == j:
        raise ValueError("pairwise MI needs two distinct columns")
    n = s.n_samples
    if n < 100:
        raise ValueError(f"need at least 100 samples for MI estimation, got {n}")
    floor = mi_noise_floor(n)
    ci = s.bits[:, i]
    cj = s.bits[:, j]
    if ci.min() == ci.max() or cj.min() == cj.max():
        return MiEstimate(value=0.0, noise_floor=floor)
    joint = pairwise_joint_counts(s, i, j)
    return MiEstimate(value=mi_from_joint(joint), noise_floor=floor)


def mi_matrix(s: SampleMatrix) -> np.ndarray:
    """Symmetric d x d matrix: plug-in MI off-diagonal, marginal entropy on it."""
    d = s.depth
    out = np.zeros((d, d))
    freqs = s.bits.mean(axis=0)
    for i in range(d):
        out[i, i] = _h2(float(freqs[i]))
        for j in range(i + 1, d):
            v = pairwise_mi(s, i, j).value
            out[i, j] = out[j, i] = v
    return out


@dataclass(frozen=True)
class CorrelationReport:
    marginals: list[float]
    mi_matrix: np.ndarray
    n_samples: int
    noise_floor: float


def correlation_report(s: SampleMatrix) -> CorrelationReport:
    return CorrelationReport(
        marginals=[float(f) for f in s.bits.mean(axis=0)],
        mi_matrix=mi_matrix(s),
        n_samples=s.n_samples,
        noise_floor=mi_noise_floor(s.n_samples),
    )


def block_entropy(s: SampleMatrix, block_length: int) -> float:
    """Plug-in entropy in bits of length-L windows plus the Miller-Madow correction.

    Windows are pooled across positions only for stationary processes;
    otherwise the block starts at position 1.
    """
    if block_length < 1:
        raise ValueError("block length must be >= 1")
    if block_length > min(s.depth, MAX_BLOCK_LENGTH):
        raise ValueError(
            f"block length {block_length} exceeds sampled depth {s.depth} "
            f"or the cap {MAX_BLOCK_LENGTH}"
        )
    bits = s.bits if s.stationary else s.bits[:, :block_length]
    counts = np.bincount(window_codes(bits, block_length).ravel())
    counts = counts[counts > 0]
    n = int(counts.sum())
    probs = counts / n
    return float(-(probs * np.log2(probs)).sum()) + (len(counts) - 1) / (2.0 * n * LN2)


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
    hs = [block_entropy(s, L) for L in range(1, l_max + 1)]
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
    freqs = s.bits[:, :d].mean(axis=0)
    per_bit = math.fsum(1.0 - _h2(float(f)) for f in freqs)
    joint_h = block_entropy(SampleMatrix(bits=s.bits, stationary=False), d)  # first d columns
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
    terms = [1.0 - _h2(float(f)) for f in s.bits.mean(axis=0)]
    rate = entropy_rate(s, min(l_max, s.depth, MAX_BLOCK_LENGTH))
    return InfoReport(
        measure_name="entropy-complement-sum",
        per_bit_terms=terms,
        total=math.fsum(terms),
        block_entropies=rate.block_entropies,
        entropy_rate_estimate=rate.rate,
    )
