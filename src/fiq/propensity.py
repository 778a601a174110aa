"""Exact-rational per-bit propensities and the independent-bit information measure.

A quantity in [0,1) is described bit by bit: bit k takes the value 1 with
propensity q_k, an exact rational in [0,1].  A vector of propensities plus a
tail policy (all-1/2 beyond the explicit prefix, or no claim at all) is the
complete state.  The information carried by an independent bit is the
complement of its binary entropy, and the total content is the sum of those
complements; with a half-tail the sum is finite because fair bits carry
nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Union

from .errors import DepthBeyondKnowledgeError
from .jsonfields import json_rational, reject_unknown_fields, require_fields
from .rational import format_rational, parse_rational

HALF = Fraction(1, 2)

RationalLike = Union[Fraction, int, str]


def as_propensity(value: RationalLike) -> Fraction:
    """Coerce to an exact rational in [0,1], rejecting anything outside."""
    try:
        q = parse_rational(value) if isinstance(value, str) else Fraction(value)
    except (TypeError, OverflowError):
        raise ValueError(f"propensity {value!r} is not a rational number") from None
    if not 0 <= q <= 1:
        raise ValueError(f"propensity {q} outside [0, 1]")
    return q


class TailPolicy(Enum):
    """What is claimed about bits beyond the explicit prefix."""

    HALF = "half"          # all further bits are fair coins
    UNSPECIFIED = "unspecified"  # no claim; sampling past the prefix is an error


@dataclass(frozen=True)
class PropensityVector:
    """An explicit propensity prefix plus a tail policy.

    With ``TailPolicy.HALF`` the vector denotes the infinite sequence
    [q_1 .. q_M, 1/2, 1/2, ...].  ``prefix`` may be any iterable of rationals
    or "p/q" strings; each entry is coerced through ``as_propensity``.
    """

    prefix: tuple[Fraction, ...]
    tail: TailPolicy = TailPolicy.HALF

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", tuple(as_propensity(q) for q in self.prefix))
        if not isinstance(self.tail, TailPolicy):
            raise TypeError(f"tail must be a TailPolicy, got {self.tail!r}")

    @property
    def prefix_length(self) -> int:
        return len(self.prefix)

    def propensity_at(self, position: int) -> Fraction:
        """Propensity of the bit at 1-based ``position``."""
        if position < 1:
            raise ValueError(f"bit position must be >= 1, got {position}")
        if position <= len(self.prefix):
            return self.prefix[position - 1]
        if self.tail is TailPolicy.HALF:
            return HALF
        raise DepthBeyondKnowledgeError(
            f"position {position} beyond prefix of length {len(self.prefix)} with unspecified tail"
        )

    def to_json(self) -> dict:
        return {
            "prefix": [format_rational(q) for q in self.prefix],
            "tail": self.tail.value,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "PropensityVector":
        require_fields(data, "model field 'pv'", "prefix", "tail")
        reject_unknown_fields(data, "model field 'pv'", "prefix", "tail")
        if not isinstance(data["prefix"], list):
            raise ValueError(f"model field 'prefix' must be a list, got {data['prefix']!r}")
        entries = [json_rational(q, "model field 'prefix'") for q in data["prefix"]]
        if data["tail"] not in [t.value for t in TailPolicy]:  # a list, so an unhashable tail is no TypeError
            raise ValueError(f"model field 'tail' must be 'half' or 'unspecified', got {data['tail']!r}")
        try:
            return cls(entries, TailPolicy(data["tail"]))
        except ValueError as exc:  # an entry outside [0, 1]
            raise ValueError(f"model field 'prefix': {exc}") from None


def binary_entropy(q: RationalLike) -> float:
    """H(q) = -q log2 q - (1-q) log2 (1-q), with 0*log2(0) = 0.

    The complement is evaluated exactly as a rational before conversion to
    float so that q near 1 loses no precision.
    """
    q = as_propensity(q)
    if q == 0 or q == 1:
        return 0.0
    p = float(q)
    r = float(1 - q)
    return -(p * math.log2(p) + r * math.log2(r))


@dataclass(frozen=True)
class InfoContent:
    """Total information in bits; a lower bound when the tail is unspecified."""

    bits: float
    is_lower_bound: bool


def information_content_independent(pv: PropensityVector) -> InfoContent:
    """Sum of 1 - H(q_k) over the vector.

    A half tail contributes exactly zero, so the sum reduces to the finite
    prefix sum.  With an unspecified tail only the prefix partial sum is
    known, flagged as a lower bound.
    """
    total = math.fsum(1.0 - binary_entropy(q) for q in pv.prefix)
    return InfoContent(bits=total, is_lower_bound=pv.tail is TailPolicy.UNSPECIFIED)
