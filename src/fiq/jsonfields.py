"""Field checks for JSON documents, as the schemas in docs/ state them."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .rational import parse_rational


def require_fields(data, what: str, *keys: str) -> None:
    """Reject a JSON document that is not an object or lacks one of ``keys``."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing required field {key!r}")


def reject_unknown_fields(data: Mapping, what: str, *allowed: str) -> None:
    """Reject a key of ``data`` that is not one of ``allowed``."""
    for key in data:
        if key not in allowed:
            raise ValueError(f"{what} has unknown field {key!r}")


def json_int(value, what: str) -> int:
    """``value`` as an int; a ValueError names ``what`` when it is not one.

    A boolean, a numeral string or a float with a fractional part is not an
    integer: it is rejected, not converted.
    """
    if isinstance(value, (bool, str)) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def json_float(value, what: str) -> float:
    """``value`` as a float; a ValueError names ``what`` when it is not a number (a boolean or a string)."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None


def json_rational(value, what: str) -> Fraction:
    """``value``, a "p/q" or "p" string, as a Fraction; a number is rejected, since 0.1 is not 1/10."""
    if not isinstance(value, str):
        raise ValueError(f'{what} must be a rational string such as "3/4", got {value!r}')
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None
