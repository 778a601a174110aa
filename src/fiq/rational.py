"""Parsing and formatting of exact rationals as "p/q" strings."""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidRationalError


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a plain integer "p") into an exact Fraction: only "-", ASCII digits and one "/" are read."""
    try:
        if re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
            return Fraction(text)
    except ZeroDivisionError:
        raise InvalidRationalError(f"zero denominator in rational {text!r}") from None
    except ValueError:  # more digits than int() reads
        pass
    raise InvalidRationalError(f"malformed rational {text!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q" (integers stay bare, e.g. "3")."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
