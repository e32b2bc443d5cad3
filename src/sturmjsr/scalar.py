"""Scalars and the helpers that need care with them.

Scalars are plain Python numbers: ``int`` and ``Fraction`` form the exact
path (bit-identical across runs), ``float`` the approximate one.  Arithmetic
on mixed inputs falls through to floats automatically; the helpers here
supply the pieces that need care, namely square roots, exact sign decisions
on expressions containing one square root, the scale check, and parsing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import DomainError, NonPositiveScale

Number = Union[int, float, Fraction]

EXACT_TYPES = (int, Fraction)


def is_exact(*values: Number) -> bool:
    """True when every value is an int or a Fraction."""
    return all(isinstance(v, EXACT_TYPES) for v in values)


def exact_sqrt(x: Fraction) -> Fraction | None:
    """Square root of a non-negative rational, or None if it is irrational."""
    if x < 0:
        raise ValueError("negative radicand")
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def sqrt_number(x: Number) -> Number:
    """Exact square root when the input is a perfect rational square, float otherwise."""
    # Floats first: the Fraction check goes through ABCMeta and costs several
    # times the square root itself.
    if isinstance(x, float) or not isinstance(x, EXACT_TYPES):
        return math.sqrt(x)
    root = exact_sqrt(Fraction(x))
    if root is not None:
        return root
    return math.sqrt(x)


def check_scale(t: Number) -> None:
    """A scale is positive with a finite, positive float.

    NonPositiveScale for t <= 0 or NaN; DomainError for inf and for an exact
    t whose float overflows or underflows to 0.
    """
    if not t > 0:
        raise NonPositiveScale(f"t must be positive, got {t}")
    if not 0 < float_or_inf(t) < math.inf:
        raise DomainError("t must be finite, and its float finite and positive")


def float_or_inf(x: Number) -> float:
    """float(x), or inf where an exact x overflows a float."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def sign(x: Number) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def cmp_affine_surd(u: Number, g: Number, w: Number) -> int:
    """Sign of (u + sqrt(g)) - w, exact for rational u, g, w with g >= 0."""
    r = w - u
    if r < 0:
        return 1
    return sign(g - r * r)


def parse_exact(text: str) -> Fraction:
    """An integer or 'p/q' literal as an exact value.

    A malformed literal, a zero denominator, or a value whose float is
    infinite, or 0 while the value is not, is a ValueError.
    """
    num, slash, den = text.partition("/")
    q = int(den) if slash else 1
    if q == 0:
        raise ValueError(f"zero denominator in {text!r}")
    x = Fraction(int(num), q)
    f = float_or_inf(x)
    if math.isinf(f) or (f == 0 and x != 0):
        raise ValueError("exact value does not fit a float")
    return x


def parse_scalar(text: str) -> Number:
    """A CLI scalar: parse_exact's literals exactly, finite decimals as float, else a ValueError."""
    if "/" not in text:
        try:
            int(text)
        except ValueError:
            x = float(text)
            if not math.isfinite(x):
                raise ValueError(f"not a finite number: {text!r}") from None
            return x
    return parse_exact(text)


def format_scalar(x: int | Fraction) -> int | str:
    """JSON-friendly rendering of an exact value: an int, or a 'p/q' string."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"
