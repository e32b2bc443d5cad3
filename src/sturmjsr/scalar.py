"""Numeric policy shared by the exact-rational and floating paths.

Scalars are plain Python numbers: ``int`` and ``Fraction`` form the exact
path (bit-identical across runs), ``float`` the approximate one.  Arithmetic
on mixed inputs falls through to floats automatically; the helpers here
supply the pieces that need care, namely square roots, sign decisions on
expressions containing one square root, and tolerance-aware comparisons.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]

EXACT_TYPES = (int, Fraction)

# Default comparison policy on the float path.
ABS_TOL = 1e-12


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


def sign(x: Number) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def cmp_affine_surd(u: Number, v: Number, g: Number, w: Number) -> int:
    """Sign of (u + v*sqrt(g)) - w, exact when all arguments are rational.

    Requires g >= 0.  On the float path the expression is evaluated directly
    and its sign taken with the default absolute tolerance.
    """
    if not is_exact(u, v, g, w):
        val = float(u) + float(v) * math.sqrt(float(g)) - float(w)
        if abs(val) <= ABS_TOL:
            return 0
        return sign(val)
    r = w - u
    if v == 0:
        return -sign(r)
    if v > 0:
        if r < 0:
            return 1
        return sign(v * v * g - r * r)
    if r > 0:
        return -1
    return sign(r * r - v * v * g)


def strictly_positive(x: Number) -> bool:
    """Strict positivity; float margins must exceed ABS_TOL."""
    if is_exact(x):
        return x > 0
    return float(x) > ABS_TOL


def strictly_negative(x: Number) -> bool:
    if is_exact(x):
        return x < 0
    return float(x) < -ABS_TOL


def parse_scalar(text: str) -> Number:
    """Parse a CLI/file scalar: 'p/q' or an integer parse exactly, decimals as float.

    A zero denominator or a non-finite value (inf, nan, 1e400) is a ValueError.
    """
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    try:
        return Fraction(int(s))
    except ValueError:
        x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {text!r}")
    return x


def format_scalar(x: Number) -> str | int | float:
    """JSON-friendly rendering: exact values as 'p/q' strings or ints, floats as-is."""
    if isinstance(x, bool):
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    return float(x)
