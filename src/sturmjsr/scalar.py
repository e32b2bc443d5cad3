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
REL_TOL = 1e-9
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


def close(a: Number, b: Number, rel: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    """Equality on the exact path, tolerance comparison on the float path."""
    if is_exact(a, b):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


def strictly_positive(x: Number, tol: float = ABS_TOL) -> bool:
    """Strict positivity; float margins must exceed the tolerance."""
    if is_exact(x):
        return x > 0
    return float(x) > tol


def strictly_negative(x: Number, tol: float = ABS_TOL) -> bool:
    if is_exact(x):
        return x < 0
    return float(x) < -tol


def parse_scalar(text: str) -> Number:
    """Parse a CLI/file scalar: 'p/q' or an integer parse exactly, decimals as float."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        return Fraction(int(num), int(den))
    try:
        return Fraction(int(s))
    except ValueError:
        return float(s)


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
