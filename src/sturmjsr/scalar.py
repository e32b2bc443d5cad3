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


def cmp_affine_surd(u: Number, g: Number, w: Number) -> int:
    """Sign of (u + sqrt(g)) - w, exact when all arguments are rational.

    Requires g >= 0.  On the float path the expression is evaluated directly
    and its sign taken with the default absolute tolerance.
    """
    if not is_exact(u, g, w):
        val = float(u) + math.sqrt(float(g)) - float(w)
        if abs(val) <= ABS_TOL:
            return 0
        return sign(val)
    r = w - u
    if r < 0:
        return 1
    return sign(g - r * r)


def strictly_positive(x: Number) -> bool:
    """Strict positivity; float margins must exceed ABS_TOL."""
    if is_exact(x):
        return x > 0
    return float(x) > ABS_TOL


def strictly_negative(x: Number) -> bool:
    if is_exact(x):
        return x < 0
    return float(x) < -ABS_TOL


def require_float_range(x: Fraction) -> Fraction:
    """x itself, or a ValueError when its float is infinite, or 0 while x is not."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if math.isinf(f) or (f == 0 and x != 0):
        raise ValueError("exact value does not fit a float")
    return x


def parse_scalar(text: str) -> Number:
    """Parse a CLI/file scalar: 'p/q' or an integer parse exactly, decimals as float.

    A zero denominator, a non-finite value (inf, nan, 1e400) or an exact value
    that does not fit a float is a ValueError.
    """
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return require_float_range(Fraction(int(num), int(den)))
    try:
        exact = Fraction(int(s))
    except ValueError:
        x = float(s)
        if not math.isfinite(x):
            raise ValueError(f"not a finite number: {text!r}") from None
        return x
    return require_float_range(exact)


def format_scalar(x: int | Fraction) -> int | str:
    """JSON-friendly rendering of an exact value: an int, or a 'p/q' string."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"
