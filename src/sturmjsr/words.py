"""Balanced binary words, mechanical words, and rational parameters.

The mechanical word of a reduced rational p/q is the length-q word with
k-th letter floor((k+1)p/q) - floor(kp/q); it has exactly p ones, and its
cyclic rotations generate the periodic orbit whose invariant measure has
parameter p/q.  The module is word combinatorics only: it knows no matrix
pair, and the orbits themselves are dynamics.periodic_orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import DomainError, EmptyWord


@dataclass(frozen=True)
class RationalParameter:
    """Reduced fraction p/q with 0 <= p <= q, the frequency of symbol 1."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1 or not (0 <= self.p <= self.q):
            raise DomainError(f"parameter must satisfy 0 <= p <= q, q >= 1: {self.p}/{self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise DomainError(f"parameter must be in lowest terms: {self.p}/{self.q}")

    @classmethod
    def from_fraction(cls, x: Fraction) -> "RationalParameter":
        return cls(x.numerator, x.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class ParameterBracket:
    """Rational bracket around a parameter; exact is set when it collapsed."""

    lower: RationalParameter
    upper: RationalParameter
    exact: Optional[RationalParameter] = None

    def width(self) -> Fraction:
        return self.upper.as_fraction() - self.lower.as_fraction()


def mechanical_word(param: RationalParameter) -> str:
    """Lower mechanical word of slope p/q with intercept zero."""
    p, q = param.p, param.q
    return "".join(str((k + 1) * p // q - k * p // q) for k in range(q))


def stern_brocot_words(max_den: int) -> Iterator[tuple[int, int, str]]:
    """(p, q, mechanical word of p/q) for every reduced p/q in [0, 1], q <= max_den.

    In rising p/q order, which is also strictly increasing lexicographic
    order of the words.  A Stern-Brocot mediant's word is the word of its
    left parent followed by that of its right parent, so each word is one
    concatenation.  The descent is iterative, since the branch toward 0 is
    max_den levels deep: the stack holds the right ends of the intervals
    still open, and the last value yielded is the left end of the top one.
    """
    if max_den < 1:
        return
    lo = (0, 1, "0")
    stack = [(1, 1, "1")]
    yield lo
    while stack:
        hi = stack[-1]
        if lo[1] + hi[1] <= max_den:
            stack.append((lo[0] + hi[0], lo[1] + hi[1], lo[2] + hi[2]))
        else:
            lo = stack.pop()
            yield lo


def is_balanced(word: str) -> bool:
    """Whether the bi-infinite periodic extension of the word is balanced.

    Balanced means that for every length, the numbers of ones in any two
    factors of that length differ by at most one.  For a period-q word it
    suffices to check factor lengths below q.
    """
    if not word:
        raise EmptyWord("balance test needs a non-empty word")
    n = len(word)
    doubled = word + word
    ones = [0] * (2 * n + 1)
    for i, ch in enumerate(doubled):
        ones[i + 1] = ones[i] + (ch == "1")
    for length in range(1, n):
        counts = [ones[i + length] - ones[i] for i in range(n)]
        if max(counts) - min(counts) > 1:
            return False
    return True


def orbit_min_max(param: RationalParameter) -> tuple[str, str]:
    """Lexicographically least and greatest rotations of the mechanical word.

    The mechanical word is the lower Christoffel word 0u1 (or a single
    letter), the least of its rotations; u is a palindrome, so the reversal
    1u0 is the upper Christoffel word, the greatest.  See Berstel, Lauve,
    Reutenauer and Saliola, Combinatorics on Words: Christoffel Words and
    Repetitions in Words (2008).
    """
    word = mechanical_word(param)
    return word, word[::-1]


def farey_neighbors(x: Fraction, max_den: int) -> tuple[Fraction, Fraction]:
    """Best rational bounds of x in [0, 1] with denominator at most max_den.

    Returns (x, x) when x itself is representable at that resolution.
    """
    if not (0 <= x <= 1):
        raise DomainError(f"x = {x} outside [0, 1]")
    if max_den < 1:
        raise DomainError("max_den must be at least 1")
    if x.denominator <= max_den:
        return x, x
    lo, hi = Fraction(0), Fraction(1)
    while True:
        mediant = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        if mediant.denominator > max_den:
            return lo, hi
        if mediant < x:
            lo = mediant
        elif mediant > x:
            hi = mediant
        else:
            return mediant, mediant
