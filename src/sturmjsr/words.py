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
from functools import lru_cache
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


@lru_cache(maxsize=1024)
def mechanical_word(param: RationalParameter) -> str:
    """Lower mechanical word of slope p/q with intercept zero, kept for the last 1024 parameters."""
    p, q = param.p, param.q
    return "".join(str((k + 1) * p // q - k * p // q) for k in range(q))


def stern_brocot_words(max_den: int) -> Iterator[tuple[int, str]]:
    """(k, w) per reduced p/q in [0, 1] with q <= max_den: w its mechanical word.

    In rising p/q order, which is also strictly increasing lexicographic
    order of the words; p = w.count("1") and q = len(w).  k is the length of
    the prefix w shares with the word before it, 0 for the first.  A
    Stern-Brocot mediant's word is the word of its left parent followed by
    that of its right parent, so each word is one concatenation.  The
    descent is iterative, since the branch toward 0 is max_den levels deep:
    the stack holds the words of the right ends of the intervals still open,
    and the last word yielded is the left end of the top one.

    After a push, w is a mediant whose left parent is the word just yielded,
    so w starts with all of it and k is its length.  After a pop with no
    push, w = LR is the right end of the interval whose left end, the word
    just yielded, is the neighbour L(LR)^m of LR, m >= 1.  Past their common
    L, w goes on with R and the word before with LR.  For R = 0 u_R 1 that
    is 0 u_R 01 u_L 1, by the central-word identity u_L 10 u_R = u_R 01 u_L
    of the mediant (see Berstel, Lauve, Reutenauer and Saliola, Combinatorics
    on Words, 2008), or 0R = 0 u_R 01 when L = 0; for R = 1 it starts with 0.
    Either way the two share all of w but its last letter: k = len(w) - 1.
    """
    if max_den < 1:
        return
    lo, stack = "0", ["1"]
    yield 0, lo
    while stack:
        k = len(stack[-1]) - 1
        while len(lo) + len(stack[-1]) <= max_den:
            stack.append(lo + stack[-1])
            k = len(lo)
        lo = stack.pop()
        yield k, lo


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

    Returns (x, x) when x itself is representable at that resolution; a
    float cap N counts as floor(N).  Otherwise x = n/m with m > N, and the
    Stern-Brocot descent keeps lo = a/b < x < hi = c/d with c*b - a*d = 1, so
    the two ends are reduced Farey neighbours.  Each step moves one end by a
    whole run of equal moves: lo becomes lo + k*hi = (a + k*c)/(b + k*d) for
    the largest k with k*(c*m - n*d) < n*b - a*m (lo stays below x) and
    b + k*d <= N (its denominator stays within the cap), and hi moves the
    same way toward lo.  A move keeps c*b - a*d = 1, and the next mediant
    never equals x, whose denominator exceeds N.  The descent stops when the
    mediant's denominator b + d passes N, after one step per partial
    quotient of x, on ints alone.
    """
    if not (0 <= x <= 1):
        raise DomainError(f"x = {x} outside [0, 1]")
    if not max_den >= 1:
        raise DomainError("max_den must be at least 1")
    n, m = x.numerator, x.denominator
    if m <= max_den:
        return x, x
    cap = math.floor(max_den)
    a, b, c, d = 0, 1, 1, 1
    while b + d <= cap:
        k = min((n * b - a * m - 1) // (c * m - n * d), (cap - b) // d)  # 0 when the mediant > x
        a, b = a + k * c, b + k * d
        if b + d > cap:
            break
        k = min((c * m - n * d - 1) // (n * b - a * m), (cap - d) // b)
        c, d = c + k * a, d + k * b
    return Fraction(a, b), Fraction(c, d)
