"""Induced interval dynamics of a concave-convex matrix pair.

A positive matrix A acts on the projective line, coordinatized on [0, 1], by
the Moebius map T_A(x) = ((a-b)x + b) / (alpha x + b + d) with image
X_A = [b/(b+d), a/(a+c)] and inverse S_A.  For a concave-convex pair the two
inverses assemble into the expanding two-branch map of the system,

    T(x) = S_{A0}(x) on X0,   T(x) = S_{A1}(x) on X1,

whose invariant measures carry the optimization: the scaled pair's induced
function is f(x) = log(det A_i / (-alpha_i (x + sigma_i))) plus log t on the
X1 branch, and the top ergodic average of f equals the log of the joint
spectral radius.

Sturmian intervals are parametrized by their common image point c in [0, 1]:
the interval with coordinate c is [T_{A0}(c), T_{A0}(1)] u [T_{A1}(0),
T_{A1}(c)], and its hybrid contraction applies the symbol-1 branch left of c
and the symbol-0 branch from c on.

T_A and S_A are Matrix2.moebius and moebius_inverse.  class_d_system is the
one check of the Sturmian class D, shared by every call that needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .classify import PairClassReport, pair_report
from .errors import DomainError, EmptyWord, NonPositiveScale, NotInClassC, NotInClassD
from .matrices import (
    Matrix2,
    MatrixPair,
    ProjectiveData,
    fixed_point,
    projective_data,
    word_product,
)
from .scalar import Number

# Interval membership on the float path inflates endpoints by this much so
# endpoint orbits classify stably.
MEMBER_TOL = 1e-12


@dataclass(frozen=True)
class Interval:
    """Closed subinterval of [0, 1]."""

    lo: Number
    hi: Number

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi <= 1):
            raise DomainError(f"not a subinterval of [0,1]: [{self.lo}, {self.hi}]")

    def contains(self, x: Number) -> bool:
        return float(self.lo) - MEMBER_TOL <= float(x) <= float(self.hi) + MEMBER_TOL

    def grid(self, n: int) -> list[float]:
        lo, hi = float(self.lo), float(self.hi)
        if n == 1:
            return [(lo + hi) / 2]
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


@dataclass(frozen=True)
class InducedSystem:
    """A concave-convex pair with its scale, branch images, projective data, and class report."""

    pair: MatrixPair
    t: Number
    X0: Interval
    X1: Interval
    proj0: ProjectiveData
    proj1: ProjectiveData
    report: PairClassReport

    def __post_init__(self):
        if not self.t > 0:
            raise NonPositiveScale(f"t must be positive, got {self.t}")


@dataclass(frozen=True)
class SturmianIntervalSpec:
    """Two-piece geometry of the Sturmian interval with image coordinate c.

    The degenerate singleton piece at c = 0 or c = 1 is dropped, identifying
    the extremal intervals with X0 and X1 respectively.
    """

    c: Number
    piece0: Optional[Interval]
    piece1: Optional[Interval]


def induced_image(A: Matrix2) -> Interval:
    """X_A = [b/(b+d), a/(a+c)]."""
    a, b, c, d = A.entries()
    return Interval(b / (b + d), a / (a + c))


def induced_system(pair: MatrixPair, t: Number = 1) -> InducedSystem:
    """Build the two-branch system; identical for every positive t.

    The one class check of a public call, made before the scale check;
    callers that need class D build the system with class_d_system.
    """
    return _system_of_report(pair, pair_report(pair), t)


def class_d_system(pair: MatrixPair, t: Number) -> InducedSystem:
    """induced_system, but a pair outside class D raises NotInClassD before t is checked."""
    sys = induced_system(pair)
    if not sys.report.in_D:
        raise NotInClassD("the pair fails the strict cross inequalities of the Sturmian class")
    return replace(sys, t=t)


def _system_of_report(pair: MatrixPair, report: PairClassReport, t: Number) -> InducedSystem:
    """induced_system for a caller that already holds the pair's class report."""
    if not report.in_C:
        raise NotInClassC(f"pair is not concave-convex: margins {report.inequality_margins}")
    return InducedSystem(
        pair=pair,
        t=t,
        X0=induced_image(pair.A0),
        X1=induced_image(pair.A1),
        proj0=projective_data(pair.A0),
        proj1=projective_data(pair.A1),
        report=report,
    )


def branch_of(sys: InducedSystem, x: Number) -> Optional[int]:
    """0 or 1 for the branch interval containing x, None in the gap or outside."""
    if sys.X0.contains(x):
        return 0
    if sys.X1.contains(x):
        return 1
    return None


def f_eval(sys: InducedSystem, x: Number) -> float:
    """Induced function of the scaled pair at x in X0 u X1.

    On the X0 branch this is log(det A0 / (-alpha0 (x + sigma0))); on the X1
    branch the same formula for A1 plus log t.
    """
    i = branch_of(sys, x)
    if i is None:
        raise DomainError(f"x = {x} lies in the gap or outside [0, 1]")
    A = sys.pair.A0 if i == 0 else sys.pair.A1
    proj = sys.proj0 if i == 0 else sys.proj1
    ratio = A.det() / (-proj.alpha * (x + proj.sigma))
    val = math.log(float(ratio))
    if i == 1:
        val += math.log(float(sys.t))
    return val


def f_prime_sup(sys: InducedSystem) -> float:
    """Supremum of |f'| = 1/|x + sigma_i| over the branch intervals.

    On X0 the factor x + sigma0 is negative and closest to zero at the right
    endpoint; on X1 it is positive and smallest at the left endpoint.
    """
    s0 = abs(float(sys.X0.hi + sys.proj0.sigma))
    s1 = abs(float(sys.X1.lo + sys.proj1.sigma))
    return max(1.0 / s0, 1.0 / s1)


def apply_T(sys: InducedSystem, x: Number) -> Number:
    """One step of the expanding two-branch map."""
    i = branch_of(sys, x)
    if i is None:
        raise DomainError(f"x = {x} has no branch")
    A = sys.pair.A0 if i == 0 else sys.pair.A1
    return A.moebius_inverse(x)


def contraction_eval(sys: InducedSystem, i: int, x: Number) -> Number:
    """The contracting branch T_{A_i} evaluated at x in [0, 1]."""
    A = sys.pair.A0 if i == 0 else sys.pair.A1
    return A.moebius(x)


def periodic_point(sys: InducedSystem, word: str) -> float:
    """Fixed point of the composed contraction T_{A_{w1}} o ... o T_{A_{wn}}.

    It is the attracting fixed point of the product A(word), read off the
    normalized float product by matrices.fixed_point, and it lies within
    periodic_point_budget(len(word)) of the true point.
    """
    if not word:
        raise EmptyWord("periodic point needs a non-empty word")
    prod, _ = word_product(sys.pair, 1.0, word)
    return float(fixed_point(prod))


def periodic_point_budget(n: int) -> float:
    """Rounding budget 4 (n + 1) u of periodic_point for n letters, u = 2^-53.

    Each letter perturbs every entry of the positive product by a relative
    3u at most (a sum of two positive terms, then the normalizing scale),
    and the float copy of the pair adds u per factor.  Nothing cancels, so
    the product is within a relative eps = 4nu entrywise.  Its Perron
    direction, the fixed point, moves by eps / (2 (1 - tau)) at most, tau
    being Birkhoff's contraction ratio of the product, which falls
    geometrically in n; the closed form adds a few u.  Against 60-digit
    mpmath, rotated mechanical words with n <= 320 err by 0.63 n u at most.
    """
    return 4 * (n + 1) * 2.0**-53


def periodic_orbit(sys: InducedSystem, word: str) -> list[float]:
    """The n points of the periodic orbit of the word, n = len(word).

    Point k is the periodic point of the rotation word[k:] + word[:k].  The
    orbit is walked backwards from the periodic point of the word: the
    contraction of letter k - 1 sends point k to point k - 1, and
    contractions shrink the error that the expanding map would amplify.
    """
    x = periodic_point(sys, word)
    back = [x]
    for ch in word[:0:-1]:
        x = float(contraction_eval(sys, int(ch), x))
        back.append(x)
    return back[:1] + back[:0:-1]


def sturmian_interval_endpoints(sys: InducedSystem, c: Number) -> SturmianIntervalSpec:
    """Both pieces of the Sturmian interval with image coordinate c."""
    if not (0 <= float(c) <= 1):
        raise DomainError(f"c = {c} outside [0, 1]")
    piece0 = None if float(c) == 1.0 else Interval(contraction_eval(sys, 0, c), sys.X0.hi)
    piece1 = None if float(c) == 0.0 else Interval(sys.X1.lo, contraction_eval(sys, 1, c))
    return SturmianIntervalSpec(c=c, piece0=piece0, piece1=piece1)
