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

The system belongs to the pair: its branch images, its class report, the
float branch constants that the certificate reads, and the thresholds

    t_i = rho_i (a0 + rho_i (a0 + c0)) / ((1 + rho_i)(b1 + rho_i (b1 + d1)))
        = ((a0 + c0) / (b1 + d1)) exp(-Delta_i),

Delta_i the matching functional of the extremal interval X_i; the scaled
pair is dominated by A0 for t <= t0 and by t*A1 for t >= t1.  The scale t
enters only the potential, so the functions of the scaled pair take it.

Each pair is classified once per process: a bounded cache keeps the systems
of the last PAIR_CACHE_SIZE pairs, keyed on the type and value of each entry
(Fraction(1, 2) == 0.5 and 1 == Fraction(1), but their systems differ).  A
call that raises leaves nothing in the cache.

T_A and S_A are Matrix2.moebius and moebius_inverse.  class_d_system is the
one check of the Sturmian class D, shared by every call that needs it; it and
induced_system check the class first, then each scale they are given.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .classify import PairClassReport, pair_report
from .errors import ClosedFormMismatch, DomainError, EmptyWord, NotInClassC, NotInClassD
from .matrices import (
    Matrix2,
    MatrixPair,
    ProjectiveData,
    fixed_point,
    word_product,
)
from .scalar import Number, check_scale, is_exact

# Interval membership on the float path inflates endpoints by this much so
# endpoint orbits classify stably.
MEMBER_TOL = 1e-12
# Pairs whose class report and system the process keeps.
PAIR_CACHE_SIZE = 64


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


class Domination(enum.Enum):
    A0_DOMINATES = "A0Dominates"
    A1_DOMINATES = "A1Dominates"
    INTERIOR = "Interior"


@dataclass(frozen=True)
class ThresholdPair:
    """Thresholds t0 < t1 and the one rule that splits the scales by them.

    regime(t) is exact: t <= t0 and t >= t1 are domination, the rest interior.
    inside is the rule on floats, computed once: the first and last float in it.
    """

    t0: Number
    t1: Number

    def regime(self, t: Number) -> Domination:
        if t <= self.t0:
            return Domination.A0_DOMINATES
        return Domination.A1_DOMINATES if t >= self.t1 else Domination.INTERIOR

    @cached_property
    def inside(self) -> tuple[float, float]:
        lo, hi = float(self.t0), float(self.t1)
        lo = lo if lo > self.t0 else math.nextafter(lo, math.inf)
        return lo, (hi if hi < self.t1 else math.nextafter(hi, 0.0))


@dataclass(frozen=True)
class InducedSystem:
    """A concave-convex pair with its branch images, projective data, and class report.

    Nothing here depends on the scale t; the properties below are computed
    on first read and kept.
    """

    pair: MatrixPair
    X0: Interval
    X1: Interval
    proj0: ProjectiveData
    proj1: ProjectiveData
    report: PairClassReport

    @cached_property
    def thresholds(self) -> ThresholdPair:
        """The thresholds of the pair.

        Both closed forms (direct rational function of rho, and endpoint ratio
        divided by the exponential of the matching functional) are computed and
        must agree; the direct form is returned and stays exact on the rational
        path whenever the discriminant square roots are rational.
        """
        a0, c0 = self.pair.A0.a, self.pair.A0.c
        b1, d1 = self.pair.A1.b, self.pair.A1.d
        out = []
        for i, rho in enumerate((self.proj0.rho, self.proj1.rho)):
            ti = (rho * (a0 + rho * (a0 + c0))) / ((1 + rho) * (b1 + rho * (b1 + d1)))
            alt = (a0 + c0) / ((b1 + d1) * delta_extremal_ratio(self, i))
            if is_exact(ti, alt) and ti != alt:
                raise ClosedFormMismatch(f"threshold closed forms differ exactly: {ti} vs {alt}")
            if not is_exact(ti, alt) and not math.isclose(float(ti), float(alt), rel_tol=1e-12):
                raise ClosedFormMismatch(f"threshold closed forms differ: {ti} vs {alt}")
            out.append(ti)
        t0, t1 = out
        if not float(t0) < float(t1):
            raise ClosedFormMismatch(f"thresholds out of order: t0 = {t0}, t1 = {t1}")
        return ThresholdPair(t0=t0, t1=t1)

    @cached_property
    def branch_floats(self) -> tuple[tuple, tuple]:
        """Float constants of both branches, read by the grid pass and the series sweep.

        Branch i is (lo, hi, tau, alpha, sigma, bd, b, a, det): X_i widened by
        MEMBER_TOL; the series factor tau = (a - b, b, alpha, b + d) of the
        float entries; alpha and sigma of the projective data; b + d, b, a and
        det A_i.  Each is one subexpression of apply_T or f_eval that contains
        neither x nor t, rounded once.
        """
        out = []
        for A, pr, X in ((self.pair.A0, self.proj0, self.X0), (self.pair.A1, self.proj1, self.X1)):
            a, b, cc, d = (float(v) for v in A.entries())
            out.append((
                float(X.lo) - MEMBER_TOL,
                float(X.hi) + MEMBER_TOL,
                (a - b, b, a + cc - b - d, b + d),
                float(pr.alpha),
                float(pr.sigma),
                float(A.b + A.d),
                float(A.b),
                float(A.a),
                float(A.det()),
            ))
        return tuple(out)

    @cached_property
    def f_prime_sup(self) -> float:
        """Supremum of |f'| = 1/|x + sigma_i| over the branch intervals.

        On X0 the factor x + sigma0 is negative and closest to zero at the right
        endpoint; on X1 it is positive and smallest at the left endpoint.
        """
        s0 = abs(float(self.X0.hi + self.proj0.sigma))
        s1 = abs(float(self.X1.lo + self.proj1.sigma))
        return max(1.0 / s0, 1.0 / s1)


@dataclass(frozen=True)
class SturmianIntervalSpec:
    """Two-piece geometry of the Sturmian interval with image coordinate c.

    The degenerate singleton piece at c = 0 or c = 1 is dropped, identifying
    the extremal intervals with X0 and X1 respectively.
    """

    c: Number
    piece0: Optional[Interval]
    piece1: Optional[Interval]


def delta_extremal_ratio(sys: InducedSystem, i: int) -> Number:
    """The ratio inside the log of the extremal matching functional, exact-friendly."""
    rho = sys.proj0.rho if i == 0 else sys.proj1.rho
    return ((1 + rho) * (sys.X1.lo + rho)) / (rho * (sys.X0.hi + rho))


def induced_image(A: Matrix2) -> Interval:
    """X_A = [b/(b+d), a/(a+c)]."""
    a, b, c, d = A.entries()
    return Interval(b / (b + d), a / (a + c))


def induced_system(pair: MatrixPair, *scales: Number) -> InducedSystem:
    """The two-branch system of the pair; the class is checked first, then each scale.

    A pair outside class C raises NotInClassC, a bad scale check_scale's error.
    """
    report, sys = classified(pair)
    if sys is None:
        raise NotInClassC(f"pair is not concave-convex: margins {report.inequality_margins}")
    for t in scales:
        check_scale(t)
    return sys


def class_d_system(pair: MatrixPair, *scales: Number) -> InducedSystem:
    """induced_system for a pair in class D; one outside it raises NotInClassD."""
    sys = induced_system(pair)
    if not sys.report.in_D:
        raise NotInClassD("the pair fails the strict cross inequalities of the Sturmian class")
    for t in scales:
        check_scale(t)
    return sys


def classified(pair: MatrixPair) -> tuple[PairClassReport, Optional[InducedSystem]]:
    """The pair's class report and, for a pair in class C, its cached system."""
    return _classify_once(tuple((type(x), x) for x in pair.A0.entries() + pair.A1.entries()))


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _classify_once(key: tuple) -> tuple[PairClassReport, Optional[InducedSystem]]:
    """classified for the pair whose entries are the values of key, of its types."""
    values = [x for _, x in key]
    pair = MatrixPair(Matrix2(*values[:4]), Matrix2(*values[4:]))
    report = pair_report(pair)
    if not report.in_C:
        return report, None
    proj0, proj1 = report.witnesses
    return report, InducedSystem(
        pair=pair,
        X0=induced_image(pair.A0),
        X1=induced_image(pair.A1),
        proj0=proj0,
        proj1=proj1,
        report=report,
    )


def branch_of(sys: InducedSystem, x: Number) -> Optional[int]:
    """0 or 1 for the branch interval containing x, None in the gap or outside."""
    if sys.X0.contains(x):
        return 0
    if sys.X1.contains(x):
        return 1
    return None


def f_eval(sys: InducedSystem, x: Number, t: Number) -> float:
    """Induced function of the pair scaled by t at x in X0 u X1.

    On the X0 branch this is log(det A0 / (-alpha0 (x + sigma0))); on the X1
    branch the same formula for A1 plus log t.
    """
    check_scale(t)
    i = branch_of(sys, x)
    if i is None:
        raise DomainError(f"x = {x} lies in the gap or outside [0, 1]")
    A = sys.pair.A0 if i == 0 else sys.pair.A1
    proj = sys.proj0 if i == 0 else sys.proj1
    ratio = A.det() / (-proj.alpha * (x + proj.sigma))
    val = math.log(float(ratio))
    if i == 1:
        val += math.log(float(t))
    return val


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
