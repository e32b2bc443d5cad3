"""Membership tests for the matrix classes, the d2 family, and the scaled pair.

A positive orientation-preserving matrix is projectively concave when its
induced interval map is strictly concave, equivalently alpha > 0, rho > 0,
or w1 > w2 for the left Perron eigenvector (w1, w2); projectively convex
when all of those reverse (with rho < -1).  A concave-convex pair has A0
concave, A1 convex, and the induced image of A0 strictly left of that of
A1.  The Sturmian class additionally demands the strict cross inequalities
rho(A1) < sigma(A0) and sigma(A1) < rho(A0).

Every verdict is exact for every input, a float counting as the dyadic
rational it stores.  Each class test is invariant under scaling one member
by a positive number, so it is decided on the member's integer multiple:
comparisons against rho reduce to the sign of u + sqrt(g) - w with rational
u, g, w, which is decided without floating point.  The reported margins,
image gap and projective data are computed from the entries as given.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import DomainError, InconsistentEquivalences, NonPositiveScale
from .matrices import Matrix2, MatrixPair, ProjectiveData, gamma_squared, projective_data
from .scalar import Number, cmp_affine_surd, is_exact, sign


class MatrixConvexity(enum.Enum):
    PROJECTIVELY_CONCAVE = "ProjectivelyConcave"
    PROJECTIVELY_CONVEX = "ProjectivelyConvex"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class MatrixClassReport:
    positive: bool
    det_positive: bool
    convexity: MatrixConvexity
    witness: Optional[ProjectiveData]


@dataclass(frozen=True)
class PairClassReport:
    in_M2plus: bool
    in_C: bool
    in_D: bool
    image_gap: Optional[tuple[Number, Number]]
    inequality_margins: tuple[
        Optional[Number], Optional[Number], Optional[Number], Optional[Number]
    ]
    # The projective data of A0 and A1 for a class-C pair, kept for the
    # induced system; left out of repr, equality and the CLI output.
    witnesses: Optional[tuple[ProjectiveData, ProjectiveData]] = field(
        default=None, repr=False, compare=False
    )


def _alpha(M: Matrix2) -> Number:
    return M.a + M.c - M.b - M.d


def cmp_rho(A: Matrix2, s: Number) -> int:
    """Sign of rho(A) - s, exact for rational entries and s.

    rho = (sqrt(g) - beta) / (2 alpha), so the sign of rho - s equals the
    sign of sqrt(g) - (beta + 2 alpha s) times the sign of alpha.
    """
    alpha = _alpha(A)
    beta = A.a - A.d - 2 * A.b
    return cmp_affine_surd(0, gamma_squared(A), beta + 2 * alpha * s) * sign(alpha)


def _integer_multiple(A: Matrix2) -> Matrix2:
    """L*A with integer entries, L > 0 the lcm of the denominators of A's entries.

    int, Fraction and float entries all give their exact ratio, so the
    class tests decided on the multiple are exact for every input.
    """
    ratios = [x.as_integer_ratio() for x in A.entries()]
    lcm = math.lcm(*(q for _, q in ratios))
    return Matrix2(*(p * (lcm // q) for p, q in ratios))


def _witness(A: Matrix2, concave: bool) -> ProjectiveData:
    """projective_data(A), which must have the sign of alpha of the exact verdict."""
    data = projective_data(A)
    if (data.alpha > 0) != concave:
        raise DomainError(f"alpha of {A.entries()} rounds to {data.alpha}, against its exact sign")
    return data


def classify_matrix(A: Matrix2) -> MatrixClassReport:
    """Classify one matrix, cross-checking the four equivalent criteria.

    The criteria (sign of alpha, sign of rho, ordering of the left Perron
    eigenvector entries, sign of the second difference of the induced map)
    are evaluated independently and exactly, on the integer multiple of A,
    so InconsistentEquivalences signals a defect.  The witness is the
    projective data of A as given.  Where float rounding leaves A without
    it, or with the wrong sign of alpha, this raises: NonPositiveMatrix when
    the rounded determinant is not positive, DomainError otherwise.
    """
    M = _integer_multiple(A)
    positive = M.is_positive()
    det_positive = M.det() > 0
    alpha = _alpha(M)
    if not (positive and det_positive) or alpha == 0:
        # alpha = 0: affine induced map, neither strictly concave nor convex.
        return MatrixClassReport(positive, det_positive, MatrixConvexity.NOT_APPLICABLE, None)

    a, b, c, d = M.entries()
    concave_by_alpha = alpha > 0
    concave_by_rho = cmp_rho(M, 0) > 0
    # Left eigenvector is (a - d + gamma, 2b); compare its two entries.
    concave_by_w = cmp_affine_surd(a - d, gamma_squared(M), 2 * b) > 0
    # Second difference of the induced map T at 0, 1/2, 1; negative iff concave.
    zero, half, one = Fraction(0), Fraction(1, 2), Fraction(1)
    concave_by_shape = M.moebius(zero) - 2 * M.moebius(half) + M.moebius(one) < 0

    votes = (concave_by_alpha, concave_by_rho, concave_by_w, concave_by_shape)
    if len(set(votes)) != 1:
        raise InconsistentEquivalences(
            f"convexity criteria disagree for {A.entries()}: "
            f"alpha>0={votes[0]} rho>0={votes[1]} w1>w2={votes[2]} concave-shape={votes[3]}"
        )
    convexity = (
        MatrixConvexity.PROJECTIVELY_CONCAVE
        if concave_by_alpha
        else MatrixConvexity.PROJECTIVELY_CONVEX
    )
    return MatrixClassReport(positive, det_positive, convexity, _witness(A, concave_by_alpha))


def pair_report(pair: MatrixPair) -> PairClassReport:
    """Full class report for a pair, decided exactly on the members' integer multiples.

    The margins, the image gap and the witnesses come from the entries as
    given.  For a class-C pair they must agree with the exact verdicts: a
    member raises as in classify_matrix, and DomainError is raised when the
    rounded image intervals meet, or, in class D, a rounded cross margin is
    not negative.
    """
    A0, A1 = pair.A0, pair.A1
    M0, M1 = _integer_multiple(A0), _integer_multiple(A1)
    in_m2plus = all(M.is_positive() and M.det() > 0 for M in (M0, M1))

    gap_margin: Optional[Number] = None
    image_gap: Optional[tuple[Number, Number]] = None
    alpha_margin: Optional[Number] = None
    d1_margin: Optional[Number] = None
    d2_margin: Optional[Number] = None
    in_c = False
    in_d = False
    witnesses = None

    if in_m2plus:
        image_gap = (A0.a / (A0.a + A0.c), A1.b / (A1.b + A1.d))
        gap_margin = A1.b / A1.d - A0.a / A0.c
        alpha_margin = min(_alpha(A0), -_alpha(A1))
        # The gap margin is positive iff b1 c0 > a0 d1.
        in_c = _alpha(M0) > 0 and _alpha(M1) < 0 and M1.b * M0.c > M0.a * M1.d
    if in_c:
        d0, d1 = _witness(A0, True), _witness(A1, False)
        witnesses = (d0, d1)
        d1_margin = d1.rho - d0.sigma  # negative inside the Sturmian class
        d2_margin = d1.sigma - d0.rho  # negative inside the Sturmian class
        # sigma = (b - a) / alpha, like rho, is invariant under scaling.
        sigma0 = Fraction(M0.b - M0.a, _alpha(M0))
        sigma1 = Fraction(M1.b - M1.a, _alpha(M1))
        in_d = cmp_rho(M1, sigma0) < 0 and cmp_rho(M0, sigma1) > 0
        # The induced system takes its branches and scalars from the entries
        # as given, so they must agree with the exact verdicts.
        if not image_gap[0] < image_gap[1] or (in_d and not (d1_margin < 0 and d2_margin < 0)):
            raise DomainError(
                f"rounding contradicts the exact class verdict: image gap {image_gap}, "
                f"margins {(gap_margin, alpha_margin, d1_margin, d2_margin)}"
            )

    return PairClassReport(
        in_M2plus=in_m2plus,
        in_C=in_c,
        in_D=in_d,
        image_gap=image_gap,
        inequality_margins=(gap_margin, alpha_margin, d1_margin, d2_margin),
        witnesses=witnesses,
    )


def d2_pair(b: Number, c: Number) -> MatrixPair:
    """Two-parameter family ((1,b;c,1),(1,c;b,1)).

    Membership in the Sturmian class corresponds to bc < 1 < c, but the
    constructor deliberately accepts any positive b, c so boundary and
    exterior pairs can be built.
    """
    if not b > 0 or not c > 0:
        raise NonPositiveScale(f"b and c must be positive, got b={b} c={c}")
    one = Fraction(1) if is_exact(b, c) else 1.0
    return MatrixPair(Matrix2(one, b, c, one), Matrix2(one, c, b, one))


def scale_pair(pair: MatrixPair, t: Number) -> MatrixPair:
    """The scaled pair (A0, t*A1)."""
    if not t > 0:
        raise NonPositiveScale(f"t must be positive, got {t}")
    return MatrixPair(pair.A0, pair.A1.scaled(t))
