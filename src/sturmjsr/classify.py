"""Membership tests for the matrix classes, the d2 family, and the scaled pair.

A positive orientation-preserving matrix is projectively concave when its
induced interval map is strictly concave, equivalently alpha > 0, rho > 0,
or w1 > w2 for the left Perron eigenvector (w1, w2); projectively convex
when all of those reverse (with rho < -1).  A concave-convex pair has A0
concave, A1 convex, and the induced image of A0 strictly left of that of
A1.  The Sturmian class additionally demands the strict cross inequalities
rho(A1) < sigma(A0) and sigma(A1) < rho(A0).

Decisions run on the exact rational path whenever the entries are rational:
comparisons against rho reduce to the sign of v*sqrt(g) - w with rational
v, g, w, which is decided without floating point.  Float inputs decide with
a strict margin beyond the default absolute tolerance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InconsistentEquivalences, NonPositiveScale
from .matrices import Matrix2, MatrixPair, ProjectiveData, gamma_squared, projective_data
from .scalar import (
    ABS_TOL,
    Number,
    cmp_affine_surd,
    is_exact,
    sign,
    strictly_negative,
    strictly_positive,
)


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


def cmp_rho(A: Matrix2, s: Number) -> int:
    """Sign of rho(A) - s, exact for rational entries.

    rho = (sqrt(g) - beta) / (2 alpha), so the sign of rho - s equals the
    sign of sqrt(g) - (beta + 2 alpha s) times the sign of alpha.
    """
    a, b, c, d = A.entries()
    alpha = a + c - b - d
    beta = a - d - 2 * b
    g = gamma_squared(A)
    return cmp_affine_surd(0, 1, g, beta + 2 * alpha * s) * sign(alpha)


def _is_m2plus(A: Matrix2) -> bool:
    entries_pos = all(strictly_positive(x) for x in A.entries())
    return entries_pos and strictly_positive(A.det())


def classify_matrix(A: Matrix2) -> MatrixClassReport:
    """Classify one matrix, cross-checking the four equivalent criteria.

    The criteria (sign of alpha, sign of rho, ordering of the left Perron
    eigenvector entries, sign of the second difference of the induced map)
    are evaluated independently; disagreement raises
    InconsistentEquivalences, which is impossible on the exact path.
    """
    positive = all(strictly_positive(x) for x in A.entries())
    det_positive = strictly_positive(A.det())
    if not (positive and det_positive):
        return MatrixClassReport(positive, det_positive, MatrixConvexity.NOT_APPLICABLE, None)

    a, b, c, d = A.entries()
    alpha = a + c - b - d
    if is_exact(alpha):
        alpha_sign = sign(alpha)
    else:
        alpha_sign = 0 if abs(float(alpha)) <= ABS_TOL else sign(alpha)
    if alpha_sign == 0:
        # Affine induced map: neither strictly concave nor strictly convex.
        return MatrixClassReport(positive, det_positive, MatrixConvexity.NOT_APPLICABLE, None)

    concave_by_alpha = alpha_sign > 0
    concave_by_rho = cmp_rho(A, 0) > 0
    # Left eigenvector is (a - d + gamma, 2b); compare its two entries.
    concave_by_w = cmp_affine_surd(a - d, 1, gamma_squared(A), 2 * b) > 0
    # Second difference of the induced map T at 0, 1/2, 1; negative iff concave.
    half = Fraction(1, 2) if A.is_exact() else 0.5
    second_diff = A.moebius(0) - 2 * A.moebius(half) + A.moebius(1)
    concave_by_shape = strictly_negative(second_diff)

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
    return MatrixClassReport(positive, det_positive, convexity, projective_data(A))


def pair_report(pair: MatrixPair) -> PairClassReport:
    """Full class report for a pair; never raises."""
    A0, A1 = pair.A0, pair.A1
    in_m2plus = _is_m2plus(A0) and _is_m2plus(A1)

    gap_margin: Optional[Number] = None
    image_gap: Optional[tuple[Number, Number]] = None
    alpha_margin: Optional[Number] = None
    d1_margin: Optional[Number] = None
    d2_margin: Optional[Number] = None
    in_c = False
    in_d = False

    alpha0 = A0.a + A0.c - A0.b - A0.d
    alpha1 = A1.a + A1.c - A1.b - A1.d
    if in_m2plus:
        image_gap = (A0.a / (A0.a + A0.c), A1.b / (A1.b + A1.d))
        gap_margin = A1.b / A1.d - A0.a / A0.c
        alpha_margin = min(alpha0, -alpha1)
        in_c = (
            strictly_positive(alpha0)
            and strictly_negative(alpha1)
            and strictly_positive(gap_margin)
        )
    if in_c:
        d0 = projective_data(A0)
        d1 = projective_data(A1)
        d1_margin = d1.rho - d0.sigma  # negative inside the Sturmian class
        d2_margin = d1.sigma - d0.rho  # negative inside the Sturmian class
        if pair.is_exact():
            first = cmp_rho(A1, d0.sigma) < 0
            second = cmp_rho(A0, d1.sigma) > 0
        else:
            first = strictly_negative(d1_margin)
            second = strictly_negative(d2_margin)
        in_d = first and second

    return PairClassReport(
        in_M2plus=in_m2plus,
        in_C=in_c,
        in_D=in_d,
        image_gap=image_gap,
        inequality_margins=(gap_margin, alpha_margin, d1_margin, d2_margin),
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
