"""2x2 matrices, Perron data, and the per-matrix projective scalars.

For a positive matrix A = (a, b; c, d) with det A > 0 the library works with
the derived quantities

    alpha = a + c - b - d          beta  = a - d - 2b
    gamma = sqrt((a - d)^2 + 4bc)  (non-negative root)
    rho   = 2b / (beta + gamma)    (larger root of alpha z^2 + beta z - b)
    sigma = (b - a) / alpha        delta = (b + d) / alpha
    p     = 2b / (gamma - beta), or (beta + gamma) / (2 alpha) if beta > 0
    lam   = (a + d + gamma) / 2          (Perron eigenvalue)

together with the identity gamma^2 - beta^2 = 4 b alpha.  All formulas stay
on the exact rational path whenever the entries are rational and the
radicand is a perfect square; otherwise they degrade to floats.

Float word products and per-letter values come from one walk over a stack
of prefix products, which multiplies only the letters past the prefix a
word shares with the word before.  The caller gives that prefix's length:
the brute force reads it off Duval's successor, the Sturmian table off the
Stern-Brocot descent (words.stern_brocot_words), and word_product, which
walks one word, uses 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DomainError, EmptyWord, NonPositiveMatrix
from .scalar import Number, check_scale, is_exact, sqrt_number


@dataclass(frozen=True)
class Matrix2:
    """Row-major 2x2 real matrix (a, b; c, d)."""

    a: Number
    b: Number
    c: Number
    d: Number

    def det(self) -> Number:
        return self.a * self.d - self.b * self.c

    def trace(self) -> Number:
        return self.a + self.d

    def entries(self) -> tuple[Number, Number, Number, Number]:
        return (self.a, self.b, self.c, self.d)

    def is_positive(self) -> bool:
        return self.a > 0 and self.b > 0 and self.c > 0 and self.d > 0

    def is_exact(self) -> bool:
        return is_exact(self.a, self.b, self.c, self.d)

    def to_float(self) -> "Matrix2":
        return Matrix2(float(self.a), float(self.b), float(self.c), float(self.d))

    def scaled(self, s: Number) -> "Matrix2":
        return Matrix2(s * self.a, s * self.b, s * self.c, s * self.d)

    def mul(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(*_product(self.entries(), other.entries()))

    def moebius(self, x: Number) -> Number:
        """Induced map T_A(x) = ((a-b)x + b) / (alpha x + b + d) on [0, 1]."""
        a, b, c, d = self.entries()
        return ((a - b) * x + b) / ((a + c - b - d) * x + b + d)

    def moebius_inverse(self, x: Number) -> Number:
        """Inverse S_A(x) = ((b+d)x - b) / (-alpha x + a - b) of the induced map."""
        a, b, c, d = self.entries()
        return ((b + d) * x - b) / (-(a + c - b - d) * x + a - b)

    def inverse(self) -> "Matrix2":
        det = self.det()
        if det == 0:
            raise ZeroDivisionError("singular matrix")
        if is_exact(det):
            inv = Fraction(1, 1) / Fraction(det)
        else:
            inv = 1.0 / det
        return Matrix2(inv * self.d, -inv * self.b, -inv * self.c, inv * self.a)


Entries = tuple[Number, Number, Number, Number]


def _product(x: Entries, y: Entries) -> Entries:
    """Row-major entries of the matrix product x y."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


@dataclass(frozen=True)
class MatrixPair:
    """Ordered pair: A0 the candidate projectively concave member, A1 the convex one."""

    A0: Matrix2
    A1: Matrix2

    def is_exact(self) -> bool:
        return self.A0.is_exact() and self.A1.is_exact()

    def to_float(self) -> "MatrixPair":
        return MatrixPair(self.A0.to_float(), self.A1.to_float())


@dataclass(frozen=True)
class ProjectiveData:
    """Derived scalars of one positive orientation-preserving matrix."""

    alpha: Number
    beta: Number
    gamma: Number
    rho: Number
    sigma: Number
    delta: Number
    fixed_point: Number
    perron_value: Number
    minor_value: Number
    perron_left: tuple[Number, Number]
    perron_right: tuple[Number, Number]


def require_positive(A: Matrix2) -> None:
    """Raise unless A has positive entries and positive determinant."""
    if not A.is_positive():
        raise NonPositiveMatrix(f"matrix has a non-positive entry: {A.entries()}")
    if not A.det() > 0:
        raise NonPositiveMatrix(f"matrix has non-positive determinant {A.det()}")


def gamma_squared(A: Matrix2) -> Number:
    """Radicand (a - d)^2 + 4bc of the discriminant square root."""
    return (A.a - A.d) ** 2 + 4 * A.b * A.c


def projective_data(A: Matrix2) -> ProjectiveData:
    """All derived scalars of a positive matrix with positive determinant.

    Raises NonPositiveMatrix when the positivity precondition fails and
    DomainError when alpha = 0 (the induced map is affine and the projective
    scalars rho, sigma, delta, p are undefined) or when rho's denominator
    beta + gamma, which is 0 only at alpha = 0, rounds to 0.
    """
    require_positive(A)
    a, b, c, d = A.entries()
    alpha = a + c - b - d
    if alpha == 0:
        raise DomainError("alpha = 0: induced map is affine, projective scalars undefined")
    beta = a - d - 2 * b
    gamma = sqrt_number(gamma_squared(A))
    if beta + gamma == 0:
        raise DomainError(f"beta + gamma rounds to 0 for {A.entries()}: rho is undefined")
    rho = 2 * b / (beta + gamma)
    sigma = (b - a) / alpha
    delta = (b + d) / alpha
    p = _fixed_point(alpha, beta, gamma, b)
    lam = (a + d + gamma) / 2
    minor = (a + d - gamma) / 2
    data = ProjectiveData(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        rho=rho,
        sigma=sigma,
        delta=delta,
        fixed_point=p,
        perron_value=lam,
        minor_value=minor,
        perron_left=(a - d + gamma, 2 * b),
        perron_right=(p, 1 - p),
    )
    # Two independent formulas for the Perron value must agree.
    lam_alt = b / p + a - b
    if not math.isclose(float(lam), float(lam_alt), rel_tol=1e-12, abs_tol=1e-12):
        raise DomainError(f"Perron value formulas disagree: {lam} vs {lam_alt}")
    return data


def _fixed_point(alpha: Number, beta: Number, gamma: Number, b: Number) -> Number:
    """Root in (0, 1) of alpha x^2 - beta x - b, from the form that adds terms of one sign.

    The two forms are equal, since gamma^2 - beta^2 = 4 b alpha.  The
    quadratic is -b at 0 and c at 1, so beta > 0 forces alpha > 0, and
    alpha = 0 forces beta < 0: neither form cancels or divides by zero.
    """
    if beta <= 0:
        return 2 * b / (gamma - beta)
    return (beta + gamma) / (2 * alpha)


def fixed_point(A: Matrix2) -> Number:
    """Attracting fixed point in (0, 1) of the induced map of a matrix with positive entries.

    It needs neither det A > 0 nor alpha != 0, so it also serves float
    products whose determinant rounds to zero or below.
    """
    a, b, c, d = A.entries()
    return _fixed_point(a + c - b - d, a - d - 2 * b, sqrt_number(gamma_squared(A)), b)


def _radius(a: Number, b: Number, c: Number, d: Number) -> Number:
    """Maximum eigenvalue modulus of the real matrix (a, b; c, d)."""
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4 * det
    if disc < 0:
        # Complex conjugate pair: common modulus sqrt(det), with det > 0 forced.
        return sqrt_number(det)
    root = sqrt_number(disc)
    lo = (tr - root) / 2
    hi = (tr + root) / 2
    return max(abs(lo), abs(hi))


def spectral_radius(A: Matrix2) -> Number:
    """Maximum eigenvalue modulus of an arbitrary real 2x2 matrix."""
    return _radius(*A.entries())


def eigenvalues(A: Matrix2) -> tuple[Number, Number]:
    """Both eigenvalues of a matrix with real spectrum, larger first."""
    tr = A.trace()
    disc = tr * tr - 4 * A.det()
    if disc < 0:
        raise DomainError("complex eigenvalues")
    root = sqrt_number(disc)
    return ((tr + root) / 2, (tr - root) / 2)


def _normalised(prod: Entries) -> tuple[Entries, float]:
    """One float normalization step: prod / m and log m, m = max |entry|.

    The division is a multiply by the reciprocal.  _walk takes this step,
    inlined, after each letter.
    """
    a, b, c, d = prod
    m = max(abs(a), abs(b), abs(c), abs(d))
    r = 1.0 / m
    return (r * a, r * b, r * c, r * d), math.log(m)


# A normalized row has entries of modulus at most (1 + 2^-53)^2, so its
# product with a factor whose column sums of |entries| stay below this cap
# stays below the float maximum.
_COLUMN_SUM_CAP = sys.float_info.max * (1 - 2.0**-48)
# A normalized product of non-negative factors has an entry within 2^-50 of
# 1, so its product with a non-negative factor whose rows each have a
# largest entry of at least this floor, 2^-1024 plus 4 ulps, has a largest
# entry m of at least 2^-1024 plus 2 ulps, and 1/m stays finite.
_ROW_MAX_FLOOR = 1.0 / _COLUMN_SUM_CAP

# One prefix of a walked word: its normalized product (a, b, c, d), the sum
# of the logs normalized out of it, and its count of 1s.
Row = tuple[float, float, float, float, float, int]


def _walk(
    pair: MatrixPair, t: Number, steps: Iterable[tuple[int, str]], stack: list[Row]
) -> Iterator[float]:
    """(1/n) log r(A_t(w)) on the float path, for each (k, w) of steps.

    Each w is a non-empty binary word whose first k letters are those of the
    word before it.  The caller knows k: the brute force from Duval's
    successor, the Sturmian table from the Stern-Brocot descent, and
    word_product, with one word, gives 0.  stack, which the walk resets,
    holds a Row per prefix of the word before, w[:0], w[:1], ..., the empty
    one the identity, so only the letters past the shared prefix are
    multiplied, after which the last Row is w's product.  Each prefix is
    stepped the same way whatever word it came from, so a value's
    bits do not depend on the words walked before it.  The scale of t enters
    only through the count of 1s, after the product.  A factor with a column
    whose |entries| sum past _COLUMN_SUM_CAP is a DomainError, checked once:
    past it a product entry can overflow to inf, and the normalization step
    would turn it to nan; so is one with a row whose largest |entry| is
    positive but below _ROW_MAX_FLOOR, past which 1/m can overflow.  Signed
    factors can still cancel, and a zero m raises ZeroDivisionError.
    """
    f0, f1 = pair.A0.to_float().entries(), pair.A1.to_float().entries()
    for e, f, g, h in (f0, f1):
        if not max(abs(e) + abs(g), abs(f) + abs(h)) <= _COLUMN_SUM_CAP:
            raise DomainError(f"a product with {(e, f, g, h)} can overflow the float range")
        if any(0 < row < _ROW_MAX_FLOOR for row in (max(abs(e), abs(f)), max(abs(g), abs(h)))):
            raise DomainError(f"a product with {(e, f, g, h)} can underflow the float range")
    # The empty prefix: 1 e + 0 g = e and 0 + log m = log m, so a first
    # letter gets the bits of its own normalization.
    stack[:] = [(1.0, 0.0, 0.0, 1.0, 0.0, 0)]
    factors = {"0": (*f0, 0), "1": (*f1, 1)}
    log_t = math.log(float(t))
    log, sqrt = math.log, math.sqrt
    for k, word in steps:
        del stack[k + 1:]
        a, b, c, d, s, n = stack[-1]
        for ch in word[k:]:
            e, f, g, h, one = factors[ch]
            n += one
            pa, pb, pc, pd = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
            m = max(abs(pa), abs(pb), abs(pc), abs(pd))
            r = 1.0 / m
            a, b, c, d, s = r * pa, r * pb, r * pc, r * pd, s + log(m)
            stack.append((a, b, c, d, s, n))
        # _radius, bit for bit: of |tr - root| and |tr + root|, the larger has tr's sign.
        tr = a + d
        det = a * d - b * c
        disc = tr * tr - 4 * det
        if disc < 0:
            rad = sqrt(det)
        else:
            root = sqrt(disc)
            rad = (tr + root) / 2 if tr >= 0 else (root - tr) / 2
        yield (log(rad) + (s + n * log_t)) / len(word)


def word_product(pair: MatrixPair, t: Number, word: str) -> tuple[Matrix2, Number]:
    """Product over a binary word with symbol 0 -> A0 and symbol 1 -> t*A1.

    Returns a normalized matrix M and a log scale s with true product equal
    to e^s * M.  On the exact rational path (all entries and t rational) no
    normalization happens, t is folded into the product, and s = 0.  On the
    float path the base matrices are multiplied with a normalization step
    (divide by the largest |entry|, add its log to s) after each letter, and
    the scale of t enters only through s, so scaling identities hold to the
    last float digit.  A zero float product is a DomainError, and so is one
    that leaves the float range inside the walk, which a zero row of a
    factor lets through _walk's checks.
    """
    if not word:
        raise EmptyWord("word product needs a non-empty word")
    if not set(word) <= {"0", "1"}:
        raise DomainError(f"word must be over {{0,1}}: {word!r}")
    check_scale(t)

    if pair.is_exact() and is_exact(t):
        factors = {"0": pair.A0, "1": pair.A1.scaled(Fraction(t))}
        prod = factors[word[0]]
        for ch in word[1:]:
            prod = prod.mul(factors[ch])
        return prod, Fraction(0)

    stack: list[Row] = []
    try:
        next(_walk(pair, t, ((0, word),), stack))
    except ValueError:
        pass  # a nilpotent product has no log radius, but it is on the stack
    except ZeroDivisionError:
        raise DomainError(f"a zero product has no normalization (word {word!r})") from None
    a, b, c, d, log_scale, ones = stack[-1]
    if not all(map(math.isfinite, (a, b, c, d))):
        raise DomainError(f"the product over {word!r} leaves the float range")
    return Matrix2(a, b, c, d), log_scale + ones * math.log(float(t))


def word_value(pair: MatrixPair, t: Number, word: str) -> float:
    """Per-letter log spectral radius of the word product, (1/n) log r(A_t(word)).

    A nilpotent product, whose spectral radius is 0, is a DomainError.
    """
    prod, log_scale = word_product(pair, t, word)
    radius = float(spectral_radius(prod))
    if not radius > 0:
        raise DomainError(f"the product over {word!r} has spectral radius {radius}")
    return (math.log(radius) + float(log_scale)) / len(word)
