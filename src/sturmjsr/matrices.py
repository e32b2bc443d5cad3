"""2x2 matrices, Perron data, and the per-matrix projective scalars.

For a positive matrix A = (a, b; c, d) with det A > 0 the library works with
the derived quantities

    alpha = a + c - b - d          beta  = a - d - 2b
    gamma = sqrt((a - d)^2 + 4bc)  (non-negative root)
    rho   = 2b / (beta + gamma)    (larger root of alpha z^2 + beta z - b)
    sigma = (b - a) / alpha        delta = (b + d) / alpha
    p     = (beta + gamma) / (2 alpha)   (fixed point of the induced map)
    lam   = (a + d + gamma) / 2          (Perron eigenvalue)

together with the identity gamma^2 - beta^2 = 4 b alpha.  All formulas stay
on the exact rational path whenever the entries are rational and the
radicand is a perfect square; otherwise they degrade to floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DomainError, EmptyWord, NonPositiveMatrix, NonPositiveScale
from .scalar import Number, is_exact, sqrt_number


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

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        return self.mul(other)

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

    def max_entry(self) -> Number:
        return max(self.a, self.b, self.c, self.d)

    def max_abs_entry(self) -> Number:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))


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
    scalars rho, sigma, delta, p are undefined).
    """
    require_positive(A)
    a, b, c, d = A.entries()
    alpha = a + c - b - d
    if alpha == 0:
        raise DomainError("alpha = 0: induced map is affine, projective scalars undefined")
    beta = a - d - 2 * b
    gamma = sqrt_number(gamma_squared(A))
    rho = 2 * b / (beta + gamma)
    sigma = (b - a) / alpha
    delta = (b + d) / alpha
    p = (beta + gamma) / (2 * alpha)
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


def q_poly_eval(A: Matrix2, z: Number) -> Number:
    """Branch quadratic alpha z^2 + beta z - b; rho is its larger root."""
    require_positive(A)
    a, b, c, d = A.entries()
    alpha = a + c - b - d
    beta = a - d - 2 * b
    return alpha * z * z + beta * z - b


def _normalised(prod: Entries, log_scale: float) -> tuple[Entries, float]:
    """One float normalization step: prod / m and log_scale + log m, m = max |entry|.

    The division is a multiply by the reciprocal.  Every float product in
    this module takes this step after each letter, which is what makes the
    prefix-shared walk and word_product agree bit for bit.
    """
    a, b, c, d = prod
    m = max(abs(a), abs(b), abs(c), abs(d))
    r = 1.0 / m
    return (r * a, r * b, r * c, r * d), log_scale + math.log(m)


def _float_products(
    pair: MatrixPair, t: Number, words: Iterable[str]
) -> Iterator[tuple[str, Entries, float]]:
    """Each non-empty binary word with its normalized float product and log scale.

    A stack holds the normalized products of the previous word's prefixes;
    only the letters past the prefix it shares with the next word are
    multiplied.  Words in rising lexicographic order share the most.  Each
    prefix is stepped the same way whatever word it came from, so a
    product's bits do not depend on the words walked before it.
    """
    factors = {"0": pair.A0.to_float().entries(), "1": pair.A1.to_float().entries()}
    log_t = math.log(float(t))
    stack: list[tuple[Entries, float]] = []  # prev[:1], prev[:2], ...
    prev = ""
    for word in words:
        n = min(len(prev), len(word))
        # Read as binary numbers, the first n letters first differ at the
        # highest set bit of their XOR.
        k = n - (int(word[:n], 2) ^ int(prev[:n], 2)).bit_length() if n else 0
        del stack[k:]
        for ch in word[k:]:
            if stack:
                prod, log_scale = stack[-1]
                stack.append(_normalised(_product(prod, factors[ch]), log_scale))
            else:
                stack.append(_normalised(factors[ch], 0.0))
        prev = word
        prod, log_scale = stack[-1]
        yield word, prod, log_scale + word.count("1") * log_t


def word_values(pair: MatrixPair, t: Number, words: Iterable[str]) -> Iterator[float]:
    """word_value(pair, t, w) for each word w, bit for bit, on the float path.

    The words must be non-empty and over {0, 1}, and t positive; callers
    check.  Each word costs one multiply per letter past the prefix it
    shares with the word before, so feed them in rising lexicographic order.
    """
    for word, prod, log_scale in _float_products(pair, t, words):
        yield (math.log(_radius(*prod)) + log_scale) / len(word)


def word_product(pair: MatrixPair, t: Number, word: str) -> tuple[Matrix2, Number]:
    """Product over a binary word with symbol 0 -> A0 and symbol 1 -> t*A1.

    Returns a normalized matrix M and a log scale s with true product equal
    to e^s * M.  On the exact rational path (all entries and t rational) no
    normalization happens, t is folded into the product, and s = 0.  On the
    float path the base matrices are multiplied with a normalization step
    (divide by the largest |entry|, add its log to s) after each letter, and
    the scale of t enters only through s, so scaling identities hold to the
    last float digit.
    """
    if not word:
        raise EmptyWord("word product needs a non-empty word")
    if not set(word) <= {"0", "1"}:
        raise DomainError(f"word must be over {{0,1}}: {word!r}")
    if not t > 0:
        raise NonPositiveScale(f"t must be positive, got {t}")

    if pair.is_exact() and is_exact(t):
        factors = {"0": pair.A0, "1": pair.A1.scaled(Fraction(t))}
        prod = factors[word[0]]
        for ch in word[1:]:
            prod = prod.mul(factors[ch])
        return prod, Fraction(0)

    _, prod, log_scale = next(_float_products(pair, t, (word,)))
    return Matrix2(*prod), log_scale


def word_value(pair: MatrixPair, t: Number, word: str) -> float:
    """Per-letter log spectral radius of the word product, (1/n) log r(A_t(word))."""
    prod, log_scale = word_product(pair, t, word)
    return (math.log(float(spectral_radius(prod))) + float(log_scale)) / len(word)
