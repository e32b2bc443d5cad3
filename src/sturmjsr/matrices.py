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
the brute force reads it off Duval's successor, and word_values, whose
words may come in any order, off the XOR of the two words read as binary
numbers.
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


# One prefix of a walked word: its normalized product (a, b, c, d), the sum
# of the logs normalized out of it, and its count of 1s.
Row = tuple[float, float, float, float, float, int]


def _walk(
    pair: MatrixPair, t: Number, steps: Iterable[tuple[int, str]], stack: list[Row]
) -> Iterator[float]:
    """(1/n) log r(A_t(w)) on the float path, for each (k, w) of steps.

    Each w is a non-empty binary word whose first k letters are those of
    the word before it; the caller knows k, or 0 for none.  stack holds a
    Row per prefix of the word before, w[:1], w[:2], ..., so only the
    letters past the shared prefix are multiplied, after which the last Row
    is w's product.  Each prefix is stepped the same way whatever word it
    came from, so a value's bits do not depend on the words walked before
    it.  The scale of t enters only through the count of 1s, after the
    product.
    """
    f0, f1 = pair.A0.to_float().entries(), pair.A1.to_float().entries()
    (e0, s0), (e1, s1) = _normalised(f0), _normalised(f1)
    firsts = {"0": (*e0, s0, 0), "1": (*e1, s1, 1)}
    factors = {"0": (*f0, 0), "1": (*f1, 1)}
    log_t = math.log(float(t))
    log, sqrt = math.log, math.sqrt
    for k, word in steps:
        del stack[k:]
        if not k:
            stack.append(firsts[word[0]])
            k = 1
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


def _xor_steps(words: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(k, word) for words in any order, k the length of the prefix shared with the last."""
    prev = ""
    for word in words:
        n = min(len(prev), len(word))
        # Read as binary numbers, the first n letters first differ at the
        # highest set bit of their XOR.
        yield (n - (int(word[:n], 2) ^ int(prev[:n], 2)).bit_length() if n else 0), word
        prev = word


def word_values(pair: MatrixPair, t: Number, words: Iterable[str]) -> Iterator[float]:
    """word_value(pair, t, w) for each word w, bit for bit, on the float path.

    The words must be non-empty and over {0, 1}, and t positive; callers
    check.  The words may come in any order, so the prefix each shares with
    the word before is read off the two words.  Each word costs one multiply
    per letter past it, so feed them in rising lexicographic order.
    """
    return _walk(pair, t, _xor_steps(words), [])


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

    stack: list[Row] = []
    try:
        next(_walk(pair, t, ((0, word),), stack))
    except ValueError:
        pass  # a nilpotent product has no log radius, but it is on the stack
    a, b, c, d, log_scale, ones = stack[-1]
    return Matrix2(a, b, c, d), log_scale + ones * math.log(float(t))


def word_value(pair: MatrixPair, t: Number, word: str) -> float:
    """Per-letter log spectral radius of the word product, (1/n) log r(A_t(word))."""
    prod, log_scale = word_product(pair, t, word)
    return (math.log(float(spectral_radius(prod))) + float(log_scale)) / len(word)
