import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import strategies as st

from sturmjsr import (
    Matrix2,
    MatrixPair,
    RationalParameter,
    d2_pair,
    induced_system,
    pair_report,
    parameter_map,
    plateau_bounds,
)
from sturmjsr.matrices import spectral_radius


@pytest.fixture(scope="session")
def reference_pair() -> MatrixPair:
    """A pair in the Sturmian class with fully rational derived data.

    Both members have Perron eigenvalue 1; the minor eigenvalues are 9/16
    and 13/16, the thresholds are 24/77 and 61/8.
    """
    return MatrixPair(
        Matrix2(F(5, 8), F(3, 112), F(7, 8), F(15, 16)),
        Matrix2(F(15, 16), F(1), F(1, 128), F(7, 8)),
    )


@pytest.fixture(scope="session")
def symmetric_pair() -> MatrixPair:
    """d2-family member ((1,1/4;3/2,1),(1,3/2;1/4,1)); its gammas are irrational."""
    return d2_pair(F(1, 4), F(3, 2))


@pytest.fixture(scope="session")
def c_not_d_pair() -> MatrixPair:
    """Concave-convex, but rho(A1) > sigma(A0): outside the Sturmian class."""
    return MatrixPair(
        Matrix2(F(2, 3), F(1, 4), F(5, 8), F(1)),
        Matrix2(F(1), F(8, 5), F(1, 6), F(8, 9)),
    )


@pytest.fixture(scope="session")
def reference_system(reference_pair):
    return induced_system(reference_pair)


@pytest.fixture(scope="session")
def symmetric_system(symmetric_pair):
    return induced_system(symmetric_pair)


def random_positive_matrix(rng: random.Random) -> Matrix2:
    """Entries uniform in [0.1, 10], resampled until the determinant is positive."""
    while True:
        m = Matrix2(*(rng.uniform(0.1, 10.0) for _ in range(4)))
        if m.det() > 0:
            return m


def random_rational(rng: random.Random, lo=1, hi=40) -> F:
    return F(rng.randint(lo, hi), rng.randint(lo, hi))


def random_matrix_64(rng: random.Random) -> Matrix2:
    """Entries p/q with p and q uniform in 1..64, resampled until the determinant is positive."""
    while True:
        m = Matrix2(*(random_rational(rng, 1, 64) for _ in range(4)))
        if m.det() > 0:
            return m


def random_class_d_pair(rng: random.Random) -> MatrixPair:
    """Pairs of random_matrix_64 draws until pair_report puts one in class D.

    The class checks are exact, so the filter needs no tolerance.
    """
    while True:
        pair = MatrixPair(random_matrix_64(rng), random_matrix_64(rng))
        if pair_report(pair).in_D:
            return pair


def class_d_pairs() -> st.SearchStrategy[MatrixPair]:
    """Hypothesis strategy: the random_class_d_pair of a drawn seed."""
    return st.integers(0, 2**32 - 1).map(lambda seed: random_class_d_pair(random.Random(seed)))


def common_prefix(u: str, v: str) -> int:
    """Length of the longest common prefix of two words."""
    return next((i for i, (a, b) in enumerate(zip(u, v)) if a != b), min(len(u), len(v)))


def mp_periodic_point(mpmath, pair, word: str):
    """Periodic point of the word in mpmath's working precision.

    The Perron vector (b, lam - a) of the exact product, lam its larger
    eigenvalue; no formula is shared with the library.
    """
    mats = {
        "0": [mpmath.mpf(F(x).numerator) / F(x).denominator for x in pair.A0.entries()],
        "1": [mpmath.mpf(F(x).numerator) / F(x).denominator for x in pair.A1.entries()],
    }
    a, b, c, d = mats[word[0]]
    for ch in word[1:]:
        e, f, g, h = mats[ch]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    lam = (a + d + mpmath.sqrt((a - d) ** 2 + 4 * b * c)) / 2
    return b / (b + lam - a)


def word_value_oracle(pair: MatrixPair, t: float, word: str) -> float:
    """Per-letter log spectral radius of (A0, t*A1) on a word, one word at a time.

    Each letter multiplies, then divides by the largest |entry| as a
    reciprocal multiply and adds its log; t enters after the product as
    ones * log t, added to the log scale.  That is the library walk's order,
    so the bits must match, but the product, the normalization and the
    radius are spelled out here rather than shared with the walk.
    """
    fpair = pair.to_float()
    factors = {"0": fpair.A0, "1": fpair.A1}
    prod, log_scale = None, 0.0
    for ch in word:
        f = factors[ch]
        if prod is not None:
            f = Matrix2(
                prod.a * f.a + prod.b * f.c,
                prod.a * f.b + prod.b * f.d,
                prod.c * f.a + prod.d * f.c,
                prod.c * f.b + prod.d * f.d,
            )
        m = max(abs(f.a), abs(f.b), abs(f.c), abs(f.d))
        prod, log_scale = f.scaled(1.0 / m), log_scale + math.log(m)
    log_scale += word.count("1") * math.log(t)
    return (math.log(spectral_radius(prod)) + log_scale) / len(word)


def extremal_edge(pair: MatrixPair, param: RationalParameter, cap: int) -> float:
    """Finite edge of the plateau of 0/1 or 1/1 at the cap, checked against parameter_map.

    The plateau of 0/1 starts at 0 and that of 1/1 ends at inf.  The finite
    edge reads the parameter, and the next float outward reads the
    neighbouring parameter, whose own plateau ends or starts on that float.
    """
    top = param == RationalParameter(1, 1)
    plat = plateau_bounds(pair, param, 1e-9, cap)
    edge, unbounded, outward = (plat.t_lo, plat.t_hi, 0.0) if top else (plat.t_hi, plat.t_lo, math.inf)
    assert unbounded == (math.inf if top else 0)
    assert parameter_map(pair, edge, cap).parameter == param
    beyond = math.nextafter(edge, outward)
    neighbour = parameter_map(pair, beyond, cap).parameter
    assert neighbour != param
    plat = plateau_bounds(pair, neighbour, 1e-9, cap)
    assert (plat.t_hi if top else plat.t_lo) == beyond
    return edge


def farey_walk_oracle(x: F, max_den) -> tuple[F, F]:
    """Best rational bounds of x at the cap, one Fraction mediant per Stern-Brocot level."""
    if x.denominator <= max_den:
        return x, x
    lo, hi = F(0), F(1)
    while True:
        mediant = F(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        if mediant.denominator > max_den:
            return lo, hi
        if mediant < x:
            lo = mediant
        elif mediant > x:
            hi = mediant
        else:
            return mediant, mediant
