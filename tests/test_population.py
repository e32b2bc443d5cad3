"""Cross-route checks over a seeded population of class-D pairs.

Each entry is p/q with p and q uniform in 1..64; a matrix is kept when its
determinant is positive, and a pair when pair_report puts it in class D.
The class checks are exact, so the filter needs no tolerance.  Each pair is
read at the scales t0^(1-s) t1^s, and three routes must agree there:

- the brute-force lower bound is below the sum-norm upper bound;
- a Certified constant value lies within 1e-9 of the brute-force bracket;
- the Stern-Brocot descent bracket of the matched coordinate c* contains
  the staircase parameter at cap 30.

A call may raise only NoConvergence (ROADMAP item 13); the raising calls are
pinned below by (pair index, s).
"""

import random
from fractions import Fraction as F

import pytest

from sturmjsr import (
    Matrix2,
    MatrixPair,
    Verdict,
    certify,
    induced_system,
    jsr_lower_bruteforce,
    pair_report,
    parameter_bracket_of_coordinate,
    parameter_map,
    thresholds,
)
from sturmjsr.errors import NoConvergence

SEED = 12
COUNT = 40
SCALES = (0.2, 0.5, 0.8)
MAX_LEN = 12
CAP = 30

# (pair index, s) of every population call that raises NoConvergence.
RAISING = []


def _entry(rng):
    return F(rng.randint(1, 64), rng.randint(1, 64))


def _matrix(rng):
    while True:
        m = Matrix2(*(_entry(rng) for _ in range(4)))
        if m.det() > 0:
            return m


def class_d_population(seed, count):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        pair = MatrixPair(_matrix(rng), _matrix(rng))
        if pair_report(pair).in_D:
            pairs.append(pair)
    return pairs


def _scale(pair, s):
    th = thresholds(pair)
    return float(th.t0) ** (1 - s) * float(th.t1) ** s


@pytest.fixture(scope="module")
def population():
    return class_d_population(SEED, COUNT)


@pytest.fixture(scope="module")
def routes(population):
    """(pair index, s) -> (brute-force estimate, certificate, staircase sample, c* bracket)."""
    out, raising = {}, []
    for i, pair in enumerate(population):
        for s in SCALES:
            t = _scale(pair, s)
            try:
                estimate = jsr_lower_bruteforce(pair, t, MAX_LEN, compute_upper=True)
                report = certify(pair, t)
                sample = parameter_map(pair, t, CAP)
                # certify's c is gamma_of_t's c* at an interior scale.
                bracket = parameter_bracket_of_coordinate(induced_system(pair, t), report.c)
            except NoConvergence:
                raising.append((i, s))
                continue
            out[i, s] = estimate, report, sample, bracket
    return out, raising


def test_population_is_distinct_and_in_class_d(population):
    assert len(set(population)) == COUNT
    assert all(pair_report(pair).in_D for pair in population)


def test_only_the_pinned_calls_raise(routes):
    assert routes[1] == RAISING


def test_bruteforce_lower_is_below_the_sum_norm_upper(routes):
    for key, (estimate, _, _, _) in routes[0].items():
        assert estimate.lower <= estimate.upper, key


def test_certified_constant_lies_in_the_bruteforce_bracket(routes):
    certified = 0
    for key, (estimate, report, _, _) in routes[0].items():
        if report.verdict is Verdict.CERTIFIED:
            certified += 1
            assert estimate.lower - 1e-9 <= report.constant_value <= estimate.upper + 1e-9, key
    assert certified > 0


def test_descent_bracket_of_c_star_contains_the_staircase_parameter(routes):
    for key, (_, _, sample, bracket) in routes[0].items():
        p = sample.parameter.as_fraction()
        assert bracket.lower.as_fraction() <= p <= bracket.upper.as_fraction(), key


@pytest.mark.xfail(
    strict=True,
    raises=NoConvergence,
    reason="ROADMAP item 13 (defect A of item 12): the series tail bound stalls at a float floor",
)
def test_defect_a_pair_certifies():
    pair = MatrixPair(
        Matrix2(F(25, 49), F(12, 59), F(41, 21), F(25, 23)),
        Matrix2(F(1, 6), F(16), F(4, 55), F(40)),
    )
    assert certify(pair, _scale(pair, 0.8)).verdict is Verdict.CERTIFIED
