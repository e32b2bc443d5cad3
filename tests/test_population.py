"""Cross-route checks over a seeded population of class-D pairs.

Each entry is p/q with p and q uniform in 1..64; a matrix is kept when its
determinant is positive, and a pair when pair_report puts it in class D.
The class checks are exact, so the filter needs no tolerance.  Each pair is
read at the scales t0^(1-s) t1^s, and three routes must agree there:

- the brute-force lower bound is below the column-sum norm upper bound;
- a Certified constant value lies within 1e-9 of the brute-force bracket;
- the Stern-Brocot descent bracket of the matched coordinate c* contains
  the staircase parameter at cap 30.

At cap 30 the plateaus of 0/1 and 1/1 reach past t0 and t1, and every
other plateau lies strictly between them.

A call may raise only NoConvergence (ROADMAP item 13); the raising calls are
pinned below by (pair index, s).  At t = 1 the ergodic average of the
induced function along a mechanical word's periodic orbit must equal the
word product's value.  A slow-marked sweep (pytest -m slow) certifies
2 x 400 pairs at 7 scales against the cap-40 Sturmian value.

The d2 pairs ((1,b;c,1),(1,c;b,1)) are swapped by conjugating with the
flip, so (A0, A1/t) is (A0, t*A1) mirrored and scaled by 1/t: t0 t1 = 1,
the parameter at 1/t is 1 minus that at t, the value drops by log t, and
the finite edges of the plateaus of 0/1 and 1/1 multiply to 1.
They are drawn with b = i/64, c = j/64 and bc < 1 < c.
"""

import math
import random
from fractions import Fraction as F

import pytest

from sturmjsr import (
    Matrix2,
    MatrixPair,
    RationalParameter,
    Verdict,
    certify,
    d2_pair,
    delta_numeric,
    ergodic_average_f,
    induced_system,
    jsr_lower_bruteforce,
    mechanical_word,
    pair_report,
    parameter_bracket_of_coordinate,
    parameter_map,
    plateau_bounds,
    sturmian_restricted_max,
    thresholds,
)
from sturmjsr.errors import NoConvergence, PlateauNotFound
from sturmjsr.matrices import word_value

from conftest import extremal_edge, random_class_d_pair

SEED = 12
COUNT = 40
SCALES = (0.2, 0.5, 0.8)
MAX_LEN = 12
CAP = 30
ERGODIC_PARAMETERS = ((0, 1), (1, 1), (1, 2), (1, 3), (2, 5), (3, 7), (5, 12))
D2_SEED = 30
D2_COUNT = 20
D2_SCALES = (0.2, 0.35, 0.5, 0.65, 0.8)
D2_CAP = 40
# The slow sweep: 2 x 400 pairs x 7 scales, 5,600 certify calls.
SWEEP_SEEDS = (21, 22)
SWEEP_COUNT = 400
SWEEP_SCALES = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
SWEEP_CAP = 40
# Calls that may stall in the series tail bound (ROADMAP item 13); 15 do.
SWEEP_STALLS = 16

# (pair index, s) of every population call that raises NoConvergence.
RAISING = []


def class_d_population(seed, count):
    rng = random.Random(seed)
    return [random_class_d_pair(rng) for _ in range(count)]


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
                bracket = parameter_bracket_of_coordinate(induced_system(pair), report.c)
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


def test_bruteforce_lower_is_below_the_column_sum_norm_upper(routes):
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


def test_extremal_plateaus_reach_past_the_thresholds_and_the_rest_lie_inside(population):
    # Why the plateaus need no clip to (t0, t1): the 0/1 and 1/1 segments of
    # the cap-30 envelope reach past t0 and t1, and every interior one lies
    # within ThresholdPair.inside.
    interior = [RationalParameter(p, q) for q in range(2, CAP + 1)
                for p in range(1, q) if math.gcd(p, q) == 1]
    for i, pair in enumerate(population):
        th = thresholds(pair)
        lo, hi = th.inside
        assert extremal_edge(pair, RationalParameter(0, 1), CAP) > th.t0, i
        assert extremal_edge(pair, RationalParameter(1, 1), CAP) < th.t1, i
        for param in interior:
            try:
                plat = plateau_bounds(pair, param, 1e-9, CAP)
            except PlateauNotFound:
                continue
            assert lo <= plat.t_lo <= plat.t_hi <= hi, (i, param)


def test_ergodic_average_matches_the_word_product(population):
    for i, pair in enumerate(population):
        sys = induced_system(pair)
        for p, q in ERGODIC_PARAMETERS:
            word = mechanical_word(RationalParameter(p, q))
            want = word_value(pair.to_float(), 1.0, word)
            assert abs(ergodic_average_f(sys, word, 1) - want) <= 1e-12, (i, p, q)


def d2_draws(seed, count):
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        b, c = F(rng.randint(1, 64), 64), F(rng.randint(65, 256), 64)
        if b * c < 1 and (b, c) not in draws:
            draws.append((b, c))
    return draws


def test_d2_pairs_are_symmetric_under_t_to_one_over_t():
    for b, c in d2_draws(D2_SEED, D2_COUNT):
        pair = d2_pair(b, c)
        th = thresholds(pair)
        assert abs(float(th.t0) * float(th.t1) - 1) <= 1e-14, (b, c)
        for s in D2_SCALES:
            t = float(th.t0) ** (1 - s) * float(th.t1) ** s
            at_t, at_inverse = parameter_map(pair, t, D2_CAP), parameter_map(pair, 1 / t, D2_CAP)
            assert at_inverse.parameter.as_fraction() == 1 - at_t.parameter.as_fraction(), (b, c, s)
            assert abs(at_inverse.value - (at_t.value - math.log(t))) <= 1e-14, (b, c, s)
        for cap in (10, D2_CAP):
            e0 = extremal_edge(pair, RationalParameter(0, 1), cap)
            e1 = extremal_edge(pair, RationalParameter(1, 1), cap)
            assert abs(e0 * e1 - 1) <= 1e-12, (b, c, cap)


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
    # Which scales stall depends on the c that Brent visits; the walk itself
    # stalls at these c, whatever the sum of the terms.
    for c in (0.993, 0.997):
        delta_numeric(induced_system(pair), c)


@pytest.mark.slow
def test_population_sweep_certificates_reach_the_sturmian_maximum():
    # No call may raise but NoConvergence, and a Certified constant, the
    # maximum ergodic average, is at least the cap-40 Sturmian value.
    stalls = 0
    for seed in SWEEP_SEEDS:
        for i, pair in enumerate(class_d_population(seed, SWEEP_COUNT)):
            for s in SWEEP_SCALES:
                t = _scale(pair, s)
                try:
                    report = certify(pair, t)
                except NoConvergence:
                    stalls += 1
                    continue
                if report.verdict is Verdict.CERTIFIED:
                    _, value = sturmian_restricted_max(pair, t, SWEEP_CAP)
                    assert report.constant_value >= value - 1e-9, (seed, i, s)
    assert stalls <= SWEEP_STALLS
