import math
import random
from fractions import Fraction as F

import pytest

from sturmjsr import (
    Domination,
    Matrix2,
    MatrixPair,
    RationalParameter,
    counterexample_search,
    domination_check,
    gamma_of_t,
    induced_system,
    mechanical_word,
    parameter_map,
    plateau_bounds,
    staircase_scan,
    sturmian_restricted_max,
    thresholds,
)
from sturmjsr.errors import DomainError, NotInClassD, PlateauNotFound, PrefixTooShort
from sturmjsr.matrices import spectral_radius
from sturmjsr.staircase import _sturmian_table

from conftest import random_positive_matrix


def test_parameter_map_regimes(reference_pair):
    assert parameter_map(reference_pair, F(1, 4), 50).parameter == RationalParameter(0, 1)
    assert parameter_map(reference_pair, F(8), 50).parameter == RationalParameter(1, 1)


def test_parameter_map_plateau_midpoint(reference_pair):
    plat = plateau_bounds(reference_pair, RationalParameter(1, 2), 1e-6, 50)
    mid = math.sqrt(float(plat.t_lo) * float(plat.t_hi))
    assert parameter_map(reference_pair, mid, 50).parameter == RationalParameter(1, 2)


def test_parameter_map_agrees_with_direct_search(reference_pair, symmetric_pair):
    cases = [(reference_pair, t) for t in (0.5, 1.0, 2.0, 4.0)]
    for pair in (reference_pair, symmetric_pair):
        th = thresholds(pair)
        t0, t1 = float(th.t0), float(th.t1)
        cases += [(pair, t0 * (t1 / t0) ** ((k + 0.5) / 50)) for k in range(50)]
    for pair, t in cases:
        sample = parameter_map(pair, t, 40)
        param, value = sturmian_restricted_max(pair, t, 40)
        assert sample.parameter == param, t
        assert abs(sample.value - value) <= 1e-12


def test_plateau_midpoints_agree_with_direct_search(reference_pair):
    checked = 0
    for q in range(2, 41):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            param = RationalParameter(p, q)
            try:
                plat = plateau_bounds(reference_pair, param, 1e-6, 40)
            except PlateauNotFound:
                continue
            if plat.t_hi - plat.t_lo > 1e-6:
                mid = math.sqrt(plat.t_lo * plat.t_hi)
                assert sturmian_restricted_max(reference_pair, mid, 40)[0] == param, mid
                checked += 1
    assert checked > 100


def _word_value_oracle(factors: dict, word: str) -> float:
    """Per-letter log spectral radius at t = 1, one word at a time.

    Each letter multiplies, then divides by the largest |entry| as a
    reciprocal multiply and adds its log.  The product is spelled out
    because Matrix2.mul shares its formula with the walk under test.
    """
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
        m = f.max_abs_entry()
        prod, log_scale = f.scaled(1.0 / m), log_scale + math.log(m)
    return (math.log(spectral_radius(prod)) + log_scale) / len(word)


def test_sturmian_table_bits_match_per_word_products(reference_pair, symmetric_pair):
    rng = random.Random(20260)
    pairs = [reference_pair, symmetric_pair, reference_pair.to_float()] + [
        MatrixPair(random_positive_matrix(rng), random_positive_matrix(rng)) for _ in range(3)
    ]
    for pair in pairs:
        fpair = pair.to_float()
        factors = {"0": fpair.A0, "1": fpair.A1}
        rows = _sturmian_table(fpair.A0.entries() + fpair.A1.entries(), 60)
        assert [F(p, q) for p, q, _, _ in rows] == sorted(F(p, q) for p, q, _, _ in rows)
        got = {(p, q): value.hex() for p, q, value, _ in rows}
        want = {
            (p, q): _word_value_oracle(factors, mechanical_word(RationalParameter(p, q))).hex()
            for q in range(1, 61)
            for p in range(q + 1)
            if math.gcd(p, q) == 1
        }
        assert got == want


def test_parameter_map_rejects_outside_class():
    from sturmjsr import d2_pair

    with pytest.raises(NotInClassD):
        parameter_map(d2_pair(F(1, 2), F(3)), 1, 10)


def test_scan_monotone_with_extreme_endpoints(reference_pair):
    th = thresholds(reference_pair)
    rows = staircase_scan(reference_pair, float(th.t0) / 2, 2 * float(th.t1), 200, 40)
    params = [r.parameter.as_fraction() for r in rows]
    assert params[0] == 0 and params[-1] == 1
    assert all(a <= b for a, b in zip(params, params[1:]))
    ts = [float(r.t) for r in rows]
    assert ts == sorted(ts)


def test_scan_deterministic(reference_pair):
    rows1 = staircase_scan(reference_pair, 0.2, 16.0, 40, 25)
    rows2 = staircase_scan(reference_pair, 0.2, 16.0, 40, 25)
    assert rows1 == rows2


def test_scan_regime_agreement(reference_pair):
    rows = staircase_scan(reference_pair, 0.1, 20.0, 60, 25)
    for row in rows:
        regime = domination_check(reference_pair, row.t)
        if regime is Domination.A0_DOMINATES:
            assert row.parameter == RationalParameter(0, 1)
        elif regime is Domination.A1_DOMINATES:
            assert row.parameter == RationalParameter(1, 1)
        if 0 < row.parameter.as_fraction() < 1:
            assert regime is Domination.INTERIOR


def test_scan_validates_arguments(reference_pair):
    with pytest.raises(DomainError):
        staircase_scan(reference_pair, 2.0, 1.0, 10, 10)
    with pytest.raises(DomainError):
        staircase_scan(reference_pair, 0.5, 1.0, 1, 10)


def test_plateau_extremal_closed_forms(reference_pair):
    plat0 = plateau_bounds(reference_pair, RationalParameter(0, 1), 1e-9, 50)
    assert plat0.t_hi == F(24, 77)
    plat1 = plateau_bounds(reference_pair, RationalParameter(1, 1), 1e-9, 50)
    assert plat1.t_lo == F(61, 8)
    assert math.isinf(float(plat1.t_hi))


def test_plateau_half_width(reference_pair):
    plat = plateau_bounds(reference_pair, RationalParameter(1, 2), 1e-6, 50)
    assert float(plat.t_hi) - float(plat.t_lo) > 1e-4
    # Certified-inside endpoints.
    for t in (plat.t_lo, plat.t_hi):
        assert parameter_map(reference_pair, t, 50).parameter == RationalParameter(1, 2)


def test_plateau_not_found_when_masked(reference_pair):
    # At cap 40 the 13/34 plateau is below the value-tie resolution.
    with pytest.raises(PlateauNotFound):
        plateau_bounds(reference_pair, RationalParameter(13, 34), 1e-6, 40)


# Narrow plateaus next to much wider neighbours.  An argmax that keeps the
# earlier parameter on value ties within 1e-12 misreads the map near their
# edges, so edges found by searching it read a neighbouring parameter.
NARROW_AT_CAP_150 = [(1, 40)] + [(q - 1, q) for q in (96, 97, 98, 99, 101, 102, 107, 108, 111, 112)]


def test_narrow_plateau_edges_read_their_parameter(reference_pair):
    for p, q in NARROW_AT_CAP_150:
        param = RationalParameter(p, q)
        plat = plateau_bounds(reference_pair, param, 1e-10, 150)
        assert plat.t_lo <= plat.t_hi
        for t in (plat.t_lo, plat.t_hi):
            assert parameter_map(reference_pair, t, 150).parameter == param, (param, t)


@pytest.mark.parametrize("center, rel", [(0.346691725, 1e-8), (5.3969493, 1e-7)])
def test_parameter_map_monotone_among_narrow_plateaus(reference_pair, center, rel):
    ts = [center * (1 + rel * (k / 100 - 1)) for k in range(201)]
    params = [parameter_map(reference_pair, t, 150).parameter.as_fraction() for t in ts]
    assert len(set(params)) > 5
    assert params == sorted(params)


def test_zero_denominator_cap_rejected(reference_pair):
    with pytest.raises(DomainError):
        parameter_map(reference_pair, 0.1, 0)
    with pytest.raises(DomainError):
        staircase_scan(reference_pair, 0.2, 16.0, 10, 0)
    with pytest.raises(DomainError):
        plateau_bounds(reference_pair, RationalParameter(1, 2), 1e-6, 0)
    with pytest.raises(DomainError):
        counterexample_search(reference_pair, 0.38, 1e-6, 0)


def test_counterexample_brackets_shrink(reference_pair):
    target = (3 - math.sqrt(5)) / 2
    widths = []
    for cap in (10, 20, 40):
        res = counterexample_search(reference_pair, target, 1e-6, cap)
        assert res.bracket.lower.as_fraction() < F(target) < res.bracket.upper.as_fraction()
        assert res.t_lo < res.t < res.t_hi
        assert res.interior
        widths.append(res.t_hi - res.t_lo)
    assert widths[0] > widths[1] > widths[2]


def test_counterexample_rational_target_degenerates(reference_pair):
    res = counterexample_search(reference_pair, 0.5, 1e-6, 50)
    assert res.bracket.exact == RationalParameter(1, 2)
    plat = plateau_bounds(reference_pair, RationalParameter(1, 2), 1e-6, 50)
    assert abs(res.t_lo - float(plat.t_lo)) <= 1e-9
    assert abs(res.t_hi - float(plat.t_hi)) <= 1e-9


def test_counterexample_validates_target(reference_pair):
    with pytest.raises(DomainError):
        counterexample_search(reference_pair, 1.25, 1e-6, 10)
    with pytest.raises(DomainError):
        counterexample_search(reference_pair, 0.0, 1e-6, 10)


def test_interior_parameter_consistent_with_interval_coordinate(reference_pair):
    # The restricted-search parameter and the bracket from the matched
    # interval coordinate's symbolic position identify the same rational.
    from sturmjsr.staircase import parameter_bracket_of_coordinate

    th = thresholds(reference_pair)
    t0, t1 = float(th.t0), float(th.t1)
    for k in range(10):
        t = t0 * (t1 / t0) ** ((k + 0.5) / 10)
        sys = induced_system(reference_pair, t)
        param, _ = sturmian_restricted_max(reference_pair, t, 50)
        c_star = gamma_of_t(sys)
        try:
            bracket = parameter_bracket_of_coordinate(sys, c_star, 64)
        except PrefixTooShort:
            continue
        if bracket.exact is not None:
            assert bracket.exact == param, (t, param, bracket)
        else:
            assert (
                bracket.lower.as_fraction()
                <= param.as_fraction()
                <= bracket.upper.as_fraction()
            ), (t, param, bracket)
