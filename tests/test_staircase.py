import bisect
import dataclasses
import functools
import hashlib
import math
import random
from decimal import Decimal
from fractions import Fraction as F

import pytest

from sturmjsr import (
    Domination,
    MatrixPair,
    ParameterBracket,
    RationalParameter,
    certify,
    counterexample_search,
    delta_numeric,
    domination_check,
    gamma_of_t,
    induced_system,
    mechanical_word,
    parameter_map,
    periodic_point,
    plateau_bounds,
    staircase_scan,
    sturmian_restricted_max,
    thresholds,
)
from sturmjsr.certify import TAIL_TOL
from sturmjsr.dynamics import periodic_point_budget
from sturmjsr.matrices import Matrix2, fixed_point, spectral_radius
from sturmjsr.errors import DomainError, NonPositiveScale, NotInClassC, NotInClassD, PlateauNotFound
from sturmjsr.jsr import _sturmian_table
from sturmjsr import staircase
from sturmjsr.cli import _parse_target
from sturmjsr.staircase import parameter_bracket_of_coordinate
from sturmjsr.words import stern_brocot_words

from conftest import (
    extremal_edge,
    farey_walk_oracle,
    mp_periodic_point,
    random_positive_matrix,
    word_value_oracle,
)


def test_parameter_map_regimes(reference_pair):
    assert parameter_map(reference_pair, F(1, 4), 50).parameter == RationalParameter(0, 1)
    assert parameter_map(reference_pair, F(8), 50).parameter == RationalParameter(1, 1)


@pytest.fixture(params=["reference", "d2", "float-reference"])
def threshold_pair(request, reference_pair, symmetric_pair):
    return {
        "reference": reference_pair,
        "d2": symmetric_pair,
        "float-reference": reference_pair.to_float(),
    }[request.param]


def test_inside_is_the_exact_rule_on_floats(threshold_pair):
    th = thresholds(threshold_pair)
    lo, hi = th.inside
    assert [f.name for f in dataclasses.fields(th)] == ["t0", "t1"]
    assert th.regime(lo) is th.regime(hi) is Domination.INTERIOR
    assert th.regime(math.nextafter(lo, 0.0)) is Domination.A0_DOMINATES
    assert th.regime(math.nextafter(hi, math.inf)) is Domination.A1_DOMINATES


def test_parameter_map_next_to_the_thresholds_follows_the_regime(threshold_pair):
    th, fpair = thresholds(threshold_pair), threshold_pair.to_float()
    log_r0 = math.log(spectral_radius(fpair.A0))
    log_r1 = math.log(spectral_radius(fpair.A1))
    seen = set()
    for edge in (float(th.t0), float(th.t1)):
        ts = [edge]
        for _ in range(4):
            ts = [math.nextafter(ts[0], 0.0), *ts, math.nextafter(ts[-1], math.inf)]
        for t in ts:
            regime = domination_check(threshold_pair, t)
            sample = parameter_map(threshold_pair, t, 40)
            seen.add(regime)
            if regime is Domination.A0_DOMINATES:
                assert (sample.parameter, sample.value) == (RationalParameter(0, 1), log_r0)
            elif regime is Domination.A1_DOMINATES:
                assert sample.parameter == RationalParameter(1, 1)
                assert sample.value == math.log(t) + log_r1
    assert seen == set(Domination)


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


@pytest.mark.parametrize("name", ["reference_pair", "symmetric_pair"])
def test_plateau_edges_are_where_the_matching_functional_meets_the_c_interval(request, name):
    # Second route to every interior edge at cap 150: the scale matched to c
    # is K exp(-Delta(c)), K = (a0 + c0)/(b1 + d1), and the plateau of p/q
    # runs between the scales matched to the ends of its c-interval.  Delta
    # sums three series, each to a tail below TAIL_TOL, so it is within
    # 3 TAIL_TOL of its limit; 10 TAIL_TOL leaves room for the float error
    # of the envelope's meets and the c-interval ends, about 1e-12 here.
    pair = request.getfixturevalue(name)
    sys = induced_system(pair)
    point = functools.partial(periodic_point, sys)
    log_k = math.log((pair.A0.a + pair.A0.c) / (pair.A1.b + pair.A1.d))
    resolved = 0
    for p, q, word in _sturmian_words(13):
        if q == 1:
            continue
        plat = plateau_bounds(pair, RationalParameter(p, q), 1e-9, 150)
        for edge, c in zip((plat.t_lo, plat.t_hi), _c_interval(point, p, q, word)):
            assert abs(math.log(edge) - (log_k - delta_numeric(sys, c))) <= 10 * TAIL_TOL, (p, q)
        resolved += 1
    assert resolved == 57


def test_sturmian_table_bits_match_per_word_products(reference_pair, symmetric_pair):
    rng = random.Random(20260)
    pairs = [reference_pair, symmetric_pair, reference_pair.to_float()] + [
        MatrixPair(random_positive_matrix(rng), random_positive_matrix(rng)) for _ in range(3)
    ]
    for pair in pairs:
        fpair = pair.to_float()
        rows = _sturmian_table(fpair, 1.0, 60)
        assert [F(p, q) for p, q, _ in rows] == sorted(F(p, q) for p, q, _ in rows)
        got = {(p, q): value.hex() for p, q, value in rows}
        want = {
            (p, q): word_value_oracle(fpair, 1.0, mechanical_word(RationalParameter(p, q))).hex()
            for q in range(1, 61)
            for p in range(q + 1)
            if math.gcd(p, q) == 1
        }
        assert got == want


# sha256 of "p/q value.hex()" lines, one per row of the cap-150 table.
PINNED_TABLES = {
    "reference": "158934dc9e7139adf231ad8b6a387391fd685d0b8be33ba6a4b72b7080b841cd",
    "d2": "71d6149df60400aa11ceacb4795f76efb9551f6258e57c12643114023f98feee",
}


@pytest.mark.parametrize("case", list(PINNED_TABLES))
def test_sturmian_table_bits_are_pinned_at_cap_150(reference_pair, symmetric_pair, case):
    # A change that moves any bit of the table must say so here.
    fpair = {"reference": reference_pair, "d2": symmetric_pair}[case].to_float()
    rows = _sturmian_table(fpair, 1.0, 150)
    text = "\n".join(f"{p}/{q} {value.hex()}" for p, q, value in rows)
    assert len(rows) == 6859
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TABLES[case]


def test_parameter_map_rejects_outside_class(c_not_d_pair):
    from sturmjsr import d2_pair

    # The class is reported before the scale.
    for pair in (d2_pair(F(1, 2), F(3)), c_not_d_pair):
        for t in (1, -1):
            with pytest.raises(NotInClassD):
                parameter_map(pair, t, 10)


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


def test_plateau_extremal_edges_are_envelope_segments(reference_pair):
    # The plateau of 0/1 runs past t0 = 24/77 and that of 1/1 starts before
    # t1 = 61/8; at cap 1 the two lines meet at t = 1, where r(A0) = r(A1) = 1.
    for pair in (reference_pair, reference_pair.to_float()):
        for cap in (1, 50, 150):
            e0 = extremal_edge(pair, RationalParameter(0, 1), cap)
            e1 = extremal_edge(pair, RationalParameter(1, 1), cap)
            assert F(24, 77) < e0 < e1 < F(61, 8), (cap, e0, e1)
        assert abs(extremal_edge(pair, RationalParameter(0, 1), 1) - 1) < 1e-15


@pytest.mark.parametrize("offset", [1e-4, 1e-6])
@pytest.mark.parametrize("name", ["reference_pair", "symmetric_pair"])
def test_extremal_edges_are_where_c_star_meets_the_fixed_points(request, name, offset):
    # Second route to the edges at cap 150: the matched coordinate c* of
    # certify passes x0 at the edge of 0/1 and x1 at the edge of 1/1, and the
    # descent reads 0/1 below x0 and 1/1 above x1.
    pair = request.getfixturevalue(name)
    sys = induced_system(pair)
    # sign is the side of the edge, and of x_i, on which the plateau lies.
    for param, x_i, sign in ((RationalParameter(0, 1), float(fixed_point(pair.A0)), -1),
                             (RationalParameter(1, 1), float(fixed_point(pair.A1)), 1)):
        edge = extremal_edge(pair, param, 150)
        c_in = certify(pair, edge * (1 + sign * offset)).c
        c_out = certify(pair, edge * (1 - sign * offset)).c
        assert sign * (c_in - x_i) > 0 > sign * (c_out - x_i), (param, c_in, c_out, x_i)
        assert parameter_bracket_of_coordinate(sys, c_in).exact == param, (param, c_in)


def test_d2_extremal_edges_are_reciprocal(symmetric_pair):
    # (A0, A1/t) is (A0, t*A1) mirrored, so the edges of 0/1 and 1/1 multiply to 1.
    for cap in (10, 40, 150):
        e0 = extremal_edge(symmetric_pair, RationalParameter(0, 1), cap)
        e1 = extremal_edge(symmetric_pair, RationalParameter(1, 1), cap)
        assert abs(e0 * e1 - 1) <= 1e-12, (cap, e0 * e1 - 1)


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


# The scale of the golden-mean target on the reference pair, from ROADMAP item
# 11: meets of the golden convergents in 90-digit decimal, which agree with
# 100-digit mpmath in all 68 digits.
GOLDEN_SCALE = F(Decimal("0.66474662359808323493205597167834385666907758211584531360067340924551"))


def _golden_bracket_contains_its_scale(pair, cap):
    res = counterexample_search(pair, (3 - math.sqrt(5)) / 2, 1e-10, cap)
    return F(res.t_lo) <= GOLDEN_SCALE <= F(res.t_hi)


@pytest.mark.parametrize("cap", [20, 40])
def test_counterexample_bracket_contains_the_golden_scale(reference_pair, cap):
    assert _golden_bracket_contains_its_scale(reference_pair, cap)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the cap-150 envelope's bracket misses the scale by 1.27e-14",
)
def test_counterexample_bracket_contains_the_golden_scale_at_cap_150(reference_pair):
    assert _golden_bracket_contains_its_scale(reference_pair, 150)


def test_counterexample_rational_target_degenerates(reference_pair):
    res = counterexample_search(reference_pair, 0.5, 1e-6, 50)
    assert res.bracket.exact == RationalParameter(1, 2)
    plat = plateau_bounds(reference_pair, RationalParameter(1, 2), 1e-6, 50)
    assert abs(res.t_lo - float(plat.t_lo)) <= 1e-9
    assert abs(res.t_hi - float(plat.t_hi)) <= 1e-9


def test_counterexample_ends_clipped_at_a_threshold_stay_inside(threshold_pair):
    lo, hi = thresholds(threshold_pair).inside
    below = counterexample_search(threshold_pair, 1e-3, 1e-6, 40)
    above = counterexample_search(threshold_pair, 1 - 1e-3, 1e-6, 40)
    assert below.bracket.lower == RationalParameter(0, 1)
    assert above.bracket.upper == RationalParameter(1, 1)
    assert (below.t_lo, above.t_hi) == (lo, hi)
    assert below.interior and above.interior


def test_counterexample_validates_target(reference_pair):
    with pytest.raises(DomainError):
        counterexample_search(reference_pair, 1.25, 1e-6, 10)
    with pytest.raises(DomainError):
        counterexample_search(reference_pair, 0.0, 1e-6, 10)


def test_the_class_is_checked_before_the_other_arguments(c_not_d_pair):
    # Resolution, target and tol were checked first, so these were DomainError.
    not_c = MatrixPair(Matrix2(1, F(1, 2), F(1, 2), 1), Matrix2(1, F(1, 2), F(1, 2), 1))
    for pair, error in ((not_c, NotInClassC), (c_not_d_pair, NotInClassD)):
        with pytest.raises(error):
            plateau_bounds(pair, RationalParameter(1, 2), 0, 20)
        for target, tol in ((0.38, 0), (1.5, 1e-6), (0.38, -1.0)):
            with pytest.raises(error):
                counterexample_search(pair, target, tol, 20)


def _reduced_fractions(max_den):
    """(p, q) per reduced p/q in [0, 1] with q <= max_den, rising: the Farey next-term rule."""
    a, b, c, d = 0, 1, 1, max_den
    out = [(a, b)]
    while c <= max_den:
        k = (max_den + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        out.append((a, b))
    return out


def test_float_slopes_of_reduced_fractions_strictly_increase():
    fracs = _reduced_fractions(150)
    assert len(fracs) == 6859
    slopes = [p / q for p, q in fracs]
    assert all(u < v for u, v in zip(slopes, slopes[1:]))


def _bits(x):
    return type(x).__name__, float(x).hex()


def _plateau_oracle(env, param):
    """The plateau's edges, the envelope's parameters bisected by the exact Fraction key."""
    k = bisect.bisect_left(env.params, param.as_fraction(), key=RationalParameter.as_fraction)
    if k == len(env.params) or env.params[k] != param:
        return PlateauNotFound
    lo, hi = env.breaks[k], env.breaks[k + 1]
    return max(lo, 0), (math.nextafter(hi, 0.0) if hi < math.inf else hi)


def _counterexample_oracle(pair, env, target, cap):
    """counterexample_search's result by the Fraction walk and Fraction-keyed bisections."""
    lo, hi = thresholds(pair).inside
    p_lo, p_hi = farey_walk_oracle(target if isinstance(target, F) else F(float(target)), cap)
    if p_lo == p_hi:
        edges = _plateau_oracle(env, RationalParameter.from_fraction(p_lo))
        if edges is PlateauNotFound:
            return edges
        t_lo, t_hi = edges
    else:
        key = RationalParameter.as_fraction
        left = env.breaks[bisect.bisect_left(env.params, p_lo, key=key)]
        right = env.breaks[bisect.bisect_right(env.params, p_hi, key=key)]
        t_lo = min(max(math.nextafter(left, 0.0), lo), hi)
        t_hi = max(min(right, hi), lo)
    t = math.sqrt(t_lo * t_hi)
    return p_lo, p_hi, t_lo.hex(), t_hi.hex(), t.hex(), lo <= t <= hi


def _outcome(call, *args):
    try:
        return call(*args)
    except PlateauNotFound:
        return PlateauNotFound


@pytest.mark.parametrize("cap", [13, 150])
def test_plateau_lookups_match_the_fraction_keyed_bisection(threshold_pair, cap):
    env = staircase._pair_envelope(threshold_pair, cap)
    for p, q in _reduced_fractions(150):
        param = RationalParameter(p, q)
        got = _outcome(plateau_bounds, threshold_pair, param, 1e-6, cap)
        want = _plateau_oracle(env, param)
        if got is PlateauNotFound or want is PlateauNotFound:
            assert got is want, (param, cap)
        else:
            assert (_bits(got.t_lo), _bits(got.t_hi)) == tuple(map(_bits, want)), (param, cap)


def _seeded_targets(rng):
    """Floats (some tiny, some next to 1), exact fractions, and cf: values with terms <= 200."""
    floats = [rng.random() for _ in range(70)]
    floats += [10 ** -rng.uniform(1, 300) for _ in range(15)]
    floats += [1 - 10 ** -rng.uniform(1, 15) for _ in range(15)]
    exact = []
    for _ in range(100):
        m = rng.randrange(2, 10 ** rng.randint(1, 12))
        exact.append(F(rng.randrange(1, m), m))
    cfs = []
    while len(cfs) < 100:
        terms = [rng.randint(1, 200) for _ in range(rng.randint(1, 8))]
        x = _parse_target("cf:0," + ",".join(map(str, terms)))
        if x < 1:
            cfs.append(x)
    return floats + exact + cfs


@pytest.mark.parametrize("cap", [13, 150])
def test_counterexample_lookups_match_the_fraction_walk(threshold_pair, cap):
    env = staircase._pair_envelope(threshold_pair, cap)
    for target in _seeded_targets(random.Random(cap)):
        got = _outcome(counterexample_search, threshold_pair, target, 1e-6, cap)
        if got is not PlateauNotFound:
            br = got.bracket
            assert br.exact == (br.lower if br.lower == br.upper else None)
            got = (
                br.lower.as_fraction(), br.upper.as_fraction(),
                got.t_lo.hex(), got.t_hi.hex(), got.t.hex(), got.interior,
            )
        assert got == _counterexample_oracle(threshold_pair, env, target, cap), (target, cap)


def test_scan_checks_its_window_before_the_table(reference_pair, monkeypatch):
    def no_table(*args):
        raise AssertionError("the Sturmian table was built")

    # No other test uses cap 149, so its envelope is not cached: the last call shows it.
    monkeypatch.setattr(staircase, "_sturmian_table", no_table)
    for t_min, t_max, samples in ((2, 1, 200), (1, 2, 1), (1e-200, 1e200, 3)):
        with pytest.raises(DomainError):
            staircase_scan(reference_pair, t_min, t_max, samples, 149)
    with pytest.raises(AssertionError, match="table was built"):
        staircase_scan(reference_pair, 1, 2, 3, 149)


def test_interior_parameter_consistent_with_interval_coordinate(reference_pair):
    # The restricted-search parameter and the bracket from the matched
    # interval coordinate's symbolic position identify the same rational.
    th = thresholds(reference_pair)
    t0, t1 = float(th.t0), float(th.t1)
    for k in range(10):
        t = t0 * (t1 / t0) ** ((k + 0.5) / 10)
        sys = induced_system(reference_pair)
        param, _ = sturmian_restricted_max(reference_pair, t, 50)
        c_star = gamma_of_t(sys, t)
        bracket = parameter_bracket_of_coordinate(sys, c_star)
        if bracket.exact is not None:
            assert bracket.exact == param, (t, param, bracket)
        else:
            assert (
                bracket.lower.as_fraction()
                <= param.as_fraction()
                <= bracket.upper.as_fraction()
            ), (t, param, bracket)


def test_parameter_map_rejects_a_non_positive_scale(reference_pair):
    for t in (0, -1.0):
        with pytest.raises(NonPositiveScale):
            parameter_map(reference_pair, t, 10)


def test_scan_rejects_a_non_positive_t_min(reference_pair):
    for t_min in (0, -1.0):
        with pytest.raises(NonPositiveScale):
            staircase_scan(reference_pair, t_min, 1, 10, 10)


def _sturmian_words(max_den):
    """(p, q, mechanical word) per reduced p/q with q <= max_den, by rising p/q."""
    return [(w.count("1"), len(w), w) for _, w in stern_brocot_words(max_den)]


def _c_interval(point, p, q, word):
    """The c-interval of p/q from a periodic-point function of words."""
    if q == 1:
        return (0, point("0")) if p == 0 else (point("1"), 1)
    u = word[1:-1]
    return point(u + "01"), point(u + "10")


def test_descent_reads_the_extremal_and_half_parameters(reference_system, symmetric_system):
    for sys in (reference_system, symmetric_system):
        assert parameter_bracket_of_coordinate(sys, 0).exact == RationalParameter(0, 1)
        assert parameter_bracket_of_coordinate(sys, 1).exact == RationalParameter(1, 1)
        gap = (sys.X0.hi + sys.X1.lo) / 2  # inside the interval of 1/2
        assert parameter_bracket_of_coordinate(sys, gap).exact == RationalParameter(1, 2)
    with pytest.raises(DomainError):
        parameter_bracket_of_coordinate(reference_system, 1.5)
    with pytest.raises(DomainError):
        parameter_bracket_of_coordinate(reference_system, math.nan)


def test_descent_reads_every_interval_midpoint(reference_pair, symmetric_pair):
    # A midpoint is inside its interval by more than the budget whenever
    # the width exceeds 8 budgets, whatever the rounding of either route.
    for pair in (reference_pair, symmetric_pair, reference_pair.to_float()):
        sys = induced_system(pair)
        point = functools.partial(periodic_point, sys)
        resolved = 0
        for p, q, word in _sturmian_words(20):
            lo, hi = _c_interval(point, p, q, word)
            if hi - lo > 8 * periodic_point_budget(q):
                bracket = parameter_bracket_of_coordinate(sys, (lo + hi) / 2)
                assert bracket.exact == RationalParameter(p, q), (p, q, bracket)
                resolved += 1
        assert resolved >= 60


def test_descent_brackets_are_monotone_in_c(reference_pair, symmetric_pair):
    rng = random.Random(71)
    for pair in (reference_pair, symmetric_pair):
        sys = induced_system(pair)
        point = functools.partial(periodic_point, sys)
        cs = [rng.random() for _ in range(400)]
        for p, q, word in _sturmian_words(12):
            for end in _c_interval(point, p, q, word):
                cs += [end, math.nextafter(end, 0.0), math.nextafter(end, 1.0)]
        brackets = [parameter_bracket_of_coordinate(sys, c) for c in sorted(cs)]
        for a, b in zip(brackets, brackets[1:]):
            assert a.lower.as_fraction() <= b.lower.as_fraction()
            assert a.upper.as_fraction() <= b.upper.as_fraction()
            assert (a.exact is None) == (a.lower != a.upper)


def test_descent_agrees_with_mpmath_intervals(reference_pair, symmetric_pair):
    # Every interval end with q <= 20, at 0, 1 and 3 ulp and 1e-13 and 1e-9
    # on either side, plus uniform draws.  Inside a 60-digit interval the
    # answer must hold its parameter; between two intervals it must reach
    # strictly between their parameters.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(72)
    for pair in (reference_pair, symmetric_pair, reference_pair.to_float()):
        sys = induced_system(pair)
        with mpmath.workdps(60):
            point = functools.partial(mp_periodic_point, mpmath, pair)
            rows = [(F(p, q), *_c_interval(point, p, q, w)) for p, q, w in _sturmian_words(20)]
        ends = [float(x) for _, lo, hi in rows for x in (lo, hi)]
        cs = [x + k * math.ulp(x) for x in ends for k in (-3, -1, 0, 1, 3)]
        cs += [x + d for x in ends for d in (-1e-9, -1e-13, 1e-13, 1e-9)]
        cs += [rng.random() for _ in range(200)]
        his = [hi for _, _, hi in rows]
        for c in (c for c in cs if 0 <= c <= 1):
            b = parameter_bracket_of_coordinate(sys, c)
            lower, upper = b.lower.as_fraction(), b.upper.as_fraction()
            with mpmath.workdps(60):
                k = bisect.bisect_left(his, mpmath.mpf(c))  # first interval not left of c
                inside = rows[k][1] <= c
            # An exact answer has lower = upper = exact.
            if inside:
                assert lower <= rows[k][0] <= upper, (c, b)
            else:  # the parameter lies strictly between the neighbours' ones
                assert rows[k - 1][0] < upper and lower < rows[k][0], (c, b)


def test_descent_pinned_coordinates(reference_system):
    # The itinerary route raised PrefixTooShort at the first coordinate,
    # 1e-9 inside the 4.4e-5-wide interval of 32/33, and read 25/37 at the
    # second, 3.1e-17 inside the interval of 2/3 at its upper end: within
    # budget of that end, so 2/3 and the parameter across it bracket c.
    bracket = parameter_bracket_of_coordinate(reference_system, 0.9409410856833611)
    assert bracket.exact == RationalParameter(32, 33)
    bracket = parameter_bracket_of_coordinate(reference_system, 0.7450989375448602)
    assert bracket == ParameterBracket(RationalParameter(2, 3), RationalParameter(21, 31))
