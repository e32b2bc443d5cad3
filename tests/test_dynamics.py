import math
import random
from dataclasses import fields
from fractions import Fraction as F

import pytest

from sturmjsr import (
    Matrix2,
    MatrixPair,
    RationalParameter,
    f_eval,
    induced_system,
    mechanical_word,
    pair_report,
    periodic_point,
    projective_data,
    sturmian_interval_endpoints,
    word_product,
)
from sturmjsr.dynamics import (
    MEMBER_TOL,
    InducedSystem,
    apply_T,
    branch_of,
    contraction_eval,
    periodic_orbit,
    periodic_point_budget,
)
from sturmjsr.errors import DomainError, NotInClassC, NotInClassD

from conftest import mp_periodic_point


def test_induced_map_values(reference_pair, symmetric_pair):
    assert reference_pair.A0.moebius(F(1, 15)) == F(1, 15)
    assert Matrix2(2, 1, 1, 1).moebius(0) == F(1, 2)
    assert symmetric_pair.A0.moebius(1) == F(2, 5)


def test_induced_inverse_roundtrip(reference_pair):
    A = reference_pair.A0
    for k in range(101):
        x = F(k, 100)
        assert A.moebius_inverse(A.moebius(x)) == x


def test_induced_inverse_endpoints(reference_pair):
    assert reference_pair.A0.moebius_inverse(F(5, 12)) == 1
    assert reference_pair.A0.moebius_inverse(F(1, 36)) == 0


def test_induced_system_reference_intervals(reference_system):
    assert (reference_system.X0.lo, reference_system.X0.hi) == (F(1, 36), F(5, 12))
    assert (reference_system.X1.lo, reference_system.X1.hi) == (F(8, 15), F(120, 121))


def test_induced_system_symmetric_intervals(symmetric_system):
    assert (symmetric_system.X0.lo, symmetric_system.X0.hi) == (F(1, 5), F(2, 5))
    assert (symmetric_system.X1.lo, symmetric_system.X1.hi) == (F(3, 5), F(4, 5))


def test_induced_system_rejects_non_class_C():
    m = Matrix2(2, 1, 1, 1)
    with pytest.raises(NotInClassC):
        induced_system(MatrixPair(m, m))
    assert issubclass(NotInClassC, NotInClassD)


def test_induced_system_carries_the_class_report(reference_pair, c_not_d_pair):
    for pair in (reference_pair, c_not_d_pair):
        assert induced_system(pair).report == pair_report(pair)
    # The system is the pair's: the scale is an argument of f_eval, not a field.
    names = [f.name for f in fields(InducedSystem)]
    assert names == ["pair", "X0", "X1", "proj0", "proj1", "report"]
    assert induced_system(reference_pair).report.in_D
    assert not induced_system(c_not_d_pair).report.in_D


def test_f_values_at_image_endpoints(reference_pair):
    sys = induced_system(reference_pair)
    assert math.isclose(f_eval(sys, F(5, 12), 1), math.log(F(3, 2)), abs_tol=1e-14)
    assert math.isclose(f_eval(sys, F(8, 15), 1), math.log(F(15, 8)), abs_tol=1e-14)
    assert math.isclose(
        f_eval(sys, F(8, 15), 2), math.log(F(15, 8)) + math.log(2), abs_tol=1e-14
    )
    assert math.isclose(f_eval(sys, F(5, 12), 2), f_eval(sys, F(5, 12), 1), abs_tol=0)


def test_f_rejects_gap_points(reference_system):
    with pytest.raises(DomainError):
        f_eval(reference_system, 0.47, 1)


def test_itinerary_of_fixed_points(reference_system):
    # The branch fixed points are fixed by the map on the exact path, so
    # their itineraries are constant.
    for x, letter in ((F(1, 15), 0), (F(16, 17), 1)):
        assert branch_of(reference_system, x) == letter
        assert apply_T(reference_system, x) == x


def test_itinerary_escapes_in_gap(reference_system):
    gap_mid = (reference_system.X0.hi + reference_system.X1.lo) / 2
    assert branch_of(reference_system, gap_mid) is None
    with pytest.raises(DomainError):
        apply_T(reference_system, gap_mid)


def test_periodic_point_fixed_letters(reference_system):
    assert abs(periodic_point(reference_system, "0") - 1 / 15) <= 1e-12
    assert abs(periodic_point(reference_system, "1") - 16 / 17) <= 1e-12


def test_periodic_point_matches_product_fixed_point(reference_pair, symmetric_pair):
    rng = random.Random(32)
    for pair in (reference_pair, symmetric_pair):
        sys = induced_system(pair)
        for _ in range(25):
            n = rng.randint(1, 8)
            word = "".join(rng.choice("01") for _ in range(n))
            prod, _ = word_product(pair, F(1), word)
            expect = projective_data(prod).fixed_point
            assert abs(periodic_point(sys, word) - float(expect)) <= 1e-10


def _iterated_periodic_point(sys, word):
    """The composed contraction iterated from 1/2 until a step is below 1e-14."""
    x = 0.5
    for _ in range(10000):
        y = x
        for ch in reversed(word):
            y = float(contraction_eval(sys, int(ch), y))
        if abs(y - x) < 1e-14:
            return y
        x = y
    raise AssertionError(f"no convergence for {word!r}")


def test_periodic_point_matches_the_iteration(reference_pair, symmetric_pair):
    rng = random.Random(34)
    for pair in (reference_pair, symmetric_pair, reference_pair.to_float()):
        sys = induced_system(pair)
        for _ in range(40):
            word = "".join(rng.choice("01") for _ in range(rng.randint(1, 24)))
            assert abs(periodic_point(sys, word) - _iterated_periodic_point(sys, word)) <= 1e-13


def test_periodic_point_of_a_letter_within_budget(reference_system):
    # The iteration stopped 9.1e-15 away from 1/15.
    assert abs(periodic_point(reference_system, "0") - 1 / 15) <= periodic_point_budget(1)
    assert abs(periodic_point(reference_system, "1") - 16 / 17) <= periodic_point_budget(1)


def test_periodic_point_within_budget_of_mpmath(reference_pair, symmetric_pair):
    mpmath = pytest.importorskip("mpmath")
    params = ((1, 2), (2, 5), (8, 21), (1, 40), (39, 40), (55, 144), (89, 233), (1, 320), (99, 320))
    for pair in (reference_pair, symmetric_pair, reference_pair.to_float()):
        sys = induced_system(pair)
        for p, q in params:
            word = mechanical_word(RationalParameter(p, q))
            for k in sorted({0, 1, q // 3, q - 1}):
                rot = word[k:] + word[:k]
                with mpmath.workdps(60):
                    want = mp_periodic_point(mpmath, pair, rot)
                    err = abs(periodic_point(sys, rot) - want)
                assert err <= periodic_point_budget(q), (p, q, k, float(err))


def test_periodic_orbit_walks_the_rotations(reference_pair, symmetric_pair):
    rng = random.Random(35)
    for pair in (reference_pair, symmetric_pair):
        sys = induced_system(pair)
        for _ in range(20):
            word = "".join(rng.choice("01") for _ in range(rng.randint(1, 30)))
            orbit = periodic_orbit(sys, word)
            assert len(orbit) == len(word)
            for k, x in enumerate(orbit):
                assert branch_of(sys, x) == int(word[k])
                rot = word[k:] + word[:k]
                assert abs(x - periodic_point(sys, rot)) <= 2 * periodic_point_budget(len(word))


def test_itinerary_of_periodic_points(reference_pair, symmetric_pair):
    rng = random.Random(33)
    for pair in (reference_pair, symmetric_pair):
        sys = induced_system(pair)
        for _ in range(20):
            n = rng.randint(1, 8)
            word = "".join(rng.choice("01") for _ in range(n))
            x = periodic_point(sys, word)
            # Expansion amplifies the point's rounding error, so two periods
            # is the honest horizon for exact symbol recovery.
            for letter in word * 2:
                assert branch_of(sys, x) == int(letter)
                x = apply_T(sys, x)
            assert -MEMBER_TOL <= x <= 1 + MEMBER_TOL


def test_expanding_map_inverts_contractions(reference_system):
    for i in (0, 1):
        for k in range(101):
            x = k / 100
            y = contraction_eval(reference_system, i, x)
            assert abs(apply_T(reference_system, y) - x) <= 1e-12


def test_branch_shapes_on_grid(reference_system):
    # Second differences: concave for the symbol-0 contraction, convex for 1.
    h = 0.01
    for k in range(1, 99):
        x = k / 100
        d2_0 = (
            contraction_eval(reference_system, 0, x - h)
            - 2 * contraction_eval(reference_system, 0, x)
            + contraction_eval(reference_system, 0, x + h)
        )
        d2_1 = (
            contraction_eval(reference_system, 1, x - h)
            - 2 * contraction_eval(reference_system, 1, x)
            + contraction_eval(reference_system, 1, x + h)
        )
        assert d2_0 < 0 < d2_1


def test_f_monotone_on_branches(reference_system):
    g0 = reference_system.X0.grid(64)
    vals0 = [f_eval(reference_system, x, 1) for x in g0]
    assert all(b > a for a, b in zip(vals0, vals0[1:]))
    g1 = reference_system.X1.grid(64)
    vals1 = [f_eval(reference_system, x, 1) for x in g1]
    assert all(b < a for a, b in zip(vals1, vals1[1:]))


def test_f_derivative_formula(reference_system):
    h = 1e-6
    sys = reference_system
    for interval, sigma in ((sys.X0, sys.proj0.sigma), (sys.X1, sys.proj1.sigma)):
        lo, hi = float(interval.lo), float(interval.hi)
        for k in range(1, 10):
            x = lo + (hi - lo) * k / 10
            diff = (f_eval(sys, x + h, 1) - f_eval(sys, x - h, 1)) / (2 * h)
            assert abs(diff - (-1.0 / (x + float(sigma)))) <= 1e-6


def test_telescoped_derivative_sum(reference_system, symmetric_system):
    # Partial sums of d/dx f(T_i^n(x)) converge to 1/(x + rho_i).
    h = 1e-6
    rng = random.Random(34)
    for sys in (reference_system, symmetric_system):
        for i, rho in ((0, sys.proj0.rho), (1, sys.proj1.rho)):
            for _ in range(5):
                x = rng.uniform(0.05, 0.95)
                total = 0.0
                up, dn = x + h, x - h
                for _n in range(250):
                    up = float(contraction_eval(sys, i, up))
                    dn = float(contraction_eval(sys, i, dn))
                    total += (f_eval(sys, up, 1) - f_eval(sys, dn, 1)) / (2 * h)
                assert abs(total - 1.0 / (x + float(rho))) <= 1e-6


def test_hybrid_image_matches_interval_pieces(reference_system):
    # The hybrid contraction applies branch 1 on [0, c) and branch 0 on [c, 1].
    sys = reference_system
    c = 0.37
    spec = sturmian_interval_endpoints(sys, c)
    assert abs(contraction_eval(sys, 0, c) - spec.piece0.lo) <= 1e-14
    assert abs(contraction_eval(sys, 0, 1.0) - spec.piece0.hi) <= 1e-14
    assert abs(contraction_eval(sys, 1, 0.0) - spec.piece1.lo) <= 1e-14
    lim = contraction_eval(sys, 1, c)
    assert abs(float(lim) - spec.piece1.hi) <= 1e-14


def test_interval_pieces_extremal_cases(reference_system):
    spec0 = sturmian_interval_endpoints(reference_system, 0)
    assert spec0.piece1 is None
    assert (spec0.piece0.lo, spec0.piece0.hi) == (F(1, 36), F(5, 12))
    spec1 = sturmian_interval_endpoints(reference_system, 1)
    assert spec1.piece0 is None
    assert (spec1.piece1.lo, spec1.piece1.hi) == (F(8, 15), F(120, 121))


def test_interval_pieces_symmetric_midpoint(symmetric_system):
    spec = sturmian_interval_endpoints(symmetric_system, F(1, 2))
    assert (spec.piece0.lo, spec.piece0.hi) == (F(1, 3), F(2, 5))
    assert (spec.piece1.lo, spec.piece1.hi) == (F(3, 5), F(2, 3))


def test_interval_pieces_map_back_to_c(reference_system):
    for c in (0.2, 0.5, 0.8):
        spec = sturmian_interval_endpoints(reference_system, c)
        assert abs(apply_T(reference_system, spec.piece0.lo) - c) <= 1e-12
        assert abs(apply_T(reference_system, spec.piece1.hi) - c) <= 1e-12


def test_branch_of_tolerates_endpoint_drift(reference_system):
    x = float(reference_system.X0.hi) + 5e-13
    assert branch_of(reference_system, x) == 0
