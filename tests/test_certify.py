import importlib
import math
import random
from fractions import Fraction as F

import pytest

from sturmjsr import (
    Domination,
    Matrix2,
    MatrixPair,
    Verdict,
    certify,
    d2_pair,
    delta_extremal,
    delta_numeric,
    domination_check,
    gamma_of_t,
    induced_system,
    phi_extremal,
    phi_series,
    projective_data,
    scale_pair,
    sturmian_restricted_max,
    thresholds,
)
from sturmjsr.certify import (
    _branch_floats,
    _brent,
    _grid_pass,
    _phi_batch,
    delta_extremal_ratio,
    endpoint_ratio_log,
)
from sturmjsr.dynamics import apply_T, f_eval, sturmian_interval_endpoints
from sturmjsr.errors import (
    DomainError,
    NoConvergence,
    NonPositiveScale,
    NotInClassC,
    NotInClassD,
    OutOfInteriorRange,
)

from conftest import random_rational


def _class_pairs(rng, count):
    pairs = []
    while len(pairs) < count:
        b = F(rng.randint(1, 99), 100)
        c = F(rng.randint(11, 60), 10)
        if b * c < 1 < c:
            pairs.append(d2_pair(b, c))
    return pairs


def test_phi_extremal_normalization_and_values(reference_system):
    assert phi_extremal(reference_system, 0, 0) == 0
    assert phi_extremal(reference_system, 1, 0) == 0
    assert math.isclose(phi_extremal(reference_system, 0, 1), math.log(F(7, 3)), abs_tol=1e-15)
    assert math.isclose(phi_extremal(reference_system, 1, 1), math.log(F(1, 8)), abs_tol=1e-15)


def test_phi_series_matches_extremal_closed_forms(reference_system, symmetric_system):
    for sys in (reference_system, symmetric_system):
        for i in (0, 1):
            for k in range(21):
                z = k / 20
                assert abs(phi_series(sys, float(i), z) - phi_extremal(sys, i, z)) <= 1e-8


def test_phi_series_vanishes_at_zero(reference_system):
    for c in (0.0, 0.3, 0.7, 1.0):
        assert phi_series(reference_system, c, 0.0) == 0.0


@pytest.mark.parametrize("tol", [0, -1e-12, math.nan, math.inf, 1e400])
def test_tail_tolerance_must_be_positive_and_finite(reference_pair, reference_system, tol):
    # At t = 1/8 A0 dominates, so certify runs no series: it checks first.
    with pytest.raises(DomainError):
        delta_numeric(reference_system, 0.5, tol)
    with pytest.raises(DomainError):
        certify(reference_pair, F(1, 8), tail_tol=tol)


def test_phi_series_depth_cap(reference_system, monkeypatch):
    monkeypatch.setattr(importlib.import_module("sturmjsr.certify"), "SERIES_MAX_DEPTH", 5)
    with pytest.raises(NoConvergence):
        phi_series(reference_system, 0.5, 1.0)


def test_phi_batch_values_do_not_depend_on_the_other_points(reference_system, symmetric_system):
    # The pieces depend on c only, so each point of a batch reads the same
    # bits alone, and delta_numeric is its three-point batch.
    for sys in (reference_system, symmetric_system):
        ends = [1.0, float(sys.X0.hi), float(sys.X1.lo)]
        zs = [0.0, 1 / 3, 0.5, 0.9] + ends + [float(sys.X0.lo), float(sys.X1.hi)]
        for c in (0.0, 0.3, 0.7, 1.0):
            batch = _phi_batch(sys, c, zs)
            for z, value in zip(zs, batch):
                assert value.hex() == _phi_batch(sys, c, [z])[0].hex(), (c, z)
            v_end, v0, v1 = batch[4:7]
            assert delta_numeric(sys, c).hex() == (v_end - (v0 - v1)).hex()


def test_series_split_at_a_rounded_pole_raises_no_convergence(symmetric_system):
    # At the float upper end of the 23/25 c-interval of the d2 pair, a deep
    # piece's inverse denominator -r c + p rounds to 0 at tail 1e-15.
    c = 0.7101020119684661
    assert math.isfinite(delta_numeric(symmetric_system, c))
    with pytest.raises(NoConvergence):
        delta_numeric(symmetric_system, c, tail_tol=1e-15)


def test_delta_extremal_exact_ratios(reference_system):
    assert delta_extremal_ratio(reference_system, 0) == F(77, 30)
    assert delta_extremal_ratio(reference_system, 1) == F(32, 305)


def test_delta_numeric_matches_extremal(reference_system, symmetric_system):
    for sys in (reference_system, symmetric_system):
        for i in (0, 1):
            assert abs(delta_numeric(sys, float(i)) - delta_extremal(sys, i)) <= 1e-8


def test_delta_signs_random_class_pairs():
    rng = random.Random(61)
    for pair in _class_pairs(rng, 100):
        sys = induced_system(pair, 1)
        assert delta_extremal_ratio(sys, 0) > 1
        assert 0 < delta_extremal_ratio(sys, 1) < 1


def test_delta_continuity_sampled(reference_system):
    rng = random.Random(62)
    for _ in range(10):
        c = rng.uniform(0.0, 1.0 - 1e-4)
        assert abs(delta_numeric(reference_system, c + 1e-4) - delta_numeric(reference_system, c)) <= 0.01


def test_thresholds_reference_exact(reference_pair):
    th = thresholds(reference_pair)
    assert th.t0 == F(24, 77)
    assert th.t1 == F(61, 8)


def test_thresholds_scaling_law_exact(reference_pair):
    rng = random.Random(63)
    th = thresholds(reference_pair)
    for _ in range(20):
        t = random_rational(rng)
        scaled = thresholds(scale_pair(reference_pair, t))
        assert scaled.t0 * t == th.t0
        assert scaled.t1 * t == th.t1


def test_thresholds_ordering_random_class_pairs():
    rng = random.Random(64)
    for pair in _class_pairs(rng, 100):
        th = thresholds(pair)
        assert float(th.t0) < float(th.t1)


def test_thresholds_reject_outside_class():
    with pytest.raises(NotInClassC):
        thresholds(d2_pair(F(1, 2), F(3)))


@pytest.mark.parametrize("t", [1, -1])
def test_certify_rejects_outside_class_D(c_not_d_pair, t):
    # The class is reported before the scale, and a pair in C is not NotInClassC.
    with pytest.raises(NotInClassD) as info:
        certify(c_not_d_pair, t)
    assert not isinstance(info.value, NotInClassC)
    with pytest.raises(NotInClassC):
        certify(d2_pair(F(1, 2), F(3)), t)


def test_domination_regimes(reference_pair):
    assert domination_check(reference_pair, F(1, 4)) is Domination.A0_DOMINATES
    assert domination_check(reference_pair, F(61, 8)) is Domination.A1_DOMINATES
    assert domination_check(reference_pair, 1) is Domination.INTERIOR


def test_domination_check_rejects_a_non_positive_scale(reference_pair):
    # Both read A0Dominates before the check went through the system at t.
    for t in (-1, 0, F(0), -0.5):
        with pytest.raises(NonPositiveScale):
            domination_check(reference_pair, t)


def test_gamma_of_t_limits_and_residual(reference_pair):
    t0, t1 = F(24, 77), F(61, 8)
    near0 = induced_system(reference_pair, t0 * F(1001, 1000))
    assert gamma_of_t(near0) <= 0.05
    near1 = induced_system(reference_pair, t1 * F(999, 1000))
    assert gamma_of_t(near1) >= 0.95

    sys = induced_system(reference_pair, 1)
    c_star = gamma_of_t(sys)
    assert abs(delta_numeric(sys, c_star) - endpoint_ratio_log(reference_pair, 1)) <= 1e-9


def test_gamma_of_t_monotone(reference_pair):
    t0, t1 = 24 / 77, 61 / 8
    previous = -1.0
    for k in range(20):
        t = t0 * (t1 / t0) ** ((k + 0.5) / 20)
        c = gamma_of_t(induced_system(reference_pair, t))
        assert c >= previous
        previous = c


def test_gamma_of_t_rejects_domination_scales(reference_pair):
    with pytest.raises(OutOfInteriorRange):
        gamma_of_t(induced_system(reference_pair, F(1, 4)))


@pytest.mark.parametrize(
    "t", [F(24, 77) + F(1, 10**30), F(61, 8) - F(1, 10**30)], ids=["above-t0", "below-t1"]
)
def test_sub_ulp_interior_scale_is_no_convergence(reference_pair, t):
    # Interior under the exact rule, but the target reads float(t), a threshold.
    assert thresholds(reference_pair).regime(t) is Domination.INTERIOR
    with pytest.raises(NoConvergence, match="does not bracket"):
        certify(reference_pair, t)
    with pytest.raises(NoConvergence, match="does not bracket"):
        gamma_of_t(induced_system(reference_pair, t))


def test_brent_closed_form_roots():
    def cubic(x):
        return x**3 - 2 * x - 5

    root, value, evaluations = _brent(cubic, 2.0, 3.0, cubic(2.0), cubic(3.0), 1e-15, 8.9e-16)
    assert abs(root - 2.0945514815423265) <= 4e-15
    assert value == cubic(root) and 0 < evaluations < 20

    def fixed(x):
        return math.cos(x) - x

    root, value, _ = _brent(fixed, 0.0, 1.0, fixed(0.0), fixed(1.0), 1e-15, 8.9e-16)
    assert abs(root - 0.7390851332151607) <= 4e-15
    assert value == fixed(root)


def test_brent_root_at_an_end_costs_nothing():
    def forbidden(x):
        raise AssertionError("no evaluation needed")

    assert _brent(forbidden, 0.0, 2.0, -1.0, 0.0, 1e-13, 8.9e-16) == (2.0, 0.0, 0)
    assert _brent(forbidden, -1.5, 2.0, 0.0, 3.0, 1e-13, 8.9e-16) == (-1.5, 0.0, 0)
    with pytest.raises(NoConvergence):
        _brent(forbidden, 0.0, 1.0, 1.0, 2.0, 1e-13, 8.9e-16)


def test_brent_non_finite_value_raises_no_convergence():
    with pytest.raises(NoConvergence):
        _brent(lambda x: math.nan, 0.0, 1.0, 1.0, -1.0, 1e-13, 8.9e-16)
    with pytest.raises(NoConvergence):
        _brent(lambda x: -x, 0.0, 1.0, math.nan, -1.0, 1e-13, 8.9e-16)


def test_brent_iteration_cap_raises_no_convergence():
    calls = []

    def step(x):
        # A sign change with no zero: the bracket shrinks to adjacent floats
        # around 0.7 but never below the tolerance of 1e-300.
        calls.append(x)
        return 1.0 if x > 0.7 else -1.0

    with pytest.raises(NoConvergence):
        _brent(step, 0.0, 1.0, -1.0, 1.0, 1e-300, 0.0)
    assert len(calls) == 100


def test_brent_matches_scipy_brentq_bit_for_bit(reference_pair, symmetric_pair):
    brentq = pytest.importorskip("scipy.optimize").brentq
    rng = random.Random(65)
    for pair in (reference_pair, symmetric_pair):
        th = thresholds(pair)
        t0, t1 = float(th.t0), float(th.t1)
        for _ in range(100):
            t = t0 * (t1 / t0) ** rng.random()
            sys = induced_system(pair, t)
            target = endpoint_ratio_log(pair, t)
            memo = {}

            def h(c):
                if c not in memo:
                    memo[c] = delta_numeric(sys, c) - target
                return memo[c]

            expected, info = brentq(h, 0.0, 1.0, xtol=1e-13, rtol=8.9e-16, full_output=True)
            root, value, evaluations = _brent(h, 0.0, 1.0, h(0.0), h(1.0), 1e-13, 8.9e-16)
            assert root == expected, t
            assert value == h(root)
            assert evaluations == info.function_calls - 2
            assert gamma_of_t(sys) == expected


def test_fixed_point_value_closed_form(reference_pair, symmetric_pair):
    # f at the fixed point of branch i is log lambda_i, plus log t on X1:
    # the value of the Dirac measure there.
    for pair, t in ((reference_pair, 1), (symmetric_pair, F(3, 2))):
        sys = induced_system(pair, t)
        for i, A in enumerate((pair.A0, pair.A1)):
            d = projective_data(A)
            want = math.log(d.perron_value) + i * math.log(t)
            assert abs(f_eval(sys, d.fixed_point) - want) <= 1e-12


def test_certify_low_scale_dominated(reference_pair, symmetric_pair):
    cases = [(reference_pair, F(1, 8))] + [
        (pair, thresholds(pair).t0 / 2) for pair in (symmetric_pair, reference_pair.to_float())
    ]
    for pair, t in cases:
        rep = certify(pair, t, 256)
        assert rep.verdict is Verdict.CERTIFIED
        assert rep.c == 0.0
        assert rep.interval.piece1 is None
        # The value of the Dirac measure at the fixed point of A0.
        assert abs(rep.constant_value - math.log(projective_data(pair.A0).perron_value)) <= 1e-10
        if pair is reference_pair:  # both Perron values are 1
            assert abs(rep.constant_value) <= 1e-10


def test_certify_upper_threshold_boundary(reference_pair, symmetric_pair):
    cases = [(reference_pair, F(61, 8))] + [
        (pair, 2 * thresholds(pair).t1) for pair in (symmetric_pair, reference_pair.to_float())
    ]
    for pair, t in cases:
        rep = certify(pair, t, 256)
        assert rep.verdict is Verdict.CERTIFIED
        assert rep.c == 1.0
        assert rep.interval.piece0 is None
        assert rep.exterior_margin >= -1e-8


def test_certify_interior_scales(reference_pair):
    for t in (F(1, 2), F(1), F(2), F(4)):
        rep = certify(reference_pair, t, 256)
        assert rep.verdict is Verdict.CERTIFIED, (t, rep)
        assert rep.flatness <= 1e-6
        assert rep.exterior_margin > 0
        assert rep.monotone_ok
        _, value = sturmian_restricted_max(reference_pair, t, 50)
        assert abs(rep.constant_value - value) <= 2e-6


def test_certify_symmetric_pair(symmetric_pair):
    rep = certify(symmetric_pair, 1, 128)
    assert rep.verdict is Verdict.CERTIFIED


def test_certify_grid_precondition(reference_pair):
    with pytest.raises(DomainError):
        certify(reference_pair, 1, 32)


@pytest.mark.parametrize("k", range(6, 12))
def test_certify_margin_tracks_offset_near_t0(reference_pair, k):
    offset = F(1, 10**k)
    rep = certify(reference_pair, F(24, 77) * (1 + offset))
    assert 0 < rep.exterior_margin <= 100 * offset


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: at t0*(1 + 1e-12) rounding noise in Delta near c = 0 "
    "(|h(0)| about 4e-13) moves c* to 3.7e-13 and the margin jumps to 2.5e-2",
)
def test_certify_margin_tracks_offset_at_t0_plus_1e_12(reference_pair):
    offset = F(1, 10**12)
    rep = certify(reference_pair, F(24, 77) * (1 + offset))
    assert 0 < rep.exterior_margin <= 100 * offset


@pytest.mark.parametrize("grid_size", [64, 1024])
def test_grid_pass_matches_apply_T_and_f_eval(reference_pair, symmetric_pair, grid_size):
    # certify's grid, at scales in both domination regimes and inside; the
    # X1 values at t != 1 carry the log t term.
    n0 = grid_size // 2
    drawn = _class_pairs(random.Random(18), 2)
    pairs = [reference_pair, symmetric_pair, reference_pair.to_float()]
    for pair in pairs + drawn + [pair.to_float() for pair in drawn]:
        th = thresholds(pair)
        for t in (th.t0 / 2, 1, 2 * th.t1):
            sys = induced_system(pair, t)
            xs = sys.X0.grid(n0) + sys.X1.grid(n0)
            spec = sturmian_interval_endpoints(sys, 0.37)
            gamma = [spec.piece0, spec.piece1]
            txs, fs, inside = _grid_pass(_branch_floats(sys), xs, gamma)
            for x, tx, fx, ok in zip(xs, txs, fs, inside):
                assert tx.hex() == float(apply_T(sys, x)).hex(), (pair, t, x)
                assert fx.hex() == f_eval(sys, x).hex(), (pair, t, x)
                assert ok == any(piece.contains(x) for piece in gamma), (pair, t, x)


def test_grid_pass_rejects_a_point_in_the_gap(reference_system):
    gap = float(reference_system.X0.hi + reference_system.X1.lo) / 2
    with pytest.raises(DomainError):
        _grid_pass(_branch_floats(reference_system), [gap], [])


# float.hex of c, constant_value, flatness and exterior_margin, and the verdict.
PINNED_CERTIFICATES = {
    "reference-t-1": (
        ("0x1.11c3550264a69p-1", "0x1.71e9f39975681p-2", "0x1.6300000000000p-44",
         "0x1.7645b8b8dd300p-9"),
        Verdict.CERTIFIED,
    ),
    "reference-t0-plus-2e-9": (
        ("0x1.4d4e6dc01a712p-30", "0x1.2de5600000000p-44", "0x1.5974000000000p-43",
         "0x1.12d6373ac0000p-29"),
        Verdict.INCONCLUSIVE,
    ),
    "d2-t-3/2-grid-1024": (
        ("0x1.5468488d0b9dep-1", "0x1.dea2c71f669fap-1", "0x1.7a00000000000p-46",
         "0x1.b12b1ac32d800p-12"),
        Verdict.CERTIFIED,
    ),
    "float-reference-2-t1": (
        ("0x1.0000000000000p+0", "0x1.5cbf056a7bb23p+1", "0x1.8000000000000p-49",
         "0x1.62e42fefa39e0p-1"),
        Verdict.CERTIFIED,
    ),
    "reference-t-1/8": (
        ("0x0.0p+0", "-0x1.3240000000000p-55", "0x1.e800000000000p-51",
         "0x1.d3cf2b4d5cfd2p-1"),
        Verdict.CERTIFIED,
    ),
    "reference-t-20": (
        ("0x1.0000000000000p+0", "0x1.7f7427b73e388p+1", "0x1.8000000000000p-49",
         "0x1.edb8b922adb84p-1"),
        Verdict.CERTIFIED,
    ),
}


@pytest.mark.parametrize("case", list(PINNED_CERTIFICATES))
def test_certificate_bits_are_pinned(reference_pair, symmetric_pair, case):
    # A change that moves any bit of these certificates must say so here.
    float_pair = reference_pair.to_float()
    pair, t, grid_size = {
        "reference-t-1": (reference_pair, F(1), 256),
        "reference-t0-plus-2e-9": (reference_pair, F(24, 77) * (1 + F(2, 10**9)), 256),
        "d2-t-3/2-grid-1024": (symmetric_pair, F(3, 2), 1024),
        "float-reference-2-t1": (float_pair, 2 * thresholds(float_pair).t1, 256),
        "reference-t-1/8": (reference_pair, F(1, 8), 256),
        "reference-t-20": (reference_pair, F(20), 256),
    }[case]
    rep = certify(pair, t, grid_size)
    values = (rep.c, rep.constant_value, rep.flatness, rep.exterior_margin)
    assert (tuple(v.hex() for v in values), rep.verdict) == PINNED_CERTIFICATES[case]


DEFECT_B_PAIR = MatrixPair(
    Matrix2(F(18, 19), F(27, 62), F(19, 32), F(1, 3)),
    Matrix2(F(7, 2), F(17, 3), F(15, 13), F(43, 23)),
)


@pytest.mark.parametrize("kind", ["exact", "float"])
@pytest.mark.parametrize("s", [0.001, 0.2, 0.5, 0.8, 0.999])
def test_grid_end_images_outside_the_unit_interval_are_clamped(kind, s):
    # X1 is 1.4e-4 wide, so T's rounding at its ends lands about 1e-12 outside [0, 1].
    pair = DEFECT_B_PAIR if kind == "exact" else DEFECT_B_PAIR.to_float()
    th = thresholds(pair)
    t = float(th.t0) ** (1 - s) * float(th.t1) ** s
    assert certify(pair, t).verdict is Verdict.CERTIFIED
