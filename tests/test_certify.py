import importlib
import math
import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    SERIES_MAX_DEPTH,
    _brent,
    _grid_pass,
    _moebius,
    _phi_batch,
    delta_extremal_ratio,
    endpoint_ratio_log,
)
from sturmjsr.dynamics import MEMBER_TOL, apply_T, f_eval, sturmian_interval_endpoints
from sturmjsr.errors import (
    DomainError,
    NoConvergence,
    NonPositiveScale,
    NotInClassC,
    NotInClassD,
    OutOfInteriorRange,
)
from sturmjsr.matrices import _product

from conftest import class_d_pairs, random_class_d_pair, random_rational


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


def _pieces(sys, c, tail_tol=1e-12):
    """The last pieces of _phi_batch's walk, and one list per term of (piece, prefix, f_lo).

    Each piece is (lo, hi, nm, branch, K) and is built as _phi_batch builds
    it: split at c, multiplied by the branch factor, divided by its largest
    modulus, K summed along its lineage.
    """
    cf = float(c)
    branches, sup_fp = sys.branch_floats, sys.f_prime_sup
    log_dets = [math.log(abs(branch[8])) for branch in branches]
    pieces = [(0.0, 1.0, (1.0, 0.0, 0.0, 1.0), None, 0.0)]
    terms = []
    for _ in range(SERIES_MAX_DEPTH):
        new_pieces, term = [], []
        total_len = acc = 0.0
        for dlo, dhi, m, _, k in pieces:
            img_lo, img_hi = _moebius(m, dlo), _moebius(m, dhi)
            if img_hi < cf:
                splits = ((dlo, dhi, 1),)
            elif img_lo >= cf:
                splits = ((dlo, dhi, 0),)
            else:
                p, q, r, s = m
                sx = min(max((s * cf - q) / (-r * cf + p), dlo), dhi)
                splits = ((dlo, sx, 1), (sx, dhi, 0))
            for lo, hi, branch in splits:
                if hi <= lo:
                    continue
                tau, alpha, sigma = branches[branch][2:5]
                p, q, r, s = _product(tau, m)
                norm = max(abs(p), abs(q), abs(r), abs(s))
                nm = (p / norm, q / norm, r / norm, s / norm)
                new_lo, new_hi = _moebius(nm, lo), _moebius(nm, hi)
                f_lo = -math.log(abs(alpha * (new_lo + sigma)))
                k_new = k + ((acc - f_lo) + (math.log(norm) - log_dets[branch]))
                new_pieces.append((lo, hi, nm, branch, k_new))
                term.append((new_pieces[-1], acc, f_lo))
                acc += -math.log(abs(alpha * (new_hi + sigma))) - f_lo
                total_len += new_hi - new_lo
        pieces = new_pieces
        terms.append(term)
        if total_len * sup_fp < tail_tol:
            return pieces, terms
    raise AssertionError("the oracle series did not converge")


def _phi_batch_oracle(sys, c, zs):
    """_phi_batch point by point: each z > 0 reads K + log|r y + s| of its last piece.

    Its piece is the last one whose domain low is at or below z, found by a
    linear scan in the order of zs; y is z clamped to the piece's high end.
    """
    pieces, _ = _pieces(sys, c)
    phi = []
    for z in zs:
        if z <= 0.0:
            phi.append(0.0)
            continue
        lo, hi, (_, _, r, s), _, k = [piece for piece in pieces if piece[0] <= z][-1]
        y = z if z < hi else hi
        phi.append(k + math.log(abs(r * y + s)))
    return phi


def _phi_term_sum(sys, c, zs):
    """The series term by term, as _phi_batch summed it before the telescoping.

    At each depth a point adds prefix + f(nm(y)) - f(img_lo) of its piece at
    that depth, f = -log|alpha (x + sigma)| of the piece's branch.
    """
    branches = sys.branch_floats
    _, terms = _pieces(sys, c)
    phi = [0.0] * len(zs)
    for term in terms:
        los = [piece[0] for piece, _, _ in term]
        for j, z in enumerate(zs):
            if z <= 0.0:
                continue
            (lo, hi, nm, branch, _), prefix, f_lo = term[bisect_right(los, z) - 1]
            alpha, sigma = branches[branch][3:5]
            y = _moebius(nm, min(z, hi))
            phi[j] += (prefix - math.log(abs(alpha * (y + sigma)))) - f_lo
    return phi


def _phi_mp(mpmath, sys, c, zs):
    """The partial sum of _phi_batch at 50 digits: its pieces, depth and float
    branch constants, every value term by term in mpmath."""
    mp = mpmath.mpf
    factors = [(tuple(map(mp, b[2])), mp(b[3]), mp(b[4])) for b in sys.branch_floats]
    _, terms = _pieces(sys, c)
    exact = {(0.0, 1.0): (mp(1), mp(0), mp(0), mp(1))}
    phi = [mp(0)] * len(zs)
    with mpmath.workdps(50):
        for term in terms:
            f = []
            new_exact = {}
            for (lo, hi, _, branch, _), _, _ in term:
                parent = next(m for (plo, phi_), m in exact.items() if plo <= lo and hi <= phi_)
                m = _product(factors[branch][0], parent)
                new_exact[lo, hi] = m
                alpha, sigma = factors[branch][1:]
                g = lambda y, m=m, alpha=alpha, sigma=sigma: -mpmath.log(
                    abs(alpha * ((m[0] * y + m[1]) / (m[2] * y + m[3]) + sigma))
                )
                f.append((lo, hi, g))
            exact = new_exact
            prefix = [mp(0)]
            for lo, hi, g in f:
                prefix.append(prefix[-1] + g(mp(hi)) - g(mp(lo)))
            los = [lo for lo, _, _ in f]
            for j, z in enumerate(zs):
                if z > 0.0:
                    k = bisect_right(los, z) - 1
                    lo, hi, g = f[k]
                    phi[j] += prefix[k] + g(mp(min(z, hi))) - g(mp(lo))
    return phi


def _phi_cases(reference_pair, symmetric_pair, kind):
    pair = {
        "reference": reference_pair,
        "d2": symmetric_pair,
        "float-reference": reference_pair.to_float(),
    }[kind]
    sys = induced_system(pair)
    rng = random.Random(36)
    for c in (0.0, 0.3, 0.7, 1.0, gamma_of_t(sys, 1)):
        zs = [rng.random() for _ in range(200)] + [0.0, -0.0, 1.0, -MEMBER_TOL, 1 + MEMBER_TOL]
        zs += [math.nextafter(c, -1), c, math.nextafter(c, 2)]
        zs += rng.sample(zs, 40)
        rng.shuffle(zs)
        yield sys, c, zs


@pytest.mark.parametrize("kind", ["reference", "d2", "float-reference"])
def test_phi_batch_matches_the_point_by_point_oracle(reference_pair, symmetric_pair, kind):
    # The first term splits [0, 1] at c, so z = c and its float neighbours
    # sit on either side of the first piece boundary.
    for sys, c, zs in _phi_cases(reference_pair, symmetric_pair, kind):
        got = [v.hex() for v in _phi_batch(sys, c, zs)]
        assert got == [v.hex() for v in _phi_batch_oracle(sys, c, zs)], c


# Measured largest gap between the telescoped sum and the term-by-term sum:
# 9.8e-15 over these fixtures, and 1.0e-14 * max(1, sup|f'|) over 300
# population draws, where a term's f(x) = -log|alpha (x + sigma)| loses
# about sup|f'| ulp to the cancellation in x + sigma.
TERM_SUM_GAP = 2e-14
TERM_SUM_GAP_PER_SLOPE = 5e-14


@pytest.mark.parametrize("kind", ["reference", "d2", "float-reference"])
def test_phi_batch_agrees_with_the_term_by_term_sum(reference_pair, symmetric_pair, kind):
    for sys, c, zs in _phi_cases(reference_pair, symmetric_pair, kind):
        for z, got, want in zip(zs, _phi_batch(sys, c, zs), _phi_term_sum(sys, c, zs)):
            assert abs(got - want) <= TERM_SUM_GAP, (c, z)


@settings(max_examples=25, deadline=None)
@given(pair=class_d_pairs(), c=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_phi_batch_agrees_with_the_term_by_term_sum_over_the_population(pair, c, seed):
    sys = induced_system(pair)
    rng = random.Random(seed)
    zs = [rng.random() for _ in range(20)] + [1.0, float(sys.X0.hi), float(sys.X1.lo)]
    try:
        got = _phi_batch(sys, c, zs)
    except NoConvergence:
        return
    bound = TERM_SUM_GAP_PER_SLOPE * max(1.0, sys.f_prime_sup)
    for z, g, w in zip(zs, got, _phi_term_sum(sys, c, zs)):
        assert abs(g - w) <= bound, (c, z)


# Measured largest error of the float sum against its 50-digit value: 4.7e-15
# (4.2e-15 for the term-by-term sum).
MP_GAP = 2e-14


@pytest.mark.parametrize("kind", ["reference", "d2", "float-reference"])
def test_phi_batch_matches_its_partial_sum_at_50_digits(reference_pair, symmetric_pair, kind):
    mpmath = pytest.importorskip("mpmath")
    sys, _, _ = next(_phi_cases(reference_pair, symmetric_pair, kind))
    rng = random.Random(50)
    zs = [rng.random() for _ in range(12)] + [1.0, float(sys.X0.hi), float(sys.X1.lo)]
    for c in (0.3, gamma_of_t(sys, 1), gamma_of_t(sys, 2)):
        for z, got, want in zip(zs, _phi_batch(sys, c, zs), _phi_mp(mpmath, sys, c, zs)):
            assert abs(got - float(want)) <= MP_GAP, (c, z)


@pytest.mark.parametrize("kind", ["reference", "d2", "population"])
def test_branch_factor_identity_is_exact(reference_pair, symmetric_pair, kind):
    # -alpha (T_A(z) + sigma) = det A / (alpha z + b + d), the identity that
    # telescopes the series, in exact arithmetic on each member.
    pairs = {
        "reference": [reference_pair],
        "d2": [symmetric_pair],
        "population": [random_class_d_pair(random.Random(seed)) for seed in range(8)],
    }[kind]
    for pair in pairs:
        for A in (pair.A0, pair.A1):
            pr = projective_data(A)
            a, b, d = A.a, A.b, A.d
            assert pr.sigma == F(b - a) / pr.alpha
            for z in (F(0), F(1, 3), F(1, 2), F(5, 7), F(1)):
                lhs = -pr.alpha * (A.moebius(z) + pr.sigma)
                assert lhs == A.det() / (pr.alpha * z + b + d), (A, z)


_points = st.lists(
    st.one_of(
        st.floats(-MEMBER_TOL, 1 + MEMBER_TOL),
        st.sampled_from([0.0, 1.0, -MEMBER_TOL, 1 + MEMBER_TOL]),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=30, deadline=None)
@given(pair=class_d_pairs(), c=st.floats(0.0, 1.0), zs=_points, rnd=st.randoms())
def test_phi_batch_is_invariant_under_permutations_of_its_points(pair, c, zs, rnd):
    sys = induced_system(pair)
    perm = list(range(len(zs)))
    rnd.shuffle(perm)
    try:
        values = _phi_batch(sys, c, zs)
    except NoConvergence:
        with pytest.raises(NoConvergence):
            _phi_batch(sys, c, [zs[k] for k in perm])
        return
    permuted = _phi_batch(sys, c, [zs[k] for k in perm])
    assert [v.hex() for v in permuted] == [values[k].hex() for k in perm]


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
        sys = induced_system(pair)
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
    sys = induced_system(reference_pair)
    assert gamma_of_t(sys, t0 * F(1001, 1000)) <= 0.05
    assert gamma_of_t(sys, t1 * F(999, 1000)) >= 0.95

    c_star = gamma_of_t(sys, 1)
    assert abs(delta_numeric(sys, c_star) - endpoint_ratio_log(reference_pair, 1)) <= 1e-9


def test_gamma_of_t_monotone(reference_pair):
    t0, t1 = 24 / 77, 61 / 8
    previous = -1.0
    for k in range(20):
        t = t0 * (t1 / t0) ** ((k + 0.5) / 20)
        c = gamma_of_t(induced_system(reference_pair), t)
        assert c >= previous
        previous = c


def test_gamma_of_t_rejects_domination_scales(reference_pair):
    with pytest.raises(OutOfInteriorRange):
        gamma_of_t(induced_system(reference_pair), F(1, 4))


@pytest.mark.parametrize(
    "t", [F(24, 77) + F(1, 10**30), F(61, 8) - F(1, 10**30)], ids=["above-t0", "below-t1"]
)
def test_sub_ulp_interior_scale_is_no_convergence(reference_pair, t):
    # Interior under the exact rule, but the target reads float(t), a threshold.
    assert thresholds(reference_pair).regime(t) is Domination.INTERIOR
    with pytest.raises(NoConvergence, match="does not bracket"):
        certify(reference_pair, t)
    with pytest.raises(NoConvergence, match="does not bracket"):
        gamma_of_t(induced_system(reference_pair), t)


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
        sys = induced_system(pair)
        for _ in range(100):
            t = t0 * (t1 / t0) ** rng.random()
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
            assert gamma_of_t(sys, t) == expected


def test_fixed_point_value_closed_form(reference_pair, symmetric_pair):
    # f at the fixed point of branch i is log lambda_i, plus log t on X1:
    # the value of the Dirac measure there.
    for pair, t in ((reference_pair, 1), (symmetric_pair, F(3, 2))):
        sys = induced_system(pair)
        for i, A in enumerate((pair.A0, pair.A1)):
            d = projective_data(A)
            want = math.log(d.perron_value) + i * math.log(t)
            assert abs(f_eval(sys, d.fixed_point, t) - want) <= 1e-12


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


@pytest.mark.parametrize("grid_size", [256.0, "256", None, 64.5])
def test_certify_grid_size_must_be_an_int(reference_pair, grid_size):
    # Checked before any work, in both regimes.
    for t in (1, F(1, 8)):
        with pytest.raises(DomainError):
            certify(reference_pair, t, grid_size)


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
        th, sys = thresholds(pair), induced_system(pair)
        xs = sys.X0.grid(n0) + sys.X1.grid(n0)
        spec = sturmian_interval_endpoints(sys, 0.37)
        gamma = [spec.piece0, spec.piece1]
        for t in (th.t0 / 2, 1, 2 * th.t1):
            txs, fs, inside = _grid_pass(sys, t, xs, gamma)
            for x, tx, fx, ok in zip(xs, txs, fs, inside):
                assert tx.hex() == float(apply_T(sys, x)).hex(), (pair, t, x)
                assert fx.hex() == f_eval(sys, x, t).hex(), (pair, t, x)
                assert ok == any(piece.contains(x) for piece in gamma), (pair, t, x)


def test_grid_pass_rejects_a_point_in_the_gap(reference_system):
    gap = float(reference_system.X0.hi + reference_system.X1.lo) / 2
    with pytest.raises(DomainError):
        _grid_pass(reference_system, 1, [gap], [])


# float.hex of c, constant_value, flatness and exterior_margin, and the verdict.
PINNED_CERTIFICATES = {
    "reference-t-1": (
        ("0x1.11c3550264a75p-1", "0x1.71e9f39975681p-2", "0x1.5ec0000000000p-44",
         "0x1.7645b8b8dd900p-9"),
        Verdict.CERTIFIED,
    ),
    "reference-t0-plus-2e-9": (
        ("0x1.4d4e5766744d0p-30", "0x1.2d97200000000p-44", "0x1.5a14000000000p-43",
         "0x1.12d6331e40000p-29"),
        Verdict.INCONCLUSIVE,
    ),
    "d2-t-3/2-grid-1024": (
        ("0x1.5468488d0b9e7p-1", "0x1.dea2c71f669f6p-1", "0x1.4c00000000000p-46",
         "0x1.b12b1ac327000p-12"),
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
    "float-reference-t-1-grid-512": (
        ("0x1.11c3550264a65p-1", "0x1.71e9f3997567dp-2", "0x1.65c0000000000p-44",
         "0x1.9ebee4ef3f200p-10"),
        Verdict.CERTIFIED,
    ),
    # c* near 1: most grid points fall in the last piece, whose end clamps them.
    "reference-t1-minus-3e-4-grid-1024": (
        ("0x1.fffa642a0ab34p-1", "0x1.03fc2478d2bccp+1", "0x1.8380000000000p-42",
         "0x1.3a9eb7e6f6000p-12"),
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
        "float-reference-t-1-grid-512": (float_pair, 1.0, 512),
        "reference-t1-minus-3e-4-grid-1024": (reference_pair, F(61, 8) * (1 - F(3, 10000)), 1024),
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
