import contextlib
import io
import json
import math
import random
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest

from sturmjsr import (
    Matrix2,
    MatrixPair,
    MatrixConvexity,
    RationalParameter,
    certify,
    classify_matrix,
    counterexample_search,
    d2_pair,
    domination_check,
    pair_report,
    parameter_map,
    plateau_bounds,
    projective_data,
    scale_pair,
    spectral_radius,
    staircase_scan,
    sturmian_restricted_max,
    thresholds,
)
from sturmjsr.cli import main
from sturmjsr.errors import NonPositiveScale

from conftest import random_positive_matrix, random_rational


def test_affine_matrix_is_not_applicable():
    # alpha = 0 and det 3: positive, but the induced map is affine.
    r = classify_matrix(Matrix2(2, 1, 1, 2))
    assert (r.positive, r.det_positive) == (True, True)
    assert r.convexity is MatrixConvexity.NOT_APPLICABLE
    assert r.witness is None


def test_classify_reference_matrices(reference_pair):
    r0 = classify_matrix(reference_pair.A0)
    assert r0.convexity is MatrixConvexity.PROJECTIVELY_CONCAVE
    assert r0.witness.alpha == F(15, 28)
    r1 = classify_matrix(reference_pair.A1)
    assert r1.convexity is MatrixConvexity.PROJECTIVELY_CONVEX
    assert r1.witness.alpha == F(-119, 128)


def test_classify_degenerate_matrix():
    r = classify_matrix(Matrix2(1, 1, 1, 1))
    assert r.positive and not r.det_positive
    assert r.convexity is MatrixConvexity.NOT_APPLICABLE
    assert r.witness is None


def test_classify_four_criteria_agree_random():
    rng = random.Random(21)
    for _ in range(1000):
        classify_matrix(random_positive_matrix(rng))  # must not raise


def test_classify_four_criteria_agree_exact():
    rng = random.Random(22)
    for _ in range(1000):
        m = Matrix2(*(random_rational(rng) for _ in range(4)))
        classify_matrix(m)  # must not raise


def test_in_class_C_reference(reference_pair):
    rep = pair_report(reference_pair)
    assert rep.in_M2plus and rep.in_C
    assert rep.image_gap == (F(5, 12), F(8, 15))


def test_in_class_C_rejects_two_concave():
    m = Matrix2(2, 1, 1, 1)
    rep = pair_report(MatrixPair(m, m))
    assert not rep.in_C


def test_in_class_C_rejects_boundary_zero_entries():
    pair = MatrixPair(Matrix2(1, 0, 1, 1), Matrix2(1, 1, 0, 1))
    rep = pair_report(pair)
    assert not rep.in_M2plus and not rep.in_C


def test_in_class_D_reference(reference_pair):
    rep = pair_report(reference_pair)
    assert rep.in_D
    # rho(A1) < sigma(A0) and sigma(A1) < rho(A0): -8/7 < -67/60, -8/119 < 3/4.
    m1, m2 = rep.inequality_margins[2], rep.inequality_margins[3]
    assert m1 == F(-8, 7) - F(-67, 60)
    assert m2 == F(-8, 119) - F(3, 4)


def test_in_class_D_symmetric_family(symmetric_pair):
    rep = pair_report(symmetric_pair)
    assert rep.in_D
    d0 = projective_data(symmetric_pair.A0)
    assert d0.sigma == F(-3, 5)
    assert math.isclose(float(d0.rho), (math.sqrt(6) + 1) / 5, rel_tol=1e-12)
    d1 = projective_data(symmetric_pair.A1)
    assert d1.sigma == F(-2, 5)
    assert math.isclose(float(d1.rho), -1.689897948556636, rel_tol=1e-10)


def test_in_class_D_rejects_large_bc():
    # bc = 3/2 > 1 makes the determinants negative.
    rep = pair_report(d2_pair(F(1, 2), F(3)))
    assert not rep.in_M2plus and not rep.in_D


def test_in_class_D_boundary_unit_bc():
    rep = pair_report(d2_pair(F(1), F(1)))
    assert not rep.in_D


def test_in_class_D_small_b_large_c():
    assert pair_report(d2_pair(F(1, 10), F(5))).in_D


def test_d2_family_inside_class_random():
    rng = random.Random(23)
    count = 0
    while count < 50:
        c = F(rng.randint(11, 60), 10)
        b = F(rng.randint(1, 99), 100)
        if not b * c < 1 < c:
            continue
        assert pair_report(d2_pair(b, c)).in_D
        count += 1


def test_d2_rejects_nonpositive():
    with pytest.raises(NonPositiveScale):
        d2_pair(0, 2)


def test_scale_pair_basics(reference_pair):
    assert scale_pair(reference_pair, F(1)) == reference_pair
    doubled = scale_pair(reference_pair, F(2))
    assert doubled.A1.a == 2 * reference_pair.A1.a
    with pytest.raises(NonPositiveScale):
        scale_pair(reference_pair, 0)


def test_class_D_invariant_under_scaling(reference_pair, symmetric_pair):
    rng = random.Random(24)
    for pair in (reference_pair, symmetric_pair):
        base = pair_report(pair).in_D
        for _ in range(25):
            t = random_rational(rng)
            assert pair_report(scale_pair(pair, t)).in_D == base


def test_similarity_preserves_spectral_radius():
    rng = random.Random(25)
    for _ in range(100):
        m = random_positive_matrix(rng)
        p = Matrix2(rng.uniform(0.2, 5.0), 0.0, 0.0, rng.uniform(0.2, 5.0))
        conj = p.inverse().mul(m).mul(p)
        assert math.isclose(float(spectral_radius(conj)), float(spectral_radius(m)), rel_tol=1e-9)


def _random_class_c_pairs(rng, count):
    pairs = []
    while len(pairs) < count:
        b = F(rng.randint(1, 99), 100)
        c = F(rng.randint(11, 60), 10)
        if b * c < 1 < c:
            pairs.append(d2_pair(b, c))
    return pairs


def test_class_C_quadratic_sign_facts(reference_pair):
    rng = random.Random(26)
    for pair in [reference_pair] + _random_class_c_pairs(rng, 30):
        d0, d1 = projective_data(pair.A0), projective_data(pair.A1)
        # Signs of the branch quadratic alpha z^2 + beta z - b of one member
        # at the other member's rho.
        assert d1.alpha * d0.rho * d0.rho + d1.beta * d0.rho - pair.A1.b < 0
        assert d0.alpha * d1.rho * d1.rho + d0.beta * d1.rho - pair.A0.b > 0


def test_class_C_linear_factor_signs(reference_pair):
    # x + sigma0 < 0 on X0, x + sigma1 > 0 on X1 (checked at the endpoints),
    # and x + rho0 > 0, x + rho1 < 0 at x in {0, 1}.
    from sturmjsr import induced_system

    rng = random.Random(27)
    for pair in [reference_pair] + _random_class_c_pairs(rng, 30):
        sys = induced_system(pair, 1)
        for x in (sys.X0.lo, sys.X0.hi):
            assert x + sys.proj0.sigma < 0
        for x in (sys.X1.lo, sys.X1.hi):
            assert x + sys.proj1.sigma > 0
        for x in (0, 1):
            assert x + sys.proj0.rho > 0
            assert x + sys.proj1.rho < 0


def _classify_cli(pair):
    """Run the classify command on the pair written to a pair file."""
    doc = {
        name: [[str(m.a), str(m.b)], [str(m.c), str(m.d)]]
        for name, m in (("A0", pair.A0), ("A1", pair.A1))
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["classify", str(path)]) == 0


# One public call of each kind on a class-D pair, without the CLI.
LIBRARY_CALLS = [
    pytest.param(lambda pair: parameter_map(pair, 1, 20), id="parameter_map"),
    pytest.param(lambda pair: staircase_scan(pair, 0.2, 16, 10, 20), id="staircase_scan"),
    pytest.param(
        lambda pair: plateau_bounds(pair, RationalParameter(1, 2), 1e-6, 20), id="plateau_bounds"
    ),
    pytest.param(
        lambda pair: counterexample_search(pair, 0.38, 1e-6, 20), id="counterexample_search"
    ),
    pytest.param(lambda pair: thresholds(pair), id="thresholds"),
    pytest.param(lambda pair: domination_check(pair, 1), id="domination_check"),
    pytest.param(lambda pair: certify(pair, 1), id="certify-interior"),
    pytest.param(lambda pair: certify(pair, F(1, 8)), id="certify-A0"),
    pytest.param(lambda pair: certify(pair, 8), id="certify-A1"),
    pytest.param(lambda pair: sturmian_restricted_max(pair, 1, 20), id="sturmian_restricted_max"),
]


@pytest.mark.parametrize("call", LIBRARY_CALLS + [pytest.param(_classify_cli, id="cli-classify")])
def test_public_call_classifies_the_pair_once(reference_pair, monkeypatch, call):
    calls = _count_calls(monkeypatch, pair_report)
    call(reference_pair)
    assert len(calls) == 1


@pytest.mark.parametrize("call", LIBRARY_CALLS)
def test_public_call_computes_each_members_projective_data_once(
    reference_pair, monkeypatch, call
):
    # The class report carries both members' projective data to the system.
    calls = _count_calls(monkeypatch, projective_data)
    call(reference_pair)
    assert len(calls) == 2


def _count_calls(monkeypatch, original):
    """Count original's calls under every name a sturmjsr module binds it to."""
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "sturmjsr" or name.startswith("sturmjsr."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls
