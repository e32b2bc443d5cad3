import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from sturmjsr import (
    Matrix2,
    MatrixPair,
    eigenvalues,
    projective_data,
    spectral_radius,
    word_product,
)
from sturmjsr.errors import DomainError, EmptyWord, NonPositiveMatrix, NonPositiveScale
from sturmjsr.matrices import _walk, fixed_point, word_value

from conftest import common_prefix, random_positive_matrix


def test_projective_data_exact_values(reference_pair):
    d0 = projective_data(reference_pair.A0)
    assert d0.perron_value == 1
    assert d0.minor_value == F(9, 16)
    assert d0.rho == F(3, 4)
    assert d0.sigma == F(-67, 60)
    assert d0.fixed_point == F(1, 15)
    assert d0.gamma == F(7, 16)
    assert d0.alpha == F(15, 28)

    d1 = projective_data(reference_pair.A1)
    assert d1.perron_value == 1
    assert d1.minor_value == F(13, 16)
    assert d1.rho == F(-8, 7)
    assert d1.sigma == F(-8, 119)
    assert d1.fixed_point == F(16, 17)


def test_projective_data_fixed_point_is_fixed(reference_pair):
    d0 = projective_data(reference_pair.A0)
    assert reference_pair.A0.moebius(d0.fixed_point) == d0.fixed_point


def test_fixed_point_is_correctly_rounded_on_float_paths(reference_pair, symmetric_pair):
    # The d2 pair's square roots are irrational, so its data is float too.
    # (beta + gamma) / (2 alpha) gave 0.2898979485566356, 0.7101020514433645
    # and 0.06666666666666668 here, each the wrong neighbour of the truth.
    mpmath = pytest.importorskip("mpmath")
    ref = reference_pair.to_float()
    for A in (symmetric_pair.A0, symmetric_pair.A1, ref.A0, ref.A1):
        with mpmath.workdps(40):
            a, b, c, d = (mpmath.mpf(F(x).numerator) / F(x).denominator for x in A.entries())
            beta = a - d - 2 * b
            want = float(2 * b / (mpmath.sqrt((a - d) ** 2 + 4 * b * c) - beta))
        assert projective_data(A).fixed_point == want, A
        assert fixed_point(A) == want, A


def test_fixed_point_agrees_with_projective_data_exactly():
    rng = random.Random(61)
    for _ in range(300):
        A = Matrix2(*(F(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(4)))
        if A.det() <= 0 or A.a + A.c == A.b + A.d:
            continue
        p = projective_data(A).fixed_point
        assert fixed_point(A) == p
        if isinstance(p, F):
            assert A.moebius(p) == p


def test_fixed_point_needs_no_positive_determinant():
    # A rounded product can lose det > 0, and alpha = 0 is allowed.
    assert fixed_point(Matrix2(1, 1, 1, 1)) == F(1, 2)
    assert fixed_point(Matrix2(2, 1, 1, 2)) == F(1, 2)
    x = fixed_point(Matrix2(1.0, 2.0, 3.0, 1.0))
    assert 0 < x < 1 and abs(Matrix2(1.0, 2.0, 3.0, 1.0).moebius(x) - x) <= 1e-15


def test_projective_data_rejects_bad_matrices():
    with pytest.raises(NonPositiveMatrix):
        projective_data(Matrix2(1, -1, 1, 1))
    with pytest.raises(NonPositiveMatrix):
        projective_data(Matrix2(1, 1, 1, 1))  # zero determinant
    # Affine induced map: alpha = 0.
    with pytest.raises(DomainError):
        projective_data(Matrix2(2, 1, 1, 2))


def test_spectral_radius_closed_cases(reference_pair):
    assert spectral_radius(Matrix2(1, 1, 1, 1)) == 2
    assert spectral_radius(reference_pair.A0) == 1
    # Larger root of z^2 - 3z + 1, by the quadratic formula.
    assert math.isclose(
        float(spectral_radius(Matrix2(2, 1, 1, 1))), (3 + math.sqrt(5)) / 2, rel_tol=1e-15
    )
    # Rotation-like matrix with complex spectrum: modulus sqrt(det).
    assert spectral_radius(Matrix2(1, -2, 2, 1)) == math.sqrt(5)


def test_spectral_radius_against_numpy():
    rng = random.Random(20260809)
    for _ in range(200):
        m = Matrix2(*(rng.uniform(-5, 5) for _ in range(4)))
        want = max(abs(ev) for ev in np.linalg.eigvals([[m.a, m.b], [m.c, m.d]]))
        assert math.isclose(float(spectral_radius(m)), float(want), rel_tol=1e-9, abs_tol=1e-9)


def test_eigenvalues_exact(reference_pair):
    assert eigenvalues(reference_pair.A0) == (1, F(9, 16))
    assert eigenvalues(reference_pair.A1) == (1, F(13, 16))


def test_q_poly_values(reference_pair):
    # The branch quadratic alpha z^2 + beta z - b, whose larger root is rho.
    # The A1 value was frozen from exact evaluation.
    A0, A1 = reference_pair.A0, reference_pair.A1
    for A, z, want in ((A0, F(3, 4), 0), (A0, F(0), F(-3, 112)), (A1, F(3, 4), F(-6095, 2048))):
        d = projective_data(A)
        assert d.alpha * z * z + d.beta * z - A.b == want


def test_q_poly_root_at_rho_random():
    rng = random.Random(11)
    for _ in range(1000):
        m = random_positive_matrix(rng)
        d = projective_data(m)
        # Near-affine matrices send rho to infinity, so the residual is
        # measured against the size of the quadratic's terms.
        scale = max(1.0, abs(d.alpha) * d.rho * d.rho, abs(d.beta * d.rho))
        assert abs(d.alpha * d.rho * d.rho + d.beta * d.rho - m.b) <= 1e-10 * scale


def test_identity_gamma_beta_alpha_random():
    rng = random.Random(12)
    for _ in range(1000):
        m = random_positive_matrix(rng)
        d = projective_data(m)
        lhs = d.gamma**2 - d.beta**2
        rhs = 4 * m.b * d.alpha
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


def test_perron_eigenvector_residuals_random():
    rng = random.Random(13)
    for _ in range(1000):
        m = random_positive_matrix(rng)
        d = projective_data(m)
        lam = float(d.perron_value)
        v1, v2 = (float(x) for x in d.perron_right)
        w1, w2 = (float(x) for x in d.perron_left)
        assert abs(m.a * v1 + m.b * v2 - lam * v1) <= 1e-10 * lam
        assert abs(m.c * v1 + m.d * v2 - lam * v2) <= 1e-10 * lam
        assert abs(w1 * m.a + w2 * m.c - lam * w1) <= 1e-10 * lam * max(w1, w2)
        assert abs(w1 * m.b + w2 * m.d - lam * w2) <= 1e-10 * lam * max(w1, w2)


def test_perron_identity_from_induced_derivative():
    # r(A) = sqrt(det A / T'(p)) with T'(x) = det A (alpha x + b + d)^-2.
    rng = random.Random(14)
    for _ in range(1000):
        m = random_positive_matrix(rng)
        d = projective_data(m)
        tp = m.det() / (d.alpha * d.fixed_point + m.b + m.d) ** 2
        r = float(spectral_radius(m))
        assert abs(r - math.sqrt(m.det() / tp)) <= 1e-10 * r


def test_delta_of_powers_converges_to_rho(reference_pair):
    # delta(A^k) = (b+d)/alpha of the exact k-th power approaches rho(A).
    A = reference_pair.A0
    d = projective_data(A)
    ratio = d.minor_value / d.perron_value  # 9/16
    k = 1
    power = A
    while ratio**k >= F(1, 10**9):
        power = power.mul(A)
        k += 1
    delta_k = (power.b + power.d) / (power.a + power.c - power.b - power.d)
    assert abs(delta_k - d.rho) <= 1e-8


def test_rho_invariant_under_positive_scaling():
    # rho depends only on the projective action, so scalar multiples share it.
    rng = random.Random(15)
    for _ in range(100):
        m = random_positive_matrix(rng)
        t = rng.uniform(0.1, 10.0)
        assert abs(projective_data(m.scaled(t)).rho - projective_data(m).rho) <= 1e-9


def test_eigenvalue_data_invariant_under_diagonal_similarity():
    # Similarity preserves the spectrum; for positive diagonal conjugation the
    # result stays positive, so the Perron pair must match.
    rng = random.Random(15)
    for _ in range(100):
        m = random_positive_matrix(rng)
        s1, s2 = rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0)
        p = Matrix2(s1, 0.0, 0.0, s2)
        conj = p.inverse().mul(m).mul(p)
        dm, dc = projective_data(m), projective_data(conj)
        assert math.isclose(dc.perron_value, dm.perron_value, rel_tol=1e-10)
        assert math.isclose(dc.minor_value, dm.minor_value, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(dc.gamma, dm.gamma, rel_tol=1e-10)


def test_word_product_exact_trace(reference_pair):
    prod, scale = word_product(reference_pair, F(1), "01")
    assert scale == 0
    assert prod.trace() == F(32707, 14336)
    minor_sum = F(9, 16) + F(13, 16)
    assert prod.trace() - minor_sum == F(12995, 14336)


def test_word_product_single_letter(reference_pair):
    prod, scale = word_product(reference_pair, F(1), "0")
    assert scale == 0
    assert prod == reference_pair.A0


def test_word_product_scaling(reference_pair):
    prod, scale = word_product(reference_pair, F(2), "1")
    true_radius = math.exp(float(scale)) * float(spectral_radius(prod))
    assert math.isclose(true_radius, 2.0, rel_tol=1e-12)


def test_word_product_errors(reference_pair):
    with pytest.raises(EmptyWord):
        word_product(reference_pair, 1, "")
    with pytest.raises(NonPositiveScale):
        word_product(reference_pair, 0, "0")
    with pytest.raises(DomainError):
        word_product(reference_pair, 1, "02")


def test_word_value_cyclic_invariance(reference_pair):
    rng = random.Random(16)
    fpair = reference_pair.to_float()
    for _ in range(50):
        n = rng.randint(2, 10)
        word = "".join(rng.choice("01") for _ in range(n))
        vals = [word_value(fpair, 1.7, word[i:] + word[:i]) for i in range(n)]
        assert max(vals) - min(vals) <= 1e-10


def test_word_value_scaling_shift(reference_pair):
    # Scaling the convex member shifts a word's value by (ones/len) log t exactly
    # on the float path, because t enters only through the log accumulator.
    rng = random.Random(17)
    fpair = reference_pair.to_float()
    for _ in range(50):
        n = rng.randint(1, 10)
        word = "".join(rng.choice("01") for _ in range(n))
        t = rng.uniform(0.2, 5.0)
        shift = word.count("1") / n * math.log(t)
        assert abs(word_value(fpair, t, word) - word_value(fpair, 1.0, word) - shift) <= 1e-12


def _lcp_steps(words):
    """(k, word) per word, k the length of the prefix it shares with the word before."""
    return zip(map(common_prefix, [""] + words, words), words)


def test_walk_any_order_matches_word_value(reference_pair, symmetric_pair):
    # Shuffled, with repeats and words that are prefixes of the word before,
    # so the walk pops to every kind of common prefix.
    rng = random.Random(18)
    words = ["".join(rng.choice("01") for _ in range(rng.randint(1, 8))) for _ in range(200)]
    words += words[:50] + [w[: len(w) // 2 + 1] for w in words[:50]]
    rng.shuffle(words)
    for pair in (reference_pair.to_float(), symmetric_pair.to_float()):
        for t in (0.3, 1.0, 2.5):
            got = [v.hex() for v in _walk(pair, t, _lcp_steps(words), [])]
            assert got == [word_value(pair, t, w).hex() for w in words]


def test_word_product_exact_path_scales_matrices(reference_pair):
    prod_t, _ = word_product(reference_pair, F(3), "011")
    prod_1, _ = word_product(reference_pair, F(1), "011")
    assert prod_t == prod_1.scaled(F(9))  # two ones: t^2 = 9


def test_products_that_can_overflow_are_domain_errors():
    # A0's columns sum past the float maximum: "00" overflowed to inf, and
    # its normalization made the value nan.
    pair = MatrixPair(Matrix2(1e308, 1e308, 1e308, 1e308), Matrix2(1, 2, 3, 4))
    with pytest.raises(DomainError):
        word_value(pair, 1, "00")
    with pytest.raises(DomainError):
        list(_walk(pair, 1, _lcp_steps(["0", "00", "01"]), []))


def test_products_just_below_the_overflow_cap_walk(reference_pair):
    # Columns that sum to 1.5e308 stay finite, and the value is the
    # unscaled pair's plus log 1e308 per letter 0.
    scaled = MatrixPair(reference_pair.A0.to_float().scaled(1e308), reference_pair.A1.to_float())
    value = word_value(scaled, 1.0, "001")
    want = word_value(reference_pair.to_float(), 1.0, "001") + 2 * math.log(1e308) / 3
    assert math.isfinite(value) and abs(value - want) <= 1e-12


# A0's entries are below 1/float max, the floor under which the
# normalization's 1/m overflowed and made the value nan.
TINY_PAIR = MatrixPair(Matrix2(1e-310, 2e-310, 3e-310, 5e-310), Matrix2(1.0, 2.0, 3.0, 4.0))


@pytest.mark.parametrize("word", ["0", "00", "01", "10", "011", "1"])
def test_products_that_can_underflow_are_domain_errors(word):
    with pytest.raises(DomainError):
        word_value(TINY_PAIR, 1, word)


def test_rows_just_above_the_underflow_floor_walk(reference_pair):
    # A0's rows have largest entries 6.25e-309 and 9.4e-309, just above the
    # floor, and the value is the unscaled pair's plus log 1e-308 per letter 0.
    scaled = MatrixPair(reference_pair.A0.to_float().scaled(1e-308), reference_pair.A1.to_float())
    value = word_value(scaled, 1.0, "001")
    want = word_value(reference_pair.to_float(), 1.0, "001") + 2 * math.log(1e-308) / 3
    assert math.isfinite(value) and abs(value - want) <= 1e-12


NILPOTENT_PAIR = MatrixPair(Matrix2(0.0, 1.0, 0.0, 0.0), Matrix2(1.0, 2.0, 3.0, 4.0))


def test_zero_and_nilpotent_products_are_domain_errors():
    # "00" is the zero matrix, which the normalization divided by 0; "0" and
    # "010" are nilpotent, whose log radius was a bare math domain error.
    with pytest.raises(DomainError):
        word_product(NILPOTENT_PAIR, 1, "00")
    for word in ("0", "00", "010"):
        with pytest.raises(DomainError):
            word_value(NILPOTENT_PAIR, 1, word)
    prod, log_scale = word_product(NILPOTENT_PAIR, 1, "0")
    assert prod == NILPOTENT_PAIR.A0 and log_scale == 0
    assert math.isfinite(word_value(NILPOTENT_PAIR, 1, "01"))


def test_a_product_that_leaves_the_float_range_is_a_domain_error():
    # A0's zero row passes the walk's row floor; the "10" product's largest
    # entry is 1e-310, whose reciprocal overflows, and it came back as
    # Matrix2(inf, inf, nan, nan) with "spectral radius nan" after it.
    pair = MatrixPair(Matrix2(0.0, 0.0, 1e-10, 1e-10), Matrix2(1.0, 1e-300, 0.0, 0.0))
    for word in ("10", "100"):
        with pytest.raises(DomainError):
            word_product(pair, 1, word)
        with pytest.raises(DomainError):
            word_value(pair, 1, word)
    prod, log_scale = word_product(pair, 1, "0")
    assert prod == Matrix2(0.0, 0.0, 1.0, 1.0) and log_scale == math.log(1e-10)
    assert word_value(pair, 1, "1") == 0.0
