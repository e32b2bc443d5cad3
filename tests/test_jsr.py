import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmjsr import (
    RationalParameter,
    ergodic_average_f,
    induced_system,
    is_balanced,
    jsr_lower_bruteforce,
    jsr_upper_norm,
    mechanical_word,
    projective_data,
    sturmian_restricted_max,
    sturmian_value,
    thresholds,
)
from sturmjsr.errors import DomainError, NonPositiveMatrix, NotInClassD
from sturmjsr.jsr import VALUE_TIE_TOL, lyndon_words
from sturmjsr.matrices import Matrix2, MatrixPair, spectral_radius, word_value
from sturmjsr.staircase import _envelope

from conftest import random_positive_matrix, word_value_oracle


def _necklace_min(word: str) -> str:
    return min(word[i:] + word[:i] for i in range(len(word)))


def _is_primitive(word: str) -> bool:
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and word == word[:d] * (n // d):
            return False
    return True


def test_lyndon_enumeration_matches_bruteforce():
    got = sorted(w for w in lyndon_words(9))
    want = set()
    for n in range(1, 10):
        for k in range(2**n):
            w = format(k, f"0{n}b")
            if _is_primitive(w) and w == _necklace_min(w):
                want.add(w)
    assert got == sorted(want)


def test_lyndon_count_through_twelve():
    assert sum(1 for _ in lyndon_words(12)) == 747


def test_lyndon_words_strictly_increasing():
    # So the first word to reach a value is the lexicographically least one.
    words = list(lyndon_words(12))
    assert all(a < b for a, b in zip(words, words[1:]))


@pytest.mark.parametrize("max_len", [0, -3])
def test_lyndon_words_empty_below_length_one(max_len):
    assert list(lyndon_words(max_len)) == []


def test_bruteforce_dominated_regimes(reference_pair):
    low = jsr_lower_bruteforce(reference_pair, F(1, 4), 12)
    assert low.argmax_word == "0"
    assert abs(low.lower) <= 1e-12
    assert low.argmax_parameter == RationalParameter(0, 1)

    high = jsr_lower_bruteforce(reference_pair, F(8), 12)
    assert high.argmax_word == "1"
    assert abs(high.lower - math.log(8)) <= 1e-12
    assert high.argmax_parameter == RationalParameter(1, 1)


def test_bruteforce_interior_is_balanced(reference_pair):
    est = jsr_lower_bruteforce(reference_pair, F(1), 12)
    assert is_balanced(est.argmax_word)
    assert est.argmax_parameter == RationalParameter(1, 2)


def test_upper_bound_dominates_lower(reference_pair, symmetric_pair):
    for pair, t in ((reference_pair, F(1, 4)), (reference_pair, 1), (symmetric_pair, 2)):
        est = jsr_lower_bruteforce(pair, t, 10)
        assert est.upper is not None and est.lower <= est.upper + 1e-12


def test_upper_bound_gap_shrinks_with_length(reference_pair):
    # Rank-one convergence pins the sum-norm bound near log(3.06)/n here, so
    # the n = 12 gap sits just above 0.09 and halves when n doubles.
    lo12 = jsr_lower_bruteforce(reference_pair, F(1, 4), 12)
    gap12 = lo12.upper - lo12.lower
    assert gap12 <= 0.1
    up6 = jsr_upper_norm(reference_pair, F(1, 4), 6)
    gap6 = up6 - lo12.lower
    assert gap12 < 0.65 * gap6


def test_bounds_monotone_in_length(reference_pair):
    lowers = [jsr_lower_bruteforce(reference_pair, 1, n, compute_upper=False).lower for n in (4, 8, 12)]
    assert lowers[0] <= lowers[1] + 1e-12 and lowers[1] <= lowers[2] + 1e-12
    uppers = [jsr_upper_norm(reference_pair, 1, n) for n in (4, 8, 12)]
    assert uppers[0] >= uppers[1] - 1e-12 and uppers[1] >= uppers[2] - 1e-12


def _bracket_cases(reference_pair, symmetric_pair):
    """(pair, t) below t0, inside (t0, t1) and above t1, plus random float pairs."""
    cases = []
    for pair in (reference_pair, symmetric_pair):
        th = thresholds(pair)
        t0, t1 = float(th.t0), float(th.t1)
        cases += [(pair, t) for t in (t0 / 2, t0 * 1.01, math.sqrt(t0 * t1), t1 * 0.99, t1 * 2)]
    rng = random.Random(29)
    for _ in range(4):
        pair = MatrixPair(random_positive_matrix(rng), random_positive_matrix(rng))
        ratio = float(spectral_radius(pair.A0) / spectral_radius(pair.A1))
        cases += [(pair, ratio * s) for s in (0.01, 0.9, 1.1, 100.0)]
    return cases


def test_lower_walk_matches_word_value_route(reference_pair, symmetric_pair):
    for pair, t in _bracket_cases(reference_pair, symmetric_pair):
        fpair = pair.to_float()
        for n in range(1, 13):
            best_value, best_word = -math.inf, ""
            for word in lyndon_words(n):
                value = word_value_oracle(fpair, t, word)
                if value > best_value + VALUE_TIE_TOL:
                    best_value, best_word = value, word
            est = jsr_lower_bruteforce(pair, t, n, compute_upper=False)
            assert (est.lower, est.argmax_word) == (best_value, best_word), (pair, t, n)


# float.hex of lower and upper, and the argmax word, at max_len 16.
PINNED_ESTIMATES = {
    "reference-t-1": ("0x1.71e9f39975600p-2", "0x1.9c6dc46e52958p-2", "01"),
    "reference-t0-half": ("-0x1.f000000000000p-52", "0x1.1e6860999a28dp-4", "0"),
    "reference-2-t1": ("0x1.5cbf056a7bb22p+1", "0x1.6b5d5dccba7cap+1", "1"),
    "d2-t-3/2": ("0x1.dea2c71f66a18p-1", "0x1.f78aad597a05ep-1", "011"),
}


@pytest.mark.parametrize("case", list(PINNED_ESTIMATES))
def test_bruteforce_bits_are_pinned(reference_pair, symmetric_pair, case):
    # A change that moves any bit of these estimates must say so here.
    th = thresholds(reference_pair)
    pair, t = {
        "reference-t-1": (reference_pair, F(1)),
        "reference-t0-half": (reference_pair, th.t0 / 2),
        "reference-2-t1": (reference_pair, 2 * th.t1),
        "d2-t-3/2": (symmetric_pair, F(3, 2)),
    }[case]
    est = jsr_lower_bruteforce(pair, t, 16)
    assert (est.lower.hex(), est.upper.hex(), est.argmax_word) == PINNED_ESTIMATES[case]


def _exhaustive_sum_norm_bounds(pair, t, max_len):
    """Sum-norm bound over all 2^n products of each length n <= max_len."""
    gens = (pair.A0.to_float(), pair.A1.to_float().scaled(float(t)))
    level = [(A, 0.0) for A in gens]
    best, bounds = math.inf, []
    for n in range(1, max_len + 1):
        best = min(best, max(math.log(sum(M.entries())) + s for M, s in level) / n)
        bounds.append(best)
        nxt = []
        for M, s in level:
            for B in gens:
                P = M.mul(B)
                m = max(abs(x) for x in P.entries())
                nxt.append((P.scaled(1.0 / m), s + math.log(m)))
        level = nxt
    return bounds


def test_hull_bound_matches_exhaustive_population(reference_pair, symmetric_pair):
    for pair, t in _bracket_cases(reference_pair, symmetric_pair)[::2]:
        for n, want in enumerate(_exhaustive_sum_norm_bounds(pair, t, 12), start=1):
            assert abs(jsr_upper_norm(pair, t, n) - want) <= 1e-12, (pair, t, n)


_entry = st.floats(0.01, 100.0)


@settings(deadline=None)
@given(
    entries=st.tuples(*[_entry] * 8),
    t=st.floats(1e-3, 1e3),
    max_len=st.integers(1, 10),
)
def test_bracket_property(entries, t, max_len):
    pair = MatrixPair(Matrix2(*entries[:4]), Matrix2(*entries[4:]))
    est = jsr_lower_bruteforce(pair, t, max_len)
    assert est.lower <= est.upper + 1e-12
    w = est.argmax_word
    assert len(w) <= max_len and _is_primitive(w) and w == _necklace_min(w)


def test_upper_norm_rejects_signed_entries():
    signed = MatrixPair(Matrix2(1, -0.5, 0.3, 1), Matrix2(1, 0.2, 0.1, 0.9))
    with pytest.raises(NonPositiveMatrix):
        jsr_upper_norm(signed, 1, 6)


def test_upper_norm_smoke_commuting_like():
    from sturmjsr import d2_pair

    val = jsr_upper_norm(d2_pair(1.0, 1.0), 1, 4)
    assert math.isfinite(val)


def test_sturmian_value_fixed_parameters(reference_pair):
    assert abs(sturmian_value(reference_pair, 1, RationalParameter(0, 1))) <= 1e-14
    assert abs(sturmian_value(reference_pair, 1, RationalParameter(1, 1))) <= 1e-14


def test_sturmian_value_alternating_word(reference_pair):
    # (1/2) log of the larger root of z^2 - tr z + det for the exact product.
    tr, det = F(32707, 14336), F(9, 16) * F(13, 16)
    root = (float(tr) + math.sqrt(float(tr * tr - 4 * det))) / 2
    want = math.log(root) / 2
    got = sturmian_value(reference_pair, 1, RationalParameter(1, 2))
    assert abs(got - want) <= 1e-12


def test_ergodic_average_matches_product_route(reference_pair, symmetric_pair):
    rng = random.Random(51)
    for pair in (reference_pair, symmetric_pair):
        for t in (F(1, 2), F(1), F(3)):
            sys = induced_system(pair, t)
            for _ in range(10):
                n = rng.randint(1, 8)
                word = "".join(rng.choice("01") for _ in range(n))
                assert abs(
                    ergodic_average_f(sys, word) - word_value(pair.to_float(), float(t), word)
                ) <= 1e-10


def test_ergodic_average_matches_product_route_on_long_mechanical_words(
    reference_pair, symmetric_pair
):
    # The expanding walk raised DomainError from 21/55 on, and was 1.1e-2
    # off at 1/100 and 1.8e-2 off at 8/21 on the d2 pair.
    for pair in (reference_pair, symmetric_pair, reference_pair.to_float()):
        for t in (F(1, 2), F(3)):
            sys = induced_system(pair, t)
            for q in (21, 55, 89, 144):
                for p in (1, q // 3, (q - 1) // 2, q - 1):
                    if math.gcd(p, q) != 1:
                        continue
                    word = mechanical_word(RationalParameter(p, q))
                    want = word_value(pair.to_float(), float(t), word)
                    assert abs(ergodic_average_f(sys, word) - want) <= 1e-12, (p, q, t)
    sys = induced_system(reference_pair, 1)
    word = mechanical_word(RationalParameter(1, 100))
    assert abs(ergodic_average_f(sys, word) - word_value(reference_pair, 1.0, word)) <= 1e-12


def test_ergodic_average_unbalanced_word(reference_pair):
    sys = induced_system(reference_pair, F(3, 2))
    got = ergodic_average_f(sys, "0011")
    want = word_value(reference_pair.to_float(), 1.5, "0011")
    assert abs(got - want) <= 1e-10


def test_ergodic_average_single_letters(reference_pair):
    # The Dirac values log lambda_0 and log lambda_1 + log t.
    sys = induced_system(reference_pair, 1)
    want0 = math.log(projective_data(reference_pair.A0).perron_value)
    want1 = math.log(projective_data(reference_pair.A1).perron_value) + math.log(sys.t)
    assert abs(ergodic_average_f(sys, "0") - want0) <= 1e-12
    assert abs(ergodic_average_f(sys, "1") - want1) <= 1e-12


def test_restricted_max_regimes(reference_pair):
    p, v = sturmian_restricted_max(reference_pair, F(1, 4), 50)
    assert p == RationalParameter(0, 1) and abs(v) <= 1e-12
    p, v = sturmian_restricted_max(reference_pair, F(8), 50)
    assert p == RationalParameter(1, 1) and abs(v - math.log(8)) <= 1e-12


def test_restricted_max_agrees_with_bruteforce(reference_pair):
    p, _ = sturmian_restricted_max(reference_pair, 1, 50)
    est = jsr_lower_bruteforce(reference_pair, 1, 12, compute_upper=False)
    assert p == est.argmax_parameter


def _restricted_max_by_double_loop(pair, t, max_den):
    # The search as one word product per parameter, by rising q, then p.
    fpair, tf = pair.to_float(), float(t)
    best = None
    for q in range(1, max_den + 1):
        for p in range(q + 1):
            if math.gcd(p, q) != 1:
                continue
            param = RationalParameter(p, q)
            value = word_value(fpair, tf, mechanical_word(param))
            if best is None or value > best[1] + VALUE_TIE_TOL:
                best = (param, value)
    return best


def test_restricted_max_matches_the_double_loop(reference_pair, symmetric_pair):
    # Envelope breakpoints are scales where two parameters tie within
    # VALUE_TIE_TOL, so the tie rule decides there.
    rng = random.Random(71)
    for pair in (reference_pair, symmetric_pair, reference_pair.to_float()):
        th = thresholds(pair)
        t0, t1 = float(th.t0), float(th.t1)
        entries = tuple(float(x) for x in pair.A0.entries() + pair.A1.entries())
        for max_den in (1, 2, 13, 40):
            breaks = [b for b in _envelope(entries, max_den).breaks if t0 < b < t1]
            scales = rng.sample(breaks, min(3, len(breaks)))
            scales += [t0 * (t1 / t0) ** rng.uniform(-0.2, 1.2) for _ in range(3)]
            for t in scales:
                want = _restricted_max_by_double_loop(pair, t, max_den)
                assert sturmian_restricted_max(pair, t, max_den) == want, (max_den, t)


def test_restricted_max_rejects_outside_class(c_not_d_pair):
    from sturmjsr import d2_pair

    # The class is reported before the scale.
    for pair in (d2_pair(F(1, 2), F(3)), c_not_d_pair):
        for t in (1, -1):
            with pytest.raises(NotInClassD):
                sturmian_restricted_max(pair, t, 10)


@pytest.mark.parametrize("max_den", [0, -2])
def test_restricted_max_rejects_empty_denominator_cap(reference_pair, max_den):
    with pytest.raises(DomainError):
        sturmian_restricted_max(reference_pair, 1, max_den)


def test_unbalanced_values_below_sturmian_max(reference_pair):
    for t in (F(1, 2), F(2)):
        fpair = reference_pair.to_float()
        tf = float(t)
        balanced_best = -math.inf
        unbalanced = []
        for word in lyndon_words(12):
            v = word_value(fpair, tf, word)
            if is_balanced(word):
                balanced_best = max(balanced_best, v)
            else:
                unbalanced.append((word, v))
        assert unbalanced
        for word, v in unbalanced:
            assert v < balanced_best, word
