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
from sturmjsr.errors import (
    DomainError,
    NonPositiveMatrix,
    NonPositiveScale,
    NotInClassC,
    NotInClassD,
)
import sturmjsr.jsr as jsr_module
from sturmjsr.jsr import VALUE_TIE_TOL, _successor, lyndon_words
from sturmjsr.matrices import Matrix2, MatrixPair, spectral_radius, word_value
from sturmjsr.staircase import _envelope

from conftest import class_d_pairs, random_positive_matrix, word_value_oracle

_WALK = jsr_module._walk


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
    # Rank-one convergence pins the column-sum bound near log(2.14)/n here,
    # so the n = 12 gap sits near 0.063 and halves when n doubles.
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


def _full_walk(pair, t, max_len, value=word_value_oracle):
    """(lower, argmax_word) of every Lyndon word's value under the tie rule, nothing skipped."""
    fpair = pair.to_float()
    best_value, best_word = -math.inf, ""
    for word in lyndon_words(max_len):
        v = value(fpair, t, word)
        if v > best_value + VALUE_TIE_TOL:
            best_value, best_word = v, word
    return best_value, best_word


def test_lower_walk_matches_word_value_route(reference_pair, symmetric_pair):
    for pair, t in _bracket_cases(reference_pair, symmetric_pair):
        for n in range(1, 13):
            est = jsr_lower_bruteforce(pair, t, n, compute_upper=False)
            assert (est.lower, est.argmax_word) == _full_walk(pair, t, n), (pair, t, n)


def test_skip_successor_passes_exactly_the_extensions():
    # Duval's successor at n = len(w) is the first Lyndon word past w's subtree.
    for max_len in range(1, 15):
        words = list(lyndon_words(max_len))
        for i, w in enumerate(words):
            after = next((u for u in words[i + 1:] if not u.startswith(w)), "")
            assert _successor(w, len(w)) == after, (max_len, w)


# float.hex of lower and upper, and the argmax word, at max_len 16.
PINNED_ESTIMATES = {
    "reference-t-1": ("0x1.71e9f39975600p-2", "0x1.81c89bdf1ef15p-2", "01"),
    "reference-t0-half": ("-0x1.f000000000000p-52", "0x1.863032d627f87p-5", "0"),
    "reference-2-t1": ("0x1.5cbf056a7bb22p+1", "0x1.6a61b91801161p+1", "1"),
    "d2-t-3/2": ("0x1.dea2c71f66a18p-1", "0x1.ebe72fd2a317ap-1", "011"),
}


def _pinned_case(reference_pair, symmetric_pair, case):
    th = thresholds(reference_pair)
    return {
        "reference-t-1": (reference_pair, F(1)),
        "reference-t0-half": (reference_pair, th.t0 / 2),
        "reference-2-t1": (reference_pair, 2 * th.t1),
        "d2-t-3/2": (symmetric_pair, F(3, 2)),
        # w and its complement tie within VALUE_TIE_TOL here: the tie rule decides.
        "d2-t-1": (symmetric_pair, F(1)),
    }[case]


@pytest.mark.parametrize("case", list(PINNED_ESTIMATES))
def test_bruteforce_bits_are_pinned(reference_pair, symmetric_pair, case):
    # A change that moves any bit of these estimates must say so here.
    pair, t = _pinned_case(reference_pair, symmetric_pair, case)
    est = jsr_lower_bruteforce(pair, t, 16)
    assert (est.lower.hex(), est.upper.hex(), est.argmax_word) == PINNED_ESTIMATES[case]


@pytest.mark.parametrize("case", [*PINNED_ESTIMATES, "d2-t-1"])
def test_skipped_subtrees_leave_the_estimate_as_the_full_walk_has_it(
    reference_pair, symmetric_pair, case
):
    pair, t = _pinned_case(reference_pair, symmetric_pair, case)
    est = jsr_lower_bruteforce(pair, t, 16, compute_upper=False)
    assert (est.lower, est.argmax_word) == _full_walk(pair, t, 16, value=word_value)


def _walked_words(monkeypatch, pair, t, max_len):
    """The words jsr_lower_bruteforce hands to _walk, in order."""
    words = []

    def recording(pair, t, steps, stack):
        def record():
            for k, word in steps:
                words.append(word)
                yield k, word
        return _WALK(pair, t, record(), stack)

    monkeypatch.setattr(jsr_module, "_walk", recording)
    jsr_lower_bruteforce(pair, t, max_len, compute_upper=False)
    return words


@pytest.mark.parametrize("case, most", [("reference-t0-half", 88), ("reference-2-t1", 1760)])
def test_norm_bound_skips_most_words_outside_the_thresholds(
    reference_pair, symmetric_pair, monkeypatch, case, most
):
    # Of the 8,800 Lyndon words of length <= 16, at most 1 % are walked at
    # t0/2 and at most 20 % at 2 t1.
    pair, t = _pinned_case(reference_pair, symmetric_pair, case)
    assert 0 < len(_walked_words(monkeypatch, pair, t, 16)) <= most


def test_the_walk_skips_only_subtrees_off_the_chain_of_bests(
    reference_pair, symmetric_pair, monkeypatch
):
    # Each skipped word extends the last word walked before it, and the full
    # walk would not have taken it as a new best.
    for pair, t in ((reference_pair, F(1)), (symmetric_pair, F(3, 2)), (symmetric_pair, F(1))):
        walked = _walked_words(monkeypatch, pair, t, 14)
        seen = set(walked)
        assert len(seen) == len(walked) < 2538
        fpair, best, last = pair.to_float(), -math.inf, ""
        for word in lyndon_words(14):
            value = word_value(fpair, t, word)
            if word in seen:
                last = word
            else:
                assert word.startswith(last) and value <= best + VALUE_TIE_TOL, (t, word)
            if value > best + VALUE_TIE_TOL:
                best = value
        assert walked == [w for w in lyndon_words(14) if w in seen]


def _column_sum_norm(M):
    return max(abs(M.a) + abs(M.c), abs(M.b) + abs(M.d))


def _sum_norm(M):
    return sum(M.entries())


def _exhaustive_norm_bounds(pair, t, max_len, norm=_column_sum_norm):
    """min over n' <= n of (1/n') log max ||A_w|| over all 2^n' products, for each n <= max_len."""
    gens = (pair.A0.to_float(), pair.A1.to_float().scaled(float(t)))
    level = [(A, 0.0) for A in gens]
    best, bounds = math.inf, []
    for n in range(1, max_len + 1):
        best = min(best, max(math.log(norm(M)) + s for M, s in level) / n)
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
        for n, want in enumerate(_exhaustive_norm_bounds(pair, t, 12), start=1):
            assert abs(jsr_upper_norm(pair, t, n) - want) <= 1e-12, (pair, t, n)


def test_upper_bound_is_never_above_the_sum_norm_bound(reference_pair, symmetric_pair):
    # The entrywise sum of a positive matrix is above its largest column sum.
    for pair, t in _bracket_cases(reference_pair, symmetric_pair):
        for n, looser in enumerate(_exhaustive_norm_bounds(pair, t, 10, _sum_norm), start=1):
            assert jsr_upper_norm(pair, t, n) <= looser, (pair, t, n)


def test_upper_norm_is_the_bruteforce_upper_bit_for_bit(reference_pair, symmetric_pair):
    for pair, t in _bracket_cases(reference_pair, symmetric_pair):
        for n in range(1, 13):
            assert jsr_upper_norm(pair, t, n) == jsr_lower_bruteforce(pair, t, n).upper, (t, n)


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
    assert (est.lower, w) == _full_walk(pair, t, max_len)


@pytest.mark.parametrize("scale_a0", [1.0, 1e308])
def test_skipped_subtrees_where_the_first_level_overflows(reference_pair, scale_a0):
    # At t = 1e308 the hull levels scale the generators by 2^-k, and the
    # column-sum bounds of their products gain n k log 2 back.  With A0 scaled
    # up as well the pair is the reference pair at t = 1, times 1e308, and
    # "01" wins only if the bound does so.
    A0 = reference_pair.A0.to_float().scaled(scale_a0)
    pair = MatrixPair(A0, reference_pair.A1.to_float())
    est = jsr_lower_bruteforce(pair, 1e308, 10)
    assert (est.lower, est.argmax_word) == _full_walk(pair, 1e308, 10)
    assert est.argmax_word == ("01" if scale_a0 > 1 else "1")


@pytest.mark.parametrize("t", [1e154, 1e200, 1e300])
def test_upper_norm_at_large_scales(reference_pair, t):
    # Products of the unscaled first level overflow at these scales.  Scaling
    # A0 and t by 2^-k shifts the bound by k log 2.
    est = jsr_lower_bruteforce(reference_pair, t, 10)
    assert math.isfinite(est.lower) and math.isfinite(est.upper)
    assert est.lower <= est.upper
    k = math.frexp(t)[1]
    small = MatrixPair(reference_pair.A0.to_float().scaled(2.0**-k), reference_pair.A1)
    want = jsr_upper_norm(small, math.ldexp(t, -k), 10) + k * math.log(2)
    assert abs(est.upper - want) <= 1e-14 * want


@pytest.mark.parametrize("t", [1e308, 1.7e308])
def test_upper_norm_where_the_first_level_overflows(reference_pair, t):
    # t*A1's row sums overflow; the bound is finite, and it sits as far above
    # log t as it does at t = 1e300, where only the second level overflows.
    est = jsr_lower_bruteforce(reference_pair, t, 10)
    assert math.isfinite(est.upper) and est.lower <= est.upper
    far = jsr_upper_norm(reference_pair, 1e300, 10) - math.log(1e300)
    assert abs((est.upper - math.log(t)) - far) <= 1e-12


def test_bounds_where_the_first_level_underflows(reference_pair):
    # Scaled by 1e-300, A0 and t*A1 have products below the smallest float,
    # so the first level is rescaled, as where they overflow.  The pair is
    # the reference pair at t = 1, times 1e-300.
    pair = MatrixPair(reference_pair.A0.to_float().scaled(1e-300), reference_pair.A1.to_float())
    est = jsr_lower_bruteforce(pair, 1e-300, 10)
    assert (est.lower, est.argmax_word) == _full_walk(pair, 1e-300, 10)
    want = jsr_upper_norm(reference_pair, 1, 10) + math.log(1e-300)
    assert abs(est.upper - want) <= 1e-12 * abs(want)


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


def test_sturmian_value_checks_the_class_then_the_scale(reference_pair):
    affine = Matrix2(2, 1, 1, 2)  # alpha = 0: neither concave nor convex
    with pytest.raises(NotInClassC):
        sturmian_value(MatrixPair(affine, affine), 0, RationalParameter(1, 2))
    for t in (0, -1, F(-1, 2), 0.0):
        with pytest.raises(NonPositiveScale):
            sturmian_value(reference_pair, t, RationalParameter(1, 2))


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
        sys = induced_system(pair)
        for t in (F(1, 2), F(1), F(3)):
            for _ in range(10):
                n = rng.randint(1, 8)
                word = "".join(rng.choice("01") for _ in range(n))
                assert abs(
                    ergodic_average_f(sys, word, t) - word_value(pair.to_float(), float(t), word)
                ) <= 1e-10


def test_ergodic_average_matches_product_route_on_long_mechanical_words(
    reference_pair, symmetric_pair
):
    # The expanding walk raised DomainError from 21/55 on, and was 1.1e-2
    # off at 1/100 and 1.8e-2 off at 8/21 on the d2 pair.
    for pair in (reference_pair, symmetric_pair, reference_pair.to_float()):
        sys = induced_system(pair)
        for t in (F(1, 2), F(3)):
            for q in (21, 55, 89, 144):
                for p in (1, q // 3, (q - 1) // 2, q - 1):
                    if math.gcd(p, q) != 1:
                        continue
                    word = mechanical_word(RationalParameter(p, q))
                    want = word_value(pair.to_float(), float(t), word)
                    assert abs(ergodic_average_f(sys, word, t) - want) <= 1e-12, (p, q, t)
    sys = induced_system(reference_pair)
    word = mechanical_word(RationalParameter(1, 100))
    assert abs(ergodic_average_f(sys, word, 1) - word_value(reference_pair, 1.0, word)) <= 1e-12


def test_ergodic_average_unbalanced_word(reference_pair):
    got = ergodic_average_f(induced_system(reference_pair), "0011", F(3, 2))
    want = word_value(reference_pair.to_float(), 1.5, "0011")
    assert abs(got - want) <= 1e-10


def test_ergodic_average_single_letters(reference_pair):
    # The Dirac values log lambda_0 and log lambda_1 + log t.
    sys, t = induced_system(reference_pair), 1
    want0 = math.log(projective_data(reference_pair.A0).perron_value)
    want1 = math.log(projective_data(reference_pair.A1).perron_value) + math.log(t)
    assert abs(ergodic_average_f(sys, "0", t) - want0) <= 1e-12
    assert abs(ergodic_average_f(sys, "1", t) - want1) <= 1e-12


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


@settings(max_examples=30, deadline=None)
@given(pair=class_d_pairs(), u=st.floats(0, 1), max_den=st.sampled_from([1, 2, 5, 13]))
def test_restricted_max_matches_the_double_loop_on_population_pairs(pair, u, max_den):
    # t log-uniform in [t0/2, 2 t1], so both domination regimes are drawn too.
    th = thresholds(pair)
    lo, hi = float(th.t0) / 2, 2 * float(th.t1)
    t = lo * (hi / lo) ** u
    want = _restricted_max_by_double_loop(pair, t, max_den)
    assert sturmian_restricted_max(pair, t, max_den) == want


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


def test_bruteforce_on_products_that_can_underflow_is_a_domain_error():
    # A0's entries are below 1/float max: each word with a 0 came out nan,
    # never passed the running best, and "1" won unchallenged.
    pair = MatrixPair(Matrix2(1e-310, 2e-310, 3e-310, 5e-310), Matrix2(1.0, 2.0, 3.0, 4.0))
    with pytest.raises(DomainError):
        jsr_lower_bruteforce(pair, 1, 6)


def test_bruteforce_on_products_that_overflow_is_a_domain_error():
    # A0's first column sums past the float maximum; the walk raised a bare
    # ZeroDivisionError once a product overflowed.
    pair = MatrixPair(Matrix2(1e308, 1e307, 1e308, 1e308), Matrix2(1e308, 2, 3, 4))
    with pytest.raises(DomainError):
        jsr_lower_bruteforce(pair, 1, 8)
