import ast
import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmjsr import (
    RationalParameter,
    induced_system,
    is_balanced,
    mechanical_word,
    orbit_min_max,
    periodic_point,
)
from sturmjsr import words
from sturmjsr.dynamics import branch_of, periodic_orbit, periodic_point_budget
from sturmjsr.errors import DomainError
from sturmjsr.words import farey_neighbors, stern_brocot_words

from conftest import common_prefix, farey_walk_oracle


def RP(p, q):
    return RationalParameter(p, q)


def rotations(word):
    return [word[i:] + word[:i] for i in range(len(word))]


def test_mechanical_words_small_slopes():
    assert mechanical_word(RP(1, 2)) == "01"
    assert mechanical_word(RP(1, 3)) == "001"
    assert mechanical_word(RP(2, 5)) == "00101"
    assert mechanical_word(RP(3, 8)) == "00100101"
    assert mechanical_word(RP(5, 13)) == "0010010100101"
    assert mechanical_word(RP(0, 1)) == "0"
    assert mechanical_word(RP(1, 1)) == "1"


def test_parameter_validation():
    with pytest.raises(DomainError):
        RationalParameter(2, 4)
    with pytest.raises(DomainError):
        RationalParameter(3, 2)
    with pytest.raises(DomainError):
        RationalParameter(1, 0)


def test_mechanical_words_count_and_balance():
    for q in range(1, 41):
        for p in range(q + 1):
            if math.gcd(p, q) != 1:
                continue
            w = mechanical_word(RP(p, q))
            assert len(w) == q and w.count("1") == p
            assert is_balanced(w)


def test_stern_brocot_words_are_the_mechanical_words():
    for cap, count in ((40, 491), (150, 6859)):
        words = [w for _, w in stern_brocot_words(cap)]
        rows = [(w.count("1"), len(w), w) for w in words]
        assert len(rows) == count
        assert sorted((q, p) for p, q, _ in rows) == [
            (q, p) for q in range(1, cap + 1) for p in range(q + 1) if math.gcd(p, q) == 1
        ]
        assert all(w == mechanical_word(RP(p, q)) for p, q, w in rows)
        for (p, q, w), (p2, q2, w2) in zip(rows, rows[1:]):
            assert w < w2 and F(p, q) < F(p2, q2)
    # The branch toward 0 is max_den levels deep, past the recursion limit.
    first = list(itertools.islice(stern_brocot_words(2000), 3))
    assert first == [(0, "0"), (1, "0" * 1999 + "1"), (1998, "0" * 1998 + "1")]
    assert list(stern_brocot_words(0)) == []


def test_stern_brocot_steps_share_the_longest_common_prefix():
    for cap in [*range(1, 61), 150]:
        prev = ""
        for k, w in stern_brocot_words(cap):
            assert k == common_prefix(prev, w), (cap, prev, w)
            prev = w


def test_balance_judgments():
    assert is_balanced("00101")
    assert not is_balanced("0011")
    assert is_balanced("0")
    assert is_balanced("1")
    assert not is_balanced("0010011")


def test_rotations_of_mechanical_words_balanced():
    for p, q in ((1, 2), (2, 5), (3, 8), (5, 13), (4, 11)):
        for rot in rotations(mechanical_word(RP(p, q))):
            assert is_balanced(rot)


def test_orbit_min_max_values():
    assert orbit_min_max(RP(1, 2)) == ("01", "10")
    assert orbit_min_max(RP(2, 5)) == ("00101", "10100")
    assert orbit_min_max(RP(0, 1)) == ("0", "0")


def test_orbit_min_max_are_rotations():
    # The least and greatest rotation, for every parameter with q <= 150.
    for q in range(1, 151):
        for p in range(q + 1):
            if math.gcd(p, q) == 1:
                rots = rotations(mechanical_word(RP(p, q)))
                assert orbit_min_max(RP(p, q)) == (min(rots), max(rots)), (p, q)


def test_farey_neighbors_against_bruteforce():
    target = F((3 - math.sqrt(5)) / 2)
    for cap in (10, 20, 40):
        lo, hi = farey_neighbors(target, cap)
        fracs = sorted(
            {
                F(p, q)
                for q in range(1, cap + 1)
                for p in range(q + 1)
            }
        )
        want_lo = max(f for f in fracs if f < target)
        want_hi = min(f for f in fracs if f > target)
        assert (lo, hi) == (want_lo, want_hi)
    assert farey_neighbors(F(1, 2), 10) == (F(1, 2), F(1, 2))


exact_targets = st.integers(1, 10**15).flatmap(
    lambda m: st.integers(0, m).map(lambda n: F(n, m))
)
float_targets = st.floats(0, 1).map(F)


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(exact_targets, float_targets), cap=st.integers(1, 10**4))
def test_farey_descent_is_the_fraction_walk(x, cap):
    lo, hi = farey_neighbors(x, cap)
    assert (lo, hi) == farey_walk_oracle(x, cap)
    if lo == hi:
        assert lo == x and x.denominator <= cap
        return
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    assert lo < x < hi
    assert b <= cap and d <= cap
    assert c * b - a * d == 1
    assert b + d > cap


@settings(max_examples=100, deadline=None)
@given(x=st.one_of(exact_targets, float_targets))
def test_a_float_cap_counts_as_its_floor(x):
    want = farey_walk_oracle(x, 40)
    for cap in (40.0, 40.5):
        got = farey_neighbors(x, cap)
        assert got == want
        assert all(type(f.numerator) is int and type(f.denominator) is int for f in got)


def test_farey_descent_jumps_whole_runs():
    # The Fraction walk would take 10**9 levels on either chain.
    cap = 10**9
    assert farey_neighbors(F(1, 10**12), cap) == (F(0), F(1, cap))
    assert farey_neighbors(1 - F(1, 10**12), cap) == (F(cap - 1, cap), F(1))


def test_orbit_points_fixed_parameters(reference_system):
    pts = sorted(periodic_orbit(reference_system, mechanical_word(RP(0, 1))))
    assert len(pts) == 1 and abs(pts[0] - 1 / 15) <= 1e-12
    pts = sorted(periodic_orbit(reference_system, mechanical_word(RP(1, 1))))
    assert len(pts) == 1 and abs(pts[0] - 16 / 17) <= 1e-12


def test_orbit_points_split_between_branches(symmetric_system):
    pts = sorted(periodic_orbit(symmetric_system, mechanical_word(RP(1, 2))))
    assert len(pts) == 2
    assert branch_of(symmetric_system, pts[0]) == 0
    assert branch_of(symmetric_system, pts[1]) == 1


def test_orbit_points_branch_counts(reference_system):
    rng = random.Random(41)
    for _ in range(15):
        q = rng.randint(1, 9)
        p = rng.randint(0, q)
        if math.gcd(p, q) != 1:
            continue
        pts = sorted(periodic_orbit(reference_system, mechanical_word(RP(p, q))))
        ones = sum(1 for x in pts if branch_of(reference_system, x) == 1)
        assert len(pts) == q and ones == p


def test_orbit_points_are_the_periodic_points_of_the_rotations(reference_pair, symmetric_pair):
    # The backward walk against one closed-form periodic point per rotation.
    for pair in (reference_pair, symmetric_pair, reference_pair.to_float()):
        sys = induced_system(pair)
        for p, q in ((0, 1), (1, 1), (1, 2), (2, 5), (5, 13), (8, 21), (21, 55), (34, 89)):
            pts = sorted(periodic_orbit(sys, mechanical_word(RP(p, q))))
            want = sorted(periodic_point(sys, r) for r in rotations(mechanical_word(RP(p, q))))
            assert len(pts) == q
            # Each side is within budget of the true orbit.
            worst = max(abs(a - b) for a, b in zip(pts, want))
            assert worst <= 2 * periodic_point_budget(q), (p, q)


def test_words_is_a_leaf_module():
    tree = ast.parse(Path(words.__file__).read_text(encoding="utf-8"))
    local = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
    }
    assert local == {"errors"}
