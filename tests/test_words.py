import ast
import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

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
        rows = list(stern_brocot_words(cap))
        assert len(rows) == count
        assert sorted((q, p) for p, q, _ in rows) == [
            (q, p) for q in range(1, cap + 1) for p in range(q + 1) if math.gcd(p, q) == 1
        ]
        assert all(w == mechanical_word(RP(p, q)) for p, q, w in rows)
        for (p, q, w), (p2, q2, w2) in zip(rows, rows[1:]):
            assert w < w2 and F(p, q) < F(p2, q2)
    # The branch toward 0 is max_den levels deep, past the recursion limit.
    first = list(itertools.islice(stern_brocot_words(2000), 3))
    assert first == [(0, 1, "0"), (1, 2000, "0" * 1999 + "1"), (1, 1999, "0" * 1998 + "1")]
    assert list(stern_brocot_words(0)) == []


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
        sys = induced_system(pair, 1)
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
