"""Brute-force and Sturmian-restricted joint spectral radius estimation.

The log of the joint spectral radius of (A0, t*A1) is the supremum over
finite binary words w of (1/|w|) log r(A_t(w)).  The spectral radius of a
product is a class function of the word's necklace, so the brute force
enumerates one representative per primitive necklace (Lyndon words, via
Duval's generator) instead of all 2^n words.  Consecutive Lyndon words share
long prefixes, whose lengths Duval's successor fixes, and the float walk of
matrices multiplies only the letters past them.  The ergodic-average route
sums the induced function along the periodic orbit of the word and must
agree with the product's spectral radius, so each can check the other.

Upper bounds come from the entrywise sum norm, which is submultiplicative,
so every product length yields a valid bound and the minimum over lengths
is reported.  For positive matrices the sum norm of A_w is 1^T A_w 1, so
only the row vectors 1^T A_w matter, and of those only the vertices of the
upper-right convex hull can carry a level maximum now or after any right
extension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .classify import pair_report
from .dynamics import InducedSystem, class_d_system, f_eval, periodic_orbit
from .errors import (
    DomainError,
    EmptyWord,
    NonPositiveMatrix,
    NonPositiveScale,
    NotInClassC,
)
from .matrices import MatrixPair, _walk, word_value, word_values
from .scalar import Number
from .words import RationalParameter, is_balanced, mechanical_word, stern_brocot_words

VALUE_TIE_TOL = 1e-12


@dataclass(frozen=True)
class JsrEstimate:
    """Bracketing estimate of log r for a scaled pair.

    lower is attained by argmax_word; upper, when computed, is the minimum
    over product lengths of the normalized sum-norm bound.
    """

    lower: float
    upper: Optional[float]
    argmax_word: str
    argmax_parameter: Optional[RationalParameter]
    max_length: int


def lyndon_words(max_len: int) -> Iterator[str]:
    """All binary Lyndon words of length <= max_len in lexicographic order.

    Lyndon words are exactly the lexicographically least representatives of
    the primitive necklaces.  The order is strictly increasing, and there
    are none when max_len < 1.
    """
    if max_len < 1:
        return
    w = "0"
    while w:
        yield w
        # Duval: repeat w out to max_len, drop trailing 1s, raise the last 0.
        w = (w * (max_len // len(w) + 1))[:max_len].rstrip("1")
        if w:
            w = w[:-1] + "1"


def _duval_steps(words: Iterator[str]) -> Iterator[tuple[int, str]]:
    """(k, word) for consecutive Lyndon words, k the length of the prefix shared with the last.

    Duval's successor repeats the previous word out to max_len, cuts it
    after its last 0 and raises that 0 to 1.  So w[:-1] runs along prev,
    and on past prev's end, and w's last letter differs from prev's letter
    in that place, if prev has one: k is min(len(prev), len(w) - 1).
    """
    prev = 0
    for word in words:
        n = len(word)
        yield (prev if prev < n else n - 1), word
        prev = n


def _check_bruteforce_args(pair: MatrixPair, t: Number, max_len: int) -> None:
    if not (pair.A0.is_positive() and pair.A1.is_positive()):
        raise NonPositiveMatrix("brute force needs positive entries")
    if not t > 0:
        raise NonPositiveScale(f"t must be positive, got {t}")
    if max_len < 1:
        raise EmptyWord("max_len must be at least 1")


def jsr_lower_bruteforce(
    pair: MatrixPair, t: Number, max_len: int, compute_upper: bool = True
) -> JsrEstimate:
    """Maximize the per-letter log spectral radius over primitive necklaces.

    Ties within 1e-12 go to the lexicographically least representative,
    which is the first one the walk meets.  Each value has the same bits as
    word_value, since word_value's product comes from the same walk.  The
    parameter field is the reduced letter frequency of the winner when that
    word is balanced, and None otherwise.
    """
    _check_bruteforce_args(pair, t, max_len)
    best_value = -math.inf
    best_word = ""
    words, walked = itertools.tee(lyndon_words(max_len))
    for word, value in zip(words, _walk(pair, t, _duval_steps(walked), [])):
        if value > best_value + VALUE_TIE_TOL:
            best_value, best_word = value, word

    param = None
    if is_balanced(best_word):
        ones = best_word.count("1")
        g = math.gcd(ones, len(best_word))
        param = RationalParameter(ones // g, len(best_word) // g)

    upper = jsr_upper_norm(pair, t, max_len) if compute_upper else None
    return JsrEstimate(
        lower=best_value,
        upper=upper,
        argmax_word=best_word,
        argmax_parameter=param,
        max_length=max_len,
    )


def _upper_right_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Vertices of the convex hull that maximize some positive functional.

    The chain runs from the highest point (rightmost among ties) to the
    rightmost (highest among ties), so it starts at the first point not
    lexicographically below the highest; collinear and interior points are
    dropped.
    """
    top = max(points, key=lambda v: (v[1], v[0]))
    hull: list[tuple[float, float]] = []
    for v in sorted(v for v in points if v >= top):
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            if (bx - ax) * (v[1] - ay) - (by - ay) * (v[0] - ax) < 0:
                break
            hull.pop()
        hull.append(v)
    return hull


def jsr_upper_norm(pair: MatrixPair, t: Number, max_len: int) -> float:
    """min over n <= max_len of (1/n) log max over |w| = n of the sum norm.

    The entrywise sum norm is submultiplicative, so every length gives a
    valid upper bound.  For positive matrices it equals 1^T A_w 1, and the
    level-n row vectors 1^T A_w come from level n-1 by right multiplication
    with A0 or t*A1.  A vector off the upper-right convex hull of its level
    never maximizes a positive functional, and right extensions only apply
    positive functionals, so each level keeps just those hull vertices, with
    one common log scale per level.
    """
    _check_bruteforce_args(pair, t, max_len)
    gens = (pair.A0.to_float(), pair.A1.to_float().scaled(float(t)))
    level = _upper_right_hull([(A.a + A.c, A.b + A.d) for A in gens])
    log_scale = 0.0
    best = math.inf
    for n in range(1, max_len + 1):
        best = min(best, (math.log(max(x + y for x, y in level)) + log_scale) / n)
        if n < max_len:
            nxt = [(x * A.a + y * A.c, x * A.b + y * A.d) for x, y in level for A in gens]
            m = max(max(v) for v in nxt)
            r = 1.0 / m
            level = _upper_right_hull([(x * r, y * r) for x, y in nxt])
            log_scale += math.log(m)
    return best


def sturmian_value(pair: MatrixPair, t: Number, param: RationalParameter) -> float:
    """Per-letter log spectral radius of the mechanical-word product.

    By the ergodic-average identity this equals the integral of the induced
    function of the scaled pair against the Sturmian measure of the given
    parameter.
    """
    if not pair_report(pair).in_C:
        raise NotInClassC("sturmian values need a concave-convex pair")
    if not t > 0:
        raise NonPositiveScale(f"t must be positive, got {t}")
    return word_value(pair.to_float(), float(t), mechanical_word(param))


def ergodic_average_f(sys: InducedSystem, word: str) -> float:
    """Average of the induced function over the periodic orbit of the word.

    Second route to the word value: the orbit comes from the product's fixed
    point and the contractions, but the value is the sum of the induced
    function along it, not the product's spectral radius.
    """
    orbit = periodic_orbit(sys, word)
    return math.fsum(f_eval(sys, x) for x in orbit) / len(orbit)


def sturmian_restricted_max(
    pair: MatrixPair, t: Number, max_den: int
) -> tuple[RationalParameter, float]:
    """Maximize the Sturmian value over parameters with denominator <= max_den.

    Ties within 1e-12 break toward smaller denominator, then smaller
    numerator: the values come from one prefix-shared walk in rising p/q
    order and are replayed by (q, p).  The restricted maximum converges to
    log r of the scaled pair as the denominator cap grows.
    """
    tf = float(t)
    class_d_system(pair, tf)  # checks the float scale, so a t that rounds to 0 fails
    if max_den < 1:
        raise DomainError(f"max_den must be at least 1, got {max_den}")
    params, words = itertools.tee(stern_brocot_words(max_den))
    values = word_values(pair.to_float(), tf, (word for _, _, word in words))
    best: tuple[RationalParameter, float] | None = None
    for (q, p), value in sorted(zip(((q, p) for p, q, _ in params), values)):
        if best is None or value > best[1] + VALUE_TIE_TOL:
            best = (RationalParameter(p, q), value)
    assert best is not None
    return best
