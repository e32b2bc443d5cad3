"""Brute-force and Sturmian-restricted joint spectral radius estimation.

The log of the joint spectral radius of (A0, t*A1) is the supremum over
finite binary words w of (1/|w|) log r(A_t(w)).  The spectral radius of a
product is a class function of the word's necklace, so the brute force
enumerates one representative per primitive necklace (Lyndon words, via
Duval's successor) instead of all 2^n words.  Consecutive Lyndon words share
long prefixes, whose lengths Duval's successor fixes, and the float walk of
matrices multiplies only the letters past them.  The ergodic-average route
sums the induced function along the periodic orbit of the word and must
agree with the product's spectral radius, so each can check the other.

The Sturmian table, the value of each mechanical word up to a denominator
cap, is the same walk over the Stern-Brocot descent, which hands it each
word's shared prefix; the restricted maximum and the staircase read it.

The induced 1-norm ||.||_1, the largest column sum of |entries|, is
submultiplicative and bounds the spectral radius.  So with L_j the log of
the largest 1-norm over products of j letters, every L_j / j bounds log r
from above, and the minimum over j <= max_len is the upper bound.  For
positive matrices the column sums of A_w are the entries of the row vector
1^T A_w, and of those vectors only the vertices of the upper-right convex
hull can carry a level maximum now or after any right extension, so one
hull per length gives each L_j.

The same levels prune the walk, a branch and bound over the tree of Lyndon
words, in which a word's children are the Lyndon words it is a proper
prefix of.  A word wv of length m has value at most
(log ||A_t(w)||_1 + L_{m-|w|}) / m.  When that bound stays below the
running best by the tie tolerance less a margin, for every m up to
max_len, no extension of w can become the best, and the walk jumps past
all of them.  Only the walk's own running best sets the bar, and it only
rises, so a skipped word could not have replaced the best when its turn
came: the chain of interim bests, and with it the tie rule's choice, is
the same as that of the full walk.  The margin covers the float error of
the bound and of a walked value.  Each is a sum of at most two logs of
floats per letter, and a log of a float is at most 745 in size, so each is
off by less than 2e-13 per letter of the longest word: far below the
margin of 1e-9 (1 + |best|) at any max_len the walk can reach.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .dynamics import InducedSystem, class_d_system, f_eval, induced_system, periodic_orbit
from .errors import DomainError, EmptyWord, NonPositiveMatrix
from .matrices import _COLUMN_SUM_CAP, MatrixPair, Row, _walk, word_value
from .scalar import Number, check_scale
from .words import RationalParameter, is_balanced, mechanical_word, stern_brocot_words

VALUE_TIE_TOL = 1e-12

# A subtree is skipped only when its bound clears best + VALUE_TIE_TOL by
# this much per unit of 1 + |best|, to cover the float error of the bound
# and of a walked value.
_PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class JsrEstimate:
    """Bracketing estimate of log r for a scaled pair.

    lower is attained by argmax_word; upper, when computed, is the minimum
    over product lengths n of L_n / n, L_n the log of the largest 1-norm
    (column sum) of an n-letter product.
    """

    lower: float
    upper: Optional[float]
    argmax_word: str
    argmax_parameter: Optional[RationalParameter]
    max_length: int


def _successor(word: str, n: int) -> str:
    """Duval's successor: the next Lyndon word of length <= n after word, "" after "1".

    Repeat word out to n, drop the trailing 1s, raise the last 0 to 1.  With
    n = len(word) that gives word up to its last 0, then a 1: the first
    Lyndon word of any length past those that start with word, since a word
    between the two would start with word up to its last 0 and, being above
    word, go on with word's 1s.
    """
    w = (word * (n // len(word) + 1))[:n].rstrip("1")
    return w[:-1] + "1" if w else ""


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
        w = _successor(w, max_len)


def _check_bruteforce_args(pair: MatrixPair, t: Number, max_len: int) -> None:
    if not (pair.A0.is_positive() and pair.A1.is_positive()):
        raise NonPositiveMatrix("brute force needs positive entries")
    check_scale(t)
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

    After each word w shorter than max_len the walk reads log ||A_t(w)||_1
    off w's row of the stack.  L_j, the log of the largest 1-norm of a
    product of j letters, comes from _norm_levels, whose minimum of
    L_j / j is also the upper bound, so the levels are built once.  When
    (log ||A_t(w)||_1 + L_{m-|w|}) / m <= best + 1e-12 - 1e-9 (1 + |best|)
    for every m in (|w|, max_len], best the running best, the walk skips
    w's extensions.  None of them could have passed best + 1e-12 when its
    turn came, since best only rises, so the chain of interim bests and the
    tie rule's pick are the full walk's, bit for bit.  The margin is far
    above the float error of the bound and of a value, below 2e-13 per
    letter (see the module docstring).
    """
    _check_bruteforce_args(pair, t, max_len)
    levels = _norm_levels(pair, t, max_len)
    log_t = math.log(float(t))
    stack: list[Row] = []
    best_value, best_word, word = -math.inf, "", "0"
    bar = -math.inf
    # floors[n]: the largest log ||A_t(w)||_1 of a word w of length n whose
    # extensions cannot pass the bar, filled in as needed for each new bar.
    floors: list[Optional[float]] = [None] * max_len

    def steps() -> Iterator[tuple[int, str]]:
        # (k, word), k the prefix shared with the word before, as Duval's
        # successor fixes it.  Each step is drawn once _walk has put the last
        # word's product on the stack and the loop below has weighed its value.
        nonlocal word
        k = 0
        while word:
            yield k, word
            n = len(word)
            beaten = False
            if n < max_len:
                if floors[n] is None:
                    floors[n] = min(
                        (n + j) * bar - levels[j - 1] for j in range(1, max_len - n + 1)
                    )
                a, b, c, d, s, ones = stack[-1]
                beaten = math.log(max(a + c, b + d)) + s + ones * log_t <= floors[n]
            nxt = _successor(word, n if beaten else max_len)
            word, k = nxt, min(n, len(nxt) - 1)

    for value in _walk(pair, t, steps(), stack):
        if value > best_value + VALUE_TIE_TOL:
            best_value, best_word = value, word
            bar = best_value + VALUE_TIE_TOL - _PRUNE_MARGIN * (1 + abs(best_value))
            floors = [None] * max_len

    param = None
    if is_balanced(best_word):
        ones = best_word.count("1")
        g = math.gcd(ones, len(best_word))
        param = RationalParameter(ones // g, len(best_word) // g)

    return JsrEstimate(
        lower=best_value,
        upper=_upper_bound(levels) if compute_upper else None,
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


def _norm_levels(pair: MatrixPair, t: Number, max_len: int) -> list[float]:
    """L_n, the log of the largest 1-norm ||A_t(w)||_1 over words w of length n <= max_len.

    The level-n row vectors 1^T A_w, whose entries are the column sums of
    A_w, come from level n-1 by right multiplication with A0 or t*A1, level
    0 being 1^T itself.  A vector off the upper-right convex hull of its
    level never maximizes a positive functional, and right extensions only
    apply positive functionals, so each level keeps just those hull
    vertices.  The hull's ends are the highest and the rightmost vertex, so
    it keeps the largest entry m, the level's largest column sum: L_n is
    log m plus the log scale of the level before, and the level is divided
    by m.  A normalized row times a generator whose column sums stay below
    _COLUMN_SUM_CAP stays finite, so where one does not, both generators
    are scaled by 2^-k, k the exponent of t, and each L_n gets n k log 2
    back.  A level lost to overflow (inf or nan) is inf, which bounds
    nothing.
    """
    tf, k_gens = float(t), 0
    A0, A1 = pair.A0.to_float(), pair.A1.to_float()
    gens = (A0, A1.scaled(tf))
    if not all(max(A.a + A.c, A.b + A.d) <= _COLUMN_SUM_CAP for A in gens):
        k_gens = math.frexp(tf)[1]
        gens = (A0.scaled(2.0**-k_gens), A1.scaled(math.ldexp(tf, -k_gens)))
    shift = k_gens * math.log(2)
    level, log_scale, levels = [(1.0, 1.0)], 0.0, []
    for n in range(1, max_len + 1):
        nxt = [(x * A.a + y * A.c, x * A.b + y * A.d) for x, y in level for A in gens]
        m = max(max(v) for v in nxt)
        r = 1.0 / m
        level = _upper_right_hull([(x * r, y * r) for x, y in nxt])
        log_scale += math.log(m)
        levels.append(log_scale + n * shift if log_scale < math.inf else math.inf)
    return levels


def _upper_bound(levels: list[float]) -> float:
    """min over n of L_n / n: each is a bound, since ||.||_1 is submultiplicative."""
    return min(c / n for n, c in enumerate(levels, start=1))


def jsr_upper_norm(pair: MatrixPair, t: Number, max_len: int) -> float:
    """min over n <= max_len of (1/n) log max over |w| = n of ||A_t(w)||_1.

    The 1-norm, the largest column sum, is submultiplicative, so every
    length gives a valid upper bound.  For positive matrices the column sums
    of A_w are the entries of 1^T A_w, and the level maxima come from the
    upper-right hulls of those row vectors (see _norm_levels), which stay
    finite up to the largest float t.
    """
    _check_bruteforce_args(pair, t, max_len)
    return _upper_bound(_norm_levels(pair, t, max_len))


def sturmian_value(pair: MatrixPair, t: Number, param: RationalParameter) -> float:
    """Per-letter log spectral radius of the mechanical-word product.

    By the ergodic-average identity this equals the integral of the induced
    function of the scaled pair against the Sturmian measure of the given
    parameter.  The pair must be in class C, checked before the scale.
    """
    induced_system(pair, t)
    return word_value(pair.to_float(), float(t), mechanical_word(param))


def ergodic_average_f(sys: InducedSystem, word: str, t: Number) -> float:
    """Average of the induced function at scale t over the periodic orbit of the word.

    Second route to the word value: the orbit comes from the product's fixed
    point and the contractions, but the value is the sum of the induced
    function along it, not the product's spectral radius.
    """
    orbit = periodic_orbit(sys, word)
    return math.fsum(f_eval(sys, x, t) for x in orbit) / len(orbit)


def _sturmian_table(pair: MatrixPair, t: Number, max_den: int) -> list[tuple[int, int, float]]:
    """(p, q, Sturmian value at scale t) per reduced p/q with q <= max_den, by rising p/q.

    One walk over the Stern-Brocot descent's mechanical words, which hands
    it the prefix each shares with the word before, so each value has
    word_value's bits.  The caller checks the pair and the scale.
    """
    if max_den < 1:
        raise DomainError(f"max_den must be at least 1, got {max_den}")
    steps, words = itertools.tee(stern_brocot_words(max_den))
    values = _walk(pair.to_float(), t, steps, [])
    return [(w.count("1"), len(w), value) for (_, w), value in zip(words, values)]


def sturmian_restricted_max(
    pair: MatrixPair, t: Number, max_den: int
) -> tuple[RationalParameter, float]:
    """Maximize the Sturmian value over parameters with denominator <= max_den.

    Ties within 1e-12 break toward smaller denominator, then smaller
    numerator: the rows of the Sturmian table, built in rising p/q order,
    are replayed by (q, p).  The restricted maximum converges to log r of
    the scaled pair as the denominator cap grows.
    """
    class_d_system(pair, t)
    best: tuple[RationalParameter, float] | None = None
    for q, p, value in sorted((q, p, value) for p, q, value in _sturmian_table(pair, t, max_den)):
        if best is None or value > best[1] + VALUE_TIE_TOL:
            best = (RationalParameter(p, q), value)
    assert best is not None
    return best
