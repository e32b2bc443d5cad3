"""Scale-to-parameter map, staircase scans, plateaus, and counterexample search.

The parameter map sends a scale t to the frequency of symbol 1 of the
maximizing Sturmian measure of (A0, t*A1).  It is a devil's staircase:
non-decreasing, constant on a plateau at every rational value, injective
at irrational values.  The plateau of 0 runs past the lower threshold t0
until the matched coordinate c* reaches the fixed point x0 of branch 0
(the reference pair reads 0 at t = 0.33 > t0 = 0.3117), and that of 1
starts before t1, where c* reaches x1.  At a finite denominator cap the map
is the upper envelope of the lines base(p/q) + (p/q) log t, whose
breakpoints are the plateau edges; each parameter's restricted plateau
contains its true plateau, which is what makes the counterexample search's
bracket rigorous.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .certify import ThresholdPair, _thresholds
from .dynamics import InducedSystem, class_d_system, periodic_point_budget
from .errors import DomainError, NonPositiveScale, PlateauNotFound
from .matrices import (
    Matrix2,
    MatrixPair,
    _normalised,
    _product,
    fixed_point,
    spectral_radius,
    word_values,
)
from .scalar import Number
from .words import (
    ParameterBracket,
    RationalParameter,
    farey_neighbors,
    mechanical_word,
    stern_brocot_words,
)

# Envelope segments narrower than this in t are merged into their neighbours.
SEGMENT_FLOOR = 1e-12


@dataclass(frozen=True)
class StaircaseSample:
    t: Number
    parameter: RationalParameter
    value: float
    word: str


@dataclass(frozen=True)
class PlateauEstimate:
    parameter: RationalParameter
    t_lo: Number
    t_hi: Number
    resolution: float


@dataclass(frozen=True)
class CounterexampleResult:
    """Scale bracket and parameter bracket around a target parameter.

    When the target is irrational the parameter bracket cannot collapse, the
    scale bracket [t_lo, t_hi] provably contains the preimage of the target,
    and any t in it whose maximizing measure has the target's (irrational)
    parameter makes the scaled pair a finiteness counterexample.
    """

    t: float
    bracket: ParameterBracket
    t_lo: float
    t_hi: float
    interior: bool


@dataclass(frozen=True)
class _Envelope:
    """Lines base + (p/q) log t by rising p/q; line k tops breaks[k] <= t < breaks[k+1]."""

    params: tuple[RationalParameter, ...]
    bases: tuple[float, ...]
    breaks: tuple[float, ...]


def _sturmian_table(
    entries: tuple[float, ...], max_den: int
) -> list[tuple[int, int, float, float]]:
    """(p, q, value at t = 1, p/q) per reduced parameter, by rising p/q.

    Scaling the convex member by t shifts a word's per-letter value by
    exactly (ones/length) log t, so one table at t = 1 serves every scale.
    The mechanical words come in rising lexicographic order, so the walk
    shares their prefix products; each value has word_value's bits.
    """
    pair = MatrixPair(Matrix2(*entries[:4]), Matrix2(*entries[4:]))
    params, words = itertools.tee(stern_brocot_words(max_den))
    values = word_values(pair, 1.0, (word for _, _, word in words))
    return [(p, q, value, p / q) for (p, q, _), value in zip(params, values)]


@lru_cache(maxsize=32)
def _envelope(entries: tuple[float, ...], max_den: int) -> _Envelope:
    """Upper envelope of the table's lines, segments below SEGMENT_FLOOR merged.

    A stack over rising slope gives the hull.  Then the narrowest segment
    below the floor is removed, repeatedly; its neighbours meet at their own
    intersection, kept inside it so the breakpoints stay sorted.
    """
    meet = lambda lo, up: (lo[2] - up[2]) / (up[3] - lo[3])  # noqa: E731
    hull, starts = [], []  # lines, and the log t at which each takes over
    for row in _sturmian_table(entries, max_den):
        while hull and meet(hull[-1], row) <= starts[-1]:
            del hull[-1], starts[-1]
        starts.append(meet(hull[-1], row) if hull else -math.inf)
        hull.append(row)

    n = len(hull)
    breaks = [-math.inf] + [math.exp(x) for x in starts[1:]] + [math.inf]  # end lines unbounded
    prev, nxt = list(range(-1, n - 1)), list(range(1, n + 1))
    heap = [(breaks[k + 1] - breaks[k], k) for k in range(n)]
    heapq.heapify(heap)
    while heap and heap[0][0] < SEGMENT_FLOOR:
        width, k = heapq.heappop(heap)
        if prev[k] is None or width != breaks[nxt[k]] - breaks[k]:
            continue  # removed, or widened since it was queued
        a, b = prev[k], nxt[k]
        breaks[b] = min(max(math.exp(meet(hull[a], hull[b])), breaks[k]), breaks[b])
        nxt[a], prev[b], prev[k] = b, a, None
        for j in (a, b):
            heapq.heappush(heap, (breaks[nxt[j]] - breaks[j], j))

    kept = [k for k in range(n) if prev[k] is not None]
    return _Envelope(
        params=tuple(RationalParameter(*hull[k][:2]) for k in kept),
        bases=tuple(hull[k][2] for k in kept),
        breaks=tuple(breaks[k] for k in kept) + (math.inf,),
    )


def _validated(pair: MatrixPair, max_den: int, t: Number = 1) -> tuple[ThresholdPair, _Envelope]:
    """Class, scale and cap checks, then the thresholds and the envelope of the pair."""
    sys = class_d_system(pair, t)
    if max_den < 1:
        raise DomainError(f"max_den must be at least 1, got {max_den}")
    entries = tuple(float(x) for x in pair.A0.entries() + pair.A1.entries())
    return _thresholds(sys), _envelope(entries, max_den)


def _sample(pair: MatrixPair, th: ThresholdPair, env: _Envelope, t: Number) -> StaircaseSample:
    tf = float(t)
    lo, hi = th.inside
    if lo <= tf <= hi:
        k = bisect_right(env.breaks, tf) - 1
        param = env.params[k]
        value = env.bases[k] + param.p / param.q * math.log(tf)
    elif tf < lo:
        param = RationalParameter(0, 1)
        value = math.log(float(spectral_radius(pair.A0.to_float())))
    else:
        param = RationalParameter(1, 1)
        value = math.log(tf) + math.log(float(spectral_radius(pair.A1.to_float())))
    return StaircaseSample(t=t, parameter=param, value=value, word=mechanical_word(param))


def parameter_map(pair: MatrixPair, t: Number, max_den: int) -> StaircaseSample:
    """Best Sturmian parameter at float(t), regime included, at denominator cap max_den."""
    th, env = _validated(pair, max_den, t)
    return _sample(pair, th, env, t)


def staircase_scan(
    pair: MatrixPair,
    t_min: Number,
    t_max: Number,
    samples: int,
    max_den: int,
) -> list[StaircaseSample]:
    """Geometrically spaced samples of the parameter map, sorted by t."""
    if not float(t_min) > 0:
        raise NonPositiveScale(f"t_min must be positive, got {t_min}")
    if not float(t_min) < float(t_max):
        raise DomainError("need t_min < t_max")
    if samples < 2:
        raise DomainError("need at least 2 samples")
    lo, hi = float(t_min), float(t_max)
    ratio = (hi / lo) ** (1.0 / (samples - 1))
    try:
        ts = [lo * ratio**k for k in range(samples)]
    except OverflowError:  # a float power beyond the range raises; a product rounds to inf
        ts = [math.inf]
    if not math.isfinite(ts[-1]):
        raise DomainError(f"the scan from t_min = {t_min} to t_max = {t_max} overflows a float")
    th, env = _validated(pair, max_den)
    return [_sample(pair, th, env, t) for t in ts]


def parameter_bracket_of_coordinate(sys: InducedSystem, c: Number) -> ParameterBracket:
    """Parameter of the Sturmian interval with image coordinate c, or a bracket.

    Each parameter owns a closed interval of c; the intervals rise with the
    parameter and do not depend on t.  That of 0/1 is [0, x0] and that of
    1/1 is [x1, 1], x_i the fixed point of branch i.  That of p/q, whose
    mechanical word is 0u1, runs from the periodic point of X = u01 to that
    of Y = u10, one step past the orbit's least and greatest points 0u1 and
    1u0 (orbit_min_max).  The central word of the mediant of L and R is
    u_L 10 u_R = u_R 01 u_L (Berstel, Lauve, Reutenauer and Saliola,
    Combinatorics on Words, 2008), so X = Y_L X_R and Y = X_R Y_L, from
    Y = 0 at 0/1 and X = 1 at 1/1: the Stern-Brocot descent carries the
    normalized float products of Y_L and X_R, two 2x2 products a step.

    A q-letter end is within periodic_point_budget(q) of the truth: a
    product of two products adds the same 3u per entry as a letter.  The
    result is exact when c, read as a float, lies inside an interval by more
    than that budget.  Within budget of an end, the descent goes on toward
    it until c is also within budget of an end on the other side, and the
    two parameters that meet there are the bracket.
    """
    cf = float(c)
    if not 0.0 <= cf <= 1.0:
        raise DomainError(f"c = {c} outside [0, 1]")
    pair = sys.pair.to_float()
    lo, hi, y_lo, x_hi = (0, 1), (1, 1), pair.A0.entries(), pair.A1.entries()
    e = periodic_point_budget(1)
    x0, x1 = fixed_point(pair.A0), fixed_point(pair.A1)
    if cf < x0 - e or cf > x1 + e:
        exact = RationalParameter(*(lo if cf < x0 - e else hi))
        return ParameterBracket(exact, exact, exact)
    near_lo, near_hi = cf <= x0 + e, cf >= x1 - e
    while not (near_lo and near_hi):
        m = (lo[0] + hi[0], lo[1] + hi[1])
        x_m = _normalised(_product(y_lo, x_hi))[0]
        y_m = _normalised(_product(x_hi, y_lo))[0]
        c_lo, c_hi = fixed_point(Matrix2(*x_m)), fixed_point(Matrix2(*y_m))
        e = periodic_point_budget(m[1])
        if c_lo + e < cf < c_hi - e:
            exact = RationalParameter(*m)
            return ParameterBracket(exact, exact, exact)
        if cf <= c_lo + e and cf >= c_hi - e:
            break  # within budget of both ends: m or either side of it
        if cf <= c_lo + e:
            hi, x_hi, near_hi = m, x_m, cf >= c_lo - e
        else:
            lo, y_lo, near_lo = m, y_m, cf <= c_hi + e
    return ParameterBracket(RationalParameter(*lo), RationalParameter(*hi))


def _plateau(th: ThresholdPair, env: _Envelope, param: RationalParameter, max_den: int):
    """First and last float at which the parameter map reads an interior param."""
    lo, hi = th.inside
    if param in env.params:
        k = env.params.index(param)
        lo, hi = max(env.breaks[k], lo), min(math.nextafter(env.breaks[k + 1], 0.0), hi)
        if lo <= hi:
            return lo, hi
    raise PlateauNotFound(f"no scale produced parameter {param} at denominator cap {max_den}")


def plateau_bounds(
    pair: MatrixPair,
    param: RationalParameter,
    resolution: float,
    max_den: int,
) -> PlateauEstimate:
    """Scale interval over which the parameter map returns the given value.

    The extremal parameters 0/1 and 1/1 use the closed-form thresholds.  For
    interior parameters the edges are the exact envelope breakpoints clipped
    to (t0, t1), the upper one an ulp inward, so both read the parameter and
    meet any resolution.  No segment, say one merged away, is PlateauNotFound.
    """
    if not resolution > 0:
        raise DomainError("resolution must be positive")
    th, env = _validated(pair, max_den)
    if param == RationalParameter(0, 1):
        return PlateauEstimate(param, 0, th.t0, resolution)
    if param == RationalParameter(1, 1):
        return PlateauEstimate(param, th.t1, math.inf, resolution)
    t_lo, t_hi = _plateau(th, env, param, max_den)
    return PlateauEstimate(param, t_lo, t_hi, resolution)


def counterexample_search(
    pair: MatrixPair,
    target: Number,
    tol: float,
    max_den: int,
) -> CounterexampleResult:
    """Bracket the scale whose maximizing measure has the target parameter.

    The target is bracketed by its best rational neighbors p- < target < p+
    at the denominator cap, and the scale bracket is the closure of
    {t : p- <= parameter_map(t) <= p+}, read off the envelope as exact
    breakpoints, so it meets any tol.  Restricted plateaus contain true
    plateaus, so this outer bracket provably contains the preimage of the
    target, and it shrinks as the cap grows because finer neighbors with
    larger denominators have narrower plateaus.  A rational target at the
    cap gets its own plateau.  Both ends are clipped to ThresholdPair.inside.
    """
    if not (0 < float(target) < 1):
        raise DomainError(f"target must lie strictly inside (0, 1), got {target}")
    if not tol > 0:
        raise DomainError("tol must be positive")
    th, env = _validated(pair, max_den)
    lo, hi = th.inside
    frac = target if isinstance(target, Fraction) else Fraction(float(target))
    p_lo, p_hi = farey_neighbors(frac, max_den)

    if p_lo == p_hi:
        param = RationalParameter.from_fraction(p_lo)
        t_lo, t_hi = _plateau(th, env, param, max_den)
        bracket = ParameterBracket(param, param, param)
    else:
        # An ulp below the first line with slope >= p- to the last with slope <= p+.
        left = env.breaks[bisect_left(env.params, p_lo, key=RationalParameter.as_fraction)]
        right = env.breaks[bisect_right(env.params, p_hi, key=RationalParameter.as_fraction)]
        t_lo = min(max(math.nextafter(left, 0.0), lo), hi)
        t_hi = max(min(right, hi), lo)
        bracket = ParameterBracket(
            RationalParameter.from_fraction(p_lo), RationalParameter.from_fraction(p_hi)
        )

    t_mid = math.sqrt(t_lo * t_hi)
    return CounterexampleResult(
        t=t_mid, bracket=bracket, t_lo=t_lo, t_hi=t_hi, interior=lo <= t_mid <= hi
    )
