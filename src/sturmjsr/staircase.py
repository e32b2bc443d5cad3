"""Scale-to-parameter map, staircase scans, plateaus, and counterexample search.

The parameter map sends a scale t to the frequency of symbol 1 of the
maximizing Sturmian measure of (A0, t*A1).  It is 0 up to the lower
threshold, 1 from the upper threshold on, and a devil's staircase in
between: non-decreasing, constant on a plateau at every rational value,
injective at irrational values.  At a finite denominator cap the map is the
upper envelope of the lines base(p/q) + (p/q) log t, whose breakpoints are
the plateau edges; each parameter's restricted plateau contains its true
plateau, which is what makes the counterexample search's bracket rigorous.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .certify import Domination, ThresholdPair, _domination, _thresholds
from .dynamics import apply_T, induced_system, itinerary
from .errors import DomainError, NotInClassD, PlateauNotFound
from .matrices import Matrix2, MatrixPair, spectral_radius, word_values
from .scalar import Number
from .words import (
    ParameterBracket,
    RationalParameter,
    farey_neighbors,
    mechanical_word,
    parameter_from_itinerary,
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


def _validated(pair: MatrixPair, max_den: int) -> tuple[ThresholdPair, _Envelope]:
    """Class and cap checks, then the thresholds and the envelope of the pair."""
    sys = induced_system(pair)
    if not sys.report.in_D:
        raise NotInClassD("the parameter map needs the strict cross inequalities")
    if max_den < 1:
        raise DomainError(f"max_den must be at least 1, got {max_den}")
    entries = tuple(float(x) for x in pair.A0.entries() + pair.A1.entries())
    return _thresholds(sys), _envelope(entries, max_den)


def _sample(pair: MatrixPair, th: ThresholdPair, env: _Envelope, t: Number) -> StaircaseSample:
    regime = _domination(th, t)
    if regime is Domination.INTERIOR:
        k = bisect_right(env.breaks, float(t)) - 1
        param = env.params[k]
        value = env.bases[k] + param.p / param.q * math.log(float(t))
    elif regime is Domination.A0_DOMINATES:
        param = RationalParameter(0, 1)
        value = math.log(float(spectral_radius(pair.A0.to_float())))
    else:
        param = RationalParameter(1, 1)
        value = math.log(float(t)) + math.log(float(spectral_radius(pair.A1.to_float())))
    return StaircaseSample(t=t, parameter=param, value=value, word=mechanical_word(param))


def parameter_map(pair: MatrixPair, t: Number, max_den: int) -> StaircaseSample:
    """Best Sturmian parameter at scale t, at denominator resolution max_den."""
    th, env = _validated(pair, max_den)
    if not t > 0:
        raise DomainError(f"t must be positive, got {t}")
    return _sample(pair, th, env, t)


def staircase_scan(
    pair: MatrixPair,
    t_min: Number,
    t_max: Number,
    samples: int,
    max_den: int,
) -> list[StaircaseSample]:
    """Geometrically spaced samples of the parameter map, sorted by t."""
    if not (0 < float(t_min) < float(t_max)):
        raise DomainError("need 0 < t_min < t_max")
    if samples < 2:
        raise DomainError("need at least 2 samples")
    th, env = _validated(pair, max_den)
    lo, hi = float(t_min), float(t_max)
    ratio = (hi / lo) ** (1.0 / (samples - 1))
    return [_sample(pair, th, env, lo * ratio**k) for k in range(samples)]


def parameter_bracket_of_coordinate(sys, c: Number, depth: int = 64) -> ParameterBracket:
    """Parameter bracket of the Sturmian interval with image coordinate c.

    Follows the orbit of c.  If it escapes the branch intervals, the
    symbolic position at the escape step is bracketed by the padded
    continuations: between w01^inf and w10^inf for an escape into the
    central gap, and w0^inf resp. w1^inf for escapes below the left or
    above the right branch image.  The two padded prefixes are then pushed
    through the usual descent.
    """
    prefix, escaped = itinerary(sys, c, depth)
    pad = 3 * depth + 8
    if escaped is None:
        return parameter_from_itinerary(prefix, depth)
    x = float(c)
    for _ in range(escaped):
        x = float(apply_T(sys, x))
    if x < float(sys.X0.lo):
        lo_word = hi_word = (prefix + "0" * pad)[:pad]
    elif x > float(sys.X1.hi):
        lo_word = hi_word = (prefix + "1" * pad)[:pad]
    else:
        lo_word = (prefix + "0" + "1" * pad)[:pad]
        hi_word = (prefix + "1" + "0" * pad)[:pad]
    lo = parameter_from_itinerary(lo_word, depth)
    hi = parameter_from_itinerary(hi_word, depth)
    exact = lo.exact if (lo.exact is not None and lo.exact == hi.exact) else None
    return ParameterBracket(lo.lower, hi.upper, exact)


def _plateau(th: ThresholdPair, env: _Envelope, param: RationalParameter, max_den: int):
    """First and last float at which the parameter map reads an interior param."""
    lo, hi = float(th.t0), float(th.t1)
    lo = lo if lo > th.t0 else math.nextafter(lo, math.inf)
    hi = hi if hi < th.t1 else math.nextafter(hi, 0.0)
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
    larger denominators have narrower plateaus.  A rational target
    representable at the cap degenerates to its own plateau.
    """
    if not (0 < float(target) < 1):
        raise DomainError(f"target must lie strictly inside (0, 1), got {target}")
    if not tol > 0:
        raise DomainError("tol must be positive")
    th, env = _validated(pair, max_den)
    frac = target if isinstance(target, Fraction) else Fraction(float(target))
    p_lo, p_hi = farey_neighbors(frac, max_den)

    if p_lo == p_hi:
        param = RationalParameter.from_fraction(p_lo)
        t_lo, t_hi = _plateau(th, env, param, max_den)
        bracket = ParameterBracket(param, param, param)
    else:
        # An ulp below the first line with slope >= p- to the last with slope <= p+.
        lo, hi = float(th.t0), float(th.t1)
        left = env.breaks[bisect_left(env.params, p_lo, key=RationalParameter.as_fraction)]
        right = env.breaks[bisect_right(env.params, p_hi, key=RationalParameter.as_fraction)]
        t_lo = min(max(math.nextafter(left, 0.0), lo), hi)
        t_hi = max(min(right, hi), lo)
        bracket = ParameterBracket(
            RationalParameter.from_fraction(p_lo), RationalParameter.from_fraction(p_hi)
        )

    t_mid = math.sqrt(t_lo * t_hi)
    return CounterexampleResult(
        t=t_mid, bracket=bracket, t_lo=t_lo, t_hi=t_hi, interior=th.t0 < t_mid < th.t1
    )
