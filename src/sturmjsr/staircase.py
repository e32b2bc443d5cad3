"""Scale-to-parameter map, staircase scans, plateaus, and counterexample search.

The parameter map sends a scale t to the frequency of symbol 1 of the
maximizing Sturmian measure of (A0, t*A1).  It is a devil's staircase:
non-decreasing, constant on a plateau at every rational value, injective
at irrational values.  The plateau of 0 runs past the lower threshold t0
until the matched coordinate c* reaches the fixed point x0 of branch 0
(the reference pair reads 0 at t = 0.33 > t0 = 0.3117), and that of 1
starts before t1, where c* reaches x1.  At a finite denominator cap the map
is the upper envelope of the lines base(p/q) + (p/q) log t, whose
breakpoints are the plateau edges.  Each parameter's restricted plateau
contains its true plateau, but the breakpoints are float meets of lines: the
counterexample search's bracket is the cap-N envelope's bracket, off by the
envelope's float error.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .dynamics import InducedSystem, ThresholdPair, class_d_system, periodic_point_budget
from .errors import DomainError, PlateauNotFound
from .jsr import _sturmian_table
from .matrices import Matrix2, MatrixPair, _normalised, _product, fixed_point, spectral_radius
from .scalar import Number
from .words import ParameterBracket, RationalParameter, farey_neighbors, mechanical_word

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

    When the target is irrational the parameter bracket cannot collapse, and
    any t whose maximizing measure has the target's (irrational) parameter
    makes the scaled pair a finiteness counterexample.  The scale bracket
    [t_lo, t_hi] is the cap-N envelope's bracket of that t, off by the
    envelope's float error: from cap 60 on, the golden-mean bracket on the
    reference pair misses the true scale by 1.3e-14.
    """

    t: float
    bracket: ParameterBracket
    t_lo: float
    t_hi: float
    interior: bool


@dataclass(frozen=True)
class _Envelope:
    """Lines base + (p/q) log t by rising p/q; line k tops breaks[k] <= t < breaks[k+1].

    slopes are the floats p / q of params, the keys that lookups bisect in
    place of a Fraction per probe.  Their order is exact.  int / int is
    correctly rounded, so it never reverses an order.  Two distinct reduced
    fractions in [0, 1] with denominators <= N differ by at least 1/N**2,
    which is 2**-50 or more for N <= 2**25, more than twice the float spacing
    below 1, so they never round to one float.  No cap that large has a
    table that fits in memory.  A key rounded from a fraction with a larger
    denominator can tie or cross a slope, but that fraction is none of
    params, so a lookup that checks the parameter it lands on still misses.
    log_radii are log r(A0) and log r(A1), the values of 0/1 and 1/1 at
    t = 1 below t0 and above t1.
    """

    params: tuple[RationalParameter, ...]
    slopes: tuple[float, ...]
    bases: tuple[float, ...]
    breaks: tuple[float, ...]
    log_radii: tuple[float, float]


@lru_cache(maxsize=32)
def _envelope(entries: tuple[float, ...], max_den: int) -> _Envelope:
    """Upper envelope of the Sturmian table's lines, segments below SEGMENT_FLOOR merged.

    Scaling the convex member by t shifts a word's per-letter value by
    exactly (ones/length) log t, so the table at t = 1 serves every scale.
    A stack over rising slope gives the hull.  Then the narrowest segment
    below the floor is removed, repeatedly; its neighbours meet at their own
    intersection, kept inside it so the breakpoints stay sorted.
    """
    meet = lambda lo, up: (lo[2] - up[2]) / (up[3] - lo[3])  # noqa: E731
    hull, starts = [], []  # lines (p, q, base, slope), and the log t at which each takes over
    pair = MatrixPair(Matrix2(*entries[:4]), Matrix2(*entries[4:]))
    for p, q, base in _sturmian_table(pair, 1.0, max_den):
        row = (p, q, base, p / q)
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
        slopes=tuple(hull[k][3] for k in kept),
        bases=tuple(hull[k][2] for k in kept),
        breaks=tuple(breaks[k] for k in kept) + (math.inf,),
        log_radii=(
            math.log(spectral_radius(pair.A0)),
            math.log(spectral_radius(pair.A1)),
        ),
    )


def _pair_envelope(pair: MatrixPair, max_den: int) -> _Envelope:
    """The envelope of the pair's float entries, whose table checks the cap."""
    return _envelope(tuple(float(x) for x in pair.A0.entries() + pair.A1.entries()), max_den)


def _sample(th: ThresholdPair, env: _Envelope, t: Number) -> StaircaseSample:
    tf = float(t)
    lo, hi = th.inside
    if lo <= tf <= hi:
        k = bisect_right(env.breaks, tf) - 1
        param = env.params[k]
        value = env.bases[k] + param.p / param.q * math.log(tf)
    elif tf < lo:
        param = RationalParameter(0, 1)
        value = env.log_radii[0]
    else:
        param = RationalParameter(1, 1)
        value = math.log(tf) + env.log_radii[1]
    return StaircaseSample(t=t, parameter=param, value=value, word=mechanical_word(param))


def parameter_map(pair: MatrixPair, t: Number, max_den: int) -> StaircaseSample:
    """Best Sturmian parameter at float(t), regime included, at denominator cap max_den."""
    th = class_d_system(pair, t).thresholds
    return _sample(th, _pair_envelope(pair, max_den), t)


def staircase_scan(
    pair: MatrixPair,
    t_min: Number,
    t_max: Number,
    samples: int,
    max_den: int,
) -> list[StaircaseSample]:
    """Geometrically spaced samples of the parameter map, sorted by t.

    The class, the scales, the window and the samples are checked before the
    envelope is built, so an invalid argument does not wait for the table.
    """
    th = class_d_system(pair, t_min, t_max).thresholds
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
    env = _pair_envelope(pair, max_den)
    return [_sample(th, env, t) for t in ts]


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


def _plateau(env: _Envelope, param: RationalParameter, max_den: int):
    """First and last float of param's envelope segment: [0, ...] for 0/1, [..., inf] for 1/1.

    The bisection keys on the float p / q, exact by _Envelope's argument.  A
    parameter with q > max_den, or one whose segment was merged away, is in
    no envelope: PlateauNotFound.
    """
    k = bisect_left(env.slopes, param.p / param.q)
    if k == len(env.params) or env.params[k] != param:
        raise PlateauNotFound(f"no scale produced parameter {param} at denominator cap {max_den}")
    lo, hi = env.breaks[k], env.breaks[k + 1]
    return max(lo, 0), (math.nextafter(hi, 0.0) if hi < math.inf else hi)


def plateau_bounds(
    pair: MatrixPair,
    param: RationalParameter,
    resolution: float,
    max_den: int,
) -> PlateauEstimate:
    """Scale interval over which the parameter map returns the given value.

    The edges are the parameter's envelope segment, the upper one an ulp
    inward, so both read the parameter and meet any resolution.  The plateau
    of 0/1 starts at 0 and that of 1/1 ends at inf; their finite edges pass
    t0 and t1 and move with the cap like any other.  No segment, say one
    merged away, is PlateauNotFound.
    """
    class_d_system(pair).thresholds  # the class and the thresholds' cross-check come first
    if not resolution > 0:
        raise DomainError("resolution must be positive")
    env = _pair_envelope(pair, max_den)
    return PlateauEstimate(param, *_plateau(env, param, max_den), resolution)


def counterexample_search(
    pair: MatrixPair,
    target: Number,
    tol: float,
    max_den: int,
) -> CounterexampleResult:
    """Bracket the scale whose maximizing measure has the target parameter.

    The target is bracketed by its best rational neighbors p- < target < p+
    at the denominator cap, and the scale bracket is the closure of
    {t : p- <= parameter_map(t) <= p+}, read off the envelope's breakpoints,
    so it meets any tol.  Restricted plateaus contain true plateaus, and the
    bracket shrinks as the cap grows because finer neighbors with larger
    denominators have narrower plateaus; but it is the cap-N envelope's
    bracket, off by the envelope's float error, so it can miss the preimage
    of the target.  A rational target at the cap gets its own plateau.  A
    bracket's ends are clipped to ThresholdPair.inside, which bounds them when
    a neighbor is 0/1 or 1/1, whose envelope segment is unbounded.  Once the
    envelope exists, a query is the integer descent of farey_neighbors and
    two bisections of the envelope's float slopes.
    """
    lo, hi = class_d_system(pair).thresholds.inside
    if not (0 < float(target) < 1):
        raise DomainError(f"target must lie strictly inside (0, 1), got {target}")
    if not tol > 0:
        raise DomainError("tol must be positive")
    env = _pair_envelope(pair, max_den)
    frac = target if isinstance(target, Fraction) else Fraction(float(target))
    p_lo, p_hi = farey_neighbors(frac, max_den)

    if p_lo == p_hi:
        param = RationalParameter.from_fraction(p_lo)
        t_lo, t_hi = _plateau(env, param, max_den)
        bracket = ParameterBracket(param, param, param)
    else:
        # An ulp below the first line with slope >= p- to the last with slope <= p+.
        left = env.breaks[bisect_left(env.slopes, float(p_lo))]
        right = env.breaks[bisect_right(env.slopes, float(p_hi))]
        t_lo = min(max(math.nextafter(left, 0.0), lo), hi)
        t_hi = max(min(right, hi), lo)
        bracket = ParameterBracket(
            RationalParameter.from_fraction(p_lo), RationalParameter.from_fraction(p_hi)
        )

    t_mid = math.sqrt(t_lo * t_hi)
    return CounterexampleResult(
        t=t_mid, bracket=bracket, t_lo=t_lo, t_hi=t_hi, interior=lo <= t_mid <= hi
    )
