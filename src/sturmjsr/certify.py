"""Transfer functions, scale thresholds, and numerical optimality certificates.

For the Sturmian interval with image coordinate c, the transfer function phi
is the Lipschitz antiderivative, vanishing at 0, of the series
sum_{n>=1} (f o tau^n)' where tau is the hybrid contraction.  Adding the
coboundary phi - phi o T to the scaled induced function flattens it to a
constant on the interval while leaving it strictly below that constant
elsewhere; verifying those two facts on a grid is the certificate that the
Sturmian measure of the interval is the unique maximizing measure.

The series is summed by exact piece bookkeeping: the image of [0, z] under
tau^n is an ordered union of subintervals, each inside one branch interval,
so the n-th term is a sum of endpoint differences of f.  A piece carries its
domain interval, the Moebius coefficients of tau^n there (scaled to largest
modulus 1), and its two image endpoints, computed once when the piece is
made; the point loop reads it flattened with the f constants of the branch
its image lies in.  The pieces do not depend on the evaluation points, so
one sweep serves any number of them, and f at a piece's lower image end is
evaluated once per term for all the points in it.  The sum stops once the
rigorous tail bound (total image length) * sup|f'| is below tail_tol, 1e-12
unless the caller gives another.

The grid runs in floats with the bits of apply_T and f_eval on any pair,
exact or float.  Mixed Fraction/float arithmetic rounds a subexpression
free of x to float where it first meets x, and the grid pass rounds each
such subexpression once per call at that same place:

    T(x) = (float(b+d) x - float(b)) / (float(-alpha) x + float(a) - float(b))
    f(x) = log(float(det) / (float(-alpha) (x + float(sigma))))  [+ log float(t) on X1]

Neither a reciprocal multiply nor a regrouping is allowed: both move bits.

For the extremal intervals everything is closed-form:

    phi_i(x)  = log((x + rho_i) / rho_i)
    Delta_i   = log((1 + rho_i)(X1.lo + rho_i) / (rho_i (X0.hi + rho_i)))
    t_i       = rho_i (a0 + rho_i (a0 + c0))
                / ((1 + rho_i)(b1 + rho_i (b1 + d1)))

and the scaled pair is dominated by A0 for t <= t0 and by t*A1 for t >= t1;
in between, the matching coordinate c*(t) solves Delta(c) = log of the
endpoint ratio (a0+c0)/((b1+d1) t), found by Brent's bracketed root finder
(R. P. Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4).
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .dynamics import (
    MEMBER_TOL,
    InducedSystem,
    Interval,
    SturmianIntervalSpec,
    class_d_system,
    f_prime_sup,
    induced_system,
    sturmian_interval_endpoints,
)
from .errors import (
    ClosedFormMismatch,
    DomainError,
    NoConvergence,
    OutOfInteriorRange,
)
from .matrices import Entries, MatrixPair, _product
from .scalar import Number, is_exact

FLAT_TOL = 1e-6
MARGIN_TOL = 1e-8
BRENT_MAX_ITER = 100
# Default tail tolerance of the transfer series, and its cap on the terms.
TAIL_TOL = 1e-12
SERIES_MAX_DEPTH = 400


def _check_tail_tol(tail_tol: float) -> None:
    if not 0 < tail_tol < math.inf:
        raise DomainError(f"tail_tol must be positive and finite, got {tail_tol}")


class Verdict(enum.Enum):
    CERTIFIED = "Certified"
    INCONCLUSIVE = "Inconclusive"


class Domination(enum.Enum):
    A0_DOMINATES = "A0Dominates"
    A1_DOMINATES = "A1Dominates"
    INTERIOR = "Interior"


@dataclass(frozen=True)
class ThresholdPair:
    """Thresholds t0 < t1 and the one rule that splits the scales by them.

    regime(t) is exact: t <= t0 and t >= t1 are domination, the rest interior.
    inside is the rule on floats, computed once: the first and last float in it.
    """

    t0: Number
    t1: Number

    def regime(self, t: Number) -> Domination:
        if t <= self.t0:
            return Domination.A0_DOMINATES
        return Domination.A1_DOMINATES if t >= self.t1 else Domination.INTERIOR

    @cached_property
    def inside(self) -> tuple[float, float]:
        lo, hi = float(self.t0), float(self.t1)
        lo = lo if lo > self.t0 else math.nextafter(lo, math.inf)
        return lo, (hi if hi < self.t1 else math.nextafter(hi, 0.0))


@dataclass(frozen=True)
class CertificateReport:
    """Numerical evidence that one Sturmian measure is the unique maximizer."""

    t: Number
    c: float
    interval: SturmianIntervalSpec
    constant_value: float
    flatness: float
    exterior_margin: float
    monotone_ok: bool
    verdict: Verdict


def phi_extremal(sys: InducedSystem, i: int, x: Number) -> float:
    """Closed-form transfer function of the extremal interval X_i at x."""
    rho = sys.proj0.rho if i == 0 else sys.proj1.rho
    ratio = (x + rho) / rho
    return math.log(float(ratio))


def _moebius(m: Entries, x: float) -> float:
    """The map x -> (p x + q) / (r x + s) of the coefficients m = (p, q, r, s)."""
    p, q, r, s = m
    return (p * x + q) / (r * x + s)


def _branch_floats(sys: InducedSystem) -> list[tuple]:
    """Float constants of both branches, read by the grid pass and the series sweep.

    Branch i is (lo, hi, tau, alpha, sigma, bd, b, a, det, log_t): X_i widened
    by MEMBER_TOL; the series factor tau = (a - b, b, alpha, b + d) of the
    float entries; alpha and sigma of the projective data; b + d, b, a and
    det A_i; log t on X1 and 0.0 on X0.  Each is one subexpression of
    apply_T or f_eval that does not contain x, rounded once.
    """
    out = []
    for i, (A, pr, X) in enumerate(
        ((sys.pair.A0, sys.proj0, sys.X0), (sys.pair.A1, sys.proj1, sys.X1))
    ):
        a, b, cc, d = (float(v) for v in A.entries())
        out.append((
            float(X.lo) - MEMBER_TOL,
            float(X.hi) + MEMBER_TOL,
            (a - b, b, a + cc - b - d, b + d),
            float(pr.alpha),
            float(pr.sigma),
            float(A.b + A.d),
            float(A.b),
            float(A.a),
            float(A.det()),
            math.log(float(sys.t)) if i else 0.0,
        ))
    return out


def _grid_pass(
    branches: list[tuple], xs: Sequence[float], gamma: Sequence[Interval]
) -> tuple[list[float], list[float], list[bool]]:
    """T(x), f(x) and membership in the intervals gamma for every float x in xs.

    The branch is branch_of's: X0 first, then X1, both widened by MEMBER_TOL.
    T(x) and f(x) carry the bits of float(apply_T(sys, x)) and f_eval(sys, x)
    (see the module docstring for the rounding rule).
    """
    log = math.log
    (lo0, hi0, *k0), (lo1, hi1, *k1) = branches
    bounds = [(float(g.lo) - MEMBER_TOL, float(g.hi) + MEMBER_TOL) for g in gamma]
    txs, fs, inside = [], [], []
    for x in xs:
        if lo0 <= x <= hi0:
            _tau, alpha, sigma, bd, b, a, det, log_t = k0
        elif lo1 <= x <= hi1:
            _tau, alpha, sigma, bd, b, a, det, log_t = k1
        else:
            raise DomainError(f"x = {x} has no branch")
        txs.append((bd * x - b) / (-alpha * x + a - b))
        # log never returns -0.0, so adding X0's 0.0 keeps the bits.
        fs.append(log(det / (-alpha * (x + sigma))) + log_t)
        inside.append(any(lo <= x <= hi for lo, hi in bounds))
    return txs, fs, inside


def _phi_batch(
    sys: InducedSystem,
    c: Number,
    zs: Sequence[float],
    tail_tol: float = TAIL_TOL,
    branches: list[tuple] | None = None,
) -> list[float]:
    """Transfer-function values at every z in zs, in one piece sweep.

    A piece is (dom_lo, dom_hi, moebius coefficients, img_lo, img_hi), the
    moebius map being the restriction of tau^n to the domain interval.  The
    n-th series term for a point z is the sum of f-endpoint differences over
    the pieces of tau^n([0, z]); f is taken up to a per-branch additive
    constant, which cancels in the differences.  The point loop reads each
    piece flattened to (dom_hi, p, q, r, s, alpha, sigma) of its branch.
    branches is _branch_floats(sys), built here when not given.  The sum
    stops once the tail bound is below tail_tol, and SERIES_MAX_DEPTH terms
    without that raise NoConvergence.
    """
    _check_tail_tol(tail_tol)
    cf = float(c)
    if not 0.0 <= cf <= 1.0:
        raise DomainError(f"c = {c} outside [0, 1]")
    for z in zs:
        if not -MEMBER_TOL <= z <= 1 + MEMBER_TOL:
            raise DomainError(f"z = {z} outside [0, 1]")
    if branches is None:
        branches = _branch_floats(sys)
    log = math.log

    sup_fp = f_prime_sup(sys)

    pieces = [(0.0, 1.0, (1.0, 0.0, 0.0, 1.0), 0.0, 1.0)]
    phi = [0.0] * len(zs)

    for _ in range(SERIES_MAX_DEPTH):
        new_pieces = []
        flat = []
        dlos = []
        f_los = []
        prefix = [0.0]
        total_len = 0.0
        acc = 0.0
        for dlo, dhi, m, img_lo, img_hi in pieces:
            if img_hi < cf:
                splits = ((dlo, dhi, 1),)
            elif img_lo >= cf:
                splits = ((dlo, dhi, 0),)
            else:
                p, q, r, s = m
                den = -r * cf + p
                if den == 0:
                    # Deep pieces are nearly rank one, and their inverse at c
                    # can round to a pole.
                    raise NoConvergence(
                        f"the series cannot split a piece at c = {cf}: its inverse rounds to a pole"
                    )
                sx = (s * cf - q) / den
                sx = min(max(sx, dlo), dhi)
                splits = ((dlo, sx, 1), (sx, dhi, 0))
            for lo, hi, branch in splits:
                if hi <= lo:
                    continue
                tau, alpha, sigma = branches[branch][2:5]
                p, q, r, s = _product(tau, m)
                norm = max(abs(p), abs(q), abs(r), abs(s))
                nm = (p / norm, q / norm, r / norm, s / norm)
                new_lo, new_hi = _moebius(nm, lo), _moebius(nm, hi)
                new_pieces.append((lo, hi, nm, new_lo, new_hi))
                flat.append((hi, *nm, alpha, sigma))
                f_lo = -log(abs(alpha * (new_lo + sigma)))
                dlos.append(lo)
                f_los.append(f_lo)
                acc += -log(abs(alpha * (new_hi + sigma))) - f_lo
                prefix.append(acc)
                total_len += new_hi - new_lo
        pieces = new_pieces

        for k, z in enumerate(zs):
            if z <= 0.0:
                continue
            idx = bisect_right(dlos, z) - 1
            if idx < 0:
                continue
            dhi, p, q, r, s, alpha, sigma = flat[idx]
            y = z if z < dhi else dhi
            y = (p * y + q) / (r * y + s)
            phi[k] += prefix[idx] - log(abs(alpha * (y + sigma))) - f_los[idx]

        if total_len * sup_fp < tail_tol:
            return phi
    raise NoConvergence(
        f"transfer series not below tail tolerance after {SERIES_MAX_DEPTH} terms"
    )


def phi_series(sys: InducedSystem, c: Number, z: Number, tail_tol: float = TAIL_TOL) -> float:
    """Transfer-function value phi_c(z), summed term by term to the tail bound tail_tol."""
    return _phi_batch(sys, c, [float(z)], tail_tol)[0]


def delta_extremal_ratio(sys: InducedSystem, i: int) -> Number:
    """The ratio inside the log of the extremal matching functional, exact-friendly."""
    rho = sys.proj0.rho if i == 0 else sys.proj1.rho
    return ((1 + rho) * (sys.X1.lo + rho)) / (rho * (sys.X0.hi + rho))


def delta_extremal(sys: InducedSystem, i: int) -> float:
    """Matching functional of the extremal interval X_i, in log scale."""
    if i not in (0, 1):
        raise DomainError("i must be 0 or 1")
    return math.log(float(delta_extremal_ratio(sys, i)))


def delta_numeric(sys: InducedSystem, c: Number, tail_tol: float = TAIL_TOL) -> float:
    """Matching functional Delta(c) = phi(1) - (phi(X0.hi) - phi(X1.lo)), phi summed to tail_tol."""
    z_end, z0, z1 = 1.0, float(sys.X0.hi), float(sys.X1.lo)
    v_end, v0, v1 = _phi_batch(sys, c, [z_end, z0, z1], tail_tol)
    return v_end - (v0 - v1)


def thresholds(pair: MatrixPair) -> ThresholdPair:
    """Closed-form scale thresholds t0 < t1 of the domination regimes."""
    return _thresholds(induced_system(pair))


def _thresholds(sys: InducedSystem) -> ThresholdPair:
    """The thresholds of the system's pair.

    Both closed forms (direct rational function of rho, and endpoint ratio
    divided by the exponential of the matching functional) are computed and
    must agree; the direct form is returned and stays exact on the rational
    path whenever the discriminant square roots are rational.
    """
    a0, c0 = sys.pair.A0.a, sys.pair.A0.c
    b1, d1 = sys.pair.A1.b, sys.pair.A1.d
    out = []
    for i in (0, 1):
        rho = sys.proj0.rho if i == 0 else sys.proj1.rho
        ti = (rho * (a0 + rho * (a0 + c0))) / ((1 + rho) * (b1 + rho * (b1 + d1)))
        alt = (a0 + c0) / ((b1 + d1) * delta_extremal_ratio(sys, i))
        if is_exact(ti, alt):
            if ti != alt:
                raise ClosedFormMismatch(f"threshold closed forms differ exactly: {ti} vs {alt}")
        elif not math.isclose(float(ti), float(alt), rel_tol=1e-12):
            raise ClosedFormMismatch(f"threshold closed forms differ: {ti} vs {alt}")
        out.append(ti)
    t0, t1 = out
    if not float(t0) < float(t1):
        raise ClosedFormMismatch(f"thresholds out of order: t0 = {t0}, t1 = {t1}")
    return ThresholdPair(t0=t0, t1=t1)


def domination_check(pair: MatrixPair, t: Number) -> Domination:
    """Which regime the scale t falls in; boundaries count as domination."""
    return _thresholds(induced_system(pair, t)).regime(t)


def endpoint_ratio_log(pair: MatrixPair, t: Number) -> float:
    """log((a0 + c0) / ((b1 + d1) t)), the target value for the matching functional."""
    a0, c0 = pair.A0.a, pair.A0.c
    b1, d1 = pair.A1.b, pair.A1.d
    return math.log(float((a0 + c0) / (b1 + d1))) - math.log(float(t))


def _brent(f, a: float, b: float, fa: float, fb: float, xtol: float, rtol: float):
    """Root of f in the bracket [a, b], given fa = f(a) and fb = f(b).

    Brent's zeroin, step for step as in the classic C routine (the one
    behind scipy's brentq), so the root carries the same bits: inverse
    quadratic extrapolation or secant interpolation where that step is short
    enough, bisection otherwise, and never a move below the tolerance delta.
    Returns (root, f(root), evaluations of f made here).  A non-finite value
    or BRENT_MAX_ITER iterations without convergence raise NoConvergence.
    """
    if not (math.isfinite(fa) and math.isfinite(fb)):
        raise NoConvergence(f"non-finite value at a bracket end: f(a)={fa}, f(b)={fb}")
    if fa == 0:
        return a, fa, 0
    if fb == 0:
        return b, fb, 0
    if (fa < 0) == (fb < 0):
        raise NoConvergence(f"no sign change on the bracket: f(a)={fa}, f(b)={fb}")
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    for evaluations in range(BRENT_MAX_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, fcur, evaluations

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if not math.isfinite(fcur):
            raise NoConvergence(f"non-finite value {fcur} at x = {xcur}")
    raise NoConvergence(f"Brent iteration not converged after {BRENT_MAX_ITER} steps")


def gamma_of_t(sys: InducedSystem, tail_tol: float = TAIL_TOL) -> float:
    """Image coordinate c* of the Sturmian interval matched to the scale of sys.

    Solves Delta(c*) = log((a0+c0)/((b1+d1) t)) by Brent's method on [0, 1],
    where Delta falls from positive at c = 0 to negative at c = 1.  A t that
    ThresholdPair.regime puts outside the interior is OutOfInteriorRange; the
    target reads float(t), which an exact t inside by less than an ulp puts
    outside the bracket: NoConvergence.  Each Delta sums the series to
    tail_tol; the residual checked against 1e-9 is the solver's last value.
    """
    th = _thresholds(sys)
    if th.regime(sys.t) is not Domination.INTERIOR:
        raise OutOfInteriorRange(f"t = {sys.t} outside ({th.t0}, {th.t1})")
    target = endpoint_ratio_log(sys.pair, sys.t)

    def h(cc: float) -> float:
        return delta_numeric(sys, cc, tail_tol) - target

    h0, h1 = h(0.0), h(1.0)
    if not (h0 > 0.0 > h1):
        raise NoConvergence(f"matching functional does not bracket: h(0)={h0}, h(1)={h1}")
    c_star, h_star, _ = _brent(h, 0.0, 1.0, h0, h1, xtol=1e-13, rtol=8.9e-16)
    if not abs(h_star) <= 1e-9:
        raise NoConvergence(f"matching residual {abs(h_star)} above 1e-9 at c = {c_star}")
    return c_star


def certify(
    pair: MatrixPair,
    t: Number,
    grid_size: int = 256,
    tail_tol: float = TAIL_TOL,
) -> CertificateReport:
    """Grid certificate that the matched Sturmian measure is the unique maximizer.

    Interior t: solve for c*, build phi by series, and check that
    g = f_t + phi - phi o T is flat on the matched interval, strictly below
    its constant outside it, with f_t + phi strictly increasing on X0 and
    strictly decreasing on X1.

    Domination regimes use the closed-form extremal transfer function and
    the one-sided comparison instead: g must be flat on the dominating
    branch image, monotone toward it on the other branch, and its boundary
    value there must not exceed the constant (equality is allowed at the
    threshold itself, so the margin test is one-sided with tolerance).
    The interior series is summed to tail_tol, which is checked first.
    """
    _check_tail_tol(tail_tol)
    if grid_size < 64:
        raise DomainError("grid_size must be at least 64")
    sys = class_d_system(pair, t)
    regime = _thresholds(sys).regime(t)

    interior = regime is Domination.INTERIOR
    branches = _branch_floats(sys)
    if interior:
        c_star = gamma_of_t(sys, tail_tol)
        # T maps each X_i onto [0, 1], but rounding at the grid ends can step outside.
        clamp = lambda zs: [min(max(z, 0.0), 1.0) for z in zs]  # noqa: E731
        phi = lambda zs: _phi_batch(sys, c_star, clamp(zs), tail_tol, branches)  # noqa: E731
    else:
        c_star = 0.0 if regime is Domination.A0_DOMINATES else 1.0
        # phi_extremal's bits: a float z meets a Fraction rho as float(rho).
        rho = float(sys.proj0.rho if c_star == 0.0 else sys.proj1.rho)
        phi = lambda zs: [math.log((z + rho) / rho) for z in zs]  # noqa: E731

    n0 = grid_size // 2
    xs = sys.X0.grid(n0) + sys.X1.grid(n0)
    spec = sturmian_interval_endpoints(sys, c_star)
    pieces = [piece for piece in (spec.piece0, spec.piece1) if piece is not None]
    txs, f_vals, in_gamma = _grid_pass(branches, xs, pieces)
    phis = phi(xs + txs)
    phi_x, phi_tx = phis[: len(xs)], phis[len(xs) :]
    g_vals = [f + px - ptx for f, px, ptx in zip(f_vals, phi_x, phi_tx)]

    gamma_vals = [g for g, ok in zip(g_vals, in_gamma) if ok]
    outside_vals = [g for g, ok in zip(g_vals, in_gamma) if not ok]
    if not gamma_vals:
        raise NoConvergence("no grid points landed inside the matched interval")
    constant = sum(gamma_vals) / len(gamma_vals)
    flatness = max(gamma_vals) - min(gamma_vals)
    exterior_margin = (
        min(constant - g for g in outside_vals) if outside_vals else math.inf
    )

    def rising(v):
        return all(b > a for a, b in zip(v, v[1:]))

    def falling(v):
        return all(b < a for a, b in zip(v, v[1:]))

    if interior:
        fphi = [f + px for f, px in zip(f_vals, phi_x)]
        monotone_ok = rising(fphi[:n0]) and falling(fphi[n0:])
    elif regime is Domination.A0_DOMINATES:
        monotone_ok = falling(g_vals[n0:])
    else:
        monotone_ok = rising(g_vals[:n0])
    certified = (
        flatness <= FLAT_TOL
        and (exterior_margin > MARGIN_TOL if interior else exterior_margin >= -MARGIN_TOL)
        and monotone_ok
    )

    return CertificateReport(
        t=t,
        c=c_star,
        interval=spec,
        constant_value=constant,
        flatness=flatness,
        exterior_margin=exterior_margin,
        monotone_ok=monotone_ok,
        verdict=Verdict.CERTIFIED if certified else Verdict.INCONCLUSIVE,
    )
