"""Transfer functions, matching, and numerical optimality certificates.

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
modulus 1) and its two image endpoints, computed once when the piece is
made; the pieces depend on c only.  By -alpha (T_A(z) + sigma) =
det A / (alpha z + b + d), the value of f at tau^n(y) is a difference of
logs of the bottom rows of tau^n and tau^(n-1) at y, so a point's terms
telescope: each piece also carries the constant K of its lineage, and a
point y of the last pieces reads phi(y) = K + log|r y + s|, one bisection
and one log per point whatever the depth.  The sum stops once the rigorous
tail bound (total image length) * sup|f'| is below tail_tol, 1e-12 unless
the caller gives another.

The grid runs in floats with the bits of apply_T and f_eval on any pair,
exact or float.  Mixed Fraction/float arithmetic rounds a subexpression
free of x to float where it first meets x, and InducedSystem.branch_floats
rounds each such subexpression once, at that same place:

    T(x) = (float(b+d) x - float(b)) / (float(-alpha) x + float(a) - float(b))
    f(x) = log(float(det) / (float(-alpha) (x + float(sigma))))  [+ log float(t) on X1]

Neither a reciprocal multiply nor a regrouping is allowed: both move bits.

The thresholds t0 < t1, their regime rule and the float constants above
belong to the induced system (see dynamics), computed once per pair.  For
the extremal intervals the transfer function is closed-form,
phi_i(x) = log((x + rho_i) / rho_i), and so is Delta_i; between the
thresholds, the matching coordinate c*(t) solves Delta(c) = log of the
endpoint ratio (a0+c0)/((b1+d1) t), found by Brent's bracketed root finder
(R. P. Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4).
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .dynamics import (
    MEMBER_TOL,
    Domination,
    InducedSystem,
    Interval,
    SturmianIntervalSpec,
    ThresholdPair,
    class_d_system,
    delta_extremal_ratio,
    induced_system,
    sturmian_interval_endpoints,
)
from .errors import DomainError, NoConvergence, OutOfInteriorRange
from .matrices import Entries, MatrixPair, _product
from .scalar import Number, check_scale

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


def _grid_pass(
    sys: InducedSystem, t: Number, xs: Sequence[float], gamma: Sequence[Interval]
) -> tuple[list[float], list[float], list[bool]]:
    """T(x), f(x) at scale t and membership in the intervals gamma for every float x in xs.

    The branch is branch_of's: X0 first, then X1, both widened by MEMBER_TOL.
    T(x) and f(x) carry the bits of float(apply_T(sys, x)) and f_eval(sys, x, t)
    (see the module docstring for the rounding rule).
    """
    log = math.log
    (lo0, hi0, *k0), (lo1, hi1, *k1) = sys.branch_floats
    k0.append(0.0)
    k1.append(log(float(t)))
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
    sys: InducedSystem, c: Number, zs: Sequence[float], tail_tol: float = TAIL_TOL
) -> list[float]:
    """Transfer-function values at every z in zs, from one piece walk.

    A piece is (dom_lo, dom_hi, m, img_lo, img_hi, K): m = (p, q, r, s) is
    tau^n on the domain interval, divided by norm, its largest modulus.  The
    n-th term at a point y of the piece is prefix + f(m(y)) - f(img_lo), f
    taken as -log|alpha (x + sigma)| of the branch (log det, constant on a
    branch, cancels), prefix the sum over the whole pieces before.  Let the
    branch A = (a, b; c, d) map the point's image u under the parent m' =
    (p', q', r', s').  With sigma = (b - a) / alpha,

        -alpha (T_A(u) + sigma) = det A / (alpha u + b + d),

    as alpha b + (b - a)(b + d) = -det A, and alpha u + b + d =
    (r y + s) norm / (r' y + s'), (r, s) being the bottom row of
    tau_A m' = norm m.  So f(m(y)) = log|r y + s| - log|r' y + s'| +
    log norm - log|det A|, and over a lineage from the identity piece the
    point terms telescope:

        phi_N(y) = K + log|r y + s|,  K = sum(prefix - f(img_lo) + log norm - log|det A|),

    with K summed along the lineage as each piece is made.  The domains
    of one term refine those of the last, so the piece of y at depth N,
    the last whose domain low is at or below y, descends from its piece at
    every earlier depth.  phi is 0 at z <= 0, and a z above 1 reads 1, the
    end of the last piece.  The walk stops once the tail bound is below
    tail_tol, and SERIES_MAX_DEPTH terms without that raise NoConvergence.
    """
    _check_tail_tol(tail_tol)
    cf = float(c)
    if not 0.0 <= cf <= 1.0:
        raise DomainError(f"c = {c} outside [0, 1]")
    for z in zs:
        if not -MEMBER_TOL <= z <= 1 + MEMBER_TOL:
            raise DomainError(f"z = {z} outside [0, 1]")
    branches, sup_fp = sys.branch_floats, sys.f_prime_sup
    log = math.log
    log_dets = [log(abs(branch[8])) for branch in branches]
    pieces = [(0.0, 1.0, (1.0, 0.0, 0.0, 1.0), 0.0, 1.0, 0.0)]

    for _ in range(SERIES_MAX_DEPTH):
        new_pieces = []
        total_len = 0.0
        acc = 0.0
        for dlo, dhi, m, img_lo, img_hi, k in pieces:
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
                f_lo = -log(abs(alpha * (new_lo + sigma)))
                new_k = k + ((acc - f_lo) + (log(norm) - log_dets[branch]))
                new_pieces.append((lo, hi, nm, new_lo, new_hi, new_k))
                acc += -log(abs(alpha * (new_hi + sigma))) - f_lo
                total_len += new_hi - new_lo
        pieces = new_pieces

        if total_len * sup_fp < tail_tol:
            los = [piece[0] for piece in pieces]
            phi = [0.0] * len(zs)
            for j, z in enumerate(zs):
                if z > 0.0:
                    _, _, (_, _, r, s), _, _, k = pieces[bisect_right(los, z) - 1]
                    y = min(z, 1.0)
                    phi[j] = k + log(abs(r * y + s))
            return phi
    raise NoConvergence(
        f"transfer series not below tail tolerance after {SERIES_MAX_DEPTH} terms"
    )


def phi_series(sys: InducedSystem, c: Number, z: Number, tail_tol: float = TAIL_TOL) -> float:
    """Transfer-function value phi_c(z), summed term by term to the tail bound tail_tol."""
    return _phi_batch(sys, c, [float(z)], tail_tol)[0]


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
    return induced_system(pair).thresholds


def domination_check(pair: MatrixPair, t: Number) -> Domination:
    """Which regime the scale t falls in; boundaries count as domination."""
    return induced_system(pair, t).thresholds.regime(t)


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


def gamma_of_t(sys: InducedSystem, t: Number, tail_tol: float = TAIL_TOL) -> float:
    """Image coordinate c* of the Sturmian interval matched to the scale t.

    Solves Delta(c*) = log((a0+c0)/((b1+d1) t)) by Brent's method on [0, 1],
    where Delta falls from positive at c = 0 to negative at c = 1.  A t that
    ThresholdPair.regime puts outside the interior is OutOfInteriorRange; the
    target reads float(t), which an exact t inside by less than an ulp puts
    outside the bracket: NoConvergence.  Each Delta sums the series to
    tail_tol; the residual checked against 1e-9 is the solver's last value.
    """
    check_scale(t)
    th = sys.thresholds
    if th.regime(t) is not Domination.INTERIOR:
        raise OutOfInteriorRange(f"t = {t} outside ({th.t0}, {th.t1})")
    target = endpoint_ratio_log(sys.pair, t)

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
    The interior series is summed to tail_tol.  The class is checked first,
    then the scale, then tail_tol and grid_size.
    """
    sys = class_d_system(pair, t)
    _check_tail_tol(tail_tol)
    if not isinstance(grid_size, int) or grid_size < 64:
        raise DomainError(f"grid_size must be an int of at least 64, got {grid_size!r}")
    regime = sys.thresholds.regime(t)

    interior = regime is Domination.INTERIOR
    if interior:
        c_star = gamma_of_t(sys, t, tail_tol)
        # T maps each X_i onto [0, 1], but rounding at the grid ends can step outside.
        clamp = lambda zs: [min(max(z, 0.0), 1.0) for z in zs]  # noqa: E731
        phi = lambda zs: _phi_batch(sys, c_star, clamp(zs), tail_tol)  # noqa: E731
    else:
        c_star = 0.0 if regime is Domination.A0_DOMINATES else 1.0
        # phi_extremal's bits: a float z meets a Fraction rho as float(rho).
        rho = float(sys.proj0.rho if c_star == 0.0 else sys.proj1.rho)
        phi = lambda zs: [math.log((z + rho) / rho) for z in zs]  # noqa: E731

    n0 = grid_size // 2
    xs = sys.X0.grid(n0) + sys.X1.grid(n0)
    spec = sturmian_interval_endpoints(sys, c_star)
    pieces = [piece for piece in (spec.piece0, spec.piece1) if piece is not None]
    txs, f_vals, in_gamma = _grid_pass(sys, t, xs, pieces)
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
