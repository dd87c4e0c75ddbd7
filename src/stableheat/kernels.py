"""Closed-form kernels of the killed stable process and the catalog of
survival comparability profiles.

The unit ball's Green function, exit law and expected exit time are
explicit.  Around these, ``survival_profile`` packages the comparability
shape S(t, x) for P^x(tau_D > t) for every domain the catalog covers; the
unknown two-sided constants are left to empirical measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import exp, lgamma, pi, sin
from typing import Optional

import numpy as np

from . import domains as dom
from .errors import MissingParameterError, UnsupportedRegimeError
from .stable import StableParams, free_density, incomplete_kernel_integral


@dataclass(frozen=True)
class Bracket:
    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("bracket must satisfy lower <= upper")


def _green_constant(d: int, alpha: float) -> float:
    return exp(lgamma(d / 2) - alpha * math.log(2) - (d / 2) * math.log(pi) - 2 * lgamma(alpha / 2))


def _poisson_constant(d: int, alpha: float) -> float:
    return exp(lgamma(d / 2) - (1 + d / 2) * math.log(pi)) * sin(pi * alpha / 2)


def _unit_coords(center, radius: float, *points) -> list:
    """The points in units of the ball B(center, radius): (p - c) / r.

    The closed forms below are those of the unit ball, scaled back by a
    power of r, so no square of r is ever formed; a value beyond the float
    range raises OverflowError.
    """
    if not 0 < radius < math.inf:
        raise ValueError(f"ball radius must be positive and finite, got {radius!r}")
    c = np.atleast_1d(np.asarray(center, dtype=float))
    return [(np.atleast_1d(np.asarray(p, dtype=float)) - c) / radius for p in points]


def ball_green(params: StableParams, center, radius: float, x, v) -> float:
    """Green function of an open ball; +inf on the diagonal when d >= alpha.

    G(x, v) = B |x-v|^{alpha-d} * int_0^w s^{alpha/2-1} (1+s)^{-d/2} ds with
    w = (r^2-|x-c|^2)(r^2-|v-c|^2)/(r^2 |x-v|^2); symmetric in (x, v).
    """
    d, a = params.d, params.alpha
    xs, vs = _unit_coords(center, radius, x, v)
    qx = 1.0 - float(np.sum(xs ** 2))
    qv = 1.0 - float(np.sum(vs ** 2))
    if not (qx > 0 and qv > 0):
        raise ValueError("both arguments must lie in the open ball")
    z = float(np.linalg.norm(xs - vs))
    B = _green_constant(d, a) * radius ** (a - d)
    if z == 0.0:
        if d >= a:
            return math.inf
        # d = 1 < alpha: the diagonal limit is finite
        return B * (2.0 / (a - 1.0)) * qx ** (a - 1.0)
    w = qx * qv / (z * z)
    return B * z ** (a - d) * incomplete_kernel_integral(a / 2, d / 2, w)


def ball_poisson(params: StableParams, center, radius: float, x, y) -> float:
    """Exit-position density from an open ball (lives strictly outside it)."""
    d, a = params.d, params.alpha
    xs, ys = _unit_coords(center, radius, x, y)
    qx = 1.0 - float(np.sum(xs ** 2))
    qy = float(np.sum(ys ** 2)) - 1.0
    if not qx > 0:
        raise ValueError("source point must lie in the open ball")
    if not qy > 0:
        raise ValueError("exit-position density lives outside the closed ball")
    z = float(np.linalg.norm(xs - ys))
    return _poisson_constant(d, a) * (qx / qy) ** (a / 2) * (z * radius) ** (-d)


def expected_exit_time_ball(params: StableParams, center, radius: float, x) -> float:
    """E^x tau for the ball: c(d, alpha) (r^2 - |x-c|^2)^{alpha/2}."""
    d, a = params.d, params.alpha
    (xs,) = _unit_coords(center, radius, x)
    q = 1.0 - float(np.sum(xs ** 2))
    if not q >= -1e-12:
        raise ValueError("point must lie in the closed ball")
    q = max(q, 0.0)
    const = exp(
        (1 - a) * math.log(2) + lgamma(d / 2) - math.log(a) - lgamma((d + a) / 2) - lgamma(a / 2)
    )
    return const * q ** (a / 2) * radius ** a


def ball_exit_tail_exact(params: StableParams, x, R: float) -> float:
    """P^x(|exit from B(0,1)| > R) by quadrature of the exit density (d <= 3).

    R = 1 gives the total exit-law mass: the (rho^2 - 1)^{-alpha/2}
    endpoint singularity on [1, 2] is then handled with an algebraic-weight
    rule, and the tail beyond 2 is regular.
    """
    from scipy import integrate

    d, a = params.d, params.alpha
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    nx = float(np.linalg.norm(xa))
    if not nx < 1.0:
        raise ValueError("x must lie in the open unit ball")
    if not R >= 1.0:
        raise ValueError(f"tail threshold must be at least the ball radius, got {R!r}")
    C = _poisson_constant(d, a)
    qx = (1.0 - nx * nx) ** (a / 2)
    # f(rho, w): the exit density at radius rho (summed over the sphere),
    # with its radial weight (rho^2 - 1)^{-alpha/2} supplied as w(rho)
    if d == 1:
        def f(y, w):
            return C * qx * w(y) * (abs(y - nx) ** -1 + abs(y + nx) ** -1)

        tol = dict(epsabs=1e-12, epsrel=1e-10, limit=300)
    elif d in (2, 3):
        ang_w = (lambda th: 1.0) if d == 2 else math.sin
        ang_c = 2.0 if d == 2 else 2.0 * pi

        def f(rho, w):
            g = lambda th: (
                rho ** 2 + nx ** 2 - 2 * rho * nx * math.cos(th)
            ) ** (-d / 2) * ang_w(th)
            val, _ = integrate.quad(g, 0.0, pi, epsabs=1e-12, epsrel=1e-10, limit=200)
            return val * ang_c * rho ** (d - 1) * C * qx * w(rho)

        tol = dict(epsabs=1e-11, epsrel=1e-9, limit=200)
    else:
        raise UnsupportedRegimeError("exact exit tails implemented for d <= 3")

    def weight(rho):
        return (rho * rho - 1.0) ** (-a / 2)

    if R > 1.0:
        return integrate.quad(f, R, np.inf, args=(weight,), **tol)[0]
    near, _ = integrate.quad(
        f, 1.0, 2.0, args=(lambda rho: (rho + 1.0) ** (-a / 2),), weight="alg",
        wvar=(-a / 2, 0.0), **tol,
    )
    far, _ = integrate.quad(f, 2.0, np.inf, args=(weight,), **tol)
    return near + far


@lru_cache(maxsize=32)
def _tail_comparability(d: int, alpha: float) -> tuple:
    """Measured two-sided constants of the tail comparator, cached per (d, alpha)."""
    params = StableParams(d, alpha)
    lo, hi = math.inf, 0.0
    for nx in (0.0, 0.3, 0.6, 0.9):
        x = np.zeros(d)
        x[0] = nx
        for R in (2.0, 4.0, 8.0):
            exact = ball_exit_tail_exact(params, x, R)
            comp = (1.0 - nx) ** (alpha / 2) / R ** alpha
            ratio = exact / comp
            lo, hi = min(lo, ratio), max(hi, ratio)
    return lo, hi


def ball_exit_tail(params: StableParams, x, R: float) -> Bracket:
    """Two-sided comparator for P^x(|exit from B(0,1)| > R), R >= 2.

    The comparator is (1-|x|)^{alpha/2} R^{-alpha}; the bracket scales it
    by constants measured once per (d, alpha) by quadrature of the exit
    density over a reference grid.
    """
    if not R >= 2.0:
        raise ValueError(f"the comparator is stated for R >= 2, got {R!r}")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    nx = float(np.linalg.norm(xa))
    if not nx < 1.0:
        raise ValueError("x must lie in the open unit ball")
    comp = (1.0 - nx) ** (params.alpha / 2) / R ** params.alpha
    lo, hi = _tail_comparability(params.d, params.alpha)
    return Bracket(lo * comp, hi * comp)


# ---------------------------------------------------------------------------
# survival profiles


@dataclass(frozen=True)
class SurvivalProfile:
    """Comparability shape S(t, x) for the survival probability.

    ``evaluate`` returns one value clamped to [0, 1].  Values are
    comparators, not probabilities: the missing constants are measured by
    the sweep harness.  The shape follows the type of ``domain``; ``beta``
    is the cone exponent.  A point with a non-finite coordinate raises
    ``ValueError``.

    ``lambda1`` is the unit-ball decay rate; a ball of radius r decays at
    lambda1 / r^alpha, which is how ``estimate_lambda1`` reports it.  The
    ball shape carries the factor exp(-lambda1 (t - s)_+ / s) for s =
    rho^alpha, rho = max(r, delta(x)): it equals the short-time shape up
    to s and decays at lambda1 / s after it.
    """

    domain: dom.Domain
    params: StableParams
    beta: Optional[float] = None
    lambda1: Optional[float] = None

    def evaluate(self, t: float, x) -> float:
        if not 0 < t < math.inf:
            raise ValueError(f"time must be positive and finite, got {t!r}")
        D = self.domain
        d = dom.dim(D)
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        if xa.size != d:
            raise ValueError(f"point has {xa.size} coordinates, expected {d}")
        if not np.all(np.isfinite(xa)):
            raise ValueError(f"point must have finite coordinates, got {xa.tolist()}")
        if not dom.contains(D, xa):
            return 0.0
        delta = dom.dist_to_complement(D, xa)
        a = self.params.alpha
        ts = _scale(t, a)

        if isinstance(D, dom.Ball):
            r = D.radius
            v = _unit_ratio(delta, min(r, ts)) ** (a / 2)
            if self.lambda1 is not None:
                v *= _late_decay(self.lambda1, t, max(r, delta) ** a)
        elif isinstance(D, dom.HalfSpace):
            v = _unit_ratio(delta, ts) ** (a / 2)
        elif isinstance(D, dom.ExteriorBall):
            # in units of the radius; StableParams makes d > alpha unless d = 1 <= alpha
            R = D.radius
            dl, tl = delta / R, t / R ** a
            if self.params.d > a:
                v = min(1.0, dl ** (a / 2) / min(1.0, tl ** 0.5))
            elif a == 1.0:
                v = min(1.0, math.log1p(dl ** 0.5) / math.log1p(tl ** 0.5))
            else:
                g = lambda s: min(s ** (a - 1), s ** (a / 2))
                v = g(dl) / g(max(tl ** (1.0 / a), dl))
        elif isinstance(D, dom.CircularCone):
            nx = float(np.linalg.norm(xa))
            rx = _unit_ratio(nx, ts)
            if rx > 0:
                v = _unit_ratio(delta, ts) ** (a / 2) * rx ** (self.beta - a / 2)
            else:
                # nx / ts underflows, or ts is inf: the same shape, written as
                # (delta / nx)^(a/2) (nx / ts)^beta with the second factor in logarithms
                decay = exp(self.beta * (math.log(nx) - math.log(ts))) if self.beta else 1.0
                v = (delta / nx) ** (a / 2) * decay
        elif isinstance(D, dom.HyperplaneComplement):
            v = _unit_ratio(delta, ts) ** (a - 1.0)
        elif isinstance(D, dom.IntervalComplement):
            if a > 1.0:
                num = min(delta ** (a - 1.0), delta ** (a / 2))
                den = min(t ** (1.0 - 1.0 / a), t ** 0.5)
                v = min(1.0, num / den)
            else:
                v = min(1.0, math.log1p(delta ** 0.5) / math.log1p(t ** 0.5))
        else:
            raise UnsupportedRegimeError(f"no closed survival profile for {type(D).__name__}")
        return min(max(v, 0.0), 1.0)


def _scale(t: float, alpha: float) -> float:
    """t^{1/alpha}, the length scale of horizon t; inf where the power
    overflows a float, so that a profile takes its t -> inf limit."""
    try:
        return t ** (1.0 / alpha)
    except OverflowError:
        return math.inf


def _unit_ratio(length: float, scale: float) -> float:
    """min(1, length / scale) for a positive length; 1 at scale 0, where a
    short horizon's t^{1/alpha} underflows."""
    return min(1.0, length / scale) if scale > 0 else 1.0


def _late_decay(lambda1: float, t: float, scale_a: float) -> float:
    """exp(-lambda1 (t - s)_+ / s) for s = scale_a: 1 up to s, rate lambda1/s after."""
    return exp(-lambda1 * max(t - scale_a, 0.0) / scale_a)


def survival_profile(
    domain: dom.Domain,
    params: StableParams,
    *,
    beta: Optional[float] = None,
    lambda1: Optional[float] = None,
) -> SurvivalProfile:
    """Build the comparability profile for a catalog domain.

    Cones need an exponent ``beta`` in [0, alpha) unless the aperture is
    pi/2 (half-space, beta = alpha/2) or one is stored on the domain; no
    other profile reads ``beta``, so giving it elsewhere raises
    ``ValueError``.  Likewise only a ball's profile reads ``lambda1``, which
    must be positive and finite: the unit-ball value (the rate for radius r
    is lambda1 / r^alpha, as ``estimate_lambda1`` reports it).
    Hyperplane complements need alpha > 1, interval complements alpha >= 1.
    """
    a = params.alpha
    if dom.dim(domain) != params.d:
        raise ValueError("domain dimension does not match the parameters")
    if lambda1 is not None and not 0 < lambda1 < math.inf:
        raise ValueError(f"lambda1 must be positive and finite, got {lambda1!r}")
    if beta is not None and not isinstance(domain, dom.CircularCone):
        raise ValueError(
            f"beta applies only to the native profile of a cone, not to {type(domain).__name__}"
        )
    if lambda1 is not None and not isinstance(domain, dom.Ball):
        raise ValueError(
            f"lambda1 applies only to the profile of a ball, not to {type(domain).__name__}"
        )

    if isinstance(domain, dom.CircularCone):
        b = beta if beta is not None else domain.beta
        if b is None and dom.is_half_space(domain):
            b = a / 2
        if b is None:
            raise MissingParameterError(
                "cone profile needs an exponent beta (known or estimated)"
            )
        if not 0 <= b < a:
            raise ValueError(f"cone exponent beta must lie in [0, alpha), got {b!r}")
        return SurvivalProfile(domain, params, beta=float(b))
    if isinstance(domain, dom.HyperplaneComplement) and a <= 1.0:
        raise UnsupportedRegimeError("the hyperplane-complement profile needs alpha > 1")
    if isinstance(domain, dom.IntervalComplement) and a < 1.0:
        raise UnsupportedRegimeError(
            "the interval-complement profile covers the recurrent range alpha >= 1"
        )
    if not isinstance(domain, (dom.Ball, dom.HalfSpace, dom.ExteriorBall,
                               dom.HyperplaneComplement, dom.IntervalComplement)):
        raise UnsupportedRegimeError(
            f"no closed survival profile for {type(domain).__name__}"
        )
    return SurvivalProfile(domain, params, lambda1=lambda1)


def heat_kernel_profile(profile: SurvivalProfile, t: float, x, y) -> float:
    """Factorized comparator S(t,x) p(t,x,y) S(t,y), with S the given
    ``profile`` (built once by ``survival_profile``).

    The true killed kernel is comparable to this within constants that the
    sweep harness measures; nothing here asserts their value.
    """
    sx = profile.evaluate(t, x)
    sy = profile.evaluate(t, y)
    return sx * free_density(profile.params, t, x, y).value * sy
