"""Constants, jump intensity and the free transition density of the
isotropic alpha-stable process on R^d.

The density ``p_t`` is the function with Fourier transform
``exp(-t |xi|^alpha)``.  Everything here reduces to the unit-time radial
profile ``p_1(r)`` through exact self-similarity,

    p_t(x) = t^{-d/alpha} p_1(t^{-1/alpha} x),

so only ``p_1`` needs numerical work.  Three routes are combined:

* an ascending power series in ``r^2`` (entire for alpha > 1, asymptotic
  as r -> 0 for alpha < 1),
* a heavy-tail expansion in powers of ``r^{-alpha}`` whose leading term is
  the jump intensity ``nu(r)`` (convergent for alpha < 1, asymptotic
  otherwise),
* oscillatory quadrature of the radial Fourier inversion integral for the
  window where neither series reaches the requested accuracy.

At alpha = 1 the density is the Cauchy kernel

    p_t(r) = p_1(0) t (t^2 + r^2)^{-(d+1)/2},

and ``free_density`` and ``free_density_radial`` both evaluate that
closed form; the three routes remain its independent check.

The peak value is

    p_1(0) = 2^{1-d} pi^{-d/2} Gamma(d/alpha) / (alpha Gamma(d/2)).

Note the factor ``2^{1-d}``: the exponent is one minus the *dimension*,
not one minus the stability index (a misprint that circulates in the
literature).  The constant is rederived by radial integration of the
Fourier inversion formula and double-checked by quadrature in the test
suite; for d=1 and d=2 with alpha=1 it reproduces the Cauchy closed forms.

The vectorized evaluator behind ``free_density_radial`` is a spline and
tail table calibrated against the three routes, except at alpha = 1.

scipy is imported inside the functions that integrate, interpolate or
call a Bessel function, so importing this module does not load it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import exp, lgamma, log, pi, sin

import numpy as np

from .errors import UnsupportedRegimeError

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)
# exp(-u^alpha) below this u-cutoff envelope is < 6e-19
_ULOG = 42.0


@dataclass(frozen=True)
class StableParams:
    """Dimension and stability index of the driving process.

    ``alpha`` must lie strictly inside (0, 2); the Gaussian endpoint
    alpha = 2 changes every formula downstream and is rejected.
    """

    d: int
    alpha: float

    def __post_init__(self):
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 1):
            raise ValueError(f"dimension must be a positive integer, got {self.d!r}")
        if not (0.0 < self.alpha < 2.0):
            raise ValueError(
                f"stability index must satisfy 0 < alpha < 2 strictly, got {self.alpha!r}"
            )


@dataclass(frozen=True)
class DensityEval:
    """A density value together with its estimated relative error."""

    value: float
    rel_err: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("density value must be nonnegative")
        if not math.isfinite(self.rel_err):
            raise ValueError("rel_err must be finite")


# ---------------------------------------------------------------------------
# constants


def levy_constant(params: StableParams) -> float:
    """Coefficient A of the jump intensity A |y|^{-d-alpha}.

    Written with the reflection formula so that only gammas of positive
    arguments appear::

        A = 2^alpha Gamma((d+alpha)/2) sin(pi alpha/2) Gamma(1+alpha/2) / pi^{d/2+1}
    """
    d, a = params.d, params.alpha
    return exp(
        a * _LN2
        + lgamma((d + a) / 2)
        + lgamma(1 + a / 2)
        - (d / 2 + 1) * _LNPI
    ) * sin(pi * a / 2)


# ---------------------------------------------------------------------------
# the incomplete kernel integral


def incomplete_kernel_integral(a: float, b: float, w: float) -> float:
    """``int_0^w s^{a-1} (1+s)^{-b} ds`` for a, b > 0 and w >= 0.

    The endpoint singularity s^{a-1} is handled by an algebraic-weight
    rule on [0, min(w,1)]; the remaining range uses the substitution
    s = e^x, which turns the integrand into a smooth exponential.
    As w -> infinity the value tends to Beta(a, b-a) whenever b > a.
    """
    if a <= 0 or b <= 0:
        raise ValueError("exponent parameters must be positive")
    if w < 0:
        raise ValueError("upper limit must be nonnegative")
    if w == 0:
        return 0.0
    if math.isinf(w):
        if b > a:
            return exp(lgamma(a) + lgamma(b - a) - lgamma(b))
        return math.inf
    from scipy import integrate

    w1 = min(w, 1.0)
    v1, _ = integrate.quad(
        lambda s: (1.0 + s) ** (-b),
        0.0,
        w1,
        weight="alg",
        wvar=(a - 1.0, 0.0),
        epsabs=1e-13,
        epsrel=1e-11,
    )
    v2 = 0.0
    if w > 1.0:
        v2, _ = integrate.quad(
            lambda x: exp(a * x) * (1.0 + exp(x)) ** (-b),
            0.0,
            log(w),
            epsabs=1e-13,
            epsrel=1e-11,
            limit=200,
        )
    return v1 + v2


# ---------------------------------------------------------------------------
# unit-time radial profile p_1(r): series + quadrature


# The series coefficients depend on (d, alpha) only.  Each cached prefix
# is the leading part of its term's left-to-right sum, so a term built
# from it is the same float as one written out in full.


@lru_cache(maxsize=64)
def _ascending_terms(d: int, alpha: float) -> tuple:
    """Log-coefficients of the ascending series, k = 0..399."""
    return tuple(
        lgamma((2 * k + d) / alpha) - lgamma(k + 1) - lgamma(k + d / 2) for k in range(400)
    )


@lru_cache(maxsize=64)
def _tail_terms(d: int, alpha: float) -> tuple:
    """(log-coefficient without the pi power, sin(k pi alpha/2)) of the
    heavy-tail series, k = 1..249."""
    return tuple(
        (
            k * alpha * _LN2
            + lgamma((k * alpha + d) / 2)
            + lgamma(k * alpha / 2 + 1)
            - lgamma(k + 1),
            sin(k * pi * alpha / 2),
        )
        for k in range(1, 250)
    )


def _sum_series(terms, tol_rel: float):
    """Sum a series given as (log-magnitude, sign) pairs: (value, rel_err),
    or None where it is unusable.

    The magnitude leaves out any oscillating factor, which goes in the
    sign, so that the optimal-truncation point of an asymptotic expansion
    is found reliably.  The sum stops at a term past exp(650) (overflow
    ahead), once the magnitudes rise again after falling (past the optimal
    truncation), or at the second term or later once ``mag <= tol_rel s /
    4``.  The result is the partial sum at that last term, or else at the
    smallest magnitude seen, with relative error (that magnitude + 2e-15 x
    the largest one so far) / sum.  The series is unusable when a
    magnitude passes 1e290, no term was summed or the sum is not positive
    (divergence, overflow or cancellation).
    """
    stop = 0.25 * tol_rel
    s = maxmag = prev = 0.0
    best_s = best_mag = best_max = 0.0
    falling = False
    for k, (lnt, sign) in enumerate(terms):
        if lnt > 650.0:
            break
        mag = exp(lnt)
        if mag > 1e290:
            return None
        if k:
            if mag < prev:
                falling = True
            elif falling and mag > prev:
                break
        s += sign * mag
        if mag > maxmag:
            maxmag = mag
        if k == 0 or mag < best_mag:
            best_s, best_mag, best_max = s, mag, maxmag
        prev = mag
        if s > 0 and mag <= stop * s and k >= 1:
            best_s, best_mag, best_max = s, mag, maxmag
            break
    if best_s <= 0:
        return None
    return best_s, (best_mag + best_max * 2e-15) / best_s


def _p1_ascending(d: int, alpha: float, r: float, tol_rel: float):
    """Power series in r^2 around the origin, summed by ``_sum_series``:
    (value, rel_err), or None where it is unusable."""
    lead = (1 - d) * _LN2 - 0.5 * d * _LNPI - log(alpha)
    x = r * r / 4.0
    if x == 0.0:
        return exp(lead + lgamma(d / alpha) - lgamma(d / 2)), 1e-15
    lnx = log(x)
    return _sum_series(((c + k * lnx + lead, -1.0 if k % 2 else 1.0)
                        for k, c in enumerate(_ascending_terms(d, alpha))), tol_rel)


def _p1_tail(d: int, alpha: float, r: float, tol_rel: float, ln_t: float = 0.0):
    """Heavy-tail expansion in powers of r^{-alpha}; k=1 term is nu(r).
    Summed by ``_sum_series``: (value, rel_err), or None where unusable;
    the sin factor goes in the sign, since it would fake a truncation
    minimum where it dips.

    With ``ln_t`` = log t it sums p_t(r) = t^{-d/alpha} p_1(r t^{-1/alpha})
    instead: the scaling enters each term's logarithm as k log t, so a
    representable p_t is found where p_1 itself under- or overflows.
    """
    if r <= 0:
        return None
    lead = -(0.5 * d + 1) * _LNPI
    lnr = log(r)
    return _sum_series(((c - (d + k * alpha) * lnr + k * ln_t + lead, sg if k % 2 else -sg)
                        for k, (c, sg) in enumerate(_tail_terms(d, alpha), 1)), tol_rel)


@lru_cache(maxsize=64)
def _j0_zeros(n: int) -> np.ndarray:
    from scipy import special

    return special.jn_zeros(0, n)


def _p1_quadrature(d: int, alpha: float, r: float):
    """Radial Fourier inversion by oscillatory quadrature (d <= 3)."""
    from scipy import integrate, special

    if d in (1, 3):
        # p_1 is a cosine transform in d = 1 and a sine transform over r in d = 3
        if d == 1:
            f, weight, c = (lambda u: exp(-(u ** alpha)) / pi), "cos", 1.0
        else:
            f, weight, c = (lambda u: u * exp(-(u ** alpha))), "sin", 1.0 / (2.0 * pi * pi * r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            v, e = integrate.quad(f, 0.0, np.inf, weight=weight, wvar=r, epsabs=1e-13,
                                  limlst=200, limit=300)
        return c * v, c * e
    if d == 2:
        ucut = _ULOG ** (1.0 / alpha)
        nz = int(ucut * r / pi) + 2
        if nz > 6000:
            return None
        cuts = [0.0] + [z for z in _j0_zeros(nz) / r if z < ucut] + [ucut]
        tot = 0.0
        err = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            v, e = integrate.quad(
                lambda u: u * exp(-(u ** alpha)) * special.j0(u * r) / (2 * pi),
                lo,
                hi,
                epsabs=1e-14,
                epsrel=1e-12,
                limit=100,
            )
            tot += v
            err += e
        return tot, err
    return None


@lru_cache(maxsize=4096)
def _p1_point(d: int, alpha: float, r: float, tol_rel: float = 1e-9):
    """Rigorous evaluation of p_1 at radius r: (value, rel_err).

    Only a route whose value is finite and positive, and whose error
    estimate is positive and below one (at least one correct digit),
    counts; a radius that every route misses raises
    ``UnsupportedRegimeError``.  Results are cached, since a sweep asks
    for the same (t, |y - x|) in its kernel estimate and again in its
    report.
    """
    if not 0.0 <= r < math.inf:
        raise ValueError(f"radius must be finite and nonnegative, got {r!r}")
    if r == 0.0:
        v, e = _p1_ascending(d, alpha, 0.0, tol_rel)
        return v, e
    attempts = []
    for route in (_p1_ascending, _p1_tail):
        res = route(d, alpha, r, tol_rel)
        if res is not None and _usable(res):
            if res[1] <= tol_rel:
                return res
            attempts.append(res)
    if d <= 3:
        q = _p1_quadrature(d, alpha, r)
        # the cosine-weighted rule can return DBL_MAX with a tiny error
        # estimate (d=1, alpha=1.6, r=6.145707563061857); p_1 peaks at 0
        if q is not None and 0 < q[0] <= _p1_ascending(d, alpha, 0.0, tol_rel)[0]:
            v, e = q
            res = (v, max(e / v, 5e-16))
            if _usable(res):
                attempts.append(res)
    if not attempts:
        raise UnsupportedRegimeError(
            f"density evaluation not supported at d={d}, alpha={alpha}, r={r}"
        )
    return min(attempts, key=lambda t: t[1])


def _usable(res) -> bool:
    v, e = res
    return 0.0 < v < math.inf and 0.0 < e < 1.0


# ---------------------------------------------------------------------------
# the Cauchy density (alpha = 1)


#: smallest normal float
_DBL_MIN = 2.0 ** -1022


@lru_cache(maxsize=16)
def _cauchy_peak(d: int) -> tuple:
    """p_1(0) at alpha = 1 from the peak formula, and the relative error
    bound of the nonzero finite values of ``_cauchy``.

    The bound adds the closed form's rounding to the peak's error: with
    u = 2^-53, 1 + s*s carries at most 2.5 u (s <= 1), the power scales
    that by (d + 1)/2 and adds 2 u, and the d + 3 other operations add u
    each, (9 d + 25)/4 u in all, below (3 d + 7) u.
    """
    peak, err = _p1_ascending(d, 1.0, 0.0, 1e-9)
    return peak, err + (3 * d + 7) * 2.0 ** -53


def _cauchy(d: int, t, r):
    """p_t(r) = p_1(0) t (t^2 + r^2)^{-(d+1)/2} at times t and radii r
    (floats or arrays that broadcast).

    With m = max(t, r) and s = min(t, r)/m <= 1 it is evaluated as

        p_1(0) (1 + s^2)^{-(d+1)/2} (t/m) / m / ... / m   (d divisions),

    whose partial products run monotonically from the first, at most
    p_1(0), to the value: none over- or underflows where p_t is in the
    normal float range.  Below that range the value is 0, since its
    relative error is unbounded there, and above it inf.  Computed in
    place, in two arrays of the broadcast shape.
    """
    shape = np.broadcast(t, r).shape
    m = np.maximum(t, r, out=np.empty(shape))
    p = np.minimum(t, r, out=np.empty(shape))
    p /= m
    p *= p
    p += 1.0
    np.power(p, -0.5 * (d + 1), out=p)
    p *= _cauchy_peak(d)[0]
    with np.errstate(over="ignore"):
        p *= t / m
        for _ in range(d):
            p /= m
    p[p < _DBL_MIN] = 0.0
    return p


# ---------------------------------------------------------------------------
# fast vectorized evaluator (spline head + tail expansion)


#: spline nodes of the fast table on [0, zstar]
TABLE_NODES = 900


class _P1Fast:
    """Vectorized density p_t(r) = t^{-d/alpha} p_1(t^{-1/alpha} r) from a
    unit-time profile table: log-spline on [0, zstar], tail beyond; at
    alpha = 1 the Cauchy closed form ``_cauchy`` of p_t itself.

    ``zstar`` is calibrated at construction as the smallest radius where
    the tail expansion, and the table's own truncation of it, agree with
    the rigorous point evaluator to 5e-9.  The truncated tail terms are
    stored as their values b_k at zstar, so that at r > zstar the tail is

        (zstar/r)^d * sum_k b_k v^k,   v = (zstar/r)^alpha <= 1,

    summed by Horner's rule in v: no partial sum exceeds the sum of the
    |b_k|, whereas powers of r^{-alpha} itself overflow at large r.  The
    error against the point evaluator is measured at off-node radii of the
    spline, just past zstar and at tail radii up to 400, and stored in
    ``max_rel_err``.  p_1 decreases radially, so a pair of spline nodes
    with v_{i+1} > v_i puts at least one of the two off by a factor of at
    least sqrt(v_{i+1}/v_i); ``max_rel_err`` takes that factor less one
    too, which flags a bad node that no probe radius reaches.

    ``_p1_fast`` builds one table per (d, alpha) and process; the build
    makes about a thousand point evaluations, mostly by the two series.
    At alpha = 1 it builds nothing and makes no point evaluation, and
    ``max_rel_err`` is the closed form's rounding bound, below 4e-15 for
    d <= 3.
    A call evaluates each (t, r) pair on its own, so one call on
    concatenated arrays gives, pair for pair, the floats of one call per
    part, and one call serves many cells at once.
    """

    def __init__(self, d: int, alpha: float):
        self.d, self.alpha = d, alpha
        if alpha == 1.0:
            self.max_rel_err = _cauchy_peak(d)[1]
            return
        from scipy import interpolate

        self._calibrate_zstar()
        grid = np.linspace(0.0, self.zstar, TABLE_NODES)
        vals = np.array([_p1_point(d, alpha, float(r))[0] for r in grid])
        self._spline = interpolate.CubicSpline(grid, np.log(vals))
        probe = grid[:-1] + 0.5 * (grid[1] - grid[0])
        probe = np.concatenate(
            [probe[:: max(1, len(probe) // 40)], [1.0001 * self.zstar],
             np.geomspace(self.zstar, 400.0, 13)[1:]]
        )
        ref = np.array([_p1_point(d, alpha, float(r))[0] for r in probe])
        got = self(probe)
        rise = float(np.max(vals[1:] / vals[:-1]))
        self.max_rel_err = max(float(np.max(np.abs(got - ref) / ref)), math.sqrt(rise) - 1.0)
        if self.max_rel_err > 1e-6:
            warnings.warn(
                f"fast density table for d={d}, alpha={alpha} reaches only "
                f"{self.max_rel_err:.1e} relative accuracy",
                RuntimeWarning,
            )

    def _calibrate_zstar(self) -> None:
        """Set ``zstar`` and the tail terms truncated there."""
        for z in np.geomspace(0.5, 400.0, 80):
            res = _p1_tail(self.d, self.alpha, float(z), 1e-10)
            if res is None or res[1] > 1e-9:
                continue
            ref, _ = _p1_point(self.d, self.alpha, float(z), 1e-10)
            self.zstar = float(z)
            self._tail_b = self._tail_at_zstar()
            # the table keeps fewer terms than _p1_tail may sum: both must match
            tail = self._tail(np.array([self.zstar]))[0]
            if max(abs(res[0] - ref), abs(tail - ref)) <= 5e-9 * ref:
                return
        raise UnsupportedRegimeError(
            f"no usable tail regime found for d={self.d}, alpha={self.alpha}"
        )

    def _tail_at_zstar(self) -> np.ndarray:
        # Truncate at the smallest-magnitude term measured at zstar once the
        # terms have started to fall, as the series sums do: past that point an
        # asymptotic expansion diverges, and for every r > zstar the same
        # truncation is at least as accurate.  The terms may grow before
        # they fall (alpha < 1, where the series converges, and alpha = 1 in
        # d >= 2); for alpha < 1 the table gets the larger term budget of
        # _p1_tail.  Stop 20 decades below the largest term.
        d, a = self.d, self.alpha
        lead = -(0.5 * d + 1) * _LNPI
        lnz = log(self.zstar)
        signs, lns = [], []
        peak = prev = -math.inf
        falling = False
        for k, (c, sg) in enumerate(_tail_terms(d, a)[: 249 if a < 1.0 else 79], 1):
            ln_at_z = c + lead - (d + k * a) * lnz
            if (falling and ln_at_z > prev) or ln_at_z < peak - 46.0:
                break
            falling = falling or ln_at_z < prev
            peak = max(peak, ln_at_z)
            prev = ln_at_z
            signs.append(sg if k % 2 == 1 else -sg)
            lns.append(ln_at_z)
        return np.array(signs) * np.exp(lns)

    def __call__(self, r, t=1.0) -> np.ndarray:
        """p_t at the radii r; ``t`` is one time or an array paired with r."""
        r = np.asarray(r, dtype=float)
        if self.alpha == 1.0:
            return _cauchy(self.d, t, r)
        r = r * t ** (-1.0 / self.alpha)
        out = np.empty_like(r)
        head = r <= self.zstar
        if head.any():
            out[head] = np.exp(self._spline(r[head]))
        if (~head).any():
            out[~head] = self._tail(r[~head])
        return t ** (-self.d / self.alpha) * out

    def _tail(self, rr: np.ndarray) -> np.ndarray:
        q = self.zstar / rr
        v = q ** self.alpha
        acc = np.full_like(v, self._tail_b[-1])
        for b in self._tail_b[-2::-1]:
            acc *= v
            acc += b
        return q ** self.d * v * acc


@lru_cache(maxsize=16)
def _p1_fast(d: int, alpha: float) -> _P1Fast:
    return _P1Fast(d, alpha)


# ---------------------------------------------------------------------------
# public density surface


def free_density(params: StableParams, t: float, x, y) -> DensityEval:
    """Transition density p(t, x, y) = p_t(y - x).

    Symmetric in (x, y) by construction (only |y - x| enters).  At
    alpha = 1 it is the Cauchy closed form; at every other alpha it is
    reduced to unit time by self-similarity and evaluated by series or
    quadrature, or by the tail series of p_t itself where p_1 or the
    scaling leaves the float range.  The returned ``rel_err`` is the
    internal error estimate; the target 1e-9 is reliably met for d <= 3.
    Non-finite input raises ``ValueError``, and a density outside the
    normal float range ``UnsupportedRegimeError``.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"time must be positive and finite, got {t!r}")
    d, a = params.d, params.alpha
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    if xa.size != d or ya.size != d:
        raise ValueError(f"points must have {d} coordinates")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise ValueError("points must have finite coordinates")
    z = math.hypot(*(ya - xa))
    if a == 1.0:
        v = float(_cauchy(d, t, z))
        if not 0.0 < v < math.inf:
            raise _out_of_range(params, t, z)
        return DensityEval(value=v, rel_err=_cauchy_peak(d)[1])
    try:
        scale = t ** (-1.0 / a)
        v, rel = _p1_point(d, a, scale * z, 1e-9)
        return DensityEval(value=t ** (-d / a) * v, rel_err=rel)
    except (UnsupportedRegimeError, OverflowError) as exc:
        # p_1 or the scaling may leave the float range at a tiny t where
        # p_t does not: sum the tail series of p_t itself
        res = _p1_tail(d, a, z, 1e-9, log(t))
        if res is not None and _usable(res):
            return DensityEval(*res)
        if isinstance(exc, OverflowError):
            raise _out_of_range(params, t, z) from None
        raise


def _out_of_range(params: StableParams, t: float, z: float) -> UnsupportedRegimeError:
    return UnsupportedRegimeError(
        f"the density at d={params.d}, alpha={params.alpha}, t={t!r}, |y - x|={z!r} "
        "is out of the float range"
    )


def free_density_radial(params: StableParams, t, radii) -> np.ndarray:
    """Vectorized p_t at an array of radii |y - x| (fast path); ``t`` is one
    time or an array of times paired with the radii.  Each value depends
    on its own (t, r) pair only, so the pairs of several evaluations may
    be concatenated into one call, which runs the table's tail sum once.

    Backed by the calibrated spline/tail evaluator, or at alpha = 1 by the
    Cauchy closed form of p_t, which is 0 only below the normal float range.
    Its error bound is the table's ``max_rel_err`` (see ``_P1Fast``), and a
    ``RuntimeWarning`` fires when the table is built if that exceeds 1e-6:
    the closed form's rounding at alpha = 1, about 1e-8 or better for
    other alpha >= 0.5, but up to 3e-2 (d = 3) at alpha = 0.3, where the
    head spline is coarse.
    """
    if not np.all(np.asarray(t) > 0):
        raise ValueError("time must be positive")
    return _p1_fast(params.d, params.alpha)(radii, t)


# ---------------------------------------------------------------------------
# quadrature check of the symbol (normalization of the jump intensity)


def levy_symbol_quadrature(params: StableParams, xi: float) -> float:
    """``int (1 - cos(xi . y)) nu(y) dy`` by quadrature; should equal |xi|^alpha.

    Reduced to the radial integral ``c_d A int (1 - L_d(|xi| r)) r^{-1-alpha} dr``
    where L_d is the spherical average of the cosine (cos, J_0, sinc for
    d = 1, 2, 3).  The oscillatory tail is integrated with Fourier
    weights for d = 1, 3 and by alternating Bessel-interval sums for d = 2.
    """
    d, alpha = params.d, params.alpha
    a = abs(float(xi))
    if a == 0.0:
        return 0.0
    if d > 3:
        raise UnsupportedRegimeError("symbol quadrature implemented for d <= 3")
    from scipy import integrate, special

    A = levy_constant(params)
    cd = 2.0 * pi ** (d / 2) / math.gamma(d / 2)

    if d == 1:
        lam = lambda u: math.cos(u)
    elif d == 2:
        lam = lambda u: special.j0(u)
    else:
        lam = lambda u: math.sin(u) / u if u != 0 else 1.0

    X = 40.0 / a
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        head, _ = integrate.quad(
            lambda r: (1.0 - lam(a * r)) * r ** (-1.0 - alpha),
            0.0,
            X,
            epsabs=1e-12,
            epsrel=1e-10,
            limit=400,
        )
    # int_X^inf r^{-1-alpha} dr minus the oscillatory remainder
    tail_power = X ** (-alpha) / alpha
    if d == 1:
        osc, _ = integrate.quad(
            lambda r: r ** (-1.0 - alpha), X, np.inf, weight="cos", wvar=a,
            epsabs=1e-12, limlst=120,
        )
    elif d == 3:
        osc, _ = integrate.quad(
            lambda r: r ** (-2.0 - alpha) / a, X, np.inf, weight="sin", wvar=a,
            epsabs=1e-12, limlst=120,
        )
    else:
        osc = 0.0
        zs = _j0_zeros(2000) / a
        zs = zs[zs > X]
        lo = X
        for hi in zs:
            term, _ = integrate.quad(
                lambda r: special.j0(a * r) * r ** (-1.0 - alpha), lo, hi,
                epsabs=1e-13, epsrel=1e-11,
            )
            osc += term
            lo = hi
            if abs(term) < 1e-12 * (head + tail_power):
                break
    return cd * A * (head + tail_power - osc)
