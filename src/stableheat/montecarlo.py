"""Samplers and estimators for the killed isotropic stable process.

Increments are exact: a centered Gaussian evaluated at an independent
one-sided stable time (Kanter's trigonometric method), so the increment
law has characteristic function exp(-dt |xi|^alpha) by construction.
Ball exit positions are exact: the radial law from the center reduces to
a Beta variable, and general starting points use rejection against the
center law (falling back to an exact composition of center draws when the
acceptance bound degrades).  Exit *times* have no exact sampler; they are
simulated on a time grid with a one-sided bias, so callers compare runs
at h and h/2.  The bias is not O(h): for E^0 tau on the unit ball (d = 1,
alpha = 1.5) it fell by a factor 0.63-0.69 per halving of h, which is
the order h^{1/alpha}.

Reproducibility: paths are organized in fixed-size batches; batch i uses
a counter-based Philox stream keyed by (seed, i), and partial results are
merged in batch order.  Results are therefore bit-identical for any
worker count.  Pooled runs share one process pool, kept from the first
pooled call until ``shutdown_pool``, so repeated calls do not pay for
worker start-up and table building again; reuse does not change a result.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from math import pi
from typing import Optional

import numpy as np

from . import domains as dom
from .errors import EstimateDiagnostic, FitError, UnsupportedRegimeError
from .stable import StableParams, free_density, free_density_radial

BATCH = 8192

#: walk-on-spheres iterations after which the walk stops with an error
#: (a degenerate domain/point configuration)
WOS_MAX_STEPS = 1_000_000

#: half-width of the slab used to stand in for a measure-zero boundary
#: ({x_d = 0} is invisible to a discrete walk; the thickened domain has
#: the same decay exponents)
THIN_BOUNDARY_HALF_WIDTH = 0.02


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo result with provenance."""

    mean: float
    stderr: float
    n: int
    seed: int
    step: float = 0.0
    wall_time: float = 0.0

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


def _stream(seed: int, index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)])
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# exact samplers


def _one_sided_stable(rho: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Positive stable draws with Laplace transform exp(-lambda^rho), rho in (0,1)."""
    u = np.clip(rng.random(n), 1e-16, 1.0 - 1e-16)
    e = np.maximum(rng.standard_exponential(n), 1e-300)
    th = u * pi
    ln_a = (
        rho * np.log(np.sin(rho * th))
        + (1.0 - rho) * np.log(np.sin((1.0 - rho) * th))
        - np.log(np.sin(th))
    ) / (1.0 - rho)
    return np.exp((1.0 - rho) / rho * (ln_a - np.log(e)))


def sample_stable_increments(
    params: StableParams, dt: float, rng: np.random.Generator, n: int
) -> np.ndarray:
    """n exact increments over time dt, shape (n, d).

    A Gaussian vector with per-coordinate variance 2S, where S is a
    one-sided alpha/2-stable time with Laplace transform exp(-dt l^{a/2});
    subordination makes the characteristic function exp(-dt |xi|^alpha).
    """
    if dt <= 0:
        raise ValueError("time step must be positive")
    s = dt ** (2.0 / params.alpha) * _one_sided_stable(params.alpha / 2.0, rng, n)
    z = rng.standard_normal((n, params.d))
    return np.sqrt(2.0 * s)[:, None] * z


def _jump(params: StableParams, p, radius, rng: np.random.Generator, n: int) -> np.ndarray:
    """Exact exit positions from balls of the given radii centred at p
    (one point, or one row per draw), for walkers starting at the centres.

    The radial law is |Y - c| = r / sqrt(U) with U ~ Beta(a/2, 1 - a/2)
    (inverting the radial variable of the exit density); the direction is
    uniform by isotropy.  The jump-size clamp guards float overflow on
    astronomically long excursions (critical recurrent case); bounded
    targets are unaffected.
    """
    a, d = params.alpha, params.d
    u = rng.beta(a / 2.0, 1.0 - a / 2.0, n)
    rad = radius / np.sqrt(np.maximum(u, 1e-300))
    np.minimum(rad, 1e150, out=rad)
    if d == 1:
        sgn = rng.integers(0, 2, n) * 2.0 - 1.0
        return p + (rad * sgn)[:, None]
    z = rng.standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1)[:, None]
    return p + rad[:, None] * z


def _exit_from_center(
    params: StableParams, center: np.ndarray, radius: float, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Exact exit positions from a ball for a walker starting at its center."""
    return _jump(params, center, radius, rng, n)


def sample_ball_exit_positions(
    params: StableParams, center, radius: float, x, rng: np.random.Generator, n: int
) -> np.ndarray:
    """n exact draws from the ball exit law started at x (shape (n, d)).

    From the center the radial inversion is used directly.  Elsewhere the
    draws are rejection-sampled against the center law, whose shape
    matches both singular features of the target (the (|y|^2 - r^2)^{-a/2}
    blow-up at the sphere and the |y|^{-d-a} tail); the acceptance
    probability [(r - |x-c|) |y-c| / (r |x-y|)]^d is exact.  When the
    acceptance bound drops below 0.1 the draw is composed of center
    draws from inscribed balls instead, which is exact by the strong
    Markov property.
    """
    d = params.d
    c = np.atleast_1d(np.asarray(center, dtype=float))
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if c.shape != (d,) or xa.shape != (d,):
        raise ValueError(f"center and start point must have dimension d = {d}")
    rho = float(np.linalg.norm(xa - c))
    if rho >= radius:
        raise ValueError("start point must lie in the open ball")
    if rho == 0.0:
        return _exit_from_center(params, c, radius, rng, n)
    accept_floor = ((radius - rho) / radius) ** d * (
        radius ** 2 / (radius ** 2 - rho ** 2)
    ) ** (params.alpha / 2)
    if accept_floor < 0.1:
        return _exit_compose(params, c, radius, xa, rng, n)
    out = np.empty((n, d))
    have = 0
    while have < n:
        m = max(int((n - have) / max(accept_floor, 0.05)) + 16, 64)
        y = _exit_from_center(params, c, radius, rng, m)
        dy = np.linalg.norm(y - c, axis=1)
        dxy = np.linalg.norm(y - xa, axis=1)
        acc = ((radius - rho) * dy / (radius * dxy)) ** d
        keep = rng.random(m) < acc
        k = min(int(keep.sum()), n - have)
        out[have : have + k] = y[keep][:k]
        have += k
    return out


def _exit_compose(params, c, radius, xa, rng, n) -> np.ndarray:
    """Exit positions via nested center draws from inscribed balls."""
    pos = np.tile(xa, (n, 1))
    active = np.ones(n, dtype=bool)
    guard = 0
    while active.any():
        guard += 1
        if guard > 10_000:
            raise RuntimeError("inscribed-ball composition failed to exit")
        idx = np.nonzero(active)[0]
        p = pos[idx]
        gap = radius - np.linalg.norm(p - c, axis=1)
        newp = _jump(params, p, gap, rng, len(idx))
        pos[idx] = newp
        active[idx] = np.linalg.norm(newp - c, axis=1) < radius
    return pos


def sample_exit_positions_wos(
    domain: dom.Domain, params: StableParams, x, rng: np.random.Generator, n: int
):
    """n exact draws of the exit position from a catalog domain by
    walk-on-spheres: repeated exact ball exits from inscribed balls until
    the walker jumps out of the domain.  Returns (positions, steps).

    Exact in law because each ball exit is exact and exits occur by
    jumps.  Not applicable to domains whose complement has measure zero
    (the walk would never terminate).
    """
    if isinstance(domain, dom.HyperplaneComplement):
        raise UnsupportedRegimeError(
            "walk-on-spheres cannot terminate on a measure-zero boundary"
        )
    if dom.dim(domain) != params.d:
        raise ValueError(f"domain has dimension {dom.dim(domain)}, but d = {params.d}")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not dom.contains(domain, xa):
        raise ValueError("start point must lie in the domain")
    pos = np.tile(xa, (n, 1))
    active = np.ones(n, dtype=bool)
    steps = np.zeros(n, dtype=np.int64)
    it = 0
    while active.any():
        it += 1
        if it > WOS_MAX_STEPS:
            raise RuntimeError(
                f"walk-on-spheres exceeded {WOS_MAX_STEPS} steps; degenerate "
                "domain/point configuration"
            )
        idx = np.nonzero(active)[0]
        p = pos[idx]
        radii = dom.dist_many(domain, p)
        newp = _jump(params, p, radii, rng, len(idx))
        pos[idx] = newp
        steps[idx] += 1
        active[idx] = dom.contains_many(domain, newp)
    return pos, steps


# ---------------------------------------------------------------------------
# grid-walk exit simulation


def _walk_batch(
    domain: dom.Domain,
    params: StableParams,
    x0: np.ndarray,
    h: float,
    horizon: float,
    rng: np.random.Generator,
    m: int,
    thin: Optional[float] = None,
):
    """Simulate m grid walks; returns (tau, end_position, survived).

    tau is the first grid time at which the chain is found outside the
    domain (jump-and-return excursions inside one step are missed, so
    survival is biased upward, by the order h^{1/alpha} measured in the
    module docstring); censored walks carry tau = inf.
    """
    nsteps = int(round(horizon / h))
    if abs(nsteps * h - horizon) > 1e-9 * max(horizon, 1.0):
        raise ValueError("horizon must be an integer multiple of the step")
    if thin is None:
        thin = THIN_BOUNDARY_HALF_WIDTH
    pos = np.tile(x0, (m, 1))
    tau = np.full(m, np.inf)
    # the live walkers, contiguous and in ascending path order, and their paths
    idx = np.arange(m)
    live = pos.copy()
    for k in range(1, nsteps + 1):
        if idx.size == 0:
            break
        live += sample_stable_increments(params, h, rng, idx.size)
        if isinstance(domain, dom.HyperplaneComplement):
            out = np.abs(live[:, -1]) <= thin
        else:
            out = ~dom.contains_many(domain, live)
        if out.any():
            newly = idx[out]
            tau[newly] = k * h
            pos[newly] = live[out]
            keep = ~out
            idx, live = idx[keep], live[keep]
    pos[idx] = live
    return tau, pos, ~np.isfinite(tau)


# ---------------------------------------------------------------------------
# batch scheduling


#: the worker pool kept between pooled calls, as (worker count, executor)
_pool: Optional[tuple] = None


def shutdown_pool() -> None:
    """Stop the worker pool that ``_run_batches`` keeps, if there is one,
    and wait for its workers to exit.  Safe to call at any time."""
    global _pool
    if _pool is not None:
        _, ex = _pool
        _pool = None
        ex.shutdown()


def _run_batches(n: int, worker, workers: int = 1):
    """Split n paths into fixed batches, run ``worker(batch_index, m)`` and
    return partial results merged in batch order.

    With more than one worker the batches run on a process pool that is
    started on first use and kept for later calls with the same worker
    count, until ``shutdown_pool``; a worker's tables and caches therefore
    outlive one call, and the merged results stay bit-identical for any
    worker count.  If a batch raises, the batches not yet started are
    cancelled and the error propagates; a broken pool is dropped, so the
    next call starts a fresh one.
    """
    global _pool
    if n < 1:
        raise ValueError(f"path count must be positive, got {n}")
    sizes = [BATCH] * (n // BATCH)
    if n % BATCH:
        sizes.append(n % BATCH)
    if workers <= 1:
        return [worker(i, m) for i, m in enumerate(sizes)]
    if _pool is None or _pool[0] != workers:
        shutdown_pool()
        _pool = (workers, ProcessPoolExecutor(max_workers=workers))
    ex = _pool[1]
    futs = []
    try:
        for i, m in enumerate(sizes):
            futs.append(ex.submit(worker, i, m))
        return [f.result() for f in futs]
    except BrokenProcessPool:
        shutdown_pool()
        raise
    except BaseException:
        for f in futs:
            f.cancel()
        raise


# Batch jobs: module-level functions bound with functools.partial, so that
# they pickle for the worker pool; each builds the Philox stream of its batch.


def _survival_counts(domain, params, x, t_grid, h, thin, seed, index, m):
    """Walks still inside at each horizon of t_grid, for batch ``index``."""
    tau, _, _ = _walk_batch(
        domain, params, x, h, max(t_grid), _stream(seed, index), m, thin=thin
    )
    return np.array([(tau > t).sum() for t in t_grid], dtype=np.int64)


def survival_curve(
    domain: dom.Domain,
    params: StableParams,
    x,
    t_grid,
    n: int,
    h: float,
    rng_seed: int,
    workers: int = 1,
    thin: Optional[float] = None,
) -> list:
    """Survival estimates at several horizons from one set of paths."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not dom.contains(domain, xa):
        raise ValueError("start point must lie in the domain")
    t_grid = tuple(float(t) for t in t_grid)
    for t in t_grid:
        if t <= 0 or h > t:
            raise ValueError("horizons must be positive and at least one step long")
        if abs(round(t / h) * h - t) > 1e-9 * max(t, 1.0):
            raise ValueError("each horizon must be an integer multiple of the step")
    t0 = time.perf_counter()
    job = partial(_survival_counts, domain, params, xa, t_grid, h, thin, rng_seed)
    parts = _run_batches(n, job, workers)
    counts = np.sum(parts, axis=0)
    wall = time.perf_counter() - t0
    out = []
    for t, c in zip(t_grid, counts):
        p = c / n
        se = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
        out.append(MCEstimate(p, se, n, rng_seed, h, wall))
    return out


def _kernel_sums(domain, params, x, y_list, t_grid, h, seed, index, m):
    """Sums of p(t - tau, X_tau, y) and of its square over the walks killed
    before t, per (t, y), for batch ``index``."""
    tau, pos, _ = _walk_batch(domain, params, x, h, max(t_grid), _stream(seed, index), m)
    s1 = np.zeros((len(t_grid), len(y_list)))
    s2 = np.zeros((len(t_grid), len(y_list)))
    for j, y in enumerate(y_list):
        dist = np.linalg.norm(pos - np.asarray(y), axis=1)
        for i, t in enumerate(t_grid):
            sel = tau < t
            if sel.any():
                vals = free_density_radial(params, t - tau[sel], dist[sel])
                s1[i, j] = vals.sum()
                s2[i, j] = (vals * vals).sum()
    return s1, s2


def heat_kernel_grid(
    domain, params, x, y_list, t_grid, n: int, h: float, rng_seed: int, workers: int = 1
):
    """Killed-kernel estimates for all (t, y) pairs from one path batch.

    Uses the defining subtraction p_D = p - E[tau < t; p(t - tau, X_tau, y)];
    returns a dict {(t, y-index): MCEstimate}.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not dom.contains(domain, xa):
        raise ValueError("start point must lie in the domain")
    y_list = tuple(tuple(np.atleast_1d(np.asarray(y, dtype=float))) for y in y_list)
    t_grid = tuple(float(t) for t in t_grid)
    t0 = time.perf_counter()
    job = partial(_kernel_sums, domain, params, xa, y_list, t_grid, h, rng_seed)
    parts = _run_batches(n, job, workers)
    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    wall = time.perf_counter() - t0
    out = {}
    for i, t in enumerate(t_grid):
        for j, y in enumerate(y_list):
            p_free = free_density(params, t, xa, np.asarray(y)).value
            mean_k = s1[i, j] / n
            var_k = max(s2[i, j] / n - mean_k ** 2, 0.0)
            est = p_free - mean_k
            se = math.sqrt(var_k / n)
            out[(t, j)] = MCEstimate(est, se, n, rng_seed, h, wall)
    return out


def estimate_heat_kernel(
    domain,
    params,
    x,
    y,
    t: float,
    n: int,
    h: float,
    rng_seed: int,
    workers: int = 1,
) -> MCEstimate:
    """Killed transition density p_D(t, x, y) by Monte Carlo.

    Uses the exit-debit formula of ``heat_kernel_grid``.  A mean below -3
    stderr raises a diagnostic: the estimator can go negative only by
    noise.
    """
    est = heat_kernel_grid(domain, params, x, (y,), (t,), n, h, rng_seed, workers)[(t, 0)]
    if est.mean < -3.0 * est.stderr:
        raise EstimateDiagnostic(f"killed-kernel estimate {est.mean:.3g} is below -3 stderr")
    return est


# ---------------------------------------------------------------------------
# exponent extraction


def _wls_line(tvals: np.ndarray, logp: np.ndarray, var_logp: np.ndarray):
    """Weighted least-squares slope of logp against tvals."""
    w = 1.0 / np.maximum(var_logp, 1e-12)
    W = w.sum()
    tbar = (w * tvals).sum() / W
    ybar = (w * logp).sum() / W
    sxx = (w * (tvals - tbar) ** 2).sum()
    slope = (w * (tvals - tbar) * (logp - ybar)).sum() / sxx
    return slope, math.sqrt(1.0 / sxx)


def _fit_exponent(curve, tvals, transform):
    """Slope of log survival against transform(t) with delta-method errors."""
    ts, lp, vr = [], [], []
    for t, est in zip(tvals, curve):
        if est.mean <= 0:
            continue
        ts.append(transform(t))
        lp.append(math.log(est.mean))
        vr.append((est.stderr / est.mean) ** 2)
    if len(ts) < 3:
        raise FitError("too few usable points for an exponent fit")
    return _wls_line(np.array(ts), np.array(lp), np.array(vr))


def _window_grid(fit_window, h: float, n_t: int) -> np.ndarray:
    t1, t2 = fit_window
    tvals = np.geomspace(t1, t2, n_t)
    return np.unique(np.array([max(round(t / h), 1) * h for t in tvals]))


def estimate_lambda1(
    params: StableParams,
    radius: float,
    fit_window=None,
    n: int = 100_000,
    h: float = 1.0 / 32,
    rng_seed: int = 1,
    n_t: int = 9,
    workers: int = 1,
) -> MCEstimate:
    """Long-time decay rate of survival in a ball, scaled by r^alpha.

    Fits log P(tau > t) ~ const - lambda1 t / r^alpha over a log-spaced
    window (default [r^alpha, 3 r^alpha]: late enough that the spatial
    prefactor is flat, early enough that survivors remain; the survival
    is exponentially small past a few multiples of r^alpha).  Two
    disjoint half-windows must give slopes agreeing within 3 combined
    stderr, else the fit fails.
    """
    ra = radius ** params.alpha
    if fit_window is None:
        fit_window = (ra, 3.0 * ra)
    t1, t2 = fit_window
    if t1 < ra:
        raise ValueError("fit window must start at or after r^alpha")
    tvals = _window_grid(fit_window, h, n_t)
    ball = dom.Ball((0.0,) * params.d, radius)
    curve = survival_curve(
        ball, params, (0.0,) * params.d, tuple(tvals), n, h, rng_seed, workers
    )
    slope, se = _fit_exponent(curve, tvals, lambda t: t)
    lam, lam_se = -slope * ra, se * ra
    if lam <= 0:
        raise FitError(f"non-positive decay-rate estimate {lam:.3g}")
    half = len(tvals) // 2
    s_a, se_a = _fit_exponent(curve[:half], tvals[:half], lambda t: t)
    s_b, se_b = _fit_exponent(curve[half:], tvals[half:], lambda t: t)
    if abs(s_a - s_b) > 3.0 * math.hypot(se_a, se_b):
        raise FitError("disjoint fit windows disagree beyond 3 combined stderr")
    return MCEstimate(lam, lam_se, n, rng_seed, h, curve[0].wall_time)


def estimate_beta(
    params: StableParams,
    cone: dom.Domain,
    x,
    fit_window=(4.0, 64.0),
    n: int = 100_000,
    h: float = 1.0 / 16,
    rng_seed: int = 1,
    n_t: int = 9,
    workers: int = 1,
    thin: Optional[float] = None,
) -> MCEstimate:
    """Cone exponent from the long-time survival decay t^{-beta/alpha}.

    Works for any dilation-invariant catalog domain (circular cones and
    the hyperplane complement; for the latter pick the slab half-width
    ``thin`` a few times larger than the step scale h^{1/alpha}, or the
    walk never registers the kill).  The report is clamped with a
    diagnostic when the fit leaves [0, alpha).
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not dom.contains(cone, xa) or dom.dist_to_complement(cone, xa) <= 0:
        raise ValueError("probe point must lie strictly inside the cone")
    tvals = _window_grid(fit_window, h, n_t)
    curve = survival_curve(cone, params, xa, tuple(tvals), n, h, rng_seed, workers, thin=thin)
    slope, se = _fit_exponent(curve, tvals, math.log)
    beta = -params.alpha * slope
    beta_se = params.alpha * se
    if not (0.0 <= beta < params.alpha):
        warnings.warn(
            f"estimated cone exponent {beta:.3g} leaves [0, alpha); clamped",
            RuntimeWarning,
        )
        beta = min(max(beta, 0.0), params.alpha * (1 - 1e-9))
    return MCEstimate(beta, beta_se, n, rng_seed, h, curve[0].wall_time)


# ---------------------------------------------------------------------------
# boundary-Harnack cross ratio


def _wos_counts(domain, params, x, targets, seed, index, m):
    """Exit positions landing in each target region, for batch ``index``."""
    pos, _ = sample_exit_positions_wos(domain, params, x, _stream(seed, index), m)
    return np.array([int(np.sum(t.contains_many(pos))) for t in targets])


def bhp_cross_ratio(
    params: StableParams,
    u_domain: dom.Domain,
    x1,
    x2,
    target1,
    target2,
    n: int,
    rng_seed: int,
    workers: int = 1,
) -> MCEstimate:
    """Exit-law cross ratio [P1(T1) P2(T2)] / [P1(T2) P2(T1)].

    Estimated from exact walk-on-spheres exit positions (no time
    discretization).  Targets are region objects with a vectorized
    ``contains_many``.  Degenerate configurations (x1 = x2 or T1 = T2)
    give exactly 1.  The stderr uses the delta method on log counts.
    """
    x1a = np.atleast_1d(np.asarray(x1, dtype=float))
    x2a = np.atleast_1d(np.asarray(x2, dtype=float))
    if np.array_equal(x1a, x2a) or target1 == target2:
        return MCEstimate(1.0, 0.0, n, rng_seed, 0.0)
    t0 = time.perf_counter()
    counts = []
    for i, xs in enumerate((x1a, x2a)):
        job = partial(_wos_counts, u_domain, params, xs, (target1, target2), rng_seed + i)
        parts = _run_batches(n, job, workers)
        counts.append(np.sum(parts, axis=0))
    wall = time.perf_counter() - t0
    c11, c12 = counts[0]
    c21, c22 = counts[1]
    if min(c11, c12, c21, c22) == 0:
        raise EstimateDiagnostic(
            "zero exit counts in a cross-ratio cell; increase n to at least "
            f"{10 * n} or enlarge the targets"
        )
    ratio = (c11 * c22) / (c12 * c21)
    var_log = sum((1.0 - c / n) / c for c in (c11, c12, c21, c22))
    return MCEstimate(float(ratio), float(ratio * math.sqrt(var_log)), n, rng_seed, 0.0, wall)


@dataclass(frozen=True)
class IntervalRegion:
    a: float
    b: float

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return (pts[:, 0] >= self.a) & (pts[:, 0] <= self.b)


@dataclass(frozen=True)
class BallRegion:
    center: tuple
    radius: float

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center)
        return np.sum((pts - c) ** 2, axis=1) <= self.radius ** 2


@dataclass(frozen=True)
class BoxRegion:
    lo: tuple
    hi: tuple

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts <= hi), axis=1)
