"""Samplers and estimators for the killed isotropic stable process.

Increments are exact, with characteristic function exp(-dt |xi|^alpha).
In d = 1 they are drawn directly by the Chambers-Mallows-Stuck formula,
from one uniform and, unless alpha = 1, one exponential; the half-space
supremum takes the same draw.  In d >= 2 they are a centered Gaussian
evaluated at an independent one-sided stable time, which is drawn by
Kanter's trigonometric method, except at alpha = 1, where it is the Levy
law 1/(2 Z^2) of one standard normal Z and the increment is the Cauchy
law dt N/|Z|.
Exit positions from a ball started at its center are exact: the radial
law reduces to a Beta(alpha/2, 1 - alpha/2) variable B, whose inverse 1/B
is drawn by Johnk's rejection on whole arrays of uniform pairs.  The
direction is uniform; in d = 2 it is the stereographic point
((1 - c^2), 2c)/(1 + c^2) of one Cauchy draw c = tan(pi (U - 1/2)),
whose angle 2 arctan c is uniform on (-pi, pi), so it takes one uniform
where two normals were drawn.  Exit positions from any other start point
in a ball, and from any other catalog domain with a complement of
positive measure, are exact by walk-on-spheres, a composition of these
center draws: each live walker jumps to the exact exit point of its
largest inscribed ball, a point is in the domain when its distance to
the complement is positive (a non-positive or NaN distance is an exit),
and one distance evaluation per jump serves both as the exit test and as
the next radii.
Both walks keep their live walkers contiguous and in path order: each
step turns its exit mask into index lists of the walkers that stay and
of those that leave, gathers the first with ``take`` and scatters the
second to the outputs, so a walk costs nothing for the walkers that have
left.  Exit times from a half-space are exact too: they depend only on
the supremum of a 1-D stable process, which stick-breaking samples
without a time grid.  A walker at height delta survives to t iff that
supremum stays below delta t^{-1/alpha}, and a path stops breaking
sticks once its partial sum reaches the largest of these levels: each
stick adds a nonnegative term and a float sum of nonnegative terms never
falls, so the path is dead at every horizon whatever the rest would add.
The stopped paths leave the batch as walkers leave the walks.  Exit
times from every other domain are simulated on a time grid with a
one-sided bias, so callers compare runs at h and h/2.  The bias is not
O(h): for E^0 tau on the unit ball (d = 1, alpha = 1.5) it fell by a
factor 0.63-0.69 per halving of h, which is the order h^{1/alpha}.

Reproducibility: paths are organized in fixed-size batches; batch i uses
a counter-based Philox stream keyed by (seed, i), and partial results are
merged in batch order.  Results are therefore bit-identical for any
worker count.  A sweep submits the batches of all its estimates in one
call, so that no estimate waits for the slowest batch of another before
its own start, and each pooled call runs on a process pool of its own,
stopped before the call returns.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import pi
from typing import Optional

import numpy as np

# numpy loads numpy.random on first use, and np.unique and np.quantile
# import numpy.ma (about 10 and 15 ms): import both with the package, not
# inside the first estimate
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from . import domains as dom
from .errors import EstimateDiagnostic, FitError, UnsupportedRegimeError
from .stable import StableParams, free_density, free_density_radial

BATCH = 8192

#: sticks in the stick-breaking supremum; the time they leave uncovered
#: has mean 2^-64
STICKS = 64

#: log-spaced horizons of an exponent fit window (before rounding to the step)
FIT_POINTS = 9

#: default fit windows: for lambda1 in units of r^alpha, for beta in time
LAMBDA1_FIT_WINDOW = (1.0, 3.0)
BETA_FIT_WINDOW = (4.0, 64.0)

#: walk-on-spheres iterations after which the walk stops with an error
#: (a degenerate domain/point configuration)
WOS_MAX_STEPS = 1_000_000

#: the most steps h a grid walk may be asked for; a longer horizon is rejected
WALK_MAX_STEPS = 1_000_000

#: half-width of the slab used to stand in for a measure-zero boundary
#: ({x_d = 0} is invisible to a discrete walk; the thickened domain has
#: the same decay exponents)
THIN_BOUNDARY_HALF_WIDTH = 0.02


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo result with provenance.  ``wall_time`` is the wall time of
    the one ``_run_batches`` call that made the estimate, shared by every
    estimate of that call (a sweep makes all of its estimates in one call)."""

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
    """Positive stable draws with Laplace transform exp(-lambda^rho), rho in (0,1).

    At rho = 1/2 this is the Levy law, drawn in closed form as 1/(2 Z^2)
    from one standard normal Z; every other rho uses Kanter's
    trigonometric method.  Z^2 is clamped at 1e-300, as Kanter's u and e
    are clamped, so that Z = 0 gives a large finite time.
    """
    if rho == 0.5:
        return 0.5 / np.maximum(np.square(rng.standard_normal(n)), 1e-300)
    u = np.clip(rng.random(n), 1e-16, 1.0 - 1e-16)
    e = np.maximum(rng.standard_exponential(n), 1e-300)
    th = u * pi
    ln_a = (
        rho * np.log(np.sin(rho * th))
        + (1.0 - rho) * np.log(np.sin((1.0 - rho) * th))
        - np.log(np.sin(th))
    ) / (1.0 - rho)
    return np.exp((1.0 - rho) / rho * (ln_a - np.log(e)))


def _symmetric_stable(alpha: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """n unit 1-D stable draws, characteristic function exp(-|xi|^alpha).

    Chambers, Mallows & Stuck (J. Amer. Statist. Assoc. 71 (1976)): with
    V = pi (U - 1/2) and W ~ Exp(1),

        Z = sin(alpha V) / cos(V)^{1/alpha} (cos((1 - alpha) V) / W)^{(1 - alpha)/alpha},

    which is tan V at alpha = 1, where no W is drawn.  The two powers are
    taken as one exp of a sum of logs, so no factor overflows on its own.
    cos V >= 6e-17 for every double U, so a draw is infinite only for
    W = 0 at alpha < 1, or for alpha below about 0.05 at the ends of [0, 1).
    """
    v = rng.random(n)
    v -= 0.5
    v *= pi
    if alpha == 1.0:
        return np.tan(v, out=v)
    w = rng.standard_exponential(n)
    c = np.multiply(v, 1.0 - alpha)
    np.cos(c, out=c)
    c /= w
    np.log(c, out=c)
    c *= 1.0 - alpha
    np.cos(v, out=w)
    np.log(w, out=w)
    c -= w
    c /= alpha
    np.exp(c, out=c)
    v *= alpha
    np.sin(v, out=v)
    v *= c
    return v


def sample_stable_increments(
    params: StableParams, dt: float, rng: np.random.Generator, n: int
) -> np.ndarray:
    """n exact increments over time dt, shape (n, d).

    In d = 1, dt^{1/alpha} Z with Z from ``_symmetric_stable``.  In d >= 2,
    a Gaussian vector with per-coordinate variance 2S, where S is a
    one-sided alpha/2-stable time with Laplace transform exp(-dt l^{a/2});
    subordination makes the characteristic function exp(-dt |xi|^alpha).
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"time step must be positive and finite, got {dt!r}")
    if params.d == 1:
        z = _symmetric_stable(params.alpha, rng, n)
        z *= dt ** (1.0 / params.alpha)
        return z[:, None]
    s = dt ** (2.0 / params.alpha) * _one_sided_stable(params.alpha / 2.0, rng, n)
    z = rng.standard_normal((n, params.d))
    return np.sqrt(2.0 * s)[:, None] * z


def _inverse_beta(a: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """n exact draws of 1/B with B ~ Beta(a, 1 - a), 0 < a < 1.

    Johnk's rejection (Metrika 8 (1964)): for X = U^{1/a} and
    Y = V^{1/(1-a)}, X/(X + Y) given X + Y <= 1 is Beta(a, 1 - a), so
    1/B = (X + Y)/X.  The acceptance is Gamma(1 + a) Gamma(2 - a) =
    a (1 - a) pi / sin(pi a) >= pi/4, so each round draws
    need/acceptance + 3 sqrt(need) pairs at once, keeps the accepted ones
    in draw order and tops up only when it falls short.  A pair with X = 0
    (U = 0, or U^{1/a} below the float range) is rejected too, so
    U = V = 0 never gives 0/0.
    """
    accept = a * (1.0 - a) * pi / math.sin(pi * a)
    draws = np.empty(0)
    while draws.size < n:
        need = n - draws.size
        m = int(need / accept + 3.0 * math.sqrt(need)) + 1
        x, s = rng.random((2, m))
        x **= 1.0 / a
        s **= 1.0 / (1.0 - a)
        s += x
        keep = s <= 1.0
        keep &= x > 0.0
        s = s[keep][:need]
        s /= x[keep][:need]
        draws = np.concatenate((draws, s)) if draws.size else s
    return draws


def _jump(params: StableParams, p, radius, rng: np.random.Generator, n: int) -> np.ndarray:
    """Exact exit positions from balls of the given radii centred at p
    (one point, or one row per draw), for walkers starting at the centres.

    The radial law is |Y - c| = r / sqrt(B) with B ~ Beta(a/2, 1 - a/2)
    (inverting the radial variable of the exit density), and 1/B comes
    from ``_inverse_beta``'s vectorized Johnk rejection, so no division
    by B is needed; the direction is uniform by isotropy.  In d = 1 it is
    a random sign, and in d >= 3 a normalized standard normal vector.  In
    d = 2 it is the stereographic point ((1 - c^2), 2c) / (1 + c^2) of
    one Cauchy draw c = tan(pi (U - 1/2)): that point is at angle
    2 arctan c = 2 pi (U - 1/2), which is uniform on (-pi, pi).  Even the
    ends of U, c = -1.6e16 and 2e15, give finite points of unit norm.
    The radius is folded into the factor 1/(1 + c^2), so the d = 2 draw
    needs no array besides c, the radii and the output.  The jump-size
    clamp guards float overflow on astronomically long excursions
    (critical recurrent case); bounded targets are unaffected.
    """
    a, d = params.alpha, params.d
    rad = np.sqrt(_inverse_beta(a / 2.0, rng, n))
    rad *= radius
    np.minimum(rad, 1e150, out=rad)
    if d == 1:
        sgn = rng.integers(0, 2, n) * 2.0 - 1.0
        return p + (rad * sgn)[:, None]
    if d == 2:
        c = _symmetric_stable(1.0, rng, n)
        z = np.empty((n, 2))
        cos, sin = z[:, 0], z[:, 1]
        np.multiply(c, c, out=cos)
        np.add(cos, 1.0, out=sin)
        rad /= sin
        np.subtract(1.0, cos, out=cos)
        cos *= rad
        np.multiply(c, rad, out=sin)
        sin *= 2.0
        z += p
        return z
    z = rng.standard_normal((n, d))
    q = z[:, 0] * z[:, 0]
    for j in range(1, d):
        q += z[:, j] * z[:, j]
    z /= np.sqrt(q, out=q)[:, None]
    z *= rad[:, None]
    z += p
    return z


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
    draw is a walk-on-spheres in the ball, composed of center draws from
    inscribed balls, which is exact by the strong Markov property.
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
    return sample_exit_positions_wos(dom.Ball(tuple(c), radius), params, xa, rng, n)[0]


def sample_exit_positions_wos(
    domain: dom.Domain, params: StableParams, x, rng: np.random.Generator, n: int
):
    """n exact draws of the exit position from a catalog domain by
    walk-on-spheres: repeated exact ball exits from inscribed balls until
    the walker jumps out of the domain.  Returns (positions, steps), where
    steps[i] is the jump at which walker i left.

    A point belongs to the domain when its distance to the complement is
    positive, so every ball has a positive radius, and a landing at a
    non-positive or NaN distance is an exit.  The live walkers are kept
    contiguous and in ascending path order, and one ``dom.dist_many`` call
    per jump gives both the exit test and the next radii.  A jump that
    loses walkers turns the test into index lists of those that stay and
    those that leave; the leavers are scattered to the outputs and the
    stayers gathered with ``take``.  Exact in law because each ball
    exit is exact and exits occur by jumps.  Not applicable to domains
    whose complement has measure zero (the walk would never terminate).
    """
    if isinstance(domain, dom.HyperplaneComplement):
        raise UnsupportedRegimeError(
            "walk-on-spheres cannot terminate on a measure-zero boundary"
        )
    if dom.dim(domain) != params.d:
        raise ValueError(f"domain has dimension {dom.dim(domain)}, but d = {params.d}")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not dom.dist_to_complement(domain, xa) > 0:
        raise ValueError("start point must lie in the domain")
    pos = np.empty((n, params.d))
    steps = np.empty(n, dtype=np.int64)
    # the live walkers, contiguous and in ascending path order, their
    # positions and their distances to the complement
    idx = np.arange(n)
    live = np.tile(xa, (n, 1))
    radii = dom.dist_many(domain, live)
    it = 0
    while idx.size:
        it += 1
        if it > WOS_MAX_STEPS:
            raise RuntimeError(
                f"walk-on-spheres exceeded {WOS_MAX_STEPS} steps; degenerate "
                "domain/point configuration"
            )
        live = _jump(params, live, radii, rng, idx.size)
        radii = dom.dist_many(domain, live)
        inside = radii > 0
        if not inside.all():
            keep, gone = np.flatnonzero(inside), np.flatnonzero(~inside)
            left = idx.take(gone)
            pos[left] = live.take(gone, axis=0)
            steps[left] = it
            idx, live, radii = idx.take(keep), live.take(keep, axis=0), radii.take(keep)
    return pos, steps


# ---------------------------------------------------------------------------
# grid-walk exit simulation


def _thin_width(thin: Optional[float]) -> float:
    """The slab half-width that kills on a hyperplane complement: ``thin``,
    positive and finite, or the default."""
    if thin is None:
        return THIN_BOUNDARY_HALF_WIDTH
    if not 0 < thin < math.inf:
        raise ValueError(f"thin must be positive and finite, got {thin!r}")
    return thin


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
    module docstring); censored walks carry tau = inf.  The live walkers
    are kept contiguous and in ascending path order: a step that loses
    walkers turns its exit mask into index lists of those that stay and
    those that leave, scatters the leavers to tau and the end positions
    and gathers the stayers with ``take``.  The horizon must be a whole
    number of steps, at most ``WALK_MAX_STEPS``, which the estimators
    check with ``_check_horizons`` and ``_check_step_budget``.
    """
    nsteps = int(round(horizon / h))
    thin = _thin_width(thin)
    pos = np.tile(x0, (m, 1))
    tau = np.full(m, np.inf)
    # the live walkers, contiguous and in ascending path order, and their paths
    idx = np.arange(m)
    live = pos.copy()
    slab = isinstance(domain, dom.HyperplaneComplement)
    for k in range(1, nsteps + 1):
        if idx.size == 0:
            break
        live += sample_stable_increments(params, h, rng, idx.size)
        if slab:
            out = np.abs(live[:, -1]) <= thin
        else:
            out = ~dom.contains_many(domain, live)
        if out.any():
            keep, gone = np.flatnonzero(~out), np.flatnonzero(out)
            left = idx.take(gone)
            tau[left] = k * h
            pos[left] = live.take(gone, axis=0)
            idx, live = idx.take(keep), live.take(keep, axis=0)
    pos[idx] = live
    return tau, pos, ~np.isfinite(tau)


# ---------------------------------------------------------------------------
# batch scheduling


def _run_batches(jobs, workers: int = 1):
    """Run every job of ``jobs``, a list of ``(n, worker)`` pairs: split each
    job's n paths into fixed batches, run ``worker(batch_index, m)`` on each
    and return, per job, the list of its batch results in batch order.

    Every path count is checked before any batch runs.  With more than one
    worker, the batches run on a process pool of that many workers that
    this call starts and stops, and all the batches of all the jobs are
    submitted before any result is gathered, so no job waits for the
    slowest batch of the one before.  With one worker the same batches run
    in the same order in this process, and every result is bit-identical
    for any worker count.  If a batch raises, the batches not yet started
    are cancelled and the error propagates.
    """
    for n, _ in jobs:
        if n < 1:
            raise ValueError(f"path count must be positive, got {n}")
    batches = [[(worker, i, min(BATCH, n - start)) for i, start in enumerate(range(0, n, BATCH))]
               for n, worker in jobs]
    if workers <= 1 or not batches:
        return [[worker(i, m) for worker, i, m in job] for job in batches]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        try:
            futs = [ex.submit(*batch) for job in batches for batch in job]
            results = iter([f.result() for f in futs])
        except BaseException:
            ex.shutdown(cancel_futures=True)
            raise
    return [[next(results) for _ in job] for job in batches]


def _run_jobs(built, workers: int = 1) -> list:
    """Run the ``(jobs, finish)`` pairs of ``built`` in one ``_run_batches``
    call and return what each ``finish(parts, wall)`` makes of them, in
    order: ``jobs`` is a list of ``(n, worker)`` jobs, ``parts`` holds one
    list of batch results per job, and ``wall`` is the wall time of the
    call, the pool's start and stop included."""
    t0 = time.perf_counter()
    parts = iter(_run_batches([job for jobs, _ in built for job in jobs], workers))
    wall = time.perf_counter() - t0
    return [finish([next(parts) for _ in jobs], wall) for jobs, finish in built]


# Batch jobs: module-level functions bound with functools.partial, so that
# they pickle for the worker pool; each builds the Philox stream of its batch.


def _check_horizons(t_grid, h: float) -> None:
    """Reject a horizon that is not a positive whole number of steps h: one
    with no finite step count (infinite, NaN, or so many steps that the
    count overflows), one shorter than a step, or one off the step grid."""
    for t in t_grid:
        if not math.isfinite(t / h):
            raise ValueError(f"horizon {t!r} is not a finite number of steps of {h!r}")
        if t <= 0 or h > t:
            raise ValueError("horizons must be positive and at least one step long")
        if abs(round(t / h) * h - t) > 1e-9 * max(t, 1.0):
            raise ValueError("each horizon must be an integer multiple of the step")


def _check_step_budget(t_grid, h: float) -> None:
    """Reject horizons that would walk more than ``WALK_MAX_STEPS`` steps h
    on the grid; check ``_check_horizons`` first."""
    steps = round(max(t_grid) / h)
    if steps > WALK_MAX_STEPS:
        raise ValueError(
            f"horizon {max(t_grid)!r} is {steps:.3g} steps of {h!r}; a grid walk "
            f"takes at most {WALK_MAX_STEPS} steps"
        )


def _survival_counts(domain, params, x, t_grid, h, thin, seed, index, m):
    """Walks still inside at each horizon of t_grid, for batch ``index``."""
    tau, _, _ = _walk_batch(
        domain, params, x, h, max(t_grid), _stream(seed, index), m, thin=thin
    )
    return np.array([(tau > t).sum() for t in t_grid], dtype=np.int64)


def _sample_supremum(
    alpha: float, rng: np.random.Generator, n: int, stop: float = math.inf
) -> np.ndarray:
    """n exact draws of S_1, the supremum over [0, 1] of a 1-D stable
    process with characteristic function exp(-t |xi|^alpha).

    S_1 = sum_k l_k^{1/alpha} max(Z_k, 0) over a uniform stick-breaking l
    of [0, 1] with independent unit stable Z_k (Pitman & Uribe Bravo, Ann.
    Probab. 40 (2012); Gonzalez Cazares, Mijatovic & Uribe Bravo, Adv.
    Appl. Probab. 51 (2019)).  Each stick draws the sign of Z_k first and
    a magnitude only for a positive face, which is exact by symmetry; Z_k
    is the 1-D draw of ``sample_stable_increments``, by ``_symmetric_stable``.

    A path whose partial sum reaches a finite ``stop`` leaves the draw and
    returns that partial sum, a value at or above ``stop`` but not S_1:
    every term is nonnegative and a float sum of nonnegative terms never
    falls, so S_1 >= stop too and no indicator S_1 < b with b <= stop can
    change.  The live paths are kept contiguous and in path order, as in
    ``_walk_batch``, and each stick draws only for them.  With no stop
    (the default) every path draws all ``STICKS`` sticks.
    """
    out = np.empty(n)
    # the live paths, contiguous and in path order, with their partial sums
    idx = np.arange(n)
    sup = np.zeros(n)
    rest = np.ones(n)
    for _ in range(STICKS):
        m = idx.size
        if m == 0:
            break
        stick = rest * rng.random(m)
        rest -= stick
        up = np.flatnonzero(rng.random(m) < 0.5)
        z = _symmetric_stable(alpha, rng, up.size)
        sup[up] += stick[up] ** (1.0 / alpha) * np.abs(z)
        if stop < math.inf:
            done = sup >= stop
            if done.any():
                keep, gone = np.flatnonzero(~done), np.flatnonzero(done)
                out[idx.take(gone)] = sup.take(gone)
                idx, sup, rest = idx.take(keep), sup.take(keep), rest.take(keep)
    out[idx] = sup
    return out


def _survival_level(delta: float, t: float, alpha: float) -> float:
    """delta t^{-1/alpha}, the level below which S_1 keeps a walker at
    height delta alive to t; inf where the power overflows a float."""
    try:
        return delta * t ** (-1.0 / alpha)
    except OverflowError:
        return math.inf


def _supremum_counts(alpha, delta, t_grid, seed, index, m):
    """Half-space survivors at each horizon of t_grid, for batch ``index``.

    A walker at height delta survives to t iff <X, n> stays above the
    boundary, that is iff S_1 < delta t^{-1/alpha} by self-similarity.
    The largest of these levels is the supremum's stop level: a path that
    reaches it is dead at every horizon.
    """
    levels = [_survival_level(delta, t, alpha) for t in t_grid]
    sup = _sample_supremum(alpha, _stream(seed, index), m, stop=max(levels))
    return np.array([(sup < b).sum() for b in levels], dtype=np.int64)


def _start_point(domain, x) -> np.ndarray:
    """``x`` as an array, checked to have finite coordinates and to lie in ``domain``."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xa)):
        raise ValueError(f"start point must have finite coordinates, got {xa.tolist()}")
    if not dom.contains(domain, xa):
        raise ValueError("start point must lie in the domain")
    return xa


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
    """Survival estimates at several horizons from one set of paths.

    On a half-space (``HalfSpace``, or ``CircularCone`` with angle pi/2)
    the estimates are exact in law: they come from stick-broken suprema,
    use no time grid and carry step 0.  A supremum stops breaking sticks
    once its partial sum reaches the largest survival level delta
    t^{-1/alpha} of the horizons: the sticks left can only raise it, so
    the path is dead at every horizon.  A level whose power overflows is
    infinite, so at such a horizon every path survives.  On every other
    domain the estimates come from grid walks with step h, at most
    ``WALK_MAX_STEPS`` steps long.  Horizons must be whole multiples of h
    either way, and the start point must have finite coordinates.  ``thin``
    applies only to a ``HyperplaneComplement``.
    """
    (out,) = _run_jobs([_survival_job(domain, params, x, t_grid, n, h, rng_seed, thin)], workers)
    return out


def _survival_job(domain, params, x, t_grid, n, h, rng_seed, thin=None) -> tuple:
    """Check the inputs of ``survival_curve`` and return its one-job list
    and its finisher for ``_run_jobs``, which turns the job's batch results
    into the list of estimates."""
    xa = _start_point(domain, x)
    t_grid = tuple(float(t) for t in t_grid)
    _check_horizons(t_grid, h)
    if thin is not None and not isinstance(domain, dom.HyperplaneComplement):
        raise ValueError(f"thin applies only to a hyperplane complement, not to "
                         f"{type(domain).__name__}")
    _thin_width(thin)
    if dom.is_half_space(domain):
        delta = dom.dist_to_complement(domain, xa)
        worker = partial(_supremum_counts, params.alpha, delta, t_grid, rng_seed)
        step = 0.0
    else:
        _check_step_budget(t_grid, h)
        worker = partial(_survival_counts, domain, params, xa, t_grid, h, thin, rng_seed)
        step = h
    return [(n, worker)], partial(_survival_estimates, t_grid, n, rng_seed, step)


def _survival_estimates(t_grid, n, rng_seed, step, parts, wall) -> list:
    counts = np.sum(parts[0], axis=0)
    out = []
    for t, c in zip(t_grid, counts):
        p = c / n
        se = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
        out.append(MCEstimate(p, se, n, rng_seed, step, wall))
    return out


def _kernel_sums(domain, params, x, y_list, t_grid, h, seed, index, m):
    """Sums of p(t - tau, X_tau, y) and of its square over the walks killed
    before t, per (t, y), for batch ``index``.

    One table evaluation serves the whole batch: the (t - tau, |X_tau - y|)
    pairs of every cell are evaluated in one array, and each cell sums its
    own slice.  The density is computed element by element, so every value
    is the one a call per cell would give.
    """
    tau, pos, _ = _walk_batch(domain, params, x, h, max(t_grid), _stream(seed, index), m)
    s1 = np.zeros((len(t_grid), len(y_list)))
    s2 = np.zeros((len(t_grid), len(y_list)))
    dists = [np.linalg.norm(pos - np.asarray(y), axis=1) for y in y_list]
    cells, ages, radii = [], [], []
    for i, t in enumerate(t_grid):
        sel = tau < t
        if sel.any():
            age = t - tau[sel]
            for j, dist in enumerate(dists):
                cells.append((i, j))
                ages.append(age)
                radii.append(dist[sel])
    if cells:
        vals = free_density_radial(params, np.concatenate(ages), np.concatenate(radii))
        ends = np.cumsum([a.size for a in ages])
        for (i, j), v in zip(cells, np.split(vals, ends[:-1])):
            s1[i, j] = v.sum()
            s2[i, j] = (v * v).sum()
    return s1, s2


def heat_kernel_grid(
    domain, params, x, y_list, t_grid, n: int, h: float, rng_seed: int, workers: int = 1
):
    """Killed-kernel estimates for all (t, y) pairs from one path batch.

    Uses the defining subtraction p_D = p - E[tau < t; p(t - tau, X_tau, y)];
    returns a dict {(t, y-index): MCEstimate}.  x must be finite, and each y a finite point of R^d.
    """
    (out,) = _run_jobs([_kernel_job(domain, params, x, y_list, t_grid, n, h, rng_seed)], workers)
    return out


def _kernel_job(domain, params, x, y_list, t_grid, n, h, rng_seed) -> tuple:
    """Check the inputs of ``heat_kernel_grid`` and return its one-job list
    and its finisher for ``_run_jobs``, which turns the job's batch results
    into the dict of estimates."""
    xa = _start_point(domain, x)
    y_list = tuple(tuple(np.atleast_1d(np.asarray(y, dtype=float))) for y in y_list)
    bad = [list(map(float, y)) for y in y_list if len(y) != params.d or not np.isfinite(y).all()]
    if bad:
        raise ValueError(f"end point must have {params.d} finite coordinates (d), got {bad[0]}")
    t_grid = tuple(float(t) for t in t_grid)
    _check_horizons(t_grid, h)
    _check_step_budget(t_grid, h)
    worker = partial(_kernel_sums, domain, params, xa, y_list, t_grid, h, rng_seed)
    return [(n, worker)], partial(_kernel_estimates, params, xa, y_list, t_grid, n, h, rng_seed)


def _kernel_estimates(params, xa, y_list, t_grid, n, h, rng_seed, parts, wall) -> dict:
    s1 = sum(p[0] for p in parts[0])
    s2 = sum(p[1] for p in parts[0])
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


def _window_grid(fit_window, h: float) -> np.ndarray:
    t1, t2 = fit_window
    if not 0 < t1 < t2 < math.inf:
        raise ValueError(f"fit window must be finite with 0 < t1 < t2, got {fit_window!r}")
    if not math.isfinite(t2 / h):
        raise ValueError(f"fit window end {t2!r} is not a finite number of steps of {h!r}")
    tvals = np.geomspace(t1, t2, FIT_POINTS)
    return np.unique(np.array([max(round(t / h), 1) * h for t in tvals]))


def estimate_lambda1(
    params: StableParams,
    radius: float,
    fit_window=None,
    n: int = 100_000,
    h: float = 1.0 / 32,
    rng_seed: int = 1,
    workers: int = 1,
) -> MCEstimate:
    """Long-time decay rate of survival in a ball, scaled by r^alpha.

    Fits log P(tau > t) ~ const - lambda1 t / r^alpha over a log-spaced
    window (default ``LAMBDA1_FIT_WINDOW``, [r^alpha, 3 r^alpha]: late
    enough that the spatial prefactor is flat, early enough that survivors
    remain; the survival is exponentially small past a few multiples of
    r^alpha).  Two disjoint half-windows must give slopes agreeing within
    3 combined stderr, else the fit fails.
    """
    ra = radius ** params.alpha
    if fit_window is None:
        fit_window = tuple(f * ra for f in LAMBDA1_FIT_WINDOW)
    t1, t2 = fit_window
    if t1 < ra:
        raise ValueError("fit window must start at or after r^alpha")
    tvals = _window_grid(fit_window, h)
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
    fit_window=BETA_FIT_WINDOW,
    n: int = 100_000,
    h: float = 1.0 / 16,
    rng_seed: int = 1,
    workers: int = 1,
    thin: Optional[float] = None,
) -> MCEstimate:
    """Cone exponent from the long-time survival decay t^{-beta/alpha}.

    Works for any dilation-invariant catalog domain (circular cones and
    the hyperplane complement; for the latter pick the slab half-width
    ``thin`` a few times larger than the step scale h^{1/alpha}, or the
    walk never registers the kill).  The cone of angle pi/2 is a
    half-space, whose survival curve is exact (see ``survival_curve``);
    every other domain is walked on the grid.  The report is clamped with
    a diagnostic when the fit leaves [0, alpha).
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not dom.contains(cone, xa) or dom.dist_to_complement(cone, xa) <= 0:
        raise ValueError("probe point must lie strictly inside the cone")
    tvals = _window_grid(fit_window, h)
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
    return MCEstimate(beta, beta_se, n, rng_seed, curve[0].step, curve[0].wall_time)


# ---------------------------------------------------------------------------
# boundary-Harnack cross ratio


def _wos_counts(domain, params, x, targets, seed, index, m):
    """Exit positions landing in each target region, for batch ``index``."""
    pos, _ = sample_exit_positions_wos(domain, params, x, _stream(seed, index), m)
    return np.array([int(np.sum(t.contains_many(pos))) for t in targets])


def _cross_ratio_job(params, u_domain, x1, x2, target1, target2, n, rng_seed) -> tuple:
    """The jobs and the finisher for ``_run_jobs`` of the exit-law cross
    ratio [P1(T1) P2(T2)] / [P1(T2) P2(T1)]: one walk-on-spheres job per
    start point, x1's first.

    The estimate comes from exact exit positions (no time discretization).
    Targets are region objects with a vectorized ``contains_many``.  A
    degenerate configuration (x1 = x2 or T1 = T2) has no jobs and gives
    exactly 1.  The stderr uses the delta method on log counts, and a zero
    count in any cell gives None.
    """
    x1a = np.atleast_1d(np.asarray(x1, dtype=float))
    x2a = np.atleast_1d(np.asarray(x2, dtype=float))
    if np.array_equal(x1a, x2a) or target1 == target2:
        return [], lambda parts, wall: MCEstimate(1.0, 0.0, n, rng_seed, 0.0)
    jobs = [(n, partial(_wos_counts, u_domain, params, xs, (target1, target2), rng_seed + i))
            for i, xs in enumerate((x1a, x2a))]
    return jobs, partial(_cross_ratio_estimate, n, rng_seed)


def _cross_ratio_estimate(n, rng_seed, parts, wall) -> Optional[MCEstimate]:
    (c11, c12), (c21, c22) = (np.sum(p, axis=0) for p in parts)
    if min(c11, c12, c21, c22) == 0:
        return None
    ratio = (c11 * c22) / (c12 * c21)
    var_log = sum((1.0 - c / n) / c for c in (c11, c12, c21, c22))
    return MCEstimate(float(ratio), float(ratio * math.sqrt(var_log)), n, rng_seed, 0.0, wall)


@dataclass(frozen=True)
class BallRegion:
    center: tuple
    radius: float

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return dom._sq_dist(pts, self.center) <= self.radius ** 2

    def dist(self, x) -> float:
        gap = np.asarray(x, float) - np.asarray(self.center)
        return max(float(np.linalg.norm(gap)) - self.radius, 0.0)


@dataclass(frozen=True)
class BoxRegion:
    lo: tuple
    hi: tuple

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def dist(self, x) -> float:
        x = np.asarray(x, float)
        gap = np.maximum(np.asarray(self.lo) - x, x - np.asarray(self.hi))
        return float(np.linalg.norm(np.maximum(gap, 0.0)))
