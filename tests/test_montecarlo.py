"""Exact-oracle tests of the Monte Carlo samplers under |z| <= 4 gates.

Every gated statistic is bounded (an indicator or a value in (0, 1]), so
its sample standard error is a valid yardstick; seeds are fixed, so each
test is deterministic.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

from stableheat import domains as dom
from stableheat import kernels
from stableheat import montecarlo as mc
from stableheat.stable import StableParams, _p1_point

Z_GATE = 4.0


def _rng(*key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def _z_mean(values, exact):
    values = np.asarray(values, dtype=float)
    return (values.mean() - exact) / (values.std(ddof=1) / math.sqrt(values.size))


def _z_prob(hits, exact):
    hits = np.asarray(hits, dtype=bool)
    return (hits.mean() - exact) / math.sqrt(exact * (1.0 - exact) / hits.size)


# ---------------------------------------------------------------------------
# exact ball exits and walk-on-spheres against the exit tail P(|Y| > 2)

GATE_PARAMS = ((1, 1.0), (2, 1.5), (3, 0.7))
GATE_N = 32768


#: GATE_PARAMS plus the ends of the alpha range, where the powers 2/alpha
#: and 2/(2 - alpha) of the radial draw are largest
@pytest.mark.parametrize("d,alpha", GATE_PARAMS + ((2, 0.3), (1, 1.9)))
@pytest.mark.parametrize("sampler,rho", [("ball_exit", 0.0), ("ball_exit", 0.3),
                                         ("ball_exit", 0.99), ("wos", 0.5)])
def test_exit_positions_match_the_exact_exit_tail(d, alpha, sampler, rho):
    # rho = 0 takes the centre draw of sample_ball_exit_positions, and
    # rho = 0.3 and 0.99 its walk-on-spheres in the ball
    params = StableParams(d, alpha)
    x = np.zeros(d)
    x[0] = rho
    rng = _rng(41, 1000 * d + int(100 * rho))
    if sampler == "wos":
        pos, _ = mc.sample_exit_positions_wos(dom.Ball((0.0,) * d, 1.0), params, x, rng, GATE_N)
    else:
        pos = mc.sample_ball_exit_positions(params, np.zeros(d), 1.0, x, rng, GATE_N)
    exact = kernels.ball_exit_tail_exact(params, x, 2.0)
    assert abs(_z_prob(np.linalg.norm(pos, axis=1) > 2.0, exact)) <= Z_GATE


@pytest.mark.parametrize("d,alpha", GATE_PARAMS)
@pytest.mark.parametrize("rho", [0.3, 0.99])
def test_an_exit_from_off_the_centre_is_the_walk_on_spheres_in_the_ball(d, alpha, rho):
    params = StableParams(d, alpha)
    center, radius = np.linspace(-0.3, 0.2, d), 0.5
    x = center.copy()
    x[0] += rho * radius
    got = mc.sample_ball_exit_positions(params, center, radius, x, _rng(49, d), 2000)
    walk, _ = mc.sample_exit_positions_wos(dom.Ball(tuple(center), radius), params, x,
                                           _rng(49, d), 2000)
    assert np.array_equal(got, walk)


@pytest.mark.parametrize("d,alpha", [(1, 0.1), (2, 0.7), (3, 1.0), (2, 1.5), (1, 1.95)])
def test_exit_radius_from_the_center_matches_the_beta_law(d, alpha):
    # |Y - c| = r / sqrt(B) with B ~ Beta(alpha/2, 1 - alpha/2), so
    # P(|Y - c| > rho r) = P(B < 1/rho^2) = I_{1/rho^2}(alpha/2, 1 - alpha/2)
    center, radius = np.linspace(-0.3, 0.2, d), 0.5
    pos = mc._exit_from_center(StableParams(d, alpha), center, radius,
                               _rng(43, int(100 * alpha)), 4 * GATE_N)
    dist = np.linalg.norm(pos - center, axis=1)
    assert np.all(dist >= radius * (1.0 - 1e-15))
    for rho in (1.05, 1.5, 3.0, 10.0):
        exact = special.betainc(alpha / 2.0, 1.0 - alpha / 2.0, rho ** -2)
        assert abs(_z_prob(dist > rho * radius, exact)) <= Z_GATE, rho


@pytest.mark.parametrize("alpha", [0.7, 1.5])
def test_exit_direction_from_the_center_is_uniform_in_d2(alpha):
    # the angle theta of Y - c is uniform on (-pi, pi), so E[cos k theta] and
    # E[sin k theta] are 0 for every k >= 1; the radius at these (d, alpha) is
    # gated by test_exit_radius_from_the_center_matches_the_beta_law
    center, radius = np.array([0.4, -0.3]), 0.5
    pos = mc._exit_from_center(StableParams(2, alpha), center, radius,
                               _rng(44, int(100 * alpha)), 4 * GATE_N)
    theta = np.arctan2(pos[:, 1] - center[1], pos[:, 0] - center[0])
    for k in range(1, 5):
        assert abs(_z_mean(np.cos(k * theta), 0.0)) <= Z_GATE, k
        assert abs(_z_mean(np.sin(k * theta), 0.0)) <= Z_GATE, k


# ---------------------------------------------------------------------------
# stable increments against P(X_1 > q)


def _upper_tail(alpha, q):
    """P(X_1 > q) for the unit 1-D stable law, q >= 0."""
    if alpha == 1.0:
        return 0.5 - math.atan(q) / math.pi
    mass, _ = integrate.quad(lambda r: _p1_point(1, alpha, r)[0], 0.0, q,
                             epsabs=1e-12, epsrel=1e-10)
    return 0.5 - mass


# d = 2 and 3 check that one coordinate of an isotropic increment is the
# 1-D law, which the half-space supremum relies on; dt = 0.5 checks scaling;
# the lower tail P(X < -q) equals the upper one by symmetry; 0.98 and 1.02
# sit on either side of the alpha = 1 special case
@pytest.mark.parametrize("d,alpha", [(1, 1.0), (1, 0.7), (2, 1.5), (3, 1.0),
                                     (1, 0.3), (1, 0.5), (1, 0.98), (1, 1.02),
                                     (1, 1.5), (1, 1.9)])
def test_stable_increments_match_the_exact_upper_tail(d, alpha):
    dt = 0.5
    rng = _rng(42, 1000 * d + round(100 * alpha))
    x = mc.sample_stable_increments(StableParams(d, alpha), dt, rng, 4 * GATE_N)[:, 0]
    for q in (0.25, 1.0, 4.0):
        exact = _upper_tail(alpha, q * dt ** (-1.0 / alpha))
        assert abs(_z_prob(x > q, exact)) <= Z_GATE, q
        assert abs(_z_prob(x < -q, exact)) <= Z_GATE, -q


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
def test_a_time_step_that_is_not_positive_and_finite_is_rejected(dt):
    # NaN and inf once gave NaN and infinite increments
    with pytest.raises(ValueError, match="time step must be positive and finite"):
        mc.sample_stable_increments(StableParams(1, 1.5), dt, _rng(47, 0), 8)


@pytest.mark.parametrize("n", [1, 1000, 8193])
def test_a_cauchy_increment_in_d1_draws_one_uniform(n):
    # the Chambers-Mallows-Stuck draw at alpha = 1 is tan(pi (U - 1/2)):
    # no Gaussian and no clock may come back into the stream
    rng, twin = _rng(48, n), _rng(48, n)
    mc.sample_stable_increments(StableParams(1, 1.0), 0.5, rng, n)
    twin.random(n)
    # the state holds small arrays (counter, key, buffer), printed in full
    assert str(rng.bit_generator.state) == str(twin.bit_generator.state)


class _EdgeGenerator:
    """U alternating between 0 and the largest double below 1, and W = 1."""

    def random(self, n):
        return np.resize([0.0, 1.0 - 2.0 ** -53], n)

    def standard_exponential(self, n):
        return np.ones(n)


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 1.9])
def test_increments_at_the_ends_of_the_uniform_are_finite(alpha):
    # cos(pi (U - 1/2)) is tiny there, but not 0
    x = mc.sample_stable_increments(StableParams(1, alpha), 0.5, _EdgeGenerator(), 4)
    assert np.all(np.isfinite(x)) and np.all(x[::2] < 0) and np.all(x[1::2] > 0)


class _EdgeUniforms:
    """Uniforms that are each 0 or the largest double below 1, picked by a
    fixed stream, so that every pair of edge values turns up; every other
    draw comes from that stream."""

    def __init__(self):
        self._rng = _rng(47, 0)

    def random(self, n):
        return np.where(self._rng.random(n) < 0.5, 0.0, 1.0 - 2.0 ** -53)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("alpha", [0.1, 1.0, 1.5, 1.99])
def test_ball_jumps_at_the_ends_of_the_uniform_are_finite(d, alpha, monkeypatch):
    # U = V = 0 must not give 0/0 in 1/B = (X + Y)/X; the direction's
    # norm may round 1 ulp below 1
    radius = 0.7
    pos = mc._jump(StableParams(d, alpha), np.zeros(d), radius, _EdgeUniforms(), 256)
    dist = np.linalg.norm(pos, axis=1)
    assert np.all(np.isfinite(pos)) and np.all(dist >= radius * (1.0 - 1e-15))
    if d == 2:
        # with 1/B = 1 and radius 1 a jump is its direction, and in d = 2 the
        # edge uniforms make its Cauchy draw -1.6e16 or 2e15
        monkeypatch.setattr(mc, "_inverse_beta", lambda a, rng, n: np.ones(n))
        unit = mc._jump(StableParams(d, alpha), np.zeros(d), 1.0, _EdgeUniforms(), 256)
        assert np.all(np.abs(np.linalg.norm(unit, axis=1) - 1.0) <= 2 * np.spacing(1.0))


@pytest.mark.parametrize("d", [1, 3])
def test_no_ball_exit_draws_is_an_empty_array(d):
    params = StableParams(d, 1.5)
    assert mc._jump(params, np.zeros(d), 1.0, _rng(48, d), 0).shape == (0, d)
    assert mc.sample_ball_exit_positions(params, np.zeros(d), 1.0, np.zeros(d),
                                         _rng(48, d), 0).shape == (0, d)


#: P(|X_1| > q) for the unit Cauchy law in d = 2 and d = 3
CAUCHY_RADIAL_TAILS = {
    2: lambda q: (1.0 + q * q) ** -0.5,
    3: lambda q: 1.0 - 2.0 / math.pi * (math.atan(q) - q / (1.0 + q * q)),
}


@pytest.mark.parametrize("d", sorted(CAUCHY_RADIAL_TAILS))
def test_cauchy_increments_match_the_exact_radial_tail(d):
    dt = 0.5
    rng = _rng(42, 1000 + d)
    r = np.linalg.norm(mc.sample_stable_increments(StableParams(d, 1.0), dt, rng, 4 * GATE_N),
                       axis=1)
    for q in (0.25, 1.0, 4.0):
        assert abs(_z_prob(r > q, CAUCHY_RADIAL_TAILS[d](q / dt))) <= Z_GATE, q


def test_half_stable_time_matches_the_levy_cdf():
    # exp(-lambda^{1/2}) is the Laplace transform of the Levy law with
    # scale 1/2, whose distribution function is erfc(1 / (2 sqrt(s)))
    s_draws = mc._one_sided_stable(0.5, _rng(45, 0), 4 * GATE_N)
    for s in (0.1, 0.3, 1.0, 3.0, 100.0):
        assert abs(_z_prob(s_draws <= s, math.erfc(0.5 / math.sqrt(s)))) <= Z_GATE, s


# ---------------------------------------------------------------------------
# stick-broken suprema


@pytest.mark.parametrize("theta,exact", [(0.5, 0.7311251), (1.0, 0.6282307780), (2.0, 0.5169835)])
def test_cauchy_supremum_matches_spitzer(theta, exact):
    # With E ~ Exp(1) independent of the Cauchy supremum S_1, E S_1 is the
    # supremum up to time E, and Spitzer's identity gives
    # E exp(-theta E S_1) = E 1/(1 + theta S_1)
    #                     = exp(-(1/pi) int_0^inf ln(1 + theta y)/(1 + y^2) dy),
    # which is exp(-ln 2/4 - G/pi) at theta = 1 (G is Catalan's constant).
    quad, _ = integrate.quad(lambda y: math.log1p(theta * y) / (1 + y * y), 0.0, np.inf)
    assert math.exp(-quad / math.pi) == pytest.approx(exact, abs=1e-7)
    sup = mc._sample_supremum(1.0, _rng(43, int(10 * theta)), 32768)
    assert abs(_z_mean(1.0 / (1.0 + theta * sup), exact)) <= Z_GATE


def _spitzer_z(alpha, exact):
    rng = _rng(44, int(10 * alpha))
    sup = mc._sample_supremum(alpha, rng, 32768)
    e = rng.standard_exponential(sup.size)
    return _z_mean(np.exp(-e ** (1.0 / alpha) * sup), exact)


def test_supremum_matches_spitzer_at_alpha_1_5():
    # With E ~ Exp(1) independent, E^{1/alpha} S_1 is the supremum up to
    # time E, and Spitzer's identity gives
    # E exp(-E^{1/alpha} S_1) = exp(int_0^inf e^{-t} g(t^{1/alpha}) dt / t),
    # g(s) = int_0^inf (e^{-s y} - 1) p_1(y) dy; nested quadrature of
    # _p1_point gives 0.5641009688
    assert abs(_spitzer_z(1.5, 0.5641009688)) <= Z_GATE


# the same nested quadrature as at alpha = 1.5; at alpha = 1 it reproduces
# the Cauchy value 0.6282307780 to 1e-10
@pytest.mark.parametrize("alpha,exact", [(0.7, 0.6631353231), (1.9, 0.5125801076)])
def test_supremum_matches_spitzer_at_small_and_large_alpha(alpha, exact):
    assert abs(_spitzer_z(alpha, exact)) <= Z_GATE


def _two_sample_z(hits, other, n):
    """z of the difference of two hit counts out of n each, pooled."""
    if hits == other:
        return 0.0
    pooled = (hits + other) / (2 * n)
    return (hits - other) / math.sqrt(2.0 * n * pooled * (1.0 - pooled))


@pytest.mark.parametrize("alpha", [0.7, 1.5])
@pytest.mark.parametrize("delta", [0.05, 1.0, 16.0])
def test_stopped_supremum_counts_match_the_full_draw(alpha, delta):
    # a path stops once its partial sum reaches the largest level; the
    # counts must keep the law of the full 64-stick draw, here drawn from
    # an independent stream
    t_grid, n = (1.0, 16.0, 256.0), 16384
    counts = mc._supremum_counts(alpha, delta, t_grid, 50, 0, n)
    sup = mc._sample_supremum(alpha, _rng(51, int(100 * alpha)), n)
    for t, c in zip(t_grid, counts):
        full = int((sup < delta * t ** (-1.0 / alpha)).sum())
        assert abs(_two_sample_z(int(c), full, n)) <= Z_GATE, t


def test_a_stopped_supremum_draws_less_than_half_the_full_stream(monkeypatch):
    # the stop must fire: at delta = 0.05 and t = 1 most paths pass the
    # level within a few sticks; each Philox counter step is four words
    real, streams = mc._stream, []

    def spy(seed, index):
        streams.append(real(seed, index))
        return streams[-1]

    monkeypatch.setattr(mc, "_stream", spy)
    mc._supremum_counts(1.5, 0.05, (1.0,), 52, 0, mc.BATCH)
    stopped = int(streams[-1].bit_generator.state["state"]["counter"][0])
    rng = real(52, 0)
    mc._sample_supremum(1.5, rng, mc.BATCH)
    full = int(rng.bit_generator.state["state"]["counter"][0])
    assert 0 < stopped < full / 2


def test_a_survival_level_that_overflows_keeps_every_path():
    # delta t^{-1/alpha} at t = 1e-100, alpha = 0.3 once raised OverflowError
    half, params = dom.HalfSpace((1.0,)), StableParams(1, 0.3)
    assert mc._survival_level(1.0, 1e-100, 0.3) == math.inf
    est = mc.survival_curve(half, params, (1.0,), (1e-100,), 1000, 1e-100, 1)[0]
    assert est.mean == 1.0 and est.step == 0.0


@pytest.mark.parametrize("x", [(0.0, math.inf), (math.nan, 1.0)])
def test_a_start_point_that_is_not_finite_is_rejected(x):
    # (0, inf) lies in both domains and once gave survival 1
    params = StableParams(2, 1.5)
    for domain in (dom.HalfSpace((0.0, 1.0)), dom.ExteriorBall((0.0, 0.0), 1.0)):
        with pytest.raises(ValueError, match="start point must have finite coordinates"):
            mc.survival_curve(domain, params, x, (1.0,), 512, 1.0 / 16, 1)


@pytest.mark.parametrize("t,h", [(math.inf, 0.25), (math.nan, 0.25), (1e300, 1e-300)])
def test_a_horizon_of_no_finite_step_count_is_rejected(t, h):
    ball, params = dom.Ball((0.0,), 1.0), StableParams(1, 1.0)
    with pytest.raises(ValueError, match="finite number of steps"):
        mc.survival_curve(ball, params, (0.0,), (t,), 512, h, 1)
    with pytest.raises(ValueError, match="finite number of steps"):
        mc.heat_kernel_grid(ball, params, (0.0,), ((0.3,),), (t,), 512, h, 1)


@pytest.mark.parametrize(
    "t_grid, message",
    [((0.1, 0.25), "integer multiple of the step"),
     ((0.25, 0.01), "at least one step long"),
     ((0.25, -0.25), "at least one step long")],
)
def test_both_grid_estimators_apply_one_horizon_rule(t_grid, message):
    # heat_kernel_grid once checked only the step count, and the walk only
    # the largest horizon, so a horizon off the grid passed silently
    ball, params = dom.Ball((0.0,), 1.0), StableParams(1, 1.0)
    with pytest.raises(ValueError, match=message):
        mc.survival_curve(ball, params, (0.0,), t_grid, 512, 1.0 / 64, 1)
    with pytest.raises(ValueError, match=message):
        mc.heat_kernel_grid(ball, params, (0.0,), ((0.3,),), t_grid, 512, 1.0 / 64, 1)


def test_only_the_grid_walk_has_a_step_budget():
    ball, params = dom.Ball((0.0,), 1.0), StableParams(1, 1.0)
    t = (mc.WALK_MAX_STEPS + 1) / 64
    with pytest.raises(ValueError, match="a grid walk takes at most"):
        mc.survival_curve(ball, params, (0.0,), (t,), 512, 1.0 / 64, 1)
    with pytest.raises(ValueError, match="a grid walk takes at most"):
        mc.heat_kernel_grid(ball, params, (0.0,), ((0.3,),), (t,), 512, 1.0 / 64, 1)
    # the exact half-space survival takes no steps
    half = mc.survival_curve(dom.HalfSpace((1.0,)), params, (1.0,), (t,), 512, 1.0 / 64, 1)
    assert half[0].step == 0.0


def _fields(curve):
    return [(e.mean, e.stderr, e.n, e.seed, e.step) for e in curve]


def test_halfspace_survival_is_exact_and_below_the_grid_walk():
    # the grid walk misses excursions out and back within a step, so its
    # survival is biased upward: 0.169 at h = 1/16 against the exact 0.0645
    params = StableParams(2, 1.5)
    half = dom.HalfSpace((0.0, 1.0))
    x = np.array([0.0, 0.05])
    exact = mc.survival_curve(half, params, x, (1.0,), 16384, 1.0 / 16, 5)[0]
    assert exact.step == 0.0
    assert exact.mean == pytest.approx(0.0645, abs=Z_GATE * exact.stderr)
    n = 16384
    grid = mc._survival_counts(half, params, x, (1.0,), 1.0 / 16, None, 5, 0, n)[0] / n
    grid_se = math.sqrt(grid * (1.0 - grid) / n)
    assert exact.mean + Z_GATE * exact.stderr < grid - Z_GATE * grid_se


def test_the_right_angle_cone_is_the_halfspace():
    params = StableParams(2, 1.5)
    args = ((0.0, 0.3), (0.25, 1.0, 4.0), 4096, 1.0 / 16, 6)
    half = mc.survival_curve(dom.HalfSpace((0.0, 1.0)), params, *args)
    cone = mc.survival_curve(dom.CircularCone(math.pi / 2, (0.0, 1.0)), params, *args)
    assert _fields(cone) == _fields(half)
    assert all(e.step == 0.0 for e in half)


def test_a_cone_within_1e_12_of_the_right_angle_is_the_halfspace():
    # pi/2 to 13 decimals, 3.4e-15 off: the profile already took it for a
    # half-space, and the survival curve must sample it as one too
    params = StableParams(2, 1.5)
    cone = dom.CircularCone(1.5707963267949, (0.0, 1.0))
    args = ((0.0, 0.05), (1.0,), 8192, 1.0 / 16, 1)
    curve = mc.survival_curve(cone, params, *args)
    assert _fields(curve) == _fields(mc.survival_curve(dom.HalfSpace((0.0, 1.0)), params, *args))
    assert curve[0].step == 0.0
    assert kernels.survival_profile(cone, params).beta == 0.75


def test_the_right_angle_cone_exponent_is_half_alpha():
    # P(tau > t) ~ c t^{-1/2} on a half-space, so beta = alpha / 2 exactly
    est = mc.estimate_beta(StableParams(2, 1.5), dom.CircularCone(math.pi / 2, (0.0, 1.0)),
                           (0.0, 1.0), n=20_000, rng_seed=3)
    assert est.step == 0.0
    assert abs(est.mean - 0.75) <= Z_GATE * est.stderr


def test_halfspace_survival_is_identical_on_two_workers():
    args = (dom.HalfSpace((0.0, 1.0)), StableParams(2, 1.5), (0.0, 0.3), (0.25, 1.0),
            2 * mc.BATCH + 100, 1.0 / 16, 7)
    assert _fields(mc.survival_curve(*args, workers=2)) == _fields(mc.survival_curve(*args))


def test_wos_rejects_a_start_at_distance_zero_at_once():
    # contains() accepts this point, but its inscribed ball has radius 0:
    # the walk once stood still until WOS_MAX_STEPS iterations had passed
    ball = dom.Ball((1.8461553344437616, 1.1510326627856502), 2.094419871578422)
    x = (3.925409209388337, 0.8994418799844098)
    assert dom.contains(ball, x) and dom.dist_to_complement(ball, x) == 0.0
    with pytest.raises(ValueError, match="start point must lie in the domain"):
        mc.sample_exit_positions_wos(ball, StableParams(2, 1.5), x, _rng(1, 0), 4)


def test_wos_steps_count_the_jumps_of_each_walker():
    # from the centre of a ball every walker leaves at its first jump
    pos, steps = mc.sample_exit_positions_wos(
        dom.Ball((0.0, 0.0), 1.0), StableParams(2, 1.5), (0.0, 0.0), _rng(2, 0), 64)
    assert np.array_equal(steps, np.ones(64, dtype=np.int64))
    assert np.all(np.hypot(pos[:, 0], pos[:, 1]) >= 1.0)


# ---------------------------------------------------------------------------
# a single walker: each step keeps every live walker or none

SINGLE_WALKER_CASES = {
    "tilted_d2": (dom.Intersection((dom.HalfSpace((0.6, 0.8), 0.0), dom.Ball((0, 0), 1))),
                  StableParams(2, 1.5), (0.1, 0.3)),
    "ball_d1": (dom.Ball((0.0,), 1.0), StableParams(1, 1.0), (0.2,)),
}


def _one_wos_walker(domain, params, x, rng):
    """Walk-on-spheres of one walker as a plain loop: the reference that
    ``mc.sample_exit_positions_wos`` at n = 1 must match bit for bit."""
    y = np.array([x], dtype=float)
    r = dom.dist_many(domain, y)
    k = 0
    while True:
        k += 1
        y = mc._jump(params, y, r, rng, 1)
        r = dom.dist_many(domain, y)
        if not r[0] > 0:
            return y, k


def _one_grid_walker(domain, params, x, h, nsteps, rng):
    """The grid walk of one walker as a plain loop: the reference that
    ``mc._walk_batch`` at m = 1 must match bit for bit."""
    y = np.array([x], dtype=float)
    for k in range(1, nsteps + 1):
        y = y + mc.sample_stable_increments(params, h, rng, 1)
        if not dom.contains_many(domain, y)[0]:
            return k * h, y
    return math.inf, y


@pytest.mark.parametrize("case", list(SINGLE_WALKER_CASES))
def test_a_single_wos_walker_matches_the_plain_loop(case):
    domain, params, x = SINGLE_WALKER_CASES[case]
    steps_seen = set()
    for seed in range(12):
        pos, steps = mc.sample_exit_positions_wos(domain, params, x, _rng(11, seed), 1)
        ref_pos, ref_steps = _one_wos_walker(domain, params, x, _rng(11, seed))
        assert pos.tobytes() == ref_pos.tobytes()
        assert steps.tolist() == [ref_steps]
        steps_seen.add(ref_steps)
    # both a jump that keeps the walker and one that loses it were taken
    assert max(steps_seen) > 1


@pytest.mark.parametrize("case", list(SINGLE_WALKER_CASES))
def test_a_single_grid_walker_matches_the_plain_loop(case):
    domain, params, x = SINGLE_WALKER_CASES[case]
    h, horizon = 1.0 / 16, 0.25
    killed = set()
    for seed in range(12):
        tau, pos, survived = mc._walk_batch(domain, params, np.array(x), h, horizon,
                                            _rng(12, seed), 1)
        ref_tau, ref_pos = _one_grid_walker(domain, params, x, h, 4, _rng(12, seed))
        assert tau.tolist() == [ref_tau]
        assert pos.tobytes() == ref_pos.tobytes()
        assert survived.tolist() == [ref_tau == math.inf]
        killed.add(math.isfinite(ref_tau))
    # some walkers were killed during the walk and some survived it
    assert killed == {True, False}


# ---------------------------------------------------------------------------
# the batched density evaluation of the killed-kernel sums


def _kernel_sums_per_cell(domain, params, x, y_list, t_grid, h, seed, index, m):
    """One ``free_density_radial`` call per (t, y) cell: the reference that
    ``mc._kernel_sums`` must match bit for bit."""
    tau, pos, _ = mc._walk_batch(domain, params, x, h, max(t_grid), mc._stream(seed, index), m)
    s1 = np.zeros((len(t_grid), len(y_list)))
    s2 = np.zeros((len(t_grid), len(y_list)))
    for j, y in enumerate(y_list):
        dist = np.linalg.norm(pos - np.asarray(y), axis=1)
        for i, t in enumerate(t_grid):
            sel = tau < t
            if sel.any():
                vals = mc.free_density_radial(params, t - tau[sel], dist[sel])
                s1[i, j] = vals.sum()
                s2[i, j] = (vals * vals).sum()
    return s1, s2


# a walker is first found outside at time h or later, so the horizon h
# has no killed walker in any of its cells
KERNEL_SUM_CASES = {
    "ball_d1": (dom.Ball((0.0,), 1.0), StableParams(1, 1.0), (0.3,),
                ((-0.95,), (0.0,), (0.5,), (0.95,)), (1 / 64, 0.125, 0.25, 0.5), 1 / 64),
    "ball_d2": (dom.Ball((0.0, 0.0), 1.0), StableParams(2, 1.5), (0.0, 0.5),
                ((0.0, 0.0), (0.6, -0.6)), (1 / 32, 0.25, 1.0), 1 / 32),
}


@pytest.mark.parametrize("case", list(KERNEL_SUM_CASES))
def test_kernel_sums_equal_the_per_cell_evaluation(case):
    domain, params, x, y_list, t_grid, h = KERNEL_SUM_CASES[case]
    x = np.asarray(x)
    tau, _, _ = mc._walk_batch(domain, params, x, h, max(t_grid), mc._stream(5, 2), 3000)
    assert not (tau < t_grid[0]).any() and (tau < t_grid[-1]).any()
    got = mc._kernel_sums(domain, params, x, y_list, t_grid, h, 5, 2, 3000)
    ref = _kernel_sums_per_cell(domain, params, x, y_list, t_grid, h, 5, 2, 3000)
    for g, r in zip(got, ref):
        assert g.tobytes() == r.tobytes()
    assert np.all(got[0][0] == 0.0) and np.all(got[0][1:] > 0.0)


def test_kernel_sums_of_a_batch_that_all_survives_skip_the_density(monkeypatch):
    def no_call(*args):
        raise AssertionError("no walker was killed: nothing to evaluate")

    monkeypatch.setattr(mc, "free_density_radial", no_call)
    ball = dom.Ball((0.0, 0.0), 1e9)
    s1, s2 = mc._kernel_sums(ball, StableParams(2, 1.5), np.zeros(2), ((0.0, 0.0), (1.0, 0.0)),
                             (0.25, 0.5), 0.25, 3, 0, 500)
    assert s1.shape == s2.shape == (2, 2)
    assert not s1.any() and not s2.any()
