import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from stableheat import (
    Ball,
    CircularCone,
    ExteriorBall,
    HalfSpace,
    HyperplaneComplement,
    IntervalComplement,
    MissingParameterError,
    SpecialLipschitz,
    StableParams,
    SurvivalProfile,
    UnsupportedRegimeError,
    ball_exit_tail,
    ball_exit_tail_exact,
    ball_green,
    ball_poisson,
    expected_exit_time_ball,
    free_density,
    heat_kernel_profile,
    survival_profile,
)


class TestBallGreen:
    def test_log_case_value(self, p11):
        # independent oracle: antiderivative 2 asinh(sqrt(s)) at w = 3
        ref = 2.0 * math.asinh(math.sqrt(3.0)) / (2.0 * math.pi)
        assert ball_green(p11, 0.0, 1.0, 0.0, 0.5) == pytest.approx(ref, rel=1e-10)

    def test_symmetry(self, p15):
        a = ball_green(p15, 0.0, 1.0, 0.2, -0.7)
        b = ball_green(p15, 0.0, 1.0, -0.7, 0.2)
        assert a == b

    def test_diagonal_infinite_when_d_ge_alpha(self, p11, p21):
        assert ball_green(p11, 0.0, 1.0, 0.3, 0.3) == math.inf
        assert ball_green(p21, (0, 0), 1.0, (0.3, 0), (0.3, 0)) == math.inf

    def test_diagonal_finite_in_recurrent_line(self, p15):
        v = ball_green(p15, 0.0, 1.0, 0.0, 0.0)
        assert 0 < v < math.inf

    def test_rejects_outside_points(self, p11):
        with pytest.raises(ValueError):
            ball_green(p11, 0.0, 1.0, 1.5, 0.0)

    @pytest.mark.parametrize(
        "d,alpha,xfrac",
        [
            (1, 1.0, 0.0),
            (1, 1.0, 0.6),
            (1, 0.5, 0.0),
            (1, 0.5, 0.95),
            (2, 1.0, 0.0),
            (2, 1.5, 0.0),
        ],
    )
    def test_green_mass_equals_expected_exit_time(self, d, alpha, xfrac):
        params = StableParams(d, alpha)
        x = np.zeros(d)
        x[0] = xfrac
        if d == 1:
            f = lambda v: ball_green(params, 0.0, 1.0, x, (v,))
            mass, _ = integrate.quad(
                f, -1, 1, points=[float(x[0])], limit=300, epsabs=1e-10, epsrel=1e-9
            )
        else:
            sd = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
            f = lambda r: ball_green(params, (0.0,) * d, 1.0, x, _axis(r, d)) * r ** (d - 1)
            mass, _ = integrate.quad(
                f, 0, 1, points=[0.0], limit=300, epsabs=1e-10, epsrel=1e-9
            )
            mass *= sd
        assert mass == pytest.approx(
            expected_exit_time_ball(params, (0.0,) * d, 1.0, x), abs=1e-6
        )


@pytest.mark.parametrize("d,alpha,radius,xfrac", [(1, 1.0, 2.0, 0.3), (1, 1.5, 0.5, 0.6),
                                                  (2, 1.5, 3.0, 0.0)])
def test_green_mass_equals_expected_exit_time_off_the_unit_ball(d, alpha, radius, xfrac):
    # the Green function once used (r^2-|x|^2)(r^2-|v|^2)/|x-v|^2 without
    # the 1/r^2, so its mass missed E^x tau whenever r != 1
    params = StableParams(d, alpha)
    x = np.zeros(d)
    x[0] = xfrac * radius
    if d == 1:
        f = lambda v: ball_green(params, 0.0, radius, x, (v,))
        mass, _ = integrate.quad(f, -radius, radius, points=[float(x[0])], limit=300,
                                 epsabs=1e-10, epsrel=1e-9)
    else:
        sd = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
        f = lambda r: ball_green(params, (0.0,) * d, radius, x, _axis(r, d)) * r ** (d - 1)
        mass, _ = integrate.quad(f, 0, radius, points=[0.0], limit=300, epsabs=1e-10,
                                 epsrel=1e-9)
        mass *= sd
    assert mass == pytest.approx(expected_exit_time_ball(params, (0.0,) * d, radius, x),
                                 rel=1e-6)


@pytest.mark.parametrize("radius,x", [(1.0, 0.5), (1.0, -0.9), (2.0, 1.2)])
def test_green_diagonal_is_the_limit_beside_it(p15, radius, x):
    # the d = 1 < alpha diagonal once used (1-|x|^2)^((alpha-1)/2), which
    # is the limit only at the centre; beside it the gap is O(z^(alpha-1))
    diag = ball_green(p15, 0.0, radius, x, x)
    assert diag == pytest.approx(ball_green(p15, 0.0, radius, x, x + 1e-10), rel=1e-4)


def test_ball_closed_forms_reject_a_non_finite_point(p11):
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ball_green(p11, 0.0, 1.0, bad, 0.5)
        with pytest.raises(ValueError):
            expected_exit_time_ball(p11, bad, 1.0, 0.0)
        with pytest.raises(ValueError):
            ball_exit_tail_exact(p11, bad, 3.0)
    with pytest.raises(ValueError):
        ball_poisson(p11, 0.0, 1.0, 0.0, math.nan)


def test_ball_closed_forms_scale_to_a_radius_whose_square_overflows(p11):
    # r ** 2 once raised OverflowError at r = 1e200
    r = 1e200
    assert expected_exit_time_ball(p11, 0.0, r, 0.0) == pytest.approx(r, rel=1e-14)
    assert ball_green(p11, 0.0, r, 0.0, 0.5 * r) == pytest.approx(
        ball_green(p11, 0.0, 1.0, 0.0, 0.5), rel=1e-14)
    assert ball_poisson(p11, 0.0, r, 0.0, 2.0 * r) == pytest.approx(
        ball_poisson(p11, 0.0, 1.0, 0.0, 2.0) / r, rel=1e-14)
    with pytest.raises(OverflowError):
        expected_exit_time_ball(StableParams(1, 1.9), 0.0, r, 0.0)


def _axis(r, d):
    p = np.zeros(d)
    p[0] = r
    return p


class TestBallPoisson:
    @pytest.mark.parametrize("d,alpha", [(1, 1.0), (1, 0.5), (2, 1.0), (2, 1.5)])
    def test_normalization(self, d, alpha):
        x = np.zeros(d)
        x[0] = 0.3
        assert ball_exit_tail_exact(StableParams(d, alpha), x, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_exit_by_jump_tail_third(self, p11):
        assert ball_exit_tail_exact(p11, 0.0, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_sign_symmetry(self, p11):
        assert ball_poisson(p11, 0.0, 1.0, 0.0, 2.0) == ball_poisson(
            p11, 0.0, 1.0, 0.0, -2.0
        )

    def test_rejects_interior_target(self, p11):
        with pytest.raises(ValueError):
            ball_poisson(p11, 0.0, 1.0, 0.0, 0.9)


class TestBallExitTail:
    def test_bracket_contains_exact(self, p11):
        br = ball_exit_tail(p11, 0.0, 2.0)
        assert br.lower <= 1.0 / 3.0 <= br.upper
        # comparator value is 1/2, the exact-to-comparator ratio 2/3
        assert br.lower <= (2.0 / 3.0) * 0.5 <= br.upper

    def test_vanishes_at_boundary(self, p11):
        br = ball_exit_tail(p11, 1.0 - 1e-12, 2.0)
        assert br.upper < 1e-5

    def test_threshold_scaling(self, p15):
        b2 = ball_exit_tail(p15, 0.0, 2.0)
        b4 = ball_exit_tail(p15, 0.0, 4.0)
        assert b4.upper / b2.upper == pytest.approx(2.0 ** -1.5, rel=1e-12)

    def test_rejects_small_threshold(self, p11):
        with pytest.raises(ValueError):
            ball_exit_tail(p11, 0.0, 1.5)


class TestExpectedExitTime:
    def test_unit_value(self, p11):
        assert expected_exit_time_ball(p11, 0.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_zero_on_sphere(self, p15):
        assert expected_exit_time_ball(p15, 0.0, 1.0, 1.0) == 0.0

    def test_cauchy_interior(self, p11):
        assert expected_exit_time_ball(p11, 0.0, 1.0, 0.6) == pytest.approx(0.8, rel=1e-14)

    def test_rejects_outside(self, p11):
        with pytest.raises(ValueError):
            expected_exit_time_ball(p11, 0.0, 1.0, 1.2)


@pytest.mark.parametrize("radius", [math.inf, math.nan, -1.0, 0.0])
def test_ball_closed_forms_reject_a_radius_that_is_not_positive_and_finite(p11, radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        ball_green(p11, 0.0, radius, 0.0, 0.5)
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        ball_poisson(p11, 0.0, radius, 0.0, 2.0)
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        expected_exit_time_ball(p11, 0.0, radius, 0.0)


def test_exit_tails_reject_a_nan_threshold(p11):
    # NaN once passed R < 1 and fell through to the total-mass branch
    with pytest.raises(ValueError, match="tail threshold"):
        ball_exit_tail_exact(p11, 0.0, math.nan)
    with pytest.raises(ValueError, match="R >= 2"):
        ball_exit_tail(p11, 0.0, math.nan)


PROFILE_DOMAINS = [
    (Ball((0.0,), 1.0), StableParams(1, 1.0), {}),
    (Ball((0.0,), 2.0), StableParams(1, 1.5), {"lambda1": 1.1}),
    (HalfSpace((1.0,)), StableParams(1, 1.0), {}),
    (ExteriorBall((0.0, 0.0), 1.0), StableParams(2, 1.0), {}),
    (ExteriorBall((0.0,), 1.0), StableParams(1, 1.0), {}),
    (ExteriorBall((0.0,), 1.0), StableParams(1, 1.5), {}),
    (CircularCone(math.pi / 3, (0.0, 1.0)), StableParams(2, 1.0), {"beta": 0.7}),
    (HyperplaneComplement(1), StableParams(1, 1.5), {}),
    (IntervalComplement(((-1.0, 1.0),)), StableParams(1, 1.0), {}),
    (IntervalComplement(((-1.0, 1.0), (2.0, 3.0))), StableParams(1, 1.5), {}),
]


class TestSurvivalProfile:
    def test_halfspace_quarter(self, p11):
        prof = survival_profile(HalfSpace((1.0,)), p11)
        assert prof.evaluate(16.0, 1.0) == pytest.approx(0.25)

    def test_hyperplane_clamps_at_one(self, p15):
        prof = survival_profile(HyperplaneComplement(1), p15)
        assert prof.evaluate(1e-12, 1.0) == 1.0

    def test_cone_halfspace_reduction(self, p21):
        cone = survival_profile(CircularCone(math.pi / 2, (0.0, 1.0)), p21)
        half = survival_profile(HalfSpace((0.0, 1.0)), p21)
        for t in np.geomspace(0.01, 100, 7):
            for x in [(0.2, 0.5), (3.0, 0.1), (0.0, 2.0)]:
                assert cone.evaluate(t, x) == pytest.approx(half.evaluate(t, x), abs=1e-12)

    @pytest.mark.parametrize("domain,params,kw", PROFILE_DOMAINS)
    def test_range_monotonicity_limits(self, domain, params, kw):
        from stableheat import contains, domains as dm

        prof = survival_profile(domain, params, **kw)
        d = dm.dim(domain)
        # build only the probe of the domain's own dimension: contains()
        # rejects a point with the wrong number of coordinates
        if d == 1:
            probe = (0.5,) if contains(domain, (0.5,)) else (1.5,)
        else:
            probe = (0.3, 0.4) if contains(domain, (0.3, 0.4)) else (2.0, 0.0)
        values = [prof.evaluate(t, probe) for t in np.geomspace(1e-4, 1e4, 25)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("domain,params,kw", PROFILE_DOMAINS)
    def test_zero_outside(self, domain, params, kw):
        from stableheat import domains as dm

        prof = survival_profile(domain, params, **kw)
        d = dm.dim(domain)
        if d == 1:
            outside = (3.0,) if dm.contains(domain, (0.0,)) else (0.0,)
        else:
            outside = (0.0, -1.0)
        assert not dm.contains(domain, outside), f"probe {outside} lies inside the domain"
        assert prof.evaluate(1.0, outside) == 0.0

    def test_ball_lambda1_decay_starts_at_r_alpha(self):
        r, lam = 2.0, 1.1
        params = StableParams(1, 1.5)
        prof = survival_profile(Ball((0.0,), r), params, lambda1=lam)
        ra = r ** params.alpha
        for x in ((0.0,), (1.2,)):
            delta = r - abs(x[0])
            # short-time regime: exactly 1 while t <= r^alpha, delta >= t^{1/alpha}
            for t in np.geomspace(1e-6, min(ra, 0.99 * delta ** params.alpha), 9):
                assert prof.evaluate(t, x) == 1.0
            # past r^alpha: the unit-ball rate lambda1 in units of r^alpha
            for t in np.linspace(ra, 4.0 * ra, 7):
                assert prof.evaluate(t + ra, x) / prof.evaluate(t, x) == pytest.approx(
                    math.exp(-lam), rel=1e-12
                )
        assert prof.evaluate(ra, (0.0,)) == 1.0

    def test_scaling_consistency(self):
        # profile(rD) at (r^alpha t, r x) matches profile(D) at (t, x); the
        # half-space, the cone and the hyperplane complement are their own
        # dilations
        r = 3.0
        half = HalfSpace((1.0,))
        cone = CircularCone(math.pi / 2, (0.0, 1.0))
        cases = [
            (Ball((0.0,), 1.0), Ball((0.0,), r), StableParams(1, 1.5), (0.4,)),
            (half, half, StableParams(1, 1.0), (0.7,)),
            (cone, cone, StableParams(2, 1.0), (0.1, 0.4)),
            (HyperplaneComplement(1), HyperplaneComplement(1), StableParams(1, 1.5), (0.6,)),
        ]
        for domain, scaled, params, x in cases:
            p0 = survival_profile(domain, params)
            p1 = survival_profile(scaled, params)
            for t in (0.1, 1.0, 10.0):
                rx = tuple(r * v for v in x)
                assert p1.evaluate(r ** params.alpha * t, rx) == pytest.approx(
                    p0.evaluate(t, x), rel=1e-12
                )

    @pytest.mark.parametrize("lambda1", [math.nan, -5.0, 0.0, math.inf])
    def test_rejects_a_lambda1_that_is_not_positive_and_finite(self, p11, lambda1):
        with pytest.raises(ValueError, match="lambda1 must be positive and finite"):
            survival_profile(Ball((0.0,), 1.0), p11, lambda1=lambda1)

    @pytest.mark.parametrize("beta", [math.nan, -1.0, 1.0, 5.0])
    def test_rejects_a_cone_beta_outside_zero_to_alpha(self, p21, beta):
        # given as the argument or stored on the cone; alpha = 1 here
        with pytest.raises(ValueError, match=r"beta must lie in \[0, alpha\)"):
            survival_profile(CircularCone(1.0, (0.0, 1.0)), p21, beta=beta)
        with pytest.raises(ValueError, match=r"beta must lie in \[0, alpha\)"):
            survival_profile(CircularCone(1.0, (0.0, 1.0), beta=beta), p21)

    def test_rejects_a_beta_that_no_profile_reads(self, p11, p21):
        # only a cone's native profile reads beta
        with pytest.raises(ValueError, match="not to Ball"):
            survival_profile(Ball((0.0,), 1.0), p11, beta=0.5)
        with pytest.raises(ValueError, match="not to HalfSpace"):
            survival_profile(HalfSpace((1.0,)), p11, beta=0.5)

    def test_rejects_a_lambda1_that_no_profile_reads(self, p11, p21):
        # only a ball's profile reads lambda1; the others ignored it
        for domain, params in ((HalfSpace((1.0,)), p11), (ExteriorBall((0.0, 0.0), 1.0), p21),
                               (CircularCone(math.pi / 2, (0.0, 1.0)), p21)):
            with pytest.raises(ValueError, match=f"lambda1 applies only to the profile of a "
                                                 f"ball, not to {type(domain).__name__}$"):
                survival_profile(domain, params, lambda1=1.1)

    def test_exterior_regime_selection(self):
        # at delta = R/4 and t = 2 R^alpha the three exterior-ball regimes
        # give different values, except that the d > alpha and the
        # d = 1 < alpha formulas are one function at alpha = 1
        dl, t = 0.25, 2.0

        def regimes(a):
            g = lambda s: min(s ** (a - 1), s ** (a / 2))
            return {
                "gt": min(1.0, dl ** (a / 2) / min(1.0, t ** 0.5)),
                "log": min(1.0, math.log1p(dl ** 0.5) / math.log1p(t ** 0.5)),
                "rec": g(dl) / g(max(t ** (1.0 / a), dl)),
            }

        for d, alpha, regime in ((2, 1.0, "gt"), (1, 1.0, "log"), (1, 1.5, "rec"),
                                 (1, 0.5, "gt")):
            prof = survival_profile(ExteriorBall((0.0,) * d, 1.0), StableParams(d, alpha))
            v = prof.evaluate(t, (1.0 + dl,) + (0.0,) * (d - 1))
            values = regimes(alpha)
            assert v == pytest.approx(values[regime], rel=1e-12)
            others = [w for w in values.values() if w != values[regime]]
            assert len(others) == (1 if (alpha, regime) == (1.0, "gt") else 2)
            assert all(abs(v - w) > 1e-2 for w in others)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_time_that_is_not_positive_and_finite(self, p11, t):
        prof = survival_profile(HalfSpace((1.0,)), p11)
        with pytest.raises(ValueError, match="time must be positive and finite"):
            prof.evaluate(t, (0.5,))

    def test_a_horizon_whose_scale_underflows_gives_one(self):
        # t^{1/alpha} = 1e-100^{10/3} is 0, and delta / 0 raised ZeroDivisionError
        p = StableParams(1, 0.3)
        for domain in (HalfSpace((1.0,)), Ball((0.0,), 1.0)):
            assert survival_profile(domain, p).evaluate(1e-100, (0.5,)) == 1.0, domain
        cone = survival_profile(CircularCone(1.0, (0.0, 1.0)), StableParams(2, 0.3), beta=0.1)
        assert cone.evaluate(1e-100, (0.1, 1.0)) == 1.0

    def test_a_cone_at_a_horizon_whose_scale_overflows_takes_the_limit(self):
        # t^{1/alpha} = 1e300^2 overflows, and |x| / t^{1/alpha} underflows to 0
        # at t = 1e150 near the vertex; past t^{1/alpha} = |x| the shape is
        # (delta/|x|)^(alpha/2) (|x|/t^{1/alpha})^beta, constant when beta = 0
        p, near = StableParams(2, 0.5), (1e-31, 1e-30)
        flat = survival_profile(CircularCone(1.0, (0.0, 1.0)), p, beta=0.0)
        for x in [(0.1, 1.0), near]:
            limit = flat.evaluate(1e10, x)
            assert 0.0 < limit < 1.0
            for t in (1e150, 1e300):
                assert flat.evaluate(t, x) == pytest.approx(limit, rel=1e-12)
        cone = survival_profile(CircularCone(1.0, (0.0, 1.0)), p, beta=0.1)
        assert 0.0 < cone.evaluate(1e150, near) < cone.evaluate(1e10, near)
        assert cone.evaluate(1e300, near) == cone.evaluate(1e300, (0.1, 1.0)) == 0.0

    @pytest.mark.parametrize("x", [(0.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)])
    def test_rejects_a_point_that_is_not_finite(self, x):
        # (0, inf) lies in the half-space and once evaluated to 1
        for domain in (HalfSpace((0.0, 1.0)), ExteriorBall((0.0, 0.0), 1.0)):
            prof = survival_profile(domain, StableParams(2, 1.5))
            with pytest.raises(ValueError, match="point must have finite coordinates"):
                prof.evaluate(1.0, x)

    def test_cone_needs_beta(self, p21):
        with pytest.raises(MissingParameterError):
            survival_profile(CircularCone(math.pi / 3, (0.0, 1.0)), p21)

    def test_hyperplane_needs_alpha_above_one(self, p11):
        with pytest.raises(UnsupportedRegimeError):
            survival_profile(HyperplaneComplement(1), p11)

    def test_interval_needs_recurrent_alpha(self):
        with pytest.raises(UnsupportedRegimeError):
            survival_profile(IntervalComplement(((-1.0, 1.0),)), StableParams(1, 0.5))

    def test_lipschitz_not_in_profile_catalog(self, p21):
        dom_sl = SpecialLipschitz(((-1.0, 0.0), (1.0, 0.0)), 0.5)
        with pytest.raises(UnsupportedRegimeError):
            survival_profile(dom_sl, StableParams(2, 1.0))

    def test_a_profile_outside_the_catalog_raises_when_evaluated(self, p21):
        # built without survival_profile, which would have refused it
        prof = SurvivalProfile(SpecialLipschitz(((-1.0, 0.0), (1.0, 0.0)), 0.5), p21)
        with pytest.raises(UnsupportedRegimeError, match="no closed survival profile"):
            prof.evaluate(1.0, (0.0, 1.0))


class TestHeatKernelProfile:
    def test_diagonal_dominated_by_peak(self, p11):
        v = heat_kernel_profile(survival_profile(Ball((0.0,), 1.0), p11), 0.3, 0.2, 0.2)
        assert v <= free_density(p11, 0.3, 0.0, 0.0).value * (1 + 1e-12)

    def test_ball_composition_at_origin(self, p11):
        v = heat_kernel_profile(survival_profile(Ball((0.0,), 1.0), p11), 1.0, 0.0, 0.0)
        assert v == pytest.approx(1.0 / math.pi, rel=1e-9)

    def test_halfspace_long_time_decay_scan(self, p11):
        dom_h = HalfSpace((1.0,))
        values = [
            heat_kernel_profile(survival_profile(dom_h, p11), t, 1.0, 2.0)
            for t in np.geomspace(1.0, 1e4, 12)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_bracket_type(self, p11):
        v = heat_kernel_profile(survival_profile(Ball((0.0,), 1.0), p11), 0.5, 0.1, -0.3)
        assert isinstance(v, float)


@settings(max_examples=30, deadline=None)
@given(t=st.floats(1e-3, 1e3), x=st.floats(-0.999, 0.999))
def test_ball_profile_bounds_property(t, x):
    prof = survival_profile(Ball((0.0,), 1.0), StableParams(1, 1.2))
    v = prof.evaluate(t, (x,))
    assert 0.0 <= v <= 1.0
