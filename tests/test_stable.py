import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import levy_stable

from stableheat import (
    DensityEval,
    StableParams,
    free_density,
    free_density_radial,
    incomplete_kernel_integral,
    levy_constant,
    levy_symbol_quadrature,
)
from stableheat import stable
from stableheat.errors import UnsupportedRegimeError
from stableheat.stable import _p1_fast, _p1_point, _tail_terms


def cauchy_1d(t, z):
    return t / (math.pi * (t * t + z * z))


def cauchy_2d(t, z):
    return math.gamma(1.5) / math.pi ** 1.5 * t / (t * t + z * z) ** 1.5


class TestParams:
    def test_rejects_gaussian_endpoint(self):
        with pytest.raises(ValueError):
            StableParams(1, 2.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 2.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            StableParams(1, alpha)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            StableParams(0, 1.0)

    def test_density_eval_invariants(self):
        with pytest.raises(ValueError):
            DensityEval(-1.0, 0.0)
        with pytest.raises(ValueError):
            DensityEval(1.0, math.inf)


class TestLevyDensity:
    def test_cauchy_coefficient(self, p11):
        # A_{1,1} = 1/pi, cross-checked against the Cauchy jump intensity
        assert levy_constant(p11) * 2.0 ** -2 == pytest.approx(1.0 / (4 * math.pi), rel=1e-14)

    @pytest.mark.parametrize("d,alpha", [(1, 0.5), (1, 1.0), (1, 1.5), (2, 0.5), (3, 1.5)])
    def test_symbol_normalization(self, d, alpha):
        params = StableParams(d, alpha)
        for xi in (0.5, 1.0, 2.0):
            v = levy_symbol_quadrature(params, xi)
            assert v == pytest.approx(xi ** alpha, rel=1e-4)


class TestFreeDensity:
    def test_cauchy_1d_values(self, p11):
        ev = free_density(p11, 1.0, 0.0, 0.0)
        assert ev.value == pytest.approx(1 / math.pi, rel=1e-10)
        ev = free_density(p11, 4.0, 0.0, 2.0)
        assert ev.value == pytest.approx(1 / (5 * math.pi), rel=1e-10)

    def test_cauchy_2d_value(self, p21):
        ev = free_density(p21, 1.0, (0, 0), (0, 0))
        assert ev.value == pytest.approx(1 / (2 * math.pi), rel=1e-10)

    def test_cauchy_grids(self, p11, p21):
        worst = 0.0
        for t in np.geomspace(0.05, 50, 7):
            for z in np.geomspace(0.01, 100, 7):
                got = free_density(p11, t, 0.0, z).value
                worst = max(worst, abs(got - cauchy_1d(t, z)) / cauchy_1d(t, z))
                got2 = free_density(p21, t, (0, 0), (z, 0)).value
                worst = max(worst, abs(got2 - cauchy_2d(t, z)) / cauchy_2d(t, z))
        assert worst < 1e-8

    def test_against_independent_1d_implementation(self):
        # scipy's stable pdf is an unrelated numerical route
        for alpha in (0.6, 1.5, 1.9):
            params = StableParams(1, alpha)
            for z in (0.0, 0.3, 2.0, 8.0):
                got = free_density(params, 1.0, 0.0, z).value
                ref = levy_stable.pdf(z, alpha, 0)
                assert got == pytest.approx(ref, rel=5e-7)

    def test_rejects_nonpositive_time(self, p11):
        with pytest.raises(ValueError):
            free_density(p11, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            free_density(p11, -1.0, 0.0, 1.0)

    @pytest.mark.parametrize("t,x,y", [(math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0),
                                       (1.0, math.nan, 1.0), (1.0, 0.0, -math.inf)])
    def test_rejects_non_finite_input(self, p11, t, x, y):
        with pytest.raises(ValueError):
            free_density(p11, t, x, y)

    def test_distance_does_not_overflow(self, p11):
        # |y - x|^2 overflows here, the distance itself does not
        t, z = 1e200, 3e200
        ev = free_density(p11, t, 0.0, z)
        assert ev.value == pytest.approx(1.0 / (10.0 * math.pi * t), rel=1e-10)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -1.0])
    def test_point_evaluator_rejects_bad_radius(self, r):
        with pytest.raises(ValueError):
            _p1_point(1, 1.0, r)

    def test_point_evaluator_raises_where_every_route_misses(self):
        # the unit-time density underflows and the quadrature has no digit left
        with pytest.raises(UnsupportedRegimeError):
            _p1_point(1, 1.0, 1e200)

    @pytest.mark.parametrize("d", [1, 2])
    def test_tiny_time_against_the_cauchy_closed_forms(self, d):
        # p_1 underflows at r = 1e200 although p_t = 3.18e-201 is representable
        t = 1e-200
        ev = free_density(StableParams(d, 1.0), t, (0.0,) * d, (1.0,) + (0.0,) * (d - 1))
        exact = {1: cauchy_1d, 2: cauchy_2d}[d](t, 1.0)
        assert ev.value == pytest.approx(exact, rel=1e-9, abs=0)
        assert ev.rel_err <= 1e-9

    @pytest.mark.parametrize("d, t, z", [(1, 1e-200, 1.0), (2, 1e-250, 3.0), (3, 1e-280, 0.5)])
    def test_tiny_time_matches_the_levy_density(self, d, t, z):
        # p_t(z) = t nu(z) (1 + O(t)) with nu(z) = A z^{-d-alpha}
        params = StableParams(d, 1.5)
        ev = free_density(params, t, (0.0,) * d, (z,) + (0.0,) * (d - 1))
        assert ev.value == pytest.approx(t * levy_constant(params) * z ** (-d - 1.5), rel=1e-9,
                                         abs=0)

    def test_tiny_time_whose_scaling_overflows(self):
        # t^{-1/alpha} = 1e600 overflows; p_t(1) ~ t nu(1) does not, p_t(0) does
        params = StableParams(1, 0.5)
        ev = free_density(params, 1e-300, 0.0, 1.0)
        assert ev.value == pytest.approx(1e-300 * levy_constant(params), rel=1e-9, abs=0)
        with pytest.raises(UnsupportedRegimeError, match="out of the float range"):
            free_density(params, 1e-300, 0.0, 0.0)

    def test_symmetry_exact(self, p15):
        a = free_density(p15, 0.7, 0.3, -0.8).value
        b = free_density(p15, 0.7, -0.8, 0.3).value
        assert a == b

    def test_self_similarity_residual(self, p15):
        d, a = 1, 1.5
        for t in (0.01, 1.0, 100.0):
            for z in (0.2, 1.0, 30.0):
                lhs = free_density(p15, t, 0.0, z).value
                rhs = t ** (-d / a) * free_density(p15, 1.0, 0.0, z * t ** (-1 / a)).value
                assert abs(lhs - rhs) <= 1e-10 * lhs

    @pytest.mark.parametrize(
        "d,alpha", [(d, a) for d in (1, 2, 3) for a in (0.5, 1.0, 1.5)]
    )
    def test_normalization(self, d, alpha):
        params = StableParams(d, alpha)
        sd = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
        f = lambda r: _p1_point(d, alpha, r)[0] * r ** (d - 1)
        v1, _ = integrate.quad(f, 0, 2.0, limit=200)
        v2, _ = integrate.quad(f, 2.0, np.inf, limit=200)
        assert sd * (v1 + v2) == pytest.approx(1.0, abs=1e-6)

    def test_peak_constant_matches_quadrature(self):
        # the 2^{1-d} prefactor, checked against direct Fourier inversion
        for d, alpha in ((1, 1.3), (2, 0.8), (3, 1.5)):
            sd = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
            v, _ = integrate.quad(
                lambda u: math.exp(-(u ** alpha)) * u ** (d - 1), 0, np.inf, limit=200
            )
            assert _p1_point(d, alpha, 0.0)[0] == pytest.approx(
                sd * v / (2 * math.pi) ** d, rel=1e-12
            )

    def test_reported_rel_err(self, p15):
        ev = free_density(p15, 1.0, 0.0, 3.0)
        assert ev.rel_err <= 1e-8

    def test_fast_path_matches_scalar(self, p15):
        radii = np.geomspace(0.01, 50.0, 40)
        fast = free_density_radial(p15, 2.0, radii)
        for r, v in zip(radii, fast):
            ref = free_density(p15, 2.0, 0.0, r).value
            assert v == pytest.approx(ref, rel=1e-6)

    def test_fast_path_pairs_times_with_radii(self, p15):
        times = np.geomspace(0.05, 20.0, 40)
        radii = np.geomspace(0.01, 50.0, 40)
        fast = free_density_radial(p15, times, radii)
        for t, r, v in zip(times, radii, fast):
            assert v == pytest.approx(free_density(p15, t, 0.0, r).value, rel=1e-6)
        with pytest.raises(ValueError, match="time must be positive"):
            free_density_radial(p15, np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="time must be positive"):
            free_density_radial(p15, np.array([1.0, math.nan]), np.array([1.0, 1.0]))

    # alpha < 1: the tail terms at the table's switch radius grow before
    # they fall, which once cut the table's tail to its leading term nu(r).
    # At alpha = 1 the table is the Cauchy closed form, and the reference
    # is the point evaluator's 1e-9.
    @pytest.mark.parametrize("d,alpha,tol", [(1, 0.7, 1e-8), (2, 0.7, 1e-8), (3, 0.7, 1e-8),
                                             (1, 0.9, 1e-8), (2, 1.0, 1e-9), (3, 1.0, 1e-9)])
    def test_fast_table_matches_scalar_head_and_tail(self, d, alpha, tol):
        radii = np.concatenate([np.linspace(0.0, 5.0, 41), np.geomspace(5.0, 200.0, 30)])
        fast = free_density_radial(StableParams(d, alpha), 1.0, radii)
        ref = np.array([_p1_point(d, alpha, float(r))[0] for r in radii])
        assert np.max(np.abs(fast / ref - 1.0)) <= tol

    # the table sums its tail by Horner's rule from the terms at its switch
    # radius; summed one by one from the shared coefficients, out to
    # 1e8 zstar, the two agree to 1e-10
    @pytest.mark.parametrize("d,alpha", [(1, 1.1), (2, 1.5), (3, 0.7), (3, 0.85), (1, 0.5)])
    def test_table_tail_matches_its_terms_summed_one_by_one(self, d, alpha):
        fast = _p1_fast(d, alpha)
        lead = -(0.5 * d + 1) * math.log(math.pi)
        lnr = np.log(np.geomspace(fast.zstar, 1e8 * fast.zstar, 200)[1:])
        ref = 0.0
        for k, (c, sg) in enumerate(_tail_terms(d, alpha)[: len(fast._tail_b)], 1):
            ref = ref + (sg if k % 2 == 1 else -sg) * np.exp(c + lead - (d + k * alpha) * lnr)
        assert np.max(np.abs(fast(np.exp(lnr)) / ref - 1.0)) <= 1e-10

    # the quadrature once returned DBL_MAX at this radius, and the spline
    # node built from it put the table off by a factor of 17 near r = 6.17
    def test_quadrature_overflow_is_not_a_density_value(self):
        r = 6.145707563061857
        assert _p1_point(1, 1.6, r)[0] == pytest.approx(levy_stable.pdf(r, 1.6, 0), rel=5e-7)
        radii = np.linspace(6.0, 6.3, 61)
        fast = free_density_radial(StableParams(1, 1.6), 1.0, radii)
        ref = np.array([_p1_point(1, 1.6, float(x))[0] for x in radii])
        assert np.max(np.abs(fast / ref - 1.0)) <= 1e-7

    # the probes sit at every 22nd spline interval, so they miss a bad node
    # between them; the nodes must decrease, and a node 16x too large
    # rises 16x over its neighbour, which puts max_rel_err at sqrt(16) - 1
    def test_a_bad_node_between_the_probes_is_flagged(self, monkeypatch):
        node = np.linspace(0.0, _p1_fast(1, 1.1).zstar, stable.TABLE_NODES)[11]
        point = stable._p1_point

        def bad_at_node(d, alpha, r, *args):
            v, rel = point(d, alpha, r, *args)
            return (16.0 * v if r == node else v), rel

        monkeypatch.setattr(stable, "_p1_point", bad_at_node)
        with pytest.warns(RuntimeWarning, match="relative accuracy"):
            table = stable._P1Fast(1, 1.1)
        assert table.max_rel_err >= 1.0

    # a factorization sweep asks for each (t, |y - x|) in its kernel
    # estimate and again in its report; the second ask is a cache hit
    def test_a_repeated_point_is_evaluated_once(self):
        params = StableParams(1, 1.37)
        before = _p1_point.cache_info()
        first = free_density(params, 0.7, 0.0, 0.413)
        again = free_density(params, 0.7, 0.413, 0.0)
        after = _p1_point.cache_info()
        assert again == first
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)

    # the Cauchy densities; just past the spline and tail table's switch
    # radius its truncated tail once read 4.8e-6 (d = 1) to 3.4e-4 (d = 3)
    # off them, and the table read up to 4.5e-10 off them before alpha = 1
    # became the closed form
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fast_cauchy_table_matches_the_closed_forms(self, d):
        radii = np.concatenate([np.linspace(0.0, 5.0, 2001), np.geomspace(5.0, 1e6, 400)[1:]])
        q = 1.0 + radii * radii
        exact = {1: 1.0 / (math.pi * q), 2: 1.0 / (2.0 * math.pi * q ** 1.5),
                 3: 1.0 / (math.pi ** 2 * q * q)}[d]
        fast = free_density_radial(StableParams(d, 1.0), 1.0, radii)
        assert np.max(np.abs(fast / exact - 1.0)) <= 1e-14

    # at alpha = 1 the table is the closed form: it builds no spline and
    # no tail, so its construction evaluates no point
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_the_cauchy_table_makes_no_point_evaluation(self, d, monkeypatch):
        calls = []
        point = stable._p1_point

        def counted(*args):
            calls.append(args)
            return point(*args)

        monkeypatch.setattr(stable, "_p1_point", counted)
        stable._P1Fast(d, 1.0)
        assert calls == []

    # the point evaluator is the independent oracle: series and tail, and
    # quadrature on the window r in [1, 1.38] where neither series reaches 1e-9
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_the_cauchy_table_matches_the_point_evaluator(self, d):
        radii = np.concatenate([np.linspace(0.0, 5.0, 201), np.linspace(1.0, 1.38, 96),
                                np.geomspace(5.0, 1e6, 120)[1:]])
        fast = stable._P1Fast(d, 1.0)(radii)
        ref = np.array([_p1_point(d, 1.0, float(r))[0] for r in radii])
        assert np.max(np.abs(fast / ref - 1.0)) <= 1e-9

    # max_rel_err at alpha = 1 is the closed form's rounding bound: it holds
    # against the closed form in 50-digit decimal arithmetic, and the build
    # warns of nothing
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_the_cauchy_table_states_its_rounding_bound(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = stable._P1Fast(d, 1.0)
        assert 0.0 < table.max_rel_err <= 1e-14
        radii = np.concatenate([np.linspace(0.0, 5.0, 401), np.geomspace(5.0, 1e60, 200)[1:]])
        with localcontext() as ctx:
            ctx.prec = 50
            pi = Decimal("3.14159265358979323846264338327950288419716939937510")
            peak = {1: 1 / pi, 2: 1 / (2 * pi), 3: 1 / (pi * pi)}[d]
            power = Decimal(-(d + 1)) / 2
            for r, v in zip(radii, table(radii)):
                exact = peak * (1 + Decimal(float(r)) ** 2) ** power
                assert abs(Decimal(float(v)) / exact - 1) <= table.max_rel_err

    # past r = 1.34e154, where r * r overflows, p_1(r) is below the normal range
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_the_cauchy_table_is_zero_where_the_square_overflows(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = stable._P1Fast(d, 1.0)(np.array([1.4e154, 1e300, math.inf]))
        assert values.tolist() == [0.0, 0.0, 0.0]

    # p_1 at the scaled radius 1e160 is below the normal range, so scaling
    # it back by t^{-d} lost every digit: the table gave 0
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fast_density_at_a_tiny_time_against_the_cauchy_closed_forms(self, d):
        t = 1e-160
        exact = {1: cauchy_1d(t, 1.0), 2: cauchy_2d(t, 1.0), 3: t / math.pi ** 2}[d]
        fast = free_density_radial(StableParams(d, 1.0), t, [1.0])
        assert fast[0] == pytest.approx(exact, rel=1e-14, abs=0)

    # the scalar and the vectorized density share one closed form at alpha = 1
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scalar_and_fast_cauchy_densities_agree_bit_for_bit(self, d):
        params = StableParams(d, 1.0)
        times = np.geomspace(1e-200, 1e200, 41)
        radii = np.concatenate([[0.0], np.geomspace(1e-200, 1e200, 41)])
        t, r = (a.ravel() for a in np.meshgrid(times, radii))
        fast = free_density_radial(params, t, r)
        for ti, ri, fi in zip(t, r, fast):
            try:
                v = free_density(params, float(ti), (0.0,) * d, (float(ri),) + (0.0,) * (d - 1))
            except UnsupportedRegimeError:
                assert fi == 0.0 or fi == math.inf
            else:
                assert v.value == fi
                assert v.rel_err == stable._P1Fast(d, 1.0).max_rel_err

    # the closed form keeps its rounding bound at every (t, r) where p_t is
    # in the normal range, in 50-digit decimal arithmetic; below that range
    # it is 0 and above it inf
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_the_cauchy_density_keeps_its_rounding_bound_at_every_scale(self, d):
        bound = stable._P1Fast(d, 1.0).max_rel_err
        times = np.geomspace(1e-300, 1e300, 61) * 1.37
        radii = np.concatenate([[0.0], np.geomspace(1e-300, 1e300, 61) * 0.73])
        t, r = (a.ravel() for a in np.meshgrid(times, radii))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = stable._cauchy(d, t, r)
        tiny, huge = Decimal(2.0 ** -1022), Decimal(np.finfo(float).max)
        with localcontext() as ctx:
            ctx.prec = 50
            pi = Decimal("3.14159265358979323846264338327950288419716939937510")
            peak = {1: 1 / pi, 2: 1 / (2 * pi), 3: 1 / (pi * pi)}[d]
            power = Decimal(-(d + 1)) / 2
            for ti, ri, v in zip(t, r, values):
                ti, ri = Decimal(float(ti)), Decimal(float(ri))
                exact = peak * ti * (ti * ti + ri * ri) ** power
                if exact < tiny * (1 - Decimal(bound)):
                    assert v == 0.0
                elif exact > huge * (1 + Decimal(bound)):
                    assert v == math.inf
                elif tiny * (1 + Decimal(bound)) < exact < huge * (1 - Decimal(bound)):
                    assert abs(Decimal(float(v)) / exact - 1) <= bound


class TestFreeDensityBound:
    @pytest.mark.parametrize("d,alpha", [(1, 1.0), (2, 1.5), (1, 0.5)])
    def test_two_sided_comparison_stable_under_refinement(self, d, alpha):
        params = StableParams(d, alpha)

        def measured_c(nt, nz):
            c = 1.0
            for t in np.geomspace(0.01, 100, nt):
                for z in np.geomspace(0.05, 50, nz):
                    x = np.zeros(d)
                    x[0] = z
                    # the sharp-order comparator min(t |z|^(-d-alpha), t^(-d/alpha))
                    bound = min(t * z ** (-d - alpha), t ** (-d / alpha))
                    ratio = free_density(params, t, np.zeros(d), x).value / bound
                    c = max(c, ratio, 1.0 / ratio)
            return c

        c1 = measured_c(12, 12)
        c2 = measured_c(24, 24)
        assert math.isfinite(c2)
        assert abs(c2 - c1) <= 0.10 * c1 + 1e-9

    def test_doubling_constant(self, p15):
        d, a = 1, 1.5
        bound = 2 ** (1 + (d + a) / a)
        worst = 1.0
        for t in np.geomspace(0.01, 100, 8):
            for z in np.geomspace(0.05, 50, 8):
                r1 = free_density(p15, t, 0.0, z).value
                r2 = free_density(p15, 2 * t, 0.0, z).value
                worst = max(worst, r1 / r2, r2 / r1)
        assert worst <= bound


class TestIncompleteKernelIntegral:
    def test_arctan_case(self):
        assert incomplete_kernel_integral(0.5, 1.0, 1.0) == pytest.approx(
            math.pi / 2, rel=1e-11
        )

    def test_empty_integral(self):
        assert incomplete_kernel_integral(0.7, 0.3, 0.0) == 0.0

    def test_asinh_case(self):
        assert incomplete_kernel_integral(0.5, 0.5, 3.0) == pytest.approx(
            2 * math.log(math.sqrt(3.0) + 2.0), rel=1e-11
        )

    def test_beta_limit(self):
        ref = math.gamma(0.75) * math.gamma(0.25) / math.gamma(1.0)
        # finite-w value approaches the Beta limit minus the analytic
        # remainder int_w^inf s^{a-1}(1+s)^{-b} ds ~ w^{a-b}/(b-a)
        w = 1e14
        remainder = w ** (-0.25) / 0.25
        assert incomplete_kernel_integral(0.75, 1.0, w) == pytest.approx(
            ref - remainder, rel=1e-7
        )
        assert incomplete_kernel_integral(0.75, 1.0, math.inf) == pytest.approx(ref, rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            incomplete_kernel_integral(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            incomplete_kernel_integral(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            incomplete_kernel_integral(1.0, 1.0, -0.1)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(0.1, 1.5),
        b=st.floats(0.1, 2.0),
        w1=st.floats(0.0, 20.0),
        w2=st.floats(0.0, 20.0),
    )
    def test_monotone_in_upper_limit(self, a, b, w1, w2):
        lo, hi = sorted((w1, w2))
        assert incomplete_kernel_integral(a, b, lo) <= incomplete_kernel_integral(
            a, b, hi
        ) + 1e-12


def test_levy_constant_against_tail_limit():
    # p_t(z) -> t nu(z) as |z| grows: leading tail coefficient equals A
    params = StableParams(1, 0.7)
    z = 2000.0
    tail = free_density(params, 1.0, 0.0, z).value
    assert tail == pytest.approx(levy_constant(params) * z ** (-1.7), rel=1e-2)
