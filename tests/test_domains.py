import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

from stableheat import domains as dom


BALL = dom.Ball((0.0,), 1.0)
HS = dom.HalfSpace((0.0, 1.0))
EXT = dom.ExteriorBall((0.0,), 1.0)
CONE = dom.CircularCone(math.pi / 4, (0.0, 0.0, 1.0))
HALF_CONE = dom.CircularCone(math.pi / 2, (0.0, 1.0))
HYP = dom.HyperplaneComplement(2)
SLIP = dom.SpecialLipschitz(((-5.0, 0.0), (0.0, 0.0), (1.0, 1.0), (5.0, 1.0)), 1.0)
IC = dom.IntervalComplement(((-1.0, 1.0), (2.0, 3.0)))
ANN = dom.BallUnionExteriorBall((0.0,), 1.0, 3.0)

CATALOG = [BALL, HS, EXT, CONE, HALF_CONE, HYP, SLIP, IC, ANN]


class TestDistance:
    def test_ball(self):
        assert dom.dist_to_complement(dom.Ball((0.0,), 1.0), 0.25) == pytest.approx(0.75)

    def test_exterior_ball(self):
        assert dom.dist_to_complement(EXT, 3.0) == pytest.approx(2.0)

    def test_hyperplane_complement(self):
        assert dom.dist_to_complement(HYP, (5.0, -0.3)) == pytest.approx(0.3)

    def test_boundary_gives_zero(self):
        assert dom.dist_to_complement(BALL, 1.0) == 0.0
        assert dom.dist_to_complement(BALL, 1.5) == 0.0

    def test_lipschitz_graph_distance(self):
        # above the flat part the nearest boundary point is vertical
        assert dom.dist_to_complement(SLIP, (-2.0, 0.5)) == pytest.approx(0.5)
        # above the unit-slope segment the distance picks up 1/sqrt(2)
        assert dom.dist_to_complement(SLIP, (0.5, 1.5)) == pytest.approx(
            1.0 / math.sqrt(2), rel=1e-12
        )

    def test_cone_halfaperture_pi_2_is_halfspace(self):
        for p in [(0.3, 0.4), (2.0, 1.0), (-1.0, 0.5)]:
            assert dom.dist_to_complement(HALF_CONE, p) == pytest.approx(
                max(p[1], 0.0), rel=1e-12
            )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sq_dist_repeats_the_row_sums_of_squares_bit_for_bit(d):
    # walk-on-spheres outputs stay bit-identical only because these agree
    rng = np.random.default_rng(d)
    special = (1e200, -1e200, 1e-200, 5e-324, -2.5e-320, 0.0, -0.0, np.inf, -np.inf, np.nan)
    grid = np.array(list(itertools.product(special, repeat=d)))
    spread = rng.standard_normal((4096, d)) * 10.0 ** rng.integers(-150, 151, (4096, d))
    P = np.vstack([grid, spread, rng.standard_normal((4096, d))])
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for c in (rng.standard_normal(d), np.zeros(d), np.full(d, 1e200)):
            want = np.sum((P - c) ** 2, axis=1)
            assert np.array_equal(dom._sq_dist(P, c), want, equal_nan=True)
        norm = np.linalg.norm(P, axis=1)
        assert np.array_equal(np.sqrt(dom._sq_dist(P, 0)), norm, equal_nan=True)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_norm_takes_again_only_the_finite_rows_whose_square_overflows(d):
    special = (1e200, -1e200, 1e-200, 0.0, 3.0, np.inf, -np.inf, np.nan)
    P = np.array(list(itertools.product(special, repeat=d)))
    for c in (np.zeros(d), np.full(d, 0.5)):
        with np.errstate(over="ignore", invalid="ignore"):
            plain = np.sqrt(dom._sq_dist(P, c))
            got = dom._norm(P, c)
        again = (plain == math.inf) & np.all(np.isfinite(P), axis=1)
        assert again.any()
        assert np.array_equal(got[~again], plain[~again], equal_nan=True)
        want = [math.hypot(*(row - c)) for row in P[again]]
        np.testing.assert_allclose(got[again], want, rtol=5e-16, atol=0)


@pytest.mark.parametrize("domain, x, want", [
    (dom.ExteriorBall((0.5,), 1.25), (1e200,), 1e200),
    (dom.ExteriorBall((0.0, 0.0), 1.0), (1e200, -1e200), math.sqrt(2.0) * 1e200),
    (dom.BallUnionExteriorBall((0.0,), 1.0, 3.0), (-3e200,), 3e200),
    (dom.CircularCone(math.pi / 4, (0.0, 0.0, 1.0)), (0.0, 0.0, 2e200),
     math.sqrt(2.0) * 1e200),
], ids=["exterior_ball_d1", "exterior_ball_d2", "ball_union_exterior_ball", "cone"])
def test_distance_where_the_squared_norm_overflows(domain, x, want):
    # |x - c|^2 overflowed to inf: the exterior distances read inf and the
    # cone put its axis point outside at distance 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dom.dist_to_complement(domain, x) == pytest.approx(want, rel=1e-15, abs=0)
        assert dom.contains(domain, x) == (want > 0)


class TestContains:
    def test_halfspace_boundary_open(self):
        assert not dom.contains(HS, (3.0, 0.0))

    def test_interval_complement(self):
        assert dom.contains(dom.IntervalComplement(((-1.0, 1.0),)), 2.0)
        assert not dom.contains(IC, 2.5)

    def test_annulus_gap(self):
        assert not dom.contains(ANN, 2.0)
        assert dom.contains(ANN, 0.5)
        assert dom.contains(ANN, 4.0)

    @pytest.mark.parametrize("domain", CATALOG, ids=lambda d: type(d).__name__)
    def test_membership_iff_positive_distance(self, domain):
        rng = np.random.default_rng(7)
        d = dom.dim(domain)
        pts = rng.uniform(-4, 4, size=(400, d))
        inside = dom.contains_many(domain, pts)
        dists = dom.dist_many(domain, pts)
        assert np.array_equal(inside, dists > 0)


class TestFatWitness:
    def test_ball_boundary_point(self):
        w = dom.fat_witness(BALL, 1.0, 1.0)
        assert w.kappa == pytest.approx(0.5)
        assert w.center[0] == pytest.approx(0.5)

    def test_halfspace(self):
        w = dom.fat_witness(HS, (2.0, 0.0), 1.0)
        assert w.kappa == pytest.approx(0.5)
        assert w.center == pytest.approx((2.0, 0.5))

    def test_special_lipschitz_constant(self):
        w = dom.fat_witness(SLIP, (0.5, 0.5 + 1e-9), 1.0)
        assert w.kappa == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))

    def test_ball_absent_at_oversized_scale(self):
        assert dom.fat_witness(BALL, 1.0, 10.0) is None

    def test_interval_complement_picks_reachable_component(self):
        w = dom.fat_witness(IC, 1.5, 0.4)
        assert w is not None
        assert 1.0 < w.center[0] < 2.0

    WITNESS_CASES = [
        (BALL, (0.9,), 0.5),
        (BALL, (0.0,), 1.5),
        (HS, (1.0, 0.2), 2.0),
        (EXT, (2.0,), 1.0),
        (CONE, (0.0, 0.0, 1.0), 0.8),
        (CONE, (0.3, 0.0, 1.0), 0.5),
        (HALF_CONE, (0.5, 0.1), 1.0),
        (HYP, (3.0, -0.2), 1.0),
        (SLIP, (0.5, 1.2), 1.0),
        (IC, (1.5,), 0.4),
        (IC, (5.0,), 2.0),
        (ANN, (0.5,), 0.7),
        (ANN, (4.0,), 2.0),
    ]

    @pytest.mark.parametrize("domain,x,r", WITNESS_CASES)
    def test_witness_ball_containment_by_rejection(self, domain, x, r):
        w = dom.fat_witness(domain, x, r)
        assert w is not None
        rng = np.random.default_rng(13)
        d = dom.dim(domain)
        z = rng.standard_normal((10_000, d))
        z /= np.linalg.norm(z, axis=1)[:, None]
        u = rng.random(10_000) ** (1.0 / d)
        pts = np.asarray(w.center) + (w.kappa * r) * (1 - 1e-12) * u[:, None] * z
        assert dom.contains_many(domain, pts).all()
        assert (np.linalg.norm(pts - np.atleast_1d(np.asarray(x, float)), axis=1) < r).all()

    @pytest.mark.parametrize("domain,x,r", WITNESS_CASES)
    def test_witness_dominates_distance(self, domain, x, r):
        # delta(A) >= c (r v delta(x)) with the variant's declared constant
        w = dom.fat_witness(domain, x, r)
        c = dom.declared_kappa(domain) / 2.0
        da = dom.dist_to_complement(domain, w.center)
        dx = dom.dist_to_complement(domain, x)
        assert da >= c * max(r, dx) - 1e-12


@pytest.mark.parametrize(
    "domain, expected",
    [(HS, True), (HALF_CONE, True), (dom.CircularCone(math.pi / 3, (0.0, 1.0)), False),
     (BALL, False), (EXT, False), (IC, False)],
    ids=["halfspace", "right_cone", "cone_pi_3", "ball", "exterior_ball",
         "interval_complement"],
)
def test_is_half_space(domain, expected):
    assert dom.is_half_space(domain) is expected


class TestComplementDiameter:
    def test_values(self):
        assert dom.complement_diameter(EXT) == 2.0
        assert dom.complement_diameter(IC) == 4.0
        assert dom.complement_diameter(ANN) == 6.0
        assert dom.complement_diameter(BALL) == math.inf


class TestSerialization:
    @pytest.mark.parametrize(
        "domain",
        [BALL, HS, EXT, CONE, HYP, SLIP, IC, ANN],
        ids=lambda d: type(d).__name__,
    )
    def test_round_trip(self, domain):
        doc = dom.domain_to_dict(domain)
        back = dom.domain_from_dict(doc)
        assert back == domain

    @pytest.mark.parametrize(
        "v", [(1.0, 2.0), (1.0, 1.0, 0.0), (1.0, -2.0, 2.0), (0.3, 0.1, 0.7)], ids=str
    )
    def test_round_trip_with_a_non_axis_direction(self, v):
        for domain in (dom.HalfSpace(v, 0.5), dom.CircularCone(1.0, v)):
            doc = json.loads(json.dumps(dom.domain_to_dict(domain)))
            back = dom.domain_from_dict(doc)
            assert back == domain

    def test_dimension_validation(self):
        doc = {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}
        with pytest.raises(ValueError):
            dom.domain_from_dict(doc, expect_dim=1)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            dom.domain_from_dict({"type": "moebius"})

    def test_missing_field(self):
        with pytest.raises(ValueError):
            dom.domain_from_dict({"type": "ball", "center": [0.0]})

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"type": "ball", "center": [0], "radius": "nan"}, "radius"),
            ({"type": "ball", "center": [0], "radius": True}, "radius"),
            ({"type": "ball", "center": [0, "1"], "radius": 1}, "center"),
            ({"type": "halfspace", "axis": [0, 1], "offset": float("nan")}, "offset"),
            ({"type": "cone", "angle": 1, "axis": [0, 1], "beta": "0.3"}, "beta"),
            ({"type": "cone", "angle": 1, "axis": [0, 1], "beta": None}, "beta"),
            ({"type": "hyperplane_complement", "dim": "2"}, "dim"),
            ({"type": "special_lipschitz", "breakpoints": [[0, 0], [1, "1"]],
              "lipschitz_constant": 1}, "breakpoints"),
            ({"type": "interval_complement", "intervals": [["-inf", "0"]]}, "intervals"),
            ({"type": "interval_complement", "intervals": [[False, True]]}, "intervals"),
        ],
        ids=lambda v: v if isinstance(v, str) else v["type"],
    )
    def test_a_field_that_is_not_numbers_is_refused_by_name(self, doc, key):
        # each was once taken as given, converted by float() or int(), or ended
        # in a TypeError
        with pytest.raises(ValueError, match=f"domain field '{key}' must be a finite number"):
            dom.domain_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, key, shape",
        [
            ({"type": "ball", "center": [0], "radius": [1]}, "radius", "a finite number,"),
            ({"type": "halfspace", "axis": [0, 1], "offset": [[0]]}, "offset",
             "a finite number,"),
            ({"type": "hyperplane_complement", "dim": [2]}, "dim", "a finite number,"),
            ({"type": "special_lipschitz", "breakpoints": [[0, 0], [1, 0]],
              "lipschitz_constant": [1]}, "lipschitz_constant", "a finite number,"),
            ({"type": "ball_union_exterior_ball", "center": [0], "inner_radius": 1,
              "outer_radius": [[2]]}, "outer_radius", "a finite number,"),
            ({"type": "halfspace", "axis": [[0], [1]]}, "axis", "a finite number per coordinate,"),
            ({"type": "cone", "angle": 1, "axis": [[0, 1]]}, "axis",
             "a finite number per coordinate,"),
            ({"type": "ball", "center": [[0, 0]], "radius": 1}, "center",
             "a finite number per coordinate,"),
            ({"type": "exterior_ball", "center": 0, "radius": 1}, "center",
             "a finite number per coordinate,"),
            ({"type": "interval_complement", "intervals": [[[0, 1]]]}, "intervals",
             "a finite number per coordinate of each pair,"),
            ({"type": "interval_complement", "intervals": [0, 1]}, "intervals",
             "a finite number per coordinate of each pair,"),
            ({"type": "interval_complement", "intervals": [[0, 1, 2]]}, "intervals",
             "a finite number per coordinate of each pair,"),
            ({"type": "special_lipschitz", "breakpoints": [[0, 0], [1]],
              "lipschitz_constant": 1}, "breakpoints",
             "a finite number per coordinate of each pair,"),
        ],
        ids=["radius", "offset", "dim", "lipschitz_constant", "outer_radius", "halfspace_axis",
             "cone_axis", "center_too_deep", "center_scalar", "intervals_too_deep",
             "intervals_flat", "interval_of_three", "breakpoint_of_one"],
    )
    def test_a_field_nested_unlike_its_shape_is_refused_by_name(self, doc, key, shape):
        # a number field is one number, a point one list of numbers, and
        # intervals and breakpoints a list of pairs; each of these ended in
        # a TypeError, was read anyway, or failed with a message naming no field
        with pytest.raises(ValueError, match=re.escape(f"domain field '{key}' must be {shape}")):
            dom.domain_from_dict(doc)


class TestValidation:
    def test_interval_overlap_rejected(self):
        with pytest.raises(ValueError):
            dom.IntervalComplement(((0.0, 2.0), (1.0, 3.0)))

    def test_annulus_ordering(self):
        with pytest.raises(ValueError):
            dom.BallUnionExteriorBall((0.0,), 2.0, 1.0)

    def test_lipschitz_slope_check(self):
        with pytest.raises(ValueError):
            dom.SpecialLipschitz(((0.0, 0.0), (1.0, 5.0)), 1.0)

    def test_cone_angle_range(self):
        with pytest.raises(ValueError):
            dom.CircularCone(0.0, (1.0, 0.0))
