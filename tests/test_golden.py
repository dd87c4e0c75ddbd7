"""Fixed-seed golden values for the domain catalog, the exact samplers,
the grid walk, the estimators, the ratio sweeps and the boundary-Harnack
report.

The expected values pin the package's outputs bit for bit: arrays by a
sha256 prefix of their bytes, reports and witnesses by a sha256 prefix of
their exact ``repr`` or JSON text, and documents by their exact ``repr``.
A refactor that changes a random stream, the number of draws taken from
a generator, the order of a floating-point operation or the type of a
document field fails here.  The values are not to be edited to follow a
change in the code: a change that moves them is a change in behaviour.
"""

import hashlib
import json

import numpy as np
import pytest

from stableheat import cli, harness
from stableheat import domains as dom
from stableheat import montecarlo as mc
from stableheat.stable import StableParams, free_density_radial


def _rng(*key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:20]


# ---------------------------------------------------------------------------
# domain catalog: one instance per variant (two cones, acute and obtuse)

DOMAINS = {
    "ball": dom.Ball((0.5, -0.25), 1.5),
    "halfspace": dom.HalfSpace((1.0, 2.0), 0.5),
    "exterior_ball": dom.ExteriorBall((0.0, 0.0, 0.5), 1.0),
    "cone": dom.CircularCone(1.0, (0.0, 0.0, 1.0)),
    "cone_obtuse": dom.CircularCone(2.0, (1.0, 1.0, 0.0), beta=0.4),
    "hyperplane_complement": dom.HyperplaneComplement(2),
    "special_lipschitz": dom.SpecialLipschitz(((-1.0, 0.0), (0.0, 0.5), (1.0, 0.0)), 0.5),
    "interval_complement": dom.IntervalComplement(((-1.0, 0.0), (1.0, 2.5))),
    "ball_union_exterior_ball": dom.BallUnionExteriorBall((0.0, 0.0), 1.0, 2.5),
    "intersection": dom.Intersection((dom.HalfSpace((0.0, 1.0)), dom.Ball((0.0, 0.5), 2.0))),
}


def _cloud(d: int) -> np.ndarray:
    """400 points in [-3, 3]^d; the second half sits on the half-integer
    grid, so many of its points lie exactly on a boundary."""
    pts = _rng(2026, d).uniform(-3.0, 3.0, (400, d))
    pts[200:] = np.round(pts[200:] * 2.0) / 2.0
    return pts


def _geometry(name):
    domain = DOMAINS[name]
    pts = _cloud(dom.dim(domain))
    return _digest(dom.contains_many(domain, pts), dom.dist_many(domain, pts))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _witnesses(name):
    domain = DOMAINS[name]
    pts = _cloud(dom.dim(domain))
    inside = [p for p in pts if dom.dist_to_complement(domain, p) > 0][:12]
    out = [_outcome(dom.declared_kappa, domain)]
    for x in inside:
        for r in (0.1, 0.7, 3.0):
            out.append(_outcome(dom.fat_witness, domain, x, r))
    return _sha(repr(out))


def _document(name):
    domain = DOMAINS[name]
    try:
        doc = dom.domain_to_dict(domain)
    except TypeError as exc:
        return f"TypeError: {exc}"
    back = dom.domain_from_dict(json.loads(json.dumps(doc)), expect_dim=dom.dim(domain))
    return f"{doc!r} -> {back!r}"


#: documents as they arrive from JSON, with integer values where a float
#: field is expected
DOCS = {
    "ball": ('{"type": "ball", "center": [0, 1], "radius": 1}', None),
    "halfspace": ('{"type": "halfspace", "axis": [0, 2]}', None),
    "exterior_ball": ('{"type": "exterior_ball", "center": [1], "radius": 2}', 1),
    "cone": ('{"type": "cone", "angle": 1, "axis": [0, 0, 1], "beta": 1}', None),
    "hyperplane_complement": ('{"type": "hyperplane_complement"}', 3),
    "special_lipschitz": (
        '{"type": "special_lipschitz", "breakpoints": [[1, 1], [0, 0]], '
        '"lipschitz_constant": 1}', None),
    "interval_complement": (
        '{"type": "interval_complement", "intervals": [[2, 3], [-1, 0]]}', None),
    "ball_union_exterior_ball": (
        '{"type": "ball_union_exterior_ball", "center": [0, 0], "inner_radius": 1, '
        '"outer_radius": 3, "extra": "ignored"}', 2),
    "missing_field": ('{"type": "ball", "center": [0]}', None),
    "unknown_type": ('{"type": "torus"}', None),
    "wrong_dim": ('{"type": "ball", "center": [0, 0], "radius": 1}', 3),
}


def _parsed(name):
    text, expect_dim = DOCS[name]
    try:
        domain = dom.domain_from_dict(json.loads(text), expect_dim=expect_dim)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return repr(dom.domain_to_dict(domain))


# ---------------------------------------------------------------------------
# exact samplers and the grid walk

SAMPLER_PARAMS = ((1, 1.0), (2, 1.5), (3, 0.7))


def _ball_exit(i, rho):
    d, alpha = SAMPLER_PARAMS[i]
    rng = _rng(77, 10 * i + int(100 * rho))
    center = np.full(d, 0.1)
    x = center.copy()
    x[0] += rho
    pos = mc.sample_ball_exit_positions(StableParams(d, alpha), center, 1.0, x, rng, 2000)
    return _digest(pos, rng.random(1))


WOS_CASES = {
    "ball_d1": (dom.Ball((0.0,), 1.0), (0.3,), 0),
    "halfspace_d2": (dom.HalfSpace((0.0, 1.0)), (0.2, 0.5), 1),
    "intersection_d3": (
        dom.Intersection((dom.HalfSpace((0.0, 0.0, 1.0)), dom.Ball((0.0, 0.0, 0.0), 1.0))),
        (0.1, 0.0, 0.3),
        2,
    ),
}


def _wos(name):
    domain, x, i = WOS_CASES[name]
    params = StableParams(*SAMPLER_PARAMS[i])
    rng = _rng(78, i)
    pos, steps = mc.sample_exit_positions_wos(domain, params, x, rng, 2000)
    return _digest(pos, steps, rng.random(1))


SURVIVAL_CASES = {
    "ball_d1": (dom.Ball((0.0,), 1.0), StableParams(1, 1.0), (0.2,), None),
    "halfspace_d2": (dom.HalfSpace((0.0, 1.0)), StableParams(2, 1.5), (0.0, 0.3), None),
    "hyperplane_complement_d2": (
        dom.HyperplaneComplement(2), StableParams(2, 1.5), (0.0, 0.5), 0.05),
}


#: name -> (domain, params, start, step, horizon, paths, thin, every walker killed)
WALK_CASES = {
    "ball_d1_all_killed": (dom.Ball((0.0,), 1.0), StableParams(1, 1.0), (0.2,), 1.0 / 16, 32.0,
                           1500, None, True),
    "halfspace_d2": (dom.HalfSpace((0.0, 1.0)), StableParams(2, 1.5), (0.1, 0.3), 1.0 / 16, 1.0,
                     1500, None, False),
    "hyperplane_complement_d2_thin": (dom.HyperplaneComplement(2), StableParams(2, 1.5),
                                      (0.0, 0.5), 1.0 / 16, 1.0, 1500, 0.05, False),
    "intersection_d3": (
        dom.Intersection((dom.HalfSpace((0.0, 0.0, 1.0)), dom.Ball((0.0, 0.0, 0.0), 1.0))),
        StableParams(3, 0.7), (0.1, 0.0, 0.3), 1.0 / 32, 0.5, 1500, None, False),
}


def _walk(name):
    domain, params, x, h, horizon, m, thin, all_killed = WALK_CASES[name]
    rng = _rng(79, list(WALK_CASES).index(name))
    tau, pos, survived = mc._walk_batch(domain, params, np.array(x), h, horizon, rng, m, thin=thin)
    if all_killed:  # the step loop must leave by its early exit
        assert tau.max() < horizon
    else:
        assert survived.any()
    return _digest(tau, pos, survived, rng.random(1))


def _estimates(*ests):
    return _digest(np.array([(e.mean, e.stderr, e.n, e.seed, e.step) for e in ests]))


def _survival(name, workers=1):
    domain, params, x, thin = SURVIVAL_CASES[name]
    curve = mc.survival_curve(
        domain, params, x, (0.25, 0.5, 1.0), 10_000, 1.0 / 16, 5, workers, thin=thin
    )
    return _estimates(*curve)


def _lambda1():
    return _estimates(mc.estimate_lambda1(StableParams(1, 1.0), 1.0, n=20_000, h=1.0 / 32,
                                          rng_seed=3))


def _beta():
    est = mc.estimate_beta(StableParams(2, 1.5), dom.HyperplaneComplement(2), (0.0, 1.0),
                           fit_window=(1.0, 16.0), n=20_000, h=1.0 / 16, rng_seed=4, thin=0.2)
    return _estimates(est)


def _heat_kernel():
    est = mc.estimate_heat_kernel(dom.Ball((0.0,), 1.0), StableParams(1, 1.0), (0.2,), (-0.3,),
                                  0.5, 20_000, 1.0 / 32, 6)
    return _estimates(est)


def _radial():
    radii = np.linspace(0.0, 6.0, 241)
    return _digest(*(free_density_radial(StableParams(*p), t, radii)
                     for p in SAMPLER_PARAMS for t in (0.3, 1.0, 2.5)))


# ---------------------------------------------------------------------------
# ratio sweeps

def _report(rep):
    return _sha(json.dumps(rep.to_json_dict(), sort_keys=True) + repr(rep.cells))


BALL_POINTS = [(-0.5,), (0.0,), (0.6,)]


def _factorization(form, workers):
    pairs = [(p, q) for p in BALL_POINTS for q in BALL_POINTS]
    rep = harness.factorization_sweep(
        dom.Ball((0.0,), 1.0), StableParams(1, 1.0), (0.25, 0.5), pairs, 20_000, 1.0 / 32, 7,
        form=form, workers=workers, lambda1=1.1577738836977,
    )
    return _report(rep)


def _profile_sweep():
    rep = harness.profile_sweep(
        dom.HalfSpace((0.0, 1.0)), StableParams(2, 1.5), (0.25, 1.0), [(0.0, 0.3), (0.5, 1.0)],
        20_000, 1.0 / 16, 8,
    )
    return _report(rep)


#: the configurations of the exit-wos benchmark workload
BHP_CONFIGS = [
    {"domain": {"type": "halfspace", "axis": [0, 1]}, "x0": [0, 0], "r": 1, "p": 0.5,
     "x1": [0, 0.1], "x2": [0.2, 0.3],
     "target1": {"type": "box", "lo": [-4, 1.2], "hi": [0, 4]},
     "target2": {"type": "box", "lo": [0, 1.2], "hi": [4, 4]}},
    {"domain": {"type": "halfspace", "axis": [0, 1]}, "x0": [0, 0], "r": 2, "p": 0.5,
     "x1": [-0.5, 0.2], "x2": [0.5, 0.6],
     "target1": {"type": "ball", "center": [-3, 2], "radius": 1.5},
     "target2": {"type": "ball", "center": [3, 2], "radius": 1.5}},
    {"domain": {"type": "halfspace", "axis": [0, 1]}, "x0": [1, 0], "r": 0.5, "p": 0.5,
     "x1": [1, 0.05], "x2": [1.1, 0.2],
     "target1": {"type": "box", "lo": [0, 0.6], "hi": [1, 2]},
     "target2": {"type": "box", "lo": [1, 0.6], "hi": [2, 2]}},
]


def _bhp(workers=1):
    configs = [cli._parse_bhp_config(c) for c in BHP_CONFIGS]
    return _report(harness.bhp_sweep(configs, StableParams(2, 1.5), 16384, 9, workers))


# ---------------------------------------------------------------------------

CASES = {}
for _name in DOMAINS:
    CASES[f"geometry/{_name}"] = (_geometry, _name)
    CASES[f"witness/{_name}"] = (_witnesses, _name)
    CASES[f"document/{_name}"] = (_document, _name)
for _name in DOCS:
    CASES[f"parsed/{_name}"] = (_parsed, _name)
for _i in range(len(SAMPLER_PARAMS)):
    for _rho in (0.0, 0.3, 0.99):
        CASES[f"ball_exit/{_i}/{_rho}"] = (_ball_exit, _i, _rho)
for _name in WOS_CASES:
    CASES[f"wos/{_name}"] = (_wos, _name)
for _name in WALK_CASES:
    CASES[f"walk/{_name}"] = (_walk, _name)
for _name in SURVIVAL_CASES:
    CASES[f"survival/{_name}"] = (_survival, _name)
CASES["bhp_sweep"] = (_bhp,)
CASES["estimate/lambda1"] = (_lambda1,)
CASES["estimate/beta_hyperplane_complement_thin"] = (_beta,)
CASES["estimate/heat_kernel"] = (_heat_kernel,)
CASES["free_density_radial"] = (_radial,)
# bit-identical for any worker count: each workers=2 case shares one expected
# value with its workers=1 case; listed after the first of them, they run
# on the worker pool that it started
CASES["factorization/ball_d1/workers1"] = (_factorization, "mc", 1)
CASES["factorization/ball_d1/workers2"] = (_factorization, "mc", 2)
CASES["survival/halfspace_d2/workers2"] = (_survival, "halfspace_d2", 2)
CASES["bhp_sweep/workers2"] = (_bhp, 2)
CASES["factorization/ball_d1/profile"] = (_factorization, "profile", 1)
CASES["profile_sweep/halfspace_d2"] = (_profile_sweep,)

EXPECTED = {
    'ball_exit/0/0.0': '56c0121fc1dc32b3502e',
    'ball_exit/0/0.3': 'f93f4c492b0d56132824',
    'ball_exit/0/0.99': '87128f39938dcbe4504a',
    'ball_exit/1/0.0': '45f7e32196675608c270',
    'ball_exit/1/0.3': '44fabbca28a9b085df0b',
    'ball_exit/1/0.99': 'ca6fab9c040bae573a30',
    'ball_exit/2/0.0': '2ef64824758a96241719',
    'ball_exit/2/0.3': '8aec36961e3487acaabf',
    'ball_exit/2/0.99': '63704ee85bc11ad32a8d',
    'bhp_sweep': '9695d59fead4201f31ec',
    'bhp_sweep/workers2': '9695d59fead4201f31ec',
    'document/ball': "{'type': 'ball', 'center': [0.5, -0.25], 'radius': 1.5} -> Ball(center=(0.5, -0.25), radius=1.5)",
    'document/ball_union_exterior_ball': "{'type': 'ball_union_exterior_ball', 'center': [0.0, 0.0], 'inner_radius': 1.0, 'outer_radius': 2.5} -> BallUnionExteriorBall(center=(0.0, 0.0), inner_radius=1.0, outer_radius=2.5)",
    'document/cone': "{'type': 'cone', 'angle': 1.0, 'axis': [np.float64(0.0), np.float64(0.0), np.float64(1.0)]} -> CircularCone(angle=1.0, axis=(np.float64(0.0), np.float64(0.0), np.float64(1.0)), beta=None)",
    'document/cone_obtuse': "{'type': 'cone', 'angle': 2.0, 'axis': [np.float64(0.7071067811865475), np.float64(0.7071067811865475), np.float64(0.0)], 'beta': 0.4} -> CircularCone(angle=2.0, axis=(np.float64(0.7071067811865475), np.float64(0.7071067811865475), np.float64(0.0)), beta=0.4)",
    'document/exterior_ball': "{'type': 'exterior_ball', 'center': [0.0, 0.0, 0.5], 'radius': 1.0} -> ExteriorBall(center=(0.0, 0.0, 0.5), radius=1.0)",
    'document/halfspace': "{'type': 'halfspace', 'axis': [np.float64(0.4472135954999579), np.float64(0.8944271909999159)], 'offset': 0.5} -> HalfSpace(normal=(np.float64(0.4472135954999579), np.float64(0.8944271909999159)), offset=0.5)",
    'document/hyperplane_complement': "{'type': 'hyperplane_complement', 'dim': 2} -> HyperplaneComplement(dim=2)",
    'document/intersection': 'TypeError: cannot serialize Intersection',
    'document/interval_complement': "{'type': 'interval_complement', 'intervals': [[-1.0, 0.0], [1.0, 2.5]]} -> IntervalComplement(intervals=((-1.0, 0.0), (1.0, 2.5)))",
    'document/special_lipschitz': "{'type': 'special_lipschitz', 'breakpoints': [[-1.0, 0.0], [0.0, 0.5], [1.0, 0.0]], 'lipschitz_constant': 0.5} -> SpecialLipschitz(breakpoints=((-1.0, 0.0), (0.0, 0.5), (1.0, 0.0)), lipschitz_constant=0.5)",
    'estimate/beta_hyperplane_complement_thin': '39f8f6128b77c4ca66bd',
    'estimate/heat_kernel': 'ccdab380cc35c8879945',
    'estimate/lambda1': '6f339343c20bb50188e2',
    'factorization/ball_d1/profile': 'a53f4c76f4832f5687eb',
    'factorization/ball_d1/workers1': '296c40b002088dd295bc',
    'factorization/ball_d1/workers2': '296c40b002088dd295bc',
    'free_density_radial': '4c8e6944f0e073fe2d52',
    'geometry/ball': '600ce111d72673668fc2',
    'geometry/ball_union_exterior_ball': 'ec077829e1c83a1ff1cf',
    'geometry/cone': 'f248b4e9392508f3d722',
    'geometry/cone_obtuse': '5d7ceedb9492fd48ec95',
    'geometry/exterior_ball': '9155af8e79d56534f968',
    'geometry/halfspace': '456e92c503dca427e207',
    'geometry/hyperplane_complement': 'ae581e32923826a551fe',
    'geometry/intersection': '4c1e19f336cfe6d8b427',
    'geometry/interval_complement': '03e5e571d6003869ce76',
    'geometry/special_lipschitz': 'a86202e92dc367a5451d',
    'parsed/ball': "{'type': 'ball', 'center': [0.0, 1.0], 'radius': 1.0}",
    'parsed/ball_union_exterior_ball': "{'type': 'ball_union_exterior_ball', 'center': [0.0, 0.0], 'inner_radius': 1.0, 'outer_radius': 3.0}",
    'parsed/cone': "{'type': 'cone', 'angle': 1.0, 'axis': [np.float64(0.0), np.float64(0.0), np.float64(1.0)], 'beta': 1}",
    'parsed/exterior_ball': "{'type': 'exterior_ball', 'center': [1.0], 'radius': 2.0}",
    'parsed/halfspace': "{'type': 'halfspace', 'axis': [np.float64(0.0), np.float64(1.0)], 'offset': 0.0}",
    'parsed/hyperplane_complement': "{'type': 'hyperplane_complement', 'dim': 3}",
    'parsed/interval_complement': "{'type': 'interval_complement', 'intervals': [[-1.0, 0.0], [2.0, 3.0]]}",
    'parsed/missing_field': "ValueError: domain document for 'ball' is missing field 'radius'",
    'parsed/special_lipschitz': "{'type': 'special_lipschitz', 'breakpoints': [[0.0, 0.0], [1.0, 1.0]], 'lipschitz_constant': 1.0}",
    'parsed/unknown_type': "ValueError: unknown domain type 'torus'",
    'parsed/wrong_dim': 'ValueError: domain has dimension 2, expected 3',
    'profile_sweep/halfspace_d2': 'f7da9df2f94916589ab1',
    'survival/ball_d1': '6342a3c0fda1e0eed8d2',
    'survival/halfspace_d2': 'dd6713501ad222dd7a2f',
    'survival/halfspace_d2/workers2': 'dd6713501ad222dd7a2f',
    'survival/hyperplane_complement_d2': 'c80a734c0bd4d87234c3',
    'walk/ball_d1_all_killed': '492b4b22ecf4a673b494',
    'walk/halfspace_d2': 'f7fad2f7de1204ff80b5',
    'walk/hyperplane_complement_d2_thin': '10afc8c9a914a5fb5ba4',
    'walk/intersection_d3': '659f657d785322fcb3f9',
    'witness/ball': '32eff36babc23e6bd219',
    'witness/ball_union_exterior_ball': 'c093ed67cce76df80846',
    'witness/cone': 'e0aee77c4555a33e0be5',
    'witness/cone_obtuse': '7e8ebf658f1721e4f551',
    'witness/exterior_ball': '914682114a081cf25117',
    'witness/halfspace': '83c41dc7f0c00c82e139',
    'witness/hyperplane_complement': 'c5b06a68c96bbf9a0821',
    'witness/intersection': '90d67a514b580d2703f0',
    'witness/interval_complement': 'f8d4d4da673161136d48',
    'witness/special_lipschitz': 'e666899af4466d5caee6',
    'wos/ball_d1': 'bb407d6ca1807c6424a6',
    'wos/halfspace_d2': 'c4e107577a7da3328179',
    'wos/intersection_d3': 'cc1ab5f0d7b742779dba',
}


def test_every_case_has_an_expected_value():
    assert set(CASES) == set(EXPECTED)


@pytest.mark.parametrize("case", list(CASES))
def test_golden(case):
    fn, *args = CASES[case]
    assert fn(*args) == EXPECTED[case]
