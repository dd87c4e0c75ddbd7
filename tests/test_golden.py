"""Fixed-seed golden values for the domain catalog, the exact samplers,
the grid walk, the estimators, the ratio sweeps, the boundary-Harnack
report, the point evaluator and fast table of the free density, the
survival-profile catalog, the report files that ``verify`` writes and the
lines that the other commands print.

The expected values pin the package's outputs bit for bit: arrays by a
sha256 prefix of their bytes, reports and witnesses by a sha256 prefix of
their exact ``repr`` or JSON text, written files by a sha256 prefix of
their bytes, and documents by their exact ``repr``.
A refactor that changes a random stream, the number of draws taken from
a generator, the order of a floating-point operation or the type of a
document field fails here.  The values are not to be edited to follow a
change in the code: a change that moves them is a change in behaviour.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np
import pytest

from stableheat import cli, harness, kernels
from stableheat import domains as dom
from stableheat import montecarlo as mc
from stableheat import stable
from stableheat.stable import StableParams, _p1_point, free_density_radial


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


#: the domain shape of the exit-wos benchmark workload, with a normal whose
#: matmul rounds
TILTED_D2 = dom.Intersection((dom.HalfSpace((0.6, 0.8), 0.0), dom.Ball((0, 0), 1)))

#: name -> (domain, start, index into SAMPLER_PARAMS, path counts drawn in
#: turn from one stream); a single walker keeps all or none at each step
WOS_CASES = {
    "ball_d1": (dom.Ball((0.0,), 1.0), (0.3,), 0, (2000,)),
    "halfspace_d2": (dom.HalfSpace((0.0, 1.0)), (0.2, 0.5), 1, (2000,)),
    "intersection_d3": (
        dom.Intersection((dom.HalfSpace((0.0, 0.0, 1.0)), dom.Ball((0.0, 0.0, 0.0), 1.0))),
        (0.1, 0.0, 0.3),
        2,
        (2000,),
    ),
    "intersection_d2_tilted": (TILTED_D2, (0.1, 0.3), 1, (1, 2000)),
}


def _wos(name):
    domain, x, i, sizes = WOS_CASES[name]
    params = StableParams(*SAMPLER_PARAMS[i])
    rng = _rng(78, i)
    out = []
    for n in sizes:
        out.extend(mc.sample_exit_positions_wos(domain, params, x, rng, n))
    return _digest(*out, rng.random(1))


SURVIVAL_CASES = {
    "ball_d1": (dom.Ball((0.0,), 1.0), StableParams(1, 1.0), (0.2,), None),
    "halfspace_d2": (dom.HalfSpace((0.0, 1.0)), StableParams(2, 1.5), (0.0, 0.3), None),
    "hyperplane_complement_d2": (
        dom.HyperplaneComplement(2), StableParams(2, 1.5), (0.0, 0.5), 0.05),
}


#: name -> (domain, params, start, step, horizon, path counts drawn in turn
#: from one stream, thin, every walker killed)
WALK_CASES = {
    "ball_d1_all_killed": (dom.Ball((0.0,), 1.0), StableParams(1, 1.0), (0.2,), 1.0 / 16, 32.0,
                           (1500,), None, True),
    "halfspace_d2": (dom.HalfSpace((0.0, 1.0)), StableParams(2, 1.5), (0.1, 0.3), 1.0 / 16, 1.0,
                     (1500,), None, False),
    "hyperplane_complement_d2_thin": (dom.HyperplaneComplement(2), StableParams(2, 1.5),
                                      (0.0, 0.5), 1.0 / 16, 1.0, (1500,), 0.05, False),
    "intersection_d3": (
        dom.Intersection((dom.HalfSpace((0.0, 0.0, 1.0)), dom.Ball((0.0, 0.0, 0.0), 1.0))),
        StableParams(3, 0.7), (0.1, 0.0, 0.3), 1.0 / 32, 0.5, (1500,), None, False),
    "intersection_d2_tilted": (TILTED_D2, StableParams(2, 1.5), (0.1, 0.3), 1.0 / 16, 1.0,
                               (1, 2000), None, False),
}


def _walk(name):
    domain, params, x, h, horizon, sizes, thin, all_killed = WALK_CASES[name]
    rng = _rng(79, list(WALK_CASES).index(name))
    out = []
    for m in sizes:
        out.extend(mc._walk_batch(domain, params, np.array(x), h, horizon, rng, m, thin=thin))
    tau, survived = out[-3], out[-1]
    if all_killed:  # the step loop must leave by its early exit
        assert tau.max() < horizon
    else:
        assert survived.any()
    return _digest(*out, rng.random(1))


def _estimates(*ests):
    return _digest(np.array([(e.mean, e.stderr, e.n, e.seed, e.step) for e in ests]))


def _supremum(alpha):
    # the stick-broken supremum with no stop level draws all STICKS sticks
    rng = mc._stream(5, 0)
    return _digest(mc._sample_supremum(alpha, rng, 5000), rng.random(1))


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


#: radii on the ascending-series, tail-series and quadrature routes of the
#: point evaluator
POINT_RADII = (0.0, 0.01, 0.3, 0.9, 1.2, 2.0, 5.0, 20.0, 300.0)


def _point(d, alpha):
    return _sha(repr([_p1_point(d, alpha, r) for r in POINT_RADII]))


def _radial():
    radii = np.linspace(0.0, 6.0, 241)
    return _digest(*(free_density_radial(StableParams(*p), t, radii)
                     for p in SAMPLER_PARAMS for t in (0.3, 1.0, 2.5)))


def _table(d, alpha):
    """The whole fast table, built afresh: its tail cut, head spline,
    tail coefficients and measured error."""
    fast = stable._P1Fast(d, alpha)
    return _digest(np.array(fast.zstar), fast._spline.c, fast._tail_b,
                   np.array(fast.max_rel_err))


# ---------------------------------------------------------------------------
# the survival-profile catalog: every shape, with and without lambda1 (which
# only the ball reads)

PROFILE_KINDS = {
    "ball": lambda d: dom.Ball((0.25,) * d, 2.0),
    "halfspace": lambda d: dom.HalfSpace(tuple(range(1, d + 1)), 0.5),
    "exterior_ball": lambda d: dom.ExteriorBall((0.5,) + (0.0,) * (d - 1), 1.25),
    "cone": lambda d: dom.CircularCone(1.0, (0.0,) * (d - 1) + (1.0,), beta=0.3),
    "right_cone": lambda d: dom.CircularCone(np.pi / 2, (0.0,) * (d - 1) + (1.0,)),
    "hyperplane_complement": dom.HyperplaneComplement,
    "interval_complement": lambda d: dom.IntervalComplement(((-1.0, 0.0), (1.0, 2.5))),
    "special_lipschitz": lambda d: dom.SpecialLipschitz(((-1.0, 0.0), (1.0, 0.5)), 0.5),
    "ball_union_exterior_ball": lambda d: dom.BallUnionExteriorBall((0.0,) * d, 1.0, 2.5),
}
PROFILE_VARIANTS = ({}, {"lambda1": 1.3})
PROFILE_TIMES = np.geomspace(1e-4, 1e4, 17)


def _profile_points(d):
    """11 points in [-2.5, 2.5]^d, the last five on the half-integer grid,
    and one point of the wrong dimension."""
    pts = _rng(2027, d).uniform(-2.5, 2.5, (11, d))
    pts[6:] = np.round(pts[6:] * 2.0) / 2.0
    return [*pts, np.zeros(d + 1)]


def _profile_catalog(kind):
    out = []
    for d in (1, 2, 3):
        domain = PROFILE_KINDS[kind](d)
        for alpha in (0.5, 1.0, 1.5, 1.9):
            for kw in PROFILE_VARIANTS:
                try:
                    prof = kernels.survival_profile(domain, StableParams(d, alpha), **kw)
                except ValueError as exc:
                    out.append(f"{type(exc).__name__}: {exc}")
                    continue
                for t in PROFILE_TIMES:
                    for x in _profile_points(d):
                        try:
                            out.append(prof.evaluate(float(t), x))
                        except ValueError as exc:
                            out.append(f"{type(exc).__name__}: {exc}")
    return _sha(repr(out))


# ---------------------------------------------------------------------------
# ratio sweeps

def _report(rep):
    return _sha(json.dumps(rep.to_json_dict(), sort_keys=True) + repr(rep.cells))


BALL_POINTS = [(-0.5,), (0.0,), (0.6,)]


def _factorization(form, workers):
    pairs = [(p, q) for p in BALL_POINTS for q in BALL_POINTS]
    ball, params = dom.Ball((0.0,), 1.0), StableParams(1, 1.0)
    profile = None
    if form == "profile":
        profile = kernels.survival_profile(ball, params, lambda1=1.1577738836977)
    rep = harness.factorization_sweep(
        ball, params, (0.25, 0.5), pairs, 20_000, 1.0 / 32, 7, workers=workers, profile=profile,
    )
    return _report(rep)


def _profile_sweep():
    rep = harness.profile_sweep(
        kernels.survival_profile(dom.HalfSpace((0.0, 1.0)), StableParams(2, 1.5)), (0.25, 1.0),
        [(0.0, 0.3), (0.5, 1.0)], 20_000, 1.0 / 16, 8,
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
# report files as the CLI writes them

#: suite -> verify arguments; bhp reads BHP_CONFIGS from a config file, and
#: the identity suite, which draws nothing, takes no --seed.  bhp runs at
#: n = 8192, where its cells read rel_stderr 0.17-0.19: at 4096 they sat at
#: 0.23-0.28, about the 0.25 noise threshold, so the stream decided whether
#: a report was written
WRITTEN = {
    "profiles": ["--d", "2", "--alpha", "1.5", "--domain-json",
                 '{"type": "halfspace", "axis": [0, 1]}', "--h", "0.0625", "--n", "4096",
                 "--seed", "5"],
    "factorization": ["--d", "1", "--alpha", "1", "--domain-json",
                      '{"type": "ball", "center": [0], "radius": 1}', "--h", "0.03125",
                      "--n", "4096", "--seed", "5"],
    "bhp": ["--d", "2", "--alpha", "1.5", "--n", "8192", "--seed", "5"],
    "identities": ["--d", "1", "--alpha", "1"],
}


def _written(suite):
    """sha256 prefixes of the JSON and the CSV bytes that ``verify`` writes
    (the identity suite writes no CSV)."""
    with tempfile.TemporaryDirectory() as out:
        argv = ["verify", suite, *WRITTEN[suite], "--out", out]
        if suite == "bhp":
            config = os.path.join(out, "config.json")
            with open(config, "w") as fh:
                json.dump({"configs": BHP_CONFIGS}, fh)
            argv += ["--config", config]
        assert cli.main(argv) == 0
        digests = []
        for ext in ("json",) if suite == "identities" else ("json", "csv"):
            with open(os.path.join(out, f"{suite}.{ext}"), "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest()[:20])
        return " ".join(digests)


# ---------------------------------------------------------------------------
# lines the CLI prints

BALL_1D = '{"type": "ball", "center": [0], "radius": 1}'
HALFSPACE_2D = '{"type": "halfspace", "axis": [0, 1]}'

#: case -> command line; a calibrate case pins only its first line, since
#: the second names the store file
PRINTED = {
    "survival/mc": ["survival", "mc", "--d", "1", "--alpha", "1.5", "--domain-json", BALL_1D,
                    "--x", "0.5", "--t", "0.5", "--n", "4096", "--h", "0.0625", "--seed", "3"],
    "survival/profile": ["survival", "profile", "--d", "1", "--alpha", "1.5",
                         "--domain-json", BALL_1D, "--x", "0.5", "--t", "2",
                         "--lambda1", "1.6"],
    "heatkernel/mc": ["heatkernel", "mc", "--d", "2", "--alpha", "1.5",
                      "--domain-json", HALFSPACE_2D, "--x", "0,0.5", "--y", "0.3,1",
                      "--t", "1", "--n", "4096", "--h", "0.0625", "--seed", "3"],
    "heatkernel/profile": ["heatkernel", "profile", "--d", "1", "--alpha", "1",
                           "--domain-json", BALL_1D, "--x", "0.5", "--y", "-0.25",
                           "--t", "2", "--lambda1", "1.2"],
    "ball/green": ["ball", "green", "--d", "2", "--alpha", "1.5", "--x", "0.2,0.1",
                   "--v", "0.3,-0.4"],
    "ball/poisson": ["ball", "poisson", "--alpha", "0.7", "--x", "1.5", "--y", "3.5",
                     "--center", "1", "--r", "2"],
    "ball/exit-time": ["ball", "exit-time", "--d", "3", "--alpha", "1.2", "--x", "0.1,0,0.3"],
    "ball/tail": ["ball", "tail", "--d", "2", "--alpha", "1.5", "--x", "0.5,0", "--R", "3"],
    "calibrate/lambda1": ["calibrate", "lambda1", "--alpha", "1.5", "--n", "4096",
                          "--h", "0.0625", "--seed", "3"],
    "calibrate/beta": ["calibrate", "beta", "--d", "2", "--alpha", "1.5", "--domain-json",
                       '{"type": "cone", "angle": 1, "axis": [0, 1]}', "--x", "0,1",
                       "--n", "4096", "--h", "0.25", "--seed", "3"],
}


def _printed(case):
    """What ``stableheat`` prints for the command line ``PRINTED[case]``."""
    argv = PRINTED[case]
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()) as buf:
        if argv[0] == "calibrate":
            argv = [*argv, "--calibration-file", os.path.join(out, "calibration.jsonl")]
        assert cli.main(argv) == 0
    text = buf.getvalue()
    return text.splitlines(keepends=True)[0] if argv[0] == "calibrate" else text


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
for _alpha in (0.7, 1.0, 1.5, 1.9):
    CASES[f"supremum/{_alpha}"] = (_supremum, _alpha)
CASES["bhp_sweep"] = (_bhp,)
CASES["estimate/lambda1"] = (_lambda1,)
CASES["estimate/beta_hyperplane_complement_thin"] = (_beta,)
CASES["estimate/heat_kernel"] = (_heat_kernel,)
CASES["free_density_radial"] = (_radial,)
for _d, _alpha in ((1, 1.0), (2, 1.5), (3, 0.7), (1, 0.5)):
    CASES[f"point/{_d}_{_alpha}"] = (_point, _d, _alpha)
for _d, _alpha in ((1, 1.1), (2, 1.5), (3, 0.7), (1, 0.5), (2, 1.9)):
    CASES[f"table/{_d}_{_alpha}"] = (_table, _d, _alpha)
# bit-identical for any worker count: each workers=2 case shares one expected
# value with its workers=1 case, and each runs on a process pool of its own
CASES["factorization/ball_d1/workers1"] = (_factorization, "mc", 1)
CASES["factorization/ball_d1/workers2"] = (_factorization, "mc", 2)
CASES["survival/halfspace_d2/workers2"] = (_survival, "halfspace_d2", 2)
CASES["bhp_sweep/workers2"] = (_bhp, 2)
CASES["factorization/ball_d1/profile"] = (_factorization, "profile", 1)
CASES["profile_sweep/halfspace_d2"] = (_profile_sweep,)
for _kind in PROFILE_KINDS:
    CASES[f"profile/{_kind}"] = (_profile_catalog, _kind)
for _suite in WRITTEN:
    CASES[f"written/{_suite}"] = (_written, _suite)
for _case in PRINTED:
    CASES[f"printed/{_case}"] = (_printed, _case)

EXPECTED = {
    'ball_exit/0/0.0': 'da7fc9667b733f3d88f7',
    'ball_exit/0/0.3': '0fad1c3690b4954fdb27',
    'ball_exit/0/0.99': '9810e904e11e43754830',
    'ball_exit/1/0.0': 'b5f02b2c0957839565f3',
    'ball_exit/1/0.3': '6af473a9ba0032f7fa9f',
    'ball_exit/1/0.99': 'a5a57c481bf64db80ee5',
    'ball_exit/2/0.0': 'b69cda63920abe310a64',
    'ball_exit/2/0.3': '24bcf029616c35ccfc02',
    'ball_exit/2/0.99': '95cae28e13a140a504f7',
    'bhp_sweep': 'e8ed95cd5d3aa24648bb',
    'bhp_sweep/workers2': 'e8ed95cd5d3aa24648bb',
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
    'estimate/heat_kernel': '6255910a300a863d057a',
    'estimate/lambda1': 'c480ab83b044431b9a13',
    'factorization/ball_d1/profile': '6147990ab1bdc07308cc',
    'factorization/ball_d1/workers1': '56010e5a8994e126e012',
    'factorization/ball_d1/workers2': '56010e5a8994e126e012',
    'free_density_radial': 'ea4e376739d798bfa857',
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
    'point/1_0.5': 'd000aeb272ed2984cae8',
    'point/1_1.0': 'f500219a967a6621467c',
    'point/2_1.5': 'c9554ddc4ade85446d31',
    'point/3_0.7': '667bb66310689b485989',
    'printed/ball/exit-time': '0.387274654\n',
    'printed/ball/green': '0.159947043\n',
    'printed/ball/poisson': '0.169569632\n',
    'printed/ball/tail': '0.0489166522 bracket 0.0345155086 0.0671590131\n',
    'printed/calibrate/beta': 'beta 1.15030236 stderr 0.0348171863 seed 3 n 4096\n',
    'printed/calibrate/lambda1': 'lambda1 1.327862 stderr 0.0286242214 seed 3 n 4096\n',
    'printed/heatkernel/mc': 'mean 0.0608402056 stderr 0.000417473278 n 4096 seed 3 h 0.0625\n',
    'printed/heatkernel/profile': '0.00775150663\n',
    'printed/survival/mc': 'mean 0.509765625 stderr 0.00781100974 n 4096 seed 3 h 0.0625\n',
    'printed/survival/profile': '0.120048388\n',
    'profile/ball': '4c0021c210c71c625e6a',
    'profile/ball_union_exterior_ball': '6e0e7c21f65b01826bd7',
    'profile/cone': '58e9e0bfe0f7ff81623b',
    'profile/exterior_ball': '801eff6c8d9f5dc09157',
    'profile/halfspace': '600a762d10c6a19b5ba0',
    'profile/hyperplane_complement': '071f9bef604d6d463d6d',
    'profile/interval_complement': '95692f0d81593518e4b8',
    'profile/right_cone': 'd2fa6451ed317d889de0',
    'profile/special_lipschitz': 'd4687892c5f441c6501f',
    'profile_sweep/halfspace_d2': '497e121ecfe7c55a0713',
    'supremum/0.7': '2d9bc71398ad565e8559',
    'supremum/1.0': '4d44986b28db303e10e2',
    'supremum/1.5': 'c8431e617e1f55ba5141',
    'supremum/1.9': 'df3d825699df0d436c31',
    'survival/ball_d1': 'e7463559bc0214c56ee7',
    'survival/halfspace_d2': '7b7c8cb2dd1de41e2061',
    'survival/halfspace_d2/workers2': '7b7c8cb2dd1de41e2061',
    'survival/hyperplane_complement_d2': 'c80a734c0bd4d87234c3',
    'table/1_0.5': '15952d7f2d09c18c900c',
    'table/1_1.1': '109f7300c524f6f6ff8f',
    'table/2_1.5': '0483c39aeffd1236391e',
    'table/2_1.9': 'b3c0376029d505d58083',
    'table/3_0.7': '55c5ac5b278e386a1471',
    'walk/ball_d1_all_killed': 'a792fedbf1e8985b8c85',
    'walk/halfspace_d2': 'f7fad2f7de1204ff80b5',
    'walk/hyperplane_complement_d2_thin': '10afc8c9a914a5fb5ba4',
    'walk/intersection_d2_tilted': '4be3f58e74d59711cf37',
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
    'wos/ball_d1': '04ddb755c619f48203fd',
    'wos/halfspace_d2': '47ba634ecf44edc116f0',
    'wos/intersection_d2_tilted': '7fe8fbeaa38aeddf1a7c',
    'wos/intersection_d3': 'fd52a83550fbf382a538',
    'written/bhp': '0ca1720d99bfedee2b16 323021f68e9bd8e2332c',
    'written/factorization': 'fe8e5f255ed429c49b96 cbc5a6067fc725771b1b',
    'written/identities': '64bc9bf0b1163fe7c4df',
    'written/profiles': '6756b7bc341ba85bc55b c2ba7edb72d412c041fb',
}


def test_every_case_has_an_expected_value():
    assert set(CASES) == set(EXPECTED)


@pytest.mark.parametrize("case", list(CASES))
def test_golden(case):
    fn, *args = CASES[case]
    assert fn(*args) == EXPECTED[case]
