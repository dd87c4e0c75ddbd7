"""Command-line driver: kernel evaluation, estimators, verification
sweeps and calibration.

Every leaf of ``density``, ``ball green|poisson|exit-time|tail``, ``survival
mc|profile``, ``heatkernel mc|profile``, ``verify identities|factorization|
profiles|bhp`` and ``calibrate lambda1|beta`` is a subcommand with a function
of its own that declares exactly the options its function reads, in full
spelling: the parser refuses any other option, and a missing required one,
with exit 2.  ``verify factorization`` refuses --lambda1 and --beta by hand
without --profile-form.  JSON documents (--domain, --domain-json, --config)
must hold only numbers that are finite as floats.

Exit status: 0 success/pass, 1 verification or fit failure, 2
configuration or domain error, 3 inconclusive (a sweep too noisy, or an
estimate outside its known sign or bounds).  All numeric output is
printed with 9 significant digits, locale-independent.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import calibration
from . import domains as dom
from . import harness, kernels
from . import montecarlo as mc
from .errors import EstimateDiagnostic, FitError, InconclusiveError
from .stable import StableParams, free_density


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def _parse_vec(s: str) -> tuple:
    """Numbers separated by commas or blanks (a point or a list of horizons);
    at least one is required."""
    try:
        vals = tuple(float(p) for p in s.replace(",", " ").split())
    except ValueError as exc:
        raise ValueError(f"cannot parse numbers from {s!r}") from exc
    if not vals:
        raise ValueError(f"cannot parse numbers from {s!r}")
    return vals


def _finite(convert):
    """json parse hook: ``convert(s)`` if a float holds ``s`` as a finite number."""
    def parse(s: str):
        if not math.isfinite(float(s)):
            raise ValueError(f"{s[:16]}{'...' * (len(s) > 16)} is not a finite number")
        return convert(s)

    return parse


def _read_json(what: str, path=None, text=None):
    """The JSON document in the file ``path``, or in ``text``.  A number that no
    finite float holds (NaN, Infinity, 1e999, a 400-digit integer) is an error."""
    try:
        if path is not None:
            with open(path) as fh:
                text = fh.read()
        return json.loads(text, parse_float=_finite(float), parse_int=_finite(int),
                          parse_constant=_finite(float))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {what}: {exc}") from exc


def _positive(convert):
    """argparse ``type=`` that accepts only finite values above zero."""
    def parse(s: str):
        v = convert(s)
        if not 0 < v < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {s!r}")
        return v

    parse.__name__ = convert.__name__
    return parse


def _params(args) -> StableParams:
    return StableParams(args.d, args.alpha)


def _params_domain(args) -> tuple:
    """The parameters, and the domain in R^d of --domain or --domain-json."""
    params = _params(args)
    if args.domain:
        doc = _read_json(f"domain document {args.domain!r}", path=args.domain)
    elif args.domain_json:
        doc = _read_json("inline domain document", text=args.domain_json)
    else:
        raise ValueError("a domain is required (--domain FILE or --domain-json JSON)")
    return params, dom.domain_from_dict(doc, expect_dim=params.d)


def _profile(args, domain, params) -> kernels.SurvivalProfile:
    """The profile of ``domain`` built from --lambda1 and --beta."""
    return kernels.survival_profile(domain, params, beta=args.beta, lambda1=args.lambda1)


@contextlib.contextmanager
def _overflow(option: str, value: float):
    """Turn an OverflowError of the block into an error that names ``option``."""
    try:
        yield
    except OverflowError as exc:
        raise ValueError(f"the value overflows a float at {option} {value!r}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_density(args) -> int:
    params = _params(args)
    ev = free_density(params, args.t, _parse_vec(args.x), _parse_vec(args.y))
    print(f"value {_fmt(ev.value)} rel_err {_fmt(ev.rel_err)}")
    return 0


def _finite_point(args, name: str, d: int) -> tuple:
    """The point given as ``--name``: d coordinates, every one finite."""
    v = _parse_vec(getattr(args, name))
    if not all(map(math.isfinite, v)):
        raise ValueError(f"--{name} must have finite coordinates, got {getattr(args, name)!r}")
    if len(v) != d:
        raise ValueError(f"--{name} needs {d} coordinates (--d), got {getattr(args, name)!r}")
    return v


def _ball(args, *names) -> tuple:
    """The parameters, --center (the origin if not given) and the points of
    the options ``names`` of a ball command, each with d finite coordinates."""
    params = _params(args)
    center = _finite_point(args, "center", params.d) if args.center else (0.0,) * params.d
    return (params, center, *(_finite_point(args, name, params.d) for name in names))


def _print_ball(args, kernel, *names) -> int:
    """Print ``kernel(params, center, --r, *points)`` for the points of ``names``."""
    params, center, *points = _ball(args, *names)
    with _overflow("--r", args.r):
        print(_fmt(kernel(params, center, args.r, *points)))
    return 0


def _cmd_ball_green(args) -> int:
    return _print_ball(args, kernels.ball_green, "x", "v")


def _cmd_ball_poisson(args) -> int:
    return _print_ball(args, kernels.ball_poisson, "x", "y")


def _cmd_ball_exit_time(args) -> int:
    return _print_ball(args, kernels.expected_exit_time_ball, "x")


def _cmd_ball_tail(args) -> int:
    params, center, x = _ball(args, "x")
    # the tail is scale-free: answer for the unit ball at (x - c)/r, R/r
    xs = (np.asarray(x) - np.asarray(center)) / args.r
    R = args.R / args.r
    if not float(np.linalg.norm(xs)) < 1.0:
        raise ValueError(f"--x must lie in the open ball B(--center, --r), got {args.x!r}")
    if not R >= 2.0:
        raise ValueError(f"--R, the tail threshold, must be at least 2 --r, got {args.R!r}")
    with _overflow("--R", args.R):
        exact = kernels.ball_exit_tail_exact(params, xs, R)
        br = kernels.ball_exit_tail(params, xs, R)
    print(f"{_fmt(exact)} bracket {_fmt(br.lower)} {_fmt(br.upper)}")
    return 0


def _print_estimate(est: mc.MCEstimate) -> int:
    print(f"mean {_fmt(est.mean)} stderr {_fmt(est.stderr)} n {est.n} "
          f"seed {est.seed} h {_fmt(est.step)}")
    return 0


def _cmd_survival_mc(args) -> int:
    params, domain = _params_domain(args)
    x = _parse_vec(args.x)
    return _print_estimate(mc.survival_curve(domain, params, x, (args.t,), args.n, args.h,
                                             args.seed, args.workers)[0])


def _cmd_survival_profile(args) -> int:
    params, domain = _params_domain(args)
    x = _parse_vec(args.x)
    print(_fmt(_profile(args, domain, params).evaluate(args.t, x)))
    return 0


def _cmd_heatkernel_mc(args) -> int:
    params, domain = _params_domain(args)
    x, y = _parse_vec(args.x), _parse_vec(args.y)
    return _print_estimate(mc.estimate_heat_kernel(domain, params, x, y, args.t, args.n,
                                                   args.h, args.seed, args.workers))


def _cmd_heatkernel_profile(args) -> int:
    params, domain = _params_domain(args)
    x, y = _parse_vec(args.x), _parse_vec(args.y)
    print(_fmt(kernels.heat_kernel_profile(_profile(args, domain, params), args.t, x, y)))
    return 0


def _default_points(domain: dom.Domain) -> list:
    """Probe points per variant, respecting the near-boundary cap."""
    if isinstance(domain, (dom.Ball, dom.ExteriorBall)):
        inside = isinstance(domain, dom.Ball)
        c = np.asarray(domain.center)
        out = []
        for f in (-0.95, -0.5, 0.0, 0.5, 0.95) if inside else (1.05, 1.5, 2.0, 4.0, 8.0):
            p = c.copy()
            p[0] += f * domain.radius
            out.append(tuple(p))
        return out
    if isinstance(domain, dom.HalfSpace):
        n = np.asarray(domain.normal)
        base = domain.offset * n
        return [tuple(base + hgt * n) for hgt in (0.05, 0.25, 1.0, 4.0, 16.0)]
    if isinstance(domain, dom.CircularCone):
        u = np.asarray(domain.axis)
        return [tuple(s * u) for s in (0.5, 1.0, 2.0, 4.0)]
    if isinstance(domain, dom.HyperplaneComplement):
        u = np.eye(dom.dim(domain))[-1]
        return [tuple(s * u) for s in (0.5, 1.0, 2.0)]
    if isinstance(domain, dom.IntervalComplement):
        lo = domain.intervals[0][0]
        hi = domain.intervals[-1][1]
        span = max(hi - lo, 1.0)
        return [(hi + f * span,) for f in (0.25, 0.5, 1.0, 2.0)]
    raise ValueError(f"no default probe grid for {type(domain).__name__}")


def _default_times(domain: dom.Domain, alpha: float, h: float) -> tuple:
    """Default horizons per variant on the step grid, max(round(t/h), 1) h, without repeats."""
    diam = dom.complement_diameter(domain)
    if math.isfinite(diam) and diam > 0:
        base = diam ** alpha
        times = (0.5 * base, 2 * base, 8 * base, 32 * base)
    elif isinstance(domain, dom.Ball):
        ra = domain.radius ** alpha
        times = (0.125 * ra, 0.25 * ra, 0.5 * ra, ra)
    else:
        times = (1.0, 16.0, 256.0)
    return tuple(dict.fromkeys(max(round(t / h), 1) * h for t in times))


def _cmd_identities(args) -> int:
    if not 0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be finite and nonnegative, got {args.tol!r}")
    rep = harness.verify_identities(_params(args), tol=args.tol)
    for line in rep.lines():
        print(line)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "identities.json"), "w") as fh:
        json.dump(rep.to_json_dict(), fh, indent=2)
        fh.write("\n")
    return 0 if rep.passed else 1


def _sweep_grid(args) -> tuple:
    """The parameters, domain, horizons and probe points of a factorization or
    profile sweep."""
    params, domain = _params_domain(args)
    t_set = _parse_vec(args.t) if args.t else _default_times(domain, params.alpha, args.h)
    if not all(0 < t < math.inf for t in t_set):
        raise ValueError(f"--t must list positive finite horizons, got {args.t!r}")
    if args.points:
        pts = [_parse_vec(p) for p in args.points.split(";")]
    else:
        pts = _default_points(domain)
    # a repeat would double its cells in the report and its weight in the quantiles
    for option, given, values in (("--t", args.t, t_set), ("--points", args.points, pts)):
        if len(set(values)) < len(values):
            raise ValueError(f"{option} must not list a value twice, got {given!r}")
    return params, domain, t_set, pts


def _write_sweep(args, rep, suite: str) -> int:
    jpath, cpath = harness.write_report(rep, args.out, suite)
    print(f"empirical_C {_fmt(rep.empirical_C)} cells {len(rep.cells)} "
          f"noisy {rep.stderr_flags}")
    print(f"report {jpath}")
    print(f"cells {cpath}")
    return 0


def _cmd_factorization(args) -> int:
    params, domain, t_set, pts = _sweep_grid(args)
    given = " or ".join(f"--{k}" for k in ("lambda1", "beta") if getattr(args, k) is not None)
    if given and not args.profile_form:
        raise ValueError(f"this command uses no closed survival profile, so it takes no {given}")
    prof = _profile(args, domain, params) if args.profile_form else None
    pairs = [(p, q) for p in pts for q in pts]
    rep = harness.factorization_sweep(
        domain, params, t_set, pairs, args.n, args.h, args.seed, args.workers, prof
    )
    return _write_sweep(args, rep, "factorization")


def _cmd_profiles(args) -> int:
    params, domain, t_set, pts = _sweep_grid(args)
    prof = _profile(args, domain, params)
    rep = harness.profile_sweep(prof, t_set, pts, args.n, args.h, args.seed, args.workers)
    return _write_sweep(args, rep, "profiles")


def _cmd_bhp(args) -> int:
    params = _params(args)
    doc = _read_json(f"bhp config {args.config!r}", path=args.config)
    if not isinstance(doc, dict) or not isinstance(doc.get("configs"), list) or not doc["configs"]:
        raise ValueError("verify bhp needs a non-empty \"configs\" list")
    try:
        configs = [_parse_bhp_config(c, params.d) for c in doc["configs"]]
    except KeyError as exc:
        raise ValueError(f"bhp config is missing the key {exc}") from None
    rep = harness.bhp_sweep(configs, params, args.n, args.seed, args.workers)
    jpath, _ = harness.write_report(rep, args.out, "bhp")
    print(f"empirical_C {_fmt(rep.empirical_C)}")
    print(f"report {jpath}")
    return 0


def _number(value) -> float:
    """``value`` as a float if it is a finite JSON number, else NaN, so that the
    caller's range check refuses it with a message that names the key, as
    ``domain_from_dict`` refuses text, booleans and null in a domain document."""
    return float(value) if dom._doc_shape(value, 0) else math.nan


def _point(doc: dict, key: str, d: int, name: str) -> tuple:
    """``doc[key]`` as given, once it is checked to be d finite numbers."""
    if not (dom._doc_shape(doc[key], 1) and len(doc[key]) == d):
        raise ValueError(f"{name} must be a list of {d} finite numbers, got {doc[key]!r}")
    return tuple(doc[key])


def _object(doc, name: str) -> dict:
    """``doc``, once it is checked to be a JSON object."""
    if not isinstance(doc, dict):
        raise ValueError(f"malformed bhp config: {name} must be an object, got {doc!r}")
    return doc


def _parse_region(doc: dict, name: str, d: int):
    """The target region ``name`` in R^d; an interval [a, b] is the 1-D box.

    A ball's radius must be positive and finite, and a box's corners finite
    with lo <= hi in every coordinate.
    """
    t = _object(doc, name).get("type")
    if t == "ball":
        radius = _number(doc["radius"])
        if not 0 < radius < math.inf:
            raise ValueError(f"{name} radius must be positive and finite, got {doc['radius']!r}")
        return mc.BallRegion(_point(doc, "center", d, f"{name} center"), radius)
    if t == "box":
        keys = ("lo", "hi")
        lo, hi = (_point(doc, k, d, f"{name} {k}") for k in keys)
    elif t == "interval":
        if d != 1:
            raise ValueError(f"{name} must be a region of the domain's dimension {d}, got {doc!r}")
        keys = ("a", "b")
        for k in keys:
            if not math.isfinite(_number(doc[k])):
                raise ValueError(f"{name} {k} must be a finite number, got {doc[k]!r}")
        lo, hi = ((doc[k],) for k in keys)
    else:
        raise ValueError(f"unknown region type {t!r}")
    if not all(a <= b for a, b in zip(lo, hi)):
        raise ValueError(f"{name} needs {keys[0]} <= {keys[1]}, got "
                         f"{doc[keys[0]]!r} and {doc[keys[1]]!r}")
    return mc.BoxRegion(lo, hi)


def _parse_bhp_config(doc: dict, d: Optional[int] = None) -> harness.BHPConfig:
    ambient = dom.domain_from_dict(_object(doc, "a configs entry")["domain"], expect_dim=d)
    d = dom.dim(ambient)
    x0 = _point(doc, "x0", d, "x0")
    r = _number(doc["r"])
    if not 0 < r < math.inf:
        raise ValueError(f"r must be positive and finite, got {doc['r']!r}")
    p = _number(doc.get("p", 0.5))
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1), got {doc['p']!r}")
    u = dom.Intersection((ambient, dom.Ball(x0, r)))
    return harness.BHPConfig(
        u_domain=u,
        x0=x0,
        r=r,
        p=p,
        x1=_point(doc, "x1", d, "x1"),
        x2=_point(doc, "x2", d, "x2"),
        target1=_parse_region(doc["target1"], "target1", d),
        target2=_parse_region(doc["target2"], "target2", d),
    )


def _window(args) -> Optional[tuple]:
    """--window, which must satisfy T1 < T2, or None if it is not given."""
    if args.window and not args.window[0] < args.window[1]:
        raise ValueError(f"--window must satisfy T1 < T2, got {' '.join(map(repr, args.window))}")
    return tuple(args.window) if args.window else None


def _record(args, quantity: str, params, desc: dict, est, window) -> int:
    entry = calibration.append_entry(args.calibration_file, quantity, params.d, params.alpha,
                                     desc, est, window)
    print(f"{quantity} {_fmt(entry['value'])} stderr {_fmt(entry['stderr'])} "
          f"seed {entry['seed']} n {entry['n']}")
    print(f"recorded in {args.calibration_file}")
    return 0


def _cmd_calibrate_lambda1(args) -> int:
    params = _params(args)
    window = _window(args)
    with _overflow("--r", args.r):
        ra = args.r ** params.alpha
    window = window or tuple(f * ra for f in mc.LAMBDA1_FIT_WINDOW)
    est = mc.estimate_lambda1(params, args.r, fit_window=window, n=args.n, h=args.h,
                              rng_seed=args.seed, workers=args.workers)
    return _record(args, "lambda1", params, {"type": "ball", "radius": args.r}, est, window)


def _cmd_calibrate_beta(args) -> int:
    params, domain = _params_domain(args)
    window = _window(args) or mc.BETA_FIT_WINDOW
    est = mc.estimate_beta(params, domain, _parse_vec(args.x), fit_window=window, n=args.n,
                           h=args.h, rng_seed=args.seed, workers=args.workers, thin=args.thin)
    return _record(args, "beta", params, dom.domain_to_dict(domain), est, window)


# ---------------------------------------------------------------------------
# parser


def _options(*specs) -> argparse.ArgumentParser:
    """A parent parser with the options ``specs``, each (flag, add_argument keywords)."""
    p = argparse.ArgumentParser(add_help=False)
    for flag, kw in specs:
        p.add_argument(flag, **kw)
    return p


def build_parser() -> argparse.ArgumentParser:
    common = _options(("--d", dict(type=int, default=1, help="space dimension")),
                      ("--alpha", dict(type=float, default=1.0, help="stability index in (0,2)")))
    paths = _options(
        ("--n", dict(type=_positive(int), default=100_000, help="sample paths")),
        ("--seed", dict(type=int, default=1, help="64-bit stream seed")),
        ("--workers", dict(type=_positive(int), default=1, help="worker processes")),
    )
    step = _options(("--h", dict(type=_positive(float), default=1.0 / 64, help="time step")))
    domain = _options(("--domain", dict(help="path to a domain document (JSON)")),
                      ("--domain-json", dict(help="inline domain document")))
    profile = _options(("--lambda1", dict(type=float, help="unit-ball decay rate of the profile")),
                       ("--beta", dict(type=float, help="cone exponent of the profile")))
    probe = _options(("--t", dict(type=_positive(float), required=True)),
                     ("--x", dict(required=True)))
    sweep = _options(("--t", dict(help="comma-separated horizons")),
                     ("--points", dict(help="semicolon-separated probe points")))
    out = _options(("--out", dict(default="reports", help="report output directory")))
    ball = _options(("--r", dict(type=_positive(float), default=1.0, help="ball radius")),
                    ("--center", {}), ("--x", dict(required=True)))
    fit = _options(("--window", dict(type=_positive(float), nargs=2, metavar=("T1", "T2"),
                                     help="fit window, 0 < T1 < T2")),
                   ("--calibration-file", dict(default="calibration.jsonl")))

    def leaf(sub, name, fn, *parents, help=None):
        p = sub.add_parser(name, parents=[common, *parents], allow_abbrev=False, help=help)
        p.set_defaults(fn=fn)
        return p

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(required=True)

    ap = argparse.ArgumentParser(prog="stableheat", description="killed stable processes: "
                                 "kernels, estimators, verification")
    sub = ap.add_subparsers(required=True)

    p = leaf(sub, "density", _cmd_density, help="free transition density p(t, x, y)")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    qsub = group("ball", "closed-form ball kernels")
    leaf(qsub, "green", _cmd_ball_green, ball).add_argument(
        "--v", required=True, help="second interior point")
    leaf(qsub, "poisson", _cmd_ball_poisson, ball).add_argument(
        "--y", required=True, help="exterior point")
    leaf(qsub, "exit-time", _cmd_ball_exit_time, ball)
    leaf(qsub, "tail", _cmd_ball_tail, ball).add_argument(
        "--R", type=float, required=True, help="tail threshold: P^x(|exit - center| > R)")

    ssub = group("survival", "survival probability: Monte Carlo or closed profile")
    leaf(ssub, "mc", _cmd_survival_mc, paths, step, domain, probe)
    leaf(ssub, "profile", _cmd_survival_profile, domain, profile, probe)

    y = _options(("--y", dict(required=True)))
    hsub = group("heatkernel", "killed transition density: Monte Carlo or closed profile")
    leaf(hsub, "mc", _cmd_heatkernel_mc, paths, step, domain, probe, y)
    leaf(hsub, "profile", _cmd_heatkernel_profile, domain, profile, probe, y)

    vsub = group("verify", "identity suite and comparability sweeps")
    leaf(vsub, "identities", _cmd_identities, out).add_argument("--tol", type=float, default=1e-6)
    p = leaf(vsub, "factorization", _cmd_factorization, paths, step, domain, profile, sweep, out)
    p.add_argument("--profile-form", action="store_true",
                   help="use closed profiles for the survival factors")
    leaf(vsub, "profiles", _cmd_profiles, paths, step, domain, profile, sweep, out)
    leaf(vsub, "bhp", _cmd_bhp, paths, out).add_argument(
        "--config", required=True, help="configuration file")

    csub = group("calibrate", "estimate and store decay constants")
    leaf(csub, "lambda1", _cmd_calibrate_lambda1, paths, step, fit).add_argument(
        "--r", type=_positive(float), default=1.0, help="ball radius")
    p = leaf(csub, "beta", _cmd_calibrate_beta, paths, step, domain, fit)
    p.add_argument("--x", default="1", help="probe point")
    p.add_argument("--thin", type=_positive(float),
                   help="slab half-width for measure-zero boundaries")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return 1
    except (InconclusiveError, EstimateDiagnostic) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
