"""Command-line driver: kernel evaluation, estimators, verification
sweeps and calibration.

Exit status: 0 success/pass, 1 verification or fit failure, 2
configuration or domain error, 3 inconclusive (a sweep too noisy, or an
estimate outside its known sign or bounds).  All numeric output is
printed with 9 significant digits, locale-independent.
"""

from __future__ import annotations

import argparse
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


def _read_json(path, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {what} {path!r}: {exc}") from exc


def _load_domain(args, expect_dim=None) -> dom.Domain:
    if getattr(args, "domain", None):
        doc = _read_json(args.domain, "domain document")
    elif getattr(args, "domain_json", None):
        try:
            doc = json.loads(args.domain_json)
        except json.JSONDecodeError as exc:
            raise ValueError(f"inline domain spec is not valid JSON: {exc}") from exc
    else:
        raise ValueError("a domain is required (--domain FILE or --domain-json JSON)")
    return dom.domain_from_dict(doc, expect_dim=expect_dim)


def _workers(args) -> int:
    if args.workers is not None:
        return args.workers
    env = os.environ.get("STABLEHEAT_WORKERS") or "1"
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"STABLEHEAT_WORKERS must be a positive integer, got {env!r}")
    return workers


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


def _profile(args, domain, params, wanted: bool) -> Optional[kernels.SurvivalProfile]:
    """The profile built from --lambda1 and --beta if ``wanted``, else None."""
    if wanted:
        return kernels.survival_profile(domain, params, beta=args.beta, lambda1=args.lambda1)
    given = " or ".join(f"--{k}" for k in ("lambda1", "beta") if getattr(args, k) is not None)
    if given:
        raise ValueError(f"this command uses no closed survival profile, so it takes no {given}")
    return None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_density(args) -> int:
    params = _params(args)
    ev = free_density(params, args.t, _parse_vec(args.x), _parse_vec(args.y))
    print(f"value {_fmt(ev.value)} rel_err {_fmt(ev.rel_err)}")
    return 0


#: the option each ball query needs besides --x
_BALL_OPTION = {"green": "v", "poisson": "y", "tail": "R"}


def _finite_point(args, name: str, d: int) -> tuple:
    """The point given as ``--name``: d coordinates, every one finite."""
    v = _parse_vec(getattr(args, name))
    if not all(map(math.isfinite, v)):
        raise ValueError(f"--{name} must have finite coordinates, got {getattr(args, name)!r}")
    if len(v) != d:
        raise ValueError(f"--{name} needs {d} coordinates (--d), got {getattr(args, name)!r}")
    return v


def _cmd_ball(args) -> int:
    params = _params(args)
    need = _BALL_OPTION.get(args.query)
    if need and getattr(args, need) is None:
        raise ValueError(f"ball {args.query} needs --{need}")
    d = params.d
    center = _finite_point(args, "center", d) if args.center else (0.0,) * d
    x = _finite_point(args, "x", d)
    try:
        if args.query == "green":
            v = _finite_point(args, "v", d)
            print(_fmt(kernels.ball_green(params, center, args.r, x, v)))
        elif args.query == "poisson":
            y = _finite_point(args, "y", d)
            print(_fmt(kernels.ball_poisson(params, center, args.r, x, y)))
        elif args.query == "exit-time":
            print(_fmt(kernels.expected_exit_time_ball(params, center, args.r, x)))
        elif args.query == "tail":
            # the tail is scale-free: answer for the unit ball at (x - c)/r, R/r
            xs = (np.asarray(x) - np.asarray(center)) / args.r
            R = args.R / args.r
            if not float(np.linalg.norm(xs)) < 1.0:
                raise ValueError(f"--x must lie in the open ball B(--center, --r), got {args.x!r}")
            if not R >= 2.0:
                raise ValueError(
                    f"--R, the tail threshold, must be at least 2 --r, got {args.R!r}"
                )
            exact = kernels.ball_exit_tail_exact(params, xs, R)
            br = kernels.ball_exit_tail(params, xs, R)
            print(f"{_fmt(exact)} bracket {_fmt(br.lower)} {_fmt(br.upper)}")
    except OverflowError as exc:
        raise ValueError(f"the value overflows a float at --r {args.r!r}") from exc
    return 0


def _cmd_survival(args) -> int:
    params = _params(args)
    domain = _load_domain(args, expect_dim=params.d)
    x = _parse_vec(args.x)
    prof = _profile(args, domain, params, args.profile)
    if prof:
        print(_fmt(prof.evaluate(args.t, x)))
    else:
        est = mc.survival_curve(
            domain, params, x, (args.t,), args.n, args.h, args.seed, _workers(args)
        )[0]
        print(
            f"mean {_fmt(est.mean)} stderr {_fmt(est.stderr)} n {est.n} "
            f"seed {est.seed} h {_fmt(est.step)}"
        )
    return 0


def _cmd_heatkernel(args) -> int:
    params = _params(args)
    domain = _load_domain(args, expect_dim=params.d)
    x, y = _parse_vec(args.x), _parse_vec(args.y)
    prof = _profile(args, domain, params, args.profile_bracket)
    if prof:
        br = kernels.heat_kernel_profile(prof, args.t, x, y)
        print(f"lower {_fmt(br.lower)} upper {_fmt(br.upper)}")
    else:
        est = mc.estimate_heat_kernel(
            domain, params, x, y, args.t, args.n, args.h, args.seed, _workers(args)
        )
        print(
            f"mean {_fmt(est.mean)} stderr {_fmt(est.stderr)} n {est.n} "
            f"seed {est.seed} h {_fmt(est.step)}"
        )
    return 0


def _default_points(domain: dom.Domain) -> list:
    """Probe points per variant, respecting the near-boundary cap."""
    d = dom.dim(domain)
    if isinstance(domain, dom.Ball):
        c = np.asarray(domain.center)
        out = []
        for f in (-0.95, -0.5, 0.0, 0.5, 0.95):
            p = c.copy()
            p[0] += f * domain.radius
            out.append(tuple(p))
        return out
    if isinstance(domain, dom.HalfSpace):
        n = np.asarray(domain.normal)
        base = domain.offset * n
        return [tuple(base + hgt * n) for hgt in (0.05, 0.25, 1.0, 4.0, 16.0)]
    if isinstance(domain, dom.ExteriorBall):
        c = np.asarray(domain.center)
        out = []
        for f in (1.05, 1.5, 2.0, 4.0, 8.0):
            p = c.copy()
            p[0] += f * domain.radius
            out.append(tuple(p))
        return out
    if isinstance(domain, dom.CircularCone):
        u = np.asarray(domain.axis)
        return [tuple(s * u) for s in (0.5, 1.0, 2.0, 4.0)]
    if isinstance(domain, dom.HyperplaneComplement):
        out = []
        for s in (0.5, 1.0, 2.0):
            p = np.zeros(d)
            p[-1] = s
            out.append(tuple(p))
        return out
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


def _cmd_verify(args) -> int:
    params = _params(args)
    out_dir = args.out
    if args.profile_form and args.suite != "factorization":
        raise ValueError(f"--profile-form applies only to verify factorization, not to {args.suite}")
    if args.suite in ("identities", "bhp"):
        _profile(args, None, params, False)
    if args.suite == "identities":
        if not 0 <= args.tol < math.inf:
            raise ValueError(f"--tol must be finite and nonnegative, got {args.tol!r}")
        rep = harness.verify_identities(params, tol=args.tol)
        for line in rep.lines():
            print(line)
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "identities.json"), "w") as fh:
            json.dump(rep.to_json_dict(), fh, indent=2)
            fh.write("\n")
        return 0 if rep.passed else 1

    if args.suite in ("factorization", "profiles"):
        domain = _load_domain(args, expect_dim=params.d)
        t_set = _parse_vec(args.t) if args.t else _default_times(domain, params.alpha, args.h)
        if not all(0 < t < math.inf for t in t_set):
            raise ValueError(f"--t must list positive finite horizons, got {args.t!r}")
        if args.points:
            pts = [_parse_vec(p) for p in args.points.split(";")]
        else:
            pts = _default_points(domain)
        prof = _profile(args, domain, params, args.suite == "profiles" or args.profile_form)
        if args.suite == "factorization":
            pairs = [(p, q) for p in pts for q in pts]
            rep = harness.factorization_sweep(
                domain, params, t_set, pairs, args.n, args.h, args.seed, _workers(args), prof
            )
        else:
            rep = harness.profile_sweep(prof, t_set, pts, args.n, args.h, args.seed, _workers(args))
        jpath, cpath = harness.write_report(rep, out_dir, args.suite)
        print(f"empirical_C {_fmt(rep.empirical_C)} cells {len(rep.cells)} "
              f"noisy {rep.stderr_flags}")
        print(f"report {jpath}")
        print(f"cells {cpath}")
        return 0

    if args.suite == "bhp":
        if not args.config:
            raise ValueError("verify bhp needs --config FILE")
        doc = _read_json(args.config, "bhp config")
        if not isinstance(doc, dict) or not doc.get("configs"):
            raise ValueError("verify bhp needs a non-empty \"configs\" list")
        try:
            configs = [_parse_bhp_config(c, params.d) for c in doc["configs"]]
        except KeyError as exc:
            raise ValueError(f"bhp config is missing the key {exc}") from None
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed bhp config: {exc}") from None
        rep = harness.bhp_sweep(configs, params, args.n, args.seed, _workers(args))
        jpath, cpath = harness.write_report(rep, out_dir, "bhp")
        print(f"empirical_C {_fmt(rep.empirical_C)}")
        print(f"report {jpath}")
        return 0

    raise ValueError(f"unknown verify suite {args.suite!r}")


def _parse_region(doc: dict, name: str, d: int):
    """The target region ``name`` in R^d; an interval [a, b] is the 1-D box."""
    t = doc.get("type")
    if t == "ball":
        region = mc.BallRegion(tuple(doc["center"]), float(doc["radius"]))
    elif t == "box":
        region = mc.BoxRegion(tuple(doc["lo"]), tuple(doc["hi"]))
    elif t == "interval":
        region = mc.BoxRegion((float(doc["a"]),), (float(doc["b"]),))
    else:
        raise ValueError(f"unknown region type {t!r}")
    corners = [region.center] if t == "ball" else [region.lo, region.hi]
    if any(len(c) != d for c in corners):
        raise ValueError(f"{name} must be a region of the domain's dimension {d}, got {doc!r}")
    return region


def _parse_bhp_config(doc: dict, d: Optional[int] = None) -> harness.BHPConfig:
    ambient = dom.domain_from_dict(doc["domain"], expect_dim=d)
    d = dom.dim(ambient)
    x0 = tuple(doc["x0"])
    r = float(doc["r"])
    u = dom.Intersection((ambient, dom.Ball(x0, r)))
    return harness.BHPConfig(
        u_domain=u,
        x0=x0,
        r=r,
        p=float(doc.get("p", 0.5)),
        x1=tuple(doc["x1"]),
        x2=tuple(doc["x2"]),
        target1=_parse_region(doc["target1"], "target1", d),
        target2=_parse_region(doc["target2"], "target2", d),
    )


def _cmd_calibrate(args) -> int:
    params = _params(args)
    if args.window and not args.window[0] < args.window[1]:
        raise ValueError(f"--window must satisfy T1 < T2, got {' '.join(map(repr, args.window))}")
    if args.quantity == "lambda1":
        try:
            ra = args.r ** params.alpha
        except OverflowError:
            raise ValueError(f"the value overflows a float at --r {args.r!r}") from None
        default = tuple(f * ra for f in mc.LAMBDA1_FIT_WINDOW)
        window = tuple(args.window) if args.window else default
        est = mc.estimate_lambda1(
            params, args.r, fit_window=window, n=args.n, h=args.h,
            rng_seed=args.seed, workers=_workers(args),
        )
        desc = {"type": "ball", "radius": args.r}
        entry = calibration.append_entry(
            args.calibration_file, "lambda1", params.d, params.alpha, desc, est, window,
        )
    else:
        domain = _load_domain(args, expect_dim=params.d)
        window = tuple(args.window) if args.window else mc.BETA_FIT_WINDOW
        est = mc.estimate_beta(
            params, domain, _parse_vec(args.x), fit_window=window, n=args.n,
            h=args.h, rng_seed=args.seed, workers=_workers(args), thin=args.thin,
        )
        entry = calibration.append_entry(
            args.calibration_file, "beta", params.d, params.alpha,
            dom.domain_to_dict(domain), est, window,
        )
    print(f"{args.quantity} {_fmt(entry['value'])} stderr {_fmt(entry['stderr'])} "
          f"seed {entry['seed']} n {entry['n']}")
    print(f"recorded in {args.calibration_file}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p, mc_opts=True):
    p.add_argument("--d", type=int, default=1, help="space dimension")
    p.add_argument("--alpha", type=float, default=1.0, help="stability index in (0,2)")
    if mc_opts:
        p.add_argument("--n", type=_positive(int), default=100_000, help="sample paths")
        p.add_argument("--h", type=_positive(float), default=1.0 / 64, help="time step")
        p.add_argument("--seed", type=int, default=1, help="64-bit stream seed")
        p.add_argument("--workers", type=_positive(int), default=None,
                       help="worker processes (default: STABLEHEAT_WORKERS or 1)")


def _add_domain_opts(p):
    p.add_argument("--domain", help="path to a domain document (JSON)")
    p.add_argument("--domain-json", help="inline domain document")


def _add_profile_opts(p):
    p.add_argument("--lambda1", type=float, help="unit-ball decay rate of the profile")
    p.add_argument("--beta", type=float, help="cone exponent of the profile")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stableheat",
        description="killed stable processes: kernels, estimators, verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="free transition density p(t, x, y)")
    _add_common(p, mc_opts=False)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("ball", help="closed-form ball kernels")
    p.add_argument("query", choices=["green", "poisson", "exit-time", "tail"])
    _add_common(p, mc_opts=False)
    p.add_argument("--r", type=_positive(float), default=1.0, help="ball radius")
    p.add_argument("--center", default=None)
    p.add_argument("--x", required=True)
    p.add_argument("--v", help="second interior point (green)")
    p.add_argument("--y", help="exterior point (poisson)")
    p.add_argument("--R", type=float, help="tail threshold (tail): P^x(|exit - center| > R)")
    p.set_defaults(fn=_cmd_ball)

    p = sub.add_parser("survival", help="survival probability")
    _add_common(p)
    _add_domain_opts(p)
    p.add_argument("--t", type=_positive(float), required=True)
    p.add_argument("--x", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--mc", action="store_true")
    g.add_argument("--profile", action="store_true")
    _add_profile_opts(p)
    p.set_defaults(fn=_cmd_survival)

    p = sub.add_parser("heatkernel", help="killed transition density")
    _add_common(p)
    _add_domain_opts(p)
    p.add_argument("--t", type=_positive(float), required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--mc", action="store_true")
    g.add_argument("--profile-bracket", action="store_true")
    _add_profile_opts(p)
    p.set_defaults(fn=_cmd_heatkernel)

    p = sub.add_parser("verify", help="identity suite and comparability sweeps")
    p.add_argument("suite", choices=["identities", "factorization", "profiles", "bhp"])
    _add_common(p)
    _add_domain_opts(p)
    p.add_argument("--t", help="comma-separated horizons")
    p.add_argument("--points", help="semicolon-separated probe points")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default="reports", help="report output directory")
    p.add_argument("--config", help="configuration file (bhp)")
    p.add_argument("--profile-form", action="store_true",
                   help="use closed profiles for the survival factors (factorization)")
    _add_profile_opts(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("calibrate", help="estimate and store decay constants")
    p.add_argument("quantity", choices=["lambda1", "beta"])
    _add_common(p)
    _add_domain_opts(p)
    p.add_argument("--r", type=_positive(float), default=1.0, help="ball radius (lambda1)")
    p.add_argument("--x", default="1", help="probe point (beta)")
    p.add_argument("--window", type=_positive(float), nargs=2, default=None,
                   metavar=("T1", "T2"), help="fit window, 0 < T1 < T2")
    p.add_argument("--thin", type=_positive(float), default=None,
                   help="slab half-width for measure-zero boundaries")
    p.add_argument("--calibration-file", default="calibration.jsonl")
    p.set_defaults(fn=_cmd_calibrate)

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
    finally:
        mc.shutdown_pool()


if __name__ == "__main__":
    sys.exit(main())
