"""Empirical verification: exact identities at quadrature tolerance and
comparability-constant sweeps for the two-sided estimates.

The factorization and profile sweeps measure the constants that the
two-sided bounds leave unspecified.  A report collects per-cell ratios,
their spread, and an empirical constant C = max(max_ratio, 1/min_ratio);
"holding" means C is finite and stable under sample doubling, not that it
matches any particular value.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import domains as dom
from . import kernels
from . import montecarlo as mc
from .errors import InconclusiveError
from .stable import (
    StableParams,
    free_density,
    levy_symbol_quadrature,
)

#: cells whose relative standard error exceeds this are flagged and
#: excluded from ratio statistics
NOISE_FLAG_THRESHOLD = 0.25


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Cell:
    t: float
    x: tuple
    y: Optional[tuple]
    ratio: Optional[float]
    rel_stderr: Optional[float]
    flag: str  # ok | noisy | outside_guarantee | diagnostic


@dataclass(frozen=True)
class RatioReport:
    """Per-cell ratios; the statistics are derived from the ``ok`` cells
    with a positive ratio."""

    domain: dict
    params: StableParams
    t_values: tuple
    cells: tuple

    @property
    def ratios(self) -> tuple:
        return tuple(
            c.ratio for c in self.cells if c.flag == "ok" and c.ratio is not None and c.ratio > 0
        )

    @property
    def empirical_C(self) -> float:
        return float(max(max(self.ratios), 1.0 / min(self.ratios)))

    @property
    def stderr_flags(self) -> int:
        return sum(1 for c in self.cells if c.flag in ("noisy", "diagnostic"))

    def to_json_dict(self) -> dict:
        arr = np.array(self.ratios)
        q05, q50, q95 = np.quantile(arr, [0.05, 0.5, 0.95])
        return {
            "domain": self.domain,
            "d": self.params.d,
            "alpha": self.params.alpha,
            "t_values": list(self.t_values),
            "n_cells": len(self.cells),
            "n_used": len(arr),
            "min_ratio": float(arr.min()),
            "max_ratio": float(arr.max()),
            "quantiles": {"q05": float(q05), "q50": float(q50), "q95": float(q95)},
            "empirical_C": self.empirical_C,
            "stderr_flags": self.stderr_flags,
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "x", "y", "ratio", "rel_stderr", "flag"])
            for c in self.cells:
                w.writerow(
                    [
                        f"{c.t:.9g}",
                        " ".join(f"{v:.9g}" for v in c.x),
                        " ".join(f"{v:.9g}" for v in c.y) if c.y is not None else "",
                        f"{c.ratio:.9g}" if c.ratio is not None else "",
                        f"{c.rel_stderr:.9g}" if c.rel_stderr is not None else "",
                        c.flag,
                    ]
                )


def _required_n(cells, n: int) -> Optional[int]:
    """Path count that would bring every noisy cell to the noise threshold:
    n (rel / threshold)^2 for a noisy cell with a relative stderr, and 10 n
    when a cell is diagnostic or has no usable estimate.  None when no
    cell is noisy or diagnostic."""
    need = []
    for c in cells:
        if c.flag == "noisy" and c.rel_stderr is not None:
            need.append(math.ceil(n * (c.rel_stderr / NOISE_FLAG_THRESHOLD) ** 2))
        elif c.flag in ("noisy", "diagnostic"):
            need.append(10 * n)
    return max(need, default=None)


def _assemble_report(domain, params, t_values, cells, n: int) -> RatioReport:
    """Build the report of the cells and apply the two inconclusive rules;
    ``domain`` is a catalog domain or its document and n the path count per
    estimate.  Noisy and diagnostic cells count against the majority rule."""
    report = RatioReport(
        domain=dom.domain_to_dict(domain) if not isinstance(domain, dict) else domain,
        params=params,
        t_values=tuple(t_values),
        cells=tuple(cells),
    )
    if not report.ratios:
        raise InconclusiveError(
            "all cells were flagged; nothing to report", required_n=_required_n(cells, n)
        )
    noisy = report.stderr_flags
    if noisy > 0.5 * len(cells):
        required = _required_n(cells, n)
        raise InconclusiveError(
            f"{noisy}/{len(cells)} cells are noisy or diagnostic; increase n to at least "
            f"{required} (n (rel_stderr / {NOISE_FLAG_THRESHOLD})^2 for noisy cells, "
            "10 n or larger targets for diagnostic ones)",
            required_n=required,
        )
    return report


def _cell(t, x, y, est: mc.MCEstimate, ref: float, ref_rel2: float = 0.0) -> Cell:
    """The cell of the ratio est / ref, where ref carries the squared
    relative error ref_rel2; noisy when either side is not positive or the
    combined relative stderr exceeds the threshold."""
    if ref <= 0 or est.mean <= 0:
        return Cell(t, x, y, None, None, "noisy")
    rel = math.sqrt(_rel2(est) + ref_rel2)
    return Cell(t, x, y, est.mean / ref, rel, "ok" if rel <= NOISE_FLAG_THRESHOLD else "noisy")


def _rel2(est: mc.MCEstimate) -> float:
    if est.mean == 0:
        return math.inf
    return (est.stderr / est.mean) ** 2


# ---------------------------------------------------------------------------
# identity suite


@dataclass(frozen=True)
class IdentityResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol


@dataclass(frozen=True)
class IdentityReport:
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self):
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            yield f"{status}  {r.name}: max err {r.max_err:.3g} (tol {r.tol:.3g})"

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "identities": [
                {"name": r.name, "max_err": r.max_err, "tol": r.tol, "passed": r.passed}
                for r in self.results
            ],
        }


def verify_identities(params: StableParams, tol: float = 1e-6) -> IdentityReport:
    """Quadrature-level identity checks for the closed forms.

    Covers: exit-law normalization, Green mass against the expected exit
    time (with the exact unit value at d = alpha = 1), self-similarity
    residuals, the symbol normalization of the jump intensity, and the
    exact unit-ball exit tail at (d=1, alpha=1, x=0, R=2).
    """
    d, a = params.d, params.alpha
    res = []

    # exit-law normalization over the exterior of the ball
    err = abs(kernels.ball_exit_tail_exact(params, _axis_pt(0.3, d), 1.0) - 1.0)
    res.append(IdentityResult("exit-law normalization", err, tol))

    # Green mass = expected exit time, at the center
    g_mass = _green_mass_center(params)
    e_tau = kernels.expected_exit_time_ball(params, (0.0,) * d, 1.0, (0.0,) * d)
    res.append(IdentityResult("Green mass vs expected exit time", abs(g_mass / e_tau - 1.0), tol))
    if d == 1 and a == 1.0:
        res.append(IdentityResult("unit expected exit time (d=1, alpha=1)", abs(e_tau - 1.0), tol))
        tail = kernels.ball_exit_tail_exact(params, (0.0,), 2.0)
        res.append(IdentityResult("exit tail 1/3 at R=2", abs(tail - 1.0 / 3.0), tol))

    # self-similarity of the free density
    err = 0.0
    x = np.zeros(d)
    y = np.zeros(d)
    for t in (0.01, 1.0, 100.0):
        for z in (0.1, 1.0, 10.0):
            y[0] = z
            lhs = free_density(params, t, x, y).value
            rhs = t ** (-d / a) * free_density(params, 1.0, x, y * t ** (-1.0 / a)).value
            err = max(err, abs(lhs - rhs) / lhs)
    res.append(IdentityResult("self-similarity residual", err, 1e-10))

    # symmetry is structural: p(t,x,y) and p(t,y,x) reduce to the same radius
    x1 = np.linspace(0.1, 0.9, d)
    y1 = -np.linspace(0.4, 0.2, d)
    err = abs(
        free_density(params, 0.7, x1, y1).value - free_density(params, 0.7, y1, x1).value
    )
    res.append(IdentityResult("free-density symmetry", err, 0.0))

    # jump-intensity normalization through the symbol
    err = 0.0
    for xi in (0.5, 1.0, 2.0):
        v = levy_symbol_quadrature(params, xi)
        err = max(err, abs(v - xi ** a) / xi ** a)
    res.append(IdentityResult("symbol normalization", err, 1e-4))

    return IdentityReport(tuple(res))


def _green_mass_center(params: StableParams) -> float:
    from scipy import integrate

    d = params.d
    sd = 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)
    f = lambda r: kernels.ball_green(params, (0.0,) * d, 1.0, (0.0,) * d, _axis_pt(r, d)) * r ** (
        d - 1
    )
    v, _ = integrate.quad(f, 0.0, 1.0, epsabs=1e-11, epsrel=1e-9, limit=300, points=[0.0])
    return sd * v


def _axis_pt(r: float, d: int):
    p = np.zeros(d)
    p[0] = r
    return p


# ---------------------------------------------------------------------------
# sweeps


def factorization_sweep(
    domain: dom.Domain,
    params: StableParams,
    t_set,
    point_pairs,
    n: int,
    h: float,
    seed: int,
    workers: int = 1,
    profile: Optional[kernels.SurvivalProfile] = None,
) -> RatioReport:
    """Ratio of the killed-kernel estimate to S(x) p(t,x,y) S(y).

    S is the built ``profile`` of the domain (see
    ``kernels.survival_profile``) when one is given, and otherwise comes
    from independent survival estimates (the two-sided factorization in
    its raw form).  Cells with relative noise above 25% are flagged and
    excluded; exterior domains mark cells with t <= diam(D^c)^alpha as
    outside the guaranteed range (reported but not aggregated).
    """
    t_set = sorted(float(t) for t in t_set)
    pairs = [
        (tuple(np.atleast_1d(np.asarray(x, float))), tuple(np.atleast_1d(np.asarray(y, float))))
        for x, y in point_pairs
    ]
    xs = sorted({p for p, _ in pairs} | {q for _, q in pairs})
    x_index = {p: i for i, p in enumerate(xs)}

    # one path batch per distinct x gives the kernel for every (t, y);
    # survival factors come from separate seeds to keep numerator and
    # denominator independent.  All the estimates come from one _run_batches call.
    jobs = {("kernel", p): mc._kernel_job(domain, params, p, xs, t_set, n, h,
                                          seed + 7919 * x_index[p]) for p in xs}
    if profile is None:
        jobs.update({("survival", p): mc._survival_job(domain, params, p, t_set, n, h,
                                                       seed + 104729 + 7919 * x_index[p])
                     for p in xs})
    est = dict(zip(jobs, mc._run_jobs(list(jobs.values()), workers)))

    diam = dom.complement_diameter(domain)
    guard_t = diam ** params.alpha if math.isfinite(diam) and diam > 0 else 0.0

    cells = []
    for k, t in enumerate(t_set):
        for x, y in pairs:
            kern = est["kernel", x][(t, x_index[y])]
            if profile is None:
                sx, sy = est["survival", x][k], est["survival", y][k]
                s_val = sx.mean * sy.mean
                s_rel2 = _rel2(sx) + _rel2(sy)
            else:
                s_val = profile.evaluate(t, x) * profile.evaluate(t, y)
                s_rel2 = 0.0
            p_free = free_density(params, t, np.asarray(x), np.asarray(y)).value
            cell = _cell(t, x, y, kern, s_val * p_free, s_rel2)
            if cell.flag == "ok" and t <= guard_t:
                cell = replace(cell, flag="outside_guarantee")
            cells.append(cell)
    return _assemble_report(domain, params, t_set, cells, n)


def profile_sweep(
    profile: kernels.SurvivalProfile,
    t_set,
    x_set,
    n: int,
    h: float,
    seed: int,
    workers: int = 1,
) -> RatioReport:
    """Ratio of survival estimates to the built ``profile`` per (t, x) cell;
    the survival curves of all the points come from one ``_run_batches`` call."""
    domain, params = profile.domain, profile.params
    t_set = sorted(float(t) for t in t_set)
    points = [tuple(np.atleast_1d(np.asarray(x, float))) for x in x_set]
    built = [mc._survival_job(domain, params, xa, t_set, n, h, seed + 31 * i)
             for i, xa in enumerate(points)]
    cells = []
    for xa, curve in zip(points, mc._run_jobs(built, workers)):
        for t, est in zip(t_set, curve):
            cells.append(_cell(t, xa, None, est, profile.evaluate(t, xa)))
    return _assemble_report(domain, params, t_set, cells, n)


@dataclass(frozen=True)
class BHPConfig:
    """One admissible boundary-Harnack configuration.

    ``u_domain`` must be an open set inside B(x0, r); x1, x2 inside
    B(x0, p r); the targets, regions with ``contains_many`` and ``dist``,
    outside B(x0, r).
    """

    u_domain: dom.Domain
    x0: tuple
    r: float
    p: float
    x1: tuple
    x2: tuple
    target1: object
    target2: object

    def validate(self):
        x0 = np.asarray(self.x0, float)
        for name, pt in (("x1", self.x1), ("x2", self.x2)):
            pa = np.asarray(pt, float)
            if np.linalg.norm(pa - x0) >= self.p * self.r:
                raise ValueError(f"{name} must lie in the inner ball of radius p*r")
            if not dom.contains(self.u_domain, pa):
                raise ValueError(f"{name} must lie in the localized domain")
        for name, target in (("target1", self.target1), ("target2", self.target2)):
            if target.dist(x0) < self.r:
                raise ValueError(f"{name} must lie outside the localization ball B(x0, r)")


def bhp_sweep(
    configs,
    params: StableParams,
    n: int,
    seed: int,
    workers: int = 1,
) -> RatioReport:
    """Cross-ratio report over a family of boundary-Harnack configurations.
    Every configuration is checked before any walk runs, and the walks of
    all of them come from one ``_run_batches`` call."""
    for cfg in configs:
        cfg.validate()
    built = [mc._cross_ratio_job(params, cfg.u_domain, cfg.x1, cfg.x2, cfg.target1, cfg.target2,
                                 n, seed + 613 * i) for i, cfg in enumerate(configs)]
    cells = []
    for cfg, est in zip(configs, mc._run_jobs(built, workers)):
        x1, x2 = tuple(cfg.x1), tuple(cfg.x2)
        cells.append(Cell(0.0, x1, x2, None, None, "diagnostic") if est is None
                     else _cell(0.0, x1, x2, est, 1.0))
    u = configs[0].u_domain
    domain_desc = {"type": "intersection"} if isinstance(u, dom.Intersection) else u
    return _assemble_report(domain_desc, params, (0.0,), cells, n)


# ---------------------------------------------------------------------------
# report output


def write_report(report: RatioReport, out_dir, stem: str) -> tuple:
    """Write the sidecar JSON and the per-cell CSV; returns both paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    jpath = os.path.join(out_dir, f"{stem}.json")
    cpath = os.path.join(out_dir, f"{stem}.csv")
    with open(jpath, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
    report.write_csv(cpath)
    return jpath, cpath
