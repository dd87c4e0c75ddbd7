"""Per-layer tracing for the benchmark.

``Tracer.install`` replaces module-level entry points of ``stableheat``
with timing wrappers, from outside the package: every attribute of a
``stableheat`` module that is bound to a wrapped function (including names
imported with ``from .x import y``) is patched, and ``uninstall`` puts the
originals back.  Each wrapper records a span; a span's self time is its
duration minus the time covered by the spans it encloses, and busy time
counts only the outermost span of a name (``contains_many`` and
``dist_many`` recurse into ``Intersection`` parts).  Hooks read counts
from the wrapped call's arguments and results, so the program's own code
is never touched.

Wrappers report only from the process they were installed in: forked pool
workers record into their own copy of the tracer, which is lost, so the
full trace is taken at workers=1 and only ``_run_batches`` is wrapped for
a pooled pass.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

import stableheat
from stableheat import calibration, cli, domains, harness, kernels, montecarlo, stable

#: every module whose attributes may hold a reference to a wrapped function
MODULES = (stableheat, stable, domains, kernels, montecarlo, harness, calibration, cli)

#: owners patched by ``install``: modules plus the table class
OWNERS = MODULES + (stable._P1Fast,)

#: (owner, attribute, span name) for the full trace; the hook of an
#: attribute is the method ``_on_<attribute stripped of underscores>``
FULL = (
    (stable, "_p1_point", "stable.point"),
    (stable._P1Fast, "__init__", "stable.table_build"),
    (stable._P1Fast, "__call__", "stable.table_eval"),
    (montecarlo, "_one_sided_stable", "montecarlo.kanter"),
    (montecarlo, "_walk_batch", "montecarlo.walk"),
    (montecarlo, "_exit_from_center", "montecarlo.center_draw"),
    (montecarlo, "sample_ball_exit_positions", "montecarlo.ball_exit"),
    (montecarlo, "sample_exit_positions_wos", "montecarlo.wos"),
    (montecarlo, "survival_curve", "montecarlo.survival_curve"),
    (montecarlo, "heat_kernel_grid", "montecarlo.heat_kernel_grid"),
    (montecarlo, "_fit_exponent", "montecarlo.fit"),
    (montecarlo, "_run_batches", "montecarlo.run_batches"),
    (domains, "contains_many", "domains.contains"),
    (domains, "dist_many", "domains.dist"),
    (harness, "factorization_sweep", "harness.sweep"),
    (harness, "profile_sweep", "harness.sweep"),
    (harness, "bhp_sweep", "harness.sweep"),
)

#: the parent-side view of a pooled pass
POOL = ((montecarlo, "_run_batches", "montecarlo.run_batches"),)

SCOPES = {"full": FULL, "pool": POOL}

def _arg(fn, name):
    """Fast accessor for parameter ``name`` of ``fn`` from (args, kwargs)."""
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index(name)
    default = params[pos].default

    def get(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(name, default)

    return get


class _Frame:
    __slots__ = ("name", "child", "proposals")

    def __init__(self, name):
        self.name = name
        self.child = 0.0
        self.proposals = 0


class Tracer:
    """Span and counter store for one traced pass; see the module docstring."""

    def __init__(self, scope: str = "full"):
        self.targets = SCOPES[scope]
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self._stack: list = []
        self._patched: list = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for owner, attr, span in self.targets:
            orig = owner.__dict__[attr]
            hook = getattr(self, f"_on_{attr.strip('_')}", None)
            wrapped = self._wrap(span, orig, hook(orig) if hook else None)
            if inspect.isclass(owner):
                self._patch(owner, attr, orig, wrapped)
                continue
            for mod in MODULES:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped) -> None:
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ------------------------------------------------------------

    def inside(self, name: str):
        for frame in reversed(self._stack):
            if frame.name == name:
                return frame
        return None

    def _wrap(self, name, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self.inside(name) is None
            frame = _Frame(name)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.self_s[name] += dt - frame.child
                if stack:
                    stack[-1].child += dt
                if outer:
                    self.busy[name] += dt
                self.calls[name] += 1
            if hook is not None and outer:
                hook(frame, args, kwargs, result, dt)
            return result

        return wrapper

    # -- hooks: one per wrapped attribute, built from its signature --------

    def _on_p1_point(self, fn):
        def hook(frame, args, kwargs, result, dt):
            if self.inside("stable.table_build") is None:
                self.count["point_evals"] += 1
                self.count["point_eval_s"] += dt
        return hook

    def _on_call(self, fn):
        radii = _arg(fn, "r")

        def hook(frame, args, kwargs, result, dt):
            if self.inside("stable.table_build") is None:
                self.count["table_evals"] += np.size(radii(args, kwargs))
                self.count["table_eval_s"] += dt
        return hook

    def _on_one_sided_stable(self, fn):
        n = _arg(fn, "n")

        def hook(frame, args, kwargs, result, dt):
            self.count["kanter_draws"] += n(args, kwargs)
        return hook

    def _on_walk_batch(self, fn):
        h, horizon, m = _arg(fn, "h"), _arg(fn, "horizon"), _arg(fn, "m")

        def hook(frame, args, kwargs, result, dt):
            tau = result[0]
            step = h(args, kwargs)
            nsteps = int(round(horizon(args, kwargs) / step))
            done = np.isfinite(tau)
            steps = np.where(done, np.rint(tau / step), nsteps)
            iterations = nsteps if not done.all() else int(steps.max(initial=0))
            self.count["walk_paths"] += m(args, kwargs)
            self.count["path_steps"] += float(steps.sum())
            self.count["walk_slots"] += m(args, kwargs) * iterations
            self.count["censored"] += float((~done).sum())
        return hook

    def _on_exit_from_center(self, fn):
        n = _arg(fn, "n")

        def hook(frame, args, kwargs, result, dt):
            owner = self.inside("montecarlo.ball_exit")
            if owner is not None:
                owner.proposals += n(args, kwargs)
        return hook

    def _on_sample_ball_exit_positions(self, fn):
        n, center, x = _arg(fn, "n"), _arg(fn, "center"), _arg(fn, "x")

        def hook(frame, args, kwargs, result, dt):
            draws = n(args, kwargs)
            self.count["ball_exit_draws"] += draws
            gap = np.asarray(x(args, kwargs), float) - np.asarray(center(args, kwargs), float)
            # the acceptance ratio is that of the rejection path only: the
            # centre path keeps every draw and the compose path proposes none
            if frame.proposals and np.any(gap != 0.0):
                self.count["rejection_draws"] += draws
                self.count["rejection_proposals"] += frame.proposals
        return hook

    def _on_sample_exit_positions_wos(self, fn):
        n = _arg(fn, "n")

        def hook(frame, args, kwargs, result, dt):
            self.count["wos_paths"] += n(args, kwargs)
            self.count["wos_steps"] += float(np.sum(result[1]))
        return hook

    def _on_contains_many(self, fn):
        pts = _arg(fn, "pts")

        def hook(frame, args, kwargs, result, dt):
            self.count["contains_points"] += len(pts(args, kwargs))
        return hook

    def _on_dist_many(self, fn):
        pts = _arg(fn, "pts")

        def hook(frame, args, kwargs, result, dt):
            self.count["dist_points"] += len(pts(args, kwargs))
        return hook

    def _on_run_batches(self, fn):
        workers = _arg(fn, "workers")

        def hook(frame, args, kwargs, result, dt):
            if workers(args, kwargs) > 1:
                self.count["pool_starts"] += 1
        return hook

    def _sweep_hook(self, fn):
        def hook(frame, args, kwargs, result, dt):
            self.count["cells"] += len(result.cells)
            self.count["noisy_cells"] += sum(
                1 for c in result.cells if c.flag in ("noisy", "diagnostic")
            )
        return hook

    _on_factorization_sweep = _on_profile_sweep = _on_bhp_sweep = _sweep_hook

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> dict:
        b, s, c, n = self.busy, self.self_s, self.count, self.calls

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "stable.table_build_s": b["stable.table_build"],
            "stable.table_evals": c["table_evals"],
            "stable.table_eval_s": c["table_eval_s"],
            "stable.point_evals": c["point_evals"],
            "stable.point_eval_s": c["point_eval_s"],
            "montecarlo.kanter_draws": c["kanter_draws"],
            "montecarlo.kanter_s": b["montecarlo.kanter"],
            "montecarlo.walk_paths": c["walk_paths"],
            "montecarlo.path_steps": c["path_steps"],
            "montecarlo.walk_self_s": s["montecarlo.walk"],
            "montecarlo.path_steps_per_s": ratio(c["path_steps"], b["montecarlo.walk"]),
            "montecarlo.live_frac": ratio(c["path_steps"], c["walk_slots"]),
            "montecarlo.censored_frac": ratio(c["censored"], c["walk_paths"]),
            "montecarlo.wos_paths": c["wos_paths"],
            "montecarlo.wos_steps": c["wos_steps"],
            "montecarlo.wos_self_s": s["montecarlo.wos"],
            "montecarlo.ball_exit_draws": c["ball_exit_draws"],
            "montecarlo.ball_exit_s": b["montecarlo.ball_exit"],
            "montecarlo.ball_exit_accept_frac": ratio(
                c["rejection_draws"], c["rejection_proposals"]
            ),
            "domains.contains_points": c["contains_points"],
            "domains.contains_s": b["domains.contains"],
            "domains.dist_points": c["dist_points"],
            "domains.dist_s": b["domains.dist"],
            "montecarlo.survival_curve_s": b["montecarlo.survival_curve"],
            "montecarlo.heat_kernel_grid_self_s": s["montecarlo.heat_kernel_grid"],
            "montecarlo.fits": n["montecarlo.fit"],
            "montecarlo.fit_s": b["montecarlo.fit"],
            "harness.sweep_self_s": s["harness.sweep"],
            "harness.cells": c["cells"],
            "harness.noisy_cells": c["noisy_cells"],
            "montecarlo.pool_starts": c["pool_starts"],
            "montecarlo.run_batches_s": b["montecarlo.run_batches"],
        }


def snapshot() -> dict:
    """Identity of every attribute of every patchable owner (for tests)."""
    return {(id(o), k): id(v) for o in OWNERS for k, v in vars(o).items()}
