"""Workload definitions: the CLI calls, gates and reports of one pass.

A workload turns the benchmark seed into CLI seeds; the program sees only
the generated argv and config files.  ``build`` returns a JSON-ready pass
spec for ``child.py``.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import math
import os
import random

#: published Cauchy decay rate on (-1, 1): Kulczycki, Kwasnicki, Malecki,
#: Stos, Proc. LMS 2010
LAMBDA1_CAUCHY = 1.1577738836977

#: |z| beyond which an oracle gate fails
Z_GATE = 4.0

#: (d, alpha) pairs of the exact ball-exit gates
GATE_PARAMS = ((1, 1.0), (2, 1.5), (3, 0.7))

#: start radii that take the centre, rejection and composition paths of
#: sample_ball_exit_positions for every pair in GATE_PARAMS
GATE_RADII = (0.0, 0.3, 0.99)

#: start radius of the walk-on-spheres gate
WOS_RADIUS = 0.5

GATE_N = 131072

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

#: name -> (default worker count, report stem)
WORKLOADS = {
    "survival-walk": (1, "profiles"),
    "kernel-ball": (2, "factorization"),
    "exit-wos": (1, "bhp"),
}


def _n(base: int, scale: float) -> str:
    return str(max(256, int(base * scale)))


def build(name: str, seed: int, workers: int, pass_dir: str, scale: float = 1.0,
          gates: bool = True) -> dict:
    """Spec of one pass of workload ``name``; every output goes to ``pass_dir``.

    Gates are deterministic given the seed, so a run needs them only once.
    """
    rng = random.Random(f"{name}:{seed}")
    s1, s2 = (str(rng.randrange(1, 2**31)) for _ in range(2))
    out = os.path.join(pass_dir, "out")
    w = str(workers)
    spec = {
        "workload": name,
        "calls": [],
        "gate_calls": [],
        "sampler_gates": None,
        "report": os.path.join(out, WORKLOADS[name][1] + ".csv"),
        "calibration_file": None,
    }
    if name == "survival-walk":
        cal = os.path.join(pass_dir, "calibration.jsonl")
        spec["calibration_file"] = cal
        spec["calls"] = [
            ["verify", "profiles", "--d", "2", "--alpha", "1.5",
             "--domain-json", '{"type": "halfspace", "axis": [0, 1]}',
             "--h", "0.0625", "--n", _n(8192, scale), "--seed", s1, "--workers", w,
             "--out", out],
            ["calibrate", "lambda1", "--d", "1", "--alpha", "1", "--r", "1",
             "--h", "0.03125", "--n", _n(100_000, scale), "--seed", s2, "--workers", w,
             "--calibration-file", cal],
        ]
    elif name == "kernel-ball":
        spec["calls"] = [
            ["verify", "factorization", "--d", "1", "--alpha", "1",
             "--domain-json", '{"type": "ball", "center": [0], "radius": 1}',
             "--h", "0.015625", "--n", _n(32768, scale), "--seed", s1, "--workers", w,
             "--out", out],
        ]
        if gates:
            spec["gate_calls"] = [
                ["verify", "identities", "--d", "1", "--alpha", "1",
                 "--out", os.path.join(pass_dir, "identities")],
            ]
    elif name == "exit-wos":
        cfg = os.path.join(pass_dir, "bhp-config.json")
        os.makedirs(pass_dir, exist_ok=True)
        with open(cfg, "w") as fh:
            json.dump({"configs": BHP_CONFIGS}, fh)
        spec["calls"] = [
            ["verify", "bhp", "--d", "2", "--alpha", "1.5", "--config", cfg,
             "--n", _n(131072, scale), "--seed", s1, "--workers", w, "--out", out],
        ]
        if gates:
            spec["sampler_gates"] = {"seed": int(s2), "n": int(_n(GATE_N, scale))}
    else:
        raise ValueError(f"unknown workload {name!r}")
    return spec


def sampler_gates(seed: int, n: int) -> list:
    """Exact-sampler checks against ``kernels.ball_exit_tail_exact`` at R=2.

    For each (d, alpha) in GATE_PARAMS: ball exit draws from the centre,
    rejection and composition start points, and walk-on-spheres exits from
    the unit ball.  Returns one record per gate with its z-score.
    """
    import numpy as np
    from stableheat import domains, kernels, montecarlo
    from stableheat.stable import StableParams

    gates = []
    for i, (d, alpha) in enumerate(GATE_PARAMS):
        params = StableParams(d, alpha)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, i], dtype=np.uint64))
        )
        ball = domains.Ball((0.0,) * d, 1.0)
        cases = [(f"ball_exit r={r}", r, False) for r in GATE_RADII]
        cases.append((f"wos r={WOS_RADIUS}", WOS_RADIUS, True))
        for label, r, wos in cases:
            x = np.zeros(d)
            x[0] = r
            if wos:
                pos, _ = montecarlo.sample_exit_positions_wos(ball, params, x, rng, n)
            else:
                pos = montecarlo.sample_ball_exit_positions(params, np.zeros(d), 1.0, x, rng, n)
            exact = kernels.ball_exit_tail_exact(params, x, 2.0)
            hat = float(np.mean(np.linalg.norm(pos, axis=1) > 2.0))
            z = (hat - exact) / math.sqrt(exact * (1.0 - exact) / n)
            gates.append({
                "name": f"d={d} alpha={alpha} {label}",
                "estimate": hat, "exact": exact, "z": z, "ok": abs(z) <= Z_GATE,
            })
    return gates
