"""Append-only store for calibrated quantities (decay rate, cone exponent).

Entries are JSON objects, one per line, keyed by kind, (d, alpha) and a
domain descriptor, with full provenance (seed, n, h, fit window, wall
time).
"""

from __future__ import annotations

import json
import os
import time

from .montecarlo import MCEstimate


def append_entry(
    path,
    kind: str,
    d: int,
    alpha: float,
    domain_desc: dict,
    estimate: MCEstimate,
    fit_window,
) -> dict:
    """Append one entry to ``path`` as one JSON line with sorted keys,
    creating the parent directory, and return it.  The keys are kind, d,
    alpha, domain, value, stderr, n, seed, h (the estimate's step),
    fit_window, wall_time and recorded_at (UTC)."""
    entry = {
        "kind": kind,
        "d": d,
        "alpha": alpha,
        "domain": domain_desc,
        "value": estimate.mean,
        "stderr": estimate.stderr,
        "n": estimate.n,
        "seed": estimate.seed,
        "h": estimate.step,
        "fit_window": list(fit_window),
        "wall_time": estimate.wall_time,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry

