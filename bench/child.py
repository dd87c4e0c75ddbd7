"""One benchmark pass in a fresh interpreter.

Usage: ``child.py SPAWN_TIME [SPEC_FILE]``.  SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process (CLOCK_MONOTONIC
is shared by all processes), so the set-up time runs from interpreter
start until ``stableheat.cli`` is imported.  Without a spec the pass only
measures set-up.  The last line of standard output is the pass result as
JSON.
"""

import json
import sys
import time

#: iterations of the reference loop (about 0.25 s on the reference host)
REFERENCE_STEPS = 170


def reference_s() -> float:
    """Time of a fixed walk-like loop (gather, Gaussian draws and scatter on
    16384 two-dimensional walkers) with no stableheat code in it: it tracks
    how fast the shared host runs right now (see README.md)."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    x = np.zeros((16384, 2))
    t0 = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        idx = np.nonzero(x[:, 0] < 1e9)[0]
        z = rng.standard_normal((idx.size, 2))
        x[idx] += np.sqrt(rng.random(idx.size))[:, None] * z
    return time.perf_counter() - t0


def _call(cli, argv) -> dict:
    import traceback

    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # a crash is a failed operation, not a benchmark error
        traceback.print_exc()
        rc = -1
    return {"argv": argv, "rc": rc, "wall_s": time.perf_counter() - t0}


def _cells(path) -> list:
    import csv

    try:
        with open(path, newline="") as fh:
            return [
                {"flag": row["flag"],
                 "rel_stderr": float(row["rel_stderr"]) if row["rel_stderr"] else None}
                for row in csv.DictReader(fh)
            ]
    except OSError:
        return []


def _lambda1(path) -> list:
    """Decay-rate estimates recorded in the pass's own calibration file."""
    try:
        with open(path) as fh:
            return [json.loads(line)["value"] for line in fh if line.strip()]
    except OSError:
        return []


def _peak_rss_mb() -> float:
    import resource

    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run(cli, spec: dict) -> dict:
    import contextlib
    import platform

    import numpy
    import scipy

    import stableheat
    import workloads

    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.Tracer(spec["trace"])
    refs = [reference_s()]
    calls = []
    with tracer or contextlib.nullcontext():
        for argv in spec["calls"]:
            calls.append(_call(cli, argv))
            refs.append(reference_s())
        gate_calls = [_call(cli, argv) for argv in spec["gate_calls"]]
        gates = []
        if spec["sampler_gates"]:
            gates = workloads.sampler_gates(**spec["sampler_gates"])
    return {
        "reference_s": refs,
        "calls": calls,
        "gate_calls": gate_calls,
        "gates": gates,
        "cells": _cells(spec["report"]),
        "lambda1": _lambda1(spec["calibration_file"]) if spec["calibration_file"] else [],
        "peak_rss_mb": _peak_rss_mb(),
        "layers": tracer.metrics() if tracer is not None else None,
        "versions": {
            "stableheat": stableheat.__version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }


def main() -> None:
    t_spawn = float(sys.argv[1])
    import stableheat.cli as cli

    result = {"setup_s": time.monotonic() - t_spawn}
    if len(sys.argv) > 2:
        with open(sys.argv[2]) as fh:
            result.update(run(cli, json.load(fh)))
    else:
        result["reference_s"] = [reference_s()]
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
