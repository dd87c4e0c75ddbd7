"""Benchmark of the stableheat CLI: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 bench/run.py --workload survival-walk --seed 1 --seconds 40 --trace 0

Run from a checkout whose ``src/`` holds the package.  Each pass runs the
workload's CLI calls in a fresh interpreter (``child.py``) with fresh
output and calibration files and one BLAS thread.  ``--trace 0`` repeats
passes that fit in ``--seconds`` and reports mean times scaled to the
reference host's speed (README.md); ``--trace 1``
repeats a traced pass at workers=1 plus an untraced one (and, for a pooled
workload, a pass at its own worker count with only the pool wrapped).
Metric names and units are those of ``BENCHMARK.json``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload and prefixes metric names with it.
Exit status: 0 with a result, 1 if a pass could not run, 2 on bad usage
or a checkout without the package.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: import-only passes per untraced run, so set-up has enough samples
EXTRA_SETUPS = 3

#: a pass that runs longer than this is killed and the run fails
PASS_TIMEOUT_S = 150

#: relative standard error at which ``cost_1pct_s`` prices a run
TARGET_REL_STDERR = 0.01

#: time of ``child.reference_s`` on the host the benchmark was defined on
#: (2-core x86-64 VM, Python 3.11, numpy 2.4); see README.md
REFERENCE_NOMINAL_S = 0.25


class BenchError(RuntimeError):
    """A pass could not run: the benchmark, not the program, failed."""


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("STABLEHEAT_WORKERS", None)
    return env


def run_pass(workdir, name=None, seed=0, workers=1, trace=None, scale=1.0, gates=False) -> dict:
    """One child interpreter; ``name=None`` only measures set-up."""
    cmd = [sys.executable, str(HERE / "child.py")]
    tail = []
    if name is not None:
        pass_dir = tempfile.mkdtemp(dir=workdir)
        spec = workloads.build(name, seed, workers, pass_dir, scale, gates)
        spec["trace"] = trace
        spec_path = os.path.join(pass_dir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        tail = [spec_path]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        cmd + [repr(t_spawn)] + tail, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=_env(), cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except BaseException as exc:  # a timeout or a signal: stop the pass and its pool
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"pass of {name} exceeded {PASS_TIMEOUT_S} s") from exc
        raise
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"pass of {name} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _wall(p) -> float:
    """Summed wall time of the pass's timed calls."""
    return sum(c["wall_s"] for c in p["calls"])


def _speed(passes) -> float:
    """Factor that scales a run's mean times to the reference host's speed:
    the nominal reference time over the run's mean reference time."""
    return REFERENCE_NOMINAL_S / statistics.mean(
        r for p in passes for r in p["reference_s"]
    )


def _tally(passes) -> tuple:
    """(attempted, failed) over CLI calls, report cells and oracle gates,
    plus one check that every pass of the run produced identical outputs
    (same inputs at any worker count, traced or not)."""
    attempted = failed = 0
    for p in passes:
        for c in p["calls"] + p["gate_calls"]:
            attempted += 1
            failed += c["rc"] != 0
        for cell in p["cells"]:
            attempted += 1
            failed += cell["flag"] in ("noisy", "diagnostic")
        for g in p["gates"]:
            attempted += 1
            failed += not g["ok"]
    first = passes[0]
    attempted += 1
    failed += any(
        p["cells"] != first["cells"] or p["lambda1"] != first["lambda1"] for p in passes
    )
    return attempted, failed


def _lambda1_rel_err(passes) -> float:
    """|lambda1_hat / lambda1 - 1| of the run's decay-rate fit, 0 if none."""
    values = passes[0]["lambda1"]
    if not values:
        return 0.0
    return abs(values[0] / workloads.LAMBDA1_CAUCHY - 1.0)


def _repeat(deadline, step):
    """Call ``step`` once, then again while a call as long as the last one
    still ends by ``deadline`` (a ``time.monotonic()`` value)."""
    while True:
        t0 = time.monotonic()
        step()
        now = time.monotonic()
        if now + (now - t0) > deadline:
            return


def end_to_end(name, seed, seconds, scale, workdir) -> tuple:
    workers = workloads.WORKLOADS[name][0]
    passes = []
    deadline = time.monotonic() + seconds
    imports = [run_pass(workdir) for _ in range(EXTRA_SETUPS)]
    _repeat(deadline, lambda: passes.append(
        run_pass(workdir, name, seed, workers, None, scale, gates=not passes)))
    speed = _speed(imports + passes)
    wall = speed * statistics.mean(_wall(p) for p in passes)
    used = [c["rel_stderr"] for c in passes[0]["cells"]
            if c["flag"] == "ok" and c["rel_stderr"] is not None]
    # no usable cell prices the run as if every cell were 100% noise
    rel = statistics.median(used) if used else 1.0
    metrics = {
        "wall_s": wall,
        "setup_s": speed * statistics.mean(p["setup_s"] for p in imports + passes),
        "cost_1pct_s": wall * (rel / TARGET_REL_STDERR) ** 2,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    notes = {"passes": len(passes), "speed": speed, "median_rel_stderr": rel,
             "import_setup_s": [p["setup_s"] for p in imports],
             "import_reference_s": [p["reference_s"][0] for p in imports]}
    if name == "survival-walk":
        notes["lambda1_rel_err"] = _lambda1_rel_err(passes)
    return metrics, passes, notes


def per_layer(name, seed, seconds, scale, workdir) -> tuple:
    workers = workloads.WORKLOADS[name][0]
    traced, plain, pooled = [], [], []

    def one_round():
        traced.append(run_pass(workdir, name, seed, 1, "full", scale, gates=True))
        plain.append(run_pass(workdir, name, seed, 1, None, scale))
        if workers > 1:
            pooled.append(run_pass(workdir, name, seed, workers, "pool", scale))

    _repeat(time.monotonic() + seconds, one_round)
    metrics = {k: statistics.median(p["layers"][k] for p in traced)
               for k in traced[0]["layers"]}
    plain_wall = statistics.median(_wall(p) for p in plain)
    metrics["harness.speedup_2w"] = 0.0
    if pooled:
        for k in ("montecarlo.pool_starts", "montecarlo.run_batches_s"):
            metrics[k] = statistics.median(p["layers"][k] for p in pooled)
        metrics["harness.speedup_2w"] = plain_wall / statistics.median(_wall(p) for p in pooled)
    metrics["bench.trace_overhead"] = statistics.median(_wall(p) for p in traced) / plain_wall - 1.0
    metrics["calibration.lambda1_rel_err"] = _lambda1_rel_err(plain)
    notes = {"rounds": len(traced), "plain_wall_s": plain_wall}
    return metrics, traced + plain + pooled, notes


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(name, args, spec, workdir) -> tuple:
    measure = per_layer if args.trace else end_to_end
    metrics, passes, notes = measure(name, args.seed, args.seconds, args.scale, workdir)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise BenchError(f"measured metrics {sorted(metrics)} do not match BENCHMARK.json")
    attempted, failed = _tally(passes)
    print(f"workload {name} seed {args.seed} trace {args.trace}")
    for m in wanted:
        print(f"  {m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    if "lambda1_rel_err" in notes:
        print(f"  lambda1_rel_err {notes['lambda1_rel_err']:.6g} frac")
    print(f"  failed_frac {failed / attempted:.6g} frac ({failed}/{attempted})")
    for p in passes:
        for g in p["gates"]:
            if not g["ok"]:
                print(f"  gate failed: {g['name']} z={g['z']:.3g}")
        for c in p["calls"] + p["gate_calls"]:
            if c["rc"] != 0:
                print(f"  call failed: exit {c['rc']}: {' '.join(c['argv'])}")
    provenance = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": _commit(), "nproc": os.cpu_count(), "versions": passes[0]["versions"],
        "notes": notes,
        "passes": [{"argv": [c["argv"] for c in p["calls"] + p["gate_calls"]],
                    "wall_s": [c["wall_s"] for c in p["calls"]], "setup_s": p["setup_s"],
                    "reference_s": p["reference_s"]}
                   for p in passes],
    }
    print("provenance " + json.dumps(provenance))
    units = {m["name"]: m["unit"] for m in wanted}
    return attempted, failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every path count (smoke tests use a small value)")
    args = ap.parse_args(argv)
    # a terminated run still stops its passes (see run_pass) and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "stableheat" / "__init__.py").is_file():
        print(f"error: no stableheat package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = tempfile.mkdtemp(prefix="_work-", dir=HERE)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_workload(name, args, spec, workdir)
            attempted += a
            failed += f
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
