"""Smoke tests of the benchmark at tiny path counts.

Every metric named in BENCHMARK.json must be printed with its unit and
reported in the final JSON line, the per-layer counts the workloads are
designed around must hold, and tracing must leave no wrapper behind.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))


@functools.lru_cache(maxsize=None)
def _run(trace: int) -> list:
    """Output lines of one run of every workload at tiny path counts."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "0.02"],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, key):
    lines = _run(trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = SPEC[key]
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in wanted}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    printed = [line.split() for line in lines if line.startswith("  ")]
    for m in wanted:
        rows = [row for row in printed if row[0] == m["name"]]
        assert len(rows) == len(WORKLOADS), m["name"]
        assert all(row[2] == m["unit"] for row in rows), m["name"]


def test_predicted_layer_counts():
    metrics = {k: v["value"] for k, v in json.loads(_run(1)[-1])["metrics"].items()}
    for w in WORKLOADS:
        density = metrics[f"{w}.stable.table_evals"]
        walks = metrics[f"{w}.montecarlo.path_steps"]
        wos = metrics[f"{w}.montecarlo.wos_paths"]
        assert (density > 0) == (w == "kernel-ball"), w
        assert (walks > 0) == (w != "exit-wos"), w
        assert (wos > 0) == (w == "exit-wos"), w
    assert metrics["kernel-ball.montecarlo.pool_starts"] > 0
    assert metrics["survival-walk.montecarlo.pool_starts"] == 0


def test_tracer_restores_every_patched_attribute():
    import layers
    from stableheat import domains, montecarlo
    from stableheat.stable import StableParams

    before = layers.snapshot()
    for scope, targets in layers.SCOPES.items():
        tracer = layers.Tracer(scope)
        with tracer:
            during = layers.snapshot()
            montecarlo.survival_curve(
                domains.Ball((0.0,), 1.0), StableParams(1, 1.0), (0.0,), (0.25,), 512, 1 / 16, 1
            )
        for owner, attr, _ in targets:
            assert during[(id(owner), attr)] != before[(id(owner), attr)], attr
        assert layers.snapshot() == before, scope
        assert tracer.metrics()["montecarlo.run_batches_s"] > 0
        if scope == "full":
            assert tracer.metrics()["montecarlo.walk_paths"] == 512
