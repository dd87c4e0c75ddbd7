"""scipy stays off the start-up path of the command-line interface.

Each check runs in a fresh interpreter, because the test modules import
scipy themselves.  Importing ``stableheat.cli`` loads no scipy module, and
neither does any timed call of the benchmark workloads, run here at the
smallest sample size; the identity suite, which integrates, still passes
through the scipy imports made inside the functions that use them.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import stableheat

ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

#: import the CLI module, run the argv given as JSON (if any), and print the
#: exit code with the scipy modules loaded before and after the call
PROBE = """
import json, sys
import stableheat.cli as cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
before = scipy_modules()
code = cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else None
print(json.dumps([code, before, scipy_modules()]))
"""


def _probe(argv=None):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(stableheat.__file__)))
    args = [] if argv is None else [json.dumps(argv)]
    proc = subprocess.run([sys.executable, "-c", PROBE, *args], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_scipy_module():
    assert _probe() == [None, [], []]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_no_timed_benchmark_call_loads_a_scipy_module(tmp_path, name):
    workers = workloads.WORKLOADS[name][0]
    spec = workloads.build(name, 1, workers, str(tmp_path), scale=0.0, gates=False)
    assert spec["calls"]
    for argv in spec["calls"]:
        code, before, after = _probe(argv)
        # at 256 paths a bhp sweep may end inconclusive (3) after all its cells
        assert code in (0, 3), argv
        assert (before, after) == ([], []), argv


def test_the_identity_suite_imports_scipy_where_it_integrates(tmp_path):
    code, before, after = _probe(["verify", "identities", "--d", "1", "--alpha", "1",
                                  "--out", str(tmp_path)])
    assert code == 0
    assert before == []
    assert {"scipy.integrate", "scipy.special"} <= set(after)
