"""Exit codes of the command-line driver on bad input and on default
settings: 2 with an ``error:`` line for configuration errors, 3 for an
inconclusive sweep; and the lifetime of the worker pool that
``montecarlo._run_batches`` keeps between calls."""

import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from stableheat import cli
from stableheat import domains as dom
from stableheat import montecarlo as mc
from stableheat.stable import StableParams

BALL_1D = '{"type": "ball", "center": [0], "radius": 1}'


def _survival(*extra):
    return ["survival", "--mc", "--t", "1", "--x", "0", "--domain-json", BALL_1D, *extra]


@pytest.mark.parametrize(
    "doc, d, x",
    [
        ('{"type": "ball", "center": [0], "radius": null}', 1, "0"),
        ('{"type": "halfspace", "axis": [0, 1], "offset": null}', 2, "0 1"),
        ('{"type": "interval_complement", "intervals": [1, 2]}', 1, "5"),
    ],
)
def test_malformed_domain_document_exits_2(capsys, doc, d, x):
    argv = ["survival", "--profile", "--t", "1", "--x", x, "--d", str(d), "--domain-json", doc]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "extra, option",
    [
        (("--n", "-5"), "--n"),
        (("--n", "0"), "--n"),
        (("--h", "0"), "--h"),
        (("--workers", "-3"), "--workers"),
    ],
)
def test_non_positive_option_exits_2(capsys, extra, option):
    assert cli.main(_survival(*extra)) == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}: must be positive" in err


def test_non_positive_worker_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("STABLEHEAT_WORKERS", "0")
    assert cli.main(_survival("--n", "64")) == 2
    assert "error: STABLEHEAT_WORKERS must be a positive integer" in capsys.readouterr().err


def test_non_integer_worker_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("STABLEHEAT_WORKERS", "abc")
    assert cli.main(_survival("--n", "64")) == 2
    err = capsys.readouterr().err
    assert "error: STABLEHEAT_WORKERS must be a positive integer, got 'abc'" in err


def test_heat_kernel_start_point_outside_the_domain_exits_2(capsys):
    argv = ["heatkernel", "--mc", "--domain-json", BALL_1D, "--x", "5", "--y", "0.3",
            "--t", "0.25", "--n", "4096"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: start point must lie in the domain\n"


PROFILES = ["verify", "profiles", "--domain-json", BALL_1D, "--n", "64", "--h", "0.25"]


@pytest.mark.parametrize(
    "argv, text",
    [
        ([*PROFILES, "--t", ","], ","),
        ([*PROFILES, "--t", " "], " "),
        ([*PROFILES, "--points", "0.5;,"], ","),
        (["survival", "--mc", "--t", "1", "--x", ",", "--domain-json", BALL_1D], ","),
    ],
    ids=["t_comma", "t_blank", "points_entry", "x"],
)
def test_option_without_numbers_exits_2(capsys, argv, text):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot parse numbers from {text!r}\n"


def test_run_batches_rejects_empty_runs():
    with pytest.raises(ValueError, match="path count must be positive"):
        mc._run_batches(0, lambda i, m: m)


# batch workers for the pool tests; module-level so that they pickle

def _size(i, m):
    return m


def _pid(i, m):
    return os.getpid()


def _fail_on_batch_1(i, m):
    if i == 1:
        raise ArithmeticError("batch 1 failed")
    return m


def _exit_worker(i, m):
    os._exit(3)


#: four batches: three full ones and a short last one
N_POOLED = 3 * mc.BATCH + 5
SIZES = [mc.BATCH] * 3 + [5]


@pytest.fixture
def no_pool():
    mc.shutdown_pool()
    yield
    mc.shutdown_pool()


def test_pooled_calls_reuse_one_executor(no_pool):
    first = set(mc._run_batches(N_POOLED, _pid, 2))
    pool = mc._pool
    second = set(mc._run_batches(N_POOLED, _pid, 2))
    assert mc._pool is pool
    assert len(first | second) <= 2
    assert os.getpid() not in first | second


def test_another_worker_count_replaces_the_executor(no_pool):
    before = set(mc._run_batches(N_POOLED, _pid, 2))
    pool = mc._pool
    after = set(mc._run_batches(N_POOLED, _pid, 3))
    assert mc._pool is not pool and mc._pool[0] == 3
    assert not before & after
    assert not any(p.pid in before for p in multiprocessing.active_children())


def test_a_failing_batch_propagates_and_the_pool_still_works(no_pool):
    with pytest.raises(ArithmeticError, match="batch 1 failed"):
        mc._run_batches(N_POOLED, _fail_on_batch_1, 2)
    pool = mc._pool
    assert mc._run_batches(N_POOLED, _size, 2) == SIZES
    assert mc._pool is pool


def test_a_dead_worker_breaks_the_pool_and_the_next_call_starts_afresh(no_pool):
    with pytest.raises(BrokenProcessPool):
        mc._run_batches(N_POOLED, _exit_worker, 2)
    assert mc._pool is None
    assert mc._run_batches(N_POOLED, _size, 2) == SIZES


def test_shutdown_pool_twice_is_safe(no_pool):
    mc._run_batches(N_POOLED, _size, 2)
    mc.shutdown_pool()
    mc.shutdown_pool()
    assert mc._pool is None
    assert multiprocessing.active_children() == []


def test_cli_leaves_no_pool_behind(no_pool, capsys):
    assert cli.main(_survival("--n", "20000", "--h", "0.25", "--workers", "2")) == 0
    assert capsys.readouterr().out.startswith("mean ")
    assert mc._pool is None
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "doc, d",
    [
        ('{"type": "exterior_ball", "center": [0], "radius": 1}', 1),
        ('{"type": "exterior_ball", "center": [0, 0], "radius": 1}', 2),
        ('{"type": "interval_complement", "intervals": [[-1, 1]]}', 1),
        ('{"type": "ball", "center": [0], "radius": 2}', 1),
    ],
)
@pytest.mark.parametrize("suite", ["profiles", "factorization"])
def test_default_horizons_lie_on_the_step_grid(tmp_path, suite, doc, d):
    domain = dom.domain_from_dict(json.loads(doc))
    times = cli._default_times(domain, 1.5, 0.25)
    assert all(t > 0 and (t / 0.25).is_integer() for t in times)
    argv = ["verify", suite, "--d", str(d), "--alpha", "1.5", "--domain-json", doc,
            "--n", "512", "--h", "0.25", "--out", str(tmp_path)]
    assert cli.main(argv) == 0


def test_default_horizons_already_on_the_grid_are_unchanged():
    half = dom.HalfSpace((0.0, 1.0))
    assert cli._default_times(half, 1.5, 1.0 / 16) == (1.0, 16.0, 256.0)
    ball = dom.Ball((0.0,), 1.0)
    assert cli._default_times(ball, 1.0, 1.0 / 64) == (0.125, 0.25, 0.5, 1.0)


def test_bhp_with_a_majority_of_diagnostic_cells_is_inconclusive(tmp_path, capsys):
    # a target far outside the reach of the walk gets zero exit counts, so
    # its cell is flagged "diagnostic"
    far = {"type": "box", "lo": [100, 100], "hi": [100.001, 100.001]}
    good = {
        "domain": {"type": "halfspace", "axis": [0, 1]}, "x0": [0, 0], "r": 1, "p": 0.5,
        "x1": [0, 0.1], "x2": [0.2, 0.3],
        "target1": {"type": "box", "lo": [-4, 1.2], "hi": [0, 4]},
        "target2": {"type": "box", "lo": [0, 1.2], "hi": [4, 4]},
    }
    config = tmp_path / "bhp.json"
    config.write_text(json.dumps({"configs": [good, {**good, "target2": far},
                                              {**good, "target1": far}]}))
    argv = ["verify", "bhp", "--d", "2", "--alpha", "1.5", "--config", str(config),
            "--n", "16384", "--seed", "9", "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    assert "inconclusive: 2/3 cells are noisy or diagnostic" in capsys.readouterr().err


@pytest.mark.parametrize("d", [1, 3])
def test_bhp_config_of_another_dimension_exits_2(tmp_path, capsys, d):
    good = {
        "domain": {"type": "halfspace", "axis": [0, 1]}, "x0": [0, 0], "r": 1, "p": 0.5,
        "x1": [0, 0.1], "x2": [0.2, 0.3],
        "target1": {"type": "box", "lo": [-4, 1.2], "hi": [0, 4]},
        "target2": {"type": "box", "lo": [0, 1.2], "hi": [4, 4]},
    }
    config = tmp_path / "bhp.json"
    config.write_text(json.dumps({"configs": [good]}))
    argv = ["verify", "bhp", "--d", str(d), "--alpha", "1.5", "--config", str(config),
            "--n", "64", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: domain has dimension 2, expected")
    assert "Traceback" not in err


def test_exact_samplers_reject_a_dimension_mismatch():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="domain has dimension 2, but d = 1"):
        mc.sample_exit_positions_wos(dom.HalfSpace((0.0, 1.0)), StableParams(1, 1.5),
                                     (0.0, 0.5), rng, 8)
    with pytest.raises(ValueError, match="dimension d = 1"):
        mc.sample_ball_exit_positions(StableParams(1, 1.5), (0.0, 0.0), 1.0, (0.0, 0.5), rng, 8)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"configs": []}, 'error: verify bhp needs a non-empty "configs" list'),
        ({"configs": [{"domain": {"type": "halfspace", "axis": [0, 1]}, "r": 1}]},
         "error: bhp config is missing the key 'x0'"),
    ],
)
def test_bhp_config_without_cells_or_keys_exits_2(tmp_path, capsys, doc, message):
    config = tmp_path / "bhp.json"
    config.write_text(json.dumps(doc))
    argv = ["verify", "bhp", "--d", "2", "--alpha", "1.5", "--config", str(config),
            "--n", "64", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err


BHP_CELL = {
    "domain": {"type": "halfspace", "axis": [0, 1]}, "x0": [0, 0], "r": 1, "p": 0.5,
    "x1": [0, 0.1], "x2": [0.2, 0.3],
    "target1": {"type": "ball", "center": [-2, 2], "radius": 1},
    "target2": {"type": "box", "lo": [0, 1.2], "hi": [4, 4]},
}


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "error: cannot read bhp config"),
        ("[]", 'error: verify bhp needs a non-empty "configs" list'),
        (json.dumps({"configs": [{**BHP_CELL, "r": None}]}), "error: malformed bhp config"),
        (json.dumps({"configs": [{**BHP_CELL, "target1": {**BHP_CELL["target1"],
                                                          "radius": None}}]}),
         "error: malformed bhp config"),
        ('{"configs": [5]}', "error: malformed bhp config"),
    ],
    ids=["missing_file", "top_level_list", "null_r", "null_region_radius", "number_cell"],
)
def test_malformed_bhp_config_exits_2(tmp_path, capsys, text, message):
    config = tmp_path / "bhp.json"
    if text is not None:
        config.write_text(text)
    argv = ["verify", "bhp", "--d", "2", "--alpha", "1.5", "--config", str(config),
            "--n", "64", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err
