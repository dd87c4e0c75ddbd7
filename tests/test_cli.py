"""Exit codes of the command-line driver on bad input and on default
settings: 2 with an ``error:`` line for configuration errors, 3 for an
inconclusive sweep; and the job lists of ``montecarlo._run_batches`` and
the process pool that each pooled call starts and stops."""

import argparse
import ast
import importlib.util
import inspect
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import stableheat
from stableheat import cli, harness
from stableheat import domains as dom
from stableheat import montecarlo as mc
from stableheat.errors import InconclusiveError
from stableheat.stable import StableParams
from test_golden import BHP_CONFIGS

BALL_1D = '{"type": "ball", "center": [0], "radius": 1}'


def _survival(*extra):
    return ["survival", "mc", "--t", "1", "--x", "0", "--domain-json", BALL_1D, *extra]


@pytest.mark.parametrize(
    "doc, d, x",
    [
        ('{"type": "ball", "center": [0], "radius": null}', 1, "0"),
        ('{"type": "halfspace", "axis": [0, 1], "offset": null}', 2, "0 1"),
        ('{"type": "interval_complement", "intervals": [1, 2]}', 1, "5"),
    ],
)
def test_malformed_domain_document_exits_2(capsys, doc, d, x):
    argv = ["survival", "profile", "--t", "1", "--x", x, "--d", str(d), "--domain-json", doc]
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
        (("--h", "inf"), "--h"),
    ],
)
def test_non_positive_option_exits_2(capsys, extra, option):
    assert cli.main(_survival(*extra)) == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}: must be positive" in err


BALL_ARGS = ["--d", "1", "--alpha", "1", "--domain-json", BALL_1D, "--n", "512"]


# each of these once ended in an OverflowError traceback, or exited 2 with
# a message that did not name the option
@pytest.mark.parametrize(
    "argv, text",
    [
        (["survival", "mc", "--x", "0", "--t", "inf", *BALL_ARGS], "argument --t"),
        (["heatkernel", "mc", "--x", "0", "--y", "0.3", "--t", "inf", *BALL_ARGS],
         "argument --t"),
        (["verify", "factorization", "--t", "inf", "--h", "0.25", *BALL_ARGS], "--t"),
        (["survival", "mc", "--x", "0", "--t", "1e300", "--h", "1e-300", *BALL_ARGS],
         "finite number of steps"),
        (["verify", "profiles", "--t", "nan", *BALL_ARGS], "--t"),
        (["calibrate", "lambda1", "--r", "0", "--n", "512"], "argument --r"),
        (["calibrate", "lambda1", "--r", "nan", "--n", "512"], "argument --r"),
        (["ball", "exit-time", "--x", "0", "--r", "inf"], "argument --r"),
        (["ball", "exit-time", "--x", "0", "--r", "nan"], "argument --r"),
        (["ball", "exit-time", "--x", "0", "--r", "-1"], "argument --r"),
        (["ball", "exit-time", "--x", "0", "--r", "0"], "argument --r"),
        (["ball", "green", "--x", "0", "--v", "0.5", "--r", "-1"], "argument --r"),
        (["ball", "tail", "--x", "0", "--R", "nan"], "tail threshold"),
    ],
    ids=["survival_t_inf", "heatkernel_t_inf", "factorization_t_inf", "survival_t_over_h",
         "profiles_t_nan", "lambda1_r_0", "lambda1_r_nan", "ball_r_inf", "ball_r_nan",
         "ball_r_negative", "ball_r_0", "green_r_negative", "tail_R_nan"],
)
def test_non_finite_or_overflowing_time_or_radius_exits_2(capsys, monkeypatch, tmp_path,
                                                          argv, text):
    monkeypatch.chdir(tmp_path)  # default report and calibration paths
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "error: " in err and text in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["ball", "exit-time", "--x", "nan"], "--x"),
        (["ball", "exit-time", "--x", "0", "--center", "nan"], "--center"),
        (["ball", "poisson", "--x", "0", "--y", "nan"], "--y"),
        (["ball", "tail", "--x", "nan", "--R", "3"], "--x"),
        (["ball", "green", "--x", "nan", "--v", "0.5"], "--x"),
        (["ball", "green", "--x", "0", "--v", "inf"], "--v"),
    ],
    ids=["exit_time_x", "exit_time_center", "poisson_y", "tail_x", "green_x", "green_v"],
)
def test_non_finite_ball_point_exits_2(capsys, argv, option):
    # these printed nan with exit 0, or a message that named no option
    assert cli.main(argv) == 2
    assert f"error: {option} must have finite coordinates" in capsys.readouterr().err


def test_ball_at_a_radius_whose_square_overflows(capsys):
    # r ** 2 once ended each of these in an OverflowError traceback
    for query, extra in (("exit-time", []), ("green", ["--v", "5e199"]),
                         ("poisson", ["--y", "2e200"])):
        assert cli.main(["ball", query, "--x", "0", "--r", "1e200", *extra]) == 0
        assert np.isfinite(float(capsys.readouterr().out))
    assert cli.main(["ball", "exit-time", "--x", "0", "--r", "1e200", "--alpha", "1.9"]) == 2
    assert "error: the value overflows a float at --r" in capsys.readouterr().err


def test_ball_tail_at_a_threshold_whose_power_overflows(capsys):
    # the overflow of R ** alpha was blamed on --r
    assert cli.main(["ball", "tail", "--d", "2", "--alpha", "1.5", "--x", "0,0",
                     "--R", "1e300"]) == 2
    assert capsys.readouterr().err == "error: the value overflows a float at --R 1e+300\n"


def test_heat_kernel_start_point_outside_the_domain_exits_2(capsys):
    argv = ["heatkernel", "mc", "--domain-json", BALL_1D, "--x", "5", "--y", "0.3",
            "--t", "0.25", "--n", "4096"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: start point must lie in the domain\n"


# in a fresh interpreter: a non-finite frequency once crashed QUADPACK with
# a segmentation fault, which would take the test process down with it
@pytest.mark.parametrize(
    "argv",
    [
        ["--t", "nan", "--x", "0", "--y", "1"],
        ["--t", "inf", "--x", "0", "--y", "1"],
        ["--t", "1", "--x", "nan", "--y", "0"],
        ["--t", "1", "--x", "0", "--y", "nan"],
        ["--t", "1", "--x", "0", "--y", "inf"],
        ["--t", "1", "--x", "0", "--y", "1e200"],
        ["--d", "3", "--alpha", "0.7", "--t", "1", "--x", "0,0,0", "--y", "inf,0,0"],
        ["--d", "2", "--alpha", "1.5", "--t", "1", "--x", "0,0", "--y", "1e200,0"],
    ],
    ids=["t_nan", "t_inf", "x_nan", "y_nan", "y_inf", "y_1e200", "d3_y_inf", "d2_y_1e200"],
)
def test_density_with_non_finite_or_overflowing_input_exits_2(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(stableheat.__file__)))
    proc = subprocess.run([sys.executable, "-m", "stableheat.cli", "density", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


PROFILES = ["verify", "profiles", "--domain-json", BALL_1D, "--n", "64", "--h", "0.25"]


@pytest.mark.parametrize(
    "argv, text",
    [
        ([*PROFILES, "--t", ","], ","),
        ([*PROFILES, "--t", " "], " "),
        ([*PROFILES, "--points", "0.5;,"], ","),
        (["survival", "mc", "--t", "1", "--x", ",", "--domain-json", BALL_1D], ","),
    ],
    ids=["t_comma", "t_blank", "points_entry", "x"],
)
def test_option_without_numbers_exits_2(capsys, argv, text):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot parse numbers from {text!r}\n"


@pytest.mark.parametrize(
    "argv, option, given",
    [
        (["verify", "factorization", "--t", "0.25,0.25", "--h", "0.25", *BALL_ARGS],
         "--t", "0.25,0.25"),
        ([*PROFILES, "--t", "0.5 0.25 0.5"], "--t", "0.5 0.25 0.5"),
        ([*PROFILES, "--points", "0;0"], "--points", "0;0"),
        ([*PROFILES, "--d", "2", "--domain-json", '{"type": "halfspace", "axis": [0, 1]}',
          "--points", "0,1;0.5,1;0 1.0"], "--points", "0,1;0.5,1;0 1.0"),
    ],
    ids=["factorization_t", "profiles_t", "profiles_points", "profiles_points_spelled_apart"],
)
def test_a_repeated_horizon_or_probe_point_exits_2(capsys, monkeypatch, tmp_path, argv,
                                                   option, given):
    # each copy once wrote its cells again and counted twice in the quantiles
    monkeypatch.chdir(tmp_path)  # the default report directory
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {option} must not list a value twice, got {given!r}\n"
    assert os.listdir(tmp_path) == []  # no report


CONE_2D = '{"type": "cone", "angle": 1, "axis": [0, 1]}'
BALL_PROFILE = ["survival", "profile", "--t", "2", "--x", "0", "--domain-json", BALL_1D]
CONE_PROFILE = ["survival", "profile", "--t", "2", "--x", "0,1", "--d", "2",
                "--domain-json", CONE_2D]


# each of these once exited 0 with nan or a clamped value, or ended in a
# traceback where an option was missing
@pytest.mark.parametrize(
    "argv, text",
    [
        (["ball", "green", "--x", "0"], "the following arguments are required: --v"),
        (["ball", "poisson", "--x", "0"], "the following arguments are required: --y"),
        (["ball", "tail", "--x", "0"], "the following arguments are required: --R"),
        ([*BALL_PROFILE, "--lambda1", "nan"], "lambda1 must be positive and finite"),
        ([*BALL_PROFILE, "--lambda1", "-5"], "lambda1 must be positive and finite"),
        ([*BALL_PROFILE, "--lambda1", "inf"], "lambda1 must be positive and finite"),
        ([*CONE_PROFILE, "--beta", "nan"], "beta must lie in [0, alpha)"),
        ([*CONE_PROFILE, "--beta", "-1"], "beta must lie in [0, alpha)"),
        ([*CONE_PROFILE, "--beta", "5"], "beta must lie in [0, alpha)"),
        (["heatkernel", "profile", "--lambda1", "nan", "--t", "2", "--x", "0",
          "--y", "0.3", "--domain-json", BALL_1D], "lambda1 must be positive and finite"),
        (["verify", "factorization", "--profile-form", "--t", "0.1,0.25", "--h", "0.015625",
          "--n", "64", "--domain-json", BALL_1D], "integer multiple of the step"),
    ],
    ids=["green_without_v", "poisson_without_y", "tail_without_R", "lambda1_nan",
         "lambda1_negative", "lambda1_inf", "beta_nan", "beta_negative", "beta_above_alpha",
         "bracket_lambda1_nan", "profile_form_t_off_grid"],
)
def test_missing_option_bad_decay_rate_exponent_or_off_grid_horizon_exits_2(
        capsys, monkeypatch, tmp_path, argv, text):
    monkeypatch.chdir(tmp_path)  # default report path
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "error: " in err and text in err


def test_beta_on_a_domain_that_is_not_a_cone_exits_2(capsys):
    # the ball profile never read it, and this printed 1 and exited 0
    argv = ["survival", "profile", "--d", "1", "--alpha", "1", "--domain-json", BALL_1D,
            "--x", "0", "--t", "0.5", "--beta", "7"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: beta applies only to the native profile of a cone, not to Ball\n"
    )


@pytest.mark.parametrize(
    "doc, name",
    [('{"type": "halfspace", "axis": [1]}', "HalfSpace"),
     ('{"type": "exterior_ball", "center": [0], "radius": 0.25}', "ExteriorBall")],
    ids=["halfspace", "exterior_ball"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["survival", "profile", "--x", "0.5", "--t", "100"],
        ["heatkernel", "profile", "--x", "0.5", "--y", "1", "--t", "1"],
        ["verify", "profiles", "--t", "0.25", "--h", "0.25", "--n", "64"],
        ["verify", "factorization", "--profile-form", "--t", "0.25", "--h", "0.25",
         "--n", "64"],
    ],
    ids=["survival_profile", "heatkernel_profile", "verify_profiles", "verify_factorization"],
)
def test_lambda1_on_a_domain_that_is_not_a_ball_exits_2(capsys, monkeypatch, tmp_path, argv,
                                                        doc, name):
    # only the ball profile reads lambda1; each of these ignored it and exited 0
    monkeypatch.chdir(tmp_path)  # the default report directory
    assert cli.main([*argv, "--domain-json", doc, "--lambda1", "5"]) == 2
    assert capsys.readouterr().err == (
        f"error: lambda1 applies only to the profile of a ball, not to {name}\n"
    )
    assert os.listdir(tmp_path) == []  # no report


@pytest.mark.parametrize(
    "doc, d, x, key",
    [
        ('{"type": "ball", "center": [0], "radius": "nan"}', 1, "0.5", "radius"),
        ('{"type": "ball", "center": [0], "radius": true}', 1, "0.5", "radius"),
        ('{"type": "cone", "angle": 1, "axis": [0, 1], "beta": "0.3"}', 2, "0 1", "beta"),
        ('{"type": "interval_complement", "intervals": [["-inf", "0"]]}', 1, "1", "intervals"),
        ('{"type": "halfspace", "axis": [[0], [1]]}', 2, "0 1", "axis"),
        ('{"type": "interval_complement", "intervals": [[[-1, 0]]]}', 1, "1", "intervals"),
    ],
    ids=["radius_text", "radius_bool", "cone_beta_text", "interval_text", "axis_too_deep",
         "intervals_too_deep"],
)
def test_a_domain_field_that_is_not_a_number_exits_2(capsys, doc, d, x, key):
    # these printed a profile value, read true as 1 or ended in a TypeError
    argv = ["survival", "profile", "--d", str(d), "--alpha", "1", "--domain-json", doc,
            "--x", x, "--t", "1"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: domain field '{key}' must be a finite number")


def test_a_dimension_that_is_not_a_whole_number_exits_2(capsys):
    # dim 2.5 was truncated to 2, and the walk ran on that plane
    argv = ["survival", "mc", "--d", "2", "--alpha", "1.5", "--domain-json",
            '{"type": "hyperplane_complement", "dim": 2.5}', "--x", "0 1", "--t", "1",
            "--n", "64"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: dim must be a whole number, got 2.5\n")


def test_run_batches_rejects_empty_runs():
    with pytest.raises(ValueError, match="path count must be positive"):
        mc._run_batches([(0, lambda i, m: m)])


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


def _counted_pools(monkeypatch) -> list:
    """The worker counts of the process pools started from now on."""
    starts = []
    executor = mc.ProcessPoolExecutor

    def counted(max_workers):
        starts.append(max_workers)
        return executor(max_workers=max_workers)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", counted)
    return starts


@pytest.mark.parametrize("workers", [2, 3])
def test_a_pooled_call_runs_its_batches_in_at_most_workers_other_processes(workers):
    pids = set(mc._run_batches([(N_POOLED, _pid)], workers)[0])
    assert len(pids) <= workers
    assert os.getpid() not in pids


def test_a_failing_batch_propagates_and_the_pool_still_works():
    with pytest.raises(ArithmeticError, match="batch 1 failed"):
        mc._run_batches([(N_POOLED, _fail_on_batch_1)], 2)
    assert mc._run_batches([(N_POOLED, _size)], 2)[0] == SIZES


def test_a_dead_worker_breaks_the_pool_and_the_next_call_starts_afresh():
    with pytest.raises(BrokenProcessPool):
        mc._run_batches([(N_POOLED, _exit_worker)], 2)
    assert mc._run_batches([(N_POOLED, _size)], 2)[0] == SIZES


def _draws(seed, i, m):
    return mc._stream(seed, i).random(m).sum()


def _fail_on_batch_0(i, m):
    raise ArithmeticError("batch 0 of the second job failed")


def _mark_and_wait(folder, i, m):
    pathlib.Path(folder, str(i)).touch()
    time.sleep(0.05)
    return m


#: job sizes that are not multiples of BATCH, for the job-list tests
JOB_SIZES = (mc.BATCH + 5, 3, 2 * mc.BATCH + 1)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_job_list_gives_each_job_what_it_gives_alone(workers):
    jobs = [(n, partial(_draws, seed)) for seed, n in enumerate(JOB_SIZES)]
    alone = [mc._run_batches([job])[0] for job in jobs]
    assert mc._run_batches(jobs, workers) == alone
    assert [len(parts) for parts in alone] == [2, 1, 3]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_job_without_paths_anywhere_in_the_list_runs_no_batch(monkeypatch, workers):
    starts = _counted_pools(monkeypatch)
    ran = []
    jobs = [(mc.BATCH + 5, lambda i, m: ran.append(i)), (3, _size), (0, _size)]
    with pytest.raises(ValueError, match="path count must be positive, got 0"):
        mc._run_batches(jobs, workers)
    assert ran == []
    assert starts == []  # no pool was started for it


def test_a_failing_batch_of_the_second_job_cancels_the_batches_not_started(tmp_path):
    slow = 40 * mc.BATCH  # 40 batches of 0.05 s each behind the failing one
    jobs = [(N_POOLED, _size), (3, _fail_on_batch_0), (slow, partial(_mark_and_wait, tmp_path))]
    with pytest.raises(ArithmeticError, match="batch 0 of the second job failed"):
        mc._run_batches(jobs, 2)
    assert mc._run_batches([(N_POOLED, _size)], 2)[0] == SIZES  # after the started ones
    assert len(os.listdir(tmp_path)) < 10


@pytest.mark.parametrize("sweep", ["factorization", "factorization_profile", "profile", "bhp"])
def test_a_pooled_sweep_makes_one_run_batches_call(monkeypatch, sweep):
    # one call submits every batch of the sweep before it waits for any; a
    # call per estimator waits for its slowest batch before the next submits
    from stableheat import kernels

    calls = []
    run_batches = mc._run_batches

    def counted(jobs, workers=1):
        calls.append(len(jobs))
        return run_batches(jobs, workers)

    monkeypatch.setattr(mc, "_run_batches", counted)
    ball, params = dom.Ball((0.0,), 1.0), StableParams(1, 1.0)
    points = [(-0.5,), (0.0,), (0.6,)]
    if sweep.startswith("factorization"):
        profile = (kernels.survival_profile(ball, params, lambda1=1.1577738836977)
                   if sweep.endswith("profile") else None)
        harness.factorization_sweep(ball, params, (0.25, 0.5), [(p, p) for p in points],
                                    4096, 1.0 / 32, 7, workers=2, profile=profile)
        jobs = 3 if profile else 6
    elif sweep == "profile":
        half = dom.HalfSpace((0.0, 1.0))
        harness.profile_sweep(kernels.survival_profile(half, StableParams(2, 1.5)), (0.25, 1.0),
                              [(0.0, 0.3), (0.5, 1.0)], 4096, 1.0 / 16, 8, workers=2)
        jobs = 2
    else:
        configs = [cli._parse_bhp_config(c) for c in BHP_CONFIGS]
        harness.bhp_sweep(configs, StableParams(2, 1.5), 4096, 9, workers=2)
        jobs = 6  # two walks per configuration
    assert calls == [jobs]


def test_a_bhp_configuration_that_fails_validation_raises_before_any_batch_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(mc, "_run_batches", lambda jobs, workers=1: calls.append(jobs))
    good = cli._parse_bhp_config(BHP_CONFIGS[0])
    bad = replace(good, x1=(0.0, 0.9))  # outside the inner ball of radius p r = 0.5
    with pytest.raises(ValueError, match="x1 must lie in the inner ball"):
        harness.bhp_sweep([good, bad], StableParams(2, 1.5), 4096, 9)
    assert calls == []


def test_cli_leaves_no_pool_behind(monkeypatch, capsys):
    starts = _counted_pools(monkeypatch)
    assert cli.main(_survival("--n", "20000", "--h", "0.25", "--workers", "2")) == 0
    assert capsys.readouterr().out.startswith("mean ")
    assert starts == [2]
    assert multiprocessing.active_children() == []


def test_survival_on_a_halfspace_reports_that_no_time_grid_was_used(capsys):
    argv = ["survival", "mc", "--t", "1", "--x", "0 0.3", "--d", "2", "--alpha", "1.5",
            "--domain-json", '{"type": "halfspace", "axis": [0, 1]}', "--n", "4096"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.rstrip().endswith(" h 0")


@pytest.mark.parametrize("mode, field", [(["mc", "--h", "1e-100", "--n", "1000"], 1),
                                         (["profile"], 0)], ids=["--mc-1", "--profile-0"])
def test_survival_on_a_halfspace_at_a_horizon_whose_scaling_overflows(capsys, mode, field):
    # t^{-1/alpha} overflowed the Monte Carlo survival level (OverflowError)
    # and t^{1/alpha} underflowed the profile's scale (ZeroDivisionError)
    argv = ["survival", *mode, "--d", "1", "--alpha", "0.3", "--domain-json",
            '{"type": "halfspace", "axis": [1]}', "--x", "1", "--t", "1e-100"]
    assert cli.main(argv) == 0
    assert float(capsys.readouterr().out.split()[field]) == 1.0


@pytest.mark.parametrize("leaf", [["survival", "profile"], ["heatkernel", "profile", "--y", "{x}"]],
                         ids=["survival", "heatkernel"])
@pytest.mark.parametrize("d, doc, x", [
    (1, '{"type": "halfspace", "axis": [1]}', "0.5"),
    (1, '{"type": "ball", "center": [0], "radius": 1}', "0.5"),
    (3, '{"type": "cone", "angle": 1.0, "axis": [0, 0, 1], "beta": 0.1}', "0 0 0.5"),
], ids=["halfspace", "ball", "cone"])
def test_profile_at_a_horizon_whose_scale_overflows(capsys, leaf, d, doc, x):
    # t^{1/alpha} overflowed (OverflowError) before the shape was chosen;
    # each shape now takes its t -> inf limit, 0 here (the ball decays at lambda1)
    extra = ["--lambda1", "1.3"] if '"ball"' in doc else []
    argv = [*(a.format(x=x) for a in leaf), "--d", str(d), "--alpha", "0.5", "--domain-json",
            doc, "--x", x, "--t", "1e300", *extra]
    assert cli.main(argv) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_profile_at_a_point_whose_squared_distance_overflows(capsys):
    # |x - c|^2 overflowed, so the distance to the complement read inf and
    # the exterior-ball shape divided inf by inf: nan, exit 0, and a warning
    argv = ["survival", "profile", "--d", "1", "--alpha", "1.5", "--domain-json",
            '{"type": "exterior_ball", "center": [0.5], "radius": 1.25}', "--x", "1e200",
            "--t", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 0
    assert float(capsys.readouterr().out) == 1.0


HALFSPACE_2D = '{"type": "halfspace", "axis": [0, 1]}'
D2 = ["--d", "2", "--alpha", "1.5"]


@pytest.mark.parametrize(
    "argv, text",
    [
        (["survival", "mc", "--domain-json", HALFSPACE_2D, "--x", "0,inf", "--t", "1"],
         "start point must have finite coordinates"),
        (["survival", "mc", "--domain-json",
          '{"type": "exterior_ball", "center": [0, 0], "radius": 1}', "--x", "0,inf",
          "--t", "1"], "start point must have finite coordinates"),
        (["survival", "profile", "--domain-json", HALFSPACE_2D, "--x", "0,inf", "--t", "1"],
         "point must have finite coordinates"),
        (["verify", "profiles", "--domain-json", HALFSPACE_2D, "--points", "0,inf;0,1",
          "--n", "512"], "start point must have finite coordinates"),
    ],
    ids=["survival_mc_halfspace", "survival_mc_exterior_ball", "survival_profile",
         "verify_profiles"],
)
def test_non_finite_start_or_probe_point_exits_2(capsys, monkeypatch, tmp_path, argv, text):
    # each of these printed a survival of 1, or wrote ok cells, with exit 0
    monkeypatch.chdir(tmp_path)  # the default report path
    assert cli.main([*argv, *D2]) == 2
    assert f"error: {text}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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
    err = capsys.readouterr().err
    assert "inconclusive: 2/3 cells are noisy or diagnostic" in err
    # diagnostic cells ask for 10 n
    assert "increase n to at least 163840 " in err


def test_required_n_brings_the_noisiest_cell_to_the_threshold():
    def cell(flag, rel):
        return harness.Cell(1.0, (0.0,), None, 1.0 if rel else None, rel, flag)

    noisy = [cell("ok", 0.1), cell("noisy", 0.3), cell("noisy", 0.5)]
    with pytest.raises(InconclusiveError) as exc:
        harness._assemble_report({"type": "ball"}, StableParams(1, 1.0), (1.0,), noisy, 1000)
    assert exc.value.required_n == 4000  # 1000 (0.5 / 0.25)^2
    with pytest.raises(InconclusiveError) as exc:
        harness._assemble_report({"type": "ball"}, StableParams(1, 1.0), (1.0,),
                                 noisy[:2] + [cell("noisy", None)], 1000)
    assert exc.value.required_n == 10_000  # no estimate at all: 10 n


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


BHP_INTERVAL_CELL = {
    "domain": {"type": "halfspace", "axis": [1]}, "x0": [1], "r": 1, "p": 0.5,
    "x1": [0.8], "x2": [1.2], "target1": {"type": "interval", "a": -4, "b": 0},
    "target2": {"type": "interval", "a": 2, "b": 6},
}


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "error: cannot read bhp config"),
        ("[]", 'error: verify bhp needs a non-empty "configs" list'),
        (json.dumps({"configs": [{**BHP_CELL, "r": None}]}),
         "error: r must be positive and finite, got None\n"),
        (json.dumps({"configs": [{**BHP_CELL, "target1": {**BHP_CELL["target1"],
                                                          "radius": None}}]}),
         "error: target1 radius must be positive and finite, got None\n"),
        ('{"configs": [5]}', "error: malformed bhp config"),
        ('{"configs": 5}', 'error: verify bhp needs a non-empty "configs" list\n'),
        ('{"configs": "ab"}', 'error: verify bhp needs a non-empty "configs" list\n'),
        (json.dumps({"configs": [{**BHP_CELL, "target1": 5}]}),
         "error: malformed bhp config: target1 must be an object, got 5\n"),
        (json.dumps({"configs": [{**BHP_CELL, "target2": [0, 1]}]}),
         "error: malformed bhp config: target2 must be an object, got [0, 1]\n"),
    ],
    ids=["missing_file", "top_level_list", "null_r", "null_region_radius", "number_cell",
         "number_configs", "text_configs", "number_target", "list_target"],
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


@pytest.mark.parametrize(
    "cell, message",
    [
        ({"target1": {"type": "ball", "center": [-2, 2], "radius": -1.5}},
         "error: target1 radius must be positive and finite, got -1.5"),
        ({"target1": {"type": "ball", "center": [-2, 2], "radius": 0}},
         "error: target1 radius must be positive and finite, got 0"),
        ({"target1": {"type": "ball", "center": [-2, 2], "radius": "nan"}},
         "error: target1 radius must be positive and finite, got 'nan'"),
        ({"target1": {"type": "ball", "center": [-2, "nan"], "radius": 1}},
         "error: target1 center must be a list of 2 finite numbers, got [-2, 'nan']\n"),
        ({"target2": {"type": "box", "lo": [4, 1.2], "hi": [0, 4]}},
         "error: target2 needs lo <= hi, got [4, 1.2] and [0, 4]"),
        ({"target2": {"type": "box", "lo": [0, 1.2], "hi": [4, "nan"]}},
         "error: target2 hi must be a list of 2 finite numbers, got [4, 'nan']\n"),
        ({"p": 7}, "error: p must lie in (0, 1), got 7"),
        ({"p": 0}, "error: p must lie in (0, 1), got 0"),
    ],
    ids=["negative_radius", "zero_radius", "nan_radius", "nan_center", "box_lo_above_hi",
         "nan_box_corner", "p_7", "p_0"],
)
def test_bhp_target_or_p_out_of_range_exits_2(tmp_path, capsys, cell, message):
    # a radius of -1.5 was read as 1.5 and exited 0; zero or NaN radii, a box
    # with lo > hi and p = 7 exited 3, and a NaN box corner ended in a
    # UFuncNoLoopError traceback
    config = tmp_path / "bhp.json"
    config.write_text(json.dumps({"configs": [{**BHP_CELL, **cell}]}))
    argv = ["verify", "bhp", "--d", "2", "--alpha", "1.5", "--config", str(config),
            "--n", "64", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "cell, message",
    [
        ({"r": "nan"}, "error: r must be positive and finite, got 'nan'"),
        ({"r": "inf"}, "error: r must be positive and finite, got 'inf'"),
        ({"r": -1}, "error: r must be positive and finite, got -1"),
        ({"r": "abc"}, "error: r must be positive and finite, got 'abc'"),
        ({"x0": ["nan", 0]}, "error: x0 must be a list of 2 finite numbers, got ['nan', 0]"),
        ({"x1": "ab"}, "error: x1 must be a list of 2 finite numbers, got 'ab'"),
        ({"x1": [0, 0.1, 0]}, "error: x1 must be a list of 2 finite numbers, got [0, 0.1, 0]"),
        ({"x2": [0.2, True]}, "error: x2 must be a list of 2 finite numbers, got [0.2, True]"),
        ({"p": "abc"}, "error: p must lie in (0, 1), got 'abc'"),
        ({"target1": {"type": "ball", "center": [-2, 2], "radius": "abc"}},
         "error: target1 radius must be positive and finite, got 'abc'"),
        ({"target1": {"type": "ball", "center": [-2, "abc"], "radius": 1}},
         "error: target1 center must be a list of 2 finite numbers, got [-2, 'abc']"),
        ({"r": "1"}, "error: r must be positive and finite, got '1'"),
        ({"r": True}, "error: r must be positive and finite, got True"),
        ({"p": "0.5"}, "error: p must lie in (0, 1), got '0.5'"),
        ({"target1": {"type": "ball", "center": [-2, 2], "radius": True}},
         "error: target1 radius must be positive and finite, got True"),
        ({"target1": {"type": "ball", "center": [-2, 2], "radius": "1"}},
         "error: target1 radius must be positive and finite, got '1'"),
        ({"target1": {"type": "ball", "center": ["-2", 2], "radius": 1}},
         "error: target1 center must be a list of 2 finite numbers, got ['-2', 2]"),
        ({"target1": {"type": "ball", "center": [-2, True], "radius": 1}},
         "error: target1 center must be a list of 2 finite numbers, got [-2, True]"),
        ({"target2": {"type": "box", "lo": ["0", 1.2], "hi": [4, 4]}},
         "error: target2 lo must be a list of 2 finite numbers, got ['0', 1.2]"),
        ({"target2": {"type": "box", "lo": [0, 1.2], "hi": [4, True]}},
         "error: target2 hi must be a list of 2 finite numbers, got [4, True]"),
        ({**BHP_INTERVAL_CELL, "target1": {"type": "interval", "a": "-4", "b": 0}},
         "error: target1 a must be a finite number, got '-4'"),
        ({**BHP_INTERVAL_CELL, "target2": {"type": "interval", "a": 2, "b": True}},
         "error: target2 b must be a finite number, got True"),
    ],
    ids=["nan_r", "inf_r", "negative_r", "text_r", "nan_x0", "text_x1", "x1_of_3d",
         "bool_in_x2", "text_p", "text_radius", "text_center", "numeric_text_r", "bool_r",
         "numeric_text_p", "bool_radius", "numeric_text_radius", "numeric_text_center",
         "bool_center", "numeric_text_box_lo", "bool_box_hi", "numeric_text_interval_a",
         "bool_interval_b"],
)
def test_bhp_config_values_are_checked_under_their_own_key(tmp_path, capsys, cell, message):
    # each was checked only through other code: NaN r or x0 blamed x1 ("x1 must
    # lie in the localized domain"), an infinite r blamed target1, r = -1 named
    # no key, text gave "could not convert string to float", and a 3-D x1 a
    # numpy broadcast error; numeric text and booleans ran, read as numbers,
    # where a domain document refuses them
    cell = {**BHP_CELL, **cell}
    config = tmp_path / "bhp.json"
    config.write_text(json.dumps({"configs": [cell]}))
    argv = ["verify", "bhp", "--d", str(len(cell["x0"])), "--alpha", "1.5", "--config",
            str(config), "--n", "64", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == message + "\n"
    assert os.listdir(tmp_path) == ["bhp.json"]  # no report


def test_interval_target_with_a_above_b_exits_2(tmp_path, capsys):
    cell = {**BHP_INTERVAL_CELL, "target1": {"type": "interval", "a": 0, "b": -4}}
    config = tmp_path / "bhp.json"
    config.write_text(json.dumps({"configs": [cell]}))
    argv = ["verify", "bhp", "--d", "1", "--alpha", "1.5", "--config", str(config),
            "--n", "64", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: target1 needs a <= b, got 0 and -4")


def test_ball_tail_answers_for_the_ball_it_is_given(capsys):
    # P^x(|exit - c| > R) from B(c, r) is the unit-ball answer at (x - c)/r, R/r
    def tail(*argv):
        assert cli.main(["ball", "tail", *argv]) == 0
        return capsys.readouterr().out

    unit = "0.333333333 bracket 0.319144701 0.496329546\n"
    assert tail("--x", "0", "--R", "2") == unit
    assert tail("--x", "0", "--R", "4", "--r", "2") == unit
    assert tail("--x", "5", "--R", "2", "--center", "5") == unit
    assert (tail("--d", "2", "--x", "2.5,2", "--R", "6", "--r", "3", "--center", "1,2")
            == tail("--d", "2", "--x", "0.5,0", "--R", "2"))


@pytest.mark.parametrize(
    "argv, text",
    [
        (["--center", "5", "--x", "0", "--R", "2"], "--x must lie in the open ball"),
        (["--x", "2", "--R", "8", "--r", "2"], "--x must lie in the open ball"),
        (["--x", "0", "--R", "3", "--r", "2"], "--R, the tail threshold, must be at least 2 --r"),
        (["--x", "0", "--R", "1.5"], "--R, the tail threshold, must be at least 2 --r"),
    ],
    ids=["outside_center", "on_the_sphere", "R_below_2r", "R_below_2"],
)
def test_ball_tail_outside_point_or_small_threshold_exits_2(capsys, argv, text):
    assert cli.main(["ball", "tail", *argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {text}")


@pytest.mark.parametrize(
    "argv, option",
    [
        (["exit-time", "--d", "1", "--x", "0.5,0.5"], "--x"),
        (["exit-time", "--d", "2", "--x", "0.5"], "--x"),
        (["green", "--d", "2", "--x", "0,0", "--v", "0.5"], "--v"),
        (["poisson", "--x", "0", "--y", "2,0"], "--y"),
        (["tail", "--d", "2", "--x", "0,0", "--center", "0", "--R", "3"], "--center"),
    ],
    ids=["x_too_long", "x_too_short", "green_v", "poisson_y", "tail_center"],
)
def test_ball_point_of_another_dimension_exits_2(capsys, argv, option):
    # these broadcast against the center and printed a value with exit 0
    assert cli.main(["ball", *argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {option} needs ")


def test_density_at_a_tiny_time_is_representable(capsys):
    assert cli.main(["density", "--t", "1e-200", "--x", "0", "--y", "1"]) == 0
    value = float(capsys.readouterr().out.split()[1])
    assert value == pytest.approx(1e-200 / np.pi, rel=1e-8)


def test_density_whose_scaling_overflows_exits_2_or_answers(capsys):
    # t^{-1/alpha} = 1e600 ended both of these in an OverflowError traceback
    argv = ["density", "--alpha", "0.5", "--t", "1e-300", "--x", "0"]
    assert cli.main([*argv, "--y", "1"]) == 0
    assert cli.main([*argv, "--y", "0"]) == 2
    assert "error: the density at d=1, alpha=0.5" in capsys.readouterr().err


HYPERPLANE_BETA = ["calibrate", "beta", "--d", "2", "--alpha", "1.5", "--x", "0,1",
                   "--domain-json", '{"type": "hyperplane_complement", "dim": 2}', "--n", "64"]


@pytest.mark.parametrize(
    "argv, text",
    [
        ([*HYPERPLANE_BETA, "--thin", "-1"], "argument --thin: must be positive and finite"),
        ([*HYPERPLANE_BETA, "--thin", "nan"], "argument --thin: must be positive and finite"),
        ([*HYPERPLANE_BETA, "--thin", "0"], "argument --thin: must be positive and finite"),
        (["calibrate", "lambda1", "--window", "nan", "nan", "--n", "64"],
         "argument --window: must be positive and finite"),
        (["calibrate", "lambda1", "--window", "1", "inf", "--n", "64"],
         "argument --window: must be positive and finite"),
        (["calibrate", "lambda1", "--window", "3", "1", "--n", "64"],
         "error: --window must satisfy T1 < T2, got 3.0 1.0"),
        (["calibrate", "lambda1", "--window", "1", "1e308", "--n", "64"],
         "error: fit window end 1e+308 is not a finite number of steps of 0.015625\n"),
        ([*HYPERPLANE_BETA, "--window", "1", "1e308"],
         "error: fit window end 1e+308 is not a finite number of steps of 0.015625\n"),
        (["calibrate", "lambda1", "--r", "1e300", "--h", "1e-10", "--n", "64"],
         "error: fit window end 3e+300 is not a finite number of steps of 1e-10\n"),
        (["verify", "identities", "--tol", "nan"], "error: --tol must be finite and nonnegative"),
        (["verify", "identities", "--tol", "-1"], "error: --tol must be finite and nonnegative"),
        (["verify", "identities", "--tol", "inf"], "error: --tol must be finite and nonnegative"),
    ],
    ids=["thin_negative", "thin_nan", "thin_0", "window_nan", "window_inf", "window_reversed",
         "lambda1_window_of_infinite_steps", "beta_window_of_infinite_steps",
         "lambda1_default_window_of_infinite_steps", "tol_nan", "tol_negative", "tol_inf"],
)
def test_bad_thin_window_or_tolerance_exits_2(capsys, monkeypatch, tmp_path, argv, text):
    # these recorded beta -0, a reversed window or an unnamed NaN error, or
    # printed FAIL lines, instead of naming the option; a window end of
    # infinitely many steps ended in an OverflowError traceback
    monkeypatch.chdir(tmp_path)  # default calibration and report paths
    assert cli.main(argv) == 2
    assert text in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("thin", [-1.0, 0.0, np.nan, np.inf])
def test_estimators_reject_a_slab_width_that_is_not_positive_and_finite(thin):
    params, plane = StableParams(2, 1.5), dom.HyperplaneComplement(2)
    with pytest.raises(ValueError, match="thin must be positive and finite"):
        mc.estimate_beta(params, plane, (0.0, 1.0), n=64, thin=thin)
    with pytest.raises(ValueError, match="thin must be positive and finite"):
        mc._walk_batch(plane, params, np.array([0.0, 1.0]), 0.25, 1.0,
                       np.random.default_rng(0), 8, thin=thin)


@pytest.mark.parametrize("domain", [dom.Ball((0.0, 0.0), 1.0), dom.HalfSpace((0.0, 1.0)),
                                    dom.CircularCone(1.0, (0.0, 1.0))])
def test_survival_rejects_a_slab_width_outside_a_hyperplane_complement(domain):
    with pytest.raises(ValueError, match="thin applies only to a hyperplane complement, not to "):
        mc.survival_curve(domain, StableParams(2, 1.5), (0.0, 0.5), (0.25,), 64, 0.25, 1,
                          thin=0.3)


def test_calibrate_beta_with_thin_on_a_cone_exits_2(capsys, tmp_path):
    # the walk never read --thin on a cone: this recorded a beta and exited 0
    store = tmp_path / "calibration.jsonl"
    argv = ["calibrate", "beta", "--d", "2", "--alpha", "1.5", "--x", "0,1", "--domain-json",
            CONE_2D, "--thin", "0.3", "--n", "64", "--calibration-file", str(store)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: thin applies only to a hyperplane complement, not to CircularCone\n"
    )
    assert not store.exists()


@pytest.mark.parametrize("window", [(np.nan, np.nan), (3.0, 1.0), (0.0, 1.0), (1.0, np.inf)])
def test_estimators_reject_a_bad_fit_window(window):
    with pytest.raises(ValueError, match="fit window must be finite with 0 < t1 < t2"):
        mc.estimate_beta(StableParams(2, 1.5), dom.HyperplaneComplement(2), (0.0, 1.0),
                         fit_window=window, n=64)
    with pytest.raises(ValueError, match="fit window must"):
        mc.estimate_lambda1(StableParams(1, 1.0), 0.5, fit_window=window, n=64)


#: the hand check of verify factorization, which declares --lambda1 and
#: --beta for --profile-form, and the parser's refusal where a leaf declares
#: neither
NO_PROFILE = "error: this command uses no closed survival profile, so it takes no {0}\n"
UNRECOGNIZED = "error: unrecognized arguments: {0} {1}\n"


@pytest.mark.parametrize("option", [["--lambda1", "nan"], ["--beta", "-3"]])
@pytest.mark.parametrize(
    "argv, message",
    [
        (_survival("--n", "64"), UNRECOGNIZED),
        (["heatkernel", "mc", "--t", "1", "--x", "0", "--y", "0.3", *BALL_ARGS], UNRECOGNIZED),
        (["verify", "factorization", "--t", "0.25", "--h", "0.25", *BALL_ARGS], NO_PROFILE),
        (["verify", "identities"], UNRECOGNIZED),
        (["verify", "bhp", "--d", "2", "--alpha", "1.5", "--n", "64", "--config", "bhp.json"],
         UNRECOGNIZED),
    ],
    ids=["survival_mc", "heatkernel_mc", "factorization_mc", "identities", "bhp"],
)
def test_profile_options_without_a_profile_exit_2(capsys, monkeypatch, tmp_path, argv, message,
                                                  option):
    # each of these ran and exited 0, leaving the option unread; the
    # Monte Carlo modes of survival and heatkernel refused them by hand
    monkeypatch.chdir(tmp_path)  # the default report directory
    (tmp_path / "bhp.json").write_text(json.dumps({"configs": [BHP_CELL]}))
    assert cli.main([*argv, *option]) == 2
    assert capsys.readouterr().err.endswith(message.format(*option))
    assert os.listdir(tmp_path) == ["bhp.json"]  # no report


@pytest.mark.parametrize("option", [["--n", "5"], ["--h", "0.25"], ["--seed", "9"],
                                    ["--workers", "2"]], ids=lambda o: o[0][2:])
@pytest.mark.parametrize(
    "argv",
    [
        ["survival", "profile", "--t", "1", "--x", "0", "--domain-json", BALL_1D],
        ["heatkernel", "profile", "--t", "1", "--x", "0", "--y", "0.3", "--domain-json", BALL_1D],
    ],
    ids=["survival", "heatkernel"],
)
def test_path_options_of_a_profile_exit_2(capsys, argv, option):
    # survival --profile and heatkernel --profile-bracket took each of these
    # and printed the profile with exit 0, leaving the option unread
    assert cli.main([*argv, *option]) == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {' '.join(option)}\n")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["--x", "0,inf", "--y", "0,1"], "start point must have finite coordinates"),
        (["--x", "0,1", "--y", "0,nan"], "end point must have 2 finite coordinates (d)"),
        (["--x", "0,1", "--y", "0,1,2"], "end point must have 2 finite coordinates (d)"),
    ],
    ids=["x_inf", "y_nan", "y_of_3"],
)
def test_heat_kernel_checks_its_points_before_it_walks(capsys, monkeypatch, argv, text):
    # these walked for seconds before the density refused the point, or
    # ended in a numpy broadcast error
    def walk(*args, **kwargs):
        raise AssertionError("the walk started")

    monkeypatch.setattr(mc, "_walk_batch", walk)
    assert cli.main(["heatkernel", "mc", "--domain-json", HALFSPACE_2D, *D2, "--t", "8",
                     "--n", "100000", *argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {text}")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "identities"],
        ["verify", "profiles", "--t", "0.25", "--h", "0.25", *BALL_ARGS],
        ["verify", "bhp", "--d", "2", "--alpha", "1.5", "--n", "64", "--config", "bhp.json"],
    ],
    ids=["identities", "profiles", "bhp"],
)
def test_profile_form_outside_factorization_exits_2(capsys, monkeypatch, tmp_path, argv):
    # each of these ran and exited 0, leaving --profile-form unread
    monkeypatch.chdir(tmp_path)  # the default report directory
    (tmp_path / "bhp.json").write_text(json.dumps({"configs": [BHP_CELL]}))
    assert cli.main([*argv, "--profile-form"]) == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --profile-form\n")
    assert os.listdir(tmp_path) == ["bhp.json"]  # no report


def test_calibrate_lambda1_at_a_radius_whose_power_overflows(capsys, tmp_path):
    # r ** alpha once ended this in an OverflowError traceback
    store = tmp_path / "calibration.jsonl"
    argv = ["calibrate", "lambda1", "--d", "1", "--r", "1e300", "--alpha", "1.9", "--n", "64",
            "--calibration-file", str(store)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: the value overflows a float at --r 1e+300\n"
    assert not store.exists()


def test_calibrate_lambda1_beyond_the_step_budget_exits_2_at_once(capsys, tmp_path):
    # the fit window [1e285, 3e285] asks the grid walk for about 2e287 steps;
    # the call once ran for minutes with no output
    store = tmp_path / "calibration.jsonl"
    argv = ["calibrate", "lambda1", "--d", "1", "--r", "1e150", "--alpha", "1.9", "--n", "64",
            "--calibration-file", str(store)]
    t0 = time.monotonic()
    assert cli.main(argv) == 2
    assert time.monotonic() - t0 < 1.0
    assert capsys.readouterr().err.endswith(
        f"steps of 0.015625; a grid walk takes at most {mc.WALK_MAX_STEPS} steps\n")
    assert not store.exists()


def test_heatkernel_with_a_diagnostic_estimate_is_inconclusive(capsys):
    # the estimate -0.00544 lies below -3 stderr; this ended in a traceback
    argv = ["heatkernel", "mc", "--d", "1", "--alpha", "1.5", "--domain-json", BALL_1D,
            "--x", "0.9", "--y", "-0.9", "--t", "8", "--n", "64", "--h", "0.5", "--seed", "550"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith(
        "inconclusive: killed-kernel estimate -0.00544 is below -3 stderr"
    )


def _bhp_1d(tmp_path, capsys, target1, target2):
    cell = {**BHP_INTERVAL_CELL, "target1": target1, "target2": target2}
    out = tmp_path / target1["type"]
    config = tmp_path / f"{target1['type']}.json"
    config.write_text(json.dumps({"configs": [cell]}))
    argv = ["verify", "bhp", "--d", "1", "--alpha", "1.5", "--config", str(config),
            "--n", "4096", "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    return [(out / f"bhp.{ext}").read_bytes() for ext in ("json", "csv")]


def test_interval_target_is_the_one_dimensional_box(tmp_path, capsys):
    intervals = _bhp_1d(tmp_path, capsys, {"type": "interval", "a": -4, "b": 0},
                        {"type": "interval", "a": 2, "b": 6})
    boxes = _bhp_1d(tmp_path, capsys, {"type": "box", "lo": [-4], "hi": [0]},
                    {"type": "box", "lo": [2], "hi": [6]})
    assert intervals == boxes


@pytest.mark.parametrize(
    "targets, message",
    [
        ({"target1": {"type": "box", "lo": [-4, -4], "hi": [0, 0]},
          "target2": {"type": "box", "lo": [0, -4], "hi": [4, 0]}},
         "error: target1 must lie outside the localization ball B(x0, r)"),
        ({"target2": {"type": "ball", "center": [1.5, 1.5], "radius": 1.5}},
         "error: target2 must lie outside the localization ball B(x0, r)"),
        ({"target1": {"type": "interval", "a": 2, "b": 3}},
         "error: target1 must be a region of the domain's dimension 2"),
        ({"target2": {"type": "box", "lo": [2], "hi": [3]}},
         "error: target2 lo must be a list of 2 finite numbers, got [2]\n"),
    ],
    ids=["boxes_at_x0", "ball_within_r", "interval_in_2d", "box_of_1d"],
)
def test_bhp_target_inside_the_localization_ball_or_of_another_dimension_exits_2(
        tmp_path, capsys, targets, message):
    # the first was measured (empirical_C 2.33 at the default n) and exited 0
    config = tmp_path / "bhp.json"
    config.write_text(json.dumps({"configs": [{**BHP_CELL, **targets}]}))
    argv = ["verify", "bhp", "--d", "2", "--alpha", "1.5", "--config", str(config),
            "--n", "64", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
                         ids=["nan", "inf", "minus_inf", "1e999", "400_digits"])
@pytest.mark.parametrize("option", ["--domain", "--domain-json", "--config"])
def test_a_json_number_that_no_finite_float_holds_exits_2(capsys, monkeypatch, tmp_path,
                                                         option, number):
    # a ball of radius Infinity ended verify profiles in an OverflowError
    # traceback and made survival profile print 1 with exit 0; a 400-digit
    # radius raised "int too large to convert to float"
    monkeypatch.chdir(tmp_path)  # the default report directory
    ball = f'{{"type": "ball", "center": [0], "radius": {number}}}'
    cell = json.dumps({"configs": [{**BHP_CELL, "r": "R"}]}).replace('"R"', number)
    (tmp_path / "doc.json").write_text(cell if option == "--config" else ball)
    argv = {
        "--domain": ["verify", "profiles", "--domain", "doc.json", "--n", "64", "--h", "0.25"],
        "--domain-json": ["survival", "profile", "--t", "1", "--x", "0", "--domain-json", ball],
        "--config": ["verify", "bhp", "--d", "2", "--alpha", "1.5", "--n", "64",
                     "--config", "doc.json"],
    }[option]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and "is not a finite number" in err
    assert os.listdir(tmp_path) == ["doc.json"]  # no report


def _leaves(parser, path=()):
    """(command path, parser) of every leaf subcommand below ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, (*path, name))


def _options(parser) -> dict:
    return {s: a for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")}


LEAVES = dict(_leaves(cli.build_parser()))
EVERY_OPTION = {s: a for leaf in LEAVES.values() for s, a in _options(leaf).items()}


def test_every_leaf_has_a_function_of_its_own():
    # ball, calibrate, survival and heatkernel each served all their leaves
    # from one function that branched on the leaf
    fns = [leaf.get_default("fn") for leaf in LEAVES.values()]
    assert len(LEAVES) == 15 and len(set(fns)) == len(fns)


@pytest.mark.parametrize("path", LEAVES, ids=" ".join)
def test_a_leaf_refuses_every_option_that_it_does_not_declare(capsys, monkeypatch, tmp_path,
                                                              path):
    # verify identities took --n, --h, --domain-json, --points, --t and
    # --config, calibrate lambda1 took --x, --thin and --domain-json, ball
    # green took --y and --R, and survival --profile took --n and --seed,
    # each with exit 0 and the option unread
    monkeypatch.chdir(tmp_path)  # the default report and calibration paths
    own = _options(LEAVES[path])
    base = [*path, *(w for s, a in own.items() if a.required for w in (s, "1"))]
    cli.build_parser().parse_args(base)
    foreign = sorted(set(EVERY_OPTION) - set(own))
    assert "--domain-json" in foreign or "--domain-json" in own
    for option in foreign:
        nargs = EVERY_OPTION[option].nargs
        given = [option, *["1"] * (nargs if isinstance(nargs, int) else 1)]
        assert cli.main([*base, *given]) == 2
        assert capsys.readouterr().err.endswith(
            f"error: unrecognized arguments: {' '.join(given)}\n")
    assert os.listdir(tmp_path) == []


def _reads() -> dict:
    """Function name -> the ``args`` attributes that a function of ``cli``
    reads, itself or through the module functions it calls; a string given
    with ``args`` to a call, as in ``_finite_point(args, "v", d)``, is read."""
    funcs = {f.name: f for f in ast.parse(inspect.getsource(cli)).body
             if isinstance(f, ast.FunctionDef)}
    direct, calls = {}, {}
    for name, f in funcs.items():
        nodes = list(ast.walk(f))
        direct[name] = {n.attr for n in nodes if isinstance(n, ast.Attribute)
                        and isinstance(n.value, ast.Name) and n.value.id == "args"}
        for n in nodes:
            if isinstance(n, ast.Call) and any(getattr(a, "id", None) == "args" for a in n.args):
                direct[name] |= {a.value for a in n.args if isinstance(a, ast.Constant)}
        calls[name] = {n.func.id for n in nodes if isinstance(n, ast.Call)
                       and getattr(n.func, "id", None) in funcs}
    reads = {}
    for name in funcs:
        seen, todo = set(), [name]
        while todo:
            f = todo.pop()
            if f not in seen:
                seen.add(f)
                todo.extend(calls[f])
        reads[name] = set().union(*(direct[f] for f in seen))
    return reads


@pytest.mark.parametrize("path", LEAVES, ids=" ".join)
def test_a_leaf_declares_only_options_that_its_function_reads(path):
    leaf = LEAVES[path]
    declared = {a.dest for a in _options(leaf).values()}
    assert declared <= _reads()[leaf.get_default("fn").__name__]


def test_every_benchmark_call_parses(tmp_path):
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        calls = workloads.build(name, 1, 2, str(tmp_path / name))
        for argv in calls["calls"] + calls["gate_calls"]:
            assert callable(cli.build_parser().parse_args(argv).fn)
