"""End-to-end tests of the command line interface via subprocess."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellnet import cli
from bellnet import inequality
from bellnet import network
from bellnet import quantum
from bellnet import swap as swap_module
from bellnet.inequality import sweep_value
from oracles import loop_emit_rows

# The subprocess imports the same package as this process, installed or not.
_SRC = str(Path(cli.__file__).resolve().parents[1])
_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))),
}


def run_cli(*args, expect=0, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "bellnet", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=_ENV,
    )
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def run_json(*args, expect=0, timeout=None):
    return json.loads(run_cli(*args, expect=expect, timeout=timeout).stdout)


def _no_simulation(*args, **kwargs):
    raise AssertionError("simulated a network beyond its cap")


# The separable check's table routes: the network's table, or past one
# block each source's own table.
SEPARABLE_ROUTES = ("network_table", "source_tables")


def _no_separable_tables(monkeypatch):
    for name in SEPARABLE_ROUTES:
        monkeypatch.setattr(inequality, name, _no_simulation)


def _without_visibilities(monkeypatch):
    """Make every separable table ignore the visibilities it is asked for."""
    for name in SEPARABLE_ROUTES:
        plain = getattr(inequality, name)
        monkeypatch.setattr(
            inequality, name, lambda scheme, visibilities=None, plain=plain: plain(scheme)
        )


def _computed(capsys, argv):
    """The report of ``argv``, which must exit 0 without a traceback."""
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return json.loads(captured.out)


SEPARABLE_CAP = "the separable table would hold 2^{} entries, over 2^24"
JOINT_CAP = "the joint table would hold 2^{} entries, over 2^16"


def test_version():
    proc = run_cli("--version")
    assert proc.stdout.startswith("bellnet ")


def test_no_command_is_usage_error():
    run_cli(expect=1)


def test_violate_two_sources_two_branches():
    report = run_json("violate", "--n", "2", "--L", "2")
    assert report["run"]["command"] == "violate"
    assert report["run"]["config"] == {"n": 2, "branches": [2, 2]}
    assert report["predicted_value"] == 2.0
    assert report["classical_bound"] == 1.0
    assert report["simulated_value"] == 2.0
    assert report["violated"] is True
    assert report["checks"]["simulation_matches_closed_form"] is True


def test_violate_single_pair_does_not_violate():
    report = run_json("violate", "--n", "1", "--L", "1")
    assert report["predicted_value"] == 1.0
    assert report["violated"] is False


def test_violate_heterogeneous_rotated():
    report = run_json("violate", "--branches", "1,2,3")
    assert report["run"]["scheme"] == "rotated"
    assert report["predicted_value"] == 4.0
    assert report["classical_bound"] == 2.0
    assert report["violated"] is True


def test_violate_oversized_network_skips_simulation(monkeypatch, capsys):
    _no_separable_tables(monkeypatch)
    # 4**400 entries: the count is printed as a power of two
    for argv, value, bits in ((["--L", "13"], 64.0, 28), (["--n", "40", "--L", "10"], 32.0, 802)):
        report = _computed(capsys, ["violate", *argv])
        assert report["kernel_value"] == value
        assert report["violated"] is True
        assert "simulated_value" not in report
        assert report["checks"] == {"kernel_matches_closed_form": True}
        assert report["skipped_checks"] == {
            "simulation_matches_closed_form": SEPARABLE_CAP.format(bits)
        }


def test_violate_largest_single_source_is_simulated():
    # 4**11 * 2 * 2 entries: the table budget exactly
    report = run_json("violate", "--n", "1", "--L", "11", timeout=60)
    assert report["simulated_value"] == 32.0
    assert report["checks"]["simulation_matches_closed_form"] is True
    assert "skipped_checks" not in report


@pytest.mark.parametrize(
    "command, check",
    [("violate", "simulation_matches_closed_form"), ("noise", "bracket_certified")],
    # named after the table route each command skips
    ids=["violate-network_table", "noise-find_critical_visibility"],
)
def test_beyond_single_source_cap_is_refused(monkeypatch, capsys, command, check):
    # one source of 12 branches: 4**12 * 2 * 2 entries are past the table
    # budget, so the kernel alone gives the value, and the report says
    # which check the budget skipped.
    _no_separable_tables(monkeypatch)
    report = _computed(capsys, [command, "--n", "1", "--L", "12"])
    assert report["skipped_checks"] == {check: SEPARABLE_CAP.format(26)}
    assert all(report["checks"].values())


def test_run_block_has_no_threads(capsys):
    assert cli.main(["bound", "--n", "1", "--L", "1"]) == 0
    assert "threads" not in json.loads(capsys.readouterr().out)["run"]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["bound", "--n", "1", "--L", "1", "--threads", "2"])
    assert exit_info.value.code == 1


def test_violate_csv_format():
    proc = run_cli("violate", "--n", "2", "--L", "2", "--format", "csv")
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "key,value"
    cells = dict(line.split(",", 1) for line in lines[1:])
    assert cells["predicted_value"] == "2"
    assert cells["violated"] == "true"


def test_violate_deterministic_output():
    a = run_cli("violate", "--n", "2", "--L", "2").stdout
    b = run_cli("violate", "--n", "2", "--L", "2").stdout
    assert a == b
    # The largest table checks run through BLAS, which may split its work
    # over threads; the report must not depend on how many.
    for argv in (
        ("violate", "--n", "2", "--L", "5"),
        ("swap", "--n", "2", "--L", "5", "--scheme", "rotated"),
    ):
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "bellnet", *argv],
                capture_output=True,
                text=True,
                env={**_ENV, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv


def test_sweep_diagonal():
    proc = run_cli("sweep", "--L", "2", "--grid", "5")
    lines = proc.stdout.strip().split("\n")
    comments = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    assert any("simulation check" in c for c in comments)
    assert data[0] == "theta0,theta1,value"
    rows = [line.split(",") for line in data[1:]]
    assert len(rows) == 5
    assert float(rows[0][2]) == pytest.approx(2.0, abs=1e-12)
    assert float(rows[2][2]) == pytest.approx(1.0, abs=1e-12)  # theta = pi/4


def test_sweep_reports_probes_that_ran():
    lines = run_cli("sweep", "--L", "2", "--grid", "2").stdout.splitlines()
    assert "# simulation check at 2 probes: ok" in lines
    lines = run_cli("sweep", "--L", "9", "--grid", "2").stdout.splitlines()
    check = [line for line in lines if "simulation check" in line]
    assert check == ["# simulation check: skipped (branch count beyond the simulation budget)"]


def test_sweep_full_grid_json():
    report = run_json("sweep", "--L", "1", "--grid", "3", "--full", "--format", "json")
    assert report["columns"] == ["theta0", "theta1", "value"]
    assert len(report["rows"]) == 9
    by_angles = {(r[0], r[1]): r[2] for r in report["rows"]}
    mid = float(f"{math.pi / 4:.12g}")
    end = float(f"{math.pi / 2:.12g}")
    assert by_angles[(0.0, end)] == pytest.approx(1.0, abs=1e-9)
    # diagonal midpoint: cos(pi/4) for one branch
    assert by_angles[(mid, mid)] == pytest.approx(math.sqrt(2.0) / 2, abs=1e-9)


def test_sweep_needs_size():
    run_cli("sweep", expect=1)


def test_sweep_rows_equal_per_point_values(capsys):
    assert cli.main(["sweep", "--L", "12", "--grid", "9", "--full"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert lines[0] == "theta0,theta1,value"
    thetas = np.linspace(0.0, math.pi / 2, 9)
    want = [
        ",".join(cli._fmt(v) for v in (t0, t1, sweep_value(t0, t1, 12)))
        for t0 in thetas
        for t1 in thetas
    ]
    assert lines[1:] == want


def _assert_same_text(got, want):
    """Compare two artifacts line by line: pytest's diff of two whole
    megabyte strings would take minutes."""
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    for got_line, want_line in zip(got_lines, want_lines):
        assert got_line == want_line
    assert len(got_lines) == len(want_lines)


def _loop_emit(args, run, columns, rows, comments=()):
    """``cli._emit_rows`` as the old per-value loop wrote it."""
    rows = [tuple(float(v) for v in row) for row in rows]
    cli._write(args, [loop_emit_rows(args.format, run, columns, rows, comments)])


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--L", "3", "--grid", "101"],
        ["sweep", "--L", "12", "--grid", "31", "--full"],
        ["sweep", "--L", "1000", "--grid", "9"],
        ["region", "--n", "2", "--L", "2", "--fixed-value", "0.1", "--grid", "301"],
        ["region", "--n", "2", "--L", "2", "--fixed-value", "2.0", "--grid", "11",
         "--tol", "1e-3"],
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emitted_rows_equal_the_per_value_loop_byte_for_byte(
    monkeypatch, capsys, tmp_path, argv, fmt
):
    outputs = []
    for emit in (cli._emit_rows, _loop_emit):
        monkeypatch.setattr(cli, "_emit_rows", emit)
        out = tmp_path / f"{len(outputs)}.{fmt}"
        assert cli.main([*argv, "--format", fmt]) == 0
        assert cli.main([*argv, "--format", fmt, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        _assert_same_text(out.read_text(encoding="utf-8"), stdout)
        outputs.append(stdout)
    _assert_same_text(*outputs)
    if fmt == "json":
        values = np.array(json.loads(outputs[0])["rows"], dtype=float)
        assert np.isfinite(values).all()
        if argv[:3] == ["sweep", "--L", "1000"]:
            assert values[:, 2].max() == pytest.approx(2.0**500, rel=1e-11)


@pytest.mark.parametrize("extra", [-1, 0, 1, cli._EMIT_BLOCK_ROWS + 1])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emitted_rows_at_block_boundaries_and_signed_zero(capsys, fmt, extra):
    count = cli._EMIT_BLOCK_ROWS + extra
    rows = np.linspace(-1.0, 1.0, 2 * count).reshape(count, 2) ** 7 * 1e5
    rows[0] = [-0.0, 0.0]
    rows[-1, 0] = -0.0
    args = argparse.Namespace(format=fmt, out=None)
    run = {"command": "rows", "tol": 0.1 + 0.2}
    cli._emit_rows(args, run, ("a", "b"), rows, comments=["blocks"])
    got = capsys.readouterr().out
    want = loop_emit_rows(fmt, run, ("a", "b"), [tuple(r) for r in rows.tolist()], ["blocks"])
    _assert_same_text(got, want)
    if fmt == "json":
        assert len(json.loads(got)["rows"]) == count
    else:
        assert got.count("\n-0,") == 2  # the first and last rows


@pytest.mark.parametrize(
    "option,message",
    [
        (["--fixed-value", "-inf"], "--fixed-value: must be a finite number, got -inf"),
        (["--fixed-value=-inf"], "--fixed-value: must be a finite number, got -inf"),
        (["--fixed-value", "-Infinity"], "--fixed-value: must be a finite number, got -Infinity"),
        (["--fixed-value", "-NaN"], "--fixed-value: must be a finite number, got -NaN"),
        (["--fixed-value", "0.1", "--tol", "-nan"], "--tol: must be a positive number, got -nan"),
    ],
)
def test_negative_non_finite_values_reach_their_type_check(capsys, option, message):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["region", "--n", "1", "--L", "2", *option])
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bellnet region: error: argument {message}\n" in captured.err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--L", "0"], "--L"),
        (["--L", "-2"], "--L"),
        (["--L", "2000"], "--L"),
        (["--L", "3", "--full", "--grid", "100000"], "--grid"),
        (["--L", "3", "--grid", str(cli.MAX_SWEEP_POINTS + 1)], "--grid"),
    ],
)
def test_sweep_out_of_range_is_usage_error(monkeypatch, capsys, argv, flag):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("sweep evaluated a grid it should refuse")

    monkeypatch.setattr(cli, "sweep_value", no_evaluation)
    monkeypatch.setattr(cli.np, "linspace", no_evaluation)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["sweep", *argv])
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err


def test_noise_two_sources_two_branches():
    report = run_json("noise", "--n", "2", "--L", "2")
    assert report["closed_form_visibility"] == 0.25
    assert report["bisection_visibility"] == pytest.approx(0.25, abs=2e-6)
    assert report["scheme_attains_closed_form"] is True
    assert report["checks"] == {
        "bracket_certified": True,
        "bisection_matches_scheme_crossing": True,
    }


def test_noise_single_pair_xy_has_no_violation():
    # one noiseless table certifies that no visibility violates
    report = run_json("noise", "--n", "1", "--L", "1", "--scheme", "xy")
    assert report["no_violation"] is True
    assert report["checks"] == {"bracket_certified": True}


def test_noise_heterogeneous():
    report = run_json("noise", "--branches", "1,2,3")
    assert report["closed_form_visibility"] == 0.125
    assert report["bisection_visibility"] == pytest.approx(0.125, abs=2e-6)
    assert report["checks"]["bracket_certified"] is True


def test_noise_beyond_budget_is_refused(monkeypatch, capsys):
    # the crossing is read off the kernel; the certificate tables are skipped
    _no_separable_tables(monkeypatch)
    report = _computed(capsys, ["noise", "--n", "4", "--L", "3", "--scheme", "rotated"])
    assert report["bisection_visibility"] == 2.0**-6
    assert report["checks"] == {"bisection_matches_scheme_crossing": True}
    assert report["skipped_checks"] == {"bracket_certified": SEPARABLE_CAP.format(26)}


@pytest.mark.parametrize("n", [65536, 600])
def test_noise_compares_tiny_crossings_in_log2(capsys, n):
    # 2**-65536 underflows to 0.0 and 2**-600 lies far below any absolute
    # tolerance, so only the log2 crossings tell a right kernel from a wrong one
    report = _computed(capsys, ["noise", "--n", str(n), "--L", "2"])
    assert report["log2_bisection_visibility"] == pytest.approx(-n, rel=1e-9)
    assert report["scheme_attains_closed_form"] is True
    assert report["checks"] == {"bisection_matches_scheme_crossing": True}


def test_noise_runs_the_kernel_once_where_the_crossing_underflows(monkeypatch, capsys):
    # 2**-1100 underflows: the log2 crossing comes from the kernel's one top
    kernel, calls = inequality.separable_spectrum, []

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(inequality, "separable_spectrum", counted)
    monkeypatch.setattr(cli, "separable_spectrum", counted)
    report = _computed(capsys, ["noise", "--n", "1100", "--L", "2"])
    assert report["bisection_visibility"] == 0.0
    assert report["log2_bisection_visibility"] == pytest.approx(-1100, rel=1e-9)
    assert len(calls) == 1


@pytest.mark.parametrize("n", [65536, 600])
def test_noise_wrong_kernel_exits_2(monkeypatch, capsys, n):
    # a kernel 1% high moves n log2(bound/top) by n log2(1.01), past the tolerance
    factors = inequality.source_factors
    monkeypatch.setattr(inequality, "source_factors", lambda *args: 1.01 * factors(*args))
    assert cli.main(["noise", "--n", str(n), "--L", "2"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["checks"] == {"bisection_matches_scheme_crossing": False}


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["violate", "--n", "40", "--L", "10"], "kernel_value", 32.0),
        (["swap", "--n", "20", "--L", "5"], "swap_value", 4.0),
        (["swap", "--n", "20", "--L", "5"], "separable_value", 4.0),
        (["noise", "--n", "40", "--L", "10"], "bisection_visibility", 6.22301527786e-61),
        # 1100 factors of 1/2 underflow as one product
        (["violate", "--n", "1100", "--L", "1"], "kernel_value", 1.0),
    ],
)
def test_kernel_scale_commands_build_no_table(monkeypatch, capsys, argv, key, value):
    _no_separable_tables(monkeypatch)
    monkeypatch.setattr(swap_module, "swap_joint_table", _no_simulation)
    report = _computed(capsys, argv)
    assert report[key] == value
    assert all(report["checks"].values())
    assert report["skipped_checks"]


def test_noise_uncertified_bracket_exits_2(monkeypatch, capsys):
    # Tables that ignore the visibilities contradict the scaling law the
    # bisection steps on, so the simulated bracket cannot be certified.
    _without_visibilities(monkeypatch)
    assert cli.main(["noise", "--n", "2", "--L", "2"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["checks"] == {"bracket_certified": False}
    assert "do not bracket" in report["error"]
    assert "bisection_visibility" not in report


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("classical", "--n", "2", "--L", "2", "--grid", "0"), "--grid"),
        (("classical", "--n", "2", "--L", "1", "--mode", "sample", "--trials", "0"), "--trials"),
        (("classical", "--n", "2", "--L", "1", "--mode", "sample", "--trials", "-5"), "--trials"),
        (("region", "--n", "2", "--L", "2", "--fixed-value", "0.2", "--tol", "-1"), "--tol"),
        (("region", "--n", "1", "--L", "2", "--fixed-value", "nan"), "--fixed-value"),
        (("region", "--n", "1", "--L", "2", "--fixed-value", "inf"), "--fixed-value"),
        (("region", "--n", "1", "--L", "2", "--fixed-value=-inf"), "--fixed-value"),
    ],
)
def test_numeric_flags_out_of_range_are_usage_errors(argv, flag):
    proc = run_cli(*argv, expect=1)
    assert f"argument {flag}" in proc.stderr


def test_classical_saturating():
    report = run_json("classical", "--n", "2", "--L", "2", "--mode", "saturating")
    assert report["max_value"] == 1.0
    assert report["checks"]["grid_maximum_saturates_bound"] is True
    assert report["checks"]["table_route_saturates_bound"] is True


def test_classical_sample():
    report = run_json(
        "classical", "--n", "2", "--L", "1", "--mode", "sample", "--trials", "400"
    )
    assert report["run"]["stream"] == "splitmix64-v1"
    assert report["classical_bound"] == 1.0
    assert report["max_value"] <= 1.0 + 1e-9
    assert report["checks"]["all_below_classical_bound"] is True
    assert report["checks"]["batch_matches_table_route"] is True


@pytest.mark.parametrize(
    "seed, trials, flag",
    [
        (-5, 1000, "--seed"),
        (2**64 - 2, 1000, "--seed"),
        (2**63 - 1, 2, "--seed"),
        (2**63 - 1000, 1001, "--seed"),
        (0, 2**24 + 1, "--trials"),
    ],
)
def test_sample_seeds_and_trials_beyond_limits_are_usage_errors(
    monkeypatch, capsys, seed, trials, flag
):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled beyond the seed or trial limits")

    monkeypatch.setattr(cli, "sampled_bell_values", no_sampling)
    argv = ["classical", "--n", "2", "--L", "1", "--mode", "sample"]
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--seed", str(seed), "--trials", str(trials)])
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert f"error: {flag}" in err
    assert "Traceback" not in err


def test_sample_last_seeds_of_the_stream_domain(capsys):
    argv = ["classical", "--n", "2", "--L", "1", "--mode", "sample"]
    assert cli.main([*argv, "--seed", str(2**63 - 2), "--trials", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["batch_matches_table_route"] is True


def test_sample_model_beyond_block_budget_is_usage_error(capsys):
    # one model would hold 256**2 * 2**16 center signs (32 GiB)
    argv = ["classical", "--n", "2", "--L", "16", "--lattice", "256", "--mode", "sample"]
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--trials", "1"])
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "entries" in captured.err
    assert "Traceback" not in captured.err


def test_classical_sample_seed_changes_run():
    a = run_cli(
        "classical", "--L", "1", "--n", "2", "--mode", "sample",
        "--trials", "50", "--seed", "7",
    ).stdout
    b = run_cli(
        "classical", "--L", "1", "--n", "2", "--mode", "sample",
        "--trials", "50", "--seed", "7",
    ).stdout
    assert a == b
    c = run_json(
        "classical", "--L", "1", "--n", "2", "--mode", "sample",
        "--trials", "50", "--seed", "8",
    )
    assert c["run"]["seed"] == 8


def test_classical_sample_skips_table_check_beyond_budget(monkeypatch, capsys):
    # 24 branch observers: the five probes' correlators would hold 2^27.4 entries
    def no_table(*args, **kwargs):
        raise AssertionError("ran the model check beyond the budget")

    monkeypatch.setattr(cli, "model_correlators", no_table)
    argv = ["classical", "--n", "3", "--L", "8", "--mode", "sample", "--trials", "1"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == {"all_below_classical_bound": True}


def test_classical_sample_check_is_sized_by_its_own_arrays(monkeypatch, capsys):
    # one source of 12 branches: no quantum table is built, and the five
    # probes' correlators hold 2^13 entries at each center setting
    argv = ["classical", "--n", "1", "--L", "12", "--mode", "sample", "--trials", "5"]
    report = _computed(capsys, argv)
    assert report["checks"] == {"all_below_classical_bound": True, "batch_matches_table_route": True}
    assert "skipped_checks" not in report
    # one branch more than the cap admits at 4 center settings
    monkeypatch.setattr(cli, "model_correlators", _no_simulation)
    report = _computed(capsys, ["classical", "--branches", "10,11", *argv[5:]])
    assert report["checks"] == {"all_below_classical_bound": True}
    assert report["skipped_checks"] == {
        "batch_matches_table_route": "the probe correlators would hold 2^25.4 entries, over 2^24"
    }


def test_classical_enumerate():
    report = run_json("classical", "--L", "2", "--mode", "enumerate")
    assert report["max_value"] == 1.0
    assert report["checks"]["maximum_equals_bound_exactly"] is True
    assert len(report["strategy"]["responses"]) == 2


def test_classical_enumerate_rejects_multiple_sources():
    run_cli("classical", "--n", "2", "--L", "2", "--mode", "enumerate", expect=1)


def test_region_csv(tmp_path):
    proc = run_cli(
        "region", "--n", "2", "--L", "2", "--fixed-value", "0.0625",
        "--grid", "21",
    )
    lines = proc.stdout.strip().split("\n")
    assert lines[0].startswith("# region n=2")
    assert lines[1] == "K_empty,K_1,K_2"
    assert len(lines) > 2

    out = tmp_path / "slice.csv"
    proc2 = run_cli(
        "region", "--n", "2", "--L", "2", "--fixed-value", "0.0625",
        "--grid", "21", "--out", str(out),
    )
    assert proc2.stdout == ""
    assert out.read_text() == proc.stdout


def test_region_empty_slice():
    proc = run_cli(
        "region", "--n", "2", "--L", "2", "--fixed-value", "2.0",
        "--grid", "11", "--tol", "1e-3",
    )
    lines = proc.stdout.strip().split("\n")
    assert lines[-1] == "K_empty,K_1,K_2"


@pytest.mark.parametrize("grid", [cli.MAX_SWEEP_POINTS, 12000000])
def test_region_grid_over_point_cap_is_usage_error(monkeypatch, capsys, grid):
    def no_slice(*args, **kwargs):
        raise AssertionError("region evaluated a grid it should refuse")

    monkeypatch.setattr(cli, "region_slice", no_slice)
    argv = ["region", "--n", "1", "--L", "2", "--fixed-value", "0.1", "--grid", str(grid)]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert "--grid" in err
    assert "Traceback" not in err


def test_swap_default_matches_separable():
    report = run_json("swap", "--n", "2", "--L", "2")
    assert report["swap_value"] == pytest.approx(2.0, abs=1e-9)
    assert report["separable_value"] == pytest.approx(2.0, abs=1e-9)
    assert report["checks"]["swap_matches_separable"] is True


def test_swap_custom_conditioning(tmp_path):
    rules = {str(m): {"bit": 1} for m in range(4)}
    path = tmp_path / "cond.json"
    path.write_text(json.dumps(rules))
    report = run_json(
        "swap", "--n", "2", "--L", "2", "--conditioning", str(path)
    )
    assert report["run"]["conditioning"] == "custom"
    assert report["swap_value"] == pytest.approx(0.0, abs=1e-9)
    # a custom swap value is not the separable one; the joint table still
    # checks the kernel, and a table checks the separable value
    assert report["checks"] == {
        "separable_matches_table": True,
        "kernel_matches_joint_table": True,
    }


def test_swap_custom_conditioning_past_the_joint_cap_says_why_unchecked(tmp_path, capsys):
    path = tmp_path / "cond.json"
    path.write_text(json.dumps({str(m): {"bit": 0} for m in range(16)}))
    report = _computed(capsys, ["swap", "--n", "2", "--L", "4", "--conditioning", str(path)])
    assert report["checks"] == {"separable_matches_table": True}
    assert report["skipped_checks"] == {"kernel_matches_joint_table": JOINT_CAP.format(18)}


def test_swap_checks_kernel_on_joint_tables_up_to_the_cap(monkeypatch, capsys):
    joint = swap_module.swap_joint_table
    calls = []
    monkeypatch.setattr(
        swap_module, "swap_joint_table", lambda *args: calls.append(args) or joint(*args)
    )
    # 4**6 * 2**2 = 2^14 entries are checked, 4**8 * 2**2 = 2^18 are not
    for size, checked in ((3, True), (4, False)):
        assert cli.main(["swap", "--n", "2", "--L", str(size)]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert ("kernel_matches_joint_table" in checks) is checked
        assert checks["swap_matches_separable"] is True
    assert len(calls) == 1
    # the one budget: 2^16 entries fit, as at (3, 4) with two outcome bits
    assert quantum.joint_table_cap(network.NetworkConfig(2, (3, 4))) is None
    assert quantum.joint_table_cap(network.NetworkConfig(1, (8,))) == JOINT_CAP.format(17)


def test_joint_table_refuses_in_the_words_swap_prints(capsys):
    report = _computed(capsys, ["swap", "--n", "2", "--L", "4"])
    skipped = report["skipped_checks"]["kernel_matches_joint_table"]
    with pytest.raises(ValueError) as refusal:
        quantum.swap_joint_table(network.NetworkConfig.homogeneous(2, 4), np.zeros((8, 2)))
    assert str(refusal.value) == skipped == JOINT_CAP.format(18)


def test_swap_bad_conditioning_is_usage_error(tmp_path):
    path = tmp_path / "cond.json"
    path.write_text('{"0": {"bit": 0}}')
    proc = run_cli(
        "swap", "--n", "2", "--L", "2", "--conditioning", str(path), expect=1
    )
    assert "missing subsets" in proc.stderr


def test_swap_missing_subsets_error_is_one_short_line(tmp_path):
    # L = 18 has 262,144 subsets; listing them all took 2 MB of stderr
    path = tmp_path / "cond.json"
    path.write_text("{}")
    proc = run_cli(
        "swap", "--n", "2", "--L", "18", "--conditioning", str(path), expect=1
    )
    error = proc.stderr.splitlines()[-1]
    assert error == (
        "bellnet swap: error: conditioning missing subsets: 262144, "
        "first [0, 1, 2, 3, 4, 5, 6, 7]"
    )
    assert len(proc.stderr) < 1000


def test_swap_beyond_qubit_cap_is_refused(monkeypatch, capsys, tmp_path):
    # 2 sources of 6 branches hold 14 qubits in all and a separable table
    # of 2^26 entries: both kernels give values, and neither table is built.
    # 10 sources of 1 branch hold 20 qubits but fit the table budget, so
    # the separable table still checks its kernel.
    monkeypatch.setattr(swap_module, "swap_joint_table", _no_simulation)
    routes = {name: getattr(inequality, name) for name in SEPARABLE_ROUTES}
    for n, size, built in ((2, 6, False), (10, 1, True)):
        for name, route in routes.items():
            monkeypatch.setattr(inequality, name, route if built else _no_simulation)
        path = tmp_path / f"cond{n}.json"
        path.write_text(json.dumps({str(m): {"bit": 1} for m in range(1 << size)}))
        argv = ["swap", "--n", str(n), "--L", str(size)]
        skipped = {"kernel_matches_joint_table": JOINT_CAP.format(2 * n * size + n)}
        if not built:
            skipped = {"separable_matches_table": SEPARABLE_CAP.format(26), **skipped}
        for extra in ([], ["--conditioning", str(path)]):
            report = _computed(capsys, [*argv, *extra])
            assert report["skipped_checks"] == skipped
            assert ("separable_matches_table" in report.get("checks", {})) is built
            assert all(report.get("checks", {}).values())
        assert report["separable_value"] == 2.0 ** (size // 2)


def test_swap_beyond_separable_cap_is_refused(monkeypatch, capsys, tmp_path):
    # one source of 12 branches passes the separable table's budget and the
    # joint check's: the custom value is computed and unchecked
    path = tmp_path / "cond.json"
    path.write_text(json.dumps({str(m): {"bit": 0} for m in range(1 << 12)}))
    monkeypatch.setattr(swap_module, "swap_joint_table", _no_simulation)
    _no_separable_tables(monkeypatch)
    report = _computed(capsys, ["swap", "--n", "1", "--L", "12", "--conditioning", str(path)])
    assert "checks" not in report
    assert report["skipped_checks"] == {
        "separable_matches_table": SEPARABLE_CAP.format(26),
        "kernel_matches_joint_table": JOINT_CAP.format(25),
    }


def test_swap_reads_scheme_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scheme": "xy"}))
    argv = ["swap", "--n", "2", "--L", "2", "--config", str(cfg)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["run"]["scheme"] == "xy"
    assert cli.main([*argv, "--scheme", "rotated"]) == 0
    assert json.loads(capsys.readouterr().out)["run"]["scheme"] == "rotated"


@pytest.mark.parametrize(
    "n, rules",
    [(64, None), (70, None), (64, {"0": {"bit": 63}, "1": {"bit": 63}})],
)
def test_swap_source_limit_is_usage_error(tmp_path, capsys, n, rules):
    # one outcome bit per source must fit a 64-bit conditioning mask
    argv = ["swap", "--n", str(n), "--L", "1"]
    if rules is not None:
        path = tmp_path / "cond.json"
        path.write_text(json.dumps(rules))
        argv += ["--conditioning", str(path)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert f"at most {swap_module.MAX_SWAP_SOURCES} sources, got {n}" in capsys.readouterr().err


def test_swap_exact_zero_prints_zero(tmp_path, capsys):
    # both entries are exactly 0; their rounding noise (about 5e-17) used
    # to print as 3e-06 after the cube root
    path = tmp_path / "cond.json"
    path.write_text(json.dumps({"0": {"parity": [0, 2]}, "1": {"parity": [0, 1, 2]}}))
    argv = ["swap", "--n", "3", "--L", "1", "--scheme", "rotated", "--conditioning", str(path)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["swap_value"] == 0.0


def test_bound_heterogeneous():
    report = run_json("bound", "--branches", "1,2")
    assert report["classical_bound"] == pytest.approx(math.sqrt(2.0))
    assert report["critical_visibility"] == pytest.approx(2.0 ** -1.5)
    assert report["predicted_rotated"] == pytest.approx(2.0 ** 1.25)
    assert "predicted_xy" not in report


def test_bound_homogeneous_includes_xy():
    report = run_json("bound", "--n", "3", "--L", "2")
    assert report["predicted_xy"] == 2.0
    assert report["classical_bound"] == 1.0


def test_source_count_is_capped_before_the_config_is_built(monkeypatch, tmp_path, capsys):
    def no_config(*args, **kwargs):
        raise AssertionError("built a network past the source cap")

    monkeypatch.setattr(cli, "NetworkConfig", no_config)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 10**8, "L": 1}))
    too_many = cli.MAX_SOURCES + 1
    for argv in (
        ["bound", "--n", str(10**8), "--L", "1"],
        ["violate", "--branches", ",".join(["1"] * too_many)],
        ["noise", "--config", str(cfg)],
    ):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        count = 10**8 if "--branches" not in argv else too_many
        assert captured.err.endswith(
            f"bellnet {argv[0]}: error: a network holds at most 65536 sources, got {count}\n"
        )


def test_largest_source_count_is_accepted(capsys):
    assert cli.main(["bound", "--n", str(cli.MAX_SOURCES), "--L", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["run"]["config"]["n"] == 1 << 16


def test_bound_beyond_1024_branches(capsys):
    # 2**1100 overflows a float; the bounds are taken as one power of two
    assert cli.main(["bound", "--L", "1100"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classical_bound"] == 1.0
    assert report["predicted_rotated"] == pytest.approx(2.0 ** 550, rel=1e-11)
    assert cli.main(["bound", "--branches", "1,1100"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classical_bound"] == pytest.approx(2.0 ** 549.5, rel=1e-11)
    assert report["predicted_rotated"] == pytest.approx(2.0 ** (1100 - 1101 / 4), rel=1e-11)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "--L", "2100"], "too large for a float"),
        (["classical", "--mode", "sample", "--L", "1100"], "one sampled model would hold 2^1101"),
        (["classical", "--mode", "enumerate", "--L", "1100"], "the enumeration would hold 2^3300"),
    ],
)
def test_huge_branch_counts_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: bellnet {argv[0]} ")
    assert message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["--L", "1100"], ["--n", "3", "--L", "3000"]])
def test_huge_sampled_model_refusal_is_one_short_line(capsys, argv):
    # the entry count is stated as a power of two, not as a 300-digit integer
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["classical", "--mode", "sample", *argv])
    assert exit_info.value.code == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert re.fullmatch(
        r"bellnet classical: error: one sampled model would hold 2\^\d+ entries, over 2\^22", last
    )
    assert len(last) < 100


SEVENTEEN_SOURCES = ",".join(["16"] * 16 + ["1"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["violate", "--n", "1", "--L", "21"], "the exact kernel would hold 2^25.4 entries, over 2^24"),
        (["violate", "--n", "4", "--L", "20"], "the exact kernel would hold 2^26.4 entries, over 2^24"),
        (["violate", "--n", "1", "--L", "25"], "the exact kernel would hold 2^29.7 entries, over 2^24"),
        # 257 observers: 2^24.006 entries, rounded up, never print as the budget
        (["violate", "--branches", SEVENTEEN_SOURCES], "the exact kernel would hold 2^24.1 entries, over 2^24"),
        (["classical", "--mode", "enumerate", "--L", "9"], "the enumeration would hold 2^27 entries, over 2^24"),
        (
            ["classical", "--n", "2", "--L", "16", "--lattice", "256", "--mode", "sample"],
            "one sampled model would hold 2^32 entries, over 2^22",
        ),
        (
            ["classical", "--n", "2", "--L", "1", "--mode", "sample", "--trials", str(2**24 + 1)],
            "--trials 16777217 would hold 2^24.1 entries, over 2^24",
        ),
        (["classical", "--L", "18"], "the saturating grid would hold 2^24.7 entries, over 2^24"),
    ],
)
def test_every_size_refusal_states_its_entries_against_the_budget(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"bellnet {argv[0]}: error: {message}"


@pytest.mark.parametrize("scheme", ["xy", "rotated"])
def test_oversized_kernel_is_refused_before_any_setting_map(monkeypatch, capsys, scheme):
    def no_map(*args, **kwargs):
        raise AssertionError("built a setting map for a network the kernel refuses")

    for module in (network, quantum, cli):
        for name in ("xy_setting_map", "rotated_setting_map"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_map)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["violate", "--n", "1", "--L", "22", "--scheme", scheme])
    assert exit_info.value.code == 1
    assert capsys.readouterr().err.endswith("entries, over 2^24\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["violate", "--n", "2", "--L", "2"],
        ["violate", "--branches", "1,2"],
        ["noise", "--n", "2", "--L", "2"],
        ["noise", "--n", "1", "--L", "3", "--scheme", "rotated"],
        ["swap", "--n", "2", "--L", "2", "--scheme", "rotated"],
    ],
    ids=["violate-xy", "violate-rotated", "noise-xy", "noise-rotated", "swap-rotated"],
)
def test_each_command_computes_its_setting_map_once(monkeypatch, capsys, argv):
    # the kernel, the table check and the swap conditioning read one map
    calls = []
    for name in ("xy_setting_map", "rotated_setting_map"):
        route = getattr(quantum, name)
        monkeypatch.setattr(quantum, name, lambda arg, route=route: calls.append(arg) or route(arg))
    report = _computed(capsys, argv)
    assert "skipped_checks" not in report
    assert all(report["checks"].values())
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--L", "18"], "the saturating grid"),
        (["--L", "1", "--grid", str(cli.MAX_SWEEP_POINTS + 1)], "--grid"),
    ],
)
def test_saturating_grid_past_its_caps_is_refused_before_any_point(monkeypatch, capsys, argv, flag):
    def no_entries(*args, **kwargs):
        raise AssertionError("evaluated a saturating grid it should refuse")

    monkeypatch.setattr(cli, "saturating_entries", no_entries)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["classical", "--mode", "saturating", *argv])
    assert exit_info.value.code == 1
    assert f"error: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("n, size, grid", [(1, 1, 101), (2, 3, 1), (3, 2, 7)])
def test_saturating_grid_is_one_call(monkeypatch, capsys, n, size, grid):
    entries, calls = cli.saturating_entries, []
    monkeypatch.setattr(
        cli, "saturating_entries", lambda p, config: calls.append(p) or entries(p, config)
    )
    argv = ["classical", "--mode", "saturating", "--n", str(n), "--L", str(size)]
    report = _computed(capsys, [*argv, "--grid", str(grid)])
    assert report["checks"]["grid_maximum_saturates_bound"] is True
    assert [p.shape for p in calls] == [(grid, 1, 1)]


@pytest.mark.parametrize("value", ["-1e-05", "-1E+3"])
def test_negative_exponent_values_are_option_values(capsys, value):
    argv = ["region", "--n", "1", "--L", "2", "--fixed-value", value, "--grid", "11"]
    assert cli.main(argv) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert f" fixed_value={cli._fmt(float(value))} " in header


@pytest.mark.parametrize(
    "argv",
    [
        ["violate", "--L", "3", "--seed", "5"],
        ["sweep", "--L", "2", "--grid", "3", "--n", "7"],
        ["sweep", "--L", "2", "--grid", "3", "--branches", "1,2"],
    ],
)
def test_options_no_command_reads_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"usage: bellnet {argv[0]} " in captured.err
    assert f"bellnet {argv[0]}: error: unrecognized arguments: " in captured.err


@pytest.mark.parametrize("out", ["missing/x.json", "."])
def test_unwritable_out_is_usage_error(tmp_path, capsys, out):
    path = tmp_path / out
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["bound", "--L", "2", "--out", str(path)])
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write --out {path}: " in captured.err
    assert "Traceback" not in captured.err


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 1, "L": 3, "scheme": "xy"}))
    report = run_json("violate", "--config", str(cfg))
    assert report["predicted_value"] == 2.0  # xy closed form

    report = run_json("violate", "--config", str(cfg), "--scheme", "rotated")
    assert report["predicted_value"] == pytest.approx(math.sqrt(8.0))


@pytest.mark.parametrize(
    "argv, content, key",
    [
        (["violate"], {"L": 2.5, "n": 2}, "'L'"),
        (["sweep"], {"L": True}, "'L'"),
        (["violate"], {"branches": [1.9, 2]}, "'branches'"),
        (["violate"], {"L": [2]}, "'L'"),
        (["swap", "--n", "2", "--L", "1"], {"scheme": "bogus"}, "'scheme'"),
    ],
)
def test_config_file_values_are_checked(tmp_path, capsys, argv, content, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(content))
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--config", str(cfg)])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config file key {key}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["region", "--n", "1", "--L", "2", "--fixed-value", "0.1", "--grid", "12000000"],
        ["bound", "--n", "1", "--L", "0"],
        ["violate", "--branches", "1,0"],
    ],
)
def test_handler_usage_errors_print_the_subcommand_usage(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: bellnet {argv[0]} ")
    assert f"bellnet {argv[0]}: error: " in err
    assert "Traceback" not in err


def test_library_value_errors_print_the_subcommand_usage(capsys):
    # sample_model raises the ValueError; main reports it for the subcommand
    argv = ["classical", "--n", "2", "--L", "1", "--mode", "sample", "--lattice", "0"]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: bellnet classical ")
    assert err.endswith("bellnet classical: error: lattice must hold at least one hidden value\n")


def test_repeated_main_calls_share_one_parser_and_no_options(capsys):
    assert cli._build_parser() is cli._build_parser()
    assert cli.main(["sweep", "--L", "2", "--grid", "3", "--full", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["run"]["mode"] == "full"
    assert cli.main(["sweep", "--L", "2", "--grid", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# sweep L=2 grid=3 mode=diagonal"
    assert len([line for line in lines if not line.startswith("#")]) == 1 + 3
    argv = ["classical", "--n", "1", "--L", "1"]
    assert cli.main([*argv, "--mode", "sample", "--trials", "3", "--seed", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 3
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["run"]["mode"] == "saturating"
    assert "seed" not in report["run"]
    assert "trials" not in report


def test_contradictory_flags_are_usage_errors():
    run_cli("violate", "--n", "3", "--branches", "1,2", expect=1)
    run_cli("violate", "--branches", "1,0", expect=1)
    run_cli("violate", expect=1)  # no network at all
