"""End-to-end tests of the command line interface via subprocess."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellnet import cli

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


def test_violate_oversized_network_skips_simulation():
    report = run_json("violate", "--L", "13")
    assert "simulated_value" not in report
    assert "warning" in report


def test_violate_largest_single_source_is_simulated():
    report = run_json("violate", "--n", "1", "--L", "10", timeout=60)
    assert report["simulated_value"] == 32.0
    assert report["checks"]["simulation_matches_closed_form"] is True


@pytest.mark.parametrize("command,skipped", [("violate", "network_table"), ("noise", "find_critical_visibility")])
def test_beyond_single_source_cap_reports_closed_form(monkeypatch, capsys, command, skipped):
    # 4**11 * 2 * 2 elements fit the table budget, but one source of 11
    # branches exceeds the single-source simulator's cap.
    def no_simulation(*args, **kwargs):
        raise AssertionError(f"{skipped} ran beyond the single-source cap")

    monkeypatch.setattr(cli, skipped, no_simulation)
    assert cli.main([command, "--n", "1", "--L", "11"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["warning"] == cli.TOO_LARGE_WARNING
    assert "simulated_value" not in report
    assert "bisection_visibility" not in report


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


def test_noise_two_sources_two_branches():
    report = run_json("noise", "--n", "2", "--L", "2")
    assert report["closed_form_visibility"] == 0.25
    assert report["bisection_visibility"] == pytest.approx(0.25, abs=2e-6)
    assert report["scheme_attains_closed_form"] is True
    assert report["checks"]["bisection_matches_scheme_crossing"] is True


def test_noise_single_pair_xy_has_no_violation():
    report = run_json("noise", "--n", "1", "--L", "1", "--scheme", "xy")
    assert report["no_violation"] is True


def test_noise_heterogeneous():
    report = run_json("noise", "--branches", "1,2,3")
    assert report["closed_form_visibility"] == 0.125
    assert report["bisection_visibility"] == pytest.approx(0.125, abs=2e-6)


def test_noise_beyond_budget_reports_closed_form(monkeypatch, capsys):
    def no_bisection(*args, **kwargs):
        raise AssertionError("bisection ran beyond the simulation budget")

    monkeypatch.setattr(cli, "find_critical_visibility", no_bisection)
    assert cli.main(["noise", "--n", "4", "--L", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["closed_form_visibility"] == 2.0 ** -6
    assert "warning" in report
    assert "bisection_visibility" not in report


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("classical", "--n", "2", "--L", "2", "--grid", "0"), "--grid"),
        (("classical", "--n", "2", "--L", "1", "--mode", "sample", "--trials", "0"), "--trials"),
        (("classical", "--n", "2", "--L", "1", "--mode", "sample", "--trials", "-5"), "--trials"),
        (("region", "--n", "2", "--L", "2", "--fixed-value", "0.2", "--tol", "-1"), "--tol"),
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
    assert report["classical_bound"] == 1.0
    assert report["max_value"] <= 1.0 + 1e-9
    assert report["checks"]["all_below_classical_bound"] is True
    assert report["checks"]["batch_matches_table_route"] is True


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
    assert "checks" not in report


def test_swap_bad_conditioning_is_usage_error(tmp_path):
    path = tmp_path / "cond.json"
    path.write_text('{"0": {"bit": 0}}')
    proc = run_cli(
        "swap", "--n", "2", "--L", "2", "--conditioning", str(path), expect=1
    )
    assert "missing subsets" in proc.stderr


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


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 1, "L": 3, "scheme": "xy"}))
    report = run_json("violate", "--config", str(cfg))
    assert report["predicted_value"] == 2.0  # xy closed form

    report = run_json("violate", "--config", str(cfg), "--scheme", "rotated")
    assert report["predicted_value"] == pytest.approx(math.sqrt(8.0))


def test_contradictory_flags_are_usage_errors():
    run_cli("violate", "--n", "3", "--branches", "1,2", expect=1)
    run_cli("violate", "--branches", "1,0", expect=1)
    run_cli("violate", expect=1)  # no network at all
