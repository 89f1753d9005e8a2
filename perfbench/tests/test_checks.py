"""The output checks accept right outputs and reject altered ones."""

import json

import bellnet.cli
from checks import check
from run import call
from workloads import Command


def output(command):
    code, out, _ = call(bellnet.cli, command.argv())
    assert code == 0
    return out


def test_violate_check_rejects_a_wrong_simulated_value():
    command = Command("violate", (3,), scheme="rotated")
    text = output(command)
    assert check(command, text) is None
    report = json.loads(text)
    report["simulated_value"] *= 1 + 1e-6
    assert check(command, json.dumps(report)) is not None


def test_sweep_check_rejects_a_changed_row():
    command = Command("sweep", L=9, grid=11, full=True)
    text = output(command)
    assert check(command, text) is None
    lines = text.splitlines()
    theta0, theta1, value = lines[-1].split(",")
    lines[-1] = f"{theta0},{theta1},{float(value) + 1e-6}"
    assert check(command, "\n".join(lines)) is not None


def test_region_check_rejects_a_missing_row():
    command = Command("region", (2, 2), grid=101, tol=0.002, fixed_value=0.1)
    text = output(command)
    assert check(command, text) is None
    assert check(command, "\n".join(text.splitlines()[:-1])) is not None

