"""The exit-code contract of the command line, checked in process.

0 means success, 1 a usage error and 2 a failed cross-check: a command
exits 2 exactly when its output shows a false check (or, for ``sweep``, a
``FAILED`` simulation line), and no input lets a traceback escape.
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from bellnet import classical
from bellnet import cli
from bellnet import inequality
from bellnet import swap
from bellnet import quantum
from bellnet.quantum import CorrelationTable, SwapJointTable

# The routes each command re-derives its headline numbers through:
# violate, noise and swap reach the network's correlators through the one
# binding in inequality.
TABLE_ROUTES = (
    (inequality, "network_correlators"),
    (cli, "saturating_table"),
    (cli, "model_tables"),
    (cli, "single_source_table"),
)


def _halved(route):
    """``route`` with every table mixed half and half with uniform outcomes.

    Each full correlator halves, so a value read off such a table (or off
    correlators returned alone, or off any table a route yields)
    disagrees with the same value reached another way.
    """

    def halve(table):
        if isinstance(table, np.ndarray):  # uniform outcomes have no correlator
            return 0.5 * table
        return CorrelationTable(table.config, 0.5 * table.values + 0.25 / table.values.shape[2])

    def mixed(*args, **kwargs):
        result = route(*args, **kwargs)
        if isinstance(result, (np.ndarray, CorrelationTable)):
            return halve(result)
        return [halve(t) for t in result]

    return mixed


def _run(argv):
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _shows_a_failure(text: str) -> bool:
    """Whether a command's output reports a failed cross-check."""
    if text.startswith("key,value"):
        checks = json.loads(dict(csv.reader(io.StringIO(text))).get("checks", "{}"))
    elif text.startswith("{"):
        checks = json.loads(text).get("checks", {})
    else:
        checks = {}
    # sweep names a failed simulation check in its comment line (CSV) or
    # in run.simulation_check (JSON)
    return not all(checks.values()) or "FAILED" in text


@pytest.mark.parametrize(
    "argv, route, check",
    [
        (
            ["violate", "--n", "2", "--L", "2"],
            (inequality, "network_correlators"),
            "simulation_matches_closed_form",
        ),
        (
            ["swap", "--n", "2", "--L", "2"],
            (inequality, "network_correlators"),
            "separable_matches_table",
        ),
        (
            ["classical", "--n", "2", "--L", "2", "--mode", "saturating"],
            (cli, "saturating_table"),
            "table_route_saturates_bound",
        ),
        (
            ["classical", "--n", "2", "--L", "1", "--mode", "sample", "--trials", "20"],
            (cli, "model_tables"),
            "batch_matches_table_route",
        ),
        (
            # the reported values halve; the probe tables, drawn alone, do not
            ["classical", "--n", "2", "--L", "1", "--mode", "sample", "--trials", "20"],
            (classical, "sampled_spectra"),
            "batch_matches_table_route",
        ),
        (["sweep", "--L", "2", "--grid", "3"], (cli, "single_source_table"), None),
        # past one block the check multiplies the sources' correlators, so
        # halving each source's table must show there too
        (
            ["violate", "--n", "2", "--L", "5"],
            (quantum, "single_source_table"),
            "simulation_matches_closed_form",
        ),
        (["noise", "--n", "3", "--L", "3"], (quantum, "single_source_table"), "bracket_certified"),
        (
            ["swap", "--n", "2", "--L", "4"],
            (quantum, "single_source_table"),
            "separable_matches_table",
        ),
    ],
    ids=[
        "violate", "swap", "saturating", "sample", "sample-batch", "sweep",
        "violate-product", "noise-product", "swap-product",
    ],
)
def test_failed_cross_check_exits_2(monkeypatch, argv, route, check):
    module, name = route
    monkeypatch.setattr(module, name, _halved(getattr(module, name)))
    code, out, err = _run(argv)
    assert code == 2
    assert "Traceback" not in err
    if check is None:
        assert "# simulation check at 3 probes: FAILED" in out.splitlines()
        assert out.splitlines()[2] == "theta0,theta1,value"
    else:
        report = json.loads(out)
        assert report["checks"][check] is False
        # noise names the failed certificate where its crossing would be
        assert ("error" if argv[0] == "noise" else "classical_bound") in report


def test_kernel_disagreeing_with_joint_table_exits_2(monkeypatch):
    def mixed(config, branch_angles):
        table = quantum.swap_joint_table(config, branch_angles)
        return SwapJointTable(config, 0.5 * table.values + 0.5 / table.values[0].size)

    monkeypatch.setattr(swap, "swap_joint_table", mixed)
    code, out, err = _run(["swap", "--n", "2", "--L", "2"])
    assert code == 2
    assert "Traceback" not in err
    checks = json.loads(out)["checks"]
    assert checks == {
        "swap_matches_separable": True,
        "separable_matches_table": True,
        "kernel_matches_joint_table": False,
    }


# Networks no command accepts.
BAD_NETWORK = st.sampled_from(
    [["--n", "0", "--L", "2"], ["--n", "2", "--L", "0"], ["--branches", "1,0"], ["--L", "-1"], []]
)


def _network(max_branch, max_total):
    """Flags naming a network of at most ``max_total`` branch observers:
    ``--n``/``--L`` or ``--branches``, now and then an invalid one."""
    homogeneous = st.integers(1, max_branch).flatmap(
        lambda L: st.integers(1, min(4, max_total // L)).map(
            lambda n: ["--n", str(n), "--L", str(L)]
        )
    )
    uneven = st.lists(st.integers(1, max_branch), min_size=1, max_size=3).filter(
        lambda b: sum(b) <= max_total
    ).map(lambda b: ["--branches", ",".join(map(str, b))])
    return st.one_of(homogeneous, uneven, BAD_NETWORK)


def _maybe(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


# Simulating commands stay at 8 branch observers in all; closed-form
# commands reach branch counts whose powers of two overflow a float.
SIMULATED = _network(8, 8)
HUGE_BRANCH = st.one_of(st.integers(1, 6), st.integers(1000, 3000))
CLOSED_FORM = st.one_of(
    _network(6, 24),
    st.lists(HUGE_BRANCH, min_size=1, max_size=3).map(
        lambda b: ["--branches", ",".join(map(str, b))]
    ),
    st.tuples(st.integers(1, 3), HUGE_BRANCH).map(
        lambda nl: ["--n", str(nl[0]), "--L", str(nl[1])]
    ),
)
# Networks past a table cap: one source of 12..40 branches, or two
# sources whose separable or joint table is too large.
OVERSIZED = st.one_of(
    st.integers(12, 40).map(lambda L: ["--L", str(L)]),
    st.integers(6, 12).map(lambda L: ["--n", "2", "--L", str(L)]),
)
SCHEME = _maybe("--scheme", st.sampled_from(["xy", "rotated"]))
SIMULATING = st.sampled_from(["violate", "noise", "swap"])

COMMANDS = st.one_of(
    st.tuples(SIMULATING, st.one_of(SIMULATED, OVERSIZED), SCHEME),
    st.tuples(
        st.just("sweep"),
        _maybe("--L", st.one_of(st.integers(-1, 8), st.integers(9, 1100))),
        _maybe("--grid", st.integers(1, 40)),
        st.sampled_from([[], ["--full"]]),
    ),
    st.tuples(st.just("bound"), CLOSED_FORM),
    st.tuples(
        st.just("classical"),
        CLOSED_FORM,
        _maybe("--mode", st.sampled_from(["saturating", "sample", "enumerate"])),
        _maybe("--trials", st.integers(0, 40)),
        _maybe("--lattice", st.integers(0, 4)),
        _maybe("--grid", st.integers(0, 30)),
        _maybe("--seed", st.one_of(st.integers(-2, 100), st.integers(2**63 - 50, 2**63 + 1))),
    ),
    st.tuples(
        st.just("region"),
        st.one_of(
            st.integers(1, 3).map(lambda n: ["--n", str(n), "--L", "2"]), _network(3, 6)
        ),
        st.floats(-1.5, 1.5).map(lambda v: ["--fixed-value", repr(v)]),
        _maybe("--fixed-mask", st.integers(-1, 4)),
        _maybe("--grid", st.integers(2, 30)),
        _maybe("--tol", st.sampled_from(["1e-3", "0.05", "0", "-1"])),
    ),
).map(lambda parts: [parts[0]] + [flag for part in parts[1:] for flag in part])

FORMAT = _maybe("--format", st.sampled_from(["json", "csv"]))
# Now and then an option the command may not know: each subcommand must
# refuse it with its own usage line.
UNKNOWN = st.sampled_from([[]] * 6 + [["--bogus"], ["--seed", "5"], ["--full"], ["--n", "2"]])
# Mostly stdout; else a new file, a missing directory or a directory.
OUT = st.sampled_from([None, None, None, "report.out", "missing/report.out", "."])


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=COMMANDS, fmt=FORMAT, unknown=UNKNOWN, out=OUT, broken=st.booleans())
def test_exit_code_contract(tmp_path, argv, fmt, unknown, out, broken):
    argv = argv + fmt + unknown
    target = None
    if out is not None:
        target = tmp_path / out
        if target.is_file():
            target.unlink()
        argv += ["--out", str(target)]
    with pytest.MonkeyPatch.context() as patch:
        if broken:
            for module, name in TABLE_ROUTES:
                patch.setattr(module, name, _halved(getattr(module, name)))
        code, stdout, stderr = _run(argv)

    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr
    if code == 1:
        assert stdout == ""
        assert f"bellnet {argv[0]}: error: " in stderr
        return
    if target is None:
        text = stdout
    else:
        assert stdout == ""
        text = target.read_text(encoding="utf-8")
    assert text
    assert (code == 2) == _shows_a_failure(text), (argv, text)


def _no_table(*args, **kwargs):
    raise AssertionError("built a table for a network past its cap")


# The usage errors left past the table caps: the kernel's own array, in
# the one form every size refusal takes, and the entangled center's odd
# source count.
KERNEL_LIMITS = (
    "entries, over 2^24",
    "no default conditioning for an odd source count",
)


@settings(max_examples=60, deadline=None)
@given(command=SIMULATING, network=OVERSIZED, scheme=SCHEME, fmt=FORMAT)
def test_oversized_networks_are_refused_before_any_table(command, network, scheme, fmt):
    argv = [command, *network, *scheme, *fmt]
    with pytest.MonkeyPatch.context() as patch:
        for module, name in TABLE_ROUTES + ((swap, "swap_joint_table"),):
            patch.setattr(module, name, _no_table)
        code, stdout, stderr = _run(argv)
    assert "Traceback" not in stderr
    if code == 1:
        message = stderr.splitlines()[-1]
        event(message.split(": ", 2)[2])
        assert stdout == ""
        assert message.startswith(f"bellnet {command}: error: ")
        assert message.endswith(KERNEL_LIMITS), argv
        return
    # the kernel computed every value; the report names each skipped check
    assert code == 0, argv
    if stdout.startswith("key,value"):
        cells = dict(csv.reader(io.StringIO(stdout)))
        report = {key: json.loads(cells.get(key, "{}")) for key in ("checks", "skipped_checks")}
    else:
        report = json.loads(stdout)
    event(f"{command} computed")
    table_checks = {
        "violate": {"simulation_matches_closed_form"},
        "noise": {"bracket_certified"},
        "swap": {"separable_matches_table", "kernel_matches_joint_table"},
    }[command]
    assert set(report["skipped_checks"]) == table_checks
    assert all(report.get("checks", {}).values())


@pytest.mark.parametrize(
    "rules",
    [
        '{"0": {"bit": true}, "1": {"parity": [true, false]}, "2": {"bit": 0}, "3": {"bit": 0}}',
        '{"0": {"bit": 0}, "1": {"bit": 0}, "01": {"bit": 1}, "2": {"bit": 0}, "3": {"bit": 0}}',
    ],
    ids=["boolean-index", "aliasing-key"],
)
def test_malformed_conditioning_is_a_usage_error(tmp_path, rules):
    path = tmp_path / "cond.json"
    path.write_text(rules)
    code, stdout, stderr = _run(["swap", "--n", "2", "--L", "2", "--conditioning", str(path)])
    assert (code, stdout) == (1, "")
    assert "Traceback" not in stderr
    assert stderr.splitlines()[-1].startswith("bellnet swap: error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["classical", "--branches", "1,2", "--mode", "saturating"],
            "the saturating family is defined on even networks",
        ),
        (
            ["classical", "--n", "2", "--L", "2", "--mode", "enumerate"],
            "enumeration certifies the bound only for one source",
        ),
    ],
    ids=["saturating-uneven", "enumerate-two-sources"],
)
def test_library_refusals_are_usage_errors(argv, message):
    code, stdout, stderr = _run(argv)
    assert (code, stdout) == (1, "")
    assert "Traceback" not in stderr
    assert stderr.splitlines()[-1] == f"bellnet classical: error: {message}"


# The subprocess imports the same package as this process, installed or not.
_SRC = str(Path(cli.__file__).resolve().parents[1])
_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))),
}


def _assert_stdout_write_refused(command: str, code: int, stderr: str) -> None:
    """A failed write to stdout exits 1 with one error line, and the
    interpreter's own flush at exit reports nothing more."""
    assert code == 1, stderr
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr
    assert stderr.splitlines()[-1].startswith(f"bellnet {command}: error: cannot write stdout: ")


def test_closed_stdout_pipe_is_a_usage_error():
    argv = [sys.executable, "-m", "bellnet", "sweep", "--L", "10", "--grid", "512", "--full"]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_ENV
    )
    assert proc.stdout.read(1) == "#"
    proc.stdout.close()  # as `| head -c 1` does
    stderr = proc.stderr.read()
    _assert_stdout_write_refused("sweep", proc.wait(timeout=60), stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_full_stdout_device_is_a_usage_error():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "bellnet", "violate", "--n", "2", "--L", "1"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=_ENV,
            timeout=60,
        )
    _assert_stdout_write_refused("violate", proc.returncode, proc.stderr)
