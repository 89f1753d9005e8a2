"""Independent checks of each command's stdout.

Expected numbers come from closed forms computed here, never from the
CLI's own ``checks`` block:

* Bell values ``2^floor(L/2)`` for axis measurements and
  ``2^Lmax * 2^(-sum L / 2n)`` for rotated ones (``2^(L/2)`` when even);
* classical bound ``2^Lmax * 2^(-sum L / n)`` and critical visibility
  ``2^(-sum L / 2)``;
* sweeps against the phase-product form of each subset correlator, and
  the diagonal against ``diagonal_sweep_closed_form``;
* sampled and saturating classical maxima at or below the bound, the
  entangled-center value equal to the separable one, and region slices
  on the level set of the saturating family.

``check(command, stdout)`` returns None when the output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from bellnet.inequality import diagonal_sweep_closed_form

VALUE_REL = 1e-9  # the CLI prints 12 significant digits
VISIBILITY_ABS = 1e-6  # bisection tolerance of the noise command


def _close(got, want, rel=VALUE_REL) -> bool:
    return abs(float(got) - want) <= rel * max(1.0, abs(want))


def classical_bound(branches) -> float:
    n, lmax, total = len(branches), max(branches), sum(branches)
    return 2.0 ** lmax * 2.0 ** (-total / n)


def quantum_value(branches, scheme: str) -> float:
    n, lmax, total = len(branches), max(branches), sum(branches)
    if scheme == "xy":
        return 2.0 ** (lmax // 2)
    return 2.0 ** lmax * 2.0 ** (-total / (2.0 * n))


def _scheme(command) -> str:
    if command.scheme:
        return command.scheme
    return "xy" if len(set(command.branches)) == 1 else "rotated"


def sweep_values(theta0, theta1, size: int) -> np.ndarray:
    """Bell value of one GHZ source with every branch at (theta0, theta1).

    Subset correlator with c members: Re[e^{i pi y/2} d^c s^(L-c)] where
    d, s are the half difference and half sum of e^{i theta}; the center
    setting y is 1 - ((c + [L % 4 == 0]) mod 2).
    """
    e0, e1 = np.exp(1j * np.asarray(theta0)), np.exp(1j * np.asarray(theta1))
    half_diff, half_sum = (e0 - e1) / 2, (e0 + e1) / 2
    flip = 1 if size % 4 == 0 else 0
    total = np.zeros(np.shape(theta0))
    for c in range(size + 1):
        y = 1 - ((c + flip) & 1)
        entry = np.real(1j ** y * half_diff ** c * half_sum ** (size - c))
        total = total + math.comb(size, c) * np.abs(entry)
    return total


def _rows(command, text: str):
    """(column names, float rows) from a CSV or JSON row artifact."""
    if command.fmt == "json":
        data = json.loads(text)
        return data["columns"], np.asarray(data["rows"], dtype=np.float64)
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    names = next(reader)
    rows = [[float(v) for v in row] for row in reader]
    return names, np.asarray(rows, dtype=np.float64).reshape(-1, len(names))


def _check_violate(command, report):
    want = quantum_value(command.branches, _scheme(command))
    bound = classical_bound(command.branches)
    if "simulated_value" not in report:
        return "no simulated value"
    for key in ("predicted_value", "simulated_value"):
        if not _close(report[key], want):
            return f"{key} {report[key]} != {want}"
    if not _close(report["classical_bound"], bound):
        return f"classical_bound {report['classical_bound']} != {bound}"
    if report["violated"] != (want > bound + VALUE_REL):
        return "violated flag wrong"
    return None


def _check_noise(command, report):
    want = 2.0 ** (-sum(command.branches) / 2.0)
    if not _close(report["closed_form_visibility"], want):
        return f"closed-form visibility {report['closed_form_visibility']} != {want}"
    found = report.get("bisection_visibility")
    if found is None or abs(found - want) > VISIBILITY_ABS:
        return f"bisection visibility {found} != {want}"
    return None


def _check_sweep(command, text):
    names, rows = _rows(command, text)
    if list(names) != ["theta0", "theta1", "value"]:
        return f"sweep columns {names}"
    thetas = np.linspace(0.0, math.pi / 2, command.grid)
    if command.full:
        t0, t1 = np.repeat(thetas, command.grid), np.tile(thetas, command.grid)
        diagonal = np.flatnonzero(
            np.add.outer(np.arange(command.grid), np.arange(command.grid)).ravel()
            == command.grid - 1
        )
    else:
        t0, t1 = thetas, math.pi / 2 - thetas
        diagonal = np.arange(command.grid)
    if rows.shape[0] != t0.size:
        return f"sweep has {rows.shape[0]} rows, want {t0.size}"
    if np.abs(rows[:, 0] - t0).max() > 1e-11 or np.abs(rows[:, 1] - t1).max() > 1e-11:
        return "sweep angles off the grid"
    want = sweep_values(t0, t1, command.L)
    if np.any(np.abs(rows[:, 2] - want) > VALUE_REL * np.maximum(1.0, want)):
        return "sweep value off the phase-product form"
    for i in diagonal:
        closed = diagonal_sweep_closed_form(t0[i], command.L)
        if not _close(rows[i, 2], closed):
            return f"diagonal value {rows[i, 2]} != closed form {closed}"
    return None


def _check_classical(command, report):
    bound = classical_bound(command.branches)
    if not _close(report["classical_bound"], bound):
        return f"classical_bound {report['classical_bound']} != {bound}"
    best = report["max_value"]
    if best > bound * (1 + VALUE_REL):
        return f"max_value {best} exceeds the bound {bound}"
    if command.mode == "sample" and report["trials"] != command.trials:
        return f"sampled {report['trials']} models, asked for {command.trials}"
    if command.mode == "saturating" and not _close(best, bound):
        return f"saturating maximum {best} != bound {bound}"
    if command.mode == "enumerate" and best != 1.0:
        return f"enumerated maximum {best} != 1"
    return None


def _check_region(command, text):
    names, rows = _rows(command, text)
    if list(names) != ["K_empty", "K_1", "K_2"]:
        return f"region columns {names}"
    n, fixed, tol = len(command.branches), command.fixed_value, command.tol
    ps = np.linspace(0.0, 1.0, command.grid)
    fixed_entry = np.multiply.outer(1 - ps, 1 - ps) ** n
    want_rows = int((np.abs(fixed_entry - fixed) < tol).sum())
    if rows.shape[0] != want_rows:
        return f"region has {rows.shape[0]} rows, want {want_rows}"
    # The four entries' 1/n powers sum to one, so the missing fixed entry
    # must lie within tol of the requested slice.
    missing = 1.0 - (np.abs(rows) ** (1.0 / n)).sum(axis=1)
    lo = max(fixed - tol, 0.0) ** (1.0 / n) - 1e-6
    hi = (fixed + tol) ** (1.0 / n) + 1e-6
    if rows.size and (missing.min() < lo or missing.max() > hi):
        return "region row off the saturating level set"
    return None


def _check_swap(command, report):
    want = quantum_value(command.branches, _scheme(command))
    if not _close(report["swap_value"], report["separable_value"]):
        return f"swap {report['swap_value']} != separable {report['separable_value']}"
    if not _close(report["swap_value"], want):
        return f"swap value {report['swap_value']} != {want}"
    if not _close(report["classical_bound"], classical_bound(command.branches)):
        return "classical bound wrong"
    return None


_REPORT_CHECKS = {
    "violate": _check_violate,
    "noise": _check_noise,
    "classical": _check_classical,
    "swap": _check_swap,
}
_ROW_CHECKS = {"sweep": _check_sweep, "region": _check_region}


def check(command, text: str) -> str | None:
    """None when ``text`` is the right output of ``command``, else why not."""
    try:
        if command.cmd in _ROW_CHECKS:
            return _ROW_CHECKS[command.cmd](command, text)
        return _REPORT_CHECKS[command.cmd](command, json.loads(text))
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        return f"unreadable output: {exc!r}"
