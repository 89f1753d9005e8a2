"""Batch command line interface.

Every subcommand runs one experiment to completion and emits a CSV or
JSON artifact; nothing is interactive.  violate, noise and swap read their
values off the exact phase-product kernels.  Commands re-derive headline
numbers through an independent route whenever its table fits, else name
the skipped check and its cap under ``skipped_checks``.  They exit with
status 2 when a reported check is false, 1 on usage errors, 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys

import numpy as np

from .classical import (
    MAX_SAMPLE_SEED,
    SAMPLE_STREAM,
    deterministic_maximum,
    model_tables,
    region_slice,
    sample_model,
    sampled_bell_values,
    saturating_entries,
    saturating_table,
)
from .inequality import (
    VALUE_TOL,
    bell_value,
    classical_bound,
    critical_visibility,
    find_critical_visibility,
    kernel_cap,
    predicted_quantum_value,
    separable_spectrum,
    simulated_spectrum,
    sweep_value,
    table_floor,
    truncated_spectra,
    truncated_spectrum,
)
from .network import NetworkConfig, over_budget, xy_setting_map
from .quantum import (
    joint_table_cap,
    rotated_scheme,
    scheme_setting_map,
    separable_table_cap,
    single_source_table,
    xy_scheme,
)
# The check reaches the table route through network_correlators; the name
# stays bound here, as in ``inequality``, since perfbench's tracer wraps that
# route at every name it is bound under.
from .quantum import network_table  # noqa: F401
from .swap import conditioning_from_json, default_conditioning
from .swap import joint_table_spectrum, swap_spectrum
from .version import __version__

# run.config echoes every branch count; bound takes 0.2 s at this cap.
MAX_SOURCES = 1 << 16

# sweep: values reach 2**(L/2), which overflows a float from L = 2048 on,
# so the branch cap leaves a wide margin.  One call evaluates every grid
# point at once, so the point count bounds its memory; rows are written in
# blocks, so at the cap tracemalloc peaks at 19 MB as CSV and 19 MB as JSON
# (sweep --L 10 --grid 512 --full, written to a file), mostly the
# evaluation.  region's grid**2 points obey the same cap (17 MB as CSV or
# JSON for a slice that keeps nearly all of them), as does the saturating
# grid, also evaluated in one call.
MAX_SWEEP_BRANCHES = 1000
MAX_SWEEP_POINTS = 1 << 18


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent and no inf or nan: "-1e-05"
        # or "-inf" would read as a flag, not reach the option's type check.
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _finite_float(text: str) -> float:
    """argparse type: a finite number (other input reads as for ``type=float``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _plain(obj):
    """Round floats to 12 significant digits and shed numpy types."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _write(args, chunks) -> None:
    """Write the strings of ``chunks`` in turn to ``--out`` or stdout; a
    failed write is a usage error."""
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:  # the exit's flush of what is left must not fail again
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        where = f"--out {args.out}" if args.out else "stdout"
        args.parser.error(f"cannot write {where}: {exc.strerror or exc}")


def _emit_report(args, report: dict) -> int:
    """Write the report; the exit status is 2 if any of its checks failed."""
    report = _plain(report)
    if (args.format or "json") == "json":
        _write(args, [json.dumps(report, indent=2) + "\n"])
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for key, value in report.items():
            if isinstance(value, (dict, list, bool)):
                cell = json.dumps(value)
            elif isinstance(value, float):
                cell = _fmt(value)
            else:
                cell = value
            writer.writerow([key, cell])
        _write(args, [buf.getvalue()])
    return 0 if all(report.get("checks", {}).values()) else 2


# Rows per format pass of _emit_rows: a block's text and values stay near
# 1 MB, and each block is written before the next is formatted.
_EMIT_BLOCK_ROWS = 1 << 12


def _row_blocks(rows: np.ndarray, template: str, sep: str = ""):
    """Per block of ``rows``: ``template`` once per row, joined by ``sep``,
    and the block's values flat, ready for one ``%`` pass."""
    for start in range(0, len(rows), _EMIT_BLOCK_ROWS):
        block = rows[start : start + _EMIT_BLOCK_ROWS]
        yield sep.join([template] * len(block)), tuple(block.ravel().tolist())


def _row_chunks(fmt: str, run: dict, columns, rows: np.ndarray, comments):
    """The artifact in pieces, one per block of rows.  ``%.12g`` is the C
    formatter of ``_fmt``, and ``%r`` the repr ``json`` writes for a finite float."""
    if fmt != "json":
        yield "".join(f"# {c}\n" for c in comments) + ",".join(columns) + "\n"
        for template, flat in _row_blocks(rows, ",".join(["%.12g"] * len(columns)) + "\n"):
            yield template % flat
        return
    head = json.dumps({"run": _plain(run), "columns": list(columns), "rows": []}, indent=2)
    if not len(rows):
        yield head + "\n"
        return
    # the rows in json.dumps(indent=2)'s layout, spliced into head's '"rows": []\n}'
    yield head[:-3] + "\n"
    row = "    [\n" + ",\n".join(["      %r"] * len(columns)) + "\n    ]"
    for i, (template, flat) in enumerate(_row_blocks(rows, row, ",\n")):
        if i:
            yield ",\n"
        rounded = map(float, (("%.12g " * len(flat)) % flat).split())  # as _plain rounds
        yield template % tuple(rounded)
    yield "\n  ]\n}\n"


def _emit_rows(args, run: dict, columns, rows: np.ndarray, comments=()) -> None:
    """Write the finite ``(N, len(columns))`` float array ``rows`` as CSV or JSON."""
    _write(args, _row_chunks(args.format or "csv", run, columns, rows, comments))


# Config-file keys and the JSON values each accepts (null means unset).
# JSON integers load as int; true/false load as bool, an int subclass.
_FILE_KEYS = {
    "n": ("an integer", lambda v: type(v) is int),
    "L": ("an integer", lambda v: type(v) is int),
    "branches": (
        "a list of integers",
        lambda v: isinstance(v, str) or isinstance(v, list) and all(type(b) is int for b in v),
    ),
    "scheme": ("'xy' or 'rotated'", lambda v: v in ("xy", "rotated")),
}


def _load_file_config(args, parser: _Parser) -> dict:
    if not args.config:
        return {}
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        parser.error("config file must hold a JSON object")
    for key, (want, ok) in _FILE_KEYS.items():
        if data.get(key) is not None and not ok(data[key]):
            parser.error(f"config file key {key!r} must be {want}, got {data[key]!r}")
    return data


def _resolve_config(args, file_cfg: dict, parser: _Parser) -> NetworkConfig:
    branches = args.branches
    if branches is None:
        branches = file_cfg.get("branches")
    if isinstance(branches, str):
        try:
            branches = [int(part) for part in branches.split(",") if part.strip()]
        except ValueError:
            parser.error("--branches must be comma-separated integers")
    n = args.n if args.n is not None else file_cfg.get("n")
    size = args.size if args.size is not None else file_cfg.get("L")
    count = len(branches) if branches else n
    if count is not None and count > MAX_SOURCES:
        parser.error(f"a network holds at most {MAX_SOURCES} sources, got {count}")
    if branches:
        if n is not None and n != len(branches):
            parser.error("--n contradicts the branch list length")
        return NetworkConfig(len(branches), tuple(branches))
    if size is None:
        parser.error("specify the network with --L (and --n) or --branches")
    return NetworkConfig.homogeneous(1 if n is None else n, size)


def _network(args, parser: _Parser):
    """The network that the flags and config file name; for commands that
    take ``--scheme``, also the scheme, once the exact kernel fits."""
    file_cfg = _load_file_config(args, parser)
    config = _resolve_config(args, file_cfg, parser)
    if "scheme" not in vars(args):
        return config, None
    if refusal := kernel_cap(config):
        parser.error(refusal)
    even = config.is_homogeneous()
    kind = args.scheme or file_cfg.get("scheme") or ("xy" if even else "rotated")
    if kind == "xy" and not even:
        parser.error("the xy scheme requires a homogeneous network")
    return config, xy_scheme(config) if kind == "xy" else rotated_scheme(config)


def _run_spec(command: str, config: NetworkConfig | None, seed=None, **extra) -> dict:
    run = {"command": command, "version": __version__}
    if config is not None:
        run["config"] = config.to_json()
    if seed is not None:
        run["seed"] = seed
    run.update(extra)
    return run


def _fits(report: dict, check: str, cap: str | None) -> bool:
    """Whether ``check`` runs; if a ``cap`` stops it, note that in ``report``."""
    if cap is not None:
        report.setdefault("skipped_checks", {})[check] = cap
    return cap is None


def cmd_violate(args, parser: _Parser) -> int:
    config, scheme = _network(args, parser)
    predicted = predicted_quantum_value(config, scheme.kind)
    bound = classical_bound(config)
    kernel = bell_value(separable_spectrum(scheme))
    report = {
        "run": _run_spec("violate", config, scheme=scheme.kind),
        "predicted_value": predicted,
        "classical_bound": bound,
        "violated": kernel > bound + VALUE_TOL,
        "kernel_value": kernel,
    }
    checks = {"kernel_matches_closed_form": abs(kernel - predicted) <= VALUE_TOL}
    if _fits(report, "simulation_matches_closed_form", separable_table_cap(config)):
        simulated = bell_value(simulated_spectrum(scheme))
        report["simulated_value"] = simulated
        checks["simulation_matches_closed_form"] = abs(simulated - predicted) <= VALUE_TOL
    report["checks"] = checks
    return _emit_report(args, report)


def cmd_sweep(args, parser: _Parser) -> int:
    file_cfg = _load_file_config(args, parser)
    size = args.size if args.size is not None else file_cfg.get("L")
    if size is None:
        parser.error("sweep needs --L")
    if not isinstance(size, int) or not 1 <= size <= MAX_SWEEP_BRANCHES:
        parser.error(f"--L must lie in 1..{MAX_SWEEP_BRANCHES} for sweep, got {size}")
    points = args.grid**2 if args.full else args.grid
    if points > MAX_SWEEP_POINTS:
        grid_flag = "--full --grid" if args.full else "--grid"
        parser.error(
            f"{grid_flag} {args.grid} gives {points} points, more than {MAX_SWEEP_POINTS}"
        )
    thetas = np.linspace(0.0, math.pi / 2, args.grid)
    if args.full:
        theta0, theta1 = np.repeat(thetas, args.grid), np.tile(thetas, args.grid)
    else:
        theta0, theta1 = thetas, math.pi / 2 - thetas
    values = sweep_value(theta0, theta1, size)
    rows = np.column_stack([theta0, theta1, values])

    checked = "skipped (branch count beyond the simulation budget)"
    check_line = f"simulation check: {checked}"
    if size <= 8:
        probes = sorted({0, len(rows) // 2, len(rows) - 1})
        ok = True
        for idx in probes:
            t0, t1, value = rows[idx]
            table = single_source_table(size, np.tile([t0, t1], (size, 1)))
            simulated = bell_value(truncated_spectrum(table, xy_setting_map(size)))
            ok = ok and abs(simulated - value) <= VALUE_TOL
        checked = "ok" if ok else "FAILED"
        check_line = f"simulation check at {len(probes)} probes: {checked}"
    run = _run_spec(
        "sweep",
        None,
        L=size,
        grid=args.grid,
        mode="full" if args.full else "diagonal",
        simulation_check=checked,
    )
    _emit_rows(
        args,
        run,
        ("theta0", "theta1", "value"),
        rows,
        comments=[
            f"sweep L={size} grid={args.grid} mode={'full' if args.full else 'diagonal'}",
            check_line,
        ],
    )
    return 2 if checked == "FAILED" else 0


def cmd_noise(args, parser: _Parser) -> int:
    config, scheme = _network(args, parser)
    predicted = predicted_quantum_value(config, scheme.kind)
    bound = classical_bound(config)
    report = {
        "run": _run_spec("noise", config, scheme=scheme.kind),
        "closed_form_visibility": critical_visibility(config),
    }
    # find_critical_visibility certifies the kernel's crossing on tables that fit
    certified = _fits(report, "bracket_certified", separable_table_cap(config))
    try:
        found, top = find_critical_visibility(scheme)
    except ArithmeticError as exc:
        # The simulated tables contradict the white-noise scaling law.
        report["error"] = str(exc)
        report["checks"] = {"bracket_certified": False}
        return _emit_report(args, report)
    checks = {"bracket_certified": True} if certified else {}
    if found is None:
        report["no_violation"] = True
    else:
        # Crossings compare in log2, where none underflows.  A violation
        # puts each n/2 or more from zero, and top carries a relative
        # rounding of about (n + 2**Lmax) eps, far inside VALUE_TOL.
        log2_found = config.n * math.log2(bound / top)
        log2_expected = config.n * math.log2(bound / predicted)
        close = functools.partial(math.isclose, rel_tol=VALUE_TOL)
        report["bisection_visibility"] = found
        report["log2_bisection_visibility"] = log2_found
        report["scheme_crossing"] = (bound / predicted) ** config.n
        report["scheme_attains_closed_form"] = close(log2_expected, -sum(config.branches) / 2)
        checks["bisection_matches_scheme_crossing"] = close(log2_found, log2_expected)
    if checks:
        report["checks"] = checks
    return _emit_report(args, report)


def cmd_classical(args, parser: _Parser) -> int:
    config, _ = _network(args, parser)
    bound = classical_bound(config)
    seed = 0 if args.seed is None else args.seed
    report = {
        "run": _run_spec("classical", config, args.seed, mode=args.mode),
        "classical_bound": bound,
    }
    checks = {}
    if args.mode == "saturating":
        if args.grid > MAX_SWEEP_POINTS:
            parser.error(f"--grid {args.grid} gives more than {MAX_SWEEP_POINTS} points")
        bits = math.log2(args.grid) + config.max_branch
        if refusal := over_budget("the saturating grid", bits):
            parser.error(refusal)
        grid = np.linspace(0.0, 1.0, args.grid)[:, None, None]
        values = np.abs(saturating_entries(grid, config))  # (grid, 2**L)
        values **= 1.0 / config.n
        best = float(values.sum(axis=1).max())
        report["grid"] = args.grid
        report["max_value"] = best
        checks["grid_maximum_saturates_bound"] = abs(best - 1.0) <= 1e-12
        if _fits(report, "table_route_saturates_bound", separable_table_cap(config)):
            table = saturating_table(0.375, config)
            via_table = bell_value(truncated_spectrum(table, xy_setting_map(config.max_branch)))
            checks["table_route_saturates_bound"] = abs(via_table - 1.0) <= 1e-12
    elif args.mode == "sample":
        # about 1.8 s per million trials at n=3, L=2, lattice 3 (2-core Xeon VM)
        if refusal := over_budget(f"--trials {args.trials}", math.log2(args.trials)):
            parser.error(refusal)
        last = MAX_SAMPLE_SEED + 1 - args.trials
        if not 0 <= seed <= last:
            parser.error(f"--seed must lie in 0..{last} for {args.trials} trials, got {seed}")
        report["run"]["stream"] = SAMPLE_STREAM
        seeds = range(seed, seed + args.trials)
        values, head = sampled_bell_values(seeds, config, args.lattice)
        report["trials"] = args.trials
        report["lattice"] = args.lattice
        report["max_value"] = float(values.max())
        checks["all_below_classical_bound"] = bool(values.max() <= bound + VALUE_TOL)
        if _fits(report, "batch_matches_table_route", separable_table_cap(config)):
            # The reported batch's first rows against the probes' own tables.
            models = [sample_model(probe, config, args.lattice) for probe in seeds[: len(head)]]
            spectra = truncated_spectra(model_tables(models), xy_setting_map(config.max_branch))
            worst = float(np.abs(spectra - head).max())
            checks["batch_matches_table_route"] = worst <= 1e-12
    else:  # enumerate
        best, strategy = deterministic_maximum(config)
        report["max_value"] = best
        report["strategy"] = {
            "responses": [list(pair) for pair in strategy["responses"]],
            "center": list(strategy["center"]),
        }
        checks["maximum_equals_bound_exactly"] = best == 1.0
    report["checks"] = checks
    return _emit_report(args, report)


def cmd_region(args, parser: _Parser) -> int:
    if args.grid**2 > MAX_SWEEP_POINTS:
        parser.error(
            f"--grid {args.grid} gives {args.grid**2} points, more than {MAX_SWEEP_POINTS}"
        )
    config, _ = _network(args, parser)
    names, rows = region_slice(config, args.fixed_value, args.grid, args.fixed_mask, args.tol)
    tol = args.tol if args.tol is not None else config.n / (args.grid - 1)
    run = _run_spec(
        "region",
        config,
        fixed_mask=args.fixed_mask,
        fixed_value=args.fixed_value,
        grid=args.grid,
        tol=tol,
    )
    _emit_rows(
        args,
        run,
        names,
        rows,
        comments=[
            f"region n={config.n} L={config.max_branch} fixed_mask={args.fixed_mask} "
            f"fixed_value={_fmt(args.fixed_value)} grid={args.grid} tol={_fmt(tol)}"
        ],
    )
    return 0


def cmd_swap(args, parser: _Parser) -> int:
    config, scheme = _network(args, parser)
    custom = args.conditioning is not None
    try:
        if custom:
            with open(args.conditioning, encoding="utf-8") as fh:
                conditioning = conditioning_from_json(fh.read(), config)
        else:
            conditioning = default_conditioning(config, scheme_setting_map(scheme))
    except OSError as exc:
        parser.error(str(exc))
    spectrum = swap_spectrum(config, scheme.branch_angles, conditioning)
    swap_bell = bell_value(spectrum)
    separable_bell = bell_value(separable_spectrum(scheme))
    report = {
        "run": _run_spec(
            "swap", config, scheme=scheme.kind, conditioning="custom" if custom else "default"
        ),
        "swap_value": swap_bell,
        "separable_value": separable_bell,
        "classical_bound": classical_bound(config),
    }
    checks = {}
    if not custom:
        checks["swap_matches_separable"] = abs(swap_bell - separable_bell) <= VALUE_TOL
    if _fits(report, "separable_matches_table", separable_table_cap(config)):
        simulated = bell_value(simulated_spectrum(scheme))
        checks["separable_matches_table"] = abs(simulated - separable_bell) <= VALUE_TOL
    if _fits(report, "kernel_matches_joint_table", joint_table_cap(config)):
        dense = joint_table_spectrum(config, scheme.branch_angles, conditioning).entries
        worst = np.abs(spectrum.entries - dense).max()
        checks["kernel_matches_joint_table"] = worst <= table_floor(config)
    if checks:
        report["checks"] = checks
    return _emit_report(args, report)


def cmd_bound(args, parser: _Parser) -> int:
    config, _ = _network(args, parser)
    report = {
        "run": _run_spec("bound", config),
        "classical_bound": classical_bound(config),
        "critical_visibility": critical_visibility(config),
        "predicted_rotated": predicted_quantum_value(config, "rotated"),
    }
    if config.is_homogeneous():
        report["predicted_xy"] = predicted_quantum_value(config, "xy")
    return _emit_report(args, report)


@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: parse_args fills a fresh namespace each call,
    # so no option carries over from one command to the next.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with n / branches / L / scheme defaults")
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), help="output format")
    common.add_argument("--L", dest="size", type=int, help="branch observers per source")
    network = argparse.ArgumentParser(add_help=False, parents=[common])
    network.add_argument("--n", type=int, help="source count")
    network.add_argument("--branches", help="comma-separated per-source branch counts")

    parser = _Parser(prog="bellnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bellnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("violate", parents=[network], help="Bell value vs classical bound")
    p.add_argument("--scheme", choices=("xy", "rotated"))
    p.set_defaults(func=cmd_violate, parser=p)

    p = sub.add_parser("sweep", parents=[common], help="Bell value over measurement angles")
    p.add_argument(
        "--grid", type=_int_at_least(2), default=101, help="points per angle axis"
    )
    p.add_argument("--full", action="store_true", help="full theta0 x theta1 grid")
    p.set_defaults(func=cmd_sweep, parser=p)

    p = sub.add_parser("noise", parents=[network], help="critical visibility")
    p.add_argument("--scheme", choices=("xy", "rotated"))
    p.set_defaults(func=cmd_noise, parser=p)

    p = sub.add_parser("classical", parents=[network], help="classical-model experiments")
    p.add_argument(
        "--mode", choices=("saturating", "sample", "enumerate"), default="saturating"
    )
    p.add_argument("--trials", type=_int_at_least(1), default=1000, help="sampled models")
    p.add_argument("--lattice", type=int, default=2, help="hidden values per source")
    p.add_argument("--seed", type=int, help="first seed of the sampled models")
    p.add_argument(
        "--grid", type=_int_at_least(1), default=101, help="saturating p-grid points"
    )
    p.set_defaults(func=cmd_classical, parser=p)

    p = sub.add_parser("region", parents=[network], help="classical-region slice CSV")
    p.add_argument("--fixed-value", type=_finite_float, required=True)
    p.add_argument("--fixed-mask", type=int, default=3, help="subset mask held fixed")
    p.add_argument("--grid", type=_int_at_least(2), default=101)
    p.add_argument(
        "--tol", type=_positive_float, help="slice thickness (default: grid pitch)"
    )
    p.set_defaults(func=cmd_region, parser=p)

    p = sub.add_parser("swap", parents=[network], help="entangled center measurement")
    p.add_argument("--scheme", choices=("xy", "rotated"))
    p.add_argument("--conditioning", help="JSON file mapping subsets to outcome bits")
    p.set_defaults(func=cmd_swap, parser=p)

    p = sub.add_parser("bound", parents=[network], help="closed-form bounds only")
    p.set_defaults(func=cmd_bound, parser=p)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args, args.parser)
    except ValueError as exc:
        args.parser.error(str(exc))
    except OverflowError:
        args.parser.error("a value of this network is too large for a float")


if __name__ == "__main__":
    sys.exit(main())
