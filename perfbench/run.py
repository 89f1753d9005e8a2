"""bellnet benchmark: closed-loop CLI workloads with independent output checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-separable --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client calls ``bellnet.cli.main(argv)`` in this process and sends
each command only after the previous one returns.  A round is one pass
over the workload's commands, in an order drawn from the seed and the
round number; rounds repeat until ``--seconds`` is spent (at least two).
Between the rounds of an untraced run, fresh interpreters time the cold
import for ``setup_s``.  The first output of each argv is checked by ``checks.check``, and every
later run of the same argv must print the same bytes.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` untraced and traced rounds alternate and it holds the
per-layer metrics, and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
OUT = Path(__file__).resolve().parent / "out"

# One BLAS thread: the client is single-threaded, and on a shared 2-core
# box a second OpenBLAS thread made the one-source L=7 command slower
# and less steady.  Must be set before numpy is imported.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The shared VMs this benchmark runs on change speed by up to 1.5x within
# a second, and every command slows alike (a pure-Python loop too).  A
# short fixed reference loop, which no bellnet change can affect, therefore
# runs before each command and after the last, and each command's latency
# is scaled to the speed at which that loop takes REF_NOMINAL_S:
# reported = measured * REF_NOMINAL_S / mean of the two loops around it.
# On sample-classical this cut the spread of round walls within a run from
# 11% to 5%; one 25 ms loop on each side of a whole round left 8.5%.  The
# measured values and the speed factors are printed too.
REF_NOMINAL_S = 0.0048  # about the loop's time on the 2.1 GHz 2-core VM it was tuned on

MIN_ROUNDS = 2
# Set-up samples per untraced run, taken between rounds so that they span
# the run's host phases instead of one moment of it.
SETUP_SAMPLES = 15
SETUP_CODE = """
import time
start = time.perf_counter()
import bellnet.cli
try:
    bellnet.cli.main(["--version"])
except SystemExit:
    pass
print(time.perf_counter() - start)
"""

# Cheap commands run once, untimed and untraced, so lazy imports and
# first-call set-up inside numpy finish before any round is timed.
WARMUP = (
    "violate --n 1 --L 2",
    "noise --n 1 --L 1 --scheme rotated",
    "sweep --L 2 --grid 5",
    "classical --n 2 --L 1 --mode sample --trials 10",
    "classical --n 1 --L 1 --mode saturating --grid 5",
    "classical --L 1 --mode enumerate",
    "region --n 1 --L 2 --fixed-value 0.1 --grid 11",
    "swap --n 2 --L 1",
)

def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "clients": 1,
        "loop": "closed",
    }


def reference_time() -> float:
    """Seconds for a fixed pure-Python and numpy loop (about 5 ms)."""
    import numpy as np

    start = perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    a = np.arange(20000.0)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0)
    return perf_counter() - start


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def setup_sample() -> tuple[float, float]:
    """One cold ``import bellnet.cli`` plus parser build in a fresh interpreter.

    Returns the measured seconds and the speed factor of the reference
    loops run just before and after it.
    """
    before = reference_time()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    speed = 2 * REF_NOMINAL_S / (before + reference_time())
    return float(proc.stdout.split()[-1]), speed


def call(cli, argv):
    """Run one command in process: (exit code, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback escaping main is a failed command
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_round(cli, argvs, tracer=None, round_no=0):
    """One closed-loop pass: (latencies, speed factors, (code, out, err) list).

    The reference loop runs before each command and after the last; a
    command's speed factor comes from the two loops around it.
    """
    latencies, refs, results = [], [reference_time()], []
    for index, argv in enumerate(argvs):
        if tracer is not None:
            tracer.command = (round_no, index)
        t0 = perf_counter()
        results.append(call(cli, argv))
        latencies.append(perf_counter() - t0)
        refs.append(reference_time())
    speeds = [2 * REF_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    return latencies, speeds, results


class Verifier:
    """First run of an argv: independent check; every later run: same bytes."""

    def __init__(self, check):
        self.check = check
        self.reference: dict[tuple, str] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def judge(self, commands, results) -> None:
        for command, (code, out, err) in zip(commands, results):
            self.attempted += 1
            key = tuple(command.argv())
            if code != 0:
                reason = f"exit {code}: {err.strip()[-300:]}"
            elif key not in self.reference:
                reason = self.check(command, out)
                self.reference[key] = out if reason is None else ""
            elif out != self.reference[key]:
                reason = "stdout differs from the first run"
            else:
                reason = None
            if reason is not None:
                self.failures.append(f"{' '.join(key)}: {reason}")


@dataclass
class Round:
    number: int
    commands: list
    latencies: list[float]  # measured seconds, in command order
    speeds: list[float]  # REF_NOMINAL_S / reference loop time around each command
    out_bytes: int

    @property
    def scaled(self) -> list[float]:
        """Host-speed normalized latencies."""
        return [t * speed for t, speed in zip(self.latencies, self.speeds)]

    @property
    def wall(self) -> float:
        """Host-speed normalized time to run the round's commands one after another."""
        return sum(self.scaled)

    @property
    def speed(self) -> float:
        """The round's speed factor, each command weighted by its latency."""
        return self.wall / sum(self.latencies)


def tail_percentile(commands_per_round: int) -> float:
    """Percentile of a round's m-th slowest command, m = 1 + 10 / MIN_ROUNDS.

    Its m - 1 slower commands per round leave ten beyond it in a run of
    MIN_ROUNDS rounds.  The percentile points at the middle of that
    command's copies in the pooled latencies, not at the edge between two
    commands, so it stays on one command however many rounds a run
    completes.
    """
    rank = 1 + math.ceil(10 / MIN_ROUNDS)
    return int(1000 * (1 - (rank - 0.5) / commands_per_round)) / 10


def run_workload(name, seed, seconds, trace) -> tuple[dict, list[str]]:
    import numpy as np

    import bellnet.cli as cli
    from checks import check
    from tracer import Tracer
    from workloads import generate

    for line in WARMUP:
        call(cli, line.split())

    verifier = Verifier(check)
    tracer = Tracer() if trace else None
    plain, traced = [], []  # Round per round, split by tracing
    setup = []  # (measured seconds, speed factor) per set-up sample
    start = perf_counter()
    deadline = start + seconds
    while True:
        round_no = len(plain) + len(traced)
        use_trace = trace and round_no % 2 == 1
        commands = generate(name, seed, round_no)
        t0 = perf_counter()
        with tracer if use_trace else contextlib.nullcontext():
            latencies, speeds, results = run_round(
                cli, [c.argv() for c in commands], tracer if use_trace else None, round_no
            )
        verifier.judge(commands, results)
        out_bytes = sum(len(out.encode()) for _, out, _ in results)
        done = Round(round_no, commands, latencies, speeds, out_bytes)
        (traced if use_trace else plain).append(done)
        spent = perf_counter() - t0
        while not trace and len(setup) < SETUP_SAMPLES * min(1.0, (perf_counter() - start) / seconds):
            setup.append(setup_sample())
        if round_no + 1 >= MIN_ROUNDS and perf_counter() + spent > deadline:
            break

    failed = len(verifier.failures)
    speeds = [speed for r in plain + traced for speed in r.speeds]
    lines = [
        f"workload {name} seed {seed}: {len(plain)} untraced + {len(traced)} traced rounds"
        f" of {len(commands)} commands in {perf_counter() - start:.1f} s",
        f"host speed factor {statistics.median(speeds):.3f}"
        f" (min {min(speeds):.3f}, max {max(speeds):.3f}); measured round wall"
        f" {statistics.median(sum(r.latencies) for r in plain):.4f} s",
    ]
    lines += [f"FAILED {f}" for f in verifier.failures[:20]]

    walls = [r.wall for r in plain]
    if not trace:
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
        pooled = np.array([t for r in plain for t in r.scaled])
        pct = tail_percentile(len(commands))
        values = {
            "setup_s": statistics.median(t * speed for t, speed in setup),
            "wall_s": statistics.median(walls),
            "cmd_p50_ms": 1000 * float(np.percentile(pooled, 50)),
            "cmd_tail_ms": 1000 * float(np.percentile(pooled, pct)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "verified_ratio": (verifier.attempted - failed) / verifier.attempted,
        }
        samples = {
            "setup_s": len(setup), "wall_s": len(walls), "cmd_p50_ms": pooled.size,
            "cmd_tail_ms": pooled.size, "peak_rss_mb": 1, "verified_ratio": verifier.attempted,
        }
        lines.append(f"cmd_tail_ms is p{pct} of {pooled.size} command latencies")
        lines.append(
            f"measured setup {statistics.median(t for t, _ in setup):.4f} s, speed factors"
            f" {min(speed for _, speed in setup):.3f} to {max(speed for _, speed in setup):.3f}"
        )
        units, exact_ok = metric_units("end_to_end"), True
    else:
        units = metric_units("per_layer")
        # Counts that depend only on the workload's sizes, never on the seed
        # or the clock; they must repeat exactly in every traced round.
        exact = [k for k, unit in units.items() if unit == "count"] + ["quantum.table_bytes_max"]
        per_round = tracer.round_metrics()
        rounds = []
        for r in traced:
            metrics = per_round.get(r.number, {})
            rounds.append({
                k: v * r.speed if k.endswith("self_s") else v for k, v in metrics.items()
            })
        values = {k: statistics.median(r.get(k, 0.0) for r in rounds) for k in units}
        exact_ok = all(
            r.get(k, 0) == rounds[0].get(k, 0) for r in rounds for k in exact
        )
        sampled = [
            (c.trials, t)
            for r in plain
            for c, t in zip(r.commands, r.scaled)
            if c.mode == "sample"
        ]
        busy = sum(t for _, t in sampled)
        values["classical.models_per_s"] = sum(n for n, _ in sampled) / busy if busy else 0.0
        values["cli.out_bytes"] = statistics.median(r.out_bytes for r in traced)
        values["trace.overhead_s"] = (
            statistics.median(r.wall for r in traced) - statistics.median(walls)
        )
        samples = {k: len(traced) for k in units}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{name}.jsonl")
        if not exact_ok:
            lines.append("FAILED exact counts differ between traced rounds")

    for key, unit in units.items():
        lines.append(f"  {key:45s} {values[key]:>16.6g} {unit:6s} n={samples[key]}")
    result = {
        "correct": failed == 0 and exact_ok,
        "attempted": verifier.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return result, lines


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    from workloads import WORKLOADS

    summary, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bellnet" / "cli.py").is_file():
        print(f"perfbench: no bellnet sources at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import bellnet

    if not Path(bellnet.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported bellnet from {bellnet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
