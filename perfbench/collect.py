"""Run the benchmark over several seeds and save each result as one JSON line.

    python3 perfbench/collect.py --seeds 1-10 results.jsonl=.
    python3 perfbench/collect.py --seeds 1-10 parent.jsonl=../parent change.jsonl=.

Each ``FILE=CHECKOUT`` pair runs the command of ``BENCHMARK.json`` in
CHECKOUT, untraced, for every workload of ``BENCHMARK.json`` and for the
``run_seconds`` it sets, and appends to FILE.  With two checkouts the
pairs alternate which side runs first, seed by seed, as the pairing rule
of ``compare.py`` expects.  Copy the same ``perfbench/`` and
``BENCHMARK.json`` into both checkouts so that both sides run identical
benchmark code.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, checkout: Path, workload: str, seed: int) -> dict:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(argv)} failed:\n{proc.stderr}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    return {"workload": workload, "seed": seed, "env": env, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("sides", nargs="+", metavar="FILE=CHECKOUT")
    args = parser.parse_args(argv)
    sides = [(Path(f), Path(c)) for f, _, c in (s.partition("=") for s in args.sides)]
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))

    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            order = sides if seed % 2 else sides[::-1]
            for out, checkout in order:
                record = run_once(spec, checkout, workload, seed)
                with open(out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                metrics = record["result"]["metrics"]
                brief = " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items())
                print(f"{out} {workload} seed {seed}: {brief}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
