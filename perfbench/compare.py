"""Compare two benchmark result sets, or summarize one.

    python3 perfbench/compare.py parent.jsonl change.jsonl
    python3 perfbench/compare.py results.jsonl

Result sets are the JSON-lines files ``collect.py`` writes.  For every
workload and every end-to-end metric of ``BENCHMARK.json`` it prints each
side's median and quartiles (``statistics.quantiles(values, n=4)``) and
the spread, the quartile distance as a share of the median.  With two
sets it pairs runs by seed and gives a verdict:

* better: at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither side), and the medians differ by more than the
  parent's quartile distance;
* worse: the change's median is worse than the parent's by more than the
  metric's bound, and either both spreads are within the bound or every
  run of the change is worse than every run of the parent;
* unresolved: a spread is wider than the bound and the runs do not
  separate completely, so no-regression cannot be shown;
* unchanged: none of the above; within the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> metric values."""
    runs: dict[str, dict[int, dict]] = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            metrics = record["result"]["metrics"]
            runs[record["workload"]][record["seed"]] = {
                k: v["value"] for k, v in metrics.items()
            }
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, better: str, bound: float) -> str:
    """Verdict of ``change`` against ``parent``; both are seed-paired lists."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (b - a) < 0 for a, b in pairs)
    q1a, med_a, q3a = summary(parent)
    med_b = summary(change)[1]
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    wide = max(spread(parent), spread(change)) > bound
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3a - q1a:
        return "better"
    if sign > 0:
        separated_worse = min(change) > max(parent)
    else:
        separated_worse = max(change) < min(parent)
    if worse_by > bound:
        return "worse" if not wide or separated_worse else "unresolved"
    return "unresolved" if wide else "unchanged"


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    sets = [load(p) for p in paths]
    for workload in sorted(set().union(*sets)):
        seeds = sorted(set.intersection(*(set(s.get(workload, {})) for s in sets)))
        print(f"{workload}: {len(seeds)} paired runs" if len(sets) == 2 else
              f"{workload}: {len(seeds)} runs")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols = []
            sides = []
            for runs in sets:
                values = [runs[workload][s][name] for s in seeds]
                sides.append(values)
                q1, med, q3 = summary(values)
                cols.append(f"{med:12.6g} [{q1:.6g}, {q3:.6g}] spread {spread(values):6.2%}")
            line = f"  {name:15s} {metric['unit']:6s} " + " | ".join(cols)
            if len(sets) == 2:
                line += f"  -> {verdict(sides[0], sides[1], metric['better'], bound)}"
            else:
                line += f"  bound {bound:.0%}"
            print(line)
        if len(sets) == 2 and len(seeds) < 10:
            print("  (fewer than 10 pairs: no gain can be claimed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
