"""Run the benchmark of two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE WORKLOAD [--pairs 10] [--seconds 20] [--seed 102]

PARENT and CHANGE are checkouts of this repository. Each pair runs
``benchmarks/run.py --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0``
once in each checkout, the parent first in even pairs and the change
first in odd ones, and reads the last line of each run's output, a JSON
object. Every run is printed. Then, for each end-to-end metric of the
change's ``BENCHMARK.json``, one line gives both medians, the parent's
interquartile range, the pairs the change wins (ties count for neither)
and a verdict:

- ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound, a fraction of the parent's median;
- ``unresolved``: otherwise, when the wider of the two sides'
  interquartile ranges, over the parent's median, exceeds the bound and
  not every run of the change reads better than every run of the parent;
- ``ok``: neither.

The exit code is 1 when a run reports ``correct`` false or prints no JSON
line, else 0. Nothing but ``benchmarks/`` and ``BENCHMARK.json`` of the
checkouts is read.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """The last-line JSON object of one untraced run, or ``{"correct": False}``."""
    cmd = [sys.executable, str(checkout / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True).stdout.splitlines()
    try:
        return json.loads(out[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False}


def iqr(values: list[float]) -> float:
    """The distance between the first and third quartiles (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(name: str, better: str, bound: float, parent: list[float], change: list[float]) -> str:
    """One report line for a metric: medians, parent IQR, wins and the verdict."""
    sign = 1.0 if better == "higher" else -1.0  # sign * value grows as the metric improves
    mp, mc = statistics.median(parent), statistics.median(change)
    # how much worse the change's median is, as a fraction of the parent's;
    # from a parent median of 0: +inf when worse, -inf when better, 0 when equal
    if mp:
        worse = sign * (mp - mc) / abs(mp)
    else:
        worse = math.copysign(math.inf, sign * (mp - mc)) if mc != mp else 0.0
    spread = max(iqr(parent), iqr(change)) / abs(mp) if mp else 0.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if worse > bound:
        verdict = "regressed"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return (f"{name:18s} parent {mp:12.6g}  change {mc:12.6g}  parent IQR {iqr(parent):10.4g}  "
            f"wins {wins}/{len(parent)}  worse {worse:+.3f} (bound {bound})  {verdict}")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=102)
    args = ap.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args.workload, args.seconds, args.seed)
            runs[side].append(result)
            values = {k: v["value"] for k, v in result.get("metrics", {}).items()}
            print(f"pair {pair} {side:6s} correct={result['correct']} {json.dumps(values)}",
                  flush=True)
    correct = all(r["correct"] for side in runs.values() for r in side)
    if correct:
        for m in metrics:
            parent, change = ([r["metrics"][m["name"]]["value"] for r in runs[side]]
                              for side in ("parent", "change"))
            print(compare(m["name"], m["better"], m["bound"], parent, change))
    else:
        print("a run reported correct false or printed no JSON line: no comparison")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
