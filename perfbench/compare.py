"""Compare two sets of benchmark results, as saved by `run.py --save`.

usage: python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

For each workload it prints how many units failed on each side, then, per
end-to-end metric, each side's median and quartiles, how many pairs the
change won (runs paired by seed, in order; ties count for neither side) and
a verdict, with the metric's bound taken from BENCHMARK.json:

  failed                 the change failed more units of the workload than
                         the parent; its timings do not count
  unresolved             fewer than ten seed-matched pairs, or the parent's
                         spread is wider than the bound
  improved               the change won at least nine tenths of the pairs and
                         the medians differ by more than the parent's
                         quartile distance
  no worse within bound  the change's median is not worse than the parent's
                         by more than the bound, and the parent's spread is
                         within the bound (or every change run beats every
                         parent run)
  worse                  the change's median is worse by more than the bound
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def load(path: str) -> dict[str, list[dict]]:
    """Untraced runs by workload, in file order: seed, metric values, and the
    run's attempted and failed unit counts."""
    runs: dict[str, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            result = record["result"]
            runs[record["workload"]].append({
                "seed": record["seed"],
                "values": {k: v["value"] for k, v in result["metrics"].items()},
                "attempted": result["attempted"], "failed": result["failed"],
            })
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: list[dict], change: list[dict], metric: str) -> list[tuple[float, float]]:
    """The k-th parent run of a seed against the k-th change run of that seed."""
    by_seed: dict[int, list[float]] = defaultdict(list)
    for run in change:
        if metric in run["values"]:
            by_seed[run["seed"]].append(run["values"][metric])
    out = []
    for run in parent:
        if metric in run["values"] and by_seed[run["seed"]]:
            out.append((run["values"][metric], by_seed[run["seed"]].pop(0)))
    return out


def verdict(p: list[float], c: list[float], matched: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> tuple[str, int]:
    sign = 1 if lower_is_better else -1
    wins = sum(1 for a, b in matched if sign * (a - b) > 0)
    if len(matched) < MIN_PAIRS:
        return "unresolved", wins
    p1, pm, p3 = quartiles(p)
    cm = statistics.median(c)
    gain = sign * (pm - cm)
    if wins >= 0.9 * len(matched) and gain > p3 - p1:
        return "improved", wins
    everywhere_better = all(sign * (a - b) > 0 for a in p for b in c)
    if (p3 - p1) > bound * abs(pm) and not everywhere_better:
        return "unresolved", wins
    if -gain > bound * abs(pm):
        return "worse", wins
    return "no worse within bound", wins


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]],
            spec: dict) -> list[str]:
    """The report's lines, one block per workload both sides ran."""
    lines = [f"{'workload':14s} {'metric':12s} {'parent median [q1, q3]':34s} "
             f"{'change median [q1, q3]':34s} {'won':>7s}  verdict"]
    for workload in sorted(set(parent) & set(change)):
        failed = [sum(r["failed"] for r in side[workload]) for side in (parent, change)]
        attempted = [sum(r["attempted"] for r in side[workload]) for side in (parent, change)]
        lines.append(f"{workload:14s} failed units: parent {failed[0]} of {attempted[0]}, "
                     f"change {failed[1]} of {attempted[1]}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["values"][name] for r in parent[workload] if name in r["values"]]
            c = [r["values"][name] for r in change[workload] if name in r["values"]]
            if not p or not c:
                continue
            matched = pairs(parent[workload], change[workload], name)
            result, wins = verdict(p, c, matched, metric["bound"],
                                   metric["better"] == "lower")
            if failed[1] > failed[0]:
                result = "failed"
            sides = []
            for values in (p, c):
                q1, med, q3 = quartiles(values)
                sides.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {metric['unit']}")
            won = f"{wins}/{len(matched)}"
            lines.append(f"{workload:14s} {name:12s} {sides[0]:34s} {sides[1]:34s} "
                         f"{won:>7s}  {result}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    print("\n".join(compare(load(argv[0]), load(argv[1]), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
