"""Benchmark of sepcomplex: three paper workloads, timed end to end and, in a
separate traced run, per module.

usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seconds S]

Every unit of work runs in a fresh worker process, one at a time, so that
peak RSS belongs to that unit alone and nothing memoised carries over. Units
repeat while another one is expected to finish within --seconds (at least
one runs). Untraced runs also start set-up-only workers, half before the
units and half after, so that set-up time is a median over many samples
spread across the run. A traced unit writes its spans to
perfbench/out/<workload>.spans. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` (units) and the `metrics` (end-to-end
untraced, per-layer traced). `--workload all` runs every workload untraced and
then traced, and prints the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
SETUP_PROBES = 20  # half before the units, half after
RUN_LIMIT_S = 170.0  # a run must end well within three minutes

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _spawn(args: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run worker.py with args; its parsed JSON line, or None and the reason."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, f"no result line: {proc.stdout.strip()[-500:]}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run units of one workload for about `seconds`; the summary of the run."""
    begin = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - begin)

    setup_samples: list[float] = []

    def probe_setup(count: int) -> None:
        for _ in range(0 if trace else count):
            probe, _ = _spawn([name, str(seed), "setup", "0", str(REFERENCES)], remaining())
            if probe is not None:
                setup_samples.append(probe["setup_s"])

    probe_setup(1)  # warms the bytecode cache; not counted
    setup_samples.clear()
    probe_setup(SETUP_PROBES // 2)

    units: list[dict] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        args = [name, str(seed), "unit", "1" if trace else "0", str(REFERENCES)]
        result, error = _spawn(args, remaining())
        if result is None:
            result = {"problems": [error]}
        units.append(result)
        took = time.perf_counter() - t
        elapsed = time.perf_counter() - start
        if elapsed + took > seconds or remaining() < 2 * took:
            break

    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)

    failed = sum(1 for u in units if u["problems"])
    timed = [u for u in units if "wall_s" in u]
    metrics: dict[str, dict] = {}
    if trace:
        for metric, unit, _ in LAYER_METRICS:
            values = [u["layers"][metric] for u in timed]
            if values:
                metrics[metric] = {"value": statistics.median(values), "unit": unit}
    else:
        setup_samples += [u["setup_s"] for u in timed]
        for metric, unit in END_TO_END:
            values = setup_samples if metric == "setup_s" else [u[metric] for u in timed]
            if values:
                metrics[metric] = {"value": statistics.median(values), "unit": unit}
    return {
        "workload": name, "seed": seed, "trace": int(trace), "units": units,
        "setup_samples": setup_samples,
        "result": {"correct": failed == 0 and bool(timed), "attempted": len(units),
                   "failed": failed, "metrics": metrics},
    }


def describe(run: dict) -> list[str]:
    """Human-readable lines: each metric with its unit and sample count."""
    result, units = run["result"], run["units"]
    samples = sum(1 for u in units if "wall_s" in u)
    lines = [f"# {run['workload']}  seed {run['seed']}  "
             f"{'traced' if run['trace'] else 'untraced'}  units {len(units)}"]
    for metric, entry in result["metrics"].items():
        n = len(run["setup_samples"]) if metric == "setup_s" else samples
        value = entry["value"]
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        lines.append(f"{metric:48s} {shown} {entry['unit']:6s} median of {n}")
    if run["trace"]:
        lines.append("(homology.smith_normal_form.dim<d>.s is a probe: smith_normal_form "
                     "re-run on each matrix boundary_matrices returned)")
        written = [u["spans"] for u in units if "spans" in u]
        if written:
            lines.append(f"spans of the last unit written to {written[-1]}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"{'fail_rate':48s} {failed / attempted:>14.6g} {'ratio':6s} "
                 f"{failed} of {attempted} units")
    for u in units:
        for problem in u["problems"]:
            lines.append(f"FAILED: {problem}")
        if "sha256" in u.get("info", {}):
            verdict = "matches" if u["info"]["sha256_matches"] else "differs from"
            lines.append(f"report sha256 {u['info']['sha256']} ({verdict} the reference)")
    return lines


def _save(path: str, run: dict) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(run) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append each run's record to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sepcomplex" / "__init__.py").is_file():
        print(f"error: no sepcomplex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        if args.save:
            _save(args.save, run)
        print("\n".join(describe(run)))
        print(json.dumps(run["result"]))
        return 0 if run["result"]["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        runs = [run_workload(name, args.seed, args.seconds, trace)
                for trace in (False, True)]
        for run in runs:
            if args.save:
                _save(args.save, run)
            print("\n".join(describe(run)))
            result = run["result"]
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
        untraced, traced = (r["result"]["metrics"] for r in runs)
        if "wall_s" in untraced and "trace.wall_s" in traced:
            overhead = traced["trace.wall_s"]["value"] - untraced["wall_s"]["value"]
            combined["metrics"][f"{name}.trace.overhead_s"] = {"value": overhead, "unit": "s"}
            print(f"tracing overhead {name}: {overhead:.3f} s "
                  f"(traced wall_s minus untraced wall_s)")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
