"""Run one workload unit in this fresh process and print one JSON line.

usage: worker.py WORKLOAD SEED MODE TRACE REFERENCES

MODE is `setup` (import sepcomplex and build the inputs only) or `unit`
(also run the work and check it against REFERENCES). Set-up imports every
sepcomplex module, `cli` and `verify` included, so that no import is charged
to the timed work. With TRACE 1 the wrappers of tracing.py are installed
after the import, the per-layer metrics are reported, and the recorded spans
are written to SPANS_DIR/<workload>.spans at the end.
"""
from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

SPANS_DIR = Path(__file__).resolve().parent / "out"


def main(argv: list[str]) -> int:
    name, seed, mode, trace, references = argv
    workload = WORKLOADS[name]
    traced = trace == "1"

    start = time.perf_counter()
    importlib.import_module("sepcomplex.cli")  # imports every sepcomplex module
    tracer = tracing.Tracer() if traced else None
    patches = tracing.Patches(tracer) if traced else None
    inputs = workload.setup(int(seed))
    result: dict = {"setup_s": time.perf_counter() - start}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    output = workload.run(inputs)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    result.update(wall_s=wall, cpu_s=cpu,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if traced:
        patches.restore()
        tracing.snf_probe(tracer)
        tracer.counts["trace.wall_s"] = wall
        result["layers"] = tracer.metrics()
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"{name}.spans"
        tracer.write_spans(spans)
        result["spans"] = os.path.relpath(spans)

    with open(references, encoding="utf-8") as fh:
        ref = json.load(fh)[name]
    problems, info = workload.check(inputs, output, ref)
    result.update(problems=problems, info=info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
