"""The repo's benchmark: one bug from analysis to report, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload predeploy|triage|fleet|all \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same seed untraced and then traced, and reports every layer's
metrics, self times, the time no wrapper covers and the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import (OUT_DIR, BenchError, machine_info,  # noqa: E402
                              require_sources, write_json)

WORKLOADS = ("predeploy", "triage", "fleet")

#: Unit of every end-to-end metric (BENCHMARK.json lists the same).  The
#: CPU-bound workloads scale their timings to the reference host speed
#: (perfbench/calibrate.py); every raw timing is printed above the JSON.
UNITS = {"setup_s": "s", "op_gmean": "ms", "throughput": "1/s",
         "stage2_gmean": "ms", "record_overhead_pct": "%", "peak_rss_mb": "MB"}


def _module(workload: str):
    if workload == "predeploy":
        from perfbench import predeploy as module
    elif workload == "triage":
        from perfbench import triage as module
    else:
        from perfbench import fleet as module
    return module


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    module = _module(workload)
    if not trace:
        return module.run(seed, seconds), None
    from perfbench import tracing

    plain = module.run(seed, seconds)
    traced = tracing.traced_run(module, workload, seed, seconds, plain)
    return plain, traced


def _print_human(workload: str, result, traced) -> None:
    print(f"== {workload}: {result['loop']}")
    print(f"   attempted={result['attempted']} failed={result['failed']} "
          f"failed_share={result['failed'] / max(1, result['attempted']):.3f} "
          f"time_capped={result['time_capped']} correct={result['correct']}")
    for reason, count in sorted(result["failures"].items()):
        print(f"   failure {reason}: {count}")
    for name, value, unit, note in result["named"]:
        print(f"   {name:24s} {value:14.4f} {unit:6s} {note}")
    for key, value in sorted(result["counters"].items()):
        print(f"   counter {key} = {value}")
    for line in result.get("notes", []):
        print(f"   note: {line}")
    if traced is not None:
        for line in traced["lines"]:
            print(f"   {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_sources()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    machine = machine_info()
    print(f"machine: nproc={machine['nproc']} python={machine['python']} "
          f"cpu={machine['cpu']}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in names:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace))
            _print_human(workload, *results[workload])
            write_json(os.path.join(
                OUT_DIR, f"{workload}-seed{args.seed}-trace{args.trace}.json"),
                {"machine": machine, "untraced": results[workload][0],
                 "traced": results[workload][1]})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for entry in os.listdir(OUT_DIR) if os.path.isdir(OUT_DIR) else ():
            if entry.startswith("work-") and entry.endswith(f"-{os.getpid()}"):
                shutil.rmtree(os.path.join(OUT_DIR, entry), ignore_errors=True)

    plain = [results[w][0] for w in names]
    metrics = {}
    for workload in names:
        if args.trace:
            found = results[workload][1]["metrics"]
        else:
            found = {name: {"value": value, "unit": UNITS[name]}
                     for name, value in results[workload][0]["metrics"].items()}
        # One workload: the metric names as BENCHMARK.json lists them.
        prefix = f"{workload}." if len(names) > 1 else ""
        metrics.update({prefix + name: value for name, value in found.items()})
    print(json.dumps({
        "correct": all(result["correct"] for result in plain),
        "attempted": sum(result["attempted"] for result in plain),
        "failed": sum(result["failed"] for result in plain),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
