"""Backend shoot-out: bytecode VM vs tree-walking interpreter.

Raw instructions/sec (steps are charged in identical tree-walker units on
both backends, so the comparison is substrate-only) on fibonacci, the §5.1
counting loop, and the uServer request loop — with no instrumentation and
under full branch logging.  The rows are merged into ``BENCH_replay.json``
under the ``backends`` key.

Set ``BENCH_SMOKE=1`` for the shrunken CI smoke sizes.
"""

import os

from repro.experiments import backend_exp, print_table
from benchmarks.conftest import run_once

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def _by_key(rows):
    return {(row["workload"], row["configuration"], row["backend"]): row
            for row in rows}


def test_vm_beats_interpreter(benchmark):
    rows = run_once(benchmark, backend_exp.backend_rows,
                    repeats=1 if SMOKE else 3, smoke=SMOKE)
    print_table(rows, "Backend comparison - VM vs tree-walking interpreter")
    artifact = backend_exp.merge_backend_artifact(rows)
    print(f"merged backends rows into {artifact}")
    indexed = _by_key(rows)
    for workload in ("fibonacci", "microbench", "userver"):
        for configuration in ("none", "all branches"):
            interp = indexed[(workload, configuration, "interp")]
            vm = indexed[(workload, configuration, "vm")]
            # Identical work in tree-walker step units (deterministic, so
            # asserted in smoke mode too)...
            assert vm["steps"] == interp["steps"]
            assert vm["branch_executions"] == interp["branch_executions"]
            if SMOKE:
                # Single-repeat shrunken-size timings are too noisy for
                # wall-clock gates on shared runners; the smoke job only
                # checks the work-equality invariants above and prints the
                # table for eyeballing.
                continue
            # ...delivered faster by the bytecode dispatch loop.
            assert vm["instructions_per_sec"] > interp["instructions_per_sec"], (
                f"VM slower than interpreter on {workload}/{configuration}")
    # The dense counting loop is where dispatch dominates: expect a solid
    # margin there, not a photo finish.
    if not SMOKE:
        assert indexed[("microbench", "none", "vm")]["speedup_vs_interp"] >= 1.3
