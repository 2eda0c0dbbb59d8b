"""Backend shoot-out: bytecode VM vs tree-walking interpreter.

Raw instructions/sec (steps are charged in identical tree-walker units on
both backends, so the comparison is substrate-only) on fibonacci, the §5.1
counting loop, and the uServer request loop — with no instrumentation and
under full branch logging.  Asserts that both backends do equal work and
that the VM delivers it faster.
"""

from repro.experiments import backend_exp, print_table
from benchmarks.conftest import run_once


def _by_key(rows):
    return {(row["workload"], row["configuration"], row["backend"]): row
            for row in rows}


def test_vm_beats_interpreter(benchmark):
    rows = run_once(benchmark, backend_exp.backend_rows, repeats=3)
    print_table(rows, "Backend comparison - VM vs tree-walking interpreter")
    indexed = _by_key(rows)
    for workload in ("fibonacci", "microbench", "userver"):
        for configuration in ("none", "all branches"):
            interp = indexed[(workload, configuration, "interp")]
            vm = indexed[(workload, configuration, "vm")]
            # Identical work in tree-walker step units...
            assert vm["steps"] == interp["steps"]
            assert vm["branch_executions"] == interp["branch_executions"]
            # ...delivered faster by the bytecode dispatch loop.
            assert vm["instructions_per_sec"] > interp["instructions_per_sec"], (
                f"VM slower than interpreter on {workload}/{configuration}")
    # The dense counting loop is where dispatch dominates: expect a solid
    # margin there, not a photo finish.
    assert indexed[("microbench", "none", "vm")]["speedup_vs_interp"] >= 1.3
