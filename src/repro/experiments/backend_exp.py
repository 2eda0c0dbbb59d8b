"""Backend benchmark: the bytecode VM vs the tree-walking interpreter.

Both backends charge *steps* in identical tree-walker units (that is what the
differential parity tests pin down), so ``steps / wall_seconds`` is a fair
instructions-per-second comparison: the numerator is the same number on both
backends and only the execution substrate differs.

Measured per workload under two configurations:

* ``none`` — plain execution, no hooks observing branches;
* ``all branches`` — the full branch-logging runtime (every executed branch
  appends one bit to the 4 KB-buffered bitvector), the paper's worst-case
  instrumentation.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.environment import Environment
from repro.instrument.logger import BranchLogger
from repro.instrument.methods import InstrumentationMethod, build_plan
from repro.interp.backend import BACKENDS, create_backend
from repro.interp.inputs import ExecutionMode, InputBinder
from repro.interp.interpreter import ExecutionConfig
from repro.interp.tracer import NullHooks
from repro.lang.program import Program
from repro.vm import synth
from repro.vm.compiler import compile_program
from repro.workloads import fibonacci, microbench, userver


def bench_workloads() -> List[tuple]:
    """``(workload, source, environment)`` triples sized for stable timing."""

    return [
        ("fibonacci", fibonacci.SOURCE, fibonacci.scenario_b()),
        ("microbench", microbench.SOURCE, microbench.scenario(20_000)),
        ("userver", userver.SOURCE, userver.saturation_workload(30)),
    ]


def _timed_run(program: Program, environment: Environment, backend: str,
               logged: bool) -> Dict[str, object]:
    if logged:
        plan = build_plan(InstrumentationMethod.ALL_BRANCHES,
                          program.branch_locations, log_syscalls=True)
        hooks = BranchLogger(plan)
    else:
        hooks = NullHooks()
    executor = create_backend(
        program,
        kernel=environment.make_kernel(),
        hooks=hooks,
        binder=InputBinder(mode=ExecutionMode.RECORD),
        config=ExecutionConfig(mode=ExecutionMode.RECORD, backend=backend),
    )
    start = time.perf_counter()
    result = executor.run(environment.argv)
    wall = time.perf_counter() - start
    return {"steps": result.steps, "wall_seconds": wall,
            "branch_executions": result.branch_executions}


def backend_rows(repeats: int = 3) -> List[Dict[str, object]]:
    """One row per (workload, configuration, backend); best-of-``repeats``."""

    rows: List[Dict[str, object]] = []
    for workload, source, environment in bench_workloads():
        program = Program.from_source(source, name=workload)
        # Pay the compilation once, up front.
        compile_program(program, specialize_ints=True,
                        synth_fusions=synth.DEFAULT_FUSIONS)
        for configuration, logged in (("none", False), ("all branches", True)):
            measured = {}
            for backend in BACKENDS:
                best = None
                for _ in range(repeats):
                    sample = _timed_run(program, environment, backend, logged)
                    if best is None or sample["wall_seconds"] < best["wall_seconds"]:
                        best = sample
                measured[backend] = best
            baseline_ips = (measured["interp"]["steps"]
                            / measured["interp"]["wall_seconds"])
            for backend in BACKENDS:
                best = measured[backend]
                ips = best["steps"] / best["wall_seconds"]
                rows.append({
                    "workload": workload,
                    "configuration": configuration,
                    "backend": backend,
                    "steps": best["steps"],
                    "branch_executions": best["branch_executions"],
                    "wall_seconds": round(best["wall_seconds"], 4),
                    "instructions_per_sec": round(ips),
                    "speedup_vs_interp": round(ips / baseline_ips, 2),
                })
    return rows
