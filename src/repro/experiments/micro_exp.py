"""§5.1 microbenchmark experiments (counting loop and Listing 1)."""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import PipelineConfig
from repro.core.pipeline import Pipeline
from repro.concolic.budget import ConcolicBudget
from repro.instrument.methods import InstrumentationMethod
from repro.instrument.overhead import BRANCH_LOG_INSTRUCTIONS, NANOSECONDS_PER_BRANCH
from repro.workloads import fibonacci, microbench


def counter_loop_rows(iterations: int = microbench.DEFAULT_ITERATIONS) -> List[Dict[str, object]]:
    """The counting-loop microbenchmark: none vs all-branches overhead."""

    pipeline = Pipeline.from_source(microbench.SOURCE, name="countloop")
    env = microbench.scenario(iterations)
    baseline = pipeline.baseline_steps(env)
    rows = [{
        "configuration": "none",
        "cpu_time_percent": 100.0,
        "instrumented_branch_executions": 0,
        "instructions_per_branch": 0,
        "estimated_ns_per_branch": 0.0,
    }]
    plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES)
    recording = pipeline.record(plan, env)
    executions = recording.overhead.instrumented_branch_executions
    rows.append({
        "configuration": "all branches",
        "cpu_time_percent": round(recording.overhead.cpu_time_percent, 1),
        "instrumented_branch_executions": executions,
        "instructions_per_branch": BRANCH_LOG_INSTRUCTIONS,
        "estimated_ns_per_branch": NANOSECONDS_PER_BRANCH,
    })
    rows[0]["base_interpreter_steps"] = baseline
    rows[1]["base_interpreter_steps"] = baseline
    return rows


def fibonacci_rows(budget: ConcolicBudget = None) -> List[Dict[str, object]]:
    """Listing 1: every analysis-based method instruments only two branches."""

    budget = budget or ConcolicBudget(max_iterations=6, max_seconds=10)
    config = PipelineConfig(concolic_budget=budget)
    pipeline = Pipeline.from_source(fibonacci.SOURCE, name="fib", config=config)
    env = fibonacci.scenario_b()
    analysis = pipeline.analyze(env)
    rows: List[Dict[str, object]] = []
    for method in InstrumentationMethod.paper_methods():
        plan = pipeline.make_plan(method, analysis)
        recording = pipeline.record(plan, env)
        rows.append({
            "configuration": method.value,
            "instrumented_branch_locations": plan.instrumented_count(),
            "logged_bits": len(recording.bitvector),
            "cpu_time_percent": round(recording.overhead.cpu_time_percent, 1),
        })
    return rows
