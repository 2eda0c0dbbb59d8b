"""Closed-loop fleet experiment for ``repro.planner`` (the paper's §6 loop).

Simulates the full adaptive-instrumentation cycle over several generations:
a user-site recording under the current plan is shipped into a
:class:`~repro.service.ReproService` inbox, the replay search reproduces
the crash, and :meth:`~repro.service.ReproService.replan` folds the fleet's
evidence back into a new plan version.  The next generation records under
that revised plan, closing the loop the paper leaves open (its Table 3
plans are chosen once, offline).

Each row asserts the two properties the planner promises:

* **reproduction holds** — every generation's trace reproduces its crash
  (dropped branches were concrete-only, so the search tree is unchanged);
* **overhead falls** — the measured recording overhead is strictly lower
  in every generation that followed a replan.

``planner_rows`` additionally replays the whole fleet history twice in
two fresh roots and asserts the resulting plan ledgers are byte-identical
(replanning is a deterministic function of history and seed).
``benchmarks/bench_planner.py`` runs it and gates the overhead reduction.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Dict, List, Tuple

from repro.core.config import PipelineConfig
from repro.instrument.methods import InstrumentationMethod
from repro.planner import LEDGER_FILE, plan_version_of
from repro.replay.budget import ReplayBudget
from repro.service import ReproService, workload_pipeline

__all__ = ["WORKLOADS", "fleet_config", "planner_rows", "run_generations"]

#: Fleet workloads: each must crash and reproduce under the default budget.
WORKLOADS: Tuple[str, ...] = ("mkdir-bug", "diff-exp1")

#: Generations recorded per workload: one base plan plus >= 3 replans.
GENERATIONS = 4


def fleet_config() -> PipelineConfig:
    config = PipelineConfig(
        replay_budget=ReplayBudget(max_runs=3000, max_seconds=120))
    config.service.replan_seed = 0
    return config


def run_generations(workload: str, root: str, config: PipelineConfig,
                    generations: int = GENERATIONS) -> List[Dict[str, object]]:
    """Record/ship/reproduce/replan *generations* times; one row each.

    Generation 0 records under the full ``all branches`` plan; every later
    generation records under the newest ledger version.  Stops early only
    if the planner converges (no concrete-only branches left to drop).
    """

    rows: List[Dict[str, object]] = []
    pipeline, environment = workload_pipeline(workload, config=config)
    with ReproService(root, config=config) as service:
        plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                                  environment=environment)
        for generation in range(generations):
            path = os.path.join(root, f"{workload}-gen{generation}.trace")
            recording = pipeline.record_trace(plan, environment, path)
            result = service.ingest_file(path)
            service.process()
            report = service.report(result.trace_id)
            assert report is not None and report.reproduced, (
                f"{workload} generation {generation} did not reproduce "
                f"under plan {plan.method!r}")
            rows.append({
                "workload": workload,
                "generation": generation,
                "plan_version": plan_version_of(plan.method) or 0,
                "method": getattr(plan.method, "value", plan.method),
                "instrumented": plan.instrumented_count(),
                "overhead_percent": round(
                    recording.overhead.overhead_percent, 3),
                "total_units": recording.overhead.total_units,
                "base_units": recording.baseline_steps,
                "reproduced": True,
                "search_runs": report.runs,
            })
            if generation == generations - 1:
                break
            revisions = service.replan()
            latest = service.plan_ledger.latest(workload)
            assert latest is not None
            if workload not in revisions:
                rows[-1]["converged"] = True
                break
            plan = latest.plan()
    return rows


def _assert_loop_properties(rows: List[Dict[str, object]]) -> None:
    """The acceptance gate: overhead strictly falls, reproduction holds."""

    by_workload: Dict[str, List[Dict[str, object]]] = {}
    for row in rows:
        by_workload.setdefault(str(row["workload"]), []).append(row)
    for workload, history in by_workload.items():
        assert all(row["reproduced"] for row in history), workload
        overheads = [row["overhead_percent"] for row in history]
        for earlier, later in zip(overheads, overheads[1:]):
            assert later < earlier, (
                f"{workload}: overhead did not strictly fall across replans "
                f"({overheads})")
        replans = len(history) - 1
        assert replans >= 3, (
            f"{workload}: only {replans} replan generations before "
            f"convergence; the experiment needs >= 3")


def _ledger_bytes(root: str) -> bytes:
    with open(os.path.join(root, LEDGER_FILE), "rb") as handle:
        return handle.read()


def planner_rows() -> List[Dict[str, object]]:
    """One row per (workload, generation), loop properties asserted.

    The entire fleet history runs twice, in two fresh roots with the same
    seed; the runs must produce byte-identical plan ledgers and identical
    rows, or replanning is not the deterministic function it claims to be.
    """

    config = fleet_config()
    histories: List[List[Dict[str, object]]] = []
    ledgers: List[bytes] = []
    for _attempt in range(2):
        workdir = tempfile.mkdtemp(prefix="repro-planner-bench-")
        try:
            rows: List[Dict[str, object]] = []
            for workload in WORKLOADS:
                rows.extend(run_generations(workload, workdir, config))
            histories.append(rows)
            ledgers.append(_ledger_bytes(workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    assert ledgers[0] == ledgers[1], (
        "same history + same seed must yield a byte-identical plan ledger")
    assert histories[0] == histories[1], (
        "same history + same seed must yield identical generation rows")
    _assert_loop_properties(histories[0])
    return histories[0]
