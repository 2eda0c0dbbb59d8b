"""Replay-search benchmark: wall-clock of the guided search.

This experiment times the complete guided search (record once, then search
until the crash reproduces) on uServer, diff and coreutils workloads: the
paper's "replay time".  Every search is serial; the service parallelizes
across trace clusters instead (see :mod:`repro.service.supervisor`).

The grown scenarios (``userver-load6``, ``diff-big10``, ``paste-big24``)
scale the workloads toward the paper's original request counts and file
sizes.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Tuple

from repro.core.config import PipelineConfig
from repro.core.pipeline import Pipeline
from repro.instrument.methods import InstrumentationMethod
from repro.replay.budget import ReplayBudget
from repro.replay.engine import ReplayEngine, ReplayOutcome
from repro.symbolic import solver as solver_mod
from repro.vm import compiler as vm_compiler
from repro.vm import synth
from repro.workloads import diffutil, library_functions_for, userver
from repro.workloads.coreutils import paste


def scenarios(smoke: bool = False) -> List[Tuple[str, str, str, "object", frozenset]]:
    """``(scenario, program name, source, environment, library functions)``."""

    rows = [
        ("userver-exp2", "userver", userver.SOURCE, userver.experiment(2)),
        ("diff-exp1", "diff", diffutil.SOURCE, diffutil.experiment_1()),
    ]
    if not smoke:
        rows += [
            ("userver-load6", "userver", userver.SOURCE,
             userver.saturation_workload(6)),
            ("diff-exp2", "diff", diffutil.SOURCE, diffutil.experiment_2()),
            ("diff-big10", "diff", diffutil.SOURCE, diffutil.experiment_big(10)),
            ("paste-big24", "paste", paste.SOURCE, paste.big_bug_scenario(24)),
        ]
    return [(scenario, name, source, environment, library_functions_for(source))
            for scenario, name, source, environment in rows]


def _outcome_fingerprint(outcome: ReplayOutcome) -> tuple:
    """Everything that identifies the explored search tree.

    Never timings, and never *cost* counters: solver calls (the warm start
    answers some items without one) and compile-cache hits/misses (which
    depend on the process's cache warmth) can vary while the explored tree
    stays the same.
    """

    crash = None
    if outcome.crash_site is not None:
        crash = (outcome.crash_site.function, outcome.crash_site.line)
    return (
        outcome.reproduced,
        outcome.runs,
        tuple((r.outcome, r.consumed_bits, r.constraints, r.deviation)
              for r in outcome.run_records),
        tuple(sorted(outcome.pending_stats.items())),
        tuple(sorted(outcome.found_input.items())),
        crash,
    )


def _timed_search(pipeline: Pipeline, recording,
                  budget: ReplayBudget) -> Tuple[ReplayOutcome, float]:
    engine = ReplayEngine(
        program=pipeline.program,
        plan=recording.plan,
        bitvector=recording.bitvector,
        syscall_log=recording.syscall_log if recording.plan.log_syscalls else None,
        crash_site=recording.crash_site,
        environment=recording.environment.scaffold(),
        budget=budget,
        backend="vm",
    )
    solver_mod._UNARY_FILTER_CACHE.clear()  # every repeat starts cold
    start = time.perf_counter()
    outcome = engine.reproduce()
    return outcome, time.perf_counter() - start


def search_rows(smoke: bool = False, repeats: int = 2,
                budget: Optional[ReplayBudget] = None) -> List[Dict[str, object]]:
    """One row per scenario; best-of-``repeats`` walls."""

    budget = budget or ReplayBudget(max_runs=6000, max_seconds=240)
    rows: List[Dict[str, object]] = []
    for scenario, name, source, environment, lib in scenarios(smoke):
        pipeline = Pipeline.from_source(
            source, name=name,
            config=PipelineConfig(library_functions=set(lib)))
        plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                                  environment=environment)
        recording = pipeline.record(plan, environment)
        # Pay the bytecode compilation up front: the timed searches should
        # time re-runs, not one-off compiles.
        vm_compiler.compile_program(pipeline.program, plan,
                                    specialize_ints=True,
                                    synth_fusions=synth.DEFAULT_FUSIONS)

        best_wall = None
        outcome = None
        for _ in range(repeats):
            outcome, wall = _timed_search(pipeline, recording, budget)
            if best_wall is None or wall < best_wall:
                best_wall = wall
        rows.append({
            "scenario": scenario,
            "reproduced": outcome.reproduced,
            "runs": outcome.runs,
            "bits": len(recording.bitvector),
            "wall_seconds": round(best_wall, 4),
            "solver_calls": outcome.solver_calls,
            "warm_start_hits": outcome.warm_start_hits,
            "cache_lookups": outcome.compile_cache_lookups,
        })
    return rows


def telemetry_rows(smoke: bool = False, repeats: int = 2,
                   budget: Optional[ReplayBudget] = None) -> Dict[str, object]:
    """Telemetry-on vs telemetry-off cost of the same guided search.

    Runs the serial engine on one scenario with telemetry off
    and on (spans, per-item registries, histograms — VM opcode profiling
    stays off, it is a separately-priced knob) and reports the wall-clock
    ratio next to the deterministic metrics snapshot, so the artifact both
    prices the instrumentation and records what it measured.
    """

    budget = budget or ReplayBudget(max_runs=6000, max_seconds=240)
    scenario, name, source, environment, lib = scenarios(smoke=True)[0]
    pipeline = Pipeline.from_source(
        source, name=name, config=PipelineConfig(library_functions=set(lib)))
    plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                              environment=environment)
    recording = pipeline.record(plan, environment)
    vm_compiler.compile_program(pipeline.program, plan,
                                specialize_ints=True,
                                synth_fusions=synth.DEFAULT_FUSIONS)

    def timed(telemetry: bool) -> Tuple[ReplayOutcome, float]:
        best = None
        outcome = None
        for _ in range(repeats):
            engine = ReplayEngine(
                program=pipeline.program, plan=recording.plan,
                bitvector=recording.bitvector,
                syscall_log=recording.syscall_log,
                crash_site=recording.crash_site,
                environment=recording.environment.scaffold(),
                budget=budget, backend="vm", telemetry=telemetry)
            start = time.perf_counter()
            outcome = engine.reproduce()
            wall = time.perf_counter() - start
            if best is None or wall < best:
                best = wall
        return outcome, best

    off_outcome, off_wall = timed(False)
    on_outcome, on_wall = timed(True)
    assert (_outcome_fingerprint(on_outcome)
            == _outcome_fingerprint(off_outcome)), \
        "telemetry changed the explored search tree"
    return {
        "scenario": scenario,
        "runs": off_outcome.runs,
        "wall_seconds_off": round(off_wall, 4),
        "wall_seconds_on": round(on_wall, 4),
        "overhead_ratio": round(on_wall / off_wall, 4),
        "identical_tree": True,
        "snapshot": on_outcome.telemetry.deterministic().to_json(),
    }


def write_artifact(rows: List[Dict[str, object]], path: str = "BENCH_replay.json",
                   inbox_rows: Optional[List[Dict[str, object]]] = None,
                   telemetry: Optional[Dict[str, object]] = None,
                   net: Optional[List[Dict[str, object]]] = None,
                   checkpoint: Optional[Dict[str, object]] = None) -> str:
    """Dump the rows as the perf tracking artifact.

    ``inbox_rows`` (see :mod:`repro.experiments.service_exp`) records the
    service layer's batch-inbox throughput — traces/sec and dedup ratio —
    next to the per-search wall-clocks; ``telemetry`` (see
    :func:`telemetry_rows`) the cost and deterministic content of running
    the same search instrumented; ``net`` (see
    :mod:`repro.experiments.net_exp`) the concurrent upload server's
    sustained traces/sec and p99 ingest latency, clean and fault-injected;
    ``checkpoint`` (see :mod:`repro.experiments.checkpoint_exp`) what the
    supervised fleet's snapshot/preempt/resume machinery costs the search.
    """

    payload = {
        "benchmark": "replay_search",
        "rows": rows,
    }
    if inbox_rows is not None:
        payload["inbox"] = inbox_rows
    if telemetry is not None:
        payload["telemetry"] = telemetry
    if net is not None:
        payload["net"] = net
    if checkpoint is not None:
        payload["checkpoint"] = checkpoint
    # This writer owns the layout: of an existing file it keeps only the
    # keys the other bench files write, so a retired key does not linger.
    return merge_artifact(payload, path, keep=MERGED_KEYS)


#: Top-level keys of ``BENCH_replay.json`` that other bench files write
#: (``backends`` from bench_backends, ``planner`` from bench_planner).
MERGED_KEYS = ("backends", "planner")


def merge_artifact(updates: Dict[str, object],
                   path: str = "BENCH_replay.json",
                   keep: Optional[Tuple[str, ...]] = None) -> str:
    """Write *updates* into the artifact at *path*, the one writer of it.

    Keys of an existing file survive unless *updates* replaces them, so the
    bench files can run in any order; with *keep*, only those existing keys
    survive.  An unreadable file counts as empty.
    """

    payload: Dict[str, object] = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                loaded = json.load(handle)
        except (ValueError, OSError):
            loaded = {}
        if isinstance(loaded, dict):
            payload = {key: value for key, value in loaded.items()
                       if keep is None or key in keep}
    payload.update(updates)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return path
