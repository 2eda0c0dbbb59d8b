"""``predeploy``: the pre-deployment analysis a developer pays per version.

A closed loop in this process through the ``Pipeline`` library API.  Each
job parses one program, analyses it under an iteration-capped budget, builds
the four paper plans and records seeded crash runs under the
dynamic+static plan.  No search and no ingest run here, so this is the
no-change workload for search and ingest work.
"""

from __future__ import annotations

import hashlib
import sys
import time
from typing import Dict, List

from perfbench import inputs
from perfbench.calibrate import Calibration
from perfbench.common import (ROOT, cold_start, geomean, percentile, pinned,
                              self_peak_rss_mb, shared_cpu, summarize)
from perfbench.usersite import deploy
from repro import InstrumentationMethod

#: Seconds one round of the five jobs takes on the reference machine; the
#: run's fixed job set is ``seconds / NOMINAL_ROUND_S`` rounds.
NOMINAL_ROUND_S = 2.4
SETUP_REPEATS = 5


def _plans(job: inputs.AnalysisJob):
    pipeline, analysis = deploy(job)
    return pipeline, analysis, pipeline.make_all_plans(analysis)


def _fingerprints(plans) -> Dict[str, str]:
    return {method.value: hashlib.sha256(
        repr(plan.fingerprint()).encode()).hexdigest()[:16]
        for method, plan in plans.items()}


def run(seed: int, seconds: float, spans_path: str = "",
        log=None) -> Dict[str, object]:
    cpus = shared_cpu()
    calibration = Calibration()
    argv = [sys.executable, "-c", "import repro, repro.workloads; print('ready')"]
    # One CPU for the reference and the work it scales, cold starts included.
    with pinned(cpus):
        setup = [calibration.timed(lambda: cold_start(argv, "ready", ROOT))
                 for _ in range(SETUP_REPEATS)]
    rounds = max(1, round(seconds / NOMINAL_ROUND_S))
    jobs = inputs.predeploy_jobs(seed, rounds)

    overheads: List[float] = []
    failures: Dict[str, int] = {}
    counters = {"concolic_iterations": 0, "concolic_solver_calls": 0,
                "record_steps": 0, "logged_bits": 0, "crash_runs": 0}
    fingerprints: Dict[str, str] = {}
    first: Dict[str, str] = {}
    ops = []

    def fail(reason: str) -> None:
        failures[reason] = failures.get(reason, 0) + 1

    timed = []
    with pinned(cpus):
        for index, job in enumerate(jobs):
            if log is not None:
                log.bug = f"{job.kind}#{index}"
            began = job_began = time.perf_counter()
            try:
                pipeline, analysis, plans = _plans(job)
            except Exception as exc:  # a crashed job is a failed operation
                fail(f"exception:{type(exc).__name__}")
                continue
            took = time.perf_counter() - began
            dynamic = analysis.dynamic
            if dynamic.wall_seconds >= inputs.ANALYSIS_BUDGET.max_seconds:
                fail("time-capped")
                continue
            counters["concolic_iterations"] += dynamic.iterations
            counters["concolic_solver_calls"] += dynamic.solver_calls
            prints = _fingerprints(plans)
            if index == 0:
                first = prints
            fingerprints[f"{job.kind}#{index}"] = prints[
                InstrumentationMethod.DYNAMIC_PLUS_STATIC.value]
            crashed = True
            recorded = []
            for env in job.crash_envs:
                began = time.perf_counter()
                recording = pipeline.record(
                    plans[InstrumentationMethod.DYNAMIC_PLUS_STATIC], env)
                recorded.append(time.perf_counter() - began)
                counters["crash_runs"] += 1
                counters["record_steps"] += recording.execution.steps
                counters["logged_bits"] += len(recording.bitvector)
                overheads.append(recording.overhead.cpu_time_percent)
                crashed = crashed and recording.crash_site is not None
            job_s = time.perf_counter() - job_began
            ops.append(("job", job_began, job_began + job_s, job.kind))
            calibration.sample()
            timed.append((job_began, job_s, took, recorded, crashed))
            if not crashed:
                fail("no-crash")
    if log is not None:
        log.bug = ""

    analysis_s: List[float] = []
    record_s: List[float] = []
    scaled = {"analysis": [], "record": []}
    busy = scaled_busy = 0.0
    for job_began, job_s, took, recorded, crashed in timed:
        factor = calibration.factor(job_began, job_began + job_s)
        busy += job_s
        scaled_busy += job_s * factor
        record_s.extend(recorded)
        scaled["record"].extend(run_s * factor for run_s in recorded)
        if crashed:
            analysis_s.append(took)
            scaled["analysis"].append(took * factor)

    # Output check: the first job, analysed again, plans identically.
    _pipeline, _analysis, plans = _plans(jobs[0])
    replanned = _fingerprints(plans)
    if first and replanned != first:
        fail("plan-fingerprint-drift")
    correct = not failures

    analysis = summarize(analysis_s)
    record = summarize(record_s)
    digest = hashlib.sha256(repr(sorted(fingerprints.items())).encode())
    return {
        "attempted": len(jobs),
        "failed": sum(failures.values()),
        "correct": correct,
        "failures": failures,
        "time_capped": failures.get("time-capped", 0),
        "metrics": {
            "setup_s": percentile([calibration.scaled(start, took)
                                   for start, took in setup], 50),
            "op_gmean": geomean(scaled["analysis"]) * 1e3,
            "throughput": len(analysis_s) / scaled_busy,
            "stage2_gmean": geomean(scaled["record"]) * 1e3,
            "record_overhead_pct": sum(overheads) / max(1, len(overheads)),
            "peak_rss_mb": self_peak_rss_mb(),
        },
        "named": [
            ("setup_s", percentile([took for _start, took in setup], 50), "s",
             f"median of {SETUP_REPEATS} cold starts"),
            ("analysis_p50_s", analysis["p50"], "s", f"n={analysis['n']}"),
            ("analysis_gmean_s", geomean(analysis_s), "s",
             f"geometric mean, n={analysis['n']}"),
            (f"analysis_p{analysis['tail_pct']}_s", analysis["tail"], "s",
             f"n={analysis['n']}"),
            ("analyses_per_min", 60.0 * len(analysis_s) / busy, "1/min",
             f"{len(analysis_s)} jobs in {busy:.2f} s"),
            ("record_overhead_pct", sum(overheads) / max(1, len(overheads)),
             "%", f"mean of n={len(overheads)} dynamic+static recordings"),
            ("record_p50_ms", record["p50"] * 1e3, "ms", f"n={record['n']}"),
            ("record_gmean_ms", geomean(record_s) * 1e3, "ms",
             f"geometric mean, n={record['n']}"),
            ("peak_rss_mb", self_peak_rss_mb(), "MB", "this process"),
            calibration.line(),
        ],
        "counters": dict(counters, jobs=len(jobs), rounds=rounds,
                         plan_fingerprint_digest=digest.hexdigest()[:16],
                         first_job_plans=first),
        "ops": ops,
        "loop": f"closed, 1 in-process client, {len(jobs)} jobs "
                f"({rounds} rounds of {len(inputs.JOB_SLOTS)})",
    }
