"""Batch-inbox benchmark: dedup ratio and traces/sec of the service layer.

Simulates the fleet-scale developer site: K user machines ship bug reports
into a spool directory, with heavy duplication (many users hitting the same
bug produce reports that cluster on the same ``(plan fingerprint, crash
site)`` key).  The :class:`~repro.service.service.ReproService` ingests the
spool, runs **one** replay search per cluster, and fans each reproduction
report out to every member — so batch throughput (traces/sec) scales with
the dedup ratio rather than with raw search cost.

Each row additionally asserts the dedup contract: exactly D searches for D
distinct clusters, every trace receives a report, and each report's explored
search tree is byte-identical to running that trace alone through the
single-shot :meth:`Pipeline.reproduce_from_trace` path.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Dict, List, Tuple

from repro.core.config import PipelineConfig
from repro.instrument.methods import InstrumentationMethod
from repro.replay.budget import ReplayBudget
from repro.service import ReproService, outcome_fingerprint, workload_pipeline

#: ``(workload, copies)`` per spool batch: the smoke batch is the CI shape
#: (3 traces, 2 duplicates -> 2 searches); the full batch leans harder on
#: duplication across three workload families.
BATCHES: Dict[str, List[Tuple[str, int]]] = {
    "smoke": [("mkdir-bug", 2), ("diff-exp1", 1)],
    "full": [("mkdir-bug", 4), ("mkfifo-bug", 3), ("diff-exp1", 2),
             ("paste-bug", 3)],
}


def _service_config() -> PipelineConfig:
    return PipelineConfig(
        backend="vm", replay_budget=ReplayBudget(max_runs=3000,
                                                 max_seconds=120))


def inbox_rows(smoke: bool = False) -> List[Dict[str, object]]:
    """One row per spool batch; asserts the dedup contract along the way."""

    batch = BATCHES["smoke" if smoke else "full"]
    config = _service_config()
    workdir = tempfile.mkdtemp(prefix="repro-inbox-bench-")
    rows: List[Dict[str, object]] = []
    try:
        spool = os.path.join(workdir, "spool")
        os.makedirs(spool)
        recorded: Dict[str, str] = {}  # workload -> one spool file of it
        count = 0
        for workload, copies in batch:
            pipeline, environment = workload_pipeline(workload, config=config)
            plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                                      environment=environment)
            first = os.path.join(spool, f"u{count:03d}.trace")
            pipeline.record_trace(plan, environment, first)
            recorded[workload] = first
            count += 1
            for _ in range(copies - 1):
                # Duplicate reports: the same bug shipped by another user.
                shutil.copyfile(first,
                                os.path.join(spool, f"u{count:03d}.trace"))
                count += 1

        service = ReproService(os.path.join(workdir, "inbox"), config=config)
        start = time.perf_counter()
        ingested = service.poll_spool(spool)
        reports = service.process()
        wall = time.perf_counter() - start
        stats = service.stats()

        # The dedup contract, asserted on every bench run.
        distinct = len({r.cluster_id for r in ingested})
        assert stats.searches_run == distinct, (
            f"{stats.searches_run} searches for {distinct} clusters")
        assert len(reports) == len(ingested) == count
        assert all(report.reproduced for report in reports.values())
        # Byte-identity vs the single-shot path, per workload.
        for workload, path in recorded.items():
            pipeline, _environment = workload_pipeline(workload, config=config)
            single = pipeline.reproduce_from_trace(path)
            cluster_reports = [r for r in reports.values()
                               if r.program == workload]
            assert cluster_reports, workload
            for report in cluster_reports:
                assert report.fingerprint() == outcome_fingerprint(
                    single.outcome), f"{workload}: batch != single-shot"

        rows.append({
            "scenario": f"inbox-batch-{'smoke' if smoke else 'full'}",
            "traces": count,
            "clusters": distinct,
            "searches_run": stats.searches_run,
            "reports_fanned_out": stats.reports_fanned_out,
            # dedup_ratio is None until a search has run; an inbox batch
            # always runs at least one, but guard the writer anyway so an
            # empty batch cannot crash artifact generation.
            "dedup_ratio": (None if stats.dedup_ratio is None
                            else round(stats.dedup_ratio, 2)),
            "wall_seconds": round(wall, 4),
            "traces_per_sec": round(count / wall, 2),
            "reproduced": all(r.reproduced for r in reports.values()),
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return rows
