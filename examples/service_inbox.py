"""Serve a batch of duplicated bug reports through the trace inbox.

The fleet-scale version of the user/developer split: several (simulated)
user machines ship bug reports into a spool directory; the developer-side
:class:`~repro.service.service.ReproService` ingests them, deduplicates by
``(plan fingerprint, crash site)``, runs **one** replay search per distinct
bug, and fans every reproduction report back out to all duplicates.

Run with:  python examples/service_inbox.py
"""

import os
import shutil
import tempfile

from repro import InstrumentationMethod, PipelineConfig, ReplayBudget
from repro.service import ReproService, workload_pipeline


def ship_bug_reports(spool: str, config: PipelineConfig) -> None:
    """Simulate users hitting two distinct bugs, with duplicates."""

    shipments = [("mkdir-bug", 3), ("paste-bug", 2)]  # (bug, user count)
    user = 0
    for workload, users in shipments:
        pipeline, environment = workload_pipeline(workload, config=config)
        plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                                  environment=environment)
        first = os.path.join(spool, f"user{user}.trace")
        pipeline.record_trace(plan, environment, first)  # privacy scaffold
        user += 1
        for _ in range(users - 1):
            shutil.copyfile(first, os.path.join(spool, f"user{user}.trace"))
            user += 1


def main() -> None:
    config = PipelineConfig(
        backend="vm", replay_budget=ReplayBudget(max_runs=2000,
                                                 max_seconds=60))

    workdir = tempfile.mkdtemp(prefix="repro-service-example-")
    spool = os.path.join(workdir, "spool")
    os.makedirs(spool)
    ship_bug_reports(spool, config)
    print(f"spool holds {len(os.listdir(spool))} shipped bug reports")

    with ReproService(os.path.join(workdir, "inbox"), config=config) as service:
        for result in service.poll_spool(spool):
            tag = "duplicate of known bug" if result.duplicate else "new bug"
            print(f"  {result.trace_id}: {result.program} "
                  f"crash={result.crash_site} -> {tag}")
        reports = service.process()
        print("\nreproduction reports (one search per bug, fanned out):")
        for trace_id in sorted(reports):
            report = reports[trace_id]
            via = f" (search shared via {report.duplicate_of})" \
                if report.duplicate_of else ""
            print(f"  {trace_id}: reproduced={report.reproduced} "
                  f"runs={report.runs}{via}")
        stats = service.stats()
        print(f"\n{stats['traces_ingested']} traces, "
              f"{stats['searches_run']} searches "
              f"-> dedup ratio {stats['dedup_ratio']:.2f}x")

    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
