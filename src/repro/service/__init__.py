"""``repro.service`` — the public API for bug reproduction at fleet scale.

This package is the canonical way to drive the reproduction system:

* :class:`~repro.core.config.PipelineConfig` — the one configuration of
  the pipeline, the service and the CLI; its ``service`` field
  (:class:`~repro.core.config.ServiceSection`) holds the inbox, listener
  and supervisor knobs;
* :class:`~repro.service.inbox.TraceInbox` — batch ingestion (bytes, files,
  watched spool directory), two-level deduplication (``(plan fingerprint,
  crash site)`` bug keys; equivalent-recording clusters that each cost one
  replay search), and restartable persisted state;
* :class:`~repro.service.service.ReproService` — typed request/response
  objects (:class:`~repro.service.inbox.IngestResult`,
  :class:`~repro.service.service.ReproductionReport`), a ``stats()`` dict
  of aggregate counters, and a scheduler dispatching
  deduped clusters, smallest estimated search first, inline or to the
  supervisor's worker processes (one serial search per cluster).

Quickstart (the developer site, serving a spool of shipped bug reports)::

    from repro import PipelineConfig
    from repro.service import ReproService

    with ReproService("inbox-root", config=PipelineConfig()) as service:
        ingested = service.poll_spool("spool/")       # [IngestResult, ...]
        reports = service.process()                   # one search per cluster
        for trace_id, report in reports.items():
            print(trace_id, report.reproduced, report.found_input)
        print(service.stats())                        # incl. dedup_ratio
"""

from repro.core.config import ServiceSection
from repro.core.pipeline import Pipeline
from repro.planner import (
    FleetObservations,
    PlanLedger,
    PlanRevision,
    PlanVersion,
    ReplanPolicy,
    Replanner,
)
from repro.service.faults import FaultInjector, FaultSpec, NULL_FAULTS
from repro.service.inbox import (
    IngestResult,
    TraceCluster,
    TraceInbox,
    TraceTooLargeError,
    UnknownProgramError,
)
from repro.service.net import (
    UploadClient,
    UploadFailed,
    UploadReceipt,
    UploadRejected,
    UploadServer,
)
from repro.service.service import (
    ReproService,
    ReproductionReport,
    outcome_fingerprint,
)
from repro.service.supervisor import (
    SearchDeadlineExceeded,
    SearchJob,
    SearchResult,
    SearchSupervisor,
)

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "FleetObservations",
    "IngestResult",
    "NULL_FAULTS",
    "PlanLedger",
    "PlanRevision",
    "PlanVersion",
    "ReplanPolicy",
    "Replanner",
    "ReproService",
    "ReproductionReport",
    "SearchDeadlineExceeded",
    "SearchJob",
    "SearchResult",
    "SearchSupervisor",
    "ServiceSection",
    "TraceCluster",
    "TraceInbox",
    "TraceTooLargeError",
    "UnknownProgramError",
    "UploadClient",
    "UploadFailed",
    "UploadReceipt",
    "UploadRejected",
    "UploadServer",
    "outcome_fingerprint",
    "workload_pipeline",
]


def workload_pipeline(name: str, config=None):
    """``(Pipeline, default environment)`` for a registered workload.

    The one shared construction path behind every workload-by-name consumer
    (trace tool, disassembler, examples): resolves the source and its
    library-function set through :func:`repro.workloads.workload_registry`
    and builds the pipeline under *config* (a
    :class:`~repro.core.config.PipelineConfig`, or ``None`` for defaults)
    with the workload's library functions installed on a copy, so one
    config can build every workload's pipeline.
    """

    from repro.workloads import workload_registry

    table = workload_registry()
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; "
                       f"known: {', '.join(sorted(table))}")
    source, environment, library = table[name]
    pipeline = Pipeline.from_source(source, name=name, config=config,
                                    library_functions=set(library))
    return pipeline, environment
