"""The reproduction service: ingestion, batch scheduling, typed reports.

:class:`ReproService` is the developer-site daemon of the paper's
user/developer split, grown to fleet scale: traces stream into a
:class:`~repro.service.inbox.TraceInbox` (bytes, files or a watched spool
directory), deduplicate into clusters of equivalent reports — same
``(plan fingerprint, crash site)`` bug *and* the same recording, see the
inbox module for the two-level semantics — and
:meth:`ReproService.process` dispatches one replay search per cluster —
smallest estimated search first — either inline or through the supervisor
(:mod:`repro.service.supervisor`), whose child processes run the cluster's
:class:`~repro.replay.engine.ReplayEngine`.  Every member
of a cluster receives the cluster's :class:`ReproductionReport`; because
the replay engine commits its work in pop order, each report's explored
search tree is byte-identical to running that trace alone through
:meth:`Pipeline.reproduce_from_trace`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.config import PipelineConfig
from repro.instrument.methods import InstrumentationMethod, build_plan
from repro.instrument.plan import InstrumentationPlan
from repro.lang.program import Program
from repro.planner import (FleetObservations, PlanLedger, PlanVersion,
                           ReplanPolicy, Replanner, plan_fingerprint_digest)
from repro.replay.engine import (ReplayEngine, ReplayOutcome,
                                 WorkerCrashError, check_matched_binaries)
from repro.service.inbox import (IngestResult, TraceCluster, TraceInbox,
                                 UnknownProgramError, error_line)
from repro.service.supervisor import (
    SearchDeadlineExceeded,
    SearchJob,
    SearchResult,
    SearchSupervisor,
)
from repro.telemetry import (
    MetricsRegistry,
    RegistrySnapshot,
    SECONDS_BUCKETS,
    scoped,
    span,
    write_jsonl,
)
from repro.trace import Trace, TraceError, load_trace

__all__ = [
    "ReproService",
    "ReproductionReport",
    "outcome_fingerprint",
]


def outcome_fingerprint(outcome: ReplayOutcome) -> tuple:
    """Everything identifying an explored search tree (never timings/costs).

    The tuple the determinism tests compare: run records, pending
    statistics, the reproducing input and the crash location.  Two searches
    with equal fingerprints explored byte-identical trees.
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


@dataclass
class ReproductionReport:
    """Typed result of one trace's reproduction (the service API response).

    One report per *trace*; every member of a cluster carries the same
    underlying search result (that is the dedup contract), distinguished by
    ``trace_id``/``duplicate_of``.
    """

    trace_id: str
    cluster_id: str
    program: str
    scenario: str
    reproduced: bool
    runs: int
    wall_seconds: float
    timed_out: bool
    crash_site: Optional[Tuple[str, int]]
    found_input: Dict[str, int] = field(default_factory=dict)
    run_records: Tuple[Tuple[str, int, int, str], ...] = ()
    pending_stats: Dict[str, int] = field(default_factory=dict)
    solver_calls: int = 0
    warm_start_hits: int = 0
    #: Trace id of the cluster representative whose search produced this
    #: report ("" when this trace was the representative itself).
    duplicate_of: str = ""
    error: str = ""
    # What the search did (see ReplayOutcome); outside the fingerprint.
    vm_steps: int = 0
    repairs: int = 0
    repair_blocked: Dict[str, int] = field(default_factory=dict)
    stop_reason: str = ""

    @classmethod
    def from_outcome(cls, outcome: ReplayOutcome, *, trace_id: str,
                     cluster_id: str, program: str, scenario: str,
                     duplicate_of: str = "") -> "ReproductionReport":
        crash = None
        if outcome.crash_site is not None:
            crash = (outcome.crash_site.function, outcome.crash_site.line)
        return cls(
            trace_id=trace_id, cluster_id=cluster_id, program=program,
            scenario=scenario, reproduced=outcome.reproduced,
            runs=outcome.runs, wall_seconds=outcome.wall_seconds,
            timed_out=outcome.timed_out, crash_site=crash,
            found_input=dict(outcome.found_input),
            run_records=tuple((r.outcome, r.consumed_bits, r.constraints,
                               r.deviation) for r in outcome.run_records),
            pending_stats=dict(outcome.pending_stats),
            solver_calls=outcome.solver_calls,
            warm_start_hits=outcome.warm_start_hits,
            duplicate_of=duplicate_of,
            vm_steps=outcome.vm_steps,
            repairs=outcome.repairs,
            repair_blocked=dict(outcome.repair_blocked),
            stop_reason=outcome.stop_reason,
        )

    def fingerprint(self) -> tuple:
        """The explored-search-tree identity (see :func:`outcome_fingerprint`)."""

        return (
            self.reproduced,
            self.runs,
            tuple(self.run_records),
            tuple(sorted(self.pending_stats.items())),
            tuple(sorted(self.found_input.items())),
            self.crash_site,
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "reproduced": self.reproduced,
            "runs": self.runs,
            "wall_seconds": round(self.wall_seconds, 4),
            "timed_out": self.timed_out,
            "crash_site": list(self.crash_site) if self.crash_site else None,
            "found_input": dict(self.found_input),
            "run_records": [list(record) for record in self.run_records],
            "pending_stats": dict(self.pending_stats),
            "solver_calls": self.solver_calls,
            "warm_start_hits": self.warm_start_hits,
            "error": self.error,
            "vm_steps": self.vm_steps,
            "repairs": self.repairs,
            "repair_blocked": dict(self.repair_blocked),
            "stop_reason": self.stop_reason,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object], *, trace_id: str,
                  cluster: TraceCluster) -> "ReproductionReport":
        crash = payload.get("crash_site")
        representative = cluster.members[0] if cluster.members else ""
        return cls(
            trace_id=trace_id, cluster_id=cluster.cluster_id,
            program=cluster.program, scenario=cluster.scenario,
            reproduced=payload["reproduced"], runs=payload["runs"],
            wall_seconds=payload["wall_seconds"],
            timed_out=payload["timed_out"],
            crash_site=tuple(crash) if crash else None,
            found_input=dict(payload["found_input"]),
            run_records=tuple(tuple(record)
                              for record in payload["run_records"]),
            pending_stats=dict(payload["pending_stats"]),
            solver_calls=payload["solver_calls"],
            warm_start_hits=payload["warm_start_hits"],
            duplicate_of="" if trace_id == representative else representative,
            error=payload.get("error", ""),
            # Absent from state files written before these were reported.
            vm_steps=payload.get("vm_steps", 0),
            repairs=payload.get("repairs", 0),
            repair_blocked=dict(payload.get("repair_blocked", {})),
            stop_reason=payload.get("stop_reason", ""),
        )


def _search_inline(engine: ReplayEngine) -> SearchResult:
    """Run one search in this process; an exception fails only this search."""

    try:
        return SearchResult(kind="ok", outcome=engine.reproduce())
    except Exception as exc:  # noqa: BLE001 - one search, not the batch
        return SearchResult(kind="failed", error=error_line(exc))


#: Instrumentation methods whose plans rebuild deterministically without any
#: pre-deployment analysis; for traces recorded under these the service
#: re-derives the developer-side plan and enforces the strict
#: matched-binaries fingerprint check (exactly like the single-trace replay
#: command).  Analysis-based plans are still guarded by the program-level
#: branch-location check in :func:`check_matched_binaries`.
ANALYSIS_FREE_METHODS = frozenset((InstrumentationMethod.ALL_BRANCHES.value,
                                   InstrumentationMethod.NONE.value))


class ReproService:
    """The canonical developer-site API: inbox + scheduler + supervisor."""

    def __init__(self, root: str,
                 config: Optional[PipelineConfig] = None,
                 programs: Optional[Dict[str, str]] = None,
                 resolver: Optional[Callable[[str], tuple]] = None) -> None:
        config = config or PipelineConfig()
        self.config = config
        # The service's metrics registry is always real — stats() reads
        # from it, so the counters must count with telemetry off too.  The
        # ``telemetry_enabled`` knob gates the *extra* surface: wall-clock
        # metrics (ingest latency), spans, per-search registry merges, VM
        # profiling and the JSON-lines sink.
        self._registry = MetricsRegistry()
        self.inbox = TraceInbox(root,
                                max_trace_bytes=config.service.max_trace_bytes,
                                registry=self._registry,
                                check_trace=self.check_trace)
        self._programs_src = dict(programs or {})
        self._resolver = resolver
        self._programs: Dict[str, Program] = {}
        self._telemetry_on = config.telemetry_enabled
        #: Seeded fault spec shipped into supervised search workers
        #: (worker_kill / checkpoint_fail streams); set by the chaos harness
        #: or the network listener when it runs with faults.
        self.search_faults = None
        #: Supervisor-side injector for in-process crash points
        #: (e.g. ``supervisor.after_checkpoint``).
        self.search_fault_injector = None
        #: perf_counter arrival stamp per trace_id, consumed when the
        #: trace's cluster commits (ingest→report latency).
        self._arrivals: Dict[str, float] = {}
        self._flushes = 0
        self._plan_ledger: Optional[PlanLedger] = None
        #: Reports fanned out since the last replan (the automatic trigger
        #: counter when ``service.replan_after_reports`` is set).
        self._reports_since_replan = 0

    # -- ingestion (delegated) --------------------------------------------------

    def _note_arrival(self, result: IngestResult) -> IngestResult:
        self._registry.counter("service.traces_ingested").inc()
        if result.duplicate:
            self._registry.counter("service.duplicate_traces").inc()
        if self._telemetry_on:
            self._arrivals[result.trace_id] = time.perf_counter()
        return result

    def ingest_bytes(self, data: bytes, source: str = "bytes") -> IngestResult:
        return self._note_arrival(self.inbox.ingest_bytes(data, source=source))

    def ingest_file(self, path: str) -> IngestResult:
        return self._note_arrival(self.inbox.ingest_file(path))

    def poll_spool(self, spool_dir: str) -> List[IngestResult]:
        return [self._note_arrival(result)
                for result in self.inbox.poll_spool(spool_dir)]

    def ingest_spooled(self, path: str, data: bytes,
                       trace: Trace) -> IngestResult:
        """Ingest bytes the caller already wrote durably into the spool.

        The network listener's path (see :mod:`repro.service.net`): the
        spool file is durable before this is called, so the receipt this
        returns is safe to acknowledge to the uploader.  An idempotent
        re-ingest of an already-recorded path returns the original receipt
        without re-counting an arrival.  *trace* is *data* already decoded
        and passed through :meth:`check_trace`, as the listener does before
        it admits the upload.
        """

        known = os.path.abspath(path) in self.inbox.spooled
        result = self.inbox.ingest_spooled(path, data, trace)
        return result if known else self._note_arrival(result)

    @property
    def registry(self):
        """The live service metrics registry (counters always count)."""

        return self._registry

    # -- program resolution -----------------------------------------------------

    def _resolve_source(self, name: str) -> Tuple[str, frozenset]:
        if name in self._programs_src:
            entry = self._programs_src[name]
            if isinstance(entry, tuple):
                return entry[0], frozenset(entry[1])
            from repro.workloads import library_functions_for

            return entry, library_functions_for(entry)
        if self._resolver is not None:
            resolved = self._resolver(name)
            if resolved is not None:
                return resolved[0], frozenset(resolved[1])
        from repro.workloads import workload_registry

        table = workload_registry()
        if name in table:
            source, _environment, library = table[name]
            return source, frozenset(library)
        raise KeyError(
            f"no program registered for trace program name {name!r}; "
            "pass programs={...} or a resolver to ReproService")

    def check_trace(self, trace) -> None:
        """Reject a decoded trace now if its search could only fail.

        The inbox and the network listener call this on every decoded trace,
        so a report for an unknown program, one whose source does not
        compile or whose resolver raises (:class:`UnknownProgramError`), or
        one recorded from a different binary
        (:class:`~repro.trace.TraceFingerprintMismatch`, the same check
        :meth:`_engine_for` runs) is rejected at ingest like a corrupt one
        instead of stalling the spool or failing its cluster at process
        time.
        """

        name = trace.program_name
        try:
            program = self.program_for(name)
        except KeyError as exc:
            raise UnknownProgramError(*exc.args) from None
        except Exception as exc:
            raise UnknownProgramError(
                f"program {name!r} did not load: "
                f"{type(exc).__name__}: {exc}") from exc
        check_matched_binaries(program, trace,
                               self._expected_plan(program, trace))

    def program_for(self, name: str) -> Program:
        """The developer's copy of the binary for *name* (cached)."""

        program = self._programs.get(name)
        if program is None:
            source, library = self._resolve_source(name)
            program = Program.from_source(name=name, source=source,
                                          library_functions=set(library))
            self._programs[name] = program
        return program

    # -- the scheduler ----------------------------------------------------------

    def process(self, max_clusters: Optional[int] = None
                ) -> Dict[str, ReproductionReport]:
        """Run replay searches for pending clusters; fan reports out.

        Clusters dispatch in priority order (smallest estimated search
        first, per the ``service.priority`` section).  With
        ``service.workers > 1`` (or any supervision knob set, see
        :meth:`_use_supervisor`) the supervisor runs the searches in child
        processes; otherwise they run inline.  Returns a report per *member
        trace* of every cluster processed in this call.
        """

        if max_clusters is not None and max_clusters < 0:
            raise ValueError(f"max_clusters must be >= 0, not {max_clusters}")
        start = time.perf_counter()
        clusters = self.inbox.pending_clusters(self.config.service.priority)
        if max_clusters is not None:
            clusters = clusters[:max_clusters]
        self._registry.gauge("service.queue_depth", timing=True).set(
            len(clusters))
        reports: Dict[str, ReproductionReport] = {}
        if self._telemetry_on:
            with scoped(self._registry):
                with span("service.process", clusters=len(clusters)):
                    self._process_clusters(clusters, reports)
        else:
            self._process_clusters(clusters, reports)
        self._registry.counter("service.process_wall_seconds",
                               timing=True).inc(time.perf_counter() - start)
        # The automatic replan trigger runs strictly after the batch: every
        # search dispatched above has committed against the plan version its
        # trace was recorded under, so revising the ledger here can never
        # touch an in-flight search.
        svc = self.config.service
        if svc.replan_after_reports > 0:
            self._reports_since_replan += len(reports)
            if self._reports_since_replan >= svc.replan_after_reports:
                self.replan()
        if self._telemetry_on and svc.telemetry_jsonl_path:
            self.flush_telemetry(svc.telemetry_jsonl_path)
        return reports

    def _use_supervisor(self) -> bool:
        """Supervised dispatch whenever a search needs process isolation.

        Multi-worker batches, checkpointing, deadlines, preemption and
        fault injection all require searches the service can kill, restart
        and resume; plain single-worker batches keep the cheap inline path
        (identical results either way — the engine's commit discipline).
        """

        svc = self.config.service
        return (svc.workers > 1
                or svc.checkpoint_every_runs > 0
                or svc.search_deadline_seconds > 0
                or svc.preempt_after_seconds > 0
                or self.search_faults is not None)

    def _process_clusters(self, clusters: List[TraceCluster],
                          reports: Dict[str, ReproductionReport]) -> None:
        """Search each cluster and commit the search's result.

        Inline, each search commits before the next one starts, so a search
        that raises fails only its own cluster.  Supervised (see
        :meth:`_use_supervisor`), the batch runs first and then commits in
        dispatch order.  Either way a search ends as a
        :class:`~repro.service.supervisor.SearchResult`, and
        :meth:`_commit_result` records it.
        """

        supervised = self._use_supervisor()
        batch: List[Tuple[TraceCluster, SearchJob]] = []
        for cluster in clusters:
            try:
                engine = self._engine_for(cluster)
            except (TraceError, KeyError) as exc:
                self._fail_cluster(cluster, exc, reports)
                continue
            if supervised:
                batch.append((cluster, SearchJob(cluster_id=cluster.cluster_id,
                                                 engine=engine,
                                                 bits=cluster.bits)))
            else:
                self._commit_result(cluster, _search_inline(engine), reports)
        if supervised:
            supervisor = SearchSupervisor(
                self.inbox.root, self.config, registry=self._registry,
                fault_spec=self.search_faults,
                faults=self.search_fault_injector)
            results = supervisor.run([job for _cluster, job in batch])
            for cluster, job in batch:
                self._commit_result(cluster, results[job.cluster_id], reports)

    def _commit_result(self, cluster: TraceCluster, result: SearchResult,
                       reports: Dict[str, ReproductionReport]) -> None:
        """Record one search's terminal state as its cluster's reports.

        ``ok`` commits the search.  The other kinds fail the cluster:
        ``deadline`` with a typed :class:`SearchDeadlineExceeded`,
        ``quarantined`` (crash-restarts exhausted, or a corrupt checkpoint)
        with a :class:`WorkerCrashError`, and ``failed`` with the search's
        own error.  The last two also land in the rejection ledger, so
        operators see poison searches where they already look for poison
        uploads.
        """

        if result.kind == "ok":
            self._commit_cluster(cluster, result.outcome, reports)
            return
        if result.kind == "deadline":
            self._fail_cluster(cluster, SearchDeadlineExceeded(result.error),
                               reports)
            return
        error = (WorkerCrashError(result.error)
                 if result.kind == "quarantined" else result.error)
        self.inbox.reject(f"cluster:{cluster.cluster_id}", error)
        self._fail_cluster(cluster, error, reports)

    def resume_scan(self) -> List[str]:
        """Startup reconciliation of the checkpoint store (crash recovery).

        Deletes checkpoints (and flags/heartbeats/orphaned results) of
        clusters that are no longer pending — their reports are durable, the
        snapshot is stale — and returns the cluster ids whose searches were
        in flight when the previous process died.  Those clusters are still
        ``pending``, so the next :meth:`process` resumes each from its
        checkpoint exactly once: a cluster's ``done`` status in
        ``inbox.json`` and its checkpoint file are the whole record.
        """

        checkpoint_dir = os.path.join(self.inbox.root, "checkpoints")
        resumable: List[str] = []
        if not os.path.isdir(checkpoint_dir):
            return resumable
        pending = {cluster.cluster_id for cluster in
                   self.inbox.pending_clusters(self.config.service.priority)}
        for name in sorted(os.listdir(checkpoint_dir)):
            path = os.path.join(checkpoint_dir, name)
            if name.endswith(".ckpt"):
                cluster_id = name[:-len(".ckpt")]
                if cluster_id in pending:
                    resumable.append(cluster_id)
                    self._registry.counter("service.supervisor.resumable",
                                           timing=True).inc()
                    continue
            try:
                os.remove(path)  # stale snapshot, flag, heartbeat or result
            except OSError:
                pass
        return resumable

    def _expected_plan(self, program: Program,
                       trace) -> Optional[InstrumentationPlan]:
        """The developer-side plan *trace* must match, when one is known."""

        if trace.plan.method in ANALYSIS_FREE_METHODS:
            return build_plan(InstrumentationMethod(trace.plan.method),
                              program.branch_locations,
                              log_syscalls=trace.plan.log_syscalls)
        # Analysis-based and replanned plans cannot be re-derived here, but
        # the plan ledger can vouch for them: a trace whose plan fingerprint
        # matches a registered version is verified against that version's
        # plan — the strict matched-binaries check for every generation of
        # a mixed-fingerprint fleet.
        entry = self.plan_ledger.by_fingerprint(
            trace.program_name, plan_fingerprint_digest(trace.plan))
        return None if entry is None else entry.plan()

    def _engine_for(self, cluster: TraceCluster) -> ReplayEngine:
        representative = cluster.members[0]
        trace = load_trace(self.inbox.trace_path(representative))
        program = self.program_for(cluster.program)
        config = self.config
        return ReplayEngine.from_trace(
            program, trace,
            expect_plan=self._expected_plan(program, trace),
            budget=config.replay_budget,
            backend=config.backend,
            warm_start=config.replay_warm_start,
            telemetry=config.telemetry_enabled,
            profile_opcodes=config.profile_opcodes,
        )

    def _commit_cluster(self, cluster: TraceCluster, outcome: ReplayOutcome,
                        reports: Dict[str, ReproductionReport]) -> None:
        self._registry.counter("service.searches_run").inc()
        if outcome.reproduced:
            self._registry.counter("service.reproduced_clusters").inc()
        if outcome.telemetry is not None:
            # Pull the search's own metrics (replay.* counters/histograms,
            # vm.* profiling) into the service registry; a supervised
            # search's snapshot crossed the process boundary as plain
            # picklable data.
            self._registry.merge_snapshot(outcome.telemetry)
        representative = cluster.members[0]
        base = ReproductionReport.from_outcome(
            outcome, trace_id=representative, cluster_id=cluster.cluster_id,
            program=cluster.program, scenario=cluster.scenario)
        self.inbox.mark_done(cluster.cluster_id, base.to_json())
        for trace_id in cluster.members:
            if trace_id == representative:
                reports[trace_id] = base
            else:
                reports[trace_id] = ReproductionReport.from_json(
                    base.to_json(), trace_id=trace_id, cluster=cluster)
            self._registry.counter("service.reports_fanned_out").inc()
            self._observe_latency(trace_id)

    def _fail_cluster(self, cluster: TraceCluster,
                      error: Union[Exception, str],
                      reports: Dict[str, ReproductionReport]) -> None:
        """Fail *cluster* with *error*: an exception or its :func:`error_line`."""

        reason = error_line(error)
        payload = {
            "reproduced": False, "runs": 0, "wall_seconds": 0.0,
            "timed_out": False, "crash_site": None, "found_input": {},
            "run_records": [], "pending_stats": {}, "solver_calls": 0,
            "warm_start_hits": 0, "error": reason,
        }
        self.inbox.mark_done(cluster.cluster_id, payload, failed=True)
        self._registry.counter("service.failed_clusters").inc()
        for trace_id in cluster.members:
            reports[trace_id] = ReproductionReport.from_json(
                payload, trace_id=trace_id, cluster=cluster)
            self._registry.counter("service.reports_fanned_out").inc()
            self._observe_latency(trace_id)

    def _observe_latency(self, trace_id: str) -> None:
        """Ingest→report latency for one served trace (telemetry only).

        The ``service.ingest_latency`` histogram is the paper-service SLO
        metric: time from a trace entering the inbox to its report being
        fanned out.  Only traces ingested by *this* process carry an arrival
        stamp; clusters restored from a persisted inbox do not.
        """

        arrival = self._arrivals.pop(trace_id, None)
        if arrival is None:
            return
        self._registry.histogram(
            "service.ingest_latency", SECONDS_BUCKETS,
            timing=True).observe(time.perf_counter() - arrival)

    # -- adaptive planning (repro.planner) --------------------------------------

    @property
    def plan_ledger(self) -> PlanLedger:
        """The versioned plan registry persisted next to this inbox."""

        if self._plan_ledger is None:
            self._plan_ledger = PlanLedger.load(self.inbox.root)
        return self._plan_ledger

    def replan(self, seed: Optional[int] = None,
               max_drop_fraction: Optional[float] = None
               ) -> Dict[str, PlanVersion]:
        """Revise instrumentation plans from everything the fleet reported.

        Walks the done-and-reproduced clusters (sorted by cluster id, so the
        same history always folds in the same order), registers each trace's
        plan in the ledger, re-profiles each reproduced run at the developer
        site with the report's ``found_input`` (full branch visibility — the
        evidence the user site cannot afford to collect), and asks the
        seeded :class:`~repro.planner.replanner.Replanner` for the next plan
        version of every observed program.  New versions are registered with
        their :class:`~repro.planner.replanner.PlanRevision` diffs and the
        ledger is saved; searches already dispatched against older versions
        are unaffected — their traces still resolve by fingerprint.

        Returns the newly registered versions keyed by program name (empty
        once the policy has converged for every program).
        """

        from repro.concolic.engine import ConcolicEngine
        from repro.core.pipeline import Pipeline

        policy = ReplanPolicy(
            seed=self.config.service.replan_seed if seed is None else seed,
            max_drop_fraction=(ReplanPolicy.max_drop_fraction
                               if max_drop_fraction is None
                               else max_drop_fraction))
        ledger = self.plan_ledger
        observations = FleetObservations()
        pipelines: Dict[str, Pipeline] = {}
        for cluster_id in sorted(self.inbox.clusters):
            cluster = self.inbox.clusters[cluster_id]
            if (cluster.status != "done" or not cluster.report
                    or not cluster.report.get("reproduced")):
                continue
            representative = cluster.members[0]
            try:
                trace = load_trace(self.inbox.trace_path(representative))
            except (TraceError, OSError):
                continue  # a lost or damaged copy: no evidence
            program = self.program_for(cluster.program)
            ledger.register_base(cluster.program, trace.plan)
            report = ReproductionReport.from_json(
                cluster.report, trace_id=representative, cluster=cluster)
            observations.observe_report(cluster.program, report,
                                        crash_site=cluster.crash_site)
            environment = trace.environment
            engine = ConcolicEngine(program, environment,
                                    backend=self.config.backend)
            recorder = engine.profile_run(overrides=dict(report.found_input))
            observations.observe_profile(cluster.program, trace.plan,
                                         recorder)
            pipeline = pipelines.get(cluster.program)
            if pipeline is None:
                pipeline = pipelines[cluster.program] = Pipeline(
                    program, self.config)
            observations.observe_recording(
                cluster.program, pipeline.baseline_steps(environment))
        revisions: Dict[str, PlanVersion] = {}
        replanner = Replanner(policy)
        for program_name in sorted(observations.programs):
            latest = ledger.latest(program_name)
            if latest is None:
                continue
            proposal = replanner.propose(program_name, latest.plan(),
                                         observations,
                                         version=latest.version + 1,
                                         parent=latest.version)
            if proposal is None:
                continue
            plan, revision = proposal
            revisions[program_name] = ledger.register(
                program_name, plan, revision.to_json())
            self._registry.counter("service.replans").inc()
        if ledger.programs:
            ledger.save()
        self._reports_since_replan = 0
        return revisions

    # -- queries ----------------------------------------------------------------

    def report(self, trace_id: str) -> Optional[ReproductionReport]:
        """The (possibly restored-from-disk) report for one trace, or None."""

        cluster = self.inbox.cluster_of(trace_id)
        if cluster.report is None:
            return None
        return ReproductionReport.from_json(cluster.report, trace_id=trace_id,
                                            cluster=cluster)

    def stats(self) -> Dict[str, object]:
        """Aggregate counters: the inbox's counts plus this process's
        ``service.*`` registry counters, as plain JSON-ready data.

        ``dedup_ratio`` (reports fanned out per search) is absent until a
        search has run: an idle service has no ratio.
        """

        described = self.inbox.describe()
        counters = self._registry.snapshot().counters
        searches = int(counters.get("service.searches_run", 0))
        fanned_out = int(counters.get("service.reports_fanned_out", 0))
        stats: Dict[str, object] = {
            "traces_ingested": described["traces"],
            "clusters_total": described["clusters"],
            "clusters_pending": described["pending"],
            "clusters_done": described["done"],
            "searches_run": searches,
            "reports_fanned_out": fanned_out,
            "reproduced_clusters": int(
                counters.get("service.reproduced_clusters", 0)),
            "rejected_traces": described["rejected"],
            "process_wall_seconds": round(float(
                counters.get("service.process_wall_seconds", 0.0)), 4),
        }
        if searches:
            stats["dedup_ratio"] = round(fanned_out / searches, 4)
        return stats

    def telemetry(self) -> RegistrySnapshot:
        """A snapshot of the service registry (the typed export surface).

        Always available; with ``telemetry.enabled`` it additionally carries
        the per-search replay/VM metrics, spans and latency histograms.
        """

        return self._registry.snapshot()

    def flush_telemetry(self, path: str) -> None:
        """Append the current registry snapshot to the JSON-lines sink."""

        self._flushes += 1
        write_jsonl(path, self._registry.snapshot(),
                    context={"source": "repro.service", "flush": self._flushes},
                    append=self._flushes > 1)

    # -- lifecycle --------------------------------------------------------------
    #
    # Nothing to release: every file the service writes is complete and
    # synced when the write returns.  The context manager is kept so a
    # service scopes like the upload server.

    def __enter__(self) -> "ReproService":
        return self

    def __exit__(self, *_exc) -> None:
        return None
