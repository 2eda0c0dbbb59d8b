"""The unified, layered service configuration.

Before the service layer, callers juggled three overlapping configuration
objects: :class:`~repro.core.config.PipelineConfig` (pipeline knobs),
:class:`~repro.interp.interpreter.ExecutionConfig` (per-run execution
switches) and the two budget dataclasses.  :class:`ReproConfig` subsumes them
behind four sections mirroring the paper's phases:

* ``execution`` — which engine runs the program and how (backend, step
  limits);
* ``instrumentation`` — what the user site logs (syscalls, library-function
  handling) and the pre-deployment analysis budget;
* ``replay`` — how hard the developer site searches (budget, order, worker
  pool, warm start);
* ``service`` — the trace-inbox / batch-reproduction layer (worker pool over
  clusters, spool handling, persistence).

``ReproConfig`` round-trips through plain dicts (:meth:`ReproConfig.to_dict`
/ :meth:`ReproConfig.from_dict`, with unknown keys rejected loudly) and
through the legacy objects (:meth:`ReproConfig.from_legacy` /
:meth:`ReproConfig.to_pipeline_config` / :meth:`ReproConfig.execution_config`)
so every pre-service construction pattern keeps working:
:class:`~repro.core.pipeline.Pipeline` accepts either a ``PipelineConfig`` or
a ``ReproConfig`` and the two produce identical behaviour by construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.concolic.budget import ConcolicBudget
from repro.core.config import PipelineConfig
from repro.interp.inputs import ExecutionMode
from repro.interp.interpreter import ExecutionConfig
from repro.replay.budget import ReplayBudget

__all__ = [
    "ExecutionSection",
    "InstrumentationSection",
    "ReplaySection",
    "ReproConfig",
    "ServiceSection",
    "TelemetrySection",
]


@dataclass
class ExecutionSection:
    """Which engine executes runs, and its limits."""

    backend: str = "vm"
    record_max_steps: int = 10_000_000
    max_call_depth: int = 256


@dataclass
class InstrumentationSection:
    """User-site logging options and the pre-deployment analysis budget."""

    log_syscalls: bool = True
    library_functions: Set[str] = field(default_factory=set)
    static_skips_library: bool = True
    concolic_budget: ConcolicBudget = field(default_factory=ConcolicBudget)


@dataclass
class ReplaySection:
    """Developer-site search effort and parallelism."""

    budget: ReplayBudget = field(default_factory=ReplayBudget)
    search_order: str = "dfs"
    workers: int = 1
    warm_start: bool = True


@dataclass
class ServiceSection:
    """The trace-inbox / batch-reproduction layer.

    ``workers`` is the *cluster-level* pool: with ``workers > 1`` the service
    dispatches deduped clusters to a persistent process pool (each worker
    rebuilds a serial replay engine from a pickled spec); ``workers == 1``
    runs cluster searches inline.  Either way the per-cluster search tree is
    byte-identical to the single-shot path — the replay engine's commit
    discipline guarantees it.

    The remaining knobs parameterize the robustness surface shared by the
    inbox and the network listener (:mod:`repro.service.net`):

    * ``max_trace_bytes`` — hard upper bound on one bug report; an oversized
      upload or spool file is rejected with a ledger entry *before* it is
      buffered into memory (the listener refuses the frame from its declared
      length alone).
    * ``max_rejected_entries`` — size cap of the rejection ledger; oldest
      entries are evicted so a sustained garbage-upload storm cannot grow
      ``inbox.json`` without limit.
    * ``ingest_queue_depth`` / ``spool_writers`` — the listener's bounded
      ingest queue and the threads draining it into the journaled spool;
      when the queue is full the server answers *retry-after* instead of
      buffering, which is the backpressure signal the client's seeded
      exponential backoff consumes.
    * ``spool_partitions`` — the spool shards across this many inbox
      partitions; a trace's partition is its cluster-key hash modulo N, so
      duplicates of one bug always land (and dedup) in the same shard.
    * ``read_timeout_seconds`` — per-``recv`` socket timeout; a slow-loris
      client stalls only its own connection, which is closed at the first
      silent interval, never the accept loop or other clients.
    * ``client_quota`` — max accepted uploads per client id per server run
      (0 = unlimited); the misbehaving client gets quota responses while
      healthy clients keep their full ingest bandwidth.
    * ``retry_after_seconds`` — the hint carried by a retry-after response.

    The supervision knobs govern the two-level scheduler
    (:mod:`repro.service.supervisor`): with ``supervised`` on (the default),
    cluster searches that need isolation — a multi-worker pool, a deadline,
    preemption, or fault injection — run in supervised child processes that
    checkpoint at commit boundaries, survive worker death, and resume after
    service restarts.

    * ``search_deadline_seconds`` — per-search wall-clock deadline (0 = no
      deadline); a wedged search is killed and its cluster failed with a
      typed ``SearchDeadlineExceeded`` report instead of blocking the batch.
    * ``preempt_after_seconds`` — a running search older than this is asked
      to checkpoint and yield when a *smaller* search waits (0 = never).
    * ``heartbeat_timeout_seconds`` — a worker silent this long is treated
      as dead (killed and restarted from its last checkpoint).
    * ``max_search_retries`` — crash-restarts per cluster before the
      cluster is quarantined into the rejection ledger as a poison search.
    * ``retry_backoff_seconds`` — base of the exponential backoff between
      crash-restarts.
    * ``checkpoint_every_runs`` — snapshot cadence in committed items.
      0 (the default) disables checkpointing, keeping plain single-worker
      batches on the cheap inline path; any positive cadence routes
      searches through the supervisor so the snapshots have a process to
      save.  Preemption writes a snapshot regardless of cadence.
    * ``checkpoint_dir`` — where snapshots live; empty means
      ``<inbox root>/checkpoints``.
    """

    workers: int = 1
    spool_pattern: str = "*.trace"
    persist: bool = True
    store_traces: bool = True
    priority: str = "smallest-first"  # or "arrival"
    max_trace_bytes: int = 4 * 1024 * 1024
    max_rejected_entries: int = 256
    ingest_queue_depth: int = 64
    spool_writers: int = 1
    spool_partitions: int = 4
    read_timeout_seconds: float = 5.0
    client_quota: int = 0
    retry_after_seconds: float = 0.05
    supervised: bool = True
    search_deadline_seconds: float = 0.0
    preempt_after_seconds: float = 0.0
    heartbeat_timeout_seconds: float = 30.0
    max_search_retries: int = 2
    retry_backoff_seconds: float = 0.05
    checkpoint_every_runs: int = 0
    checkpoint_dir: str = ""
    #: Adaptive planning (:mod:`repro.planner`): after this many reports
    #: fanned out by :meth:`ReproService.process`, the service replans
    #: automatically at the end of the batch (0 = manual ``replan`` only).
    #: In-flight searches always finish under their own plan versions first.
    replan_after_reports: int = 0
    #: Seed of the replanner's tie-breaking policy (same history + same
    #: seed ⇒ byte-identical plan ledger).
    replan_seed: int = 0
    #: Fraction of the droppable (concrete-only, never-helped) branch pool
    #: removed per replan generation.
    replan_max_drop_fraction: float = 0.5


@dataclass
class TelemetrySection:
    """The observability layer (:mod:`repro.telemetry`).

    ``enabled`` turns on metric recording, spans and per-item telemetry in
    the replay engine; when off (the default) every instrumentation site
    resolves to shared no-op singletons and the VM runs its unmodified
    dispatch loop — zero overhead by construction.  ``profile_vm``
    additionally swaps in the per-opcode profiling dispatch loop (exact
    execution counts per opcode, so logged-vs-bare branch mixes and future
    superinstruction selection become data-driven); it costs one dict update
    per dispatched instruction, so it defaults off even when telemetry is
    on.  ``jsonl_path`` appends every exported snapshot to a JSON-lines
    sink for machine consumption.
    """

    enabled: bool = False
    profile_vm: bool = False
    jsonl_path: Optional[str] = None


#: Valid values for the enum-ish string fields, checked by ``from_dict``.
_PRIORITIES = ("smallest-first", "arrival")


@dataclass
class ReproConfig:
    """The one configuration object of the service-layer public API."""

    execution: ExecutionSection = field(default_factory=ExecutionSection)
    instrumentation: InstrumentationSection = field(
        default_factory=InstrumentationSection)
    replay: ReplaySection = field(default_factory=ReplaySection)
    service: ServiceSection = field(default_factory=ServiceSection)
    telemetry: TelemetrySection = field(default_factory=TelemetrySection)

    # -- legacy shims ----------------------------------------------------------

    @classmethod
    def from_legacy(cls, legacy) -> "ReproConfig":
        """Lift a :class:`PipelineConfig` or :class:`ExecutionConfig`.

        Every field of the legacy object lands in its section verbatim;
        fields the legacy object does not carry keep their defaults.  The
        round trip (``from_legacy(cfg).to_pipeline_config()`` /
        ``.execution_config(...)``) reproduces the original object exactly —
        the config-compatibility tests assert this for every construction
        pattern the repo uses.
        """

        if isinstance(legacy, PipelineConfig):
            return cls(
                execution=ExecutionSection(
                    backend=legacy.backend,
                    record_max_steps=legacy.record_max_steps,
                    max_call_depth=legacy.max_call_depth,
                ),
                instrumentation=InstrumentationSection(
                    log_syscalls=legacy.log_syscalls,
                    library_functions=set(legacy.library_functions),
                    static_skips_library=legacy.static_skips_library,
                    concolic_budget=legacy.concolic_budget,
                ),
                replay=ReplaySection(
                    budget=legacy.replay_budget,
                    search_order=legacy.replay_search_order,
                    workers=legacy.replay_workers,
                    warm_start=legacy.replay_warm_start,
                ),
                telemetry=TelemetrySection(
                    enabled=legacy.telemetry_enabled,
                    profile_vm=legacy.profile_opcodes,
                ),
            )
        if isinstance(legacy, ExecutionConfig):
            return cls(
                execution=ExecutionSection(
                    backend=legacy.backend,
                    record_max_steps=legacy.max_steps,
                    max_call_depth=legacy.max_call_depth,
                ),
                telemetry=TelemetrySection(
                    profile_vm=legacy.profile_opcodes,
                ),
            )
        raise TypeError(
            f"cannot lift {type(legacy).__name__} into a ReproConfig "
            "(expected PipelineConfig or ExecutionConfig)")

    def to_pipeline_config(self) -> PipelineConfig:
        """The equivalent legacy :class:`PipelineConfig` (behaviour-identical)."""

        return PipelineConfig(
            concolic_budget=self.instrumentation.concolic_budget,
            replay_budget=self.replay.budget,
            log_syscalls=self.instrumentation.log_syscalls,
            library_functions=set(self.instrumentation.library_functions),
            static_skips_library=self.instrumentation.static_skips_library,
            replay_search_order=self.replay.search_order,
            record_max_steps=self.execution.record_max_steps,
            backend=self.execution.backend,
            replay_workers=self.replay.workers,
            replay_warm_start=self.replay.warm_start,
            max_call_depth=self.execution.max_call_depth,
            telemetry_enabled=self.telemetry.enabled,
            profile_opcodes=self.telemetry.profile_vm,
        )

    def execution_config(self, mode: ExecutionMode = ExecutionMode.RECORD,
                         max_steps: Optional[int] = None,
                         syscall_result_provider=None) -> ExecutionConfig:
        """An :class:`ExecutionConfig` for one run under this configuration.

        ``mode``, ``max_steps`` and ``syscall_result_provider`` are per-run
        parameters; everything else comes from the ``execution`` section.
        """

        return ExecutionConfig(
            mode=mode,
            max_steps=(self.execution.record_max_steps
                       if max_steps is None else max_steps),
            max_call_depth=self.execution.max_call_depth,
            syscall_result_provider=syscall_result_provider,
            backend=self.execution.backend,
            profile_opcodes=self.telemetry.profile_vm,
        )

    # -- dict round-tripping ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A plain, JSON-serializable nested dict (canonical key order)."""

        return {
            "execution": _plain_fields(self.execution),
            "instrumentation": {
                "log_syscalls": self.instrumentation.log_syscalls,
                "library_functions": sorted(
                    self.instrumentation.library_functions),
                "static_skips_library":
                    self.instrumentation.static_skips_library,
                "concolic_budget": _plain_fields(
                    self.instrumentation.concolic_budget),
            },
            "replay": {
                "budget": _plain_fields(self.replay.budget),
                "search_order": self.replay.search_order,
                "workers": self.replay.workers,
                "warm_start": self.replay.warm_start,
            },
            "service": _plain_fields(self.service),
            "telemetry": _plain_fields(self.telemetry),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ReproConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Partial dicts are allowed (missing sections or keys keep their
        defaults); *unknown* sections or keys are rejected with a
        :class:`ValueError` naming the offender — a typoed knob must never
        silently configure nothing.
        """

        _reject_unknown(payload, ("execution", "instrumentation", "replay",
                                  "service", "telemetry"), "ReproConfig")
        execution = _section_from_dict(ExecutionSection,
                                       payload.get("execution", {}),
                                       "execution")
        instrumentation = _instrumentation_from_dict(
            payload.get("instrumentation", {}))
        replay = _replay_from_dict(payload.get("replay", {}))
        service = _section_from_dict(ServiceSection,
                                     payload.get("service", {}), "service")
        telemetry = _section_from_dict(TelemetrySection,
                                       payload.get("telemetry", {}),
                                       "telemetry")
        if service.priority not in _PRIORITIES:
            raise ValueError(
                f"service.priority must be one of {_PRIORITIES}, "
                f"got {service.priority!r}")
        return cls(execution=execution, instrumentation=instrumentation,
                   replay=replay, service=service, telemetry=telemetry)


# ---------------------------------------------------------------------------
# dict helpers
# ---------------------------------------------------------------------------


def _plain_fields(obj) -> Dict[str, object]:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _reject_unknown(payload: Dict[str, object], known, where: str) -> None:
    if not isinstance(payload, dict):
        raise ValueError(f"{where} must be a mapping, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ValueError(
            f"unknown key(s) {unknown} in {where} "
            f"(known: {sorted(known)})")


def _section_from_dict(section_cls, payload: Dict[str, object], where: str):
    names = [f.name for f in dataclasses.fields(section_cls)]
    _reject_unknown(payload, names, where)
    return section_cls(**payload)


def _budget_from_dict(budget_cls, payload: Dict[str, object], where: str):
    names = [f.name for f in dataclasses.fields(budget_cls)]
    _reject_unknown(payload, names, where)
    return budget_cls(**payload)


def _instrumentation_from_dict(payload: Dict[str, object]) -> InstrumentationSection:
    _reject_unknown(payload, ("log_syscalls", "library_functions",
                              "static_skips_library", "concolic_budget"),
                    "instrumentation")
    kwargs = dict(payload)
    if "library_functions" in kwargs:
        kwargs["library_functions"] = set(kwargs["library_functions"])
    if "concolic_budget" in kwargs and isinstance(kwargs["concolic_budget"], dict):
        kwargs["concolic_budget"] = _budget_from_dict(
            ConcolicBudget, kwargs["concolic_budget"],
            "instrumentation.concolic_budget")
    return InstrumentationSection(**kwargs)


def _replay_from_dict(payload: Dict[str, object]) -> ReplaySection:
    _reject_unknown(payload, ("budget", "search_order", "workers",
                              "warm_start"), "replay")
    kwargs = dict(payload)
    if "budget" in kwargs and isinstance(kwargs["budget"], dict):
        kwargs["budget"] = _budget_from_dict(ReplayBudget, kwargs["budget"],
                                             "replay.budget")
    return ReplaySection(**kwargs)
