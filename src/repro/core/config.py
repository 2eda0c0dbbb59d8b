"""The pipeline configuration: one object for the pipeline, service and CLI.

:class:`PipelineConfig` carries the paper's three groups of knobs — the
pre-deployment analysis budget, the user site's logging choices and the
developer site's search — plus the execution engine's limits, telemetry
switches and, as its ``service`` field, the trace-inbox layer's
:class:`ServiceSection`.  Only :mod:`repro.service` reads that section; it is
plain data, so importing this module loads no service code.

:class:`ConcolicBudget` and :class:`ReplayBudget` are defined next to the
engines that consume them and re-exported here so that user code only needs to
import from :mod:`repro` / :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.concolic.budget import ConcolicBudget
from repro.replay.budget import ReplayBudget

__all__ = ["ConcolicBudget", "PipelineConfig", "ReplayBudget",
           "ServiceSection"]


@dataclass
class ServiceSection:
    """The trace-inbox / batch-reproduction layer.

    ``workers`` is how many cluster searches run at once: with
    ``workers > 1`` the supervisor (:mod:`repro.service.supervisor`) runs up
    to that many deduped clusters in parallel, each in a child process that
    unpickles the cluster's replay engine; ``workers == 1`` runs
    cluster searches inline unless a supervision knob below asks for a
    process.  Either way the per-cluster search tree is byte-identical to
    the single-shot path — the replay engine's commit discipline guarantees
    it.  This is the service's one source of parallelism: every replay
    search is serial.  Pending clusters dispatch smallest recorded
    bitvector first, and a launched search runs until it ends or dies.

    The remaining knobs parameterize the robustness surface shared by the
    inbox and the network listener (:mod:`repro.service.net`):

    * ``max_trace_bytes`` — hard upper bound on one bug report; an oversized
      upload or spool file is rejected with a ledger entry *before* it is
      buffered into memory (the listener refuses the frame from its declared
      length alone).
    * ``ingest_queue_depth`` — how many uploads the listener admits at once
      (they spool one at a time); with every slot taken the server answers
      *retry-after* instead of buffering, which is the backpressure signal
      the client's seeded exponential backoff consumes.
    * ``read_timeout_seconds`` — per-``recv`` socket timeout; a slow-loris
      client stalls only its own connection, which is closed at the first
      silent interval, never the accept loop or other clients.
    * ``client_quota`` — max accepted uploads per client id per server run
      (0 = unlimited); the misbehaving client gets quota responses while
      healthy clients keep their full ingest bandwidth.

    The supervision knobs govern the two-level scheduler
    (:mod:`repro.service.supervisor`): cluster searches that need isolation
    — more than one worker, checkpointing, a deadline, or fault injection —
    run in supervised child processes that checkpoint at commit boundaries,
    survive worker death, and resume after service restarts.

    * ``search_deadline_seconds`` — per-search wall-clock deadline (0 = no
      deadline); a wedged search is killed and its cluster failed with a
      typed ``SearchDeadlineExceeded`` report instead of blocking the batch.
    * ``max_search_retries`` — crash-restarts per cluster before the
      cluster is quarantined into the rejection ledger as a poison search.
    * ``checkpoint_every_runs`` — snapshot cadence in committed items.
      0 (the default) disables checkpointing, keeping plain single-worker
      batches on the cheap inline path; any positive cadence routes
      searches through the supervisor so the snapshots have a process to
      save.  Snapshots live in ``<inbox root>/checkpoints``.
    """

    workers: int = 1
    max_trace_bytes: int = 4 * 1024 * 1024
    ingest_queue_depth: int = 64
    read_timeout_seconds: float = 5.0
    client_quota: int = 0
    search_deadline_seconds: float = 0.0
    max_search_retries: int = 2
    checkpoint_every_runs: int = 0
    #: Adaptive planning (:mod:`repro.planner`): after this many reports
    #: fanned out by :meth:`ReproService.process`, the service replans
    #: automatically at the end of the batch (0 = manual ``replan`` only).
    #: In-flight searches always finish under their own plan versions first.
    replan_after_reports: int = 0
    #: Seed of the replanner's tie-breaking policy (same history + same
    #: seed ⇒ byte-identical plan ledger).
    replan_seed: int = 0
    #: Append every exported telemetry snapshot to this JSON-lines file at
    #: the end of each :meth:`ReproService.process` batch (telemetry on).
    telemetry_jsonl_path: Optional[str] = None


@dataclass
class PipelineConfig:
    """Knobs shared by every stage of a :class:`~repro.core.pipeline.Pipeline`
    and by the service built on it.

    ``library_functions`` plays the role of uClibc in the paper's uServer
    experiment: those functions are excluded from the static analysis (all
    their branches are conservatively treated as symbolic) and reported
    separately in branch-behaviour statistics.
    """

    concolic_budget: ConcolicBudget = field(default_factory=ConcolicBudget)
    replay_budget: ReplayBudget = field(default_factory=ReplayBudget)
    log_syscalls: bool = True
    library_functions: Set[str] = field(default_factory=set)
    # Execution engine used by every stage (record, replay, analysis): "vm"
    # (bytecode VM) or "interp" (the tree-walking interpreter, kept as the
    # reference oracle the VM is tested against).
    backend: str = "vm"
    # Seed each pending item's search from the parent run's satisfying
    # assignment; skips the solver whenever flipping one branch only moves
    # one input variable (see repro.symbolic.solver.warm_start_assignment).
    replay_warm_start: bool = True
    # Record metrics and spans into repro.telemetry registries during record
    # and replay.  Telemetry never affects the explored search tree (the
    # on/off differential tests assert byte-identical outcomes); off (the
    # default) costs nothing — instrumentation sites resolve to shared no-op
    # singletons and the VM runs its unmodified dispatch loop.
    telemetry_enabled: bool = False
    # Swap in the VM's per-opcode profiling dispatch loop (exact execution
    # counts per opcode, incl. the logged-vs-bare branch split).  Costs one
    # dict update per dispatched instruction, so it is a separate knob.
    profile_opcodes: bool = False
    # The trace-inbox / batch-reproduction layer (read by repro.service).
    service: ServiceSection = field(default_factory=ServiceSection)
