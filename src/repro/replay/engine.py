"""The replay engine: searching for an input that reproduces the crash.

The engine repeatedly runs the program in ``REPLAY`` mode.  Each run is driven
by a concrete input assignment produced by the constraint solver; the
:class:`~repro.replay.hooks.ReplayRunHooks` compare the run against the
recorded bitvector and either let it reach the crash or abort it and schedule
alternative constraint sets on the pending list.  Reproduction succeeds when a
run crashes at the recorded crash site; the input assignment of that run is
the "set of inputs that activate the bug" the paper promises the developer.

**One search, in pop order.**  Evaluating an item — solve its constraint
set, run the program, collect the run's alternatives — yields a distilled
:class:`_ItemEvaluation` (classification string, assignment, alternatives,
counters), and the engine commits evaluations strictly in the pending list's
pop order.  The committed sequence of runs, the pushed alternatives, the
counters and the explored pending set are therefore a pure function of the
recording, which is what lets a search killed after any commit boundary
resume elsewhere from its snapshot (:mod:`repro.replay.checkpoint`).
Parallelism lives one level up: the service's supervisor runs one search
per trace cluster in its own process, from a pickled :class:`ReplayEngine`.

**Repair in place.**  A search on the VM does not restart a run that
reaches a logged symbolic branch going the wrong way.  The run is committed
as aborted exactly as before; if the next item popped is the alternative that
forces the recorded direction (as it is under DFS unless that alternative
was a duplicate), the VM moves its live state onto that item's solved input
and keeps running as that item's run.  Guards logged along the run decide
whether the two runs can have diverged; if so the item restarts from
``main`` with its solution.  The committed sequence stays the same.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.environment import Environment
from repro.instrument.logger import BitvectorLog, SyscallResultLog
from repro.instrument.plan import InstrumentationPlan
from repro.interp.backend import create_backend, engine_for
from repro.interp.inputs import ExecutionMode, InputBinder
from repro.interp.interpreter import (
    CrashSite,
    ExecutionConfig,
    ExecutionResult,
)
from repro.lang.program import Program
from repro.osmodel.syscalls import SyscallKind
from repro.replay.budget import ReplayBudget
from repro.replay.hooks import ReplayRunHooks
from repro.replay.pending import PendingItem, PendingList
from repro.symbolic.constraints import ConstraintSet
from repro.symbolic.solver import UNKNOWN, solve, warm_start_assignment
from repro.telemetry import (
    MetricsRegistry,
    RegistrySnapshot,
    SECONDS_BUCKETS,
    scoped,
    span,
)
from repro.telemetry import runtime as telemetry_runtime
from repro.vm import compiler as vm_compiler


class ReplayRepairError(RuntimeError):
    """A run repaired in place disagrees with a run of its input from ``main``.

    The engine re-runs a reproducing input from ``main`` before it reports
    a reproduction whose final run was repaired in place; a difference means
    the repair broke the run's exactness, and the search fails loudly
    instead of reporting an input that may not reproduce the crash.
    """


class WorkerCrashError(RuntimeError):
    """A supervised search process could not deliver a result.

    The service fails a cluster with this typed error when its search
    worker died more often than ``service.max_search_retries`` allows (the
    cluster is quarantined), left a corrupt checkpoint, or raised inside
    the search; a worker death within the retry budget resumes from the
    last checkpoint instead (see :mod:`repro.service.supervisor`).
    """


@dataclass
class ReplayRunRecord:
    """Summary of one replay run (kept for diagnostics and tests)."""

    index: int
    outcome: str  # "reproduced" | "aborted" | "finished" | "crashed-elsewhere" | "step-limit"
    consumed_bits: int
    constraints: int
    deviation: str = ""


@dataclass
class ReplayOutcome:
    """Result of a bug-reproduction attempt."""

    reproduced: bool
    runs: int = 0
    wall_seconds: float = 0.0
    timed_out: bool = False
    crash_site: Optional[CrashSite] = None
    found_input: Dict[str, int] = field(default_factory=dict)
    solver_calls: int = 0
    pending_stats: Dict[str, int] = field(default_factory=dict)
    run_records: List[ReplayRunRecord] = field(default_factory=list)
    # Counters folded in from *committed* evaluations only (compile-cache
    # hits/misses additionally depend on the process's cache warmth — see
    # ``compile_cache_lookups`` below for the warmth-independent total).
    warm_start_hits: int = 0
    solver_nodes: int = 0
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    symbolic_logged_locations: int = 0
    symbolic_logged_executions: int = 0
    symbolic_not_logged_locations: int = 0
    symbolic_not_logged_executions: int = 0
    # Checkpoint lifecycle (never part of the explored-set identity).
    # ``committed_items`` counts committed evaluations — including
    # unsatisfiable ones that never ran — and is the commit index
    # checkpoints are taken at; ``resumed`` marks a search continued from
    # a checkpoint.
    committed_items: int = 0
    resumed: bool = False
    # What the search did, beyond what it explored (never part of the
    # explored-set identity: repair depends on the backend).
    # ``vm_steps`` counts the steps actually executed, the safety-net re-run
    # included; ``repairs`` the runs continued in place; ``repair_blocked``
    # the continuations a guard (by kind) sent back to ``main``.
    vm_steps: int = 0
    repairs: int = 0
    repair_blocked: Dict[str, int] = field(default_factory=dict)
    #: Solver calls that gave up (``unknown``: node budget, or a domain too
    #: wide to enumerate).  Their items were dropped like unsatisfiable
    #: ones; a search that drops one proves nothing about the bug.
    solver_unknowns: int = 0
    #: Why the search ended: "reproduced", "exhausted", "run-cap" or
    #: "deadline".
    stop_reason: str = ""
    # Metrics recorded during the search when the engine runs with
    # ``telemetry=True``; ``None`` otherwise.  Timing-marked metrics (wall
    # clocks, cache warmth, repair) are excluded from
    # ``telemetry.deterministic()``, whose canonical bytes are identical
    # for an uninterrupted search and one resumed from a checkpoint.
    telemetry: Optional[RegistrySnapshot] = None

    @property
    def compile_cache_lookups(self) -> int:
        """Compiled-code cache lookups by committed runs (hits + misses).

        Unlike the hit/miss split, which depends on how warm the process's
        cache was when the search started, the lookup total is a pure
        function of the committed run sequence: one per committed run.
        """

        return self.compile_cache_hits + self.compile_cache_misses

    def summary(self) -> str:
        status = "reproduced" if self.reproduced else (
            "timed out" if self.timed_out else "not reproduced")
        return (f"{status} after {self.runs} runs in {self.wall_seconds:.2f}s "
                f"({self.symbolic_not_logged_locations} unlogged symbolic locations)")


@dataclass
class _ItemEvaluation:
    """The distilled outcome of evaluating one pending item.

    A pure function of the item and the recording; the commit path folds it
    into the outcome without looking at live hook or VM state.
    """

    solver_calls: int
    ran: bool = False
    outcome: str = ""
    consumed_bits: int = 0
    constraints: int = 0
    deviation: str = ""
    assignment: Dict[str, int] = field(default_factory=dict)
    alternatives: List[Tuple[ConstraintSet, str]] = field(default_factory=list)
    crash: Optional[CrashSite] = None
    symbolic_logged_locations: int = 0
    symbolic_logged_executions: int = 0
    symbolic_not_logged_locations: int = 0
    symbolic_not_logged_executions: int = 0
    warm_start: bool = False
    solver_nodes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    vm_steps: int = 0
    repaired: bool = False
    repair_blocked: str = ""
    solver_unknowns: int = 0


@dataclass
class _Solution:
    """A pending item's solved input, with what finding it cost."""

    overrides: Optional[Dict[str, int]]  # None: unsatisfiable or unknown
    solver_calls: int = 0
    solver_nodes: int = 0
    unknown: bool = False
    warm: bool = False
    solve_seconds: Optional[float] = None
    # The guard kind that kept a chain from continuing into this item.
    blocked: str = ""


class _ItemScope:
    """Per-item attribution: compile-cache events and the item's clock.

    Opened around one physical run; :meth:`restart` starts the next logical
    run inside it when a chain continues in place, so every committed
    evaluation carries exactly its own cache counts, as in a restarted
    search.  Metrics go straight into the search's one registry: the search
    is serial and commits every evaluation in the order it ran.
    """

    def __init__(self, registry: Optional[MetricsRegistry]) -> None:
        self.registry = registry
        self.started = time.perf_counter()
        self._cache = vm_compiler.cache_scope()
        self.cache_events: Dict[str, int] = {}

    def __enter__(self) -> "_ItemScope":
        self.cache_events = self._cache.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._cache.__exit__(*exc)

    def restart(self) -> None:
        self.cache_events["hits"] = self.cache_events["misses"] = 0
        self.started = time.perf_counter()

    def finish(self, evaluation: _ItemEvaluation) -> _ItemEvaluation:
        """Fill *evaluation*'s cache counters and observe its histograms."""

        evaluation.cache_hits = self.cache_events["hits"]
        evaluation.cache_misses = self.cache_events["misses"]
        registry = self.registry
        if registry is None:
            return evaluation
        registry.histogram("replay.item_seconds", SECONDS_BUCKETS,
                           timing=True).observe(time.perf_counter() - self.started)
        if evaluation.ran:
            registry.histogram("replay.item_consumed_bits").observe(
                evaluation.consumed_bits)
            registry.histogram("replay.item_constraints").observe(
                evaluation.constraints)
        if evaluation.solver_calls:
            registry.histogram("replay.item_solver_nodes").observe(
                evaluation.solver_nodes)
        return evaluation


class _Chain:
    """Continues one VM run across logged symbolic mismatches.

    Installed as the replay hooks' continuation.  At a mismatch it commits
    the run exactly as an aborted run is committed, then takes the search
    loop's next steps (see :meth:`ReplayEngine._advance`).  It continues
    in place only if the item popped next is the forced alternative that
    commit pushed and the VM's guards allow the repair; otherwise the run
    ends and the search loop goes on with :attr:`next_item` (and, if it was
    solved here, :attr:`next_solution`).
    """

    def __init__(self, engine: "ReplayEngine", outcome: "ReplayOutcome",
                 pending: PendingList, start: float) -> None:
        self.engine = engine
        self.outcome = outcome
        self.pending = pending
        self.start = start
        self.ended = False
        self.next_item: Optional[PendingItem] = None
        self.next_solution: Optional[_Solution] = None
        # The physical run and its current logical run.
        self.vm = None
        self.hooks: Optional[ReplayRunHooks] = None
        self.binder: Optional[InputBinder] = None
        self.scope: Optional[_ItemScope] = None
        self.solution: Optional[_Solution] = None
        self.opened_at = 0
        self.repaired = False

    def resume(self, event, live: tuple) -> bool:
        """The hooks' continuation: True when the run goes on repaired."""

        engine = self.engine
        evaluation = self.scope.finish(engine._run_evaluation(
            self.solution, self.hooks, self.binder, "aborted", None,
            self.vm.steps - self.opened_at, self.repaired))
        item = engine._advance(self.outcome, self.pending, self.start,
                               evaluation)
        self.ended = True
        if item is None or item is not engine._forced_item:
            self.next_item = item
            return False
        self.scope.restart()
        solution = engine._solve(item)
        if solution.overrides is None:
            # Committed like the search loop's; that commit pushed nothing,
            # so whatever pops next restarts.
            engine._note_solve(solution)
            self.next_item = engine._advance(
                self.outcome, self.pending, self.start,
                self.scope.finish(engine._unsolved_evaluation(solution)))
            return False
        solution.blocked = self.vm.repair(live, solution.overrides,
                                          event.condition)
        if solution.blocked:
            self.next_item, self.next_solution = item, solution
            return False
        engine._note_solve(solution)
        self.vm.lookup_compiled()
        self.ended = False
        self.solution = solution
        self.opened_at = self.vm.steps
        self.repaired = True
        return True


def check_matched_binaries(program: Program, trace,
                           expect_plan: Optional[InstrumentationPlan] = None
                           ) -> None:
    """Raise :class:`~repro.trace.TraceFingerprintMismatch` unless *trace*
    was recorded from the binary *program* builds.

    Checked against *expect_plan* when the caller knows the plan their
    build uses, and always against the program's own branch locations (a
    trace recorded from a different program cannot line up).  The service
    runs it at ingest as well as before a search, so a trace that would
    fail its search is rejected on arrival.
    """

    from repro.trace import TraceFingerprintMismatch, verify_fingerprint

    if expect_plan is not None:
        verify_fingerprint(trace, expect_plan)
    known = set(program.branch_locations)
    unknown = [loc for loc in sorted(trace.plan.instrumented)
               if loc not in known]
    if unknown:
        raise TraceFingerprintMismatch(
            "trace instruments branch locations this program does not "
            f"have (first few: {[loc.short() for loc in unknown[:3]]}); "
            "record and replay must use matched binaries")


class ReplayEngine:
    """Searches for an input reproducing a recorded crash."""

    def __init__(self, program: Program, plan: InstrumentationPlan,
                 bitvector: BitvectorLog,
                 syscall_log: Optional[SyscallResultLog],
                 crash_site: Optional[CrashSite],
                 environment: Environment,
                 budget: Optional[ReplayBudget] = None,
                 require_full_log_match: bool = True,
                 backend: str = "vm",
                 max_call_depth: int = 256,
                 warm_start: bool = True,
                 telemetry: bool = False,
                 profile_opcodes: bool = False) -> None:
        self.program = program
        self.plan = plan
        self.bitvector = bitvector
        self.syscall_log = syscall_log
        self.crash_site = crash_site
        self.environment = environment
        self.budget = budget or ReplayBudget()
        self.backend = backend
        self.max_call_depth = max_call_depth
        self.warm_start = warm_start
        # Telemetry never affects the explored search tree; profiling opcodes
        # only makes sense with somewhere to publish the counts, so the VM
        # profiler is gated on both knobs.
        self.telemetry = telemetry
        self.profile_opcodes = profile_opcodes
        self._registry: Optional[MetricsRegistry] = None
        # Checkpoint state.  A policy is attached after
        # construction (attach_checkpointing); a resume source is installed
        # by from_checkpoint.  All of it is consulted only at commit
        # boundaries, so the explored set stays a pure function of the
        # committed sequence.
        self._ckpt_policy = None
        self._resume = None
        self._commits = 0
        self._elapsed_prior = 0.0
        self._fault_injector_cache = None
        # The forced alternative the last commit pushed (its final
        # alternative, when that push was not a duplicate or a drop).
        self._forced_item: Optional[PendingItem] = None
        # When True (the default), a run only counts as a reproduction if it
        # crashes at the recorded site *and* its instrumented branch directions
        # match the recorded bitvector exactly.  This is what "finding the
        # direction of all branches taken so that they lead the execution to
        # the bug" means for externally-induced crashes (the uServer SIGSEGV
        # scenarios), where the crash location alone carries no information.
        self.require_full_log_match = require_full_log_match

    # -- pickling: the engine's inputs, nothing it derived ---------------------------------

    def __getstate__(self) -> Dict[str, object]:
        """The constructor arguments, for a search worker or a checkpoint.

        The recorded bitvector travels packed, the program as a clone without
        its compiled-code caches (they are per-process anyway), and the plan
        without its analysis metadata.  Search state (a checkpointing policy,
        a resume source, the registry) stays behind: the rebuilt engine
        explores the same search tree by the engine's commit discipline.
        """

        program = self.program
        return {
            "program": Program(source=program.source, unit=program.unit,
                               name=program.name,
                               functions=dict(program.functions),
                               cfgs=dict(program.cfgs),
                               branch_locations=list(program.branch_locations),
                               library_functions=set(program.library_functions)),
            "plan": InstrumentationPlan(method=self.plan.method,
                                        instrumented=self.plan.instrumented,
                                        all_locations=self.plan.all_locations,
                                        log_syscalls=self.plan.log_syscalls),
            "bitvector": (self.bitvector.to_bytes(), len(self.bitvector)),
            "syscall_log": self.syscall_log,
            "crash_site": self.crash_site,
            "environment": self.environment,
            "budget": self.budget,
            "require_full_log_match": self.require_full_log_match,
            "backend": self.backend,
            "max_call_depth": self.max_call_depth,
            "warm_start": self.warm_start,
            "telemetry": self.telemetry,
            "profile_opcodes": self.profile_opcodes,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        state = dict(state)
        state["bitvector"] = BitvectorLog.from_bytes(*state["bitvector"])
        self.__init__(**state)

    # -- construction from a persisted trace ------------------------------------------------

    @classmethod
    def from_trace(cls, program: Program, trace, *,
                   expect_plan: Optional[InstrumentationPlan] = None,
                   **kwargs) -> "ReplayEngine":
        """Build an engine from a loaded :class:`~repro.trace.Trace`.

        This is the developer half of the paper's user/developer split: the
        trace carries the recording and the input scaffold; *program* is the
        developer's copy of the binary.  :func:`check_matched_binaries`
        enforces the matched-binaries assumption first.
        """

        check_matched_binaries(program, trace, expect_plan)
        return cls(program=program, plan=trace.plan, bitvector=trace.bitvector,
                   syscall_log=trace.syscall_log if trace.plan.log_syscalls else None,
                   crash_site=trace.crash_site, environment=trace.environment,
                   **kwargs)

    @classmethod
    def from_checkpoint(cls, path: str, policy=None) -> "ReplayEngine":
        """Rebuild an engine that continues the search checkpointed at *path*.

        The returned engine's :meth:`reproduce` restores the pending set, the
        outcome-so-far, the merged telemetry and the consumed budget clock,
        then continues from the saved commit boundary — producing a
        byte-identical explored set and report versus the uninterrupted run.
        Corrupt checkpoints raise
        :class:`~repro.replay.checkpoint.CheckpointFormatError` here, before
        any search work happens.
        """

        from repro.replay.checkpoint import load_checkpoint

        ckpt = load_checkpoint(path)
        engine = ckpt.engine
        engine._resume = ckpt
        if policy is not None:
            engine.attach_checkpointing(policy)
        return engine

    # -- public API -----------------------------------------------------------------------

    def attach_checkpointing(self, policy) -> None:
        """Install a :class:`~repro.replay.checkpoint.CheckpointPolicy`.

        Kept out of the constructor: checkpointing is an operational concern
        layered onto an engine (by the supervisor or a test), not part of
        the search definition the engine pickles.
        """

        self._ckpt_policy = policy
        self._fault_injector_cache = None

    def reproduce(self) -> ReplayOutcome:
        """Run the guided search until the bug is reproduced or the budget ends."""

        start = time.monotonic()
        outcome, pending = self._initial_state()
        if self.telemetry:
            self._registry = MetricsRegistry()
            if self._resume is not None and self._resume.telemetry is not None:
                # Resume with the checkpointed metrics so the final merged
                # registry equals the uninterrupted run's.
                self._registry.merge_snapshot(self._resume.telemetry)
            # The search runs under the engine registry, so the
            # replay.search span, every item's metrics and what the VM
            # publishes at the end of each physical run all land there.
            with scoped(self._registry):
                with span("replay.search"):
                    self._search(outcome, pending, start)
        else:
            self._registry = None
            self._search(outcome, pending, start)
        outcome.wall_seconds = self._elapsed_prior + time.monotonic() - start
        outcome.pending_stats = pending.stats()
        if self._registry is not None:
            self._finalize_telemetry(outcome)
        return outcome

    def _initial_state(self) -> Tuple[ReplayOutcome, PendingList]:
        """A fresh search frontier, or the one a checkpoint was taken at.

        ``dataclasses.replace`` rebuilds the outcome from its declared
        fields only, so an attribute an older build pickled into the
        snapshot's outcome does not survive the resume.
        """

        pending = PendingList(max_size=self.budget.max_pending)
        if self._resume is None:
            outcome = ReplayOutcome(reproduced=False)
            pending.push(PendingItem(ConstraintSet(), hint={}, reason="initial run"))
            return outcome, pending
        ckpt = self._resume
        outcome = dataclasses.replace(
            ckpt.outcome_state,
            found_input=dict(ckpt.outcome_state.found_input),
            pending_stats=dict(ckpt.outcome_state.pending_stats),
            run_records=list(ckpt.outcome_state.run_records),
            telemetry=None,
            stop_reason="",
            resumed=True)
        pending._items = list(ckpt.pending_items)
        pending._seen = set(ckpt.seen_signatures)
        pending.dropped = ckpt.dropped
        pending.duplicates = ckpt.duplicates
        self._commits = ckpt.commits
        self._elapsed_prior = ckpt.elapsed_seconds
        return outcome, pending

    def _finalize_telemetry(self, outcome: ReplayOutcome) -> None:
        """Record search-level metrics and snapshot the engine registry.

        Runs once, at the search's one end.  Everything deterministic here
        is a pure function of the committed run sequence; whether the
        search resumed is timing-marked so ``deterministic()`` drops it.  A
        snapshot holds no final counters, so a search resumed from one
        records them exactly once, like the uninterrupted run.
        """

        registry = self._registry
        assert registry is not None
        registry.counter("replay.reproduced").inc(
            1 if outcome.reproduced else 0)
        registry.counter("replay.timed_out").inc(1 if outcome.timed_out else 0)
        for name, value in outcome.pending_stats.items():
            registry.counter(f"replay.pending.{name}").inc(value)
        if outcome.resumed:
            registry.counter("replay.checkpoint.resumes", timing=True).inc()
        outcome.telemetry = registry.snapshot()

    # -- the search loop ---------------------------------------------------------------------

    def _search(self, outcome: ReplayOutcome, pending: PendingList,
                start: float) -> None:
        # Repairing runs in place needs the VM (which a program the
        # resolver cannot slot does not run on).
        chained = engine_for(self.program, self.backend) == "vm"
        item = self._next_item(outcome, pending, start)
        solution: Optional[_Solution] = None
        while item is not None:
            chain = _Chain(self, outcome, pending, start) if chained else None
            evaluation = self._evaluate_item(item, solution, chain)
            if evaluation is None:
                item, solution = chain.next_item, chain.next_solution
            else:
                item, solution = self._advance(outcome, pending, start,
                                               evaluation), None

    def _next_item(self, outcome: ReplayOutcome, pending: PendingList,
                   start: float) -> Optional[PendingItem]:
        """The budget check and pop that start every loop step."""

        if self._budget_exhausted(outcome, start):
            return None
        item = pending.pop()
        if item is None:
            # Nothing left to explore: the search failed outright.
            outcome.stop_reason = "exhausted"
        return item

    def _advance(self, outcome: ReplayOutcome, pending: PendingList,
                 start: float, evaluation: _ItemEvaluation
                 ) -> Optional[PendingItem]:
        """One loop step: commit, post-commit, budget check, pop.

        Returns the next item, or None when the search ends.  Shared by the
        search loop and by a chain continuing in place, so every logical run
        is committed exactly once, in pop order.
        """

        if self._commit(outcome, pending, evaluation):
            return None
        self._post_commit(outcome, pending, start)
        return self._next_item(outcome, pending, start)

    def _budget_exhausted(self, outcome: ReplayOutcome, start: float) -> bool:
        # A resumed search inherits the clock already consumed before its
        # checkpoint, so the wall budget spans the whole logical search.
        if outcome.runs >= self.budget.max_runs:
            outcome.stop_reason = "run-cap"
        elif (self._elapsed_prior + time.monotonic() - start
              > self.budget.max_seconds):
            outcome.stop_reason = "deadline"
        else:
            return False
        outcome.timed_out = True
        return True

    # -- checkpointing at commit boundaries ---------------------------------------------------

    def _post_commit(self, outcome: ReplayOutcome, pending: PendingList,
                     start: float) -> None:
        """Checkpoint/heartbeat bookkeeping after one commit.

        A snapshot written here is what a worker killed later resumes from:
        a :meth:`from_checkpoint` engine finishes the search with a
        byte-identical result.  Runs strictly at commit boundaries — the
        only points where (pending, outcome) is a consistent, resumable
        pair.
        """

        self._commits += 1
        outcome.committed_items = self._commits
        policy = self._ckpt_policy
        if policy is None:
            return
        if policy.heartbeat_path:
            self._touch(policy.heartbeat_path)
        if (policy.path and policy.every_commits
                and self._commits % policy.every_commits == 0):
            self._write_checkpoint(outcome, pending, start)
        injector = self._fault_injector()
        if injector is not None and injector.roll("worker_kill"):
            injector.kill_now()

    def _make_checkpoint(self, outcome: ReplayOutcome, pending: PendingList,
                         start: float):
        from repro.replay.checkpoint import SearchCheckpoint

        return SearchCheckpoint(
            engine=self,
            commits=self._commits,
            elapsed_seconds=self._elapsed_prior + time.monotonic() - start,
            pending_items=list(pending._items),
            seen_signatures=set(pending._seen),
            dropped=pending.dropped,
            duplicates=pending.duplicates,
            outcome_state=dataclasses.replace(outcome, telemetry=None),
            telemetry=(self._registry.snapshot()
                       if self._registry is not None else None),
        )

    def _write_checkpoint(self, outcome: ReplayOutcome, pending: PendingList,
                          start: float) -> None:
        from repro.replay.checkpoint import CheckpointError, save_checkpoint

        injector = self._fault_injector()
        # Count the attempt *before* snapshotting, so the telemetry embedded
        # in the checkpoint already includes this write: a run resumed from
        # it then reports the full write count even if the original process
        # died right after saving (the kill-at-every-commit regime would
        # otherwise keep the counter perpetually one step behind).
        if self._registry is not None:
            self._registry.counter("replay.checkpoint.writes",
                                   timing=True).inc()
        try:
            if injector is not None and injector.roll("checkpoint_fail"):
                raise OSError("injected checkpoint write failure")
            save_checkpoint(self._ckpt_policy.path,
                            self._make_checkpoint(outcome, pending, start))
        except (OSError, CheckpointError):
            # A failed checkpoint is lost insurance, not a failed search:
            # the next crash replays more work, the result stays correct.
            if self._registry is not None:
                self._registry.counter("replay.checkpoint.writes",
                                       timing=True).inc(-1)
                self._registry.counter("replay.checkpoint.write_failures",
                                       timing=True).inc()

    def _fault_injector(self):
        policy = self._ckpt_policy
        if policy is None or policy.fault_spec is None:
            return None
        if self._fault_injector_cache is None:
            # Lazy import: repro.service imports this module transitively.
            from repro.service.faults import FaultInjector
            self._fault_injector_cache = FaultInjector(policy.fault_spec)
        return self._fault_injector_cache

    @staticmethod
    def _touch(path: str) -> None:
        try:
            with open(path, "a"):
                pass
            os.utime(path, None)
        except OSError:
            pass  # a lost heartbeat only risks a spurious supervisor restart

    # -- internals --------------------------------------------------------------------------

    def _evaluate_item(self, item: PendingItem,
                       solution: Optional[_Solution] = None,
                       chain: Optional[_Chain] = None
                       ) -> Optional[_ItemEvaluation]:
        """Solve and run one pending item.

        *solution* is the item's input when a chain already solved it.  With
        a *chain* the run may go on past logged symbolic mismatches, as the
        runs of the items popped there; None means the chain ended the run
        and has committed every logical run in it (see ``chain.next_item``).
        """

        with _ItemScope(self._registry) as scope:
            if solution is None:
                solution = self._solve(item)
            self._note_solve(solution)
            if solution.overrides is None:
                return scope.finish(self._unsolved_evaluation(solution))
            if chain is not None:
                chain.scope = scope
                chain.solution = solution
            hooks, result, binder = self._run_once(solution.overrides, chain)
            if chain is None:
                steps, repaired = result.steps, False
            elif chain.ended:
                return None  # the chain committed every run it closed
            else:
                solution = chain.solution
                steps = result.steps - chain.opened_at
                repaired = chain.repaired
            evaluation = self._run_evaluation(
                solution, hooks, binder, self._classify_outcome(hooks, result),
                result.crash, steps, repaired)
        return scope.finish(evaluation)

    def _solve(self, item: PendingItem) -> _Solution:
        """The item's input: its hint, the warm start, or a real solve."""

        if len(item.constraints) == 0:
            return _Solution(dict(item.hint))
        if self.warm_start:
            # An item is its parent run's path prefix plus one negated
            # constraint, and its hint is that run's input.
            overrides = warm_start_assignment(
                item.constraints, item.hint,
                satisfied_prefix=len(item.constraints) - 1)
            if overrides is not None:
                return _Solution(overrides, warm=True)
        solve_start = time.perf_counter()
        result = solve(item.constraints, hint=item.hint)
        solution = _Solution(None, solver_calls=1,
                             solver_nodes=result.stats.nodes,
                             unknown=result.status == UNKNOWN,
                             solve_seconds=time.perf_counter() - solve_start)
        if result.satisfiable and result.assignment is not None:
            solution.overrides = dict(item.hint)
            solution.overrides.update(result.assignment)
        return solution

    @staticmethod
    def _note_solve(solution: _Solution) -> None:
        """Record the solve time in the logical run's registry."""

        if solution.solve_seconds is not None:
            telemetry_runtime.active().histogram(
                "replay.solver_seconds", SECONDS_BUCKETS,
                timing=True).observe(solution.solve_seconds)

    @staticmethod
    def _unsolved_evaluation(solution: _Solution) -> _ItemEvaluation:
        return _ItemEvaluation(solver_calls=solution.solver_calls,
                               solver_nodes=solution.solver_nodes,
                               solver_unknowns=int(solution.unknown),
                               repair_blocked=solution.blocked)

    @staticmethod
    def _run_evaluation(solution: _Solution, hooks: ReplayRunHooks,
                        binder: InputBinder, outcome: str,
                        crash: Optional[CrashSite], steps: int,
                        repaired: bool) -> _ItemEvaluation:
        """The distilled evaluation of one logical run, from its hooks."""

        logged_locs, logged_execs, unlogged_locs, unlogged_execs = \
            hooks.symbolic_counts()
        return _ItemEvaluation(
            solver_calls=solution.solver_calls,
            ran=True,
            outcome=outcome,
            consumed_bits=hooks.consumed_bits(),
            constraints=len(hooks.run_constraints),
            deviation=hooks.deviation.kind if hooks.deviation else "",
            assignment=binder.assignment(),
            alternatives=list(hooks.alternatives),
            crash=crash,
            symbolic_logged_locations=logged_locs,
            symbolic_logged_executions=logged_execs,
            symbolic_not_logged_locations=unlogged_locs,
            symbolic_not_logged_executions=unlogged_execs,
            warm_start=solution.warm,
            solver_nodes=solution.solver_nodes,
            vm_steps=steps,
            repaired=repaired,
            repair_blocked=solution.blocked,
        )

    def _commit(self, outcome: ReplayOutcome, pending: PendingList,
                evaluation: _ItemEvaluation) -> bool:
        """Fold one evaluation into the outcome; True ends the search."""

        self._forced_item = None
        if evaluation.repaired and evaluation.outcome == "reproduced":
            self._verify_repair(evaluation)
        outcome.solver_calls += evaluation.solver_calls
        outcome.solver_nodes += evaluation.solver_nodes
        outcome.solver_unknowns += evaluation.solver_unknowns
        outcome.warm_start_hits += 1 if evaluation.warm_start else 0
        outcome.compile_cache_hits += evaluation.cache_hits
        outcome.compile_cache_misses += evaluation.cache_misses
        outcome.vm_steps += evaluation.vm_steps
        outcome.repairs += 1 if evaluation.repaired else 0
        blocked = evaluation.repair_blocked
        if blocked:
            outcome.repair_blocked[blocked] = (
                outcome.repair_blocked.get(blocked, 0) + 1)
        registry = self._registry
        if registry is not None:
            registry.counter("replay.solver_calls").inc(evaluation.solver_calls)
            registry.counter("replay.solver_nodes").inc(evaluation.solver_nodes)
            if evaluation.warm_start:
                registry.counter("replay.warm_start_hits").inc()
            if evaluation.solver_unknowns:
                registry.counter("replay.solver_unknowns").inc(
                    evaluation.solver_unknowns)
            # What the VM did depends on repair, hence on the backend.
            registry.counter("replay.vm_steps", timing=True).inc(
                evaluation.vm_steps)
            registry.counter("replay.repairs", timing=True).inc(
                1 if evaluation.repaired else 0)
            if blocked:
                registry.counter(f"replay.repair_blocked.{blocked}",
                                 timing=True).inc()
        if not evaluation.ran:
            return False  # unsatisfiable constraint set: no run happened
        record = ReplayRunRecord(index=outcome.runs,
                                 outcome=evaluation.outcome,
                                 consumed_bits=evaluation.consumed_bits,
                                 constraints=evaluation.constraints,
                                 deviation=evaluation.deviation)
        outcome.runs += 1
        outcome.run_records.append(record)
        self._update_not_logged(outcome, evaluation)
        if registry is not None:
            registry.counter("replay.runs").inc()
            registry.counter(f"replay.outcome.{record.outcome}").inc()

        if record.outcome == "reproduced":
            outcome.reproduced = True
            outcome.crash_site = evaluation.crash
            outcome.found_input = dict(evaluation.assignment)
            outcome.stop_reason = "reproduced"
            return True

        # Merge the alternatives this run discovered.  Interning canonicalizes
        # the constraint chains so prefix-sharing pending items reference the
        # same Constraint objects — also after a checkpoint's pickle round
        # trip has made them prefix-sharing but identity-free.
        for constraints, reason in evaluation.alternatives:
            item = PendingItem(constraints=constraints.interned(),
                               hint=dict(evaluation.assignment),
                               depth=len(constraints),
                               origin_run=outcome.runs,
                               reason=reason)
            self._forced_item = item if pending.push(item) else None
        if evaluation.deviation != "symbolic-mismatch":
            self._forced_item = None
        return False

    def _verify_repair(self, evaluation: _ItemEvaluation) -> None:
        """The safety net: re-run a repaired reproduction from ``main``.

        Raises :class:`ReplayRepairError` unless the re-run's evaluation
        equals the repaired run's.  Its steps count into ``vm_steps``.
        """

        hooks, result, binder = self._run_once(evaluation.assignment)
        rerun = self._run_evaluation(
            _Solution(evaluation.assignment), hooks, binder,
            self._classify_outcome(hooks, result), result.crash,
            result.steps, False)
        evaluation.vm_steps += result.steps
        if _behaviour(rerun) != _behaviour(evaluation):
            raise ReplayRepairError(
                "a replay run repaired in place disagrees with its input's "
                f"run from main ({rerun.outcome} after {rerun.consumed_bits} "
                f"bits, not {evaluation.outcome} after "
                f"{evaluation.consumed_bits})")

    def _run_once(self, overrides: Dict[str, int],
                  chain: Optional[_Chain] = None):
        kernel = self.environment.make_kernel()
        binder = InputBinder(mode=ExecutionMode.REPLAY, overrides=dict(overrides))
        hooks = ReplayRunHooks(self.plan, self.bitvector)
        provider = None
        if self.plan.log_syscalls and self.syscall_log is not None:
            cursor = self.syscall_log.cursor()
            # Kept for _classify_outcome: a full-log-match reproduction must
            # also have consumed the recorded syscall results completely.
            hooks.syscall_cursor = cursor

            def provider(kind: SyscallKind, _cursor=cursor) -> Optional[int]:
                return _cursor.next_result(kind)

        config = ExecutionConfig(mode=ExecutionMode.REPLAY,
                                 max_steps=self.budget.max_steps_per_run,
                                 max_call_depth=self.max_call_depth,
                                 syscall_result_provider=provider,
                                 backend=self.backend,
                                 profile_opcodes=(self.telemetry
                                                  and self.profile_opcodes))
        executor = create_backend(self.program, kernel=kernel, hooks=hooks,
                                  binder=binder, config=config)
        if chain is None:
            return hooks, executor.run(self.environment.argv), binder
        # Only a run the chain may repair needs the guard log.
        executor.guards = []
        chain.vm, chain.hooks, chain.binder = executor, hooks, binder
        hooks.continuation = chain.resume
        try:
            result = executor.run(self.environment.argv)
        finally:
            # hooks -> chain -> VM -> hooks is a cycle: break it, so the
            # run's memory goes back at once rather than at the next GC.
            hooks.continuation = None
            chain.vm = chain.hooks = chain.binder = None
        return hooks, result, binder

    def _classify_outcome(self, hooks: ReplayRunHooks,
                          result: ExecutionResult) -> str:
        if result.aborted:
            return "aborted"
        if result.step_limit_hit:
            return "step-limit"
        if result.crashed and self._matches_crash(result):
            full_match = (hooks.deviation is None
                          and hooks.consumed_bits() == len(self.bitvector)
                          and self._syscall_log_consumed(hooks))
            if full_match or not self.require_full_log_match:
                return "reproduced"
            return "crashed-partial-match"
        if result.crashed:
            return "crashed-elsewhere"
        return "finished"

    def _syscall_log_consumed(self, hooks: ReplayRunHooks) -> bool:
        """Did the run replay every recorded syscall result?

        A sparsely instrumented plan can leave the bitvector too short to
        discriminate executions (the diff ``dynamic`` configuration logs
        almost nothing), but a run that took the recorded path performs the
        recorded I/O: leftover logged results mean the execution diverged on
        branches the plan did not log, so it is not a reproduction.
        """

        cursor = getattr(hooks, "syscall_cursor", None)
        if cursor is None or self.syscall_log is None:
            return True
        return all(cursor.remaining(kind) == 0
                   for kind in self.syscall_log.results)

    def _matches_crash(self, result: ExecutionResult) -> bool:
        if result.crash is None:
            return False
        if self.crash_site is None:
            return True
        return result.crash.same_location(self.crash_site)

    @staticmethod
    def _update_not_logged(outcome: ReplayOutcome,
                           evaluation: _ItemEvaluation) -> None:
        outcome.symbolic_logged_locations = max(
            outcome.symbolic_logged_locations,
            evaluation.symbolic_logged_locations)
        outcome.symbolic_logged_executions = max(
            outcome.symbolic_logged_executions,
            evaluation.symbolic_logged_executions)
        outcome.symbolic_not_logged_locations = max(
            outcome.symbolic_not_logged_locations,
            evaluation.symbolic_not_logged_locations)
        outcome.symbolic_not_logged_executions = max(
            outcome.symbolic_not_logged_executions,
            evaluation.symbolic_not_logged_executions)


def _behaviour(evaluation: _ItemEvaluation) -> tuple:
    """Everything a run determines about the search, for the safety net."""

    crash = evaluation.crash
    return (evaluation.outcome, evaluation.consumed_bits,
            evaluation.constraints, evaluation.deviation,
            tuple(evaluation.assignment.items()),
            tuple((constraints.signature(), reason)
                  for constraints, reason in evaluation.alternatives),
            None if crash is None else (crash.function, crash.line,
                                        crash.message),
            evaluation.symbolic_logged_locations,
            evaluation.symbolic_logged_executions,
            evaluation.symbolic_not_logged_locations,
            evaluation.symbolic_not_logged_executions)
