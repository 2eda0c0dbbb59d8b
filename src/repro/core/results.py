"""Result dataclasses returned by the pipeline stages."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.dataflow import StaticAnalysisResult
from repro.concolic.engine import DynamicAnalysisResult
from repro.environment import Environment
from repro.instrument.logger import BitvectorLog, SyscallResultLog
from repro.instrument.overhead import OverheadReport
from repro.instrument.plan import InstrumentationPlan
from repro.interp.interpreter import CrashSite, ExecutionResult
from repro.replay.engine import ReplayOutcome


@dataclass
class AnalysisResult:
    """Combined output of the pre-deployment analyses."""

    dynamic: Optional[DynamicAnalysisResult]
    static: Optional[StaticAnalysisResult]

    def summary(self) -> str:
        parts = []
        if self.dynamic is not None:
            parts.append(self.dynamic.summary())
        if self.static is not None:
            parts.append(self.static.summary())
        return "; ".join(parts) if parts else "no analysis performed"


@dataclass
class RecordingResult:
    """What the (simulated) user site ships to the developer after a crash.

    The bug report consists of the bitvector, the optional syscall-result log
    and the crash site.  The execution summary and overhead report stay on the
    user side and are used by the overhead experiments.
    """

    plan: InstrumentationPlan
    environment: Environment
    bitvector: BitvectorLog
    syscall_log: SyscallResultLog
    crash_site: Optional[CrashSite]
    execution: ExecutionResult
    overhead: OverheadReport
    baseline_steps: int

    @property
    def crashed(self) -> bool:
        return self.execution.crashed

    def storage_bytes(self) -> int:
        total = self.bitvector.storage_bytes()
        if self.plan.log_syscalls:
            total += self.syscall_log.storage_bytes()
        return total

    def describe(self) -> Dict[str, object]:
        return {
            "method": self.plan.method,
            "crashed": self.crashed,
            "crash": None if self.crash_site is None else
                     f"{self.crash_site.function}:{self.crash_site.line}",
            "bitvector_bits": len(self.bitvector),
            "logged_syscall_results": self.syscall_log.count(),
            "storage_bytes": self.storage_bytes(),
            "cpu_time_percent": round(self.overhead.cpu_time_percent, 1),
        }


@dataclass
class ReplayReport:
    """Developer-site result of a reproduction attempt."""

    method: str
    outcome: ReplayOutcome
    scenario: str = ""

    @property
    def reproduced(self) -> bool:
        return self.outcome.reproduced

    @property
    def timed_out(self) -> bool:
        return self.outcome.timed_out

    @property
    def replay_seconds(self) -> float:
        return self.outcome.wall_seconds

    @property
    def runs(self) -> int:
        return self.outcome.runs

    def describe(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "scenario": self.scenario,
            "reproduced": self.reproduced,
            "timed_out": self.timed_out,
            "replay_seconds": round(self.replay_seconds, 3),
            "runs": self.runs,
            "unlogged_symbolic_locations": self.outcome.symbolic_not_logged_locations,
            "unlogged_symbolic_executions": self.outcome.symbolic_not_logged_executions,
        }


@dataclass
class BranchLoggingStats:
    """Symbolic branch locations/executions logged vs not logged (Tables 4, 7, 8).

    Computed from a ground-truth profiling run of the *recorded* scenario: the
    set of branch executions whose conditions actually depended on input,
    split by whether the instrumentation plan logs their location.
    """

    method: str
    scenario: str
    logged_locations: int
    logged_executions: int
    not_logged_locations: int
    not_logged_executions: int

    def describe(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "scenario": self.scenario,
            "logged": f"{self.logged_locations} / {self.logged_executions}",
            "not_logged": f"{self.not_logged_locations} / {self.not_logged_executions}",
        }
